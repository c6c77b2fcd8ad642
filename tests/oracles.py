"""Oracles used by the test suite.

Most of them are plain-Python arithmetic over lists and dicts, written
directly from the defining formulas, and share no code with the package
under test. The exceptions are marked as reference versions of an earlier
design: they keep a replaced algorithm, built from the package's own
primitives, so that its replacement can be checked against it. The
autodiff ops that only the tests use (zeros, matrix and entrywise
products, sigmoid, softmax, sums, column segments, joining matrices side
by side and attention energies, and the per-step GRU update and attention
read that the fused scans replaced) live here too, recorded on the
package's tape through `autodiff._emit`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from sentsimp import autodiff as ad
from sentsimp.corpus import BOS_ID, EOS_ID, PUNCTUATION, find_block
from sentsimp.decoding import Hypothesis, beam_search
from sentsimp.errors import DimensionError, NumericError
from sentsimp.model import decode_step, decoder_stage, encode, init_decoder_state, output_logits


# ---------------------------------------------------------------- tensor math


def matmul_loops(a, b):
    """Triple-loop matrix product over nested lists."""
    m, k, n = len(a), len(b), len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return out


def matvec_loops(a, v):
    return [sum(a[i][t] * v[t] for t in range(len(v))) for i in range(len(a))]


def sigmoid_scalar(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def tanh_scalar(x: float) -> float:
    return math.tanh(x)


def softmax_loops(xs):
    top = max(xs)
    exps = [math.exp(x - top) for x in xs]
    z = sum(exps)
    return [e / z for e in exps]


# ---------------------------------------------------------------- GRU / attention


def gru_step_loops(e, h_prev, p):
    """One GRU update from the gate equations, over plain lists.

    p maps names w_z,u_z,b_z,w_r,u_r,b_r,w_h,u_h,b_h to nested lists.
    """
    z = [sigmoid_scalar(a + b + c) for a, b, c in zip(matvec_loops(p["w_z"], e), matvec_loops(p["u_z"], h_prev), p["b_z"])]
    r = [sigmoid_scalar(a + b + c) for a, b, c in zip(matvec_loops(p["w_r"], e), matvec_loops(p["u_r"], h_prev), p["b_r"])]
    rh = [ri * hi for ri, hi in zip(r, h_prev)]
    h_tilde = [
        tanh_scalar(a + b + c)
        for a, b, c in zip(matvec_loops(p["w_h"], e), matvec_loops(p["u_h"], rh), p["b_h"])
    ]
    return [(1.0 - zi) * hp + zi * ht for zi, hp, ht in zip(z, h_prev, h_tilde)]


def encode_loops(source_ids, emb, fwd, bwd):
    """Bidirectional GRU annotations: per-position [forward; backward]."""
    dim = len(fwd["b_z"])
    h = [0.0] * dim
    fwd_states = []
    for tok in source_ids:
        h = gru_step_loops(emb[tok], h, fwd)
        fwd_states.append(h)
    h = [0.0] * dim
    bwd_states = [None] * len(source_ids)
    for i in range(len(source_ids) - 1, -1, -1):
        h = gru_step_loops(emb[source_ids[i]], h, bwd)
        bwd_states[i] = h
    annotations = [f + b for f, b in zip(fwd_states, bwd_states)]
    width = 2 * dim
    mean = [sum(row[j] for row in annotations) / len(annotations) for j in range(width)]
    return annotations, mean


def attention_loops(s_prev, annotations, att):
    """Additive attention energies, weights and context over lists."""
    q = matvec_loops(att["w"], s_prev)
    energies = []
    for h in annotations:
        pre = [a + b + c for a, b, c in zip(q, matvec_loops(att["u"], h), att["b"])]
        energies.append(sum(v * tanh_scalar(x) for v, x in zip(att["v"], pre)))
    alpha = softmax_loops(energies)
    width = len(annotations[0])
    context = [sum(alpha[j] * annotations[j][i] for j in range(len(annotations))) for i in range(width)]
    return context, alpha


def decoder_step_loops(prev_emb, s_prev, annotations, p):
    """Decoder GRU update with context plus the output distribution."""
    c, alpha = attention_loops(s_prev, annotations, p["att"])
    z = [
        sigmoid_scalar(a + b + cc + d)
        for a, b, cc, d in zip(
            matvec_loops(p["w_z"], prev_emb),
            matvec_loops(p["u_z"], s_prev),
            matvec_loops(p["c_z"], c),
            p["b_z"],
        )
    ]
    r = [
        sigmoid_scalar(a + b + cc + d)
        for a, b, cc, d in zip(
            matvec_loops(p["w_r"], prev_emb),
            matvec_loops(p["u_r"], s_prev),
            matvec_loops(p["c_r"], c),
            p["b_r"],
        )
    ]
    rs = [ri * si for ri, si in zip(r, s_prev)]
    s_tilde = [
        tanh_scalar(a + b + cc + d)
        for a, b, cc, d in zip(
            matvec_loops(p["w_s"], prev_emb),
            matvec_loops(p["u_s"], rs),
            matvec_loops(p["c_s"], c),
            p["b_s"],
        )
    ]
    s = [(1.0 - zi) * sp + zi * st for zi, sp, st in zip(z, s_prev, s_tilde)]
    feat = list(prev_emb) + list(s) + list(c)
    logits = [sum(wi * fi for wi, fi in zip(row, feat)) + b for row, b in zip(p["out_w"], p["out_b"])]
    return s, softmax_loops(logits), alpha


# ---------------------------------------------------------------- beam search


def exhaustive_best(step_fn, init_state, seed_token, boundary_id, content_ids, max_new):
    """Best complete sequence by full enumeration.

    A sequence is complete when the boundary token is emitted (its log-prob
    counts, content unchanged) or when max_new content tokens were emitted.
    Ties break exactly like the decoder: higher score, then shorter, then
    lexicographically smaller content.
    """
    best = None

    def key(score, tokens):
        return (-score, len(tokens), tokens)

    def offer(score, tokens):
        nonlocal best
        if best is None or key(score, tokens) < key(*best):
            best = (score, tokens)

    def walk(tokens, score, state):
        prev = tokens[-1] if tokens else seed_token
        new_state, dist = step_fn(prev, state)
        offer(score + math.log(dist[boundary_id]), tuple(tokens))
        for tok in content_ids:
            child = tokens + [tok]
            child_score = score + math.log(dist[tok])
            if len(child) == max_new:
                offer(child_score, tuple(child))
            else:
                walk(child, child_score, new_state)

    if max_new == 0:
        return 0.0, ()
    walk([], 0.0, init_state)
    return best


def beam_search_per_hypothesis(step_fn, init_state, seed_token, boundary_id, beam_size, max_new):
    """Beam search that steps one hypothesis at a time; returns (tokens, log_prob).

    step_fn(prev_token, state) -> (new_state, log-probability list). Same
    rules as the decoder: a beam-1 greedy rollout seeds the finished pool
    of wider beams; beam 1 expands the argmax only, wider beams the best
    beam_size + 1 tokens; a hypothesis ends at the boundary (scored) or at
    max_new tokens (unscored); ranking is by summed log-prob, then
    shorter, then smaller.
    """

    def key(hyp):
        tokens, score = hyp[0], hyp[1]
        return (-score, len(tokens), tokens)

    if max_new <= 0:
        return (), 0.0
    active = [((), 0.0, init_state)]  # (tokens, log_prob, state)
    finished = []
    if beam_size > 1:
        finished.append(
            beam_search_per_hypothesis(step_fn, init_state, seed_token, boundary_id, 1, max_new)
            + (None,)
        )
    for _ in range(max_new):
        candidates = []
        for tokens, log_prob, state in active:
            prev = tokens[-1] if tokens else seed_token
            new_state, log_dist = step_fn(prev, state)
            width = 1 if beam_size == 1 else min(beam_size + 1, len(log_dist))
            ranked = sorted(range(len(log_dist)), key=lambda t: -log_dist[t])[:width]
            for tok in ranked:
                score = log_prob + log_dist[tok]
                if tok == boundary_id:
                    finished.append((tokens, score, new_state))
                else:
                    candidates.append((tokens + (tok,), score, new_state))
        candidates.sort(key=key)
        active = candidates[:beam_size]
        finished.sort(key=key)
        finished = finished[: beam_size * (max_new + 1)]
        if not active:
            break
        if finished and finished[0][1] > active[0][1]:
            break
    best = min(finished + active, key=key)
    return best[0], best[1]


def beam_search_nested_greedy(step_fn, init_state, seed_token, boundary_id, beam_size, max_new):
    """Reference version of an earlier design: the batched beam search with
    the greedy hypothesis found by a nested beam-1 search run to the end
    before the beam starts, and its result put in the finished pool. Same
    step-function contract as `decoding.beam_search`; returns a Hypothesis.
    """

    def rank(hyp):
        return (-hyp.log_prob, len(hyp.tokens), hyp.tokens)

    if max_new <= 0:
        return Hypothesis((), 0.0, init_state, stop="length_cap")
    active = [Hypothesis((), 0.0, init_state)]
    finished = []
    if beam_size > 1:
        finished.append(
            beam_search_nested_greedy(step_fn, init_state, seed_token, boundary_id, 1, max_new)
        )
    for _ in range(max_new):
        prev = [hyp.tokens[-1] if hyp.tokens else seed_token for hyp in active]
        new_states, log_probs = step_fn(prev, np.stack([hyp.state for hyp in active]))
        if not np.all(np.isfinite(log_probs)):
            raise NumericError("beam search: a step's log-probabilities are not all finite")
        width = 1 if beam_size == 1 else min(beam_size + 1, log_probs.shape[1])
        rows = np.arange(len(active))[:, None]
        top = np.argpartition(-log_probs, width - 1, axis=1)[:, :width]
        top = top[rows, np.argsort(-log_probs[rows, top], axis=1, kind="stable")]
        candidates = []
        for hyp, state, toks, tok_log_probs in zip(
            active, new_states, top.tolist(), log_probs[rows, top].tolist()
        ):
            for tok, log_p in zip(toks, tok_log_probs):
                score = hyp.log_prob + log_p
                if tok == boundary_id:
                    finished.append(Hypothesis(hyp.tokens, score, state, stop="boundary"))
                else:
                    candidates.append(Hypothesis(hyp.tokens + (tok,), score, state))
        candidates.sort(key=rank)
        active = candidates[:beam_size]
        finished.sort(key=rank)
        finished = finished[: beam_size * (max_new + 1)]
        if not active:
            break
        if finished and finished[0].log_prob > active[0].log_prob:
            return finished[0]
    finished.extend(hyp._replace(stop="length_cap") for hyp in active)
    return min(finished, key=rank)


def expand_and_rank(hyps, states, log_probs, width, keep, boundary_id, finished):
    """Reference version of an earlier design: `decoding._expand`, which
    built a `Hypothesis` for every continuation of each hypothesis by its
    row's width best tokens (a boundary token's into finished), then sorted
    them by the rank key (-log_prob, length, tokens) and kept the keep
    best."""
    rows = np.arange(len(hyps))[:, None]
    top = (-log_probs).argpartition(width - 1, axis=1)[:, :width]
    top = top[rows, (-log_probs[rows, top]).argsort(axis=1, kind="stable")]
    candidates = []
    for hyp, state, toks, tok_log_probs in zip(hyps, states, top.tolist(), log_probs[rows, top].tolist()):
        for tok, log_p in zip(toks, tok_log_probs):
            score = hyp.log_prob + log_p
            if tok == boundary_id:
                finished.append(Hypothesis(hyp.tokens, score, state, stop="boundary"))
            else:
                candidates.append(Hypothesis(hyp.tokens + (tok,), score, state))
    candidates.sort(key=lambda hyp: (-hyp.log_prob, len(hyp.tokens), hyp.tokens))
    return candidates[:keep]


def search_by_decode_step(encoded, params, given, boundary_id, max_new, beam_size):
    """Reference version of an earlier design: `decoding._search` with a
    beam step of one `decode_step` over one token per row, then
    `output_logits` and `autodiff.log_softmax`, each step going through
    the ops and building its decoder stage afresh."""
    annotations, h_mean = encoded
    state = init_decoder_state(h_mean, params)
    emb = params.embedding.shape[1]
    state_cols = slice(emb, emb + state.shape[1])
    source_lengths = [annotations.shape[0]]
    if len(given) > 1:
        rows = decode_step([given[:-1]], state, decoder_stage(annotations, params, source_lengths))
        state = ad.Tensor(rows.data[-1:, state_cols])

    def step(prev_tokens, states):
        stage = decoder_stage(annotations, params, source_lengths)
        rows = decode_step([[tok] for tok in prev_tokens], ad.Tensor(states), stage)
        return rows.data[:, state_cols], ad.log_softmax(output_logits(rows, params).data)

    return beam_search(step, state.data[0], given[-1], boundary_id, beam_size=beam_size, max_new=max_new)


# ---------------------------------------------------------------- tokenization


def tokenize_chars(text):
    """Reference version of an earlier design: `corpus.tokenize` walking the
    lowercased text one character at a time, a listed mark padded with a
    space on each side."""
    pieces = []
    for ch in text.lower():
        pieces.append(f" {ch} " if ch in PUNCTUATION else ch)
    return "".join(pieces).split()


# ---------------------------------------------------------------- rule lookup


def matches_at_scan(rules, tokens, start):
    """Reference version of an earlier design: `KnowledgeBase.matches_at`
    over rules bucketed by the first token of their complex side, each
    bucket sorted longest complex side first, then best score, then shorter
    simple side (stable, so ties keep their order in `rules`), and scanned
    in full at each position."""
    bucket = sorted(
        (rule for rule in rules if rule.complex[0] == tokens[start]),
        key=lambda r: (-len(r.complex), -r.score, len(r.simple), r.simple),
    )
    matches = []
    for rule in bucket:
        end = start + len(rule.complex)
        if end <= len(tokens) and tuple(tokens[start:end]) == rule.complex:
            matches.append(rule)
    return matches


# ---------------------------------------------------------------- constraint choice


def select_training_constraint_scan(pair, rules, freq_table, vocab):
    """Reference version of an earlier design: `training.select_training_constraint`
    scanning every rule of the knowledge base for each pair, rules given as
    a list, with a whole-source search for each rule's complex side."""
    source_tokens = vocab.decode(pair.source)
    target_tokens = vocab.decode(pair.target)
    candidates = []
    for rule in rules:
        if len(rule.simple) != 1 or rule.simple[0] not in target_tokens:
            continue
        if find_block(source_tokens, rule.complex) is not None:
            position = target_tokens.index(rule.simple[0]) + 1
            candidates.append((freq_table.phrase_count(rule.complex), position, rule.complex))
    if candidates:
        return min(candidates)[1]
    fallback = [(freq_table.count(tok), i + 1) for i, tok in enumerate(target_tokens) if tok not in PUNCTUATION]
    if not fallback:
        fallback = [(freq_table.count(tok), i + 1) for i, tok in enumerate(target_tokens)]
    return min(fallback)[1]


# ---------------------------------------------------------------- metrics


def ngrams_list(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def bleu_loops(candidates, references, max_n=4):
    """Corpus BLEU from first principles (no smoothing)."""
    clipped = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cgrams = Counter(ngrams_list(cand, n))
            rgrams = Counter(ngrams_list(ref, n))
            for g, c in cgrams.items():
                clipped[n - 1] += min(c, rgrams.get(g, 0))
            totals[n - 1] += max(0, len(cand) - n + 1)
    log_sum = 0.0
    orders = 0
    for n in range(max_n):
        if totals[n] == 0:
            continue
        orders += 1
        if clipped[n] == 0:
            return 0.0
        log_sum += math.log(clipped[n] / totals[n])
    if orders == 0 or cand_len == 0:
        return 0.0
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_sum / orders)


def sari_loops(input_toks, output_toks, references, max_n=4, vacuous=1.0):
    """SARI by explicit n-gram multiset enumeration.

    add: F1 over the n-gram sets of O minus I, judged by the references;
    keep: F1 over replicated multisets of O intersect I; del: precision over
    I minus O. Empty candidate/denominator sets take `vacuous`.
    """
    numref = len(references)
    per_n = []
    for n in range(1, max_n + 1):
        igrams = Counter(ngrams_list(input_toks, n))
        ograms = Counter(ngrams_list(output_toks, n))
        rgrams = Counter()
        for ref in references:
            rgrams.update(ngrams_list(ref, n))
        irep = Counter({g: c * numref for g, c in igrams.items()})
        orep = Counter({g: c * numref for g, c in ograms.items()})

        # keep
        kept = irep & orep
        kept_good = kept & rgrams
        kept_all = irep & rgrams
        if kept:
            p = sum(kept_good[g] / kept[g] for g in kept) / len(kept)
        else:
            p = vacuous
        if kept_all:
            r = sum(kept_good[g] / kept_all[g] for g in kept_all if g in kept_good) / len(kept_all)
        else:
            r = vacuous
        keep = 0.0 if p + r == 0 else 2 * p * r / (p + r)

        # deletion (precision only)
        deleted = irep - orep
        deleted_good = deleted - rgrams
        if deleted:
            dele = sum(deleted_good[g] / deleted[g] for g in deleted_good) / len(deleted)
        else:
            dele = vacuous

        # addition (set-based)
        added = set(ograms) - set(igrams)
        added_good = added & set(rgrams)
        added_all = set(rgrams) - set(igrams)
        p = len(added_good) / len(added) if added else vacuous
        r = len(added_good) / len(added_all) if added_all else vacuous
        addn = 0.0 if p + r == 0 else 2 * p * r / (p + r)

        per_n.append((keep + dele + addn) / 3.0)
    return 100.0 * sum(per_n) / len(per_n)


def sari_counter(input_tokens, output_tokens, references, max_n=4, vacuous=1.0):
    """Reference version of an earlier design: `metrics.sari` on `Counter`
    multiset algebra (`&` for intersection, `-` for difference), with the
    same float terms summed in the same order, so it agrees bit for bit."""
    numref = len(references)
    total = 0.0
    for n in range(1, max_n + 1):
        in_rep = Counter({g: c * numref for g, c in Counter(ngrams_list(input_tokens, n)).items()})
        out_rep = Counter({g: c * numref for g, c in Counter(ngrams_list(output_tokens, n)).items()})
        ref_all = Counter()
        for ref in references:
            ref_all.update(Counter(ngrams_list(ref, n)))

        kept = in_rep & out_rep
        kept_good = kept & ref_all
        kept_all = in_rep & ref_all
        keep_p = sum(kept_good[g] / kept[g] for g in kept) / len(kept) if kept else vacuous
        keep_r = sum(kept_good[g] / kept_all[g] for g in kept_all) / len(kept_all) if kept_all else vacuous
        keep = 0.0 if keep_p + keep_r == 0.0 else 2.0 * keep_p * keep_r / (keep_p + keep_r)

        deleted = in_rep - out_rep
        deleted_good = deleted - ref_all
        delete = sum(deleted_good[g] / deleted[g] for g in deleted_good) / len(deleted) if deleted else vacuous

        added = set(out_rep) - set(in_rep)
        added_good = added & set(ref_all)
        added_all = set(ref_all) - set(in_rep)
        add_p = len(added_good) / len(added) if added else vacuous
        add_r = len(added_good) / len(added_all) if added_all else vacuous
        add = 0.0 if add_p + add_r == 0.0 else 2.0 * add_p * add_r / (add_p + add_r)

        total += (add + keep + delete) / 3.0
    return 100.0 * total / max_n


def syllables_heuristic(word: str) -> int:
    """Maximal vowel groups, minus a terminal silent e (unless -le), min 1."""
    vowels = set("aeiouy")
    groups = 0
    prev_vowel = False
    for ch in word:
        is_vowel = ch in vowels
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if word.endswith("e") and not word.endswith("le"):
        groups -= 1
    return max(groups, 1)


def fk_from_counts(words: int, sentences: int, syllables: int) -> float:
    return 0.39 * words / sentences + 11.8 * syllables / words - 15.59


def top_k_tokens(sequences, k):
    """Most frequent k tokens by an independent counter; ties lexicographic."""
    counts: dict[str, int] = {}
    for seq in sequences:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return ordered[:k]


# ---------------------------------------------------------------- dense backward


def backward_dense(tape, loss):
    """Reference version of an earlier design: `Tape.backward` with a
    `take_rows` gradient as a zero matrix the size of its input with the
    rows added in, and every gradient summed into one dense adjoint per
    tensor, one new full-size array per add; leaves take their sums at the
    end."""
    adjoints = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    for out, inputs, backward_fn in reversed(tape._records):
        out_adj = adjoints.pop(id(out), None)
        if out_adj is None:
            continue
        out.grad = out_adj if out.grad is None else out.grad + out_adj
        for inp, grad in zip(inputs, backward_fn(out_adj)):
            if grad is None:
                continue
            if isinstance(grad, ad.RowGrad):
                rows = grad
                grad = np.zeros_like(inp.data)
                np.add.at(grad, rows.ids, rows.g)
            key = id(inp)
            if key in adjoints:
                adjoints[key] = adjoints[key] + grad
            else:
                adjoints[key] = grad
                holders[key] = inp
    for key, adj in adjoints.items():
        leaf = holders[key]
        leaf.grad = adj if leaf.grad is None else leaf.grad + adj


# ---------------------------------------------------------------- test-only autodiff ops


def matmul(a, b):
    """Matrix product of two matrices."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul: expected two matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    return ad._emit(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def add(a, b):
    """Entrywise sum."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ: {a.shape} vs {b.shape}")
    return ad._emit(a.data + b.data, (a, b), lambda g: (g.copy(), g.copy()))


def mul(a, b):
    """Hadamard (entrywise) product."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes differ: {a.shape} vs {b.shape}")
    return ad._emit(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def one_minus(a):
    return ad._emit(1.0 - a.data, (a,), lambda g: (-g,))


def sigmoid(a):
    out = ad._sigmoid(a.data)

    def back(g):
        return (g * out * (1.0 - out),)

    return ad._emit(out, (a,), back)


def softmax(a):
    """Stable softmax over the last axis (of each row); outputs are positive
    and sum to one."""
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError(f"softmax: expected non-empty rows, got shape {a.shape}")
    out = ad._softmax(a.data, "softmax: input contains non-finite values")

    def back(g):
        return (ad._softmax_back(out, g),)

    return ad._emit(out, (a,), back)


def tsum(a):
    """Sum of all entries, as a scalar tensor."""
    return ad._emit(np.asarray(a.data.sum()), (a,), lambda g: (np.full_like(a.data, float(g)),))


def segment(m, start, stop):
    """Columns start..stop-1 of a matrix, e.g. one gate of fused pre-activations."""
    if m.ndim != 2 or not 0 <= start < stop <= m.shape[1]:
        raise DimensionError(f"segment: bad range [{start}, {stop}) for shape {m.shape}")

    def back(g):
        grad = np.zeros_like(m.data)
        grad[:, start:stop] = g
        return (grad,)

    return ad._emit(m.data[:, start:stop].copy(), (m,), back)


def zeros(shape):
    return ad.Tensor(np.zeros(shape))


def concat(parts):
    """Join matrices with one row count side by side (along the last axis)."""
    parts = tuple(parts)
    if not parts or any(p.ndim != 2 for p in parts) or len({p.shape[0] for p in parts}) != 1:
        raise DimensionError(f"concat: cannot join {[p.shape for p in parts]}")
    stops = list(itertools.accumulate(p.shape[1] for p in parts))

    def back(g):
        return tuple(g[:, lo:hi].copy() for lo, hi in zip([0] + stops[:-1], stops))

    return ad._emit(np.concatenate([p.data for p in parts], axis=1), parts, back)


def attention_energies(keys, query, v):
    """Additive-attention energies (B, n): v . tanh(keys[j] + query[b]) for
    every query row b and key row j."""
    if (
        keys.ndim != 2 or query.ndim != 2 or v.ndim != 1
        or not keys.shape[1] == query.shape[1] == v.shape[0]
    ):
        raise DimensionError(
            f"attention_energies: keys {keys.shape}, query {query.shape} and v {v.shape} disagree"
        )
    hidden = np.tanh(keys.data[None, :, :] + query.data[:, None, :])  # (B, n, dim)

    def back(g):
        d_pre = g[:, :, None] * v.data * (1.0 - hidden * hidden)
        return d_pre.sum(axis=0), d_pre.sum(axis=1), g.reshape(-1) @ hidden.reshape(g.size, -1)

    return ad._emit(hidden @ v.data, (keys, query, v), back)


# ---------------------------------------------------------------- composed GRU step and attention


def gru_step_composed(gx, h_prev, u_zr, u_h):
    """Reference version of an earlier design: `autodiff.gru_step` composed
    of 15 primitive ops (column segments, two bias-free affine maps, each
    plus its segment of gx, the gate nonlinearities and the elementwise
    update), each with its own backward."""
    d = h_prev.shape[1]
    zr = sigmoid(add(ad.affine(h_prev, u_zr, zeros((2 * d,))), segment(gx, 0, 2 * d)))
    z, r = segment(zr, 0, d), segment(zr, d, 2 * d)
    h_tilde = ad.tanh(add(ad.affine(mul(r, h_prev), u_h, zeros((d,))), segment(gx, 2 * d, 3 * d)))
    return add(mul(one_minus(z), h_prev), mul(z, h_tilde))


def attention_composed(s, keys, annotations, w, v):
    """Reference version of an earlier design: `autodiff.attention` composed
    of 4 primitive ops (the bias-free query affine map, the energies, the
    softmax and the context product). Returns the context rows and alpha as
    tensors."""
    query = ad.affine(s, w, zeros((w.shape[0],)))
    alpha = softmax(attention_energies(keys, query, v))
    return matmul(alpha, annotations), alpha


# ---------------------------------------------------------------- per-step GRU and attention ops


def gru_step(gx, h_prev, u_zr, u_h):
    """Reference version of an earlier design: one GRU update of B rows,
    fused into one op (the step that `autodiff.gru_scan` repeats):
    h = (1 - z) * h_prev + z * tanh(gx_h + (r * h_prev) @ u_h.T), with the
    update and reset gates [z, r] = sigmoid(gx_zr + h_prev @ u_zr.T).

    gx (B, 3dim) holds the input pre-activations of the gates in the order
    update, reset, candidate; u_zr is (2dim, dim) and u_h (dim, dim).
    """
    if h_prev.ndim != 2 or gx.ndim != 2:
        raise DimensionError(f"gru_step: expected matrices, got gx {gx.shape} and h_prev {h_prev.shape}")
    rows, d = h_prev.shape
    if gx.shape != (rows, 3 * d) or u_zr.shape != (2 * d, d) or u_h.shape != (d, d):
        raise DimensionError(
            f"gru_step: gx {gx.shape}, h_prev {h_prev.shape}, u_zr {u_zr.shape} and u_h {u_h.shape} disagree"
        )
    h0 = h_prev.data
    zr = ad._sigmoid(h0 @ u_zr.data.T + gx.data[:, : 2 * d])
    z, r = zr[:, :d], zr[:, d:]
    rh = r * h0
    h_tilde = np.tanh(rh @ u_h.data.T + gx.data[:, 2 * d :])

    def back(g):
        d_cand = g * z * (1.0 - h_tilde * h_tilde)
        d_rh = d_cand @ u_h.data
        d_zr = np.concatenate([g * h_tilde - g * h0, d_rh * h0], axis=1) * zr * (1.0 - zr)
        d_h = g * (1.0 - z) + d_rh * r + d_zr @ u_zr.data
        return np.concatenate([d_zr, d_cand], axis=1), d_h, np.dot(d_zr.T, h0), np.dot(d_cand.T, rh)

    return ad._emit((1.0 - z) * h0 + z * h_tilde, (gx, h_prev, u_zr, u_h), back)


def attention(s, keys, annotations, w, v):
    """Reference version of an earlier design: one additive-attention read
    for B query states s (B, dim), fused into one op (the read that
    `autodiff.decoder_scan` makes at every step).

    The query rows are s @ w.T; the energies of row b are
    v . tanh(keys[j] + query[b]) over the n key rows; their row-wise softmax
    alpha (B, n) weighs the n annotation rows. Returns the contexts
    alpha @ annotations (B, width) and alpha as a plain array.
    """
    if s.ndim != 2 or w.ndim != 2 or s.shape[1] != w.shape[1]:
        raise DimensionError(f"attention: states {s.shape} do not fit weight {w.shape}")
    dim = w.shape[0]
    if (
        v.shape != (dim,) or keys.ndim != 2 or keys.shape[1] != dim
        or annotations.ndim != 2 or annotations.shape[0] != keys.shape[0]
    ):
        raise DimensionError(
            f"attention: weight {w.shape}, v {v.shape}, keys {keys.shape}"
            f" and annotations {annotations.shape} disagree"
        )
    query = s.data @ w.data.T
    hidden = np.tanh(keys.data[None, :, :] + query[:, None, :])  # (B, n, dim)
    alpha = ad._softmax(hidden @ v.data, "attention: energies contain non-finite values")

    def back(g):
        d_energy = ad._softmax_back(alpha, g @ annotations.data.T)
        d_pre = d_energy[:, :, None] * v.data * (1.0 - hidden * hidden)
        d_query = d_pre.sum(axis=1)
        return (
            d_query @ w.data,
            d_pre.sum(axis=0),
            np.dot(alpha.T, g),
            np.dot(d_query.T, s.data),
            d_energy.reshape(-1) @ hidden.reshape(d_energy.size, -1),
        )

    return ad._emit(alpha @ annotations.data, (s, keys, annotations, w, v), back), alpha


# ---------------------------------------------------------------- per-step encoder and decoder


def run_gru(gx, p, order):
    """Reference version of an earlier design: the states (n, dim) of one
    GRU that reads the rows of gx in the given order from a zero state, one
    `gru_step` per row; row t is its state after reading row t."""
    h = zeros((1, p.u_h.shape[0]))
    states = {}
    for t in order:
        h = states[t] = gru_step(ad.take_rows(gx, [t]), h, p.u_zr, p.u_h)
    return ad.stack([states[t] for t in range(len(states))])


def encode_per_step(source, params):
    """Reference version of an earlier design: `model.encode` of one source
    (annotations n x 2dim and their mean, 1 x 2dim), each direction's
    recurrence stepped token by token with `run_gru`."""
    embedded = ad.take_rows(params.embedding, source)
    n = len(source)
    fwd = run_gru(ad.affine(embedded, params.fwd.w, params.fwd.b), params.fwd, range(n))
    bwd = run_gru(ad.affine(embedded, params.bwd.w, params.bwd.b), params.bwd, range(n - 1, -1, -1))
    annotations = concat([fwd, bwd])
    return annotations, ad.mean_rows(annotations, [n])


def read_and_gru_input(e_prev, s_prev, keys, annotations, att_w, att_v, w, b, whole_w=False):
    """The attention read of the states s_prev (B, dim) and the GRU input
    pre-activations (B, 3dim) of [e_prev; context] under w (3dim, E + width)
    and b; returns the contexts and the pre-activations.

    By default they are associated as `autodiff.decoder_scan` associates
    them: the context weights w[:, E:] map the annotation rows first, and a
    second `attention` read of those mapped rows, with the same weights,
    is the context half, added to the embedding half e_prev @ w[:, :E].T + b.
    With whole_w, as an earlier design did: e_prev and the context joined
    and multiplied by the whole w."""
    context, _ = attention(s_prev, keys, annotations, att_w, att_v)
    if whole_w:
        return context, ad.affine(concat([e_prev, context]), w, b)
    emb = e_prev.shape[1]
    mapped = ad.affine(annotations, segment(w, emb, w.shape[1]), zeros((w.shape[0],)))
    gx_context, _ = attention(s_prev, keys, mapped, att_w, att_v)
    return context, add(ad.affine(e_prev, segment(w, 0, emb), b), gx_context)


def decode_step_per_step(prev_tokens, s_prev, annotations, keys, params, whole_w=False):
    """Reference version of an earlier design: one decoder update of B rows
    sharing one source's annotations, row b consuming prev_tokens[b] in
    state s_prev[b], as a lookup, `read_and_gru_input` and `gru_step`.
    Returns the previous tokens' embeddings (B, E), the new states (B, dim)
    and the attention contexts (B, 2dim)."""
    e_prev = ad.take_rows(params.embedding, prev_tokens)
    context, gx = read_and_gru_input(
        e_prev, s_prev, keys, annotations, params.att_w, params.att_v, params.gru.w, params.gru.b, whole_w
    )
    return e_prev, gru_step(gx, s_prev, params.gru.u_zr, params.gru.u_h), context


def decode_step_with_logits(prev_tokens, s_prev, annotations, keys, params):
    """New states and next-token logits of one per-step decoder update:
    `decode_step_per_step` followed by `model.output_logits`."""
    e_prev, s, context = decode_step_per_step(prev_tokens, s_prev, annotations, keys, params)
    return s, output_logits(concat([e_prev, s, context]), params)


# ---------------------------------------------------------------- per-pair training losses


def _per_step_stages(pair, position, model, whole_w):
    """Per stage of one pair: its decoder, its per-step feature rows
    [embedding; state; context] from one-row `decode_step_per_step` calls
    (with whole_w, in the earlier design's association), and the first
    scored step; plus the targets of the scored steps."""
    annotations, h_mean = encode_per_step(pair.source, model.encoder)
    target = pair.target
    backward_inputs = [target[i] for i in range(position - 1, -1, -1)]
    stages = []
    for params, inputs, scored_from in (
        (model.backward_decoder, backward_inputs, 0),
        (model.forward_decoder, [BOS_ID, *target], position),
    ):
        keys = ad.affine(annotations, params.att_u, params.att_b)
        state = init_decoder_state(h_mean, params)
        rows = []
        for prev in inputs:
            e_prev, state, context = decode_step_per_step([prev], state, annotations, keys, params, whole_w)
            rows.append(concat([e_prev, state, context]))
        stages.append((params, rows, scored_from))
    return stages, backward_inputs[1:] + [BOS_ID, *target[position:], EOS_ID]


def training_loss_per_step(pair, position, model, whole_w=False):
    """Reference version of an earlier design: `training.training_loss` of
    one pair with the encoder and both decoder stages stepped one token at
    a time by the per-step ops (`decode_step_per_step`, with whole_w in
    the earlier design's association). As in training, each stage
    projects its scored rows onto the vocabulary in one product."""
    stages, targets = _per_step_stages(pair, position, model, whole_w)
    logits = [ad.affine(ad.stack(rows[scored_from:]), p.out_w, p.out_b) for p, rows, scored_from in stages]
    return ad.nll(ad.stack(logits), targets)


def training_loss_all_logits(pairs, positions, model):
    """Reference version of an earlier design: `training.training_loss`
    with logits computed at every decoder step, the unscored forward prefix
    included. It runs the package's `encode` and `decode_step` over the
    padded batch, then per stage one `output_logits` over the unscored
    rows, whose logits go unused, and one over the scored rows, which are
    the stage's logits."""
    source_lengths = [len(pair.source) for pair in pairs]
    annotations, h_mean = encode([pair.source for pair in pairs], model.encoder)

    def stage_logits(params, inputs, scored_from):
        state = init_decoder_state(h_mean, params)
        rows = decode_step(inputs, state, decoder_stage(annotations, params, source_lengths))
        steps = max(len(row) for row in inputs)
        every = [[b * steps + t for t in range(len(row))] for b, row in enumerate(inputs)]
        logits = []
        for picked in (
            [i for b, row in enumerate(every) for i in row[: scored_from[b]]],
            [i for b, row in enumerate(every) for i in row[scored_from[b] :]],
        ):
            if picked:
                logits.append(output_logits(ad.take_rows(rows, picked), params))
        return logits[-1]

    backward_inputs = [pair.target[position - 1 :: -1] for pair, position in zip(pairs, positions)]
    backward = stage_logits(model.backward_decoder, backward_inputs, [0] * len(pairs))
    forward = stage_logits(model.forward_decoder, [(BOS_ID, *pair.target) for pair in pairs], positions)
    targets = [tok for row in backward_inputs for tok in (*row[1:], BOS_ID)]
    targets += [tok for pair, position in zip(pairs, positions) for tok in (*pair.target[position:], EOS_ID)]
    return ad.nll(ad.stack([backward, forward]), targets)


def decoder_scan_per_step(s0, e, annotations, att_u, att_b, att_w, att_v, w, b, u_zr, u_h, whole_w=False):
    """Reference version of an earlier design: `autodiff.decoder_scan` of
    one row over one source's annotations, reading the rows of e in order,
    as one `affine` map of the annotations into the attention keys, then
    one `read_and_gru_input` (with whole_w, in the earlier design's
    association) and one `gru_step` per row of e; returns the rows
    [embedding; state; context] (T, E + dim + width)."""
    keys = ad.affine(annotations, att_u, att_b)
    s = s0
    rows = []
    for t in range(e.shape[0]):
        e_t = ad.take_rows(e, [t])
        context, gx = read_and_gru_input(e_t, s, keys, annotations, att_w, att_v, w, b, whole_w)
        s = gru_step(gx, s, u_zr, u_h)
        rows.append(concat([e_t, s, context]))
    return ad.stack(rows)
