"""Oracles used by the test suite.

Most of them are plain-Python arithmetic over lists and dicts, written
directly from the defining formulas, and share no code with the package
under test. The exceptions are marked as reference versions of an earlier
design: they keep a replaced algorithm, built from the package's own
primitives, so that its replacement can be checked against it. The
autodiff ops that only the tests use (entrywise products, sigmoid,
softmax, sums, column segments and attention energies) live here too,
recorded on the package's tape through `autodiff._emit`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from sentsimp import autodiff as ad
from sentsimp.corpus import BOS_ID, EOS_ID
from sentsimp.decoding import Hypothesis
from sentsimp.errors import DimensionError, NumericError
from sentsimp.model import attention_keys, decode_step, encode, init_decoder_state, output_logits


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


def beam_search_per_hypothesis(step_fn, init_state, seed_token, boundary_id, beam_size, max_new, length_norm=0.0):
    """Beam search that steps one hypothesis at a time; returns (tokens, log_prob).

    step_fn(prev_token, state) -> (new_state, log-probability list). Same
    rules as the decoder: a beam-1 greedy rollout seeds the finished pool
    of wider beams; beam 1 expands the argmax only, wider beams the best
    beam_size + 1 tokens; a hypothesis ends at the boundary (scored) or at
    max_new tokens (unscored); ranking is by summed log-prob, optionally
    divided by (length + 1) ** length_norm, then shorter, then smaller.
    """

    def key(hyp):
        tokens, score = hyp[0], hyp[1]
        if length_norm > 0.0:
            score /= (len(tokens) + 1) ** length_norm
        return (-score, len(tokens), tokens)

    if max_new <= 0:
        return (), 0.0
    active = [((), 0.0, init_state)]  # (tokens, log_prob, state)
    finished = []
    if beam_size > 1:
        finished.append(
            beam_search_per_hypothesis(step_fn, init_state, seed_token, boundary_id, 1, max_new, length_norm)
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
        if length_norm == 0.0 and finished and finished[0][1] > active[0][1]:
            break
    best = min(finished + active, key=key)
    return best[0], best[1]


def beam_search_nested_greedy(
    step_fn, init_state, seed_token, boundary_id, beam_size, max_new, length_norm=0.0
):
    """Reference version of an earlier design: the batched beam search with
    the greedy hypothesis found by a nested beam-1 search run to the end
    before the beam starts, and its result put in the finished pool. Same
    step-function contract as `decoding.beam_search`; returns a Hypothesis.
    """

    def rank(hyp):
        score = hyp.log_prob
        if length_norm > 0.0:
            score /= (len(hyp.tokens) + 1) ** length_norm
        return (-score, len(hyp.tokens), hyp.tokens)

    if max_new <= 0:
        return Hypothesis((), 0.0, init_state.data[0], stop="length_cap")
    active = [Hypothesis((), 0.0, init_state.data[0])]
    finished = []
    if beam_size > 1:
        finished.append(
            beam_search_nested_greedy(step_fn, init_state, seed_token, boundary_id, 1, max_new, length_norm)
        )
    for _ in range(max_new):
        prev = [hyp.tokens[-1] if hyp.tokens else seed_token for hyp in active]
        new_states, log_probs = step_fn(prev, ad.Tensor(np.stack([hyp.state for hyp in active])))
        if not np.all(np.isfinite(log_probs)):
            raise NumericError("beam search: a step's log-probabilities are not all finite")
        width = 1 if beam_size == 1 else min(beam_size + 1, log_probs.shape[1])
        rows = np.arange(len(active))[:, None]
        top = np.argpartition(-log_probs, width - 1, axis=1)[:, :width]
        top = top[rows, np.argsort(-log_probs[rows, top], axis=1, kind="stable")]
        candidates = []
        for hyp, state, toks, tok_log_probs in zip(
            active, new_states.data, top.tolist(), log_probs[rows, top].tolist()
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
        if length_norm == 0.0 and finished and finished[0].log_prob > active[0].log_prob:
            return finished[0]
    finished.extend(replace(hyp, stop="length_cap") for hyp in active)
    return min(finished, key=rank)


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
    """Reference version of an earlier design: `Tape.backward` with every
    gradient evaluated where its record is walked, an `affine` weight
    gradient as one outer product and a `take_rows` gradient as a zero
    matrix the size of its input with the rows added in, and summed into one
    dense adjoint per tensor, one full-size add at a time; leaves take their
    sums at the end."""
    adjoints = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    for out, inputs, backward_fn in reversed(tape._records):
        out_adj = adjoints.pop(id(out), None)
        if out_adj is None:
            continue
        out.grad = out_adj if out.grad is None else out.grad + out_adj
        for inp, grad in zip(inputs, backward_fn(out_adj)):
            if grad is None or not (inp.requires_grad or id(inp) in tape._output_ids):
                continue
            if isinstance(grad, ad.WeightGrad):
                grad = grad.evaluate()
            elif isinstance(grad, ad.RowGrad):
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
        if leaf.requires_grad:
            leaf.grad = adj if leaf.grad is None else leaf.grad + adj


# ---------------------------------------------------------------- test-only autodiff ops


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
    of 13 primitive ops (column segments, two affine maps, the gate
    nonlinearities and the elementwise update), each with its own backward."""
    d = h_prev.shape[1]
    zr = sigmoid(ad.affine(h_prev, u_zr, segment(gx, 0, 2 * d)))
    z, r = segment(zr, 0, d), segment(zr, d, 2 * d)
    h_tilde = ad.tanh(ad.affine(mul(r, h_prev), u_h, segment(gx, 2 * d, 3 * d)))
    return ad.add(mul(one_minus(z), h_prev), mul(z, h_tilde))


def attention_composed(s, keys, annotations, w, b, v):
    """Reference version of an earlier design: `autodiff.attention` composed
    of 4 primitive ops (the query affine map, the energies, the softmax and
    the context product). Returns the context rows and alpha as tensors."""
    query = ad.affine(s, w, b)
    alpha = softmax(attention_energies(keys, query, v))
    return ad.matmul(alpha, annotations), alpha


# ---------------------------------------------------------------- decoder steps with logits


def decode_step_with_logits(prev_tokens, s_prev, annotations, keys, params):
    """New states and next-token logits of a decoder step in one call:
    `model.decode_step` followed by `model.output_logits`."""
    e_prev, s, context = decode_step(prev_tokens, s_prev, annotations, keys, params)
    return s, output_logits(e_prev, s, context, params)


def training_loss_all_logits(pair, position, model):
    """Reference version of an earlier design: `training.training_loss` with
    logits computed at every decoder step, the unscored forward prefix
    included."""
    target = pair.target
    annotations, h_mean = encode(pair.source, model.encoder)

    def stage_nll(params, inputs, predictions, scored_from):
        keys = attention_keys(annotations, params)
        state = init_decoder_state(h_mean, params)
        scored = []
        for step, prev in enumerate(inputs):
            state, logits = decode_step_with_logits([prev], state, annotations, keys, params)
            if step >= scored_from:
                scored.append(logits)
        return ad.nll(ad.stack(scored), predictions[scored_from:])

    inputs = [target[i] for i in range(position - 1, -1, -1)]
    backward = stage_nll(model.backward_decoder, inputs, inputs[1:] + [BOS_ID], 0)
    forward = stage_nll(model.forward_decoder, [BOS_ID, *target], [*target, EOS_ID], position)
    return ad.add(backward, forward)
