"""Constraint-guaranteeing backward/forward beam decoding.

Generation with one constraint runs in two stages: the backward decoder
starts from the constraint block and emits the preceding tokens in reverse
until it produces the sentence-start boundary; the forward decoder then
consumes the realized prefix and continues until the end-of-sentence token.
Splicing reverse(backward) + block + forward makes the constraint's presence
a construction invariant rather than a search outcome. Each pass encodes its
source once for both stages; multiple constraints are handled by re-encoding
each pass's output as the next pass's source.

Beam search keeps one decoder-state row per hypothesis, a plain array,
and advances every live hypothesis with one batched step per iteration
(the batched-beam layout of Post & Vilar 2018): one `model.beam_step` on
plain arrays over a decoder stage, attention keys included, prepared
once per search, so the beam loop builds no tensor. A beam wider than 1
carries its greedy hypothesis as one more row of that step. Only the
beam's steps compute output logits, not the teacher-forced ones;
candidates are ranked as plain tuples, and only the survivors become
hypotheses. Each search records why it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .autodiff import Tensor
from .corpus import BOS_ID, EOS_ID, NUM_SPECIALS, find_block
from .errors import ConstraintError, ContractError, NumericError
from .model import (
    DecoderParams,
    Seq2SeqModel,
    beam_step,
    decode_step,
    decoder_stage,
    encode,
    init_decoder_state,
)

class Hypothesis(NamedTuple):
    """A partial decode: generated tokens, their summed log-prob, its row
    of decoder state (dim,) after the last consumed token, and why it
    stopped: None while live, "boundary" when it emitted the boundary
    token, "length_cap" when it ran out of token budget. A named tuple,
    which a beam step builds several times cheaper than a dataclass."""

    tokens: tuple[int, ...]
    log_prob: float
    state: np.ndarray
    stop: str | None = None


@dataclass(frozen=True)
class PassTrace:
    """One generation pass: its constraint block, full output, the block's
    1-based start position, the two stage scores and why each stage's
    search stopped ("boundary" or "length_cap")."""

    constraint: tuple[int, ...]
    output: tuple[int, ...]
    position: int
    backward_log_prob: float
    forward_log_prob: float
    backward_stop: str
    forward_stop: str


@dataclass(frozen=True)
class ConstraintOutcome:
    block: tuple[int, ...]
    skipped: bool  # already present verbatim in the previous pass's output
    pass_index: int | None  # 1-based pass that applied it, None when skipped
    final_position: int | None  # 1-based start in the final output, None if absent


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple[int, ...]
    outcomes: tuple[ConstraintOutcome, ...]
    passes: tuple[PassTrace, ...]


def _check_constraint_ids(constraint_ids: Sequence[int], vocab_size: int) -> None:
    if not constraint_ids:
        raise ContractError("constraint block must be non-empty")
    for tok in constraint_ids:
        if not 0 <= tok < vocab_size:
            raise ConstraintError(f"constraint token id {tok} outside vocabulary of size {vocab_size}")
        if tok < NUM_SPECIALS:
            raise ConstraintError(
                f"constraint token id {tok} is reserved (out-of-vocabulary simple phrase?)"
            )


def _rank_key(hyp: Hypothesis):
    return (-hyp.log_prob, len(hyp.tokens), hyp.tokens)


def _expand(
    hyps: list[Hypothesis],
    states: np.ndarray,
    log_probs: np.ndarray,
    width: int,
    keep: int,
    boundary_id: int,
    finished: list[Hypothesis],
) -> list[Hypothesis]:
    """The keep best continuations of the hypotheses, each by one of its
    row's width best tokens, in rank order; a boundary token's goes to
    finished instead. states and log_probs hold one row per hypothesis.

    A candidate is the plain tuple (-score, length, tokens, row, state),
    whose built-in order is `_rank_key`'s: no two candidates share their
    tokens, so row and state never decide. Only the survivors become a
    `Hypothesis`."""
    rows = np.arange(len(hyps))[:, None]
    neg = -log_probs
    top = neg.argpartition(width - 1, axis=1)[:, :width]
    if width > 1:
        top = top[rows, neg[rows, top].argsort(axis=1, kind="stable")]
    candidates = []
    for row, (hyp, state, toks, tok_log_probs) in enumerate(
        zip(hyps, states, top.tolist(), log_probs[rows, top].tolist())
    ):
        length = len(hyp.tokens) + 1
        for tok, log_p in zip(toks, tok_log_probs):
            score = hyp.log_prob + log_p
            if tok == boundary_id:
                finished.append(Hypothesis(hyp.tokens, score, state, stop="boundary"))
            else:
                candidates.append((-score, length, hyp.tokens + (tok,), row, state))
    candidates.sort()
    return [Hypothesis(tokens, -neg_score, state) for neg_score, _, tokens, _, state in candidates[:keep]]


def beam_search(
    step_fn,
    init_state: np.ndarray,
    seed_token: int,
    boundary_id: int,
    beam_size: int,
    max_new: int,
) -> Hypothesis:
    """Breadth-limited best-first search over token continuations.

    init_state is the start state (dim,). step_fn(prev_tokens, states) ->
    (new_states, log_probs) advances every live hypothesis at once:
    prev_tokens lists each one's last token (the seed token before any is
    generated), states stacks their state rows into a (B, dim) array, and
    it returns the new states (B, dim) and the next-token
    log-probabilities (B, V), plain arrays, row b for hypothesis b.
    Non-finite log-probabilities raise NumericError. A hypothesis finishes
    when it emits boundary_id (scored, stop "boundary") or reaches max_new
    generated tokens (unscored, stop "length_cap"). Hypotheses rank by
    summed log-probability, then fewer tokens, then the smaller token
    sequence.

    A beam wider than 1 also steps the greedy hypothesis, the beam-1
    search, as the last row of the same batch, whether or not the beam has
    pruned its prefix. It finishes like any other, so widening the beam can
    never fall below the beam-1 score (plain beam search does not guarantee
    that: the greedy prefix can be pruned mid-way).

    Per iteration the continuations are ranked as plain tuples, in the
    order of `_rank_key`, and a `Hypothesis` is built only for the at most
    beam_size survivors and for each boundary finish.
    """
    if beam_size < 1:
        raise ContractError(f"beam size must be at least 1, got {beam_size}")

    active = [Hypothesis((), 0.0, init_state)]
    greedy = active[:] if beam_size > 1 else []  # holds the greedy hypothesis while live
    # each stepped row adds at most one boundary hypothesis, so this pool
    # stays small enough to keep whole: no finished hypothesis is dropped
    finished: list[Hypothesis] = []
    for _ in range(max_new):
        rows = active + greedy
        prev = [hyp.tokens[-1] if hyp.tokens else seed_token for hyp in rows]
        new_states, log_probs = step_fn(prev, np.array([hyp.state for hyp in rows]))
        if not np.isfinite(log_probs).all():
            raise NumericError("beam search: a step's log-probabilities are not all finite")
        n = len(active)
        if greedy:
            greedy = _expand(greedy, new_states[n:], log_probs[n:], 1, 1, boundary_id, finished)
        # beam 1 is the greedy argmax chain; wider beams expand one extra
        # slot per hypothesis so a boundary token cannot crowd out content
        width = 1 if beam_size == 1 else min(beam_size + 1, log_probs.shape[1])
        active = _expand(active, new_states[:n], log_probs[:n], width, beam_size, boundary_id, finished)
        if finished:
            # log-probs only decrease, so a live hypothesis scoring below the
            # best finished one can never win: once the best active one
            # does, drop the beam; once the greedy one does, drop it too
            best = max(hyp.log_prob for hyp in finished)
            if active and active[0].log_prob < best:
                active = []
            if greedy and greedy[0].log_prob < best:
                greedy = []
        if not active and not greedy:
            break
    finished.extend(hyp._replace(stop="length_cap") for hyp in active + greedy)
    return min(finished, key=_rank_key)


def _search(
    encoded: tuple[Tensor, Tensor],
    params: DecoderParams,
    given: Sequence[int],
    boundary_id: int,
    max_new: int,
    beam_size: int,
) -> Hypothesis:
    """One decoder's stage of a pass over an already encoded source.

    The state starts from the mean annotation; all given tokens but the last
    are teacher-forced in one `decode_step` (no search, no scoring, so no
    logits), and the last one seeds the beam search, which runs until
    boundary_id or max_new new tokens. Every beam step reads the one
    source block, so the beam shares one `decoder_stage`, prepared once,
    attention keys included: each iteration is one `beam_step` on plain
    arrays. A teacher-forced `decode_step` maps the source into its own
    keys.
    """
    annotations, h_mean = encoded
    s0 = init_decoder_state(h_mean, params)
    state = s0.data[0]
    if len(given) > 1:
        rows = decode_step([given[:-1]], s0, annotations, params, [annotations.shape[0]])
        emb = params.embedding.shape[1]
        state = rows.data[-1, emb : emb + state.shape[0]]
    step = partial(beam_step, decoder_stage(annotations, params), params=params)
    return beam_search(step, state, given[-1], boundary_id, beam_size=beam_size, max_new=max_new)


def decode_multi(
    source: Sequence[int],
    constraint_blocks: Sequence[Sequence[int]],
    model: Seq2SeqModel,
    beam_size: int,
    max_decode_len: int,
) -> DecodeResult:
    """Constrained generation, one encode and two stages per pass.

    Blocks must arrive ordered least-frequent first. Each pass encodes its
    source once; the backward decoder is seeded with the block fed in
    reverse and emits the preceding tokens right-to-left until the
    sentence-start boundary, then the forward decoder consumes BOS, that
    prefix and the block and continues until end-of-sentence. The pass
    output is reverse(backward) + block + forward. Pass 1 decodes the given
    source; pass i re-encodes the previous output. From the second
    constraint on, a block already present verbatim in the current output
    is skipped (its ids are checked all the same), so at most one pass runs
    per constraint; with no constraints this is a plain beam decode with the
    forward decoder from BOS. Every search keeps beam_size hypotheses. A
    pass's output holds at most max_decode_len tokens, or just its block
    when the block alone is longer.
    """
    if max_decode_len < 2:
        raise ContractError(f"max_decode_len must be at least 2, got {max_decode_len}")
    blocks = [tuple(b) for b in constraint_blocks]
    if not blocks:
        encoded = encode([source], model.encoder)
        hyp = _search(encoded, model.forward_decoder, (BOS_ID,), EOS_ID, max_decode_len, beam_size)
        return DecodeResult(tokens=hyp.tokens, outcomes=(), passes=())

    current = tuple(source)
    passes: list[PassTrace] = []
    pass_indices: list[int | None] = []  # per block: the 1-based pass that applied it, or None
    for block in blocks:
        _check_constraint_ids(block, model.config.vocab_size)
        if passes and find_block(passes[-1].output, block) is not None:
            pass_indices.append(None)
            continue
        encoded = encode([current], model.encoder)
        back = _search(
            encoded, model.backward_decoder, block[::-1], BOS_ID, max(0, max_decode_len - len(block)), beam_size
        )
        prefix = back.tokens[::-1] + block
        fwd = _search(
            encoded, model.forward_decoder, (BOS_ID, *prefix), EOS_ID, max(0, max_decode_len - len(prefix)), beam_size
        )
        output = prefix + fwd.tokens
        position = len(back.tokens) + 1
        if output[position - 1 : position - 1 + len(block)] != block:
            raise AssertionError("constraint block lost during splicing")
        passes.append(
            PassTrace(
                constraint=block,
                output=output,
                position=position,
                backward_log_prob=back.log_prob,
                forward_log_prob=fwd.log_prob,
                backward_stop=back.stop,
                forward_stop=fwd.stop,
            )
        )
        pass_indices.append(len(passes))
        current = output

    final = passes[-1].output
    outcomes = tuple(
        ConstraintOutcome(block, index is None, index, find_block(final, block))
        for block, index in zip(blocks, pass_indices)
    )
    return DecodeResult(tokens=final, outcomes=outcomes, passes=tuple(passes))
