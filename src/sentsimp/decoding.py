"""Constraint-guaranteeing backward/forward beam decoding.

Generation with one constraint runs in two stages: the backward decoder
starts from the constraint block and emits the preceding tokens in reverse
until it produces the sentence-start boundary; the forward decoder then
consumes the realized prefix and continues until the end-of-sentence token.
Splicing reverse(backward) + block + forward makes the constraint's presence
a construction invariant rather than a search outcome. Each pass encodes its
source once for both stages; multiple constraints are handled by re-encoding
each pass's output as the next pass's source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, log_softmax
from .corpus import BOS_ID, EOS_ID, NUM_SPECIALS, find_block
from .errors import ConstraintError, ContractError
from .model import DecoderParams, Seq2SeqModel, decode_step, encode, init_decoder_state


@dataclass(frozen=True)
class Hypothesis:
    """A partial decode: generated tokens, their summed log-prob, the
    decoder state after the last consumed token, and whether it stopped."""

    tokens: tuple[int, ...]
    log_prob: float
    state: Tensor
    finished: bool = False


@dataclass(frozen=True)
class PassTrace:
    """One generation pass: its constraint block, full output, the block's
    1-based start position, and the two stage scores."""

    constraint: tuple[int, ...]
    output: tuple[int, ...]
    position: int
    backward_log_prob: float
    forward_log_prob: float


@dataclass(frozen=True)
class ConstraintOutcome:
    block: tuple[int, ...]
    skipped: bool
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


def _rank_key(hyp: Hypothesis, length_norm: float):
    score = hyp.log_prob
    if length_norm > 0.0:
        score /= (len(hyp.tokens) + 1) ** length_norm
    return (-score, len(hyp.tokens), hyp.tokens)


def beam_search(
    step_fn,
    init_state: Tensor,
    seed_token: int,
    boundary_id: int,
    beam_size: int,
    max_new: int,
    length_norm: float = 0.0,
) -> Hypothesis:
    """Breadth-limited best-first search over token continuations.

    step_fn(prev_token, state) -> (new_state, log-probability ndarray). A
    hypothesis finishes when it emits boundary_id (scored) or reaches
    max_new generated tokens (length cap, unscored stop). Scores are summed
    log-probabilities; an optional length-normalization exponent divides by
    (length + 1) ** length_norm when ranking.
    """
    if beam_size < 1:
        raise ContractError(f"beam size must be at least 1, got {beam_size}")
    if max_new <= 0:
        return Hypothesis((), 0.0, init_state, finished=True)

    active = [Hypothesis((), 0.0, init_state)]
    finished: list[Hypothesis] = []
    if beam_size > 1:
        # seed the pool with the greedy rollout so that widening the beam can
        # never fall below the beam-1 score (plain beam search does not
        # guarantee that: the greedy prefix can be pruned mid-way)
        finished.append(
            beam_search(step_fn, init_state, seed_token, boundary_id, 1, max_new, length_norm)
        )
    for _ in range(max_new):
        candidates: list[Hypothesis] = []
        for hyp in active:
            prev = hyp.tokens[-1] if hyp.tokens else seed_token
            state, log_dist = step_fn(prev, hyp.state)
            # beam 1 is the greedy argmax chain; wider beams expand one extra
            # slot so a boundary token cannot crowd out content candidates
            width = 1 if beam_size == 1 else min(beam_size + 1, log_dist.shape[0])
            top = np.argpartition(-log_dist, width - 1)[:width]
            top = top[np.argsort(-log_dist[top], kind="stable")]
            for tok in top:
                tok = int(tok)
                score = hyp.log_prob + float(log_dist[tok])
                if tok == boundary_id:
                    finished.append(Hypothesis(hyp.tokens, score, state, finished=True))
                else:
                    candidates.append(Hypothesis(hyp.tokens + (tok,), score, state))
        candidates.sort(key=lambda h: _rank_key(h, length_norm))
        active = candidates[:beam_size]
        finished.sort(key=lambda h: _rank_key(h, length_norm))
        finished = finished[: beam_size * (max_new + 1)]
        if not active:
            break
        if (
            length_norm == 0.0
            and finished
            and finished[0].log_prob > active[0].log_prob
        ):
            break  # log-probs only decrease, no active path can catch up
    for hyp in active:  # length cap: stop without a boundary factor
        finished.append(Hypothesis(hyp.tokens, hyp.log_prob, hyp.state, finished=True))
    return min(finished, key=lambda h: _rank_key(h, length_norm))


def _search(
    encoded: tuple[Tensor, Tensor],
    params: DecoderParams,
    given: Sequence[int],
    boundary_id: int,
    max_new: int,
    beam_size: int,
    length_norm: float,
) -> Hypothesis:
    """One decoder's stage of a pass over an already encoded source.

    The state starts from the mean annotation; all given tokens but the last
    are teacher-forced (no search, no scoring), and the last one seeds the
    beam search, which runs until boundary_id or max_new new tokens.
    """
    annotations, h_mean = encoded
    state = init_decoder_state(h_mean, params)
    for tok in given[:-1]:
        state, _ = decode_step(tok, state, annotations, params)

    def step(prev_token: int, state: Tensor):
        new_state, logits = decode_step(prev_token, state, annotations, params)
        return new_state, log_softmax(logits.data)

    return beam_search(
        step, state, given[-1], boundary_id, beam_size=beam_size, max_new=max_new, length_norm=length_norm
    )


def decode_multi(
    source: Sequence[int],
    constraint_blocks: Sequence[Sequence[int]],
    model: Seq2SeqModel,
    max_passes: int | None = None,
    beam_size: int | None = None,
    length_norm: float = 0.0,
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
    is skipped. At most max_passes (default: the number of constraints)
    passes run; with no constraints this is a plain beam decode with the
    forward decoder from BOS.
    """
    cfg = model.config
    beam = beam_size or cfg.beam_size
    blocks = [tuple(b) for b in constraint_blocks]
    if not blocks:
        encoded = encode(source, model.encoder)
        hyp = _search(encoded, model.forward_decoder, (BOS_ID,), EOS_ID, cfg.max_decode_len, beam, length_norm)
        return DecodeResult(tokens=hyp.tokens, outcomes=(), passes=())
    cap = len(blocks) if max_passes is None else max_passes
    if cap < 1:
        raise ContractError(f"max_passes must be at least 1, got {cap}")

    current = tuple(source)
    passes: list[PassTrace] = []
    outcomes: list[ConstraintOutcome] = []
    for block in blocks:
        if (passes and find_block(passes[-1].output, block) is not None) or len(passes) >= cap:
            outcomes.append(ConstraintOutcome(block, skipped=True, pass_index=None, final_position=None))
            continue
        _check_constraint_ids(block, cfg.vocab_size)
        encoded = encode(current, model.encoder)
        back = _search(
            encoded,
            model.backward_decoder,
            block[::-1],
            BOS_ID,
            max(0, cfg.max_decode_len - len(block)),
            beam,
            length_norm,
        )
        prefix = back.tokens[::-1] + block
        fwd = _search(
            encoded,
            model.forward_decoder,
            (BOS_ID, *prefix),
            EOS_ID,
            max(0, cfg.max_decode_len - len(prefix)),
            beam,
            length_norm,
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
            )
        )
        outcomes.append(
            ConstraintOutcome(block, skipped=False, pass_index=len(passes), final_position=None)
        )
        current = output

    final = passes[-1].output if passes else tuple(source)
    outcomes = [
        ConstraintOutcome(o.block, o.skipped, o.pass_index, find_block(final, o.block))
        for o in outcomes
    ]
    return DecodeResult(tokens=final, outcomes=tuple(outcomes), passes=tuple(passes))
