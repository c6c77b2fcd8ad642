"""Joint teacher-forced training of both decoders with Adadelta.

Each pair contributes the negative log-likelihood of its backward sequence
(target tokens before the constraint position, reversed, ending at the
sentence-start boundary) plus its forward sequence (tokens after the
constraint plus end-of-sentence, with the prefix teacher-forced).
`training_loss` scores a padded batch of pairs: one encode, one
`decode_step` per decoder stage over all of its given tokens, and one
`output_logits` per stage over the steps that predict a scored token
only; the logit rows of both stages are scored by one fused
`autodiff.nll` over their stack, which stays finite when a target's
probability underflows. Training records one tape per pair, and a batch
is a gradient-accumulation group; the validation pass runs the same loss
untaped over padded batches of similar lengths. The optimizer step is
Adadelta with a global-norm gradient clip.
"""

from __future__ import annotations

import csv
import os
import random
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .corpus import BOS_ID, EOS_ID, PUNCTUATION, CorpusSplit, SentencePair, Vocabulary
from .errors import ContractError, TrainingError
from .lexsub import FrequencyTable, KnowledgeBase
from .model import (
    Seq2SeqModel,
    decode_step,
    encode,
    init_decoder_state,
    output_logits,
    save_checkpoint,
)
from .pipeline import PipelineConfig


class AdadeltaState:
    """Per-parameter running averages of squared gradients and updates."""

    def __init__(self, named_params: Sequence[tuple[str, Tensor]]):
        self.avg_sq_grad = {name: np.zeros_like(t.data) for name, t in named_params}
        self.avg_sq_update = {name: np.zeros_like(t.data) for name, t in named_params}


def adadelta_step(
    named_params: Sequence[tuple[str, Tensor]],
    state: AdadeltaState,
    rho: float,
    eps: float,
) -> None:
    """One accumulate/update/accumulate cycle; every parameter has a grad."""
    for name, param in named_params:
        grad = param.grad
        if not np.all(np.isfinite(grad)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        sq = state.avg_sq_grad[name]
        sq *= rho
        sq += (1.0 - rho) * grad * grad
        delta = -np.sqrt(state.avg_sq_update[name] + eps) / np.sqrt(sq + eps) * grad
        param.data += delta
        up = state.avg_sq_update[name]
        up *= rho
        up += (1.0 - rho) * delta * delta


def clip_gradients(params: Sequence[Tensor], clip_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most clip_norm.

    Returns the pre-clip norm; clip_norm <= 0 disables clipping.
    """
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if clip_norm > 0.0 and norm > clip_norm:
        factor = clip_norm / norm
        for p in params:
            p.grad *= factor
    return norm


def select_training_constraint(
    pair: SentencePair,
    kb: KnowledgeBase | None,
    freq_table: FrequencyTable,
    vocab: Vocabulary,
) -> int:
    """1-based target position to train the backward/forward split on.

    Prefers a target token that is the (single-token) simple side of a rule
    whose complex side occurs in the source, picking the rule with the
    rarest complex side; falls back to the least-frequent non-punctuation
    target token. Deterministic.
    """
    if not pair.target:
        raise ContractError("cannot pick a constraint position in an empty target")
    source_tokens = vocab.decode(pair.source)
    target_tokens = vocab.decode(pair.target)

    if kb is not None:
        candidates = [
            (freq_table.phrase_count(rule.complex), target_tokens.index(rule.simple[0]) + 1, rule.complex)
            for start in range(len(source_tokens))
            for rule in kb.matches_at(source_tokens, start)
            if len(rule.simple) == 1 and rule.simple[0] in target_tokens
        ]
        if candidates:
            return min(candidates)[1]

    fallback = [
        (freq_table.count(tok), i + 1)
        for i, tok in enumerate(target_tokens)
        if tok not in PUNCTUATION
    ]
    if not fallback:  # all punctuation: least-frequent token of any kind
        fallback = [(freq_table.count(tok), i + 1) for i, tok in enumerate(target_tokens)]
    return min(fallback)[1]


def training_loss(
    pairs: Sequence[SentencePair], positions: Sequence[int], model: Seq2SeqModel
) -> Tensor:
    """Summed joint NLL of the backward and forward sequences of a batch of
    pairs, pair b at its constraint position positions[b].

    Backward: predict target[s-2]..target[0] then BOS from inputs starting
    at the constraint token. Forward: teacher-force BOS..target[s-1] without
    loss, then predict the remaining tokens and EOS. The batch is padded:
    one `encode`, and per decoder stage one `decode_step` over every row's
    inputs, one lookup of the scored steps' rows and one `output_logits`
    over them.
    """
    if len(pairs) != len(positions):
        raise ContractError(f"{len(pairs)} pairs but {len(positions)} constraint positions")
    for pair, position in zip(pairs, positions):
        if not 1 <= position <= len(pair.target):
            raise ContractError(f"constraint position {position} outside target of length {len(pair.target)}")

    source_lengths = [len(pair.source) for pair in pairs]
    annotations, h_mean = encode([pair.source for pair in pairs], model.encoder)

    def stage_logits(params, inputs, scored_from):
        state = init_decoder_state(h_mean, params)
        rows = decode_step(inputs, state, annotations, params, source_lengths)
        steps = max(len(row) for row in inputs)
        scored = [b * steps + t for b, row in enumerate(inputs) for t in range(scored_from[b], len(row))]
        return output_logits(ad.take_rows(rows, scored), params)

    # backward: inputs target[s-1], target[s-2], ..., target[0]; every step scored
    backward_inputs = [pair.target[position - 1 :: -1] for pair, position in zip(pairs, positions)]
    backward = stage_logits(model.backward_decoder, backward_inputs, [0] * len(pairs))
    # forward: inputs BOS, target[0], ..., target[m-1]; the prefix y_1..y_s
    # is given, not predicted
    forward = stage_logits(model.forward_decoder, [(BOS_ID, *pair.target) for pair in pairs], positions)
    targets = [tok for row in backward_inputs for tok in (*row[1:], BOS_ID)]
    targets += [tok for pair, position in zip(pairs, positions) for tok in (*pair.target[position:], EOS_ID)]
    return ad.nll(ad.stack([backward, forward]), targets)


def loss_token_count(pair: SentencePair) -> int:
    """Number of NLL terms contributed by one pair (m + 1)."""
    return len(pair.target) + 1


@dataclass
class EpochStats:
    epoch: int
    train_loss: float  # per-token
    valid_loss: float  # per-token
    seconds: float


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    checkpoint_paths: list[str] = field(default_factory=list)


def _corpus_loss(
    pairs: Sequence[SentencePair], positions: Sequence[int], model: Seq2SeqModel, batch_size: int
) -> float:
    """Per-token loss without gradient recording or parameter updates, over
    padded batches of batch_size pairs of similar lengths."""
    order = sorted(range(len(pairs)), key=lambda i: (len(pairs[i].source), len(pairs[i].target)))
    total = 0.0
    for lo in range(0, len(order), batch_size):
        batch = order[lo : lo + batch_size]
        total += training_loss([pairs[i] for i in batch], [positions[i] for i in batch], model).item()
    return total / max(sum(loss_token_count(pair) for pair in pairs), 1)


def _write_log_row(path: str, mode: str, row: list) -> None:
    with open(path, mode, encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(row)


def write_atomic_checkpoint(
    path: str, model: Seq2SeqModel, vocab: Vocabulary, freq_table: FrequencyTable
) -> None:
    tmp = path + ".tmp"
    save_checkpoint(tmp, model, vocab, freq_table)
    os.replace(tmp, path)


def train(
    corpus: CorpusSplit,
    model: Seq2SeqModel,
    config: PipelineConfig,
    vocab: Vocabulary,
    freq_table: FrequencyTable,
    kb: KnowledgeBase | None = None,
) -> TrainResult:
    """Mini-batch training loop over the train split.

    Reads the training settings of config (epochs, batch_size, rho, eps,
    clip_norm, checkpoint_every, seed) and its out_dir; the model's
    dimensions are the model's own. Constraint positions are selected once,
    deterministically, with freq_table. Validation loss is computed without
    gradient updates on the validation split (the train split when empty).
    Under config.out_dir, unless it is "", each epoch appends its row to
    training_log.csv as it ends, and each checkpoint is written atomically
    with vocab and that freq_table, the step-1 resources `simplify` reads
    back from it.
    """
    if not corpus.train:
        raise ContractError("training needs a non-empty train split")
    positions = [
        select_training_constraint(pair, kb, freq_table, vocab) for pair in corpus.train
    ]
    valid_pairs = corpus.validation if corpus.validation else corpus.train
    valid_positions = (
        [select_training_constraint(p, kb, freq_table, vocab) for p in corpus.validation]
        if corpus.validation
        else positions
    )

    named = list(model.named_parameters())
    params = [t for _, t in named]
    state = AdadeltaState(named)
    rng = random.Random(config.seed)
    result = TrainResult()

    out_dir = config.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "training_log.csv")
        _write_log_row(log_path, "w", ["epoch", "train_loss", "valid_loss", "seconds"])

    for epoch in range(1, config.epochs + 1):
        started = time.monotonic()
        order = list(range(len(corpus.train)))
        rng.shuffle(order)
        epoch_nll = 0.0
        epoch_tokens = 0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            model.zero_grad()
            for idx in batch:
                pair = corpus.train[idx]
                with Tape() as tape:
                    loss = training_loss([pair], [positions[idx]], model)
                    tape.backward(loss)
                epoch_nll += loss.item()
                epoch_tokens += loss_token_count(pair)
            inv = 1.0 / len(batch)
            for p in params:
                p.grad *= inv
            clip_gradients(params, config.clip_norm)
            adadelta_step(named, state, config.rho, config.eps)
        model.zero_grad()

        valid_loss = _corpus_loss(valid_pairs, valid_positions, model, config.batch_size)
        stats = EpochStats(
            epoch=epoch,
            train_loss=epoch_nll / max(epoch_tokens, 1),
            valid_loss=valid_loss,
            seconds=time.monotonic() - started,
        )
        result.history.append(stats)

        if out_dir:
            row = [epoch, repr(stats.train_loss), repr(stats.valid_loss), f"{stats.seconds:.3f}"]
            _write_log_row(log_path, "a", row)
            if epoch % config.checkpoint_every == 0 or epoch == config.epochs:
                path = os.path.join(out_dir, f"epoch{epoch:04d}.ckpt")
                write_atomic_checkpoint(path, model, vocab, freq_table)
                result.checkpoint_paths.append(path)
    return result
