"""Bidirectional GRU encoder, additive attention, and GRU decoders.

One shared encoder feeds two independently parameterized decoders: a
backward decoder that generates the tokens before a constraint word in
reverse, and a forward decoder that continues after it. Decoder states are
initialized from the mean encoder annotation through a tanh map.

Every layer works on rows: a state, a context or a distribution is a
(B, width) matrix with one example or hypothesis per row, so beam search
advances all of its live hypotheses with one `beam_step` call. A batch
of sequences is padded: source b owns block b of the annotation rows, and
each row carries its own length, so training and validation score several
pairs with the same calls. Weights are stored (out, in) and applied as
`x @ w.T + b`.

There is one GRU cell with its gate weights fused, and each recurrence is
one autodiff op with a hand-written backward pass through time. Per
call, the encoder computes each direction's input pre-activations of a
whole batch in one product, and one `autodiff.gru_scan` steps both
directions together. A decoder runs `autodiff.decoder_scan`: per call it
maps the annotation rows once into the attention keys (the attention
bias included, since the keys depend only on the annotations) and
through the GRU's context weights, and per step it reads attention,
takes the GRU input product of the previous token's embedding plus the
attention-weighted sum of the mapped rows (the context's share of the
product), and updates the state. `decode_step` runs T given steps of
every row (teacher forcing a stage's whole given sequence) and returns
one row [previous token's embedding; state; context] per step, the
output layer's input (Bahdanau et al. 2015, appendix A.2.2);
`output_logits`, one affine map, projects the rows of the steps it is
given onto the vocabulary, so a teacher-forced step whose prediction
nothing scores skips that product. The beam steps on plain arrays
instead: `decoder_stage` prepares a stage over its one source once,
keys and mapped rows alike, and each `beam_step` runs only the
recurrence of that stage's step on one token per row, then the output
layer and the log-softmax, bit for bit what `decode_step` and
`output_logits` give, with no op dispatched. The model holds no
decoding setting: the beam width and the length cap belong to
`decoding.decode_multi`.
"""

from __future__ import annotations

import dataclasses
import zipfile
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import PAD_ID, Vocabulary
from .errors import CheckpointError, ContractError
from .lexsub import FrequencyTable

INIT_SCALE = 0.08
CHECKPOINT_FORMAT = "seq2seq-ckpt v6"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int
    hidden_dim: int

    def __post_init__(self):
        if min(self.vocab_size, self.embed_dim, self.hidden_dim) < 1:
            raise ContractError("all model dimensions must be positive")
        if self.vocab_size <= 4:
            raise ContractError("vocab_size must exceed the 4 reserved ids")


@dataclass
class GruParams:
    """One GRU's weights, gates stacked in the order update, reset, candidate."""

    w: Tensor  # (3dim, input): all three gates on the input
    u_zr: Tensor  # (2dim, dim): update and reset gates on the previous state
    u_h: Tensor  # (dim, dim): candidate on the reset-gated previous state
    b: Tensor  # (3dim,)


@dataclass
class EncoderParams:
    embedding: Tensor  # (V, E)
    fwd: GruParams
    bwd: GruParams


@dataclass
class DecoderParams:
    embedding: Tensor  # (V, E)
    gru: GruParams  # input is [previous embedding; context], E + 2dim wide
    att_w: Tensor  # (dim, dim)
    att_u: Tensor  # (dim, 2dim)
    att_v: Tensor  # (dim,)
    att_b: Tensor  # (dim,)
    init_w: Tensor  # (dim, 2dim)
    init_b: Tensor  # (dim,)
    out_w: Tensor  # (V, E + 3dim)
    out_b: Tensor  # (V,)


def _draw(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


def _param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _gru_params(rng, dim: int, emb: int, ctx: int = 0) -> GruParams:
    """Draws the input weights, the recurrent weights, then (for a decoder)
    the ctx-wide context weights, each stacked over the three gates."""
    w = _draw(rng, (3 * dim, emb))
    u = _draw(rng, (3 * dim, dim))
    if ctx:
        w = np.hstack([w, _draw(rng, (3 * dim, ctx))])
    return GruParams(
        w=_param(w),
        u_zr=_param(u[: 2 * dim]),
        u_h=_param(u[2 * dim :]),
        b=_param(np.zeros(3 * dim)),
    )


def _decoder_params(rng, cfg: ModelConfig) -> DecoderParams:
    v, e, d = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim
    return DecoderParams(
        embedding=_param(_draw(rng, (v, e))),
        gru=_gru_params(rng, d, e, ctx=2 * d),
        att_w=_param(_draw(rng, (d, d))),
        att_u=_param(_draw(rng, (d, 2 * d))),
        att_v=_param(_draw(rng, (d,))),
        att_b=_param(np.zeros(d)),
        init_w=_param(_draw(rng, (d, 2 * d))),
        init_b=_param(np.zeros(d)),
        out_w=_param(_draw(rng, (v, e + 3 * d))),
        out_b=_param(np.zeros(v)),
    )


def _named_tensors(prefix: str, params) -> Iterator[tuple[str, Tensor]]:
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            yield f"{prefix}.{f.name}", value
        else:
            yield from _named_tensors(f"{prefix}.{f.name}", value)


@dataclass
class Seq2SeqModel:
    config: ModelConfig
    encoder: EncoderParams
    backward_decoder: DecoderParams
    forward_decoder: DecoderParams

    @classmethod
    def create(cls, config: ModelConfig, seed: int = 0) -> "Seq2SeqModel":
        rng = np.random.default_rng(seed)
        d, e = config.hidden_dim, config.embed_dim
        encoder = EncoderParams(
            embedding=_param(_draw(rng, (config.vocab_size, e))),
            fwd=_gru_params(rng, d, e),
            bwd=_gru_params(rng, d, e),
        )
        return cls(
            config=config,
            encoder=encoder,
            backward_decoder=_decoder_params(rng, config),
            forward_decoder=_decoder_params(rng, config),
        )

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield from _named_tensors("encoder", self.encoder)
        yield from _named_tensors("backward", self.backward_decoder)
        yield from _named_tensors("forward", self.forward_decoder)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()


def _joined(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The rows of ids end to end, each padded with PAD_ID to the longest,
    and the row lengths."""
    lengths = [len(row) for row in rows]
    width = max(lengths, default=0)
    return [tok for row in rows for tok in (*row, *(PAD_ID,) * (width - len(row)))], lengths


def encode(sources: Sequence[Sequence[int]], params: EncoderParams) -> tuple[Tensor, Tensor]:
    """Annotations and their mean for a batch of B sources, padded to the
    longest, n tokens: source b owns annotation rows b*n .. b*n + n - 1
    (B*n x 2dim), of which the first len(sources[b]) are real.

    Real row b*n + t joins the left-to-right state after reading token t
    to the right-to-left state after reading it from the other end; both
    directions start from zero states and skip the pads. Row b of the mean
    (B x 2dim) averages source b's real rows. Per call, the sources are
    looked up in one embedding op and each direction's input
    pre-activations are one (B*n x 3dim) product; one `gru_scan` then
    steps both directions, one stacked update per position, and returns
    the annotation rows as they are.
    """
    ids, lengths = _joined(sources)
    if not lengths or min(lengths) == 0:
        raise ContractError("cannot encode an empty source")
    embedded = ad.take_rows(params.embedding, ids)
    fwd, bwd = params.fwd, params.bwd
    annotations = ad.gru_scan(
        ad.affine(embedded, fwd.w, fwd.b), fwd.u_zr, fwd.u_h,
        ad.affine(embedded, bwd.w, bwd.b), bwd.u_zr, bwd.u_h, lengths,
    )
    return annotations, ad.mean_rows(annotations, lengths)


def init_decoder_state(h_mean: Tensor, params: DecoderParams) -> Tensor:
    """s0 (B, dim) = tanh of an affine map of the mean annotation rows."""
    return ad.tanh(ad.affine(h_mean, params.init_w, params.init_b))


def decode_step(
    tokens: Sequence[Sequence[int]],
    s_prev: Tensor,
    annotations: Tensor,
    params: DecoderParams,
    source_lengths: Sequence[int],
) -> Tensor:
    """Decoder updates of B rows over given tokens: row b starts in state
    s_prev[b] (B, dim) and consumes tokens[b] in order, one step each, as
    one `autodiff.decoder_scan`. With T the longest row, returns the rows
    [embedding; state; context] (B*T, E + 3dim), row b*T + t holding the
    embedding of token t and the state and context after it: the input of
    `output_logits`, which only a step whose prediction is scored needs.
    The state is columns E .. E + dim. A shorter row keeps its last state
    over the rest.

    The annotations are an `encode` batch of the sources of
    source_lengths: B sources, one per row, or one source that every row
    reads. The scan maps them into the attention keys once per call.
    """
    ids, lengths = _joined(tokens)
    gru = params.gru
    return ad.decoder_scan(
        ad.take_rows(params.embedding, ids), s_prev, annotations, params.att_u, params.att_b, params.att_w,
        params.att_v, gru.w, gru.b, gru.u_zr, gru.u_h, lengths, source_lengths,
    )[0]


def output_logits(rows: Tensor, params: DecoderParams) -> Tensor:
    """Next-token logits (B, V) of rows [embedding; state; context] of a
    `decode_step`. Each row's next-token distribution is the softmax of its
    logits."""
    return ad.affine(rows, params.out_w, params.out_b)


def decoder_stage(annotations: Tensor, params: DecoderParams) -> ad.DecoderStage:
    """The stage of params's decoder over one `encode`d source, prepared
    once for `beam_step`, attention keys included: every row of every step
    reads that source's annotations (n x 2dim)."""
    gru = params.gru
    return ad.DecoderStage(
        annotations.data, params.att_u.data, params.att_b.data, params.att_w.data, params.att_v.data,
        gru.w.data, gru.b.data, gru.u_zr.data, gru.u_h.data, [annotations.shape[0]],
    )


def beam_step(
    stage: ad.DecoderStage, prev_tokens: Sequence[int], states: np.ndarray, params: DecoderParams
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder step of B beam rows on plain arrays: row b consumes
    prev_tokens[b] in state states[b] (B, dim), and the step's rows
    [embedding; state; context] go through the output layer, as
    `output_logits` computes it, and `autodiff.log_softmax`.

    Returns the new states (B, dim) and the next-token log-probabilities
    (B, V), bit for bit those of a one-token-per-row `decode_step` and
    `output_logits` over the stage's source, with no op dispatched and
    nothing recorded on a tape. stage is `decoder_stage` of params.
    """
    vocab = params.embedding.shape[0]
    if not prev_tokens or min(prev_tokens) < 0 or max(prev_tokens) >= vocab:
        raise ContractError(f"beam_step: token ids {list(prev_tokens)} empty or out of range for {vocab} rows")
    x = params.embedding.data[prev_tokens]
    s, context, _, _ = stage.step(states, x, None)
    rows = np.concatenate([x, s, context], axis=1)
    return s, ad.log_softmax(rows @ params.out_w.data.T + params.out_b.data)


# ---------------------------------------------------------------------------
# checkpoints: one uncompressed numpy archive (`np.savez`) holding a format
# string, the config, the vocabulary and the term-frequency table with its
# threshold that training used (so `simplify` takes its step-1 resources
# from this one file) and one member per named parameter. The
# zip container keeps a CRC-32 per member, so a flipped byte or a cut file is
# refused on load; nothing is pickled.

_CONFIG_KEYS = ("vocab_size", "embed_dim", "hidden_dim")


def _token_bytes(tokens: Iterable[str]) -> np.ndarray:
    """UTF-8 bytes of the tokens joined by newlines. Unlike a fixed-width
    string array this keeps every token exactly, trailing NULs included."""
    tokens = list(tokens)
    if any(not tok or "\n" in tok for tok in tokens):
        raise ContractError("checkpoint tokens must be non-empty and hold no newline")
    return np.frombuffer("\n".join(tokens).encode("utf-8"), dtype=np.uint8)


def _tokens(data: np.ndarray) -> list[str]:
    text = data.tobytes().decode("utf-8")
    return text.split("\n") if text else []


def save_checkpoint(path: str, model: Seq2SeqModel, vocab: Vocabulary, freq_table: FrequencyTable) -> None:
    if len(vocab) > model.config.vocab_size:
        raise ContractError(f"{len(vocab)} vocabulary ids do not fit vocab_size {model.config.vocab_size}")
    counts = freq_table.counts
    members = {
        "format": np.array(CHECKPOINT_FORMAT),
        **{f"config.{key}": np.int64(getattr(model.config, key)) for key in _CONFIG_KEYS},
        "freq_threshold": np.array([freq_table.threshold], dtype=np.float64),
        "vocab": _token_bytes(vocab.kept_tokens()),
        "freq.tokens": _token_bytes(counts),
        "freq.counts": np.array(list(counts.values()), dtype=np.int64),
        **{name: t.data for name, t in model.named_parameters()},
    }
    # through an open file: given a path string, np.savez would append ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, **members)


@dataclass
class Checkpoint:
    model: Seq2SeqModel
    vocab: Vocabulary
    freq_table: FrequencyTable


def load_checkpoint(path: str) -> Checkpoint:
    """Read a `save_checkpoint` archive into a fresh model.

    A missing, empty, cut, corrupt or foreign file (such as a v1 or v2 text
    checkpoint, or a v3, v4 or v5 archive) raises CheckpointError naming the
    path and, where there is one, the archive member; so does a `vocab`
    member that is not a vocabulary of the model's `vocab_size`, a
    `freq_threshold` that does not hold exactly one finite value, or a
    negative count.
    """
    member = None  # the member being read, named in the error

    def read(name: str, dtype, shape: tuple | None = None) -> np.ndarray:
        nonlocal member
        member = name
        value = np.asarray(archive[name])  # a member that is not .npy data reads as bytes
        if value.dtype != dtype or shape is not None and value.shape != shape:
            expected = np.dtype(dtype) if shape is None else f"{np.dtype(dtype)} {shape}"
            raise ValueError(f"holds {value.dtype} {value.shape}, expected {expected}")
        return value

    try:
        with np.lib.npyio.NpzFile(path, allow_pickle=False) as archive:
            if str(read("format", f"<U{len(CHECKPOINT_FORMAT)}")) != CHECKPOINT_FORMAT:
                raise ValueError(f"not a {CHECKPOINT_FORMAT!r} archive")
            config = {key: int(read(f"config.{key}", np.int64, ())) for key in _CONFIG_KEYS}
            member = None
            model = Seq2SeqModel.create(ModelConfig(**config), seed=0)
            params = dict(model.named_parameters())
            expected = {"format", "freq_threshold", "vocab", "freq.tokens", "freq.counts", *params}
            expected |= {f"config.{key}" for key in _CONFIG_KEYS}
            missing, unexpected = sorted(expected - set(archive.files)), sorted(set(archive.files) - expected)
            if missing or unexpected:
                raise ValueError(f"missing members {missing[:3]}, unexpected members {unexpected[:3]}")
            threshold = float(read("freq_threshold", np.float64, (1,))[0])
            if not np.isfinite(threshold):
                raise ValueError("non-finite value")
            vocab = Vocabulary(_tokens(read("vocab", np.uint8)), max_size=config["vocab_size"])
            freq_tokens = _tokens(read("freq.tokens", np.uint8))
            counts = read("freq.counts", np.int64, (len(freq_tokens),))
            if np.any(counts < 0):
                raise ValueError("negative counts")
            for name, target in params.items():
                target.data = np.ascontiguousarray(read(name, np.float64, target.shape))
                if not np.all(np.isfinite(target.data)):
                    raise ValueError("non-finite values")
    # zipfile raises RuntimeError (NotImplementedError among them) for header
    # bits it cannot honour, such as a compression method or encryption flag
    except (zipfile.BadZipFile, EOFError, ValueError, OSError, KeyError, RuntimeError) as exc:
        where = f", member {member!r}" if member else ""
        raise CheckpointError(f"cannot load checkpoint {path}{where}: {exc}") from None
    return Checkpoint(model, vocab, FrequencyTable(dict(zip(freq_tokens, counts.tolist())), threshold))
