"""Bidirectional GRU encoder, additive attention, and GRU decoders.

One shared encoder feeds two independently parameterized decoders: a
backward decoder that generates the tokens before a constraint word in
reverse, and a forward decoder that continues after it. Decoder states are
initialized from the mean encoder annotation through a tanh map.

Every layer works on rows: a state, a context or a distribution is a
(B, width) matrix with one example or hypothesis per row, so beam search
advances all of its live hypotheses with one `decode_step` call. A batch
of sequences is padded: source b owns block b of the annotation rows, and
each row carries its own length, so training and validation score several
pairs with the same calls. Weights are stored (out, in) and applied as
`x @ w.T + b`.

There is one GRU cell with its gate weights fused, and each recurrence is
one autodiff op with a hand-written backward pass through time: the
encoder runs `autodiff.gru_scan` once per direction over the input
pre-activations of a whole batch, computed in one product, and a decoder
runs `autodiff.decoder_scan`, whose steps each read attention, take the
GRU input product of the previous token's embedding joined to the
context, and update the state. Attention keys, the attention bias
included, depend only on the annotations, so each decoder stage computes
them once, as one `affine` map in `attention_keys`. A decoder stage is two
functions: `decode_step` runs T given steps of every row (the beam passes
one token per row, teacher forcing a stage's whole given sequence), and
`output_logits` projects the rows of the steps it is given onto the
vocabulary, so a teacher-forced step whose prediction nothing scores
skips that product. The model holds no decoding setting: the beam width
and the length cap belong to `decoding.decode_multi`.
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

    Real row b*n + t concatenates the left-to-right state after reading
    token t with the right-to-left state after reading it from the other
    end; both directions start from zero states and skip the pads. Row b
    of the mean (B x 2dim) averages source b's real rows. The sources are
    looked up in one embedding op, each direction's input pre-activations
    are one (B*n x 3dim) product, and its recurrence is one `gru_scan`.
    """
    ids, lengths = _joined(sources)
    if not lengths or min(lengths) == 0:
        raise ContractError("cannot encode an empty source")
    embedded = ad.take_rows(params.embedding, ids)
    fwd, bwd = params.fwd, params.bwd
    fwd_states = ad.gru_scan(ad.affine(embedded, fwd.w, fwd.b), fwd.u_zr, fwd.u_h, lengths, reverse=False)
    bwd_states = ad.gru_scan(ad.affine(embedded, bwd.w, bwd.b), bwd.u_zr, bwd.u_h, lengths, reverse=True)
    annotations = ad.concat([fwd_states, bwd_states])
    return annotations, ad.mean_rows(annotations, lengths)


def init_decoder_state(h_mean: Tensor, params: DecoderParams) -> Tensor:
    """s0 (B, dim) = tanh of an affine map of the mean annotation rows."""
    return ad.tanh(ad.affine(h_mean, params.init_w, params.init_b))


def attention_keys(annotations: Tensor, params: DecoderParams) -> Tensor:
    """U_a h_j + b_a for every annotation row (n x dim). They are fixed for
    a whole stage, so the attention bias is added here once, not to every
    step's query."""
    return ad.affine(annotations, params.att_u, params.att_b)


def decode_step(
    tokens: Sequence[Sequence[int]],
    s_prev: Tensor,
    annotations: Tensor,
    keys: Tensor,
    params: DecoderParams,
    source_lengths: Sequence[int],
) -> tuple[Tensor, Tensor]:
    """Decoder updates of B rows over given tokens: row b starts in state
    s_prev[b] (B, dim) and consumes tokens[b] in order, one step each, as
    one `autodiff.decoder_scan`. With T the longest row, returns the
    consumed tokens' embeddings (B*T, E) and the rows [state; context]
    (B*T, 3dim), row b*T + t after token t: the inputs of `output_logits`,
    which only a step whose prediction is scored needs. A shorter row keeps
    its last state over the rest.

    keys are `attention_keys(annotations, params)`. The annotations are an
    `encode` batch of the sources of source_lengths: B sources, one per
    row, or one source that every row reads.
    """
    ids, lengths = _joined(tokens)
    e_prev = ad.take_rows(params.embedding, ids)
    gru = params.gru
    out, _ = ad.decoder_scan(
        e_prev, s_prev, keys, annotations, params.att_w, params.att_v,
        gru.w, gru.b, gru.u_zr, gru.u_h, lengths, source_lengths,
    )
    return e_prev, out


def output_logits(e_prev: Tensor, out: Tensor, params: DecoderParams) -> Tensor:
    """Next-token logits (B, V) of rows of a `decode_step`: embeddings
    e_prev and [state; context] rows out. Each row's next-token
    distribution is the softmax of its logits."""
    return ad.affine(ad.concat([e_prev, out]), params.out_w, params.out_b)


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
