"""Bidirectional GRU encoder, additive attention, and GRU decoders.

One shared encoder feeds two independently parameterized decoders: a
backward decoder that generates the tokens before a constraint word in
reverse, and a forward decoder that continues after it. Decoder states are
initialized from the mean encoder annotation through a tanh map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ContractError
from .lexsub import FrequencyTable

INIT_SCALE = 0.08
CHECKPOINT_MAGIC = "seq2seq-ckpt v1"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int
    hidden_dim: int
    beam_size: int = 5
    max_decode_len: int = 100
    share_decoders: bool = False  # one parameter set serving both directions

    def __post_init__(self):
        if min(self.vocab_size, self.embed_dim, self.hidden_dim, self.beam_size) < 1:
            raise ContractError("all model dimensions must be positive")
        if self.vocab_size <= 4:
            raise ContractError("vocab_size must exceed the 4 reserved ids")
        if self.max_decode_len < 2:
            raise ContractError("max_decode_len must be at least 2")

    @classmethod
    def full_scale(cls) -> "ModelConfig":
        """The original experimental setup's sizes (not a desk-scale default)."""
        return cls(vocab_size=60000, embed_dim=620, hidden_dim=1000)


@dataclass
class GruParams:
    """Gate weights for one recurrent direction: update, reset, candidate."""

    w_z: Tensor
    w_r: Tensor
    w_h: Tensor
    u_z: Tensor
    u_r: Tensor
    u_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor


@dataclass
class EncoderParams:
    embedding: Tensor  # (V, E)
    fwd: GruParams
    bwd: GruParams


@dataclass
class DecoderParams:
    embedding: Tensor  # (V, E)
    w_z: Tensor  # (dim, E)
    w_r: Tensor
    w_s: Tensor
    u_z: Tensor  # (dim, dim)
    u_r: Tensor
    u_s: Tensor
    c_z: Tensor  # (dim, 2dim)
    c_r: Tensor
    c_s: Tensor
    b_z: Tensor  # (dim,)
    b_r: Tensor
    b_s: Tensor
    att_w: Tensor  # (dim, dim)
    att_u: Tensor  # (dim, 2dim)
    att_v: Tensor  # (dim,)
    att_b: Tensor  # (dim,)
    init_w: Tensor  # (dim, 2dim)
    init_b: Tensor  # (dim,)
    out_w: Tensor  # (V, E + 3dim)
    out_b: Tensor  # (V,)


def _uniform(rng: np.random.Generator, shape, name: str) -> Tensor:
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape), requires_grad=True, name=name)


def _zeros(shape, name: str) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True, name=name)


def _gru_params(rng, dim: int, emb: int, prefix: str) -> GruParams:
    return GruParams(
        w_z=_uniform(rng, (dim, emb), f"{prefix}.w_z"),
        w_r=_uniform(rng, (dim, emb), f"{prefix}.w_r"),
        w_h=_uniform(rng, (dim, emb), f"{prefix}.w_h"),
        u_z=_uniform(rng, (dim, dim), f"{prefix}.u_z"),
        u_r=_uniform(rng, (dim, dim), f"{prefix}.u_r"),
        u_h=_uniform(rng, (dim, dim), f"{prefix}.u_h"),
        b_z=_zeros((dim,), f"{prefix}.b_z"),
        b_r=_zeros((dim,), f"{prefix}.b_r"),
        b_h=_zeros((dim,), f"{prefix}.b_h"),
    )


def _decoder_params(rng, cfg: ModelConfig, prefix: str) -> DecoderParams:
    v, e, d = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim
    return DecoderParams(
        embedding=_uniform(rng, (v, e), f"{prefix}.embedding"),
        w_z=_uniform(rng, (d, e), f"{prefix}.w_z"),
        w_r=_uniform(rng, (d, e), f"{prefix}.w_r"),
        w_s=_uniform(rng, (d, e), f"{prefix}.w_s"),
        u_z=_uniform(rng, (d, d), f"{prefix}.u_z"),
        u_r=_uniform(rng, (d, d), f"{prefix}.u_r"),
        u_s=_uniform(rng, (d, d), f"{prefix}.u_s"),
        c_z=_uniform(rng, (d, 2 * d), f"{prefix}.c_z"),
        c_r=_uniform(rng, (d, 2 * d), f"{prefix}.c_r"),
        c_s=_uniform(rng, (d, 2 * d), f"{prefix}.c_s"),
        b_z=_zeros((d,), f"{prefix}.b_z"),
        b_r=_zeros((d,), f"{prefix}.b_r"),
        b_s=_zeros((d,), f"{prefix}.b_s"),
        att_w=_uniform(rng, (d, d), f"{prefix}.att_w"),
        att_u=_uniform(rng, (d, 2 * d), f"{prefix}.att_u"),
        att_v=_uniform(rng, (d,), f"{prefix}.att_v"),
        att_b=_zeros((d,), f"{prefix}.att_b"),
        init_w=_uniform(rng, (d, 2 * d), f"{prefix}.init_w"),
        init_b=_zeros((d,), f"{prefix}.init_b"),
        out_w=_uniform(rng, (v, e + 3 * d), f"{prefix}.out_w"),
        out_b=_zeros((v,), f"{prefix}.out_b"),
    )


@dataclass
class Seq2SeqModel:
    config: ModelConfig
    encoder: EncoderParams
    backward_decoder: DecoderParams
    forward_decoder: DecoderParams

    @classmethod
    def create(cls, config: ModelConfig, seed: int = 0) -> "Seq2SeqModel":
        rng = np.random.default_rng(seed)
        encoder = EncoderParams(
            embedding=_uniform(rng, (config.vocab_size, config.embed_dim), "encoder.embedding"),
            fwd=_gru_params(rng, config.hidden_dim, config.embed_dim, "encoder.fwd"),
            bwd=_gru_params(rng, config.hidden_dim, config.embed_dim, "encoder.bwd"),
        )
        if config.share_decoders:
            shared = _decoder_params(rng, config, "decoder")
            return cls(config=config, encoder=encoder, backward_decoder=shared, forward_decoder=shared)
        return cls(
            config=config,
            encoder=encoder,
            backward_decoder=_decoder_params(rng, config, "backward"),
            forward_decoder=_decoder_params(rng, config, "forward"),
        )

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "encoder.embedding", self.encoder.embedding
        for direction, gru in (("fwd", self.encoder.fwd), ("bwd", self.encoder.bwd)):
            for name in ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h"):
                yield f"encoder.{direction}.{name}", getattr(gru, name)
        if self.config.share_decoders:
            sides = (("decoder", self.backward_decoder),)
        else:
            sides = (("backward", self.backward_decoder), ("forward", self.forward_decoder))
        for side, dec in sides:
            for name in (
                "embedding", "w_z", "w_r", "w_s", "u_z", "u_r", "u_s",
                "c_z", "c_r", "c_s", "b_z", "b_r", "b_s",
                "att_w", "att_u", "att_v", "att_b", "init_w", "init_b", "out_w", "out_b",
            ):
                yield f"{side}.{name}", getattr(dec, name)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()


def _gru_step(embedded: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    z = ad.sigmoid(ad.add_all(ad.matmul(p.w_z, embedded), ad.matmul(p.u_z, h_prev), p.b_z))
    r = ad.sigmoid(ad.add_all(ad.matmul(p.w_r, embedded), ad.matmul(p.u_r, h_prev), p.b_r))
    h_tilde = ad.tanh(
        ad.add_all(ad.matmul(p.w_h, embedded), ad.matmul(p.u_h, ad.mul(r, h_prev)), p.b_h)
    )
    return ad.add(ad.mul(ad.one_minus(z), h_prev), ad.mul(z, h_tilde))


def encode(source: Sequence[int], params: EncoderParams) -> tuple[Tensor, Tensor]:
    """Annotations H (n x 2dim) and their arithmetic mean (2dim,).

    Row t concatenates the left-to-right state after reading token t with
    the right-to-left state after reading it from the other end; both
    directions start from zero states.
    """
    if len(source) == 0:
        raise ContractError("cannot encode an empty source")
    dim = params.fwd.b_z.shape[0]
    embedded = [ad.take_row(params.embedding, tok) for tok in source]

    h = ad.zeros((dim,))
    fwd_states = []
    for e in embedded:
        h = _gru_step(e, h, params.fwd)
        fwd_states.append(h)

    h = ad.zeros((dim,))
    bwd_states: list[Tensor | None] = [None] * len(source)
    for i in range(len(source) - 1, -1, -1):
        h = _gru_step(embedded[i], h, params.bwd)
        bwd_states[i] = h

    annotations = ad.stack([ad.concat([f, b]) for f, b in zip(fwd_states, bwd_states)])
    return annotations, ad.mean_rows(annotations)


def init_decoder_state(h_mean: Tensor, params: DecoderParams) -> Tensor:
    """s0 = tanh of an affine map of the mean annotation."""
    return ad.tanh(ad.add(ad.matmul(params.init_w, h_mean), params.init_b))


def attend(s_prev: Tensor, annotations: Tensor, params: DecoderParams) -> tuple[Tensor, Tensor]:
    """Additive-attention context vector (2dim,) and weights (n,)."""
    query = ad.add(ad.matmul(params.att_w, s_prev), params.att_b)
    keys = ad.matmul(annotations, ad.transpose(params.att_u))  # (n, dim)
    energies = ad.matmul(ad.tanh(ad.add_rows(keys, query)), params.att_v)  # (n,)
    alpha = ad.softmax(energies)
    context = ad.matmul(alpha, annotations)
    return context, alpha


def decode_step(
    prev_token: int,
    s_prev: Tensor,
    annotations: Tensor,
    params: DecoderParams,
) -> tuple[Tensor, Tensor]:
    """One decoder update: new state (dim,) and next-token logits (V,).

    The next-token distribution is the softmax of the logits.
    """
    e_prev = ad.take_row(params.embedding, prev_token)
    context, _ = attend(s_prev, annotations, params)
    z = ad.sigmoid(
        ad.add_all(
            ad.matmul(params.w_z, e_prev),
            ad.matmul(params.u_z, s_prev),
            ad.matmul(params.c_z, context),
            params.b_z,
        )
    )
    r = ad.sigmoid(
        ad.add_all(
            ad.matmul(params.w_r, e_prev),
            ad.matmul(params.u_r, s_prev),
            ad.matmul(params.c_r, context),
            params.b_r,
        )
    )
    s_tilde = ad.tanh(
        ad.add_all(
            ad.matmul(params.w_s, e_prev),
            ad.matmul(params.u_s, ad.mul(r, s_prev)),
            ad.matmul(params.c_s, context),
            params.b_s,
        )
    )
    s = ad.add(ad.mul(ad.one_minus(z), s_prev), ad.mul(z, s_tilde))
    features = ad.concat([e_prev, s, context])
    logits = ad.add(ad.matmul(params.out_w, features), params.out_b)
    return s, logits


# ---------------------------------------------------------------------------
# checkpoints: versioned flat text with named parameters, plus the vocabulary
# and term-frequency table so `simplify` is self-contained from one file


def save_checkpoint(
    path: str,
    model: Seq2SeqModel,
    vocab_tokens: Sequence[str] = (),
    freq_counts: dict[str, int] | None = None,
    freq_threshold: float | None = None,
) -> None:
    cfg = model.config
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        for key in ("vocab_size", "embed_dim", "hidden_dim", "beam_size", "max_decode_len"):
            fh.write(f"config {key} {getattr(cfg, key)}\n")
        fh.write(f"config share_decoders {int(cfg.share_decoders)}\n")
        if freq_threshold is not None:
            fh.write(f"config freq_threshold {freq_threshold!r}\n")
        fh.write(f"vocab {len(vocab_tokens)}\n")
        for tok in vocab_tokens:
            fh.write(tok + "\n")
        counts = freq_counts or {}
        fh.write(f"freq {len(counts)}\n")
        for tok, count in counts.items():
            fh.write(f"{tok} {count}\n")
        for name, t in model.named_parameters():
            dims = " ".join(str(d) for d in t.shape)
            fh.write(f"param {name} {dims}\n")
            fh.write(" ".join(repr(float(v)) for v in t.data.reshape(-1)) + "\n")
        fh.write("end\n")


@dataclass
class Checkpoint:
    model: Seq2SeqModel
    vocab_tokens: list[str]
    freq_counts: dict[str, int]
    freq_threshold: float | None = None

    def frequency_table(self, complexity_percentile: float = 30.0) -> FrequencyTable:
        return FrequencyTable(
            self.freq_counts,
            complexity_percentile=complexity_percentile,
            threshold=self.freq_threshold,
        )


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_MAGIC!r} file")

    pos = 1
    config_kv: dict[str, str] = {}
    while pos < len(lines) and lines[pos].startswith("config "):
        _, key, value = lines[pos].split(" ", 2)
        config_kv[key] = value
        pos += 1
    try:
        cfg = ModelConfig(
            vocab_size=int(config_kv["vocab_size"]),
            embed_dim=int(config_kv["embed_dim"]),
            hidden_dim=int(config_kv["hidden_dim"]),
            beam_size=int(config_kv.get("beam_size", 5)),
            max_decode_len=int(config_kv.get("max_decode_len", 100)),
            share_decoders=bool(int(config_kv.get("share_decoders", 0))),
        )
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"bad config block in {path}: {exc}") from None
    freq_threshold = (
        float(config_kv["freq_threshold"]) if "freq_threshold" in config_kv else None
    )

    def expect(prefix: str) -> list[str]:
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(prefix + " "):
            raise CheckpointError(f"expected {prefix!r} section at line {pos + 1} of {path}")
        parts = lines[pos].split(" ")
        pos += 1
        return parts

    vocab_count = int(expect("vocab")[1])
    vocab_tokens = lines[pos : pos + vocab_count]
    pos += vocab_count

    freq_count = int(expect("freq")[1])
    freq_counts: dict[str, int] = {}
    for line in lines[pos : pos + freq_count]:
        tok, count = line.rsplit(" ", 1)
        freq_counts[tok] = int(count)
    pos += freq_count

    model = Seq2SeqModel.create(cfg, seed=0)
    expected = dict(model.named_parameters())
    seen = set()
    while pos < len(lines) and lines[pos] != "end":
        parts = lines[pos].split(" ")
        if parts[0] != "param":
            raise CheckpointError(f"unexpected line {pos + 1} in {path}: {lines[pos][:40]!r}")
        name = parts[1]
        shape = tuple(int(d) for d in parts[2:])
        if name not in expected:
            raise CheckpointError(f"unknown parameter {name!r} in {path}")
        target = expected[name]
        if shape != target.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {shape}, expected {target.shape}"
            )
        pos += 1
        values = np.array([float(v) for v in lines[pos].split()], dtype=np.float64)
        if values.size != target.size:
            raise CheckpointError(f"parameter {name!r} has {values.size} values, expected {target.size}")
        target.data = values.reshape(shape)
        seen.add(name)
        pos += 1
    if pos >= len(lines) or lines[pos] != "end":
        raise CheckpointError(f"missing end marker in {path}")
    missing = set(expected) - seen
    if missing:
        raise CheckpointError(f"checkpoint {path} is missing parameters: {sorted(missing)[:3]}")
    return Checkpoint(model, vocab_tokens, freq_counts, freq_threshold)
