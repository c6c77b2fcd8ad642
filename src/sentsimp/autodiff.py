"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the model runs, in row form: a batch is a
(B, width) matrix with one example or hypothesis per row, and a padded
batch of sequences is B equal blocks of rows, one block per sequence,
with the sequences' lengths beside it. There is one weight product, the
fused affine map `x @ w.T + b` on weights stored (out, in); then tanh, a
fused row-wise softmax negative log-likelihood (and `log_softmax`, its
plain-array helper, which decoding uses too), lookup of several rows at
once, stacking matrices on top of each other, and the mean of each
block's real rows. Two fused ops cover the model's recurrent work, each
one op per recurrence with a hand-written backward pass through time and
per-row length masks: `gru_scan` runs a whole bidirectional GRU, both
directions advanced by one stacked update per step, and `decoder_scan` a
whole decoder stage over given tokens (per step an additive-attention
read, the GRU input product and the GRU update) over one source block per
row or one block that every row reads, so a recurrence costs one
dispatch and one tape record however long it is. A decoder step's output
row is [embedding; state; context], the input of the model's output
layer, so that layer is one affine map. The encoder's inputs are put in
step order once per call, before its loop. A :class:`DecoderStage` holds
a decoder's embedding, whose rows `decoder_scan` and the beam look up by
token id through it, and what the decoder prepares once over its source:
the attention keys and the context weights applied to the source rows.
Its `step` is the body of `decoder_scan`'s loop on plain arrays, so the
beam runs the same step once per iteration with no op around it; per
step it also takes the embedding half of the GRU input product. The
scans form the annotations' and embedding rows' gradients after the loops.
Gradients are recorded on an explicit :class:`Tape` that is rebuilt
every forward pass, so variable-length sequences need no static graph.
An open tape records every op run under it, and its backward pass gives
a gradient to every leaf the loss reaches; there is no per-tensor
switch. With no tape open the same functions run as plain numpy
computations, which is how decoding and validation execute; the scans
then keep no intermediates for a backward pass.

Every op states its backward pass as a function of its output's adjoint
g that returns, per input, None, a :class:`RowGrad`, or a new array: one
that shares memory with no other array it returns, with g, and with no
tensor's data (see :func:`_emit`). A weight gradient is the one product
`g.T @ x` of the output adjoint and the input rows (a scan's, every step's
rows stacked, so a recurrence's weight costs one matrix product, not one
outer product per step). A lookup's gradient stays sparse: `take_rows`,
and `decoder_scan` for its embedding, return the adjoint rows and their
ids as a :class:`RowGrad`, which :meth:`Tape.backward` scatters into the
input's gradient, so a lookup costs the rows it touched, not a zero matrix
the size of the whole input. Because no array reaches the walk twice,
:meth:`Tape.backward` sums every gradient in place and makes no copy, and
each leaf's gradient is its own array, so scaling one in place (as
gradient clipping does) never changes another.

Tensors with computed values are treated as immutable and may be shared
across threads; a tape is single-threaded (one tape per worker).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray


class _Stacks(threading.local):
    """Each thread's stack of open tapes; every thread starts with an empty one."""

    def __init__(self):
        self.tapes: list[Tape] = []


_STACKS = _Stacks()


def active_tape() -> "Tape | None":
    tapes = _STACKS.tapes
    return tapes[-1] if tapes else None


class Tensor:
    """A dense float64 array plus its gradient.

    `grad` is populated by :meth:`Tape.backward` for every leaf (a tensor
    that no recorded op produced, such as a parameter) that the loss
    depends on; repeated backward calls accumulate until :meth:`zero_grad`.
    An op's output gets no `grad`: the walk frees its adjoint once it has
    passed it on to the op's inputs.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.grad: Array | None = None

    @classmethod
    def _wrap(cls, data: Array) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _weight_grad(g: Array, x: Array) -> Array:
    # np.dot reaches BLAS for a one-row g, where @ takes a slow loop
    return np.dot(g.T, x)


@dataclass(slots=True)
class RowGrad:
    """The gradient of `take_rows`, left sparse: adjoint rows g (k, width)
    that belong to rows ids of the input. `scatter_into` adds each row to
    its id's row of a target, in place, repeats summed."""

    ids: list[int]
    g: Array

    def scatter_into(self, target: Array) -> None:
        np.add.at(target, self.ids, self.g)


class Tape:
    """Ordered record of executed operations, for reverse-order traversal.

    Use as a context manager; every op executed inside records itself.
    `backward(loss)` walks the record in exact reverse execution order and
    accumulates gradients into `.grad` of every leaf reachable from the loss.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._output_ids: set[int] = set()

    def __enter__(self) -> "Tape":
        _STACKS.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _STACKS.tapes.pop()
        assert popped is self, "tapes must unwind in LIFO order"

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
        self._records.append((out, inputs, backward_fn))
        self._output_ids.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Add d loss / d t to `t.grad` for every leaf t that the loss
        depends on through this tape.

        Each input's gradient has one slot: a leaf's (no record produced it,
        e.g. a parameter) is its `.grad`, an intermediate's the walk's
        adjoint for it. An empty slot takes the first array as it comes, and
        later arrays are added into it in place; a :class:`RowGrad` is
        scattered into the slot, which starts as zeros. No copy is needed,
        since every array a backward function returns is its own (see
        :func:`_emit`).
        """
        if loss.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._output_ids:
            raise ContractError("loss was not recorded on this tape")

        adjoints: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward_fn in reversed(self._records):
            out_adj = adjoints.pop(id(out), None)
            if out_adj is None:
                continue
            for inp, grad in zip(inputs, backward_fn(out_adj)):
                if grad is None:
                    continue
                key = id(inp)
                leaf = key not in self._output_ids
                slot = inp.grad if leaf else adjoints.get(key)
                if type(grad) is RowGrad:
                    if slot is None:
                        slot = np.zeros_like(inp.data)
                    grad.scatter_into(slot)
                elif slot is None:
                    slot = grad
                else:
                    slot += grad
                if leaf:
                    inp.grad = slot
                else:
                    adjoints[key] = slot


def _emit(
    data: Array,
    inputs: tuple[Tensor, ...],
    backward_fn: Callable[[Array], Sequence[Array | RowGrad | None]],
) -> Tensor:
    """The tensor of an op's output data, recorded on the active tape if
    one is open.

    backward_fn maps the output's adjoint g to one item per input: None (no
    gradient), a :class:`RowGrad` (whose rows the walk only reads), or a new
    array, which shares memory with no other array it returns, with g, and
    with no tensor's data. :meth:`Tape.backward` sums into such an array in
    place, so every op must keep this rule.
    """
    out = Tensor._wrap(data)
    # the stack itself, not active_tape(): this runs for every op, and
    # decoding runs every op with no tape open
    tapes = _STACKS.tapes
    if tapes:
        tapes[-1]._record(out, inputs, backward_fn)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b: rows x (B, in) through a weight stored (out, in), and
    the bias b (out,) added to every row."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DimensionError(f"affine: rows {x.shape} do not fit weight {w.shape}")
    if b.shape != (w.shape[0],):
        raise DimensionError(f"affine: bias {b.shape} does not fit output width {w.shape[0]}")

    def back(g: Array):
        return g @ w.data, _weight_grad(g, x.data), g.sum(axis=0)

    return _emit(x.data @ w.data.T + b.data, (x, w, b), back)


def _sigmoid(x: Array) -> Array:
    # exp of -|x| only, so neither branch can overflow
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def back(g: Array):
        return (g * (1.0 - out * out),)

    return _emit(out, (a,), back)


def _softmax(x: Array, non_finite: str, pad: Array | None = None) -> Array:
    """Row-wise softmax of finite x; entries where pad is True get weight
    exactly 0 (each row needs one entry that is not a pad)."""
    if not np.isfinite(x).all():
        raise NumericError(non_finite)
    if pad is not None:
        x = np.where(pad, -np.inf, x)
    exps = np.exp(x - x.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def _softmax_back(out: Array, g: Array) -> Array:
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def log_softmax(x: Array) -> Array:
    """Stable log-softmax over the last axis (of each row of logits), as a
    plain array.

    Finite wherever the logits are, even where softmax underflows to zero.
    """
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def nll(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Summed negative log-likelihood of one target per row under the
    row-wise softmax of logits (B, V).

    Each row contributes logsumexp(x) - x[target]; its gradient is
    softmax(x) - onehot(target).
    """
    if logits.ndim != 2 or logits.shape[1] < 1:
        raise DimensionError(f"nll: expected non-empty rows, got shape {logits.shape}")
    if not np.isfinite(logits.data).all():
        raise NumericError("nll: logits contain non-finite values")
    t = [int(i) for i in targets]
    if not t or len(t) != logits.shape[0]:
        raise DimensionError(f"nll: {len(t)} targets for {logits.shape[0]} rows")
    if min(t) < 0 or max(t) >= logits.shape[1]:
        raise ContractError(f"nll: a target in {t} is out of range for length {logits.shape[1]}")
    rows = range(len(t))
    log_probs = log_softmax(logits.data)

    def back(g: Array):
        grad = np.exp(log_probs)
        grad[rows, t] -= 1.0
        return (grad * g,)

    return _emit(np.asarray(-log_probs[rows, t].sum()), (logits,), back)


def stack(blocks: Sequence[Tensor]) -> Tensor:
    """Stack matrices with one width on top of each other (along the first axis)."""
    blocks = tuple(blocks)
    if not blocks or any(p.ndim != 2 for p in blocks) or len({p.shape[1] for p in blocks}) != 1:
        raise DimensionError(f"stack: cannot stack {[p.shape for p in blocks]}")
    stops = list(itertools.accumulate(p.shape[0] for p in blocks))

    def back(g: Array):
        return tuple(g[lo:hi].copy() for lo, hi in zip([0] + stops[:-1], stops))

    return _emit(np.concatenate([p.data for p in blocks]), blocks, back)


def _blocks(rows: int, lengths: Sequence[int], op: str) -> tuple[int, Array | None]:
    """The block size n of `rows` rows split into one equal block per
    length, and the (B, n) mask of each block's first lengths[b] rows, or
    None when every block is full."""
    n = rows // max(len(lengths), 1)
    if not lengths or n * len(lengths) != rows:
        raise DimensionError(f"{op}: {rows} rows do not split into {len(lengths)} equal blocks")
    if min(lengths) < 1 or max(lengths) > n:
        raise ContractError(f"{op}: lengths {list(lengths)} outside 1..{n}")
    if min(lengths) == n:
        return n, None
    return n, np.arange(n)[None, :] < np.asarray(lengths)[:, None]


def mean_rows(m: Tensor, lengths: Sequence[int]) -> Tensor:
    """Means of row blocks: the rows of m are len(lengths) equal blocks of a
    padded batch, and row b of the result (B, width) is the mean of the
    first lengths[b] rows of block b. A whole matrix's mean is the one
    block [m.shape[0]]."""
    if m.ndim != 2:
        raise DimensionError(f"mean_rows: expected a matrix, got shape {m.shape}")
    lengths = [int(k) for k in lengths]
    n, real = _blocks(m.shape[0], lengths, "mean_rows")
    blocks = m.data.reshape(len(lengths), n, -1)
    counts = np.asarray(lengths, dtype=np.float64)[:, None]
    if real is not None:  # pad rows add exact zeros, so a row's sum is its own
        blocks = np.where(real[:, :, None], blocks, 0.0)

    def back(g: Array):
        grad = np.empty(blocks.shape)
        grad[...] = (g / counts)[:, None, :]
        if real is not None:
            grad = np.where(real[:, :, None], grad, 0.0)
        return (grad.reshape(m.shape),)

    return _emit(blocks.sum(axis=1) / counts, (m,), back)


def take_rows(m: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows ids of a matrix, in order (embedding lookup), differentiable in the matrix."""
    if m.ndim != 2:
        raise DimensionError(f"take_rows: expected a matrix, got shape {m.shape}")
    idx = [int(i) for i in ids]
    if not idx or min(idx) < 0 or max(idx) >= m.shape[0]:
        raise ContractError(f"take_rows: row ids {idx} empty or out of range for {m.shape[0]} rows")

    return _emit(m.data[idx], (m,), lambda g: (RowGrad(idx, g),))


def _gru_update(h0: Array, gx: Array, u_zr: Array, u_h: Array, live: Array | None):
    """One GRU update of the states h0 (..., B, dim) by the input
    pre-activations gx (..., B, 3dim): h = (1 - z) * h0 + z * tanh(gx_h +
    (r * h0) @ u_h.T), with the gates [z, r] = sigmoid(gx_zr + h0 @ u_zr.T).
    The weights are one matrix each, or one per leading index of h0 (a stack
    of GRUs stepped together). Rows where live (..., B, 1) is False keep h0.
    Returns the new states and what `_gru_update_back` needs."""
    d = h0.shape[-1]
    zr = _sigmoid(h0 @ u_zr.swapaxes(-1, -2) + gx[..., : 2 * d])
    z = zr[..., :d]
    rh = zr[..., d:] * h0
    h_tilde = np.tanh(rh @ u_h.swapaxes(-1, -2) + gx[..., 2 * d :])
    h = (1.0 - z) * h0 + z * h_tilde
    if live is not None:
        h = np.where(live, h, h0)
    return h, (h0, zr, rh, h_tilde, live)


def _gru_update_back(g: Array, saved: tuple, u_zr: Array, u_h: Array) -> tuple[Array, Array, Array]:
    """For the adjoint g of a `_gru_update`'s new states: the adjoints of
    its gate pre-activations d_zr (..., B, 2dim) and candidate
    pre-activations d_cand (..., B, dim), the rows of the weight gradients
    of u_zr (on h0) and u_h (on r * h0), and the adjoint of h0."""
    h0, zr, rh, h_tilde, live = saved
    d = h0.shape[-1]
    z, r = zr[..., :d], zr[..., d:]
    d_cand = g * z * (1.0 - h_tilde * h_tilde)
    d_rh = d_cand @ u_h
    d_zr = np.concatenate([g * h_tilde - g * h0, d_rh * h0], axis=-1) * zr * (1.0 - zr)
    d_h = g * (1.0 - z) + d_rh * r + d_zr @ u_zr
    if live is not None:  # a row that kept its state passes its adjoint through
        d_cand = np.where(live, d_cand, 0.0)
        d_zr = np.where(live, d_zr, 0.0)
        d_h = np.where(live, d_h, g)
    return d_zr, d_cand, d_h


def gru_scan(
    fwd_gx: Tensor,
    fwd_u_zr: Tensor,
    fwd_u_h: Tensor,
    bwd_gx: Tensor,
    bwd_u_zr: Tensor,
    bwd_u_h: Tensor,
    lengths: Sequence[int],
) -> Tensor:
    """A bidirectional GRU over a padded batch, both directions fused into
    one op.

    fwd_gx and bwd_gx (B*n, 3dim) hold each direction's input
    pre-activations of the gates, in the order update, reset, candidate,
    for B rows of n steps each, row b in block b*n .. b*n + n - 1; each
    u_zr is (2dim, dim) and each u_h (dim, dim). A step of a direction is
    the GRU update h = (1 - z) * h_prev + z * tanh(gx_h + (r * h_prev) @
    u_h.T), with the gates [z, r] = sigmoid(gx_zr + h_prev @ u_zr.T), from
    a zero state. Per call the two directions' recurrent weights are
    stacked, and so are their inputs, in step order; per step i one update
    advances both, stacked (2, B, .), into one buffer of states: the
    forward direction reads position i and the backward one position
    n - 1 - i. Row b reads only its first lengths[b] positions: on the
    others its states stay as they are, so the backward direction is still
    zero when it reaches the row's last real position.

    Returns the annotations (B*n, 2dim), laid out after the loop: the row
    of position t joins the forward state after reading t to the backward
    state after reading it from the other end. The backward pass runs
    through time by hand; each weight gradient is one product `g.T @ x`,
    all of its direction's steps stacked.
    """
    inputs = (fwd_gx, fwd_u_zr, fwd_u_h, bwd_gx, bwd_u_zr, bwd_u_h)
    if fwd_u_h.ndim != 2:
        raise DimensionError(f"gru_scan: expected a matrix u_h, got shape {fwd_u_h.shape}")
    d = fwd_u_h.shape[0]
    if (
        fwd_gx.ndim != 2 or fwd_gx.shape[1] != 3 * d or bwd_gx.shape != fwd_gx.shape
        or {fwd_u_zr.shape, bwd_u_zr.shape} != {(2 * d, d)} or {fwd_u_h.shape, bwd_u_h.shape} != {(d, d)}
    ):
        raise DimensionError(
            f"gru_scan: gx {fwd_gx.shape} and {bwd_gx.shape}, u_zr {fwd_u_zr.shape} and"
            f" {bwd_u_zr.shape}, u_h {fwd_u_h.shape} and {bwd_u_h.shape} disagree"
        )
    lengths = [int(k) for k in lengths]
    n, real = _blocks(fwd_gx.shape[0], lengths, "gru_scan")
    rows = len(lengths)
    x_f, x_b = fwd_gx.data.reshape(rows, n, 3 * d), bwd_gx.data.reshape(rows, n, 3 * d)
    u_zr = np.stack([fwd_u_zr.data, bwd_u_zr.data])
    u_h = np.stack([fwd_u_h.data, bwd_u_h.data])
    live = None if real is None else np.stack([real, real[:, ::-1]])[..., None]  # (2, B, n, 1), by step
    keep = bool(_STACKS.tapes)  # an open tape records this op, whose backward needs the steps
    saved = []
    # per step i, both directions' inputs side by side: the forward one's
    # position i and the backward one's position n - 1 - i
    gx = np.empty((n, 2, rows, 3 * d))
    gx[:, 0] = x_f.transpose(1, 0, 2)
    gx[:, 1] = x_b[:, ::-1].transpose(1, 0, 2)
    states = np.empty((n, 2, rows, d))
    h = np.zeros((2, rows, d))
    for i in range(n):
        h, step = _gru_update(h, gx[i], u_zr, u_h, None if live is None else live[:, :, i])
        states[i] = h
        if keep:
            saved.append(step)
    out = np.empty((rows, n, 2 * d))
    out[:, :, :d] = states[:, 0].transpose(1, 0, 2)
    out[:, :, d:] = states[::-1, 1].transpose(1, 0, 2)

    def back(g: Array):
        g = g.reshape(rows, n, 2 * d)
        d_f, d_b = np.empty_like(x_f), np.empty_like(x_b)
        d_h = np.zeros((2, rows, d))
        g_step = np.empty((2, rows, d))
        rows_of = []
        for i in range(n - 1, -1, -1):
            j = n - 1 - i
            step = saved[i]
            g_step[0], g_step[1] = g[:, i, :d], g[:, j, d:]
            d_zr, d_cand, d_h = _gru_update_back(g_step + d_h, step, u_zr, u_h)
            d_f[:, i, : 2 * d], d_b[:, j, : 2 * d] = d_zr
            d_f[:, i, 2 * d :], d_b[:, j, 2 * d :] = d_cand
            rows_of.append((d_zr, step[0], d_cand, step[2]))
        d_zr, h0, d_cand, rh = (np.concatenate(part, axis=1) for part in zip(*rows_of))
        return (
            d_f.reshape(fwd_gx.shape), _weight_grad(d_zr[0], h0[0]), _weight_grad(d_cand[0], rh[0]),
            d_b.reshape(bwd_gx.shape), _weight_grad(d_zr[1], h0[1]), _weight_grad(d_cand[1], rh[1]),
        )

    return _emit(out.reshape(rows * n, 2 * d), inputs, back)


class DecoderStage:
    """A decoder stage prepared once over its source, for `step` to run
    only the recurrence.

    embedding (V, E) holds the decoder's input rows, which `lookup` reads
    by token id. annotations (m, width) hold one block of n = m / S rows
    for each of the S source lengths; the B rows of a step read block b
    each (S = B) or all read block 0 (S = 1), by broadcasting. A row reads
    as many rows of its block as the block's length; the others get
    weight exactly 0. The stage maps the annotation rows once into the
    attention keys, annotations @ att_u.T + att_b (U_a h_j + b_a), and
    through the context half w_c = w[:, E:] of the GRU input weight w
    (3dim, E + width), ann_c = annotations @ w_c.T. att_u is (k, width),
    att_b and att_v (k,), att_w (k, dim), b (3dim,), u_zr (2dim, dim) and
    u_h (dim, dim). The arguments are Tensors, kept in that order as
    `tensors` for `decoder_scan`'s inputs and backward pass; the stage
    reads their data once, here, and is valid until that data changes (an
    optimizer step does so in place): it serves one loss or one search.
    """

    __slots__ = ("tensors", "embedding", "dim", "emb", "width", "sources", "pad", "keys", "ann", "ann_c", "att_w_t",
                 "att_v", "w_e_t", "b", "u_zr", "u_h")

    def __init__(self, embedding: Tensor, annotations: Tensor, att_u: Tensor, att_b: Tensor, att_w: Tensor,
                 att_v: Tensor, w: Tensor, b: Tensor, u_zr: Tensor, u_h: Tensor, source_lengths: Sequence[int]):
        self.tensors = (embedding, annotations, att_u, att_b, att_w, att_v, w, b, u_zr, u_h)
        embedding, annotations, att_u, att_b, att_w, att_v, w, b, u_zr, u_h = (t.data for t in self.tensors)
        d = u_h.shape[0] if u_h.ndim == 2 else 0
        width = annotations.shape[-1] if annotations.ndim else 0
        emb = w.shape[1] - width if w.ndim == 2 else -1
        if (
            u_h.shape != (d, d) or u_zr.shape != (2 * d, d) or emb < 0 or w.shape[0] != 3 * d or b.shape != (3 * d,)
            or att_w.ndim != 2 or att_w.shape[1] != d or att_v.shape != (att_w.shape[0],) or annotations.ndim != 2
            or att_u.shape != (att_w.shape[0], width) or att_b.shape != (att_w.shape[0],)
            or embedding.ndim != 2 or embedding.shape[1] != emb
        ):
            raise DimensionError(f"decoder stage: embedding, annotations, att_u, att_b, att_w, att_v, w, b, u_zr and"
                                 f" u_h {[t.shape for t in self.tensors]} disagree")
        sources = len(source_lengths)
        n, real = _blocks(annotations.shape[0], [int(x) for x in source_lengths], "decoder stage")
        self.embedding, self.dim, self.emb, self.width, self.sources = embedding, d, emb, width, sources
        self.pad = None if real is None else ~real
        self.keys = (annotations @ att_u.T + att_b).reshape(sources, n, -1)
        self.ann = annotations.reshape(sources, n, width)
        self.ann_c = (annotations @ w[:, emb:].T).reshape(sources, n, 3 * d)
        self.att_w_t, self.att_v = att_w.T, att_v
        self.w_e_t, self.b, self.u_zr, self.u_h = w[:, :emb].T, b, u_zr, u_h

    def lookup(self, ids: list[int]) -> Array:
        """The embedding rows of token ids, in order; no ids, or one out of range, raise ContractError."""
        if not ids or min(ids) < 0 or max(ids) >= len(self.embedding):
            raise ContractError(f"decoder stage: token ids {ids} empty or out of range for {len(self.embedding)} rows")
        return self.embedding[ids]

    def step(self, s: Array, x: Array, live: Array | None):
        """One step of B rows from states s (B, dim) on input rows x (B, E):
        the additive-attention read by s, the GRU input x @ w[:, :E].T + b +
        alpha @ ann_c, and the GRU update of `gru_scan`. Rows where live
        (B, 1) is False keep their state. The attention energies of a state
        are v . tanh(keys[j] + s @ att_w.T) over the key rows j; their
        softmax alpha weighs the annotation rows into the context.

        Returns the new states (B, dim), the contexts (B, width), alpha
        (B, n) and what the backward pass of `decoder_scan` needs.
        Non-finite energies raise NumericError.
        """
        hidden = np.tanh(self.keys + (s @ self.att_w_t)[:, None, :])
        alpha = _softmax(hidden @ self.att_v, "decoder stage: attention energies contain non-finite values", self.pad)
        a = alpha[:, None, :]
        context = (a @ self.ann)[:, 0]
        gx = x @ self.w_e_t + self.b + (a @ self.ann_c)[:, 0]
        s, saved = _gru_update(s, gx, self.u_zr, self.u_h, live)
        return s, context, alpha, (hidden, saved)


def decoder_scan(ids: Sequence[int], s0: Tensor, stage: DecoderStage, steps: Sequence[int]) -> tuple[Tensor, Array]:
    """A decoder stage over given tokens, fused into one op.

    Row b of B starts in state s0[b] (B, dim) and takes steps[b] steps;
    step t reads e[b*T + t], the stage's embedding row (E wide) of token
    ids[b*T + t], where T is the longest row; the stage looks up all of
    them once. Its `step` runs each step: the additive-attention read by
    the state before it, the GRU input product on [embedding; context]
    with w (3dim, E + width) and b (3dim,), and the GRU update of
    `gru_scan`. The stage holds one annotation block per source length,
    and there are B of them (a training batch: row b reads block b) or one
    (a beam: every row reads block 0). It has mapped the annotation rows
    once into the attention keys and through the context weights w_c =
    w[:, E:], ann_c = annotations @ w_c.T, so a step adds the context half
    of its GRU input product, alpha @ ann_c (equal to context @ w_c.T), to
    the embedding half e @ w[:, :E].T + b.

    The backward pass runs through time by hand; per step it takes the
    energies' adjoint from the context's adjoint and, through ann_c, from
    the GRU input's. After the loop, one product each gives the contexts'
    adjoints (the output's plus the GRU input's through w_c), the
    annotations' gradient (alpha.T @ those adjoints, summed over the rows
    of a shared block; the keys add theirs) and the rows e's gradient (the
    GRU input's share plus the adjoint of the output's embedding columns),
    which the embedding gets as a `RowGrad` over ids; each weight in a
    product gets one product `g.T @ x`, all steps stacked, w's on the rows
    [embedding; context]. The op's inputs are s0 and the stage's tensors,
    with the annotations listed once more at the end, as the keys' input,
    so the walk adds their two shares one at a time.

    Returns the rows [embedding; state; context] (B*T, E + dim + width),
    row b*T + t holding step t's embedding row e[b*T + t] and the
    state and context after the step, and the attention weights (B*T, n)
    as a plain array. Past its last step a row's state stays as it is.
    Non-finite energies raise NumericError.
    """
    steps = [int(k) for k in steps]
    rows = len(steps)
    if not steps or min(steps) < 1:
        raise ContractError(f"decoder_scan: step counts {steps} empty or below 1")
    T = max(steps)
    ids = [int(i) for i in ids]
    x_in = stage.lookup(ids)  # numpy would wrap a negative id, so the lookup checks the range
    _, annotations, att_u, att_b, att_w, att_v, w, b, u_zr, u_h = stage.tensors
    d, width, emb, sources = stage.dim, stage.width, stage.emb, stage.sources
    if s0.shape != (rows, d) or len(ids) != rows * T:
        raise DimensionError(f"decoder_scan: {len(ids)} ids and states {s0.shape} do not fit steps {steps} and dim {d}")
    if sources not in (1, rows):
        raise DimensionError(f"decoder_scan: {sources} source lengths for {rows} rows")
    n, k = stage.keys.shape[1:]
    ann, ann_c = stage.ann, stage.ann_c
    w_e, w_c = w.data[:, :emb], w.data[:, emb:]
    live = None if min(steps) == T else np.arange(T)[None, :] < np.asarray(steps)[:, None]
    inputs = (s0, *stage.tensors, annotations)
    keep = bool(_STACKS.tapes)  # an open tape records this op, whose backward needs the steps
    saved = []
    x_in = x_in.reshape(rows, T, emb)
    state_cols, context_cols = slice(emb, emb + d), slice(emb + d, None)
    out = np.empty((rows, T, emb + d + width))
    out[:, :, :emb] = x_in
    alphas = np.empty((rows, T, n))
    s = s0.data
    for t in range(T):
        s, context, alpha, step = stage.step(s, x_in[:, t], None if live is None else live[:, t, None])
        out[:, t, state_cols] = s
        out[:, t, context_cols] = context
        alphas[:, t] = alpha
        if keep:
            saved.append(step)

    def back(g: Array):
        g = g.reshape(rows, T, emb + d + width)
        g_state, g_context = g[:, :, state_cols], g[:, :, context_cols]
        d_gx = np.empty((rows, T, 3 * d))
        d_query = np.empty((rows, T, k))
        d_keys = np.zeros((rows, n, k))
        d_v = np.zeros(att_v.shape)
        d_s = np.zeros((rows, d))
        for t in range(T - 1, -1, -1):
            hidden, step = saved[t]
            d_zr, d_cand, d_h = _gru_update_back(g_state[:, t] + d_s, step, u_zr.data, u_h.data)
            d_gx[:, t, : 2 * d] = d_zr
            d_gx[:, t, 2 * d :] = d_cand
            # the energies reach the output's context and, through ann_c, the GRU input
            d_alpha = (ann @ g_context[:, t, :, None] + ann_c @ d_gx[:, t, :, None])[:, :, 0]
            d_energy = _softmax_back(alphas[:, t], d_alpha)
            d_pre = d_energy[:, :, None] * att_v.data * (1.0 - hidden * hidden)
            d_query[:, t] = q = d_pre.sum(axis=1)
            d_s = d_h + q @ att_w.data
            d_keys += d_pre
            d_v += d_energy.reshape(-1) @ hidden.reshape(d_energy.size, -1)
        d_gx = d_gx.reshape(rows * T, 3 * d)
        d_keys = d_keys.reshape(sources, -1, n, k).sum(axis=1).reshape(sources * n, k)
        g_ctx = g_context + (d_gx @ w_c).reshape(rows, T, width)  # the contexts' adjoints
        d_ann = alphas.transpose(0, 2, 1) @ g_ctx
        x = np.concatenate([x_in, out[:, :, context_cols]], axis=2).reshape(rows * T, emb + width)
        h0 = np.concatenate([s0.data[:, None], out[:, :-1, state_cols]], axis=1).reshape(rows * T, d)
        d_e = d_gx @ w_e  # the GRU input's share; the output's embedding columns add theirs
        d_e += g[:, :, :emb].reshape(d_e.shape)
        rh = np.stack([step[2] for _, step in saved], axis=1).reshape(rows * T, d)
        return (
            d_s,
            RowGrad(ids, d_e),
            d_ann.reshape(sources, -1, n, width).sum(axis=1).reshape(annotations.shape),
            _weight_grad(d_keys, annotations.data),
            d_keys.sum(axis=0),
            _weight_grad(d_query.reshape(rows * T, -1), h0),
            d_v,
            _weight_grad(d_gx, x),
            d_gx.sum(axis=0),
            _weight_grad(d_gx[:, : 2 * d], h0),
            _weight_grad(d_gx[:, 2 * d :], rh),
            d_keys @ att_u.data,
        )

    return _emit(out.reshape(rows * T, emb + d + width), inputs, back), alphas.reshape(rows * T, n)
