"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the model runs, in row form: a batch is a
(B, width) matrix with one example or hypothesis per row. There are a
matrix product and a fused affine map `x @ w.T + b` on weights stored
(out, in), elementwise addition and tanh, a fused row-wise softmax negative
log-likelihood (and `log_softmax`, its plain-array helper, which decoding
uses too), embedding lookup of several rows at once, joining matrices
side by side or on top of each other, and the mean of a matrix's rows. Two
fused ops cover the model's recurrent work, each with a hand-written
backward pass: `gru_step` is one whole GRU update and `attention` one
whole additive-attention read, so each costs one dispatch and one tape
record instead of a dozen. Gradients are recorded on an explicit
:class:`Tape` that is rebuilt every forward pass, so variable-length
sequences need no static graph. With no tape active the same functions
run as plain numpy computations, which is how decoding executes.

The weight gradient of `affine` is the product `g.T @ x` of its output
adjoint and its input rows. Its backward returns that product unevaluated,
as a :class:`WeightGrad`; :meth:`Tape.backward` collects these for each
leaf weight and evaluates them at the end as one matrix product over all
the stacked rows, instead of one outer product and one full-size sum per
step. The gradient of `take_rows` stays sparse in the same way: its
backward returns the adjoint rows and their ids as a :class:`RowGrad`, which
:meth:`Tape.backward` scatters into the input's gradient, so an embedding
lookup or a one-row read costs the rows it touched, not a zero matrix the
size of the whole input. Each leaf's gradient is its own array, so scaling
one in place (as gradient clipping does) never changes another.

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
    """A dense float64 array plus gradient bookkeeping.

    `grad` is populated by :meth:`Tape.backward` for every tensor with
    `requires_grad` reachable from the loss; repeated backward calls
    accumulate until :meth:`zero_grad`.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @classmethod
    def _wrap(cls, data: Array, requires_grad: bool) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out.grad = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def tolist(self):
        return self.data.tolist()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=np.float64), requires_grad)


@dataclass(slots=True)
class WeightGrad:
    """The weight gradient `g.T @ x` of an `affine` map, left unevaluated:
    its output adjoint g (B, out) and its input rows x (B, in)."""

    g: Array
    x: Array

    def evaluate(self) -> Array:
        # np.dot reaches BLAS for a one-row g, where @ takes a slow loop
        return np.dot(self.g.T, self.x)


@dataclass(slots=True)
class RowGrad:
    """The gradient of `take_rows`, left sparse: adjoint rows g (k, width)
    that belong to rows ids of the input, repeats summed."""

    ids: list[int]
    g: Array

    def scatter_into(self, target: Array) -> None:
        if len(self.ids) == 1:  # one row: plain indexing, much cheaper than add.at
            target[self.ids[0]] += self.g[0]
        else:
            np.add.at(target, self.ids, self.g)


class Tape:
    """Ordered record of executed operations, for reverse-order traversal.

    Use as a context manager; ops executed inside record themselves when any
    input requires a gradient. `backward(loss)` walks the record in exact
    reverse execution order and accumulates gradients into `.grad` of every
    requires_grad tensor reachable from the loss.
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
        """Add d loss / d t to `t.grad` for every requires_grad tensor t that
        the loss depends on through this tape.

        A tensor that some record produced (an intermediate) gets its
        adjoint summed as the walk goes, with any :class:`WeightGrad` it
        receives evaluated at once. A leaf (no record produced it, e.g. a
        parameter) adds each dense gradient into its own `.grad` array, which
        no other tensor shares, and keeps its `WeightGrad`s until the walk
        ends; then they are evaluated as one product of all their stacked
        rows, `concat(g).T @ concat(x)`. A :class:`RowGrad` is scattered in
        place, into a leaf's `.grad` or into an adjoint the walk owns: an
        adjoint received from another record may be a view or shared (`add`
        passes one array to both inputs), so it is copied before the first
        scatter and the first dense sum into it makes a new array. Only the
        walk's own adjoints take sums in place.
        """
        if loss.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._output_ids:
            raise ContractError("loss was not recorded on this tape")

        adjoints: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
        owned: set[int] = set()  # adjoints that are the walk's own arrays
        deferred: dict[int, tuple[Tensor, list[WeightGrad]]] = {}

        for out, inputs, backward_fn in reversed(self._records):
            out_adj = adjoints.pop(id(out), None)
            if out_adj is None:
                continue
            if out.requires_grad:
                out.grad = out_adj if out.grad is None else out.grad + out_adj
            for inp, grad in zip(inputs, backward_fn(out_adj)):
                if grad is None:
                    continue
                key = id(inp)
                kind = type(grad)
                if key in self._output_ids:
                    if kind is WeightGrad:
                        grad = grad.evaluate()
                    adj = adjoints.get(key)
                    if kind is RowGrad:
                        if key not in owned:
                            adj = adjoints[key] = np.zeros_like(inp.data) if adj is None else adj.copy()
                            owned.add(key)
                        grad.scatter_into(adj)
                    elif adj is None:
                        adjoints[key] = grad
                    elif key in owned:
                        adj += grad
                    else:
                        adjoints[key] = adj + grad
                        owned.add(key)
                elif not inp.requires_grad:
                    continue
                elif kind is WeightGrad:
                    deferred.setdefault(key, (inp, []))[1].append(grad)
                elif kind is RowGrad:
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    grad.scatter_into(inp.grad)
                elif inp.grad is None:
                    inp.grad = np.array(grad, dtype=np.float64)
                else:
                    inp.grad += grad

        for leaf, grads in deferred.values():
            total = np.dot(np.concatenate([d.g for d in grads]).T, np.concatenate([d.x for d in grads]))
            if leaf.grad is None:
                leaf.grad = total
            else:
                leaf.grad += total


def _emit(
    data: Array,
    inputs: tuple[Tensor, ...],
    backward_fn: Callable[[Array], Sequence[Array | WeightGrad | None]],
) -> Tensor:
    requires = any(t.requires_grad for t in inputs)
    out = Tensor._wrap(data, requires)
    if requires:
        # the stack itself, not active_tape(): this runs for every op, and
        # decoding runs every op with no tape open
        tapes = _STACKS.tapes
        if tapes:
            tapes[-1]._record(out, inputs, backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul: expected two matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")

    def back(g: Array):
        # np.dot reaches BLAS for a one-row g, where @ takes a slow loop
        return g @ b.data.T, np.dot(a.data.T, g)

    return _emit(a.data @ b.data, (a, b), back)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b: rows x (B, in) through a weight stored (out, in).

    b is a bias (out,) added to every row, or a (B, out) matrix added row by
    row (e.g. the input part of a fused pre-activation).
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DimensionError(f"affine: rows {x.shape} do not fit weight {w.shape}")
    if b.shape not in ((w.shape[0],), (x.shape[0], w.shape[0])):
        raise DimensionError(f"affine: bias {b.shape} does not fit output ({x.shape[0]}, {w.shape[0]})")

    def back(g: Array):
        return g @ w.data, WeightGrad(g, x.data), (g.sum(axis=0) if b.ndim == 1 else g)

    return _emit(x.data @ w.data.T + b.data, (x, w, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


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


def _softmax(x: Array, non_finite: str) -> Array:
    if not np.all(np.isfinite(x)):
        raise NumericError(non_finite)
    exps = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def _softmax_back(out: Array, g: Array) -> Array:
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def log_softmax(x: Array) -> Array:
    """Stable log-softmax over the last axis (of each row of logits), as a
    plain array.

    Finite wherever the logits are, even where softmax underflows to zero.
    """
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def nll(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Summed negative log-likelihood of one target per row under the
    row-wise softmax of logits (B, V).

    Each row contributes logsumexp(x) - x[target]; its gradient is
    softmax(x) - onehot(target).
    """
    if logits.ndim != 2 or logits.shape[1] < 1:
        raise DimensionError(f"nll: expected non-empty rows, got shape {logits.shape}")
    if not np.all(np.isfinite(logits.data)):
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


def _join(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = tuple(parts)
    if not parts or any(p.ndim != 2 for p in parts) or len({p.shape[1 - axis] for p in parts}) != 1:
        raise DimensionError(f"cannot join {[p.shape for p in parts]} along axis {axis}")
    stops = list(itertools.accumulate(p.shape[axis] for p in parts))
    blocks = [slice(lo, hi) for lo, hi in zip([0] + stops[:-1], stops)]

    def back(g: Array):
        return tuple(g[block] if axis == 0 else g[:, block] for block in blocks)

    return _emit(np.concatenate([p.data for p in parts], axis=axis), parts, back)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join matrices with one row count side by side (along the last axis)."""
    return _join(parts, 1)


def stack(blocks: Sequence[Tensor]) -> Tensor:
    """Stack matrices with one width on top of each other (along the first axis)."""
    return _join(blocks, 0)


def mean_rows(m: Tensor) -> Tensor:
    """Arithmetic mean over the rows of a matrix, as one row (1, width)."""
    if m.ndim != 2:
        raise DimensionError(f"mean_rows: expected a matrix, got shape {m.shape}")
    n = m.shape[0]

    def back(g: Array):
        return (np.tile(g / n, (n, 1)),)

    return _emit(m.data.mean(axis=0, keepdims=True), (m,), back)


def take_rows(m: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows ids of a matrix, in order (embedding lookup), differentiable in the matrix."""
    if m.ndim != 2:
        raise DimensionError(f"take_rows: expected a matrix, got shape {m.shape}")
    idx = [int(i) for i in ids]
    if not idx or min(idx) < 0 or max(idx) >= m.shape[0]:
        raise ContractError(f"take_rows: row ids {idx} empty or out of range for {m.shape[0]} rows")

    return _emit(m.data[idx], (m,), lambda g: (RowGrad(idx, g),))


def gru_step(gx: Tensor, h_prev: Tensor, u_zr: Tensor, u_h: Tensor) -> Tensor:
    """One GRU update of B rows, fused into one op:
    h = (1 - z) * h_prev + z * tanh(gx_h + (r * h_prev) @ u_h.T), with the
    update and reset gates [z, r] = sigmoid(gx_zr + h_prev @ u_zr.T).

    gx (B, 3dim) holds the input pre-activations of the gates in the order
    update, reset, candidate; u_zr is (2dim, dim) and u_h (dim, dim). The
    weight gradients are `WeightGrad`s, like those of `affine`.
    """
    if h_prev.ndim != 2 or gx.ndim != 2:
        raise DimensionError(f"gru_step: expected matrices, got gx {gx.shape} and h_prev {h_prev.shape}")
    rows, d = h_prev.shape
    if gx.shape != (rows, 3 * d) or u_zr.shape != (2 * d, d) or u_h.shape != (d, d):
        raise DimensionError(
            f"gru_step: gx {gx.shape}, h_prev {h_prev.shape}, u_zr {u_zr.shape} and u_h {u_h.shape} disagree"
        )
    h0 = h_prev.data
    zr = _sigmoid(h0 @ u_zr.data.T + gx.data[:, : 2 * d])
    z, r = zr[:, :d], zr[:, d:]
    rh = r * h0
    h_tilde = np.tanh(rh @ u_h.data.T + gx.data[:, 2 * d :])

    def back(g: Array):
        d_cand = g * z * (1.0 - h_tilde * h_tilde)
        d_rh = d_cand @ u_h.data
        d_zr = np.concatenate([g * h_tilde - g * h0, d_rh * h0], axis=1) * zr * (1.0 - zr)
        d_h = g * (1.0 - z) + d_rh * r + d_zr @ u_zr.data
        return np.concatenate([d_zr, d_cand], axis=1), d_h, WeightGrad(d_zr, h0), WeightGrad(d_cand, rh)

    return _emit((1.0 - z) * h0 + z * h_tilde, (gx, h_prev, u_zr, u_h), back)


def attention(
    s: Tensor, keys: Tensor, annotations: Tensor, w: Tensor, b: Tensor, v: Tensor
) -> tuple[Tensor, Array]:
    """One additive-attention read for B query states s (B, dim), fused
    into one op.

    The query rows are s @ w.T + b; the energies of row b are
    v . tanh(keys[j] + query[b]) over the n key rows; their row-wise softmax
    alpha (B, n) weighs the n annotation rows. Returns the contexts
    alpha @ annotations (B, width) and alpha as a plain array. The weight
    gradient of w is a `WeightGrad`, like that of `affine`. Non-finite
    energies raise NumericError.
    """
    if s.ndim != 2 or w.ndim != 2 or s.shape[1] != w.shape[1]:
        raise DimensionError(f"attention: states {s.shape} do not fit weight {w.shape}")
    dim = w.shape[0]
    if (
        b.shape != (dim,) or v.shape != (dim,) or keys.ndim != 2 or keys.shape[1] != dim
        or annotations.ndim != 2 or annotations.shape[0] != keys.shape[0]
    ):
        raise DimensionError(
            f"attention: weight {w.shape}, bias {b.shape}, v {v.shape}, keys {keys.shape}"
            f" and annotations {annotations.shape} disagree"
        )
    query = s.data @ w.data.T + b.data
    hidden = np.tanh(keys.data[None, :, :] + query[:, None, :])  # (B, n, dim)
    alpha = _softmax(hidden @ v.data, "attention: energies contain non-finite values")

    def back(g: Array):
        d_energy = _softmax_back(alpha, g @ annotations.data.T)
        d_pre = d_energy[:, :, None] * v.data * (1.0 - hidden * hidden)
        d_query = d_pre.sum(axis=1)
        return (
            d_query @ w.data,
            d_pre.sum(axis=0),
            np.dot(alpha.T, g),
            WeightGrad(d_query, s.data),
            d_query.sum(axis=0),
            d_energy.reshape(-1) @ hidden.reshape(d_energy.size, -1),
        )

    return _emit(alpha @ annotations.data, (s, keys, annotations, w, b, v), back), alpha
