"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what a GRU encoder-decoder with additive attention
needs, in row form: a batch is a (B, width) matrix with one example or
hypothesis per row. There are matrix products and a fused affine map
`x @ w.T + b` on weights stored (out, in), elementwise gate arithmetic,
row-wise softmax and a fused row-wise softmax negative log-likelihood,
embedding lookup of several rows at once, joining matrices side by side or
on top of each other, column segments (the gates of a fused
pre-activation), batched additive-attention energies and a handful of
reductions. Gradients are recorded on an explicit :class:`Tape` that is
rebuilt every forward pass, so variable-length sequences need no static
graph. With no tape active the same functions run as plain numpy
computations, which is how decoding executes.

The weight gradient of `affine` is the product `g.T @ x` of its output
adjoint and its input rows. Its backward returns that product unevaluated,
as a :class:`WeightGrad`; :meth:`Tape.backward` collects these for each
leaf weight and evaluates them at the end as one matrix product over all
the stacked rows, instead of one outer product and one full-size sum per
step. Each leaf's gradient is its own array, so scaling one in place (as
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
        rows, `concat(g).T @ concat(x)`.
        """
        if loss.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._output_ids:
            raise ContractError("loss was not recorded on this tape")

        adjoints: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
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
                if key in self._output_ids:
                    if type(grad) is WeightGrad:
                        grad = grad.evaluate()
                    adjoints[key] = adjoints[key] + grad if key in adjoints else grad
                elif not inp.requires_grad:
                    continue
                elif type(grad) is WeightGrad:
                    deferred.setdefault(key, (inp, []))[1].append(grad)
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


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard (entrywise) product."""
    _require_same_shape("mul", a, b)
    return _emit(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def one_minus(a: Tensor) -> Tensor:
    return _emit(1.0 - a.data, (a,), lambda g: (-g,))


def sigmoid(a: Tensor) -> Tensor:
    # computed via the positive-branch formulation to avoid overflow of exp
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def back(g: Array):
        return (g * out * (1.0 - out),)

    return _emit(out, (a,), back)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def back(g: Array):
        return (g * (1.0 - out * out),)

    return _emit(out, (a,), back)


def softmax(a: Tensor) -> Tensor:
    """Stable softmax over the last axis (of each row); outputs are positive
    and sum to one."""
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError(f"softmax: expected non-empty rows, got shape {a.shape}")
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax: input contains non-finite values")
    exps = np.exp(a.data - np.max(a.data, axis=-1, keepdims=True))
    out = exps / exps.sum(axis=-1, keepdims=True)

    def back(g: Array):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return _emit(out, (a,), back)


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


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    return _emit(np.asarray(a.data.sum()), (a,), lambda g: (np.full_like(a.data, float(g)),))


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


def segment(m: Tensor, start: int, stop: int) -> Tensor:
    """Columns start..stop-1 of a matrix, e.g. one gate of fused pre-activations."""
    if m.ndim != 2 or not 0 <= start < stop <= m.shape[1]:
        raise DimensionError(f"segment: bad range [{start}, {stop}) for shape {m.shape}")

    def back(g: Array):
        grad = np.zeros_like(m.data)
        grad[:, start:stop] = g
        return (grad,)

    return _emit(m.data[:, start:stop].copy(), (m,), back)


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

    def back(g: Array):
        grad = np.zeros_like(m.data)
        np.add.at(grad, idx, g)
        return (grad,)

    return _emit(m.data[idx], (m,), back)


def attention_energies(keys: Tensor, query: Tensor, v: Tensor) -> Tensor:
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

    def back(g: Array):
        d_pre = g[:, :, None] * v.data * (1.0 - hidden * hidden)
        return d_pre.sum(axis=0), d_pre.sum(axis=1), g.reshape(-1) @ hidden.reshape(g.size, -1)

    return _emit(hidden @ v.data, (keys, query, v), back)
