"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what a GRU encoder-decoder with additive attention
needs: matrix products, elementwise gate arithmetic, softmax, a fused
softmax negative log-likelihood, embedding row lookup, concatenation/stacking,
vector segments (the gates of a fused pre-activation), and a handful of
reductions. Gradients are recorded on an explicit :class:`Tape` that is
rebuilt every forward pass, so variable-length sequences need no static
graph. With no tape active the same functions run as plain
numpy computations, which is how decoding executes.

Tensors with computed values are treated as immutable and may be shared
across threads; a tape is single-threaded (one tape per worker).
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray

_STACKS = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_STACKS, "tapes", None)
    if stack is None:
        stack = []
        _STACKS.tapes = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense float64 array plus gradient bookkeeping.

    `grad` is populated by :meth:`Tape.backward` for every tensor with
    `requires_grad` reachable from the loss; repeated backward calls
    accumulate until :meth:`zero_grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.name = name

    @classmethod
    def _wrap(cls, data: Array, requires_grad: bool) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out.grad = None
        out.name = None
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
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=np.float64), requires_grad)


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
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self, "tapes must unwind in LIFO order"

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
        self._records.append((out, inputs, backward_fn))
        self._output_ids.add(id(out))

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._output_ids:
            raise ContractError("loss was not recorded on this tape")

        adjoints: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
        holders: dict[int, Tensor] = {id(loss): loss}

        for out, inputs, backward_fn in reversed(self._records):
            out_adj = adjoints.pop(id(out), None)
            if out_adj is None:
                continue
            if out.requires_grad:
                out.grad = out_adj if out.grad is None else out.grad + out_adj
            for inp, grad in zip(inputs, backward_fn(out_adj)):
                if grad is None:
                    continue
                if not (inp.requires_grad or id(inp) in self._output_ids):
                    continue
                key = id(inp)
                if key in adjoints:
                    adjoints[key] = adjoints[key] + grad
                else:
                    adjoints[key] = grad
                    holders[key] = inp

        # whatever is left belongs to leaves (no producing record)
        for key, adj in adjoints.items():
            leaf = holders[key]
            if leaf.requires_grad:
                leaf.grad = adj if leaf.grad is None else leaf.grad + adj


def _emit(
    data: Array,
    inputs: tuple[Tensor, ...],
    backward_fn: Callable[[Array], Sequence[Array | None]],
) -> Tensor:
    requires = any(t.requires_grad for t in inputs)
    out = Tensor._wrap(data, requires)
    if requires:
        tape = active_tape()
        if tape is not None:
            tape._record(out, inputs, backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; accepts 2-D @ 2-D, 2-D @ 1-D, and 1-D @ 2-D."""
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")

        def back(g: Array):
            return g @ b.data.T, a.data.T @ g

    elif a.ndim == 2 and b.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")

        def back(g: Array):
            return np.outer(g, b.data), a.data.T @ g

    elif a.ndim == 1 and b.ndim == 2:
        if a.shape[0] != b.shape[0]:
            raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")

        def back(g: Array):
            return b.data @ g, np.outer(a.data, g)

    else:
        raise DimensionError(f"matmul: unsupported ranks: {a.shape} @ {b.shape}")
    return _emit(a.data @ b.data, (a, b), back)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


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
    """Stable softmax of a vector; outputs are positive and sum to one."""
    if a.ndim != 1 or a.shape[0] < 1:
        raise DimensionError(f"softmax: expected a non-empty vector, got shape {a.shape}")
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax: input contains non-finite values")
    shifted = a.data - np.max(a.data)
    exps = np.exp(shifted)
    out = exps / exps.sum()

    def back(g: Array):
        return (out * (g - np.dot(g, out)),)

    return _emit(out, (a,), back)


def log_softmax(x: Array) -> Array:
    """Stable log-softmax of a vector of logits, as a plain array.

    Finite wherever the logits are, even where softmax underflows to zero.
    """
    shifted = x - np.max(x)
    return shifted - np.log(np.exp(shifted).sum())


def nll(logits: Tensor, target: int) -> Tensor:
    """Negative log-likelihood of one target under softmax(logits).

    The forward value is logsumexp(x) - x[target]; the gradient is
    softmax(x) - onehot(target).
    """
    if logits.ndim != 1 or logits.shape[0] < 1:
        raise DimensionError(f"nll: expected a non-empty vector, got shape {logits.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("nll: logits contain non-finite values")
    t = int(target)
    if not 0 <= t < logits.shape[0]:
        raise ContractError(f"nll: target {t} out of range for length {logits.shape[0]}")
    log_probs = log_softmax(logits.data)

    def back(g: Array):
        grad = np.exp(log_probs)
        grad[t] -= 1.0
        return (grad * g,)

    return _emit(np.asarray(-log_probs[t]), (logits,), back)


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    return _emit(np.asarray(a.data.sum()), (a,), lambda g: (np.full_like(a.data, float(g)),))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate vectors into one vector."""
    parts = tuple(parts)
    if not parts or any(p.ndim != 1 for p in parts):
        raise DimensionError("concat: expected one or more vectors")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g: Array):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return _emit(np.concatenate([p.data for p in parts]), parts, back)


def segment(v: Tensor, start: int, stop: int) -> Tensor:
    """Entries start..stop-1 of a vector, e.g. one gate of a fused pre-activation."""
    if v.ndim != 1 or not 0 <= start < stop <= v.shape[0]:
        raise DimensionError(f"segment: bad range [{start}, {stop}) for shape {v.shape}")

    def back(g: Array):
        grad = np.zeros_like(v.data)
        grad[start:stop] = g
        return (grad,)

    return _emit(v.data[start:stop].copy(), (v,), back)


def stack(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one vector per row."""
    rows = tuple(rows)
    if not rows or any(r.ndim != 1 for r in rows):
        raise DimensionError("stack: expected one or more vectors")
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise DimensionError("stack: vectors must share one length")

    def back(g: Array):
        return tuple(g[i] for i in range(len(rows)))

    return _emit(np.stack([r.data for r in rows]), rows, back)


def mean_rows(m: Tensor) -> Tensor:
    """Arithmetic mean over the rows of a matrix."""
    if m.ndim != 2:
        raise DimensionError(f"mean_rows: expected a matrix, got shape {m.shape}")
    n = m.shape[0]

    def back(g: Array):
        return (np.tile(g / n, (n, 1)),)

    return _emit(m.data.mean(axis=0), (m,), back)


def add_rows(m: Tensor, v: Tensor) -> Tensor:
    """Add a vector to every row of a matrix."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise DimensionError(f"add_rows: incompatible shapes: {m.shape} and {v.shape}")

    def back(g: Array):
        return g, g.sum(axis=0)

    return _emit(m.data + v.data, (m, v), back)


def take_row(m: Tensor, index: int) -> Tensor:
    """Row of a matrix (embedding lookup), differentiable in the matrix."""
    if m.ndim != 2:
        raise DimensionError(f"take_row: expected a matrix, got shape {m.shape}")
    i = int(index)
    if not 0 <= i < m.shape[0]:
        raise ContractError(f"take_row: row {i} out of range for {m.shape[0]} rows")

    def back(g: Array):
        grad = np.zeros_like(m.data)
        grad[i] = g
        return (grad,)

    return _emit(m.data[i].copy(), (m,), back)
