"""Finite-difference gradient checking.

Central differences with a configurable step, compared against tape
gradients via a floored relative error so that near-zero gradients are
judged on an absolute scale instead of amplifying rounding noise.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from sentsimp.autodiff import Tape, Tensor

REL_ERR_FLOOR = 1e-4


def finite_difference(f: Callable[[], Tensor], t: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() with respect to t's entries.

    f is re-evaluated with single entries of t perturbed in place; t is
    restored afterwards. f must not run under an active tape.
    """
    grad = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = f().item()
        flat[i] = saved - eps
        down = f().item()
        flat[i] = saved
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = REL_ERR_FLOOR) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    eps: float = 1e-5,
    floor: float = REL_ERR_FLOOR,
) -> float:
    """Worst relative error between tape gradients and central differences.

    Runs f() once under a fresh tape to obtain analytic gradients, then
    perturbs every entry of every parameter. Existing grads are cleared. A
    listed parameter that gets no tape gradient fails the check: its
    central differences would be zero too if f() no longer read it, so a
    missing gradient is not taken for a zero one.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    missing = [f"#{i} {p.shape}" for i, p in enumerate(params) if p.grad is None]
    if missing:
        raise AssertionError(f"no tape gradient for listed parameters {', '.join(missing)}")
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, a in zip(params, analytic):
        numeric = finite_difference(f, p, eps=eps)
        worst = max(worst, max_relative_error(a, numeric, floor=floor))
    return worst
