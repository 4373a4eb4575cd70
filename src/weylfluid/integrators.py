"""The adaptive embedded Runge-Kutta integrator shared by the worldline and
the preferred-frame solvers.

A batch of independent rays advances together with per-ray step control:
the Fehlberg 4(5) pair (Fehlberg 1969, NASA TR R-315) propagates its
fifth-order solution, and the step size follows the usual error-ratio
controller (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).  What an
accepted step means is the caller's business: recording nodes, locating a
chart exit and ending a ray all happen in its ``advance`` callback.
"""

from __future__ import annotations

import numpy as np

from .errors import StiffnessError

# Fehlberg 4(5) tableau; the fifth-order solution is propagated.
_A = [
    np.array([]),
    np.array([1 / 4]),
    np.array([3 / 32, 9 / 32]),
    np.array([1932 / 2197, -7200 / 2197, 7296 / 2197]),
    np.array([439 / 216, -8.0, 3680 / 513, -845 / 4104]),
    np.array([-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40]),
]
_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])

_PROGRESS_WINDOW = 1000  # attempts between checks of each ray's progress


def embedded_step(rhs, y, h):
    """One embedded step for states ``(B, d)`` with per-ray sizes ``(B,)``;
    returns the fifth-order state and the error estimate."""
    ks = []
    for i in range(6):
        yi = y.copy()
        for j, aij in enumerate(_A[i]):
            yi += (h * aij)[:, None] * ks[j]
        ks.append(rhs(yi))
    y5 = y.copy()
    err = np.zeros_like(y)
    for i in range(6):
        y5 += (h * _B5[i])[:, None] * ks[i]
        err += (h * (_B5[i] - _B4[i]))[:, None] * ks[i]
    return y5, err


def integrate_adaptive(rhs, y, h, active, advance, *, rtol, atol, step_cap,
                       max_growth, min_step, max_steps, remaining=None):
    """Step every ``active`` ray until the caller has ended them all.

    ``y`` ``(B, d)``, ``h`` ``(B,)`` and ``active`` ``(B,)`` are per-ray
    state, next step size and liveness.  The integrator updates ``h``;
    ``advance`` owns ``y`` and ``active``:

    * ``rhs(idx, states)`` is the derivative of the rows ``states`` of rays
      ``idx``;
    * ``advance(idx, y_old, y_new, h, ratio)`` receives the accepted steps
      (rays, states before and after, step sizes, error ratios), commits
      them and clears ``active`` for finished rays;
    * ``remaining(idx)``, when given, is how far each ray still is from the
      end of its parameter range, so the last step lands on it.

    Each attempt is capped at ``step_cap``.  A step size that falls below
    ``min_step``, a ray whose progress over its last ``_PROGRESS_WINDOW``
    attempts is too slow to cover its ``remaining`` range in the attempts
    left, or a batch still active after ``max_steps`` attempts raises
    :class:`StiffnessError`.  Returns the attempts per ray.
    """
    attempts = np.zeros(len(y), dtype=int)
    mark = np.full(len(y), np.inf)  # each ray's remaining range at the last check
    for step in range(max_steps):
        if not np.any(active):
            return attempts
        idx = np.flatnonzero(active)
        if remaining is not None and step % _PROGRESS_WINDOW == 0:
            left = remaining(idx)
            stalled = (mark[idx] - left) / _PROGRESS_WINDOW * (max_steps - step) < left
            if np.any(stalled):
                k = int(np.argmax(stalled))
                raise StiffnessError(
                    f"no progress on ray {idx[k]}: it advanced {mark[idx[k]] - left[k]:.3g} "
                    f"in {_PROGRESS_WINDOW} attempts, short of the {left[k]:.3g} left "
                    f"within the remaining budget of {max_steps - step} attempts")
            mark[idx] = left
        ya = y[idx]
        ha = np.minimum(h[idx], step_cap)
        if remaining is not None:
            ha = np.minimum(ha, remaining(idx))
        y5, err = embedded_step(lambda states: rhs(idx, states), ya, ha)
        scale = atol + rtol * np.maximum(np.abs(ya), np.abs(y5))
        ratio = np.max(np.abs(err) / scale, axis=1)
        attempts[idx] += 1
        accept = ratio <= 1.0
        h[idx] = ha * np.clip(0.9 * np.maximum(ratio, 1e-16) ** -0.2, 0.2, max_growth)
        if np.any(h[idx] < min_step):
            k = int(np.argmin(h[idx]))
            raise StiffnessError(
                f"step size underflow on ray {idx[k]}: h = {h[idx[k]]:.3g} "
                f"< {min_step:g} at state {ya[k]}")
        if np.any(accept):
            advance(idx[accept], ya[accept], y5[accept], ha[accept], ratio[accept])
    raise StiffnessError(f"integration exceeded the step budget of {max_steps} steps")
