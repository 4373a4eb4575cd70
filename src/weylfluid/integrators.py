"""The adaptive embedded Runge-Kutta integrator shared by the worldline and
the preferred-frame solvers.

A batch of independent rays advances together with per-ray step control:
the Dormand-Prince 5(4) pair of :class:`scipy.integrate.RK45` (Dormand &
Prince 1980, *J. Comput. Appl. Math.* 6:19) propagates its fifth-order
solution, and the step size follows the usual error-ratio controller
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).  The pair is
first-same-as-last: its last stage is the derivative at the new state, which
an accepted step hands to the next one, so a step costs six stages.  What an
accepted step means is the caller's business: recording nodes, locating a
chart exit and ending a ray all happen in its ``advance`` callback.
"""

from __future__ import annotations

import numpy as np

from .errors import StiffnessError

_PROGRESS_WINDOW = 1000  # attempts between checks of each ray's progress


def embedded_step(rhs, y, h, f=None):
    """One embedded step for states ``(B, d)`` with per-ray sizes ``(B,)``
    from the derivative ``f = rhs(y)`` (evaluated when not given); returns
    the fifth-order state, the error estimate and the derivative there.
    The right-hand sides are autonomous, so the pair's nodes ``C`` are not
    read."""
    from scipy.integrate import RK45  # some 50 ms to import, paid on first use

    ks = [rhs(y) if f is None else f]
    for a in RK45.A[1:]:
        ks.append(rhs(y + h[:, None] * sum(aij * k for aij, k in zip(a, ks))))
    y5 = y + h[:, None] * sum(bi * k for bi, k in zip(RK45.B, ks))
    ks.append(rhs(y5))
    return y5, h[:, None] * sum(ei * k for ei, k in zip(RK45.E, ks)), ks[-1]


def integrate_adaptive(rhs, y, h, active, advance, *, rtol, atol, max_growth, min_step,
                       max_steps, step_cap=np.inf, remaining=None):
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

    Each attempt is capped at ``step_cap``.  A trial state or derivative
    that is not finite rejects the step.  A step size that falls below
    ``min_step``, a ray whose progress over its last ``_PROGRESS_WINDOW``
    attempts is too slow to cover its ``remaining`` range in the attempts
    left, or a batch still active after ``max_steps`` attempts raises
    :class:`StiffnessError`.  Returns the attempts per ray.
    """
    attempts = np.zeros(len(y), dtype=int)
    mark = np.full(len(y), np.inf)  # each ray's remaining range at the last check
    f = np.empty_like(y)  # the derivative at each ray's state
    idx = np.flatnonzero(active)
    if len(idx):
        f[idx] = rhs(idx, y[idx])
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
        with np.errstate(over="ignore", invalid="ignore"):
            y5, err, f5 = embedded_step(lambda states: rhs(idx, states), ya, ha, f[idx])
            scale = atol + rtol * np.maximum(np.abs(ya), np.abs(y5))
            ratio = np.max(np.abs(err) / scale, axis=1)
        # a trial that is not finite is rejected: every stage is finite when
        # the new state is (each stage enters it or is the derivative there)
        ratio[~np.all(np.isfinite(y5) & np.isfinite(f5), axis=1)] = np.inf
        attempts[idx] += 1
        accept = ratio <= 1.0
        h[idx] = ha * np.clip(0.9 * np.maximum(ratio, 1e-16) ** -0.2, 0.2, max_growth)
        if np.any(h[idx] < min_step):
            k = int(np.argmin(h[idx]))
            raise StiffnessError(
                f"step size underflow on ray {idx[k]}: h = {h[idx[k]]:.3g} "
                f"< {min_step:g} at state {ya[k]}")
        if np.any(accept):
            f[idx[accept]] = f5[accept]
            advance(idx[accept], ya[accept], y5[accept], ha[accept], ratio[accept])
    raise StiffnessError(f"integration exceeded the step budget of {max_steps} steps")
