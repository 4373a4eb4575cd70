"""The adaptive embedded Runge-Kutta integrator shared by the worldline and
the preferred-frame solvers.

A batch of independent rays advances together with per-ray step control:
the Dormand-Prince 5(4) pair of :class:`scipy.integrate.RK45` (Dormand &
Prince 1980, *J. Comput. Appl. Math.* 6:19) propagates its fifth-order
solution, and the step size follows the usual error-ratio controller
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).  The pair is
first-same-as-last: its last stage is the derivative at the new state, which
an accepted step hands to the next one, so a step costs six stages.

Every ray ends the same way: it is stepped on one of its own state
coordinates, which serves as the independent variable (Henon 1982, *Physica
D* 5:412), until that coordinate reaches its end.  A worldline is stepped on
its parameter, a wall landing on the coordinate it crosses and a
characteristic on the slice coordinate.  The integrator owns the remaining
length, the end test and the commit of accepted states; the caller's
``advance`` callback only sees the accepted steps and may stop rays there.
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


def integrate_adaptive(rhs, y, h, axis, end, *, advance=None, rtol, atol, max_growth,
                       min_step, max_steps):
    """Step each ray on its coordinate ``y[:, axis]`` until it reaches ``end``.

    ``y`` ``(B, d)`` and ``h`` ``(B,)`` are per-ray states and first step
    lengths, both updated in place; ``axis`` and ``end`` are one value for
    all rays or one per ray.  ``rhs(idx, states)`` is the derivative of the
    rows ``states`` of rays ``idx`` in any parameter along the ray; a ray is
    stepped as ``dy/dy_a = f / f_a`` towards ``end``, with ``f_a`` the
    derivative of its coordinate ``y_a``.  The last step of a ray lands on
    ``end``, where ``y_a`` is set exactly; a ray within ``min_step`` of its
    end is already there.

    ``advance(idx, y_new, ratio)``, when given, receives the accepted steps
    (rays, new states, error ratios) before they are committed, and returns
    a mask of the rays that stop there.  A stopped ray keeps its state
    before the step.

    A trial state or derivative that is not finite rejects the step.  A step
    length that falls below ``min_step``, a ray whose progress over its last
    ``_PROGRESS_WINDOW`` attempts is too slow to cover the length it has
    left in the attempts left, or a batch still running after ``max_steps``
    attempts raises :class:`StiffnessError`.  Returns the attempts per ray.
    """
    rays = np.arange(len(y))
    column = axis if np.ndim(axis) == 0 else None  # one axis for every ray
    axis = np.broadcast_to(axis, rays.shape)
    end = np.broadcast_to(np.asarray(end, dtype=float), rays.shape)
    sign = np.sign(end - y[rays, axis])
    left = np.abs(end - y[rays, axis])  # each ray's remaining length
    active = left > min_step
    y[rays[~active], axis[~active]] = end[~active]

    def along(idx, states):
        f = rhs(idx, states)
        fa = f[:, column] if column is not None else f[np.arange(len(idx)), axis[idx]]
        return f * (sign[idx] / fa)[:, None]

    attempts = np.zeros(len(y), dtype=int)
    mark = np.full(len(y), np.inf)  # each ray's remaining length at the last check
    f = np.empty_like(y)  # the derivative at each ray's state
    idx = np.flatnonzero(active)
    if len(idx):
        f[idx] = along(idx, y[idx])
    for step in range(max_steps):
        idx = np.flatnonzero(active)
        if not len(idx):
            return attempts
        if step % _PROGRESS_WINDOW == 0:
            stalled = (mark[idx] - left[idx]) / _PROGRESS_WINDOW * (max_steps - step) < left[idx]
            if np.any(stalled):
                k = idx[np.argmax(stalled)]
                raise StiffnessError(
                    f"no progress on ray {k}: it advanced {mark[k] - left[k]:.3g} "
                    f"in {_PROGRESS_WINDOW} attempts, short of the {left[k]:.3g} left "
                    f"within the remaining budget of {max_steps - step} attempts")
            mark[idx] = left[idx]
        ya = y[idx]
        ha = np.minimum(h[idx], left[idx])
        with np.errstate(over="ignore", invalid="ignore"):
            y5, err, f5 = embedded_step(lambda states: along(idx, states), ya, ha, f[idx])
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
        if not np.any(accept):
            continue
        acc, y_new = idx[accept], y5[accept]
        f[acc] = f5[accept]
        left[acc] -= ha[accept]
        done = left[acc] <= min_step
        y_new[done, axis[acc[done]]] = end[acc[done]]
        stop = advance(acc, y_new, ratio[accept]) if advance else np.zeros(len(acc), bool)
        y[acc[~stop]] = y_new[~stop]
        active[acc[done | stop]] = False
    raise StiffnessError(f"integration exceeded the step budget of {max_steps} steps")
