"""The shared embedded Runge-Kutta integrator on synthetic right-hand sides."""

import numpy as np
import pytest

from weylfluid.errors import StiffnessError
from weylfluid.integrators import embedded_step, integrate_adaptive


def _growth(state):
    return state  # y' = y


def _observed_order(errors):
    return np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))


def test_fifth_order_solution_converges_at_order_five():
    # N fixed steps of y' = y over [0, 1]: global error ~ C h^5
    errors = []
    for n in (4, 8, 16):
        y = np.ones((1, 1))
        for _ in range(n):
            y, _ = embedded_step(_growth, y, np.array([1.0 / n]))
        errors.append(abs(y[0, 0] - np.e))
    assert np.all(np.abs(_observed_order(errors) - 5.0) < 0.3)


def test_error_estimate_is_order_five():
    # the embedded estimate y5 - y4 of one step is the local error of the
    # fourth-order member, ~ C h^5
    estimates = []
    for h in (0.2, 0.1, 0.05):
        _, err = embedded_step(_growth, np.ones((1, 1)), np.array([h]))
        estimates.append(abs(err[0, 0]))
    assert np.all(np.abs(_observed_order(estimates) - 5.0) < 0.3)


def _run(h0, max_steps, min_step=1e-13, end=1.0):
    y = np.ones((2, 1))
    s = np.zeros(2)
    active = np.ones(2, dtype=bool)

    def advance(idx, y_old, y_new, h, ratio):
        y[idx] = y_new
        s[idx] += h
        active[idx[s[idx] >= end]] = False

    attempts = integrate_adaptive(
        lambda idx, states: _growth(states), y, np.full(2, h0), active, advance,
        rtol=1e-10, atol=1e-10, step_cap=0.1, max_growth=5.0, min_step=min_step,
        max_steps=max_steps, remaining=lambda idx: end - s[idx])
    return y, s, attempts


def test_adaptive_run_lands_on_the_end():
    y, s, attempts = _run(1e-3, 1000)
    assert np.all(s == 1.0)
    assert np.abs(y[:, 0] - np.e).max() < 1e-9
    assert np.all(attempts == attempts[0]) and attempts[0] > 10


def test_step_budget_raises():
    with pytest.raises(StiffnessError, match="step budget"):
        _run(1e-3, 3)


def test_step_underflow_raises():
    # a first step far below the floor cannot grow past it in one attempt
    with pytest.raises(StiffnessError, match="underflow"):
        _run(1e-20, 1000)


def test_stalled_ray_raises_before_the_budget_runs_out():
    # every step is accepted but none shortens the remaining range
    y = np.ones((1, 1))
    calls = []
    with pytest.raises(StiffnessError, match="no progress on ray 0"):
        integrate_adaptive(
            lambda idx, states: _growth(states), y, np.full(1, 1e-3), np.ones(1, dtype=bool),
            lambda idx, y_old, y_new, h, ratio: calls.append(1),
            rtol=1e-10, atol=1e-10, step_cap=0.1, max_growth=5.0, min_step=1e-13,
            max_steps=20000, remaining=lambda idx: np.ones(len(idx)))
    assert len(calls) < 2000
