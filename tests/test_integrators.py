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
    # N fixed steps of y' = y over [0, 1]: global error ~ C h^5 (four steps
    # are not yet asymptotic for this pair: the observed order is 4.66)
    errors = []
    for n in (8, 16, 32):
        y = np.ones((1, 1))
        for _ in range(n):
            y, _, _ = embedded_step(_growth, y, np.array([1.0 / n]))
        errors.append(abs(y[0, 0] - np.e))
    assert np.all(np.abs(_observed_order(errors) - 5.0) < 0.3)


def test_error_estimate_is_order_five():
    # the embedded estimate y5 - y4 of one step is the local error of the
    # fourth-order member, ~ C h^5
    estimates = []
    for h in (0.2, 0.1, 0.05):
        _, err, _ = embedded_step(_growth, np.ones((1, 1)), np.array([h]))
        estimates.append(abs(err[0, 0]))
    assert np.all(np.abs(_observed_order(estimates) - 5.0) < 0.3)


def test_last_stage_is_the_derivative_at_the_new_state():
    def rhs(state):
        return np.sin(state) + state ** 2

    y = np.array([[0.3, -0.2], [1.1, 0.4]])
    y_new, _, f_new = embedded_step(rhs, y, np.array([0.1, 0.05]))
    np.testing.assert_array_equal(f_new, rhs(y_new))
    # a given derivative at the start replaces the first stage
    np.testing.assert_array_equal(
        embedded_step(rhs, y, np.array([0.1, 0.05]), rhs(y))[0], y_new)


def _clock(rhs):
    """The right-hand side of the state ``(t, y)`` for ``dy/dt = rhs(y)``."""
    return lambda idx, states: np.concatenate(
        [np.ones((len(states), 1)), rhs(states[:, 1:])], axis=1)


def _run(h0, max_steps, min_step=1e-13, end=1.0, rhs=_growth, advance=None, axis=0):
    # two rays of (t, y) from (0, 1), stepped on t to end unless told otherwise
    y = np.tile([0.0, 1.0], (2, 1))
    attempts = integrate_adaptive(
        _clock(rhs), y, np.full(2, h0), axis, end, advance=advance,
        rtol=1e-10, atol=1e-10, max_growth=5.0, min_step=min_step, max_steps=max_steps)
    return y, attempts


def test_adaptive_run_lands_on_the_end():
    y, attempts = _run(1e-3, 1000)
    assert np.all(y[:, 0] == 1.0)
    assert np.abs(y[:, 1] - np.e).max() < 1e-9
    assert np.all(attempts == attempts[0]) and attempts[0] > 10


def test_each_attempt_costs_six_stages():
    # the first stage of an attempt is the last stage of the accepted step
    # before it, or the unchanged start of a rejected one
    calls = []

    def counted(states):
        calls.append(len(states))
        return _growth(states)

    _, attempts = _run(1e-3, 1000, rhs=counted)
    assert len(calls) == 6 * attempts[0] + 1


def test_rejected_steps_reuse_the_start_derivative():
    # a first step far too long for the tolerance is rejected and retried
    calls = []

    def counted(states):
        calls.append(len(states))
        return _growth(states)

    y, attempts = _run(0.5, 1000, rhs=counted)
    assert np.all(y[:, 0] == 1.0) and np.abs(y[:, 1] - np.e).max() < 1e-9
    assert len(calls) == 6 * attempts[0] + 1


def test_non_finite_trial_is_rejected():
    # y' = -y from y = 1 stays in [0, 1], but the stages of a first step of
    # 10 swing past |y| = 10, where the derivative overflows: that attempt
    # is rejected and shortened, and no warning escapes
    overflowed = []

    def rhs(states):
        overflowed.append(np.any(np.abs(states) >= 10.0))
        big = np.where(np.abs(states) < 10.0, 1.0, 1e300)
        return -states * big * big

    y, _ = _run(10.0, 1000, rhs=rhs, end=10.0)
    assert any(overflowed)
    assert np.all(y[:, 0] == 10.0) and np.abs(y[:, 1] - np.exp(-10.0)).max() < 1e-9


def test_negative_direction_lands_on_the_end():
    y, attempts = _run(1e-3, 1000, end=-1.0)
    assert np.all(y[:, 0] == -1.0)
    assert np.abs(y[:, 1] - np.exp(-1.0)).max() < 1e-9
    assert attempts[0] > 10


def test_per_ray_axis():
    # ray 0 runs on t to 1, ray 1 on y to e, which it reaches at t = 1:
    # each lands exactly on its own coordinate and the other agrees
    y, _ = _run(1e-3, 1000, axis=np.array([0, 1]), end=np.array([1.0, np.e]))
    assert y[0, 0] == 1.0 and y[1, 1] == np.e
    assert abs(y[0, 1] - np.e) < 1e-9 and abs(y[1, 0] - 1.0) < 1e-9


def test_ray_at_its_end_takes_no_step():
    # within the minimum step of its end, a ray is already there: its
    # coordinate is set to the end and nothing else moves
    calls = []

    def counted(states):
        calls.append(len(states))
        return _growth(states)

    y, attempts = _run(1e-3, 1000, rhs=counted, end=0.5e-13)
    assert attempts.tolist() == [0, 0] and not calls
    assert y.tolist() == [[0.5e-13, 1.0]] * 2


def test_advance_stops_rays():
    # the second ray stops on its first step past y = 2, keeping the state
    # before it; advance sees the last step of the other ray on its end
    seen = []

    def advance(idx, y_new, ratio):
        seen.append((idx.copy(), y_new.copy()))
        return (idx == 1) & (y_new[:, 1] > 2.0)

    y, attempts = _run(1e-3, 1000, advance=advance)
    assert y[0, 0] == 1.0 and abs(y[0, 1] - np.e) < 1e-9
    assert 0.5 < y[1, 0] < np.log(2.0) < 1.0 and y[1, 1] <= 2.0
    assert attempts[1] < attempts[0]
    idx, y_new = seen[-1]
    assert idx.tolist() == [0] and y_new[0, 0] == 1.0
    assert not any(1 in idx for idx, _ in seen[attempts[1]:])


def test_step_budget_raises():
    with pytest.raises(StiffnessError, match="step budget"):
        _run(1e-3, 3)


def test_step_underflow_raises():
    # a first step far below the floor cannot grow past it in one attempt
    with pytest.raises(StiffnessError, match="underflow"):
        _run(1e-20, 1000)


def test_stalled_ray_raises_before_the_budget_runs_out():
    # y' = -1e12 y is stiff: past its transient, which needs steps below
    # 1e-13, the explicit pair holds its step near its stability bound of
    # some 3e-12, and 20000 such steps cover far less than t = 1
    calls = []

    def stiff(states):
        calls.append(len(states))
        return -1e12 * states

    with pytest.raises(StiffnessError, match="no progress on ray 0"):
        _run(1e-3, 20000, min_step=1e-20, rhs=stiff)
    assert len(calls) < 6 * 2000
