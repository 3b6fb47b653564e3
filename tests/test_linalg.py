import numpy as np
import pytest
from hypothesis import given, strategies as st

import hitwalk as hw
from hitwalk.errors import InvalidParameterError, SingularMatrixError
from hitwalk.linalg import Tolerances, matpow_apply, solve

DIAMOND_Q = np.array([[0, 1 / 3, 1 / 3], [1 / 3, 0, 1 / 3], [1 / 2, 1 / 2, 0]])


def test_tolerances_positive():
    with pytest.raises(InvalidParameterError):
        Tolerances(solve_residual=0.0)
    with pytest.raises(InvalidParameterError):
        Tolerances(series_tail=-1e-9)


def test_solve_identity():
    b = np.array([3.0, -1.0, 0.5])
    assert np.allclose(solve(np.eye(3), b), b)


def test_solve_scalar():
    assert solve(np.array([[2.0]]), np.array([4.0]))[0] == pytest.approx(2.0)


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


def test_solve_matches_neumann_series_on_diamond():
    # (I-Q)^{-1} 1 must agree with the partial sums of sum_n Q^n 1
    ones = np.ones(3)
    x = solve(np.eye(3) - DIAMOND_Q, ones)
    acc = np.zeros(3)
    term = ones.copy()
    for _ in range(2000):
        acc += term
        term = DIAMOND_Q @ term
    assert np.allclose(x, acc, atol=1e-10)


def test_solve_residual_bound_on_random_systems():
    rng = np.random.default_rng(7)
    tol = Tolerances()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(n, n))
        if np.linalg.cond(a) >= 1e6:
            continue
        b = rng.normal(size=n)
        x = solve(a, b)
        assert np.max(np.abs(a @ x - b)) <= tol.solve_residual * (1 + np.max(np.abs(b)))
        checked += 1


def test_matpow_zero_is_identity():
    v = np.array([1.0, 2.0])
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(matpow_apply(m, v, 0), v)


def test_matpow_scalar_halving():
    assert matpow_apply(np.array([[0.5]]), np.array([1.0]), 3)[0] == pytest.approx(1 / 8)


def test_matpow_diamond_one_step():
    p1 = np.array([1 / 3, 1 / 3, 0.0])
    out = matpow_apply(DIAMOND_Q, p1, 1)
    assert np.allclose(out, [1 / 9, 1 / 9, 1 / 3], atol=1e-15)


def test_matpow_rejects_negative_power():
    with pytest.raises(InvalidParameterError):
        matpow_apply(np.eye(2), np.ones(2), -1)


@given(
    a=st.integers(min_value=0, max_value=12),
    b=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matpow_power_additivity(a, b, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = rng.uniform(size=(n, n))
    m /= m.sum(axis=1, keepdims=True) * 1.25  # substochastic
    v = rng.normal(size=n)
    lhs = matpow_apply(m, v, a + b)
    rhs = matpow_apply(m, matpow_apply(m, v, b), a)
    assert np.allclose(lhs, rhs, atol=1e-12)
