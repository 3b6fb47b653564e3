import numpy as np
import pytest
from scipy.integrate import quad

import hitwalk as hw
from hitwalk.errors import InvalidParameterError, NumericalError

from conftest import preset_zoo


def system_for(graph, target=0):
    return hw.make_absorbing(hw.simple_walk_kernel(graph), target)


def k2_system():
    return system_for(hw.build_complete(2), target=1)


# --- closed forms on K_2 --------------------------------------------------------

def test_k2_pdf_is_unit_exponential():
    system = k2_system()
    for t in (0.0, 0.3, 1.0, 4.0):
        assert hw.ct_evaluate(system, [t]).pdf[0, 0] == pytest.approx(np.exp(-t), abs=1e-9)


def test_k2_cdf_is_unit_exponential():
    system = k2_system()
    for t in (0.3, 1.0, 4.0):
        assert hw.ct_evaluate(system, [t]).cdf[0, 0] == pytest.approx(1.0 - np.exp(-t), abs=1e-9)


def test_k2_moments():
    system = k2_system()
    assert hw.ct_moments(system, 1)[0] == pytest.approx(1.0, abs=1e-12)
    assert hw.ct_moments(system, 2)[0] == pytest.approx(2.0, abs=1e-12)


def test_moment_order_guard():
    with pytest.raises(InvalidParameterError):
        hw.ct_moments(k2_system(), 3)


# --- boundary behavior -----------------------------------------------------------

def test_cdf_zero_at_time_zero():
    system = system_for(hw.build_cycle(6))
    assert np.allclose(hw.ct_evaluate(system, [0.0]).cdf[0], 0.0)


def test_pdf_at_zero_is_first_step():
    system = system_for(hw.build_cycle(6))
    assert np.allclose(hw.ct_evaluate(system, [0.0]).pdf[0], system.first_step)


def test_cdf_approaches_one():
    for g in (hw.build_cycle(6), hw.build_hypercube(3), hw.build_complete(4)):
        system = system_for(g)
        mean = hw.moments(system).mean.max()
        values = hw.ct_evaluate(system, [50.0 * mean], 1e-9).cdf[0]
        assert np.min(values) > 1.0 - 1e-6


# --- grid evaluation ---------------------------------------------------------------

def test_cdf_monotone_on_grid_for_presets():
    for name, g in preset_zoo(max_nodes=12).items():
        if not g.connected:
            continue
        system = system_for(g)
        mean = hw.moments(system).mean.max()
        times = np.linspace(0.0, 3.0 * mean, 100)
        ev = hw.ct_evaluate(system, times, tol=1e-10)
        diffs = np.diff(ev.cdf, axis=0)
        assert diffs.min() > -1e-12, name


def test_pdf_matches_cdf_finite_difference():
    system = system_for(hw.build_cycle(6))
    h = 1e-3
    for t in (0.5, 2.0, 7.0):
        ev = hw.ct_evaluate(system, [t - h, t, t + h], tol=1e-12)
        derivative = (ev.cdf[2] - ev.cdf[0]) / (2 * h)
        assert np.allclose(derivative, ev.pdf[1], atol=1e-6)


def test_pdf_normalizes_by_quadrature():
    system = system_for(hw.build_cycle(4))
    start_col = system.reduced_index(1)
    total, err = quad(
        lambda t: hw.ct_evaluate(system, [t], 1e-12).pdf[0, start_col], 0.0, np.inf, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-6)


# --- reported rows -----------------------------------------------------------------

def test_chosen_rows_are_those_columns_of_the_full_evaluation():
    system = system_for(hw.build_torus_standard(5))
    times = np.linspace(0.0, 60.0, 9)
    full = hw.ct_evaluate(system, times)
    for rows in ([3], [7, 0, 7, 23], list(range(system.size))[::-1]):
        part = hw.ct_evaluate(system, times, rows=rows)
        assert part.truncation == full.truncation
        assert part.states == tuple(system.index_map[r] for r in rows)
        for got, want in ((part.cdf, full.cdf[:, rows]), (part.pdf, full.pdf[:, rows])):
            assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_rows_outside_the_system_are_invalid():
    with pytest.raises(InvalidParameterError, match="rows must lie in 0..4"):
        hw.ct_evaluate(system_for(hw.build_cycle(6)), [1.0], rows=[0, 5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_times_are_invalid(bad):
    # int(nan) raised a bare ValueError here, and int(inf) OverflowError
    with pytest.raises(InvalidParameterError, match="times must be finite"):
        hw.ct_evaluate(k2_system(), [1.0, bad])


# --- moment identities ----------------------------------------------------------------

def test_ct_mean_equals_discrete_mean_everywhere():
    for name, g in preset_zoo(max_nodes=12).items():
        system = system_for(g)
        rep = hw.moments(system)
        assert np.array_equal(hw.ct_moments(system, 1), rep.mean), name


def test_ct_second_is_discrete_second_plus_mean():
    for name, g in preset_zoo(max_nodes=12).items():
        system = system_for(g)
        rep = hw.moments(system)
        assert np.array_equal(hw.ct_moments(system, 2), rep.second + rep.mean), name


def test_c4_start_two_ct_mean():
    system = system_for(hw.build_cycle(4))
    assert hw.ct_moments(system, 1)[system.reduced_index(2)] == pytest.approx(4.0, abs=1e-12)


def _truncation(t, tol):
    from hitwalk.ctime import _poisson_weights

    return _poisson_weights(np.array([t]), tol, 1).shape[1] - 1


def test_truncation_meets_tolerance_below_float_resolution():
    # 1 - 1e-17 rounds to 1.0; the tail itself must still fall below tol
    from scipy.stats import poisson

    for t, tol in ((50.0, 1e-17), (50.0, 1e-9), (3744.0, 1e-12), (0.5, 1e-30)):
        n = _truncation(t, tol)
        assert poisson.sf(n, t) <= tol * (1 + 1e-6)
        assert n == 0 or poisson.sf(n - 1, t) > tol * (1 - 1e-6)


def test_truncation_is_the_smallest_index_whose_tail_meets_tol():
    # the summed tail carries the bound on the mass beyond the summed
    # range, so one index less misses tol by the tail plus that bound
    from scipy.stats import poisson

    from hitwalk.ctime import _BEYOND_LIMIT

    times = np.concatenate([[0.0, 0.5, 3744.0], np.geomspace(0.01, 2000.0, 197)])
    for t in times:
        for tol in np.geomspace(1e-30, 0.6, 14):
            n = _truncation(t, tol)
            assert poisson.sf(n, t) <= tol * (1 + 1e-6), (t, tol)
            assert n == 0 or poisson.sf(n - 1, t) + _BEYOND_LIMIT > tol * (1 - 1e-6), (t, tol)


@pytest.mark.parametrize("t", [0.0, 3.0, 1200.0])
def test_poisson_weights_match_scalar_formula(t):
    from scipy.special import gammaln
    from scipy.stats import poisson

    from hitwalk.ctime import _poisson_weights

    # the larger time in the grid stretches every row past n = 1700
    weights = _poisson_weights(np.array([t, 1400.0]), 1e-30, 1)[0]
    assert weights.size > 1700
    n = np.arange(weights.size)
    reference = poisson.pmf(n, t)
    # exp carries the rounding of the exponent n log t - t - log n!, a few
    # ulps of its largest term, into the weight as a relative error
    exponent = n * abs(np.log(t) if t > 0.0 else 0.0) + t + gammaln(n + 1)
    bound = (1e-14 + 4 * np.finfo(float).eps * exponent) * reference
    normal = reference >= 1e-300  # below, exp lands in subnormals with few bits
    assert np.all(np.abs(weights - reference)[normal] <= bound[normal])
    assert np.all(np.abs(weights - reference)[~normal] <= 1e-300)


def test_unreachable_tolerance_raises():
    # below the mass beyond the summed range, no truncation index can meet tol
    with pytest.raises(NumericalError):
        hw.ct_evaluate(system_for(hw.build_cycle(6)), [50.0], tol=1e-40)
