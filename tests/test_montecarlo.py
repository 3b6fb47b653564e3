import numpy as np
import pytest

import hitwalk as hw
from hitwalk.errors import InvalidParameterError, NotConnectedError
from hitwalk.montecarlo import GAMMA, mix64, uniform_from_draw

MASK = (1 << 64) - 1


def reference_mix64(z: int) -> int:
    """Independent pure-int reimplementation of the documented mixer."""
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_draws(master_seed: int, trial: int, count: int) -> list[float]:
    state = reference_mix64((master_seed + (trial + 1) * GAMMA) & MASK)
    out = []
    for k in range(1, count + 1):
        draw = reference_mix64((state + k * GAMMA) & MASK)
        out.append((draw >> 11) * 2.0**-53)
    return out


# --- generator --------------------------------------------------------------------

def test_mix64_matches_reference():
    for z in (0, 1, 42, 2**63, MASK):
        assert int(mix64(np.uint64(z))) == reference_mix64(z)


def test_uniforms_in_unit_interval():
    draws = uniform_from_draw(mix64(np.arange(1000, dtype=np.uint64)))
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)


def test_vectorized_stream_matches_reference_walk():
    # re-run trial 3 of a K_2 + path walk by hand with the reference
    # generator and check the simulator consumed the same uniforms
    g = hw.build_path(3)
    kernel = hw.simple_walk_kernel(g)
    config = hw.SimConfig(trials=8, master_seed=12345)
    summary = hw.simulate(kernel, 2, 0, config)
    m = kernel.matrix
    for trial in range(8):
        uniforms = iter(reference_draws(12345, trial, 10_000))
        pos, steps = 2, 0
        while pos != 0:
            u = next(uniforms)
            nbrs = np.nonzero(m[pos])[0]
            cum = np.cumsum(m[pos, nbrs])
            cum[-1] = 1.0
            pos = int(nbrs[int(np.sum(u >= cum))])
            steps += 1
        assert summary.samples[trial] == steps, trial


# --- simulate -----------------------------------------------------------------------

def test_k2_every_sample_is_one():
    kernel = hw.simple_walk_kernel(hw.build_complete(2))
    summary = hw.simulate(kernel, 0, 1, hw.SimConfig(trials=500, master_seed=5))
    assert np.all(summary.samples == 1)
    assert summary.mean == 1.0 and summary.variance == 0.0
    assert summary.min == summary.max == 1


def test_trial_substreams_do_not_depend_on_trial_count():
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    long = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=4000, master_seed=99))
    short = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=1000, master_seed=99))
    assert np.array_equal(long.samples[:1000], short.samples)


def test_unreachable_target_rejected_before_walking():
    # 0 -> 1, 1 -> 0, 2 -> 1: node 2 cannot be reached from 0 or 1
    g = hw.build_path(3)
    kernel = hw.TransitionKernel([[0, 1, 0], [1, 0, 0], [0, 1, 0]], g)
    with pytest.raises(NotConnectedError):
        hw.simulate(kernel, 0, 2, hw.SimConfig(trials=10, master_seed=1, step_cap=50))


def test_different_seeds_differ():
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    a = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=1000, master_seed=1))
    b = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=1000, master_seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_c10_sample_mean_in_band():
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    system = hw.make_absorbing(kernel, 5)
    rep = hw.moments(system)
    mean, _, variance = rep.for_state(0)
    trials = 10_000
    summary = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=trials, master_seed=42))
    stderr = np.sqrt(variance / trials)
    assert abs(summary.mean - mean) <= 4 * stderr
    assert summary.capped_count == 0


def test_step_cap_accounting():
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    summary = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=300, master_seed=11, step_cap=5))
    assert summary.capped_count > 0
    assert summary.cap_warning  # way more than 1% capped at such a tiny cap
    done = summary.samples[summary.samples >= 0]
    assert np.all(done <= 5)
    assert summary.completed == done.size
    # capped trials are excluded from the statistics
    assert summary.mean == pytest.approx(done.mean())


def test_simulate_guards():
    kernel = hw.simple_walk_kernel(hw.build_cycle(4))
    with pytest.raises(InvalidParameterError):
        hw.simulate(kernel, 2, 2, hw.SimConfig(trials=10, master_seed=0))
    with pytest.raises(InvalidParameterError):
        hw.SimConfig(trials=0, master_seed=0)


def test_simulate_weighted_walk_matches_exact_moments():
    # edge weights bias the walk; the simulator must follow the kernel rows
    g = hw.Graph(4, ((0, 1, 3.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 2.0)))
    kernel = hw.simple_walk_kernel(g)
    rep = hw.moments(hw.make_absorbing(kernel, 3))
    mean, _, variance = rep.for_state(0)
    trials = 20_000
    summary = hw.simulate(kernel, 0, 3, hw.SimConfig(trials=trials, master_seed=77))
    assert abs(summary.mean - mean) <= 4 * np.sqrt(variance / trials)


# --- goodness of fit ------------------------------------------------------------------

def test_empirical_vs_exact_c10():
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    config = hw.SimConfig(trials=100_000, master_seed=314)
    report = hw.empirical_vs_exact(kernel, 0, 5, config, horizon=400)
    assert len(report.bins) > 20
    assert report.max_abs_z <= 5.0
    assert all(e >= 5.0 for e in report.expected)


def test_empirical_vs_exact_k4_against_closed_form():
    kernel = hw.simple_walk_kernel(hw.build_complete(4))
    config = hw.SimConfig(trials=100_000, master_seed=2718)
    report = hw.empirical_vs_exact(kernel, 1, 0, config, horizon=60)
    assert report.max_abs_z <= 5.0
    # the exact reference for K_4 is the geometric closed form
    for n, expected, _, _ in report.rows():
        assert expected == pytest.approx(config.trials * hw.closed_complete(4, n), rel=1e-12)


def test_empirical_vs_exact_k2_single_bin():
    kernel = hw.simple_walk_kernel(hw.build_complete(2))
    report = hw.empirical_vs_exact(
        kernel, 0, 1, hw.SimConfig(trials=200, master_seed=7), horizon=10
    )
    assert report.bins == (1,)
    assert report.chi_squared == pytest.approx(0.0)


@pytest.mark.slow
def test_mean_band_over_hundred_seeds():
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    rep = hw.moments(hw.make_absorbing(kernel, 5))
    mean, _, variance = rep.for_state(0)
    trials = 4000
    stderr = np.sqrt(variance / trials)
    hits = 0
    for seed in range(100):
        summary = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=trials, master_seed=seed))
        if abs(summary.mean - mean) <= 4 * stderr:
            hits += 1
    assert hits >= 99
