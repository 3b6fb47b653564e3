import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hitwalk as hw
from hitwalk import montecarlo as mc
from hitwalk.errors import InvalidParameterError, NotConnectedError
from hitwalk.montecarlo import GAMMA, mix64, uniform_from_draw

MASK = (1 << 64) - 1


def reference_mix64(z: int) -> int:
    """Independent pure-int reimplementation of the documented mixer."""
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_draws(master_seed: int, trial: int):
    """The uniforms of one trial, in order, without end."""
    state = reference_mix64((master_seed + (trial + 1) * GAMMA) & MASK)
    for k in itertools.count(1):
        draw = reference_mix64((state + k * GAMMA) & MASK)
        yield (draw >> 11) * 2.0**-53


def reference_simulate_trials(kernel_cum, neighbor_table, start, target, master_seed, count, step_cap):
    """The simulator's step loop as it was before blocks: one numpy pass per step."""
    states = mc._stream_states(master_seed, count)
    positions = np.full(count, start, dtype=np.int64)
    outcome = np.full(count, -1, dtype=np.int64)
    active = np.arange(count)
    step = 0
    gamma = np.uint64(GAMMA)
    while active.size and step < step_cap:
        step += 1
        with np.errstate(over="ignore"):
            states[active] += gamma
        u = uniform_from_draw(mix64(states[active]))
        rows = kernel_cum[positions[active]]
        choice = np.sum(u[:, None] >= rows, axis=1)
        positions[active] = neighbor_table[positions[active], choice]
        hit = positions[active] == target
        if np.any(hit):
            outcome[active[hit]] = step
            active = active[~hit]
    return outcome


# --- generator --------------------------------------------------------------------

def test_mix64_matches_reference():
    for z in (0, 1, 42, 2**63, MASK):
        assert int(mix64(np.uint64(z))) == reference_mix64(z)


def test_uniforms_in_unit_interval():
    draws = uniform_from_draw(mix64(np.arange(1000, dtype=np.uint64)))
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)


def test_vectorized_stream_matches_reference_walk():
    # re-run every trial by hand with the reference generator and check
    # the simulator consumed the same uniforms; on cycle:40 the hitting
    # times (mean 400) cross several blocks of steps
    for g, start, target in ((hw.build_path(3), 2, 0), (hw.build_cycle(40), 0, 20)):
        kernel = hw.simple_walk_kernel(g)
        config = hw.SimConfig(trials=8, master_seed=12345)
        summary = hw.simulate(kernel, start, target, config)
        m = kernel.matrix
        for trial in range(8):
            uniforms = reference_draws(12345, trial)
            pos, steps = start, 0
            while pos != target:
                u = next(uniforms)
                nbrs = np.nonzero(m[pos])[0]
                cum = np.cumsum(m[pos, nbrs])
                cum[-1] = 1.0
                pos = int(nbrs[int(np.sum(u >= cum))])
                steps += 1
            assert summary.samples[trial] == steps, (g.node_count, trial)
        if g.node_count == 40:
            assert summary.samples.max() > 2 * mc._BLOCK_STEPS


def distinct_weight_graph(n, steps=(1, 7)):
    """The circulant graph on n nodes with offsets ``steps``, every edge of
    its own weight, so that no two rows share a cumulative bound."""
    pairs = sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})
    return hw.Graph(n, tuple((u, v, 1.0 + k / len(pairs)) for k, (u, v) in enumerate(pairs)))


@st.composite
def connected_weighted_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    # unit weights give rows few distinct bounds, so the walk takes the
    # successor table; random weights give each row its own bounds
    weight = draw(st.sampled_from([st.just(1.0), st.floats(min_value=0.1, max_value=10.0)]))
    # a random spanning tree keeps the graph connected; extra edges add cycles
    edges = {(draw(st.integers(0, i - 1)), i): draw(weight) for i in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), draw(weight))
    return hw.Graph(n, tuple((u, v, w) for (u, v), w in edges.items()))


@settings(max_examples=50)
@given(
    graph=connected_weighted_graphs(),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    trials=st.integers(min_value=1, max_value=300),
    step_cap=st.one_of(
        st.sampled_from([1, 63, 64, 65, 127, 128, 129, 300]), st.integers(1, 300)
    ),
    cells=st.sampled_from([2**16, 1, 50, 1000]),
)
def test_blocked_walk_matches_step_by_step_reference(graph, data, seed, trials, step_cap, cells):
    # a small cell budget shrinks the blocks as it would with 2**16 walkers
    n = graph.node_count
    start = data.draw(st.integers(0, n - 1))
    target = data.draw(st.integers(0, n - 1).filter(lambda t: t != start))
    kernel = hw.simple_walk_kernel(graph)
    kernel_cum, neighbor_table = mc._step_tables(kernel)
    expected = reference_simulate_trials(
        kernel_cum, neighbor_table, start, target, seed, trials, step_cap
    )
    config = hw.SimConfig(trials=trials, master_seed=seed, step_cap=step_cap)
    with mock.patch.object(mc, "_BLOCK_CELLS", cells):
        if np.all(expected < 0):
            with pytest.raises(InvalidParameterError):
                hw.simulate(kernel, start, target, config)
        else:
            assert np.array_equal(hw.simulate(kernel, start, target, config).samples, expected)


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


def test_trial_substreams_do_not_depend_on_block_sizes():
    # with more than 2**16 walkers alive a block goes in many groups of
    # walkers, with 1000 in one; the samples must not notice
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    many = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=2**16 + 1, master_seed=99))
    few = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=1000, master_seed=99))
    assert np.array_equal(many.samples[:1000], few.samples)


@pytest.mark.parametrize(
    "preset, start, target, seed, step_cap, digest",
    [
        ("torus_std:17", 140, 36, 144451511, 10**7,
         "b5e8898880003f4571fd5a2f69135a54539b957bbef2de39311d3a8e8496cda6"),
        ("cycle:93", 28, 44, 1121811570, 10**7,
         "bab034a74485b607f41330b5818daa5e2a4c1fb58d25ae068cd2d40435be935b"),
        ("hypercube:8", 198, 71, 1613514992, 100,
         "ea3e70651be09f24c01ad010e3baeb6a4eb21cdebccdd649cccf12cbbe1bb6b1"),
        # recorded before the walk took strides: strides of 8 steps, and a
        # step cap of 37 that ends inside a stride of 9
        ("cycle:169", 139, 28, 140443208, 10**7,
         "499f383d0213e28cb206ff42e29578b6f003ad8b8e401670eef0d52f78142f6f"),
        ("cycle:93", 28, 44, 1121811570, 37,
         "58fe87b37d0a47de5c1567c5960de9752d1e39ccbd9f9ac32d9dd1f5c6154f51"),
    ],
)
def test_golden_sample_hashes(preset, start, target, seed, step_cap, digest):
    # sha256 of the little-endian int64 samples of 1000 trials; any change
    # to the streams or to the stepping rule changes it
    name, param = preset.split(":")
    kernel = hw.simple_walk_kernel(hw.preset_graph(name, [int(param)]))
    config = hw.SimConfig(trials=1000, master_seed=seed, step_cap=step_cap)
    samples = hw.simulate(kernel, start, target, config).samples
    assert hashlib.sha256(samples.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "graph, start, target, seed, digest",
    [
        # two degrees: the bounds 1/2 and 1, a table two wide
        ("path:50", 10, 40, 5150,
         "cf7345cb6a0bee084a8864b5ec2aa95f2643f3d96879d37ffcb5bd5762ceb64f"),
        # bounds k/133 and k/267: a table 399 wide
        ("bipartite:133:267", 3, 200, 90210,
         "e492e8585b62526d27ee00e7c4016e2cd6d50a46e158632027b65051b369ac26"),
        # every row its own bounds: no table, each step counts in its row
        ("distinct:60", 0, 31, 4242,
         "38bbe40914891b3df794b85fd9b812ffacc90461039a090a820677da06b0c9c5"),
    ],
)
def test_golden_sample_hashes_with_and_without_successor_table(graph, start, target, seed, digest):
    # sha256 as above, recorded when every kernel stepped by the per-row count
    name, *params = graph.split(":")
    params = [int(p) for p in params]
    g = distinct_weight_graph(*params) if name == "distinct" else hw.preset_graph(name, params)
    kernel = hw.simple_walk_kernel(g)
    assert (mc._successor_table(*mc._step_tables(kernel)) is None) == (name == "distinct")
    samples = hw.simulate(kernel, start, target, hw.SimConfig(trials=1000, master_seed=seed)).samples
    assert hashlib.sha256(samples.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "preset",
    ["cycle:9", "path:7", "complete:2", "complete:6", "bipartite:3:5", "hypercube:4",
     "torus_std:5", "torus_diag:5", "cayley_s3", "cayley_d8"],
)
def test_successor_table_moves_as_the_row_count(preset):
    # a draw's rank in S' settles every comparison with every row's bounds
    name, *params = preset.split(":")
    kernel = hw.simple_walk_kernel(hw.preset_graph(name, [int(p) for p in params]))
    kernel_cum, neighbor_table = mc._step_tables(kernel)
    bounds, successors = mc._successor_table(kernel_cum, neighbor_table)
    size = bounds.size + 1
    assert size <= 2 * kernel_cum.shape[1]
    assert np.all(np.diff(bounds) > 0) and np.all(bounds < 1.0)
    # every bound, a point between each pair of bounds, and the ends of [0, 1)
    u = np.unique(np.concatenate([bounds, (bounds[1:] + bounds[:-1]) / 2, [0.0, 1.0 - 2.0**-53]]))
    ranks = np.searchsorted(bounds, u, side="right")
    for x in range(kernel.node_count):
        expected = neighbor_table[x, (u[:, None] >= kernel_cum[x]).sum(axis=1)]
        assert np.array_equal(successors[x * size + ranks], expected * size)


def _preset_kernel(preset):
    name, *params = preset.split(":")
    return hw.simple_walk_kernel(hw.preset_graph(name, [int(p) for p in params]))


@pytest.mark.parametrize(
    "preset, stride",
    [("cycle:9", 12), ("path:7", 13), ("complete:2", 64), ("hypercube:4", 6),
     ("torus_diag:5", 5), ("cayley_d8", 8), ("bipartite:3:5", 4)],
)
def test_stride_table_walks_its_ranks_one_step_at_a_time(preset, stride):
    # cell (x, R) of the stride table against k single steps of the successor
    # table with the digits r_1..r_k of R, first meeting of the target included
    kernel = _preset_kernel(preset)
    bounds, successors = mc._successor_table(*mc._step_tables(kernel))
    size, v = bounds.size + 1, kernel.node_count
    for target in (0, v - 1):
        k, moves, first_hit = mc._stride_table(successors, size, target)
        assert k == stride
        assert v * size**k <= mc._BLOCK_CELLS and (k == mc._BLOCK_STEPS or v * size ** (k + 1) > mc._BLOCK_CELLS)
        cells = np.arange(v * size**k)
        x, ranks = np.divmod(cells, size**k)
        position, met = x * size, np.zeros(cells.size, dtype=np.int64)
        for step in range(1, k + 1):
            position = successors[position + ranks // size ** (step - 1) % size]
            met[(met == 0) & (position == target * size)] = step
        assert np.array_equal(moves, position // size * size**k)
        assert np.array_equal(first_hit, met)


@pytest.mark.parametrize("cells, stride", [(1, 1), (50, 2), (1000, 6), (2**16, 12)])
def test_block_budget_sets_the_stride(cells, stride):
    # the budgets of test_blocked_walk_matches_step_by_step_reference give
    # strides of 1 to 12 steps on a 9-cycle
    _, successors = mc._successor_table(*mc._step_tables(_preset_kernel("cycle:9")))
    with mock.patch.object(mc, "_BLOCK_CELLS", cells):
        assert mc._stride_table(successors, 2, 0)[0] == stride


@pytest.mark.parametrize("cells", [1, 50, 1000, 2**16])
def test_walk_without_bounds_below_one(cells):
    # rows [[1.], [1.]]: S' is empty, every rank is 0 and a stride is any length
    kernel = hw.simple_walk_kernel(hw.build_complete(2))
    bounds, successors = mc._successor_table(*mc._step_tables(kernel))
    assert bounds.size == 0 and mc._thresholds(bounds).size == 0
    with mock.patch.object(mc, "_BLOCK_CELLS", cells):
        assert mc._stride_table(successors, 1, 1)[0] == (1 if cells == 1 else mc._BLOCK_STEPS)
        samples = hw.simulate(kernel, 0, 1, hw.SimConfig(trials=300, master_seed=cells)).samples
    assert np.all(samples == 1)


def test_thresholds_bracket_their_bounds():
    # (t - 1) 2^-53 < s <= t 2^-53, exactly: the top 53 bits of a draw reach
    # t exactly when its uniform reaches s
    bounds = [mc._successor_table(*mc._step_tables(_preset_kernel(p)))[0]
              for p in ("cycle:9", "complete:7", "bipartite:133:267", "hypercube:4", "cayley_d8")]
    rng = np.random.default_rng(5)
    bounds += [rng.random(200), rng.random(50) * 2.0**-40, np.array([2.0**-53, 2.0**-60, 0.5, 1 - 2.0**-53])]
    bounds = np.concatenate(bounds)
    for s, t in zip(bounds.tolist(), mc._thresholds(bounds).tolist()):
        assert Fraction(t - 1, 2**53) < Fraction(s) <= Fraction(t, 2**53)


def _draw_on_an_eighth(z, mix=mix64):
    # the top three bits of each draw only: every uniform is a multiple of 1/8
    return mix(z) & np.uint64(7 << 61)


@pytest.mark.parametrize("preset", ["cycle:8", "path:6", "complete:5", "torus_std:4"])
def test_draw_on_a_threshold_passes_it(monkeypatch, preset):
    # draws whose top 53 bits equal a threshold: 2^51, 2^52 and 3 2^51 are
    # the thresholds of the bounds 1/4, 1/2 and 3/4
    kernel = _preset_kernel(preset)
    kernel_cum, neighbor_table = mc._step_tables(kernel)
    monkeypatch.setitem(globals(), "mix64", _draw_on_an_eighth)
    monkeypatch.setattr(mc, "mix64", _draw_on_an_eighth)
    expected = reference_simulate_trials(kernel_cum, neighbor_table, 1, 0, 7, 200, 500)
    samples = mc._simulate_trials(kernel_cum, neighbor_table, 1, 0, 7, 200, 500)
    assert np.array_equal(samples, expected)
    assert np.all(expected > 0)


def test_simulate_block_memory_does_not_grow_with_the_stride():
    # 2**17 walkers on a 10-cycle take strides of 12 steps; each block goes
    # in groups of at most _BLOCK_CELLS draws, so the peak is the per-trial
    # arrays, not 12 draws for every live walker
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    tracemalloc.start()
    try:
        summary = hw.simulate(kernel, 0, 5, hw.SimConfig(trials=2**17, master_seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.completed == 2**17
    assert peak < 12 * 2**20, peak


def _coarse_uniform(draw):
    # eighths: the draws land on the bounds 1/4, 1/2 and 3/4 exactly
    return (np.asarray(draw, dtype=np.uint64) >> np.uint64(61)).astype(np.float64) / 8


@pytest.mark.parametrize("with_table", [True, False], ids=["table", "rows"])
@pytest.mark.parametrize("preset", ["cycle:8", "path:6", "complete:5", "torus_std:4"])
def test_draw_equal_to_a_bound_passes_it(monkeypatch, preset, with_table):
    name, param = preset.split(":")
    kernel = hw.simple_walk_kernel(hw.preset_graph(name, [int(param)]))
    kernel_cum, neighbor_table = mc._step_tables(kernel)
    # the reference reads this module's binding, the simulator its own
    monkeypatch.setitem(globals(), "uniform_from_draw", _coarse_uniform)
    monkeypatch.setattr(mc, "uniform_from_draw", _coarse_uniform)
    expected = reference_simulate_trials(kernel_cum, neighbor_table, 1, 0, 7, 200, 500)
    if not with_table:
        monkeypatch.setattr(mc, "_successor_table", lambda *tables: None)
    samples = mc._simulate_trials(kernel_cum, neighbor_table, 1, 0, 7, 200, 500)
    assert np.array_equal(samples, expected)
    assert np.all(expected > 0)


def test_simulate_without_table_keeps_memory_of_the_row_tables():
    # 3000 rows, each with its own bound below 1: a successor table would be
    # 3000 x 3001 moves (72 MB), so the walk counts in each row instead
    kernel = hw.simple_walk_kernel(distinct_weight_graph(3000, steps=(1,)))
    config = hw.SimConfig(trials=200, master_seed=3, step_cap=200)
    tracemalloc.start()
    try:
        summary = hw.simulate(kernel, 1, 0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.completed > 0
    assert peak < 4 * 2**20, peak


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


# --- the sample law ------------------------------------------------------------------

@pytest.mark.parametrize(
    ("family", "k", "start", "target", "trials", "seed", "horizon", "bins"),
    [("cycle", 10, 0, 5, 100_000, 314, 400, 76), ("complete", 4, 1, 0, 100_000, 2718, 60, 22),
     ("complete", 2, 0, 1, 200, 7, 10, 1)],
    ids=["c10", "k4", "k2"],
)
def test_empirical_pmf_follows_the_exact_law(family, k, start, target, trials, seed, horizon, bins):
    kernel = hw.simple_walk_kernel(hw.preset_graph(family, [k]))
    if (family, k) == ("complete", 4):
        law = np.array([hw.closed_complete(4, n) for n in range(1, horizon + 1)])
    else:
        law = hw.pmf(hw.make_absorbing(kernel, target), horizon, stop_early=False).column(start)
    summary = hw.simulate(kernel, start, target, hw.SimConfig(trials=trials, master_seed=seed))
    assert summary.capped_count == 0
    counts = summary.empirical_pmf[1 : horizon + 1]
    observed = np.pad(counts, (0, horizon - counts.size)).astype(float)
    expected = trials * law
    # each step expected at least 5 times lies within 5 sd of its expected
    # count; on K_2 the one such step is n = 1, with sd 0, so every trial
    # hits at n = 1
    tested = expected >= 5.0
    assert tested.sum() == bins
    sd = np.sqrt(expected * (1.0 - law))
    assert np.all(np.abs(observed - expected)[tested] <= 5.0 * sd[tested])


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
