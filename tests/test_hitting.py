import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hitwalk as hw
from hitwalk import hitting
from hitwalk.errors import (
    InvalidParameterError,
    NotConnectedError,
    OracleTooLargeError,
)
from hitwalk.graphs import load_graph_file

from conftest import preset_zoo

EXPECTED_DIAMOND_Q = np.array([[0, 1 / 3, 1 / 3], [1 / 3, 0, 1 / 3], [1 / 2, 1 / 2, 0]])


# --- absorbing systems -------------------------------------------------------

def test_make_absorbing_diamond(diamond_system):
    assert np.allclose(diamond_system.q_matrix, EXPECTED_DIAMOND_Q, atol=1e-15)
    assert np.allclose(diamond_system.first_step, [1 / 3, 1 / 3, 0.0], atol=1e-15)
    assert diamond_system.index_map == (1, 2, 3)


def test_make_absorbing_k2():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_complete(2)), 1)
    assert system.q_matrix.shape == (1, 1) and system.q_matrix[0, 0] == 0.0
    assert system.first_step[0] == 1.0


def test_make_absorbing_c4_tridiagonal():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(4)), 0)
    expected = np.array([[0, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0]])
    assert np.allclose(system.q_matrix, expected)
    assert np.allclose(system.first_step, [0.5, 0, 0.5])


def test_first_step_identity_on_presets():
    # P1 + Q*1 = 1 exactly, for every preset and every target
    for name, g in preset_zoo().items():
        kernel = hw.simple_walk_kernel(g)
        for target in range(g.node_count):
            s = hw.make_absorbing(kernel, target)
            gap = np.abs(s.first_step + s.q_matrix @ np.ones(s.size) - 1.0)
            assert gap.max() <= 1e-12, name


def test_make_absorbing_unreachable_target():
    g = hw.Graph(3, ((0, 1), (1, 2)))
    kernel = hw.TransitionKernel(
        np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]]), g
    )
    with pytest.raises(NotConnectedError):
        hw.make_absorbing(kernel, 0)


# --- lumped systems -----------------------------------------------------------

def _lumped(graph, target):
    return hw.lumped_absorbing(hw.simple_walk_kernel(graph), target)


def _cell_count(graph, target):
    """Classes of the coarsest equitable partition, the target's included."""
    return int(_lumped(graph, target)[1].max()) + 2


@pytest.mark.parametrize("d", range(1, 8))
def test_hypercube_cells_are_hamming_spheres(d):
    assert _cell_count(hw.build_hypercube(d), 5 % 2**d) == d + 1


@pytest.mark.parametrize("k1, k2", [(1, 2), (2, 3), (5, 9), (133, 267)])
def test_bipartite_cells_with_target_on_larger_side(k1, k2):
    # the target, the other side, and the target's own side without it
    assert _cell_count(hw.build_complete_bipartite(k1, k2), k1 + k2 // 2) == 3


@pytest.mark.parametrize("k", range(3, 13))
def test_cycle_cells_pair_nodes_across_the_target(k):
    assert _cell_count(hw.build_cycle(k), k // 3) == k // 2 + 1


@pytest.mark.parametrize("k", range(2, 9))
def test_complete_graph_has_two_cells(k):
    assert _cell_count(hw.build_complete(k), k - 1) == 2


def test_lumped_rows_map_every_node_to_its_class():
    system, rows = _lumped(hw.build_cycle(8), 2)
    assert rows.tolist() == [0, 1, -1, 1, 0, 2, 3, 2]
    assert system.index_map == (0, 1, 5, 6)  # the smallest node of each class
    assert not rows.flags.writeable


def test_lumped_system_without_symmetry_is_make_absorbing_bit_for_bit(tmp_path):
    kernel = hw.simple_walk_kernel(_weighted_cycle_file(tmp_path))
    system, rows = hw.lumped_absorbing(kernel, 7)
    plain = hw.make_absorbing(kernel, 7)
    assert rows.tolist() == [*range(7), -1, *range(7, 29)]
    assert np.array_equal(system.q_matrix, plain.q_matrix)
    assert np.array_equal(system.first_step, plain.first_step)
    assert system.index_map == plain.index_map
    assert (system.q_rows is None) == (plain.q_rows is None)


def _assert_lumped_matches_make_absorbing(kernel, target):
    system, rows = hw.lumped_absorbing(kernel, target)
    plain = hw.make_absorbing(kernel, target)
    lumped_pmf = hw.pmf(system, 40, stop_early=False).probs
    plain_pmf = hw.pmf(plain, 40, stop_early=False).probs
    lumped_mom, plain_mom = hw.moments(system), hw.moments(plain)
    for i, node in enumerate(plain.index_map):
        r = rows[node]
        got, want = lumped_pmf[:, r], plain_pmf[:, i]
        assert np.array_equal(got == 0.0, want == 0.0)
        kept = want > 0.0
        assert np.all(np.abs(got[kept] - want[kept]) <= 1e-12 * want[kept])
        second = plain_mom.second[i]
        assert abs(lumped_mom.mean[r] - plain_mom.mean[i]) <= 1e-12 * plain_mom.mean[i]
        assert abs(lumped_mom.second[r] - second) <= 1e-12 * second
        # the variance is second - mean^2, so its error scales with the second moment
        assert abs(lumped_mom.variance[r] - plain_mom.variance[i]) <= 1e-12 * second


@given(
    nodes=st.integers(min_value=2, max_value=12),
    extra=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_lumped_system_matches_make_absorbing_on_random_weighted_graphs(nodes, extra, seed):
    # a random spanning tree plus random extra edges, with weights from a
    # set of one to three values so that equal step probabilities, and
    # symmetries, occur (about a fifth of the graphs lump)
    rng = np.random.default_rng(seed)
    weights = (1.0, 2.0, 3.0)[: rng.integers(1, 4)]
    edges = {(int(rng.integers(n)), n): rng.choice(weights) for n in range(1, nodes)}
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if (u, v) not in edges and rng.random() < extra:
                edges[(u, v)] = rng.choice(weights)
    graph = hw.Graph(nodes, tuple((u, v, w) for (u, v), w in edges.items()))
    _assert_lumped_matches_make_absorbing(hw.simple_walk_kernel(graph), int(rng.integers(nodes)))


def test_equal_sums_of_different_probabilities_stay_exact():
    # nodes 1 and 2 both step into {3, 4, 5} with probability 0.3 and to 6
    # with 0.7, but node 1 as 0.1 + 0.2 and node 2 as 0.3 (and 0.1 + 0.2 is
    # not 0.3 in floating point); classes compare multisets of
    # probabilities, never sums, so the two stay apart
    graph = hw.Graph(7, (
        (1, 3, 1.0), (1, 4, 2.0), (1, 6, 7.0), (2, 5, 3.0), (2, 6, 7.0),
        (0, 3, 1.0), (0, 4, 2.0), (0, 5, 3.0), (0, 6, 14.0),
    ))
    kernel = hw.simple_walk_kernel(graph)
    rows = hw.lumped_absorbing(kernel, 0)[1]
    assert rows[1] != rows[2]
    _assert_lumped_matches_make_absorbing(kernel, 0)


def test_lumped_absorbing_rejects_what_make_absorbing_rejects():
    kernel = hw.simple_walk_kernel(hw.build_cycle(5))
    with pytest.raises(InvalidParameterError, match="out of range"):
        hw.lumped_absorbing(kernel, 5)
    g = hw.Graph(3, ((0, 1), (1, 2)))
    one_way = hw.TransitionKernel(np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]]), g)
    with pytest.raises(NotConnectedError):
        hw.lumped_absorbing(one_way, 0)


# --- pmf ----------------------------------------------------------------------

def test_pmf_diamond_first_steps(diamond_system):
    table = hw.pmf(diamond_system, 4)
    assert np.allclose(table.probs[0], [1 / 3, 1 / 3, 0.0], atol=1e-15)
    assert np.allclose(table.probs[1], [1 / 9, 1 / 9, 1 / 3], atol=1e-15)


def test_pmf_c10_mean_sum():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(10)), 0)
    table = hw.pmf(system, 5000)
    n = np.arange(1, table.horizon + 1)
    mean = float(n @ table.column(5))
    assert mean == pytest.approx(25.0, abs=1e-6)


def test_pmf_early_stop_reports_horizon():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_complete(2)), 0)
    table = hw.pmf(system, 50)
    assert table.horizon == 1  # absorbed in one deterministic step
    assert table.requested_horizon == 50
    assert table.residual[0] == pytest.approx(0.0, abs=1e-15)


def test_pmf_residual_tracks_column_sums():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(6)), 0)
    table = hw.pmf(system, 40, stop_early=False)
    assert np.allclose(table.residual, 1.0 - table.probs.sum(axis=0), atol=1e-12)
    assert np.all(table.probs.sum(axis=0) <= 1.0 + 1e-12)


def test_pmf_residual_small_at_quadratic_horizon():
    for k in (4, 6, 8):
        system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(k)), 0)
        table = hw.pmf(system, 200 * k * k, stop_early=False)
        assert table.residual.max() < 1e-8


def _weighted_cycle_file(tmp_path):
    rng = np.random.default_rng(5)
    edges = [[i, (i + 1) % 30, float(w)] for i, w in enumerate(rng.uniform(0.1, 3.0, 30))]
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({"nodes": 30, "edges": edges}))
    return load_graph_file(str(path))[0]


@pytest.mark.parametrize(
    "graph, target, table_chosen",
    [
        (lambda tmp: hw.build_torus_standard(21), 0, True),
        (lambda tmp: hw.build_hypercube(9), 0, True),
        (lambda tmp: hw.build_complete_bipartite(133, 267), 0, False),
        # node 0's only neighbour is the target, so its row of Q is empty
        (lambda tmp: hw.build_path(5), 1, False),
        (_weighted_cycle_file, 7, True),
    ],
    ids=["torus_std:21", "hypercube:9", "bipartite:133:267", "path:5-to-1", "weighted-file"],
)
def test_neighbour_table_and_dense_steps_agree(graph, target, table_chosen, tmp_path):
    system = hw.make_absorbing(hw.simple_walk_kernel(graph(tmp_path)), target)
    assert (system.q_rows is not None) == table_chosen
    q = system.q_matrix
    rows, cols = np.nonzero(q)
    table_cols, table_vals = hitting._row_table(rows, cols, q[rows, cols], system.size)
    probs = hw.pmf(system, 40, stop_early=False).probs
    vec = system.first_step
    for row in probs:
        assert np.max(np.abs(row - vec)) <= 1e-15
        table_step = np.einsum("ij,ij->i", table_vals, vec[table_cols])
        assert np.max(np.abs(table_step - q @ vec)) <= 1e-15
        vec = q @ vec


def test_neighbour_table_follows_q_matrix():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_torus_standard(21)), 0)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(system, q_rows=None)
    # a replaced Q gets its own table, or none when its rows are wide
    for q in (system.q_matrix / 2, np.full(system.q_matrix.shape, 0.5 / system.size)):
        changed = dataclasses.replace(system, q_matrix=q)
        vec = np.linspace(0.0, 1.0, system.size)
        assert np.max(np.abs(changed.step(vec) - q @ vec)) <= 1e-15
    assert changed.q_rows is None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "q, table_chosen",
    [(np.full((20, 20), 1e200), False), (np.diag(np.full(20, 1e200)), True)],
    ids=["dense", "table"],
)
def test_pmf_step_with_non_finite_entries_raises(q, table_chosen):
    system = hitting.AbsorbingSystem(
        target=20, q_matrix=q, first_step=np.full(20, 1e200), index_map=tuple(range(20))
    )
    assert (system.q_rows is not None) == table_chosen
    with pytest.raises(InvalidParameterError, match="non-finite"):
        hw.pmf(system, 3, stop_early=False)


# --- brute-force oracle ---------------------------------------------------------

def test_brute_diamond(diamond):
    kernel = hw.simple_walk_kernel(diamond)
    probs = hw.brute_pmf(kernel, 1, 0, 2)
    assert probs[1] == pytest.approx(1 / 9, abs=1e-15)


def test_brute_triangle():
    kernel = hw.simple_walk_kernel(hw.build_cycle(3))
    probs = hw.brute_pmf(kernel, 1, 0, 3)
    assert probs[1] == pytest.approx(1 / 4, abs=1e-15)


def test_brute_k2():
    kernel = hw.simple_walk_kernel(hw.build_complete(2))
    assert hw.brute_pmf(kernel, 0, 1, 1)[0] == 1.0


def test_brute_guards():
    kernel = hw.simple_walk_kernel(hw.build_cycle(3))
    with pytest.raises(OracleTooLargeError):
        hw.brute_pmf(kernel, 1, 0, 11)
    big = hw.simple_walk_kernel(hw.build_cycle(7))
    with pytest.raises(OracleTooLargeError):
        hw.brute_pmf(big, 1, 0, 3)


def test_pmf_matches_brute_on_small_presets():
    for name, g in preset_zoo(max_nodes=6).items():
        kernel = hw.simple_walk_kernel(g)
        for target in range(g.node_count):
            system = hw.make_absorbing(kernel, target)
            table = hw.pmf(system, 8, stop_early=False)
            for start in system.index_map:
                brute = hw.brute_pmf(kernel, start, target, 8)
                assert np.allclose(table.column(start), brute, atol=1e-12), (name, start, target)


# --- moments ---------------------------------------------------------------------

def test_moments_factorise_i_minus_q_twice(monkeypatch):
    # mean and Q 1 are solved together, then the second moment
    calls = []
    real_solve = hitting.solve
    monkeypatch.setattr(hitting, "solve", lambda a, b: calls.append(np.shape(b)) or real_solve(a, b))
    rep = hw.moments(hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(10)), 0))
    assert calls == [(9, 2), (9,)]
    assert rep.for_state(5)[0] == pytest.approx(25.0, abs=1e-9)


def test_moments_k4():
    rep = hw.moments(hw.make_absorbing(hw.simple_walk_kernel(hw.build_complete(4)), 0))
    mean, _, variance = rep.for_state(2)
    assert mean == pytest.approx(3.0, abs=1e-12)
    assert variance == pytest.approx(6.0, abs=1e-12)


def test_moments_k2_deterministic_step():
    rep = hw.moments(hw.make_absorbing(hw.simple_walk_kernel(hw.build_complete(2)), 1))
    mean, second, variance = rep.for_state(0)
    assert (mean, second, variance) == (pytest.approx(1.0), pytest.approx(1.0), pytest.approx(0.0))


def test_moments_c10_against_pmf_sums():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(10)), 0)
    rep = hw.moments(system)
    table = hw.pmf(system, 20000)
    n = np.arange(1, table.horizon + 1, dtype=float)
    mean, second, variance = rep.for_state(5)
    assert mean == pytest.approx(25.0, abs=1e-12)
    assert float(n @ table.column(5)) == pytest.approx(mean, abs=1e-6)
    assert float((n * n) @ table.column(5)) == pytest.approx(second, abs=1e-6)
    assert float((n * n) @ table.column(5)) - mean**2 == pytest.approx(variance, abs=1e-6)


def test_moments_nonnegative_variance_everywhere():
    for name, g in preset_zoo().items():
        kernel = hw.simple_walk_kernel(g)
        rep = hw.moments(hw.make_absorbing(kernel, 0))
        assert rep.variance.min() >= -1e-9, name
        assert rep.mean.min() >= 1.0 - 1e-12, name


# --- closed forms ------------------------------------------------------------------

def test_closed_complete_values():
    assert hw.closed_complete(4, 1) == pytest.approx(1 / 3)
    assert hw.closed_complete(4, 2) == pytest.approx(2 / 9)
    assert hw.closed_complete(2, 1) == pytest.approx(1.0)
    assert hw.closed_complete(2, 2) == 0.0


def test_closed_complete_matches_pmf():
    for k in range(2, 9):
        system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_complete(k)), 0)
        table = hw.pmf(system, 60, stop_early=False)
        for n in range(1, 61):
            assert table.prob(1, n) == pytest.approx(hw.closed_complete(k, n), abs=1e-12)


def test_closed_bipartite_values_and_parity():
    assert hw.closed_bipartite(3, 2, "cross", 2) == 0.0
    assert hw.closed_bipartite(2, 3, "cross", 1) == pytest.approx(1 / 3)
    assert hw.closed_bipartite(2, 3, "same-side", 3) == 0.0


def test_closed_bipartite_matches_pmf_both_cases():
    for k1 in range(1, 6):
        for k2 in range(1, 6):
            g = hw.build_complete_bipartite(k1, k2)
            kernel = hw.simple_walk_kernel(g)
            target = k1  # first node of side B, the size-k2 side
            system = hw.make_absorbing(kernel, target)
            table = hw.pmf(system, 80, stop_early=False)
            for n in range(1, 81):
                assert table.prob(0, n) == pytest.approx(
                    hw.closed_bipartite(k1, k2, "cross", n), abs=1e-12
                )
                if k2 >= 2:
                    assert table.prob(k1 + 1, n) == pytest.approx(
                        hw.closed_bipartite(k1, k2, "same-side", n), abs=1e-12
                    )


def test_closed_bipartite_same_side_other_side_by_swap():
    g = hw.build_complete_bipartite(2, 3)
    kernel = hw.simple_walk_kernel(g)
    table = hw.pmf(hw.make_absorbing(kernel, 0), 40, stop_early=False)
    for n in range(1, 41):
        assert table.prob(1, n) == pytest.approx(
            hw.closed_bipartite(3, 2, "same-side", n), abs=1e-12
        )


def test_closed_cycle_examples():
    assert hw.closed_cycle(3, 1, 1) == pytest.approx(0.5, abs=1e-12)
    assert hw.closed_cycle(4, 2, 1) == pytest.approx(0.0, abs=1e-12)


def test_closed_cycle_matches_pmf():
    for k in range(3, 13):
        system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(k)), 0)
        table = hw.pmf(system, 100, stop_early=False)
        for start in range(1, k):
            col = table.column(start)
            closed = np.array([hw.closed_cycle(k, start, n) for n in range(1, 101)])
            assert np.allclose(col, closed, atol=1e-10), (k, start)


def test_cycle_mean_examples():
    assert hw.cycle_mean(10, 5, 0) == 25.0
    assert hw.cycle_mean(10, 0, 5) == 25.0
    assert hw.cycle_mean(7, 2, 5) == pytest.approx(3 * 4)


def test_path_endpoint_examples():
    # path 0-1-2: one step from node 1 hits either end with probability 1/2
    assert hw.path_endpoint_pmf(3, 1, 1) == pytest.approx(0.5, abs=1e-12)
    # parity: odd displacement cannot hit at even steps
    assert hw.path_endpoint_pmf(3, 1, 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        hw.path_endpoint_pmf(2, 1, 1)


def test_path_endpoint_far_end_equals_antipodal_cycle():
    g = hw.build_path(4)
    system = hw.make_absorbing(hw.simple_walk_kernel(g), 0)
    table = hw.pmf(system, 3, stop_early=False)
    assert hw.path_endpoint_pmf(4, 3, 3) == pytest.approx(table.prob(3, 3), abs=1e-12)
    assert hw.path_endpoint_pmf(4, 3, 3) == pytest.approx(hw.closed_cycle(6, 3, 3), abs=1e-12)


def test_path_endpoint_matches_pmf_all_paths():
    for nodes in range(3, 8):
        g = hw.build_path(nodes)
        system = hw.make_absorbing(hw.simple_walk_kernel(g), 0)
        table = hw.pmf(system, 100, stop_early=False)
        for start in range(1, nodes):
            col = table.column(start)
            closed = np.array([hw.path_endpoint_pmf(nodes, start, n) for n in range(1, 101)])
            assert np.allclose(col, closed, atol=1e-10), (nodes, start)


# --- return moments ---------------------------------------------------------------

def test_return_second_moment_k2():
    kernel = hw.simple_walk_kernel(hw.build_complete(2))
    assert hw.return_second_moment(kernel, 0) == pytest.approx(4.0, abs=1e-12)


def test_return_second_moment_triangle():
    kernel = hw.simple_walk_kernel(hw.build_cycle(3))
    assert hw.return_second_moment(kernel, 0) == pytest.approx(11.0, abs=1e-12)
