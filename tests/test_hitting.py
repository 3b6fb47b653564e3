import collections
import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hitwalk as hw
from hitwalk import cli, graphs, hitting
from hitwalk.errors import (
    InvalidParameterError,
    NotConnectedError,
    NumericalError,
    OracleTooLargeError,
)
from hitwalk.graphs import _read_spec, parse_graph_spec

from conftest import coarsest_equitable_partition, preset_zoo

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


def test_make_absorbing_unreachable_target(underflow_path):
    kernel = hw.simple_walk_kernel(underflow_path)
    # the underflowed arc 1 -> 0 leaves the support
    assert [a.tolist() for a in kernel.support] == [[0, 1, 2], [1, 2, 1]]
    with pytest.raises(NotConnectedError, match="^target 0 unreachable from some state$"):
        hw.make_absorbing(kernel, 0)
    assert hw.make_absorbing(kernel, 2).size == 2  # every state reaches 2


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
    lumped_pmf = hw.pmf(system, 40).probs
    plain_pmf = hw.pmf(plain, 40).probs
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


# a random spanning tree plus random extra edges, with weights from a set
# of one to three values so that equal step probabilities, and symmetries,
# occur (about a fifth of the graphs lump)
random_weighted_walks = given(
    nodes=st.integers(min_value=2, max_value=12),
    extra=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def _random_weighted_walk(nodes, extra, seed):
    """A kernel and a target drawn for ``random_weighted_walks``."""
    rng = np.random.default_rng(seed)
    weights = (1.0, 2.0, 3.0)[: rng.integers(1, 4)]
    edges = {(int(rng.integers(n)), n): rng.choice(weights) for n in range(1, nodes)}
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if (u, v) not in edges and rng.random() < extra:
                edges[(u, v)] = rng.choice(weights)
    graph = hw.Graph(nodes, tuple((u, v, w) for (u, v), w in edges.items()))
    return hw.simple_walk_kernel(graph), int(rng.integers(nodes))


def _first_seen(labels):
    """Labels renumbered in the order they first occur."""
    ids = {}
    return [ids.setdefault(label, len(ids)) for label in labels]


@random_weighted_walks
def test_lumped_system_matches_make_absorbing_on_random_weighted_graphs(nodes, extra, seed):
    _assert_lumped_matches_make_absorbing(*_random_weighted_walk(nodes, extra, seed))


@random_weighted_walks
def test_lumped_partition_is_the_coarsest_equitable_one(nodes, extra, seed):
    # an exact but finer partition would pass the test above
    kernel, target = _random_weighted_walk(nodes, extra, seed)
    rows = hw.lumped_absorbing(kernel, target)[1]
    assert _first_seen(rows.tolist()) == coarsest_equitable_partition(kernel, target)


# --- hash collisions in the refinement ----------------------------------------------

def _collide(monkeypatch, calls=None):
    """Patch the refinement's mixer to send every word to 0, so that every
    signature collides: on its first ``calls`` calls, or on all of them.
    Returns the list of calls made."""
    real, made = hitting.mix64, []

    def mix(z):
        made.append(np.size(z))
        if calls is None or len(made) <= calls:
            return np.zeros(np.shape(z), dtype=np.uint64)
        return real(z)

    monkeypatch.setattr(hitting, "mix64", mix)
    return made


# levels that are not equitable, which the exact check refuses by sorted
# keys, on a path and on a denser graph
UNEVEN_LEVELS = {
    "path6": (hw.build_path(6), 2),
    "complete8_minus_an_edge": (hw.Graph(8, tuple(e for e in itertools.combinations(range(8), 2) if e != (0, 1))), 7),
}


@pytest.mark.parametrize("name", UNEVEN_LEVELS)
def test_a_collision_under_the_first_salt_is_refined_again(monkeypatch, name):
    # a colliding first salt leaves the levels unsplit; the exact check
    # refuses them, and the second salt splits them
    graph, target = UNEVEN_LEVELS[name]
    kernel = hw.simple_walk_kernel(graph)
    want, want_rows = hw.lumped_absorbing(kernel, target)
    made = _collide(monkeypatch, calls=1)
    system, rows = hw.lumped_absorbing(kernel, target)
    assert len(made) > 1
    assert _first_seen(rows.tolist()) == coarsest_equitable_partition(kernel, target)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(system.q_matrix, want.q_matrix)
    assert np.array_equal(system.first_step, want.first_step)


@pytest.mark.parametrize("name", UNEVEN_LEVELS)
def test_collisions_under_every_salt_raise_numerical_error(monkeypatch, name):
    graph, target = UNEVEN_LEVELS[name]
    _collide(monkeypatch)
    with pytest.raises(NumericalError, match="hash collisions"):
        hw.lumped_absorbing(hw.simple_walk_kernel(graph), target)


def _path_file(tmp_path, nodes):
    """An edge-list file of the path on ``nodes`` nodes, which (unlike the
    path preset) has no closed-form classes and lumps by refinement."""
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": [[i, i + 1] for i in range(nodes - 1)]}))
    return str(path)


def test_collisions_under_every_salt_exit_4(monkeypatch, capsys, tmp_path):
    _collide(monkeypatch)
    code = cli.main(["pmf", "--graph", _path_file(tmp_path, 6), "--from", "0", "--to", "2", "--horizon", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err.startswith("hitwalk: numerical failure: ")


@random_weighted_walks
def test_a_weak_mixer_gives_the_coarsest_partition_or_numerical_error(nodes, extra, seed):
    # one bit of hash: signatures collide often (about a quarter of these
    # graphs need a second salt, and one in fourteen fails all three), and
    # the exact check must refuse every partition they leave unsplit
    kernel, target = _random_weighted_walk(nodes, extra, seed)
    real = hitting.mix64
    hitting.mix64 = lambda z: real(z) & np.uint64(1)
    try:
        rows = hw.lumped_absorbing(kernel, target)[1]
    except NumericalError:
        return
    finally:
        hitting.mix64 = real
    assert _first_seen(rows.tolist()) == coarsest_equitable_partition(kernel, target)


def test_refinement_rounds_hash_each_arc_a_few_times(monkeypatch):
    # path:10000 to node 3000 splits one level pair per round, about 3000
    # rounds; re-signing only the nodes next to a split keeps every round's
    # hashing to the arcs it reads (a round over all arcs would hash ~3000 E)
    kernel = hw.simple_walk_kernel(hw.build_path(10000))
    hashed = _collide(monkeypatch, calls=0)
    cells = hitting._equitable_cells(kernel, *hitting._require_reachable(kernel, 3000))
    assert len(hashed) >= 2999 and sum(hashed) <= 4 * len(kernel.values)
    assert len(np.unique(cells)) == 10000  # every node alone: the far end breaks each pair


def _dense_walk(kind, size, seed):
    """A walk with at least as many arcs as V times the pairs of (class,
    step probability) a few classes give: the complete graph on ``size`` + 2
    nodes, a complete bipartite graph with sides of 1..``size`` + 1 nodes, or
    a random graph on ``size`` + 2 nodes holding each edge with probability
    0.8, weighted from one to three values; and a target."""
    rng = np.random.default_rng(seed)
    if kind == "complete":
        graph = hw.build_complete(size + 2)
    elif kind == "bipartite":
        graph = hw.build_complete_bipartite(int(rng.integers(1, size + 2)), size + 1)
    else:
        weights = (1.0, 2.0, 3.0)[: rng.integers(1, 4)]
        edges = {(u, v) for u, v in itertools.combinations(range(size + 2), 2) if rng.random() < 0.8}
        edges |= {(int(rng.integers(n)), n) for n in range(1, size + 2)}  # a spanning tree
        graph = hw.Graph(size + 2, tuple((u, v, rng.choice(weights)) for u, v in sorted(edges)))
    return hw.simple_walk_kernel(graph), int(rng.integers(graph.node_count))


def _equitable_reference(kernel, colour):
    """Whether each node's Counter of (neighbour class, step probability)
    equals its class's first node's, in plain Python."""
    pairs = [collections.Counter() for _ in colour]
    for head, tail, prob in zip(*kernel.support, kernel.values):
        pairs[head][colour[tail], prob] += 1
    first = {}
    return all(pairs[node] == pairs[first.setdefault(c, node)] for node, c in enumerate(colour))


@given(
    kind=st.sampled_from(["complete", "bipartite", "random"]),
    size=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_equitable_check_is_the_plain_multiset_comparison(kind, size, seed):
    # the coarsest partition is accepted; a random split of each of its
    # classes in two, and a random merge of its classes into fewer, are
    # accepted or refused as the reference says (about half the examples
    # hold a refusal)
    kernel, target = _dense_walk(kind, size, seed)
    rng = np.random.default_rng(seed + 1)
    coarsest = np.array(coarsest_equitable_partition(kernel, target))
    classes = int(coarsest.max()) + 1
    split = np.where(rng.random(len(coarsest)) < 0.5, coarsest, coarsest + classes)
    merged = rng.integers(rng.integers(1, classes + 1), size=classes)[coarsest]
    assert _equitable_reference(kernel, coarsest.tolist())
    _, code = np.unique(kernel.values, return_inverse=True)
    out_ptr = np.searchsorted(kernel.support[0], np.arange(kernel.node_count + 1))
    for colour in (coarsest, split, merged):
        _, colour = np.unique(colour, return_inverse=True)
        colour = rng.permutation(int(colour.max()) + 1)[colour]  # classes 0.. in a random order
        want = _equitable_reference(kernel, colour.tolist())
        assert hitting._is_equitable(kernel, colour, out_ptr, code, int(code.max()) + 1) == want


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


def test_lumped_absorbing_rejects_what_make_absorbing_rejects(underflow_path):
    kernel = hw.simple_walk_kernel(hw.build_cycle(5))
    with pytest.raises(InvalidParameterError, match="out of range"):
        hw.lumped_absorbing(kernel, 5)
    with pytest.raises(NotConnectedError):
        hw.lumped_absorbing(hw.simple_walk_kernel(underflow_path), 0)


def test_lumped_rows_are_looked_up_by_class():
    # on C_8 to node 0, node 7 shares node 1's class and has no row of its own
    system, rows = hw.lumped_absorbing(hw.simple_walk_kernel(hw.build_cycle(8)), 0)
    assert rows[7] == rows[1] == system.reduced_index(1)
    table, report = hw.pmf(system, 5), hw.moments(system)
    message = r"^node 7 has no row: .*a lumped table keeps one row per class, whose row lumped_absorbing's rows gives"
    for lookup in (
        lambda: system.reduced_index(7),
        lambda: table.column(7),
        lambda: table.prob(7, 1),
        lambda: report.for_state(7),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            lookup()
    assert table.column(1)[:2].tolist() == [0.5, 0.0]


# --- preset quotients in closed form ------------------------------------------

def _targets(nodes, limit=12):
    """Every node of a small graph; else both ends, the middle and a spread
    of nodes between."""
    if nodes <= limit:
        return range(nodes)
    return sorted({0, 1, nodes // 2, nodes - 2, nodes - 1, *range(nodes // 5, nodes, nodes // 5 + 1)})


def _assert_quotient_is_lumped_absorbing(name, params, targets=None):
    family = graphs._PRESETS[name]
    kernel = hw.simple_walk_kernel(hw.preset_graph(name, params))
    nodes, _ = family.closed
    assert nodes(*params) == kernel.node_count
    for target in targets or _targets(kernel.node_count):
        system, rows = hitting._preset_lumped(family, params, target)
        want, want_rows = hw.lumped_absorbing(kernel, target)
        # bit for bit: the same Q, P1 and index map, and so the same table
        assert system.q_matrix.tobytes() == want.q_matrix.tobytes()
        assert system.first_step.tobytes() == want.first_step.tobytes()
        assert system.index_map == want.index_map
        assert (system.q_rows is None) == (want.q_rows is None)
        nodes = np.arange(kernel.node_count)
        assert np.array_equal(rows[nodes], want_rows)
        if kernel.node_count <= 64:  # one node at a time, as the CLI looks up a start
            assert [rows[n] for n in nodes.tolist()] == want_rows.tolist()


QUOTIENT_SIZES = {
    "cycle": [[k] for k in (*range(3, 14), 31, 64, 101)],
    "complete": [[k] for k in (*range(2, 9), 50)],
    "bipartite": [[1, 1], [1, 2], [2, 1], [1, 5], [5, 1], [2, 3], [3, 2], [4, 4], [7, 12], [33, 67]],
    "hypercube": [[d] for d in range(1, 11)],
    "torus_std": [[p] for p in range(3, 46) if p != 4],
    "torus_diag": [[p] for p in range(3, 46, 2)],
}


@pytest.mark.parametrize(
    "name, params",
    [(name, params) for name, sizes in QUOTIENT_SIZES.items() for params in sizes],
    ids=[":".join([name, *map(str, params)]) for name, sizes in QUOTIENT_SIZES.items() for params in sizes],
)
def test_preset_quotient_is_lumped_absorbing_bit_for_bit(name, params):
    _assert_quotient_is_lumped_absorbing(name, params)


@pytest.mark.parametrize("k", range(2, 41))
def test_path_quotient_is_lumped_absorbing_at_every_target(k):
    # pairs about the centre of an odd path, else every node alone
    _assert_quotient_is_lumped_absorbing("path", [k], range(k))


def test_torus_std_4_takes_the_graph_path():
    # the 4-cube in disguise: 5 classes where the stabilizer's orbits give 6
    family = graphs._PRESETS["torus_std"]
    assert family.closed[1](4, 0) is None
    assert hitting._preset_lumped(family, [4], 0) is None
    assert _cell_count(hw.build_torus_standard(4), 0) == 5


@pytest.mark.parametrize("name", ["path", "cayley_s3", "cayley_d8"])
def test_families_without_a_closed_form_take_the_graph_path(name, tmp_path):
    if name == "path":
        # the path preset lumps in closed form; an edge-list file of the
        # same path has no family, and lumps from its built kernel
        problem = cli._Problem(_read_spec(_path_file(tmp_path, 5)), None, 0)
        assert problem.family is None
        system, rows = problem.lumped
        want, want_rows = hw.lumped_absorbing(problem.kernel, 0)
        assert system.q_matrix.tobytes() == want.q_matrix.tobytes()
        assert np.array_equal(rows, want_rows)
        return
    family = graphs._PRESETS[name]
    assert family.closed is None
    assert hitting._preset_lumped(family, [], 0) is None


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


def test_pmf_past_absorption_reports_the_horizon():
    # K_2 is absorbed in one deterministic step; the table still holds
    # every step asked for, the later ones exactly 0
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_complete(2)), 0)
    table = hw.pmf(system, 50)
    assert table.horizon == 50 and table.probs.shape == (50, 1)
    assert table.probs[0, 0] == 1.0
    assert np.all(table.probs[1:] == 0.0)
    assert table.residual[0] == 0.0


def test_pmf_residual_tracks_column_sums():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(6)), 0)
    table = hw.pmf(system, 40)
    assert np.allclose(table.residual, 1.0 - table.probs.sum(axis=0), atol=1e-12)
    assert np.all(table.probs.sum(axis=0) <= 1.0 + 1e-12)


def test_pmf_residual_small_at_quadratic_horizon():
    for k in (4, 6, 8):
        system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(k)), 0)
        table = hw.pmf(system, 200 * k * k)
        assert table.residual.max() < 1e-8


def _one_row_loop(system, horizon):
    """pmf's table and residual stepped one row at a time, as a reference."""
    probs = np.empty((horizon, system.size))
    probs[0] = system.first_step
    residual = 1.0 - probs[0]
    for n in range(1, horizon):
        probs[n] = system.step(probs[n - 1])
        residual -= probs[n]
    return probs, residual


def _assert_blocked_matches_loop(blocked, loop):
    """Same rows produced, the unblocked head bit for bit, and every term
    of at least 1e-300 within 1e-12 relative (tables as arrays)."""
    assert blocked.shape == loop.shape
    assert np.array_equal(blocked[: hitting._BLOCK], loop[: hitting._BLOCK])
    kept = loop >= 1e-300
    assert np.all(np.abs(blocked[kept] - loop[kept]) <= 1e-12 * loop[kept])
    assert np.all(blocked[~kept] < 1e-300)


@given(
    nodes=st.integers(min_value=2, max_value=12),
    extra=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.integers(min_value=1, max_value=1500),
    lump=st.booleans(),
)
def test_blocked_pmf_matches_the_one_row_loop(nodes, extra, seed, horizon, lump):
    # under _BLOCK states the full table takes giant steps over 2 * _BLOCK rows
    kernel, target = _random_weighted_walk(nodes, extra, seed)
    system = hw.lumped_absorbing(kernel, target)[0] if lump else hw.make_absorbing(kernel, target)
    _assert_blocked_matches_loop(hw.pmf(system, horizon).probs, _one_row_loop(system, horizon)[0])


@pytest.mark.parametrize("preset", ["torus_std:31", "cycle:300", "hypercube:10", "bipartite:20:40"])
def test_blocked_pmf_matches_the_one_row_loop_on_lumped_presets(preset, monkeypatch):
    # up to _BLOCK - 1 reported rows take giant steps
    system = cli._Problem(cli._parse_preset(preset), None, 0).lumped[0]
    rows = list(range(min(system.size, hitting._BLOCK - 1)))
    giant = _spy(monkeypatch, "_giant_steps")
    blocked = hw.pmf(system, 2000, rows=rows)
    assert len(giant) == 1
    _assert_blocked_matches_loop(blocked.probs, _one_row_loop(system, 2000)[0][:, rows])


@pytest.mark.parametrize(
    "nodes, horizon", [(258, 300), (40, 2 * hitting._BLOCK)], ids=["every_row_of_257_states", "horizon_at_two_blocks"]
)
def test_pmf_outside_the_blocked_range_is_the_one_row_loop(nodes, horizon):
    # a cycle's plain absorbing system has nodes - 1 states; every row of
    # _BLOCK or more states, or any table up to 2 * _BLOCK rows, steps
    # every row, bit for bit
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(nodes)), 0)
    table = hw.pmf(system, horizon)
    probs, residual = _one_row_loop(system, horizon)
    assert np.array_equal(table.probs, probs) and np.array_equal(table.residual, residual)


def test_blocked_pmf_rows_do_not_depend_on_the_horizon():
    # the last block is always a full product, so a longer table extends
    # a shorter one bit for bit
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_torus_standard(5)), 0)
    short, long = (hw.pmf(system, h) for h in (97, 200))
    assert np.array_equal(short.probs, long.probs[:97])


# --- pmf on reported rows -------------------------------------------------------

@given(
    nodes=st.integers(min_value=2, max_value=12),
    extra=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.integers(min_value=1, max_value=1500),
    lump=st.booleans(),
    picks=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
)
def test_pmf_on_reported_rows_is_those_columns_of_the_full_table(nodes, extra, seed, horizon, lump, picks):
    # fewer than _BLOCK rows take giant steps over 2 * _BLOCK rows, and so
    # does the full table of fewer than _BLOCK states; every other table is
    # the one-row loop
    kernel, target = _random_weighted_walk(nodes, extra, seed)
    system = hw.lumped_absorbing(kernel, target)[0] if lump else hw.make_absorbing(kernel, target)
    rows = [p % system.size for p in picks]
    table = hw.pmf(system, horizon, rows=rows)
    assert table.states == tuple(system.index_map[r] for r in rows)
    full = hw.pmf(system, horizon).probs[:, rows]
    left = np.subtract.accumulate(np.vstack([1.0 - full[0], full[1:]]), axis=0)
    assert table.horizon == horizon
    if horizon <= 2 * hitting._BLOCK:
        assert np.array_equal(table.probs, full)
        assert np.array_equal(table.residual, left[-1])
        return
    # blocked rows round apart from the full table's, and so may their
    # residuals
    assert np.array_equal(table.probs[: hitting._BLOCK], full[: hitting._BLOCK])
    kept = full >= 1e-300
    assert np.all(np.abs(table.probs[kept] - full[kept]) <= 1e-12 * full[kept])
    assert np.all(table.probs[~kept] < 1e-300)
    assert np.all(np.abs(table.residual - left[-1]) <= 1e-13)


def _spy(monkeypatch, name):
    """Count the calls of ``hitting.<name>``."""
    calls, real = [], getattr(hitting, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hitting, name, spy)
    return calls


def test_one_start_takes_giant_steps_from_the_measured_crossover(monkeypatch):
    # torus_std:41's quotient has 230 states, so the squarings pay from
    # 230^3 / _GIANT_STEP_RATIO rows on; below that pmf steps every state
    system = cli._Problem(cli._parse_preset("torus_std:41"), None, 0).lumped[0]
    crossover = -(-system.size**3 // hitting._GIANT_STEP_RATIO)
    assert 2 * hitting._BLOCK < crossover < 2000
    giant = _spy(monkeypatch, "_giant_steps")
    row = system.size - 1
    loop = hw.pmf(system, crossover - 1, rows=[row])
    assert giant == []
    assert np.array_equal(loop.probs[:, 0], _one_row_loop(system, crossover - 1)[0][:, row])
    blocked = hw.pmf(system, crossover, rows=[row])
    assert len(giant) == 1
    want = hw.pmf(system, crossover).probs[:, row]
    assert np.array_equal(blocked.probs[: hitting._BLOCK, 0], want[: hitting._BLOCK])
    assert np.all(np.abs(blocked.probs[:, 0] - want) <= 1e-12 * want)


def test_a_block_of_reported_rows_is_the_one_row_loop(monkeypatch):
    # giant steps cost O(rows * states^2) a block against the loop's
    # O(_BLOCK * states * width), so on torus_std:31's 135 states 31 rows
    # take them, and 32 rows or every row step one row at a time
    system = cli._Problem(cli._parse_preset("torus_std:31"), None, 0).lumped[0]
    giant = _spy(monkeypatch, "_giant_steps")
    many = list(range(hitting._BLOCK))
    for horizon in (300, 2000):
        probs, residual = _one_row_loop(system, horizon)
        few = hw.pmf(system, horizon, rows=many[:-1])
        assert len(giant) == 1
        _assert_blocked_matches_loop(few.probs, probs[:, many[:-1]])
        block, every = hw.pmf(system, horizon, rows=many), hw.pmf(system, horizon)
        assert len(giant) == 1
        assert np.array_equal(block.probs, probs[:, many])
        assert np.array_equal(every.probs, probs) and np.array_equal(every.residual, residual)
        giant.clear()


def test_rows_outside_the_system_are_invalid_before_any_table():
    system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(6)), 0)
    for rows in ([0, 5], [-1], []):
        with pytest.raises(InvalidParameterError, match="rows must lie in 0..4"):
            hw.pmf(system, 10, rows=rows)
    # the table is horizon x reported rows, refused past what numpy can size
    with pytest.raises(InvalidParameterError, match="pmf table too large"):
        hw.pmf(system, 2**60, rows=[0, 1])


def _weighted_cycle_file(tmp_path):
    rng = np.random.default_rng(5)
    edges = [[i, (i + 1) % 30, float(w)] for i, w in enumerate(rng.uniform(0.1, 3.0, 30))]
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({"nodes": 30, "edges": edges}))
    return parse_graph_spec(_read_spec(str(path)))


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
    probs = hw.pmf(system, 40).probs
    vec = system.first_step
    for row in probs:
        assert np.max(np.abs(row - vec)) <= 1e-15
        table_step = np.einsum("ij,ij->i", table_vals, vec[table_cols])
        assert np.max(np.abs(table_step - q @ vec)) <= 1e-15
        vec = q @ vec


@pytest.mark.parametrize(
    "graph, table_chosen",
    [(hw.build_torus_standard(21), True), (hw.build_complete_bipartite(133, 267), False)],
    ids=["torus_std:21", "bipartite:133:267"],
)
def test_neighbour_table_and_dense_q_come_from_the_arcs(graph, table_chosen):
    system = hw.make_absorbing(hw.simple_walk_kernel(graph), 0)
    rows, cols, vals = system.arcs
    assert np.all(np.diff(rows * system.size + cols) > 0) and np.all(vals != 0)
    assert "q_matrix" not in vars(system)  # formed on its first read
    q = system.q_matrix
    assert np.array_equal(q[rows, cols], vals) and np.count_nonzero(q) == len(vals)
    assert not q.flags.writeable and system.q_matrix is q
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.q_matrix = q
    assert (system.q_rows is not None) == table_chosen
    if table_chosen:
        table_cols, table_vals = system.q_rows
        width = np.bincount(rows, minlength=system.size)
        assert table_cols.shape == (system.size, width.max())
        filled = np.arange(table_cols.shape[1]) < width[:, None]
        assert np.array_equal(table_cols[filled], cols) and np.array_equal(table_vals[filled], vals)
        assert not table_vals[~filled].any()


@pytest.mark.parametrize(
    "graph, target",
    [
        (lambda tmp: hw.Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))), 0),
        (lambda tmp: hw.build_complete(2), 1),
        (lambda tmp: hw.build_path(5), 1),
        (lambda tmp: hw.build_complete_bipartite(3, 5), 6),
        (lambda tmp: hw.build_torus_standard(5), 12),
        (lambda tmp: hw.build_hypercube(4), 5),
        (_weighted_cycle_file, 7),
    ],
    ids=["diamond", "K2", "path:5-to-1", "bipartite:3:5", "torus_std:5", "hypercube:4", "weighted-file"],
)
def test_unlumped_q_matrix_is_the_kernel_without_the_target(graph, target, tmp_path):
    kernel = hw.simple_walk_kernel(graph(tmp_path))
    kept = np.delete(np.arange(kernel.node_count), target)
    want = kernel.matrix[np.ix_(kept, kept)]
    assert hw.make_absorbing(kernel, target).q_matrix.tobytes() == want.tobytes()


def test_path_10000_system_is_built_without_a_dense_q():
    # the dense Q alone is 9999^2 doubles, 763 MiB
    family = graphs._family("path", [10000])
    tracemalloc.start()
    try:
        system = hitting._preset_lumped(family, [10000], 0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.size == 9999 and peak < 16 * 2**20


def test_loop_route_pmf_leaves_the_dense_q_unformed(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the dense Q was formed")

    monkeypatch.setattr(hitting.AbsorbingSystem, "q_matrix", property(refuse))
    args = ["pmf", "--preset", "path:10000", "--from", "9999", "--to", "0", "--horizon", "2000", "--engine", "direct"]
    assert cli.main(args) == 0, capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "arcs, table_chosen",
    [(np.divmod(np.arange(400), 20), False), ((np.arange(20), np.arange(20)), True)],
    ids=["dense", "table"],
)
def test_pmf_step_with_non_finite_entries_raises(arcs, table_chosen):
    rows, cols = arcs
    system = hitting.AbsorbingSystem(
        target=20, arcs=(rows, cols, np.full(len(rows), 1e200)), first_step=np.full(20, 1e200), index_map=tuple(range(20))
    )
    assert (system.q_rows is not None) == table_chosen
    with pytest.raises(InvalidParameterError, match="non-finite"):
        hw.pmf(system, 3)


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
            table = hw.pmf(system, 8)
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
        table = hw.pmf(system, 60)
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
            table = hw.pmf(system, 80)
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
    table = hw.pmf(hw.make_absorbing(kernel, 0), 40)
    for n in range(1, 41):
        assert table.prob(1, n) == pytest.approx(
            hw.closed_bipartite(3, 2, "same-side", n), abs=1e-12
        )


def test_closed_cycle_examples():
    assert hw.closed_cycle(3, 1, 1) == pytest.approx(0.5, abs=1e-12)
    assert hw.closed_cycle(4, 2, 1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidParameterError, match="step must be >= 1"):
        hw.closed_cycle(5, 1, np.array([1, 0]))


def test_closed_cycle_matches_pmf():
    for k in range(3, 13):
        system = hw.make_absorbing(hw.simple_walk_kernel(hw.build_cycle(k)), 0)
        table = hw.pmf(system, 100)
        for start in range(1, k):
            col = table.column(start)
            closed = np.array([hw.closed_cycle(k, start, n) for n in range(1, 101)])
            assert np.allclose(col, closed, atol=1e-10), (k, start)
            # the same sum over an array of steps; only its powers may round
            # differently (x ** 2 squares, x ** array calls pow)
            steps = hw.closed_cycle(k, start, np.arange(1, 101))
            assert np.all(np.abs(steps - closed) <= 8 * np.finfo(float).eps), (k, start)


def test_cycle_mean_examples():
    assert hw.cycle_mean(10, 5, 0) == 25.0
    assert hw.cycle_mean(10, 0, 5) == 25.0
    assert hw.cycle_mean(7, 2, 5) == pytest.approx(3 * 4)


def test_cycle_mean_on_the_triangle_and_below():
    # the triangle is the smallest cycle: the target is one step away with
    # probability 1/2, so the mean is 2
    assert hw.cycle_mean(3, 0, 1) == 2.0
    with pytest.raises(InvalidParameterError, match="k >= 3"):
        hw.cycle_mean(2, 0, 1)


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
    table = hw.pmf(system, 3)
    assert hw.path_endpoint_pmf(4, 3, 3) == pytest.approx(table.prob(3, 3), abs=1e-12)
    assert hw.path_endpoint_pmf(4, 3, 3) == pytest.approx(hw.closed_cycle(6, 3, 3), abs=1e-12)


def test_path_endpoint_matches_pmf_all_paths():
    for nodes in range(3, 8):
        g = hw.build_path(nodes)
        system = hw.make_absorbing(hw.simple_walk_kernel(g), 0)
        table = hw.pmf(system, 100)
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


def test_return_second_moment_reads_the_node_arcs_not_the_dense_kernel():
    kernel = hw.simple_walk_kernel(hw.build_torus_standard(5))
    value = hw.return_second_moment(kernel, 3)
    assert kernel._matrix is None
    # first-step analysis over the node's dense row, in node order
    rep = hw.moments(hw.make_absorbing(kernel, 3))
    row = kernel.matrix[3]
    want = row[3] * 1.0
    for p, mean, second in zip(np.delete(row, 3), rep.mean, rep.second):
        want += p * (1.0 + 2.0 * mean + second)
    assert value == want
