import json

import numpy as np
import pytest

import hitwalk as hw
from hitwalk.errors import GroupTooLargeError, InvalidParameterError, NotConnectedError
from hitwalk.graphs import (
    PermutationGroupSpec,
    canonical_graph_spec,
    cycle_notation,
    load_graph_file,
    parse_graph_spec,
    perm_from_cycles,
    preset_graph,
    symmetric_closure,
)

from conftest import preset_zoo


# --- construction and validation ------------------------------------------

def test_graph_rejects_self_loop():
    with pytest.raises(InvalidParameterError):
        hw.Graph(2, ((0, 0),))


def test_graph_rejects_duplicate_edges():
    with pytest.raises(InvalidParameterError):
        hw.Graph(3, ((0, 1), (1, 0)))


def test_graph_rejects_bad_weight():
    with pytest.raises(InvalidParameterError):
        hw.Graph(2, ((0, 1, 0.0),))


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 1), (2, 2), (0, 9)), "self-loop at node 2"),
        (((0, 9), (2, 2)), "edge (0,9) endpoint out of range"),
        (((-1, 2), (1, 0), (0, 1)), "edge (-1,2) endpoint out of range"),
        (((2, 1), (0, 1, -1.0), (1, 2)), "edge (0,1) weight must be positive"),
        (((2, 1), (0, 1), (1, 2, -1.0)), "duplicate edge (1,2)"),
        (((0, 1), (3, 2, float("nan")), (1, 0)), "edge (2,3) weight must be positive"),
        # a later weight does not convert; an edge's weight converts after
        # its endpoints are checked
        (((0, 0), (1, 2, "x")), "self-loop at node 0"),
        (((0, 1), (2, 3), (1, 0, "x")), "duplicate edge (0,1)"),
        (((0, 1), (2, 3), (3, 3, None)), "self-loop at node 3"),
    ],
)
def test_graph_reports_first_faulty_edge(edges, message):
    # two faults each: the first in edge order wins, and within an edge the
    # checks run self-loop, range, duplicate, weight
    with pytest.raises(InvalidParameterError) as info:
        hw.Graph(4, edges)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edges, error",
    [
        (((0, 1), (1, 2, None), (0, 1)), TypeError),
        (((0, 1), ("a", 3), (1, 0)), ValueError),
        (((1, 0), (2, 1, 1.0, 5), (0, 1)), ValueError),
        (((0, 1), 7, (1, 0)), TypeError),
    ],
)
def test_graph_raises_conversion_error_of_first_faulty_edge(edges, error):
    # the edge that does not convert comes before any other fault
    with pytest.raises(error):
        hw.Graph(4, edges)


def test_graph_connectivity_flag():
    assert hw.Graph(3, ((0, 1), (1, 2))).connected
    assert not hw.Graph(3, ((0, 1),)).connected


# --- preset families --------------------------------------------------------

def test_cycle_10():
    g = hw.build_cycle(10)
    assert g.node_count == 10 and g.edge_count == 10
    assert np.all(g.degrees() == 2)
    assert g.connected


def test_cycle_small_and_invalid():
    assert hw.build_cycle(3).edge_count == 3
    assert np.all(hw.build_cycle(4).degrees() == 2)
    with pytest.raises(InvalidParameterError):
        hw.build_cycle(2)


def test_path_shapes():
    g = hw.build_path(5)
    assert g.node_count == 5 and g.edge_count == 4
    assert sorted(g.degrees().tolist()) == [1, 1, 2, 2, 2]
    assert hw.build_path(2).edge_count == 1
    assert hw.build_path(3).neighbors(1) == [0, 2]
    with pytest.raises(InvalidParameterError):
        hw.build_path(1)


def test_complete_and_bipartite_counts():
    assert hw.build_complete(4).edge_count == 6
    g = hw.build_complete_bipartite(2, 3)
    assert g.edge_count == 6
    # no edge inside a side
    for u, v, _ in g.edges:
        assert (u < 2) != (v < 2)
    with pytest.raises(InvalidParameterError):
        hw.build_complete(1)
    with pytest.raises(InvalidParameterError):
        hw.build_complete_bipartite(0, 3)


def test_hypercube_3():
    g = hw.build_hypercube(3)
    assert g.node_count == 8 and g.edge_count == 12
    assert g.regular_degree() == 3
    assert g.labels[5] == "101"


def test_torus_counts():
    std = hw.build_torus_standard(3)
    assert std.node_count == 9 and std.edge_count == 18  # 4-regular => 4*9/2
    dia = hw.build_torus_diagonal(3)
    assert dia.node_count == 9 and dia.edge_count == 18
    assert std.regular_degree() == dia.regular_degree() == 4


def test_torus_diagonal_neighbors_p5():
    g = hw.build_torus_diagonal(5)
    origin = g.labels.index("(0,0)")
    nbrs = {g.labels[i] for i in g.neighbors(origin)}
    assert nbrs == {"(1,1)", "(1,4)", "(4,1)", "(4,4)"}


def test_torus_diagonal_rejects_even_p():
    with pytest.raises(InvalidParameterError):
        hw.build_torus_diagonal(4)


# --- Cayley construction ----------------------------------------------------

def test_cayley_s3_all_transpositions():
    # the full transposition connection set gives a 6-node cubic graph
    gens = [perm_from_cycles(3, [c]) for c in [(1, 2), (1, 3), (2, 3)]]
    g = hw.build_cayley(PermutationGroupSpec(3, tuple(gens)))
    assert g.node_count == 6
    assert g.regular_degree() == 3


def test_cayley_d8_preset_shape():
    g = hw.cayley_d8()
    assert g.node_count == 8
    assert g.regular_degree() == 3
    assert "(1 4)(2 3)" in g.labels


def test_cayley_s3_preset_shape():
    g = hw.cayley_s3()
    assert g.node_count == 6
    assert g.regular_degree() == 3
    assert g.labels[0] == "e"


def test_cayley_degree_equals_connection_set_size():
    cases = [
        (3, [perm_from_cycles(3, [c]) for c in [(1, 2), (1, 3), (2, 3)]]),
        (4, symmetric_closure([perm_from_cycles(4, [(1, 2, 3, 4)])])),
        (5, symmetric_closure(
            [perm_from_cycles(5, [(1, 2, 3, 4, 5)]), perm_from_cycles(5, [(1, 2)])]
        )),
    ]
    for degree, gens in cases:
        g = hw.build_cayley(PermutationGroupSpec(degree, tuple(gens)))
        assert g.regular_degree() == len(gens)


def test_cayley_z2_cubed_matches_hypercube():
    # three disjoint involutions generate Z_2^3; relabel each element by
    # its membership bits and compare adjacency with the hypercube
    gens = [
        perm_from_cycles(6, [(1, 2)]),
        perm_from_cycles(6, [(3, 4)]),
        perm_from_cycles(6, [(5, 6)]),
    ]
    spec = PermutationGroupSpec(6, tuple(gens))
    g = hw.build_cayley(spec)
    assert g.node_count == 8 and g.regular_degree() == 3
    # canonical ordering: bit b set iff generator b is a factor of the element
    canon = []
    for label in g.labels:
        bits = 0
        if "(1 2)" in label:
            bits |= 1
        if "(3 4)" in label:
            bits |= 2
        if "(5 6)" in label:
            bits |= 4
        canon.append(bits)
    perm = np.argsort(canon)
    adj = g.adjacency_matrix()[np.ix_(perm, perm)]
    assert np.array_equal(adj, hw.build_hypercube(3).adjacency_matrix())


def test_cayley_rejects_asymmetric_connection_set():
    with pytest.raises(InvalidParameterError):
        PermutationGroupSpec(3, (perm_from_cycles(3, [(1, 2, 3)]),))


def test_cayley_rejects_identity_generator():
    with pytest.raises(InvalidParameterError):
        PermutationGroupSpec(3, ((0, 1, 2),))


def test_cayley_closure_bound():
    # two generators of S_8 blow past the default 10080 bound (|S_8| = 40320)
    gens = symmetric_closure(
        [perm_from_cycles(8, [(1, 2)]), perm_from_cycles(8, [(1, 2, 3, 4, 5, 6, 7, 8)])]
    )
    with pytest.raises(GroupTooLargeError):
        hw.build_cayley(PermutationGroupSpec(8, tuple(gens)))


def test_cayley_generator_weights():
    gens = symmetric_closure([perm_from_cycles(3, [(1, 2, 3)]), perm_from_cycles(3, [(1, 2)])])
    spec = PermutationGroupSpec(3, tuple(gens), generator_weights=(0.25, 0.25, 0.5))
    g = hw.build_cayley(spec)
    kernel = hw.simple_walk_kernel(g)
    row = kernel.matrix[0]
    assert row[g.labels.index("(1 2)")] == pytest.approx(0.5)
    assert row[g.labels.index("(1 2 3)")] == pytest.approx(0.25)


def test_cycle_notation_round_trip():
    assert cycle_notation(perm_from_cycles(4, [(1, 4), (2, 3)])) == "(1 4)(2 3)"
    assert cycle_notation((0, 1, 2)) == "e"


# --- kernels -----------------------------------------------------------------

def test_simple_walk_kernel_diamond_rows(diamond):
    kernel = hw.simple_walk_kernel(diamond)
    assert np.allclose(kernel.matrix[3], [0.0, 0.5, 0.5, 0.0])
    assert np.allclose(kernel.matrix[0], [0.0, 0.5, 0.5, 0.0])


def test_simple_walk_kernel_k4_uniform():
    kernel = hw.simple_walk_kernel(hw.build_complete(4))
    off = kernel.matrix[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1 / 3)


def test_simple_walk_kernel_cycle_halves():
    kernel = hw.simple_walk_kernel(hw.build_cycle(10))
    assert np.all(np.sort(kernel.matrix, axis=1)[:, -2:] == 0.5)


def test_kernel_rows_sum_to_one_on_all_presets():
    for name, g in preset_zoo().items():
        kernel = hw.simple_walk_kernel(g)
        assert np.max(np.abs(kernel.matrix.sum(axis=1) - 1.0)) <= 1e-12, name


def test_kernel_symmetric_iff_regular():
    for g in (hw.build_cycle(6), hw.build_hypercube(3), hw.build_complete(5)):
        m = hw.simple_walk_kernel(g).matrix
        assert np.allclose(m, m.T)
    for g in (hw.build_path(4), hw.build_complete_bipartite(2, 3)):
        m = hw.simple_walk_kernel(g).matrix
        assert not np.allclose(m, m.T)


def test_kernel_requires_connected():
    with pytest.raises(NotConnectedError):
        hw.simple_walk_kernel(hw.Graph(4, ((0, 1), (2, 3))))


def test_weighted_walk_probabilities():
    g = hw.Graph(3, ((0, 1, 3.0), (0, 2, 1.0), (1, 2, 1.0)))
    kernel = hw.simple_walk_kernel(g)
    assert kernel.matrix[0, 1] == pytest.approx(0.75)
    assert kernel.matrix[0, 2] == pytest.approx(0.25)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arrays_match_edge_loop(seed):
    # reference: per-edge loops; sums are taken in the same order, so equal bits
    rng = np.random.default_rng(seed)
    n = 40
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(120)}
    pairs |= {(i, i + 1) for i in range(n - 1)}
    edges = [(v, u, float(rng.uniform(0.01, 5.0))) for u, v in pairs]
    g = hw.Graph(n, tuple(edges))
    adjacency, strengths, degrees = np.zeros((n, n)), np.zeros(n), np.zeros(n, dtype=int)
    for u, v, w in g.edges:
        adjacency[u, v] = adjacency[v, u] = w
        strengths[u] += w
        strengths[v] += w
        degrees[u] += 1
        degrees[v] += 1
    kernel = adjacency / strengths[:, None]
    assert g.edges == tuple(sorted((min(u, v), max(u, v), w) for u, v, w in edges))
    assert np.array_equal(g.adjacency_matrix(), adjacency)
    assert np.array_equal(g.strengths(), strengths)
    assert np.array_equal(g.degrees(), degrees)
    assert np.array_equal(hw.simple_walk_kernel(g).matrix, kernel)
    assert g.neighbors(3) == sorted(np.flatnonzero(adjacency[3]).tolist())


def test_kernel_rejects_off_edge_support(diamond):
    m = np.full((4, 4), 0.25)
    with pytest.raises(InvalidParameterError):
        hw.TransitionKernel(m, diamond)  # has diagonal mass and a 0-3 entry


# --- spec files --------------------------------------------------------------

def test_parse_explicit_spec():
    g = parse_graph_spec({"nodes": 3, "edges": [[0, 1], [1, 2, 2.0]]})
    assert g.node_count == 3
    assert g.edges[1] == (1, 2, 2.0)


def test_parse_preset_spec():
    g = parse_graph_spec({"preset": "cycle", "params": [5]})
    assert g.node_count == 5


def test_parse_rejects_unknown_keys():
    with pytest.raises(InvalidParameterError):
        parse_graph_spec({"nodes": 2, "edges": [[0, 1]], "directed": True})
    with pytest.raises(InvalidParameterError):
        parse_graph_spec({"preset": "cycle", "params": [5], "weight": 2})


def test_parse_rejects_bad_shapes():
    with pytest.raises(InvalidParameterError):
        parse_graph_spec({"nodes": 2})
    with pytest.raises(InvalidParameterError):
        parse_graph_spec({"nodes": 2, "edges": [[0]]})
    with pytest.raises(InvalidParameterError):
        preset_graph("moebius", [5])


def test_load_graph_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"preset": "complete", "params": [4]}))
    g, spec = load_graph_file(str(path))
    assert g.edge_count == 6
    assert canonical_graph_spec(spec) == '{"params":[4],"preset":"complete"}'
