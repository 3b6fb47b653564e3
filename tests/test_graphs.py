import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hitwalk as hw
from hitwalk.errors import InvalidParameterError, NotConnectedError
from hitwalk.graphs import PRESET_NAMES, _read_spec, canonical_graph_spec, parse_graph_spec, preset_graph

from conftest import cayley_closure, first_fault_by_edge, preset_zoo, regular_degree


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
        # a later edge breaks the edge rule: it is reported before any
        # structural fault, the edge's own included
        (((0, 0), (1, 2, "x")), "bad edge entry (1, 2, 'x'): weight must be a number"),
        (((0, 1), (2, 3), (1, 0, "x")), "bad edge entry (1, 0, 'x'): weight must be a number"),
        (((0, 1), (2, 3), (3, 3, None)), "bad edge entry (3, 3, None): weight must be a number"),
        # endpoints past int64 are out of range, with their exact values
        (((0, 1), (0, 2**70)), f"edge (0,{2**70}) endpoint out of range"),
        (((1, 2), (-(2**70), 3, 1.0), (1, 1)), f"edge ({-(2**70)},3) endpoint out of range"),
        (((0, 2**70), (1, 2, "x")), "bad edge entry (1, 2, 'x'): weight must be a number"),
        (((1, 2), (2**64, 0, None)), f"bad edge entry ({2**64}, 0, None): weight must be a number"),
        # a float endpoint is refused, not converted, infinite or not
        (((0, 0), (0, float("inf"))), "bad edge entry (0, inf): endpoints must be integers"),
        (((0, 1.5),), "bad edge entry (0, 1.5): endpoints must be integers"),
        (((0, 1, "2.5"), (1, 1)), "bad edge entry (0, 1, '2.5'): weight must be a number"),
        (((0, True), (1, 2)), "bad edge entry (0, True): endpoints must be integers"),
        (((0, 1, False),), "bad edge entry (0, 1, False): weight must be a number"),
        (((0, 1), [0, 1, 2, 3]), "bad edge entry [0, 1, 2, 3]"),
        (((0, 1), "01"), "bad edge entry '01'"),
        # an integer weight past the float range breaks the rule as well
        (((0, 0), (0, 1, 10**400)), "bad edge weight: int too large to convert to float"),
        # numpy scalars pass the rule, converted exactly
        (((np.int8(0), np.uint64(2**64 - 1)),), f"edge (0,{2**64 - 1}) endpoint out of range"),
        (((np.int32(1), 2, np.float32(-0.5)),), "edge (1,2) weight must be positive"),
        (((0, np.bool_(True)),), f"bad edge entry (0, {np.bool_(True)!r}): endpoints must be integers"),
    ],
)
def test_graph_reports_first_faulty_edge(edges, message):
    # two faults each: an edge that breaks the edge rule (a list or tuple of
    # two integers and an optional number, no bool) comes first, then the
    # structural faults in edge order, within an edge self-loop, range,
    # duplicate, weight
    with pytest.raises(InvalidParameterError) as info:
        hw.Graph(4, edges)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edges, error",
    [
        (((0, 1), (1, 2, None), (0, 1)), InvalidParameterError),
        (((0, 1), ("a", 3), (1, 0)), ValueError),
        (((1, 0), (2, 1, 1.0, 5), (0, 1)), ValueError),
        (((0, 1), 7, (1, 0)), InvalidParameterError),
    ],
)
def test_graph_raises_conversion_error_of_first_faulty_edge(edges, error):
    # the edge that breaks the edge rule comes before any other fault, and
    # is refused as bad input (InvalidParameterError is a ValueError)
    with pytest.raises(error) as info:
        hw.Graph(4, edges)
    with pytest.raises(InvalidParameterError) as expected:
        first_fault_by_edge(4, edges)
    assert type(info.value) is InvalidParameterError and str(info.value) == str(expected.value)


# values that pass the edge rule (ints, floats and numpy scalars), values
# that break it (1.5 and "3" as endpoints, "2.5" as a weight, bools, None,
# an integer weight past the float range), and ones that break a check
_EDGE_VALUES = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([
        2**70, -(2**64), 1.5, "3", "a", None, True, float("nan"), float("inf"), 10**400,
        np.int64(2), np.uint64(2**64 - 1), np.float64(1.0), np.bool_(False),
    ]),
)
_WEIGHTS = st.one_of(
    st.floats(-1.0, 4.0),
    st.sampled_from([
        1.0, 0.0, -0.0, float("nan"), float("inf"), "2.5", "x", None, False, 10**4, 10**400,
        np.int64(3), np.float32(0.5), np.bool_(True),
    ]),
)
_EDGES = st.one_of(
    st.tuples(_EDGE_VALUES, _EDGE_VALUES),
    st.tuples(_EDGE_VALUES, _EDGE_VALUES, _WEIGHTS),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(0.5, 2.0)),
    st.lists(st.integers(0, 3), max_size=4).map(tuple),
    st.sampled_from([7, None]),
)


@settings(max_examples=500)
@given(st.lists(_EDGES, max_size=8))
def test_graph_builds_or_raises_as_a_per_edge_reference(edges):
    try:
        u, v, w = first_fault_by_edge(4, edges)
    except InvalidParameterError as expected:
        with pytest.raises(InvalidParameterError) as info:
            hw.Graph(4, edges)
        assert str(info.value) == str(expected)
        return
    g = hw.Graph(4, edges)
    columns = hw.Graph._from_columns(4, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), np.array(w))
    assert g == columns
    for got, want in zip(g._arcs, columns._arcs):
        assert got.dtype == want.dtype and np.array_equal(got, want)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.sampled_from([2**32, 2**62, 2**70, 3037000499, 3037000500, 10**400]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS, lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=2), children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=500)
@given(
    st.one_of(st.integers(-1, 6), _JSON_SCALARS, _JSON_VALUES),
    st.one_of(st.lists(st.lists(st.integers(-1, 6) | _JSON_SCALARS, max_size=4), max_size=6), _JSON_VALUES),
)
def test_graph_spec_builds_or_raises_invalid_parameter(nodes, edges):
    # arbitrary JSON values: a Graph or InvalidParameterError, never another exception
    try:
        g = parse_graph_spec({"nodes": nodes, "edges": edges})
    except InvalidParameterError:
        return
    assert isinstance(g, hw.Graph) and g.node_count == nodes


@settings(max_examples=500)
@given(
    st.one_of(st.integers(-1, 6), _JSON_SCALARS, _JSON_VALUES),
    st.lists(st.lists(st.integers(-1, 6) | _JSON_SCALARS, max_size=4) | _JSON_VALUES, max_size=6),
)
@example(3, [[0, 1.5]])
@example(3, [[0, 1, "2.5"]])
@example(3, [[0, 0], [0, 1, 10**400]])
@example(3.0, [[0, 1]])
@example("3", [[0, 1]])
@example(True, [[0, 1]])
def test_graph_spec_and_graph_follow_one_rule(nodes, edges):
    # the spec parser checks the spec's shape and Graph every value: a JSON
    # edge list builds the same graph both ways, or is refused with one message
    try:
        parsed = parse_graph_spec({"nodes": nodes, "edges": edges})
    except InvalidParameterError as refused:
        with pytest.raises(InvalidParameterError) as info:
            hw.Graph(nodes, edges)
        assert str(info.value) == str(refused)
        return
    g = hw.Graph(nodes, edges)
    assert g == parsed
    for got, want in zip(g._arcs, parsed._arcs):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("nodes", [3.0, "3", True, None, np.float64(3.0), np.bool_(True)])
def test_graph_node_count_follows_the_endpoint_rule(nodes):
    with pytest.raises(InvalidParameterError, match="^'nodes' must be an integer$"):
        hw.Graph(nodes, [(0, 1)])


def test_graph_node_count_may_be_a_numpy_integer():
    g = hw.Graph(np.uint64(3), [(np.int64(0), 1), (1, np.uint8(2), np.float32(0.5))])
    assert type(g.node_count) is int and g == hw.Graph(3, [(0, 1), (1, 2, 0.5)])


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
    assert np.flatnonzero(hw.build_path(3).adjacency_matrix()[1]).tolist() == [0, 2]
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
    assert regular_degree(g) == 3
    # node 0b101 differs from each neighbour in one bit
    assert np.flatnonzero(g.adjacency_matrix()[0b101]).tolist() == [0b001, 0b100, 0b111]
    assert g.labels is None


def test_torus_counts():
    std = hw.build_torus_standard(3)
    assert std.node_count == 9 and std.edge_count == 18  # 4-regular => 4*9/2
    dia = hw.build_torus_diagonal(3)
    assert dia.node_count == 9 and dia.edge_count == 18
    assert regular_degree(std) == regular_degree(dia) == 4


def test_torus_diagonal_neighbors_p5():
    # node (a, b) is a * p + b
    g = hw.build_torus_diagonal(5)
    nbrs = {divmod(int(i), 5) for i in np.flatnonzero(g.adjacency_matrix()[0])}
    assert nbrs == {(1, 1), (1, 4), (4, 1), (4, 4)}
    assert g.labels is None


def test_torus_diagonal_rejects_even_p():
    with pytest.raises(InvalidParameterError):
        hw.build_torus_diagonal(4)


# --- Cayley presets ---------------------------------------------------------

@pytest.mark.parametrize(
    "preset, degree, generators",
    [(hw.cayley_s3, 3, [[(1, 3)], [(1, 2, 3)]]), (hw.cayley_d8, 4, [[(1, 2, 3, 4)], [(1, 4), (2, 3)]])],
    ids=["cayley_s3", "cayley_d8"],
)
def test_cayley_preset_is_its_closure(preset, degree, generators):
    # the fixed table keeps the closure's node order, edges and labels
    g, reference = preset(), cayley_closure(degree, generators)
    assert g == reference
    assert g.labels == reference.labels and g.edges == reference.edges


def test_cayley_d8_preset_shape():
    g = hw.cayley_d8()
    assert g.node_count == 8
    assert regular_degree(g) == 3
    assert "(1 4)(2 3)" in g.labels


def test_cayley_s3_preset_shape():
    g = hw.cayley_s3()
    assert g.node_count == 6
    assert regular_degree(g) == 3
    assert g.labels[0] == "e"


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


def test_disconnected_walk_rejected_where_it_is_used():
    # the kernel of a disconnected graph builds; each answer that needs the
    # target reachable refuses it (two edges: walk-regular, so only the
    # connectivity check stops the dense spectral functions)
    g = hw.Graph(4, ((0, 1), (2, 3)))
    assert not g.connected
    kernel = hw.simple_walk_kernel(g)
    answers = {
        "make_absorbing": lambda: hw.make_absorbing(kernel, 0),
        "lumped_absorbing": lambda: hw.lumped_absorbing(kernel, 0),
        "simulate": lambda: hw.simulate(kernel, 1, 0, hw.SimConfig(trials=10, master_seed=1, step_cap=50)),
        "gf_series": lambda: hw.gf_series(g, 1, 0, 10),
        "rational_gf": lambda: hw.rational_gf(g, np.zeros(2 * g.node_count + 1)),
        "trace_powers": lambda: hw.trace_powers(g, 5),
        "mn_sequence": lambda: hw.mn_sequence(g, 5),
    }
    for name, answer in answers.items():
        with pytest.raises(NotConnectedError):
            answer()
            pytest.fail(f"{name} answered")


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


def test_edges_are_built_on_first_read():
    g = hw.Graph(4, ((3, 1, 2.0), (0, 1), (2, 0, 0.5)), labels=("a", "b", "c", "d"))
    assert "edges" not in vars(g)
    assert g.edge_count == 3 and g.connected and "edges" not in vars(g)
    assert g.edges == ((0, 1, 1.0), (0, 2, 0.5), (1, 3, 2.0))
    assert "edges" in vars(g)
    twin = hw.Graph(4, [(1, 0), (0, 2, 0.5), (1, 3, 2.0)], labels=["a", "b", "c", "d"])
    assert "edges" not in vars(twin)
    # equality, hashing and repr read the edges as fields
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert g != hw.Graph(4, ((0, 1), (0, 2, 0.5), (1, 3, 3.0)), labels=g.labels)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edges = ()
    with pytest.raises(AttributeError, match="no attribute 'edge'"):
        g.edge


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


PRESET_PARAMS = {"bipartite": [3, 4], "cayley_s3": [], "cayley_d8": []}


def test_preset_table_names_and_arity():
    assert PRESET_NAMES == (
        "cycle", "path", "complete", "bipartite", "hypercube", "torus_std", "torus_diag", "cayley_s3", "cayley_d8",
    )
    for name in PRESET_NAMES:
        params = PRESET_PARAMS.get(name, [5])
        assert parse_graph_spec({"preset": name, "params": params}) == preset_graph(name, params)
        for wrong in (params + [5], params[1:]):
            if wrong != params:
                with pytest.raises(InvalidParameterError, match=f"takes {len(params)} integer"):
                    preset_graph(name, wrong)


@pytest.mark.parametrize("params", [[5.0], [5.5], [True], [None], ["5"], "5", 5, {"k": 5}, [np.int64(5)]])
def test_preset_params_must_be_json_integers(params):
    # a value that would convert to an integer is refused, not converted
    with pytest.raises(InvalidParameterError, match="preset cycle takes 1 integer parameter"):
        preset_graph("cycle", params)

def test_load_graph_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"preset": "complete", "params": [4]}))
    spec = _read_spec(str(path))
    g = parse_graph_spec(spec)
    assert g.edge_count == 6
    assert canonical_graph_spec(spec) == '{"params":[4],"preset":"complete"}'


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"nodes": 3, "edges": [[0, 1.7], [1, 2]]}, "bad edge entry [0, 1.7]: endpoints must be integers"),
        ({"nodes": 3, "edges": [[1, 2], ["0", 1]]}, "bad edge entry ['0', 1]: endpoints must be integers"),
        ({"nodes": 3, "edges": [[0, True], [1, 2]]}, "bad edge entry [0, True]: endpoints must be integers"),
        ({"nodes": 3, "edges": [[0, 1, "2.5"], [1, 2]]}, "bad edge entry [0, 1, '2.5']: weight must be a number"),
        ({"nodes": 3, "edges": [[0, 1], [1, 2, False]]}, "bad edge entry [1, 2, False]: weight must be a number"),
        ({"nodes": 3, "edges": [[0, 1, None]]}, "bad edge entry [0, 1, None]: weight must be a number"),
        ({"nodes": True, "edges": []}, "'nodes' must be an integer"),
        ({"nodes": 2.0, "edges": [[0, 1]]}, "'nodes' must be an integer"),
    ],
)
def test_parse_rejects_values_it_would_convert(spec, message):
    # JSON that names a different graph once converted is refused, not coerced
    with pytest.raises(InvalidParameterError) as info:
        parse_graph_spec(spec)
    assert str(info.value) == message


def test_parse_keeps_json_numbers():
    g = parse_graph_spec({"nodes": 3, "edges": [[0, 1, 2], [1, 2, 0.5]]})
    assert g.edges == ((0, 1, 2.0), (1, 2, 0.5))
