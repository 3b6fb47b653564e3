"""Array-built preset graphs and the sparse walk kernel, against the
tuple-per-edge builders and the dense kernel they replaced."""
import tracemalloc

import numpy as np
import pytest

import hitwalk as hw
from hitwalk import cli, hitting
from hitwalk.errors import GraphTooLargeError, InvalidParameterError
from hitwalk.graphs import TransitionKernel, preset_graph


# --- reference: one Python tuple per edge ------------------------------------

def tuple_cycle(k):
    return hw.Graph(k, tuple((i, (i + 1) % k) for i in range(k)))


def tuple_path(k):
    return hw.Graph(k, tuple((i, i + 1) for i in range(k - 1)))


def tuple_complete(k):
    return hw.Graph(k, tuple((i, j) for i in range(k) for j in range(i + 1, k)))


def tuple_bipartite(k1, k2):
    return hw.Graph(k1 + k2, tuple((i, k1 + j) for i in range(k1) for j in range(k2)))


def tuple_hypercube(dim):
    n = 1 << dim
    edges = [(i, i ^ (1 << b)) for i in range(n) for b in range(dim) if i < i ^ (1 << b)]
    return hw.Graph(n, tuple(edges))


def tuple_torus(p, steps):
    edges = set()
    for a in range(p):
        for b in range(p):
            i = a * p + b
            for da, db in steps:
                j = ((a + da) % p) * p + (b + db) % p
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return hw.Graph(p * p, tuple(sorted(edges)))


def dense_walk(g):
    """The simple-walk matrix as the dense kernel built it."""
    heads, tails, weights = g._arcs
    m = np.zeros((g.node_count, g.node_count))
    m[heads, tails] = weights / g.strengths()[heads]
    return m


CASES = [
    ("cycle", [3], tuple_cycle(3)),
    ("cycle", [4], tuple_cycle(4)),
    ("cycle", [57], tuple_cycle(57)),
    ("path", [2], tuple_path(2)),
    ("path", [3], tuple_path(3)),
    ("path", [300], tuple_path(300)),
    ("complete", [2], tuple_complete(2)),
    ("complete", [3], tuple_complete(3)),
    ("complete", [41], tuple_complete(41)),
    ("bipartite", [1, 1], tuple_bipartite(1, 1)),
    ("bipartite", [1, 2], tuple_bipartite(1, 2)),
    ("bipartite", [2, 1], tuple_bipartite(2, 1)),
    ("bipartite", [13, 27], tuple_bipartite(13, 27)),
    ("hypercube", [1], tuple_hypercube(1)),
    ("hypercube", [2], tuple_hypercube(2)),
    ("hypercube", [8], tuple_hypercube(8)),
    ("torus_std", [3], tuple_torus(3, [(1, 0), (-1, 0), (0, 1), (0, -1)])),
    ("torus_std", [4], tuple_torus(4, [(1, 0), (-1, 0), (0, 1), (0, -1)])),
    ("torus_std", [17], tuple_torus(17, [(1, 0), (-1, 0), (0, 1), (0, -1)])),
    ("torus_diag", [3], tuple_torus(3, [(1, 1), (1, -1), (-1, 1), (-1, -1)])),
    ("torus_diag", [5], tuple_torus(5, [(1, 1), (1, -1), (-1, 1), (-1, -1)])),
    ("torus_diag", [19], tuple_torus(19, [(1, 1), (1, -1), (-1, 1), (-1, -1)])),
]


@pytest.mark.parametrize("name, params, reference", CASES, ids=[f"{c[0]}{c[1]}" for c in CASES])
def test_array_builders_match_tuple_builders(name, params, reference):
    g = preset_graph(name, params)
    assert g.edges == reference.edges
    for got, want in zip(g._arcs, reference._arcs):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert g.labels is None
    assert g.connected == reference.connected
    assert g == reference and hash(g) == hash(reference) and repr(g) == repr(reference)
    kernel = hw.simple_walk_kernel(g)
    assert np.array_equal(kernel.matrix, dense_walk(reference))


def test_columns_run_the_tuple_checks():
    # one validation core: columns report the first fault as tuples do
    u, v = np.array([0, 2, 1, 3]), np.array([1, 1, 2, 3])
    with pytest.raises(InvalidParameterError, match=r"^duplicate edge \(1,2\)$"):
        hw.Graph._from_columns(4, u, v)
    with pytest.raises(InvalidParameterError, match=r"^duplicate edge \(1,2\)$"):
        hw.Graph(4, tuple(zip(u.tolist(), v.tolist())))
    with pytest.raises(InvalidParameterError, match=r"^edge \(0,1\) weight must be positive$"):
        hw.Graph._from_columns(3, np.array([1, 1]), np.array([0, 2]), np.array([-1.0, 1.0]))
    # labels come through the constructor alone, checked there
    with pytest.raises(InvalidParameterError, match="label count"):
        hw.Graph(3, ((0, 1), (1, 2)), labels=("a", "b"))
    with pytest.raises(InvalidParameterError, match="at least one node"):
        hw.Graph._from_columns(0, np.array([], dtype=int), np.array([], dtype=int))


# --- the sparse kernel ----------------------------------------------------------

def test_kernel_stores_arc_values(diamond):
    kernel = hw.simple_walk_kernel(diamond)
    heads, tails = kernel.support
    assert np.array_equal(kernel.values, dense_walk(diamond)[heads, tails])
    assert kernel._matrix is None  # not built until read
    m = kernel.matrix
    assert m is kernel.matrix and not m.flags.writeable
    with pytest.raises(AttributeError):
        kernel.matrix = np.eye(4)
    with pytest.raises(ValueError):
        kernel.values[0] = 1.0


def test_simple_walk_kernel_checks_row_sums():
    # a lone node has no arc to step along
    with pytest.raises(InvalidParameterError, match="rows must sum to 1"):
        hw.simple_walk_kernel(hw.Graph(1, ()))
    # and the error names it, here the last node of a path 0-1-2
    with pytest.raises(InvalidParameterError, match="^node 3 is on no edge: kernel rows must sum to 1"):
        hw.simple_walk_kernel(hw.Graph(4, ((0, 1), (1, 2))))


def test_kernel_of_a_long_path_stays_small():
    g = hw.build_path(3000)
    tracemalloc.start()
    try:
        hw.simple_walk_kernel(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense kernel alone is 3000^2 doubles, 69 MiB
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "args",
    [
        ["pmf", "--preset", "torus_std:7", "--from", "9", "--to", "0", "--engine", "direct"],
        ["pmf", "--preset", "path:9", "--from", "8", "--to", "0", "--engine", "direct"],
        ["moments", "--preset", "bipartite:3:5", "--to", "0"],
        ["moments", "--preset", "hypercube:4", "--to", "5", "--from", "0"],
        ["ctime", "--preset", "cycle:8", "--to", "0", "--t-grid", "0:4:5"],
        ["ctime", "--preset", "complete:6", "--to", "2", "--from", "1", "--t-grid", "0:2:3"],
    ],
)
def test_direct_queries_never_read_the_dense_kernel(monkeypatch, capsys, args):
    def refuse(self):
        raise AssertionError("the dense kernel was read")

    monkeypatch.setattr(TransitionKernel, "matrix", property(refuse))
    assert cli.main(args) == 0, capsys.readouterr().err


# --- the equitable-partition key ------------------------------------------------

def test_signature_key_guard(monkeypatch):
    kernel = hw.simple_walk_kernel(hw.build_torus_standard(5))
    system, rows = hw.lumped_absorbing(kernel, 0)
    # the key stays below V * V * (distinct step probabilities)
    monkeypatch.setattr(hitting, "_SIGNATURE_KEY_LIMIT", 25 * 25 * 1)
    patched, patched_rows = hw.lumped_absorbing(kernel, 0)
    assert np.array_equal(patched.q_matrix, system.q_matrix) and np.array_equal(patched_rows, rows)
    monkeypatch.setattr(hitting, "_SIGNATURE_KEY_LIMIT", 100)
    with pytest.raises(GraphTooLargeError, match="signature key"):
        hw.lumped_absorbing(kernel, 0)
    # no refinement, no key: the unlumped system is unaffected
    assert hw.make_absorbing(kernel, 0).size == 24
