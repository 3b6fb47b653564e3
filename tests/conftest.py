import numpy as np
import pytest
from hypothesis import settings

import hitwalk as hw

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def diamond():
    """Four-node worked example: K_4 minus the {0,3} edge.

    With target 0 the reduced system is
        Q = [[0, 1/3, 1/3], [1/3, 0, 1/3], [1/2, 1/2, 0]],
        P1 = (1/3, 1/3, 0).
    """
    return hw.Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))


@pytest.fixture
def diamond_system(diamond):
    return hw.make_absorbing(hw.simple_walk_kernel(diamond), 0)


def preset_zoo(max_nodes=None):
    """Small instances of every preset family, for sweep tests."""
    graphs = {
        "cycle3": hw.build_cycle(3),
        "cycle4": hw.build_cycle(4),
        "cycle6": hw.build_cycle(6),
        "path2": hw.build_path(2),
        "path4": hw.build_path(4),
        "path6": hw.build_path(6),
        "complete2": hw.build_complete(2),
        "complete4": hw.build_complete(4),
        "complete6": hw.build_complete(6),
        "bipartite_1_2": hw.build_complete_bipartite(1, 2),
        "bipartite_2_3": hw.build_complete_bipartite(2, 3),
        "hypercube1": hw.build_hypercube(1),
        "hypercube2": hw.build_hypercube(2),
        "hypercube3": hw.build_hypercube(3),
        "torus_std3": hw.build_torus_standard(3),
        "torus_diag3": hw.build_torus_diagonal(3),
        "cayley_s3": hw.cayley_s3(),
        "cayley_d8": hw.cayley_d8(),
    }
    if max_nodes is not None:
        graphs = {k: g for k, g in graphs.items() if g.node_count <= max_nodes}
    return graphs


def exact_first_passage(graph, start, target, horizon):
    """P(tau = n), n = 1..horizon, of the simple walk on a regular graph
    with unit weights, each correctly rounded.

    c_n[x] counts the n-step walks from start to x that avoid the target,
    c_n = A' c_{n-1} with A' the adjacency matrix without the target's row
    and column, in Python ints.  f_n = sum_{x ~ target} c_{n-1}[x] counts
    the walks that first reach the target at step n, so P(tau = n) is
    f_n / d^n, rounded once by Python's int division.  O(N E) additions.
    """
    d = graph.regular_degree()
    assert d is not None and all(w == 1.0 for _, _, w in graph.edges)
    v = graph.node_count
    neighbours = [[] for _ in range(v)]
    for a, b, _ in graph.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    # slot v always holds 0: it stands in for the target in every row,
    # and the target's own row reads only it
    table = np.array([[v if y == target else y for y in row] for row in neighbours])
    table[target] = v
    into_target = np.array(neighbours[target])
    counts = np.zeros(v + 1, dtype=object)
    counts[start] = 1
    walks = 1
    out = []
    for _ in range(horizon):
        walks *= d
        out.append(int(counts[into_target].sum()) / walks)
        counts[:v] = counts[table].sum(axis=1)
    return np.array(out)
