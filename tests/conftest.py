import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

import hitwalk as hw
from hitwalk.errors import InvalidParameterError
from hitwalk.graphs import preset_graph

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


# the path 0 - 1 - 2 whose step 1 -> 0 underflows: 1e-300 / (1e300 + 1e-300)
# is 0 in float64, so the walk's support is directed, 0 -> 1 <-> 2, and
# target 0 is unreachable from nodes 1 and 2
UNDERFLOW_EDGES = ((0, 1, 1e-300), (1, 2, 1e300))


@pytest.fixture
def underflow_path():
    return hw.Graph(3, UNDERFLOW_EDGES)


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


def cayley_closure(degree, generators):
    """Cayley graph of the group that ``generators`` generate on {1..degree},
    each generator a list of 1-based disjoint cycles, with each generator's
    inverse added after it when missing.  Elements are numbered breadth-first
    from the identity, generators in that order, and labelled in 1-based
    cycle notation ("e" for the identity): the numbering the fixed tables
    ``cayley_s3`` and ``cayley_d8`` copy.  The element g * c applies c first."""
    connection = []
    for cycles in generators:
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b - 1
        inverse = [0] * degree
        for i, x in enumerate(images):
            inverse[x] = i
        connection += [c for c in (tuple(images), tuple(inverse)) if c not in connection]
    order = [tuple(range(degree))]
    index = {order[0]: 0}
    edges = set()
    for g in order:  # grows while it is read: a breadth-first queue
        for c in connection:
            h = tuple(g[x] for x in c)
            if h not in index:
                index[h] = len(order)
                order.append(h)
            edges.add((min(index[g], index[h]), max(index[g], index[h])))

    def notation(perm):
        parts, seen = [], set()
        for start in range(degree):
            if start not in seen and perm[start] != start:
                cycle = [start]
                while perm[cycle[-1]] != start:
                    cycle.append(perm[cycle[-1]])
                seen.update(cycle)
                parts.append("(" + " ".join(str(x + 1) for x in cycle) + ")")
        return "".join(parts) or "e"

    return hw.Graph(len(order), tuple(sorted(edges)), labels=tuple(map(notation, order)))


def first_fault_by_edge(node_count, edges):
    """Columns (u, v, w) of ``edges``, checked one edge at a time as
    ``Graph`` documents it: first every edge by the edge rule (a list or
    tuple ``(u, v)`` or ``(u, v, w)``, u and v integers, w a number that
    fits a float, numpy scalars included and bools never), then, in edge
    order, self-loop, range, duplicate and weight.  Raises at the first
    fault."""
    checked = []
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise InvalidParameterError(f"bad edge entry {edge!r}")
        u, v, w = (*edge, 1.0)[:3]
        if any(isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)) for x in (u, v)):
            raise InvalidParameterError(f"bad edge entry {edge!r}: endpoints must be integers")
        if isinstance(w, (bool, np.bool_)) or not isinstance(w, (int, float, np.integer, np.floating)):
            raise InvalidParameterError(f"bad edge entry {edge!r}: weight must be a number")
        try:
            w = float(w)
        except OverflowError as exc:
            raise InvalidParameterError(f"bad edge weight: {exc}") from None
        checked.append((int(u), int(v), w))
    columns = ([], [], [])
    seen = set()
    for u, v, w in checked:
        if u == v:
            raise InvalidParameterError(f"self-loop at node {u}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise InvalidParameterError(f"edge ({u},{v}) endpoint out of range")
        if (min(u, v), max(u, v)) in seen:
            raise InvalidParameterError(f"duplicate edge ({min(u, v)},{max(u, v)})")
        seen.add((min(u, v), max(u, v)))
        if not w > 0.0 or not np.isfinite(w):
            raise InvalidParameterError(f"edge ({min(u, v)},{max(u, v)}) weight must be positive")
        for column, value in zip(columns, (u, v, w)):
            column.append(value)
    return columns


def coarsest_equitable_partition(kernel, target):
    """Class of each node in the coarsest equitable partition that keeps
    the target alone, classes numbered by their smallest nodes: plain
    synchronous refinement from {target} and the rest, splitting every
    class by each node's exact multiset of (neighbour class, step
    probability) until no class splits."""
    arcs = [[] for _ in range(kernel.node_count)]
    heads, tails = kernel.support
    for head, tail, prob in zip(heads.tolist(), tails.tolist(), kernel.values.tolist()):
        arcs[head].append((tail, prob))
    cells = [int(node != target) for node in range(kernel.node_count)]
    while True:
        ids = {}
        signatures = [(cells[n], tuple(sorted((cells[t], p) for t, p in arcs[n]))) for n in range(kernel.node_count)]
        refined = [ids.setdefault(sig, len(ids)) for sig in signatures]
        if len(ids) == len(set(cells)):
            return refined
        cells = refined


def chang_graph():
    """A Chang graph: the triangular graph T(8) switched on a perfect matching
    of K_8.  Strongly regular (28, 12, 6, 4), hence walk-regular, but not
    vertex-transitive: nodes lie in 32 or 36 copies of K_4."""
    pairs = list(itertools.combinations(range(8), 2))
    switched = {(0, 1), (2, 3), (4, 5), (6, 7)}
    return hw.Graph(28, tuple(
        (a, b)
        for a, b in itertools.combinations(range(28), 2)
        if bool(set(pairs[a]) & set(pairs[b])) != ((pairs[a] in switched) != (pairs[b] in switched))
    ))


def regular_degree(graph):
    """The common degree of a regular graph, else None; a dense walk
    matrix of a regular graph is ``graph.adjacency_matrix() / degree``."""
    d = graph.degrees()
    return int(d[0]) if d.size and np.all(d == d[0]) else None


def exact_first_passage(graph, start, target, horizon):
    """P(tau = n), n = 1..horizon, of the simple walk on a regular graph
    with unit weights, each correctly rounded.

    c_n[x] counts the n-step walks from start to x that avoid the target,
    c_n = A' c_{n-1} with A' the adjacency matrix without the target's row
    and column, in Python ints.  f_n = sum_{x ~ target} c_{n-1}[x] counts
    the walks that first reach the target at step n, so P(tau = n) is
    f_n / d^n, rounded once by Python's int division.  O(N E) additions.
    """
    d = regular_degree(graph)
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


def _bipartite_sides(preset, target):
    """(case, k2) of a start on ``bipartite:k1:k2`` with the target on the
    side of size k2 (closed_bipartite's cases)."""
    k1, k2 = (int(p) for p in preset.split(":")[1:])
    assert target >= k1, "the target must lie on the second side"
    return k2, lambda start: "same-side" if start >= k1 else "cross"


def exact_pmf(preset, start, target, horizon):
    """P(tau = n), n = 1..horizon, each correctly rounded: the closed form
    in Fractions on ``bipartite`` presets, first-passage walk counts on the
    other (regular) presets."""
    name, *params = preset.split(":")
    if name != "bipartite":
        return exact_first_passage(preset_graph(name, [int(p) for p in params]), start, target, horizon)
    k2, case = _bipartite_sides(preset, target)
    # hits come every other step: each round of two steps hits with chance 1/k2
    parity = 1 if case(start) == "cross" else 0
    stay = Fraction(k2 - 1, k2)
    return np.array([
        float(stay ** ((n + parity) // 2 - 1) / k2) if n % 2 == parity else 0.0
        for n in range(1, horizon + 1)
    ])


def exact_moments(preset, target):
    """{start: (mean, second moment, variance)} of tau as Fractions, for every
    start on a preset with unit weights.

    ``bipartite``: tau = 2R - 1 (cross) or 2R (same side) with R geometric
    of success 1/k2.  Otherwise :func:`exact_walk_moments` of the built graph.
    """
    name, *params = preset.split(":")
    graph = preset_graph(name, [int(p) for p in params])
    if name == "bipartite":
        k2, case = _bipartite_sides(preset, target)
        out = {}
        for n in range(graph.node_count):
            if n != target:
                shift = 1 if case(n) == "cross" else 0
                mean = Fraction(2 * k2 - shift)
                second = 4 * Fraction(2 * k2 * k2 - k2) - 4 * shift * k2 + shift
                out[n] = (mean, second, second - mean * mean)
        return out
    return exact_walk_moments(graph, target)


def exact_walk_moments(graph, target):
    """{start: (mean, second moment, variance)} of tau as Fractions, for every
    start of the walk on ``graph`` (no self-loops), each float weight taken
    exactly: (I - Q) mean = 1 and (I - Q) second = 1 + 2 Q mean (first-step
    analysis) are solved by Gaussian elimination in Fractions over the
    sparse rows of I - Q.
    """
    weights = [{} for _ in range(graph.node_count)]
    for a, b, w in graph.edges:
        weights[a][b] = weights[a].get(b, 0) + Fraction(w)
        weights[b][a] = weights[b].get(a, 0) + Fraction(w)
    states = [n for n in range(graph.node_count) if n != target]
    index = {n: i for i, n in enumerate(states)}
    # Q's rows: the step probabilities into every state but the target
    q = [{index[m]: w / sum(weights[n].values()) for m, w in weights[n].items() if m != target} for n in states]

    def q_times(x):
        return [sum((p * x[j] for j, p in row.items()), Fraction(0)) for row in q]

    # I - Q as sparse rows, reduced to upper triangular form once; the
    # recorded multipliers are replayed on each right-hand side
    rows = [{i: Fraction(1)} for i in range(len(states))]
    for row, q_row in zip(rows, q):
        for j, p in q_row.items():
            row[j] = row.get(j, 0) - p
    steps = []
    for k, pivot_row in enumerate(rows):
        for i in range(k + 1, len(rows)):
            if rows[i].get(k):
                f = rows[i][k] / pivot_row[k]
                for j, x in pivot_row.items():
                    rows[i][j] = rows[i].get(j, 0) - f * x
                steps.append((i, k, f))

    def solve(rhs):
        b = list(rhs)
        for i, k, f in steps:
            b[i] -= f * b[k]
        x = [Fraction(0)] * len(b)
        for k in reversed(range(len(b))):
            x[k] = (b[k] - sum(v * x[j] for j, v in rows[k].items() if j > k)) / rows[k][k]
        return x

    mean = solve([Fraction(1)] * len(states))
    second = solve([1 + 2 * x for x in q_times(mean)])
    return {n: (m, s, s - m * m) for n, m, s in zip(states, mean, second)}


def ehrenfest_pmf(dim, distance, horizon):
    """P(tau = n), n = 1..horizon, as Fractions, for the walk on the
    dim-cube started ``distance`` bits from its target: the Ehrenfest urn
    (Kac, Amer. Math. Monthly 54, 1947), which from d moves to d - 1 with
    chance d / dim and to d + 1 otherwise, absorbed at 0.  ``walks[d]``
    counts the target-avoiding coordinate sequences that end d bits away;
    walks[0] stays 0, the target absorbing."""
    walks = [0] * (dim + 2)
    walks[distance] = 1
    out = []
    for n in range(1, horizon + 1):
        out.append(Fraction(walks[1], dim**n))
        walks = [0] + [walks[d + 1] * (d + 1) + walks[d - 1] * (dim - d + 1) for d in range(1, dim + 1)] + [0]
    return out
