"""Graphs, transition kernels and the preset families.

Nodes are dense integer indices ``0..V-1``; group elements, bit vectors
and torus coordinates are carried as display labels attached to indices.
Graphs are immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter

import numpy as np

from .errors import (
    GroupTooLargeError,
    InvalidParameterError,
    NotConnectedError,
)

__all__ = [
    "Graph",
    "TransitionKernel",
    "PermutationGroupSpec",
    "build_cycle",
    "build_path",
    "build_complete",
    "build_complete_bipartite",
    "build_hypercube",
    "build_torus_standard",
    "build_torus_diagonal",
    "build_cayley",
    "simple_walk_kernel",
    "perm_from_cycles",
    "cycle_notation",
    "symmetric_closure",
    "cayley_s3",
    "cayley_d8",
    "PRESET_NAMES",
    "preset_graph",
    "parse_graph_spec",
    "load_graph_file",
    "canonical_graph_spec",
]

ROW_SUM_TOL = 1e-12
# build_cayley enumerates at most this many group elements.
_CLOSURE_BOUND = 10080


def _int_column(edges, pos: int) -> np.ndarray:
    """``int(edge[pos])`` of every edge; Python ints beyond int64 stay exact
    (object dtype), so they fail the range check, not the conversion."""
    try:
        return np.fromiter(map(int, map(itemgetter(pos), edges)), np.int64, len(edges))
    except OverflowError:
        return np.array([int(e[pos]) for e in edges], dtype=object)


def _edge_columns(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoints ``int(u)``, ``int(v)`` and weight ``float(w)`` (1.0 for a
    pair) of each ``(u, v)`` pair and ``(u, v, w)`` triple."""
    count = len(edges)
    arity = np.fromiter(map(len, edges), np.intp, count)
    if np.any((arity != 2) & (arity != 3)):
        raise ValueError("an edge is (u, v) or (u, v, weight)")
    triples = arity == 3
    weights = np.ones(count)
    weights[triples] = np.fromiter(
        map(float, map(itemgetter(2), compress(edges, triples))), float, int(triples.sum())
    )
    return _int_column(edges, 0), _int_column(edges, 1), weights


def _first_fault(node_count: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> str | None:
    """Message of the first faulty edge, checked in edge order and, within an
    edge, for a self-loop, an endpoint out of range, a repeat of an earlier
    edge, then a weight that is not positive and finite."""
    loop = u == v
    outside = (u < 0) | (u >= node_count) | (v < 0) | (v >= node_count)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # an edge out of range is reported as such, so its key only has to
    # stay clear of every valid key
    key = np.where(outside, -1, lo * node_count + hi).astype(np.int64)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    repeat = first[inverse] != np.arange(len(key))
    bad_weight = ~(w > 0.0) | ~np.isfinite(w)
    faulty = np.flatnonzero(loop | outside | repeat | bad_weight)
    if not faulty.size:
        return None
    i = faulty[0]
    if loop[i]:
        return f"self-loop at node {u[i]}"
    if outside[i]:
        return f"edge ({u[i]},{v[i]}) endpoint out of range"
    if repeat[i]:
        return f"duplicate edge ({lo[i]},{hi[i]})"
    return f"edge ({lo[i]},{hi[i]}) weight must be positive"


def _raise_first_fault_by_edge(node_count: int, edges) -> None:
    """Convert and check the edges one at a time and raise at the first
    fault, a value that does not convert included.  The slow path for
    edges that ``_edge_columns`` cannot convert: an earlier faulty edge is
    still the one reported."""
    seen = set()
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = 1.0
        else:
            u, v, w = edge
        u, v = int(u), int(v)
        if u == v:
            raise InvalidParameterError(f"self-loop at node {u}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise InvalidParameterError(f"edge ({u},{v}) endpoint out of range")
        u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            raise InvalidParameterError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        w = float(w)
        if not w > 0.0 or not np.isfinite(w):
            raise InvalidParameterError(f"edge ({u},{v}) weight must be positive")


def _reached(node_count: int, heads: np.ndarray, tails: np.ndarray, source: int) -> np.ndarray:
    """Mask of the nodes reached from ``source`` along the arcs
    ``heads[k] -> tails[k]``, by a breadth-first frontier search: each
    level costs one pass over the arcs, so the search is O(depth * arcs),
    O(diameter * E) on a connected graph."""
    seen = np.zeros(node_count, dtype=bool)
    seen[source] = True
    frontier = seen
    while True:
        step = np.zeros(node_count, dtype=bool)
        step[tails[frontier[heads]]] = True
        frontier = step & ~seen
        if not frontier.any():
            return seen
        seen |= frontier


@dataclass(frozen=True)
class Graph:
    """Finite undirected weighted graph.

    ``edges`` holds ``(u, v, weight)`` triples normalized to ``u < v``.
    Self-loops, duplicate edges and nonpositive weights are rejected; the
    first faulty edge in input order is reported.  Connectivity is
    computed once at construction.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...] | None = None
    connected: bool = field(init=False)
    # both directions of every edge, sorted by (head, tail): heads, tails, weights
    _arcs: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise InvalidParameterError("graph needs at least one node")
        try:
            u, v, w = _edge_columns(self.edges)
        except (ValueError, TypeError):
            _raise_first_fault_by_edge(self.node_count, self.edges)
            raise
        fault = _first_fault(self.node_count, u, v, w)
        if fault is not None:
            raise InvalidParameterError(fault)
        lo = np.minimum(u, v).astype(np.int64)
        hi = np.maximum(u, v).astype(np.int64)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        object.__setattr__(self, "edges", tuple(zip(lo.tolist(), hi.tolist(), w.tolist())))
        if self.labels is not None:
            if len(self.labels) != self.node_count:
                raise InvalidParameterError("label count must equal node count")
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        heads, tails = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.lexsort((tails, heads))
        arcs = (heads[order], tails[order], np.concatenate([w, w])[order])
        for arr in arcs:
            arr.setflags(write=False)
        object.__setattr__(self, "_arcs", arcs)
        reached = _reached(self.node_count, arcs[0], arcs[1], 0)
        object.__setattr__(self, "connected", bool(reached.all()))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency_matrix(self) -> np.ndarray:
        """Weighted symmetric adjacency matrix."""
        heads, tails, weights = self._arcs
        a = np.zeros((self.node_count, self.node_count))
        a[heads, tails] = weights
        return a

    def degrees(self) -> np.ndarray:
        """Number of incident edges per node (weights ignored)."""
        return np.bincount(self._arcs[0], minlength=self.node_count)

    def strengths(self) -> np.ndarray:
        """Sum of incident edge weights per node."""
        # each node's weights are added in edge order, as a loop over edges would
        heads, _, weights = self._arcs
        return np.bincount(heads, weights=weights, minlength=self.node_count)

    def neighbors(self, i: int) -> list[int]:
        heads, tails, _ = self._arcs
        return tails[heads == i].tolist()

    def regular_degree(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        d = self.degrees()
        if self.node_count and np.all(d == d[0]):
            return int(d[0])
        return None

    def label_index(self, label: str) -> int:
        if self.labels is None:
            raise InvalidParameterError("graph has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidParameterError(f"no node labeled {label!r}") from None


class TransitionKernel:
    """Row-stochastic one-step law over a graph's nodes.

    Rows must sum to 1 within 1e-12 and positive entries are only allowed
    across edges of the originating graph.  ``support`` holds the row and
    column indices of the positive entries, sorted by row, then column.
    """

    def __init__(self, matrix, origin: Graph):
        m = np.array(matrix, dtype=float)
        v = origin.node_count
        if m.shape != (v, v):
            raise InvalidParameterError("kernel shape must match node count")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise InvalidParameterError("kernel entries must be finite and nonnegative")
        row_sums = m.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise InvalidParameterError("kernel rows must sum to 1 within 1e-12")
        heads, tails, _ = origin._arcs
        on_edges = m[heads, tails] > 0.0
        if np.count_nonzero(on_edges) != np.count_nonzero(m):
            raise InvalidParameterError("kernel support must lie on graph edges")
        m.setflags(write=False)
        self.matrix = m
        self.origin = origin
        self.support = (heads[on_edges], tails[on_edges])

    @property
    def node_count(self) -> int:
        return self.origin.node_count

    def regular_degree(self) -> int | None:
        return self.origin.regular_degree()


def simple_walk_kernel(g: Graph) -> TransitionKernel:
    """Walk that crosses each incident edge with probability proportional
    to its weight (uniform over neighbors for unit weights).

    Requires a connected graph: on a disconnected one some hitting times
    are infinite.
    """
    if not g.connected:
        raise NotConnectedError("graph is disconnected; hitting times may be infinite")
    heads, tails, weights = g._arcs
    m = np.zeros((g.node_count, g.node_count))
    m[heads, tails] = weights / g.strengths()[heads]
    return TransitionKernel(m, g)


# ---------------------------------------------------------------------------
# preset families
# ---------------------------------------------------------------------------

def build_cycle(k: int) -> Graph:
    """Cycle graph C_k (k >= 3), node i adjacent to (i +- 1) mod k."""
    if k < 3:
        raise InvalidParameterError("cycle needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    return Graph(k, tuple(edges))


def build_path(k: int) -> Graph:
    """Path graph on k >= 2 sequentially connected nodes."""
    if k < 2:
        raise InvalidParameterError("path needs k >= 2")
    edges = [(i, i + 1) for i in range(k - 1)]
    return Graph(k, tuple(edges))


def build_complete(k: int) -> Graph:
    """Complete graph K_k (k >= 2)."""
    if k < 2:
        raise InvalidParameterError("complete graph needs k >= 2")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return Graph(k, tuple(edges))


def build_complete_bipartite(k1: int, k2: int) -> Graph:
    """Complete bipartite K_{k1,k2}; side A is 0..k1-1, side B follows."""
    if k1 < 1 or k2 < 1:
        raise InvalidParameterError("bipartite sides must be nonempty")
    if k1 + k2 < 2:
        raise InvalidParameterError("need at least two nodes")
    edges = [(i, k1 + j) for i in range(k1) for j in range(k2)]
    return Graph(k1 + k2, tuple(edges))


def build_hypercube(dim: int) -> Graph:
    """dim-dimensional hypercube; node index bits are the coordinates.

    Labels are the binary strings of the indices, so e.g. dim=3 runs
    "000" through "111" and nodes are adjacent at Hamming distance 1.
    """
    if dim < 1:
        raise InvalidParameterError("hypercube needs dim >= 1")
    n = 1 << dim
    edges = []
    for i in range(n):
        for b in range(dim):
            j = i ^ (1 << b)
            if i < j:
                edges.append((i, j))
    labels = tuple(format(i, f"0{dim}b") for i in range(n))
    return Graph(n, tuple(edges), labels=labels)


def _torus_graph(p: int, steps: list[tuple[int, int]]) -> Graph:
    edges = set()
    for a in range(p):
        for b in range(p):
            i = a * p + b
            for da, db in steps:
                j = ((a + da) % p) * p + (b + db) % p
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    labels = tuple(f"({a},{b})" for a in range(p) for b in range(p))
    return Graph(p * p, tuple(sorted(edges)), labels=labels)


def build_torus_standard(p: int) -> Graph:
    """p x p torus with axis steps (+-1, 0), (0, +-1); node (a,b) = a*p+b."""
    if p < 3:
        raise InvalidParameterError("torus needs p >= 3")
    return _torus_graph(p, [(1, 0), (-1, 0), (0, 1), (0, -1)])


def build_torus_diagonal(p: int) -> Graph:
    """p x p torus with diagonal steps (+-1, +-1); requires odd p.

    For even p the diagonal steps preserve the parity of a+b and the
    graph splits into two components.
    """
    if p < 3:
        raise InvalidParameterError("torus needs p >= 3")
    if p % 2 == 0:
        raise InvalidParameterError("diagonal torus needs odd p (2 must be invertible)")
    return _torus_graph(p, [(1, 1), (1, -1), (-1, 1), (-1, -1)])


# ---------------------------------------------------------------------------
# permutation groups and Cayley graphs
# ---------------------------------------------------------------------------

def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # product a*b acting as "apply b first, then a"
    return tuple(a[b[i]] for i in range(len(a)))


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _check_permutation(p, degree: int) -> tuple[int, ...]:
    t = tuple(int(x) for x in p)
    if sorted(t) != list(range(degree)):
        raise InvalidParameterError(f"{p!r} is not a permutation of 0..{degree - 1}")
    return t


def perm_from_cycles(degree: int, cycles: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Permutation (0-based image tuple) from 1-based disjoint cycles.

    ``perm_from_cycles(3, [(1, 3)])`` is the transposition swapping
    points 1 and 3 of {1, 2, 3}.
    """
    images = list(range(degree))
    seen: set[int] = set()
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        if any(not 0 <= x < degree for x in pts):
            raise InvalidParameterError("cycle point out of range")
        if len(set(pts)) != len(pts) or seen & set(pts):
            raise InvalidParameterError("cycles must be disjoint")
        seen ^= set(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def cycle_notation(perm: tuple[int, ...]) -> str:
    """1-based disjoint-cycle string, "e" for the identity."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric_closure(generators) -> list[tuple[int, ...]]:
    """Generators plus any missing inverses, original order first."""
    out: list[tuple[int, ...]] = []
    for g in generators:
        g = tuple(g)
        if g not in out:
            out.append(g)
        inv = _inverse(g)
        if inv not in out:
            out.append(inv)
    return out


@dataclass(frozen=True)
class PermutationGroupSpec:
    """Connection set for a Cayley graph.

    Generators act on {1..degree} (stored as 0-based image tuples), must
    exclude the identity and be closed under inverses.  Optional weights
    are step probabilities; they must sum to 1 and match on inverse
    pairs so the walk stays symmetric across each undirected edge.
    """

    degree: int
    generators: tuple[tuple[int, ...], ...]
    generator_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise InvalidParameterError("degree must be >= 1")
        gens = tuple(_check_permutation(g, self.degree) for g in self.generators)
        if not gens:
            raise InvalidParameterError("need at least one generator")
        identity = tuple(range(self.degree))
        if identity in gens:
            raise InvalidParameterError("identity generator would create a self-loop")
        if len(set(gens)) != len(gens):
            raise InvalidParameterError("duplicate generator")
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if _inverse(g) not in gens:
                raise InvalidParameterError(
                    f"connection set not symmetric: inverse of {g} missing"
                )
        if self.generator_weights is not None:
            w = tuple(float(x) for x in self.generator_weights)
            if len(w) != len(gens):
                raise InvalidParameterError("one weight per generator required")
            if any(x <= 0.0 for x in w):
                raise InvalidParameterError("weights must be positive")
            if abs(sum(w) - 1.0) > ROW_SUM_TOL:
                raise InvalidParameterError("weights must sum to 1")
            lookup = dict(zip(gens, w))
            for g in gens:
                if abs(lookup[g] - lookup[_inverse(g)]) > ROW_SUM_TOL:
                    raise InvalidParameterError("inverse pairs need equal weights")
            object.__setattr__(self, "generator_weights", w)


def build_cayley(spec: PermutationGroupSpec) -> Graph:
    """Cayley graph of the group generated by the connection set.

    Elements are enumerated breadth-first from the identity with
    generators taken in spec order, which fixes the node numbering
    across runs.  Edge {g, g*c} carries the weight of generator c
    (uniform if no weights are given).  Raises
    :class:`GroupTooLargeError` when the closure exceeds the bound.
    """
    identity = tuple(range(spec.degree))
    index = {identity: 0}
    order = [identity]
    queue = deque([identity])
    while queue:
        g = queue.popleft()
        for c in spec.generators:
            h = _compose(g, c)
            if h not in index:
                if len(order) >= _CLOSURE_BOUND:
                    raise GroupTooLargeError(f"group closure exceeds bound {_CLOSURE_BOUND}")
                index[h] = len(order)
                order.append(h)
                queue.append(h)
    if spec.generator_weights is None:
        weights = {c: 1.0 for c in spec.generators}
    else:
        weights = dict(zip(spec.generators, spec.generator_weights))
    edges = {}
    for g in order:
        gi = index[g]
        for c in spec.generators:
            hi = index[_compose(g, c)]
            key = (min(gi, hi), max(gi, hi))
            edges.setdefault(key, weights[c])
    labels = tuple(cycle_notation(g) for g in order)
    triples = tuple((u, v, w) for (u, v), w in sorted(edges.items()))
    return Graph(len(order), triples, labels=labels)


def cayley_s3() -> Graph:
    """S_3 Cayley preset: connection set {(1 3), (1 2 3), (1 3 2)}.

    This is the prism on the six permutations; the pair (e, (1 3)) is
    the series benchmark pair.
    """
    gens = symmetric_closure(
        [perm_from_cycles(3, [(1, 3)]), perm_from_cycles(3, [(1, 2, 3)])]
    )
    return build_cayley(PermutationGroupSpec(3, tuple(gens)))


def cayley_d8() -> Graph:
    """Order-8 dihedral Cayley preset: connection set
    {(1 2 3 4), (1 4 3 2), (1 4)(2 3)}.

    A circular ladder on eight elements (isomorphic to the 3-cube); the
    pair (e, (1 4)(2 3)) is the series benchmark pair.
    """
    gens = symmetric_closure(
        [perm_from_cycles(4, [(1, 2, 3, 4)]), perm_from_cycles(4, [(1, 4), (2, 3)])]
    )
    return build_cayley(PermutationGroupSpec(4, tuple(gens)))


# ---------------------------------------------------------------------------
# graph-spec files
# ---------------------------------------------------------------------------

PRESET_NAMES = (
    "cycle",
    "path",
    "complete",
    "bipartite",
    "hypercube",
    "torus_std",
    "torus_diag",
    "cayley_s3",
    "cayley_d8",
)

_PRESET_ARITY = {
    "cycle": 1,
    "path": 1,
    "complete": 1,
    "bipartite": 2,
    "hypercube": 1,
    "torus_std": 1,
    "torus_diag": 1,
    "cayley_s3": 0,
    "cayley_d8": 0,
}


def preset_graph(name: str, params: list[int]) -> Graph:
    """Build one of the named preset families."""
    if name not in PRESET_NAMES:
        raise InvalidParameterError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    arity = _PRESET_ARITY[name]
    params = [int(p) for p in params]
    if len(params) != arity:
        raise InvalidParameterError(f"preset {name} takes {arity} parameter(s)")
    if name == "cycle":
        return build_cycle(params[0])
    if name == "path":
        return build_path(params[0])
    if name == "complete":
        return build_complete(params[0])
    if name == "bipartite":
        return build_complete_bipartite(params[0], params[1])
    if name == "hypercube":
        return build_hypercube(params[0])
    if name == "torus_std":
        return build_torus_standard(params[0])
    if name == "torus_diag":
        return build_torus_diagonal(params[0])
    if name == "cayley_s3":
        return cayley_s3()
    return cayley_d8()


def parse_graph_spec(spec: dict) -> Graph:
    """Graph from a spec mapping.

    Two shapes are accepted and unknown keys are rejected:

    ``{"nodes": N, "edges": [[u, v], [u, v, w], ...]}``
        explicit edge list, optional per-edge weight;
    ``{"preset": "cycle", "params": [10]}``
        one of the named preset families.
    """
    if not isinstance(spec, dict):
        raise InvalidParameterError("graph spec must be a JSON object")
    keys = set(spec)
    if "preset" in keys:
        extra = keys - {"preset", "params"}
        if extra:
            raise InvalidParameterError(f"unknown graph-spec keys: {sorted(extra)}")
        return preset_graph(spec["preset"], list(spec.get("params", [])))
    extra = keys - {"nodes", "edges"}
    if extra:
        raise InvalidParameterError(f"unknown graph-spec keys: {sorted(extra)}")
    if "nodes" not in keys or "edges" not in keys:
        raise InvalidParameterError("graph spec needs 'nodes' and 'edges' (or 'preset')")
    nodes = spec["nodes"]
    if not isinstance(nodes, int):
        raise InvalidParameterError("'nodes' must be an integer")
    edges = []
    for e in spec["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) not in (2, 3):
            raise InvalidParameterError(f"bad edge entry {e!r}")
        edges.append(tuple(e))
    return Graph(nodes, tuple(edges))


def load_graph_file(path: str) -> tuple[Graph, dict]:
    """Parse a JSON graph-spec file; returns (graph, raw spec dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"invalid JSON in {path}: {exc}") from exc
    return parse_graph_spec(spec), spec


def canonical_graph_spec(spec: dict) -> str:
    """Canonical JSON used for hashing output metadata."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))
