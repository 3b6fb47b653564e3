"""Graphs, transition kernels and the preset families.

Nodes are dense integer indices ``0..V-1``; group elements, bit vectors
and torus coordinates are carried as display labels attached to indices.
Graphs are immutable after construction and safe to share across
threads.

Everything is held per arc, in O(V + E) memory: a graph keeps both
directions of each edge as sorted (head, tail, weight) columns, the
preset builders emit their edges as integer columns, and a transition
kernel keeps one value per arc of its support.  The dense V x V kernel
(``TransitionKernel.matrix``) is built only when it is read.

Building a graph or a kernel runs no search; an answer that needs the
target reachable checks it where it is used (``hitting._require_reachable``).
"""
from __future__ import annotations

import inspect
import json
from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter

import numpy as np

from .errors import GroupTooLargeError, InvalidParameterError

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


def _first_fault(u, v, w, loop, outside, repeat) -> str | None:
    """Message of the first faulty edge (u, v, w), checked in edge order
    and, within an edge, for a self-loop, an endpoint out of range, a repeat
    of an earlier edge, then a weight that is not positive and finite (w
    None: unit weights).  ``loop``, ``outside`` and ``repeat`` flag the
    first three faults per edge."""
    faulty = loop | outside | repeat
    if w is not None:
        faulty |= ~(w > 0.0) | ~np.isfinite(w)
    faulty = np.flatnonzero(faulty)
    if not faulty.size:
        return None
    i = faulty[0]
    lo, hi = min(u[i], v[i]), max(u[i], v[i])
    if loop[i]:
        return f"self-loop at node {u[i]}"
    if outside[i]:
        return f"edge ({u[i]},{v[i]}) endpoint out of range"
    if repeat[i]:
        return f"duplicate edge ({lo},{hi})"
    return f"edge ({lo},{hi}) weight must be positive"


def _sorted_arcs(
    node_count: int, u: np.ndarray, v: np.ndarray, w: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both directions of every edge (u, v, w), sorted by (head, tail):
    heads, tails and weights (all 1 when ``w`` is None).  Raises
    :class:`InvalidParameterError` with the first fault (see
    ``_first_fault``)."""
    count = len(u)
    loop = u == v
    outside = (u < 0) | (u >= node_count) | (v < 0) | (v >= node_count)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # arc (head, tail) as head * V + tail: the arcs (lo, hi) in edge order,
    # then (hi, lo)
    key = np.concatenate([lo * node_count + hi, hi * node_count + lo])
    if outside.any():
        # an arc out of range is reported as such, so its key only has to
        # stay clear of every valid key
        key = np.where(np.concatenate([outside, outside]), -1, key)
    key = key.astype(np.int64, copy=False)
    order = np.argsort(key, kind="stable")
    key = key[order]
    # a stable sort puts a repeated edge's arc (lo, hi) right after an
    # earlier copy's
    later = np.zeros(2 * count, dtype=bool)
    later[order[1:]] = key[1:] == key[:-1]
    fault = _first_fault(u, v, w, loop, outside, later[:count])
    if fault is not None:
        raise InvalidParameterError(fault)
    weights = np.ones(2 * count) if w is None else np.concatenate([w, w])[order]
    return *np.divmod(key, node_count), weights


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


def _arc_ranges(ptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ptr[n]..ptr[n+1]-1 of every node n in ``nodes``, one run per
    node, and the length of each run."""
    width = ptr[nodes + 1] - ptr[nodes]
    ends = np.cumsum(width)
    return np.arange(ends[-1]) + np.repeat(ptr[nodes] - (ends - width), width), width


def _levels(ptr: np.ndarray, succ: np.ndarray, source: int) -> np.ndarray:
    """Breadth-first level of each node from ``source``, -1 where unreached,
    along the arcs n -> succ[ptr[n]:ptr[n+1]].  Each level reads only the
    arcs out of its frontier, so the search is O(E) plus a few numpy calls
    per level."""
    node_count = len(ptr) - 1
    level = np.full(node_count, -1, dtype=np.intp)
    level[source] = 0
    last = np.empty(node_count, dtype=np.intp)  # last position naming a node
    frontier = np.array([source])
    depth = 0
    while frontier.size:
        depth += 1
        reached = succ[_arc_ranges(ptr, frontier)[0]]
        reached = reached[level[reached] < 0]
        # keep one copy of each node: the copy that wrote its position last
        at = np.arange(len(reached))
        last[reached] = at
        frontier = reached[last[reached] == at]
        level[frontier] = depth
    return level


@dataclass(frozen=True)
class Graph:
    """Finite undirected weighted graph.

    ``edges`` holds ``(u, v, weight)`` triples normalized to ``u < v``,
    sorted; no engine reads it, so it is built from the arcs on first read.
    Self-loops, duplicate edges and nonpositive weights are rejected; the
    first faulty edge in input order is reported.  Construction runs no
    search: ``connected`` searches the graph each time it is read.  The
    preset builders skip the tuples and hand their edges over as columns
    (``_from_columns``), which runs the same checks.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...] | None = None
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
        object.__delattr__(self, "edges")  # until it is read (see __getattr__)
        self._set_arcs(u, v, w)

    @classmethod
    def _from_columns(
        cls, node_count: int, u: np.ndarray, v: np.ndarray, w: np.ndarray | None = None, labels=None
    ) -> Graph:
        """Graph with edges (u[i], v[i], w[i]), unit weights when ``w`` is
        None; checked as the constructor checks a tuple of edges."""
        g = cls.__new__(cls)
        object.__setattr__(g, "node_count", node_count)
        object.__setattr__(g, "labels", labels)
        if node_count < 1:
            raise InvalidParameterError("graph needs at least one node")
        g._set_arcs(u, v, w)
        return g

    def _set_arcs(self, u: np.ndarray, v: np.ndarray, w: np.ndarray | None) -> None:
        arcs = _sorted_arcs(self.node_count, u, v, w)
        if self.labels is not None:
            if len(self.labels) != self.node_count:
                raise InvalidParameterError("label count must equal node count")
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        for arr in arcs:
            arr.setflags(write=False)
        object.__setattr__(self, "_arcs", arcs)

    def __getattr__(self, name: str):
        # only reached for an attribute the instance does not hold: edges
        # before its first read
        if name != "edges" or "_arcs" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        heads, tails, weights = self._arcs
        forward = heads < tails  # sorted by (u, v), as the arcs are
        edges = tuple(zip(heads[forward].tolist(), tails[forward].tolist(), weights[forward].tolist()))
        object.__setattr__(self, "edges", edges)
        return edges

    @property
    def connected(self) -> bool:
        """Whether every node reaches node 0: searched on each read, not stored."""
        ptr = np.searchsorted(self._arcs[0], np.arange(self.node_count + 1))
        return bool(_levels(ptr, self._arcs[1], 0).min() >= 0)

    @property
    def edge_count(self) -> int:
        return len(self._arcs[0]) // 2

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
    """Row-stochastic one-step law over a graph's nodes, stored sparse.

    ``support`` holds the row and column indices of the positive entries,
    sorted by row, then column, and ``values`` the entries themselves.
    Rows must sum to 1 within 1e-12 and positive entries are only allowed
    across edges of the originating graph.  ``matrix``, the dense V x V
    array, is built on its first read; no engine that scales with V reads
    it.
    """

    def __init__(self, matrix, origin: Graph):
        m = np.array(matrix, dtype=float)
        v = origin.node_count
        if m.shape != (v, v):
            raise InvalidParameterError("kernel shape must match node count")
        heads, tails, _ = origin._arcs
        values = m[heads, tails]
        m[heads, tails] = 0.0  # what is left lies off the edges
        self._set_values(origin, values, m)

    @classmethod
    def _from_values(cls, origin: Graph, values: np.ndarray) -> TransitionKernel:
        """Kernel with entry ``values[a]`` on each arc ``a`` of ``origin``
        and 0 off the edges, checked as the constructor checks a matrix."""
        kernel = cls.__new__(cls)
        kernel._set_values(origin, values, np.zeros((origin.node_count, 0)))
        return kernel

    def _set_values(self, origin: Graph, values: np.ndarray, off_edges: np.ndarray) -> None:
        # off_edges: one row per node, holding its entries off the arcs
        heads, tails, _ = origin._arcs
        for entries in (values, off_edges):
            if not np.all((entries >= 0.0) & (entries < np.inf)):
                raise InvalidParameterError("kernel entries must be finite and nonnegative")
        row_sums = np.bincount(heads, weights=values, minlength=origin.node_count) + off_edges.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise InvalidParameterError("kernel rows must sum to 1 within 1e-12")
        if np.any(off_edges):
            raise InvalidParameterError("kernel support must lie on graph edges")
        positive = values > 0.0
        if not positive.all():
            heads, tails, values = heads[positive], tails[positive], values[positive]
        values.setflags(write=False)
        self.origin = origin
        self.support = (heads, tails)
        self.values = values
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        """Dense V x V kernel, read-only; built on first read, O(V^2) memory."""
        if self._matrix is None:
            m = np.zeros((self.node_count, self.node_count))
            m[self.support] = self.values
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    @property
    def node_count(self) -> int:
        return self.origin.node_count


def simple_walk_kernel(g: Graph) -> TransitionKernel:
    """Walk that crosses each incident edge with probability proportional
    to its weight (uniform over neighbors for unit weights).

    Builds on a disconnected graph too: an answer that needs the target
    reachable checks it (``hitting._require_reachable``, ``Graph.connected``).
    """
    heads, _, weights = g._arcs
    return TransitionKernel._from_values(g, weights / g.strengths()[heads])


# ---------------------------------------------------------------------------
# preset families
# ---------------------------------------------------------------------------

def _require_array_size(entries: int, what: str) -> None:
    """Refuse a request whose largest array has more entries than an
    intp array can hold: numpy cannot size it at all.  A preset passes
    its arcs (two per edge) or the bit table or mask it builds them from,
    an engine the table that a horizon, trial count or grid sizes.  Below
    that, an array too large for memory raises MemoryError when it is
    allocated."""
    limit = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize
    if entries > limit:
        raise InvalidParameterError(f"{what} too large: {entries} array entries, numpy holds at most {limit}")


def build_cycle(k: int) -> Graph:
    """Cycle graph C_k (k >= 3), node i adjacent to (i +- 1) mod k."""
    if k < 3:
        raise InvalidParameterError("cycle needs k >= 3")
    _require_array_size(2 * k, "cycle")
    nodes = np.arange(k)
    return Graph._from_columns(k, nodes, (nodes + 1) % k)


def build_path(k: int) -> Graph:
    """Path graph on k >= 2 sequentially connected nodes."""
    if k < 2:
        raise InvalidParameterError("path needs k >= 2")
    _require_array_size(2 * k, "path")
    nodes = np.arange(k - 1)
    return Graph._from_columns(k, nodes, nodes + 1)


def build_complete(k: int) -> Graph:
    """Complete graph K_k (k >= 2)."""
    if k < 2:
        raise InvalidParameterError("complete graph needs k >= 2")
    _require_array_size(k * k, "complete graph")
    return Graph._from_columns(k, *np.triu_indices(k, 1))


def build_complete_bipartite(k1: int, k2: int) -> Graph:
    """Complete bipartite K_{k1,k2}; side A is 0..k1-1, side B follows."""
    if k1 < 1 or k2 < 1:
        raise InvalidParameterError("bipartite sides must be nonempty")
    if k1 + k2 < 2:
        raise InvalidParameterError("need at least two nodes")
    _require_array_size(2 * k1 * k2, "bipartite graph")
    side_a, side_b = np.repeat(np.arange(k1), k2), np.tile(np.arange(k1, k1 + k2), k1)
    return Graph._from_columns(k1 + k2, side_a, side_b)


def build_hypercube(dim: int) -> Graph:
    """dim-dimensional hypercube; node index bits are the coordinates.

    Labels are the binary strings of the indices, so e.g. dim=3 runs
    "000" through "111" and nodes are adjacent at Hamming distance 1.
    """
    if dim < 1:
        raise InvalidParameterError("hypercube needs dim >= 1")
    _require_array_size(dim << min(dim, 64), "hypercube")
    n = 1 << dim
    # node i and bit b with the bit clear in i, so that i < i ^ (1 << b)
    low, bit = np.nonzero(((np.arange(n)[:, None] >> np.arange(dim)) & 1) == 0)
    labels = tuple(format(i, f"0{dim}b") for i in range(n))
    return Graph._from_columns(n, low, low | (1 << bit), labels=labels)


def _torus_graph(p: int, steps: list[tuple[int, int]]) -> Graph:
    """p x p torus, node (a,b) = a*p+b adjacent to (a,b) +- each step.

    ``steps`` holds one step of each +- pair; for p >= 3 the two
    directions never meet, so every edge is made once.
    """
    _require_array_size(2 * len(steps) * p * p, "torus")
    a, b = np.divmod(np.arange(p * p), p)
    heads = np.tile(np.arange(p * p), len(steps))
    tails = np.concatenate([(a + da) % p * p + (b + db) % p for da, db in steps])
    labels = tuple(f"({a},{b})" for a in range(p) for b in range(p))
    return Graph._from_columns(p * p, heads, tails, labels=labels)


def build_torus_standard(p: int) -> Graph:
    """p x p torus with axis steps (+-1, 0), (0, +-1); node (a,b) = a*p+b."""
    if p < 3:
        raise InvalidParameterError("torus needs p >= 3")
    return _torus_graph(p, [(1, 0), (0, 1)])


def build_torus_diagonal(p: int) -> Graph:
    """p x p torus with diagonal steps (+-1, +-1); requires odd p.

    For even p the diagonal steps preserve the parity of a+b and the
    graph splits into two components.
    """
    if p < 3:
        raise InvalidParameterError("torus needs p >= 3")
    if p % 2 == 0:
        raise InvalidParameterError("diagonal torus needs odd p (2 must be invertible)")
    return _torus_graph(p, [(1, 1), (1, -1)])


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
# the preset table and graph-spec files
# ---------------------------------------------------------------------------

# each preset family once: its name and its builder, whose positional
# parameters are the family's parameters
_PRESETS = {
    "cycle": build_cycle,
    "path": build_path,
    "complete": build_complete,
    "bipartite": build_complete_bipartite,
    "hypercube": build_hypercube,
    "torus_std": build_torus_standard,
    "torus_diag": build_torus_diagonal,
    "cayley_s3": cayley_s3,
    "cayley_d8": cayley_d8,
}
PRESET_NAMES = tuple(_PRESETS)


def preset_graph(name: str, params: list[int]) -> Graph:
    """Build one of the named preset families; the one check of a preset.

    ``name`` must be a key of the preset table and ``params`` a list of
    exactly as many JSON integers as its builder takes (a bool, float,
    string or None is rejected, not converted); the builder checks their
    range.  Raises :class:`InvalidParameterError` otherwise.
    """
    builder = _PRESETS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise InvalidParameterError(f"unknown preset {name!r}; names: {', '.join(PRESET_NAMES)}")
    arity = len(inspect.signature(builder).parameters)
    if not isinstance(params, (list, tuple)) or len(params) != arity or not all(map(_is_json_int, params)):
        raise InvalidParameterError(f"preset {name} takes {arity} integer parameter(s)")
    return builder(*params)


def parse_graph_spec(spec: dict) -> Graph:
    """Graph from a spec mapping.

    Two shapes are accepted and unknown keys are rejected:

    ``{"nodes": N, "edges": [[u, v], [u, v, w], ...]}``
        explicit edge list, optional per-edge weight; N, u and v are
        JSON integers and w a JSON number (an endpoint ``1.0`` or
        ``true``, or a weight ``"2.5"``, is rejected, not converted);
    ``{"preset": "cycle", "params": [10]}``
        one of the named preset families, checked by ``preset_graph``;
        ``params`` is a JSON array of integers and may be left out for a
        family without parameters.  The CLI builds ``--preset NAME:ARGS``
        through this same shape.
    """
    if not isinstance(spec, dict):
        raise InvalidParameterError("graph spec must be a JSON object")
    keys = set(spec)
    if "preset" in keys:
        extra = keys - {"preset", "params"}
        if extra:
            raise InvalidParameterError(f"unknown graph-spec keys: {sorted(extra)}")
        return preset_graph(spec["preset"], spec.get("params", []))
    extra = keys - {"nodes", "edges"}
    if extra:
        raise InvalidParameterError(f"unknown graph-spec keys: {sorted(extra)}")
    if "nodes" not in keys or "edges" not in keys:
        raise InvalidParameterError("graph spec needs 'nodes' and 'edges' (or 'preset')")
    nodes = spec["nodes"]
    if not _is_json_int(nodes):
        raise InvalidParameterError("'nodes' must be an integer")
    edges = []
    for e in spec["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) not in (2, 3):
            raise InvalidParameterError(f"bad edge entry {e!r}")
        if not (_is_json_int(e[0]) and _is_json_int(e[1])):
            raise InvalidParameterError(f"bad edge entry {e!r}: endpoints must be integers")
        if len(e) == 3 and (isinstance(e[2], bool) or not isinstance(e[2], (int, float))):
            raise InvalidParameterError(f"bad edge entry {e!r}: weight must be a number")
        edges.append(tuple(e))
    return Graph(nodes, tuple(edges))


def _is_json_int(x) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


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
