"""Graphs, their simple walks and the preset families.

Nodes are dense integer indices ``0..V-1``; only the two Cayley presets,
``cayley_s3`` and ``cayley_d8`` (fixed tables of edges and cycle-notation
labels), and graphs built with ``labels`` carry display labels.  Graphs
are immutable after construction and safe to share across threads.

A kernel is a graph's simple walk (``TransitionKernel(g)``): each step
crosses an incident edge with probability proportional to its weight.
A graph holds one, built by the first ``simple_walk_kernel(g)``.
Everything is held per arc, in O(V + E) memory: a graph keeps both
directions of each edge as sorted (head, tail, weight) columns, the
preset builders emit their edges as integer columns, and a kernel keeps
one value per arc of its support.  The dense V x V kernel
(``TransitionKernel.matrix``) is built only when it is read.

One pass checks an edge list by one rule and converts it (``_edge_columns``),
and ``_first_fault`` is the one check of any graph's columns.  Arcs are
keyed head * V + tail in int64, so V is at most 3,037,000,499.

Building a graph or a kernel runs no search; an answer that needs the
target reachable checks it where it is used (``hitting._require_reachable``).
"""
from __future__ import annotations

import inspect
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Graph",
    "TransitionKernel",
    "build_cycle",
    "build_path",
    "build_complete",
    "build_complete_bipartite",
    "build_hypercube",
    "build_torus_standard",
    "build_torus_diagonal",
    "simple_walk_kernel",
    "cayley_s3",
    "cayley_d8",
    "PRESET_NAMES",
    "preset_graph",
    "parse_graph_spec",
    "canonical_graph_spec",
]

ROW_SUM_TOL = 1e-12
# the most nodes whose arc keys head * V + tail fit in int64: isqrt(2**63 - 1)
_NODE_LIMIT = 3_037_000_499


def _edge_columns(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns u, v, w (1.0 for a pair) of the ``(u, v)`` pairs and
    ``(u, v, w)`` triples, in one pass that raises
    :class:`InvalidParameterError` at the first edge that breaks the edge
    rule: a list or tuple of two integers (exact ``int`` or numpy integer)
    and an optional number (exact ``int`` or ``float``, or a numpy integer
    or floating scalar), so never a bool or a string.  Endpoints past int64
    make object columns, so the range check reports them."""
    heads, tails, weights = [], [], []
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or not 1 < len(edge) < 4:
            raise InvalidParameterError(f"bad edge entry {edge!r}")
        if len(edge) == 2:
            u, v = edge
            w = 1.0
        else:
            u, v, w = edge
        # the exact type tests first: the numpy checks are slow
        if type(u) is not int or type(v) is not int:
            if not (_is_integer(u) and _is_integer(v)):
                raise InvalidParameterError(f"bad edge entry {edge!r}: endpoints must be integers")
            u, v = int(u), int(v)
        if type(w) is not float:
            if type(w) is not int and not isinstance(w, (np.integer, np.floating)):
                raise InvalidParameterError(f"bad edge entry {edge!r}: weight must be a number")
            try:
                w = float(w)
            except OverflowError as exc:  # an integer past the float range
                raise InvalidParameterError(f"bad edge weight: {exc}") from None
        heads.append(u)
        tails.append(v)
        weights.append(w)
    try:
        u, v = np.array(heads, np.int64), np.array(tails, np.int64)
    except OverflowError:
        u, v = np.array(heads, object), np.array(tails, object)
    return u, v, np.array(weights)


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
    :class:`InvalidParameterError` for a node count out of 1.._NODE_LIMIT,
    then with the first fault (see ``_first_fault``)."""
    if node_count < 1:
        raise InvalidParameterError("graph needs at least one node")
    if node_count > _NODE_LIMIT:
        raise InvalidParameterError(f"graph too large: {node_count} nodes, at most {_NODE_LIMIT} supported")
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


def _arc_ranges(ptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ptr[n]..ptr[n+1]-1 of every node n in ``nodes``, one run per
    node, and where each run starts among them."""
    lo = ptr[nodes]
    width = ptr[nodes + 1] - lo
    at = np.add.accumulate(width) - width
    return np.arange(at[-1] + width[-1]) + (lo - at).repeat(width), at


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


# SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): the stream increment, and the finalizer's
# multipliers and shifts as uint64 scalars
GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def mix64(z):
    """SplitMix64 finalizer, vectorized over uint64 arrays: a bijection of
    the 64-bit words, so it sends 0, and 0 alone, to 0."""
    # in place on a copy: array products wrap silently, where a scalar
    # product would warn of the overflow
    z = np.array(z, dtype=np.uint64)
    return _mix64_in_place(z, np.empty_like(z))[()]


def _mix64_in_place(z: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``mix64`` of the uint64 array z, written over z; ``shifts``, of z's
    shape, takes each xor-shift, so the steps allocate nothing."""
    _mix64_top_in_place(z, shifts)
    z ^= np.right_shift(z, _S31, out=shifts)
    return z


def _mix64_top_in_place(z: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The steps of ``_mix64_in_place`` before its last xor-shift.  That
    step leaves the top 31 bits as they are, so these fix the top 31 bits
    of ``mix64(z)``."""
    z ^= np.right_shift(z, _S30, out=shifts)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=shifts)
    z *= _M2
    return z


@dataclass(frozen=True)
class Graph:
    """Finite undirected weighted graph.

    ``edges``, given as ``(u, v)`` pairs and ``(u, v, weight)`` triples, is
    rebuilt on first read (no engine reads it) as triples with ``u < v``,
    sorted.  Edges and ``node_count`` follow one rule (``_edge_columns``):
    a bool, a string or a float endpoint is refused, not converted, and the
    first edge that breaks the rule is reported before the first in input
    order with a self-loop, an endpoint out of range, a repeat or a weight
    not positive.  Over 3,037,000,499 nodes are rejected.  Construction runs
    no search: ``connected`` searches the graph each time it is read.  The
    preset builders hand over columns (``_from_columns``), checked alike.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...] | None = None
    # both directions of every edge, sorted by (head, tail): heads, tails, weights
    _arcs: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_integer(self.node_count):
            raise InvalidParameterError("'nodes' must be an integer")
        columns = _edge_columns(self.edges)
        object.__setattr__(self, "node_count", int(self.node_count))
        object.__delattr__(self, "edges")  # until it is read (see __getattr__)
        self._set_arcs(*columns)
        if self.labels is not None:
            if len(self.labels) != self.node_count:
                raise InvalidParameterError("label count must equal node count")
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @classmethod
    def _from_columns(cls, node_count: int, u: np.ndarray, v: np.ndarray, w: np.ndarray | None = None) -> Graph:
        """Graph with edges (u[i], v[i], w[i]), unit weights when ``w`` is
        None; checked as the constructor checks a tuple of edges."""
        g = cls.__new__(cls)
        object.__setattr__(g, "node_count", node_count)
        object.__setattr__(g, "labels", None)
        g._set_arcs(u, v, w)
        return g

    def _set_arcs(self, u: np.ndarray, v: np.ndarray, w: np.ndarray | None) -> None:
        arcs = _sorted_arcs(self.node_count, u, v, w)
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

    @cached_property
    def _walk(self) -> TransitionKernel:
        # the graph's one simple walk (see simple_walk_kernel)
        return TransitionKernel(self)

    def label_index(self, label: str) -> int:
        if self.labels is None:
            raise InvalidParameterError("graph has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidParameterError(f"no node labeled {label!r}") from None


class TransitionKernel:
    """The simple walk on a graph, stored sparse: each step crosses an
    incident edge with probability weight / strength of its head.

    ``support`` holds the row and column indices of the positive entries,
    sorted by row, then column, and ``values`` the entries: one per arc,
    less any arc whose probability underflows to 0 (its weight under
    2^-1075 of its head's strength), so the support is directed only
    there.  Rows must sum to 1 within 1e-12: a node on no edge is rejected.
    ``matrix``, the dense V x V array, is built on its first read; no
    engine that scales with V reads it.  Builds on a disconnected graph
    too (see ``hitting._require_reachable`` and ``Graph.connected``).
    """

    def __init__(self, graph: Graph):
        heads, tails, weights = graph._arcs
        strengths = graph.strengths()
        values = weights / strengths[heads]
        row_sums = np.bincount(heads, weights=values, minlength=graph.node_count)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            # finite weights whose sum overflows leave every step out of
            # their node 0, a row that sums to 0
            overflow = np.flatnonzero(np.isinf(strengths))
            if overflow.size:
                raise InvalidParameterError(
                    f"node {overflow[0]}: the sum of its edge weights overflows float64"
                )
            isolated = np.flatnonzero(strengths == 0.0)
            where = f"node {isolated[0]} is on no edge: " if isolated.size else ""
            raise InvalidParameterError(f"{where}kernel rows must sum to 1 within 1e-12")
        positive = values > 0.0
        if not positive.all():
            heads, tails, values = heads[positive], tails[positive], values[positive]
        values.setflags(write=False)
        self.origin = graph
        self.support = (heads, tails)
        self.values = values
        self._matrix = None
        self._search = None  # hitting._require_reachable's last (target, result)

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
    """The simple walk on ``g``, ``TransitionKernel(g)``, built on the first
    call and held by ``g``: every engine on one graph reads one kernel,
    under the name the benchmark's per-layer spans time."""
    return g._walk


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


def _cycle_nodes(k: int) -> int:
    if k < 3:
        raise InvalidParameterError("cycle needs k >= 3")
    _require_array_size(2 * k, "cycle")
    return k


def build_cycle(k: int) -> Graph:
    """Cycle graph C_k (k >= 3), node i adjacent to (i +- 1) mod k."""
    nodes = np.arange(_cycle_nodes(k))
    return Graph._from_columns(k, nodes, (nodes + 1) % k)


def _path_nodes(k: int) -> int:
    if k < 2:
        raise InvalidParameterError("path needs k >= 2")
    _require_array_size(2 * k, "path")
    return k


def build_path(k: int) -> Graph:
    """Path graph on k >= 2 sequentially connected nodes."""
    nodes = np.arange(_path_nodes(k) - 1)
    return Graph._from_columns(k, nodes, nodes + 1)


def _complete_nodes(k: int) -> int:
    if k < 2:
        raise InvalidParameterError("complete graph needs k >= 2")
    _require_array_size(k * k, "complete graph")
    return k


def build_complete(k: int) -> Graph:
    """Complete graph K_k (k >= 2)."""
    return Graph._from_columns(_complete_nodes(k), *np.triu_indices(k, 1))


def _bipartite_nodes(k1: int, k2: int) -> int:
    if k1 < 1 or k2 < 1:
        raise InvalidParameterError("bipartite sides must be nonempty")
    _require_array_size(2 * k1 * k2, "bipartite graph")
    return k1 + k2


def build_complete_bipartite(k1: int, k2: int) -> Graph:
    """Complete bipartite K_{k1,k2}; side A is 0..k1-1, side B follows."""
    node_count = _bipartite_nodes(k1, k2)
    side_a, side_b = np.repeat(np.arange(k1), k2), np.tile(np.arange(k1, k1 + k2), k1)
    return Graph._from_columns(node_count, side_a, side_b)


def _hypercube_nodes(dim: int) -> int:
    if dim < 1:
        raise InvalidParameterError("hypercube needs dim >= 1")
    _require_array_size(dim << min(dim, 64), "hypercube")
    return 1 << dim


def build_hypercube(dim: int) -> Graph:
    """dim-dimensional hypercube; node index bits are the coordinates, so
    nodes are adjacent at Hamming distance 1 (no labels)."""
    n = _hypercube_nodes(dim)
    # node i and bit b with the bit clear in i, so that i < i ^ (1 << b)
    low, bit = np.nonzero(((np.arange(n)[:, None] >> np.arange(dim)) & 1) == 0)
    return Graph._from_columns(n, low, low | (1 << bit))


def _torus_nodes(p: int, diagonal: bool = False) -> int:
    if p < 3:
        raise InvalidParameterError("torus needs p >= 3")
    if diagonal and p % 2 == 0:
        raise InvalidParameterError("diagonal torus needs odd p (2 must be invertible)")
    _require_array_size(4 * p * p, "torus")
    return p * p


# one step of each +- pair: for p >= 3 the two directions never meet
_STANDARD_STEPS, _DIAGONAL_STEPS = [(1, 0), (0, 1)], [(1, 1), (1, -1)]


def _torus_graph(p: int, steps: list[tuple[int, int]]) -> Graph:
    """p x p torus, node (a,b) = a*p+b adjacent to (a,b) +- each step."""
    a, b = np.divmod(np.arange(p * p), p)
    heads = np.tile(np.arange(p * p), len(steps))
    tails = np.concatenate([(a + da) % p * p + (b + db) % p for da, db in steps])
    return Graph._from_columns(p * p, heads, tails)


def build_torus_standard(p: int) -> Graph:
    """p x p torus with axis steps (+-1, 0), (0, +-1); node (a,b) = a*p+b."""
    _torus_nodes(p)
    return _torus_graph(p, _STANDARD_STEPS)


def build_torus_diagonal(p: int) -> Graph:
    """p x p torus with diagonal steps (+-1, +-1); requires odd p.

    For even p the diagonal steps preserve the parity of a+b and the
    graph splits into two components.
    """
    _torus_nodes(p, diagonal=True)
    return _torus_graph(p, _DIAGONAL_STEPS)


# ---------------------------------------------------------------------------
# the preset families' lumped classes in closed form
# ---------------------------------------------------------------------------
#
# The classes of the coarsest equitable partition that keeps the target
# alone (see hitting's module docstring), as (reps, key, head, tail, count,
# prob): reps[c] is the smallest node of class c, key(nodes) the class of
# each node (-1 at the target), and the arcs out of the smallest nodes go
# from class head into class tail with step probability prob, count times
# over.  A family checks that the classes^2 entries of a dense Q (which
# moments forms) fit an array before it allocates anything of size classes.

def _neighbour_arcs(key, tails: list[np.ndarray]) -> tuple:
    """(head, tail, count, prob) of a regular walk whose class c's smallest
    node steps to tails[s][c], s = 0..degree-1."""
    classes, degree = len(tails[0]), len(tails)
    arcs = classes * degree
    heads = np.tile(np.arange(classes), degree)
    return heads, key(np.concatenate(tails)), np.ones(arcs, np.intp), np.full(arcs, 1 / degree)


def _cycle_classes(k: int, target: int) -> tuple:
    """Class d - 1: the nodes d steps from the target, d = 1..k // 2."""
    half = k // 2
    _require_array_size(half * half, "lumped chain")

    def key(nodes):
        return np.minimum((nodes - target) % k, (target - nodes) % k) - 1

    d = np.arange(1, half + 1)
    reps = np.minimum((target + d) % k, (target - d) % k)
    return reps, key, *_neighbour_arcs(key, [(reps - 1) % k, (reps + 1) % k])


def _path_classes(k: int, target: int) -> tuple:
    """Class d - 1: the nodes d steps from the target, when it is the
    centre of an odd path; else every node is a class of its own (the far
    end of the longer side parts each pair of nodes at one distance, as
    the refinement finds).  A class's smallest node steps to each
    neighbour with probability 1 / its degree."""
    centre = 2 * target + 1 == k
    _require_array_size((target if centre else k - 1) ** 2, "lumped chain")
    if centre:
        reps = target - np.arange(1, target + 1)

        def key(nodes):
            return np.abs(nodes - target) - 1

    else:
        reps = np.delete(np.arange(k), target)

        def key(nodes):
            return np.where(nodes == target, -1, nodes - (nodes > target))

    classes = np.arange(len(reps))
    left, right = reps > 0, reps < k - 1
    prob = 1 / (left.astype(float) + right)
    head = np.concatenate([classes[left], classes[right]])
    tail = key(np.concatenate([reps[left] - 1, reps[right] + 1]))
    return reps, key, head, tail, np.ones(len(head), np.intp), np.concatenate([prob[left], prob[right]])


def _complete_classes(k: int, target: int) -> tuple:
    """One class: its smallest node steps to the target once and to the
    class k - 2 times."""

    def key(nodes):
        return (nodes != target) - 1

    arcs = np.zeros(2, np.intp), np.array([-1, 0]), np.array([1, k - 2]), np.full(2, 1 / (k - 1))
    return np.array([int(target == 0)]), key, *arcs


def _bipartite_classes(k1: int, k2: int, target: int) -> tuple:
    """Class 0: the side without the target; class 1: the rest of the
    target's side, if any.  Class 0 steps to the target and to class 1,
    class 1 to class 0."""
    own, other = (k1, k2) if target < k1 else (k2, k1)  # the target's side and the other
    first = 0 if target < k1 else k1  # the first node of the target's side

    def key(nodes):
        return ((nodes < k1) == (target < k1)) - 2 * (nodes == target)

    classes, arcs = (2, 3) if own > 1 else (1, 1)
    columns = [0, 0, 1], [-1, 1, 0], [1, own - 1, other], [1 / own, 1 / own, 1 / other]
    reps = np.array([k1 - first, first + (target == first)][:classes])
    return reps, key, *(np.array(column[:arcs]) for column in columns)


def _hypercube_classes(dim: int, target: int) -> tuple:
    """Class d - 1: the nodes d bits from the target (the Ehrenfest urn,
    Kac 1947), which step to class d - 2 in d ways (the target when d = 1)
    and to class d in dim - d ways."""

    def key(nodes):
        bits = np.unpackbits((nodes ^ target)[..., None].view(np.uint8), axis=-1)
        return bits.sum(axis=-1, dtype=np.intp) - 1

    # the smallest node d bits away keeps the target's c - d lowest set
    # bits, c of them, when d <= c; else it sets the d - c lowest clear ones
    ones = [1 << b for b in range(dim) if target >> b & 1]
    zeros = [1 << b for b in range(dim) if not target >> b & 1]
    c = len(ones)
    reps = np.array([sum(ones[: c - d]) if d <= c else sum(zeros[: d - c]) for d in range(1, dim + 1)])
    d = np.arange(1, dim + 1)
    arcs = np.concatenate([d - 1, d[:-1] - 1]), np.concatenate([d - 2, d[:-1]]), np.concatenate([d, dim - d[:-1]])
    return reps, key, *arcs, np.full(2 * dim - 1, 1 / dim)


def _torus_classes(p: int, target: int, steps: list[tuple[int, int]]) -> tuple | None:
    """The orbits of the target's stabilizer, which holds the axis
    reflections and the swap: a node's displacement from the target folded
    into 0..p // 2 on each axis, the two sorted.  None on torus_std:4, the
    4-cube, whose partition is coarser (5 classes, not 6)."""
    if p == 4:
        return None
    half = p // 2
    classes = (half + 1) * (half + 2) // 2 - 1
    _require_array_size(classes * classes, "lumped chain")
    ta, tb = divmod(target, p)

    def key(nodes):
        a, b = np.divmod(nodes, p)
        a, b = (a - ta) % p, (b - tb) % p
        a, b = np.minimum(a, p - a), np.minimum(b, p - b)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # the rank of (lo, hi) among the pairs x <= y <= half, (0, 0) first
        return lo * (2 * half + 3 - lo) // 2 + hi - lo - 1

    x, y = (axis[1:] for axis in np.triu_indices(half + 1))  # each class's (lo, hi)
    reps = np.minimum.reduce(
        [(ta + u) % p * p + (tb + w) % p for da, db in ((x, y), (y, x)) for u in (da, -da) for w in (db, -db)]
    )
    a, b = np.divmod(reps, p)
    tails = [(a + da) % p * p + (b + db) % p for da, db in steps + [(-da, -db) for da, db in steps]]
    return reps, key, *_neighbour_arcs(key, tails)


# ---------------------------------------------------------------------------
# the two Cayley presets
# ---------------------------------------------------------------------------

def cayley_s3() -> Graph:
    """S_3 Cayley preset: connection set {(1 3), (1 2 3), (1 3 2)}.

    This is the prism on the six permutations; the pair (e, (1 3)) is
    the series benchmark pair.  A fixed table: nodes are numbered
    breadth-first from the identity, generators in that order, and
    labelled in 1-based cycle notation, as the reference closure in
    ``tests/conftest.py`` builds it.
    """
    return Graph(
        6,
        ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)),
        labels=("e", "(1 3)", "(1 2 3)", "(1 3 2)", "(1 2)", "(2 3)"),
    )


def cayley_d8() -> Graph:
    """Order-8 dihedral Cayley preset: connection set
    {(1 2 3 4), (1 4 3 2), (1 4)(2 3)}.

    A circular ladder on eight elements (isomorphic to the 3-cube); the
    pair (e, (1 4)(2 3)) is the series benchmark pair.  A fixed table,
    numbered and labelled as ``cayley_s3``.
    """
    return Graph(
        8,
        ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6), (4, 7), (5, 7), (6, 7)),
        labels=("e", "(1 2 3 4)", "(1 4 3 2)", "(1 4)(2 3)", "(1 3)(2 4)", "(2 4)", "(1 3)", "(1 2)(3 4)"),
    )


# ---------------------------------------------------------------------------
# the preset table and graph-spec files
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    """One preset family.  ``build`` makes its graph, and its positional
    parameters are the family's.  ``closed`` is ``(nodes, classes)`` on a
    family whose lumped classes are known in closed form, else None:
    ``nodes`` runs ``build``'s checks of the parameters and returns the
    node count without building, and ``classes(*params, target)`` gives
    the classes (see above), or None at a size where the closed form does
    not hold.  ``step_law`` names the function of ``hitwalk.abelian`` that
    gives the walk's group and step law on an abelian Cayley family."""

    build: Callable[..., Graph]
    closed: tuple[Callable[..., int], Callable[..., tuple | None]] | None = None
    step_law: str | None = None


# each preset family once, under its name
_PRESETS = {
    "cycle": _Family(build_cycle, (_cycle_nodes, _cycle_classes), "cycle_step_law"),
    "path": _Family(build_path, (_path_nodes, _path_classes)),
    "complete": _Family(build_complete, (_complete_nodes, _complete_classes), "complete_step_law"),
    "bipartite": _Family(build_complete_bipartite, (_bipartite_nodes, _bipartite_classes)),
    "hypercube": _Family(build_hypercube, (_hypercube_nodes, _hypercube_classes), "hypercube_step_law"),
    "torus_std": _Family(
        build_torus_standard,
        (_torus_nodes, partial(_torus_classes, steps=_STANDARD_STEPS)),
        "torus_standard_step_law",
    ),
    "torus_diag": _Family(
        build_torus_diagonal,
        (partial(_torus_nodes, diagonal=True), partial(_torus_classes, steps=_DIAGONAL_STEPS)),
        "torus_diagonal_step_law",
    ),
    "cayley_s3": _Family(cayley_s3),
    "cayley_d8": _Family(cayley_d8),
}
PRESET_NAMES = tuple(_PRESETS)


def _family(name: str, params: list[int]) -> _Family:
    """The family named ``name``, given exactly as many ints as its builder
    takes (a bool, numpy integer, float, string or None is rejected, not
    converted); raises :class:`InvalidParameterError` otherwise."""
    family = _PRESETS.get(name) if isinstance(name, str) else None
    if family is None:
        raise InvalidParameterError(f"unknown preset {name!r}; names: {', '.join(PRESET_NAMES)}")
    arity = len(inspect.signature(family.build).parameters)
    if not isinstance(params, (list, tuple)) or len(params) != arity or any(type(p) is not int for p in params):
        raise InvalidParameterError(f"preset {name} takes {arity} integer parameter(s)")
    return family


def preset_graph(name: str, params: list[int]) -> Graph:
    """Build one of the named preset families.

    ``name`` and ``params`` are checked by ``_family``, the one check of a
    preset's name and parameters, and the builder checks their range.
    Raises :class:`InvalidParameterError` otherwise.
    """
    return _family(name, params).build(*params)


def _names_preset(spec: dict) -> bool:
    """Whether a graph spec names a preset; raises
    :class:`InvalidParameterError` on a spec that is not a JSON object, or
    that names a preset and has keys other than preset and params."""
    if not isinstance(spec, dict):
        raise InvalidParameterError("graph spec must be a JSON object")
    if "preset" not in spec:
        return False
    extra = set(spec) - {"preset", "params"}
    if extra:
        raise InvalidParameterError(f"unknown graph-spec keys: {sorted(extra)}")
    return True


def parse_graph_spec(spec: dict) -> Graph:
    """Graph from a spec mapping.

    Two shapes are accepted and unknown keys are rejected:

    ``{"nodes": N, "edges": [[u, v], [u, v, w], ...]}``
        explicit edge list, optional per-edge weight; ``edges`` is a JSON
        array, and N and the list go to ``Graph`` as they are, which
        checks them by its one edge rule (N, u and v integers and w a
        number: an endpoint ``1.0`` or ``true``, or a weight ``"2.5"``,
        is rejected, not converted);
    ``{"preset": "cycle", "params": [10]}``
        one of the named preset families, checked by ``preset_graph``;
        ``params`` is a JSON array of integers and may be left out for a
        family without parameters.  The CLI builds ``--preset NAME:ARGS``
        through this same shape.
    """
    if _names_preset(spec):
        return preset_graph(spec["preset"], spec.get("params", []))
    extra = set(spec) - {"nodes", "edges"}
    if extra:
        raise InvalidParameterError(f"unknown graph-spec keys: {sorted(extra)}")
    if not {"nodes", "edges"} <= spec.keys():
        raise InvalidParameterError("graph spec needs 'nodes' and 'edges' (or 'preset')")
    if not isinstance(spec["edges"], (list, tuple)):
        raise InvalidParameterError("'edges' must be an array")
    return Graph(spec["nodes"], spec["edges"])


def _is_integer(x) -> bool:
    """An endpoint or node count by the edge rule: an exact int (JSON true
    and false load as bool, a subclass of int) or a numpy integer."""
    return type(x) is int or isinstance(x, np.integer)


def _read_spec(path: str):
    """The JSON value of a graph-spec file, not yet checked as a spec."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError: bad JSON or UTF-8, or an integer past the interpreter's
        # digit limit; RecursionError: arrays or objects nested past its depth
        except (ValueError, RecursionError) as exc:
            raise InvalidParameterError(f"invalid JSON in {path}: {exc}") from exc


def canonical_graph_spec(spec: dict) -> str:
    """Canonical JSON used for hashing output metadata."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))
