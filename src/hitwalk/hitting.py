"""General-graph first-passage engine.

Fixing a target node j and deleting its row and column from the walk
kernel leaves a substochastic matrix Q and a first-step vector P1 with
P(tau = n) = Q^{n-1} P1.  Everything here is built from that recurrence:
step distributions, moments, closed forms for the standard families,
and brute-force oracles used to verify all of it.

On a symmetric graph many starts share one law, and the recurrence can
run on far fewer states.  Colour the target apart from the rest and
split colour classes until the partition is equitable: in each class
every node has the same multiset of (neighbour class, step probability)
pairs.  Every node of a class then has the same probability of stepping
into each class, which is strong lumpability (Kemeny & Snell, Finite
Markov Chains, 1960, section 6.3): the classes form a Markov chain of
their own whose absorbing system gives each member's hitting-time law
exactly.  The classes are found by worklist refinement of the target's
distance levels, re-signing only the nodes with an arc into a node that
changed class (Paige & Tarjan, "Three partition refinement algorithms",
SIAM J. Comput. 16(6), 1987); on cycles, hypercubes and complete
bipartite graphs the levels are equitable already.  Every round signs
only its own nodes, reading only their arcs: a node's signature is a
64-bit sum of hashes of its (neighbour class, step probability) pairs,
as in colour refinement by hashed multisets (Shervashidze et al.,
"Weisfeiler-Lehman graph kernels", JMLR 12, 2011).  A hash collision can
only leave a class unsplit, so when the rounds settle one exact check
compares the multisets themselves, probabilities bit for bit.  A failed
check refines again under the next salt, and after the last one raises
NumericalError (exit 4): no two nodes whose laws differ ever share a
class.

On the symmetric preset families the classes are known in closed form
(``graphs._Family.closed``): the target's distance classes on cycles,
complete and complete bipartite graphs and hypercubes, whose intersection
arrays give the quotient (Brouwer, Cohen & Neumaier, Distance-Regular
Graphs, 1989, section 4.1; on the hypercube it is the Ehrenfest urn, Kac
1947), the orbits of the target's stabilizer on the tori, and on paths
the pairs about a centre target or else single nodes.
:func:`_preset_lumped` builds the system from them through the same tail
as the refinement's (:func:`_system`), so the two give the same Q, P1 and
index map, bit for bit, and the closed form needs no graph.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GraphTooLargeError,
    InvalidParameterError,
    NotConnectedError,
    NumericalError,
    OracleTooLargeError,
)
from .graphs import GAMMA, TransitionKernel, _arc_ranges, _levels, _require_array_size, mix64
from .linalg import solve

__all__ = [
    "AbsorbingSystem",
    "PmfTable",
    "MomentReport",
    "make_absorbing",
    "lumped_absorbing",
    "pmf",
    "moments",
    "closed_complete",
    "closed_bipartite",
    "closed_cycle",
    "cycle_mean",
    "path_endpoint_pmf",
    "return_second_moment",
    "brute_pmf",
]

_IDENTITY_TOL = 1e-12

# Q steps through its padded neighbour table when its widest row holds at
# most 1/_SPARSE_ROW_FRACTION of the states, and as a dense product
# otherwise.  Median time of one step (microseconds, one BLAS thread,
# 2-core x86-64), states x widest row:
#   torus_std:41       1680 x 4     dense 1243   table   32
#   hypercube:10       1023 x 10    dense  408   table   34
#   bipartite:333:667   999 x 667   dense  388   table 2106
#   bipartite:133:267   399 x 267   dense   24   table  224
# On circulant graphs the two break even near width/states = 0.05 at 400
# states (Q fits in cache), 0.15 at 1000 and 0.2 at 1700.  Below about
# 200 states dense wins at any width, by at most 3 us a step.
_SPARSE_ROW_FRACTION = 10

# pmf steps its first _BLOCK rows one at a time, then, for fewer than
# _BLOCK reported rows, fills each later block of _BLOCK rows from
# Q^_BLOCK, taken by log2(_BLOCK) squarings (baby steps and giant steps,
# Paterson & Stockmeyer, SIAM J. Comput. 2(1), 1973): N/_BLOCK + _BLOCK + 5
# numpy calls instead of N.  Only the reported rows of Q^(_BLOCK b) step
# on, one product a block, and times the first block give block b (giant
# steps), O(reported * states^2 / _BLOCK) a row against the loop's
# O(states * width); their O(states^3) squarings then compete with the
# loop's steps alone, so giant steps take systems with states^3 at most
# _GIANT_STEP_RATIO * horizon, and only horizons over 2 * _BLOCK.  Every
# other table is the one-row loop.
# Best time of one 2000-row table (ms, one BLAS thread, 2-core x86-64),
# lumped to node 0, one start:
#                   states   loop  giant
#   hypercube:10        10    5.4    0.5
#   torus_std:31       135    9.7    1.3
#   cycle:300          150    8.9    1.4
#   torus_std:41       230   12.0    4.5
#   torus_std:47       299   14.1    6.1
#   cycle:600          300   12.9    7.5
#   torus_std:51       350   16.7    9.3
# The two routes break even where the squarings' cost meets the loop's,
# near states^3 = 2.5e4 * horizon from 100 to 1000 states (ms, one start,
# giant steps against the loop):
#   states  100: horizon   65  0.57 / 0.53, horizon   100  0.55 / 0.74
#   states  230: horizon  200  3.81 / 2.24, horizon   500  4.15 / 5.36
#   states  405: horizon 1500 18.6 / 19.4,  horizon  5000  23.9 / 63.3
#   states  665: horizon 5000 71.2 / 48.1,  horizon 20000 155 / 219
#   states 1000: horizon 20000 409 / 350,   horizon 50000 773 / 759
# A giant step's relative error grows by about 4 units of roundoff a block
# (Q^_BLOCK is rounded once and applied again each block), where the
# loop's grows more slowly: against a long-double reference, 20000-row
# tables on complete:50, bipartite:20:40 and hypercube:10 are 1.6e-13 to
# 3.1e-13 off in giant steps and 5e-15 to 1e-14 off one row at a time, and
# a 200000-row table on complete:500 1.2e-12 and 2.4e-14 off.
_BLOCK = 32
_GIANT_STEP_RATIO = 25_000

# brute_pmf enumerates degree^n trajectories, so it only takes instances
# this small.
_BRUTE_MAX_STEPS = 10
_BRUTE_MAX_NODES = 6

# The exact check of a partition (_is_equitable) packs (node, neighbour
# class, probability code) into one int64 key per arc, exact while the
# product of their ranges stays below this; past it the check raises
# GraphTooLargeError.  It sorts the keys once for the levels, and once
# more only when they are not equitable (and again after each hash
# collision).  The product is at most V * V * (distinct step
# probabilities), so it takes ~10^6 nodes with ~10^7 distinct
# probabilities to get there.  One lexsort of the three columns would
# lift the bound, at about five times the cost of sorting the key (418k
# arcs, bipartite:323:647: 19 ms against 3.5 ms).
_SIGNATURE_KEY_LIMIT = 2**63

# The hashed refinement runs at most this many times, each under its own
# salt: a partition that fails the exact check is refined again under the
# next.  Salt s hashes with draws s * 2^40 + 1, s * 2^40 + 2, ... of one
# SplitMix64 stream.
_SALTS = 3
_SALT_DRAWS = 2**40


@dataclass(frozen=True)
class AbsorbingSystem:
    """Walk restricted to the non-target states.

    arcs holds Q, the kernel with the target's row and column removed, as
    its nonzero entries (rows, columns, values) in row-major order;
    first_step[i] = P(tau_{i,j} = 1), and index_map maps reduced indices
    back to original node indices (original order, target excised).  In
    a lumped system (:func:`lumped_absorbing`) each row stands for a class
    of nodes with one law, and index_map holds each class's smallest node.
    From the arcs on first read: q_rows, Q as a padded neighbour table (ELL
    layout; row i has the values q_rows[1][i] at the columns q_rows[0][i])
    when its widest row is a small fraction of the states (see
    ``_SPARSE_ROW_FRACTION``), else None; and q_matrix, the dense Q, which
    only the dense step, :func:`pmf`'s giant steps and :func:`moments` read.
    """

    target: int
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray]
    first_step: np.ndarray
    index_map: tuple[int, ...]

    @cached_property
    def q_rows(self) -> tuple[np.ndarray, np.ndarray] | None:
        wide = np.bincount(self.arcs[0], minlength=self.size).max() * _SPARSE_ROW_FRACTION > self.size
        return None if wide else _row_table(*self.arcs, self.size)

    @cached_property
    def q_matrix(self) -> np.ndarray:
        q = np.zeros((self.size, self.size))
        q[self.arcs[:2]] = self.arcs[2]
        q.setflags(write=False)
        return q

    @property
    def size(self) -> int:
        return len(self.index_map)

    def reduced_index(self, node: int) -> int:
        """Reduced row index of an original (non-target) node."""
        return _row_of(self.index_map, node)

    def step(self, vec: np.ndarray) -> np.ndarray:
        """Q @ vec: through the neighbour table when there is one, in
        O(size * width), else as a dense product."""
        if self.q_rows is None:
            return self.q_matrix @ vec
        cols, vals = self.q_rows
        return np.einsum("ij,ij->i", vals, vec[cols])


@dataclass(frozen=True)
class PmfTable:
    """Per-step hitting probabilities up to a horizon.

    probs[n][i] = P(tau = n+1 from state states[i]); residual[i] is the
    mass not absorbed by the horizon, 1 - sum_n probs[n][i].
    """

    probs: np.ndarray
    states: tuple[int, ...]
    target: int
    residual: np.ndarray

    def __post_init__(self) -> None:
        self.probs.setflags(write=False)
        self.residual.setflags(write=False)
        if np.any(self.probs < -_IDENTITY_TOL) or np.any(self.probs > 1.0 + _IDENTITY_TOL):
            raise InvalidParameterError("pmf entries must lie in [0, 1]")
        cums = self.probs.sum(axis=0)
        if np.any(cums > 1.0 + _IDENTITY_TOL):
            raise InvalidParameterError("per-start cumulative mass exceeds 1")

    @property
    def horizon(self) -> int:
        """Number of steps computed: the horizon :func:`pmf` was asked for."""
        return self.probs.shape[0]

    def column(self, start: int) -> np.ndarray:
        """Series P(tau = 1), P(tau = 2), ... for one start node."""
        return self.probs[:, _row_of(self.states, start)]

    def prob(self, start: int, n: int) -> float:
        """P(tau = n) for a start node; n >= 1 and within the horizon."""
        if n < 1 or n > self.horizon:
            raise InvalidParameterError(f"step {n} outside computed horizon")
        return float(self.probs[n - 1, _row_of(self.states, start)])


@dataclass(frozen=True)
class MomentReport:
    """First two moments and the variance per start state."""

    mean: np.ndarray
    second: np.ndarray
    variance: np.ndarray
    states: tuple[int, ...]

    def for_state(self, node: int) -> tuple[float, float, float]:
        i = _row_of(self.states, node)
        return float(self.mean[i]), float(self.second[i]), float(self.variance[i])


def _row_of(states: tuple[int, ...], node: int) -> int:
    """Row of ``node`` among a system's or a table's ``states``."""
    try:
        return states.index(node)
    except ValueError:
        raise InvalidParameterError(
            f"node {node} has no row: it is the target, out of range, or shares a lumped class with a smaller "
            "node (a lumped table keeps one row per class, whose row lumped_absorbing's rows gives)"
        ) from None


def _require_reachable(
    kernel: TransitionKernel, target: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Raise :class:`NotConnectedError` unless every state can reach the target.

    Decided exactly by a reverse search over the kernel support, which is
    directed only where a step probability underflows to 0 (see
    ``graphs.TransitionKernel``), and only there are the predecessors
    searched by column.  Returns its levels (the fewest steps from each
    state to the target) and the predecessor table (ptr, pred) it
    searched: the states with an arc into state n are pred[ptr[n]:ptr[n+1]].
    The kernel keeps the result for the last target searched, so the
    answers of one query (the lumped chain and Monte Carlo's check in
    ``compare``) share one search.
    """
    if kernel._search is not None and kernel._search[0] == target:
        return kernel._search[1]
    rows, cols = kernel.support
    if len(rows) == len(kernel.origin._arcs[0]):
        # the support is every arc of an undirected graph: each state's
        # predecessors are its successors, in the same (ascending) order
        predecessors = np.searchsorted(rows, np.arange(kernel.node_count + 1)), cols
    else:
        by_col = np.argsort(cols, kind="stable")
        predecessors = np.searchsorted(cols[by_col], np.arange(kernel.node_count + 1)), rows[by_col]
    levels = _levels(*predecessors, target)
    if levels.min() < 0:
        raise NotConnectedError(f"target {target} unreachable from some state")
    for array in (levels, *predecessors):
        array.setflags(write=False)
    kernel._search = target, (levels, predecessors)
    return levels, predecessors


def _row_table(rows, cols, vals, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded neighbour table (columns, values) of a ``size``-row matrix
    given its nonzero entries sorted by row; padding has value 0 at column 0."""
    widths = np.bincount(rows, minlength=size)
    slot = np.arange(len(rows)) - (np.cumsum(widths) - widths)[rows]
    table_cols = np.zeros((size, widths.max(initial=0)), dtype=np.intp)
    table_vals = np.zeros(table_cols.shape)
    table_cols[rows, slot] = cols
    table_vals[rows, slot] = vals
    table_cols.setflags(write=False)
    table_vals.setflags(write=False)
    return table_cols, table_vals


def make_absorbing(kernel: TransitionKernel, target: int) -> AbsorbingSystem:
    """Delete the target row and column, given that absorption is certain.

    Reachability of the target is decided exactly by a reverse search
    over the kernel support.  When every state reaches the target, the
    finite chain is absorbed with probability 1 and the spectral radius
    of Q is below 1 (Kemeny-Snell, Finite Markov Chains, 1960), so I - Q
    is invertible.
    """
    return _quotient(kernel, target, lump=False)[0]


def lumped_absorbing(kernel: TransitionKernel, target: int) -> tuple[AbsorbingSystem, np.ndarray]:
    """Absorbing system of the quotient chain on the coarsest equitable
    partition that keeps the target alone (see the module docstring).

    Returns the system and ``rows``: ``rows[node]`` is the system row of
    the node's class, -1 at the target.  Rows are numbered in the order of
    their smallest nodes, each row of Q and P1 is taken from that node,
    and ``index_map`` lists those nodes; so when every class is a single
    node, the system is :func:`make_absorbing`'s, bit for bit.
    """
    return _quotient(kernel, target, lump=True)


def _quotient(kernel: TransitionKernel, target: int, lump: bool) -> tuple[AbsorbingSystem, np.ndarray]:
    """Absorbing system of the classes of the coarsest equitable partition
    with the target alone when ``lump``, of single nodes otherwise; and the
    system row of each node.  The classes come from the kernel here, and
    from a preset family's closed form in :func:`_preset_lumped`; both
    build the system from the smallest nodes' arcs in :func:`_system`."""
    v = kernel.node_count
    if not 0 <= target < v:
        raise InvalidParameterError(f"target {target} out of range")
    if v < 2:
        raise InvalidParameterError("graph has no non-target states")
    levels, predecessors = _require_reachable(kernel, target)
    cells = _equitable_cells(kernel, levels, predecessors) if lump else np.arange(v)
    reps = np.unique(cells, return_index=True)[1]
    reps = np.delete(reps, cells[target])
    rows = cells - (cells > cells[target])
    rows[target] = -1
    rows.setflags(write=False)
    heads, tails = kernel.support
    is_rep = np.zeros(v, dtype=bool)
    is_rep[reps] = True
    picked = is_rep[heads]
    heads = heads[picked]
    ones = np.ones(len(heads), dtype=np.intp)
    return _system(target, reps, rows[heads], rows[tails[picked]], kernel.values[picked], ones), rows


def _system(target: int, reps, row, col, probs, count) -> AbsorbingSystem:
    """Absorbing system of the classes whose smallest nodes are ``reps``,
    from those nodes' arcs: an arc from system row ``row`` into row ``col``
    (-1: the target) with step probability ``probs``, ``count`` times over."""
    k = len(reps)
    p1 = np.zeros(k)
    hit = col < 0
    p1[row[hit]] = (count * probs)[hit]
    live = ~hit & (count > 0)  # no entry of count 0 (K_2's class into itself)
    entry, probs, count = row[live] * k + col[live], probs[live], count[live]
    vals = count * probs
    if np.any(entry[1:] <= entry[:-1]):  # some row has arcs into one class
        # equal probabilities into one class add as one product, count * p
        # (rounded once, not count times), and the products in order of p
        order = np.lexsort((probs, entry))
        entry, probs, count = entry[order], probs[order], count[order]
        runs = np.flatnonzero(np.append(True, (entry[1:] != entry[:-1]) | (probs[1:] != probs[:-1])))
        entry, slot = np.unique(entry[runs], return_inverse=True)
        vals = np.bincount(slot, weights=np.add.reduceat(count, runs) * probs[runs])
    rows, cols = entry // k, entry % k
    if np.max(np.abs(p1 + np.bincount(rows, weights=vals, minlength=k) - 1.0)) > _IDENTITY_TOL:
        raise InvalidParameterError("rows of [Q | P1] must sum to 1")
    for array in (rows, cols, vals, p1):
        array.setflags(write=False)
    return AbsorbingSystem(target=target, arcs=(rows, cols, vals), first_step=p1, index_map=tuple(reps.tolist()))


class _ClassRows:
    """``rows[nodes]``, the system row of each node's class (-1 at the
    target), looked up by class instead of held per node."""

    def __init__(self, key, row: np.ndarray):
        self.key, self.row = key, row

    def __getitem__(self, nodes):
        return self.row[self.key(np.asarray(nodes))]


def _preset_lumped(family, params: list[int], target: int) -> tuple[AbsorbingSystem, _ClassRows] | None:
    """:func:`lumped_absorbing` on a preset family's walk, from the family's
    classes in closed form (``graphs._Family``), with no graph, kernel or
    search: the same system, bit for bit, and its rows by class.  None
    where the family has no closed form."""
    classes = family.closed[1](*params, target) if family.closed else None
    if classes is None:
        return None
    reps, key, head, tail, count, prob = classes
    order = np.argsort(reps)  # rows in the order of the smallest nodes
    row = np.empty(len(reps) + 1, dtype=np.intp)
    row[order] = np.arange(len(reps))
    row[-1] = -1  # the target's class, key -1
    return _system(target, reps[order], row[head], row[tail], prob, count), _ClassRows(key, row)


def _equitable_cells(
    kernel: TransitionKernel, levels: np.ndarray, predecessors: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Class of each node in the coarsest equitable partition that keeps
    the target alone, classes numbered in the order of their smallest nodes.

    ``levels`` and ``predecessors`` are :func:`_require_reachable`'s:
    each node's fewest steps to the target (0 at the target alone) and the
    nodes with an arc into each node.  Every equitable partition that
    keeps the target alone is finer than the levels (the nodes within k
    steps of the target are a union of classes, by induction on k), so
    refining starts from them.

    A step probability is coded by its rank among the distinct values,
    compared bit for bit.  The exact check (:func:`_is_equitable`) first
    tries the levels themselves, which are equitable on cycles, hypercubes
    and complete bipartite graphs.  Otherwise the refinement
    (:func:`_hashed_rounds`) splits classes by a 64-bit hash of each
    node's multiset of (neighbour class, code) pairs.  Equal multisets
    hash equal, so it never splits a class of the coarsest equitable
    partition; a hash collision can only leave a class unsplit.  The check
    then accepts the settled partition, which makes it the coarsest
    equitable one.  A failed check refines again from the levels under
    the next salt, and raises :class:`NumericalError` (exit 4) when every
    salt fails, so no unchecked partition is ever returned.
    """
    values = kernel.values  # sorted by head: one run per node under unit weights
    runs = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    _, run_code = np.unique(values[runs], return_inverse=True)
    code = np.repeat(run_code, np.diff(runs, append=len(values)))
    n_codes = int(run_code.max()) + 1
    out_ptr = np.searchsorted(kernel.support[0], np.arange(kernel.node_count + 1))
    refined = (_hashed_rounds(kernel, levels, predecessors, out_ptr, code, n_codes, salt) for salt in range(_SALTS))
    for colour in itertools.chain([levels], refined):
        if _is_equitable(kernel, colour, out_ptr, code, n_codes):
            _, first, cell = np.unique(colour, return_index=True, return_inverse=True)
            rank = np.empty_like(first)
            rank[np.argsort(first)] = np.arange(len(first))
            return rank[cell]
    raise NumericalError(f"equitable partition not settled: hash collisions under {_SALTS} salts")


def _hashed_rounds(kernel, levels, predecessors, out_ptr, code, n_codes: int, salt: int) -> np.ndarray:
    """Refine the levels by hashed signatures until no class splits; the
    class of each node, in no particular numbering.

    A (class, code) pair hashes to SplitMix64 draw number class * n_codes
    + code + 1 past the salt's first draw, mix64(number * GAMMA), which is
    0 only at number 0 (mod 2^64): no pair drops out of a node's
    signature, the wrapping 64-bit sum of its arcs' pair hashes.  Every
    round signs only its own nodes, through their arcs alone: the first
    every node of a class of more than one node, each later one only such
    nodes with an arc into a node that changed class, so a round costs the
    arcs it reads.
    Each class records the signature its unsigned members share.  The
    signed nodes are sorted by (class, signature); the part with the
    recorded signature keeps the class, or the largest part when every
    member was signed, and every other part becomes a new class.
    """
    tails = kernel.support[1]
    pred_ptr, pred = predecessors
    # pair hash = mix64(class * step + draw[arc]), in wrapping int64 arithmetic
    step = np.uint64(n_codes * GAMMA % 2**64).astype(np.int64)
    draw = ((code.astype(np.uint64) + np.uint64(salt * _SALT_DRAWS + 1)) * np.uint64(GAMMA)).astype(np.int64)
    colour = levels.copy()
    size = np.zeros(kernel.node_count, dtype=np.intp)
    classes = int(levels.max()) + 1
    size[:classes] = np.bincount(levels)
    shared = np.zeros(kernel.node_count, dtype=np.uint64)  # the signature of each class's unsigned members
    todo = np.flatnonzero(size[colour] > 1)
    while todo.size:
        arcs, at = _arc_ranges(out_ptr, todo)  # each node has an arc
        sig = np.add.reduceat(mix64(colour[tails[arcs]] * step + draw[arcs]), at)
        cls = colour[todo]
        order = np.lexsort((sig, cls))
        todo, cls, sig = todo[order], cls[order], sig[order]
        # runs of one class, and within them parts: runs of one signature
        head = np.empty(len(todo) + 1, dtype=bool)
        head[0] = head[-1] = True
        head[1:-1] = cls[1:] != cls[:-1]
        cut = head.nonzero()[0]
        signed = cls[cut[:-1]]
        whole = cut[1:] - cut[:-1] == size[signed]
        head[1:-1] |= sig[1:] != sig[:-1]
        edges = head.nonzero()[0]
        if whole.any():
            # a class whose every member was signed is kept by its largest part
            part_size = edges[1:] - edges[:-1]
            score = part_size * len(part_size) - np.arange(len(part_size))
            largest = -np.maximum.reduceat(score, edges.searchsorted(cut[:-1]))[whole] % len(part_size)
            shared[signed[whole]] = sig[edges[largest]]
        go = sig != shared[cls]
        if not go.any():
            break
        changed = todo[go]
        moved = head[:-1] & go  # the first node of each part that moves
        new = (classes - 1 + moved.cumsum())[go]
        colour[changed] = new
        moved = moved.nonzero()[0]
        size[classes : classes + len(moved)] = np.bincount(new - classes)
        size[signed] -= np.add.reduceat(go.astype(np.intp), cut[:-1])
        shared[classes : classes + len(moved)] = sig[moved]
        classes += len(moved)
        reached = pred[_arc_ranges(pred_ptr, changed)[0]]
        reached = reached[size[colour[reached]] > 1]
        reached.sort()
        first = np.empty(len(reached), dtype=bool)
        first[:1] = True
        first[1:] = reached[1:] != reached[:-1]
        todo = reached[first]
    return colour


def _is_equitable(kernel, colour, out_ptr, code, n_codes: int) -> bool:
    """Whether each node has the same multiset of (neighbour class, code)
    pairs as its class's first node, compared exactly."""
    heads, tails = kernel.support
    _, lead, cell = np.unique(colour, return_index=True, return_inverse=True)
    if len(lead) == len(colour):
        return True  # every class a single node
    # (node, neighbour class, code) as one key, below V * span (see
    # _SIGNATURE_KEY_LIMIT)
    span = (int(colour.max()) + 1) * n_codes
    if len(colour) * span > _SIGNATURE_KEY_LIMIT:
        raise GraphTooLargeError(
            f"equitable partition of {kernel.node_count} nodes with {n_codes} distinct step probabilities "
            "exceeds the int64 signature key"
        )
    lead = lead[cell]  # each node's class's first node
    # sort each node's pairs, and compare them with its lead's
    if not np.array_equal(np.diff(out_ptr), np.diff(out_ptr)[lead]):
        return False
    key = colour[tails]
    key *= n_codes
    key += code
    offset = heads * span
    key += offset
    key.sort()
    key -= offset
    first = out_ptr[:-1]
    return np.array_equal(key, key[np.arange(len(key)) + (first[lead] - first)[heads]])


def _reported_rows(system: AbsorbingSystem, rows) -> np.ndarray:
    """``rows`` as an index array, each checked to be a row of ``system``."""
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    if rows.size == 0 or np.any((rows < 0) | (rows >= system.size)):
        raise InvalidParameterError(f"rows must lie in 0..{system.size - 1}, at least one of them")
    return rows


def pmf(system: AbsorbingSystem, horizon: int, rows=None) -> PmfTable:
    """Iterate P_n = Q^{n-1} P1 for n = 1..horizon.

    The table reports the system ``rows`` given (every row by default,
    repeats allowed), one column each, and ``states`` names each column's
    state.  It always holds ``horizon`` rows, and its residual is the mass
    not absorbed by then, the rows subtracted from 1 one by one.

    Rows are stepped one at a time, for every state, storing the reported
    columns.  Over 2 * ``_BLOCK`` rows, with fewer than ``_BLOCK`` rows
    reported (every state counts when ``rows`` is None) and states^3 at
    most ``_GIANT_STEP_RATIO`` times the horizon, later rows come in
    blocks of ``_BLOCK`` from Q^_BLOCK instead, rows 0 .. _BLOCK - 1 being
    the loop's, bit for bit: the reported rows of Q^(_BLOCK b) step on by
    one product a block, and times the first block give block b (giant
    steps, see ``_BLOCK``).  Either way every term is a sum of products of
    non-negative numbers, so it keeps its relative accuracy down to the
    smallest normal double (2.2e-308), a giant step's error growing by a
    few units of roundoff a block (see ``_BLOCK``); below that, where the
    one-row loop leaves subnormal terms, a block product can round them
    to 0.  The table holds horizon x (reported rows) numbers, and giant
    steps O(states^2) more.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    cols = slice(None) if rows is None else _reported_rows(system, rows)
    width = system.size if rows is None else len(cols)
    _require_array_size(horizon * width, "pmf table")
    giant = horizon > 2 * _BLOCK and width < _BLOCK and system.size**3 <= _GIANT_STEP_RATIO * horizon
    probs = np.empty((horizon, width))
    vec = system.first_step
    probs[0] = vec[cols]
    head = [vec]
    for n in range(1, _BLOCK if giant else horizon):
        vec = system.step(vec)
        probs[n] = vec[cols]
        if giant:
            head.append(vec)
    if giant:
        power = system.q_matrix
        for _ in range(_BLOCK.bit_length() - 1):
            power = power @ power
        # always a full block, so row n comes out the same at any horizon
        for start, block in zip(range(_BLOCK, horizon, _BLOCK), _giant_steps(power, np.array(head), cols)):
            probs[start:start + _BLOCK] = block[: horizon - start]
    if not np.all(np.isfinite(probs)):
        raise InvalidParameterError("Q step product contains non-finite entries")
    return PmfTable(
        probs=probs,
        states=system.index_map if rows is None else tuple(system.index_map[r] for r in cols.tolist()),
        target=system.target,
        residual=np.subtract.reduce(probs, axis=0, initial=1.0),
    )


def _giant_steps(power: np.ndarray, head: np.ndarray, cols):
    """Blocks 1, 2, ... of ``_BLOCK`` rows in the ``cols`` columns only:
    block b is head times the ``cols`` rows of Q^(_BLOCK b), which step on
    by one product with Q^_BLOCK a block."""
    giant = power[cols]
    while True:
        yield head @ giant.T
        giant = giant @ power


def moments(system: AbsorbingSystem) -> MomentReport:
    """Exact first two moments of the hitting time.

    mean = (I-Q)^{-1} 1 and second = 2 Q (I-Q)^{-2} 1 + mean, i.e. the
    second moment carries the first-moment term that the bare
    2*sum(n Q^n 1) series drops (that series gives 0 on the forced
    single step of K_2, where the truth is 1).
    """
    n = system.size
    eye = np.eye(n)
    a = eye - system.q_matrix
    ones = np.ones(n)
    # I - Q is invertible (see make_absorbing); a failed solve is numerical.
    # mean and inner share one factorisation of I - Q.
    mean, inner = solve(a, np.column_stack([ones, system.q_matrix @ ones])).T
    second = 2.0 * solve(a, inner) + mean
    variance = second - mean**2
    if mean.min() < 1.0 - 1e-9:
        raise InvalidParameterError("every non-target start needs at least one step")
    if variance.min() < -1e-9:
        raise InvalidParameterError("negative variance beyond tolerance")
    return MomentReport(mean=mean, second=second, variance=variance, states=system.index_map)


# ---------------------------------------------------------------------------
# closed forms for the standard families
# ---------------------------------------------------------------------------

def closed_complete(k: int, n: int) -> float:
    """P(tau = n) on K_k: geometric with success probability 1/(k-1)."""
    if k < 2:
        raise InvalidParameterError("complete graph needs k >= 2")
    if n < 1:
        raise InvalidParameterError("step must be >= 1")
    return ((k - 2) / (k - 1)) ** (n - 1) / (k - 1)


def closed_bipartite(k1: int, k2: int, case: str, n: int) -> float:
    """P(tau = n) on K_{k1,k2} with the target in the side of size k2.

    "cross": start in the other side (size k1); hits happen at odd steps
    with per-round success 1/k2.  "same-side": start beside the target
    (size-k2 side, needs k2 >= 2); hits happen at even steps with the
    same rate.  Wrong-parity steps return exactly 0.
    """
    if k1 < 1 or k2 < 1:
        raise InvalidParameterError("bipartite sides must be nonempty")
    if n < 1:
        raise InvalidParameterError("step must be >= 1")
    if case == "cross":
        if n % 2 == 0:
            return 0.0
        rounds = (n + 1) // 2
    elif case == "same-side":
        if k2 < 2:
            raise InvalidParameterError("same-side case needs two nodes in the target side")
        if n % 2 == 1:
            return 0.0
        rounds = n // 2
    else:
        raise InvalidParameterError("case must be 'cross' or 'same-side'")
    return (1.0 - 1.0 / k2) ** (rounds - 1) / k2


def closed_cycle(k: int, i: int, n: int | np.ndarray) -> float | np.ndarray:
    """P(tau = n) from node i to node 0 on the k-cycle, a float for a step
    n and an array of them for an array of steps.

    Trigonometric sum from the tridiagonal Toeplitz diagonalization of
    Q; the summation index is independent of the target label.
    """
    if k < 3:
        raise InvalidParameterError("cycle needs k >= 3")
    if not 1 <= i <= k - 1:
        raise InvalidParameterError("start must satisfy 1 <= i <= k-1")
    steps = np.asarray(n)
    if np.any(steps < 1):
        raise InvalidParameterError("step must be >= 1")
    m = np.arange(1, k)
    theta = m * np.pi / k
    total = np.sum(
        np.cos(theta) ** (steps[..., None] - 1)
        * (np.sin(theta) + np.sin(m * (k - 1) * np.pi / k))
        * np.sin(i * theta),
        axis=-1,
    )
    return total / k if steps.ndim else float(total / k)


def cycle_mean(k: int, i: int, j: int) -> float:
    """Expected hitting time d(k-d) on the k-cycle, d the circular
    displacement between i and j (the product is symmetric in d and k-d).
    """
    if k < 3:
        raise InvalidParameterError("cycle needs k >= 3")
    if not (0 <= i < k and 0 <= j < k):
        raise InvalidParameterError("node labels must lie in 0..k-1")
    d = min((i - j) % k, (j - i) % k)
    return float(d * (k - d))


def path_endpoint_pmf(path_nodes: int, start: int, n: int) -> float:
    """P(tau = n) from node ``start`` to endpoint 0 on a path.

    A path on k+1 nodes with absorbing endpoint 0 is the reflection
    quotient of the 2k-cycle: interior nodes pair up across the target
    and the far endpoint is the reflection's fixed point, so the value
    is the 2k-cycle closed form at the same displacement.  Smallest
    supported path is 0-1-2 (three nodes).
    """
    if path_nodes < 3:
        raise InvalidParameterError("path reflection needs at least three nodes")
    k = path_nodes - 1
    if not 1 <= start <= k:
        raise InvalidParameterError("start must be a non-target path node")
    return closed_cycle(2 * k, start, n)


# ---------------------------------------------------------------------------
# return moments and oracles
# ---------------------------------------------------------------------------

def return_second_moment(kernel: TransitionKernel, node: int) -> float:
    """q* = E[(tau^+)^2], second moment of the first return time.

    First-step analysis: a step to s != node contributes
    E[(1 + tau_{s,node})^2] = 1 + 2 mean_s + second_s, and a self-loop
    step returns immediately (contribution 1).  The node's steps are read
    from its arcs, so the dense kernel is never formed.
    """
    system = make_absorbing(kernel, node)
    rep = moments(system)
    heads, tails = kernel.support
    lo, hi = np.searchsorted(heads, [node, node + 1])
    steps = dict(zip(tails[lo:hi].tolist(), kernel.values[lo:hi].tolist()))
    total = steps.pop(node, 0.0)
    for tail, prob in steps.items():
        reduced = system.reduced_index(tail)
        total += prob * (1.0 + 2.0 * rep.mean[reduced] + rep.second[reduced])
    return float(total)


def brute_pmf(kernel: TransitionKernel, start: int, target: int, n_max: int) -> np.ndarray:
    """Exact hitting pmf by exhaustive trajectory enumeration.

    Walks every target-avoiding trajectory of length <= n_max and sums
    the path probabilities that end on the target; entry n-1 of the
    result is P(tau = n).  Guarded to tiny instances (the count grows
    like degree^n); exceeding the guards raises
    :class:`OracleTooLargeError`.
    """
    v = kernel.node_count
    if n_max > _BRUTE_MAX_STEPS or v > _BRUTE_MAX_NODES:
        raise OracleTooLargeError(
            f"brute enumeration limited to {_BRUTE_MAX_NODES} nodes / {_BRUTE_MAX_STEPS} steps"
        )
    if start == target:
        raise InvalidParameterError("start must differ from target")
    m = kernel.matrix
    succ = [np.nonzero(m[i])[0] for i in range(v)]
    probs = np.zeros(n_max)

    def explore(node: int, step: int, acc: float) -> None:
        for nxt in succ[node]:
            p = acc * m[node, nxt]
            if nxt == target:
                probs[step] += p
            elif step + 1 < n_max:
                explore(int(nxt), step + 1, p)

    explore(start, 0, 1.0)
    return probs

