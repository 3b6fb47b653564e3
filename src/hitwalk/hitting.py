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
exactly.  The classes are found by worklist refinement, re-signing only
the nodes with an arc into a node that changed class (Paige & Tarjan,
"Three partition refinement algorithms", SIAM J. Comput. 16(6), 1987).
Probabilities are compared bit for bit, so no two nodes whose laws
differ ever share a class.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GraphTooLargeError,
    InvalidParameterError,
    NotConnectedError,
    OracleTooLargeError,
)
from .graphs import TransitionKernel, _arc_ranges, _levels, _require_array_size
from .linalg import SERIES_TAIL, solve

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

# brute_pmf enumerates degree^n trajectories, so it only takes instances
# this small.
_BRUTE_MAX_STEPS = 10
_BRUTE_MAX_NODES = 6

# _equitable_cells packs (signing node, neighbour class, probability code)
# into one int64 key, exact while the product of their ranges stays below
# this; past it the refinement raises GraphTooLargeError.  The product is
# at most V * V * (distinct step probabilities), so it takes ~10^6 nodes
# with ~10^7 distinct probabilities to get there.  One lexsort of the three
# columns would lift the bound, at about six times the cost of np.unique
# on the key (418k arcs, bipartite:323:647).
_SIGNATURE_KEY_LIMIT = 2**63


@dataclass(frozen=True)
class AbsorbingSystem:
    """Walk restricted to the non-target states.

    q_matrix is the kernel with the target's row and column removed,
    first_step[i] = P(tau_{i,j} = 1), and index_map maps reduced indices
    back to original node indices (original order, target excised).  In
    a lumped system (:func:`lumped_absorbing`) each row stands for a class
    of nodes with one law, and index_map holds each class's smallest node.
    q_rows is derived from q_matrix: when Q's widest row is a small
    fraction of the states (see ``_SPARSE_ROW_FRACTION``) it holds Q as a
    padded neighbour table (ELL layout), row i of Q having the values
    q_rows[1][i] at the columns q_rows[0][i], padded with zeros to the
    widest row; otherwise it is None.
    """

    target: int
    q_matrix: np.ndarray
    first_step: np.ndarray
    index_map: tuple[int, ...]
    q_rows: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = self.q_matrix
        n = len(q)
        nonzero = q != 0
        table = None
        if n and nonzero.sum(axis=1).max() * _SPARSE_ROW_FRACTION <= n:
            # flatnonzero of the mask is ten times faster than nonzero(q)
            rows, cols = np.divmod(np.flatnonzero(nonzero), n)
            table = _row_table(rows, cols, q[rows, cols], n)
        object.__setattr__(self, "q_rows", table)

    @property
    def size(self) -> int:
        return len(self.index_map)

    def reduced_index(self, node: int) -> int:
        """Reduced row index of an original (non-target) node."""
        try:
            return self.index_map.index(node)
        except ValueError:
            raise InvalidParameterError(
                f"node {node} is not a non-target state of this system"
            ) from None

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
    mass not yet absorbed, 1 - sum_n probs[n][i].
    """

    probs: np.ndarray
    states: tuple[int, ...]
    target: int
    residual: np.ndarray
    requested_horizon: int

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
        """Number of steps actually computed (may stop short of the request)."""
        return self.probs.shape[0]

    def column(self, start: int) -> np.ndarray:
        """Series P(tau = 1), P(tau = 2), ... for one start node."""
        return self.probs[:, self.states.index(start)]

    def prob(self, start: int, n: int) -> float:
        """P(tau = n) for a start node; n >= 1 and within the horizon."""
        if n < 1 or n > self.horizon:
            raise InvalidParameterError(f"step {n} outside computed horizon")
        return float(self.probs[n - 1, self.states.index(start)])


@dataclass(frozen=True)
class MomentReport:
    """First two moments and the variance per start state."""

    mean: np.ndarray
    second: np.ndarray
    variance: np.ndarray
    states: tuple[int, ...]

    def for_state(self, node: int) -> tuple[float, float, float]:
        i = self.states.index(node)
        return float(self.mean[i]), float(self.second[i]), float(self.variance[i])


def _require_reachable(
    kernel: TransitionKernel, target: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Raise :class:`NotConnectedError` unless every state can reach the target.

    Decided exactly by a reverse search over the kernel support.  Returns
    its levels (the fewest steps from each state to the target) and the
    predecessor table (ptr, pred) it searched: the states with an arc into
    state n are pred[ptr[n]:ptr[n+1]].
    """
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
    system row of each node."""
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
    heads, tails = heads[picked], tails[picked]
    probs = kernel.values[picked]
    row, col = rows[heads], rows[tails]
    p1 = np.zeros(len(reps))
    hit = col < 0
    p1[row[hit]] = probs[hit]
    # equal probabilities into one class add as one product, count * p,
    # which rounds once where a running sum would round count times
    k = len(reps)
    entry, probs = row[~hit] * k + col[~hit], probs[~hit]
    if np.any(entry[1:] <= entry[:-1]):  # some row has arcs into one class
        order = np.lexsort((probs, entry))
        entry, probs = entry[order], probs[order]
    starts = np.ones(len(entry), dtype=bool)
    starts[1:] = (entry[1:] != entry[:-1]) | (probs[1:] != probs[:-1])
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=len(probs))
    q = np.bincount(entry[first], weights=counts * probs[first], minlength=k * k).reshape(k, k)
    if np.max(np.abs(p1 + q.sum(axis=1) - 1.0)) > _IDENTITY_TOL:
        raise InvalidParameterError("rows of [Q | P1] must sum to 1")
    q.setflags(write=False)
    p1.setflags(write=False)
    system = AbsorbingSystem(target=target, q_matrix=q, first_step=p1, index_map=tuple(reps.tolist()))
    return system, rows


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

    A node's signature is the sorted multiset of (neighbour class, step
    probability) pairs, the probability compared bit for bit.  The first
    round signs every node; after it, a round signs only the nodes with an
    arc into a node that changed class.  Each class keeps the multiset its
    unsigned members share, so a signed node stays when it matches it and
    the others split off by signature; a class with no member left to
    match is kept by its largest part.  A class of one node never splits
    and is never signed.
    """
    v = kernel.node_count
    heads, tails = kernel.support  # sorted by head, then tail
    _, code = np.unique(kernel.values, return_inverse=True)
    n_codes = int(code.max()) + 1
    pred_ptr, pred = predecessors
    out_ptr = np.searchsorted(heads, np.arange(v + 1))
    colour = levels.copy()
    size = np.bincount(colour, minlength=v + 1)
    shared: list[bytes | None] = [None] * (colour.max() + 1)  # the multiset of each class
    todo = np.flatnonzero(size[colour] > 1)
    while todo.size:
        arcs, width = _arc_ranges(out_ptr, todo)
        # (signing node, neighbour class, probability code) as one key, below
        # todo.size * span (see _SIGNATURE_KEY_LIMIT)
        span = len(shared) * n_codes
        if todo.size * span > _SIGNATURE_KEY_LIMIT:
            raise GraphTooLargeError(
                f"equitable partition of {v} nodes with {n_codes} distinct step probabilities "
                "exceeds the int64 signature key"
            )
        key = np.repeat(np.arange(todo.size) * span, width) + colour[tails[arcs]] * n_codes + code[arcs]
        key, count = np.unique(key, return_counts=True)
        owner, pair = np.divmod(key, span)
        # one (class, probability, count) triple per distinct pair, 24 bytes each
        blob = np.stack([*np.divmod(pair, n_codes), count], axis=1).astype(np.int64).tobytes()
        cut = (24 * np.searchsorted(owner, np.arange(todo.size + 1))).tolist()
        signed: dict[int, int] = {}
        parts: dict[int, dict[bytes, list[int]]] = {}
        for i, (node, c) in enumerate(zip(todo.tolist(), colour[todo].tolist())):
            signed[c] = signed.get(c, 0) + 1
            sig = blob[cut[i] : cut[i + 1]]
            if sig != shared[c]:
                parts.setdefault(c, {}).setdefault(sig, []).append(node)
        changed = []
        for c, split in parts.items():
            if signed[c] == size[c] and sum(map(len, split.values())) == size[c]:
                shared[c] = max(split, key=lambda sig: len(split[sig]))
                del split[shared[c]]
            for sig, nodes in split.items():
                colour[nodes] = len(shared)
                size[len(shared)] = len(nodes)
                size[c] -= len(nodes)
                shared.append(sig)
                changed += nodes
        if not changed:
            break
        todo = np.unique(pred[_arc_ranges(pred_ptr, np.array(changed))[0]])
        todo = todo[size[colour[todo]] > 1]
    _, first, cell = np.unique(colour, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[cell]


def pmf(system: AbsorbingSystem, horizon: int, stop_early: bool = True) -> PmfTable:
    """Iterate P_n = Q^{n-1} P1 for n = 1..horizon.

    With ``stop_early`` the iteration ends once every start has residual
    mass below ``SERIES_TAIL``; the table records how many steps were
    actually produced.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    _require_array_size(horizon * system.size, "pmf table")
    probs = np.empty((horizon, system.size))
    probs[0] = system.first_step
    residual = 1.0 - probs[0]
    for n in range(1, horizon):
        if stop_early and residual.max() < SERIES_TAIL:
            probs = probs[:n].copy()  # frees the rows never reached
            break
        probs[n] = system.step(probs[n - 1])
        residual -= probs[n]
    if not np.all(np.isfinite(probs)):
        raise InvalidParameterError("Q step product contains non-finite entries")
    return PmfTable(
        probs=probs,
        states=system.index_map,
        target=system.target,
        residual=residual,
        requested_horizon=horizon,
    )


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


def closed_cycle(k: int, i: int, n: int) -> float:
    """P(tau = n) from node i to node 0 on the k-cycle.

    Trigonometric sum from the tridiagonal Toeplitz diagonalization of
    Q; the summation index is independent of the target label.
    """
    if k < 3:
        raise InvalidParameterError("cycle needs k >= 3")
    if not 1 <= i <= k - 1:
        raise InvalidParameterError("start must satisfy 1 <= i <= k-1")
    if n < 1:
        raise InvalidParameterError("step must be >= 1")
    m = np.arange(1, k)
    theta = m * np.pi / k
    total = np.sum(
        np.cos(theta) ** (n - 1)
        * (np.sin(theta) + np.sin(m * (k - 1) * np.pi / k))
        * np.sin(i * theta)
    )
    return float(total / k)


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
    step returns immediately (contribution 1).
    """
    system = make_absorbing(kernel, node)
    rep = moments(system)
    row = kernel.matrix[node]
    total = row[node] * 1.0
    for reduced, orig in enumerate(system.index_map):
        total += row[orig] * (1.0 + 2.0 * rep.mean[reduced] + rep.second[reduced])
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

