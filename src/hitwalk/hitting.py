"""General-graph first-passage engine.

Fixing a target node j and deleting its row and column from the walk
kernel leaves a substochastic matrix Q and a first-step vector P1 with
P(tau = n) = Q^{n-1} P1.  Everything here is built from that recurrence:
step distributions, moments, the characteristic function, closed forms
for the standard families, and brute-force oracles used to verify all of
it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameterError,
    NotConnectedError,
    OracleTooLargeError,
)
from .graphs import TransitionKernel, _reached
from .linalg import SERIES_TAIL, solve

__all__ = [
    "AbsorbingSystem",
    "PmfTable",
    "MomentReport",
    "make_absorbing",
    "pmf",
    "moments",
    "char_function",
    "closed_complete",
    "closed_bipartite",
    "closed_cycle",
    "cycle_mean",
    "path_endpoint_pmf",
    "return_second_moment",
    "return_mean",
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


@dataclass(frozen=True)
class AbsorbingSystem:
    """Walk restricted to the non-target states.

    q_matrix is the kernel with the target's row and column removed,
    first_step[i] = P(tau_{i,j} = 1), and index_map maps reduced indices
    back to original node indices (original order, target excised).
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


def _require_reachable(kernel: TransitionKernel, target: int) -> None:
    """Raise :class:`NotConnectedError` unless every state can reach the target.

    Decided exactly by a reverse search over the kernel support.
    """
    rows, cols = kernel.support
    if not _reached(kernel.node_count, cols, rows, target).all():
        raise NotConnectedError(f"target {target} unreachable from some state")


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
    v = kernel.node_count
    if not 0 <= target < v:
        raise InvalidParameterError(f"target {target} out of range")
    keep = [i for i in range(v) if i != target]
    if not keep:
        raise InvalidParameterError("graph has no non-target states")
    m = kernel.matrix
    _require_reachable(kernel, target)
    q = m[np.ix_(keep, keep)]
    p1 = m[keep, target]
    if np.max(np.abs(p1 + q.sum(axis=1) - 1.0)) > _IDENTITY_TOL:
        raise InvalidParameterError("rows of [Q | P1] must sum to 1")
    q.setflags(write=False)
    p1.setflags(write=False)
    return AbsorbingSystem(target=target, q_matrix=q, first_step=p1, index_map=tuple(keep))


def pmf(system: AbsorbingSystem, horizon: int, stop_early: bool = True) -> PmfTable:
    """Iterate P_n = Q^{n-1} P1 for n = 1..horizon.

    With ``stop_early`` the iteration ends once every start has residual
    mass below ``SERIES_TAIL``; the table records how many steps were
    actually produced.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
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


def char_function(system: AbsorbingSystem, t: float) -> np.ndarray:
    """E[e^{i t tau}] per start: solve (I - e^{it} Q) x = e^{it} P1."""
    phase = np.exp(1j * float(t))
    a = np.eye(system.size, dtype=complex) - phase * system.q_matrix
    return solve(a, phase * system.first_step.astype(complex))


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

def return_mean(kernel: TransitionKernel, node: int) -> float:
    """E[tau^+], the expected first return time to ``node``.

    First-step analysis over the absorbing system at the node; equals
    the node count on any vertex-transitive graph (uniform stationary
    law).
    """
    system = make_absorbing(kernel, node)
    rep = moments(system)
    row = kernel.matrix[node]
    total = row[node] * 1.0
    for reduced, orig in enumerate(system.index_map):
        total += row[orig] * (1.0 + rep.mean[reduced])
    return float(total)


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

