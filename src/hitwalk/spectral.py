"""Trace-recursion engine: first-passage series by series division.

Let B be the simple-walk matrix (each edge crossed with probability
proportional to its weight).  A walk from i that is at j after k steps
first reached j at some step l <= k, so the first-passage probabilities
f_l = P(tau_{i,j} = l) satisfy the renewal identity

    (B^k)_{ij} = sum_{l=0..k} f_l (B^{k-l})_{jj},

with f_0 = [i = j].  With r_k = (B^k)_{jj} (r_0 = 1) this is a series
division, f = b / r with b_k = (B^k)_{ij}, exact on every connected
graph.  When every node returns to itself in k steps with the same
probability t_k = Trace(B^k)/V, for every k, the graph is walk-regular
(Godsil and McKay, Linear Algebra Appl. 30, 1980), r_k = t_k for every
j, and the first-passage matrices M_n[i][j] = P(tau_{i,j} = n) satisfy
the paper's trace recursion

    M_0 = I,
    M_n = B^n - sum_{k=1..n} t_k M_{n-k}.

Generating functions sum_n (M_n)_{ij} t^n of a walk-regular graph are
then rational with numerator V * adj(I - tB)_{ij} and denominator
det(I - tB) * sum_k V t_k t^k (a polynomial of degree V-1).  No
eigenvalues are ever computed individually: det(I - tB) follows from the
traces by Newton's identities.

Only ``rational_gf``, ``mn_sequence`` and ``trace_powers`` need
walk-regularity, and they check it, to 1e-12: each power B^k is formed
densely, and the first k at which a diagonal entry differs from t_k
raises :class:`HypothesisError`.  By Cayley-Hamilton B^k lies in the span
of I, B, ..., B^{V-1}, so k < V covers every k, and ``rational_gf``
forms only those powers.  Vertex-transitive graphs are walk-regular, and
so is every strongly regular graph.

The one-pair series (``lumped_series``, behind ``gf_series`` and
``rational_gf``) needs only b_k and r_k, the entries i and j of the
target's column B^k e_j, and never forms B^k.  The coarsest
equitable partition that keeps j alone (``hitting.lumped_absorbing``)
has characteristic matrix S with BS = S B_pi, so B^k e_j = S B_pi^k e_[j]
(Kemeny & Snell, Finite Markov Chains, 1960, section 6.3): both numbers
are entries of one class vector w_k = B_pi w_{k-1}, w_0 = e_[j].  B_pi is
the lumped absorbing chain [Q | P1] plus the target's own row, so a step
costs O(classes * row width), and the division one length-k dot product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hitting
from .errors import HypothesisError, InvalidParameterError, NotConnectedError, NumericalError
from .graphs import Graph, _require_array_size, simple_walk_kernel

__all__ = [
    "TracePowerTable",
    "MnSequence",
    "RationalGF",
    "trace_powers",
    "mn_sequence",
    "lumped_series",
    "gf_series",
    "rational_gf",
]

# The rational pair must re-expand to the trace recursion this closely.
_SELF_CHECK_ATOL = 1e-8
# Largest gap between a k-step return probability and t_k that still
# counts as walk-regular; the preset families stay within 2.3e-16 through
# k = 1600.
_WALK_REGULAR_ATOL = 1e-12


def _walk_powers(graph: Graph, n: int):
    """Yield (B^k, t_k) for k = 1..n, B the simple-walk matrix.

    Raises :class:`NotConnectedError` on a disconnected graph, and
    :class:`HypothesisError` at the first k where some node's k-step
    return probability differs from t_k = Trace(B^k)/V.
    """
    if not graph.connected:
        raise NotConnectedError("graph is disconnected; hitting times may be infinite")
    b = simple_walk_kernel(graph).matrix
    v = graph.node_count
    power = np.eye(v)
    for k in range(1, n + 1):
        power = power @ b
        t = np.trace(power) / v
        gaps = np.abs(np.diag(power) - t)
        node = int(np.argmax(gaps))
        if gaps[node] > _WALK_REGULAR_ATOL:
            raise HypothesisError(
                f"graph is not walk-regular: node {node} returns in {k} steps with "
                f"probability {power[node, node]:.6g}, the node average is {t:.6g}"
            )
        yield power, t


@dataclass(frozen=True)
class TracePowerTable:
    """Shared return probabilities t_k = Trace(B^k)/V, k = 0..N."""

    values: np.ndarray
    node_count: int

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class MnSequence:
    """First-passage matrices M_0..M_N and the traces t_0..t_N behind them."""

    matrices: np.ndarray  # (N+1, V, V)
    traces: np.ndarray  # (N+1,)
    node_count: int

    def __post_init__(self) -> None:
        self.matrices.setflags(write=False)
        self.traces.setflags(write=False)

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def entry(self, i: int, j: int) -> np.ndarray:
        """Series (M_n)_{i,j} for n = 0..N."""
        return self.matrices[:, i, j]


def _series_divide(b: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Solve sum_{l=0..k} t_l m_{k-l} = b_k for m, in place over b's first axis.

    t_0 = 1, so m_0 = b_0 and m_k = b_k - sum_{l=1..k} t_l m_{k-l}; each
    step is one product over the trailing axes (a scalar series or a stack
    of V x V matrices alike).
    """
    flat = b.reshape(len(b), -1)
    for k in range(1, len(flat)):
        flat[k] -= traces[k:0:-1] @ flat[:k]
    return b


def _lumped_column(kernel, lumped, i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B^k)_{ij} and r_k = (B^k)_{jj}, k = 0..n, from the target's column of
    its lumped chain ``lumped = hitting.lumped_absorbing(kernel, j)``."""
    _require_array_size(2 * (n + 1), "spectral series")
    system, rows = lumped
    j = system.target
    heads, tails = kernel.support
    arcs = slice(*np.searchsorted(heads, [j, j + 1]))
    # the target's row of B_pi: its arcs summed by class (a graph has no
    # self-loops, so none returns to the target in one step)
    target_row = np.bincount(rows[tails[arcs]], weights=kernel.values[arcs], minlength=system.size)
    column, back = np.zeros(system.size), 1.0  # w_k off the target's class, and on it
    row = rows[i]
    entries, returns = np.empty((2, n + 1))
    entries[0], returns[0] = 0.0, 1.0
    for k in range(1, n + 1):
        column, back = system.step(column) + back * system.first_step, target_row @ column
        entries[k], returns[k] = column[row], back
    # for i = j the entries are the returns (rows[j] = -1 read a stray class)
    return (returns.copy() if i == j else entries), returns


def trace_powers(graph: Graph, n: int) -> TracePowerTable:
    """t_0..t_n of a walk-regular graph, checked at every step."""
    if n < 0:
        raise InvalidParameterError("need n >= 0")
    values = np.empty(n + 1)
    values[0] = 1.0
    for k, (_, t) in enumerate(_walk_powers(graph, n), start=1):
        values[k] = t
    return TracePowerTable(values=values, node_count=graph.node_count)


def mn_sequence(graph: Graph, n: int) -> MnSequence:
    """M_0..M_n by the trace recursion, checking walk-regularity through step n."""
    if n < 0:
        raise InvalidParameterError("need n >= 0")
    v = graph.node_count
    traces = np.empty(n + 1)
    traces[0] = 1.0
    mats = np.empty((n + 1, v, v))
    mats[0] = np.eye(v)
    for k, (power, t) in enumerate(_walk_powers(graph, n), start=1):
        traces[k] = t
        mats[k] = power
    return MnSequence(matrices=_series_divide(mats, traces), traces=traces, node_count=v)


def _require_pair(graph: Graph, i: int, j: int) -> None:
    v = graph.node_count
    if not (0 <= i < v and 0 <= j < v):
        raise InvalidParameterError("node indices out of range")


def lumped_series(kernel, lumped, i: int, n: int) -> np.ndarray:
    """``gf_series`` on a built walk kernel and its target's lumped chain."""
    return _series_divide(*_lumped_column(kernel, lumped, i, n))


def gf_series(graph: Graph, i: int, j: int, n: int) -> np.ndarray:
    """Taylor coefficients of sum_n P(tau_{i,j} = n) t^n for n = 0..N."""
    _require_pair(graph, i, j)
    if n < 0:
        raise InvalidParameterError("need n >= 0")
    kernel = simple_walk_kernel(graph)
    return lumped_series(kernel, hitting.lumped_absorbing(kernel, j), i, n)


@dataclass(frozen=True)
class RationalGF:
    """Rational generating function for one (start, target) pair.

    Coefficient vectors are in ascending powers of t; denominator(0)
    equals the node count.  ``series(n)`` re-expands the Taylor series
    by long division for cross-checks against the trace recursion.
    ``recursion`` holds the series (M_n)_{ij}, n = 0..N with N >= 2V,
    that the pair was checked against.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    start: int
    target: int
    recursion: np.ndarray

    def __post_init__(self) -> None:
        self.numerator.setflags(write=False)
        self.denominator.setflags(write=False)
        self.recursion.setflags(write=False)

    def series(self, n: int) -> np.ndarray:
        den0 = self.denominator[0]
        if abs(den0) < 1e-14:
            raise InvalidParameterError("denominator vanishes at t = 0")
        num, den = np.zeros((2, n + 1))
        num[: len(self.numerator)] = self.numerator[: n + 1]
        den[: len(self.denominator)] = self.denominator[: n + 1]
        return _series_divide(num / den0, den / den0)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    last = np.nonzero(coeffs)[0]
    if len(last) == 0:
        return coeffs[:1]
    return coeffs[: last[-1] + 1]


def rational_gf(graph: Graph, i: int, j: int, horizon: int = 0) -> RationalGF:
    """Numerator/denominator polynomials of the hitting generating function.

    The power sums p_k = V t_k, k < V, give c(t) = det(I - tB) by
    Newton's identities, k c_k = -sum_{m=1..k} p_m c_{k-m}; forming them
    checks walk-regularity, which k < V settles for every k.  The
    denominator c(t) * sum_k p_k t^k = V c(t) - t c'(t) has coefficients
    (V - k) c_k and degree V-1; the numerator is the denominator times
    the series sum_n (M_n)_{ij} t^n, truncated to degree V-1.  The pair
    must re-expand to the series through degree 2V within 1e-8, else
    :class:`NumericalError`.  The series runs to max(2V, horizon), so the
    series through ``horizon`` comes from the same pass as ``recursion``.
    """
    _require_pair(graph, i, j)
    if horizon < 0:
        raise InvalidParameterError("need horizon >= 0")
    v = graph.node_count
    power_sums = v * trace_powers(graph, v - 1).values
    kernel = simple_walk_kernel(graph)
    series = lumped_series(kernel, hitting.lumped_absorbing(kernel, j), i, max(2 * v, horizon))
    char = np.empty(v)
    char[0] = 1.0
    for k in range(1, v):
        char[k] = -np.dot(power_sums[1 : k + 1], char[k - 1 :: -1]) / k
    den = (v - np.arange(v)) * char
    ratio = RationalGF(
        numerator=_trim(np.convolve(den, series[:v])[:v]),
        denominator=_trim(den),
        start=i,
        target=j,
        recursion=series,
    )
    drift = float(np.max(np.abs(ratio.series(2 * v) - series[: 2 * v + 1])))
    if not drift <= _SELF_CHECK_ATOL:
        raise NumericalError(
            f"rational generating function drifts {drift:.3e} from the trace "
            f"recursion by degree {2 * v}"
        )
    return ratio
