"""Trace-recursion engine for walk-regular graphs.

Let B be the simple-walk matrix (each edge crossed with probability
proportional to its weight).  When every node returns to itself in k
steps with the same probability t_k = Trace(B^k)/V, for every k, the
graph is walk-regular (Godsil and McKay, Linear Algebra Appl. 30, 1980)
and the first-passage matrices M_n[i][j] = P(tau_{i,j} = n) satisfy

    M_0 = I,
    M_n = B^n - sum_{k=1..n} t_k M_{n-k}.

Summing the recursion gives the Cauchy-product identity
sum_{k=0..n} t_k M_{n-k} = B^n, and generating functions
sum_n (M_n)_{ij} t^n are rational with numerator V * adj(I - tB)_{ij}
and denominator det(I - tB) * sum_k V t_k t^k (a polynomial of degree
V-1).  No eigenvalues are ever computed individually: everything flows
through traces, and det(I - tB) follows from them by Newton's
identities.

Vertex-transitive graphs are walk-regular, and so is every strongly
regular graph.  The hypothesis itself is checked, to 1e-12: each power
B^k is formed once, and the first k at which a diagonal entry differs
from t_k raises :class:`HypothesisError`.  By Cayley-Hamilton, k < V
covers every k.

The recursion is a series division, M = B / T with T(t) = sum_k t_k t^k,
and it acts entrywise.  So the one-pair functions (``gf_series``,
``rational_gf``) keep only t_k and (B^k)_{ij} of each power, and their
memory is O(N + V^2) rather than the O(N V^2) of the full stack
``mn_sequence`` returns.  Forming B^k, which the check needs anyway,
costs O(V^3) per step; the division itself one length-k dot product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, InvalidParameterError, NumericalError
from .graphs import Graph, simple_walk_kernel

__all__ = [
    "TracePowerTable",
    "MnSequence",
    "RationalGF",
    "trace_powers",
    "mn_sequence",
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

    Raises :class:`HypothesisError` at the first k where some node's
    k-step return probability differs from t_k = Trace(B^k)/V.
    """
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


def _entry_series(graph: Graph, i: int, j: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Traces t_0..t_n and the series (M_k)_{ij}, k = 0..n, from one pass over the powers."""
    traces = np.empty(n + 1)
    entries = np.empty(n + 1)
    traces[0] = 1.0
    entries[0] = float(i == j)
    for k, (power, t) in enumerate(_walk_powers(graph, n), start=1):
        traces[k] = t
        entries[k] = power[i, j]
    return traces, _series_divide(entries, traces)


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


def gf_series(graph: Graph, i: int, j: int, n: int) -> np.ndarray:
    """Taylor coefficients of sum_n P(tau_{i,j} = n) t^n for n = 0..N."""
    _require_pair(graph, i, j)
    if n < 0:
        raise InvalidParameterError("need n >= 0")
    return _entry_series(graph, i, j, n)[1]


@dataclass(frozen=True)
class RationalGF:
    """Rational generating function for one (start, target) pair.

    Coefficient vectors are in ascending powers of t; denominator(0)
    equals the node count.  ``series(n)`` re-expands the Taylor series
    by long division for cross-checks against the trace recursion.
    ``recursion`` holds the trace-recursion coefficients (M_n)_{ij},
    n = 0..N with N >= 2V, that the pair was checked against.
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

    The power sums p_k = V t_k give c(t) = det(I - tB) by Newton's
    identities, k c_k = -sum_{m=1..k} p_m c_{k-m}.  The denominator
    c(t) * sum_k p_k t^k = V c(t) - t c'(t) has coefficients (V - k) c_k
    and degree V-1; the numerator is the denominator times the series
    sum_n (M_n)_{ij} t^n, truncated to degree V-1.  The pair must
    re-expand to the trace recursion through degree 2V within 1e-8,
    else :class:`NumericalError`.  The recursion runs to
    max(2V, horizon), so the series through ``horizon`` comes from the
    same pass as ``recursion``.
    """
    _require_pair(graph, i, j)
    if horizon < 0:
        raise InvalidParameterError("need horizon >= 0")
    v = graph.node_count
    traces, series = _entry_series(graph, i, j, max(2 * v, horizon))
    power_sums = v * traces[:v]
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
