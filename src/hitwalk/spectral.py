"""Trace-recursion engine for vertex-transitive graphs.

On a d-regular vertex-transitive graph every node carries the same share
of closed walks, Trace(A^k)/V, and the first-passage matrices
M_n[i][j] = P(tau_{i,j} = n) satisfy

    M_0 = I,
    M_n = (A/d)^n - sum_{k=1..n} t_k M_{n-k},   t_k = Trace(A^k)/(V d^k).

Summing the recursion gives the Cauchy-product identity
sum_{k=0..n} t_k M_{n-k} = (A/d)^n, and generating functions
sum_n (M_n)_{ij} t^n are rational with numerator V * adj(I - (t/d)A)_{ij}
and denominator det(I - (t/d)A) * V * sum_k t_k t^k (a polynomial of
degree V-1).  No eigenvalues are ever computed individually: everything
flows through traces, and det(I - (t/d)A) follows from them by Newton's
identities.

Vertex-transitivity is not verified algorithmically; it holds by
construction for the Cayley presets and is otherwise asserted by the
caller.  A cheap necessary condition (all rows of M_n share one sorted
multiset) emits a warning when it fails.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, InvalidParameterError, NumericalError
from .graphs import Graph
from .linalg import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "TracePowerTable",
    "MnSequence",
    "RationalGF",
    "VertexTransitivityWarning",
    "trace_powers",
    "mn_sequence",
    "gf_series",
    "rational_gf",
]

# The rational pair must re-expand to the trace recursion this closely.
_SELF_CHECK_ATOL = 1e-8


class VertexTransitivityWarning(UserWarning):
    """Necessary condition for vertex-transitivity failed on some M_n."""


def _step_matrix(graph: Graph) -> tuple[np.ndarray, int]:
    """A/d of the simple walk, and the degree d; a common edge weight cancels."""
    d = graph.regular_degree()
    if d is None:
        raise HypothesisError("graph is not regular; trace recursion does not apply")
    if d == 0:
        raise HypothesisError("graph has no edges")
    if len({w for _, _, w in graph.edges}) > 1:
        raise HypothesisError("edge weights differ; trace recursion needs the simple walk")
    return (graph.adjacency_matrix() != 0) / d, d


@dataclass(frozen=True)
class TracePowerTable:
    """Normalized closed-walk counts t_k = Trace(A^k)/(V d^k), k = 0..N."""

    values: np.ndarray
    node_count: int
    degree: int

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class MnSequence:
    """First-passage matrices M_0..M_N for the simple walk."""

    matrices: np.ndarray  # (N+1, V, V)
    node_count: int
    degree: int

    def __post_init__(self) -> None:
        self.matrices.setflags(write=False)

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def entry(self, i: int, j: int) -> np.ndarray:
        """Series (M_n)_{i,j} for n = 0..N."""
        return self.matrices[:, i, j]


def trace_powers(graph: Graph, n: int) -> TracePowerTable:
    """Iterated-product trace table for a regular graph."""
    if n < 0:
        raise InvalidParameterError("need n >= 0")
    b, d = _step_matrix(graph)
    v = graph.node_count
    values = np.empty(n + 1)
    values[0] = 1.0
    power = np.eye(v)
    for k in range(1, n + 1):
        power = power @ b
        values[k] = np.trace(power) / v
    if np.any(np.abs(values) > 1.0 + 1e-9):
        raise InvalidParameterError("normalized trace exceeded 1; inputs inconsistent")
    return TracePowerTable(values=values, node_count=v, degree=d)


def _rows_share_multiset(m: np.ndarray, tol: float = 1e-9) -> bool:
    sorted_rows = np.sort(m, axis=1)
    return bool(np.max(np.abs(sorted_rows - sorted_rows[0])) <= tol)


def mn_sequence(graph: Graph, n: int, tolerances: Tolerances = DEFAULT_TOLERANCES) -> MnSequence:
    """M_0..M_n by the trace recursion, with cached powers of A/d."""
    if n < 0:
        raise InvalidParameterError("need n >= 0")
    b, d = _step_matrix(graph)
    v = graph.node_count
    traces = trace_powers(graph, n).values
    mats = np.empty((n + 1, v, v))
    mats[0] = np.eye(v)
    power = np.eye(v)
    warned = False
    for step in range(1, n + 1):
        power = power @ b
        acc = power.copy()
        for k in range(1, step + 1):
            acc -= traces[k] * mats[step - k]
        mats[step] = acc
        if not warned and not _rows_share_multiset(acc):
            warnings.warn(
                f"rows of M_{step} have different entry multisets; "
                "the graph is likely not vertex-transitive and these values "
                "are not first-passage probabilities",
                VertexTransitivityWarning,
                stacklevel=2,
            )
            warned = True
    return MnSequence(matrices=mats, node_count=v, degree=d)


def gf_series(
    graph: Graph, i: int, j: int, n: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Taylor coefficients of sum_n P(tau_{i,j} = n) t^n for n = 0..N."""
    v = graph.node_count
    if not (0 <= i < v and 0 <= j < v):
        raise InvalidParameterError("node indices out of range")
    return mn_sequence(graph, n, tolerances).entry(i, j).copy()


@dataclass(frozen=True)
class RationalGF:
    """Rational generating function for one (start, target) pair.

    Coefficient vectors are in ascending powers of t; denominator(0)
    equals the node count.  ``series(n)`` re-expands the Taylor series
    by long division for cross-checks against the trace recursion.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    start: int
    target: int

    def __post_init__(self) -> None:
        self.numerator.setflags(write=False)
        self.denominator.setflags(write=False)

    def series(self, n: int) -> np.ndarray:
        if abs(self.denominator[0]) < 1e-14:
            raise InvalidParameterError("denominator vanishes at t = 0")
        num = self.numerator
        den = self.denominator
        out = np.zeros(n + 1)
        for m in range(n + 1):
            acc = num[m] if m < len(num) else 0.0
            for k in range(1, min(m, len(den) - 1) + 1):
                acc -= den[k] * out[m - k]
            out[m] = acc / den[0]
        return out


def _trim(coeffs: np.ndarray) -> np.ndarray:
    last = np.nonzero(coeffs)[0]
    if len(last) == 0:
        return coeffs[:1]
    return coeffs[: last[-1] + 1]


def rational_gf(
    graph: Graph, i: int, j: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> RationalGF:
    """Numerator/denominator polynomials of the hitting generating function.

    The power sums p_k = V t_k give c(t) = det(I - (t/d)A) by Newton's
    identities, k c_k = -sum_{m=1..k} p_m c_{k-m}.  The denominator
    c(t) * sum_k p_k t^k = V c(t) - t c'(t) has coefficients (V - k) c_k
    and degree V-1; the numerator is the denominator times the series
    sum_n (M_n)_{ij} t^n, truncated to degree V-1.  The pair must
    re-expand to the trace recursion through degree 2V within 1e-8,
    else :class:`NumericalError`.
    """
    v = graph.node_count
    if not (0 <= i < v and 0 <= j < v):
        raise InvalidParameterError("node indices out of range")
    power_sums = v * trace_powers(graph, v - 1).values
    char = np.empty(v)
    char[0] = 1.0
    for k in range(1, v):
        char[k] = -np.dot(power_sums[1 : k + 1], char[k - 1 :: -1]) / k
    den = (v - np.arange(v)) * char
    series = gf_series(graph, i, j, 2 * v, tolerances)
    ratio = RationalGF(
        numerator=_trim(np.convolve(den, series[:v])[:v]),
        denominator=_trim(den),
        start=i,
        target=j,
    )
    drift = float(np.max(np.abs(ratio.series(2 * v) - series)))
    if not drift <= _SELF_CHECK_ATOL:
        raise NumericalError(
            f"rational generating function drifts {drift:.3e} from the trace "
            f"recursion by degree {2 * v}"
        )
    return ratio
