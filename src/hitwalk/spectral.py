"""Trace-recursion engine: the paper's first-passage matrices and rational
generating functions on walk-regular graphs.

Let B be the simple-walk matrix (each edge crossed with probability
proportional to its weight).  A walk from i that is at j after k steps
first reached j at some step l <= k, so the first-passage probabilities
f_l = P(tau_{i,j} = l) satisfy the renewal identity

    (B^k)_{ij} = sum_{l=0..k} f_l (B^{k-l})_{jj},

with f_0 = [i = j].  When every node returns to itself in k steps with
the same probability t_k = Trace(B^k)/V, for every k, the graph is
walk-regular (Godsil and McKay, Linear Algebra Appl. 30, 1980),
(B^k)_{jj} = t_k for every j, and the first-passage matrices
M_n[i][j] = P(tau_{i,j} = n) satisfy the paper's trace recursion

    M_0 = I,
    M_n = B^n - sum_{k=1..n} t_k M_{n-k}.

Generating functions sum_n (M_n)_{ij} t^n of a walk-regular graph are
then rational with numerator V * adj(I - tB)_{ij} and denominator
det(I - tB) * sum_k V t_k t^k (a polynomial of degree V-1).  No
eigenvalues are ever computed individually: det(I - tB) follows from the
traces by Newton's identities.

``rational_gf``, ``mn_sequence`` and ``trace_powers`` need
walk-regularity, and they check it, to 1e-12: each power B^k is formed
densely, and the first k at which a diagonal entry differs from t_k
raises :class:`HypothesisError`.  By Cayley-Hamilton B^k lies in the span
of I, B, ..., B^{V-1}, so k < V covers every k, and ``rational_gf``
forms only those powers.  Vertex-transitive graphs are walk-regular, and
so is every strongly regular graph.

A one-pair series is not divided out of walk powers: the renewal
identity with the target's own returns r_k = (B^k)_{jj} holds for the
path sums of any square matrix, so dividing by r_k only gives back the
absorbing chain's Q^{n-1} P1, with more roundoff.  ``rational_gf`` takes
the series from its caller (0, then ``problem.ENGINES["direct"]``) and
forms the rational pair, whose denominator comes from the trace power
sums alone, checked against it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, InvalidParameterError, NotConnectedError, NumericalError
from .graphs import Graph, simple_walk_kernel

__all__ = [
    "MnSequence",
    "RationalGF",
    "trace_powers",
    "mn_sequence",
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


def trace_powers(graph: Graph, n: int) -> np.ndarray:
    """The shared return probabilities t_k = Trace(B^k)/V, k = 0..n, of a
    walk-regular graph, checked at every step, as a read-only array."""
    if n < 0:
        raise InvalidParameterError("need n >= 0")
    values = np.empty(n + 1)
    values[0] = 1.0
    for k, (_, t) in enumerate(_walk_powers(graph, n), start=1):
        values[k] = t
    values.setflags(write=False)
    return values


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


@dataclass(frozen=True)
class RationalGF:
    """Rational generating function for one (start, target) pair.

    Coefficient vectors are in ascending powers of t; denominator(0)
    equals the node count.  ``series(n)`` re-expands the Taylor series
    by long division for cross-checks against the trace recursion.
    """

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self) -> None:
        self.numerator.setflags(write=False)
        self.denominator.setflags(write=False)

    def series(self, n: int) -> np.ndarray:
        den0 = self.denominator[0]
        if abs(den0) < 1e-14:
            raise InvalidParameterError("denominator vanishes at t = 0")
        num, den = np.zeros((2, n + 1))
        num[: len(self.numerator)] = self.numerator[: n + 1]
        den[: len(self.denominator)] = self.denominator[: n + 1]
        return _series_divide(num / den0, den / den0)


def _trim(coeffs: np.ndarray, bounds=0.0) -> np.ndarray:
    """``coeffs`` through its last term above its bound or NaN, and at
    least one term."""
    last = np.nonzero(~(np.abs(coeffs) <= bounds))[0]
    if len(last) == 0:
        return coeffs[:1]
    return coeffs[: last[-1] + 1]


def rational_gf(graph: Graph, series) -> RationalGF:
    """Numerator/denominator polynomials of the hitting generating function
    whose Taylor series, sum_n P(tau_{i,j} = n) t^n for one pair of
    ``graph``, is given through degree 2V at least.

    The power sums p_k = V t_k, k < V, give c(t) = det(I - tB) by
    Newton's identities, k c_k = -sum_{m=1..k} p_m c_{k-m}; forming them
    checks walk-regularity, which k < V settles for every k.  The
    denominator c(t) * sum_k p_k t^k = V c(t) - t c'(t) has coefficients
    (V - k) c_k and degree V-1; the numerator is the denominator times
    the series, truncated to degree V-1.  The pair must re-expand to the
    series through degree 2V within 1e-8, else :class:`NumericalError`.
    """
    v = graph.node_count
    if len(series) <= 2 * v:
        raise InvalidParameterError(f"need a series of more than 2V = {2 * v} terms")
    power_sums = v * trace_powers(graph, v - 1)
    char = np.empty(v)
    char[0] = 1.0
    for k in range(1, v):
        char[k] = -np.dot(power_sums[1 : k + 1], char[k - 1 :: -1]) / k
    den = (v - np.arange(v)) * char
    # a numerator term at or below V u (|den| * |series|)_k, the rounding
    # bound of the convolution alone, is trimmed from the end; the error
    # already in den and the series is not counted, so near the bound the
    # length can still follow roundoff
    rounding = v * 2.0**-53 * np.convolve(np.abs(den), np.abs(series[:v]))[:v]
    ratio = RationalGF(
        numerator=_trim(np.convolve(den, series[:v])[:v], rounding),
        denominator=_trim(den),
    )
    drift = float(np.max(np.abs(ratio.series(2 * v) - series[: 2 * v + 1])))
    if not drift <= _SELF_CHECK_ATOL:
        raise NumericalError(
            f"rational generating function drifts {drift:.3e} from the series "
            f"by degree {2 * v}"
        )
    return ratio
