"""Continuous-time walk engine via uniformization.

Transitions fire at unit Poisson rate, so by time t the walk has made n
discrete steps with probability e^{-t} t^n / n! and

    P(tau_c <= t) = sum_n pois(n; t) * P(hit within n steps),
    pdf(t)        = sum_n pois(n; t) * Q^n P1.

Series are truncated once the Poisson tail mass drops below the
requested tolerance; weights are computed in log space so large t does
not underflow.  Other transition rates are a pure time rescale left to
callers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalError
from .hitting import AbsorbingSystem, pmf
from .linalg import solve

__all__ = ["CTimeEvaluation", "ct_moments", "ct_evaluate"]


def _poisson_weight(n: int, t: float) -> float:
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(t) - t - math.lgamma(n + 1))


def _poisson_weights(times: np.ndarray, n_max: int) -> np.ndarray:
    """pois(n; t) for every t in ``times`` (rows) and n = 0..n_max (columns).

    One log-space pass, with the same operations in the same order as
    :func:`_poisson_weight`, so the two agree to the last bits of exp.
    """
    n = np.arange(n_max + 1, dtype=float)
    log_factorial = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    positive = times > 0.0
    log_t = np.array([math.log(t) if t > 0.0 else 0.0 for t in times])
    weights = np.exp(n * log_t[:, None] - times[:, None] - log_factorial)
    weights[~positive] = n == 0  # t = 0: all mass at n = 0
    return weights


# Poisson mass beyond N = t + 12*sqrt(t) + 60 (Chernoff bound, any t).
_BEYOND_LIMIT = math.exp(-72.0)


def _truncation_index(t: float, tol: float) -> int:
    """Smallest N with Poisson tail mass P(n > N; t) <= tol.

    The tail is summed from the far end, where its terms are small, so
    it stays accurate where 1 - P(n <= N) would round (1 - 1e-17 is 1.0
    in float64).  Raises :class:`NumericalError` when tol is below the
    mass left beyond the summed range.
    """
    if tol < _BEYOND_LIMIT:
        raise NumericalError(
            f"tol={tol} is below the Poisson mass {_BEYOND_LIMIT:.1e} beyond the summed range"
        )
    if t == 0.0:
        return 0
    tail = _BEYOND_LIMIT
    for n in range(int(t + 12.0 * math.sqrt(t) + 60.0), 0, -1):
        tail += _poisson_weight(n, t)
        if tail > tol:
            return n
    return 0


@dataclass(frozen=True)
class CTimeEvaluation:
    """CDF and PDF values on a time grid, one column per start state."""

    times: np.ndarray
    cdf: np.ndarray  # (len(times), V-1)
    pdf: np.ndarray
    truncation: int
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        for arr in (self.times, self.cdf, self.pdf):
            arr.setflags(write=False)
        if np.any(self.cdf < -1e-12) or np.any(self.cdf > 1.0 + 1e-9):
            raise InvalidParameterError("CDF values must lie in [0, 1]")
        if np.any(self.pdf < -1e-12):
            raise InvalidParameterError("PDF values must be nonnegative")


def ct_evaluate(
    system: AbsorbingSystem,
    times,
    tol: float = 1e-9,
) -> CTimeEvaluation:
    """Evaluate CDF and PDF on a grid, sharing the Q-power sequence.

    The discrete vectors Q^n P1 and their partial sums are computed once
    up to the truncation index of the largest time; each grid point then
    only recombines them with its own Poisson weights.
    """
    times = np.array([float(t) for t in times])
    if times.size == 0:
        raise InvalidParameterError("need at least one time point")
    if np.any(times < 0.0):
        raise InvalidParameterError("times must be nonnegative")
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError("tol must be in (0, 1)")
    n_max = _truncation_index(float(times.max()), tol)
    vectors = pmf(system, n_max + 1, stop_early=False).probs  # row n is Q^n P1
    # partial[n] = sum_{k=1..n} Q^{k-1} P1 = P(hit within n steps)
    partial = np.vstack([np.zeros(system.size), np.cumsum(vectors, axis=0)[:-1]])
    weights = _poisson_weights(times, n_max)
    cdf_rows = np.clip(weights @ partial, 0.0, None)
    pdf_rows = np.clip(weights @ vectors, 0.0, None)
    return CTimeEvaluation(
        times=times,
        cdf=cdf_rows,
        pdf=pdf_rows,
        truncation=n_max,
        states=system.index_map,
    )


def ct_moments(system: AbsorbingSystem, order: int) -> np.ndarray:
    """Exact continuous-time moments per start.

    order 1: (I-Q)^{-2} P1, which collapses to the discrete mean because
    P1 = (I-Q) 1.  order 2: 2 (I-Q)^{-3} P1, which equals the discrete
    second moment plus the mean (the two clocks share their first moment
    only; the exponential holding times add exactly one mean at second
    order).
    """
    if order not in (1, 2):
        raise InvalidParameterError("order must be 1 or 2")
    eye = np.eye(system.size)
    a = eye - system.q_matrix
    x = solve(a, system.first_step)
    x = solve(a, x)
    if order == 1:
        return x
    return 2.0 * solve(a, x)
