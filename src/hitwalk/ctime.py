"""Continuous-time walk engine via uniformization.

Transitions fire at unit Poisson rate, so by time t the walk has made n
discrete steps with probability e^{-t} t^n / n! and

    P(tau_c <= t) = sum_n pois(n; t) * P(hit within n steps),
    pdf(t)        = sum_n pois(n; t) * Q^n P1.

Series are truncated once the Poisson tail mass drops below the
requested tolerance; the truncation index comes from the same log-space
pass as the weights, so large t does not underflow.  Other transition rates are a pure time rescale left to
callers.  The moments are ``hitting.moments``' by identity (``ct_moments``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalError
from .graphs import _require_array_size
from .hitting import AbsorbingSystem, _reported_rows, moments, pmf

__all__ = ["CTimeEvaluation", "ct_moments", "ct_evaluate"]


# Poisson mass beyond n = t + 12*sqrt(t) + 60 (Chernoff bound, any t).
_BEYOND_LIMIT = math.exp(-72.0)


def _poisson_weights(times: np.ndarray, tol: float, width: int) -> np.ndarray:
    """pois(n; t) for every t in ``times`` (rows) and n = 0..N (columns),
    N the smallest index whose tail mass P(n > N; t) <= tol at the largest t.

    One log-space pass over n = 0..top, top = t + 12*sqrt(t) + 60 at the
    largest t, gives that time's weights; its tail is summed from the far
    end, where the terms are small, so it stays accurate where
    1 - P(n <= N) would round (1 - 1e-17 is 1.0 in float64).  Refuses a
    pmf table of top + 1 rows of ``width`` that numpy cannot size before
    the search, and raises :class:`NumericalError` when tol is below the
    mass left beyond top.
    """
    t_max = float(times.max())
    top = int(t_max + 12.0 * math.sqrt(t_max) + 60.0)
    _require_array_size((top + 1) * width, "pmf table")
    if tol < _BEYOND_LIMIT:
        raise NumericalError(
            f"tol={tol} is below the Poisson mass {_BEYOND_LIMIT:.1e} beyond the summed range"
        )
    # sized before it is filled: a top past memory fails here, at once
    log_factorial = np.fromiter(map(math.lgamma, range(1, top + 2)), float, top + 1)

    def weights(grid: np.ndarray, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1, dtype=float)
        log_t = np.array([math.log(t) if t > 0.0 else 0.0 for t in grid])
        out = np.multiply.outer(log_t, n)
        out -= grid[:, None]
        out -= log_factorial[: n_max + 1]
        np.exp(out, out=out)
        out[grid == 0.0] = n == 0  # t = 0: all mass at n = 0
        return out

    # tail[k] = mass beyond top plus pois(n; t) for n = top..top - k + 1
    tail = np.cumsum(np.r_[_BEYOND_LIMIT, weights(np.array([t_max]), top)[0, :0:-1]])
    above = tail > tol  # tail[0] <= tol, and tail only grows
    n_max = top + 1 - int(above.argmax()) if above[-1] else 0
    return weights(times, n_max)


@dataclass(frozen=True)
class CTimeEvaluation:
    """CDF and PDF values on a time grid, one column per reported row of
    the absorbing system (a start state, or a class of them when lumped);
    ``states`` holds each column's state, as the system's index_map does."""

    times: np.ndarray
    cdf: np.ndarray  # (len(times), reported rows)
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
    rows=None,
) -> CTimeEvaluation:
    """Evaluate CDF and PDF on a grid, sharing the Q-power sequence.

    The discrete vectors Q^n P1 are computed once up to the truncation
    index of the largest time, by :func:`hitting.pmf` on the system
    ``rows`` reported (every row by default, repeats allowed), which holds
    only those rows' entries; the partial sums and the Poisson-weighted
    recombination run over the same rows, one column each: a single row
    is recombined by matrix-vector products.
    """
    times = np.array([float(t) for t in times])
    if times.size == 0:
        raise InvalidParameterError("need at least one time point")
    if not np.all(np.isfinite(times)):
        raise InvalidParameterError("times must be finite")
    if np.any(times < 0.0):
        raise InvalidParameterError("times must be nonnegative")
    width = system.size if rows is None else len(_reported_rows(system, rows))
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError("tol must be in (0, 1)")
    weights = _poisson_weights(times, tol, width)
    n_max = weights.shape[1] - 1
    table = pmf(system, n_max + 1, rows=rows)
    # row n is Q^n P1; column-major, one reported row's series contiguous
    # for the products below (and so they round as they always have)
    vectors = np.asfortranarray(table.probs)
    # partial[n] = sum_{k=1..n} Q^{k-1} P1 = P(hit within n steps)
    partial = np.vstack([np.zeros(width), np.cumsum(vectors, axis=0)[:-1]])
    # every factor is >= 0, so neither product can be negative
    return CTimeEvaluation(
        times=times,
        cdf=weights @ partial,
        pdf=weights @ vectors,
        truncation=n_max,
        states=table.states,
    )


def ct_moments(system: AbsorbingSystem, order: int) -> np.ndarray:
    """Exact continuous-time moments per start, by identity from ``moments``.

    order 1: (I-Q)^{-2} P1, which collapses to the discrete mean because
    P1 = (I-Q) 1.  order 2: 2 (I-Q)^{-3} P1, which equals the discrete
    second moment plus the mean (the two clocks share their first moment
    only; the exponential holding times add exactly one mean at second
    order).
    """
    if order not in (1, 2):
        raise InvalidParameterError("order must be 1 or 2")
    report = moments(system)
    return report.mean if order == 1 else report.second + report.mean
