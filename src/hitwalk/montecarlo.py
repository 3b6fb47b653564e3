"""Seeded trajectory simulator: the universal empirical oracle.

Reproducibility contract
------------------------
Every trial owns an independent substream of a 64-bit SplitMix-style
generator, derived only from the master seed and the trial index:

    GAMMA = 0x9E3779B97F4A7C15
    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z &= 2^64-1
              z ^= z >> 27; z *= 0x94D049BB133111EB; z &= 2^64-1
              return z ^ (z >> 31)

    stream_state(trial)   = mix64((master_seed + (trial+1) * GAMMA) mod 2^64)
    k-th draw of a trial  = mix64((stream_state(trial) + k * GAMMA) mod 2^64)
    uniform in [0, 1)     = (draw >> 11) * 2^-53

Because substreams are per-trial, a run of N trials reproduces the
first N samples of any longer run with the same seed.  The same rules
reproduce the streams in any language.

Trials that reach the step cap are counted and excluded from the
statistics, never silently folded in: hitting times are heavy-tailed and
silent truncation would bias the variance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .graphs import TransitionKernel
from .hitting import PmfTable, _require_reachable, _row_table

__all__ = [
    "GAMMA",
    "mix64",
    "uniform_from_draw",
    "SimConfig",
    "SampleSummary",
    "simulate",
    "GoodnessReport",
    "empirical_vs_exact",
]

_U64 = np.uint64
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_CAP_WARNING_FRACTION = 0.01


def mix64(z):
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    z = np.asarray(z, dtype=_U64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _U64(_M1)
        z = (z ^ (z >> _U64(27))) * _U64(_M2)
        return z ^ (z >> _U64(31))


def uniform_from_draw(draw) -> np.ndarray:
    """Map a 64-bit draw to a double in [0, 1) using the top 53 bits."""
    return (np.asarray(draw, dtype=_U64) >> _U64(11)).astype(np.float64) * 2.0**-53


def _stream_states(master_seed: int, count: int) -> np.ndarray:
    idx = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(_U64(master_seed & 0xFFFFFFFFFFFFFFFF) + (idx + _U64(1)) * _U64(GAMMA))


@dataclass(frozen=True)
class SimConfig:
    """Simulation protocol; results are a pure function of these fields
    plus the (kernel, start, target) triple."""

    trials: int
    master_seed: int
    step_cap: int = 10**7

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.step_cap < 1:
            raise InvalidParameterError("step_cap must be >= 1")


@dataclass(frozen=True)
class SampleSummary:
    """Empirical hitting-time statistics.

    ``samples[t]`` is the hitting time of trial t, or -1 if the trial hit
    the step cap.  mean/variance/min/max and the empirical pmf cover
    completed trials only; ``capped_count`` reports the rest and
    ``cap_warning`` is set when more than 1% of trials were capped.
    """

    samples: np.ndarray
    mean: float
    variance: float
    min: int
    max: int
    capped_count: int
    cap_warning: bool
    empirical_pmf: np.ndarray = field(repr=False)  # counts, index n = steps

    @property
    def completed(self) -> int:
        return len(self.samples) - self.capped_count


def _simulate_trials(
    kernel_cum: np.ndarray,
    neighbor_table: np.ndarray,
    start: int,
    target: int,
    master_seed: int,
    count: int,
    step_cap: int,
) -> np.ndarray:
    states = _stream_states(master_seed, count)
    positions = np.full(count, start, dtype=np.int64)
    outcome = np.full(count, -1, dtype=np.int64)
    active = np.arange(count)
    step = 0
    gamma = _U64(GAMMA)
    while active.size and step < step_cap:
        step += 1
        with np.errstate(over="ignore"):
            states[active] += gamma
        u = uniform_from_draw(mix64(states[active]))
        rows = kernel_cum[positions[active]]
        choice = np.sum(u[:, None] >= rows, axis=1)
        positions[active] = neighbor_table[positions[active], choice]
        hit = positions[active] == target
        if np.any(hit):
            outcome[active[hit]] = step
            active = active[~hit]
    return outcome


def simulate(
    kernel: TransitionKernel, start: int, target: int, config: SimConfig
) -> SampleSummary:
    """Walk ``config.trials`` independent trajectories until absorption.

    Categorical steps follow the kernel rows.  Raises
    :class:`NotConnectedError` when some state cannot reach the target,
    before any trial can run to the step cap.
    """
    v = kernel.node_count
    if not (0 <= start < v and 0 <= target < v):
        raise InvalidParameterError("start/target out of range")
    if start == target:
        raise InvalidParameterError("start must differ from target")
    _require_reachable(kernel, target)
    rows, cols = kernel.support
    neighbor_table, probs = _row_table(rows, cols, kernel.matrix[rows, cols], v)
    last = np.bincount(rows, minlength=v)[:, None] - 1
    # from each row's last neighbour on, the bound is 1 and the move is to it
    past_last = np.arange(probs.shape[1]) >= last
    kernel_cum = np.where(past_last, 1.0, np.cumsum(probs, axis=1))
    neighbor_table = np.where(past_last, np.take_along_axis(neighbor_table, last, axis=1), neighbor_table)

    samples = _simulate_trials(
        kernel_cum, neighbor_table, start, target, config.master_seed, config.trials, config.step_cap
    )
    done = samples[samples >= 0]
    capped = int(np.sum(samples < 0))
    if done.size == 0:
        raise InvalidParameterError("every trial hit the step cap; raise step_cap")
    mean = float(done.mean())
    variance = float(done.var(ddof=1)) if done.size > 1 else 0.0
    counts = np.bincount(done)
    samples.setflags(write=False)
    counts.setflags(write=False)
    return SampleSummary(
        samples=samples,
        mean=mean,
        variance=variance,
        min=int(done.min()),
        max=int(done.max()),
        capped_count=capped,
        cap_warning=capped > _CAP_WARNING_FRACTION * config.trials,
        empirical_pmf=counts,
    )


@dataclass(frozen=True)
class GoodnessReport:
    """Chi-squared style distance between empirical and exact pmfs.

    Bins are the steps whose expected count is at least 5; rows hold
    (step, expected count, observed count, z score) for plotting.
    """

    bins: tuple[int, ...]
    expected: np.ndarray
    observed: np.ndarray
    z_scores: np.ndarray
    chi_squared: float
    max_abs_z: float
    trials: int

    def rows(self) -> list[tuple[int, float, float, float]]:
        return [
            (n, float(e), float(o), float(z))
            for n, e, o, z in zip(self.bins, self.expected, self.observed, self.z_scores)
        ]


def empirical_vs_exact(
    kernel: TransitionKernel,
    start: int,
    target: int,
    config: SimConfig,
    horizon: int,
    exact: PmfTable | None = None,
) -> GoodnessReport:
    """Compare simulated hitting counts against the exact distribution.

    ``exact`` defaults to the absorbing-chain iteration on the same
    kernel; passing a table lets callers reuse one or substitute a
    closed form.
    """
    from .hitting import make_absorbing, pmf  # late import keeps module load light

    summary = simulate(kernel, start, target, config)
    if exact is None:
        exact = pmf(make_absorbing(kernel, target), horizon, stop_early=False)
    column = exact.column(start)
    bins = []
    expected = []
    observed = []
    for n in range(1, min(horizon, exact.horizon) + 1):
        p = float(column[n - 1])
        exp_count = config.trials * p
        if exp_count >= 5.0:
            obs = float(summary.empirical_pmf[n]) if n < len(summary.empirical_pmf) else 0.0
            bins.append(n)
            expected.append(exp_count)
            observed.append(obs)
    expected_arr = np.array(expected)
    observed_arr = np.array(observed)
    if expected_arr.size:
        ps = expected_arr / config.trials
        sd = np.sqrt(config.trials * ps * (1.0 - ps))
        diff = observed_arr - expected_arr
        # a degenerate bin (p = 1) has zero spread; any deviation is infinite
        z = np.divide(diff, sd, out=np.where(diff == 0.0, 0.0, np.inf), where=sd > 0.0)
        chi = float(np.sum(diff**2 / expected_arr))
        max_z = float(np.max(np.abs(z)))
    else:
        z = np.zeros(0)
        chi = 0.0
        max_z = 0.0
    return GoodnessReport(
        bins=tuple(bins),
        expected=expected_arr,
        observed=observed_arr,
        z_scores=z,
        chi_squared=chi,
        max_abs_z=max_z,
        trials=config.trials,
    )
