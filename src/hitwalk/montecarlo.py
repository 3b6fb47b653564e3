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

The draws are counter-based, so the simulator forms them in blocks: the
live walkers take up to 64 steps per block on one array of uniforms.
The k-th draw of a trial follows the rule above whatever the block
sizes, and step k of a trial uses its k-th draw, so every sample equals
that of a walk that draws one step at a time.

A step from x with uniform u moves to the j-th neighbour of x, where j
counts the cumulative bounds of row x that u reaches (u >= bound).  The
simulator makes that one gather per step, in the manner of the guide
tables of discrete inversion (Devroye, Non-Uniform Random Variate
Generation, 1986, section III.2.4), made exact: the distinct bounds
below 1 of all rows form one sorted list S', and each block's uniforms
are ranked in S' once, r = #{s in S' : s <= u}.  Every bound of every
row below 1 lies in S', and u < 1 reaches no bound of 1, so the rank
settles every comparison of u with every row: the successor table entry
M[x, r] is the move that counting in row x picks, and the samples are
those of the count.  M has V * (|S'| + 1) entries; it is built only when
that is no more than the two padded V * width row tables hold,
|S'| + 1 <= 2 width.  A regular simple walk has |S'| + 1 = width and a
path 2; kernels with many distinct bounds, such as weighted graph files,
count in each walker's row at every step instead.

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
# a block walks at most _BLOCK_STEPS steps and, while fewer than
# _BLOCK_CELLS walkers are alive, at most _BLOCK_CELLS walker-steps
_BLOCK_STEPS = 64
_BLOCK_CELLS = 2**16


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


def _step_tables(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative bounds and neighbours of each kernel row, padded to the
    widest row: a step from x with uniform u moves to
    ``neighbor_table[x, sum(u >= kernel_cum[x])]``."""
    v = kernel.node_count
    rows, cols = kernel.support
    neighbor_table, probs = _row_table(rows, cols, kernel.values, v)
    last = np.bincount(rows, minlength=v)[:, None] - 1
    # from each row's last neighbour on, the bound is 1 and the move is to it
    past_last = np.arange(probs.shape[1]) >= last
    kernel_cum = np.where(past_last, 1.0, np.cumsum(probs, axis=1))
    neighbor_table = np.where(past_last, np.take_along_axis(neighbor_table, last, axis=1), neighbor_table)
    return kernel_cum, neighbor_table


def _successor_table(
    kernel_cum: np.ndarray, neighbor_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """(S', M): the distinct bounds below 1 of every row, sorted, and the
    move from each node for a draw of each rank in S'.

    A draw u of rank r = #{s in S' : s <= u} passes exactly the bounds
    of S'[:r], so ``M[x, r] = neighbor_table[x, sum(u >= kernel_cum[x])]``
    for every u of that rank.  Moves are scaled by the row length
    |S'| + 1, so that a walker's position plus its rank indexes M.ravel().
    None when M would be larger than the two row tables, |S'| + 1 > 2 width.
    """
    v, width = kernel_cum.shape
    below = kernel_cum < 1.0
    values = kernel_cum[below]
    bounds = np.unique(values)
    size = bounds.size + 1
    if size > 2 * width:
        return None
    # a bound at index i of S' counts for the draws of rank > i, so cell
    # (x, r) of the cumulative count is the choice in row x at rank r
    cells = np.repeat(np.arange(0, v * size, size), below.sum(axis=1))
    cells += np.searchsorted(bounds, values, side="right")
    del below, values  # freed before the table is built
    choice = np.bincount(cells, minlength=v * size).reshape(v, size)
    choice.cumsum(axis=1, out=choice)
    choice += np.arange(0, v * width, width)[:, None]  # flat index into neighbor_table
    successors = neighbor_table.take(choice, out=choice)
    successors *= size
    return bounds, successors.ravel()


def _simulate_trials(
    kernel_cum: np.ndarray,
    neighbor_table: np.ndarray,
    start: int,
    target: int,
    master_seed: int,
    count: int,
    step_cap: int,
) -> np.ndarray:
    """Hitting time of each trial, or -1 at the step cap.

    Live walkers advance a block of b steps at a time on the block's
    draws k = step+1 .. step+b.  A walker that hits inside a block walks
    on to its end on its own draws and those positions are discarded, so
    every trial consumes exactly its own stream, as one step at a time.

    Positions are held scaled by the length of a successor-table row
    (by the row-table width when there is no table).  With a table
    (``_successor_table``) the block's draws are ranked in S' once, and a
    step is one gather, ``M[position + rank]``: the rank settles every
    comparison of u with the walker's bounds, so the move is the one
    that counting them picks.  Without a table a step counts the bounds
    u reaches in the walker's row.
    """
    table = _successor_table(kernel_cum, neighbor_table)
    if table is None:
        scale = kernel_cum.shape[1]
        successors = neighbor_table.ravel() * scale
    else:
        bounds, successors = table
        scale = bounds.size + 1
    states = _stream_states(master_seed, count)
    trials = np.arange(count)
    positions = np.full(count, start * scale, dtype=np.intp)
    outcome = np.full(count, -1, dtype=np.int64)
    with np.errstate(over="ignore"):
        offsets = np.arange(1, _BLOCK_STEPS + 1, dtype=_U64)[:, None] * _U64(GAMMA)
    step = 0
    while trials.size and step < step_cap:
        b = min(_BLOCK_STEPS, max(1, _BLOCK_CELLS // trials.size), step_cap - step)
        with np.errstate(over="ignore"):
            draws = uniform_from_draw(mix64(states + offsets[:b]))
            states += offsets[b - 1]
        if table is not None:
            draws = np.searchsorted(bounds, draws, side="right")  # ranks in S'
        history = np.empty(draws.shape, dtype=np.intp)
        for k in range(b):
            if table is None:
                choice = (draws[k, :, None] >= kernel_cum.take(positions // scale, axis=0)).sum(axis=1)
            else:
                choice = draws[k]
            positions = history[k] = successors.take(positions + choice)
        hit = history == target * scale
        first = hit.argmax(axis=0)
        done = hit.any(axis=0)
        outcome[trials[done]] = step + 1 + first[done]
        live = ~done
        trials, states, positions = trials[live], states[live], positions[live]
        step += b
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
    kernel_cum, neighbor_table = _step_tables(kernel)
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
