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
live walkers take about 64 steps per block on one array of draws, in
groups of at most 2^16 draws.  The k-th draw of a trial follows the rule
above whatever the block and group sizes, and step k of a trial uses its
k-th draw, so every sample equals that of a walk that draws one step at
a time.

A step from x with uniform u moves to the j-th neighbour of x, where j
counts the cumulative bounds of row x that u reaches (u >= bound).  The
simulator ranks each draw once, in the manner of the guide tables of
discrete inversion (Devroye, Non-Uniform Random Variate Generation,
1986, section III.2.4), made exact: the distinct bounds below 1 of all
rows form one sorted list S', and a draw's rank is r = #{s in S' :
s <= u}.  Every bound of every row below 1 lies in S', and u < 1 reaches
no bound of 1, so the rank settles every comparison of u with every
row: the successor table entry M[x, r] is the move that counting in row
x picks, and the samples are those of the count.  The rank needs no
float: u >= s exactly when draw >> 11 >= ceil(s 2^53), so it counts the
integer thresholds that the draw's top 53 bits reach.

As a multi-stride automaton consumes k symbols per lookup (Brodie,
Taylor and Cytron, ISCA 2006), the walk consumes k ranks per lookup:
the stride table M_k[x, R], R = r_1 + size r_2 + ... + size^(k-1) r_k
with size = |S'| + 1, is the node that k steps with those ranks reach
from x, and H_k[x, R] the step at which they first meet the target (0
if none).  k is the longest stride whose table has at most 2^16 cells
(8 on a 169-cycle, 3 on torus_std:19, 2 on hypercube:8, 1 when even M
is larger), so a stride of k steps is two gathers.  A hit is step +
stride * k + H_k, and one past the step cap is dropped: the trial stays
capped.  M has V * (|S'| + 1) entries; it is built only when that is no
more than the two padded V * width row tables hold, |S'| + 1 <= 2 width.
A regular simple walk has |S'| + 1 = width and a path 2; kernels with
many distinct bounds, such as weighted graph files, count in each
walker's row at every step instead.

Trials that reach the step cap are counted and excluded from the
statistics, never silently folded in: hitting times are heavy-tailed and
silent truncation would bias the variance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .graphs import TransitionKernel, _require_array_size
from .hitting import _require_reachable, _row_table

__all__ = [
    "GAMMA",
    "mix64",
    "uniform_from_draw",
    "SimConfig",
    "SampleSummary",
    "simulate",
]

_U64 = np.uint64
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_CAP_WARNING_FRACTION = 0.01
# a block walks _BLOCK_STEPS steps (whole strides, fewer at the step cap),
# its walkers in groups of at most _BLOCK_CELLS draws; a stride table has
# at most _BLOCK_CELLS cells and a stride at most _BLOCK_STEPS steps
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


def _stride_table(
    successors: np.ndarray, size: int, target: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """(k, M_k, H_k): the walk of k steps from each node for each k-tuple
    of ranks, k the longest stride whose table fits the block budget,
    V * size**k <= _BLOCK_CELLS with k <= _BLOCK_STEPS (at least 1).

    The ranks r_1..r_k of a stride index cell R = r_1 + size r_2 + ...
    + size**(k-1) r_k of a node's row.  ``M_k[x * size**k + R]`` is the
    node the ranks lead to from x, scaled by size**k, and ``H_k`` the
    1-based step of the stride at which that walk first meets the
    target, 0 if it does not.  Row j+1 extends row j by one step: cell
    (x, r, R) continues from M_j[x, R] with rank r, so no temporary is
    larger than the table.
    """
    v = successors.size // size
    stride = 1
    while stride < _BLOCK_STEPS and v * size ** (stride + 1) <= _BLOCK_CELLS:
        stride += 1
    goal = target * size
    moves = successors
    first_hit = (moves == goal).astype(np.int8)
    for step in range(2, stride + 1):
        cells = moves.reshape(v, 1, -1) + np.arange(size).reshape(size, 1)
        moves = successors.take(cells, out=cells, mode="clip").ravel()  # unbuffered
        met = (moves == goal).reshape(cells.shape) * np.int8(step)
        before = first_hit.reshape(v, 1, -1)
        first_hit = np.where(before > 0, before, met).ravel()
    if stride > 1:
        moves *= size ** (stride - 1)
    return stride, moves, first_hit


def _thresholds(bounds: np.ndarray) -> np.ndarray:
    """t = ceil(s 2^53) for each bound s in (0, 1): a draw's uniform
    u = (draw >> 11) 2^-53 reaches s exactly when draw >> 11 >= t, since
    s 2^53 is exact and draw >> 11 an integer."""
    return np.ceil(bounds * 2.0**53).astype(_U64)


def _stride_ranks(draws: np.ndarray, thresholds: np.ndarray, stride: int) -> np.ndarray:
    """Cell R = r_1 + size r_2 + ... of each stride of draws, as intp.

    ``draws`` holds strides * k rows of 64-bit draws (shifted in place).
    A draw's rank in S' is the number of thresholds (``_thresholds``)
    its top 53 bits reach; no draw is turned into a float.
    """
    draws >>= _U64(11)
    if thresholds.size <= 16:  # summed compares beat a binary search here
        ranks = np.zeros(draws.shape, dtype=np.uint8)
        for t in thresholds:
            ranks += draws >= t
    else:
        ranks = np.searchsorted(thresholds, draws, side="right")
    digits = (thresholds.size + 1) ** np.arange(stride)
    return digits @ ranks.reshape(-1, stride, draws.shape[1])


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

    Live walkers advance a block of whole strides at a time on the
    block's draws step+1 .. step+b, in groups of at most _BLOCK_CELLS
    draws.  A walker that hits inside a block walks on to its end on its
    own draws and those positions are discarded, so every trial consumes
    exactly its own stream, as one step at a time.  A hit past the step
    cap is dropped; the draws past the cap are pure functions of the
    counter, so walking to the end of the stride consumes nothing.

    With a successor table (``_successor_table``) a stride of k steps is
    two gathers from the stride table (``_stride_table``): each draw is
    ranked in S' once by integer thresholds, each stride's k ranks form
    one cell R, and the walker moves to ``M_k[position + R]`` and reads
    the step of its first hit, if any, from ``H_k``.  The ranks settle
    every comparison of u with the walker's bounds, so each step is the
    one that counting them picks.  Without a table k = 1 and a step
    counts the bounds u reaches in the walker's row.  Positions are held
    scaled by the length of a table row.
    """
    table = _successor_table(kernel_cum, neighbor_table)
    if table is None:
        stride = 1
        scale = kernel_cum.shape[1]
        moves = neighbor_table.ravel() * scale
        first_hit = (moves == target * scale).astype(np.int8)
    else:
        bounds, successors = table
        stride, moves, first_hit = _stride_table(successors, bounds.size + 1, target)
        scale = (bounds.size + 1) ** stride
        thresholds = _thresholds(bounds)
    states = _stream_states(master_seed, count)
    trials = np.arange(count)
    positions = np.full(count, start * scale, dtype=np.intp)
    outcome = np.full(count, -1, dtype=np.int64)
    longest = -(-_BLOCK_STEPS // stride) * stride
    with np.errstate(over="ignore"):
        offsets = np.arange(1, longest + 1, dtype=_U64)[:, None] * _U64(GAMMA)
    step = 0
    while trials.size and step < step_cap:
        strides = -(-min(_BLOCK_STEPS, step_cap - step) // stride)
        b = strides * stride
        found = np.zeros(trials.size, dtype=np.int64)  # step of the first hit in the block
        group = max(1, _BLOCK_CELLS // b)
        for lo in range(0, trials.size, group):
            part = slice(lo, lo + group)
            with np.errstate(over="ignore"):
                draws = mix64(states[part] + offsets[:b])
                states[part] += offsets[b - 1]
            if table is None:
                draws = uniform_from_draw(draws)
                cells = np.empty(draws.shape, dtype=np.intp)
            else:
                cells = _stride_ranks(draws, thresholds, stride)
            walkers = positions[part]
            for j in range(strides):
                if table is None:
                    rows = kernel_cum.take(walkers // scale, axis=0)
                    cells[j] = (draws[j, :, None] >= rows).sum(axis=1)
                cells[j] += walkers
                walkers = moves.take(cells[j])
            positions[part] = walkers
            met = first_hit.take(cells)
            first = met.astype(bool).argmax(axis=0)
            found[part] = first * stride + met[first, np.arange(first.size)]
        # a hit past the step cap is dropped: the trial stays capped
        done = (found > 0) & (step + found <= step_cap)
        outcome[trials[done]] = step + found[done]
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
    _require_array_size(config.trials, "trial table")
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
