"""Query generators for the benchmark workloads.

A query is one CLI invocation, held as a dict:
``{"qid", "command", "preset", "start", "target", "options"}`` where
``options`` maps CLI flags to string values.  Everything is drawn from
``numpy.random.default_rng(seed)``.

Each workload is a set of cells (a subcommand on one graph family), and
each cell draws its sizes, horizons, grids and start offsets as ``k``
points whose every coordinate falls once in each of ``k`` equal slices of
its range, at a random place inside the slice; the slices are paired off
by a fixed rank-1 lattice rule.  Every value in a range can be drawn, but
each seed covers the ranges evenly and pairs them the same way, so the mix
(and with it the median, tail and failure share) moves little from seed
to seed.  Targets are uniform over the nodes unless a cell draws them.
The cells have many points (2 to 15 per block), so the slices are
narrow and a seed moves each query's cost only a little.  In a cost
model fitted to measured query times, the mix alone spread the median
latency of ``transitive`` over ten seeds by up to 0.18 of itself with a
third as many points, and by up to 0.09 with these.

Blocks come in antithetic pairs: the second block of a pair replays the
draws of the first reflected (u -> 1 - u), so each size, horizon and
offset that lands high in its slice in one block lands as low in the
other (and a one-point cell over a short list picks the mirrored entry).
The cost of a pair then depends little on where in the slices the seed
fell, and the metrics move less from seed to seed.
"""
from __future__ import annotations

import math

import numpy as np

from oracle import node_count

WORKLOADS = ("absorbing", "transitive")


def _generator(k: int, dim: int) -> int:
    """Lattice generator of dimension ``dim`` for ``k`` points (coprime to k)."""
    g = max(1, round(k * ((math.sqrt(5) - 1) / 2) ** dim)) if dim else 1
    while math.gcd(g, k) != 1:
        g += 1
    return g


class Draws:
    """Uniform draws in [0, 1) from a seeded generator, recorded so that the
    next block can replay them reflected."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.recorded: list[float] = []
        self.replay = None

    def start_block(self, reflect: bool) -> None:
        self.replay = iter(self.recorded) if reflect else None
        self.recorded = []

    def random(self) -> float:
        if self.replay is not None:
            return min(1.0 - next(self.replay), _BELOW_ONE)
        u = float(self.rng.random())
        self.recorded.append(u)
        return u

    def integers(self, n: int) -> int:
        return int(self.random() * n)


_BELOW_ONE = 1.0 - 2.0**-53


def lattice(rng: Draws, k: int, *ranges) -> list[tuple]:
    """``k`` points, one per slice of each of ``ranges``, paired by a lattice rule.

    Each range is cut into ``k`` equal slices.  Point ``i`` takes slice
    ``i * g_j mod k`` of range ``j`` (``g_j`` a rank-1 lattice generator)
    at a uniform random position inside that slice.  The pairing of slices
    is the same for every seed; only the positions inside the slices vary.
    A range given as ``None`` yields the fraction in [0, 1) itself;
    otherwise the fraction indexes the range.
    """
    gens = [_generator(k, j) for j in range(len(ranges))]
    points = []
    for i in range(k):
        point = []
        for r, g in zip(ranges, gens):
            x = ((i * g) % k + rng.random()) / k
            point.append(x if r is None else r[int(x * len(r))])
        points.append(tuple(point))
    return points


def _geometric(lo: int, hi: int, count: int = 200) -> list[int]:
    """Integers from lo to hi, log-spaced (repeats kept so the spacing holds)."""
    return [int(round(x)) for x in np.geomspace(lo, hi, count)]


class _Builder:
    def __init__(self, seed: int):
        self.rng = Draws(seed)
        self.queries: list[dict] = []

    def add(self, command: str, preset: str, options: dict, offset: float | None = None,
            target: float | None = None) -> None:
        """Append a query; ``offset`` and ``target`` are fractions in [0, 1)
        placing the target among the nodes and the start after it (mod V)."""
        v = node_count(preset)
        t = int(target * v) if target is not None else self.rng.integers(v)
        off = offset if offset is not None else self.rng.random()
        s = (t + 1 + int(off * (v - 1))) % v
        self.queries.append(
            {
                "qid": len(self.queries),
                "command": command,
                "preset": preset,
                "start": s,
                "target": t,
                "options": {k: str(x) for k, x in options.items()},
            }
        )


def _ctime_grid(points: int, t_max: int) -> dict:
    return {"--t-grid": f"0:{t_max}:{points}", "--tol": "1e-9"}


def _absorbing(b: _Builder) -> None:
    # Large general graphs: dense steps, O(V^3) solves and the Poisson loop.
    # (family, points per cell for pmf, moments and ctime)  The torus
    # moments cell is the densest: its largest draw, always near V = 1681,
    # sets the run's peak memory.
    families = (
        ([f"torus_std:{p}" for p in range(21, 42)], (4, 8, 2)),
        (["hypercube:9", "hypercube:10"], (2, 4, 2)),
        ([f"bipartite:{v // 3}:{v - v // 3}" for v in range(400, 1001, 30)], (4, 4, 2)),
    )
    horizons, points, t_maxes = range(500, 2001), range(100, 201), range(800, 1201)
    for family, (k_pmf, k_moments, k_ctime) in families:
        for graph, horizon, off in lattice(b.rng, k_pmf, family, horizons, None):
            b.add("pmf", graph, {"--horizon": horizon, "--engine": "direct"}, off)
        for graph, off in lattice(b.rng, k_moments, family, None):
            b.add("moments", graph, {}, off)
        for graph, n, t_max, off in lattice(b.rng, k_ctime, family, points, t_maxes, None):
            b.add("ctime", graph, _ctime_grid(n, t_max), off)
    # A small share of long paths and cycles: cheap per query, many of them
    # fail today.
    for family in ("path", "cycle"):
        cells = lattice(b.rng, 2, range(50, 301), ("pmf", "moments", "ctime"), None, None, None)
        for k, command, aux, off, target in cells:
            if command == "pmf":
                opts = {"--horizon": horizons[int(aux * len(horizons))], "--engine": "direct"}
            elif command == "ctime":
                opts = _ctime_grid(points[int(aux * len(points))], t_maxes[int(aux * len(t_maxes))])
            else:
                opts = {}
            b.add(command, f"{family}:{k}", opts, off, target)


def _transitive(b: _Builder) -> None:
    # pmf --engine auto on abelian presets routes to the fourier engine.
    families = (
        ([f"torus_std:{p}" for p in range(9, 32)], 9),
        ([f"torus_diag:{p}" for p in range(9, 32, 2)], 9),
        ([f"hypercube:{d}" for d in range(6, 11)], 9),
        ([f"cycle:{k}" for k in range(20, 401)], 9),
    )
    for family, k in families:
        for graph, horizon, off in lattice(b.rng, k, family, range(200, 801), None):
            b.add("pmf", graph, {"--horizon": horizon, "--engine": "auto"}, off)
    # ... and on the Cayley presets routes to the spectral engine.
    for graph, horizon, off in lattice(b.rng, 6, ("cayley_s3", "cayley_d8"), range(400, 1601), None):
        b.add("pmf", graph, {"--horizon": horizon, "--engine": "auto"}, off)
    small = [f"torus_std:{p}" for p in range(3, 8)] + [f"hypercube:{d}" for d in range(3, 7)]
    for graph, horizon, off in lattice(b.rng, 15, small, range(100, 401), None):
        b.add("pmf", graph, {"--horizon": horizon, "--engine": "spectral"}, off)
    # gf on regular presets with 6..32 nodes, ordered by node count.
    regular = (
        [f"cycle:{k}" for k in range(6, 33)]
        + [f"complete:{k}" for k in range(6, 33)]
        + [f"bipartite:{k}:{k}" for k in range(3, 17)]
        + ["hypercube:3", "hypercube:4", "hypercube:5", "torus_std:3", "torus_std:4"]
        + ["torus_std:5", "torus_diag:3", "torus_diag:5", "cayley_s3", "cayley_d8"]
    )
    regular.sort(key=node_count)
    for graph, horizon, off in lattice(b.rng, 15, regular, range(20, 61), None):
        b.add("gf", graph, {"--horizon": horizon}, off)
    # compare on abelian presets with |G| in 25..400.  A short horizon keeps
    # the spectral leg's (horizon+1) x |G|^2 table below 85 MB, so no single
    # query sets the run's peak memory.
    families = (
        ([f"cycle:{k}" for k in _geometric(25, 400)], 3),
        ([f"torus_std:{p}" for p in range(5, 21)], 6),
        ([f"torus_diag:{p}" for p in range(5, 20, 2)], 6),
        ([f"hypercube:{d}" for d in range(5, 9)], 3),
    )
    for family, k in families:
        for graph, off in lattice(b.rng, k, family, None):
            opts = {"--trials": 1000, "--horizon": 64, "--seed": b.rng.integers(2**31)}
            b.add("compare", graph, opts, off)


_GENERATORS = {"absorbing": _absorbing, "transitive": _transitive}


def generate(workload: str, seed: int, blocks: int = 1) -> list[dict]:
    """The distinct queries of one workload for one seed: ``blocks`` draws
    of the workload's full set of cells, every second one reflecting the
    one before."""
    b = _Builder(seed)
    for i in range(blocks):
        b.rng.start_block(reflect=i % 2 == 1)
        _GENERATORS[workload](b)
    return b.queries


def argv(query: dict) -> list[str]:
    out = [query["command"], "--preset", query["preset"], "--to", str(query["target"])]
    out += ["--from", str(query["start"])]
    for flag, value in query["options"].items():
        out += [flag, value]
    return out


def warmup(queries: list[dict]) -> list[list[str]]:
    """Queries run before timing starts.

    One cheap query per subcommand on a small graph starts the BLAS
    threads and the lazy imports; a one-step fourier query per abelian
    preset fills the character-basis cache, as a long-running process
    would have it.
    """
    out = []
    for command in sorted({q["command"] for q in queries}):
        base = [command, "--preset", "cycle:6", "--from", "1", "--to", "0"]
        extra = {"ctime": ["--t-grid", "0:2:3"], "compare": ["--trials", "10"]}
        out.append(base + extra.get(command, []))
    abelian = ("cycle", "torus_std", "torus_diag", "hypercube", "complete")
    fourier = {
        q["preset"]
        for q in queries
        if q["preset"].split(":")[0] in abelian and (q["command"] == "compare" or q["options"].get("--engine") == "auto")
    }
    for preset in sorted(fourier):
        out.append(["pmf", "--preset", preset, "--from", "1", "--to", "0", "--horizon", "1", "--engine", "fourier"])
    return out
