"""Reference answers and answer checks, independent of the code under test.

Graphs are rebuilt here from the preset definitions (same node numbering
as the CLI presets), and every reference is computed from the edge list
with plain numpy:

* pmf / gf series: the nonnegative float64 forward recurrence of the
  walker's distribution, with the mass that lands on the target removed
  each step;
* moments: ``numpy.linalg.solve`` on ``I - Q``;
* ctime: ``numpy.linalg.eigh`` of the symmetrised ``Q``;
* compare: the exact mean and variance above, used as a z-bound on the
  Monte Carlo mean.

Nothing in this module imports hitwalk.
"""
from __future__ import annotations

import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# Terms below this reference mass are checked absolutely, not relatively
# (the CLI's own ``series_tail`` tolerance).
SERIES_TAIL = 1e-12
# A series term further than this (relative) from the reference is wrong.
SERIES_RTOL = 1e-3
# A relative failure whose absolute error stays below this is float64
# round-off on a tiny term: the known relative drift, not a new defect.
DRIFT_ATOL = 1e-13
# The rational gf trims coefficients below 1e-10, so its expansion is
# held to an absolute tolerance.
RATIONAL_ATOL = 1e-8
MOMENT_RTOL = 1e-6
DISCREPANCY_ATOL = 1e-9
Z_BOUND = 5.0
# eigh round-off allowance on top of the requested ctime tolerance
CTIME_SLACK = 1e-10
# hitwalk's absorption certificate needs more than 1e-12 absorption mass
# from every start within V steps; inputs below this share (1000 times the
# threshold, for round-off) are the ones the certificate defect can hit.
CERTIFICATE_MASS = 1e-9


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Walk:
    """Simple (weight-proportional) walk on an undirected graph."""

    nodes: int
    src: np.ndarray  # directed arcs, both directions of every edge
    dst: np.ndarray
    prob: np.ndarray  # transition probability of each arc

    def dense(self) -> np.ndarray:
        p = np.zeros((self.nodes, self.nodes))
        p[self.src, self.dst] = self.prob
        return p


def _perm_compose(a, b):
    # a*b acts as "apply b first, then a"
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _perm_from_cycles(degree, cycles):
    images = list(range(degree))
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def _cayley_edges(degree, generator_cycles):
    gens = []
    for cycles in generator_cycles:
        g = _perm_from_cycles(degree, cycles)
        for h in (g, _perm_inverse(g)):
            if h not in gens:
                gens.append(h)
    identity = tuple(range(degree))
    index = {identity: 0}
    order = [identity]
    head = 0
    while head < len(order):
        g = order[head]
        head += 1
        for c in gens:
            h = _perm_compose(g, c)
            if h not in index:
                index[h] = len(order)
                order.append(h)
    edges = set()
    for g in order:
        for c in gens:
            a, b = index[g], index[_perm_compose(g, c)]
            edges.add((min(a, b), max(a, b)))
    return len(order), sorted(edges)


def _torus_edges(p, steps):
    edges = set()
    for a in range(p):
        for b in range(p):
            for da, db in steps:
                i, j = a * p + b, ((a + da) % p) * p + (b + db) % p
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return p * p, sorted(edges)


def preset_edges(preset: str) -> tuple[int, list[tuple[int, int]]]:
    """Node count and undirected edge list of a ``name:params`` preset."""
    name, *params = preset.split(":")
    k = [int(x) for x in params]
    if name == "cycle":
        return k[0], [(i, (i + 1) % k[0]) for i in range(k[0])]
    if name == "path":
        return k[0], [(i, i + 1) for i in range(k[0] - 1)]
    if name == "complete":
        return k[0], [(i, j) for i in range(k[0]) for j in range(i + 1, k[0])]
    if name == "bipartite":
        return k[0] + k[1], [(i, k[0] + j) for i in range(k[0]) for j in range(k[1])]
    if name == "hypercube":
        n = 1 << k[0]
        return n, [(i, i ^ (1 << b)) for i in range(n) for b in range(k[0]) if i < i ^ (1 << b)]
    if name == "torus_std":
        return _torus_edges(k[0], [(1, 0), (-1, 0), (0, 1), (0, -1)])
    if name == "torus_diag":
        return _torus_edges(k[0], [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    if name == "cayley_s3":
        return _cayley_edges(3, [[(1, 3)], [(1, 2, 3)]])
    if name == "cayley_d8":
        return _cayley_edges(4, [[(1, 2, 3, 4)], [(1, 4), (2, 3)]])
    raise ValueError(f"unknown preset {preset!r}")


def node_count(preset: str) -> int:
    name, *params = preset.split(":")
    k = [int(x) for x in params]
    sizes = {
        "cycle": lambda: k[0],
        "path": lambda: k[0],
        "complete": lambda: k[0],
        "bipartite": lambda: k[0] + k[1],
        "hypercube": lambda: 1 << k[0],
        "torus_std": lambda: k[0] * k[0],
        "torus_diag": lambda: k[0] * k[0],
        "cayley_s3": lambda: 6,
        "cayley_d8": lambda: 8,
    }
    return sizes[name]()


def walk(preset: str) -> Walk:
    nodes, edges = preset_edges(preset)
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    degree = np.bincount(src, minlength=nodes).astype(float)
    return Walk(nodes, src, dst, 1.0 / degree[src])


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def hit_series(w: Walk, start: int, target: int, horizon: int) -> np.ndarray:
    """P(tau = n) for n = 1..horizon by the forward recurrence."""
    out = np.empty(horizon)
    mass = np.zeros(w.nodes)
    mass[start] = 1.0
    # on dense graphs one matrix-vector product per step is cheaper
    forward = w.dense().T if len(w.src) > w.nodes**2 // 8 else None
    for n in range(horizon):
        if forward is None:
            mass = np.bincount(w.dst, weights=w.prob * mass[w.src], minlength=w.nodes)
        else:
            mass = forward @ mass
        out[n] = mass[target]
        mass[target] = 0.0
    return out


def _reduced(w: Walk, target: int):
    p = w.dense()
    keep = np.array([i for i in range(w.nodes) if i != target])
    return p[np.ix_(keep, keep)], p[keep, target], keep


def exact_moments(w: Walk, start: int, target: int) -> dict:
    """Mean, second moment and variance of tau from ``start``."""
    q, _, keep = _reduced(w, target)
    a = np.eye(len(keep)) - q
    ones = np.ones(len(keep))
    mean = np.linalg.solve(a, ones)
    second = np.linalg.solve(a, ones + 2.0 * (q @ mean))
    i = int(np.searchsorted(keep, start))
    return {"mean": mean[i], "second": second[i], "variance": second[i] - mean[i] ** 2}


def ctime_curves(w: Walk, start: int, target: int, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CDF and PDF of the unit-rate continuous-time hitting time.

    With D the degrees, S = D^{1/2} Q D^{-1/2} is symmetric, so
    exp(t(Q - I)) = D^{-1/2} U exp(t(L - 1)) U^T D^{1/2}.
    """
    q, p1, keep = _reduced(w, target)
    degree = np.bincount(w.src, minlength=w.nodes).astype(float)[keep]
    root = np.sqrt(degree)
    lam, u = np.linalg.eigh(root[:, None] * q / root[None, :])
    i = int(np.searchsorted(keep, start))
    row = u[i] / root[i]
    survival_coef = row * (u.T @ root)
    density_coef = row * (u.T @ (root * p1))
    decay = np.exp(np.outer(times, lam - 1.0))
    return 1.0 - decay @ survival_coef, decay @ density_coef


def reference(query: dict) -> dict:
    """Everything the checks need for one query, computed once."""
    cmd = query["command"]
    w = walk(query["preset"])
    s, t = query["start"], query["target"]
    opts = query["options"]
    if cmd == "pmf":
        return {"series": hit_series(w, s, t, int(opts["--horizon"]))}
    if cmd == "gf":
        return {"series": np.concatenate([[0.0], hit_series(w, s, t, int(opts["--horizon"]))])}
    if cmd == "ctime":
        lo, hi, steps = opts["--t-grid"].split(":")
        times = np.linspace(float(lo), float(hi), int(steps))
        cdf, pdf = ctime_curves(w, s, t, times)
        return {"times": times, "cdf": cdf, "pdf": pdf}
    return exact_moments(w, s, t)


# ---------------------------------------------------------------------------
# known defects
# ---------------------------------------------------------------------------

def absorption_mass(w: Walk, target: int, steps: int) -> float:
    """Smallest probability, over all starts, of hitting ``target`` within ``steps`` steps."""
    survive = np.ones(w.nodes)
    survive[target] = 0.0
    for _ in range(steps):
        survive = np.bincount(w.src, weights=w.prob * survive[w.dst], minlength=w.nodes)
        survive[target] = 0.0
    return float(1.0 - survive.max())


def _family(query: dict) -> str:
    return query["preset"].split(":")[0]


def _size(query: dict) -> int:
    return node_count(query["preset"])


def _uncertifiable(query: dict) -> bool:
    if _family(query) not in ("path", "cycle"):
        return False
    w = walk(query["preset"])
    return absorption_mass(w, query["target"], w.nodes) < CERTIFICATE_MASS


def _imaginary_prone(query: dict) -> bool:
    smallest = {"cycle": 25, "torus_std": 169, "torus_diag": 169}.get(_family(query))
    return query["command"] == "compare" and smallest is not None and _size(query) >= smallest


@dataclass(frozen=True)
class Defect:
    """A failure the baseline is known to show, on the inputs it is known to affect."""

    name: str
    code: int  # exit code; 0 for a wrong answer printed with exit 0
    sign: str  # regex on the error message, or (exit 0) the check's defect label
    applies: Callable[[dict], bool]  # the inputs on which the defect may show


# The inputs are those of the table in bench/NOTES.md.
KNOWN_DEFECTS = (
    Defect("absorption-certificate", 3, r"could not certify absorption", _uncertifiable),
    Defect("gf-vandermonde-guard", 4, r"Vandermonde condition number",
           lambda q: q["command"] == "gf" and _size(q) >= 18),
    Defect("abelian-imaginary-tolerance", 2, r"imaginary part -?[0-9.]+e[+-][0-9]+ beyond tolerance",
           _imaginary_prone),
    Defect("relative-drift", 0, "^relative-drift$",
           lambda q: q["command"] == "pmf" and q["options"].get("--engine") == "auto" and _family(q) == "cycle"),
    Defect("gf-rational-inaccurate", 0, "^gf-rational-inaccurate$",
           lambda q: q["command"] == "gf" and 11 <= _size(q) <= 17),
)


def known_defect(query: dict, code, message: str) -> str | None:
    """Name of the known defect a failure of ``query`` matches, or None.

    ``message`` is the error text of a non-zero exit, or the check's
    defect label of a wrong answer printed with exit 0.  A failure of a
    known kind on an input outside the defect's known inputs is not known.
    """
    for d in KNOWN_DEFECTS:
        if code == d.code and re.search(d.sign, message) and d.applies(query):
            return d.name
    return None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    ok: bool
    max_rel_err: float  # over series terms with mass >= SERIES_TAIL and moments
    reason: str = ""
    defect: str | None = None  # wrong-answer label, matched by known_defect() with the input


def _series_error(got, ref) -> tuple[float, float, float]:
    """Worst relative error on terms with mass >= SERIES_TAIL, worst
    absolute error on those terms, and worst absolute error on the rest."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    big = ref >= SERIES_TAIL
    gap = np.abs(got - ref)
    rel = float(np.max(gap[big] / ref[big])) if big.any() else 0.0
    big_abs = float(np.max(gap[big])) if big.any() else 0.0
    small = float(np.max(gap[~big])) if (~big).any() else 0.0
    return rel, big_abs, small


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def _expand_rational(numerator, denominator, count: int) -> np.ndarray:
    out = np.zeros(count)
    for m in range(count):
        acc = numerator[m] if m < len(numerator) else 0.0
        for k in range(1, min(m, len(denominator) - 1) + 1):
            acc -= denominator[k] * out[m - k]
        out[m] = acc / denominator[0]
    return out


def _check_series(got, ref, what: str) -> Verdict:
    if len(got) != len(ref):
        return Verdict(False, math.inf, f"{what}: {len(got)} terms, expected {len(ref)}")
    rel, big_abs, small = _series_error(got, ref)
    if not rel <= SERIES_RTOL:
        drift = "relative-drift" if big_abs <= DRIFT_ATOL and small <= SERIES_TAIL else None
        return Verdict(False, rel, f"{what}: relative error {rel:.3e} (absolute {big_abs:.1e})", drift)
    if not small <= SERIES_TAIL:
        return Verdict(False, rel, f"{what}: tail absolute error {small:.3e}")
    return Verdict(True, rel)


def _check_moments(section: dict, ref: dict, keys: dict, what: str) -> Verdict:
    worst = 0.0
    for out_key, ref_key in keys.items():
        err = _rel(float(section[out_key]), ref[ref_key])
        worst = max(worst, err)
        if not err <= MOMENT_RTOL:
            return Verdict(False, worst, f"{what} {out_key}: relative error {err:.3e}")
    return Verdict(True, worst)


def _mc_z(mean: float, completed: int, ref: dict) -> float:
    return (mean - ref["mean"]) / math.sqrt(ref["variance"] / completed)


def check(query: dict, ref: dict, text: str) -> Verdict:
    """Check one CLI document against its reference."""
    doc = json.loads(text)
    payload = doc["payload"]
    cmd = query["command"]
    rows = payload.get("table", {}).get("rows", [])
    if cmd == "pmf":
        return _check_series([r[1] for r in rows], ref["series"], "pmf")
    if cmd == "gf":
        verdict = _check_series([r[1] for r in rows], ref["series"], "gf series")
        if not verdict.ok:
            return verdict
        expanded = _expand_rational(payload["numerator"], payload["denominator"], len(ref["series"]))
        rel, big_abs, small = _series_error(expanded, ref["series"])
        worst = max(big_abs, small)
        if not worst <= RATIONAL_ATOL:
            return Verdict(False, rel, f"gf rational: expansion off by {worst:.3e}", "gf-rational-inaccurate")
        return Verdict(True, max(rel, verdict.max_rel_err))
    if cmd == "moments":
        (_, mean, second, variance), = rows
        return _check_moments(
            {"mean": mean, "second": second, "variance": variance},
            ref, {"mean": "mean", "second": "second", "variance": "variance"}, "moments",
        )
    if cmd == "ctime":
        tol = float(query["options"]["--tol"])
        got = np.array(rows, dtype=float)
        if got.shape != (len(ref["times"]), 3):
            return Verdict(False, 0.0, f"ctime: table shape {got.shape}")
        err = max(np.max(np.abs(got[:, 1] - ref["cdf"])), np.max(np.abs(got[:, 2] - ref["pdf"])))
        if not err <= tol + CTIME_SLACK:
            return Verdict(False, 0.0, f"ctime: absolute error {err:.3e} above tol {tol:g}")
        return Verdict(True, 0.0)
    if cmd == "compare":
        keys = {"mean": "mean", "second_moment": "second", "variance": "variance"}
        worst = 0.0
        for engine in ("direct", "fourier"):
            if engine in payload["moments"]:
                verdict = _check_moments(payload["moments"][engine], ref, keys, f"compare {engine}")
                worst = max(worst, verdict.max_rel_err)
                if not verdict.ok:
                    return Verdict(False, worst, verdict.reason)
        for a, b, gap in rows:
            if not gap <= DISCREPANCY_ATOL:
                return Verdict(False, worst, f"compare: {a} vs {b} differ by {gap:.3e}")
        mc = payload["montecarlo"]
        z = _mc_z(float(mc["mean"]), int(mc["trials"]) - int(mc["capped_count"]), ref)
        if not abs(z) <= Z_BOUND:
            return Verdict(False, worst, f"compare: Monte Carlo mean z = {z:.2f}")
        return Verdict(True, worst)
    return Verdict(False, math.inf, f"unknown command {cmd}")
