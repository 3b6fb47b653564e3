"""Span tracer that wraps hitwalk's public functions from outside.

``instrument`` replaces every public function of the layer modules with a
timing wrapper, in every hitwalk module namespace that binds it (so
``hitting.matpow_apply`` and ``cli.ct_evaluate`` are traced too).  A span
records its name, start, end, parent span and query id; spans stay in
memory and are summarised (and saved) when the run ends.  Counts that
belong to a call (steps, bytes, flops) are computed from its arguments
and result by the probes below, outside the span's own interval.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "graphs", "hitting", "linalg", "abelian", "spectral", "ctime", "montecarlo")
# What span_times reports for each wrapped function.
SPAN_FIELDS = ("busy_s", "self_s", "calls", "failed")

# Failures a probe may meet when a wrapped signature changes; they are
# recorded (and fail the traced run), and the traced call itself is
# unaffected.
_PROBE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _probe_solve(tr, dur, args, kwargs, out):
    a = _arg(args, kwargs, 0, "a")
    b = np.asarray(_arg(args, kwargs, 1, "b"))
    n = a.shape[0]
    k = 1 if b.ndim == 1 else b.shape[1]
    # LU, two triangular solves per right-hand side, and the residual check
    tr.add("linalg.solve.flops", 2.0 * n**3 / 3.0 + 4.0 * n * n * k)
    tr.sample("linalg.solve.exp", n, dur)


def _probe_matpow(tr, dur, args, kwargs, out):
    m = _arg(args, kwargs, 0, "m")
    v = _arg(args, kwargs, 1, "v")
    n = _arg(args, kwargs, 2, "n")
    tr.add("linalg.matpow_apply.bytes", n * (m.nbytes + 2 * v.nbytes))


def _probe_pmf(tr, dur, args, kwargs, out):
    steps = out.probs.shape[0]
    tr.add("hitting.pmf.steps", steps)
    tr.sample("hitting.pmf.step_exp", out.probs.shape[1], dur / steps)


def _probe_fourier_pmf(tr, dur, args, kwargs, out):
    steps = out.probs.shape[0]
    tr.add("abelian.fourier_pmf.steps", steps)
    tr.sample("abelian.fourier_pmf.step_exp", out.probs.shape[1], dur / steps)


def _probe_mn_sequence(tr, dur, args, kwargs, out):
    mats = out.matrices
    tr.add("spectral.mn_sequence.bytes", mats.nbytes)
    # time per matrix entry against the horizon, so graphs of any size fit one line
    tr.sample("spectral.mn_sequence.exp", mats.shape[0] - 1, dur / (mats.shape[1] * mats.shape[2]))


def _probe_ct_evaluate(tr, dur, args, kwargs, out):
    tr.add("ctime.truncation", out.truncation)
    tr.add("ctime.grid_points", len(out.times))


def _probe_simulate(tr, dur, args, kwargs, out):
    config = _arg(args, kwargs, 3, "config")
    samples = np.asarray(out.samples)
    tr.add("montecarlo.walker_steps", float(samples[samples >= 0].sum()) + out.capped_count * config.step_cap)


def _probe_character_basis(tr, dur, args, kwargs, out):
    tr.bases[id(out)] = out.matrix.nbytes


# Probe of each wrapped function, and the per-call metrics it records.
PROBES = {
    "linalg.solve": (_probe_solve, ("linalg.solve.flops", "linalg.solve.exp")),
    "linalg.matpow_apply": (_probe_matpow, ("linalg.matpow_apply.bytes",)),
    "hitting.pmf": (_probe_pmf, ("hitting.pmf.steps", "hitting.pmf.step_exp")),
    "abelian.fourier_pmf": (_probe_fourier_pmf, ("abelian.fourier_pmf.steps", "abelian.fourier_pmf.step_exp")),
    "spectral.mn_sequence": (_probe_mn_sequence, ("spectral.mn_sequence.bytes", "spectral.mn_sequence.exp")),
    "ctime.ct_evaluate": (_probe_ct_evaluate, ("ctime.truncation", "ctime.grid_points")),
    "montecarlo.simulate": (_probe_simulate, ("montecarlo.walker_steps",)),
    "abelian.character_basis": (_probe_character_basis, ("abelian.character_basis.bytes",)),
}


def metric_source(metric: str) -> str | None:
    """The wrapped function a per-layer metric is measured on, if any."""
    for name, (_, metrics) in PROBES.items():
        if metric in metrics:
            return name
    head, _, field = metric.rpartition(".")
    if field in SPAN_FIELDS and head.count(".") == 1:
        return head
    return None


class Tracer:
    """In-memory span store plus per-call counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.query: list[int] = []
        self.failed: list[bool] = []
        self.stack: list[int] = []
        self.current_query = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.bases: dict[int, int] = {}
        self.probe_errors: dict[str, int] = defaultdict(int)

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def sample(self, key: str, x: float, y: float) -> None:
        self.samples[key].append((float(x), float(y)))

    def wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        probe = PROBES.get(name, (None,))[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.query.append(self.current_query)
            self.failed.append(False)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed[sid] = True
                raise
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if probe is not None:
                try:
                    probe(self, t1 - t0, args, kwargs, out)
                except _PROBE_ERRORS as exc:
                    self.probe_errors[f"{name}: {type(exc).__name__}: {exc}"] += 1
            return out

        return traced

    # -- summaries ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "query": np.asarray(self.query, dtype=np.int64),
            "failed": np.asarray(self.failed, dtype=bool),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def span_times(names: list[str], arrays: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """busy_s, self_s, calls and failed per span name.

    busy_s sums the spans that have no ancestor of the same name (so
    recursion is not counted twice); self_s sums each span's duration
    minus the durations of its direct children.
    """
    name, start, end, parent = arrays["name"], arrays["start"], arrays["end"], arrays["parent"]
    dur = end - start
    child_time = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    nested = np.zeros(len(dur), dtype=bool)
    for sid in np.nonzero(has_parent)[0]:
        p = parent[sid]
        while p >= 0:
            if name[p] == name[sid]:
                nested[sid] = True
                break
            p = parent[p]
    out = {}
    for i, label in enumerate(names):
        mask = name == i
        out[label] = {
            "busy_s": float(dur[mask & ~nested].sum()),
            "self_s": float(self_time[mask].sum()),
            "calls": float(mask.sum()),
            "failed": float(arrays["failed"][mask].sum()),
        }
    return out


def fit_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x (0 with < 2 distinct x)."""
    pts = [(x, y) for x, y in points if x > 0 and y > 0]
    xs = np.log([p[0] for p in pts]) if pts else np.zeros(0)
    if len(set(xs.tolist())) < 2:
        return 0.0
    ys = np.log([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def instrument(tracer: Tracer, package) -> dict[str, int]:
    """Wrap the public functions of each layer module of ``package``.

    Returns the number of functions wrapped per layer.
    """
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    wrappers = {}
    per_layer = {}
    for layer, mod in modules.items():
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        count = 0
        for attr in names:
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
                count += 1
        per_layer[layer] = count
    prefix = package.__name__ + "."
    namespaces = [package] + [m for name, m in list(sys.modules.items()) if name.startswith(prefix) and m is not None]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(ns, attr, wrappers[value])
    return per_layer

