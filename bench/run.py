"""hitwalk benchmark: checked CLI queries in a closed loop, with a traced mode.

Usage (from the root of a checkout):

    python3 bench/run.py --workload absorbing --seed 1 --seconds 40 --trace 0

Workloads are defined in ``bench/workloads.py`` and explained in
``bench/NOTES.md``.  The run:

1. generates the workload's queries from the seed and computes every
   reference answer (``bench/oracle.py``) before anything is timed;
2. spawns a fresh worker process (``bench/worker.py``) ``SPAWNS`` times,
   one after another, and times each from spawn to the end of its
   warm-up (``setup_s``); each then sends every ``SPAWNS``-th query once,
   one after another (a closed loop with one client);
3. checks every distinct answer document against its reference and
   classifies every failure (known defect or not);
4. prints one summary line per metric (with unit and sample count), then,
   as the last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and the metrics: the ``end_to_end`` ones of
   ``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones with
   ``--trace 1``.

The run does a fixed amount of work, sized by ``--seconds``: the query
list holds ``round(seconds / BLOCK_SECONDS)`` blocks (at least one), and
one block of any workload takes about ``BLOCK_SECONDS`` on a 2-core
x86-64 machine.  A faster program finishes
sooner on the same queries, so every run of a workload has the same mix
and sample count.

A query's latency is its wall time.  The sizes and horizons a seed draws
move every quantile, so a run spends its time on many distinct queries,
drawn from narrow slices of the workload's ranges, rather than on timing
fewer queries several times over: repeats would only trim the scatter of
single queries, which the quantiles over many queries average anyway.
Each worker times every third query of every cell, so a worker that
happens to run fast or slow moves a third of each cell.  The latency
quantiles are Harrell-Davis estimates: they weigh every answered query,
not one order statistic, so the change of the mix moves them less.

With ``--trace 1`` the query list holds half as many blocks (at least
one), and the last worker sends every query, in one untraced pass and
then one pass with every public hitwalk function wrapped in a span
(``bench/spans.py``); the difference of the two passes' medians is
reported as the tracing overhead.

A fuller record (environment, failures, every metric with its sample
count) is written to ``bench/out/result-<workload>-<seed>-trace<t>.json``
and the spans of a traced run to ``bench/out/spans-<workload>-<seed>.npz``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle
import workloads
from spans import LAYERS, SPAN_FIELDS, metric_source

# Workers per run.  Each is timed to the end of its warm-up, and without
# tracing each times every third query of every cell: one process can run
# 15% faster than the ones before and after it.
SPAWNS = 3
# One BLAS thread (within the nproc cap): with two threads on a shared
# 2-vCPU machine every dense step waits for the slower vCPU, and the same
# run's median moved by +-12% between repeats instead of +-2%.
BLAS_THREADS = 1
BLOCK_SECONDS = 20.0
DEADLINE_S = 170.0  # every run must end well within 180 s


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(root: Path, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": min(BLAS_THREADS, nproc()),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Worker:
    """One worker process; the watchdog kills it at the run deadline."""

    def __init__(self, spec_path: Path, root: Path, env: dict, log, deadline: float):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "bench" / "worker.py"), str(spec_path)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        self.watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), self.proc.kill)
        self.watchdog.start()

    def wait_line(self, expected: str) -> float:
        """Seconds from spawn until the worker printed ``expected``."""
        line = self.proc.stdout.readline().strip()
        if line != expected:
            raise RuntimeError(f"worker printed {line!r}, expected {expected!r}")
        return time.perf_counter() - self.spawned

    def finish(self) -> int:
        self.proc.stdout.read()
        code = self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()
        return code

    def kill(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    It is the mean of the order statistics, the i-th weighted by the
    Beta((n + 1) p, (n + 1)(1 - p)) mass of [(i - 1) / n, i / n], so every
    sample counts, most of all those near the quantile.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    if n == 1 or a < 1.0 or b < 1.0:
        return float(np.quantile(x, p))
    fine = 64  # integration points per slice
    grid = np.linspace(0.0, 1.0, fine * n + 1)
    log_pdf = np.full(len(grid), -np.inf)
    inner = grid[1:-1]
    log_pdf[1:-1] = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    weights = np.diff(cdf[::fine]) / cdf[-1]
    return float(weights @ x)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    p = (n - 10) / n
    return hd_quantile(values, p), 100.0 * p


def merge_results(results: list[dict]) -> dict:
    """One record from the result files of the workers that ran queries."""
    merged = {"attempts": [], "docs": {}, "maxrss_kb": 0, "trace": None}
    for r in results:
        merged["attempts"] += r["attempts"]
        merged["docs"].update(r["docs"])
        merged["maxrss_kb"] = max(merged["maxrss_kb"], r["maxrss_kb"])
        if r["trace"] is not None:
            merged["trace"], merged["wrapped"] = r["trace"], r["wrapped"]
    return merged


def measure(queries: list[dict], args, root: Path, out: Path) -> dict:
    """Reference answers, worker spawns and answer checks for one run."""
    for q in queries:
        q["argv"] = workloads.argv(q)
    t0 = time.perf_counter()
    refs = [oracle.reference(q) for q in queries]
    reference_s = time.perf_counter() - t0

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, nproc()))
    env["PYTHONHASHSEED"] = "0"
    tag = f"{args.workload}-{args.seed}"
    tmpdir = out / f"tmp-{tag}-{os.getpid()}"
    tmpdir.mkdir(parents=True)
    deadline = time.perf_counter() + DEADLINE_S - reference_s
    setups, results = [], []
    try:
        with open(out / f"worker-{tag}.log", "w", encoding="utf-8") as log:
            for i in range(SPAWNS):
                share = queries[i::SPAWNS]
                if args.trace:  # one worker makes every span of the traced pass
                    share = queries if i == SPAWNS - 1 else []
                spec = {
                    "root": str(root),
                    "tmpdir": str(tmpdir),
                    "mode": "run" if share else "setup",
                    "warmup": workloads.warmup(queries),
                    "queries": [{"qid": q["qid"], "argv": q["argv"]} for q in share],
                    "seed": args.seed,
                    "trace": bool(args.trace),
                    "result": str(tmpdir / f"result-{i}.json"),
                    "spans": str(out / f"spans-{tag}.npz"),
                }
                spec_path = tmpdir / "spec.json"
                spec_path.write_text(json.dumps(spec), encoding="utf-8")
                worker = Worker(spec_path, root, env, log, deadline)
                try:
                    setups.append(worker.wait_line("READY"))
                    if spec["mode"] == "run":
                        worker.wait_line("DONE")
                    code = worker.finish()
                except BaseException:
                    worker.kill()
                    raise
                if code != 0:
                    raise RuntimeError(f"worker exited with {code}; see {log.name}")
                if share:
                    results.append(json.loads(Path(spec["result"]).read_text(encoding="utf-8")))
        result = merge_results(results)
        verdicts = {}
        for qid, docs in result["docs"].items():
            for digest, path in docs.items():
                text = Path(path).read_text(encoding="utf-8")
                verdicts[(int(qid), digest)] = oracle.check(queries[int(qid)], refs[int(qid)], text)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return {
        "queries": queries,
        "result": result,
        "verdicts": verdicts,
        "setups": setups,
        "reference_s": reference_s,
        "env": environment(root, args.seed),
    }


def classify(run: dict) -> dict:
    """Per-attempt outcome: answered, known-defect failure or unexpected."""
    queries, verdicts = run["queries"], run["verdicts"]
    phases: dict[str, dict] = {}
    failures = {}
    untraced_wall: dict[int, float] = {}
    for qid, phase, code, wall, digest, err in run["result"]["attempts"]:
        untraced_wall.setdefault(qid, wall)  # the untraced pass comes first
        p = phases.setdefault(phase, {"walls": [], "attempted": 0, "failed": 0})
        p["attempted"] += 1
        if code == 0 and verdicts[(qid, digest)].ok:
            p["walls"].append(wall)  # each answered query's wall time
            continue
        p["failed"] += 1
        if code == 0:
            verdict = verdicts[(qid, digest)]
            kind = oracle.known_defect(queries[qid], 0, verdict.defect or "") or "unexpected-wrong-answer"
            detail = verdict.reason
        else:
            kind = oracle.known_defect(queries[qid], code, err) or "unexpected"
            detail = err.strip().splitlines()[-1] if err.strip() else ""
        failures[qid] = {"kind": kind, "exit_code": code, "detail": detail, "query": " ".join(queries[qid]["argv"])}
    per_query = [
        {
            "query": " ".join(q["argv"]),
            "outcome": failures[q["qid"]]["kind"] if q["qid"] in failures else "answered",
            "wall_s": untraced_wall[q["qid"]],
        }
        for q in queries
    ]
    rel = [v.max_rel_err for v in verdicts.values() if v.ok]
    return {"phases": phases, "failures": failures, "max_rel_err": max(rel, default=0.0), "per_query": per_query}


def end_to_end(run: dict, outcome: dict) -> dict:
    p = outcome["phases"]["untraced"]
    walls = p["walls"]
    tail_value, tail_pct = tail(walls)
    return {
        "setup_s": (statistics.median(run["setups"]), len(run["setups"]), "median of spawns"),
        "query_p50_s": (hd_quantile(walls, 0.5), len(walls), "answered queries, Harrell-Davis"),
        "query_tail_s": (tail_value, len(walls), f"p{tail_pct:.1f} with 10 answered beyond, Harrell-Davis"),
        "error_ratio": (error_ratio(outcome), p["attempted"], "failed / attempted"),
        "max_rel_err": (outcome["max_rel_err"], len(run["verdicts"]), "distinct answers checked"),
        "peak_rss_mb": (run["result"]["maxrss_kb"] / 1024.0, len(run["setups"]), "largest worker ru_maxrss"),
    }


class MissingMetrics(RuntimeError):
    """A per-layer metric of BENCHMARK.json that the traced run could not measure."""


def error_ratio(outcome: dict) -> float:
    p = outcome["phases"]["untraced"]
    return p["failed"] / p["attempted"]


def per_layer(run: dict, outcome: dict) -> dict:
    trace = run["result"]["trace"]
    times, counts, exps = trace["spans"], trace["counts"], trace["exponents"]
    untraced = statistics.median(outcome["phases"]["untraced"]["walls"])
    traced_walls = outcome["phases"]["traced"]["walls"]
    traced = statistics.median(traced_walls)

    def span_sum(prefix: str, field: str) -> float:
        return sum(v[field] for k, v in times.items() if k.startswith(prefix + "."))

    special = {
        "abelian.character_basis.hit_ratio": trace.get("basis_hit_ratio", 0.0),
        "abelian.character_basis.bytes": float(trace["basis_bytes"]),
        "abelian.failed": span_sum("abelian", "failed"),
        "montecarlo.walker_steps_per_s": counts.get("montecarlo.walker_steps", 0.0)
        / max(times.get("montecarlo.simulate", {}).get("busy_s", 0.0), 1e-12),
        "trace.overhead_s": traced - untraced,
        "trace.untraced_p50_s": untraced,
        "trace.traced_p50_s": traced,
        "trace.spans": float(trace["span_count"]),
        "answers.max_rel_err": outcome["max_rel_err"],
        "answers.error_ratio": error_ratio(outcome),
    }
    for layer in LAYERS:
        special[f"{layer}.self_s"] = span_sum(layer, "self_s")
    problems = [f"probe error x{n}: {what}" for what, n in trace["probe_errors"].items()]
    if "basis_hit_ratio" not in trace:
        problems.append("abelian.character_basis.hit_ratio: no _cached_basis.cache_info()")
    out = {}
    for name in run["per_layer_names"]:
        head, _, field = name.rpartition(".")
        # a metric of a function that is not wrapped, or that was called
        # without its probe recording anything, is missing, not 0
        source = metric_source(name)
        if source is not None and source not in trace["wrapped"]:
            problems.append(f"{name}: {source} is not a wrapped function")
        if name in special:
            value = special[name]
        elif field in SPAN_FIELDS and source == head:
            value = times.get(head, {}).get(field, 0.0)
        else:
            if source is not None and times.get(source, {}).get("calls") and name not in counts and name not in exps:
                problems.append(f"{name}: {source} ran but its probe recorded nothing")
            value = exps[name] if name in exps else counts.get(name, 0.0)
        out[name] = (value, len(traced_walls), "traced run")
    if problems:
        raise MissingMetrics(problems)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (measure() kills it on exit)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "hitwalk" / "cli.py").is_file():
        print(f"bench: no hitwalk sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = root / "bench" / "out"
    out.mkdir(exist_ok=True)

    blocks = max(1, round(args.seconds / BLOCK_SECONDS))
    if args.trace:  # two passes over half the blocks take as long as an untraced run
        blocks = max(1, blocks // 2)
    run = measure(workloads.generate(args.workload, args.seed, blocks), args, root, out)
    run["per_layer_names"] = [m["name"] for m in spec["per_layer"]]
    outcome = classify(run)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values = per_layer(run, outcome) if args.trace else end_to_end(run, outcome)
    except MissingMetrics as exc:
        for problem in exc.args[0]:
            print(f"bench: {problem}", file=sys.stderr)
        print("bench: the traced run could not measure every per-layer metric", file=sys.stderr)
        return 1

    unexpected = {q: f for q, f in outcome["failures"].items() if f["kind"].startswith("unexpected")}
    attempted = sum(p["attempted"] for p in outcome["phases"].values())
    failed = sum(p["failed"] for p in outcome["phases"].values())
    by_kind: dict[str, int] = {}
    for f in outcome["failures"].values():
        by_kind[f["kind"]] = by_kind.get(f["kind"], 0) + 1

    env = run["env"]
    print(f"# hitwalk bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')}-{env['blas'].get('version')} blas_threads={env['blas_threads']} "
          f"commit={env['git_commit'][:12]} src={env['src_sha256'][:12]}")
    print(f"# {len(run['queries'])} distinct queries, references in {run['reference_s']:.2f} s; "
          f"failing distinct queries by kind: {by_kind or 'none'}")
    for qid, f in sorted(outcome["failures"].items()):
        print(f"#   fail q{qid} [{f['kind']}] exit={f['exit_code']} {f['query']} :: {f['detail'][:120]}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["max_rel_err"] = units["error_ratio"] = "1"
    for name, (value, n, note) in values.items():
        print(f"{name:42s} {value:.6g} {units.get(name, '')} (n={n}; {note})")

    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "failures": outcome["failures"],
        "queries": outcome["per_query"],
        "metrics": {k: {"value": v[0], "n": v[1], "note": v[2], "unit": units.get(k, "")} for k, v in values.items()},
        "wrapped_functions": run["result"].get("wrapped"),
    }
    (out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float), encoding="utf-8"
    )
    line = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
