"""Benchmark worker: one fresh process per spawn.

Usage: ``python3 bench/worker.py SPEC.json`` (started by ``bench/run.py``).

It imports hitwalk from the checkout's ``src``, runs the warm-up queries
and prints ``READY``.  In ``setup`` mode it then exits.  In ``run`` mode it
sends its share of the workload's queries once, one after another (a
closed loop with one client), each query being one
``hitwalk.cli.main(argv)`` call that writes its document to a temporary
file.  Only that call is timed.  With tracing on, a second pass follows
with every public hitwalk function wrapped in a span.  Each distinct
document is kept for the parent to check; the attempt log, ``ru_maxrss``
and the span summary go to the result file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import tempfile
import time
import traceback

import spans as tracing


def _load_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hitwalk
    from hitwalk import cli

    if not os.path.abspath(hitwalk.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported hitwalk from {hitwalk.__file__}, not from {src}")
    return hitwalk, cli


class Client:
    """Runs CLI queries in-process and keeps each distinct document once."""

    def __init__(self, cli, tmpdir: str):
        self.cli = cli
        self.tmpdir = tmpdir
        self.docs: dict[int, dict[str, str]] = {}

    def call(self, argv: list[str]):
        fd, path = tempfile.mkstemp(dir=self.tmpdir, suffix=".doc")
        os.close(fd)
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv + ["--output", path])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed query, recorded with its traceback
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=-3)}")
        wall = time.perf_counter() - t0
        return code, wall, path, err.getvalue()

    def keep(self, qid: int, path: str) -> tuple[str, int]:
        """Digest and size of the document at ``path``; the first copy of each is kept."""
        with open(path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        seen = self.docs.setdefault(qid, {})
        if digest in seen:
            os.unlink(path)
        else:
            name = os.path.join(self.tmpdir, f"q{qid}-{digest[:16]}.json")
            os.replace(path, name)
            seen[digest] = name
        return digest, len(data)


def run_pass(client, queries, phase, rng, attempts, tracer=None) -> None:
    """One pass over the queries in a random order, one after another."""
    order = list(range(len(queries)))
    rng.shuffle(order)
    for i in order:
        q = queries[i]
        if tracer is not None:
            tracer.current_query = len(attempts)
        code, wall, path, err = client.call(q["argv"])
        digest = None
        if code == 0:
            digest, size = client.keep(q["qid"], path)
            if tracer is not None:
                tracer.add("cli.doc_bytes", size)
        else:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        attempts.append([q["qid"], phase, code, wall, digest, err[-2000:] if code != 0 else ""])


def _trace_summary(tracer, cache_before, cache_after, spans_path) -> dict:
    arrays = tracer.arrays()
    tracer.save(spans_path)
    summary = {
        "spans": tracing.span_times(tracer.names, arrays),
        "span_count": len(tracer.name),
        "wrapped": tracer.names,
        "counts": dict(tracer.counts),
        "exponents": {k: tracing.fit_exponent(v) for k, v in tracer.samples.items()},
        "basis_bytes": sum(tracer.bases.values()),
        "probe_errors": dict(tracer.probe_errors),
    }
    if cache_before is not None and cache_after is not None:
        hits = cache_after.hits - cache_before.hits
        misses = cache_after.misses - cache_before.misses
        summary["basis_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return summary


def _cache_info(hitwalk):
    cached = getattr(getattr(hitwalk, "abelian", None), "_cached_basis", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    hitwalk, cli = _load_package(spec["root"])
    client = Client(cli, spec["tmpdir"])
    for argv in spec["warmup"]:
        _, _, path, _ = client.call(argv)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    print("READY", flush=True)
    if spec["mode"] == "setup":
        return 0

    queries = spec["queries"]
    rng = random.Random(spec["seed"])
    attempts: list = []
    result = {"trace": None}
    run_pass(client, queries, "untraced", rng, attempts)
    if spec["trace"]:
        tracer = tracing.Tracer()
        result["wrapped"] = tracing.instrument(tracer, hitwalk)
        before = _cache_info(hitwalk)
        run_pass(client, queries, "traced", rng, attempts, tracer)
        result["trace"] = _trace_summary(tracer, before, _cache_info(hitwalk), spec["spans"])
    result["attempts"] = attempts
    result["docs"] = {str(k): v for k, v in client.docs.items()}
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
