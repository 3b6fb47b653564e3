"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
The smoke runs spawn real workers on a handful of queries per workload.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli_document(argv: list[str], tmp_path: Path) -> str:
    from hitwalk import cli

    out = tmp_path / "doc.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    return out.read_text(encoding="utf-8")


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_second_block_reflects_the_draws_of_the_first():
    draws = workloads.Draws(4)
    first = workloads.lattice(draws, 8, range(80), None)
    draws.start_block(reflect=True)
    second = workloads.lattice(draws, 8, range(80), None)
    for (size_a, u_a), (size_b, u_b) in zip(first, second):
        assert size_a // 10 == size_b // 10  # the same slice
        assert u_a + u_b == pytest.approx((2 * int(u_a * 8) + 1) / 8)  # mirrored inside it
    queries = workloads.generate("absorbing", 4, blocks=2)
    half = len(queries) // 2
    family = [q["preset"].split(":")[0] for q in queries]
    assert family[:half] == family[half:]
    assert [q["preset"] for q in queries[:half]] != [q["preset"] for q in queries[half:]]


def test_lattice_visits_every_slice_of_every_range_once():
    points = workloads.lattice(np.random.default_rng(3), 8, range(80), range(8), None)
    assert sorted(p[0] // 10 for p in points) == list(range(8))
    assert sorted(p[1] for p in points) == list(range(8))
    assert sorted(int(p[2] * 8) for p in points) == list(range(8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_queries_are_valid_cli_command_lines(workload):
    from hitwalk.cli import build_parser

    parser = build_parser()
    for q in workloads.generate(workload, 1):
        args = parser.parse_args(workloads.argv(q))
        assert args.start != args.target
        assert 0 <= args.start < oracle.node_count(q["preset"])


# -- oracle ------------------------------------------------------------------

@pytest.mark.parametrize(
    "preset",
    ["cycle:7", "path:6", "complete:5", "bipartite:2:3", "hypercube:3", "torus_std:4", "torus_diag:5",
     "cayley_s3", "cayley_d8"],
)
def test_oracle_graphs_match_the_cli_presets(preset):
    from hitwalk.graphs import preset_graph

    name, *params = preset.split(":")
    graph = preset_graph(name, [int(p) for p in params])
    nodes, edges = oracle.preset_edges(preset)
    assert nodes == graph.node_count == oracle.node_count(preset)
    assert sorted(tuple(sorted(e)) for e in edges) == sorted((u, v) for u, v, _ in graph.edges)


def test_oracle_references_match_closed_forms():
    w = oracle.walk("cycle:9")
    series = oracle.hit_series(w, 3, 0, 40)
    closed = [sum(np.cos(m * np.pi / 9) ** (n - 1) * (np.sin(m * np.pi / 9) + np.sin(m * 8 * np.pi / 9))
                  * np.sin(3 * m * np.pi / 9) for m in range(1, 9)) / 9 for n in range(1, 41)]
    np.testing.assert_allclose(series, closed, rtol=1e-9, atol=1e-15)
    assert oracle.exact_moments(w, 3, 0)["mean"] == pytest.approx(3 * 6)
    times = np.array([0.0, 5.0, 400.0])
    cdf, pdf = oracle.ctime_curves(w, 3, 0, times)
    assert cdf[0] == pytest.approx(0.0, abs=1e-12) and cdf[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(pdf >= -1e-15)


# -- answer checks and failure accounting ------------------------------------

def _fake_run(queries, verdicts, attempts):
    for q in queries:
        q["argv"] = workloads.argv(q)
    return {
        "queries": queries,
        "verdicts": verdicts,
        "result": {"attempts": attempts, "maxrss_kb": 1024},
        "setups": [0.1, 0.2, 0.3],
    }


def test_planted_wrong_reference_is_counted_in_error_ratio(tmp_path):
    good = {"qid": 0, "command": "pmf", "preset": "cycle:8", "start": 3, "target": 0,
            "options": {"--horizon": "40", "--engine": "direct"}}
    planted = dict(good, qid=1)
    text = _cli_document(workloads.argv(good), tmp_path)
    ref = oracle.reference(good)
    assert oracle.check(good, ref, text).ok
    wrong = oracle.check(planted, {"series": ref["series"] * 1.01}, text)
    assert not wrong.ok and wrong.defect is None

    attempts = [[qid, "untraced", 0, 0.01, "d", ""] for _ in range(2) for qid in (0, 1)]
    fake = _fake_run([good, planted], {(0, "d"): oracle.check(good, ref, text), (1, "d"): wrong}, attempts)
    outcome = run.classify(fake)
    assert outcome["failures"][1]["kind"] == "unexpected-wrong-answer"
    assert run.end_to_end(fake, outcome)["error_ratio"][0] == pytest.approx(0.5)


def _query(command: str, preset: str, target: int = 0, **options) -> dict:
    v = oracle.node_count(preset)
    return {"qid": 0, "command": command, "preset": preset, "start": (target + v // 2) % v, "target": target,
            "options": {k: str(x) for k, x in options.items()}}


def test_failures_are_classified_by_exit_code_message_and_input():
    long_path = _query("pmf", "path:200", 0, **{"--horizon": 500, "--engine": "direct"})
    gf24 = _query("gf", "cycle:24", **{"--horizon": 30})
    compare = _query("compare", "torus_std:15", **{"--trials": 1000})
    assert oracle.known_defect(long_path, 3, "hitwalk: could not certify absorption to target 0") == "absorption-certificate"
    assert oracle.known_defect(gf24, 4, "Vandermonde condition number 1e14 beyond tolerance") == "gf-vandermonde-guard"
    assert oracle.known_defect(compare, 2, "invalid input: imaginary part 2.000e-09 beyond tolerance") \
        == "abelian-imaginary-tolerance"
    assert oracle.known_defect(compare, 2, "hitwalk: invalid input: something else") is None
    assert oracle.known_defect(compare, None, "ZeroDivisionError: division by zero") is None


def test_known_kind_of_failure_on_an_unlisted_input_is_unexpected():
    message = "could not certify absorption to target 0"
    assert oracle.known_defect(_query("moments", "path:20"), 3, message) is None  # certifiable
    assert oracle.known_defect(_query("moments", "torus_std:31"), 3, message) is None
    assert oracle.known_defect(_query("gf", "cycle:12", **{"--horizon": 30}), 4, "Vandermonde condition number") is None
    assert oracle.known_defect(_query("gf", "cycle:10", **{"--horizon": 30}), 0, "gf-rational-inaccurate") is None
    assert oracle.known_defect(_query("gf", "cycle:24", **{"--horizon": 30}), 0, "gf-rational-inaccurate") is None
    drift = {"--horizon": 300, "--engine": "auto"}
    assert oracle.known_defect(_query("pmf", "cycle:300", **drift), 0, "relative-drift") == "relative-drift"
    assert oracle.known_defect(_query("pmf", "torus_std:31", **drift), 0, "relative-drift") is None
    assert oracle.known_defect(_query("pmf", "cycle:300", **{"--horizon": 300, "--engine": "direct"}), 0,
                               "relative-drift") is None
    # fourier_pmf's own imaginary-part error, and the q* one on a small group or a hypercube
    imaginary = "imaginary part 2.000e-09 beyond tolerance"
    assert oracle.known_defect(_query("pmf", "cycle:300", **drift), 2, "step distribution developed an imaginary part") is None
    assert oracle.known_defect(_query("compare", "torus_std:10"), 2, imaginary) is None
    assert oracle.known_defect(_query("compare", "hypercube:8"), 2, imaginary) is None
    assert oracle.known_defect(_query("pmf", "cycle:300", **drift), 2, imaginary) is None

    # and such a failure makes the run incorrect
    query = _query("gf", "cycle:8", **{"--horizon": 30})
    query["argv"] = workloads.argv(query)
    fake = {"queries": [query], "verdicts": {}, "result": {"attempts": [[0, "untraced", 4, 0.01, None,
            "hitwalk: numerical failure: Vandermonde condition number 1e14 beyond tolerance"]]}}
    assert run.classify(fake)["failures"][0]["kind"] == "unexpected"


def test_certificate_mass_tracks_the_far_end_of_the_path():
    assert oracle.absorption_mass(oracle.walk("path:20"), 0, 20) > 1e-6
    assert oracle.absorption_mass(oracle.walk("path:200"), 0, 200) < 1e-12
    assert oracle.absorption_mass(oracle.walk("cycle:100"), 0, 100) > oracle.CERTIFICATE_MASS
    assert oracle.absorption_mass(oracle.walk("cycle:300"), 0, 300) < oracle.CERTIFICATE_MASS


def test_relative_drift_is_told_apart_from_a_wrong_number():
    ref = np.array([0.5, 1e-3, 2e-12])
    drift = oracle._check_series(ref * [1, 1, 1.01], ref, "pmf")  # 2e-14 absolute off a tiny term
    assert not drift.ok and drift.defect == "relative-drift"
    wrong = oracle._check_series(ref * [1, 1.01, 1], ref, "pmf")
    assert not wrong.ok and wrong.defect is None


# -- spans -------------------------------------------------------------------

def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # A[0,10] > B[1,4], C[5,9] > B[6,7];  D[20,25] > D[21,22] (recursion)
    names = ["A", "B", "C", "D"]
    arrays = {
        "name": np.array([0, 1, 2, 1, 3, 3]),
        "start": np.array([0.0, 1.0, 5.0, 6.0, 20.0, 21.0]),
        "end": np.array([10.0, 4.0, 9.0, 7.0, 25.0, 22.0]),
        "parent": np.array([-1, 0, 0, 2, -1, 4]),
        "failed": np.array([False, False, True, False, False, False]),
    }
    t = spans.span_times(names, arrays)
    assert t["A"] == {"busy_s": 10.0, "self_s": 3.0, "calls": 1.0, "failed": 0.0}
    assert t["B"] == {"busy_s": 4.0, "self_s": 4.0, "calls": 2.0, "failed": 0.0}
    assert t["C"] == {"busy_s": 4.0, "self_s": 3.0, "calls": 1.0, "failed": 1.0}
    assert t["D"] == {"busy_s": 5.0, "self_s": 5.0, "calls": 2.0, "failed": 0.0}


def test_tracer_records_parents_queries_and_failures():
    tracer = spans.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap("m.leaf", leaf)
    traced_root = tracer.wrap("m.root", lambda x: traced_leaf(x) + traced_leaf(x))
    tracer.current_query = 7
    assert traced_root(2) == 4
    with pytest.raises(ValueError):
        traced_root(-1)
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == ["m.root", "m.leaf", "m.leaf", "m.root", "m.leaf"]
    assert a["parent"].tolist() == [-1, 0, 0, -1, 3]
    assert a["query"].tolist() == [7] * 5
    assert a["failed"].tolist() == [False, False, False, True, True]
    assert np.all(a["end"] >= a["start"])


def test_harrell_davis_quantiles():
    values = list(range(1, 42))
    assert run.hd_quantile(values, 0.5) == pytest.approx(21.0)
    assert run.hd_quantile([3.0] * 7, 0.5) == pytest.approx(3.0)
    rng = np.random.default_rng(1)
    sample = rng.exponential(size=4000)
    assert run.hd_quantile(sample, 0.5) == pytest.approx(np.log(2), rel=0.05)
    value, pct = run.tail(list(sample[:50]))
    assert pct == pytest.approx(80.0)
    assert np.quantile(sample[:50], 0.7) < value < np.quantile(sample[:50], 0.9)


def _trace_summary(wrapped, spans_, counts, probe_errors=None):
    return {"spans": spans_, "span_count": 1, "wrapped": wrapped, "counts": counts, "exponents": {},
            "basis_bytes": 0, "basis_hit_ratio": 0.0, "probe_errors": probe_errors or {}}


def test_a_metric_the_traced_run_could_not_measure_fails_the_run():
    outcome = {"phases": {p: {"walls": [0.1], "attempted": 1, "failed": 0} for p in ("untraced", "traced")},
               "max_rel_err": 0.0}
    one_call = {"busy_s": 1.0, "self_s": 1.0, "calls": 1.0, "failed": 0.0}
    fake = {"per_layer_names": ["linalg.matpow_apply.busy_s", "linalg.matpow_apply.bytes"]}
    fake["result"] = {"trace": _trace_summary(["linalg.matpow_apply"], {"linalg.matpow_apply": one_call},
                                              {"linalg.matpow_apply.bytes": 8.0})}
    assert run.per_layer(fake, outcome)["linalg.matpow_apply.bytes"][0] == 8.0
    # not called in this workload: a true 0
    fake["result"]["trace"] = _trace_summary(["linalg.matpow_apply"], {}, {})
    assert run.per_layer(fake, outcome)["linalg.matpow_apply.bytes"][0] == 0.0
    for summary in (
        _trace_summary([], {}, {}),  # renamed away
        _trace_summary(["linalg.matpow_apply"], {"linalg.matpow_apply": one_call}, {}),  # probe silent
        _trace_summary(["linalg.matpow_apply"], {"linalg.matpow_apply": one_call}, {"linalg.matpow_apply.bytes": 8.0},
                       {"linalg.matpow_apply: TypeError: x": 1}),
    ):
        fake["result"]["trace"] = summary
        with pytest.raises(run.MissingMetrics):
            run.per_layer(fake, outcome)


def test_exponent_fit():
    assert spans.fit_exponent([(10, 3.0), (100, 300.0), (1000, 30000.0)]) == pytest.approx(2.0)
    assert spans.fit_exponent([(10, 1.0), (10, 2.0)]) == 0.0


# -- end to end --------------------------------------------------------------

def _handful(workload: str) -> list[dict]:
    """The first two queries of each subcommand, renumbered."""
    picked, seen = [], {}
    for q in workloads.generate(workload, 5):
        if seen.get(q["command"], 0) < 2:
            seen[q["command"]] = seen.get(q["command"], 0) + 1
            picked.append(dict(q, qid=len(picked)))
    return picked


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(workload, tmp_path):
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.01, trace=1)
    result = run.measure(_handful(workload), args, ROOT, tmp_path)
    result["per_layer_names"] = [m["name"] for m in SPEC["per_layer"]]
    outcome = run.classify(result)
    assert not [f for f in outcome["failures"].values() if f["kind"].startswith("unexpected")]
    e2e = run.end_to_end(result, outcome)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    layer = run.per_layer(result, outcome)
    assert set(layer) == set(result["per_layer_names"])
    assert layer["cli.main.self_s"][0] > 0.0 and layer["trace.spans"][0] > 0
    assert (tmp_path / f"spans-{workload}-5.npz").is_file()


def test_untraced_run_times_each_query_once_across_the_workers(tmp_path):
    queries = _handful("transitive")
    args = argparse.Namespace(workload="transitive", seed=5, seconds=0.01, trace=0)
    result = run.measure(queries, args, ROOT, tmp_path)
    assert len(result["setups"]) == run.SPAWNS
    assert sorted(a[0] for a in result["result"]["attempts"]) == [q["qid"] for q in queries]
    assert result["result"]["trace"] is None
    e2e = run.end_to_end(result, run.classify(result))
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert e2e["peak_rss_mb"][0] > 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "absorbing", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
