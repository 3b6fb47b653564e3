import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from hitwalk import cli, graphs, hitting
from hitwalk.cli import main

from conftest import chang_graph, exact_moments, exact_pmf


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


# --- pmf -------------------------------------------------------------------------

def test_pmf_direct_and_fourier_tables_agree(capsys):
    doc_a = run_json(
        capsys, "pmf", "--preset", "cycle:10", "--from", "0", "--to", "5",
        "--horizon", "60", "--engine", "direct",
    )
    doc_b = run_json(
        capsys, "pmf", "--preset", "cycle:10", "--from", "0", "--to", "5",
        "--horizon", "60", "--engine", "fourier",
    )
    rows_a = np.array(doc_a["payload"]["table"]["rows"])
    rows_b = np.array(doc_b["payload"]["table"]["rows"])
    assert np.max(np.abs(rows_a - rows_b)) < 1e-10
    assert doc_a["metadata"]["engine"] == "direct"
    assert doc_b["metadata"]["engine"] == "fourier"


def test_pmf_spectral_hypercube_series(capsys):
    doc = run_json(
        capsys, "pmf", "--preset", "hypercube:3", "--from", "0", "--to", "7",
        "--horizon", "5", "--engine", "spectral",
    )
    rows = doc["payload"]["table"]["rows"]
    assert rows[0][1] == 0.0 and rows[1][1] == 0.0
    assert rows[2][1] == pytest.approx(2 / 9, abs=1e-12)


def test_pmf_complete_matches_geometric(capsys):
    from hitwalk import closed_complete

    doc = run_json(
        capsys, "pmf", "--preset", "complete:4", "--from", "1", "--to", "0",
        "--horizon", "20",
    )
    for n, p in doc["payload"]["table"]["rows"]:
        assert p == pytest.approx(closed_complete(4, n), abs=1e-12)


def test_pmf_auto_engine_choice_is_recorded(capsys):
    # auto is direct, with or without --engine, on abelian, Cayley and other presets
    for preset, start, target in [("cycle:6", 1, 0), ("cayley_s3", 0, 1), ("path:4", 3, 0)]:
        for extra in [(), ("--engine", "auto")]:
            doc = run_json(
                capsys, "pmf", "--preset", preset, "--from", str(start), "--to", str(target),
                "--horizon", "4", *extra,
            )
            assert doc["metadata"]["engine"] == "direct"


def test_preset_prefix_tolerated(capsys):
    doc = run_json(
        capsys, "pmf", "--preset", "preset:cycle:5", "--from", "1", "--to", "0",
        "--horizon", "3",
    )
    assert doc["metadata"]["graph"] == {"preset": "cycle", "params": [5]}


RELATIVE_CASES = [
    ("cycle:339", 100, 0, 3000),
    ("torus_std:5", 12, 0, 2000),
    ("hypercube:6", 63, 0, 800),
    ("bipartite:133:267", 5, 133, 2000),
    ("bipartite:133:267", 200, 133, 2000),
]


@pytest.mark.parametrize(
    "engine, preset, start, target, horizon",
    [pytest.param("direct", *case, id="-".join(map(str, case))) for case in RELATIVE_CASES]
    + [
        pytest.param("auto", *case, id="-".join(map(str, ("auto", *case))))
        for case in RELATIVE_CASES + [("cayley_d8", 3, 0, 1600)]
    ],
)
def test_pmf_direct_is_relatively_accurate(capsys, engine, preset, start, target, horizon):
    # the direct series only adds and multiplies nonnegative numbers, so
    # every term keeps its relative accuracy, however small it is; auto is
    # direct, where fourier (cycle:339) and spectral (cayley_d8) were 1e57
    # and 1e71 relatively off
    doc = run_json(
        capsys, "pmf", "--preset", preset, "--from", str(start), "--to", str(target),
        "--horizon", str(horizon), "--engine", engine,
    )
    got = np.array([p for _, p in doc["payload"]["table"]["rows"]])
    exact = exact_pmf(preset, start, target, horizon)
    assert np.array_equal(got == 0.0, exact == 0.0)
    kept = exact >= 1e-300
    assert kept.any()
    assert np.max(np.abs(got[kept] - exact[kept]) / exact[kept]) <= 1e-13


# --- moments / ctime ---------------------------------------------------------------

@pytest.mark.parametrize("preset, target", [("bipartite:133:267", 133), ("torus_std:9", 0)])
def test_moments_match_exact_rationals(capsys, preset, target):
    doc = run_json(capsys, "moments", "--preset", preset, "--to", str(target))
    exact = exact_moments(preset, target)
    rows = doc["payload"]["table"]["rows"]
    assert [row[0] for row in rows] == sorted(exact)
    for start, *values in rows:
        for got, want in zip(values, exact[start]):
            assert abs(Fraction(got) - want) <= Fraction(1e-13) * want, (start, got, float(want))


def test_moments_cycle_mean(capsys):
    doc = run_json(capsys, "moments", "--preset", "cycle:10", "--from", "5", "--to", "0")
    row = doc["payload"]["table"]["rows"][0]
    assert row[0] == 5
    assert row[1] == pytest.approx(25.0, abs=1e-10)


def test_moments_long_cycle_mean(capsys):
    from hitwalk import cycle_mean

    doc = run_json(capsys, "moments", "--preset", "cycle:210", "--from", "105", "--to", "0")
    assert doc["payload"]["table"]["rows"][0][1] == pytest.approx(cycle_mean(210, 105, 0), rel=1e-9)


def test_pmf_direct_on_long_path(capsys):
    from hitwalk import path_endpoint_pmf

    doc = run_json(
        capsys, "pmf", "--preset", "path:300", "--from", "299", "--to", "0",
        "--horizon", "400", "--engine", "direct",
    )
    rows = doc["payload"]["table"]["rows"]
    assert rows[298][1] == pytest.approx(path_endpoint_pmf(300, 299, 299), rel=1e-9)
    assert rows[399][1] == pytest.approx(path_endpoint_pmf(300, 299, 400), rel=1e-9)


def test_moments_all_starts_when_from_omitted(capsys):
    doc = run_json(capsys, "moments", "--preset", "cycle:5", "--to", "0")
    assert len(doc["payload"]["table"]["rows"]) == 4


def test_ctime_grid_monotone(capsys):
    doc = run_json(
        capsys, "ctime", "--preset", "cycle:6", "--to", "0", "--from", "3",
        "--t-grid", "0:40:30", "--tol", "1e-10",
    )
    cdf = [row[1] for row in doc["payload"]["table"]["rows"]]
    assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1] > 0.95


@pytest.mark.parametrize("grid", ["nan:1:3", "0:nan:3", "nan:nan:3", "inf:1:3", "0:inf:3", "inf:inf:3", "-inf:1:3"])
def test_ctime_grid_bound_not_finite_exits_2(capsys, grid):
    code, out, err = run_cli(capsys, "ctime", "--preset", "cycle:6", "--to", "0", f"--t-grid={grid}")
    assert (code, out) == (2, "")
    assert err == "hitwalk: invalid input: bad --t-grid range\n"


# --- simulate ------------------------------------------------------------------------

def test_simulate_deterministic_and_near_exact(capsys):
    args = (
        "simulate", "--preset", "cycle:10", "--from", "0", "--to", "5",
        "--trials", "10000", "--seed", "42",
    )
    doc_a = run_json(capsys, *args)
    doc_b = run_json(capsys, *args)
    assert doc_a == doc_b
    assert doc_a["payload"]["mean"] == pytest.approx(25.0, abs=1.0)
    assert doc_a["payload"]["capped_count"] == 0


# --- compare --------------------------------------------------------------------------

def test_compare_cycle_engine_matrix(capsys):
    doc = run_json(
        capsys, "compare", "--preset", "cycle:6", "--from", "0", "--to", "3",
        "--horizon", "80", "--trials", "2000", "--seed", "9",
    )
    assert doc["payload"]["engines"] == ["direct", "fourier", "spectral"]
    for _, _, disc in doc["payload"]["table"]["rows"]:
        assert disc < 1e-10
    assert doc["payload"]["moments"]["max_mean_discrepancy"] < 1e-9
    assert abs(doc["payload"]["montecarlo"]["mean_z"]) < 6


@pytest.mark.parametrize("step_cap, capped", [("300", True), ("10000000", False)])
def test_compare_standard_error_counts_completed_trials(capsys, step_cap, capped):
    # the completed trials of a capped run follow the law of tau given
    # tau <= cap, so no z-score against the exact mean is printed for it
    doc = run_json(
        capsys, "compare", "--preset", "cycle:40", "--from", "0", "--to", "20",
        "--trials", "200", "--step-cap", step_cap, "--horizon", "8",
    )
    mc = doc["payload"]["montecarlo"]
    completed = mc["trials"] - mc["capped_count"]
    assert (completed < mc["trials"]) == capped
    assert mc["cap_warning"] == capped
    if capped:
        assert mc["mean_standard_error"] is None and mc["mean_z"] is None
        return
    std_err = np.sqrt(mc["exact_variance"] / completed)
    assert mc["mean_standard_error"] == pytest.approx(std_err, rel=1e-12)
    assert mc["mean_z"] == pytest.approx((mc["mean"] - mc["exact_mean"]) / std_err, rel=1e-12)


def test_compare_torus_diag_has_convolution_section(capsys):
    doc = run_json(
        capsys, "compare", "--preset", "torus_diag:3", "--from", "3", "--to", "0",
        "--horizon", "40", "--trials", "1000", "--seed", "3",
    )
    section = doc["payload"]["diag_torus_convolution"]
    assert len(section["convolution_series"]) == 40
    assert len(section["direct_series"]) == 40
    assert section["max_abs_discrepancy"] is not None


@pytest.mark.parametrize(
    "preset, start, target",
    [("torus_std:16", 90, 220), ("torus_diag:11", 11, 0), ("cycle:137", 31, 33)],
)
def test_compare_fourier_moments_of_large_sums(capsys, preset, start, target):
    # the character sums reach 1e5..1e7, so their round-off (imaginary
    # part included) is far above an absolute 1e-9
    doc = run_json(
        capsys, "compare", "--preset", preset, "--from", str(start), "--to", str(target),
        "--horizon", "16", "--trials", "200",
    )
    moments = doc["payload"]["moments"]
    for key in ("mean", "second_moment", "variance"):
        assert moments["fourier"][key] == pytest.approx(moments["direct"][key], rel=1e-9)


@pytest.fixture
def build_counts(monkeypatch):
    """Counts of the kernels, absorbing systems and step laws the CLI builds."""
    counts = {"kernel": 0, "absorbing": 0, "step_law": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "simple_walk_kernel", counted("kernel", cli.simple_walk_kernel))
    # both builders of an absorbing system count as one kind of build
    monkeypatch.setattr(hitting, "make_absorbing", counted("absorbing", hitting.make_absorbing))
    monkeypatch.setattr(hitting, "lumped_absorbing", counted("absorbing", hitting.lumped_absorbing))
    for name, builder in list(cli._ABELIAN_LAWS.items()):
        monkeypatch.setitem(cli._ABELIAN_LAWS, name, counted("step_law", builder))
    return counts


@pytest.mark.parametrize(
    "engine, builds",
    [
        ("direct", {"kernel": 1, "absorbing": 1, "step_law": 0}),
        # the spectral engine steps the target's column on the problem's lumped chain
        ("spectral", {"kernel": 1, "absorbing": 1, "step_law": 0}),
        ("fourier", {"kernel": 0, "absorbing": 0, "step_law": 1}),
        ("auto", {"kernel": 1, "absorbing": 1, "step_law": 0}),
    ],
)
def test_pmf_builds_only_what_its_engine_uses(capsys, build_counts, engine, builds):
    run_json(
        capsys, "pmf", "--preset", "torus_std:5", "--from", "7", "--to", "0",
        "--horizon", "20", "--engine", engine,
    )
    assert build_counts == builds


@pytest.mark.parametrize("engine", ["direct", "fourier", "spectral"])
def test_pmf_horizon_zero_exits_2(capsys, engine):
    code, out, err = run_cli(
        capsys, "pmf", "--preset", "torus_std:5", "--from", "7", "--to", "0",
        "--horizon", "0", "--engine", engine,
    )
    assert (code, out, err) == (2, "", "hitwalk: invalid input: horizon must be >= 1\n")


def test_compare_builds_one_kernel_and_one_absorbing_system(capsys, build_counts):
    # the direct and spectral series, the moments and Monte Carlo share them
    run_json(
        capsys, "compare", "--preset", "torus_std:5", "--from", "7", "--to", "0",
        "--horizon", "20", "--trials", "200",
    )
    assert build_counts == {"kernel": 1, "absorbing": 1, "step_law": 1}


# --- the parser -------------------------------------------------------------------------

# every subcommand, two exit-2 errors (one from argparse, one from a node
# out of range) and two CSV documents, in one mixed sequence
PARSER_SEQUENCE = [
    ["pmf", "--preset", "cycle:7", "--from", "2", "--to", "0", "--horizon", "12"],
    ["moments", "--preset", "complete:4", "--to", "0", "--format", "csv"],
    ["ctime", "--preset", "cycle:6", "--to", "0", "--t-grid", "0:10:5"],
    ["simulate", "--preset", "cycle:6", "--from", "0", "--to", "3", "--trials", "50", "--seed", "1"],
    ["pmf", "--preset", "cycle:7", "--from", "2"],
    ["compare", "--preset", "cycle:5", "--from", "1", "--to", "0", "--horizon", "10", "--trials", "50"],
    ["gf", "--preset", "cycle:6", "--from", "1", "--to", "0", "--horizon", "8"],
    ["pmf", "--preset", "cycle:7", "--from", "2", "--to", "0", "--engine", "spectral", "--format", "csv"],
    ["moments", "--preset", "cycle:5", "--from", "7", "--to", "0"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        outcomes = [_outcome(capsys, argv) for argv in PARSER_SEQUENCE]
        assert len(built) == 1
        assert [code for code, _, _ in outcomes] == [0, 0, 0, 0, 2, 0, 0, 0, 2]
        # each call answers as it does on a parser of its own
        for argv, outcome in zip(PARSER_SEQUENCE, outcomes):
            cli._parser.cache_clear()
            assert _outcome(capsys, argv) == outcome, argv
        assert len(built) == 1 + len(PARSER_SEQUENCE)
    finally:
        cli._parser.cache_clear()


def test_spectral_pmf_is_gf_series(capsys):
    from hitwalk import preset_graph, spectral

    doc = run_json(
        capsys, "pmf", "--preset", "torus_std:5", "--from", "7", "--to", "0",
        "--horizon", "60", "--engine", "spectral",
    )
    series = [row[1] for row in doc["payload"]["table"]["rows"]]
    assert series == spectral.gf_series(preset_graph("torus_std", [5]), 7, 0, 60)[1:].tolist()


# --- output formats ---------------------------------------------------------------------

def test_csv_and_json_numbers_identical(capsys, tmp_path):
    args = ["pmf", "--preset", "cycle:7", "--from", "2", "--to", "0", "--horizon", "25"]
    doc = run_json(capsys, *args)
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "n,probability"
    csv_rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    json_rows = doc["payload"]["table"]["rows"]
    assert csv_rows == json_rows  # identical numbers, not merely close


def test_output_file_round_trip(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run_cli(
        capsys, "moments", "--preset", "complete:4", "--to", "0", "--output", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["metadata"]["command"] == "moments"


def test_metadata_reruns_bit_identically(capsys):
    args = [
        "compare", "--preset", "cycle:5", "--from", "1", "--to", "0",
        "--horizon", "30", "--trials", "500", "--seed", "77",
    ]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_graph_file_input(capsys, tmp_path):
    spec = {"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(spec))
    doc = run_json(capsys, "pmf", "--graph", str(path), "--from", "2", "--to", "0", "--horizon", "4")
    assert doc["metadata"]["graph"] == spec
    assert doc["payload"]["table"]["rows"][1][1] == pytest.approx(0.5)


# --- exit codes ----------------------------------------------------------------------------

def test_exit_code_invalid_input(capsys):
    code, _, err = run_cli(capsys, "pmf", "--preset", "cycle:2", "--from", "0", "--to", "1")
    assert code == 2 and "invalid input" in err
    code, _, err = run_cli(capsys, "pmf", "--preset", "nosuch:3", "--from", "0", "--to", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "pmf", "--preset", "cycle:5", "--from", "0", "--to", "9")
    assert code == 2


def test_exit_code_hypothesis_violation(capsys):
    code, _, err = run_cli(
        capsys, "pmf", "--preset", "path:4", "--from", "3", "--to", "0", "--engine", "fourier"
    )
    assert code == 3 and "hypothesis" in err
    code, _, err = run_cli(
        capsys, "pmf", "--preset", "cayley_d8", "--from", "0", "--to", "3", "--engine", "fourier"
    )
    assert code == 3
    code, _, err = run_cli(capsys, "gf", "--preset", "path:4", "--from", "3", "--to", "0")
    assert code == 3 and "not walk-regular" in err


def test_exit_code_unknown_json_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": 2, "edges": [[0, 1]], "extra": 1}))
    code, _, err = run_cli(capsys, "pmf", "--graph", str(path), "--from", "0", "--to", "1")
    assert code == 2


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "pmf", "--graph", "/nonexistent.json", "--from", "0", "--to", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pmf", "--preset", "cycle:10", "--from", "1", "--to", "0", "--horizon", "100000000000000"],
        ["simulate", "--preset", "cycle:10", "--from", "1", "--to", "0", "--trials", "100000000000000"],
        ["pmf", "--graph", "NODES_1E12", "--from", "1", "--to", "0"],
    ],
    ids=["pmf_horizon", "simulate_trials", "graph_file_nodes"],
)
def test_request_too_large_to_allocate_exits_2(capsys, tmp_path, argv):
    # each asks for TiB to PiB at once, so numpy refuses before touching memory
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"nodes": 10**12, "edges": [[0, 1]]}))
    code, out, err = run_cli(capsys, *[str(path) if a == "NODES_1E12" else a for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("hitwalk: invalid input: ")


@pytest.mark.parametrize(
    "preset",
    ["hypercube:64", "hypercube:63", "cycle:100000000000000000000", "path:9223372036854775807",
     "complete:100000000000000000000", "bipartite:2:1000000000000000000", "torus_std:10000000000",
     "torus_diag:3037000501"],
)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_preset_too_large_for_an_array_exits_2(capsys, tmp_path, preset, source):
    # numpy cannot size these arrays at all (it raised ValueError or
    # TypeError, exit 1); the builder refuses them before allocating
    name, *params = preset.split(":")
    path = tmp_path / "preset.json"
    path.write_text(json.dumps({"preset": name, "params": [int(p) for p in params]}))
    graph = ["--preset", preset] if source == "flag" else ["--graph", str(path)]
    code, out, err = run_cli(capsys, "pmf", *graph, "--from", "1", "--to", "0", "--horizon", "3")
    assert (code, out) == (2, "")
    assert err.startswith("hitwalk: invalid input: ") and "too large" in err


_HUGE = "100000000000000000000"  # 10^20


@pytest.mark.parametrize(
    ("argv", "table"),
    [
        (["pmf", "--horizon", _HUGE, "--engine", "direct"], "pmf table"),
        (["pmf", "--horizon", _HUGE, "--engine", "spectral"], "spectral series"),
        (["pmf", "--horizon", _HUGE, "--engine", "fourier"], "fourier table"),
        (["pmf", "--horizon", "1000000000000000000"], "pmf table"),
        (["gf", "--horizon", _HUGE], "spectral series"),
        (["simulate", "--trials", _HUGE], "trial table"),
        (["compare", "--horizon", _HUGE], "pmf table"),
        (["compare", "--trials", _HUGE], "trial table"),
        (["ctime", "--t-grid", f"0:{_HUGE}:2"], "pmf table"),
        (["ctime", "--t-grid", f"0:1:{_HUGE}"], "--t-grid"),
    ],
    ids=["direct", "spectral", "fourier", "auto_1e18", "gf", "simulate", "compare_horizon",
         "compare_trials", "ctime_time", "ctime_points"],
)
def test_count_too_large_for_an_array_exits_2(capsys, argv, table):
    # numpy cannot size the table these counts ask for (ValueError, exit
    # 1); the engine refuses the count before allocating
    command, *options = argv
    code, out, err = run_cli(capsys, command, "--preset", "cycle:5", "--from", "1", "--to", "0", *options)
    assert (code, out) == (2, "")
    assert err.startswith(f"hitwalk: invalid input: {table} too large: ")


def test_fourier_numerical_fault_exits_4(capsys, monkeypatch):
    # a fault in the transform-domain recurrence is a numerical failure
    from hitwalk import abelian

    real = abelian.law_transform
    monkeypatch.setattr(abelian, "law_transform", lambda group, law: real(group, law) + 1e-6j)
    code, out, err = run_cli(
        capsys, "pmf", "--preset", "cycle:7", "--from", "3", "--to", "0", "--engine", "fourier", "--horizon", "5"
    )
    assert (code, out) == (4, "")
    assert err.startswith("hitwalk: numerical failure: ")


# --- gf -------------------------------------------------------------------------------------

def test_gf_document(capsys):
    doc = run_json(capsys, "gf", "--preset", "hypercube:3", "--from", "0", "--to", "7", "--horizon", "12")
    assert doc["payload"]["denominator"][0] == pytest.approx(8.0, rel=1e-8)
    rows = doc["payload"]["table"]["rows"]
    assert rows[3][1] == pytest.approx(2 / 9, abs=1e-12)
    assert rows[11][1] == pytest.approx(4802 / 59049, abs=1e-12)


def test_gf_requires_regular(capsys):
    code, _, _ = run_cli(capsys, "gf", "--preset", "path:4", "--from", "3", "--to", "0")
    assert code == 3


def test_exit_code_numerical_failure(capsys):
    # the 64-cycle's float64 rational pair drifts from the recursion by degree 2V
    code, _, err = run_cli(capsys, "gf", "--preset", "cycle:64", "--from", "0", "--to", "1")
    assert code == 4 and "numerical failure" in err


@pytest.mark.parametrize(
    "preset",
    ["cycle:13", "complete:17", "cycle:32", "complete:32", "bipartite:16:16",
     "torus_std:5", "torus_std:9", "hypercube:6"],
)
def test_gf_pair_expands_to_series_through_2v(capsys, preset):
    from hitwalk import preset_graph

    name, *params = preset.split(":")
    horizon = 2 * preset_graph(name, [int(p) for p in params]).node_count
    doc = run_json(capsys, "gf", "--preset", preset, "--from", "0", "--to", "1", "--horizon", str(horizon))
    num = np.array(doc["payload"]["numerator"])
    den = np.array(doc["payload"]["denominator"])
    series = np.array([row[1] for row in doc["payload"]["table"]["rows"]])
    expanded = np.zeros(len(series))
    for m in range(len(series)):
        acc = num[m] if m < len(num) else 0.0
        for k in range(1, min(m, len(den) - 1) + 1):
            acc -= den[k] * expanded[m - k]
        expanded[m] = acc / den[0]
    assert np.max(np.abs(expanded - series)) < 1e-8


def test_gf_takes_pair_and_series_from_one_pass(capsys, monkeypatch):
    from hitwalk import preset_graph, spectral

    entered = []
    walk_powers = spectral._walk_powers

    def counting(graph, n):
        entered.append(n)
        return walk_powers(graph, n)

    monkeypatch.setattr(spectral, "_walk_powers", counting)
    doc = run_json(capsys, "gf", "--preset", "torus_std:5", "--from", "3", "--to", "0", "--horizon", "60")
    assert entered == [24]  # walk-regularity through V - 1
    series = [row[1] for row in doc["payload"]["table"]["rows"]]
    monkeypatch.undo()
    assert series == spectral.gf_series(preset_graph("torus_std", [5]), 3, 0, 60).tolist()


# --- auto engine on graph files ---------------------------------------------------------------

FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)


def _write_graph(tmp_path, nodes, edges):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": [list(e) for e in edges]}))
    return str(path)


def _pmf_rows(capsys, graph, *extra):
    doc = run_json(capsys, "pmf", "--graph", graph, "--from", "1", "--to", "0", "--horizon", "12", *extra)
    return doc["metadata"]["engine"], np.array(doc["payload"]["table"]["rows"])


def _frucht_file(tmp_path):
    # 3-regular but not walk-regular: some nodes lie on a triangle, some do not
    edges = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
    edges |= {tuple(sorted((i, (i + s) % 12))) for i, s in enumerate(FRUCHT_LCF)}
    return _write_graph(tmp_path, 12, sorted(edges))


def _chang_file(tmp_path):
    return _write_graph(tmp_path, 28, [(a, b) for a, b, _ in chang_graph().edges])


def test_auto_on_frucht_file_matches_direct(capsys, tmp_path):
    graph = _frucht_file(tmp_path)
    engine, auto = _pmf_rows(capsys, graph)
    _, direct = _pmf_rows(capsys, graph, "--engine", "direct")
    assert engine == "direct"
    assert np.array_equal(auto, direct)


def test_spectral_on_frucht_file_exits_3(capsys, tmp_path):
    # the rational pair needs walk-regularity; the pmf series does not
    graph = _frucht_file(tmp_path)
    code, _, err = run_cli(capsys, "gf", "--graph", graph, "--from", "1", "--to", "0")
    assert code == 3 and "not walk-regular" in err


def _spectral_and_direct(capsys, graph, start, horizon):
    args = ["pmf", "--graph", graph, "--from", str(start), "--to", "0", "--horizon", str(horizon)]
    return [
        np.array(run_json(capsys, *args, "--engine", engine)["payload"]["table"]["rows"])
        for engine in ("spectral", "direct")
    ]


@pytest.mark.parametrize("start", range(1, 12))
def test_spectral_pmf_on_frucht_file_matches_direct(capsys, tmp_path, start):
    # the renewal identity on the target's column holds on every graph
    spectral, direct = _spectral_and_direct(capsys, _frucht_file(tmp_path), start, 200)
    assert np.max(np.abs(spectral - direct)) <= 1e-15


def test_spectral_on_frucht_file_exact_before_first_triangle(capsys, tmp_path):
    # every node returns in 2 steps with probability 1/3, so M_1, M_2 are exact
    graph = _frucht_file(tmp_path)
    doc = run_json(capsys, "pmf", "--graph", graph, "--from", "1", "--to", "0", "--horizon", "2",
                   "--engine", "spectral")
    spectral = np.array(doc["payload"]["table"]["rows"])
    doc = run_json(capsys, "pmf", "--graph", graph, "--from", "1", "--to", "0", "--horizon", "2",
                   "--engine", "direct")
    assert np.allclose(spectral, np.array(doc["payload"]["table"]["rows"]), atol=1e-15)


WEIGHTED_FOUR_CYCLE = [(0, 1, 1.0), (1, 2, 3.0), (2, 3, 1.0), (0, 3, 3.0)]


@pytest.mark.parametrize("which", ["frucht", "four_cycle_1313"])
def test_compare_on_regular_file_runs_direct_only(capsys, tmp_path, which):
    if which == "frucht":
        graph = _frucht_file(tmp_path)
    else:
        graph = _write_graph(tmp_path, 4, WEIGHTED_FOUR_CYCLE)
    doc = run_json(capsys, "compare", "--graph", graph, "--from", "1", "--to", "0",
                   "--horizon", "12", "--trials", "200", "--seed", "5")
    assert doc["payload"]["engines"] == ["direct"]
    assert doc["payload"]["table"]["rows"] == []


def test_weighted_four_cycle_auto_and_spectral(capsys, tmp_path):
    # weights 1, 3, 1, 3: every node steps 1/4 one way and 3/4 the other,
    # so the walk is walk-regular although the weights differ
    graph = _write_graph(tmp_path, 4, WEIGHTED_FOUR_CYCLE)
    engine, auto = _pmf_rows(capsys, graph)
    _, direct = _pmf_rows(capsys, graph, "--engine", "direct")
    _, spectral = _pmf_rows(capsys, graph, "--engine", "spectral")
    assert engine == "direct"
    assert np.array_equal(auto, direct)
    assert np.max(np.abs(spectral - direct)) <= 1e-12


def test_spectral_on_non_walk_regular_weights_matches_direct(capsys, tmp_path):
    graph = _write_graph(tmp_path, 4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)])
    for start in (1, 2, 3):
        spectral, direct = _spectral_and_direct(capsys, graph, start, 200)
        assert np.max(np.abs(spectral - direct)) <= 1e-15, start


def test_spectral_on_chang_graph_matches_direct(capsys, tmp_path):
    graph = _chang_file(tmp_path)
    doc = run_json(capsys, "pmf", "--graph", graph, "--from", "5", "--to", "0", "--horizon", "40",
                   "--engine", "spectral")
    spectral = np.array(doc["payload"]["table"]["rows"])
    doc = run_json(capsys, "pmf", "--graph", graph, "--from", "5", "--to", "0", "--horizon", "40",
                   "--engine", "direct")
    assert np.max(np.abs(spectral - np.array(doc["payload"]["table"]["rows"]))) <= 1e-12


def test_exit_code_graph_file_with_converted_values(capsys, tmp_path):
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps({"nodes": 3, "edges": [[0, 1.7], [1, 2]]}))
    code, out, err = run_cli(capsys, "moments", "--graph", str(path), "--to", "0")
    assert code == 2 and out == ""
    assert err == "hitwalk: invalid input: bad edge entry [0, 1.7]: endpoints must be integers\n"


# --- disconnected graph files and the searches per query -----------------------------------

DISCONNECTED_QUERIES = {
    "pmf_direct": ["pmf", "--from", "1", "--to", "0", "--horizon", "5", "--engine", "direct"],
    "pmf_fourier": ["pmf", "--from", "1", "--to", "0", "--horizon", "5", "--engine", "fourier"],
    "pmf_spectral": ["pmf", "--from", "1", "--to", "0", "--horizon", "5", "--engine", "spectral"],
    "moments": ["moments", "--from", "1", "--to", "0"],
    "ctime": ["ctime", "--from", "1", "--to", "0", "--t-grid", "0:5:3"],
    "simulate": ["simulate", "--from", "1", "--to", "0", "--trials", "10"],
    "compare": ["compare", "--from", "1", "--to", "0", "--horizon", "5", "--trials", "10"],
    "gf": ["gf", "--from", "1", "--to", "0", "--horizon", "5"],
}


@pytest.mark.parametrize("query", DISCONNECTED_QUERIES)
def test_disconnected_graph_file_exits_3(capsys, tmp_path, query):
    # two triangles: regular and walk-regular, so only the target's
    # reachability (or, for fourier, the missing group) stops the query
    graph = _write_graph(tmp_path, 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    command, *options = DISCONNECTED_QUERIES[query]
    code, out, err = run_cli(capsys, command, "--graph", graph, *options)
    assert (code, out) == (3, "")
    assert err.startswith("hitwalk: hypothesis violation: ")


@pytest.fixture
def searches(monkeypatch):
    """Sources of the breadth-first searches run (``graphs._levels``), in
    every hitwalk module that binds the search."""
    sources = []
    search = graphs._levels

    def counting(ptr, succ, source):
        sources.append(source)
        return search(ptr, succ, source)

    for name, module in list(sys.modules.items()):
        if name.startswith("hitwalk") and getattr(module, "_levels", None) is search:
            monkeypatch.setattr(module, "_levels", counting)
    return sources


PAIR = ["--preset", "torus_std:5", "--from", "7", "--to", "0"]


@pytest.mark.parametrize(
    "argv, count",
    [
        (["pmf", *PAIR, "--horizon", "20", "--engine", "direct"], 1),
        (["pmf", *PAIR, "--horizon", "20", "--engine", "spectral"], 1),
        (["moments", *PAIR], 1),
        (["ctime", *PAIR, "--t-grid", "0:10:5"], 1),
        (["simulate", *PAIR, "--trials", "50"], 1),
        (["pmf", *PAIR, "--horizon", "20", "--engine", "fourier"], 0),
        # the lumped chain for the series and moments, and Monte Carlo's own check
        (["compare", *PAIR, "--horizon", "20", "--trials", "50"], 2),
        # the dense walk powers' connectivity check, and the lumped chain
        (["gf", *PAIR, "--horizon", "20"], 2),
    ],
    ids=["pmf_direct", "pmf_spectral", "moments", "ctime", "simulate", "pmf_fourier", "compare", "gf"],
)
def test_each_query_searches_its_graph_only_where_an_answer_needs_it(capsys, searches, argv, count):
    run_json(capsys, *argv)
    assert len(searches) == count


def test_graph_builds_run_no_search(searches, tmp_path):
    params = {"bipartite": [3, 4], "cayley_s3": [], "cayley_d8": []}
    built = [graphs.preset_graph(name, params.get(name, [5])) for name in graphs.PRESET_NAMES]
    built.append(graphs.load_graph_file(_write_graph(tmp_path, 4, [(0, 1), (2, 3)]))[0])
    built.append(graphs.Graph(3, ((0, 1), (1, 2))))
    assert searches == []
    assert [g.connected for g in built] == [True] * len(graphs.PRESET_NAMES) + [False, True]
    assert len(searches) == len(built)  # read on demand, never stored
    assert not any("connected" in vars(g) for g in built)


# --- a preset file is its --preset -----------------------------------------------------------

PRESET_FILE_PRESETS = ["cycle:10", "torus_diag:5", "hypercube:3", "bipartite:3:4", "path:6", "cayley_s3", "cayley_d8"]
PRESET_FILE_QUERIES = {
    "pmf_auto": ["pmf", "--from", "1", "--to", "0", "--horizon", "30", "--engine", "auto"],
    "pmf_direct": ["pmf", "--from", "1", "--to", "0", "--horizon", "30", "--engine", "direct"],
    "pmf_fourier": ["pmf", "--from", "1", "--to", "0", "--horizon", "30", "--engine", "fourier"],
    "pmf_spectral": ["pmf", "--from", "1", "--to", "0", "--horizon", "30", "--engine", "spectral"],
    "moments": ["moments", "--to", "0"],
    "ctime": ["ctime", "--to", "0", "--t-grid", "0:8:5"],
    "simulate": ["simulate", "--from", "1", "--to", "0", "--trials", "200", "--seed", "3"],
    "compare": ["compare", "--from", "1", "--to", "0", "--horizon", "20", "--trials", "200", "--seed", "3"],
    "gf": ["gf", "--from", "1", "--to", "0", "--horizon", "12"],
}


def _preset_file(tmp_path, preset):
    name, *params = preset.split(":")
    path = tmp_path / "preset.json"
    path.write_text(json.dumps({"preset": name, "params": [int(p) for p in params]}))
    return str(path)


@pytest.mark.parametrize("query", PRESET_FILE_QUERIES)
@pytest.mark.parametrize("preset", PRESET_FILE_PRESETS)
def test_preset_file_is_its_preset(capsys, tmp_path, preset, query):
    # the engines follow the spec, not the option that named it: same exit
    # code, stdout and stderr, hypothesis violations included
    command, *options = PRESET_FILE_QUERIES[query]
    by_option = run_cli(capsys, command, "--preset", preset, *options)
    by_file = run_cli(capsys, command, "--graph", _preset_file(tmp_path, preset), *options)
    assert by_file == by_option


def test_preset_file_compare_runs_every_leg(capsys, tmp_path):
    doc = run_json(capsys, "compare", "--graph", _preset_file(tmp_path, "cycle:10"), "--from", "1", "--to", "0",
                   "--horizon", "20", "--trials", "200")
    assert doc["payload"]["engines"] == ["direct", "fourier", "spectral"]
    assert "fourier" in doc["payload"]["moments"]


MALFORMED_PRESET_SPECS = {
    "float": ({"preset": "cycle", "params": [10.7]}, "preset cycle takes 1 integer parameter(s)"),
    "string": ({"preset": "cycle", "params": "9"}, "preset cycle takes 1 integer parameter(s)"),
    "bare_int": ({"preset": "cycle", "params": 5}, "preset cycle takes 1 integer parameter(s)"),
    "null": ({"preset": "cycle", "params": [None]}, "preset cycle takes 1 integer parameter(s)"),
    "string_item": ({"preset": "cycle", "params": ["x"]}, "preset cycle takes 1 integer parameter(s)"),
    "bool": ({"preset": "cycle", "params": [True]}, "preset cycle takes 1 integer parameter(s)"),
    "object": ({"preset": "cycle", "params": {"k": 5}}, "preset cycle takes 1 integer parameter(s)"),
    "too_many": ({"preset": "cycle", "params": [10, 3]}, "preset cycle takes 1 integer parameter(s)"),
    "too_few": ({"preset": "bipartite", "params": [3]}, "preset bipartite takes 2 integer parameter(s)"),
    "missing": ({"preset": "hypercube"}, "preset hypercube takes 1 integer parameter(s)"),
    "none_taken": ({"preset": "cayley_s3", "params": [3]}, "preset cayley_s3 takes 0 integer parameter(s)"),
    "unknown": ({"preset": "moebius", "params": [5]}, "unknown preset 'moebius'; names: " + ", ".join(graphs.PRESET_NAMES)),
    "name_not_string": ({"preset": ["cycle"], "params": [5]}, "unknown preset ['cycle']; names: " + ", ".join(graphs.PRESET_NAMES)),
}


@pytest.mark.parametrize("case", MALFORMED_PRESET_SPECS)
@pytest.mark.parametrize("query", [["pmf", "--from", "1"], ["compare", "--from", "1", "--trials", "10"]], ids=["pmf", "compare"])
def test_malformed_preset_file_exits_2(capsys, tmp_path, case, query):
    # refused, never converted to another graph and never a traceback
    spec, message = MALFORMED_PRESET_SPECS[case]
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, *query, "--to", "0", "--graph", str(path))
    assert (code, out) == (2, "")
    assert err == f"hitwalk: invalid input: {message}\n"
