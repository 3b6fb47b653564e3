import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hitwalk import abelian, cli, ctime, graphs, hitting
from hitwalk.cli import main

from conftest import UNDERFLOW_EDGES, chang_graph, ehrenfest_pmf, exact_moments, exact_pmf


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


def test_pmf_spectral_on_hypercube_40_is_the_direct_document(capsys):
    # --engine spectral runs direct on the closed-form quotient (40 classes);
    # a graph build would ask for 8 TiB
    argv = ["pmf", "--preset", "hypercube:40", "--from", "3", "--to", "0", "--horizon", "5"]
    direct = run_cli(capsys, *argv, "--engine", "direct")
    assert direct[0] == 0
    assert run_cli(capsys, *argv, "--engine", "spectral") == direct


def test_pmf_fourier_prints_clipped_terms_as_zero(capsys):
    # from 5 to 0 on the 10-cycle the walk hits only at odd steps from 5 on;
    # at the other steps the character sum leaves signed noise, whose
    # negatives are clipped to exactly 0.0, and no printed term is below
    # the noise
    doc = run_json(capsys, "pmf", "--preset", "cycle:10", "--from", "5", "--to", "0",
                   "--horizon", "200", "--engine", "fourier")
    probs = np.array([p for _, p in doc["payload"]["table"]["rows"]])
    zero = probs == 0.0
    assert zero.any()
    assert np.all(probs[~zero] > 1e-40)
    # the zeros are structural: every step but the odd ones from 5 on
    assert not zero[4::2].any()


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


def test_ctime_without_from_is_the_full_evaluation_at_every_start(capsys):
    # the CLI recombines each class once; the columns are the full
    # evaluation's, each start reading its class's
    doc = run_json(capsys, "ctime", "--preset", "torus_std:5", "--to", "0", "--t-grid", "0:30:7")
    system, rows = cli._Problem(cli._parse_preset("torus_std:5"), None, 0).lumped
    full = ctime.ct_evaluate(system, np.linspace(0.0, 30.0, 7), 1e-9)
    starts = list(range(1, 25))
    assert doc["payload"]["table"]["columns"] == ["t", *(f"{f}_{s}" for s in starts for f in ("cdf", "pdf"))]
    want = np.stack([full.cdf[:, rows[starts]], full.pdf[:, rows[starts]]], axis=2).reshape(7, -1)
    got = np.array(doc["payload"]["table"]["rows"])[:, 1:]
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_one_start_is_the_all_starts_answer_at_that_start(capsys):
    # torus_std:15 lumps to 35 classes: every class takes column blocks, one
    # start giant steps (rows 0..31 are the loop's in both)
    system, rows = cli._Problem(cli._parse_preset("torus_std:15"), None, 0).lumped
    start = 112
    row = rows[start]
    pmf = run_json(capsys, "pmf", "--preset", "torus_std:15", "--from", str(start), "--to", "0", "--horizon", "500")
    got = np.array(pmf["payload"]["table"]["rows"])[:, 1]
    want = hitting.pmf(system, 500).probs[:, row]
    assert np.array_equal(got[:32], want[:32])
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    grid = ["ctime", "--preset", "torus_std:15", "--to", "0", "--t-grid", "0:60:7"]
    one = np.array(run_json(capsys, *grid, "--from", str(start))["payload"]["table"]["rows"])
    every = run_json(capsys, *grid)["payload"]["table"]
    at = every["columns"].index(f"cdf_{start}")
    want = np.array(every["rows"])[:, [0, at, at + 1]]
    assert np.all(np.abs(one - want) <= 1e-12 * want)


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
    assert doc["payload"]["engines"] == ["direct", "fourier"]
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
    # the character sums reach 1e5..1e7, so their round-off is far above
    # an absolute 1e-9
    doc = run_json(
        capsys, "compare", "--preset", preset, "--from", str(start), "--to", str(target),
        "--horizon", "16", "--trials", "200",
    )
    moments = doc["payload"]["moments"]
    for key in ("mean", "second_moment", "variance"):
        assert moments["fourier"][key] == pytest.approx(moments["direct"][key], rel=1e-9)


@pytest.fixture
def build_counts(monkeypatch):
    """Counts of the graphs, kernels, absorbing systems lumped from a
    kernel, preset quotients in closed form and step laws the CLI builds."""
    counts = {"graph": 0, "kernel": 0, "absorbing": 0, "quotient": 0, "step_law": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += out is not None  # a family without a closed form builds no quotient
            return out
        return wrapper

    monkeypatch.setattr(graphs, "preset_graph", counted("graph", graphs.preset_graph))
    monkeypatch.setattr(cli, "simple_walk_kernel", counted("kernel", cli.simple_walk_kernel))
    # both builders of an absorbing system from a kernel count as one kind of build
    monkeypatch.setattr(hitting, "make_absorbing", counted("absorbing", hitting.make_absorbing))
    monkeypatch.setattr(hitting, "lumped_absorbing", counted("absorbing", hitting.lumped_absorbing))
    monkeypatch.setattr(hitting, "_preset_lumped", counted("quotient", hitting._preset_lumped))
    for family in graphs._PRESETS.values():
        if family.step_law:
            monkeypatch.setattr(abelian, family.step_law, counted("step_law", getattr(abelian, family.step_law)))
    return counts


@pytest.mark.parametrize(
    "engine, builds",
    [
        # torus_std:5 lumps in closed form: no graph, kernel or search
        ("direct", {"graph": 0, "kernel": 0, "absorbing": 0, "quotient": 1, "step_law": 0}),
        # --engine spectral runs direct
        ("spectral", {"graph": 0, "kernel": 0, "absorbing": 0, "quotient": 1, "step_law": 0}),
        ("fourier", {"graph": 0, "kernel": 0, "absorbing": 0, "quotient": 0, "step_law": 1}),
        ("auto", {"graph": 0, "kernel": 0, "absorbing": 0, "quotient": 1, "step_law": 0}),
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
    # the direct series and the moments share the quotient; Monte Carlo
    # alone walks the kernel
    run_json(
        capsys, "compare", "--preset", "torus_std:5", "--from", "7", "--to", "0",
        "--horizon", "20", "--trials", "200",
    )
    assert build_counts == {"graph": 1, "kernel": 1, "absorbing": 0, "quotient": 1, "step_law": 1}


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


# Each subcommand's payload-affecting options, with a base value and one
# other that moves the payload.
_PAYLOAD_OPTIONS = {
    "pmf": {
        "--preset": ("cycle:13", "cycle:14"), "--from": ("3", "5"), "--to": ("0", "1"),
        "--horizon": ("20", "30"), "--engine": ("direct", "fourier"),
    },
    "moments": {"--preset": ("cycle:12", "path:12"), "--from": ("3", "5"), "--to": ("0", "1")},
    "ctime": {
        "--preset": ("cycle:12", "cycle:14"), "--from": ("3", "5"), "--to": ("0", "1"),
        "--t-grid": ("0:5:6", "0:8:6"), "--tol": ("1e-9", "1e-4"),
    },
    "simulate": {
        "--preset": ("cycle:12", "cycle:14"), "--from": ("3", "5"), "--to": ("0", "1"),
        "--trials": ("200", "300"), "--seed": ("1", "2"), "--step-cap": ("10000000", "20"),
    },
    "compare": {
        "--preset": ("cycle:40", "cycle:42"), "--from": ("0", "3"), "--to": ("20", "21"),
        "--horizon": ("8", "40"), "--trials": ("200", "300"), "--seed": ("1", "2"),
        "--step-cap": ("10000000", "300"),
    },
    "gf": {"--preset": ("cycle:12", "cycle:14"), "--from": ("3", "5"), "--to": ("0", "1"), "--horizon": ("10", "12")},
}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, options in _PAYLOAD_OPTIONS.items() for option in options],
)
def test_an_option_that_moves_the_payload_moves_the_metadata(capsys, command, option):
    # a document re-runs from its metadata only if every option that
    # changes its payload is recorded there
    def document(value):
        argv = [command]
        for name, (base, _) in _PAYLOAD_OPTIONS[command].items():
            argv += [name, value if name == option else base]
        return run_json(capsys, *argv)

    base, moved = (document(value) for value in _PAYLOAD_OPTIONS[command][option])
    assert base["payload"] != moved["payload"]
    assert base["metadata"] != moved["metadata"]


def test_graph_file_input(capsys, tmp_path):
    spec = {"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(spec))
    doc = run_json(capsys, "pmf", "--graph", str(path), "--from", "2", "--to", "0", "--horizon", "4")
    assert doc["metadata"]["graph"] == spec
    assert doc["payload"]["table"]["rows"][1][1] == pytest.approx(0.5)


# Strings with the characters a re-indenting writer could take for structure,
# escapes, and characters outside ASCII (a lone surrogate included).
_JSON_STRINGS = st.one_of(
    st.text(max_size=8),
    st.lists(
        st.sampled_from([", ", "[", "]", "[]", "{}", '"', "\\", ": ", "\x00", "\n", "\x1f", "é", "€", "\ud800", "a"]),
        max_size=6,
    ).map("".join),
)
_JSON_NUMBERS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).map(lambda n: -n if n % 2 else n),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16]),
)
# What a string-free list holds: numbers, constants and empty containers.
_JSON_ATOMS = st.one_of(_JSON_NUMBERS, st.booleans(), st.none(), st.just([]), st.just({}), st.just(()))


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_JSON_STRINGS, children, max_size=5),
    )


_JSON_DOCUMENTS = st.one_of(
    st.recursive(st.one_of(_JSON_ATOMS, _JSON_STRINGS), _json_containers, max_leaves=30),
    # string-free nesting, and tables of rows, as the documents' tables are
    st.recursive(_JSON_ATOMS, lambda kids: st.lists(kids, max_size=5), max_leaves=30),
    st.lists(st.lists(_JSON_ATOMS, min_size=1, max_size=4), min_size=1, max_size=6),
    st.dictionaries(_JSON_STRINGS, st.lists(st.lists(_JSON_NUMBERS, max_size=3), max_size=4), max_size=3),
)


@settings(max_examples=400)
@given(_JSON_DOCUMENTS)
@example([[1, 0.5], [2, float("nan")], [3, np.float64(-0.0)]])
@example({"rows": [[1, float("inf")]], "empty": [[], {}], "columns": ["n", "p, [q]"]})
@example([[], [1, 2]])
@example([[1, [2]], [3]])
@example([1, [2], [3]])
@example([[1], [2], 3])
@example({"b": {}, "a": ()})
@example([[[1], [2]], [[3]]])
@example(["a, [b]", '"', "\\"])
def test_json_writer_is_the_stdlib_indent_2_writer(doc):
    assert "".join(cli._json_chunks(doc, [])) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [
    *(["pmf", "--preset", preset, "--from", "3", "--to", "0", "--horizon", "40", "--engine", engine]
      for preset in ("cycle:9", "torus_std:4", "hypercube:3")
      for engine in ("auto", "direct", "fourier", "spectral")),
    ["pmf", "--preset", "bipartite:3:5", "--from", "4", "--to", "0", "--horizon", "30"],
    *(["pmf", "--graph", "GRAPH", "--from", "2", "--to", "0", "--horizon", "30", "--engine", engine]
      for engine in ("auto", "direct", "spectral")),
    *(["moments", source, graph, "--to", "0"] for source, graph in [("--preset", "path:7"), ("--graph", "GRAPH")]),
    *(["ctime", source, graph, "--to", "0", "--t-grid", "0:6:13"]
      for source, graph in [("--preset", "cycle:6"), ("--graph", "GRAPH")]),
    *(["simulate", source, graph, "--from", "2", "--to", "0", "--trials", "300", "--seed", "3"]
      for source, graph in [("--preset", "cycle:12"), ("--graph", "GRAPH")]),
    *(["compare", source, graph, "--from", "2", "--to", "0", "--horizon", "20", "--trials", "200"]
      for source, graph in [("--preset", "torus_diag:3"), ("--preset", "cayley_d8"), ("--graph", "GRAPH")]),
    *(["gf", source, graph, "--from", "3", "--to", "0", "--horizon", "20"]
      for source, graph in [("--preset", "hypercube:3"), ("--graph", "GRAPH")]),
], ids=lambda argv: " ".join(argv))
def test_json_documents_are_the_stdlib_indent_2_bytes(capsys, tmp_path, argv):
    graph = _write_graph(tmp_path, 4, WEIGHTED_FOUR_CYCLE)
    code, out, err = run_cli(capsys, *(graph if a == "GRAPH" else a for a in argv))
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


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


_NUMPY_LIMIT = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize


@pytest.mark.parametrize(
    "preset, message",
    [
        ("hypercube:0", "hypercube needs dim >= 1"),
        ("hypercube:70", f"hypercube too large: {70 << 64} array entries, numpy holds at most {_NUMPY_LIMIT}"),
        ("bipartite:0:3", "bipartite sides must be nonempty"),
        ("torus_diag:4", "diagonal torus needs odd p (2 must be invertible)"),
    ],
)
def test_preset_parameters_are_the_builders_checks_without_a_build(capsys, build_counts, preset, message):
    code, out, err = run_cli(capsys, "pmf", "--preset", preset, "--from", "1", "--to", "0")
    assert (code, out, err) == (2, "", f"hitwalk: invalid input: {message}\n")
    assert build_counts["graph"] == 0


def test_preset_quotient_too_large_for_its_dense_q_exits_2(capsys):
    # torus_std:100000 lumps onto 1.25e9 classes; the family refuses the
    # classes^2 dense Q before it allocates anything of size classes
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "pmf", "--preset", "torus_std:100000", "--from", "1", "--to", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    classes = 50001 * 50002 // 2 - 1
    assert (code, out) == (2, "")
    assert err == f"hitwalk: invalid input: lumped chain too large: {classes**2} array entries, numpy holds at most {_NUMPY_LIMIT}\n"
    assert peak < 2**20


def test_hypercube_40_pmf_is_the_ehrenfest_law(capsys, build_counts):
    # 2^40 nodes, 40 classes: the family's quotient answers, no graph is built
    doc = run_json(capsys, "pmf", "--preset", "hypercube:40", "--from", str(2**40 - 1), "--to", "0", "--horizon", "200")
    rows = doc["payload"]["table"]["rows"]
    exact = ehrenfest_pmf(40, 40, 200)
    assert exact[39] == Fraction(math.factorial(40), 40**40)  # P(tau = 40) ~ 6.75e-17
    assert [n for n, _ in rows] == list(range(1, 201))
    for (_, p), e in zip(rows, exact):
        assert abs(Fraction(p) - e) <= Fraction(1, 10**13) * e
    assert build_counts == {"graph": 0, "kernel": 0, "absorbing": 0, "quotient": 1, "step_law": 0}


def test_complete_10e9_pmf_is_geometric(capsys):
    # a graph build would allocate 3.73 GiB first; the quotient has one class
    doc = run_json(capsys, "pmf", "--preset", "complete:1000000000", "--from", "1", "--to", "0")
    for n, p in doc["payload"]["table"]["rows"]:
        assert p == pytest.approx(hitting.closed_complete(10**9, n), rel=1e-13, abs=0)


_HUGE = "100000000000000000000"  # 10^20


@pytest.mark.parametrize(
    ("argv", "table"),
    [
        (["pmf", "--horizon", _HUGE, "--engine", "direct"], "pmf table"),
        (["pmf", "--horizon", _HUGE, "--engine", "spectral"], "pmf table"),
        (["pmf", "--horizon", _HUGE, "--engine", "fourier"], "fourier table"),
        (["pmf", "--horizon", "1000000000000000000"], "pmf table"),
        (["gf", "--horizon", _HUGE], "gf series"),
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


def test_ctime_grid_past_memory_is_refused_before_the_truncation_search(capsys):
    # t = 10^13 needs at least 10^13 pmf rows (146 TiB); searching for the
    # exact truncation index first would loop ~4 * 10^7 times (about 12 s)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "ctime", "--preset", "cycle:5", "--from", "1", "--to", "0", "--t-grid", "0:10000000000000:2"
    )
    assert (code, out) == (2, "")
    assert err.startswith("hitwalk: invalid input: ")
    assert time.perf_counter() - start < 1.0


def test_fourier_numerical_fault_exits_4(capsys, monkeypatch):
    # a fault in the transform-domain recurrence is a numerical failure:
    # here 1e-6 of the mass at steps +-3, the displacement, moves to steps
    # +-1, so the first-step probability turns negative
    from hitwalk import abelian

    def faulty(group, law):
        table = law.table.copy()
        table[[1, -1]] += 1e-6
        table[[3, -3]] -= 1e-6
        return abelian.fourier(group, table).real

    monkeypatch.setattr(abelian, "_real_transform", faulty)
    code, out, err = run_cli(
        capsys, "pmf", "--preset", "cycle:7", "--from", "3", "--to", "0", "--engine", "fourier", "--horizon", "5"
    )
    assert (code, out) == (4, "")
    assert err.startswith("hitwalk: numerical failure: negative probability")


# --- gf -------------------------------------------------------------------------------------

def test_gf_document(capsys):
    doc = run_json(capsys, "gf", "--preset", "hypercube:3", "--from", "0", "--to", "7", "--horizon", "12")
    assert doc["payload"]["denominator"][0] == pytest.approx(8.0, rel=1e-8)
    rows = doc["payload"]["table"]["rows"]
    assert rows[3][1] == pytest.approx(2 / 9, abs=1e-12)
    assert rows[11][1] == pytest.approx(4802 / 59049, abs=1e-12)


def test_gf_series_keeps_relative_accuracy(capsys):
    # P(tau = n) = (4/5)^(n-1)/5 on K_6; the series comes from the absorbing
    # chain, whose terms keep their relative accuracy
    doc = run_json(capsys, "gf", "--preset", "complete:6", "--from", "1", "--to", "0", "--horizon", "60")
    rows = doc["payload"]["table"]["rows"]
    assert rows[0] == [0, 0.0] and len(rows) == 61
    for n, c in rows[1:]:
        exact = Fraction(4, 5) ** (n - 1) / 5
        assert abs(Fraction(c) - exact) <= Fraction(1, 10**14) * exact, n


def test_gf_requires_regular(capsys):
    code, _, _ = run_cli(capsys, "gf", "--preset", "path:4", "--from", "3", "--to", "0")
    assert code == 3


def test_exit_code_numerical_failure(capsys):
    # the 64-cycle's float64 rational pair drifts from the recursion by degree 2V
    code, _, err = run_cli(capsys, "gf", "--preset", "cycle:64", "--from", "0", "--to", "1")
    assert code == 4 and "numerical failure" in err and "by degree 128" in err


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


def test_gf_numerator_ends_at_its_last_term_above_roundoff(capsys):
    # the generating function is 2t^2 over the denominator; past t^2 the
    # convolution leaves even-degree terms of 1e-17 to 5.5e-16, each below
    # its rounding bound V u (|den| * |series|)_k, and they are trimmed
    doc = run_json(capsys, "gf", "--preset", "bipartite:13:13", "--to", "0", "--from", "4", "--horizon", "23")
    assert doc["payload"]["numerator"] == [0.0, 0.0, 2.0]


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
    # --engine spectral runs direct on every graph, walk-regular or not
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


def test_graph_file_whose_strength_overflows_names_the_node(capsys, tmp_path):
    # each weight is finite, but node 0's sum overflows to inf, which left
    # its steps 0 and only a row-sum message
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"nodes": 3, "edges": [[0, 1, 1e308], [0, 2, 1e308]]}))
    code, out, err = run_cli(capsys, "pmf", "--graph", str(path), "--from", "1", "--to", "0")
    assert (code, out) == (2, "")
    assert err == "hitwalk: invalid input: node 0: the sum of its edge weights overflows float64\n"


_TOO_LARGE = "graph too large: {} nodes, at most 3037000499 supported"


@pytest.mark.parametrize(
    ("content", "message"),
    [
        (b'{"nodes": 3, "edges": 5}', "'edges' must be an array"),
        (b'{"nodes": 3, "edges": null}', "'edges' must be an array"),
        (b'\xff\xfe{"nodes": 3, "edges": []}', "invalid JSON in {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" * 100000 + b"]" * 100000, "invalid JSON in {path}: maximum recursion depth exceeded"),
        (b'{"nodes": 3, "edges": [[0, 1], [1, 2, 1%s]]}' % (b"0" * 400), "bad edge weight: int too large to convert to float"),
        # a rule break comes before an earlier edge's structural fault
        (b'{"nodes": 3, "edges": [[0, 0], [1, 2, 1%s]]}' % (b"0" * 400), "bad edge weight: int too large to convert to float"),
        # past the interpreter's integer digit limit, 4300 by default, json raises a ValueError
        (b'{"nodes": 3, "edges": [[0, 1, 1%s]]}' % (b"0" * 5000), "invalid JSON in {path}: Exceeds the limit"),
        (json.dumps({"nodes": 2**70, "edges": [[0, 1]]}).encode(), _TOO_LARGE.format(2**70)),
        (json.dumps({"nodes": 2**62, "edges": [[0, 1]]}).encode(), _TOO_LARGE.format(2**62)),
        # its arc keys would wrap around int64
        (json.dumps({"nodes": 2**32, "edges": [[4294967295, 4294967294]]}).encode(), _TOO_LARGE.format(2**32)),
    ],
    ids=[
        "edges_int", "edges_null", "not_utf8", "nested_past_recursion_limit", "weight_past_float",
        "weight_past_float_after_self_loop", "integer_past_digit_limit", "nodes_2e70", "nodes_2e62", "nodes_2e32",
    ],
)
def test_malformed_graph_file_exits_2(capsys, tmp_path, content, message):
    # refused with one line, never a traceback and exit 1 (a TypeError,
    # UnicodeDecodeError, RecursionError, OverflowError or ValueError)
    path = tmp_path / "graph.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "pmf", "--graph", str(path), "--from", "1", "--to", "0", "--horizon", "3")
    assert (code, out) == (2, "")
    # one line, starting with the message (RecursionError's wording goes on)
    assert err.startswith(f"hitwalk: invalid input: {message.format(path=path)}") and err.count("\n") == 1


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


UNDERFLOW_QUERIES = {
    "pmf": ["pmf", "--from", "2", "--to", "0"],
    "moments": ["moments", "--from", "2", "--to", "0"],
    "ctime": ["ctime", "--from", "2", "--to", "0", "--t-grid", "0:4:5"],
    "simulate": ["simulate", "--from", "2", "--to", "0"],
    "compare": ["compare", "--from", "2", "--to", "0"],
    "pmf_spectral": ["pmf", "--from", "2", "--to", "0", "--engine", "spectral"],
}


@pytest.mark.parametrize("query", UNDERFLOW_QUERIES)
def test_underflowed_step_leaves_the_target_unreachable(capsys, tmp_path, query):
    # a connected file whose step 1 -> 0 underflows to 0 in float64
    graph = _write_graph(tmp_path, 3, UNDERFLOW_EDGES)
    command, *options = UNDERFLOW_QUERIES[query]
    code, out, err = run_cli(capsys, command, "--graph", graph, *options)
    assert (code, out, err) == (3, "", "hitwalk: hypothesis violation: target 0 unreachable from some state\n")


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
        # torus_std:5 lumps in closed form, with no search
        (["pmf", *PAIR, "--horizon", "20", "--engine", "direct"], 0),
        (["pmf", *PAIR, "--horizon", "20", "--engine", "spectral"], 0),
        (["moments", *PAIR], 0),
        (["ctime", *PAIR, "--t-grid", "0:10:5"], 0),
        (["simulate", *PAIR, "--trials", "50"], 1),
        (["pmf", *PAIR, "--horizon", "20", "--engine", "fourier"], 0),
        # Monte Carlo's check of the target's reachability
        (["compare", *PAIR, "--horizon", "20", "--trials", "50"], 1),
        # the dense walk powers' connectivity check, and the lumped chain
        (["gf", *PAIR, "--horizon", "20"], 2),
        # graph files, and families without a closed form, lump from the
        # kernel's search (PATH6: an edge-list file of the path on 6 nodes)
        (["pmf", "--graph", "PATH6", "--from", "5", "--to", "0", "--horizon", "20"], 1),
        (["moments", "--preset", "torus_std:4", "--from", "5", "--to", "0"], 1),
        # the path preset lumps in closed form
        (["pmf", "--preset", "path:6", "--from", "5", "--to", "0", "--horizon", "20"], 0),
    ],
    ids=[
        "pmf_direct", "pmf_spectral", "moments", "ctime", "simulate", "pmf_fourier", "compare", "gf",
        "pmf_path", "moments_torus_std_4", "pmf_path_preset",
    ],
)
def test_each_query_searches_its_graph_only_where_an_answer_needs_it(capsys, tmp_path, searches, argv, count):
    path6 = _write_graph(tmp_path, 6, [(i, i + 1) for i in range(5)])
    run_json(capsys, *[path6 if a == "PATH6" else a for a in argv])
    assert len(searches) == count


def test_graph_builds_run_no_search(searches, tmp_path):
    params = {"bipartite": [3, 4], "cayley_s3": [], "cayley_d8": []}
    built = [graphs.preset_graph(name, params.get(name, [5])) for name in graphs.PRESET_NAMES]
    built.append(graphs.parse_graph_spec(graphs._read_spec(_write_graph(tmp_path, 4, [(0, 1), (2, 3)]))))
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
    assert doc["payload"]["engines"] == ["direct", "fourier"]
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
