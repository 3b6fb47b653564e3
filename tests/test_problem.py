"""The public problem: one (graph spec, start, target) question, its engine
table and compare's legs, answering as the command line does."""
import json

import numpy as np
import pytest

import hitwalk as hw
from hitwalk.cli import main
from hitwalk.errors import HypothesisError, InvalidParameterError

PETERSEN_EDGES = (
    [[i, (i + 1) % 5] for i in range(5)] + [[i, i + 5] for i in range(5)] + [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
)


def _petersen(tmp_path):
    path = tmp_path / "petersen.json"
    spec = {"nodes": 10, "edges": PETERSEN_EDGES}
    path.write_text(json.dumps(spec))
    return spec, ["--graph", str(path)]


def _source(name, tmp_path):
    """The spec and the CLI options of a preset, or of a Petersen graph file."""
    if name == "PETERSEN":
        return _petersen(tmp_path)
    return hw.parse_preset(name), ["--preset", name]


def _pmf_rows(capsys, source, start, target, horizon, engine):
    argv = ["pmf", *source, "--from", str(start), "--to", str(target), "--horizon", str(horizon), "--engine", engine]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["payload"]["table"]["rows"]


@pytest.mark.parametrize(
    "name, engine",
    [("torus_std:5", "direct"), ("cayley_d8", "direct"), ("PETERSEN", "direct"), ("torus_std:5", "fourier")],
)
def test_engine_table_is_the_pmf_document(capsys, tmp_path, name, engine):
    spec, source = _source(name, tmp_path)
    for start, target in ((7, 0), (1, 4), (3, 0)):
        series = hw.ENGINES[engine](hw.Problem(spec, start, target), 300)
        rows = _pmf_rows(capsys, source, start, target, 300, engine)
        # bit for bit, tiny terms and all
        assert [[n, p] for n, p in enumerate(series.tolist(), 1)] == rows


def test_fourier_engine_refuses_a_walk_without_an_abelian_group(tmp_path):
    for spec in (hw.parse_preset("cayley_s3"), _petersen(tmp_path)[0]):
        with pytest.raises(HypothesisError, match="^fourier engine requires an abelian Cayley walk; applicable"):
            hw.ENGINES["fourier"](hw.Problem(spec, 1, 0), 10)


@pytest.mark.parametrize(
    "name, legs",
    [
        ("cayley_s3", ("direct",)),
        ("cayley_d8", ("direct",)),
        ("PETERSEN", ("direct",)),
        ("path:6", ("direct",)),
        ("bipartite:2:3", ("direct",)),
        ("cycle:6", ("direct", "fourier")),
        ("complete:5", ("direct", "fourier")),
        ("hypercube:3", ("direct", "fourier")),
        ("torus_std:3", ("direct", "fourier")),
        ("torus_diag:3", ("direct", "fourier")),
    ],
)
def test_compare_legs_follow_the_spec(tmp_path, name, legs):
    spec, _ = _source(name, tmp_path)
    assert hw.compare_legs(hw.Problem(spec, 1, 0)) == legs


def test_compare_legs_are_the_compare_documents_engines(capsys):
    for preset, legs in (("cayley_s3", ["direct"]), ("cycle:6", ["direct", "fourier"])):
        argv = ["compare", "--preset", preset, "--from", "1", "--to", "0", "--horizon", "5", "--trials", "20"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["engines"] == legs


@pytest.mark.parametrize("name", ["cycle:6", "cayley_s3", "PETERSEN"])
def test_nodes_are_checked_with_the_command_lines_messages(capsys, tmp_path, name):
    spec, source = _source(name, tmp_path)
    last = (10 if name == "PETERSEN" else 6) - 1
    for start, target, message in (
        (last + 1, 0, f"node {last + 1} out of range 0..{last}"),
        (0, last + 1, f"node {last + 1} out of range 0..{last}"),
        (-1, 0, f"node -1 out of range 0..{last}"),
        (2, 2, "--from must differ from --to"),
        (None, last + 1, f"node {last + 1} out of range 0..{last}"),
    ):
        with pytest.raises(InvalidParameterError) as caught:
            hw.Problem(spec, start, target)
        assert str(caught.value) == message
        argv = ["moments", *source, "--to", str(target)] + ([] if start is None else ["--from", str(start)])
        assert main(argv) == 2
        assert capsys.readouterr().err == f"hitwalk: invalid input: {message}\n"
    # the first and last nodes are in range
    hw.Problem(spec, 0, last)
    hw.Problem(spec, last, 0)
    hw.Problem(spec, None, last)


def test_starts_are_every_node_but_the_target():
    assert hw.Problem(hw.parse_preset("cycle:5"), None, 2).starts == [0, 1, 3, 4]
    assert hw.Problem(hw.parse_preset("cycle:5"), 4, 2).starts == [4]


def test_parse_preset_is_the_spec_of_its_text():
    assert hw.parse_preset("torus_std:5") == {"preset": "torus_std", "params": [5]}
    assert hw.parse_preset("preset:bipartite:2:3") == {"preset": "bipartite", "params": [2, 3]}
    assert hw.parse_preset("cayley_d8") == {"preset": "cayley_d8", "params": []}
    with pytest.raises(InvalidParameterError, match="^non-integer preset parameter in 'cycle:x'$"):
        hw.parse_preset("cycle:x")



def test_direct_refuses_a_table_past_any_array_by_name():
    # the document's table holds n and P(tau = n) in each of horizon rows:
    # 2 * horizon entries; one horizon less is sized by numpy and refused
    # by the allocation of its column
    limit = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize
    problem = hw.Problem(hw.parse_preset("cycle:5"), 1, 0)
    horizon = limit // 2 + 1
    with pytest.raises(InvalidParameterError, match=f"^pmf table too large: {2 * horizon} array entries"):
        hw.ENGINES["direct"](problem, horizon)
    with pytest.raises(MemoryError):
        hw.ENGINES["direct"](problem, horizon - 1)
