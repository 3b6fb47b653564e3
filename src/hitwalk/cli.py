"""hitwalk command line: argument parsing, documents and their emission.

Subcommands: pmf, moments, ctime, simulate, compare, gf.  Each builds one
``hitwalk.problem.Problem`` from the graph spec and the (start, target)
pair its options name, and reads from it what its document needs.
``pmf``, ``compare`` and ``gf`` take their series from ``ENGINES``,
``compare`` its legs from ``compare_legs``, and ``gf`` forms its
rational pair from the ``direct`` series.

``--engine auto`` is ``direct``: the absorbing chain forms P(tau = n)
from sums and products of non-negative numbers only, so every term keeps
its relative accuracy however small it is.  ``--engine spectral`` is
``direct`` too: dividing the walk powers (B^k)_ij by the target's returns
(B^k)_jj gives back the absorbing chain's series by the renewal identity,
so the paper's trace recursion serves ``gf`` alone.  The fourier engine
sums signed terms, so its error is absolute; it runs when named, and as
the second leg of ``compare`` on abelian presets.

Every output document embeds the graph spec, its hash, the engine and
all knobs needed to re-run it bit-identically.  A JSON document is
exactly the bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` plus
a newline.  Exit codes: 0 success, 2 invalid input, 3 violated engine
hypothesis, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import abelian as fr
from . import hitting as ht
from . import montecarlo as mc
from . import spectral as sp
from .ctime import ct_evaluate
from .errors import HitwalkError, HypothesisError, InvalidParameterError, NumericalError
from .graphs import _read_spec, _require_array_size, canonical_graph_spec
from .linalg import SOLVE_RESIDUAL
from .problem import ENGINES, Problem, compare_legs, parse_preset

_DEF_HORIZON = 200
_DEF_TRIALS = 10000
_DEF_SEED = 20240801


def _problem(args) -> Problem:
    """The problem the options name."""
    if args.graph and args.preset:
        raise InvalidParameterError("give either --graph or --preset, not both")
    if args.graph:
        spec = _read_spec(args.graph)
    elif args.preset:
        spec = parse_preset(args.preset)
    else:
        raise InvalidParameterError("a graph is required: --graph FILE or --preset NAME:ARGS")
    return Problem(spec, args.start, args.target)


# --engine values that name another engine's series
_ALIASES = {"auto": "direct", "spectral": "direct"}


def _metadata(problem: Problem, command: str, **extra) -> dict:
    meta = {
        "command": command,
        "graph": problem.spec,
        "graph_hash": hashlib.sha256(canonical_graph_spec(problem.spec).encode()).hexdigest(),
        "start": problem.start,
        "target": problem.target,
        "tolerances": {"solve_residual": SOLVE_RESIDUAL},
    }
    meta.update(extra)
    return meta


def _simulate(problem: Problem, args) -> mc.SampleSummary:
    config = mc.SimConfig(trials=args.trials, master_seed=args.seed, step_cap=args.step_cap)
    return mc.simulate(problem.kernel, problem.start, problem.target, config)


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------

def _cmd_pmf(args) -> dict:
    problem = _problem(args)
    if args.horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    engine = _ALIASES.get(args.engine, args.engine)
    series = ENGINES[engine](problem, args.horizon)
    payload = {
        "table": {
            "columns": ["n", "probability"],
            "rows": [[n, p] for n, p in enumerate(series.tolist(), 1)],
        }
    }
    meta = _metadata(problem, "pmf", engine=engine, horizon=args.horizon)
    return {"metadata": meta, "payload": payload}


def _cmd_moments(args) -> dict:
    problem = _problem(args)
    starts = problem.starts
    system, rows = problem.lumped
    report = ht.moments(system)
    table = np.stack([report.mean, report.second, report.variance], axis=1)[rows[starts]]
    payload = {
        "table": {
            "columns": ["start", "mean", "second_moment", "variance"],
            "rows": [[s, *values] for s, values in zip(starts, table.tolist())],
        }
    }
    return {"metadata": _metadata(problem, "moments", engine="direct"), "payload": payload}


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise InvalidParameterError("--t-grid must be 'a:b:steps'") from None
    if steps < 1 or not 0 <= lo <= hi < np.inf:
        raise InvalidParameterError("bad --t-grid range")
    _require_array_size(steps, "--t-grid")
    return np.linspace(lo, hi, steps)


def _cmd_ctime(args) -> dict:
    problem = _problem(args)
    starts = problem.starts
    system, rows = problem.lumped
    # recombine each reported class once, whichever starts share it
    reported, column = np.unique(rows[starts], return_inverse=True)
    ev = ct_evaluate(system, _parse_grid(args.t_grid), args.tol, reported)
    columns = ["t"]
    for s in starts:
        columns += [f"cdf_{s}", f"pdf_{s}"]
    # cdf and pdf columns interleaved, one pair per start
    values = np.stack([ev.cdf[:, column], ev.pdf[:, column]], axis=2)
    table = np.column_stack([ev.times, values.reshape(len(ev.times), -1)])
    payload = {
        "truncation": ev.truncation,
        "table": {"columns": columns, "rows": table.tolist()},
    }
    meta = _metadata(problem, "ctime", t_grid=args.t_grid, tol=args.tol, engine="uniformization")
    return {"metadata": meta, "payload": payload}


def _cmd_simulate(args) -> dict:
    problem = _problem(args)
    summary = _simulate(problem, args)
    counts = summary.empirical_pmf
    steps = np.flatnonzero(counts)
    payload = {
        "mean": summary.mean,
        "variance": summary.variance,
        "min": summary.min,
        "max": summary.max,
        "capped_count": summary.capped_count,
        "cap_warning": summary.cap_warning,
        "completed": summary.completed,
        "table": {
            "columns": ["n", "count"],
            "rows": [[n, c] for n, c in zip(steps.tolist(), counts[steps].tolist())],
        },
    }
    meta = _metadata(problem, "simulate", seed=args.seed, trials=args.trials, step_cap=args.step_cap)
    return {"metadata": meta, "payload": payload}


def _cmd_compare(args) -> dict:
    problem = _problem(args)
    horizon = args.horizon
    engines = list(compare_legs(problem))
    series = {engine: ENGINES[engine](problem, horizon) for engine in engines}
    discrepancies = [
        [ea, eb, float(np.max(np.abs(series[ea] - series[eb])))]
        for ea, eb in itertools.combinations(engines, 2)
    ]

    system, rows = problem.lumped
    report = ht.moments(system)
    row = rows[problem.start]
    mean, second, variance = (float(x[row]) for x in (report.mean, report.second, report.variance))
    moment_section = {"direct": {"mean": mean, "second_moment": second, "variance": variance}}
    if problem.abelian is not None:
        group, law, displacement = problem.abelian
        f_mean = fr.expected_hitting_abelian(group, law, displacement)
        f_q, f_var = fr.variance_abelian(group, law, displacement)
        moment_section["fourier"] = {"mean": f_mean, "second_moment": f_q, "variance": f_var}
        moment_section["max_mean_discrepancy"] = abs(mean - f_mean)
        moment_section["max_variance_discrepancy"] = abs(variance - f_var)

    summary = _simulate(problem, args)
    # The trials of a capped run that complete follow the law of tau given
    # tau <= cap, so testing their mean against the exact one says nothing.
    std_err = z = None
    if not summary.capped_count:
        std_err = float(np.sqrt(variance / summary.completed))
        z = (summary.mean - mean) / std_err if std_err > 0 else 0.0
    mc_section = {
        "trials": args.trials,
        "seed": args.seed,
        "mean": summary.mean,
        "variance": summary.variance,
        "capped_count": summary.capped_count,
        "cap_warning": summary.cap_warning,
        "exact_mean": mean,
        "exact_variance": variance,
        "mean_standard_error": std_err,
        "mean_z": z,
    }

    payload = {
        "engines": engines,
        "table": {"columns": ["engine_a", "engine_b", "max_abs_discrepancy"], "rows": discrepancies},
        "moments": moment_section,
        "montecarlo": mc_section,
    }
    if problem.preset == "torus_diag":
        p = problem.params[0]
        conv = fr.diag_torus_convolution_report(
            p, divmod(problem.start, p), divmod(problem.target, p), horizon, series["direct"]
        )
        payload["diag_torus_convolution"] = {
            "diagonal_displacement": list(conv.diagonal_displacement),
            "convolution_series": [float(x) for x in conv.convolution],
            "direct_series": None if conv.direct is None else [float(x) for x in conv.direct],
            "max_abs_discrepancy": conv.max_abs_discrepancy,
            "notes": list(conv.notes),
        }
    meta = _metadata(
        problem, "compare",
        horizon=horizon, seed=args.seed, trials=args.trials, step_cap=args.step_cap,
        engine="all-applicable",
    )
    return {"metadata": meta, "payload": payload}


def _cmd_gf(args) -> dict:
    problem = _problem(args)
    if args.horizon < 0:
        raise InvalidParameterError("need horizon >= 0")
    graph = problem.graph  # a graph too large to build is refused before its series
    # P(tau = n) from n = 0: the direct table, through degree 2V at least
    series = np.append(0.0, ENGINES["direct"](problem, max(2 * graph.node_count, args.horizon)))
    ratio = sp.rational_gf(graph, series)
    payload = {
        "numerator": ratio.numerator.tolist(),
        "denominator": ratio.denominator.tolist(),
        "table": {
            "columns": ["n", "coefficient"],
            "rows": [[n, c] for n, c in enumerate(series[: args.horizon + 1].tolist())],
        },
    }
    meta = _metadata(problem, "gf", horizon=args.horizon, engine="spectral")
    return {"metadata": meta, "payload": payload}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _emit_csv(doc: dict) -> str:
    lines = []
    meta = doc["metadata"]
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        lines.append(f"# {key}={value}")
    payload = doc["payload"]
    for key in sorted(payload):
        if key == "table":
            continue
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        lines.append(f"# {key}={value}")
    table = payload.get("table")
    if table:
        lines.append(",".join(table["columns"]))
        for row in table["rows"]:
            lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_chunks(value, out: list, newline: str = "\n") -> list:
    """Append to ``out`` the text of ``json.dumps(value, indent=2,
    sort_keys=True)``, byte for byte, for a document whose keys are
    strings, and return ``out``; ``newline`` is the line break and indent
    of the line ``value`` starts on.

    The stdlib writes indented JSON with its pure-Python encoder.  Here
    each list goes through the C encoder first: when its text holds no
    string, every ``, `` and bracket in it is structure, so a flat list,
    or a table of flat rows, is re-indented from that text by a few
    replaces.  Dicts, and lists with strings or deeper nesting, recurse.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            out.append(("," if i else "{") + inner + _json_str(key) + ": ")
            _json_chunks(value[key], out, inner)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        text = json.dumps(value)
        if '"' not in text:
            body = text[1:-1]
            opens = body.count("[")
            if opens == body.count("[]"):  # items are numbers, constants, [] and {}
                out += "[" + inner, body.replace(", ", "," + inner), newline + "]"
                return out
            # rows of such items: the first and last bracket open and close
            # the rows, and every other one is in a "], [" between two rows
            if opens == body.count("], [") + 1 and body[0] == "[" and body[-1] == "]" and "[]" not in body:
                row = inner + "  "
                rows = body[1:-1].replace(", ", "," + row)
                rows = rows.replace("]," + row + "[", inner + "]," + inner + "[" + row)
                out += "[" + inner + "[" + row, rows, inner + "]" + newline + "]"
                return out
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _json_chunks(item, out, inner)
        out.append(newline + "]")
    else:  # scalars, {} and []
        out.append(json.dumps(value))
    return out


def _emit(doc: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = "".join(_json_chunks(doc, []) + ["\n"])
    else:
        text = _emit_csv(doc)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="JSON graph-spec file")
    p.add_argument("--preset", help="preset NAME:ARGS, e.g. cycle:10 or torus_diag:3")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", help="write the document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hitwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="hitting-time distribution for one pair")
    _add_graph_options(p)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.add_argument("--horizon", type=int, default=_DEF_HORIZON)
    p.add_argument("--engine", choices=["auto", "direct", "fourier", "spectral"], default="direct",
                   help="auto and spectral are direct")
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("moments", help="mean, second moment and variance")
    _add_graph_options(p)
    p.add_argument("--from", dest="start", type=int)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("ctime", help="continuous-time CDF/PDF on a grid")
    _add_graph_options(p)
    p.add_argument("--from", dest="start", type=int)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.add_argument("--t-grid", dest="t_grid", required=True, help="a:b:steps")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_ctime)

    p = sub.add_parser("simulate", help="seeded Monte Carlo experiment")
    _add_graph_options(p)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.add_argument("--trials", type=int, default=_DEF_TRIALS)
    p.add_argument("--seed", type=int, default=_DEF_SEED)
    p.add_argument("--step-cap", dest="step_cap", type=int, default=10**7)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="every applicable engine plus Monte Carlo")
    _add_graph_options(p)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.add_argument("--horizon", type=int, default=_DEF_HORIZON)
    p.add_argument("--trials", type=int, default=_DEF_TRIALS)
    p.add_argument("--seed", type=int, default=_DEF_SEED)
    p.add_argument("--step-cap", dest="step_cap", type=int, default=10**7)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gf", help="rational generating function and series")
    _add_graph_options(p)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.add_argument("--horizon", type=int, default=30)
    p.set_defaults(func=_cmd_gf)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves no state in it,
    and each subcommand reads the module's functions when it runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = args.func(args)
        _emit(doc, args.format, args.output)
    except HypothesisError as exc:
        print(f"hitwalk: hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"hitwalk: numerical failure: {exc}", file=sys.stderr)
        return 4
    # MemoryError: a horizon, trial count or node count too large to allocate
    except (HitwalkError, OSError, MemoryError) as exc:
        print(f"hitwalk: invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
