"""hitwalk command line: graph ingestion, engine dispatch, comparison.

Subcommands: pmf, moments, ctime, simulate, compare, gf.  Every output
document embeds the graph spec, its hash, the engine and all knobs
needed to re-run it bit-identically.  Exit codes: 0 success, 2 invalid
input, 3 violated engine hypothesis, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import abelian as fr
from . import hitting as ht
from . import montecarlo as mc
from . import spectral as sp
from .ctime import ct_evaluate
from .errors import (
    HitwalkError,
    HypothesisError,
    InvalidParameterError,
    NumericalError,
)
from .graphs import (
    Graph,
    PRESET_NAMES,
    canonical_graph_spec,
    load_graph_file,
    preset_graph,
    simple_walk_kernel,
)
from .linalg import IMAGINARY_DISCARD, SERIES_TAIL, SOLVE_RESIDUAL

_DEF_HORIZON = 200
_DEF_TRIALS = 10000
_DEF_SEED = 20240801

_ABELIAN_LAWS = {
    "cycle": fr.cycle_step_law,
    "complete": fr.complete_step_law,
    "hypercube": fr.hypercube_step_law,
    "torus_std": fr.torus_standard_step_law,
    "torus_diag": fr.torus_diagonal_step_law,
}


def _parse_preset(text: str) -> tuple[str, list[int]]:
    parts = text.split(":")
    if parts and parts[0] == "preset":
        parts = parts[1:]
    if not parts or parts[0] not in PRESET_NAMES:
        raise InvalidParameterError(
            f"unknown preset {text!r}; names: {', '.join(PRESET_NAMES)}"
        )
    name = parts[0]
    try:
        params = [int(p) for p in parts[1:]]
    except ValueError:
        raise InvalidParameterError(f"non-integer preset parameter in {text!r}") from None
    return name, params


def _resolve_graph(args) -> tuple[Graph, dict, str | None, list[int]]:
    """Graph plus its canonical spec; preset name/params when known."""
    if args.graph and args.preset:
        raise InvalidParameterError("give either --graph or --preset, not both")
    if args.graph:
        graph, spec = load_graph_file(args.graph)
        return graph, spec, None, []
    if args.preset:
        name, params = _parse_preset(args.preset)
        graph = preset_graph(name, params)
        return graph, {"preset": name, "params": params}, name, params
    raise InvalidParameterError("a graph is required: --graph FILE or --preset NAME:ARGS")


def _transitive_preset(graph: Graph, name: str | None) -> bool:
    """A regular preset, vertex-transitive by construction and so walk-regular.

    A regular graph file need not be walk-regular; ``auto`` and
    ``compare`` leave it to the direct engine.
    """
    return name is not None and graph.regular_degree() is not None


def _pick_engine(requested: str, graph: Graph, name: str | None) -> str:
    if requested == "auto":
        if name in _ABELIAN_LAWS:
            return "fourier"
        if _transitive_preset(graph, name):
            return "spectral"
        return "direct"
    if requested == "fourier" and name not in _ABELIAN_LAWS:
        raise HypothesisError(
            "fourier engine requires an abelian Cayley walk; applicable presets: "
            + ", ".join(sorted(_ABELIAN_LAWS))
        )
    return requested


# P(tau = n), n = 1..horizon, by each engine.

def _direct_series(system: ht.AbsorbingSystem, start: int, horizon: int) -> np.ndarray:
    return ht.pmf(system, horizon, stop_early=False).column(start)


def _fourier_series(structure, start: int, target: int, horizon: int) -> np.ndarray:
    group, law = structure
    displacement = group.sub(group.element(start), group.element(target))
    return fr.fourier_pmf(group, law, horizon).probs[:, group.index(displacement)]


def _spectral_series(graph: Graph, start: int, target: int, horizon: int) -> np.ndarray:
    return sp.gf_series(graph, start, target, horizon)[1:]


def _metadata(spec: dict, command: str, **extra) -> dict:
    canon = canonical_graph_spec(spec)
    meta = {
        "command": command,
        "graph": spec,
        "graph_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "tolerances": {
            "solve_residual": SOLVE_RESIDUAL,
            "series_tail": SERIES_TAIL,
            "imaginary_discard": IMAGINARY_DISCARD,
        },
    }
    meta.update(extra)
    return meta


def _require_nodes(graph: Graph, *nodes) -> None:
    for n in nodes:
        if n is None:
            raise InvalidParameterError("--from/--to node index required")
        if not 0 <= n < graph.node_count:
            raise InvalidParameterError(f"node {n} out of range 0..{graph.node_count - 1}")


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------

def _cmd_pmf(args) -> dict:
    graph, spec, name, params = _resolve_graph(args)
    _require_nodes(graph, args.start, args.target)
    if args.start == args.target:
        raise InvalidParameterError("--from must differ from --to")
    engine = _pick_engine(args.engine, graph, name)
    if engine == "direct":
        # the kernel is freed once Q and P1 are cut from it, before any step
        system = ht.make_absorbing(simple_walk_kernel(graph), args.target)
        series = _direct_series(system, args.start, args.horizon)
    elif engine == "fourier":
        structure = _ABELIAN_LAWS[name](*params)
        series = _fourier_series(structure, args.start, args.target, args.horizon)
    else:
        series = _spectral_series(graph, args.start, args.target, args.horizon)
    payload = {
        "table": {
            "columns": ["n", "probability"],
            "rows": [[n + 1, float(p)] for n, p in enumerate(series)],
        }
    }
    meta = _metadata(
        spec, "pmf",
        engine=engine, start=args.start, target=args.target, horizon=args.horizon,
    )
    return {"metadata": meta, "payload": payload}


def _cmd_moments(args) -> dict:
    graph, spec, _, _ = _resolve_graph(args)
    _require_nodes(graph, args.target)
    kernel = simple_walk_kernel(graph)
    report = ht.moments(ht.make_absorbing(kernel, args.target))
    rows = []
    if args.start is not None:
        _require_nodes(graph, args.start)
        if args.start == args.target:
            raise InvalidParameterError("--from must differ from --to")
        mean, second, variance = report.for_state(args.start)
        rows.append([args.start, mean, second, variance])
    else:
        for idx, node in enumerate(report.states):
            rows.append(
                [node, float(report.mean[idx]), float(report.second[idx]), float(report.variance[idx])]
            )
    payload = {"table": {"columns": ["start", "mean", "second_moment", "variance"], "rows": rows}}
    meta = _metadata(spec, "moments", start=args.start, target=args.target, engine="direct")
    return {"metadata": meta, "payload": payload}


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise InvalidParameterError("--t-grid must be 'a:b:steps'") from None
    if steps < 1 or hi < lo or lo < 0:
        raise InvalidParameterError("bad --t-grid range")
    return np.linspace(lo, hi, steps)


def _cmd_ctime(args) -> dict:
    graph, spec, _, _ = _resolve_graph(args)
    _require_nodes(graph, args.target)
    kernel = simple_walk_kernel(graph)
    system = ht.make_absorbing(kernel, args.target)
    times = _parse_grid(args.t_grid)
    ev = ct_evaluate(system, times, args.tol)
    columns = ["t"]
    starts = list(ev.states)
    if args.start is not None:
        _require_nodes(graph, args.start)
        if args.start == args.target:
            raise InvalidParameterError("--from must differ from --to")
        starts = [args.start]
    for s in starts:
        columns += [f"cdf_{s}", f"pdf_{s}"]
    rows = []
    for r, t in enumerate(ev.times):
        row = [float(t)]
        for s in starts:
            c = ev.states.index(s)
            row += [float(ev.cdf[r, c]), float(ev.pdf[r, c])]
        rows.append(row)
    payload = {
        "truncation": ev.truncation,
        "table": {"columns": columns, "rows": rows},
    }
    meta = _metadata(
        spec, "ctime",
        target=args.target, start=args.start, t_grid=args.t_grid, tol=args.tol, engine="uniformization",
    )
    return {"metadata": meta, "payload": payload}


def _cmd_simulate(args) -> dict:
    graph, spec, _, _ = _resolve_graph(args)
    _require_nodes(graph, args.start, args.target)
    kernel = simple_walk_kernel(graph)
    config = mc.SimConfig(trials=args.trials, master_seed=args.seed, step_cap=args.step_cap)
    summary = mc.simulate(kernel, args.start, args.target, config)
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
            "rows": [
                [n, int(c)] for n, c in enumerate(summary.empirical_pmf) if c > 0
            ],
        },
    }
    meta = _metadata(
        spec, "simulate",
        start=args.start, target=args.target, seed=args.seed,
        trials=args.trials, step_cap=args.step_cap,
    )
    return {"metadata": meta, "payload": payload}


def _cmd_compare(args) -> dict:
    graph, spec, name, params = _resolve_graph(args)
    _require_nodes(graph, args.start, args.target)
    if args.start == args.target:
        raise InvalidParameterError("--from must differ from --to")
    horizon = args.horizon
    # The spectral leg runs first, so that its dense walk powers are freed
    # before the kernel and Q that the rest of the comparison shares.
    spectral = None
    if _transitive_preset(graph, name):
        spectral = _spectral_series(graph, args.start, args.target, horizon)
    kernel = simple_walk_kernel(graph)
    system = ht.make_absorbing(kernel, args.target)
    structure = _ABELIAN_LAWS[name](*params) if name in _ABELIAN_LAWS else None
    series = {"direct": _direct_series(system, args.start, horizon)}
    if structure is not None:
        series["fourier"] = _fourier_series(structure, args.start, args.target, horizon)
    if spectral is not None:
        series["spectral"] = spectral
    engines = list(series)
    discrepancies = []
    for i, ea in enumerate(engines):
        for eb in engines[i + 1 :]:
            discrepancies.append(
                [ea, eb, float(np.max(np.abs(series[ea] - series[eb])))]
            )

    mean, second, variance = ht.moments(system).for_state(args.start)
    moment_section = {"direct": {"mean": mean, "second_moment": second, "variance": variance}}
    if structure is not None:
        group, law = structure
        displacement = group.sub(group.element(args.start), group.element(args.target))
        f_mean = fr.expected_hitting_abelian(group, law, displacement)
        f_q, f_var = fr.variance_abelian(group, law, displacement)
        moment_section["fourier"] = {"mean": f_mean, "second_moment": f_q, "variance": f_var}
        moment_section["max_mean_discrepancy"] = abs(mean - f_mean)
        moment_section["max_variance_discrepancy"] = abs(variance - f_var)

    config = mc.SimConfig(trials=args.trials, master_seed=args.seed, step_cap=args.step_cap)
    summary = mc.simulate(kernel, args.start, args.target, config)
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
    if name == "torus_diag":
        p = params[0]
        start_el = divmod(args.start, p)
        target_el = divmod(args.target, p)
        conv = fr.diag_torus_convolution_report(p, start_el, target_el, horizon, series["direct"])
        payload["diag_torus_convolution"] = {
            "diagonal_displacement": list(conv.diagonal_displacement),
            "convolution_series": [float(x) for x in conv.convolution],
            "direct_series": None if conv.direct is None else [float(x) for x in conv.direct],
            "max_abs_discrepancy": conv.max_abs_discrepancy,
            "notes": list(conv.notes),
        }
    meta = _metadata(
        spec, "compare",
        start=args.start, target=args.target, horizon=horizon,
        seed=args.seed, trials=args.trials, engine="all-applicable",
    )
    return {"metadata": meta, "payload": payload}


def _cmd_gf(args) -> dict:
    graph, spec, _, _ = _resolve_graph(args)
    _require_nodes(graph, args.start, args.target)
    if args.start == args.target:
        raise InvalidParameterError("--from must differ from --to")
    ratio = sp.rational_gf(graph, args.start, args.target, horizon=args.horizon)
    series = ratio.recursion[: args.horizon + 1]
    payload = {
        "numerator": [float(c) for c in ratio.numerator],
        "denominator": [float(c) for c in ratio.denominator],
        "table": {
            "columns": ["n", "coefficient"],
            "rows": [[n, float(c)] for n, c in enumerate(series)],
        },
    }
    meta = _metadata(
        spec, "gf",
        start=args.start, target=args.target, horizon=args.horizon, engine="spectral",
    )
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


def _emit(doc: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
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
    p.add_argument("--engine", choices=["auto", "direct", "fourier", "spectral"], default="auto")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
        _emit(doc, args.format, args.output)
    except HypothesisError as exc:
        print(f"hitwalk: hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"hitwalk: numerical failure: {exc}", file=sys.stderr)
        return 4
    except (InvalidParameterError, HitwalkError, OSError) as exc:
        print(f"hitwalk: invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
