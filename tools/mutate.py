"""Mutation check of named functions of hitwalk against the tier-1 tests.

Each mutant flips one arithmetic or bitwise operator, one comparison or one
numeric constant inside one of the named functions, and the tier-1 suite
runs against it with ``-x -q`` in a scratch copy of the repository.  A
mutant that the suite passes survives; each survivor is either a gap in
the tests or an equivalent mutant, and deserves a test or a reason.

    python tools/mutate.py --functions montecarlo._stride_ranks \\
        montecarlo._simulate_trials graphs._mix64_in_place --count 20 --seed 1

Names are ``module.function`` or ``module.Class.method`` under
``src/hitwalk``.  Sites are sampled without replacement by ``--seed``.
The copy goes in a temporary directory (``TMPDIR`` moves it), removed at
the end, and a mutant whose suite runs past ``TIMEOUT_SECONDS`` counts
as killed.  Only the stdlib ``ast`` module is used.  Every mutant runs
the whole suite, so this is a tool to run by hand on the functions a
change touches, not a CI step.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "hitwalk"
TIMEOUT_SECONDS = 600
OPERATORS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitXor: ast.BitOr, ast.BitOr: ast.BitXor, ast.BitAnd: ast.BitOr,
}
COMPARISONS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}


def _function(tree: ast.Module, path: list[str]) -> ast.FunctionDef:
    scope = tree
    for name in path:
        scope = next(node for node in scope.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
    return scope


def _sites(function: ast.FunctionDef) -> list[tuple[ast.AST, int | None]]:
    """(node, operand index) of every mutable site; the index picks one
    operator of a chained comparison."""
    sites = []
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
            sites.append((node, None))
        elif isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in COMPARISONS]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
              and not isinstance(node.value, bool)):
            sites.append((node, None))
    return sites


def _mutate(node: ast.AST, index: int | None) -> str:
    """Flip the site in place and describe the flip."""
    if isinstance(node, ast.Compare):
        old = node.ops[index]
        node.ops[index] = COMPARISONS[type(old)]()
        return f"{type(old).__name__} -> {type(node.ops[index]).__name__}"
    if isinstance(node, ast.Constant):
        old = node.value
        node.value = old + 1 if isinstance(old, int) else (old * 1.001 if old else 1e-300)
        return f"{old!r} -> {node.value!r}"
    old = node.op
    node.op = OPERATORS[type(old)]()
    return f"{type(old).__name__} -> {type(node.op).__name__}"


def _run(copy: Path) -> tuple[str, float]:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    begin = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_SECONDS,
        ).returncode
        outcome = "survived" if code == 0 else "killed"
    except subprocess.TimeoutExpired:
        outcome = "killed (timeout)"
    return outcome, time.perf_counter() - begin


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--functions", nargs="+", required=True, help="module.function names")
    parser.add_argument("--count", type=int, default=20, help="mutants to run")
    parser.add_argument("--seed", type=int, default=0, help="seed of the site sample")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        return _check(Path(scratch) / "repo", args.functions, args.count, args.seed)


def _check(copy: Path, functions: list[str], count: int, seed: int) -> int:
    """Run ``count`` mutants of ``functions`` in ``copy``, a new copy of
    the repository; 2 when the unmutated copy already fails."""
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
    sites = []
    for name in functions:
        module, *path = name.split(".")
        tree = ast.parse((copy / PACKAGE / f"{module}.py").read_text())
        sites += [(module, path, i) for i in range(len(_sites(_function(tree, path))))]
    chosen = random.Random(seed).sample(sites, min(count, len(sites)))
    print(f"{len(chosen)} of {len(sites)} sites in {', '.join(functions)}")
    outcome, seconds = _run(copy)
    if outcome != "survived":
        print(f"the unmutated copy fails its tests ({seconds:.0f} s); no mutant is run")
        return 2
    survivors = 0
    for module, path, i in chosen:
        source = (copy / PACKAGE / f"{module}.py").read_text()
        tree = ast.parse(source)
        node, index = _sites(_function(tree, path))[i]
        where = f"{module}.{'.'.join(path)} line {node.lineno}: {ast.get_source_segment(source, node)}"
        flip = _mutate(node, index)
        (copy / PACKAGE / f"{module}.py").write_text(ast.unparse(tree))
        outcome, seconds = _run(copy)
        (copy / PACKAGE / f"{module}.py").write_text(source)
        survivors += outcome == "survived"
        print(f"{outcome:16s} {seconds:5.0f} s  {where}  [{flip}]", flush=True)
    print(f"{survivors} of {len(chosen)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
