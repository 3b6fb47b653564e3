"""The traced benchmark run measures per-layer metrics on named hitwalk
functions; a refactor that renames, hides or moves one of them makes
``bench/run.py --trace 1`` fail.  This keeps the names in step."""
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from spans import LAYERS, metric_source  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
SOURCES = sorted({s for s in map(metric_source, PER_LAYER) if s is not None})


def test_benchmark_names_metric_sources():
    assert SOURCES


@pytest.mark.parametrize("source", SOURCES)
def test_metric_source_is_a_public_function_of_its_module(source):
    layer, attr = source.split(".")
    mod = importlib.import_module(f"hitwalk.{layer}")
    # the same rule bench/spans.instrument uses to pick what it wraps
    public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    assert attr in public
    obj = getattr(mod, attr)
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # spans.instrument skips a name it cannot find, so a stale __all__
    # entry would silently lose its span; a star import raises on one
    namespace = {}
    exec(f"from hitwalk.{layer} import *", namespace)
    mod = importlib.import_module(f"hitwalk.{layer}")
    assert set(getattr(mod, "__all__", ())) <= set(namespace)


def test_character_basis_cache_is_observable():
    from hitwalk import abelian

    assert callable(abelian._cached_basis.cache_info)
