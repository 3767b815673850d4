"""The names the benchmark's tracer and reference checks use must exist.

``bench/tracing.py`` wraps calcheck functions by module attribute; a rename
would otherwise surface only as an AttributeError in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import calcheck.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for layer, attr, _counter, _measure, kind in load_tracing().LAYERS:
        mod_name, fn_name = attr.split(".")
        fn = getattr(importlib.import_module(f"calcheck.{mod_name}"), fn_name, None)
        assert callable(fn), f"{layer}: calcheck.{attr} is missing"
        assert inspect.isgeneratorfunction(fn) == (kind == "gen"), attr


def test_benchmark_entry_points_exist():
    for name in ("main", "parse_records", "write_records"):
        assert callable(getattr(calcheck.cli, name, None)), name
    # called positionally, as bench/reference.py calls them
    inspect.signature(calcheck.cli.parse_records).bind("records.jsonl", "gaussian")
    inspect.signature(calcheck.cli.write_records).bind([], "copy.jsonl")
