"""The benchmark's per-layer timings name functions that exist.

A traced benchmark run times each public function of a layer module under
the span name ``<layer>.<function>``.  A metric whose function was moved or
deleted reads 0 on working code, so every ``<op>.<layer>.<fn>_s`` or
``_self_s`` metric in BENCHMARK.json must resolve to a public function
defined in ``spurious_lens.<layer>``.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SPAN_METRIC = re.compile(r"[a-z0-9_]+\.([a-z]+)\.([a-z0-9_]+?)(?:_self)?_s")
# deleted with the streamed Gaussian test pass; the benchmark still lists it
KNOWN_STALE = {"synthetic.ood_dataset"}


def test_per_layer_span_names_resolve():
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    checked, unresolved = set(), set()
    for metric in metrics:
        match = SPAN_METRIC.fullmatch(metric["name"])
        if match is None:
            continue
        layer, name = match.groups()
        module = importlib.import_module(f"spurious_lens.{layer}")
        value = getattr(module, name, None)
        checked.add(f"{layer}.{name}")
        if (name.startswith("_") or not inspect.isfunction(value)
                or value.__module__ != module.__name__):
            unresolved.add(f"{layer}.{name}")
    assert "discrete.evaluate_splits" in checked
    assert unresolved <= KNOWN_STALE
