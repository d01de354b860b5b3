"""Tests of the benchmark's own code: python3 -m pytest benchmarks"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jsonschema
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
from checks import Checker, parse_strict, StrictJSONError  # noqa: E402
from spans import Tracer, layer_metrics, self_time, union_length  # noqa: E402
from spurious_lens import load_schema  # noqa: E402


def digests(workload: str, seed: int, out: Path) -> dict[str, str]:
    return {role: gen.sha256_file(p)
            for role, p in gen.generate(workload, seed, ROOT, out).items()}


@pytest.mark.parametrize("workload", ["gauss", "discrete", "evallog"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = digests(workload, 7, tmp_path / "a")
    assert digests(workload, 7, tmp_path / "b") == first
    if workload != "gauss":  # gauss passes its seed on the command line
        assert digests(workload, 8, tmp_path / "c") != first


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (2, 6), (8, 9)]) == 6
    assert union_length([(1, 4), (2, 6), (8, 9)], lo=3, hi=8.5) == 3.5
    assert union_length([]) == 0


def test_self_time_with_children_overlapping_across_threads():
    parent = {"start": 0.0, "end": 10.0}
    children = [
        {"start": 1.0, "end": 4.0, "thread": 2},
        {"start": 2.0, "end": 6.0, "thread": 3},  # overlaps the first
        {"start": 8.0, "end": 9.0, "thread": 1},
        {"start": 9.5, "end": 12.0, "thread": 2},  # outlives the parent
    ]
    assert self_time(parent, children) == pytest.approx(10 - 5 - 1 - 0.5)


def test_worker_thread_spans_take_the_waiting_span_as_parent():
    tracer = Tracer("op")
    chunk = tracer.wrap("synthetic.sample_batch", lambda size: size)

    def verify():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(chunk, [3, 4, 5]))

    verify = tracer.wrap("theory.verify_theorem", verify)
    main = tracer.wrap("cli.main", verify)
    assert main() == 12
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (root,) = by_name["cli.main"]
    (outer,) = by_name["theory.verify_theorem"]
    assert outer["parent"] == root["id"]
    assert {s["parent"] for s in by_name["synthetic.sample_batch"]} == {outer["id"]}
    assert all(s["thread"] != threading.get_ident() for s in by_name["synthetic.sample_batch"])

    metrics = layer_metrics(tracer.spans, root["end"] - root["start"])
    assert metrics["synthetic.sample_batch_calls"] == 3
    assert metrics["synthetic.samples_drawn"] == 12
    assert metrics["theory.verify_theorem_self_s"] >= 0
    assert metrics["unattributed_s"] == pytest.approx(
        (root["end"] - root["start"]) - (outer["end"] - outer["start"]))


def test_strict_json_rejects_nan_and_infinity():
    with pytest.raises(StrictJSONError):
        parse_strict('{"intercept": NaN}')
    with pytest.raises(StrictJSONError):
        parse_strict('{"slope": -Infinity}')
    assert parse_strict('{"slope": 1.5}') == {"slope": 1.5}


def test_checker_flags_a_fit_report_containing_nan(tmp_path):
    """`fit` on a NaN accuracy writes a NaN intercept; the checker fails it."""
    from spurious_lens import cli

    points = tmp_path / "points.csv"
    points.write_text("easy,hard\n0.6,0.4\n0.8,nan\n0.7,0.5\n", encoding="utf-8")
    code = cli.main(["fit", "--points", str(points), "--out", str(tmp_path / "report.json")])
    checker = Checker(load_schema, jsonschema.validate)
    problems = checker.check("fit", code, 0, tmp_path,
                             {"report.json": "fit_report", "report.manifest.json": "run_manifest"})
    assert problems


def test_checker_flags_report_bytes_that_change_between_runs(tmp_path):
    checker = Checker(load_schema, jsonschema.validate)
    outputs = {"summary.csv": None}
    (tmp_path / "summary.csv").write_text("k,n\n5,3000\n", encoding="utf-8")
    assert checker.check("simulate_discrete", 0, 0, tmp_path, outputs) == []
    (tmp_path / "summary.csv").write_text("k,n\n5,3001\n", encoding="utf-8")
    assert checker.check("simulate_discrete", 0, 0, tmp_path, outputs)
    assert checker.check("simulate_discrete", 1, 0, tmp_path, outputs) == [
        "exit code 1, expected 0"]


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
