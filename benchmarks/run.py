"""Benchmark of the spurious-lens command line, end to end and per layer.

    python3 benchmarks/run.py --workload gauss --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Workloads: gauss, discrete, evallog, or
all three in turn.  Each CLI operation runs in a fresh child interpreter,
one at a time (a closed loop with one client).  Rounds of the workload's
operations repeat until --seconds is spent; every operation's outputs are
checked (checks.py).  --trace 0 reports the end-to-end metrics, with the
times rescaled to reference machine speed (CAL_REF_S below), --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
(spans.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record of the run,
with the environment, input and report digests and every per-operation
number, goes to .bench_work/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (Checker, flags_classes, shortcut_collapses,  # noqa: E402
                    topk_monotone, verify_passed)
from spans import layer_metrics  # noqa: E402

CHILD = HERE / "child.py"
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 90
# A run stops starting rounds past this, whatever --seconds says.
RUN_DEADLINE_S = 150


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  argv placeholders: {out} (the op's output
    directory), {seed} and the input roles gen.generate returns."""

    name: str
    argv: tuple[str, ...]
    outputs: dict[str, str | None]
    semantic: object = None
    repeats: int = 1
    per_layer: tuple[str, ...] = ()


def _report(schema: str) -> dict[str, str | None]:
    return {"report.json": schema, "report.manifest.json": "run_manifest"}


_MC = ("synthetic.sample_batch_s", "synthetic.sample_batch_calls",
       "synthetic.samples_drawn", "alignment.zero_shot_predict_batch_s",
       "theory.verify_theorem_self_s", "theory.workers", "theory.mc_busy_ratio")
_LOG = ("evaluation.load_predictions_s", "evaluation.rows_parsed")

WORKLOADS: dict[str, tuple[Op, ...]] = {
    # The only workload that drives synthetic, alignment and theory.  The
    # Monte-Carlo path streams sample chunks across threads and drops them;
    # simulate_gaussian keeps n x d arrays, so peak RSS shows a sampler
    # change that trades one use for the other.
    "gauss": (
        Op("verify_exact",
           ("verify-theorem", "--config", "{theorem_exact}", "--mc", "1000000",
            "--seed", "3", "--out", "{out}/report.json"),
           _report("verification_report"), verify_passed, per_layer=_MC),
        Op("verify_def1",
           ("verify-theorem", "--config", "{def1_lemma}", "--mc", "1000000",
            "--seed", "3", "--out", "{out}/report.json"),
           _report("verification_report"), verify_passed,
           per_layer=_MC + ("synthetic.sample_dataset_s", "alignment.empirical_minimizer_s")),
        Op("simulate_gaussian",
           ("simulate-gaussian", "--config", "{def1_large}", "--seed", "{seed}",
            "--out", "{out}/report.json"),
           _report("subgroup_report"),
           per_layer=("synthetic.sample_dataset_s", "synthetic.ood_dataset_s",
                      "alignment.empirical_minimizer_s", "alignment.subgroup_accuracy_s")),
    ),
    # All time goes to many small numpy calls in the discrete trainer; no
    # other module works.  Mechanism workload for batching the trainer,
    # bypass workload for everything else.  k = 5 runs the `rest` column.
    "discrete": (
        Op("simulate_discrete",
           ("simulate-discrete", "--config", "{discrete_k5}", "--seeds", "5",
            "--out", "{out}/summary.csv"),
           {"summary.csv": None, "summary.json": "discrete_summary",
            "summary.manifest.json": "run_manifest"},
           shortcut_collapses,
           per_layer=("discrete.sample_discrete_dataset_s", "discrete.train_supervised_s",
                      "discrete.train_contrastive_perfect_s", "discrete.evaluate_splits_s",
                      "discrete.training_runs")),
    ),
    # eval is dominated by group_report's rows x classes scan; discover on
    # the same log is bound by CSV parsing; confuse and fit parse other
    # files.  A columnar evaluation core should move eval_top* only.
    "evallog": (
        Op("eval_top1",
           ("eval", "--predictions", "{predictions}", "--topk", "1",
            "--out", "{out}/report.json"),
           _report("eval_report"), per_layer=_LOG + ("evaluation.group_report_s",)),
        Op("eval_top5",
           ("eval", "--predictions", "{predictions}", "--topk", "5",
            "--out", "{out}/report.json"),
           _report("eval_report"), topk_monotone,
           per_layer=_LOG + ("evaluation.group_report_s",)),
        Op("discover",
           ("discover", "--predictions", "{predictions}", "--threshold", "25",
            "--min-count", "20", "--out", "{out}/report.json"),
           _report("discovery_report"), flags_classes,
           per_layer=_LOG + ("evaluation.discover_spurious_s",)),
        Op("confuse",
           ("confuse", "--similarities", "{similarities}", "--k", "20",
            "--out", "{out}/report.json"),
           _report("confusing_labels"),
           per_layer=("evaluation.load_similarities_s", "evaluation.confusing_labels_s")),
        # A few milliseconds of work: repeated so its median is steady.
        Op("fit",
           ("fit", "--points", "{points}", "--transform", "probit",
            "--out", "{out}/report.json"),
           {"report.json": "fit_report", "report.svg": None,
            "report.manifest.json": "run_manifest"},
           repeats=5,
           per_layer=("evaluation.load_points_s", "evaluation.effective_robustness_fit_s",
                      "svgplot.render_fit_svg_s")),
    ),
}

# Reported by every operation of the traced run.
PER_OP_LAYER = ("cli.main_self_s", "unattributed_s", "trace_overhead_s", "peak_rss_mb")

# End-to-end metrics every workload reports, whatever operations it runs:
# the median time from a fresh interpreter to spurious_lens.cli imported;
# the sum of the operations' median wall times; the largest per-operation
# median peak RSS.  Both times are given at reference machine speed.
END_TO_END = ("setup_s", "ops_total_s", "peak_rss_mb")

# On a shared 2-vCPU virtual machine (Xeon, 2.1 GHz) all code runs up to
# ~1.6x slower for seconds to minutes at a time, so raw wall times of whole
# runs spread by 15-30%.  A fixed kernel (calibration_s) timed before every
# operation measures the machine's speed; the gated times are rescaled by
# the run's median kernel time to a machine on which the kernel takes
# CAL_REF_S (that VM's typical speed).  Wall times are reported next to them.
CAL_REF_S = 0.075


def per_layer_names() -> list[str]:
    """Every per-layer metric, in a fixed order, over all workloads."""
    names = []
    for ops in WORKLOADS.values():
        for op in ops:
            names += [f"{op.name}.{m}" for m in op.per_layer + PER_OP_LAYER]
    return names


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Sample:
    op: str
    traced: bool
    problems: list[str]
    op_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    calibration_s: float | None = None
    round: int = 0
    spans: list = field(default_factory=list)


def calibration_s() -> float:
    """Time of a fixed mix of interpreter-bound and numpy work that does not
    depend on the program: list, dict and sort work, a normal draw and a
    matrix product."""
    import numpy as np
    t0 = time.perf_counter()
    rows = [(f"c{i % 200:03d}", i % 7, float(i)) for i in range(20_000)]
    counts: dict[str, int] = {}
    for label, k, _ in rows:
        counts[label] = counts.get(label, 0) + (k < 3)
    rows.sort(key=lambda r: (r[1], r[0]))
    rng = np.random.default_rng(0)
    (rng.standard_normal((40_000, 16)) @ rng.standard_normal((16, 128))).sum()
    return time.perf_counter() - t0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env() -> dict[str, str]:
    """Caps the program's threads at nproc: Monte-Carlo workers = nproc,
    one BLAS thread each."""
    return {"SPURIOUS_LENS_THREADS": str(nproc()), "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy
    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": nproc(),
        "threads": thread_env(),
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root / "src" / "spurious_lens"),
    }


class Runner:
    """Runs one workload's operations in child interpreters and checks them."""

    def __init__(self, root: Path, run_dir: Path, inputs: dict[str, str],
                 seed: int, checker: Checker):
        self.root = root
        self.run_dir = run_dir
        self.inputs = inputs
        self.seed = seed
        self.checker = checker
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def spawn(self, name: str, argv: list[str], traced: bool):
        """Run child.py; return (result dict or None, problem or None)."""
        result_path = self.run_dir / f"{name}.result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(result_path), "1" if traced else "0",
               str(self.root / "src"), "--", *argv]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result_path.is_file():
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return None, f"child exited {proc.returncode}: {tail}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["imported_at"] - spawned
        if result["error"]:
            return result, result["error"].strip().splitlines()[-1]
        return result, None

    def run(self, op: Op, traced: bool) -> Sample:
        out_dir = self.run_dir / "out" / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = [a.format(out=out_dir, seed=self.seed, **self.inputs) for a in op.argv]
        calibration = calibration_s()
        result, problem = self.spawn(op.name, argv, traced)
        sample = Sample(op=op.name, traced=traced, problems=[problem] if problem else [],
                        calibration_s=calibration)
        if result is None:
            return sample
        sample.op_s = result["op_s"]
        sample.setup_s = result["setup_s"]
        sample.peak_rss_mb = result["peak_rss_mb"]
        sample.spans = result.get("spans", [])
        if not problem:
            sample.problems = self.checker.check(op.name, result["exit_code"], 0,
                                                 out_dir, op.outputs, op.semantic)
        return sample


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def op_table(samples: list[Sample], key: str) -> dict:
    values = [getattr(s, key) for s in samples if getattr(s, key) is not None]
    if not values:
        return {"n": 0, "median": None}
    q1, q3 = quartiles(values)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(ops: tuple[Op, ...], samples: list[Sample], trace: bool) -> tuple[dict, dict]:
    """(metrics as name -> (value, unit, n), per-operation detail)."""
    detail: dict[str, dict] = {}
    op_medians: dict[str, float] = {}
    rss: list[float] = []
    per_layer: dict[str, tuple[float, str, int]] = {}
    for op in ops:
        mine = [s for s in samples if s.op == op.name]
        plain = [s for s in mine if not s.traced]
        traced = [s for s in mine if s.traced and s.op_s is not None]
        wall = op_table(plain, "op_s")
        if wall["median"] is None:
            raise RuntimeError(f"{op.name}: no run produced a timing; "
                               f"{[p for s in mine for p in s.problems][:3]}")
        op_medians[op.name] = wall["median"]
        peak = op_table(plain, "peak_rss_mb")
        rss.append(peak["median"])
        problems: dict[str, int] = {}
        for s in mine:
            for p in s.problems:
                problems[p] = problems.get(p, 0) + 1
        detail[op.name] = {"op_s": wall, "peak_rss_mb": peak,
                           "setup_s": op_table(mine, "setup_s"),
                           "attempted": len(mine),
                           "failed": sum(1 for s in mine if s.problems),
                           "problems": problems}
        if trace and traced:
            layers = [layer_metrics(s.spans, s.op_s) for s in traced]
            keys = sorted({k for m in layers for k in m})
            medians = {k: statistics.median(m.get(k, 0) for m in layers) for k in keys}
            medians["trace_overhead_s"] = (statistics.median(s.op_s for s in traced)
                                           - wall["median"])
            medians["peak_rss_mb"] = peak["median"]
            detail[op.name]["layers"] = medians
            for m in op.per_layer + PER_OP_LAYER:
                per_layer[f"{op.name}.{m}"] = (medians.get(m, 0), unit_of(m), len(traced))

    n_plain = sum(1 for s in samples if not s.traced and s.op_s is not None)
    attempted = len(samples)
    failed = sum(1 for s in samples if s.problems)
    metrics = {f"{op.name}_s": (op_medians[op.name], "s", detail[op.name]["op_s"]["n"])
               for op in ops}
    setup = op_table(samples, "setup_s")
    calibration = op_table(samples, "calibration_s")
    to_ref = CAL_REF_S / calibration["median"]
    ops_total = sum(op_medians.values())
    metrics.update({
        "calibration_s": (calibration["median"], "s", calibration["n"]),
        "setup_wall_s": (setup["median"], "s", setup["n"]),
        "ops_total_wall_s": (ops_total, "s", n_plain),
        "setup_s": (setup["median"] * to_ref, "s", setup["n"]),
        "ops_total_s": (ops_total * to_ref, "s", n_plain),
        "peak_rss_mb": (max(rss), "MB", n_plain),
        "failed_ratio": (failed / attempted, "ratio", attempted),
    })
    if trace:
        for name in per_layer_names():
            metrics[name] = per_layer.get(name, (0, unit_of(name), 0))
    return metrics, {"ops": detail, "attempted": attempted, "failed": failed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path, work: Path) -> tuple[dict, dict]:
    import gen
    import jsonschema
    from spurious_lens import load_schema

    ops = WORKLOADS[workload]
    run_dir = work / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    samples: list[Sample] = []
    try:
        t0 = time.perf_counter()
        inputs = gen.generate(workload, seed, root, run_dir / "in")
        gen_s = time.perf_counter() - t0
        input_sha256 = {role: gen.sha256_file(path) for role, path in inputs.items()}
        checker = Checker(load_schema, jsonschema.validate)
        runner = Runner(root, run_dir, {k: str(v) for k, v in inputs.items()}, seed, checker)
        # Warms the page cache and the bytecode for the imports; not measured.
        runner.spawn("warmup", ["--version"], False)

        rounds = 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            traced = trace and rounds % 2 == 1
            for op in ops:
                for _ in range(op.repeats):
                    sample = runner.run(op, traced)
                    sample.round = rounds
                    samples.append(sample)
            rounds += 1
            now = time.perf_counter()
            elapsed, last = now - start, now - round_start
            # Stop when the next round would end more than half a round late.
            if rounds >= MIN_ROUNDS and elapsed + last / 2 > seconds:
                break
            if elapsed + last > RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, detail = summarize(ops, samples, trace)
    detail.update({
        "workload": workload, "seed": seed, "trace": int(trace), "rounds": rounds,
        "measured_s": elapsed, "inputs_s": gen_s, "inputs_sha256": input_sha256,
        "reports_sha256": checker.digests,
        "samples": [{"op": x.op, "round": x.round, "traced": x.traced, "op_s": x.op_s,
                     "setup_s": x.setup_s, "calibration_s": x.calibration_s}
                    for x in samples],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
    })
    return metrics, detail


def print_table(detail: dict, env: dict) -> None:
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"# workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"rounds {detail['rounds']}  measured {detail['measured_s']:.1f} s  "
          f"inputs {detail['inputs_s']:.2f} s")
    print(f"# python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"nproc {env['nproc']}  {threads}  git {env['git_revision']}")
    for name, digest in detail["inputs_sha256"].items():
        print(f"# input {name} sha256 {digest}")
    for op, files in detail["reports_sha256"].items():
        for name, digest in files.items():
            print(f"# report {op}/{name} sha256 {digest}")
    for op, d in detail["ops"].items():
        for problem, count in d["problems"].items():
            print(f"# FAILED {op} x{count}: {problem}")
    print(f"{'metric':<58} {'value':>14}  {'unit':<6} n")
    for name, m in detail["metrics"].items():
        if m["n"] == 0:
            continue
        print(f"{name:<58} {m['value']:>14.6g}  {m['unit']:<6} {m['n']}")


def result_line(metrics: dict, names, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    })


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    missing = [p for p in (src / "spurious_lens" / "cli.py", root / "configs")
               if not p.exists()]
    if missing:
        print(f"not a spurious-lens checkout: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    try:
        import jsonschema  # noqa: F401
    except ImportError:
        print("the output checks need jsonschema", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.update(thread_env())

    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    env = environment(root)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    names = per_layer_names() if args.trace else list(END_TO_END)
    combined: dict = {}
    attempted = failed = 0
    for workload in workloads:
        try:
            metrics, detail = run_workload(workload, args.seed, args.seconds,
                                           bool(args.trace), root, work)
        except RuntimeError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        detail["env"] = env
        (work / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(detail, indent=1), encoding="utf-8")
        print_table(detail, env)
        attempted += detail["attempted"]
        failed += detail["failed"]
        if args.workload == "all":  # each workload's own metrics, prefixed
            combined.update({f"{workload}.{n}": metrics[n] for n in names
                             if metrics[n][2] > 0})
        else:
            combined = metrics
    print(result_line(combined, list(combined) if args.workload == "all" else names,
                      attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
