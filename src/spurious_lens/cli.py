"""Command-line entry point.

Every subcommand writes machine-readable output files plus one run manifest
(<out stem>.manifest.json) recording the subcommand, a digest of all inputs,
the seed, the toolkit version and the produced paths.  The manifest is the
only place a timestamp appears, so report files from identical invocations
are byte-identical.  Human-readable notes go to stderr only.

Each ``cmd_*`` computes and returns its outputs; :func:`_run` serializes all
of them as strict JSON (or text) before it opens any file, so a failing run
leaves no output behind.

Exit codes: 0 success, 1 completed-but-failed verification, 2 input error,
3 numerical failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .alignment import (
    MC_STREAM,
    alignment_gap,
    empirical_minimizer,
    latent_alignment_target,
    population_alignment_target,
    subgroup_accuracy,
)
from .discrete import DiscreteConfig, run_discrete_experiment
from .errors import (
    ConfigError,
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NonconvergenceError,
    ParseError,
    ShapeError,
)
from .evaluation import (
    confusing_labels,
    discover_spurious,
    effective_robustness_fit,
    fmt_pct,
    group_report,
    load_points,
    load_predictions,
    load_similarities,
)
from .inputs import load_config, read_text
from .svgplot import render_fit_svg
from .synthetic import TRAIN_STREAM, GenerativeConfig, training_moments
from .theory import format_report_table, verify_theorem

_INPUT_ERRORS = (ParseError, ConfigError, InsufficientDataError, ShapeError, OSError)
_NUMERIC_ERRORS = (NonconvergenceError, DomainError, DegenerateFitError,
                   ArithmeticError, np.linalg.LinAlgError, RuntimeWarning)

# Arguments naming input files, digested by content as <name>_sha256.
_INPUT_FILES = ("predictions", "similarities", "points")


class _Outcome(NamedTuple):
    """What a subcommand produced: (path, JSON payload or text) pairs."""

    outputs: list[tuple[str, object]]
    seed: int = 0
    exit_code: int = 0


def _json_data(value):
    """``value`` as JSON data: a dataclass becomes an object of its fields,
    a named tuple an object, any other tuple or list an array, recursively."""
    if dataclasses.is_dataclass(value):
        return {f.name: _json_data(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _json_data(item) for name, item in zip(value._fields, value)}
    if isinstance(value, dict):
        return {key: _json_data(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json_data(item) for item in value]
    return value


def _serialize(path: str, payload) -> bytes:
    if isinstance(payload, str):
        return payload.encode("utf-8")
    try:
        text = json.dumps(_json_data(payload), indent=2, sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"{path}: not writable as strict JSON ({exc})") from None
    return (text + "\n").encode("utf-8")


def _digest(params: dict) -> str:
    canonical = json.dumps(_json_data(params), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run(args) -> int:
    """Decode inputs, run the subcommand, then write its outputs and manifest.

    The digest covers every argument but the output paths, with the config
    as decoded and each input file by its SHA-256.
    """
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "config_type", "out", "svg")}
    inputs = [params[k] for k in ("config", *_INPUT_FILES) if k in params]
    if "config" in params:
        args.config = load_config(args.config_type, read_text(params["config"]))
        params["config"] = args.config
    for name in _INPUT_FILES:
        if name in params:
            digest = hashlib.sha256(Path(params.pop(name)).read_bytes()).hexdigest()
            params[f"{name}_sha256"] = digest

    # numpy reports an overflow or invalid value as a RuntimeWarning and goes
    # on with inf or nan; the filter is process-wide, so it also covers the
    # chunk map's worker threads
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcome = args.func(args)
    manifest_path = str(Path(args.out).with_suffix(".manifest.json"))
    files = [(path, _serialize(path, payload)) for path, payload in outcome.outputs]
    files.append((manifest_path, _serialize(manifest_path, {
        "subcommand": args.subcommand,
        "config_digest": _digest(params),
        "seed": outcome.seed,
        "version": __version__,
        "outputs": [path for path, _ in outcome.outputs],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })))
    seen = {Path(p).resolve(): f"input {p}" for p in inputs}
    for path, _ in files:
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ConfigError(f"output {path} would overwrite {seen[resolved]}")
        seen[resolved] = f"output {path}"
    written = []
    try:
        for path, data in files:
            Path(path).write_bytes(data)
            written.append(path)
    except OSError:
        for path in written:
            Path(path).unlink()
        raise
    return outcome.exit_code


def cmd_verify_theorem(args) -> _Outcome:
    report = verify_theorem(args.config, args.mc, args.seed, args.tol)
    print(format_report_table(args.config, report), file=sys.stderr)
    return _Outcome([(args.out, {
        "config": args.config,
        "seed": args.seed,
        "mc_stream": MC_STREAM,
        "train_stream": TRAIN_STREAM,
        **_json_data(report),
    })], args.seed, 0 if report.passed else 1)


def cmd_simulate_gaussian(args) -> _Outcome:
    config = args.config
    train = training_moments(config, args.seed)
    matrix = empirical_minimizer(train, config.rho)
    dicts = (train.dict_image, train.dict_text)
    alignment = {
        "target_gap": alignment_gap(matrix, config, *dicts),
        "population_gap": alignment_gap(
            matrix, config, *dicts, target=population_alignment_target),
        "latent_target": latent_alignment_target(config).tolist(),
        "population_target": population_alignment_target(config).tolist(),
    }
    report = subgroup_accuracy(matrix, config, *dicts, args.seed, config.n)
    print(f"acc_overall {fmt_pct(report.acc_overall)}%", file=sys.stderr)
    return _Outcome([(args.out, {
        **_json_data(report),
        "alignment": alignment,
        "mc_stream": MC_STREAM,
        "train_stream": TRAIN_STREAM,
        "n_train": config.n,
        "n_test": config.n,
        "config": config,
        "seed": args.seed,
    })], args.seed)


def _pct_cell(mean: float, std: float) -> str:
    return f"{fmt_pct(mean)} ± {fmt_pct(std)}"


def cmd_simulate_discrete(args) -> _Outcome:
    config = args.config
    summaries, per_seed = run_discrete_experiment(config, args.seeds)
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["k", "n", "p_inv", "p_spu", "method", "rand", "rev", "rest"])
    for s in summaries:
        rest = ("n/a" if s.rest_mean is None
                else _pct_cell(s.rest_mean, s.rest_std))
        writer.writerow([
            config.num_classes, config.n_train, config.p_inv, config.p_spu,
            s.method,
            _pct_cell(s.rand_mean, s.rand_std),
            _pct_cell(s.rev_mean, s.rev_std),
            rest,
        ])
    return _Outcome([
        (args.out, table.getvalue()),
        (str(Path(args.out).with_suffix(".json")), {
            "config": config,
            "n_seeds": args.seeds,
            "summaries": summaries,
            "per_seed": per_seed,
        }),
    ], config.seed)


def cmd_eval(args) -> _Outcome:
    report = group_report(load_predictions(args.predictions), args.topk)
    print(
        f"balanced easy {fmt_pct(report.balanced_easy)}%  "
        f"hard {fmt_pct(report.balanced_hard)}%  "
        f"drop {fmt_pct(report.balanced_drop)} pp",
        file=sys.stderr,
    )
    return _Outcome([(args.out, report)])


def cmd_discover(args) -> _Outcome:
    split = discover_spurious(load_predictions(args.predictions),
                              args.threshold, args.min_count)
    print(
        f"flagged {len(split.flagged)} classes, "
        f"skipped {len(split.skipped)}",
        file=sys.stderr,
    )
    return _Outcome([(args.out, split)])


def cmd_confuse(args) -> _Outcome:
    table = load_similarities(args.similarities)
    top = confusing_labels(table, args.k)
    means = {name: float(score)
             for name, score in zip(table.candidates, table.scores.mean(axis=0))}
    return _Outcome([(args.out, {
        "k": args.k,
        "labels": top,
        "mean_scores": means,
        "n_samples": len(table.sample_ids),
    })])


def cmd_fit(args) -> _Outcome:
    points = load_points(args.points)
    fit = effective_robustness_fit(points, args.transform)
    svg_path = args.svg or str(Path(args.out).with_suffix(".svg"))
    print(
        f"{fit.transform.value} fit: slope {fit.slope:.4f} "
        f"intercept {fit.intercept:.4f}",
        file=sys.stderr,
    )
    return _Outcome([
        (args.out, {
            **_json_data(fit),
            "n_points": len(points),
            "points": points,
        }),
        (svg_path, render_fit_svg(points, fit)),
    ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spurious-lens",
        description="Simulation and evaluation toolkit for spurious-feature "
                    "reliance in contrastive image-text models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify-theorem",
                       help="compare closed-form subgroup bounds to Monte-Carlo")
    p.add_argument("--config", required=True, help="GenerativeConfig JSON")
    p.add_argument("--mc", type=int, default=100_000, help="Monte-Carlo samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_verify_theorem, config_type=GenerativeConfig)

    p = sub.add_parser("simulate-gaussian",
                       help="train the closed-form alignment and report "
                            "subgroup accuracy on an OOD testset")
    p.add_argument("--config", required=True, help="GenerativeConfig JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_simulate_gaussian, config_type=GenerativeConfig)

    p = sub.add_parser("simulate-discrete",
                       help="run the discrete shortcut experiment for both "
                            "training methods")
    p.add_argument("--config", required=True, help="DiscreteConfig JSON")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_simulate_discrete, config_type=DiscreteConfig)

    p = sub.add_parser("eval", help="easy/hard metrics from a prediction log")
    p.add_argument("--predictions", required=True, help="prediction CSV")
    p.add_argument("--topk", type=int, default=1)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("discover",
                       help="flag classes whose accuracy varies across "
                            "backgrounds and split them easy/hard")
    p.add_argument("--predictions", required=True, help="prediction CSV")
    p.add_argument("--threshold", type=float, default=5.0,
                   help="gap threshold in percentage points (strict)")
    p.add_argument("--min-count", type=int, default=20, dest="min_count",
                   help="minimum records per background")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("confuse",
                       help="rank candidate labels by mean similarity")
    p.add_argument("--similarities", required=True, help="similarity CSV")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_confuse)

    p = sub.add_parser("fit",
                       help="least-squares hard-vs-easy accuracy trend "
                            "plus an SVG scatter")
    p.add_argument("--points", required=True, help="accuracy-pairs CSV")
    p.add_argument("--transform", choices=["linear", "probit"], default="linear")
    p.add_argument("--svg", default=None, help="SVG path (default: out stem .svg)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
