"""Correctness checks on the files every benchmarked operation writes.

An operation fails when any check finds a problem: a wrong exit code, a
missing output, JSON that is not strict (``NaN``, ``Infinity``), a report or
manifest that does not validate against the package's shipped schema, a
result the paper's claims rule out, or report bytes that differ between
runs of the same operation within one benchmark invocation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import xml.etree.ElementTree as ET
from pathlib import Path


class StrictJSONError(ValueError):
    pass


def _reject_constant(name: str):
    raise StrictJSONError(f"non-standard JSON constant {name}")


def parse_strict(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def verify_passed(reports: dict, latest: dict) -> list[str]:
    if reports["report.json"].get("passed") is not True:
        return ["verify-theorem reported passed != true"]
    return []


def shortcut_collapses(reports: dict, latest: dict) -> list[str]:
    """The paper's collapse: accuracy on Rev below accuracy on Rand."""
    by_method = {s["method"]: s for s in reports["summary.json"]["summaries"]}
    problems = []
    for method in ("supervised", "contrastive"):
        s = by_method.get(method)
        if s is None:
            problems.append(f"no {method} summary")
        elif not s["rev_mean"] < s["rand_mean"]:
            problems.append(f"{method}: rev_mean {s['rev_mean']} >= rand_mean {s['rand_mean']}")
    return problems


def topk_monotone(reports: dict, latest: dict) -> list[str]:
    """Per-class top-5 accuracy is at least top-1 on the same log."""
    top1 = latest.get("eval_top1")
    if top1 is None:
        return ["no eval_top1 report to compare with"]
    base = {c["label"]: c for c in top1["report.json"]["per_class"]}
    problems = []
    for c in reports["report.json"]["per_class"]:
        b = base.get(c["label"])
        if b is None:
            problems.append(f"class {c['label']} missing from the top-1 report")
            continue
        for key in ("easy_accuracy", "hard_accuracy"):
            if c[key] is not None and b[key] is not None and c[key] < b[key]:
                problems.append(f"class {c['label']}: top-5 {key} {c[key]} < top-1 {b[key]}")
    return problems


def flags_classes(reports: dict, latest: dict) -> list[str]:
    """The generated log makes some classes background-dependent."""
    if not reports["report.json"]["flagged"]:
        return ["discover flagged no class"]
    return []


class Checker:
    """Checks operations' outputs; remembers digests across one invocation."""

    def __init__(self, load_schema, validate):
        self._load_schema = load_schema
        self._validate = validate
        self._schemas: dict[str, dict] = {}
        self.digests: dict[str, dict[str, str]] = {}
        self.latest: dict[str, dict] = {}

    def _schema(self, name: str) -> dict:
        if name not in self._schemas:
            self._schemas[name] = self._load_schema(name)
        return self._schemas[name]

    def check(self, op: str, exit_code, expected_code: int, out_dir: Path,
              outputs: dict[str, str | None], semantic=None) -> list[str]:
        """Problems found in one run of `op`.

        outputs maps each file name under out_dir to its schema name; a
        ``.manifest.json`` file is the run manifest and is not digested,
        because it carries a timestamp.
        """
        if exit_code != expected_code:
            return [f"exit code {exit_code}, expected {expected_code}"]
        problems: list[str] = []
        reports: dict[str, object] = {}
        digests: dict[str, str] = {}
        for name, schema in outputs.items():
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{name} was not written")
                continue
            data = path.read_bytes()
            try:
                text = data.decode("utf-8")
                if name.endswith(".json"):
                    payload = parse_strict(text)
                    if schema is not None:
                        self._validate(payload, self._schema(schema))
                    reports[name] = payload
                elif name.endswith(".csv"):
                    rows = list(csv.reader(io.StringIO(text)))
                    if len(rows) < 2:
                        problems.append(f"{name} has no data rows")
                elif name.endswith(".svg"):
                    ET.fromstring(text)
            except Exception as exc:  # any parse or schema error fails the run
                problems.append(f"{name}: {type(exc).__name__}: {exc}".splitlines()[0])
                continue
            if not name.endswith(".manifest.json"):
                digests[name] = hashlib.sha256(data).hexdigest()
        if problems:
            return problems
        first = self.digests.setdefault(op, digests)
        for name, digest in digests.items():
            if first.get(name) != digest:
                problems.append(f"{name} bytes differ from this operation's first run")
        if semantic is not None:
            try:
                problems += semantic(reports, self.latest)
            except (KeyError, TypeError) as exc:
                problems.append(f"unexpected report layout: {type(exc).__name__}: {exc}")
        self.latest[op] = reports
        return problems
