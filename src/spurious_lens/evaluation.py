"""Metrics and selection procedures over external models' prediction logs.

Everything here is pure aggregation: prediction logs, similarity tables and
accuracy points are ingested from CSV, never produced.  Accuracies are kept
as fractions in [0, 1] internally and in JSON; percentage rendering is a
formatting concern (:func:`fmt_pct`).
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    ParseError,
)
from .inputs import read_text
from .theory import std_normal_inv_cdf


class Group(str, enum.Enum):
    EASY = "easy"
    HARD = "hard"
    UNASSIGNED = "unassigned"


class Transform(str, enum.Enum):
    LINEAR = "linear"
    PROBIT = "probit"


def fmt_pct(fraction: float) -> str:
    """Render a fraction as a percentage with two decimals, e.g. '97.62'."""
    return f"{100.0 * fraction:.2f}"


@dataclass(frozen=True)
class PredictionRecord:
    sample_id: str
    true_label: str
    group: Group
    background: str
    ranked_predictions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "group", Group(self.group))
        object.__setattr__(self, "ranked_predictions", tuple(self.ranked_predictions))
        if not self.ranked_predictions:
            raise ConfigError("ranked_predictions must be nonempty")
        if len(set(self.ranked_predictions)) != len(self.ranked_predictions):
            raise ConfigError("ranked_predictions must be duplicate-free")


_PRED_FIXED = ("sample_id", "true_label", "group", "background")


def _read_csv(path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(read_text(path), newline="")))


def load_predictions(path) -> list[PredictionRecord]:
    """Parse a prediction log; malformed rows are rejected by line number.

    Expected header: sample_id,true_label,group,background,pred_1,...,pred_K.
    A row may rank fewer than K labels by leaving trailing cells empty;
    pred_1 itself must never be empty.
    """
    rows = _read_csv(path)
    if not rows:
        raise ParseError("prediction file is empty")
    header = rows[0]
    if tuple(header[: len(_PRED_FIXED)]) != _PRED_FIXED:
        raise ParseError(
            f"header must start with {','.join(_PRED_FIXED)}, got {','.join(header)}",
            lines=(1,),
        )
    pred_cols = header[len(_PRED_FIXED):]
    expected = [f"pred_{i}" for i in range(1, len(pred_cols) + 1)]
    if not pred_cols or pred_cols != expected:
        raise ParseError(
            f"prediction columns must be pred_1..pred_K in order, got {pred_cols}",
            lines=(1,),
        )
    records = []
    seen: dict[str, int] = {}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) > len(header):
            raise ParseError(f"line {line}: more cells than header columns", lines=(line,))
        row = row + [""] * (len(header) - len(row))
        sample_id, true_label, group, background = row[:4]
        if not sample_id:
            raise ParseError(f"line {line}: empty sample_id", lines=(line,))
        if sample_id in seen:
            raise ParseError(
                f"duplicate sample_id {sample_id!r} at lines {seen[sample_id]} and {line}",
                lines=(seen[sample_id], line),
            )
        seen[sample_id] = line
        if not true_label:
            raise ParseError(f"line {line}: empty true_label", lines=(line,))
        try:
            group_value = Group(group)
        except ValueError:
            raise ParseError(
                f"line {line}: group must be easy/hard/unassigned, got {group!r}",
                lines=(line,),
            ) from None
        preds = row[4:]
        if not preds[0]:
            raise ParseError(f"line {line}: empty pred_1", lines=(line,))
        ranked: list[str] = []
        blank_seen = False
        for cell in preds:
            if cell == "":
                blank_seen = True
            elif blank_seen:
                raise ParseError(
                    f"line {line}: ranked predictions have a gap", lines=(line,)
                )
            else:
                ranked.append(cell)
        if len(set(ranked)) != len(ranked):
            raise ParseError(
                f"line {line}: duplicate labels in ranked predictions", lines=(line,)
            )
        records.append(PredictionRecord(
            sample_id=sample_id,
            true_label=true_label,
            group=group_value,
            background=background,
            ranked_predictions=tuple(ranked),
        ))
    return records


def _hit(record: PredictionRecord, k: int) -> bool:
    return record.true_label in record.ranked_predictions[:k]


def class_accuracy(records, label: str, k: int) -> float | None:
    """Top-k accuracy among records of one class; None if the class is absent."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    mine = [r for r in records if r.true_label == label]
    if not mine:
        return None
    return sum(_hit(r, k) for r in mine) / len(mine)


def plain_accuracy(records, k: int) -> float:
    """Top-k hit rate over all records regardless of class."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    records = list(records)
    if not records:
        raise InsufficientDataError("no records to score")
    return sum(_hit(r, k) for r in records) / len(records)


def balanced_accuracy(records, k: int) -> float:
    """Unweighted mean of per-class top-k accuracies."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    records = list(records)
    if not records:
        raise InsufficientDataError("no records to score")
    labels = sorted({r.true_label for r in records})
    return sum(class_accuracy(records, label, k) for label in labels) / len(labels)


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    easy_accuracy: float | None
    hard_accuracy: float | None
    drop: float | None
    n_easy: int
    n_hard: int

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "easy_accuracy": self.easy_accuracy,
            "hard_accuracy": self.hard_accuracy,
            "drop": self.drop,
            "n_easy": self.n_easy,
            "n_hard": self.n_hard,
        }


@dataclass(frozen=True)
class EvalReport:
    """Per-class and dataset-level easy/hard comparison at one k.

    balanced_drop subtracts balanced accuracies computed over the classes
    present in both groups; one-sided classes keep their own accuracy but
    contribute no drop.
    """

    k: int
    per_class: tuple[ClassMetrics, ...]
    balanced_easy: float
    balanced_hard: float
    balanced_drop: float
    plain_easy: float
    plain_hard: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "per_class": [m.to_json_dict() for m in self.per_class],
            "balanced_easy": self.balanced_easy,
            "balanced_hard": self.balanced_hard,
            "balanced_drop": self.balanced_drop,
            "plain_easy": self.plain_easy,
            "plain_hard": self.plain_hard,
        }


def group_report(records, k: int) -> EvalReport:
    """Easy-vs-hard metrics; every record must already carry a group."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    records = list(records)
    if not records:
        raise InsufficientDataError("no records to score")
    if any(r.group is Group.UNASSIGNED for r in records):
        raise ConfigError("group_report needs every record assigned easy or hard")
    easy = [r for r in records if r.group is Group.EASY]
    hard = [r for r in records if r.group is Group.HARD]
    if not easy or not hard:
        raise InsufficientDataError("both easy and hard groups must be nonempty")
    labels = sorted({r.true_label for r in records})
    per_class = []
    common_drops = []
    for label in labels:
        e = class_accuracy(easy, label, k)
        h = class_accuracy(hard, label, k)
        drop = e - h if e is not None and h is not None else None
        if drop is not None:
            common_drops.append(drop)
        per_class.append(ClassMetrics(
            label=label,
            easy_accuracy=e,
            hard_accuracy=h,
            drop=drop,
            n_easy=sum(r.true_label == label for r in easy),
            n_hard=sum(r.true_label == label for r in hard),
        ))
    if not common_drops:
        raise InsufficientDataError("no class appears in both groups")
    return EvalReport(
        k=k,
        per_class=tuple(per_class),
        balanced_easy=balanced_accuracy(easy, k),
        balanced_hard=balanced_accuracy(hard, k),
        balanced_drop=sum(common_drops) / len(common_drops),
        plain_easy=plain_accuracy(easy, k),
        plain_hard=plain_accuracy(hard, k),
    )


@dataclass(frozen=True)
class BackgroundStat:
    name: str
    accuracy: float
    count: int


@dataclass(frozen=True)
class ClassSplit:
    label: str
    easy_background: str
    hard_background: str
    backgrounds: tuple[BackgroundStat, ...]
    gap_pp: float

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "easy_background": self.easy_background,
            "hard_background": self.hard_background,
            "backgrounds": [
                {"name": b.name, "accuracy": b.accuracy, "count": b.count}
                for b in self.backgrounds
            ],
            "gap_pp": self.gap_pp,
        }


@dataclass(frozen=True)
class GroupSplit:
    """Outcome of the per-class background split selection."""

    threshold_pp: float
    min_count: int
    k: int
    flagged: tuple[ClassSplit, ...]
    unflagged: tuple[str, ...]
    skipped: tuple[tuple[str, str], ...]

    def to_json_dict(self) -> dict:
        return {
            "threshold_pp": self.threshold_pp,
            "min_count": self.min_count,
            "k": self.k,
            "flagged": [c.to_json_dict() for c in self.flagged],
            "unflagged": list(self.unflagged),
            "skipped": [{"label": label, "notice": notice} for label, notice in self.skipped],
        }


def discover_spurious(records, threshold_pp: float, min_count: int = 20,
                      k: int = 1) -> GroupSplit:
    """Flag classes whose accuracy varies across backgrounds by more than
    threshold_pp percentage points (strictly), assigning easy and hard.

    Only backgrounds with at least min_count records of the class qualify;
    a class with fewer than two qualifying backgrounds is skipped with a
    notice.  Ties break toward the lexicographically smaller name.
    """
    if threshold_pp <= 0:
        raise ConfigError(f"threshold_pp must be > 0, got {threshold_pp}")
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    by_class: dict[str, dict[str, list[PredictionRecord]]] = {}
    for r in records:
        by_class.setdefault(r.true_label, {}).setdefault(r.background, []).append(r)
    flagged = []
    unflagged = []
    skipped = []
    for label in sorted(by_class):
        stats = []
        hits: dict[str, int] = {}
        for name in sorted(by_class[label]):
            group = by_class[label][name]
            if len(group) < min_count:
                continue
            hits[name] = sum(_hit(r, k) for r in group)
            stats.append(BackgroundStat(
                name=name, accuracy=hits[name] / len(group), count=len(group)
            ))
        if len(stats) < 2:
            skipped.append((
                label,
                f"fewer than 2 backgrounds with >= {min_count} records",
            ))
            continue
        easy = min(stats, key=lambda b: (-b.accuracy, b.name))
        hard = min(stats, key=lambda b: (b.accuracy, b.name))
        # integer cross-multiplication keeps representable gaps exact, so a
        # gap of exactly threshold_pp never flags
        gap_pp = 100.0 * (hits[easy.name] * hard.count
                          - hits[hard.name] * easy.count) / (easy.count * hard.count)
        if gap_pp > threshold_pp:
            flagged.append(ClassSplit(
                label=label,
                easy_background=easy.name,
                hard_background=hard.name,
                backgrounds=tuple(stats),
                gap_pp=gap_pp,
            ))
        else:
            unflagged.append(label)
    return GroupSplit(
        threshold_pp=threshold_pp,
        min_count=min_count,
        k=k,
        flagged=tuple(flagged),
        unflagged=tuple(unflagged),
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class SimilarityTable:
    """Per-sample scores of one class's images against candidate labels."""

    candidates: tuple[str, ...]
    sample_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", s)
        if s.ndim != 2 or s.shape != (len(self.sample_ids), len(self.candidates)):
            raise ConfigError(
                f"scores shape {s.shape} does not match "
                f"{len(self.sample_ids)} samples x {len(self.candidates)} candidates"
            )


def load_similarities(path) -> SimilarityTable:
    """Parse a similarity CSV: header sample_id,<cand_1>,...,<cand_C>."""
    rows = _read_csv(path)
    if not rows:
        raise ParseError("similarity file is empty")
    header = rows[0]
    if len(header) < 2 or header[0] != "sample_id":
        raise ParseError(
            "header must be sample_id,<candidate_1>,...,<candidate_C>", lines=(1,)
        )
    candidates = tuple(header[1:])
    if len(set(candidates)) != len(candidates):
        raise ParseError("duplicate candidate labels in header", lines=(1,))
    ids = []
    seen: dict[str, int] = {}
    scores = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"line {line}: expected {len(header)} cells, got {len(row)}",
                lines=(line,),
            )
        sample_id = row[0]
        if not sample_id:
            raise ParseError(f"line {line}: empty sample_id", lines=(line,))
        if sample_id in seen:
            raise ParseError(
                f"duplicate sample_id {sample_id!r} at lines {seen[sample_id]} and {line}",
                lines=(seen[sample_id], line),
            )
        seen[sample_id] = line
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise ParseError(f"line {line}: non-numeric score", lines=(line,)) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"line {line}: non-finite score", lines=(line,))
        scores.append(values)
        ids.append(sample_id)
    if not ids:
        raise ParseError("similarity file has no data rows")
    return SimilarityTable(
        candidates=candidates, sample_ids=tuple(ids), scores=np.array(scores)
    )


def confusing_labels(similarities: SimilarityTable, k: int = 20) -> list[str]:
    """Top-k candidate labels by mean score over all samples, descending.

    Easy and hard samples are pooled with equal per-sample weight; ties
    break lexicographically.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > len(similarities.candidates):
        raise ConfigError(
            f"k = {k} exceeds the {len(similarities.candidates)} candidates"
        )
    means = similarities.scores.mean(axis=0)
    order = sorted(
        zip(similarities.candidates, means), key=lambda item: (-item[1], item[0])
    )
    return [name for name, _ in order[:k]]


@dataclass(frozen=True)
class Point:
    name: str | None
    easy: float
    hard: float


def load_points(path) -> list[Point]:
    """Parse accuracy pairs: header easy,hard with an optional name column.

    Accuracies are fractions; a value that is not finite or lies outside
    [0, 1] is rejected with its line.
    """
    rows = _read_csv(path)
    if not rows:
        raise ParseError("points file is empty")
    header = rows[0]
    if header == ["easy", "hard"]:
        named = False
    elif header == ["name", "easy", "hard"]:
        named = True
    else:
        raise ParseError(
            "header must be easy,hard or name,easy,hard", lines=(1,)
        )
    points = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"line {line}: expected {len(header)} cells, got {len(row)}",
                lines=(line,),
            )
        name = row[0] if named else None
        try:
            easy, hard = float(row[-2]), float(row[-1])
        except ValueError:
            raise ParseError(f"line {line}: non-numeric accuracy", lines=(line,)) from None
        if not (0.0 <= easy <= 1.0 and 0.0 <= hard <= 1.0):
            raise ParseError(
                f"line {line}: accuracies must be fractions in [0, 1], got {easy}, {hard}",
                lines=(line,),
            )
        points.append(Point(name=name, easy=easy, hard=hard))
    if not points:
        raise ParseError("points file has no data rows")
    return points


@dataclass(frozen=True)
class FitLine:
    slope: float
    intercept: float
    transform: Transform
    residual_rms: float

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "transform": self.transform.value,
            "residual_rms": self.residual_rms,
        }


def transform_coordinates(points, transform: Transform | str):
    """(x, y) arrays of easy/hard values, probit-mapped when requested."""
    transform = Transform(transform)
    pairs = [(p.easy, p.hard) if isinstance(p, Point) else (p[0], p[1]) for p in points]
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    if transform is Transform.PROBIT:
        for v in np.concatenate([x, y]):
            if not 0.0 < v < 1.0:
                raise DomainError(
                    f"probit transform needs accuracies strictly inside (0, 1), got {v}"
                )
        x = np.array([std_normal_inv_cdf(v) for v in x])
        y = np.array([std_normal_inv_cdf(v) for v in y])
    return x, y


def effective_robustness_fit(points, transform: Transform | str = Transform.LINEAR) -> FitLine:
    """Least squares of hard on easy, raw or on probit-mapped axes."""
    transform = Transform(transform)
    if len(points) < 2:
        raise InsufficientDataError("need at least 2 points to fit a line")
    x, y = transform_coordinates(points, transform)
    if np.ptp(x) == 0.0:
        raise DegenerateFitError("all x values identical; line is not determined")
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2:
        raise DegenerateFitError(
            "x values too close to distinguish; line is not determined")
    slope, intercept = float(coef[0]), float(coef[1])
    residuals = y - (slope * x + intercept)
    return FitLine(
        slope=slope,
        intercept=intercept,
        transform=transform,
        residual_rms=float(math.sqrt(np.mean(residuals ** 2))),
    )
