"""Toolkit for studying spurious-feature reliance of contrastive
image-text models: a seeded Gaussian pair simulator with closed-form
analysis, a discrete shortcut-learning experiment, and an evaluation
harness for external prediction logs."""

import json as _json
from importlib.resources import files as _files

from .alignment import (
    AlignmentMatrix,
    alignment_gap,
    clip_loss,
    clip_loss_gradient,
    empirical_minimizer,
    gradient_descent_minimizer,
    prompt_embedding,
    std_normal_cdf,
    zero_shot_predict_batch,
)
from .discrete import DiscreteConfig, run_discrete_experiment
from .evaluation import (
    Point,
    PredictionRecord,
    balanced_accuracy,
    discover_spurious,
    effective_robustness_fit,
    fmt_pct,
    group_report,
    plain_accuracy,
)
from .synthetic import GenerativeConfig, sample_dataset
from .theory import kappa1, kappa2, verify_theorem

__version__ = "0.1.0"


def load_schema(name: str) -> dict:
    """Return one of the shipped JSON schemas by stem name,
    e.g. load_schema("eval_report")."""
    path = _files(__package__) / "schemas" / f"{name}.schema.json"
    return _json.loads(path.read_text(encoding="utf-8"))
