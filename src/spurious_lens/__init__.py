"""Toolkit for studying spurious-feature reliance of contrastive
image-text models: a seeded Gaussian pair simulator with closed-form
analysis, a discrete shortcut-learning experiment, and an evaluation
harness for external prediction logs."""

import json as _json
from importlib.resources import files as _files

from .alignment import (
    AlignmentMatrix,
    PromptEmbedding,
    SubgroupReport,
    alignment_gap,
    asymptotic_minimizer,
    clip_loss,
    clip_loss_gradient,
    empirical_minimizer,
    gradient_descent_minimizer,
    latent_alignment_target,
    population_alignment_target,
    prompt_embedding,
    std_normal_cdf,
    subgroup_accuracy,
    zero_shot_predict_batch,
)
from .discrete import (
    DiscreteConfig,
    DiscreteDataset,
    LinearClassifier,
    MethodSummary,
    Split,
    SplitReport,
    evaluate_splits,
    run_discrete_experiment,
    sample_discrete_dataset,
    train_contrastive_perfect,
    train_supervised,
)
from .errors import (
    ConfigError,
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NonconvergenceError,
    ParseError,
    ShapeError,
    SpuriousLensError,
)
from .evaluation import (
    EvalReport,
    FitLine,
    GroupSplit,
    Group,
    Point,
    PredictionRecord,
    PredictionTable,
    SimilarityTable,
    Transform,
    balanced_accuracy,
    confusing_labels,
    discover_spurious,
    effective_robustness_fit,
    fmt_pct,
    group_report,
    load_points,
    load_predictions,
    load_similarities,
    plain_accuracy,
)
from .svgplot import render_fit_svg
from .synthetic import (
    Dictionary,
    GenerativeConfig,
    Mode,
    SyntheticDataset,
    sample_dataset,
)
from .theory import (
    TheoryBounds,
    TheoryParams,
    VerificationReport,
    kappa1,
    kappa2,
    std_normal_inv_cdf,
    theorem_bounds,
    verify_theorem,
)

__version__ = "0.1.0"


def load_schema(name: str) -> dict:
    """Return one of the shipped JSON schemas by stem name,
    e.g. load_schema("eval_report")."""
    path = _files(__package__) / "schemas" / f"{name}.schema.json"
    return _json.loads(path.read_text(encoding="utf-8"))
