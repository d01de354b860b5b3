"""Desk-scale discrete shortcut-learning experiment.

Samples are noisy object one-hots concatenated with color one-hots.  Two
training routes are compared: a plain supervised k-way classifier over the
full feature vector, and a contrastive stand-in.  A perfect language side
makes the contrastive task an object and a color classification with
separate linear heads and an additive loss, so the heads share nothing and
the object head, which zero-shot prediction reads, descends the supervised
problem: each seed trains one head and scores it under both names.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InsufficientDataError, NonconvergenceError
from .synthetic import check_sizes, substream

# Classes 0 and 1 carry colors 0 and 1 with probability p_spu in the
# training split; the Rev test split swaps the two colors.
BIASED = (0, 1)

# Bias strength of the reversed test split toward the swapped color.
REV_BIAS = 0.9

# Sub-stream tags (shared substream() keyspace with the Gaussian sampler;
# kept disjoint from its STREAM_* tags, 0-4).
_TAG_TRAIN = 10
_TAG_RAND = 11
_TAG_REV = 12
_TAG_INIT = 20  # 21 started schedule 2's contrastive head

# Step-size halvings allowed within one descent step before giving up.
_MAX_HALVINGS = 40

# The trainers' schedule: full-batch epochs from a starting step size, and
# the rows of each test split.
EPOCHS = 400
STEP_SIZE = 2.0
N_TEST = 4000

# Version of the trainers' step schedule, echoed in simulate-discrete's JSON;
# 3 descends one head per seed for both methods, 2 a contrastive object head
# of its own, from another start, and 1 that head jointly with a color head.
TRAIN_SCHEDULE = 3


class Split(enum.Enum):
    TRAIN = "Train"
    RAND = "Rand"
    REV = "Rev"


_SPLIT_TAGS = {Split.TRAIN: _TAG_TRAIN, Split.RAND: _TAG_RAND, Split.REV: _TAG_REV}


@dataclass(frozen=True)
class DiscreteConfig:
    """Generator and experiment knobs for the discrete dataset.

    There are as many colors as classes.  The ``BIASED`` classes carry
    their colors with probability p_spu in the training split; all other
    class/color pairs are uniform.  The object one-hot equals the true class
    with probability p_inv, otherwise a uniformly chosen wrong class.
    """

    num_classes: int
    p_inv: float
    p_spu: float
    n_train: int
    feature_noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        k = self.num_classes
        if k < 2:
            raise ConfigError(f"num_classes must be >= 2, got {k}")
        # before 1/k, which a larger int would overflow
        check_sizes({"num_classes": k, "n_train": self.n_train},
                    {"the n_train x 2*num_classes training features": self.n_train * 2 * k})
        if not 1.0 / k < self.p_inv <= 1.0:
            raise ConfigError(f"p_inv must lie in (1/k, 1], got {self.p_inv}")
        if not 1.0 / k <= self.p_spu <= 1.0:
            raise ConfigError(f"p_spu must lie in [1/k, 1], got {self.p_spu}")
        if self.n_train < 1:
            raise ConfigError(f"n_train must be positive, got {self.n_train}")
        if self.feature_noise < 0:
            raise ConfigError(f"feature_noise must be >= 0, got {self.feature_noise}")

    @property
    def feature_dim(self) -> int:
        return 2 * self.num_classes


@dataclass(frozen=True, eq=False)
class DiscreteDataset:
    """Column-batched discrete samples, one row each, with an object label in
    [0, num_classes) per row; a row's color is its one-hot features[:, num_classes:]."""

    config: DiscreteConfig
    split: Split
    features: np.ndarray
    object_labels: np.ndarray

    def __post_init__(self):
        # the trainer's flat index would read another row's cell for a label out of range
        shape = np.shape(self.features)
        labels = np.asarray(self.object_labels)
        object.__setattr__(self, "object_labels", labels)
        if labels.shape != shape[:1]:
            raise ConfigError(f"object_labels must hold one label per feature row, "
                              f"got shape {labels.shape} for features {shape}")
        if not np.all((labels >= 0) & (labels < self.config.num_classes)):
            raise ConfigError(f"object_labels must lie in [0, {self.config.num_classes})")

    def __len__(self) -> int:
        return self.object_labels.shape[0]


def _uniform_excluding(rng: np.random.Generator, high: int, excluded: np.ndarray) -> np.ndarray:
    """Uniform draw from [0, high) excluding, per-row, one index."""
    draw = rng.integers(0, high - 1, size=excluded.shape[0])
    return draw + (draw >= excluded)


def _sample_colors(config: DiscreteConfig, split: Split, y: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    c = config.num_classes
    n = y.shape[0]
    colors = rng.integers(0, c, size=n)
    if split is Split.RAND:
        return colors
    if split is Split.TRAIN:
        targets, strength = BIASED, config.p_spu
    else:
        targets, strength = BIASED[::-1], REV_BIAS
    coins = rng.random(n)
    alt = rng.integers(0, c - 1, size=n)
    for cls, col in zip(BIASED, targets):
        mask = y == cls
        hit = mask & (coins < strength)
        colors[hit] = col
        miss = mask & ~hit
        # stay away from the biased color so P(biased color) is exactly the
        # bias strength
        colors[miss] = alt[miss] + (alt[miss] >= col)
    return colors


def sample_discrete_dataset(config: DiscreteConfig, split: Split,
                            seed: int, size: int | None = None) -> DiscreteDataset:
    """Draw one split; deterministic in (config, split, seed, size).

    size defaults to config.n_train.  Labels are uniform over classes; the
    object block is the class one-hot with probability p_inv and a wrong
    class's one-hot otherwise, then perturbed by feature_noise; the color
    block is an exact one-hot drawn per the split's bias rule.
    """
    n = config.n_train if size is None else size
    if n < 1:
        raise ConfigError(f"dataset size must be positive, got {n}")
    k = config.num_classes
    rng = substream(seed, _SPLIT_TAGS[split])
    y = rng.integers(0, k, size=n)
    keep = rng.random(n) < config.p_inv
    wrong = _uniform_excluding(rng, k, y)
    shown = np.where(keep, y, wrong)
    colors = _sample_colors(config, split, y, rng)
    features = np.zeros((n, config.feature_dim))
    features[np.arange(n), shown] = 1.0
    if config.feature_noise > 0:
        features[:, :k] += config.feature_noise * rng.standard_normal((n, k))
    features[np.arange(n), k + colors] = 1.0
    return DiscreteDataset(config, split, features, object_labels=y)


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """One row of weights per class; a feature row is scored against each."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or not np.all(np.isfinite(w)):
            raise ConfigError("classifier weights must be a finite 2-D matrix")

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Index of the highest-scoring row of weights, per feature row."""
        return (np.atleast_2d(features) @ self.weights.T).argmax(axis=1)


def _ce_loss_grad(weights: np.ndarray, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of linear logits, and its gradient in the weights."""
    n, k = x.shape[0], weights.shape[0]
    logits = x @ weights.T
    # numpy reduces along a short row axis slowly, so max and sum go column by
    # column.  A max is exact in any order; numpy's pairwise sum adds a row
    # shorter than 8 left to right, as sum() over the columns does, but not a
    # longer one (the reference-kernel test fails on a numpy that differs).
    cols = logits.T
    top = cols[0].copy()
    for j in range(1, k):
        np.maximum(top, cols[j], out=top)
    logits -= top[:, None]
    flat = np.arange(n) * k + labels
    true = logits.ravel()[flat]
    exp = np.exp(logits, out=logits)
    z = sum(cols[1:], cols[0]) if k < 8 else exp.sum(axis=1)
    loss = float(np.mean(np.log(z) - true))
    p = np.divide(exp, z[:, None], out=exp)
    p.ravel()[flat] -= 1.0
    return loss, p.T @ x / n


def _descend(loss_grad, w0: np.ndarray, epochs: int, step_size: float) -> np.ndarray:
    """Full-batch GD with step halving; loss never increases between epochs."""
    w = w0
    loss, grad = loss_grad(w)
    step = step_size
    for epoch in range(1, epochs + 1):
        for _ in range(_MAX_HALVINGS):
            candidate = w - step * grad
            cand_loss, cand_grad = loss_grad(candidate)
            if cand_loss <= loss:
                w, loss, grad = candidate, cand_loss, cand_grad
                break
            step *= 0.5
        else:
            raise NonconvergenceError(
                f"loss would not decrease after {_MAX_HALVINGS} step halvings "
                f"(epoch {epoch})")
    return w


def train_supervised(data: DiscreteDataset, *, rng: np.random.Generator) -> LinearClassifier:
    """k-way logistic regression on the full feature vector: EPOCHS of GD on
    the object cross-entropy, first step STEP_SIZE, from 0.01 * N(0, 1)."""
    features, objects = data.features, data.object_labels
    w0 = 0.01 * rng.standard_normal((data.config.num_classes, features.shape[1]))
    return LinearClassifier(_descend(lambda w: _ce_loss_grad(w, features, objects),
                                     w0, EPOCHS, STEP_SIZE))


def train_contrastive_perfect(data: DiscreteDataset, *,
                              rng: np.random.Generator) -> LinearClassifier:
    """The object head of contrastive training with a perfect language side.

    The contrastive loss over all captions is then the object cross-entropy
    plus a color cross-entropy over disjoint heads (log-sum-exp over object
    and color splits in two), so the object head descends the supervised
    problem itself: from the same start it is the supervised model.  No
    report reads the color head; it is not trained.
    """
    return train_supervised(data, rng=rng)


@dataclass(frozen=True)
class SplitReport:
    """Zero-shot accuracies of one trained model over the test splits.

    acc_rest is None when there are no classes beyond the biased pair.
    """

    method: str
    acc_rand_biased: float
    acc_rev_biased: float
    acc_rest: float | None

    def __post_init__(self):
        for name in ("acc_rand_biased", "acc_rev_biased", "acc_rest"):
            v = getattr(self, name)
            if not (name == "acc_rest" if v is None else 0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")


def evaluate_splits(method: str, model: LinearClassifier, rand: DiscreteDataset,
                    rev: DiscreteDataset) -> SplitReport:
    """Biased-class accuracy on Rand and Rev, remaining-class accuracy on Rand."""
    if (rand.split, rev.split) != (Split.RAND, Split.REV):
        raise ConfigError(f"evaluate_splits takes the Rand and Rev splits, "
                          f"got {rand.split.value} and {rev.split.value}")

    def masked_acc(split: DiscreteDataset, mask: np.ndarray) -> float | None:
        if not mask.any():
            return None
        pred = model.predict(split.features[mask])
        return float((pred == split.object_labels[mask]).mean())

    rand_biased = np.isin(rand.object_labels, BIASED)
    rev_biased = np.isin(rev.object_labels, BIASED)
    for split, mask in ((rand, rand_biased), (rev, rev_biased)):
        if not mask.any():
            raise InsufficientDataError(f"the {split.split.value} test split has no row of "
                                        f"the biased classes {list(BIASED)}")
    acc_rest = None
    if rand.config.num_classes > 2:
        acc_rest = masked_acc(rand, ~rand_biased)
    return SplitReport(
        method=method,
        acc_rand_biased=masked_acc(rand, rand_biased),
        acc_rev_biased=masked_acc(rev, rev_biased),
        acc_rest=acc_rest,
    )


class MethodSummary(NamedTuple):
    """Mean and population std of each SplitReport column over seeds."""

    method: str
    n_seeds: int
    rand_mean: float
    rand_std: float
    rev_mean: float
    rev_std: float
    rest_mean: float | None
    rest_std: float | None


def _summarize(method: str, reports: list[SplitReport]) -> MethodSummary:
    rand = np.array([r.acc_rand_biased for r in reports])
    rev = np.array([r.acc_rev_biased for r in reports])
    rest_vals = [r.acc_rest for r in reports]
    has_rest = all(v is not None for v in rest_vals)
    return MethodSummary(
        method=method,
        n_seeds=len(reports),
        rand_mean=float(rand.mean()),
        rand_std=float(rand.std()),
        rev_mean=float(rev.mean()),
        rev_std=float(rev.std()),
        rest_mean=float(np.mean(rest_vals)) if has_rest else None,
        rest_std=float(np.std(rest_vals)) if has_rest else None,
    )


def run_discrete_experiment(config: DiscreteConfig, n_seeds: int
                            ) -> tuple[list[MethodSummary], list[SplitReport]]:
    """Train over n_seeds seeds and aggregate per column for both methods.

    Seeds run at config.seed + index.  Each seed draws its Train split and
    its N_TEST-row Rand and Rev splits once, trains one head, and scores it
    once: with a perfect language side the contrastive object head is the
    supervised model (see train_contrastive_perfect), so the one report is
    given under both method names.  The per-seed reports list every
    supervised seed, then every contrastive one.
    """
    if n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n_seeds}")
    reports = []
    for index in range(n_seeds):
        seed = config.seed + index
        train = sample_discrete_dataset(config, Split.TRAIN, seed)
        rand = sample_discrete_dataset(config, Split.RAND, seed, size=N_TEST)
        rev = sample_discrete_dataset(config, Split.REV, seed, size=N_TEST)
        model = train_contrastive_perfect(train, rng=substream(seed, _TAG_INIT))
        reports.append(evaluate_splits("supervised", model, rand, rev))
    contrastive = [replace(report, method="contrastive") for report in reports]
    return ([_summarize("supervised", reports), _summarize("contrastive", contrastive)],
            reports + contrastive)
