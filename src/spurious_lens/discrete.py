"""Desk-scale discrete shortcut-learning experiment.

Samples are noisy object one-hots concatenated with color one-hots.  Two
training routes are compared: a plain supervised k-way classifier over the
full feature vector, and a contrastive stand-in.  A perfect language side
makes the contrastive task an object and a color classification with
separate linear heads and an additive loss, so the heads share nothing and
the object head, which zero-shot prediction reads, minimizes the supervised
objective: each seed trains one head, to the minimizer of the cross-entropy
plus a small ridge penalty, and scores it under both names.  The minimizer
is found by truncated Newton, its conjugate gradients preconditioned by
Böhning's bound on the Hessian.
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

# The trainers' objective adds RIDGE/2 times the squared weights to the mean
# cross-entropy, so it has one minimizer even on separable data.  Newton
# steps end at a predicted decrease of _DECREMENT; a step halves at most
# _MAX_HALVINGS times, and a descent takes at most _MAX_NEWTON_STEPS steps.
RIDGE = 1e-4
_DECREMENT = 1e-14
_MAX_HALVINGS = 40
_MAX_NEWTON_STEPS = 50

# Rows of each test split.
N_TEST = 4000

# Version of the trainers' schedule, echoed in simulate-discrete's JSON; 4
# trains one head per seed to the minimizer of the ridge objective, 3 ran 400
# epochs of gradient descent on the plain cross-entropy from a random start,
# 2 descended a contrastive object head of its own from another start, and 1
# that head jointly with a color head.
TRAIN_SCHEDULE = 4


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
    """Discrete samples, one feature row and one object label in
    [0, num_classes) each; a row's color is its one-hot features[:, num_classes:].
    The sampler stores features feature-major (Fortran order), so features.T
    is a C-contiguous d x n view."""

    config: DiscreteConfig
    split: Split
    features: np.ndarray
    object_labels: np.ndarray

    def __post_init__(self):
        # a negative label would index another class's cell, and one >= k would
        # stop the trainer with an IndexError
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
    wrong = rng.integers(0, k - 1, size=n)
    shown = np.where(keep, y, wrong + (wrong >= y))  # wrong skips the true class
    colors = _sample_colors(config, split, y, rng)
    features = np.zeros((n, config.feature_dim), order="F")  # features.T is C-contiguous
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


def _minimize(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The k x d weights W that minimize the mean cross-entropy of the logits
    W x^T plus RIDGE/2 ||W||_F^2: truncated Newton from W = 0 (Lin, Weng and
    Keerthi, JMLR 9, 2008).  Conjugate gradients solve H d = -g on
    Hessian-vector products, so H is never formed, and d halves until the
    Armijo test holds.  The first step whose predicted decrease -g.d is at
    most _DECREMENT is taken whole and ends the descent; a descent still
    going after _MAX_NEWTON_STEPS steps raises.

    x is read feature-major, through xt, a C-contiguous d x n copy of x^T (a
    view for the sampler's Fortran-ordered features), so every product
    contracts over n along contiguous rows.  Logits, probabilities and
    S = V x^T are k x n, so each reduction over classes runs along axis 0.
    CG is preconditioned by Böhning's bound on H (Ann. Inst. Statist. Math.
    44, 1992), B = 1/2 (I - 11^T/k) (x) X^T X/n + RIDGE I.  g and every CG
    iterate have rows that sum to 0, and there B^-1 maps V to
    V (X^T X/(2n) + RIDGE I)^-1: one d x d inverse per descent."""
    n, dim = x.shape
    xt = np.ascontiguousarray(x.T)
    rows, one_hot = np.arange(n), np.eye(k)[:, labels]
    precondition = np.linalg.inv(xt @ xt.T / (2 * n) + RIDGE * np.eye(dim))

    def objective(w):  # the objective at w, and the softmax of w's logits
        logits = w @ xt
        logits -= logits.max(axis=0)
        exp = np.exp(logits)
        z = exp.sum(axis=0)
        loss = np.mean(np.log(z) - logits[labels, rows]) + RIDGE / 2 * np.vdot(w, w)
        return float(loss), exp / z

    w = np.zeros((k, dim))
    loss, p = objective(w)
    for step in range(1, _MAX_NEWTON_STEPS + 1):
        grad = (p - one_hot) @ xt.T / n + RIDGE * w
        # preconditioned CG from d = 0 to ||r|| <= min(0.5, sqrt ||g||) ||g||
        d, r = np.zeros_like(w), -grad
        rr = np.vdot(r, r)
        target = min(0.25, rr ** 0.5) * rr
        conj = r @ precondition
        rz = np.vdot(r, conj)
        for _ in range(w.size):
            if rr <= target:
                break
            # the Hessian-vector product H conj
            s = p * (conj @ xt)
            h_conj = (s - p * s.sum(axis=0)) @ xt.T / n + RIDGE * conj
            alpha = rz / np.vdot(conj, h_conj)
            d += alpha * conj
            r -= alpha * h_conj
            rr = np.vdot(r, r)
            z = r @ precondition
            rz, rz_before = np.vdot(r, z), rz
            conj = z + rz / rz_before * conj
        decrease = -float(np.vdot(grad, d))
        if decrease <= _DECREMENT:
            return w + d
        for t in 0.5 ** np.arange(_MAX_HALVINGS + 1):
            cand_loss, cand_p = objective(w + t * d)
            if cand_loss <= loss - 1e-4 * t * decrease:  # Armijo
                break
        else:
            raise NonconvergenceError(
                f"the objective would not decrease after {_MAX_HALVINGS} step "
                f"halvings (Newton step {step})")
        w, loss, p = w + t * d, cand_loss, cand_p
    raise NonconvergenceError(f"the descent did not end within {_MAX_NEWTON_STEPS} "
                              f"Newton steps")


def train_supervised(data: DiscreteDataset) -> LinearClassifier:
    """k-way logistic regression on the full feature vector: the minimizer
    of the mean object cross-entropy plus the RIDGE penalty (_minimize)."""
    return LinearClassifier(_minimize(data.features, data.object_labels,
                                      data.config.num_classes))


def train_contrastive_perfect(data: DiscreteDataset) -> LinearClassifier:
    """The object head of contrastive training with a perfect language side.

    The contrastive loss over all captions is then the object cross-entropy
    plus a color cross-entropy over disjoint heads (log-sum-exp over object
    and color splits in two), and the ridge penalty splits over the heads
    too, so the object head minimizes the supervised objective itself: it is
    the supervised model.  No report reads the color head; it is not trained.
    """
    return train_supervised(data)


@dataclass(frozen=True)
class SplitReport:
    """Zero-shot accuracies of one trained model over the test splits;
    acc_rest is None when the Rand split has no class beyond the biased pair."""

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
    return SplitReport(
        method=method,
        acc_rand_biased=masked_acc(rand, rand_biased),
        acc_rev_biased=masked_acc(rev, rev_biased),
        acc_rest=masked_acc(rand, ~rand_biased),
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
        model = train_contrastive_perfect(train)
        reports.append(evaluate_splits("supervised", model, rand, rev))
    contrastive = [replace(report, method="contrastive") for report in reports]
    return ([_summarize("supervised", reports), _summarize("contrastive", contrastive)],
            reports + contrastive)
