"""Bilinear image-text alignment: loss, minimizers, zero-shot inference.

The contrastive objective used here is linear in the alignment matrix
``M = W_I^T W_T`` plus a quadratic penalty, so its unique stationary point
has a closed form.  A plain gradient-descent optimizer is kept alongside as
an independent route to the same matrix.

Given its label and attribute, a test image's zero-shot score is one
Gaussian, so each (y, a) cell is predicted right with a probability in
closed form.  The test pass draws its subgroup counts from that law and
reports the exact subgroup rates beside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DomainError, InsufficientDataError, NonconvergenceError,
                     ShapeError)
from .synthetic import (_CELLS, STREAM_TEST, Dictionary, GenerativeConfig, TrainingMoments,
                        _cell_probabilities, substream)

# Version of the test pass's random stream; both Gaussian reports echo it.
MC_STREAM = 3

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class AlignmentMatrix:
    """The learned bilinear form scoring image rows against text columns."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2:
            raise ShapeError(f"alignment matrix must be 2-D, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ShapeError("alignment matrix has non-finite entries")

    @property
    def shape(self):
        return self.entries.shape


class PromptEmbedding(NamedTuple):
    label: int
    vector: np.ndarray

    # compared by identity: a field-wise == would ask numpy if ``vector`` is true
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


class SubgroupReport(NamedTuple):
    """Zero-shot accuracy split by whether the attribute matches the label,
    next to the exact error on the a != y subgroup and accuracy on the
    a == y subgroup that the counts are drawn from.

    A subgroup with no samples reports None rather than 0 for its accuracy.
    """

    acc_overall: float
    acc_aligned: float | None
    acc_conflicting: float | None
    n_aligned: int
    n_conflicting: int
    exact_err_conflicting: float
    exact_acc_aligned: float


def _check_dims(M: AlignmentMatrix, dict_image: Dictionary, dict_text: Dictionary) -> None:
    want = (dict_image.d, dict_text.d)
    if M.shape != want:
        raise ShapeError(f"alignment matrix shape {M.shape} does not match data dims {want}")


def _data_term(train: TrainingMoments) -> np.ndarray:
    """Constant matrix C with contrastive data loss <C, M>_F.

    Averaging the pairwise (mismatched minus matched) similarities over all
    ordered pairs collapses to C = (sum_I sum_T^T - n * X_I^T X_T) / (n(n-1)).
    """
    n = train.n
    if n < 2:
        raise InsufficientDataError("contrastive loss needs at least 2 pairs")
    return (np.outer(train.sum_image, train.sum_text) - n * train.matched) / (n * (n - 1))


def _loss(data: np.ndarray, m: np.ndarray, rho: float) -> float:
    return float(np.vdot(data, m)) + 0.5 * rho * float(np.sum(m ** 2))


def clip_loss(M: AlignmentMatrix, train: TrainingMoments, rho: float) -> float:
    """Average mismatched-minus-matched similarity plus (rho/2) ||M||_F^2."""
    _check_dims(M, train.dict_image, train.dict_text)
    return _loss(_data_term(train), M.entries, rho)


def clip_loss_gradient(M: AlignmentMatrix, train: TrainingMoments, rho: float) -> np.ndarray:
    """Exact gradient of :func:`clip_loss` with respect to M."""
    _check_dims(M, train.dict_image, train.dict_text)
    return _data_term(train) + rho * M.entries


def empirical_minimizer(train: TrainingMoments, rho: float) -> AlignmentMatrix:
    """Closed-form unique minimizer of the regularized contrastive loss.

    Equals (1/rho) * [(n-1) * sum_i x_I^i x_T^i^T - sum_{i != j} x_I^i x_T^j^T]
    / (n(n-1)); the loss gradient vanishes there.
    """
    if rho <= 0:
        raise ConfigError(f"rho must be > 0, got {rho}")
    return AlignmentMatrix(-_data_term(train) / rho)


def latent_alignment_target(config: GenerativeConfig) -> np.ndarray:
    """The 2x2 latent-space matrix the trained alignment converges to.

    The diagonal carries the latent second moments at unit means and the
    off-diagonal carries the spurious coupling weight 2*mu_spu*p_spu - 1.
    """
    w = 2.0 * config.mu_spu * config.p_spu - 1.0
    return np.array([
        [1.0 + config.sigma_inv ** 2, w],
        [w, 1.0 + config.sigma_spu ** 2],
    ])


def population_alignment_target(config: GenerativeConfig) -> np.ndarray:
    """Latent second-moment matrix E[z z^T] in either mode, the latents sitting
    at (m_inv * y, m_spu * a) with (m_inv, m_spu) = ``config.mean_scales``.

    Coincides with :func:`latent_alignment_target` when mu_inv = mu_spu = 1;
    both are reported so the gap between the two readings stays visible.
    """
    m_inv, m_spu = config.mean_scales
    coupling = m_inv * m_spu * (2.0 * config.p_spu - 1.0)
    return np.array([[m_inv ** 2 + config.sigma_inv ** 2, coupling],
                     [coupling, m_spu ** 2 + config.sigma_spu ** 2]])


def asymptotic_minimizer(config: GenerativeConfig, dict_image: Dictionary,
                         dict_text: Dictionary) -> AlignmentMatrix:
    """Idealized alignment (1/rho) * D_I A D_T^T with A the latent target."""
    core = latent_alignment_target(config)
    return AlignmentMatrix(
        dict_image.entries @ core @ dict_text.entries.T / config.rho
    )


def alignment_gap(M: AlignmentMatrix, config: GenerativeConfig,
                  dict_image: Dictionary, dict_text: Dictionary,
                  target=latent_alignment_target) -> float:
    """Relative Frobenius distance of rho*M from D_I A D_T^T, A = target(config).

    The default target is the asymptotic one; pass
    :func:`population_alignment_target` for the general-means reading.
    """
    core = target(config)
    ambient = dict_image.entries @ core @ dict_text.entries.T
    return float(
        np.linalg.norm(config.rho * M.entries - ambient) / np.linalg.norm(core)
    )


def gradient_descent_minimizer(train: TrainingMoments, rho: float,
                               steps: int, step_size: float) -> AlignmentMatrix:
    """Full-batch gradient descent on :func:`clip_loss` from M = 0.

    Raises NonconvergenceError (naming the step) if the loss increases for
    10 consecutive steps.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if step_size <= 0:
        raise ConfigError(f"step_size must be > 0, got {step_size}")
    if rho <= 0:
        raise ConfigError(f"rho must be > 0, got {rho}")
    data = _data_term(train)
    m = np.zeros_like(data)
    prev = _loss(data, m, rho)
    rising = 0
    for step in range(1, steps + 1):
        m = m - step_size * (data + rho * m)
        cur = _loss(data, m, rho)
        if cur > prev:
            rising += 1
            if rising >= 10:
                raise NonconvergenceError(
                    f"loss increased for 10 consecutive steps (at step {step})")
        else:
            rising = 0
        prev = cur
    return AlignmentMatrix(m)


def prompt_embedding(dict_text: Dictionary, label: int) -> PromptEmbedding:
    """Noiseless text embedding of the label-only prompt.

    The prompt's latent is [label, 0]: it names the object and says nothing
    about the background, so its spurious coordinate is zero.
    """
    if label not in (-1, 1):
        raise ConfigError(f"prompt label must be -1 or +1, got {label}")
    vector = dict_text.entries @ np.array([float(label), 0.0])
    return PromptEmbedding(label=label, vector=vector)


def _prompt_pair(prompts) -> tuple[PromptEmbedding, PromptEmbedding]:
    by_label = {p.label: p for p in prompts}
    if set(by_label) != {-1, 1}:
        raise ConfigError("prompts must cover exactly the labels -1 and +1")
    return by_label[1], by_label[-1]


def zero_shot_predict_batch(M: AlignmentMatrix, x_image: np.ndarray, prompts) -> np.ndarray:
    """Label of each image row x: +1 exactly when x . M (t+ - t-) >= 0 for the
    (+1, -1) prompts t+ and t-, else -1."""
    pos, neg = _prompt_pair(prompts)
    x = np.atleast_2d(np.asarray(x_image, dtype=float))
    if x.shape[1] != M.shape[0] or pos.vector.shape[0] != M.shape[1]:
        raise ShapeError(
            f"image dim {x.shape[1]} / prompt dim {pos.vector.shape[0]} "
            f"do not match alignment shape {M.shape}"
        )
    return np.where(x @ (M.entries @ (pos.vector - neg.vector)) >= 0, 1, -1)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function, so a lower
    tail keeps its relative precision."""
    if math.isnan(x):
        raise DomainError("std_normal_cdf is undefined for NaN")
    return 0.5 * math.erfc(-x / _SQRT2)


def _cell_margins(M: AlignmentMatrix, config: GenerativeConfig,
                  dict_image: Dictionary, dict_text: Dictionary) -> list[float]:
    """Standardized margin t of each (y, a) cell of the test law, in _CELLS
    order: a test sample of the cell is predicted right with probability
    Phi(t) and wrong with probability Phi(-t).

    An image x = D_I z + xi is predicted +1 exactly when x . w >= 0, with
    w = M (t+ - t-) for the (+1, -1) label prompts.  Given (y, a), its score
    z . u + xi . w, u = D_I^T w, is Gaussian with mean (m_inv y, m_spu a) . u,
    (m_inv, m_spu) = ``config.mean_scales``, and variance sigma^2 =
    (u_0 sigma_inv)^2 + (u_1 sigma_spu)^2 + s^2, s = sigma_xi |w| / sqrt(d_I).
    So t = y * mean / sigma.  At sigma = 0 every sample of the cell scores the
    mean, and t is +inf or -inf as "a score >= 0 predicts +1", ties included,
    gets the cell right or wrong.
    """
    _check_dims(M, dict_image, dict_text)
    w = M.entries @ (prompt_embedding(dict_text, 1).vector
                     - prompt_embedding(dict_text, -1).vector)
    u = dict_image.entries.T @ w
    noise = config.sigma_xi * np.linalg.norm(w) / math.sqrt(dict_image.d)
    sigma = math.hypot(u[0] * config.sigma_inv, u[1] * config.sigma_spu, noise)
    means = ((np.array(_CELLS) * config.mean_scales) @ u).tolist()
    if sigma == 0:
        return [math.inf if (mean >= 0) == (y == 1) else -math.inf
                for (y, _), mean in zip(_CELLS, means)]
    return [y * mean / sigma for (y, _), mean in zip(_CELLS, means)]


def subgroup_accuracy(M: AlignmentMatrix, config: GenerativeConfig,
                      dict_image: Dictionary, dict_text: Dictionary, seed: int,
                      total: int) -> SubgroupReport:
    """Zero-shot accuracy against the (+1, -1) label prompts of ``dict_text``,
    overall and split over the a == y and a != y subgroups, on ``total``
    samples of the test distribution: ``config`` with p_spu = 1/2.

    Stream MC_STREAM draws the counts from their exact joint law on one
    STREAM_TEST generator: the (y, a) cell sizes from the multinomial, then
    each cell's correct count from Binomial(size, Phi(t)), t the cell's
    margin (:func:`_cell_margins`).  That is O(1) work and memory at any
    ``total``, on no thread.  Each exact rate is the mean of its two cells'
    rates; the error adds their Phi(-t), so a small one keeps its precision.
    """
    if total < 1:
        raise InsufficientDataError(f"the test set needs at least 1 sample, got {total}")
    t = _cell_margins(M, config, dict_image, dict_text)
    rng = substream(seed, STREAM_TEST)
    sizes = rng.multinomial(total, _cell_probabilities(0.5))
    hits = rng.binomial(sizes, [std_normal_cdf(margin) for margin in t])
    n_aligned, n_conflicting = int(sizes[0] + sizes[3]), int(sizes[1] + sizes[2])
    correct_aligned, correct_conflicting = int(hits[0] + hits[3]), int(hits[1] + hits[2])
    return SubgroupReport(
        acc_overall=(correct_aligned + correct_conflicting) / total,
        acc_aligned=correct_aligned / n_aligned if n_aligned else None,
        acc_conflicting=correct_conflicting / n_conflicting if n_conflicting else None,
        n_aligned=n_aligned,
        n_conflicting=n_conflicting,
        exact_err_conflicting=(std_normal_cdf(-t[1]) + std_normal_cdf(-t[2])) / 2,
        exact_acc_aligned=(std_normal_cdf(t[0]) + std_normal_cdf(t[3])) / 2,
    )
