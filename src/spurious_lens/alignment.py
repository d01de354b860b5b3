"""Bilinear image-text alignment: loss, minimizers, zero-shot inference.

The contrastive objective used here is linear in the alignment matrix
``M = W_I^T W_T`` plus a quadratic penalty, so its unique stationary point
has a closed form.  A plain gradient-descent optimizer is kept alongside as
an independent route to the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientDataError, NonconvergenceError, ShapeError
from .synthetic import (STREAM_TEST, Dictionary, GenerativeConfig, TrainingMoments,
                        _add_in_order, _map_chunks, ood_config, sample_batch)

# Version of the test pass's random stream; both Gaussian reports echo it.
MC_STREAM = 2


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PromptEmbedding:
    label: int
    vector: np.ndarray


@dataclass(frozen=True)
class SubgroupReport:
    """Zero-shot accuracy split by whether the attribute matches the label.

    A subgroup with no samples reports None rather than 0 for its accuracy.
    """

    acc_overall: float
    acc_aligned: float | None
    acc_conflicting: float | None
    n_aligned: int
    n_conflicting: int


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
    """Latent second-moment matrix E[z z^T] for general means.

    Coincides with :func:`latent_alignment_target` when mu_inv = mu_spu = 1;
    both are reported so the gap between the two readings stays visible.
    """
    return np.array([
        [config.mu_inv ** 2 + config.sigma_inv ** 2,
         config.mu_inv * config.mu_spu * (2.0 * config.p_spu - 1.0)],
        [config.mu_inv * config.mu_spu * (2.0 * config.p_spu - 1.0),
         config.mu_spu ** 2 + config.sigma_spu ** 2],
    ])


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
                    f"loss increased for 10 consecutive steps (at step {step})",
                    step=step,
                )
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
    """Label of each image row by its alignment scores against the (+1, -1)
    prompts; exact ties resolve to +1."""
    pos, neg = _prompt_pair(prompts)
    x = np.atleast_2d(np.asarray(x_image, dtype=float))
    if x.shape[1] != M.shape[0] or pos.vector.shape[0] != M.shape[1]:
        raise ShapeError(
            f"image dim {x.shape[1]} / prompt dim {pos.vector.shape[0]} "
            f"do not match alignment shape {M.shape}"
        )
    scores = x @ (M.entries @ np.column_stack([pos.vector, neg.vector]))
    return np.where(scores[:, 0] >= scores[:, 1], 1, -1)


def subgroup_counts(predictions: np.ndarray, labels: np.ndarray,
                    attributes: np.ndarray) -> tuple[int, int, int, int]:
    """(correct_aligned, n_aligned, correct_conflicting, n_conflicting)."""
    correct = predictions == labels
    aligned = attributes == labels
    n_aligned = int(np.count_nonzero(aligned))
    correct_aligned = int(np.count_nonzero(correct & aligned))
    return (correct_aligned, n_aligned,
            int(np.count_nonzero(correct)) - correct_aligned, len(labels) - n_aligned)


def subgroup_accuracy(M: AlignmentMatrix, config: GenerativeConfig,
                      dict_image: Dictionary, dict_text: Dictionary, seed: int,
                      total: int) -> SubgroupReport:
    """Zero-shot accuracy against the (+1, -1) label prompts of ``dict_text``,
    overall and split over the a == y and a != y subgroups, on ``total``
    samples of the p_spu = 1/2 test distribution.

    An image x = D_I z + xi is predicted +1 when x . w >= 0, w = M (t+ - t-).
    Its noise enters only through xi . w ~ N(0, sigma_xi^2 |w|^2 / d_I), so
    stream MC_STREAM scores each sample exactly from its latents and one
    standard normal drawn after them.  Each STREAM_TEST chunk is drawn,
    scored and counted on its own and only the counts are kept, so the
    report is the same for any worker count.
    """
    if total < 1:
        raise InsufficientDataError(f"the test set needs at least 1 sample, got {total}")
    _check_dims(M, dict_image, dict_text)
    test_config = ood_config(config)
    w = M.entries @ (prompt_embedding(dict_text, 1).vector
                     - prompt_embedding(dict_text, -1).vector)
    u = dict_image.entries.T @ w
    noise = config.sigma_xi * np.linalg.norm(w) / math.sqrt(dict_image.d)

    def counts(rng, start, stop):
        z, y, a = sample_batch(test_config, rng, stop - start)
        score = z @ u
        if config.sigma_xi > 0:
            score += noise * rng.standard_normal(stop - start)
        return subgroup_counts(np.where(score >= 0, 1, -1), y, a)

    correct_aligned, n_aligned, correct_conflicting, n_conflicting = _add_in_order(
        _map_chunks(seed, STREAM_TEST, total, counts))
    return SubgroupReport(
        acc_overall=(correct_aligned + correct_conflicting) / total,
        acc_aligned=correct_aligned / n_aligned if n_aligned else None,
        acc_conflicting=correct_conflicting / n_conflicting if n_conflicting else None,
        n_aligned=n_aligned,
        n_conflicting=n_conflicting,
    )
