"""Bilinear image-text alignment: loss, minimizers, zero-shot inference.

The contrastive objective used here is linear in the alignment matrix
``M = W_I^T W_T`` plus a quadratic penalty, so its unique stationary point
has a closed form.  A plain gradient-descent optimizer is kept alongside as
an independent route to the same matrix.

Given its label and attribute, a test image's zero-shot score is one
Gaussian, so each (y, a) cell is predicted right with probability Phi(t) for
a standardized margin t, which :func:`column_margins` takes from u = D_I^T M
(t+ - t-) and the image-noise scale: of a trained matrix, or in closed form
of the asymptotic one, whose u is the 2x2 latent target's first column.  The
test pass draws its subgroup counts from that law and reports the exact
subgroup rates beside them.
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
    Squares are products, as in :func:`latent_target_column`.
    """
    w = 2.0 * config.mu_spu * config.p_spu - 1.0
    return np.array([
        [1.0 + config.sigma_inv * config.sigma_inv, w],
        [w, 1.0 + config.sigma_spu * config.sigma_spu],
    ])


def latent_target_column(config) -> list[float]:
    """The first column (1 + sigma_inv^2, w) of :func:`latent_alignment_target`,
    read from ``config``'s sigma_inv, mu_spu and p_spu, divided by 4^e where
    sigma_inv = f 2^e, f in [1/2, 1), if e > 0: a power of two, so each entry
    keeps its bits unless it underflows, and the square of sigma_inv 2^-e < 1
    cannot overflow.  The square is a product, which rounds correctly and so
    commutes with the power of two; ``** 2`` calls pow(), which need not.  The
    margins need the column only up to scale."""
    e = max(math.frexp(config.sigma_inv)[1], 0)
    sigma = math.ldexp(config.sigma_inv, -e)
    w = 2.0 * config.mu_spu * config.p_spu - 1.0
    return [math.ldexp(1.0, -2 * e) + sigma * sigma, math.ldexp(w, -2 * e)]


def population_alignment_target(config: GenerativeConfig) -> np.ndarray:
    """Latent second-moment matrix E[z z^T] in either mode, the latents sitting
    at (m_inv * y, m_spu * a) with (m_inv, m_spu) = ``config.mean_scales``.

    Coincides with :func:`latent_alignment_target` when mu_inv = mu_spu = 1;
    both are reported so the gap between the two readings stays visible.
    Squares are products, as in :func:`latent_target_column`.
    """
    m_inv, m_spu = config.mean_scales
    coupling = m_inv * m_spu * (2.0 * config.p_spu - 1.0)
    return np.array([[m_inv * m_inv + config.sigma_inv * config.sigma_inv, coupling],
                     [coupling, m_spu * m_spu + config.sigma_spu * config.sigma_spu]])


def alignment_gap(M: AlignmentMatrix, config: GenerativeConfig,
                  dict_image: Dictionary, dict_text: Dictionary,
                  target=latent_alignment_target) -> float:
    """Relative Frobenius distance of rho*M from D_I A D_T^T, A = target(config).

    The default target is the asymptotic one; pass
    :func:`population_alignment_target` for the general-means reading.
    """
    core = target(config)
    ambient = dict_image.entries @ core @ dict_text.entries.T
    return _norm(config.rho * M.entries - ambient) / _norm(core)


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x), computed on x scaled by the power of two that brings
    its largest entry into [1/2, 1): the same bits, and no square overflows."""
    _, exponent = math.frexp(float(np.max(np.abs(x))))
    return math.ldexp(float(np.linalg.norm(np.ldexp(x, -exponent))), exponent)


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


def column_margins(u: tuple[float, float], noise: float, sigma_inv: float, sigma_spu: float,
                   mean_scales: tuple[float, float]) -> list[float]:
    """Standardized margin t of each (y, a) cell, in _CELLS order, of the
    score z . u + e of a test latent z and noise e ~ N(0, noise^2): the cell
    is predicted right with probability Phi(t).  The score has mean
    (m_inv y, m_spu a) . u, (m_inv, m_spu) = ``mean_scales``, and variance
    sigma^2 = (u_0 sigma_inv)^2 + (u_1 sigma_spu)^2 + noise^2, so t = y mean /
    sigma; at sigma = 0, t is +inf or -inf as "a score >= 0 predicts +1" gets
    the cell right or wrong.  u and noise are first scaled by the power of two
    that brings the largest into [1/2, 1): t keeps its bits, and no product
    overflows."""
    _, exponent = math.frexp(max(abs(u[0]), abs(u[1]), noise))
    u0, u1, noise = (math.ldexp(value, -exponent) for value in (*u, noise))
    sigma = math.hypot(u0 * sigma_inv, u1 * sigma_spu, noise)
    m_inv, m_spu = mean_scales
    means = [y * m_inv * u0 + a * m_spu * u1 for y, a in _CELLS]
    if sigma == 0:
        return [math.inf if (mean >= 0) == (y == 1) else -math.inf
                for (y, _), mean in zip(_CELLS, means)]
    return [y * mean / sigma for (y, _), mean in zip(_CELLS, means)]


def _cell_margins(M: AlignmentMatrix, config: GenerativeConfig,
                  dict_image: Dictionary, dict_text: Dictionary) -> list[float]:
    """:func:`column_margins` of M: an image x = D_I z + xi scores x . w,
    w = M (t+ - t-) for the (+1, -1) label prompts, and that is z . u + xi . w
    with u = D_I^T w and xi . w of scale sigma_xi |w| / sqrt(d_I)."""
    _check_dims(M, dict_image, dict_text)
    w = M.entries @ (prompt_embedding(dict_text, 1).vector
                     - prompt_embedding(dict_text, -1).vector)
    noise = config.sigma_xi * _norm(w) / math.sqrt(dict_image.d)
    return column_margins((dict_image.entries.T @ w).tolist(), noise, config.sigma_inv,
                          config.sigma_spu, config.mean_scales)


def latent_margins(config: GenerativeConfig) -> list[float]:
    """:func:`_cell_margins` of (1/rho) D_I A D_T^T, A the latent target, for
    any orthonormal D_I and D_T: there u = 2 A e_0 / rho and |w| = |u|, and
    the factor 2 / rho cancels in t, so A e_0 up to scale is all the margins
    need (:func:`latent_target_column`)."""
    u = latent_target_column(config)
    noise = config.sigma_xi * math.hypot(*u) / math.sqrt(config.d_I)
    return column_margins(u, noise, config.sigma_inv, config.sigma_spu, config.mean_scales)


def margin_counts(t: list[float], seed: int, total: int) -> SubgroupReport:
    """Zero-shot accuracy on ``total`` samples of the p_spu = 1/2 test law
    whose (y, a) cells, in _CELLS order, have the margins ``t``.  Stream
    MC_STREAM draws the counts from their exact joint law on one STREAM_TEST
    generator: the cell sizes from the multinomial, then each cell's correct
    count from Binomial(size, Phi(t)), in O(1) work and memory at any
    ``total``.  Each exact rate is the mean of its two cells' rates; the
    error adds their Phi(-t), so a small one keeps its precision."""
    if total < 1:
        raise InsufficientDataError(f"the test set needs at least 1 sample, got {total}")
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


def subgroup_accuracy(M: AlignmentMatrix, config: GenerativeConfig,
                      dict_image: Dictionary, dict_text: Dictionary, seed: int,
                      total: int) -> SubgroupReport:
    """:func:`margin_counts` of M against the (+1, -1) label prompts of
    ``dict_text``, on the test law of ``config``."""
    return margin_counts(_cell_margins(M, config, dict_image, dict_text), seed, total)
