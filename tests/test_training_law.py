"""Training stream 2: the training sums drawn from their exact joint law.

``training_moments`` no longer draws rows.  These tests tie its law to the
row-wise reference, ``sample_dataset``: the first two moments of the sums,
the distribution of the trained alignment gap, the Bartlett factor it is
built from, and the cost at the two ends of the allowed n.  The last class
checks the Def1 lemma's 1/sqrt(n) rate at sizes only the exact draw reaches.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spurious_lens import GenerativeConfig, alignment_gap, empirical_minimizer, sample_dataset
from spurious_lens import synthetic
from spurious_lens.alignment import latent_alignment_target, population_alignment_target
from spurious_lens.synthetic import (
    MAX_SAMPLES,
    _bartlett,
    training_moments,
)


@pytest.fixture
def drawn_once(monkeypatch):
    """Both samplers draw a seed's dictionaries the same way: draw them once."""
    monkeypatch.setattr(synthetic, "dataset_dictionaries",
                        functools.cache(synthetic.dataset_dictionaries))


def ks_pvalue(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov p-value, asymptotic with Stephens'
    small-sample correction (Numerical Recipes, 14.3)."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    d = np.max(np.abs(np.searchsorted(a, x, side="right") / len(a)
                      - np.searchsorted(b, x, side="right") / len(b)))
    en = math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    lam = (en + 0.12 + 0.11 / en) * d
    k = np.arange(1, 101)
    return float(np.clip(2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * k ** 2 * lam ** 2)), 0, 1))


def features(draw, config, seeds) -> np.ndarray:
    """One row per seed: sum X_I, sum X_T and X_I^T X_T seen in orthonormal
    bases of the ambient spaces whose first two columns are the dictionary's.
    The noise is isotropic, so the rows' law does not depend on the seed's
    dictionaries and the seeds can be pooled."""
    drawn = [draw(config, seed) for seed in seeds]

    def bases(dictionaries):
        entries = np.array([dictionary.entries for dictionary in dictionaries])
        return np.concatenate([entries, np.linalg.qr(entries, mode="complete")[0][..., 2:]],
                              axis=-1)

    image = bases(m.dict_image for m in drawn)
    text = bases(m.dict_text for m in drawn)
    return np.concatenate([
        np.einsum("sij,si->sj", image, np.array([m.sum_image for m in drawn])),
        np.einsum("sij,si->sj", text, np.array([m.sum_text for m in drawn])),
        np.einsum("sia,sij,sjb->sab", image, np.array([m.matched for m in drawn]),
                  text).reshape(len(drawn), -1)], axis=1)


def two_sample_z(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column z of the difference of means; 0 where both columns are
    constant and equal, inf where they are constant and differ."""
    diff = a.mean(axis=0) - b.mean(axis=0)
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    scale = 1e-9 * (1 + np.abs(a).max(axis=0))
    return np.where(se > scale, diff / np.where(se > scale, se, 1),
                    np.where(np.abs(diff) <= scale, 0.0, np.inf))


def first_two_moments_z(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z of every mean and every second moment E[f_i f_j] of two samples."""
    upper = np.triu_indices(a.shape[1])
    return np.concatenate([two_sample_z(a, b),
                           two_sample_z(*(np.einsum("si,sj->sij", f, f)[:, upper[0], upper[1]]
                                          for f in (a, b)))])


class TestMomentsMatchTheRows:
    """2500 seeds per config, 10^4 in all: every mean and second moment of
    the sums agrees with sample_dataset's within 5 standard errors."""

    SEEDS = 2500

    @pytest.mark.parametrize("config", [
        # n - 3 < d_I: the residual rows are drawn; most latent cells hold
        # fewer than 3 rows and are drawn too
        GenerativeConfig(n=5, d_I=6, d_T=5, sigma_xi=1.0),
        # z = (y, y): C = [1, Z] has rank 2
        GenerativeConfig(n=20, d_I=4, d_T=3, sigma_inv=0.0, sigma_spu=0.0, p_spu=1.0,
                         sigma_xi=1.0),
        # spread large against the means, so the latent Wishart shows
        GenerativeConfig(n=20, d_I=4, d_T=3, mu_inv=0.5, mu_spu=2.0, sigma_inv=1.5,
                         sigma_spu=0.3, p_spu=0.8, sigma_xi=1.0),
        GenerativeConfig(n=30, d_I=3, d_T=4, mu_inv=3, mu_spu=2, sigma_xi=0.5),
    ], ids=["n-r<d", "rank-deficient", "Def1-general-means", "integer-means"])
    def test_first_two_moments(self, config, drawn_once):
        exact, rows = (features(draw, config, range(self.SEEDS))
                       for draw in (training_moments, sample_dataset))
        z = first_two_moments_z(exact, rows)
        assert np.max(np.abs(z)) <= 5.0, np.argmax(np.abs(z))

    def test_noiseless_sums_are_the_latent_ones(self):
        # sigma_xi = 0 draws no noise: the sums lie in the dictionaries' span
        config = GenerativeConfig(n=1000, d_I=6, d_T=5, sigma_xi=0.0)
        moments = training_moments(config, seed=1)
        image, text = moments.dict_image.entries, moments.dict_text.entries
        latent = image.T @ moments.matched @ text
        assert np.allclose(image @ latent @ text.T, moments.matched, atol=1e-10)
        assert np.allclose(image @ (image.T @ moments.sum_image), moments.sum_image)


def trained_gaps(draw, config, seeds, target=latent_alignment_target):
    gaps = []
    for seed in seeds:
        train = draw(config, seed)
        matrix = empirical_minimizer(train, config.rho)
        gaps.append(alignment_gap(matrix, config, train.dict_image, train.dict_text,
                                  target=target))
    return np.array(gaps)


def test_trained_gap_has_the_rows_law(drawn_once):
    config = GenerativeConfig(n=2000, d_I=6, d_T=5, sigma_xi=0.5)
    exact, rows = (trained_gaps(draw, config, range(400))
                   for draw in (training_moments, sample_dataset))
    assert ks_pvalue(exact, rows) > 0.001


class TestBartlettFactor:
    @pytest.mark.parametrize("dof,p", [(4, 4), (1000, 3)])
    def test_gram_is_wishart(self, dof, p):
        # W = R^T R ~ Wishart_p(dof, I): E W = dof I, Var W_ii = 2 dof and
        # Var W_ij = dof off the diagonal
        rng = np.random.default_rng(dof)
        draws = 10_000
        grams = np.array([r.T @ r for r in (_bartlett(rng, dof, p) for _ in range(draws))])
        factor = _bartlett(rng, dof, p)
        assert np.array_equal(factor, np.triu(factor)) and np.all(np.diag(factor) > 0)
        mean, var = grams.mean(axis=0), grams.var(axis=0, ddof=1)
        want_var = dof * (1 + np.eye(p))
        assert np.all(np.abs(mean - dof * np.eye(p)) <= 5 * np.sqrt(want_var / draws))
        # a sample variance has relative standard error sqrt((kurtosis - 1)
        # / draws); no entry's kurtosis exceeds 6 here (chi^2_4 at dof = 4)
        assert np.all(np.abs(var / want_var - 1) <= 5 * math.sqrt(5 / draws))


class TestAnyN:
    @pytest.mark.parametrize("n", [2, MAX_SAMPLES])
    def test_finite_sums_in_milliseconds(self, n):
        config = GenerativeConfig(n=n, d_I=64, d_T=64)
        training_moments(config, seed=0)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            moments = training_moments(config, seed=0)
            times.append(time.perf_counter() - start)
        for total in (moments.sum_image, moments.sum_text, moments.matched):
            assert np.all(np.isfinite(total))
        assert min(times) < 0.05

    def test_draws_no_rows(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("training drew rows")

        monkeypatch.setattr(synthetic, "sample_batch", no_rows)
        monkeypatch.setattr(synthetic, "embed", no_rows)
        training_moments(GenerativeConfig(n=50, d_I=4, d_T=3), seed=2)


# Medians of the trained gap over 200 seeds, at d = 64 and sigma_xi = 0.01.
LEMMA = GenerativeConfig(n=10_000, d_I=64, d_T=64, sigma_xi=0.01)
RATE_SEEDS = range(200)


def median_gap(config, target=latent_alignment_target, seeds=RATE_SEEDS) -> float:
    return float(np.median(trained_gaps(training_moments, config, seeds, target)))


class TestLemmaRate:
    """The Def1 lemma: the trained matrix reaches its target at rate 1/sqrt(n)."""

    # sqrt(n) times the median gap over seeds 0-199 read 1.022-1.052 at
    # n = 1e5 to 1e12.  Over 20 disjoint blocks of 200 other seeds it read
    # 1.023-1.024 on average, with a spread (one standard deviation) of
    # 0.037-0.041, at each of n = 1e5, 1e8 and 1e12.  The band is 1.02 plus
    # or minus 5 of the largest spread.
    BAND = (1.02 - 5 * 0.041, 1.02 + 5 * 0.041)

    @pytest.mark.parametrize("n", [10 ** 5, 10 ** 6, 10 ** 8, 10 ** 10, 10 ** 12])
    def test_sqrt_n_gap_stays_in_band(self, n):
        low, high = self.BAND
        assert low <= math.sqrt(n) * median_gap(replace(LEMMA, n=n)) <= high

    def test_gap_at_1e4_has_the_rows_law(self, drawn_once):
        config = replace(LEMMA, d_I=8, d_T=8)
        exact, rows = (trained_gaps(draw, config, range(200))
                       for draw in (training_moments, sample_dataset))
        assert ks_pvalue(exact, rows) > 0.001

    def test_theorem_exact_regime_at_scale(self):
        # latents at (y, a) with mu_spu = 2: the trained matrix converges to
        # their second moment, and stays a fixed distance from the target
        # built from mu_spu
        config = GenerativeConfig(mu_spu=2.0, p_spu=0.95, sigma_xi=0.1, d_I=16, d_T=16,
                                  mode="TheoremExact")
        seeds = range(50)
        latent, population = latent_alignment_target(config), population_alignment_target(config)
        limit = np.linalg.norm(population - latent) / np.linalg.norm(latent)
        scaled = []
        for n in (10 ** 6, 10 ** 9, 10 ** 12):
            sized = replace(config, n=n)
            scaled.append(math.sqrt(n) * median_gap(sized, population_alignment_target, seeds))
            assert abs(median_gap(sized, seeds=seeds) - limit) <= 2 * scaled[-1] / math.sqrt(n)
        assert limit > 0.1
        assert max(scaled) <= 1.5 * min(scaled)
