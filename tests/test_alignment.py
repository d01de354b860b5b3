import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import (
    AlignmentMatrix,
    GenerativeConfig,
    alignment_gap,
    clip_loss,
    clip_loss_gradient,
    empirical_minimizer,
    gradient_descent_minimizer,
    prompt_embedding,
    sample_dataset,
    std_normal_cdf,
    zero_shot_predict_batch,
)
from spurious_lens.alignment import (
    PromptEmbedding,
    _cell_margins,
    column_margins,
    latent_alignment_target,
    latent_margins,
    latent_target_column,
    population_alignment_target,
    subgroup_accuracy,
)
from spurious_lens.cli import _json_data, main as cli_main
from spurious_lens.discrete import (DiscreteConfig, LinearClassifier, Split,
                                    sample_discrete_dataset)
from spurious_lens.errors import (ConfigError, InsufficientDataError, NonconvergenceError,
                                  ShapeError)
from spurious_lens.evaluation import SimilarityTable
from spurious_lens.synthetic import (
    _CELLS,
    STREAM_SAMPLES,
    STREAM_TEST,
    Dictionary,
    Mode,
    TrainingMoments,
    _orthonormality_error,
    dataset_dictionaries,
    embed,
    sample_batch,
    substream,
    training_moments,
)

from asymptotic import asymptotic_minimizer


CHUNK = 1 << 14  # rows per piece of the chunked reference streams below


def chunk_stream(seed, tag, index):
    """The generator of piece ``index`` of a chunked reference stream:
    sub-stream ``tag`` of the root seed, spawn key (tag, index).  Piece 0
    is substream(seed, tag)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(tag, index)))


def naive_pairwise_loss(M, dataset, rho):
    """Literal double-sum definition, kept as an independent oracle."""
    n = len(dataset)
    scores = dataset.x_image @ M.entries @ dataset.x_text.T
    first = sum(scores[i, j] - scores[i, i]
                for i in range(n) for j in range(n) if i != j)
    second = sum(scores[j, i] - scores[i, i]
                 for i in range(n) for j in range(n) if i != j)
    penalty = rho / 2 * float(np.sum(M.entries ** 2))
    return (first + second) / (2 * n * (n - 1)) + penalty


def small_dataset(seed=0, n=25, d_i=4, d_t=3, rho=1.0):
    cfg = GenerativeConfig(n=n, d_I=d_i, d_T=d_t, rho=rho, sigma_xi=0.1)
    return sample_dataset(cfg, seed=seed)


def random_matrix(shape, seed):
    return AlignmentMatrix(np.random.default_rng(seed).standard_normal(shape))


class TestLoss:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_pairwise_oracle(self, seed):
        ds = small_dataset(seed=seed)
        M = random_matrix((4, 3), seed)
        assert clip_loss(M, ds, 1.3) == pytest.approx(
            naive_pairwise_loss(M, ds, 1.3), abs=1e-12)

    def test_zero_matrix_loss_is_zero(self):
        ds = small_dataset()
        assert clip_loss(AlignmentMatrix(np.zeros((4, 3))), ds, 2.0) == 0.0

    def test_shape_mismatch_rejected(self):
        ds = small_dataset()
        with pytest.raises(ShapeError):
            clip_loss(random_matrix((5, 3), 0), ds, 1.0)

    def test_single_pair_rejected(self):
        ds = small_dataset(n=2)
        x_image, x_text = ds.x_image[:1], ds.x_text[:1]
        one = type(ds)(
            n=1, sum_image=x_image.sum(axis=0), sum_text=x_text.sum(axis=0),
            matched=x_image.T @ x_text, dict_image=ds.dict_image, dict_text=ds.dict_text,
            x_image=x_image, x_text=x_text, labels=ds.labels[:1], attributes=ds.attributes[:1],
        )
        M = random_matrix((4, 3), 0)
        for fit in (lambda: clip_loss(M, one, 1.0),
                    lambda: clip_loss_gradient(M, one, 1.0),
                    lambda: empirical_minimizer(one, 1.0),
                    lambda: gradient_descent_minimizer(one, 1.0, steps=5, step_size=0.1)):
            with pytest.raises(InsufficientDataError):
                fit()

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(ShapeError):
            AlignmentMatrix(np.array([[np.nan, 0.0]]))


class TestGradient:
    def test_matches_central_finite_differences(self):
        ds = small_dataset(seed=3, n=40, d_i=5, d_t=4)
        M = random_matrix((5, 4), 7)
        grad = clip_loss_gradient(M, ds, 0.8)
        eps = 1e-6
        fd = np.zeros_like(grad)
        for i in range(5):
            for j in range(4):
                bump = np.zeros((5, 4))
                bump[i, j] = eps
                hi = clip_loss(AlignmentMatrix(M.entries + bump), ds, 0.8)
                lo = clip_loss(AlignmentMatrix(M.entries - bump), ds, 0.8)
                fd[i, j] = (hi - lo) / (2 * eps)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(grad) < 1e-5

    def test_vanishes_at_closed_form_minimizer(self):
        ds = small_dataset(seed=1)
        M = empirical_minimizer(ds, 1.7)
        grad = clip_loss_gradient(M, ds, 1.7)
        assert np.max(np.abs(grad)) < 1e-12


class TestMinimizers:
    def test_closed_form_beats_perturbations(self):
        ds = small_dataset(seed=2)
        M = empirical_minimizer(ds, 1.0)
        base = clip_loss(M, ds, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            other = AlignmentMatrix(M.entries + 0.1 * rng.standard_normal(M.shape))
            assert clip_loss(other, ds, 1.0) > base

    def test_rejects_nonpositive_rho(self):
        ds = small_dataset()
        with pytest.raises(ConfigError):
            empirical_minimizer(ds, 0.0)

    def test_one_step_descent_with_matched_rate_is_exact(self):
        # the objective is quadratic in M, so step 1/rho lands on the optimum
        ds = small_dataset(seed=5, n=60, d_i=6, d_t=6, rho=0.7)
        closed = empirical_minimizer(ds, 0.7)
        gd = gradient_descent_minimizer(ds, 0.7, steps=1, step_size=1.0 / 0.7)
        rel = (np.linalg.norm(gd.entries - closed.entries)
               / np.linalg.norm(closed.entries))
        assert rel < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_many_small_steps_converge(self, seed):
        ds = small_dataset(seed=seed, n=50, d_i=5, d_t=4, rho=1.2)
        closed = empirical_minimizer(ds, 1.2)
        gd = gradient_descent_minimizer(ds, 1.2, steps=80, step_size=0.4 / 1.2)
        rel = (np.linalg.norm(gd.entries - closed.entries)
               / np.linalg.norm(closed.entries))
        assert rel < 1e-6

    def test_oversized_step_raises_after_ten_increases(self):
        ds = small_dataset(seed=6)
        with pytest.raises(NonconvergenceError, match=r"\(at step 10\)$"):
            gradient_descent_minimizer(ds, 1.0, steps=100, step_size=3.0)

    @pytest.mark.parametrize("kwargs", [
        {"steps": 0, "step_size": 0.1},
        {"steps": 5, "step_size": 0.0},
        {"steps": 5, "step_size": -1.0},
    ])
    def test_rejects_bad_hyperparameters(self, kwargs):
        ds = small_dataset()
        with pytest.raises(ConfigError):
            gradient_descent_minimizer(ds, 1.0, **kwargs)


class TestDatasetSums:
    """sample_dataset's sums are the whole arrays' sums.  training_moments
    draws sums of the same law with the same dictionaries
    (tests/test_training_law.py)."""

    @pytest.mark.parametrize("n", [CHUNK, 2 * CHUNK, 5 * CHUNK + 7])
    def test_dataset_minimizer_is_the_whole_array_one(self, n):
        cfg = GenerativeConfig(n=n, d_I=6, d_T=5, rho=0.8)
        ds = sample_dataset(cfg, seed=3)
        materialised = empirical_minimizer(ds, cfg.rho).entries
        # the whole-array formula, summed in one pass
        oracle = -(np.outer(ds.x_image.sum(axis=0), ds.x_text.sum(axis=0))
                   - n * ds.x_image.T @ ds.x_text) / (n * (n - 1)) / cfg.rho
        assert np.linalg.norm(materialised - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_moments_carry_the_dataset_dictionaries(self):
        n = 2 * CHUNK + 7
        cfg = GenerativeConfig(n=n, d_I=6, d_T=5)
        moments, ds = training_moments(cfg, seed=2), sample_dataset(cfg, seed=2)
        assert moments.n == len(ds) == n
        assert np.array_equal(moments.dict_image.entries, ds.dict_image.entries)
        assert np.array_equal(moments.dict_text.entries, ds.dict_text.entries)
        # a dataset is its moments plus its rows, and the alignment layer
        # reads only the moments
        assert isinstance(ds, TrainingMoments)
        alone = TrainingMoments(*(getattr(ds, field.name)
                                  for field in dataclasses.fields(TrainingMoments)))
        M = random_matrix((6, 5), 0)
        assert clip_loss(M, alone, 0.7) == clip_loss(M, ds, 0.7)
        assert np.array_equal(
            gradient_descent_minimizer(alone, 0.7, steps=20, step_size=0.5).entries,
            gradient_descent_minimizer(ds, 0.7, steps=20, step_size=0.5).entries)


class TestTargets:
    def test_latent_target_entries(self):
        cfg = GenerativeConfig(sigma_inv=1.0, sigma_spu=0.5, mu_spu=2.0,
                               p_spu=0.95, mode="TheoremExact")
        A = latent_alignment_target(cfg)
        assert A[0, 0] == pytest.approx(2.0)
        assert A[1, 1] == pytest.approx(1.25)
        assert A[0, 1] == A[1, 0] == pytest.approx(2 * 2.0 * 0.95 - 1)

    def test_reported_target_is_the_column_the_margins_read(self):
        # squares by products: ``x ** 2`` calls pow(), which misrounds about
        # one x in a thousand, so an entry of ``** 2`` moves a last bit
        rng = np.random.default_rng(39)
        for sigma_inv in [1.0, 1e150, *(10.0 ** rng.uniform(0.0, 150.0, 20_000)).tolist()]:
            cfg = GenerativeConfig(sigma_inv=sigma_inv, mode="TheoremExact")
            e = max(math.frexp(sigma_inv)[1], 0)
            assert math.ldexp(latent_target_column(cfg)[0], 2 * e) == \
                latent_alignment_target(cfg)[0, 0] == population_alignment_target(cfg)[0, 0]

    def test_population_target_matches_latent_target_at_unit_means(self):
        cfg = GenerativeConfig(mu_inv=1.0, mu_spu=1.0, p_spu=0.8)
        assert np.allclose(latent_alignment_target(cfg),
                           population_alignment_target(cfg))

    @pytest.mark.parametrize("cfg", [
        GenerativeConfig(mu_inv=1.5, mu_spu=2.0, sigma_inv=0.7,
                         sigma_spu=0.3, p_spu=0.9, n=200_000),
        # TheoremExact centres the latents at (y, a) whatever mu_spu is
        GenerativeConfig(mu_spu=2.0, sigma_inv=0.7, sigma_spu=0.3, p_spu=0.95,
                         n=200_000, mode="TheoremExact"),
    ], ids=["Def1", "TheoremExact"])
    def test_population_target_is_second_moment(self, cfg):
        # latents of the training law, drawn CHUNK rows at a time
        z = np.concatenate([
            sample_batch(cfg, chunk_stream(0, STREAM_SAMPLES, index), min(CHUNK, cfg.n - start))[0]
            for index, start in enumerate(range(0, cfg.n, CHUNK))])
        emp = z.T @ z / cfg.n
        assert np.allclose(emp, population_alignment_target(cfg), atol=0.02)

    def test_asymptotic_minimizer_shape_and_scale(self):
        cfg = GenerativeConfig(d_I=6, d_T=5, rho=2.0)
        di, dt = dataset_dictionaries(cfg, 0)
        M = asymptotic_minimizer(cfg, di, dt)
        assert M.shape == (6, 5)
        expected = di.entries @ latent_alignment_target(cfg) @ dt.entries.T / 2.0
        assert np.allclose(M.entries, expected)

    def test_gap_zero_at_target_and_positive_off_target(self):
        cfg = GenerativeConfig(d_I=6, d_T=5, rho=0.5)
        di, dt = dataset_dictionaries(cfg, 0)
        M = asymptotic_minimizer(cfg, di, dt)
        assert alignment_gap(M, cfg, di, dt) == pytest.approx(0.0, abs=1e-12)
        off = AlignmentMatrix(M.entries + 0.1)
        assert alignment_gap(off, cfg, di, dt) > 0

    def test_gap_takes_population_target(self):
        cfg = GenerativeConfig(d_I=6, d_T=5, mu_inv=1.5, rho=0.5)
        di, dt = dataset_dictionaries(cfg, 0)
        core = population_alignment_target(cfg)
        M = AlignmentMatrix(di.entries @ core @ dt.entries.T / cfg.rho)
        assert alignment_gap(M, cfg, di, dt, target=population_alignment_target) \
            == pytest.approx(0.0, abs=1e-12)
        assert alignment_gap(M, cfg, di, dt) > 0

    def test_empirical_gap_shrinks_with_n(self):
        cfg_small = GenerativeConfig(n=1000, sigma_xi=0.01)
        cfg_big = GenerativeConfig(n=16_000, sigma_xi=0.01)
        gaps = []
        for cfg in (cfg_small, cfg_big):
            meds = []
            for seed in (0, 1, 2):
                ds = sample_dataset(cfg, seed)
                M = empirical_minimizer(ds, cfg.rho)
                meds.append(alignment_gap(M, cfg, ds.dict_image, ds.dict_text))
            gaps.append(float(np.median(meds)))
        assert gaps[1] < gaps[0]


class TestZeroShot:
    def setup_method(self):
        self.cfg = GenerativeConfig(d_I=6, d_T=6)
        self.di, self.dt = dataset_dictionaries(self.cfg, 0)
        self.M = asymptotic_minimizer(self.cfg, self.di, self.dt)
        self.prompts = label_prompts(self.dt)

    def test_prompt_vector_is_label_scaled_first_atom(self):
        pos = prompt_embedding(self.dt, 1)
        neg = prompt_embedding(self.dt, -1)
        assert np.allclose(pos.vector, self.dt.entries[:, 0])
        assert np.allclose(neg.vector, -self.dt.entries[:, 0])

    def test_prompt_rejects_other_labels(self):
        for bad in (0, 2, -2):
            with pytest.raises(ConfigError):
                prompt_embedding(self.dt, bad)

    def test_prompts_must_cover_both_labels(self):
        p1 = prompt_embedding(self.dt, 1)
        with pytest.raises(ConfigError):
            zero_shot_predict_batch(self.M, np.zeros((1, 6)), (p1, p1))

    def test_tie_resolves_to_positive(self):
        pred = zero_shot_predict_batch(self.M, np.zeros((3, 6)), self.prompts)
        assert list(pred) == [1, 1, 1]

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_prediction_invariant_to_matrix_scale(self, seed, scale):
        x = np.random.default_rng(seed).standard_normal((20, 6))
        scaled = AlignmentMatrix(scale * self.M.entries)
        assert np.array_equal(zero_shot_predict_batch(self.M, x, self.prompts),
                              zero_shot_predict_batch(scaled, x, self.prompts))

    def test_predicts_sign_of_invariant_latent_when_noiseless(self):
        cfg = GenerativeConfig(d_I=6, d_T=6, sigma_xi=0.0, sigma_spu=0.0,
                               sigma_inv=0.0, n=100)
        ds = sample_dataset(cfg, seed=2)
        # spurious weight is positive but the invariant column dominates
        pred = zero_shot_predict_batch(
            asymptotic_minimizer(cfg, ds.dict_image, ds.dict_text),
            ds.x_image,
            label_prompts(ds.dict_text),
        )
        acc = (pred == ds.labels).mean()
        assert acc == 1.0


def label_prompts(dict_text):
    return (prompt_embedding(dict_text, 1), prompt_embedding(dict_text, -1))


def subgroup_counts(predictions: np.ndarray, labels: np.ndarray,
                    attributes: np.ndarray) -> tuple[int, int, int, int]:
    """(correct_aligned, n_aligned, correct_conflicting, n_conflicting)."""
    correct = predictions == labels
    aligned = attributes == labels
    n_aligned = int(np.count_nonzero(aligned))
    correct_aligned = int(np.count_nonzero(correct & aligned))
    return (correct_aligned, n_aligned,
            int(np.count_nonzero(correct)) - correct_aligned, len(labels) - n_aligned)


def chunked_test_set(M, config, dict_image, dict_text, seed, total):
    """(predictions, labels, attributes) of the p_spu = 1/2 test set as the
    row-wise stream 2 drew it, one STREAM_TEST chunk at a time: the latents,
    then one standard normal per sample for the image noise projected on
    w = M (t+ - t-).  The chunks are concatenated.  Stream 2 is the reference
    that stream 3's law is tested against."""
    pos, neg = label_prompts(dict_text)
    w = M.entries @ (pos.vector - neg.vector)
    noise = config.sigma_xi * np.linalg.norm(w) / math.sqrt(dict_image.d)
    parts = []
    for index, start in enumerate(range(0, total, CHUNK)):
        rng = chunk_stream(seed, STREAM_TEST, index)
        z, y, a = sample_batch(dataclasses.replace(config, p_spu=0.5), rng,
                               min(CHUNK, total - start))
        score = z @ (dict_image.entries.T @ w)
        if config.sigma_xi > 0:
            score += noise * rng.standard_normal(len(y))
        parts.append((np.where(score >= 0, 1, -1), y, a))
    return [np.concatenate(column) for column in zip(*parts)]


def hit_rates(M, config, dict_image, dict_text):
    """P(right) of each (y, a) cell, in the order of _CELLS."""
    return [std_normal_cdf(t) for t in _cell_margins(M, config, dict_image, dict_text)]


def exact_rates(M, config, dict_image, dict_text) -> dict:
    """The exact subgroup rates: the mean of Phi(-t) over the two conflicting
    cells and of Phi(t) over the two aligned cells."""
    t = _cell_margins(M, config, dict_image, dict_text)
    return {"exact_err_conflicting": (std_normal_cdf(-t[1]) + std_normal_cdf(-t[2])) / 2,
            "exact_acc_aligned": (std_normal_cdf(t[0]) + std_normal_cdf(t[3])) / 2}


def stream_v3_draw(rates, seed, total):
    """(sizes, hits) per (y, a) cell, replayed as stream 3 draws them from
    one STREAM_TEST generator: the multinomial cell sizes, then the
    binomial correct counts."""
    rng = substream(seed, STREAM_TEST)
    sizes = rng.multinomial(total, [0.25] * 4)
    return sizes, rng.binomial(sizes, rates)


def rows_from_counts(sizes, hits):
    """(predictions, labels, attributes): each cell's rows, its first
    ``hits`` predicted right and the rest wrong."""
    parts = []
    for (y, a), size, hit in zip(_CELLS, sizes.tolist(), hits.tolist()):
        parts.append((np.repeat([y, -y], [hit, size - hit]),
                      np.full(size, y), np.full(size, a)))
    return [np.concatenate(column) for column in zip(*parts)]


class TestSubgroups:
    def test_counts_and_weighted_mean_identity(self):
        cfg = GenerativeConfig(n=4000)
        ds = sample_dataset(cfg, seed=0)
        M = empirical_minimizer(ds, cfg.rho)
        rep = subgroup_accuracy(M, cfg, ds.dict_image, ds.dict_text, 0, 4000)
        assert rep.n_aligned + rep.n_conflicting == 4000
        recombined = (rep.acc_aligned * rep.n_aligned
                      + rep.acc_conflicting * rep.n_conflicting) / 4000
        assert rep.acc_overall == pytest.approx(recombined, abs=1e-12)

    def test_empty_subgroup_reports_none(self):
        cfg = GenerativeConfig(n=300)
        ds = sample_dataset(cfg, seed=1)
        M = empirical_minimizer(ds, cfg.rho)
        rep = subgroup_accuracy(M, cfg, ds.dict_image, ds.dict_text, 1, 1)
        assert rep.n_aligned + rep.n_conflicting == 1
        rates = (rep.acc_aligned, rep.acc_conflicting)
        assert rates.count(None) == 1
        assert rep.acc_overall in rates

    def test_rejects_an_empty_test_set(self):
        cfg = GenerativeConfig(n=300)
        ds = sample_dataset(cfg, seed=1)
        M = empirical_minimizer(ds, cfg.rho)
        with pytest.raises(InsufficientDataError):
            subgroup_accuracy(M, cfg, ds.dict_image, ds.dict_text, 1, 0)

    def test_json_dict_field_names(self):
        cfg = GenerativeConfig(n=500)
        ds = sample_dataset(cfg, seed=3)
        M = empirical_minimizer(ds, cfg.rho)
        d = _json_data(subgroup_accuracy(M, cfg, ds.dict_image, ds.dict_text, 3, 500))
        assert set(d) == {"acc_overall", "acc_aligned", "acc_conflicting",
                          "n_aligned", "n_conflicting", "exact_err_conflicting",
                          "exact_acc_aligned"}


def mean_of_masks_report(predictions, labels, attributes) -> dict:
    """subgroup_accuracy as it was computed before the counts: bool means."""
    correct = predictions == labels
    aligned = attributes == labels
    return {
        "acc_overall": float(correct.mean()),
        "acc_aligned": float(correct[aligned].mean()) if aligned.any() else None,
        "acc_conflicting": float(correct[~aligned].mean()) if (~aligned).any() else None,
        "n_aligned": int(aligned.sum()),
        "n_conflicting": int((~aligned).sum()),
    }


class TestSubgroupCounts:
    def test_accuracy_equals_mean_of_masks_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            # every tenth test set spans several chunks
            total = int(rng.integers(CHUNK, 3 * CHUNK) if trial % 10 == 0
                        else rng.integers(1, 3000))
            p_spu = float(rng.choice([0.5, 0.8, 0.97, 1.0]))
            sigma_xi = float(rng.choice([0.0, 0.1, 2.0]))
            cfg = GenerativeConfig(n=2, d_I=4, d_T=3, p_spu=p_spu, sigma_xi=sigma_xi)
            dict_image, dict_text = dataset_dictionaries(cfg, seed=trial)
            M = random_matrix((4, 3), seed=trial)
            want = {**mean_of_masks_report(*rows_from_counts(*stream_v3_draw(
                hit_rates(M, cfg, dict_image, dict_text), trial, total))),
                    **exact_rates(M, cfg, dict_image, dict_text)}
            got = subgroup_accuracy(M, cfg, dict_image, dict_text, trial, total)
            assert _json_data(got) == want, trial

    @pytest.mark.parametrize("conflicting,empty", [(False, "acc_conflicting"),
                                                   (True, "acc_aligned")])
    def test_empty_subgroup_is_none(self, conflicting, empty):
        cfg = GenerativeConfig(n=2, d_I=4, d_T=3)
        dict_image, dict_text = dataset_dictionaries(cfg, seed=2)
        M = random_matrix((4, 3), seed=5)
        rates = hit_rates(M, cfg, dict_image, dict_text)
        # the first seed whose one test sample falls in the wanted subgroup
        for seed in itertools.count():
            draw = stream_v3_draw(rates, seed, 1)
            if (draw[0][1] + draw[0][2] == 1) == conflicting:
                break
        got = _json_data(subgroup_accuracy(M, cfg, dict_image, dict_text, seed, 1))
        assert got[empty] is None
        assert got == {**mean_of_masks_report(*rows_from_counts(*draw)),
                       **exact_rates(M, cfg, dict_image, dict_text)}

    def test_counts_partition_the_rows(self):
        ds = sample_dataset(GenerativeConfig(n=777, d_I=4, d_T=3), seed=4)
        M = random_matrix((4, 3), seed=1)
        pred = zero_shot_predict_batch(M, ds.x_image, label_prompts(ds.dict_text))
        correct_aligned, n_aligned, correct_conflicting, n_conflicting = subgroup_counts(
            pred, ds.labels, ds.attributes)
        assert all(type(c) is int for c in (correct_aligned, n_aligned,
                                             correct_conflicting, n_conflicting))
        assert n_aligned + n_conflicting == len(ds)
        assert 0 <= correct_aligned <= n_aligned
        assert 0 <= correct_conflicting <= n_conflicting
        assert correct_aligned + correct_conflicting == int((pred == ds.labels).sum())


def stream_v1_counts(M, config, dict_image, dict_text, seed, total):
    """The four subgroup counts as stream 1 drew them: each chunk's latents,
    then a full d_I-dimensional image embedding scored against the prompts."""
    prompts = label_prompts(dict_text)
    counts = []
    for index, start in enumerate(range(0, total, CHUNK)):
        rng = chunk_stream(seed, STREAM_TEST, index)
        z, y, a = sample_batch(dataclasses.replace(config, p_spu=0.5), rng,
                               min(CHUNK, total - start))
        x_image = embed(z, dict_image, config.sigma_xi, rng)
        counts.append(subgroup_counts(zero_shot_predict_batch(M, x_image, prompts), y, a))
    return [sum(column) for column in zip(*counts)]


def stream_v2_counts(M, config, dict_image, dict_text, seed, total):
    return list(subgroup_counts(*chunked_test_set(M, config, dict_image, dict_text,
                                                  seed, total)))


def stream_v3_counts(M, config, dict_image, dict_text, seed, total):
    report = subgroup_accuracy(M, config, dict_image, dict_text, seed, total)
    return [round(report.acc_aligned * report.n_aligned), report.n_aligned,
            round(report.acc_conflicting * report.n_conflicting), report.n_conflicting]


def trained_matrix(config, seed):
    """(M, dict_image, dict_text): the asymptotic matrix in TheoremExact mode,
    the empirical minimizer of a fresh training set in Def1 mode."""
    if config.mode is Mode.THEOREM_EXACT:
        dict_image, dict_text = dataset_dictionaries(config, seed)
        return asymptotic_minimizer(config, dict_image, dict_text), dict_image, dict_text
    train = sample_dataset(config, seed)
    return empirical_minimizer(train, config.rho), train.dict_image, train.dict_text


NOISY_CONFIGS = [
    GenerativeConfig(sigma_spu=0.5, mu_spu=2.0, p_spu=0.95, sigma_xi=0.1,
                     d_I=64, d_T=64, mode="TheoremExact"),
    GenerativeConfig(sigma_spu=0.5, p_spu=0.9, sigma_xi=0.5, n=2000, d_I=16, d_T=8),
    # noise as large as the latents, seen through a two-dimensional image
    GenerativeConfig(sigma_spu=0.5, mu_spu=2.0, p_spu=0.95, sigma_xi=5.0,
                     d_I=2, d_T=3, mode="TheoremExact"),
]


class TestStreamV2MatchesV1:
    """The stream-2 reference scores the projection of the image noise that
    stream 1 drew in full, so it samples the same predictions: the latents
    are shared, the subgroups are the same, and only the noise draw differs."""

    TOTAL = 2 * CHUNK + 1000

    @pytest.mark.parametrize("config", [
        GenerativeConfig(sigma_spu=0.5, mu_spu=2.0, p_spu=0.95, sigma_xi=0.0,
                         d_I=16, d_T=16, mode="TheoremExact"),
        GenerativeConfig(mu_inv=1.5, sigma_inv=2.0, p_spu=0.8, sigma_xi=0.0,
                         n=500, d_I=8, d_T=5),
    ])
    def test_noiseless_counts_are_equal(self, config):
        for seed in range(10):
            M, dict_image, dict_text = trained_matrix(config, seed)
            assert (stream_v2_counts(M, config, dict_image, dict_text, seed, self.TOTAL)
                    == stream_v1_counts(M, config, dict_image, dict_text, seed, self.TOTAL))

    @pytest.mark.parametrize("config", NOISY_CONFIGS)
    def test_noisy_rates_agree_within_binomial_error(self, config):
        for seed in range(10):
            M, dict_image, dict_text = trained_matrix(config, seed)
            v1 = stream_v1_counts(M, config, dict_image, dict_text, seed, self.TOTAL)
            v2 = stream_v2_counts(M, config, dict_image, dict_text, seed, self.TOTAL)
            assert v2[1::2] == v1[1::2]
            for correct_v1, correct_v2, size in zip(v1[::2], v2[::2], v1[1::2]):
                r1, r2 = correct_v1 / size, correct_v2 / size
                stderr = math.sqrt((r1 * (1 - r1) + r2 * (1 - r2)) / size)
                assert abs(r1 - r2) <= 4 * stderr, (seed, v1, v2)

    def test_rejects_a_matrix_of_other_dims(self):
        config = GenerativeConfig(d_I=4, d_T=3)
        dict_image, dict_text = dataset_dictionaries(config, seed=0)
        with pytest.raises(ShapeError):
            subgroup_accuracy(random_matrix((3, 4), seed=0), config, dict_image,
                              dict_text, 0, 100)


def agree_within_binomial_error(hits_a, size_a, hits_b, size_b) -> bool:
    """Two binomial rates lie within 4 standard errors of their difference,
    taken at the pooled rate."""
    pooled = (hits_a + hits_b) / (size_a + size_b)
    stderr = math.sqrt(pooled * (1 - pooled) * (1 / size_a + 1 / size_b))
    return abs(hits_a / size_a - hits_b / size_b) <= 4 * stderr


class TestStreamV3Law:
    """Stream 3 draws the subgroup counts from the law that the stream-2
    reference samples row by row: the same cell sizes and rates in law, and
    in a noiseless cell the same all-or-nothing outcome."""

    TOTAL = 2 * CHUNK + 1000

    @pytest.mark.parametrize("config", NOISY_CONFIGS)
    def test_sizes_and_rates_agree_with_stream_2(self, config):
        for seed in range(10):
            M, dict_image, dict_text = trained_matrix(config, seed)
            v2 = stream_v2_counts(M, config, dict_image, dict_text, seed, self.TOTAL)
            v3 = stream_v3_counts(M, config, dict_image, dict_text, seed, self.TOTAL)
            assert sum(v3[1::2]) == self.TOTAL
            # n_aligned is Binomial(TOTAL, 1/2) in either stream
            assert agree_within_binomial_error(v2[1], self.TOTAL, v3[1], self.TOTAL), (seed, v2, v3)
            for hits_v2, size_v2, hits_v3, size_v3 in (v2[:2] + v3[:2], v2[2:] + v3[2:]):
                assert agree_within_binomial_error(hits_v2, size_v2, hits_v3, size_v3), (
                    seed, v2, v3)

    @pytest.mark.parametrize("config,matrix", [
        (GenerativeConfig(mu_inv=1.5, mu_spu=2.0, sigma_inv=0.0, sigma_spu=0.0,
                          sigma_xi=0.0, n=2, d_I=5, d_T=4), "random"),
        # every score is 0, which predicts +1: each y = +1 row right, each y = -1 row wrong
        (GenerativeConfig(sigma_inv=0.0, sigma_spu=0.0, sigma_xi=0.3, n=2, d_I=5, d_T=4),
         "zero"),
        # weight 2 mu_spu p_spu - 1 = 1 on both latents: a conflicting image
        # scores 0 up to rounding, and both streams must see the same sign
        (GenerativeConfig(sigma_inv=0.0, sigma_spu=0.0, sigma_xi=0.0, mu_spu=1.0, p_spu=1.0,
                          d_I=5, d_T=4, mode="TheoremExact"), "asymptotic"),
    ], ids=["random", "zero", "tie"])
    def test_noiseless_cells_match_the_reference(self, config, matrix):
        for seed in range(10):
            dict_image, dict_text = dataset_dictionaries(config, seed)
            M = {"random": random_matrix((5, 4), seed),
                 "zero": AlignmentMatrix(np.zeros((5, 4))),
                 "asymptotic": asymptotic_minimizer(config, dict_image, dict_text)}[matrix]
            rates = hit_rates(M, config, dict_image, dict_text)
            predictions, labels, attributes = chunked_test_set(
                M, config, dict_image, dict_text, seed, 3000)
            for (y, a), rate in zip(_CELLS, rates):
                cell = (labels == y) & (attributes == a)
                assert set((predictions[cell] == y).tolist()) == {rate == 1.0}, (seed, y, a)
            if matrix == "zero":
                assert rates == [1.0, 1.0, 0.0, 0.0]
            sizes, _ = stream_v3_draw(rates, seed, 3000)
            right = np.multiply(sizes, rates)
            assert stream_v3_counts(M, config, dict_image, dict_text, seed, 3000) == [
                right[0] + right[3], sizes[0] + sizes[3], right[1] + right[2],
                sizes[1] + sizes[2]]

    def test_no_gaussian_command_starts_a_thread(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n": 5 * CHUNK, "d_I": 8, "d_T": 8}), encoding="utf-8")
        for command in (["verify-theorem", "--mc", str(5 * CHUNK)], ["simulate-gaussian"]):
            assert cli_main([*command, "--config", str(config),
                             "--out", str(tmp_path / "r.json")]) == 0

    def test_peak_memory_does_not_grow_with_total(self):
        config = GenerativeConfig(d_I=64, d_T=64)
        dict_image, dict_text = dataset_dictionaries(config, seed=1)
        M = asymptotic_minimizer(config, dict_image, dict_text)

        def peak(total):
            tracemalloc.start()
            try:
                subgroup_accuracy(M, config, dict_image, dict_text, 1, total)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4 * CHUNK)
        assert peak(2**63 - 1) <= 1.25 * peak(4 * CHUNK)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32),
           scale=st.floats(min_value=8, max_value=35))
    def test_exact_rates_keep_their_tails(self, seed, scale):
        # the latent noise is small against the means, so every margin lies
        # beyond 8 and both rates sit deep in a tail of Phi
        config = GenerativeConfig(mu_spu=0.5, sigma_inv=1 / scale, sigma_spu=0.5 / scale,
                                  sigma_xi=0.0, d_I=4, d_T=3)
        dict_image, dict_text = dataset_dictionaries(config, seed)
        M = AlignmentMatrix(dict_image.entries @ np.array([[1.0, 0.0], [0.0, 0.0]])
                            @ dict_text.entries.T)
        report = subgroup_accuracy(M, config, dict_image, dict_text, seed, 1)
        err, acc = report.exact_err_conflicting, report.exact_acc_aligned
        # the score is z_inv: a conflicting sample is wrong when z_inv's sign flips
        with mpmath.workdps(40):
            tail = mpmath.ncdf(-scale)
            assert err == pytest.approx(float(tail), rel=1e-12)
            assert acc == pytest.approx(float(1 - tail), abs=1e-16)


class TestLatentMargins:
    """latent_margins scores the asymptotic matrix (1/rho) D_I A D_T^T from
    the 2x2 target A alone."""

    @settings(max_examples=80, deadline=None)
    @given(sigma_inv=st.floats(min_value=0.5, max_value=3.0),
           sigma_spu=st.floats(min_value=0.0, max_value=3.0),
           mu_inv=st.floats(min_value=0.5, max_value=2.0),
           mu_spu=st.floats(min_value=0.5, max_value=3.0),
           p_spu=st.floats(min_value=0.5, max_value=1.0),
           sigma_xi=st.floats(min_value=0.01, max_value=5.0),
           rho=st.floats(min_value=0.1, max_value=4.0),
           d_I=st.integers(min_value=2, max_value=64),
           d_T=st.integers(min_value=2, max_value=16),
           mode=st.sampled_from(["TheoremExact", "Def1"]),
           seed=st.integers(min_value=0, max_value=2**32))
    def test_matches_the_matrix_route(self, sigma_inv, sigma_spu, mu_inv, mu_spu, p_spu,
                                      sigma_xi, rho, d_I, d_T, mode, seed):
        config = GenerativeConfig(sigma_inv=sigma_inv, sigma_spu=sigma_spu,
                                  mu_inv=mu_inv if mode == "Def1" else 1.0, mu_spu=mu_spu,
                                  p_spu=p_spu, sigma_xi=sigma_xi, rho=rho, d_I=d_I, d_T=d_T,
                                  mode=mode)
        dict_image, dict_text = dataset_dictionaries(config, seed)
        reference = _cell_margins(asymptotic_minimizer(config, dict_image, dict_text),
                                  config, dict_image, dict_text)
        # the matrix route is exact up to rounding and up to how far its
        # dictionaries are from orthonormal (a few ulp for most draws, up to
        # 1e-13 at d = 2): under 12 of these units off in 30000 random configs
        unit = (sys.float_info.epsilon + _orthonormality_error(dict_image.entries)
                + _orthonormality_error(dict_text.entries))
        for closed, matrix in zip(latent_margins(config), reference):
            assert abs(closed - matrix) <= 32 * unit * max(1.0, abs(matrix))

    @settings(max_examples=80, deadline=None)
    @given(sigma_inv=st.floats(min_value=1e-3, max_value=1e100),
           sigma_spu=st.floats(min_value=0.0, max_value=3.0),
           mu_spu=st.floats(min_value=-0.9, max_value=1e100),
           p_spu=st.floats(min_value=0.5, max_value=1.0),
           sigma_xi=st.floats(min_value=0.0, max_value=5.0),
           d_I=st.integers(min_value=2, max_value=2**20))
    def test_a_power_of_two_keeps_the_bits_of_the_target_column(self, sigma_inv, sigma_spu,
                                                                mu_spu, p_spu, sigma_xi, d_I):
        # column_margins scales its column by a power of two itself, so the
        # one latent_margins divides by first changes no bit of t
        config = GenerativeConfig(sigma_inv=sigma_inv, sigma_spu=sigma_spu, mu_spu=mu_spu,
                                  p_spu=p_spu, sigma_xi=sigma_xi, d_I=d_I, mode="TheoremExact")
        u = [1.0 + sigma_inv * sigma_inv, latent_alignment_target(config)[0, 1]]
        noise = sigma_xi * math.hypot(*u) / math.sqrt(d_I)
        assert latent_margins(config) == column_margins(u, noise, sigma_inv, sigma_spu,
                                                        (1.0, 1.0))

    def test_scales_the_column_before_its_products(self):
        # u_0 sigma_inv = (1 + 1e240) 1e120 passes max float; t = u_0 / (u_0 sigma_inv) does not
        config = GenerativeConfig(sigma_inv=1e120, sigma_spu=0.5, mu_spu=2.0, p_spu=0.95,
                                  sigma_xi=0.0, mode="TheoremExact")
        assert latent_margins(config) == pytest.approx([1e-120] * 4, rel=1e-15, abs=0)


@pytest.mark.parametrize("call,error,named", [
    (lambda: AlignmentMatrix(np.zeros(3)), ShapeError, "must be 2-D"),
    (lambda: zero_shot_predict_batch(
        AlignmentMatrix(np.zeros((4, 4))), np.zeros((2, 3)),
        label_prompts(dataset_dictionaries(GenerativeConfig(d_I=4, d_T=4), 0)[1])),
     ShapeError, "image dim 3"),
    (lambda: gradient_descent_minimizer(small_dataset(), rho=0.0, steps=5, step_size=0.1),
     ConfigError, "rho must be > 0"),
    (lambda: Dictionary(np.zeros((4, 3))), ConfigError, r"dictionary must be \(d, 2\)"),
], ids=["matrix-not-2d", "zero-shot-image-width", "minimizer-rho-zero",
        "dictionary-too-wide"])
def test_library_rejects_malformed_arguments(call, error, named):
    with pytest.raises(error, match=named):
        call()


@pytest.mark.parametrize("make", [
    lambda: AlignmentMatrix(np.eye(2)),
    lambda: Dictionary(np.eye(2)),
    lambda: training_moments(GenerativeConfig(n=25, d_I=4, d_T=3), seed=0),
    lambda: small_dataset(),
    lambda: LinearClassifier(np.eye(2)),
    lambda: sample_discrete_dataset(DiscreteConfig(2, 0.75, 0.9, 10), Split.TRAIN, 0),
    lambda: SimilarityTable(("a", "b"), 3, np.zeros(2)),
    lambda: PromptEmbedding(0, np.ones(2)),
], ids=["AlignmentMatrix", "Dictionary", "TrainingMoments", "SyntheticDataset",
        "LinearClassifier", "DiscreteDataset", "SimilarityTable", "PromptEmbedding"])
def test_array_records_compare_by_identity(make):
    # field-wise == would ask numpy for the truth value of an array
    first, second = make(), make()
    assert first == first and first != second
    assert first in [first] and second not in [first]
    assert hash(first) == hash(first) and len({first, second}) == 2
