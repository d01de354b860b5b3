import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import (
    AlignmentMatrix,
    ConfigError,
    GenerativeConfig,
    InsufficientDataError,
    Mode,
    NonconvergenceError,
    ShapeError,
    alignment_gap,
    asymptotic_minimizer,
    clip_loss,
    clip_loss_gradient,
    empirical_minimizer,
    gradient_descent_minimizer,
    latent_alignment_target,
    ood_config,
    population_alignment_target,
    prompt_embedding,
    sample_dataset,
    subgroup_accuracy,
    zero_shot_predict_batch,
)
from spurious_lens.alignment import subgroup_counts
from spurious_lens.cli import _json_data, main as cli_main
from spurious_lens.synthetic import (
    CHUNK,
    STREAM_SAMPLES,
    STREAM_TEST,
    TrainingMoments,
    dataset_dictionaries,
    embed,
    sample_batch,
    substream,
    training_moments,
)


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
        with pytest.raises(NonconvergenceError) as info:
            gradient_descent_minimizer(ds, 1.0, steps=100, step_size=3.0)
        assert info.value.step == 10

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
    """sample_dataset adds its chunks' sums in chunk order; they are the whole
    arrays' sums for any worker count.  training_moments draws sums of the
    same law with the same dictionaries (tests/test_training_law.py)."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n", [CHUNK, 2 * CHUNK, 5 * CHUNK + 7])
    def test_dataset_minimizer_is_the_whole_array_one(self, monkeypatch, n, threads):
        monkeypatch.setenv("SPURIOUS_LENS_THREADS", threads)
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
        # the training latents, replayed: each chunk draws them first
        z = np.concatenate([
            sample_batch(cfg, substream(0, STREAM_SAMPLES, index), min(CHUNK, cfg.n - start))[0]
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


def chunked_test_set(M, config, dict_image, dict_text, seed, total):
    """(predictions, labels, attributes) of the p_spu = 1/2 test set, drawn one
    STREAM_TEST chunk at a time as stream 2 draws it: the latents, then one
    standard normal per sample for the image noise projected on
    w = M (t+ - t-).  The chunks are concatenated."""
    pos, neg = label_prompts(dict_text)
    w = M.entries @ (pos.vector - neg.vector)
    noise = config.sigma_xi * np.linalg.norm(w) / math.sqrt(dict_image.d)
    parts = []
    for index, start in enumerate(range(0, total, CHUNK)):
        rng = substream(seed, STREAM_TEST, index)
        z, y, a = sample_batch(ood_config(config), rng, min(CHUNK, total - start))
        score = z @ (dict_image.entries.T @ w)
        if config.sigma_xi > 0:
            score += noise * rng.standard_normal(len(y))
        parts.append((np.where(score >= 0, 1, -1), y, a))
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
                          "n_aligned", "n_conflicting"}


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
    def test_accuracy_equals_mean_of_masks_bit_for_bit(self, monkeypatch):
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
            want = mean_of_masks_report(
                *chunked_test_set(M, cfg, dict_image, dict_text, trial, total))
            for threads in ("1", "8"):
                monkeypatch.setenv("SPURIOUS_LENS_THREADS", threads)
                got = subgroup_accuracy(M, cfg, dict_image, dict_text, trial, total)
                assert _json_data(got) == want, (trial, threads)

    @pytest.mark.parametrize("conflicting,empty", [(False, "acc_conflicting"),
                                                   (True, "acc_aligned")])
    def test_empty_subgroup_is_none(self, conflicting, empty):
        cfg = GenerativeConfig(n=2, d_I=4, d_T=3)
        dict_image, dict_text = dataset_dictionaries(cfg, seed=2)
        M = random_matrix((4, 3), seed=5)
        # the first seed whose one test sample falls in the wanted subgroup
        for seed in itertools.count():
            test_set = chunked_test_set(M, cfg, dict_image, dict_text, seed, 1)
            _, labels, attributes = test_set
            if (attributes[0] != labels[0]) == conflicting:
                break
        got = _json_data(subgroup_accuracy(M, cfg, dict_image, dict_text, seed, 1))
        assert got[empty] is None
        assert got == mean_of_masks_report(*test_set)

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
        rng = substream(seed, STREAM_TEST, index)
        z, y, a = sample_batch(ood_config(config), rng, min(CHUNK, total - start))
        x_image = embed(z, dict_image, config.sigma_xi, rng)
        counts.append(subgroup_counts(zero_shot_predict_batch(M, x_image, prompts), y, a))
    return [sum(column) for column in zip(*counts)]


def stream_v2_counts(M, config, dict_image, dict_text, seed, total):
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


class TestStreamV2MatchesV1:
    """Stream 2 scores the projection of the image noise that stream 1 drew in
    full, so it samples the same predictions: the latents are shared, the
    subgroups are the same, and only the noise draw differs."""

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

    @pytest.mark.parametrize("config", [
        GenerativeConfig(sigma_spu=0.5, mu_spu=2.0, p_spu=0.95, sigma_xi=0.1,
                         d_I=64, d_T=64, mode="TheoremExact"),
        GenerativeConfig(sigma_spu=0.5, p_spu=0.9, sigma_xi=0.5, n=2000, d_I=16, d_T=8),
        # noise as large as the latents, seen through a two-dimensional image
        GenerativeConfig(sigma_spu=0.5, mu_spu=2.0, p_spu=0.95, sigma_xi=5.0,
                         d_I=2, d_T=3, mode="TheoremExact"),
    ])
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

    def test_one_and_eight_workers_write_the_same_bytes(self, tmp_path, monkeypatch):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"sigma_xi": 0.5, "n": 2 * CHUNK + 7,
                                      "d_I": 8, "d_T": 8}), encoding="utf-8")
        outputs = {}
        for threads in ("1", "8"):
            monkeypatch.setenv("SPURIOUS_LENS_THREADS", threads)
            for command in (["verify-theorem", "--mc", str(3 * CHUNK + 1)],
                            ["simulate-gaussian"]):
                out = tmp_path / f"{command[0]}-{threads}.json"
                cli_main([*command, "--config", str(config), "--seed", "4",
                          "--out", str(out)])
                outputs.setdefault(command[0], set()).add(out.read_bytes())
        assert all(len(variants) == 1 for variants in outputs.values())

    def test_rejects_a_matrix_of_other_dims(self):
        config = GenerativeConfig(d_I=4, d_T=3)
        dict_image, dict_text = dataset_dictionaries(config, seed=0)
        with pytest.raises(ShapeError):
            subgroup_accuracy(random_matrix((3, 4), seed=0), config, dict_image,
                              dict_text, 0, 100)
