import dataclasses
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import (
    ConfigError,
    Dictionary,
    GenerativeConfig,
    Mode,
    ParseError,
    asymptotic_minimizer,
    ood_config,
    sample_dataset,
    subgroup_accuracy,
)
from spurious_lens import alignment, synthetic
from spurious_lens.cli import _json_data
from spurious_lens.inputs import load_config
from spurious_lens.synthetic import (
    CHUNK,
    MAX_SAMPLES,
    STREAM_SAMPLES,
    STREAM_TEST,
    _map_chunks,
    dataset_dictionaries,
    embed,
    sample_batch,
    substream,
    training_moments,
)

NUMERIC_FIELDS = ("mu_inv", "mu_spu", "sigma_inv", "sigma_spu", "sigma_xi", "p_spu",
                  "n", "d_I", "d_T", "rho")
INT_FIELDS = ("n", "d_I", "d_T")


def training_latents(cfg, seed):
    """The latents sample_dataset drew, replayed: each STREAM_SAMPLES chunk
    draws them first from its own generator."""
    return np.concatenate([
        sample_batch(cfg, substream(seed, STREAM_SAMPLES, index), min(CHUNK, cfg.n - start))[0]
        for index, start in enumerate(range(0, cfg.n, CHUNK))])


class TestConfig:
    def test_defaults_valid(self):
        cfg = GenerativeConfig()
        assert cfg.mode is Mode.DEF1

    @pytest.mark.parametrize("field,value", [
        ("p_spu", 0.4),
        ("p_spu", 1.1),
        ("sigma_inv", -0.1),
        ("sigma_spu", -1.0),
        ("sigma_xi", -0.5),
        ("n", 1),
        ("n", MAX_SAMPLES + 1),
        ("d_I", 1),
        ("d_T", 1),
        ("rho", 0.0),
        ("rho", -1.0),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigError):
            GenerativeConfig(**{field: value})

    def test_theorem_exact_requires_unit_mu_inv(self):
        GenerativeConfig(mode="TheoremExact", mu_inv=1.0)
        with pytest.raises(ConfigError):
            GenerativeConfig(mode="TheoremExact", mu_inv=1.5)

    def test_mode_accepts_string(self):
        assert GenerativeConfig(mode="TheoremExact").mode is Mode.THEOREM_EXACT

    def test_json_round_trip(self):
        cfg = GenerativeConfig(mu_spu=2.0, p_spu=0.95, mode="TheoremExact")
        again = load_config(GenerativeConfig, json.dumps(_json_data(cfg)))
        assert again == cfg

    def test_from_json_rejects_unknown_field(self):
        with pytest.raises(ParseError):
            load_config(GenerativeConfig, '{"p_spu": 0.9, "bogus": 1}')

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(ParseError):
            load_config(GenerativeConfig, "{not json")

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ParseError):
            load_config(GenerativeConfig, "[1, 2]")

    @pytest.mark.parametrize("field,value", [
        *((name, True) for name in NUMERIC_FIELDS),
        *((name, 100.0) for name in INT_FIELDS),
        ("p_spu", float("nan")),
        ("mode", "Def2"),
    ])
    def test_loader_rejects_mistyped_field(self, field, value):
        with pytest.raises(ParseError, match=rf"\b{field}\b"):
            load_config(GenerativeConfig, json.dumps({field: value}))

    def test_loader_keeps_integer_for_float_field(self):
        cfg = load_config(GenerativeConfig, '{"sigma_xi": 1, "mode": "TheoremExact"}')
        assert type(cfg.sigma_xi) is int
        assert cfg.mode is Mode.THEOREM_EXACT


class TestDictionary:
    def test_columns_orthonormal(self):
        for d in dataset_dictionaries(GenerativeConfig(d_I=16, d_T=5), seed=0):
            gram = d.entries.T @ d.entries
            assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_deterministic_in_seed(self):
        cfg = GenerativeConfig(d_I=8, d_T=8)
        a, a_text = dataset_dictionaries(cfg, seed=5)
        b, _ = dataset_dictionaries(cfg, seed=5)
        c, _ = dataset_dictionaries(cfg, seed=6)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)
        assert not np.array_equal(a.entries, a_text.entries)

    def test_rejects_small_dimension(self):
        # one ambient dimension cannot hold two orthonormal columns
        with pytest.raises(ConfigError):
            Dictionary(np.array([[1.0, 0.0]]))

    def test_rejects_non_orthonormal_entries(self):
        with pytest.raises(ConfigError):
            Dictionary(np.ones((4, 2)))


class TestLatents:
    def test_attribute_matches_label_at_rate_p_spu(self):
        cfg = GenerativeConfig(p_spu=0.9)
        rng = substream(0, 99)
        _, y, a = sample_batch(cfg, rng, 100_000)
        rate = (a == y).mean()
        # binomial 3 sigma around 0.9 at n = 1e5
        assert 0.894 <= rate <= 0.906

    def test_def1_latent_means(self):
        cfg = GenerativeConfig(mu_inv=3.0, mu_spu=2.0, sigma_inv=0.0,
                               sigma_spu=0.0, p_spu=0.8)
        z, y, a = sample_batch(cfg, substream(1, 99), 500)
        assert np.allclose(z[:, 0], 3.0 * y)
        assert np.allclose(z[:, 1], 2.0 * a)

    def test_integer_means_draw_the_float_latents(self):
        # JSON integers reach the config as int; the latents stay float
        drawn = [sample_batch(GenerativeConfig(mu_inv=mu_inv, mu_spu=mu_spu),
                              substream(1, 99), 500)[0]
                 for mu_inv, mu_spu in ((3, 2), (3.0, 2.0))]
        assert np.array_equal(*drawn)

    def test_theorem_exact_latent_means_ignore_mu_spu(self):
        cfg = GenerativeConfig(mu_spu=2.0, sigma_inv=0.0, sigma_spu=0.0,
                               mode="TheoremExact")
        z, y, a = sample_batch(cfg, substream(1, 99), 500)
        assert np.allclose(z[:, 0], y)
        assert np.allclose(z[:, 1], a)

    @pytest.mark.parametrize("mu_spu", [1.0, 2.0, 3])
    def test_theorem_exact_mean_scales_are_one(self, mu_spu):
        cfg = GenerativeConfig(mu_spu=mu_spu, mode="TheoremExact")
        assert cfg.mean_scales == (1.0, 1.0)

    def test_def1_mean_scales_are_float_means(self):
        scales = GenerativeConfig(mu_inv=3, mu_spu=2).mean_scales
        assert scales == (3.0, 2.0)
        assert all(type(m) is float for m in scales)

    def test_labels_roughly_balanced(self):
        cfg = GenerativeConfig()
        _, y, _ = sample_batch(cfg, substream(3, 99), 100_000)
        assert abs(y.mean()) < 0.02


class TestDataset:
    def test_shapes_and_length(self):
        cfg = GenerativeConfig(n=50, d_I=6, d_T=5)
        ds = sample_dataset(cfg, seed=0)
        assert len(ds) == 50
        assert ds.x_image.shape == (50, 6)
        assert ds.x_text.shape == (50, 5)
        assert set(np.unique(ds.labels)) <= {-1, 1}

    def test_deterministic_in_seed(self):
        cfg = GenerativeConfig(n=200, d_I=8, d_T=8)
        a = sample_dataset(cfg, seed=4)
        b = sample_dataset(cfg, seed=4)
        assert np.array_equal(a.x_image, b.x_image)
        assert np.array_equal(a.x_text, b.x_text)
        assert np.array_equal(a.labels, b.labels)
        c = sample_dataset(cfg, seed=5)
        assert not np.array_equal(a.x_image, c.x_image)

    def test_chunk_prefix_stable_across_total_size(self):
        # growing the dataset must not change the earlier chunks
        cfg_small = GenerativeConfig(n=CHUNK + 50, d_I=4, d_T=4)
        cfg_large = GenerativeConfig(n=2 * CHUNK, d_I=4, d_T=4)
        small = sample_dataset(cfg_small, seed=7)
        large = sample_dataset(cfg_large, seed=7)
        assert np.array_equal(small.x_image[:CHUNK], large.x_image[:CHUNK])
        assert np.array_equal(small.labels[:CHUNK], large.labels[:CHUNK])

    def test_noiseless_embedding_is_exact_dictionary_image(self):
        cfg = GenerativeConfig(n=20, d_I=6, d_T=4, sigma_xi=0.0)
        ds = sample_dataset(cfg, seed=2)
        z = training_latents(cfg, seed=2)
        assert np.allclose(ds.x_image, z @ ds.dict_image.entries.T)
        assert np.allclose(ds.x_text, z @ ds.dict_text.entries.T)

    def test_observation_noise_scale(self):
        cfg = GenerativeConfig(n=4000, d_I=64, d_T=64, sigma_xi=0.5)
        ds = sample_dataset(cfg, seed=3)
        resid = ds.x_image - training_latents(cfg, seed=3) @ ds.dict_image.entries.T
        # per-coordinate std is sigma_xi / sqrt(d)
        assert np.std(resid) == pytest.approx(0.5 / 8.0, rel=0.05)


class TestEmbed:
    def test_blockwise_noise_is_the_one_shot_draw(self):
        rows, d, sigma_xi = 2 * synthetic._EMBED_ROWS + 77, 16, 0.7
        dictionary, _ = dataset_dictionaries(GenerativeConfig(d_I=d, d_T=4), seed=3)
        z = np.random.default_rng(0).standard_normal((rows, 2))
        rng, twin = substream(5, STREAM_SAMPLES), substream(5, STREAM_SAMPLES)
        x = embed(z, dictionary, sigma_xi, rng)
        one_shot = (z @ dictionary.entries.T
                    + twin.standard_normal((rows, d)) * (sigma_xi / math.sqrt(d)))
        assert np.array_equal(x, one_shot)
        assert rng.standard_normal() == twin.standard_normal()

    def test_dataset_chunk_holds_no_noise_array(self, monkeypatch):
        # a dataset's image and text rows are 33.6 MB at n = CHUNK and
        # d = 128, and one chunk's embedding before it is copied in 16.8 MB
        # more; drawing the noise of a whole embedding at once peaked at 67.6 MB
        monkeypatch.setenv("SPURIOUS_LENS_THREADS", "1")
        d = 128
        tracemalloc.start()
        try:
            sample_dataset(GenerativeConfig(n=CHUNK, d_I=d, d_T=d), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 3 * CHUNK * d * 8


class TestOOD:
    def test_ood_config_only_changes_p_spu(self):
        cfg = GenerativeConfig(p_spu=0.95, mu_spu=2.0, mode="TheoremExact")
        ood = ood_config(cfg)
        assert ood.p_spu == 0.5
        assert dataclasses.replace(ood, p_spu=cfg.p_spu) == cfg

    def test_ood_batches_deterministic_and_distinct_from_train(self):
        cfg = GenerativeConfig(n=500, d_I=4, d_T=4)
        ds = sample_dataset(cfg, seed=9)
        a, b = (sample_batch(ood_config(cfg), substream(9, STREAM_TEST), 500)
                for _ in range(2))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], training_latents(cfg, seed=9))
        M = asymptotic_minimizer(cfg, ds.dict_image, ds.dict_text)
        assert (subgroup_accuracy(M, cfg, ds.dict_image, ds.dict_text, 9, 500)
                == subgroup_accuracy(M, cfg, ds.dict_image, ds.dict_text, 9, 500))

    def test_ood_attribute_rate_is_half(self):
        cfg = GenerativeConfig(p_spu=1.0, n=2)
        ds = sample_dataset(cfg, seed=0)
        M = asymptotic_minimizer(cfg, ds.dict_image, ds.dict_text)
        report = subgroup_accuracy(M, cfg, ds.dict_image, ds.dict_text, 0, 50_000)
        assert abs(report.n_aligned / 50_000 - 0.5) < 0.01


COLUMNS = ("x_image", "x_text", "labels", "attributes")


class TestThreadedSampling:
    """Several chunks on several workers give the serial results, bit for bit."""

    def draw(self, monkeypatch, threads: str):
        calls = []
        sample = synthetic.sample_batch

        def recording(*args, **kwargs):
            calls.append(threading.get_ident())
            return sample(*args, **kwargs)

        monkeypatch.setenv("SPURIOUS_LENS_THREADS", threads)
        monkeypatch.setattr(synthetic, "sample_batch", recording)
        monkeypatch.setattr(alignment, "sample_batch", recording)
        cfg = GenerativeConfig(n=5 * CHUNK + 3, d_I=4, d_T=3)
        train = sample_dataset(cfg, seed=11)
        M = asymptotic_minimizer(cfg, train.dict_image, train.dict_text)
        report = subgroup_accuracy(M, cfg, train.dict_image, train.dict_text, 11, 3 * CHUNK + 1)
        monkeypatch.undo()
        # six training chunks, then four test chunks
        assert len(calls) == 10
        return train, report, set(calls)

    def test_one_and_eight_workers_agree(self, monkeypatch):
        serial = self.draw(monkeypatch, "1")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self.draw(monkeypatch, "8")
        finally:
            sys.setswitchinterval(interval)
        main = threading.get_ident()
        assert serial[2] == {main}
        assert main not in threaded[2]
        for name in COLUMNS:
            assert np.array_equal(getattr(serial[0], name), getattr(threaded[0], name)), name
        assert serial[1] == threaded[1]

    def test_rows_are_the_chunks_in_order(self, monkeypatch):
        monkeypatch.setenv("SPURIOUS_LENS_THREADS", "8")
        cfg = GenerativeConfig(n=2 * CHUNK + 5, d_I=4, d_T=3)
        train = sample_dataset(cfg, seed=3)
        parts = []
        for index, start in enumerate(range(0, cfg.n, CHUNK)):
            # one generator per chunk: latents, then the image, then the text noise
            rng = substream(3, STREAM_SAMPLES, index)
            z, y, a = sample_batch(cfg, rng, min(CHUNK, cfg.n - start))
            x_image = embed(z, train.dict_image, cfg.sigma_xi, rng)
            x_text = embed(z, train.dict_text, cfg.sigma_xi, rng)
            parts.append((x_image, x_text, y, a))
        for name, column in zip(COLUMNS, zip(*parts)):
            want = np.concatenate(column)
            got = getattr(train, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name


class TestBoundedChunkMap:
    """The chunk map keeps at most two chunks per worker in flight, so the
    test pass holds O(workers * CHUNK) at any size, and training, which
    draws no rows, O(d^2) at any n."""

    def test_window_holds_and_results_come_in_order(self, monkeypatch):
        monkeypatch.setenv("SPURIOUS_LENS_THREADS", "2")
        started = []

        def fn(rng, start, stop):
            started.append(start)
            if start == 0:
                # an unbounded map would start every other chunk meanwhile
                time.sleep(0.05)
            return start

        results = []
        for result in _map_chunks(0, 99, 50 * CHUNK, fn):
            assert len(started) <= len(results) + 2 * 2
            results.append(result)
        assert results == list(range(0, 50 * CHUNK, CHUNK))

    def test_training_peak_memory_does_not_grow_with_n(self, monkeypatch):
        monkeypatch.setenv("SPURIOUS_LENS_THREADS", "2")

        def peak(chunks):
            tracemalloc.start()
            try:
                training_moments(GenerativeConfig(n=chunks * CHUNK, d_I=8, d_T=8), seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)
        # the largest of three small runs, in case one ran its chunks one at a time
        small = max(peak(4) for _ in range(3))
        assert peak(40) <= 1.25 * small


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    size=st.integers(min_value=1, max_value=300),
)
def test_sample_batch_deterministic_for_any_seed(seed, size):
    cfg = GenerativeConfig(n=2, d_I=4, d_T=3)
    a = sample_batch(cfg, substream(seed, 2), size)
    b = sample_batch(cfg, substream(seed, 2), size)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert a[0].shape == (size, 2)
