import ast
import dataclasses
import hashlib
import inspect
import json
import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import GenerativeConfig, sample_dataset
from spurious_lens import discrete, synthetic
from spurious_lens.alignment import subgroup_accuracy
from spurious_lens.cli import _json_data
from spurious_lens.errors import ConfigError, ParseError
from spurious_lens.inputs import load_config
from spurious_lens.synthetic import (
    MAX_SAMPLES,
    STREAM_SAMPLES,
    STREAM_TEST,
    Dictionary,
    Mode,
    dataset_dictionaries,
    embed,
    sample_batch,
    substream,
    training_moments,
)

from asymptotic import asymptotic_minimizer

NUMERIC_FIELDS = ("mu_inv", "mu_spu", "sigma_inv", "sigma_spu", "sigma_xi", "p_spu",
                  "n", "d_I", "d_T", "rho")
INT_FIELDS = ("n", "d_I", "d_T")
CHUNK = 1 << 14  # rows; the pinned digests and peak bounds below are taken at multiples of it


def training_latents(cfg, seed):
    """The latents sample_dataset drew, replayed: its STREAM_SAMPLES
    generator draws them first."""
    return sample_batch(cfg, substream(seed, STREAM_SAMPLES), cfg.n)[0]


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

    @pytest.mark.parametrize("kwargs,named", [
        (dict(d_I=MAX_SAMPLES + 1), "d_I must be <= 9223372036854775807"),
        (dict(d_T=10**20), "d_T must be <= 9223372036854775807"),
    ])
    def test_rejects_sizes_numpy_cannot_represent(self, kwargs, named):
        with pytest.raises(ConfigError, match=named):
            GenerativeConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,named", [
        (dict(d_I=10**18), "a d_I x d_T matrix would take"),
        (dict(d_I=2, d_T=MAX_SAMPLES // 16 + 1), "a d_I x d_T matrix would take"),
        (dict(d_I=2**30, d_T=2), "the d_I x d_I Bartlett factor would take"),
    ])
    def test_dictionaries_refuse_arrays_numpy_cannot_represent(self, kwargs, named):
        # the config admits them: TheoremExact verification builds no d-sized
        # array, and every path that does starts with the dictionaries
        config = GenerativeConfig(**kwargs)
        with pytest.raises(ConfigError, match=named):
            synthetic.dataset_dictionaries(config, seed=0)

    @pytest.mark.parametrize("d_I,d_T", [(2**30 - 1, 2), (2, MAX_SAMPLES // 16)])
    def test_admits_the_largest_representable_matrices(self, d_I, d_T):
        # a config allocates nothing; each of these has one matrix of just
        # under 2**63 bytes
        cfg = GenerativeConfig(d_I=d_I, d_T=d_T)
        assert max(cfg.d_I * cfg.d_T, cfg.d_I ** 2) * 8 <= MAX_SAMPLES

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

    @pytest.mark.parametrize("text,message", [
        ("[" * 100_000 + "]" * 100_000, "^config is not valid JSON: "),
        ('{"n": 100, "n": 5}', "^config field n is given more than once$"),
    ], ids=["deep-nesting", "repeated-field"])
    def test_from_json_names_the_fault(self, text, message):
        with pytest.raises(ParseError, match=message):
            load_config(GenerativeConfig, text)

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

    @pytest.mark.parametrize("seed", [2119101, 2426893], ids=["image", "text"])
    def test_nearly_parallel_draws_come_out_orthonormal(self, seed):
        # one of these d = 2 dictionaries draws two raw columns within 3e-7 rad
        # of parallel, which one Gram-Schmidt pass leaves up to 5e-9 from orthogonal
        for d in dataset_dictionaries(GenerativeConfig(d_I=2, d_T=2), seed):
            assert np.abs(d.entries.T @ d.entries - np.eye(2)).max() <= 1e-15

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

    def test_dataset_chunk_holds_no_noise_array(self):
        # a dataset's image and text rows are 33.6 MB at n = CHUNK and
        # d = 128, and the draw peaks 5% above them; drawing the noise of a
        # whole embedding at once peaked at 67.6 MB, and copying the
        # embeddings into preallocated rows at 52 MB
        d = 128
        tracemalloc.start()
        try:
            sample_dataset(GenerativeConfig(n=CHUNK, d_I=d, d_T=d), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 2 * CHUNK * d * 8


class TestOOD:
    def test_ood_batches_deterministic_and_distinct_from_train(self):
        cfg = GenerativeConfig(n=500, d_I=4, d_T=4)
        ds = sample_dataset(cfg, seed=9)
        a, b = (sample_batch(dataclasses.replace(cfg, p_spu=0.5), substream(9, STREAM_TEST), 500)
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


class TestRowSampling:
    """sample_dataset draws every row from one STREAM_SAMPLES generator, on
    the calling thread."""

    def test_all_rows_are_one_draw_on_the_calling_thread(self, monkeypatch):
        calls = []
        sample = synthetic.sample_batch

        def recording(config, rng, size):
            calls.append((threading.get_ident(), size))
            return sample(config, rng, size)

        monkeypatch.setattr(synthetic, "sample_batch", recording)
        cfg = GenerativeConfig(n=5 * CHUNK + 3, d_I=4, d_T=3)
        train = sample_dataset(cfg, seed=11)
        M = asymptotic_minimizer(cfg, train.dict_image, train.dict_text)
        subgroup_accuracy(M, cfg, train.dict_image, train.dict_text, 11, 3 * CHUNK + 1)
        # one training draw; the test pass draws its counts, not rows
        assert calls == [(threading.get_ident(), cfg.n)]

    def test_rows_are_the_latents_then_the_image_then_the_text_noise(self):
        cfg = GenerativeConfig(n=2 * CHUNK + 5, d_I=4, d_T=3)
        train = sample_dataset(cfg, seed=3)
        rng = substream(3, STREAM_SAMPLES)
        z, y, a = sample_batch(cfg, rng, cfg.n)
        x_image = embed(z, train.dict_image, cfg.sigma_xi, rng)
        x_text = embed(z, train.dict_text, cfg.sigma_xi, rng)
        for name, want in zip(COLUMNS, (x_image, x_text, y, a)):
            got = getattr(train, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name

    # sha256 over the rows and sums of sample_dataset(GenerativeConfig(n=n,
    # d_I=16, d_T=12, sigma_xi=0.3), seed=7)
    @pytest.mark.parametrize("n,digest", [
        (2, "2de9eeb90b47a78c6f72e9d3f62f8b89992d8022883662ec1ed3d264420b6d23"),
        (CHUNK, "5f0409dc34fc2c810d25d0238c03f20269a5dcc08055aa3c0bca7e47485ff4fd"),
        (5 * CHUNK + 3, "3d3267c3f833581beb38ed405bc6cb587c43a09b0278609c4d70f7f9d57e22ba"),
    ], ids=["2", "CHUNK", "5CHUNK+3"])
    def test_rows_and_sums_keep_their_bits(self, n, digest):
        ds = sample_dataset(GenerativeConfig(n=n, d_I=16, d_T=12, sigma_xi=0.3), seed=7)
        h = hashlib.sha256()
        for name in (*COLUMNS, "sum_image", "sum_text", "matched"):
            array = np.ascontiguousarray(getattr(ds, name))
            h.update(name.encode())
            h.update(str(array.dtype).encode())
            h.update(str(array.shape).encode())
            h.update(array.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("value", ["1", "-1", "two"])
    def test_former_thread_variable_is_ignored(self, monkeypatch, value):
        # SPURIOUS_LENS_THREADS is no longer read; "-1" and "two" were input errors
        cfg = GenerativeConfig(n=CHUNK + 3, d_I=4, d_T=3)
        monkeypatch.delenv("SPURIOUS_LENS_THREADS", raising=False)
        unset = sample_dataset(cfg, seed=5)
        monkeypatch.setenv("SPURIOUS_LENS_THREADS", value)
        got = sample_dataset(cfg, seed=5)
        for name in (*COLUMNS, "sum_image", "sum_text", "matched"):
            assert np.array_equal(getattr(got, name), getattr(unset, name)), name


class TestTrainingMoments:
    def test_training_peak_memory_does_not_grow_with_n(self):
        """training_moments draws no rows, so it holds O(d^2) memory at any
        n; sample_dataset keeps every row it draws."""

        def peak(n):
            tracemalloc.start()
            try:
                training_moments(GenerativeConfig(n=n, d_I=8, d_T=8), seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(CHUNK)
        assert peak(MAX_SAMPLES) <= 1.25 * peak(4 * CHUNK)


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


class TestStreamLayout:
    """Every draw of the package comes from substream(seed, tag), and no two
    tags name the same stream."""

    SOURCES = sorted(
        (Path(__file__).resolve().parents[1] / "src" / "spurious_lens").glob("*.py"))

    def test_stream_tags_are_distinct(self):
        tags = {f"synthetic.{name}": value for name, value in vars(synthetic).items()
                if name.startswith("STREAM_")}
        tags.update({f"discrete.{name}": value for name, value in vars(discrete).items()
                     if name.startswith("_TAG_")})
        assert {"synthetic.STREAM_SAMPLES", "discrete._TAG_TRAIN"} <= set(tags)
        assert len(set(tags.values())) == len(tags), tags
        assert set(discrete._SPLIT_TAGS.values()) <= set(tags.values())

    def test_every_substream_call_passes_a_seed_and_a_tag(self):
        assert list(inspect.signature(substream).parameters) == ["seed", "tag"]
        calls = [(path.name, node) for path in self.SOURCES
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call)
                 and "substream" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
        assert {name for name, _ in calls} == {"alignment.py", "discrete.py", "synthetic.py"}
        tag = re.compile(r"STREAM_[A-Z_]+|_TAG_[A-Z_]+|_SPLIT_TAGS\[\w+\]")
        wrong = [f"{name}:{node.lineno}" for name, node in calls
                 if len(node.args) != 2 or node.keywords
                 or isinstance(node.args[0], ast.Starred)
                 or not tag.fullmatch(ast.unparse(node.args[1]))]
        assert not wrong
