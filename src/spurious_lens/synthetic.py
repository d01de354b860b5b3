"""Seeded generation of paired image/text Gaussian datasets.

Every sample carries a binary label ``y`` and a binary attribute ``a`` that
agrees with ``y`` with probability ``p_spu``.  A two-dimensional latent
``z = [z_inv, z_spu]`` is drawn around means determined by ``(y, a)`` and is
embedded into the image and text ambient spaces through per-dataset
orthonormal dictionaries, plus isotropic observation noise.

Two parametrization modes are supported:

* ``Def1``        -- the spurious latent is centered at ``mu_spu * a``.
* ``TheoremExact`` -- the spurious latent is centered at ``a`` itself;
  ``mu_spu`` then enters only through the idealized alignment weight
  ``2 * mu_spu * p_spu - 1`` used by the closed-form classifier.

All randomness is driven by ``numpy.random.Generator`` streams derived from
a single 64-bit seed, with chunked sub-streams so that results never depend
on worker count.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

LATENT_DIM = 2

# Fixed sub-stream tags; chunked draws use spawn_key=(tag, chunk_index).
STREAM_DICT_IMAGE = 0
STREAM_DICT_TEXT = 1
STREAM_SAMPLES = 2
STREAM_TEST = 3

CHUNK = 16384
MAX_SAMPLES = 2**63 - 1  # numpy's largest array dimension


class Mode(str, enum.Enum):
    DEF1 = "Def1"
    THEOREM_EXACT = "TheoremExact"


def substream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Deterministic generator for sub-stream (tag, index) of a root seed."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return np.random.default_rng(ss)


def worker_count() -> int:
    """Worker cap from SPURIOUS_LENS_THREADS; 0 or unset means auto."""
    raw = os.environ.get("SPURIOUS_LENS_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"SPURIOUS_LENS_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise ConfigError(f"SPURIOUS_LENS_THREADS must be >= 0, got {value}")
    if value == 0:
        return min(8, os.cpu_count() or 1)
    return value


def _map_chunks(seed: int, tag: int, total: int, fn):
    """Yield ``fn(substream(seed, tag, i), start, stop)`` for each CHUNK-row
    slice ``i`` of ``range(total)``, in chunk order.

    The calls run on up to :func:`worker_count` threads, with at most two per
    worker submitted and not yet yielded, so the memory held stays bounded at
    any ``total``.  Each call draws only from its own sub-stream, so the
    results do not depend on the worker count.
    """
    starts = range(0, total, CHUNK)

    def run(index):
        start = starts[index]
        return fn(substream(seed, tag, index), start, min(start + CHUNK, total))

    workers = worker_count()
    if workers == 1 or len(starts) <= 1:
        yield from map(run, range(len(starts)))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = []
        for index in range(len(starts)):
            if len(pending) == 2 * workers:
                yield pending.pop(0).result()
            pending.append(pool.submit(run, index))
        yield from (future.result() for future in pending)


@dataclass(frozen=True)
class GenerativeConfig:
    """All knobs of the paired-Gaussian generator plus training hyperparameters."""

    mu_inv: float = 1.0
    mu_spu: float = 1.0
    sigma_inv: float = 1.0
    sigma_spu: float = 0.5
    sigma_xi: float = 0.1
    p_spu: float = 0.9
    n: int = 10_000
    d_I: int = 64
    d_T: int = 64
    rho: float = 1.0
    mode: Mode = Mode.DEF1

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        if not 0.5 <= self.p_spu <= 1.0:
            raise ConfigError(f"p_spu must lie in [0.5, 1.0], got {self.p_spu}")
        for name in ("sigma_inv", "sigma_spu", "sigma_xi"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 2 <= self.n <= MAX_SAMPLES:
            raise ConfigError(f"n must lie in [2, {MAX_SAMPLES}], got {self.n}")
        if self.d_I < LATENT_DIM or self.d_T < LATENT_DIM:
            raise ConfigError(
                f"ambient dims must be >= {LATENT_DIM}, got d_I={self.d_I}, d_T={self.d_T}"
            )
        if self.rho <= 0:
            raise ConfigError(f"rho must be > 0, got {self.rho}")
        if self.mode is Mode.THEOREM_EXACT and self.mu_inv != 1.0:
            raise ConfigError(
                f"TheoremExact mode requires mu_inv = 1, got {self.mu_inv}"
            )

    @property
    def mean_scales(self) -> tuple[float, float]:
        """(m_inv, m_spu), where the latents sit: z has mean (m_inv * y, m_spu * a).
        (1.0, 1.0) in TheoremExact, (mu_inv, mu_spu) as floats in Def1."""
        if self.mode is Mode.THEOREM_EXACT:
            return 1.0, 1.0
        return float(self.mu_inv), float(self.mu_spu)


@dataclass(frozen=True)
class Dictionary:
    """Ambient embedding with orthonormal columns, shape (d, 2)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[1] != LATENT_DIM:
            raise ConfigError(f"dictionary must be (d, {LATENT_DIM}), got {e.shape}")
        gram = e.T @ e
        if np.max(np.abs(gram - np.eye(LATENT_DIM))) > 1e-10:
            raise ConfigError("dictionary columns are not orthonormal")

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def _dictionary_from_rng(d: int, rng: np.random.Generator) -> Dictionary:
    raw = rng.standard_normal((d, LATENT_DIM))
    u = raw[:, 0] / np.linalg.norm(raw[:, 0])
    v = raw[:, 1] - (u @ raw[:, 1]) * u
    v = v / np.linalg.norm(v)
    return Dictionary(np.column_stack([u, v]))


def sample_batch(config: GenerativeConfig, rng: np.random.Generator, size: int):
    """One chunk of (z, y, a) triples, drawn in a fixed order from ``rng``.

    y is uniform on {-1, +1}; a equals y with probability p_spu and -y
    otherwise; z is Gaussian around ``config.mean_scales`` * (y, a) in either mode.
    """
    y = rng.integers(0, 2, size=size) * 2 - 1
    flip = rng.random(size) < config.p_spu
    a = np.where(flip, y, -y)
    g = rng.standard_normal((size, LATENT_DIM))
    z = np.column_stack([y, a]) * config.mean_scales
    z[:, 0] += config.sigma_inv * g[:, 0]
    z[:, 1] += config.sigma_spu * g[:, 1]
    return z, y, a


def embed(z: np.ndarray, dictionary: Dictionary, sigma_xi: float,
          rng: np.random.Generator) -> np.ndarray:
    """x = D z + xi with xi ~ N(0, sigma_xi^2 / d * I_d), row-wise."""
    x = z @ dictionary.entries.T
    if sigma_xi > 0:
        d = dictionary.d
        x = x + rng.standard_normal(x.shape) * (sigma_xi / math.sqrt(d))
    return x


def dataset_dictionaries(config: GenerativeConfig, seed: int):
    """The pair of dictionaries a dataset with this (config, seed) uses."""
    rng_i = substream(seed, STREAM_DICT_IMAGE)
    rng_t = substream(seed, STREAM_DICT_TEXT)
    dict_image = _dictionary_from_rng(config.d_I, rng_i)
    dict_text = _dictionary_from_rng(config.d_T, rng_t)
    return dict_image, dict_text


def _draw_chunk(config: GenerativeConfig, dict_image: Dictionary,
                dict_text: Dictionary, rng: np.random.Generator, size: int):
    """One STREAM_SAMPLES chunk (x_image, x_text, y, a): the latents, then the
    image noise, then the text noise, all from ``rng``."""
    z, y, a = sample_batch(config, rng, size)
    return (embed(z, dict_image, config.sigma_xi, rng),
            embed(z, dict_text, config.sigma_xi, rng), y, a)


def _chunk_sums(x_image: np.ndarray, x_text: np.ndarray):
    """sum X_I, sum X_T and X_I^T X_T: all the minimizer reads of some rows."""
    return x_image.sum(axis=0), x_text.sum(axis=0), x_image.T @ x_text


def _add_in_order(parts) -> list:
    """Element-wise total of a stream of equal-length tuples, added left to right."""
    return functools.reduce(lambda total, part: [t + p for t, p in zip(total, part)], parts)


@dataclass(frozen=True)
class TrainingMoments:
    """A training set as the minimizer reads it: n, the three sums of
    :func:`_chunk_sums` and the dictionaries its rows were embedded with."""

    n: int
    sum_image: np.ndarray
    sum_text: np.ndarray
    matched: np.ndarray
    dict_image: Dictionary
    dict_text: Dictionary


@dataclass(frozen=True)
class SyntheticDataset(TrainingMoments):
    """A training set's moments plus its rows, one paired sample each."""

    x_image: np.ndarray
    x_text: np.ndarray
    labels: np.ndarray
    attributes: np.ndarray

    def __len__(self) -> int:
        return self.n


def sample_dataset(config: GenerativeConfig, seed: int) -> SyntheticDataset:
    """Draw a full dataset: fresh dictionaries plus config.n embedded samples.

    Deterministic in (config, seed): each chunk draws from its own sub-stream,
    fills its own rows and returns their sums, which are added in chunk order
    as :func:`training_moments` adds them, so the two give the same bits.
    """
    dict_image, dict_text = dataset_dictionaries(config, seed)
    total = config.n
    x_image, x_text = np.empty((total, dict_image.d)), np.empty((total, dict_text.d))
    labels, attributes = np.empty(total, dtype=np.int64), np.empty(total, dtype=np.int64)

    def fill(rng, start, stop):
        rows = slice(start, stop)
        x_image[rows], x_text[rows], labels[rows], attributes[rows] = _draw_chunk(
            config, dict_image, dict_text, rng, stop - start)
        return _chunk_sums(x_image[rows], x_text[rows])

    sums = _add_in_order(_map_chunks(seed, STREAM_SAMPLES, total, fill))
    return SyntheticDataset(total, *sums, dict_image, dict_text,
                            x_image, x_text, labels, attributes)


def training_moments(config: GenerativeConfig, seed: int) -> TrainingMoments:
    """The training sums of ``sample_dataset(config, seed)``, equal bit for bit:
    each chunk is drawn as there, reduced to its sums and dropped, and the
    sums are added in chunk order.  Memory is O(workers * CHUNK * d + d^2)."""
    dict_image, dict_text = dataset_dictionaries(config, seed)

    def sums(rng, start, stop):
        return _chunk_sums(*_draw_chunk(config, dict_image, dict_text, rng, stop - start)[:2])

    return TrainingMoments(config.n, *_add_in_order(
        _map_chunks(seed, STREAM_SAMPLES, config.n, sums)), dict_image, dict_text)


def ood_config(config: GenerativeConfig) -> GenerativeConfig:
    """The test distribution: identical config with p_spu = 1/2."""
    return replace(config, p_spu=0.5)
