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


def _map_chunks(seed: int, tag: int, total: int, fn) -> list:
    """``fn(substream(seed, tag, i), start, stop)`` for each CHUNK-row slice
    ``i`` of ``range(total)``, in chunk order.

    The calls run on up to :func:`worker_count` threads.  Each draws only
    from its own sub-stream, so the results do not depend on the worker count.
    """
    starts = range(0, total, CHUNK)

    def run(index):
        start = starts[index]
        return fn(substream(seed, tag, index), start, min(start + CHUNK, total))

    workers = worker_count()
    if workers == 1 or len(starts) <= 1:
        return [run(index) for index in range(len(starts))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(len(starts))))


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
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
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


def _latent_means(config: GenerativeConfig, y: np.ndarray, a: np.ndarray) -> np.ndarray:
    if config.mode is Mode.THEOREM_EXACT:
        return np.column_stack([y.astype(float), a.astype(float)])
    return np.column_stack([config.mu_inv * y, config.mu_spu * a])


def sample_latents(config: GenerativeConfig, rng: np.random.Generator, size: int):
    """Vectorized draw of (z, y, a) triples.

    y is uniform on {-1, +1}; a equals y with probability p_spu and -y
    otherwise; z is Gaussian around the mode-dependent means.
    """
    y = rng.integers(0, 2, size=size) * 2 - 1
    flip = rng.random(size) < config.p_spu
    a = np.where(flip, y, -y)
    g = rng.standard_normal((size, LATENT_DIM))
    z = _latent_means(config, y, a)
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


def sample_batch(config: GenerativeConfig, dict_image: Dictionary,
                 rng: np.random.Generator, size: int):
    """One chunk of samples embedded into the image space.

    Returns (x_image, y, a, z). Draw order is fixed so results are
    reproducible from the generator state alone.
    """
    z, y, a = sample_latents(config, rng, size)
    return embed(z, dict_image, config.sigma_xi, rng), y, a, z


def dataset_dictionaries(config: GenerativeConfig, seed: int):
    """The pair of dictionaries a dataset with this (config, seed) uses."""
    rng_i = substream(seed, STREAM_DICT_IMAGE)
    rng_t = substream(seed, STREAM_DICT_TEXT)
    dict_image = _dictionary_from_rng(config.d_I, rng_i)
    dict_text = _dictionary_from_rng(config.d_T, rng_t)
    return dict_image, dict_text


@dataclass(frozen=True)
class SyntheticDataset:
    """An immutable seeded collection of paired samples, one row each."""

    config: GenerativeConfig
    seed: int
    x_image: np.ndarray
    x_text: np.ndarray
    labels: np.ndarray
    attributes: np.ndarray
    latents: np.ndarray
    dict_image: Dictionary
    dict_text: Dictionary

    def __len__(self) -> int:
        return self.labels.shape[0]


def sample_dataset(config: GenerativeConfig, seed: int) -> SyntheticDataset:
    """Draw a full dataset: fresh dictionaries plus config.n embedded samples.

    Deterministic in (config, seed): each chunk draws from its own sub-stream,
    the text embedding last, so the output does not depend on scheduling.
    """
    dict_image, dict_text = dataset_dictionaries(config, seed)
    total = config.n
    x_image, x_text = np.empty((total, dict_image.d)), np.empty((total, dict_text.d))
    labels, attributes = np.empty(total, dtype=np.int64), np.empty(total, dtype=np.int64)
    latents = np.empty((total, LATENT_DIM))

    def fill(rng, start, stop):
        rows = slice(start, stop)
        x_image[rows], labels[rows], attributes[rows], z = sample_batch(
            config, dict_image, rng, stop - start)
        latents[rows] = z
        x_text[rows] = embed(z, dict_text, config.sigma_xi, rng)

    _map_chunks(seed, STREAM_SAMPLES, total, fill)
    return SyntheticDataset(config, seed, x_image, x_text, labels, attributes,
                            latents, dict_image, dict_text)


def ood_config(config: GenerativeConfig) -> GenerativeConfig:
    """The test distribution: identical config with p_spu = 1/2."""
    return replace(config, p_spu=0.5)
