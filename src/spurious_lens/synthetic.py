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
a single 64-bit seed, so results never depend on worker count.  A dataset's
rows (:func:`sample_dataset`) and the test pass are drawn in chunks, each
from its own sub-stream, on worker threads.  Training reads only n and three
sums of the rows; :func:`training_moments` draws those sums from their exact
joint law on one generator, in the same few milliseconds at any n.
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
STREAM_MOMENTS = 4

# Version of the training sums' random stream; both Gaussian reports echo it.
TRAIN_STREAM = 2

CHUNK = 16384
_EMBED_ROWS = 1024
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
    """x = D z + xi with xi ~ N(0, sigma_xi^2 / d * I_d), row-wise.

    The noise is drawn and added _EMBED_ROWS rows at a time, so no array of
    the result's size is held beside it; a Generator fills normals in
    order, so the bits are those of one draw of the whole shape."""
    x = z @ dictionary.entries.T
    if sigma_xi > 0:
        scale = sigma_xi / math.sqrt(dictionary.d)
        for start in range(0, len(x), _EMBED_ROWS):
            block = x[start:start + _EMBED_ROWS]
            block += rng.standard_normal(block.shape) * scale
    return x


def dataset_dictionaries(config: GenerativeConfig, seed: int):
    """The pair of dictionaries a dataset with this (config, seed) uses."""
    rng_i = substream(seed, STREAM_DICT_IMAGE)
    rng_t = substream(seed, STREAM_DICT_TEXT)
    dict_image = _dictionary_from_rng(config.d_I, rng_i)
    dict_text = _dictionary_from_rng(config.d_T, rng_t)
    return dict_image, dict_text


def _add_in_order(parts) -> list:
    """Element-wise total of a stream of equal-length tuples, added left to right."""
    return functools.reduce(lambda total, part: [t + p for t, p in zip(total, part)], parts)


@dataclass(frozen=True)
class TrainingMoments:
    """A training set as the minimizer reads it: n, sum X_I, sum X_T, the
    matched sum X_I^T X_T and the dictionaries its rows were embedded with."""

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

    Deterministic in (config, seed) for any worker count: each STREAM_SAMPLES
    chunk draws its latents, then the image noise, then the text noise from
    its own sub-stream, fills its own rows and returns their sums, which are
    added in chunk order.
    """
    dict_image, dict_text = dataset_dictionaries(config, seed)
    total = config.n
    x_image, x_text = np.empty((total, dict_image.d)), np.empty((total, dict_text.d))
    labels, attributes = np.empty(total, dtype=np.int64), np.empty(total, dtype=np.int64)

    def fill(rng, start, stop):
        rows = slice(start, stop)
        z, labels[rows], attributes[rows] = sample_batch(config, rng, stop - start)
        x_image[rows] = embed(z, dict_image, config.sigma_xi, rng)
        x_text[rows] = embed(z, dict_text, config.sigma_xi, rng)
        image, text = x_image[rows], x_text[rows]
        return image.sum(axis=0), text.sum(axis=0), image.T @ text

    sums = _add_in_order(_map_chunks(seed, STREAM_SAMPLES, total, fill))
    return SyntheticDataset(total, *sums, dict_image, dict_text,
                            x_image, x_text, labels, attributes)


def _bartlett(rng: np.random.Generator, dof: int, p: int) -> np.ndarray:
    """Upper-triangular R with R^T R ~ Wishart_p(dof, I), dof >= p: sqrt(chi^2)
    of dof, dof - 1, ..., dof - p + 1 degrees on the diagonal and standard
    normals above it (Bartlett 1933)."""
    factor = np.zeros((p, p))
    factor.flat[::p + 1] = np.sqrt(rng.chisquare(dof - np.arange(p)))
    factor[~np.tri(p, dtype=bool)] = rng.standard_normal(p * (p - 1) // 2)
    return factor


def _latent_gram(config: GenerativeConfig, rng: np.random.Generator) -> np.ndarray:
    """C^T C for C = [1, Z], Z the config.n latents drawn as :func:`sample_batch`
    draws them, from O(1) draws.

    The (y, a) cell counts are multinomial.  Within a cell z = mean + S g,
    S = diag(sigma_inv, sigma_spu), with standard-normal g.  A cell of
    m >= 3 rows has sum g = sqrt(m) xi and sum g g^T = (sum g)(sum g)^T / m
    + W, W ~ Wishart_2(m - 1, I) independent of xi; a smaller cell draws its
    rows.
    """
    p = config.p_spu
    counts = rng.multinomial(config.n, [p / 2, (1 - p) / 2, (1 - p) / 2, p / 2])
    scales = np.array([config.sigma_inv, config.sigma_spu], dtype=float)
    gram = np.zeros((LATENT_DIM + 1, LATENT_DIM + 1))
    for signs, m in zip(((1, 1), (1, -1), (-1, 1), (-1, -1)), counts.tolist()):
        if m == 0:
            continue
        if m < 3:
            g = rng.standard_normal((m, LATENT_DIM))
            sum_g, gram_g = g.sum(axis=0), g.T @ g
        else:
            sum_g = math.sqrt(m) * rng.standard_normal(LATENT_DIM)
            factor = _bartlett(rng, m - 1, LATENT_DIM)
            gram_g = np.outer(sum_g, sum_g) / m + factor.T @ factor
        # the cell's rows of C are center + (0, S g_i); spread is their sum
        center = np.array([1.0, *np.multiply(config.mean_scales, signs)])
        spread = np.array([0.0, *(scales * sum_g)])
        gram += m * np.outer(center, center) + np.outer(center, spread) + np.outer(spread, center)
        gram[1:, 1:] += scales[:, None] * gram_g * scales
    return gram


def _noise_sums(config: GenerativeConfig, gram: np.ndarray, rng: np.random.Generator):
    """(C^T N_I, C^T N_T, N_I^T N_T) for C = [1, Z] with C^T C = ``gram`` and
    independent standard-normal N_I (n x d_I) and N_T (n x d_T).

    Take an orthonormal n x r basis Q of a space holding C's columns,
    r = min(n, 3), and Q_perp its complement.  Then C^T N = A (Q^T N) with
    A A^T = C^T C, and N_I^T N_T = G_I^T G_T + E_I^T E_T, where G = Q^T N is
    r x d and E = Q_perp^T N is (n - r) x d, all standard normal.  When
    n - r >= d_I, E_I = U R with R the Bartlett factor of E_I^T E_I and
    U^T E_T a fresh d_I x d_T standard normal; otherwise E is drawn.
    """
    r = min(config.n, LATENT_DIM + 1)
    eigenvalues, vectors = np.linalg.eigh(gram)
    a = vectors[:, -r:] * np.sqrt(np.clip(eigenvalues[-r:], 0.0, None))
    g_image = rng.standard_normal((r, config.d_I))
    g_text = rng.standard_normal((r, config.d_T))
    rest = config.n - r
    if rest >= config.d_I:
        residual = _bartlett(rng, rest, config.d_I).T @ rng.standard_normal(
            (config.d_I, config.d_T))
    else:
        residual = (rng.standard_normal((rest, config.d_I)).T
                    @ rng.standard_normal((rest, config.d_T)))
    return a @ g_image, a @ g_text, g_image.T @ g_text + residual


def training_moments(config: GenerativeConfig, seed: int) -> TrainingMoments:
    """The training sums of a dataset drawn as :func:`sample_dataset` draws
    one, from their exact joint law: O(d_I^2 d_T) work and O(d_I d_T)
    memory at any n.

    With C = [1, Z] and X = Z D^T + s N (s = sigma_xi / sqrt(d)), the sums
    are sum X = D sum z + s (row 0 of C^T N) and X_I^T X_T = D_I Z^T Z D_T^T
    + s_T D_I Z^T N_T + s_I (Z^T N_I)^T D_T^T + s_I s_T N_I^T N_T.  Training
    stream TRAIN_STREAM draws C^T C (:func:`_latent_gram`), then
    the noise sums (:func:`_noise_sums`, none when sigma_xi = 0), from the
    one STREAM_MOMENTS generator, so no worker count can move a bit.  The
    dictionaries are the dataset's; the sums have the dataset's law, not
    its bits.
    """
    dict_image, dict_text = dataset_dictionaries(config, seed)
    rng = substream(seed, STREAM_MOMENTS)
    gram = _latent_gram(config, rng)
    sum_z, gram_z = gram[1:, 0], gram[1:, 1:]
    d_image, d_text = dict_image.entries, dict_text.entries
    sum_image, sum_text = d_image @ sum_z, d_text @ sum_z
    matched = d_image @ gram_z @ d_text.T
    if config.sigma_xi > 0:
        noise_image, noise_text, noise_cross = _noise_sums(config, gram, rng)
        s_image = config.sigma_xi / math.sqrt(dict_image.d)
        s_text = config.sigma_xi / math.sqrt(dict_text.d)
        sum_image = sum_image + s_image * noise_image[0]
        sum_text = sum_text + s_text * noise_text[0]
        matched = (matched + s_text * (d_image @ noise_text[1:])
                   + s_image * (noise_image[1:].T @ d_text.T)
                   + s_image * s_text * noise_cross)
    return TrainingMoments(config.n, sum_image, sum_text, matched, dict_image, dict_text)


def ood_config(config: GenerativeConfig) -> GenerativeConfig:
    """The test distribution: identical config with p_spu = 1/2."""
    return replace(config, p_spu=0.5)
