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
a single 64-bit seed, so results are reproducible bit for bit.  A dataset's
rows (:func:`sample_dataset`) are drawn from one sub-stream.  Training reads
only n and three sums of the rows; :func:`training_moments` draws those sums
from their exact joint law on one generator, in the same few milliseconds at
any n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

LATENT_DIM = 2

# Fixed sub-stream tags; each tag seeds one generator, spawn_key=(tag, 0).
STREAM_DICT_IMAGE = 0
STREAM_DICT_TEXT = 1
STREAM_SAMPLES = 2
STREAM_TEST = 3
STREAM_MOMENTS = 4

# Version of the training sums' random stream; both Gaussian reports echo it.
TRAIN_STREAM = 2

# The (y, a) cells, in the order their sizes are drawn; a == y in cells 0 and 3.
_CELLS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_EMBED_ROWS = 1024
MAX_SAMPLES = 2**63 - 1  # numpy's largest array dimension, and its largest array in bytes


def check_sizes(dims: dict[str, int], arrays: dict[str, int]) -> None:
    """Reject, as a ConfigError, a size numpy cannot represent: a dimension
    in ``dims`` above MAX_SAMPLES, or an array in ``arrays``, given by its
    count of float64 cells, of more than MAX_SAMPLES bytes.  numpy raises
    ValueError, not MemoryError, for either."""
    for name, size in dims.items():
        if size > MAX_SAMPLES:
            raise ConfigError(f"{name} must be <= {MAX_SAMPLES}, got {size}")
    for name, cells in arrays.items():
        if 8 * cells > MAX_SAMPLES:
            raise ConfigError(f"{name} would take {8 * cells} bytes, more than "
                              f"numpy's largest array ({MAX_SAMPLES} bytes)")


class Mode(str, enum.Enum):
    DEF1 = "Def1"
    THEOREM_EXACT = "TheoremExact"


def substream(seed: int, tag: int) -> np.random.Generator:
    """Deterministic generator for sub-stream ``tag`` of a root seed."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, 0))
    return np.random.default_rng(ss)


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
        check_sizes({"d_I": self.d_I, "d_T": self.d_T}, {})
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


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Ambient embedding with orthonormal columns, shape (d, 2)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[1] != LATENT_DIM:
            raise ConfigError(f"dictionary must be (d, {LATENT_DIM}), got {e.shape}")
        if _orthonormality_error(e) > _ORTHONORMAL_TOL:
            raise ConfigError("dictionary columns are not orthonormal")

    @property
    def d(self) -> int:
        return self.entries.shape[0]


# The largest |D^T D - I| entry a Dictionary admits.
_ORTHONORMAL_TOL = 1e-10


def _orthonormality_error(entries: np.ndarray) -> float:
    return float(np.max(np.abs(entries.T @ entries - np.eye(LATENT_DIM))))


def _dictionary_from_rng(d: int, rng: np.random.Generator) -> Dictionary:
    """Gram-Schmidt on a Gaussian draw.  Nearly parallel raw columns (4 of
    5.4 million draws at d = 2) keep an overlap past _ORTHONORMAL_TOL after
    one pass; only they get a second."""
    raw = rng.standard_normal((d, LATENT_DIM))
    u = raw[:, 0] / np.linalg.norm(raw[:, 0])
    entries = np.column_stack([u, raw[:, 1]])
    for _ in range(2):
        v = entries[:, 1] - (u @ entries[:, 1]) * u
        entries[:, 1] = v / np.linalg.norm(v)
        if _orthonormality_error(entries) <= _ORTHONORMAL_TOL:
            break
    return Dictionary(entries)


def _cell_probabilities(p: float) -> list[float]:
    """P(y, a) of each cell of _CELLS: y is uniform and a = y with
    probability p."""
    return [p / 2, (1 - p) / 2, (1 - p) / 2, p / 2]


def sample_batch(config: GenerativeConfig, rng: np.random.Generator, size: int):
    """``size`` (z, y, a) triples, drawn in a fixed order from ``rng``.

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
    """The pair of dictionaries a dataset with this (config, seed) uses.

    Every path that builds a d-sized array starts here, so here the arrays
    that numpy cannot represent are refused (TheoremExact verification
    builds none)."""
    check_sizes({}, {"a d_I x d_T matrix": config.d_I * config.d_T,
                     "the d_I x d_I Bartlett factor": config.d_I ** 2})
    rng_i = substream(seed, STREAM_DICT_IMAGE)
    rng_t = substream(seed, STREAM_DICT_TEXT)
    dict_image = _dictionary_from_rng(config.d_I, rng_i)
    dict_text = _dictionary_from_rng(config.d_T, rng_t)
    return dict_image, dict_text


@dataclass(frozen=True, eq=False)
class TrainingMoments:
    """A training set as the minimizer reads it: n, sum X_I, sum X_T, the
    matched sum X_I^T X_T and the dictionaries its rows were embedded with."""

    n: int
    sum_image: np.ndarray
    sum_text: np.ndarray
    matched: np.ndarray
    dict_image: Dictionary
    dict_text: Dictionary


@dataclass(frozen=True, eq=False)
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

    Deterministic in (config, seed): the one STREAM_SAMPLES generator draws
    the latents of all rows, then the image noise, then the text noise.
    """
    dict_image, dict_text = dataset_dictionaries(config, seed)
    rng = substream(seed, STREAM_SAMPLES)
    z, labels, attributes = sample_batch(config, rng, config.n)
    x_image = embed(z, dict_image, config.sigma_xi, rng)
    x_text = embed(z, dict_text, config.sigma_xi, rng)
    return SyntheticDataset(config.n, x_image.sum(axis=0), x_text.sum(axis=0),
                            x_image.T @ x_text, dict_image, dict_text,
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
    counts = rng.multinomial(config.n, _cell_probabilities(config.p_spu))
    scales = np.array([config.sigma_inv, config.sigma_spu], dtype=float)
    gram = np.zeros((LATENT_DIM + 1, LATENT_DIM + 1))
    for signs, m in zip(_CELLS, counts.tolist()):
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
        with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
            gram += (m * np.outer(center, center) + np.outer(center, spread)
                     + np.outer(spread, center))
            gram[1:, 1:] += scales[:, None] * gram_g * scales
    if not np.all(np.isfinite(gram)):
        raise DomainError(
            f"the latent Gram matrix C^T C overflows a float at mu_inv={config.mu_inv:g}, "
            f"mu_spu={config.mu_spu:g}, sigma_inv={config.sigma_inv:g}, "
            f"sigma_spu={config.sigma_spu:g}")
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
    one STREAM_MOMENTS generator.  The dictionaries are the dataset's; the
    sums have the dataset's law, not its bits.
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
