"""Closed-form error/accuracy bounds and their Monte-Carlo verification.

For the Gaussian pair model the zero-shot margin is itself Gaussian, so the
conflicting-subgroup error and aligned-subgroup accuracy have closed forms
through two standardized margins (kappa1, kappa2) and the normal CDF.  The
verifier re-estimates both rates by simulation and compares.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .alignment import (
    alignment_gap,
    asymptotic_minimizer,
    empirical_minimizer,
    subgroup_accuracy,
)
from .errors import ConfigError, DomainError, InsufficientDataError
from .synthetic import MAX_SAMPLES, GenerativeConfig, Mode, dataset_dictionaries, training_moments

_SQRT2 = math.sqrt(2.0)
_NORMAL = statistics.NormalDist()


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if math.isnan(x):
        raise DomainError("std_normal_cdf is undefined for NaN")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_inv_cdf(p: float) -> float:
    """Inverse standard normal CDF; defined only on the open unit interval."""
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise DomainError(f"inverse normal CDF needs p in (0, 1), got {p}")
    return _NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class TheoryParams:
    """The four scalars the closed-form margins depend on."""

    sigma_inv: float
    sigma_spu: float
    mu_spu: float
    p_spu: float

    def __post_init__(self):
        if not self.sigma_inv > 0:
            raise ConfigError(f"sigma_inv must be > 0, got {self.sigma_inv}")
        if self.sigma_spu < 0:
            raise ConfigError(f"sigma_spu must be >= 0, got {self.sigma_spu}")
        if not 0.5 <= self.p_spu <= 1.0:
            raise ConfigError(f"p_spu must lie in [0.5, 1.0], got {self.p_spu}")


def params_from_config(config: GenerativeConfig) -> TheoryParams:
    return TheoryParams(
        sigma_inv=config.sigma_inv,
        sigma_spu=config.sigma_spu,
        mu_spu=config.mu_spu,
        p_spu=config.p_spu,
    )


def _margin_scale(params: TheoryParams) -> float:
    s2 = params.sigma_inv ** 2
    w = 2.0 * params.mu_spu * params.p_spu - 1.0
    den = math.sqrt((1.0 + s2) ** 2 * s2 + w ** 2 * params.sigma_spu ** 2)
    if den == 0.0:
        raise DomainError("singular parameters: margin has zero variance")
    return den


def kappa1(params: TheoryParams) -> float:
    """Standardized margin on the conflicting subgroup (a != y)."""
    s2 = params.sigma_inv ** 2
    return (s2 + 2.0 - 2.0 * params.mu_spu * params.p_spu) / _margin_scale(params)


def kappa2(params: TheoryParams) -> float:
    """Negated standardized margin on the aligned subgroup (a == y)."""
    s2 = params.sigma_inv ** 2
    return (-2.0 * params.mu_spu * params.p_spu - s2) / _margin_scale(params)


@dataclass(frozen=True)
class TheoryBounds:
    kappa1: float
    kappa2: float
    err_lower_conflicting: float
    acc_lower_aligned: float


def theorem_bounds(params: TheoryParams) -> TheoryBounds:
    """Error lower bound on a != y and accuracy lower bound on a == y."""
    k1 = kappa1(params)
    k2 = kappa2(params)
    return TheoryBounds(
        kappa1=k1,
        kappa2=k2,
        err_lower_conflicting=1.0 - std_normal_cdf(k1),
        acc_lower_aligned=1.0 - std_normal_cdf(k2),
    )


@dataclass(frozen=True)
class VerificationReport:
    """Closed-form bounds next to their Monte-Carlo estimates.

    alignment_gap is the relative Frobenius distance of the trained matrix
    from its asymptotic target; it is only defined when a matrix is actually
    trained (Def1 mode) and is None otherwise.  mc_stderr holds the binomial
    standard errors of (mc_err_conflicting, mc_acc_aligned), and mc_z how
    many of them each estimate lies above its bound (None for a zero stderr).
    """

    mode: Mode
    bounds: TheoryBounds
    mc_err_conflicting: float
    mc_acc_aligned: float
    mc_samples: int
    mc_stderr: tuple[float, float]
    mc_z: tuple[float | None, float | None]
    alignment_gap: float | None
    tol: float
    passed: bool


def verify_theorem(config: GenerativeConfig, mc_samples: int, seed: int,
                   tol: float = 0.01) -> VerificationReport:
    """Estimate both subgroup rates by simulation and compare to the bounds.

    TheoremExact mode scores with the idealized asymptotic matrix, where the
    bounds are exact, so the check is two-sided.  Def1 mode first trains the
    empirical minimizer on ``training_moments(config, seed)``, checks
    one-sided (estimate >= bound - tol) and reports the alignment gap; only
    at mu_inv = mu_spu = 1 does training converge to the bounds' target.

    Chunked sub-seeds keep the result identical for any worker count.
    """
    if mc_samples < 1_000:
        raise InsufficientDataError(
            f"mc_samples must be >= 1000 for a meaningful check, got {mc_samples}"
        )
    if mc_samples > MAX_SAMPLES:
        raise ConfigError(f"mc_samples must be <= {MAX_SAMPLES}, got {mc_samples}")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    if config.mean_scales != (1.0, 1.0):
        raise ConfigError(f"Def1 verification requires mu_inv = mu_spu = 1, "
                          f"got mu_inv={config.mu_inv}, mu_spu={config.mu_spu}")

    bounds = theorem_bounds(params_from_config(config))
    gap = None
    dict_image, dict_text = dataset_dictionaries(config, seed)
    if config.mode is Mode.THEOREM_EXACT:
        matrix = asymptotic_minimizer(config, dict_image, dict_text)
    else:
        matrix = empirical_minimizer(training_moments(config, seed), config.rho)
        gap = alignment_gap(matrix, config, dict_image, dict_text)
    report = subgroup_accuracy(matrix, config, dict_image, dict_text, seed, mc_samples)
    n_aligned, n_conflicting = report.n_aligned, report.n_conflicting
    if n_aligned == 0 or n_conflicting == 0:
        raise InsufficientDataError("a Monte-Carlo subgroup came out empty")

    mc_err = 1.0 - report.acc_conflicting
    mc_acc = report.acc_aligned
    stderr = (
        math.sqrt(mc_err * (1.0 - mc_err) / n_conflicting),
        math.sqrt(mc_acc * (1.0 - mc_acc) / n_aligned),
    )
    mc_z = tuple((mc - bound) / se if se > 0 else None for mc, bound, se in zip(
        (mc_err, mc_acc), (bounds.err_lower_conflicting, bounds.acc_lower_aligned), stderr))
    if config.mode is Mode.THEOREM_EXACT:
        passed = (
            abs(mc_err - bounds.err_lower_conflicting) <= tol
            and abs(mc_acc - bounds.acc_lower_aligned) <= tol
        )
    else:
        passed = (
            mc_err >= bounds.err_lower_conflicting - tol
            and mc_acc >= bounds.acc_lower_aligned - tol
        )
    return VerificationReport(
        mode=config.mode,
        bounds=bounds,
        mc_err_conflicting=mc_err,
        mc_acc_aligned=mc_acc,
        mc_samples=mc_samples,
        mc_stderr=stderr,
        mc_z=mc_z,
        alignment_gap=gap,
        tol=tol,
        passed=passed,
    )


def format_report_table(config: GenerativeConfig, report: VerificationReport) -> str:
    """Fixed-order human-readable table: parameters, margins, bound vs MC."""
    b = report.bounds
    z = ["n/a" if value is None else f"{value:+.2f}" for value in report.mc_z]
    lines = [
        "parameters",
        f"  mode        {config.mode.value}",
        f"  sigma_inv   {config.sigma_inv:g}",
        f"  sigma_spu   {config.sigma_spu:g}",
        f"  mu_spu      {config.mu_spu:g}",
        f"  p_spu       {config.p_spu:g}",
        f"  mc_samples  {report.mc_samples}",
        "margins",
        f"  kappa1      {b.kappa1:+.6f}",
        f"  kappa2      {b.kappa2:+.6f}",
        "bound vs monte-carlo",
        f"  err a!=y    bound {b.err_lower_conflicting:.4f}   mc {report.mc_err_conflicting:.4f}"
        f"   stderr {report.mc_stderr[0]:.4f}   z {z[0]}",
        f"  acc a==y    bound {b.acc_lower_aligned:.4f}   mc {report.mc_acc_aligned:.4f}"
        f"   stderr {report.mc_stderr[1]:.4f}   z {z[1]}",
    ]
    if report.alignment_gap is not None:
        lines.append(f"  alignment gap {report.alignment_gap:.4f}")
    lines.append(f"pass        {'yes' if report.passed else 'no'}")
    return "\n".join(lines)
