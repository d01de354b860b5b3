"""Closed-form error/accuracy bounds and their Monte-Carlo verification.

For the Gaussian pair model the zero-shot margin is itself Gaussian, so the
conflicting-subgroup error and aligned-subgroup accuracy have closed forms
through two standardized margins (kappa1, kappa2) and the normal CDF.  The
margins, the bounds and the exact rates of both modes all come from one
helper, ``alignment.column_margins``.  The verifier re-estimates both rates
by simulation and compares, and reports the exact rates next to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .alignment import (alignment_gap, column_margins, empirical_minimizer,
                        latent_margins, latent_target_column, margin_counts, std_normal_cdf,
                        subgroup_accuracy)
from .errors import ConfigError, DomainError, InsufficientDataError
from .synthetic import MAX_SAMPLES, GenerativeConfig, Mode, training_moments

# How far verify_theorem lets each Monte-Carlo rate lie from its bound.
TOL = 0.01


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


def _margins(params: TheoryParams) -> list[float]:
    """The cell margins of the asymptotic matrix at unit means and no image
    noise; they read only the four fields of ``params``."""
    return column_margins(latent_target_column(params), 0.0,
                          params.sigma_inv, params.sigma_spu, (1.0, 1.0))


def kappa1(params: TheoryParams) -> float:
    """Standardized margin on the conflicting subgroup (a != y)."""
    return _margins(params)[1]


def kappa2(params: TheoryParams) -> float:
    """Negated standardized margin on the aligned subgroup (a == y)."""
    return -_margins(params)[0]


class TheoryBounds(NamedTuple):
    kappa1: float
    kappa2: float
    err_lower_conflicting: float
    acc_lower_aligned: float


def theorem_bounds(params: TheoryParams) -> TheoryBounds:
    """Error lower bound on a != y and accuracy lower bound on a == y."""
    t = _margins(params)
    k1, k2 = t[1], -t[0]  # 2 mu_spu p_spu may give inf, and inf / inf is nan
    if not (math.isfinite(k1) and math.isfinite(k2)):
        # an infinite margin is a score whose variance is 0 as a float
        what = ("the margins overflow a float" if math.isnan(k1) or math.isnan(k2)
                else "singular parameters: margin has zero variance")
        raise DomainError(
            f"{what} at sigma_inv={params.sigma_inv:g}, sigma_spu={params.sigma_spu:g}, "
            f"mu_spu={params.mu_spu:g}, p_spu={params.p_spu:g}")
    return TheoryBounds(
        kappa1=k1,
        kappa2=k2,
        err_lower_conflicting=std_normal_cdf(-k1),
        acc_lower_aligned=std_normal_cdf(-k2),
    )


class VerificationReport(NamedTuple):
    """Closed-form bounds next to their Monte-Carlo estimates.

    alignment_gap is the relative Frobenius distance of the trained matrix
    from its asymptotic target; it is only defined when a matrix is actually
    trained (Def1 mode) and is None otherwise.  mc_stderr holds the binomial
    standard errors of (mc_err_conflicting, mc_acc_aligned), and mc_z how
    many of them each estimate lies above its bound (None for a zero stderr).
    exact_err_conflicting and exact_acc_aligned are the two rates the
    Monte-Carlo estimates, in closed form: of the trained matrix in Def1, of
    the asymptotic matrix in TheoremExact, where they equal the bounds only
    at sigma_xi = 0.
    """

    mode: Mode
    bounds: TheoryBounds
    mc_err_conflicting: float
    mc_acc_aligned: float
    mc_samples: int
    mc_stderr: tuple[float, float]
    mc_z: tuple[float | None, float | None]
    exact_err_conflicting: float
    exact_acc_aligned: float
    alignment_gap: float | None
    tol: float
    passed: bool


def verify_theorem(config: GenerativeConfig, mc_samples: int, seed: int) -> VerificationReport:
    """Estimate both subgroup rates by simulation and compare to the bounds.

    TheoremExact mode scores the idealized asymptotic matrix, where the
    bounds are exact, so the check is two-sided; its margins are closed-form
    scalars of the config (``latent_margins``), and no dictionary is drawn.
    Def1 mode first trains the empirical minimizer on
    ``training_moments(config, seed)``, checks one-sided (estimate >= bound -
    TOL) and reports the alignment gap; only at mu_inv = mu_spu = 1 does
    training converge to the bounds' target.

    Training and the test pass each draw from one generator, so the result
    is the same on every run.
    """
    if mc_samples < 1_000:
        raise InsufficientDataError(
            f"mc_samples must be >= 1000 for a meaningful check, got {mc_samples}"
        )
    if mc_samples > MAX_SAMPLES:
        raise ConfigError(f"mc_samples must be <= {MAX_SAMPLES}, got {mc_samples}")
    if config.mean_scales != (1.0, 1.0):
        raise ConfigError(f"Def1 verification requires mu_inv = mu_spu = 1, "
                          f"got mu_inv={config.mu_inv}, mu_spu={config.mu_spu}")

    bounds = theorem_bounds(params_from_config(config))
    gap = None
    if config.mode is Mode.THEOREM_EXACT:
        report = margin_counts(latent_margins(config), seed, mc_samples)
    else:
        train = training_moments(config, seed)
        dicts = (train.dict_image, train.dict_text)
        matrix = empirical_minimizer(train, config.rho)
        gap = alignment_gap(matrix, config, *dicts)
        report = subgroup_accuracy(matrix, config, *dicts, seed, mc_samples)
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
            abs(mc_err - bounds.err_lower_conflicting) <= TOL
            and abs(mc_acc - bounds.acc_lower_aligned) <= TOL
        )
    else:
        passed = (
            mc_err >= bounds.err_lower_conflicting - TOL
            and mc_acc >= bounds.acc_lower_aligned - TOL
        )
    return VerificationReport(
        mode=config.mode,
        bounds=bounds,
        mc_err_conflicting=mc_err,
        mc_acc_aligned=mc_acc,
        mc_samples=mc_samples,
        mc_stderr=stderr,
        mc_z=mc_z,
        exact_err_conflicting=report.exact_err_conflicting,
        exact_acc_aligned=report.exact_acc_aligned,
        alignment_gap=gap,
        tol=TOL,
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
        f"  err a!=y    bound {b.err_lower_conflicting:.4f}"
        f"   exact {report.exact_err_conflicting:.4f}   mc {report.mc_err_conflicting:.4f}"
        f"   stderr {report.mc_stderr[0]:.4f}   z {z[0]}",
        f"  acc a==y    bound {b.acc_lower_aligned:.4f}"
        f"   exact {report.exact_acc_aligned:.4f}   mc {report.mc_acc_aligned:.4f}"
        f"   stderr {report.mc_stderr[1]:.4f}   z {z[1]}",
    ]
    if report.alignment_gap is not None:
        lines.append(f"  alignment gap {report.alignment_gap:.4f}")
    lines.append(f"pass        {'yes' if report.passed else 'no'}")
    return "\n".join(lines)
