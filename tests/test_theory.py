import dataclasses
import json
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import GenerativeConfig, kappa1, kappa2, std_normal_cdf, verify_theorem
from spurious_lens import synthetic
from spurious_lens.alignment import latent_margins, margin_counts, subgroup_accuracy
from spurious_lens.cli import _serialize
from spurious_lens.errors import ConfigError, DomainError, InsufficientDataError
from spurious_lens.evaluation import std_normal_inv_cdf
from spurious_lens.synthetic import dataset_dictionaries
from spurious_lens.theory import (TOL, TheoryParams, format_report_table, params_from_config,
                                  theorem_bounds)

from asymptotic import asymptotic_minimizer

# Frozen from a 50-digit mpmath evaluation of 0.5*erfc(-x/sqrt(2)).
PHI_196 = 0.97500210485177963
PHI_1 = 0.84134474606854293

ACCEPT = TheoryParams(sigma_inv=1.0, sigma_spu=0.5, mu_spu=2.0, p_spu=0.95)
# Hand substitution at the parameters above: numerators 3 - 3.8 and -4.8,
# denominator sqrt(4 + 1.96) = sqrt(5.96); digits frozen via mpmath.
KAPPA1_ACCEPT = -0.32769276820761611
KAPPA2_ACCEPT = -1.9661566092456967
ERR_BOUND_ACCEPT = 0.62842801405784676
ACC_BOUND_ACCEPT = 0.97535973852969346


def phi_oracle(x: float) -> float:
    return float(mpmath.ncdf(x))


class TestNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_symmetry_identity(self, x):
        assert std_normal_cdf(-x) + std_normal_cdf(x) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_196(self):
        assert std_normal_cdf(1.96) == pytest.approx(PHI_196, abs=1e-12)
        assert std_normal_cdf(1.96) == pytest.approx(0.97500, abs=1e-5)

    def test_value_at_one(self):
        assert std_normal_cdf(1.0) == pytest.approx(PHI_1, abs=1e-12)

    def test_against_high_precision_oracle_on_grid(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert abs(std_normal_cdf(float(x)) - phi_oracle(float(x))) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=8.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_monotone_nondecreasing(self, x, bump):
        assert std_normal_cdf(x + bump) >= std_normal_cdf(x)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_range(self, x):
        assert 0.0 <= std_normal_cdf(x) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=8.0, max_value=37.0))
    def test_tails_against_high_precision_oracle(self, x):
        # erfc keeps the lower tail's relative precision; the upper tail is
        # 1 - Phi(-x), which rounds to the nearest double
        assert std_normal_cdf(-x) == pytest.approx(phi_oracle(-x), rel=1e-13)
        assert std_normal_cdf(x) == phi_oracle(x)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))

    def test_inverse_round_trip(self):
        for p in (0.01, 0.25, 0.5, 0.9, 0.999):
            assert std_normal_cdf(std_normal_inv_cdf(p)) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_inverse_domain(self, p):
        with pytest.raises(DomainError):
            std_normal_inv_cdf(p)


class TestParams:
    def test_rejects_zero_sigma_inv(self):
        with pytest.raises(ConfigError):
            TheoryParams(sigma_inv=0.0, sigma_spu=0.5, mu_spu=1.0, p_spu=0.9)

    def test_rejects_negative_sigma_spu(self):
        with pytest.raises(ConfigError):
            TheoryParams(sigma_inv=1.0, sigma_spu=-0.1, mu_spu=1.0, p_spu=0.9)

    @pytest.mark.parametrize("p", [0.49, 1.01])
    def test_rejects_out_of_range_p(self, p):
        with pytest.raises(ConfigError):
            TheoryParams(sigma_inv=1.0, sigma_spu=0.5, mu_spu=1.0, p_spu=p)

    def test_from_config(self):
        cfg = GenerativeConfig(sigma_inv=1.0, sigma_spu=0.5, mu_spu=2.0,
                               p_spu=0.95, mode="TheoremExact")
        assert params_from_config(cfg) == ACCEPT


class TestKappas:
    def test_acceptance_values(self):
        assert kappa1(ACCEPT) == pytest.approx(KAPPA1_ACCEPT, abs=1e-12)
        assert kappa2(ACCEPT) == pytest.approx(KAPPA2_ACCEPT, abs=1e-12)
        # the coarser 4-decimal renderings used by the acceptance gate
        assert kappa1(ACCEPT) == pytest.approx(-0.32769, abs=1e-4)
        assert kappa2(ACCEPT) == pytest.approx(-1.96616, abs=1e-4)

    def test_kappa1_vanishes_when_numerator_does(self):
        # mu_spu * p_spu = (sigma_inv^2 + 2) / 2
        params = TheoryParams(sigma_inv=1.0, sigma_spu=0.4, mu_spu=2.0, p_spu=0.75)
        assert kappa1(params) == pytest.approx(0.0, abs=1e-14)

    def test_unit_coupling_reduction(self):
        # 2 mu_spu p_spu = 1 with sigma_inv = 1 collapses the denominator
        # to (1 + sigma_inv^2) sigma_inv, so kappa1 = 1 and kappa2 = -1
        params = TheoryParams(sigma_inv=1.0, sigma_spu=0.7, mu_spu=1.0, p_spu=0.5)
        assert kappa1(params) == pytest.approx(1.0, abs=1e-14)
        assert kappa2(params) == pytest.approx(-1.0, abs=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(
        sigma_inv=st.floats(min_value=0.05, max_value=4.0),
        sigma_spu=st.floats(min_value=0.0, max_value=4.0),
        mu_spu=st.floats(min_value=-0.9, max_value=5.0),
        p_spu=st.floats(min_value=0.5, max_value=1.0),
    )
    def test_kappa2_below_kappa1(self, sigma_inv, sigma_spu, mu_spu, p_spu):
        # numerators differ by 2 + 4 mu p > 0 whenever mu p > -1/2
        if mu_spu * p_spu <= -0.5:
            return
        params = TheoryParams(sigma_inv=sigma_inv, sigma_spu=sigma_spu,
                              mu_spu=mu_spu, p_spu=p_spu)
        assert kappa2(params) < kappa1(params)


class TestBounds:
    def test_zero_kappa1_gives_half_error_bound(self):
        params = TheoryParams(sigma_inv=1.0, sigma_spu=0.4, mu_spu=2.0, p_spu=0.75)
        assert theorem_bounds(params).err_lower_conflicting == pytest.approx(0.5)

    def test_acceptance_values(self):
        b = theorem_bounds(ACCEPT)
        assert b.err_lower_conflicting == pytest.approx(ERR_BOUND_ACCEPT, abs=1e-12)
        assert b.acc_lower_aligned == pytest.approx(ACC_BOUND_ACCEPT, abs=1e-12)
        assert b.err_lower_conflicting == pytest.approx(0.6284, abs=5e-5)
        assert b.acc_lower_aligned == pytest.approx(0.9754, abs=5e-5)

    def test_bounds_match_oracle_cdf(self):
        b = theorem_bounds(ACCEPT)
        assert b.err_lower_conflicting == pytest.approx(
            1 - phi_oracle(KAPPA1_ACCEPT), abs=1e-12)
        assert b.acc_lower_aligned == pytest.approx(
            1 - phi_oracle(KAPPA2_ACCEPT), abs=1e-12)

    def test_far_upper_tail_keeps_its_relative_precision(self):
        # kappa1 = 10.94: 1 - Phi(kappa1) rounds to 0.0, the bound is 3.85e-28
        params = TheoryParams(sigma_inv=0.1, sigma_spu=0.1, mu_spu=0.5, p_spu=0.9)
        b = theorem_bounds(params)
        with mpmath.workdps(40):
            want = float(mpmath.ncdf(-mpmath.mpf(b.kappa1)))
        assert b.err_lower_conflicting == pytest.approx(want, rel=1e-12, abs=0)

    def test_bounds_match_high_precision_oracle_on_random_draws(self):
        # small scales push kappa1 far into the upper tail, where 1 - Phi(k)
        # loses every digit
        rng = np.random.default_rng(1)
        for _ in range(200):
            params = TheoryParams(
                sigma_inv=float(rng.uniform(0.05, 2.0)),
                sigma_spu=float(rng.uniform(0.05, 2.0)),
                mu_spu=float(rng.uniform(0.0, 3.0)),
                p_spu=float(rng.uniform(0.5, 1.0)),
            )
            b = theorem_bounds(params)
            with mpmath.workdps(40):
                err = float(mpmath.ncdf(-mpmath.mpf(b.kappa1)))
                acc = float(mpmath.ncdf(-mpmath.mpf(b.kappa2)))
            assert b.err_lower_conflicting == pytest.approx(err, rel=1e-12, abs=0), params
            assert b.acc_lower_aligned == pytest.approx(acc, rel=1e-12, abs=0), params

    def test_fields_in_unit_interval_on_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            params = TheoryParams(
                sigma_inv=float(rng.uniform(0.05, 3.0)),
                sigma_spu=float(rng.uniform(0.0, 3.0)),
                mu_spu=float(rng.uniform(-2.0, 4.0)),
                p_spu=float(rng.uniform(0.5, 1.0)),
            )
            b = theorem_bounds(params)
            assert 0.0 <= b.err_lower_conflicting <= 1.0
            assert 0.0 <= b.acc_lower_aligned <= 1.0

    def test_error_bound_increases_with_coupling(self):
        # raising mu_spu * p_spu above 1/2 strictly lowers kappa1
        base = dict(sigma_inv=1.0, sigma_spu=0.5, p_spu=0.9)
        grid = [0.6, 0.9, 1.3, 1.8, 2.4]
        errs = [theorem_bounds(TheoryParams(mu_spu=m, **base)).err_lower_conflicting
                for m in grid]
        assert all(a < b for a, b in zip(errs, errs[1:]))


EXACT_CFG = GenerativeConfig(sigma_inv=1.0, sigma_spu=0.5, mu_spu=2.0,
                             p_spu=0.95, sigma_xi=0.1, mode="TheoremExact")


class TestExactRates:
    """subgroup_accuracy reports the zero-shot rates of any matrix in closed
    form; at sigma_xi = 0 and the asymptotic matrix they are the bounds."""

    @settings(max_examples=80, deadline=None)
    @given(sigma_inv=st.floats(min_value=0.5, max_value=3.0),
           sigma_spu=st.floats(min_value=0.0, max_value=3.0),
           mu_spu=st.floats(min_value=0.5, max_value=3.0),
           p_spu=st.floats(min_value=0.5, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32))
    def test_noiseless_asymptotic_rates_are_the_bounds(self, sigma_inv, sigma_spu,
                                                       mu_spu, p_spu, seed):
        cfg = GenerativeConfig(sigma_inv=sigma_inv, sigma_spu=sigma_spu, mu_spu=mu_spu,
                               p_spu=p_spu, sigma_xi=0.0, d_I=16, d_T=16,
                               mode="TheoremExact")
        dict_image, dict_text = dataset_dictionaries(cfg, seed)
        report = subgroup_accuracy(asymptotic_minimizer(cfg, dict_image, dict_text),
                                   cfg, dict_image, dict_text, seed, 1)
        err, acc = report.exact_err_conflicting, report.exact_acc_aligned
        bounds = theorem_bounds(params_from_config(cfg))
        # the bounds are within about 1 unit of 2**-52 of the true value; the
        # rates reach their margins through the rounded matrix and the
        # dictionaries' products, under 9 units off in 80000 random configs
        ulps = 16 * sys.float_info.epsilon
        assert abs(err - bounds.err_lower_conflicting) <= ulps
        assert abs(acc - bounds.acc_lower_aligned) <= ulps

    def test_verify_theorem_reports_the_exact_rates_of_its_matrix(self):
        cfg = GenerativeConfig(sigma_xi=1.0, d_I=4, d_T=4, mu_spu=2.0, p_spu=0.95,
                               mode="TheoremExact")
        rep = verify_theorem(cfg, mc_samples=200_000, seed=0)
        dict_image, dict_text = dataset_dictionaries(cfg, 0)
        report = subgroup_accuracy(asymptotic_minimizer(cfg, dict_image, dict_text),
                                   cfg, dict_image, dict_text, 0, 1)
        exact = (report.exact_err_conflicting, report.exact_acc_aligned)
        # the closed form and the matrix route round differently: 1 ulp apart here
        for closed, matrix in zip((rep.exact_err_conflicting, rep.exact_acc_aligned), exact):
            assert abs(closed - matrix) <= 4 * math.ulp(matrix)
        # image noise the bounds leave out moves the rates off them, and the
        # Monte-Carlo follows the exact rates
        assert rep.bounds.err_lower_conflicting - exact[0] > 0.01
        for mc, rate, stderr in zip((rep.mc_err_conflicting, rep.mc_acc_aligned), exact,
                                    rep.mc_stderr):
            assert abs(mc - rate) <= 4 * stderr


    @settings(max_examples=80, deadline=None)
    @given(sigma_inv=st.floats(min_value=0.05, max_value=4.0),
           sigma_spu=st.floats(min_value=0.0, max_value=4.0),
           mu_spu=st.floats(min_value=-0.9, max_value=5.0),
           p_spu=st.floats(min_value=0.5, max_value=1.0),
           d_I=st.integers(min_value=2, max_value=2**20))
    def test_noiseless_latent_margins_are_the_kappas(self, sigma_inv, sigma_spu, mu_spu,
                                                     p_spu, d_I):
        cfg = GenerativeConfig(sigma_inv=sigma_inv, sigma_spu=sigma_spu, mu_spu=mu_spu,
                               p_spu=p_spu, sigma_xi=0.0, d_I=d_I, d_T=2, mode="TheoremExact")
        t = latent_margins(cfg)
        params = params_from_config(cfg)
        bounds = theorem_bounds(params)
        assert (t[1], -t[0]) == (kappa1(params), kappa2(params)) == (bounds.kappa1,
                                                                     bounds.kappa2)

    def test_theorem_exact_draws_no_dictionary(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a dictionary was drawn")

        monkeypatch.setattr(synthetic, "dataset_dictionaries", refuse)
        monkeypatch.setattr(synthetic, "_dictionary_from_rng", refuse)
        rep = verify_theorem(EXACT_CFG, mc_samples=2000, seed=0)
        report = margin_counts(latent_margins(EXACT_CFG), 0, 2000)
        assert (rep.mc_acc_aligned, rep.exact_acc_aligned) == (report.acc_aligned,
                                                               report.exact_acc_aligned)

    def test_theorem_exact_peak_memory_does_not_grow_with_d(self):
        def peak(d):
            tracemalloc.start()
            try:
                verify_theorem(dataclasses.replace(EXACT_CFG, d_I=d, d_T=d),
                               mc_samples=100_000, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)
        # about 16 kB either way; one vector of d = 8192 floats would be 64 kB
        assert peak(8192) <= 1.25 * peak(64)


class TestVerifyTheorem:
    def test_rejects_small_mc(self):
        with pytest.raises(InsufficientDataError):
            verify_theorem(EXACT_CFG, mc_samples=999, seed=0)

    def test_judges_with_the_constant_tolerance(self):
        rep = verify_theorem(EXACT_CFG, mc_samples=2000, seed=0)
        assert rep.tol == TOL == 0.01
        with pytest.raises(TypeError):
            verify_theorem(EXACT_CFG, 2000, 0, 0.5)

    def test_reproducible(self):
        a = verify_theorem(EXACT_CFG, mc_samples=5000, seed=42)
        b = verify_theorem(EXACT_CFG, mc_samples=5000, seed=42)
        assert a == b

    def test_theorem_exact_mode_hits_bounds(self):
        rep = verify_theorem(EXACT_CFG, mc_samples=100_000, seed=3)
        assert rep.passed
        assert rep.alignment_gap is None
        assert rep.mc_err_conflicting == pytest.approx(ERR_BOUND_ACCEPT, abs=0.01)
        assert rep.mc_acc_aligned == pytest.approx(ACC_BOUND_ACCEPT, abs=0.005)

    def test_symmetric_case_error_complements_accuracy(self):
        # 2 mu_spu p_spu = 1 zeroes the spurious weight, so the subgroups
        # are statistically identical
        cfg = GenerativeConfig(sigma_inv=1.0, sigma_spu=0.5, mu_spu=1.0,
                               p_spu=0.5, sigma_xi=0.1, mode="TheoremExact")
        rep = verify_theorem(cfg, mc_samples=60_000, seed=1)
        stderr = math.hypot(*rep.mc_stderr)
        assert abs(rep.mc_err_conflicting - (1 - rep.mc_acc_aligned)) <= 3 * stderr

    def test_tightness_across_parameter_grid(self):
        settings_grid = [
            dict(sigma_inv=1.0, sigma_spu=0.5, mu_spu=2.0, p_spu=0.95),
            dict(sigma_inv=0.5, sigma_spu=0.5, mu_spu=1.0, p_spu=0.9),
            dict(sigma_inv=2.0, sigma_spu=1.0, mu_spu=1.5, p_spu=0.8),
            dict(sigma_inv=1.0, sigma_spu=0.0, mu_spu=0.8, p_spu=0.7),
            dict(sigma_inv=0.8, sigma_spu=2.0, mu_spu=3.0, p_spu=1.0),
        ]
        for values in settings_grid:
            cfg = GenerativeConfig(sigma_xi=0.05, mode="TheoremExact", **values)
            rep = verify_theorem(cfg, mc_samples=20_000, seed=11)
            b = rep.bounds
            slack_err = max(rep.tol, 4 * rep.mc_stderr[0])
            slack_acc = max(rep.tol, 4 * rep.mc_stderr[1])
            assert abs(rep.mc_err_conflicting - b.err_lower_conflicting) <= slack_err
            assert abs(rep.mc_acc_aligned - b.acc_lower_aligned) <= slack_acc

    def test_def1_mode_trains_and_reports_gap(self):
        cfg = GenerativeConfig(sigma_inv=1.0, sigma_spu=0.5, p_spu=0.9,
                               sigma_xi=0.01, n=10_000)
        rep = verify_theorem(cfg, mc_samples=20_000, seed=2)
        assert rep.alignment_gap is not None
        assert rep.alignment_gap <= 0.1
        assert rep.passed
        assert rep.mc_err_conflicting >= rep.bounds.err_lower_conflicting - rep.tol
        assert rep.mc_acc_aligned >= rep.bounds.acc_lower_aligned - rep.tol

    def test_def1_gap_decreases_with_n(self):
        cfg = GenerativeConfig(sigma_inv=1.0, sigma_spu=0.5, p_spu=0.9,
                               sigma_xi=0.01, n=10_000)
        small = verify_theorem(cfg, mc_samples=2000, seed=6)
        big = verify_theorem(dataclasses.replace(cfg, n=40_000),
                             mc_samples=2000, seed=6)
        assert big.alignment_gap < small.alignment_gap

    def test_json_dict_round_trips_through_schema_fields(self):
        rep = verify_theorem(EXACT_CFG, mc_samples=2000, seed=0)
        d = json.loads(_serialize("report.json", rep))
        assert d["mode"] == "TheoremExact"
        assert d["alignment_gap"] is None
        assert isinstance(d["mc_stderr"], list) and len(d["mc_stderr"]) == 2
        assert isinstance(d["passed"], bool)

    def test_mc_z_measures_the_estimates_in_standard_errors(self):
        rep = verify_theorem(EXACT_CFG, mc_samples=20_000, seed=4)
        b = rep.bounds
        assert rep.mc_z == ((rep.mc_err_conflicting - b.err_lower_conflicting) / rep.mc_stderr[0],
                            (rep.mc_acc_aligned - b.acc_lower_aligned) / rep.mc_stderr[1])
        assert all(abs(z) < 4 for z in rep.mc_z)
        assert f"z {rep.mc_z[0]:+.2f}" in format_report_table(EXACT_CFG, rep)

    def test_mc_z_is_none_for_a_zero_stderr(self):
        # no spurious weight and almost no latent noise: every prediction is
        # right, so both estimates are exact and have no standard error
        cfg = GenerativeConfig(sigma_inv=1e-3, sigma_spu=0.0, mu_spu=1.0, p_spu=0.5,
                               sigma_xi=0.0, mode="TheoremExact")
        rep = verify_theorem(cfg, mc_samples=2000, seed=0)
        assert rep.mc_stderr == (0.0, 0.0)
        assert rep.mc_z == (None, None)
        assert json.loads(_serialize("report.json", rep))["mc_z"] == [None, None]
        assert format_report_table(cfg, rep).count("z n/a") == 2

    def test_report_table_fixed_order(self):
        rep = verify_theorem(EXACT_CFG, mc_samples=2000, seed=0)
        table = format_report_table(EXACT_CFG, rep)
        lines = table.splitlines()
        assert lines[0] == "parameters"
        indices = [table.index(word) for word in
                   ("parameters", "margins", "bound vs monte-carlo", "pass")]
        assert indices == sorted(indices)
        assert "kappa1" in table and "kappa2" in table
