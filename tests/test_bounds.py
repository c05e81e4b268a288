"""Sub-gaussian constants, Gaussian KL identity, and bound assembly."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from metasgld.bounds import (AltBound, SubgaussianSpec, assemble_alt_bound,
                             gauss_kl_same_cov, step_term_consistency,
                             subgaussian_mean_estimation)
from metasgld.core import UndefinedBoundError
from metasgld.meta_sgld import BoundAccumulators
from metasgld.task_env import EnvironmentSpec

TINY = float(np.finfo(float).tiny)


def box_env(lo, hi, task_var=0.1, mean=None):
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if mean is None:
        mean = (lo + hi) / 2
    return EnvironmentSpec(env_mean=np.asarray(mean, float), env_cov_scale=5.0,
                           trunc_lo=lo, trunc_hi=hi, task_cov_scale=task_var,
                           dim=2)


class TestSubgaussianMeanEstimation:
    def test_reference_environment_value(self):
        env = box_env([-12, -12], [4, 4])
        sg = subgaussian_mean_estimation(env, 0.4)
        # 0.164^2 * 4 * (1 + 0.04 * 288)
        assert sg.sigma_sq == pytest.approx(1.3469, abs=1e-4)

    def test_intermediate_box(self):
        sg = subgaussian_mean_estimation(box_env([-4, -4], [4, 4]), 0.4)
        assert sg.sigma_sq == pytest.approx(0.164 ** 2 * 4 * (1 + 0.04 * 32), rel=1e-12)

    def test_near_origin_box_reduces_to_2d_sigma_l4(self):
        env = box_env([-1e-9, -1e-9], [1e-9, 1e-9], mean=[0, 0])
        sg = subgaussian_mean_estimation(env, 0.4)
        sigma_l_sq = 0.1 * (1 + 0.8 ** 2)
        assert sg.sigma_sq == pytest.approx(2 * 2 * sigma_l_sq ** 2, rel=1e-6)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            subgaussian_mean_estimation(box_env([-1, -1], [1, 1]), 0.0)

    def test_overflowing_box_is_named_without_a_warning(self):
        # warnings are errors under pytest, so a NumPy overflow warning would fail here
        with pytest.raises(OverflowError, match=r"for the truncation box \(trunc_lo, trunc_hi\)$"):
            subgaussian_mean_estimation(box_env([-1e160, -1e160], [4, 4]), 0.4)


class TestSubgaussianSpec:
    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            SubgaussianSpec(sigma_sq=0.0)


class TestGaussKL:
    def test_equal_means(self):
        assert gauss_kl_same_cov([1.0, 2.0], [1.0, 2.0], 0.5) == 0.0

    def test_unit_case(self):
        assert gauss_kl_same_cov([1.0, 1.0], [0.0, 0.0], 1.0) == 1.0

    def test_bad_var_rejected(self):
        with pytest.raises(ValueError):
            gauss_kl_same_cov([0.0], [1.0], 0.0)

    def test_matches_1d_quadrature_100_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m1, m2 = rng.normal(scale=2, size=2)
            var = rng.uniform(0.2, 3.0)
            analytic = gauss_kl_same_cov([m1], [m2], var)

            def integrand(x):
                p = math.exp(-(x - m1) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
                logratio = (-(x - m1) ** 2 + (x - m2) ** 2) / (2 * var)
                return p * logratio

            lo = min(m1, m2) - 12 * math.sqrt(var)
            hi = max(m1, m2) + 12 * math.sqrt(var)
            numeric, _ = integrate.quad(integrand, lo, hi, limit=200)
            assert analytic == pytest.approx(numeric, abs=1e-8)


class TestStepTermConsistency:
    def test_zero_eps(self):
        assert step_term_consistency(0.1, 10.0, [0.0, 0.0]) == (0.0, 0.0)

    @pytest.mark.parametrize("eta,gamma", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0)])
    def test_nonpositive_eta_or_gamma_rejected(self, eta, gamma):
        with pytest.raises(ValueError, match="^eta and gamma must be positive$"):
            step_term_consistency(eta, gamma, [1.0, 0.0])

    def test_reference_values(self):
        term, kl = step_term_consistency(0.4, 10000.0, [1.0, 0.0])
        assert term == pytest.approx(2000.0, rel=1e-12)
        assert kl == pytest.approx(1000.0, rel=1e-12)

    @given(eta=st.floats(1e-3, 10), gamma=st.floats(1e-2, 1e5),
           ex=st.floats(-5, 5), ey=st.floats(-5, 5))
    @example(eta=1.0, gamma=1.0, ex=1.47e-159, ey=0.0)
    @settings(max_examples=100, deadline=None)
    def test_term_is_twice_kl(self, eta, gamma, ex, ey):
        # below the smallest normal float ||eps||^2, ||eta*eps||^2 and the KL
        # keep too few bits for rel = 1e-12; the band around it may go either way
        sq = ex * ex + ey * ey
        smallest = min(sq, eta * eta * sq, eta * gamma * sq / 4.0)
        if (ex, ey) != (0.0, 0.0) and smallest < TINY * (1.0 - 1e-9):
            with pytest.raises(UndefinedBoundError, match="below the smallest normal"):
                step_term_consistency(eta, gamma, [ex, ey])
        elif (ex, ey) == (0.0, 0.0) or smallest > TINY * (1.0 + 1e-9):
            term, kl = step_term_consistency(eta, gamma, [ex, ey])
            if kl > 0:
                assert term / kl == pytest.approx(2.0, rel=1e-12)
            else:
                assert term == 0.0


def acc(eu=0.0, ew=0.0, gu=0.0, gw=0.0):
    a = BoundAccumulators()
    a.eps_u_sum, a.eps_w_sum, a.gnorm_u_sum, a.gnorm_w_sum = eu, ew, gu, gw
    return a


class TestAssembleAltBound:
    SG = SubgaussianSpec(sigma_sq=1.3469)

    def test_all_zero(self):
        b = assemble_alt_bound(acc(), self.SG, 100, 8)
        assert b == AltBound(0, 0, 0, 0, 0, 0)

    def test_inverts_reference_total(self):
        # eps sum that reproduces total 0.7424 with n=20000, m_va=8
        total = 0.7424
        s = total ** 2 * 20000 * 8 / self.SG.sigma_sq
        assert s == pytest.approx(6.546e4, rel=1e-2)
        b = assemble_alt_bound(acc(eu=s / 3, ew=2 * s / 3), self.SG, 20000, 8)
        assert b.bound_total == pytest.approx(total, rel=1e-12)

    def test_doubling_n_scales_by_inv_sqrt2(self):
        a = acc(eu=3.0, ew=5.0, gu=7.0, gw=11.0)
        b1 = assemble_alt_bound(a, self.SG, 100, 4)
        b2 = assemble_alt_bound(a, self.SG, 200, 4)
        for f in ("bound_u", "bound_w", "bound_total", "gnorm_u", "gnorm_w",
                  "gnorm_total"):
            assert getattr(b2, f) == pytest.approx(getattr(b1, f) / math.sqrt(2),
                                                   rel=1e-12)

    def test_zero_m_va_is_undefined(self):
        with pytest.raises(UndefinedBoundError):
            assemble_alt_bound(acc(eu=1.0), self.SG, 100, 0)

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be positive$"):
            assemble_alt_bound(acc(eu=1.0), self.SG, 0, 8)

    @pytest.mark.parametrize("sums", [dict(eu=-1.0), dict(ew=-1.0), dict(gu=-1.0),
                                      dict(gw=-1.0), dict(eu=np.array([1.0, -1e-300]))])
    def test_negative_sum_rejected(self, sums):
        # one negative entry of a per-epoch array is enough
        with pytest.raises(ValueError, match="^accumulator sums must be non-negative$"):
            assemble_alt_bound(acc(**sums), self.SG, 100, 8)

    @given(eu=st.floats(0, 100), ew=st.floats(0, 100), bump=st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_each_accumulator(self, eu, ew, bump):
        b0 = assemble_alt_bound(acc(eu=eu, ew=ew), self.SG, 50, 3)
        b1 = assemble_alt_bound(acc(eu=eu + bump, ew=ew), self.SG, 50, 3)
        b2 = assemble_alt_bound(acc(eu=eu, ew=ew + bump), self.SG, 50, 3)
        assert b1.bound_u > b0.bound_u and b1.bound_total > b0.bound_total
        assert b2.bound_w > b0.bound_w and b2.bound_total > b0.bound_total
