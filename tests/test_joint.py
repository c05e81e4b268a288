"""Joint-training chain: stacked gradients, Langevin steps, MI bound terms."""
import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasgld.cli import load_config_file, preset_path
from metasgld.core import Schedules, UndefinedBoundError, derive_stream
from metasgld.joint_sgld import (GradBoundTracker, JointConfig, joint_bound,
                                 joint_closed_form, joint_loss_grad,
                                 joint_sgld_step, mi_step_term, run_joint_sgld)
from metasgld.model import LossModel, batch_risk
from metasgld.task_env import EnvironmentSpec

MODEL = LossModel(dim=2)


def small_env():
    return EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                           trunc_lo=np.array([-12.0, -12.0]),
                           trunc_hi=np.array([4.0, 4.0]),
                           task_cov_scale=0.1, dim=2)


def phi_of(u, ws):
    """The stacked chain: row 0 is u, rows 1..n are the w_i."""
    return np.array([u, *ws], dtype=float)


class TestJointLossGrad:
    def test_zero_coupling_u_block_zero(self):
        phi = phi_of([1.0, 2.0], [[0.5, 0.5], [3.0, -1.0]])
        data = np.array([[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [2.0, 2.0]]])
        g = joint_loss_grad(phi, data.mean(axis=1), coupling=0.0)
        assert np.array_equal(g[0], np.zeros(2))

    def test_single_task_stationary(self):
        batch = np.array([[1.0, 3.0], [3.0, 1.0]])
        phi = phi_of([0.0, 0.0], [batch.mean(axis=0)])
        g = joint_loss_grad(phi, batch.mean(axis=0)[None], coupling=0.0)
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_matches_stacked_finite_differences(self):
        rng = np.random.default_rng(5)
        n = 3
        lam = 0.7
        phi = phi_of(rng.normal(size=2), rng.normal(size=(n, 2)))
        data = rng.normal(size=(n, 4, 2))

        def objective(flat):
            p = flat.reshape(phi.shape)
            risk = sum(batch_risk(MODEL, w, b) for w, b in zip(p[1:], data)) / n
            tether = sum(float((w - p[0]) @ (w - p[0])) for w in p[1:]) * lam / n
            return risk + tether

        g = joint_loss_grad(phi, data.mean(axis=1), coupling=lam).ravel()
        flat = phi.ravel()
        h = 1e-6
        fd = np.empty_like(flat)
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = h
            fd[i] = (objective(flat + e) - objective(flat - e)) / (2 * h)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6

    def test_batch_count_mismatch_rejected(self):
        phi = phi_of([0.0, 0.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="one dataset per task"):
            joint_loss_grad(phi, np.zeros((0, 2)), coupling=0.0)

    def test_negative_coupling_rejected(self):
        phi = phi_of([0.0, 0.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="^coupling must be non-negative$"):
            joint_loss_grad(phi, np.zeros((1, 2)), coupling=-0.1)


class TestJointSgldStep:
    def test_fixed_point(self):
        phi = phi_of([1.0, 1.0], [[2.0, 2.0]])
        out = joint_sgld_step(phi, np.zeros_like(phi), 0.5, 0.0, np.ones_like(phi))
        assert np.array_equal(out, phi)

    def test_plain_gd_adds_positive_zero(self):
        # sigma_t = 0 adds +0.0, not 0 * z, whose signs would follow z's
        phi = phi_of([-0.0, -0.0], [[-0.0, -0.0]])
        out = joint_sgld_step(phi, np.zeros_like(phi), 0.5, 0.0, -np.ones_like(phi))
        assert out.tobytes() == np.zeros_like(phi).tobytes()

    def test_full_step_to_origin(self):
        phi = phi_of([1.0, -2.0], [[3.0, 4.0]])
        out = joint_sgld_step(phi, phi, 1.0, 0.0, np.zeros_like(phi))
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_noise_variance_matches_sigma(self):
        phi = phi_of([0.0, 0.0], [[0.0, 0.0]])
        sigma = 0.3
        rng = derive_stream(17, [2])
        draws = np.array([joint_sgld_step(phi, np.zeros_like(phi), 0.1, sigma,
                                          rng.standard_normal(phi.shape)).ravel()
                          for _ in range(10_000)])
        var = draws.var(axis=0)
        assert np.all(np.abs(var - sigma ** 2) < 0.05 * sigma ** 2)

    def test_mismatched_gradient_rejected(self):
        phi = phi_of([0.0, 0.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="^gradient shape does not match"):
            joint_sgld_step(phi, np.zeros((1, 2)), 0.1, 0.0, np.zeros_like(phi))

    def test_negative_sigma_rejected(self):
        phi = phi_of([0.0, 0.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="^sigma_t must be non-negative$"):
            joint_sgld_step(phi, np.zeros_like(phi), 0.1, -0.1, np.zeros_like(phi))


class TestMiStepTerm:
    def test_zero_l(self):
        assert mi_step_term(0.1, 0.2, 0.0, 10) == 0.0

    def test_reference_value(self):
        oracle = float(mpmath.log(mpmath.mpf(3) / 2))
        assert mi_step_term(1.0, 1.0, 1.0, 2) == pytest.approx(oracle, rel=1e-12)

    def test_zero_sigma_undefined(self):
        with pytest.raises(UndefinedBoundError):
            mi_step_term(0.1, 0.0, 1.0, 4)

    def test_zero_stacked_dim_rejected(self):
        with pytest.raises(ValueError, match="^stacked_dim must be positive$"):
            mi_step_term(0.1, 0.2, 1.0, 0)

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError, match="^l_hat must be non-negative$"):
            mi_step_term(0.1, 0.2, -1.0, 4)

    def test_sigma_squaring_to_zero_undefined(self):
        with pytest.raises(UndefinedBoundError):
            mi_step_term(0.1, 1e-200, 1.0, 4)

    def test_infinite_ratio_overflows(self):
        # sigma_t**2 is subnormal, so the ratio is inf rather than an error
        with pytest.raises(OverflowError):
            mi_step_term(0.1, 1e-160, 10.0, 4)

    def test_overflowing_square_is_named(self):
        # (eta L)^2 leaves the float range as a Python float power
        with pytest.raises(OverflowError, match="^mutual-information step term overflowed$"):
            mi_step_term(1e200, 1.0, 1.0, 4)

    @given(eta=st.floats(1e-3, 5), sigma=st.floats(1e-3, 5),
           l=st.floats(0, 50), dim=st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_dominated_by_linearization(self, eta, sigma, l, dim):
        term = mi_step_term(eta, sigma, l, dim)
        assert term <= (eta * l) ** 2 / (2 * sigma ** 2) + 1e-12
        assert term >= 0.0


class TestJointBoundForms:
    def test_zero_mi(self):
        assert joint_bound(0.0, 1.0, 10, 4) == 0.0

    def test_unit_case(self):
        assert joint_bound(1.0, 1.0, 2, 1) == 1.0

    def test_reference_value(self):
        assert joint_bound(100.0, math.sqrt(1.3469), 50, 16) == pytest.approx(
            math.sqrt(2 * 1.3469 * 100 / 800), rel=1e-12)

    def test_closed_form_at_t1(self):
        assert joint_closed_form(1.0, 1.0, 1, 1, 1.0, 1) == 1.0

    def test_closed_form_at_e(self):
        val = joint_closed_form(1.0, 1.0, 1, 1, 2.0, math.e)
        assert val == pytest.approx(math.sqrt(2 * 2.0), rel=1e-12)

    def test_closed_form_bad_t(self):
        with pytest.raises(ValueError):
            joint_closed_form(1.0, 1.0, 1, 1, 1.0, 0)

    def test_negative_mi_sum_rejected(self):
        with pytest.raises(ValueError, match="^mi_sum must be non-negative$"):
            joint_bound(-1.0, 1.0, 10, 4)

    def test_zero_sigma_sg_rejected(self):
        with pytest.raises(ValueError, match=r"^need sigma_sg > 0 and n, m >= 1$"):
            joint_bound(1.0, 0.0, 10, 4)

    def test_closed_form_zero_c_rejected(self):
        with pytest.raises(ValueError, match="^c must be positive$"):
            joint_closed_form(1.0, 1.0, 1, 1, 0.0, 2)

    def test_closed_form_negative_l_rejected(self):
        with pytest.raises(ValueError, match="^invalid bound inputs$"):
            joint_closed_form(1.0, -1.0, 1, 1, 1.0, 2)

    def test_running_bound_dominated_by_closed_form_to_1e4(self):
        # eta_t = c/t, sigma_t = sqrt(eta_t), with a drifting running-max L
        rng = np.random.default_rng(6)
        c, n, m, dim, sg = 0.5, 50, 16, 102, math.sqrt(1.3469)
        tracker = GradBoundTracker()
        for t in range(1, 10_001):
            eta = c / t
            sigma = math.sqrt(eta)
            l_hat = tracker.observe(rng.uniform(0.0, 30.0))
            tracker.per_step_terms.append(mi_step_term(eta, sigma, l_hat, dim))
            if t % 500 == 0 or t < 20:
                running = joint_bound(tracker.mi_sum, sg, n, m)
                closed = joint_closed_form(sg, l_hat, n, m, c, t)
                assert running <= closed + 1e-12


class TestRunJointSgld:
    def cfg(self, **kw):
        d = dict(n=8, m=6, T=40,
                 schedules=Schedules(eta0=1.0, beta0=1.0, gamma_outer=1e4,
                                     gamma_inner=1e4, decay_rule="inverse_t",
                                     decay_c=0.1),
                 seed=3, coupling=1.0)
        d.update(kw)
        return JointConfig(**d)

    def test_record_count_and_monotonicity(self):
        records = run_joint_sgld(self.cfg(), small_env(), sigma_sg=1.0)
        assert len(records) == 40
        for a, b in zip(records, records[1:]):
            assert b.mi_sum >= a.mi_sum
            assert b.joint_bound >= a.joint_bound
            assert b.l_hat >= a.l_hat
            assert b.mi_step_term >= 0

    def test_running_bound_below_closed_form(self):
        records = run_joint_sgld(self.cfg(), small_env(), sigma_sg=1.0)
        for r in records:
            assert r.joint_bound <= r.closed_form + 1e-12

    def test_determinism(self):
        a = run_joint_sgld(self.cfg(), small_env(), sigma_sg=1.0)
        b = run_joint_sgld(self.cfg(), small_env(), sigma_sg=1.0)
        assert a == b

    def test_mi_sum_adds_left_to_right(self):
        # a chain of += over the step terms, bit for bit: builtin sum()
        # compensates its rounding on Python 3.12 and later
        cfg = load_config_file(preset_path("joint_demo"))
        total = 0.0
        for r in run_joint_sgld(cfg.joint, cfg.env, sigma_sg=1.0):
            total += r.mi_step_term
            assert r.mi_sum == total

    def test_fixed_l_mode(self):
        records = run_joint_sgld(self.cfg(fixed_l=5.0), small_env(), sigma_sg=1.0)
        assert all(r.l_hat == 5.0 for r in records)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            self.cfg(sigma0=0.0)
        with pytest.raises(ValueError):
            self.cfg(coupling=-1.0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            self.cfg(seed=seed)
        assert self.cfg(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_non_integer_seed_rejected(self):
        # 1.9 passed the range check and ran seed 1's streams
        with pytest.raises(ValueError, match="seed must be an integer, got 1.9"):
            self.cfg(seed=1.9)

    def test_w_overflow_names_the_step(self):
        # with no tether U moves only by the small fixed noise and stays
        # finite, while eta = 1e3 makes every W step multiply W by -1999;
        # a fixed L keeps the bound terms finite meanwhile
        cfg = self.cfg(n=1, coupling=0.0, T=200, sigma0=1e-3, fixed_l=5.0,
                       schedules=Schedules(eta0=1e3, beta0=1.0, gamma_outer=1e4,
                                           gamma_inner=1e4))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            run_joint_sgld(cfg, small_env(), sigma_sg=1.0)
        step = int(re.search(r"at step (\d+)", str(exc.value)).group(1))
        assert 1 < step < 200
        with np.errstate(all="ignore"):
            records = run_joint_sgld(replace(cfg, T=step - 1), small_env(), sigma_sg=1.0)
        assert len(records) == step - 1
