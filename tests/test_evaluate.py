"""Meta-test adaptation and the observed train/test gap."""
import math

import numpy as np
import pytest

from metasgld.core import RunConfig, Schedules, derive_stream
from metasgld.evaluate import GapReport, adapt_eval, observed_gap
from metasgld.model import LossModel
from metasgld.task_env import EnvironmentSpec

MODEL = LossModel(dim=2)


def env(task_var=0.1, env_var=5.0):
    return EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=env_var,
                           trunc_lo=np.array([-12.0, -12.0]),
                           trunc_hi=np.array([4.0, 4.0]),
                           task_cov_scale=task_var, dim=2)


def cfg(**kw):
    d = dict(n=100, m=16, m_tr=8, m_va=8, task_batch=5, T=10, K=4,
             schedules=Schedules(eta0=0.2, beta0=0.4, gamma_outer=1e4,
                                 gamma_inner=1e4),
             seed=0, test_adapt_steps=10)
    d.update(kw)
    return RunConfig(**d)


class TestGapReport:
    def test_gap_identity_enforced(self):
        GapReport(train_loss=0.2, test_loss=0.5, gap=0.3)
        with pytest.raises(ValueError):
            GapReport(train_loss=0.2, test_loss=0.5, gap=0.31)


class TestAdaptation:
    def test_contraction_to_support_mean(self):
        # 10 GD steps with beta=0.4 contract (1 - 2*0.4)^10 toward the tr mean
        c = cfg()
        e = env()
        rng = derive_stream(2, [1])
        from metasgld.task_env import TaskSpec, sample_dataset, sample_task_means
        task = TaskSpec(mu=sample_task_means(e, 1, rng)[0])
        ds = sample_dataset(task, e, c.m, c.m_tr, rng)
        u = np.array([10.0, -10.0])
        w = u.copy()
        from metasgld.model import batch_grad
        for _ in range(c.test_adapt_steps):
            w = w - c.schedules.beta0 * batch_grad(MODEL, w, ds.tr)
        mean_tr = ds.tr.mean(axis=0)
        expected_dist = 0.2 ** 10 * np.linalg.norm(u - mean_tr)
        assert np.linalg.norm(w - mean_tr) == pytest.approx(expected_dist, rel=1e-6)

    def test_meta_test_loss_near_population_value(self):
        # adapted risk floor: d * task_var * (1 + 1/m_tr)
        c = cfg()
        val = adapt_eval(np.array([-4.0, -4.0]), env(), c, 2000,
                         derive_stream(1, [9]), eval_source="va")
        assert val == pytest.approx(2 * 0.1 * (1 + 1 / 8), rel=0.1)

    def test_near_zero_variances_give_near_zero_loss(self):
        e = env(task_var=1e-12, env_var=1e-6)
        c = cfg()
        val = adapt_eval(np.zeros(2), e, c, 50, derive_stream(1, [9]),
                         eval_source="va")
        assert val < 1e-9

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            adapt_eval(np.zeros(2), env(), cfg(), 0, derive_stream(1, [9]),
                       eval_source="va")
        with pytest.raises(ValueError):
            adapt_eval(np.zeros(2), env(), cfg(), 5,
                       derive_stream(1, [9]), eval_source="nope")

    def test_va_evaluation_needs_a_va_split(self):
        c = cfg(m_tr=16, m_va=0)
        with pytest.raises(ValueError, match="^va evaluation needs m_va >= 1$"):
            adapt_eval(np.zeros(2), env(), c, 5, derive_stream(1, [9]), eval_source="va")
        # the tr side needs no va split
        assert math.isfinite(adapt_eval(np.zeros(2), env(), c, 5, derive_stream(1, [9]),
                                        eval_source="tr"))


class TestObservedGap:
    def test_gap_is_exact_difference(self):
        rep = observed_gap(np.zeros(2), env(), cfg(), 40, 60,
                           test_stream=derive_stream(5, [3]),
                           train_stream=derive_stream(5, [4]))
        assert rep.gap == rep.test_loss - rep.train_loss

    def test_one_shot_gap_dominates(self):
        # support-scored train loss vs held-out test loss: after the
        # (1 - 2 beta)^10 ~ 1e-7 contraction w is the tr mean, so with task
        # variance tau the gap is 2 d tau / m_tr, largest for m_tr = 1
        u, n, d, tau = np.array([-4.0, -4.0]), 5000, 2, 0.1
        gap, se = {}, {}
        for m_tr, m_va in ((1, 15), (8, 8), (15, 1)):
            rep = observed_gap(u, env(), cfg(m_tr=m_tr, m_va=m_va), n, n,
                               test_stream=derive_stream(6, [m_tr, 1]),
                               train_stream=derive_stream(6, [m_tr, 2]))
            # per-task variances of the va score and of the tr score
            var_va = d * (2 * tau ** 2 / m_tr ** 2
                          + (2 * tau ** 2 + 4 * tau ** 2 / m_tr) / m_va)
            var_tr = d * 2 * tau ** 2 * (m_tr - 1) / m_tr ** 2
            gap[m_tr], se[m_tr] = rep.gap, math.sqrt((var_va + var_tr) / n)
            assert abs(rep.gap - 2 * d * tau / m_tr) < 4 * se[m_tr]
        # n tasks put the closest pair of expected gaps >= 6 SE apart
        assert 2 * d * tau * (1 / 8 - 1 / 15) > 6 * math.hypot(se[8], se[15])
        assert gap[1] > gap[8] > gap[15]

    def test_stream_identity_invariance_within_tolerance(self):
        u = np.array([-4.0, -4.0])
        vals = [adapt_eval(u, env(), cfg(), 1000, derive_stream(9, [k]),
                           eval_source="va") for k in range(3)]
        # distribution-level invariance to the stream path used
        assert max(vals) - min(vals) < 3 * 0.09 / np.sqrt(1000) * 2
