"""Meta-test adaptation and the observed train/test gap."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasgld.core import RunConfig, Schedules, derive_stream
from metasgld.evaluate import GapReport, adapt_eval, observed_gap
from metasgld.model import LossModel, descend, stacked_risk
from metasgld.task_env import EnvironmentSpec, sample_task_means

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
        from metasgld.task_env import TaskSpec, sample_dataset
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

    @pytest.mark.parametrize("eval_source", ("va", "tr"))
    @pytest.mark.parametrize("m_tr,m_va", ((1, 15), (8, 8), (15, 1)))
    @pytest.mark.parametrize("dim", (1, 2))
    def test_reads_the_means_then_only_the_normals_it_scores(self, dim, m_tr, m_va,
                                                             eval_source):
        # each task's sufficient statistics: after the means the va side reads
        # n * 2 * dim normals (its tr and va means), the tr side n * dim (its
        # tr mean), then n chi-squares when the k scored rows number 2 or
        # more; a box edge at -2 makes the means take rejection rounds
        e = EnvironmentSpec(env_mean=np.full(dim, -4.0), env_cov_scale=5.0,
                            trunc_lo=np.full(dim, -12.0), trunc_hi=np.full(dim, -2.0),
                            task_cov_scale=0.1, dim=dim)
        n, c = 40, cfg(m_tr=m_tr, m_va=m_va)
        s, k = (2, m_va) if eval_source == "va" else (1, m_tr)
        rng, fresh = derive_stream(4, [9, dim]), derive_stream(4, [9, dim])
        adapt_eval(np.full(dim, -3.0), e, c, n, rng, eval_source=eval_source)
        sample_task_means(e, n, fresh)
        fresh.standard_normal(n * s * dim)
        if k >= 2:
            fresh.chisquare(dim * (k - 1), n)
        assert np.array_equal(rng.random(8), fresh.random(8))


def env_in(dim):
    return EnvironmentSpec(env_mean=np.full(dim, -4.0), env_cov_scale=5.0,
                           trunc_lo=np.full(dim, -12.0), trunc_hi=np.full(dim, 4.0),
                           task_cov_scale=0.1, dim=dim)


def rows_adapt_eval(u, e, c, n_tasks, rng, eval_source):
    """Layout 8's evaluation, from rows: after the means, (n, m, dim) normals
    on the va side, rows :m_tr tr and the rest va, and (n, m_tr, dim) on the
    tr side; the risk is the mean square loss over the scored rows."""
    mus = sample_task_means(e, n_tasks, rng)
    z = rng.standard_normal((n_tasks, c.m if eval_source == "va" else c.m_tr, e.dim))
    x = mus[:, None] + math.sqrt(e.task_cov_scale) * z
    w = descend(u, [c.schedules.beta0] * c.test_adapt_steps, x[:, :c.m_tr].mean(axis=1))
    scored = x[:, c.m_tr:] if eval_source == "va" else x[:, :c.m_tr]
    return float(np.mean(np.sum((w[:, None] - scored) ** 2, axis=-1)))


class TestSufficientStatistics:
    @given(k=st.integers(1, 16), dim=st.sampled_from((1, 2, 8)),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_risk_is_distance_to_the_mean_plus_scatter(self, k, dim, seed):
        # (1/k) sum_j ||w - x_j||^2 = ||w - x_bar||^2 + (1/k) sum_j ||x_j - x_bar||^2
        rng = derive_stream(seed, [8])
        x = rng.uniform(-5, 5, dim) + rng.uniform(0.1, 3) * rng.standard_normal((k, dim))
        w = rng.uniform(-5, 5, dim)
        x_bar = x.mean(axis=0)
        want = np.sum((w - x_bar) ** 2) + np.sum((x - x_bar) ** 2) / k
        assert stacked_risk(w, x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("eval_source", ("va", "tr"))
    @pytest.mark.parametrize("m_tr,m_va", ((1, 15), (8, 8), (15, 1)))
    @pytest.mark.parametrize("dim", (1, 2, 8))
    def test_mean_is_the_row_based_mean(self, dim, m_tr, m_va, eval_source):
        # the statistics are drawn exactly in distribution: over 300 streams of
        # 20 tasks the mean loss equals that of the rows they summarise
        e, c, streams = env_in(dim), cfg(m_tr=m_tr, m_va=m_va), 300
        u = np.full(dim, -3.0)
        got, want = (np.array([f(u, e, c, 20, derive_stream(12, [m_tr, dim, i]), eval_source)
                               for i in range(streams)])
                     for f in (adapt_eval, rows_adapt_eval))
        se = math.sqrt((got.var(ddof=1) + want.var(ddof=1)) / streams)
        assert abs(got.mean() - want.mean()) < 4 * se


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
