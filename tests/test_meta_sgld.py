"""Alternate-training trainer: inner adaptation, incoherence estimation,
accumulators, and the full run loop."""
import math
from dataclasses import replace

import numpy as np
import pytest

from metasgld import meta_sgld
from metasgld.core import RunConfig, Schedules, derive_stream
from metasgld.meta_sgld import (BoundAccumulators, draw_task_batch,
                                estimate_eps_u, inner_adapt, outer_step,
                                run_meta_sgld)
from metasgld.model import LossModel, batch_grad, batch_risk, finite_diff_grad
from metasgld.task_env import EnvironmentSpec, TaskDataset, TaskSpec, sample_dataset

MODEL = LossModel(dim=2)


def paper_env():
    return EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                           trunc_lo=np.array([-12.0, -12.0]),
                           trunc_hi=np.array([4.0, 4.0]),
                           task_cov_scale=0.1, dim=2)


def small_cfg(**kw):
    d = dict(n=100, m=16, m_tr=8, m_va=8, task_batch=3, T=5, K=4,
             schedules=Schedules(eta0=0.2, beta0=0.4, gamma_outer=1e4,
                                 gamma_inner=1e4),
             seed=7, mc_replicas=4, init_u=(-4.0, -4.0))
    d.update(kw)
    return RunConfig(**d)


def make_dataset(samples, m_tr):
    samples = np.asarray(samples, float)
    m = samples.shape[0]
    return TaskDataset(samples=samples, tr_indices=np.arange(m_tr),
                       va_indices=np.arange(m_tr, m))


class TestInnerAdapt:
    def test_single_noiseless_step_is_analytic(self):
        cfg = small_cfg(K=1, noise=False)
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 16, 8,
                            derive_stream(0, [3]))
        u = np.array([1.0, -2.0])
        path = inner_adapt(u, MODEL, ds, cfg, t=1, task_slot=0)
        expected = u - 0.4 * (2.0 * (u - ds.tr.mean(axis=0)))
        assert np.array_equal(path[-1], expected)
        assert np.array_equal(path[0], u)

    def test_path_shapes(self):
        cfg = small_cfg()
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 16, 8,
                            derive_stream(0, [3]))
        path = inner_adapt(np.zeros(2), MODEL, ds, cfg, t=2, task_slot=1)
        assert path.shape == (cfg.K + 1, 2)

    @pytest.mark.parametrize("slot", [-1, 3])
    def test_slot_outside_the_task_batch_rejected(self, slot):
        # the live noise is one (K, task_batch, dim) draw: slot is its column
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 16, 8,
                            derive_stream(0, [3]))
        with pytest.raises(ValueError, match="task_slot"):
            inner_adapt(np.zeros(2), MODEL, ds, small_cfg(), t=1, task_slot=slot)

    def test_union_equal_tr_gives_zero_eps_w(self):
        # m_va = 0 forces the union source to coincide with the tr source
        cfg = small_cfg(m_tr=16, m_va=0)
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 16, 16,
                            derive_stream(0, [3]))
        acc = BoundAccumulators()
        inner_adapt(np.array([2.0, 2.0]), MODEL, ds, cfg, t=1, task_slot=0,
                    collect=acc)
        assert acc.eps_w_sum == 0.0
        assert acc.gnorm_w_sum > 0.0

    def test_eps_w_positive_with_split(self):
        cfg = small_cfg()
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 16, 8,
                            derive_stream(0, [3]))
        acc = BoundAccumulators()
        inner_adapt(np.zeros(2), MODEL, ds, cfg, t=1, task_slot=0, collect=acc)
        assert acc.eps_w_sum > 0.0
        assert acc.lipschitz_max > 0.0


class TestMetaGradient:
    """The first-order meta-gradient, read off a noiseless meta step:
    U' = U - eta * g with eta = 0.2."""

    def test_stationary_tasks_give_zero(self):
        ds = make_dataset([[1.0, 1.0], [1.0, 1.0]], m_tr=1)
        cfg = small_cfg(m=2, m_tr=1, m_va=1, K=0, noise=False, task_batch=1)
        u_next, _ = outer_step(np.array([1.0, 1.0]), MODEL, [ds], cfg, 1,
                               BoundAccumulators())
        assert np.array_equal(u_next, np.array([1.0, 1.0]))

    def test_singleton_query(self):
        ds = make_dataset([[0.0, 0.0], [3.0, -1.0]], m_tr=1)
        cfg = small_cfg(m=2, m_tr=1, m_va=1, K=0, noise=False, task_batch=1)
        u = np.array([1.0, 1.0])
        u_next, _ = outer_step(u, MODEL, [ds], cfg, 1, BoundAccumulators())
        assert np.array_equal(u_next, u - 0.2 * (2 * (u - np.array([3.0, -1.0]))))

    def test_matches_finite_differences_at_adapted_point(self):
        cfg = small_cfg(K=1, noise=False, task_batch=1)
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 16, 8,
                            derive_stream(0, [3]))
        u = np.array([0.5, 0.5])
        path = inner_adapt(u, MODEL, ds, cfg, 1, 0)
        u_next, _ = outer_step(u, MODEL, [ds], cfg, 1, BoundAccumulators())
        g = (u - u_next) / 0.2
        fd = finite_diff_grad(MODEL, path[-1], ds.va)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6

    def test_empty_source_rejected(self):
        cfg = small_cfg(m_tr=16, m_va=0, task_batch=1)
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 16, 16,
                            derive_stream(0, [3]))
        with pytest.raises(ValueError):
            outer_step(np.zeros(2), MODEL, [ds], cfg, 1, BoundAccumulators())


class TestEstimateEpsU:
    def test_union_equal_tr_gives_zero(self):
        cfg = small_cfg(m_tr=16, m_va=0)
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 16, 16,
                            derive_stream(0, [3]))
        eps_term, gnorm_term = estimate_eps_u(np.zeros(2), MODEL, [ds], cfg, 1)
        assert eps_term == 0.0
        assert gnorm_term > 0.0

    def test_k0_equal_means_gives_zero(self):
        samples = np.tile(np.array([1.5, -0.5]), (4, 1))
        ds = make_dataset(samples, m_tr=2)
        cfg = small_cfg(m=4, m_tr=2, m_va=2, K=0, task_batch=1)
        eps_term, _ = estimate_eps_u(np.array([3.0, 3.0]), MODEL, [ds], cfg, 1)
        assert eps_term == 0.0

    def test_empty_task_batch_rejected(self):
        with pytest.raises(ValueError, match="^task_batch must be non-empty$"):
            estimate_eps_u(np.zeros(2), MODEL, [], small_cfg(), 1)

    def test_non_finite_mean_row_rejected(self):
        # beta0 = 1e200: the second of the K = 4 noise-free steps overflows
        cfg = small_cfg(schedules=Schedules(eta0=0.2, beta0=1e200, gamma_outer=1e4,
                                            gamma_inner=1e4))
        batch = draw_task_batch(paper_env(), cfg, 1)
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="^vector contains NaN/Inf$"):
            estimate_eps_u(np.zeros(2), MODEL, batch, cfg, 1)


class TestOuterStep:
    def test_fixed_point_without_gradient_or_noise(self):
        u = np.array([1.0, 2.0])
        ds = make_dataset(np.tile(u, (2, 1)), m_tr=1)
        cfg = small_cfg(m=2, m_tr=1, m_va=1, K=0, noise=False, task_batch=1)
        acc = BoundAccumulators()
        u_next, _ = outer_step(u, MODEL, [ds], cfg, 1, acc)
        assert np.array_equal(u_next, u)

    def test_accumulators_strictly_increase(self):
        cfg = small_cfg(T=2)
        records, _ = run_meta_sgld(cfg, paper_env())
        r0, r1 = records
        assert r1.eps_u > r0.eps_u > 0
        assert r1.eps_w > r0.eps_w > 0
        assert r1.gnorm_u > r0.gnorm_u
        assert r1.gnorm_w > r0.gnorm_w

    def test_advance_reads_acc_as_its_start_and_leaves_it(self):
        cfg = small_cfg()
        start = BoundAccumulators(0.5, 0.25, 2.0, 1.0, 3.0)
        acc = replace(start)
        ep = meta_sgld._one_epoch(cfg, 1, draw_task_batch(paper_env(), cfg, 1), 2,
                                  slice(None), np.random.default_rng(0).standard_normal(2))
        _, run, _, failure = meta_sgld._advance(ep, np.array([-4.0, -4.0]), acc, cfg)
        assert failure is None and acc == start
        assert run.eps_u_sum[0] > start.eps_u_sum and run.eps_w_sum[0] > start.eps_w_sum
        assert run.lipschitz_max[0] >= start.lipschitz_max

    def test_failed_step_leaves_acc_as_it_was(self):
        cfg = small_cfg(K=4, schedules=Schedules(eta0=0.2, beta0=1e200, gamma_outer=1e4,
                                                 gamma_inner=1e4))
        start = BoundAccumulators(0.5, 0.25, 2.0, 1.0, 3.0)
        acc = replace(start)
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="^vector contains NaN/Inf at epoch 1$"):
            outer_step(np.zeros(2), MODEL, draw_task_batch(paper_env(), cfg, 1), cfg, 1, acc)
        assert acc == start

    def test_wrong_batch_size_rejected(self):
        cfg = small_cfg(task_batch=3)
        batch = draw_task_batch(paper_env(), cfg, 1)
        with pytest.raises(ValueError):
            outer_step(np.zeros(2), MODEL, batch[:2], cfg, 1, BoundAccumulators())


class TestRunMetaSgld:
    def test_t_zero_gives_empty_records(self):
        records, u = run_meta_sgld(small_cfg(T=0), paper_env())
        assert records == []
        assert np.array_equal(u, np.array([-4.0, -4.0]))

    def test_determinism(self):
        cfg = small_cfg(T=4)
        r1, u1 = run_meta_sgld(cfg, paper_env(), eval_cadence=2, n_test=20,
                               n_train_probe=20)
        r2, u2 = run_meta_sgld(cfg, paper_env(), eval_cadence=2, n_test=20,
                               n_train_probe=20)
        assert np.array_equal(u1, u2)
        assert r1 == r2

    def test_accumulator_monotonicity_across_epochs(self):
        records, _ = run_meta_sgld(small_cfg(T=6), paper_env())
        for a, b in zip(records, records[1:]):
            assert b.eps_u >= a.eps_u and b.eps_w >= a.eps_w
            assert b.gnorm_u >= a.gnorm_u and b.gnorm_w >= a.gnorm_w
            assert b.lipschitz >= a.lipschitz
            assert b.bound_total >= a.bound_total

    def test_records_consistent_with_assembly(self):
        records, _ = run_meta_sgld(small_cfg(T=3), paper_env())
        r = records[-1]
        assert r.bound_total == pytest.approx(
            math.sqrt(1.3469 * (r.eps_u + r.eps_w) / (100 * 8)), rel=1e-3)

    def test_m_va_zero_rejected_for_full_run(self):
        with pytest.raises(Exception):
            run_meta_sgld(small_cfg(m_tr=16, m_va=0), paper_env())

    def test_eval_cadence_populates_gap_fields(self):
        records, _ = run_meta_sgld(small_cfg(T=4), paper_env(), eval_cadence=2,
                                   n_test=20, n_train_probe=20)
        assert records[0].gap is None
        assert records[1].gap is not None
        assert records[3].gap == records[3].test_loss - records[3].train_loss


class TestMamlEquivalence:
    def test_noise_off_k1_trajectory_is_bitwise_first_order_maml(self):
        env = paper_env()
        cfg = small_cfg(K=1, noise=False, T=6, task_batch=3)
        _, u_trainer = run_meta_sgld(cfg, env)

        # independent re-derivation: plain first-order MAML gradient descent
        u = np.array(cfg.init_u, dtype=float)
        beta = cfg.schedules.beta0
        eta = cfg.schedules.eta0
        for t in range(1, cfg.T + 1):
            batch = draw_task_batch(env, cfg, t)
            g = np.zeros(2)
            for ds in batch:
                w = u.copy()
                w = w - beta * batch_grad(MODEL, w, ds.tr)
                g += batch_grad(MODEL, w, ds.va)
            g /= len(batch)
            u = u - eta * g
        assert np.array_equal(u_trainer, u)
