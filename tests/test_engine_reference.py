"""The array engines against the per-path and per-task loops they replaced.

The ``ref_*`` functions below are the trainers' and the evaluator's loop
implementations from before the engines: one task, one replica, one step and
one probe at a time, through the per-vector gradient and risk.  The engines
must reproduce every number they compute bit for bit, so every comparison
here is exact.
"""
import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from metasgld.core import (P_BATCH, P_DATA, P_MC, P_NOISE_U, P_NOISE_W,
                           P_TASK, DECAY_INVERSE_T, RunConfig, Schedules,
                           derive_stream, noise_std)
from metasgld.evaluate import adapt_eval
from metasgld.joint_sgld import (GradBoundTracker, JointConfig, JointRecord,
                                 joint_bound, joint_closed_form,
                                 joint_loss_grad, mi_step_term, run_joint_sgld)
from metasgld.meta_sgld import (BoundAccumulators, draw_task_batch,
                                estimate_eps_u, inner_adapt, outer_step)
from metasgld.model import LossModel
from metasgld.task_env import (EnvironmentSpec, sample_dataset,
                               sample_minibatch, sample_task)

MODEL = LossModel(dim=2)
ENV = EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                      trunc_lo=np.array([-12.0, -12.0]),
                      trunc_hi=np.array([4.0, 4.0]), task_cov_scale=0.1, dim=2)
SPLITS = ((8, 8), (1, 15), (15, 1))


# ------------------------------------------------------------ the loops

def ref_grad(w, batch):
    return 2.0 * (w - batch.mean(axis=0))


def ref_risk(w, batch):
    d = w[None, :] - batch
    return float(np.mean(np.sum(d * d, axis=1)))


class RefAccumulators:
    def __init__(self):
        self.eps_u_sum = self.eps_w_sum = 0.0
        self.gnorm_u_sum = self.gnorm_w_sum = 0.0
        self.lipschitz_max = 0.0

    def add_w(self, eps_term, gnorm_term):
        self.eps_w_sum += eps_term
        self.gnorm_w_sum += gnorm_term

    def add_u(self, eps_term, gnorm_term):
        self.eps_u_sum += eps_term
        self.gnorm_u_sum += gnorm_term

    def see_gradient(self, grad):
        self.lipschitz_max = max(self.lipschitz_max, float(np.linalg.norm(grad)))


def ref_inner_adapt(u, ds, cfg, t, task_slot, replica=0, collect=None):
    s = cfg.schedules
    noise_path = (P_NOISE_W, t, task_slot) if replica == 0 else (P_MC, t, task_slot, replica)
    noise_rng = derive_stream(cfg.seed, noise_path)
    batch_rng = derive_stream(cfg.seed, (P_BATCH, t, task_slot, replica))
    w = np.asarray(u, dtype=float).copy()
    w_steps = [w.copy()]
    for k in range(1, cfg.K + 1):
        beta = s.inner_lr(t, k)
        tr_idx = sample_minibatch(ds, "tr", cfg.inner_batch, batch_rng)
        g_tr = ref_grad(w, ds.samples[tr_idx])
        if collect is not None:
            eps_sq = 0.0
            gn_sq = 0.0
            for _ in range(cfg.mc_replicas):
                un_idx = sample_minibatch(ds, "union", cfg.inner_batch, batch_rng)
                g_un = ref_grad(w, ds.samples[un_idx])
                e = g_un - g_tr
                eps_sq += float(e @ e)
                gn_sq += float(g_un @ g_un)
                collect.see_gradient(g_un)
            weight = beta * s.gamma_inner / 2.0
            collect.add_w(weight * eps_sq / cfg.mc_replicas,
                          weight * gn_sq / cfg.mc_replicas)
        std = noise_std(beta, s.gamma_inner) if cfg.noise else 0.0
        zeta = std * noise_rng.standard_normal(MODEL.dim)
        w = w - beta * g_tr + zeta
        w_steps.append(w.copy())
    return w_steps


def ref_meta_gradient(w_finals, datasets, source):
    g = np.zeros(MODEL.dim)
    for w, ds in zip(w_finals, datasets):
        g += ref_grad(w, {"va": ds.va, "tr": ds.tr, "union": ds.samples}[source])
    return g / len(w_finals)


def ref_estimate_eps_u(u, task_batch, cfg, t, acc=None):
    s = cfg.schedules
    eps_sq = 0.0
    gn_sq = 0.0
    for r in range(1, cfg.mc_replicas + 1):
        w_finals = [ref_inner_adapt(u, ds, cfg, t, i, replica=r)[-1]
                    for i, ds in enumerate(task_batch)]
        g_full = ref_meta_gradient(w_finals, task_batch, "union")
        g_tr = ref_meta_gradient(w_finals, task_batch, "tr")
        e = g_full - g_tr
        eps_sq += float(e @ e)
        gn_sq += float(g_full @ g_full)
        if acc is not None:
            acc.see_gradient(g_full)
    weight = s.outer_lr(t) * s.gamma_outer / 2.0
    return (weight * eps_sq / cfg.mc_replicas, weight * gn_sq / cfg.mc_replicas)


def ref_outer_step(u, task_batch, cfg, t, acc):
    s = cfg.schedules
    task_acc = RefAccumulators()
    w_finals = [ref_inner_adapt(u, ds, cfg, t, i, replica=0, collect=task_acc)[-1]
                for i, ds in enumerate(task_batch)]
    bt = len(task_batch)
    acc.add_w(task_acc.eps_w_sum / bt, task_acc.gnorm_w_sum / bt)
    acc.lipschitz_max = max(acc.lipschitz_max, task_acc.lipschitz_max)
    acc.add_u(*ref_estimate_eps_u(u, task_batch, cfg, t, acc=acc))
    meta_grad = ref_meta_gradient(w_finals, task_batch, "va")
    eta = s.outer_lr(t)
    std = noise_std(eta, s.gamma_outer) if cfg.noise else 0.0
    xi = std * derive_stream(cfg.seed, (P_NOISE_U, t)).standard_normal(MODEL.dim)
    train_risk = float(np.mean([ref_risk(w, ds.va)
                                for w, ds in zip(w_finals, task_batch)]))
    return u - eta * meta_grad + xi, train_risk


def ref_adapt_eval(u, cfg, n_tasks, rng, eval_source):
    total = 0.0
    for _ in range(n_tasks):
        ds = sample_dataset(sample_task(ENV, rng), ENV, cfg.m, cfg.m_tr, rng)
        w = np.asarray(u, dtype=float).copy()
        for _ in range(cfg.test_adapt_steps):
            w = w - cfg.schedules.beta0 * ref_grad(w, ds.tr)
        batch = {"va": ds.va, "tr": ds.tr, "union": ds.samples}[eval_source]
        total += ref_risk(w, batch)
    return total / n_tasks


# ------------------------------------------------------------ the grid

def make_cfg(split=(8, 8), inner_batch=0, noise=True, K=4, mc_replicas=10,
             task_batch=5, test_adapt_steps=10):
    m_tr, m_va = split
    # inverse_t decay gives every inner step its own rate and probe weight
    return RunConfig(n=100, m=m_tr + m_va, m_tr=m_tr, m_va=m_va,
                     task_batch=task_batch, T=2, K=K,
                     schedules=Schedules(eta0=0.2, beta0=0.4, gamma_outer=1e4,
                                         gamma_inner=1e4,
                                         decay_rule=DECAY_INVERSE_T,
                                         decay_c=0.4),
                     seed=11, mc_replicas=mc_replicas,
                     test_adapt_steps=test_adapt_steps,
                     inner_batch=min(inner_batch, m_tr), noise=noise,
                     init_u=(-3.0, -5.0))


def same_acc(acc, ref):
    return (acc.eps_u_sum, acc.eps_w_sum, acc.gnorm_u_sum, acc.gnorm_w_sum,
            acc.lipschitz_max) == (ref.eps_u_sum, ref.eps_w_sum,
                                   ref.gnorm_u_sum, ref.gnorm_w_sum,
                                   ref.lipschitz_max)


GRID = list(itertools.product((0, 3), (True, False), (0, 1, 4), SPLITS,
                              (1, 10), (1, 5)))


@pytest.mark.parametrize("inner_batch,noise,K,split,mc_replicas,task_batch", GRID)
def test_outer_step_matches_loops(inner_batch, noise, K, split, mc_replicas,
                                  task_batch):
    cfg = make_cfg(split, inner_batch, noise, K, mc_replicas, task_batch)
    u = want_u = np.array(cfg.init_u)
    acc, want_acc = BoundAccumulators(), RefAccumulators()
    for t in (1, 2):
        batch = draw_task_batch(ENV, cfg, t)
        u, risk = outer_step(u, MODEL, batch, cfg, t, acc)
        want_u, want_risk = ref_outer_step(want_u, batch, cfg, t, want_acc)
        assert np.array_equal(u, want_u)
        assert risk == want_risk
        assert same_acc(acc, want_acc)


@pytest.mark.parametrize("inner_batch,K,mc_replicas,replica",
                         itertools.product((0, 3), (0, 1, 4), (1, 10), (0, 2)))
def test_inner_adapt_matches_loop(inner_batch, K, mc_replicas, replica):
    cfg = make_cfg(inner_batch=inner_batch, K=K, mc_replicas=mc_replicas)
    ds = draw_task_batch(ENV, cfg, 1)[0]
    u = np.array([1.5, -2.0])
    acc, ref_acc = BoundAccumulators(), RefAccumulators()
    acc.eps_w_sum = ref_acc.eps_w_sum = 0.3       # collect adds to what is there
    path = inner_adapt(u, MODEL, ds, cfg, 2, 3, replica=replica, collect=acc)
    ref_steps = ref_inner_adapt(u, ds, cfg, 2, 3, replica=replica, collect=ref_acc)
    assert len(path.w_steps) == len(ref_steps) == K + 1
    assert all(np.array_equal(a, b) for a, b in zip(path.w_steps, ref_steps))
    assert same_acc(acc, ref_acc)


@pytest.mark.parametrize("inner_batch,K,mc_replicas,split",
                         itertools.product((0, 3), (0, 4), (1, 10), SPLITS))
def test_estimate_eps_u_matches_loop(inner_batch, K, mc_replicas, split):
    cfg = make_cfg(split, inner_batch=inner_batch, K=K, mc_replicas=mc_replicas)
    batch = draw_task_batch(ENV, cfg, 2)
    acc, ref_acc = BoundAccumulators(), RefAccumulators()
    terms = estimate_eps_u(np.zeros(2), MODEL, batch, cfg, 2, acc=acc)
    assert terms == ref_estimate_eps_u(np.zeros(2), batch, cfg, 2, acc=ref_acc)
    assert same_acc(acc, ref_acc)


@pytest.mark.parametrize("eval_source,split,steps",
                         itertools.product(("va", "tr", "union"), SPLITS, (0, 10)))
def test_adapt_eval_matches_loop(eval_source, split, steps):
    cfg = make_cfg(split, test_adapt_steps=steps)
    u = np.array([-2.5, -4.5])
    got = adapt_eval(u, MODEL, ENV, cfg, 40, derive_stream(3, [9]), eval_source)
    assert got == ref_adapt_eval(u, cfg, 40, derive_stream(3, [9]), eval_source)


def test_non_finite_paths_raise_the_gradient_check_error():
    # the loops raised this from batch_grad's check on W; an inner rate this
    # large overflows W within a few steps
    cfg = replace(make_cfg(), schedules=Schedules(
        eta0=0.2, beta0=1e200, gamma_outer=1e4, gamma_inner=1e4))
    batch = draw_task_batch(ENV, cfg, 1)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN/Inf"):
        outer_step(np.array(cfg.init_u), MODEL, batch, cfg, 1, BoundAccumulators())
    with pytest.raises(ValueError, match="NaN/Inf"):
        outer_step(np.array([np.nan, 0.0]), MODEL, batch, make_cfg(), 1,
                   BoundAccumulators())
    with pytest.raises(ValueError, match="NaN/Inf"):
        adapt_eval(np.array([np.inf, 0.0]), MODEL, ENV, make_cfg(), 3,
                   derive_stream(3, [9]))


# ------------------------------------------------------------ joint mode

def ref_joint_grad(u, ws, datasets, coupling):
    n = len(ws)
    gu = np.zeros(2)
    gws = []
    for w, batch in zip(ws, datasets):
        gw = ref_grad(w, batch) / n
        if coupling > 0:
            diff = w - u
            gw = gw + (2.0 * coupling / n) * diff
            gu -= (2.0 * coupling / n) * diff
        gws.append(gw)
    return np.concatenate([gu] + gws)


def ref_run_joint(cfg, sigma_sg):
    """The joint trainer's loop: u and a list of w_i, one task at a time."""
    datasets = []
    for i in range(cfg.n):
        task = sample_task(ENV, derive_stream(cfg.seed, (P_TASK, 0, i)))
        datasets.append(sample_dataset(task, ENV, cfg.m, cfg.m,
                                       derive_stream(cfg.seed, (P_DATA, 0, i))).samples)
    u, ws = np.zeros(2), [np.zeros(2) for _ in range(cfg.n)]
    tracker = GradBoundTracker(fixed_l=cfg.fixed_l)
    noise_rng = derive_stream(cfg.seed, (P_NOISE_U, 0))
    s = cfg.schedules
    records = []
    for t in range(1, cfg.T + 1):
        eta = s.outer_lr(t)
        sigma = math.sqrt(eta) if cfg.sigma_rule == "sqrt_eta" else cfg.sigma0
        grad = ref_joint_grad(u, ws, datasets, cfg.coupling)
        l_hat = tracker.observe(np.linalg.norm(grad))
        term = mi_step_term(eta, sigma, l_hat, grad.size)
        tracker.per_step_terms.append(term)
        flat = np.concatenate([u] + ws) - eta * grad
        if sigma > 0:
            flat = flat + sigma * noise_rng.standard_normal(flat.size)
        u, ws = flat[:2].copy(), [flat[2 * i:2 * i + 2].copy()
                                  for i in range(1, cfg.n + 1)]
        cf = (joint_closed_form(sigma_sg, l_hat, cfg.n, cfg.m, s.decay_c, t)
              if cfg.sigma_rule == "sqrt_eta" else float("nan"))
        train = float(np.mean([ref_risk(w, b) for w, b in zip(ws, datasets)]))
        records.append(JointRecord(
            t=t, l_hat=l_hat, mi_step_term=term, mi_sum=tracker.mi_sum,
            joint_bound=joint_bound(tracker.mi_sum, sigma_sg, cfg.n, cfg.m),
            closed_form=cf, train_risk=train))
    return records


JOINT_GRID = list(itertools.product((0.0, 0.7), ("sqrt_eta", "fixed"),
                                    (None, 5.0), (1, 3, 12)))


@pytest.mark.parametrize("coupling,sigma_rule,fixed_l,n", JOINT_GRID)
def test_run_joint_matches_loop(coupling, sigma_rule, fixed_l, n):
    cfg = JointConfig(n=n, m=5, T=25,
                      schedules=Schedules(eta0=1.0, beta0=1.0, gamma_outer=1.0,
                                          gamma_inner=1.0,
                                          decay_rule=DECAY_INVERSE_T,
                                          decay_c=0.3),
                      seed=4, coupling=coupling, sigma_rule=sigma_rule,
                      sigma0=0.05, fixed_l=fixed_l)
    got = run_joint_sgld(cfg, ENV, sigma_sg=1.2)
    want = ref_run_joint(cfg, sigma_sg=1.2)
    assert len(got) == len(want) == cfg.T
    # compare the bits, so NaN closed forms and the sign of zero count too
    for a, b in zip(got, want):
        assert np.array(astuple(a)).tobytes() == np.array(astuple(b)).tobytes()


@pytest.mark.parametrize("coupling,n,start", itertools.product(
    (0.0, 0.7), (1, 3, 12), ("zero", "random")))
def test_joint_loss_grad_matches_loop(coupling, n, start):
    # at Phi = 0 every tether term is zero: the loop's U block is +0.0
    rng = np.random.default_rng(n)
    phi = np.zeros((n + 1, 2)) if start == "zero" else rng.normal(size=(n + 1, 2))
    data = rng.normal(size=(n, 5, 2))
    got = joint_loss_grad(phi, data, coupling).ravel()
    want = ref_joint_grad(phi[0], list(phi[1:]), list(data), coupling)
    assert got.tobytes() == want.tobytes()
