"""The array engines against the per-path and per-task loops they replaced.

The ``ref_*`` functions below are the trainers' and the evaluator's loop
implementations from before the engines: one task, one replica, one step and
one probe at a time, through the per-vector gradient and risk.  They read
the engines' stream addresses (layout 7, ``ref_row``): task i's mean, data
and split, its live noise and its live minibatch keys are row or column i of
epoch t's rows of one stream per array kind and block, and the loops consume
them task by task.  A gap evaluation draws each task's split means and
scatter, not its rows (layout 9, ``ref_adapt_eval``).  The engines must
reproduce the live paths, U and the losses bit for bit, so those
comparisons are exact.  The bound increments are expectations, which the
engine computes in closed form: the loops' union probes and meta-level
replicas, on streams of their own, are their Monte-Carlo oracle.
"""
import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from metasgld.bounds import assemble_alt_bound, subgaussian_mean_estimation
from metasgld.core import (P_BATCH, P_MEANS, P_NOISE_U, P_NOISE_W, P_TASK, P_TEST,
                           P_TRAIN_PROBE, STREAM_BLOCK, DECAY_CONSTANT, DECAY_EXPONENTIAL,
                           DECAY_INVERSE_T, ConfigurationError, RunConfig, Schedules,
                           UndefinedBoundError, derive_stream, noise_std, ordered_sum,
                           stopped_at)
from metasgld import evaluate, joint_sgld, meta_sgld
from metasgld.evaluate import adapt_eval, observed_gap
from metasgld.joint_sgld import (JointConfig, JointRecord, joint_bound,
                                 joint_closed_form, joint_loss_grad,
                                 mi_step_term, run_joint_sgld)
from metasgld.meta_sgld import (BoundAccumulators, draw_task_batch,
                                estimate_eps_u, inner_adapt, outer_step,
                                run_meta_sgld)
from metasgld.model import LossModel
from metasgld.task_env import (EnvironmentSpec, minibatch_mean_var,
                               sample_datasets, sample_minibatch,
                               sample_task_means)

MODEL = LossModel(dim=2)
ENV = EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                      trunc_lo=np.array([-12.0, -12.0]),
                      trunc_hi=np.array([4.0, 4.0]), task_cov_scale=0.1, dim=2)
SPLITS = ((8, 8), (1, 15), (15, 1))
# the purpose tag of the loops' own streams: (REF_MC, t, slot, 0) for the
# union probes of a live path, (REF_MC, t, slot, r) for replica r >= 1
REF_MC = 8


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
        self.probe_terms = []     # per step, the R probes' weighted terms

    def add_w(self, eps_term, gnorm_term):
        self.eps_w_sum += eps_term
        self.gnorm_w_sum += gnorm_term

    def add_u(self, eps_term, gnorm_term):
        self.eps_u_sum += eps_term
        self.gnorm_u_sum += gnorm_term

    def see_gradient(self, grad):
        self.lipschitz_max = max(self.lipschitz_max, float(np.linalg.norm(grad)))


def ref_batch(pool, b, rng):
    """The loops' minibatch: b = 0 is the whole pool, drawing nothing."""
    return pool.copy() if b == 0 else sample_minibatch(pool, b, rng)


def ref_row(cfg, purpose, t, draw, shape):
    """Epoch t's row: row (t - 1) % STREAM_BLOCK of the rows of that shape
    drawn in turn from the (purpose, (t - 1) // STREAM_BLOCK) stream."""
    block, row = divmod(t - 1, STREAM_BLOCK)
    return getattr(derive_stream(cfg.seed, (purpose, block)), draw)((row + 1,) + shape)[row]


def ref_inner_adapt(u, ds, cfg, t, task_slot, replica=0, collect=None):
    s, b = cfg.schedules, cfg.inner_batch
    if replica == 0:
        # a live path reads column task_slot of the epoch's (K, B, dim) noise
        # and of its (K, B, m_tr) minibatch keys
        noise = ref_row(cfg, P_NOISE_W, t, "standard_normal",
                        (cfg.K, cfg.task_batch, MODEL.dim))[:, task_slot]
        keys = ref_row(cfg, P_BATCH, t, "random",
                       (cfg.K, cfg.task_batch, ds.tr_indices.size))[:, task_slot]
        rng = None
    else:
        rng = derive_stream(cfg.seed, (REF_MC, t, task_slot, replica))
        noise = rng.standard_normal((cfg.K, MODEL.dim))
    probe_rng = derive_stream(cfg.seed, (REF_MC, t, task_slot, 0))
    w = np.asarray(u, dtype=float).copy()
    w_steps = [w.copy()]
    for k in range(1, cfg.K + 1):
        beta = s.inner_lr(t, k)
        if replica == 0 and b:
            tr_idx = ds.tr_indices[np.sort(np.argsort(keys[k - 1])[:b])]
        else:
            tr_idx = ref_batch(ds.tr_indices, b, rng)
        g_tr = ref_grad(w, ds.samples[tr_idx])
        if collect is not None:
            eps_sq = []
            gn_sq = []
            for _ in range(cfg.mc_replicas):
                un_idx = ref_batch(np.arange(len(ds.samples)), b, probe_rng)
                g_un = ref_grad(w, ds.samples[un_idx])
                e = g_un - g_tr
                eps_sq.append(float(e @ e))
                gn_sq.append(float(g_un @ g_un))
                collect.see_gradient(g_un)
            weight = beta * s.gamma_inner / 2.0
            collect.add_w(weight * sum(eps_sq) / cfg.mc_replicas,
                          weight * sum(gn_sq) / cfg.mc_replicas)
            collect.probe_terms.append(weight * np.array([eps_sq, gn_sq]))
        std = noise_std(beta, s.gamma_inner) if cfg.noise else 0.0
        zeta = std * noise[k - 1]
        w = w - beta * g_tr + zeta
        w_steps.append(w.copy())
    return w_steps


def ref_meta_gradient(w_finals, datasets, source):
    g = np.zeros(MODEL.dim)
    for w, ds in zip(w_finals, datasets):
        g += ref_grad(w, {"va": ds.va, "tr": ds.tr, "union": ds.samples}[source])
    return g / len(w_finals)


def ref_meta_replicas(u, task_batch, cfg, t):
    """g_full and g_tr of each Monte-Carlo replica r = 1..mc_replicas."""
    for r in range(1, cfg.mc_replicas + 1):
        w_finals = [ref_inner_adapt(u, ds, cfg, t, i, replica=r)[-1]
                    for i, ds in enumerate(task_batch)]
        yield (ref_meta_gradient(w_finals, task_batch, "union"),
               ref_meta_gradient(w_finals, task_batch, "tr"))


def ref_estimate_eps_u(u, task_batch, cfg, t):
    s = cfg.schedules
    eps_sq = 0.0
    gn_sq = 0.0
    for g_full, g_tr in ref_meta_replicas(u, task_batch, cfg, t):
        e = g_full - g_tr
        eps_sq += float(e @ e)
        gn_sq += float(g_full @ g_full)
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
    acc.add_u(*ref_estimate_eps_u(u, task_batch, cfg, t))
    meta_grad = ref_meta_gradient(w_finals, task_batch, "va")
    eta = s.outer_lr(t)
    std = noise_std(eta, s.gamma_outer) if cfg.noise else 0.0
    xi = std * ref_row(cfg, P_NOISE_U, t, "standard_normal", (MODEL.dim,))
    train_risk = float(np.mean([ref_risk(w, ds.va)
                                for w, ds in zip(w_finals, task_batch)]))
    return u - eta * meta_grad + xi, train_risk


def ref_adapt_eval(u, cfg, n_tasks, rng, eval_source, env=ENV):
    """The mean risk and the per-task risks.  A task is drawn as its
    sufficient statistics (layout 9): after the means, row i of the normals
    holds task i's tr-mean noise and, on the va side, its va-mean noise, and
    when the k scored rows number 2 or more, chi-square i is their scatter
    over tau (one row has none).  The risk of w on the k rows is its
    distance to their mean plus their scatter over k."""
    tau = env.task_cov_scale
    k = cfg.m_va if eval_source == "va" else cfg.m_tr
    mus = sample_task_means(env, n_tasks, rng)
    z = rng.standard_normal((n_tasks, 2 if eval_source == "va" else 1, env.dim))
    scatter = rng.chisquare(env.dim * (k - 1), n_tasks) if k > 1 else np.zeros(n_tasks)
    total, risks = 0.0, []
    for mu, rows, chi2 in zip(mus, z, scatter):
        tr_mean = mu + math.sqrt(tau / cfg.m_tr) * rows[0]
        scored_mean = mu + math.sqrt(tau / k) * rows[-1]
        w = np.asarray(u, dtype=float).copy()
        for _ in range(cfg.test_adapt_steps):
            w = w - cfg.schedules.beta0 * (2.0 * (w - tr_mean))
        d = w - scored_mean
        risks.append(float(d @ d) + tau * float(chi2) / k)
        total += risks[-1]
    return total / n_tasks, risks


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


def close_acc(acc, ref, fields=("eps_u_sum", "eps_w_sum", "gnorm_w_sum")):
    """The named sums to rel 1e-12: eps_u is exact in every batch mode, and
    with inner_batch = 0 so are the loop's identical union probes, so only
    the rounding of the Monte-Carlo means differs."""
    return all(getattr(acc, f) == pytest.approx(getattr(ref, f), rel=1e-12)
               for f in fields)


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
        # the other sums are Monte-Carlo in the loops: see the oracles below
        assert close_acc(acc, want_acc, fields=(
            ("eps_u_sum",) if cfg.inner_batch else
            ("eps_u_sum", "eps_w_sum", "gnorm_w_sum")))


@pytest.mark.parametrize("inner_batch,K,mc_replicas,slot",
                         itertools.product((0, 3), (0, 1, 4), (1, 10), (0, 3)))
def test_inner_adapt_matches_loop(inner_batch, K, mc_replicas, slot):
    # the slot picks the column of the epoch's noise and minibatch keys
    cfg = make_cfg(inner_batch=inner_batch, K=K, mc_replicas=mc_replicas)
    ds = draw_task_batch(ENV, cfg, 1)[0]
    u = np.array([1.5, -2.0])
    acc, ref_acc = BoundAccumulators(), RefAccumulators()
    acc.eps_w_sum = ref_acc.eps_w_sum = 0.3       # collect adds to what is there
    acc.lipschitz_max = ref_acc.lipschitz_max = 1.5
    path = inner_adapt(u, MODEL, ds, cfg, 2, slot, collect=acc)
    ref_steps = ref_inner_adapt(u, ds, cfg, 2, slot, collect=ref_acc)
    assert path.shape == (K + 1, 2)
    assert np.array_equal(path, np.array(ref_steps))
    if not inner_batch:
        assert close_acc(acc, ref_acc) and acc.gnorm_u_sum == ref_acc.gnorm_u_sum
        assert acc.lipschitz_max == ref_acc.lipschitz_max


@pytest.mark.parametrize("inner_batch,K,mc_replicas,split",
                         itertools.product((0, 3), (0, 4), (1, 10), SPLITS))
def test_estimate_eps_u_matches_loop(inner_batch, K, mc_replicas, split):
    # eps_u is exact in both batch modes; gnorm_u: see the oracles below
    cfg = make_cfg(split, inner_batch=inner_batch, K=K, mc_replicas=mc_replicas)
    batch = draw_task_batch(ENV, cfg, 2)
    terms = estimate_eps_u(np.zeros(2), MODEL, batch, cfg, 2)
    want = ref_estimate_eps_u(np.zeros(2), batch, cfg, 2)
    assert terms[0] == pytest.approx(want[0], rel=1e-12)


# no preset runs in dimension 1 or 8, where the engine's squared distance to
# a task's scored mean (core.sq_norm) is checked against float(d @ d) too
ENV8 = EnvironmentSpec(env_mean=np.linspace(-4.0, 3.0, 8), env_cov_scale=5.0,
                       trunc_lo=np.full(8, -12.0), trunc_hi=np.full(8, 4.0),
                       task_cov_scale=0.1, dim=8)
ENV1 = EnvironmentSpec(env_mean=np.array([-4.0]), env_cov_scale=5.0, trunc_lo=np.array([-12.0]),
                       trunc_hi=np.array([4.0]), task_cov_scale=0.1, dim=1)
# (env, eval_source, split, test_adapt_steps, n_tasks): the grid at 40 tasks in
# dimensions 2 and 8; the splits with 8 or more tr rows in dimension 1; the tr
# side of a split with no va rows; one task; and each preset split at the 500
# tasks of a run's gap evaluation; the dimension-2 grid keeps the ids pytest
# generates for it
ADAPT_GRID = list(itertools.product(("va", "tr"), SPLITS, (0, 10)))
ADAPT_CASES = (
    [pytest.param(ENV, src, split, steps, 40, id=f"{src}-split{i}-{steps}")
     for i, (src, split, steps) in enumerate(ADAPT_GRID)]
    + [pytest.param(ENV8, src, split, steps, 40, id=f"dim8-{src}-{split[0]}_{split[1]}-{steps}")
       for src, split, steps in ADAPT_GRID]
    + [pytest.param(ENV1, src, split, 10, 40, id=f"dim1-{src}-{split[0]}_{split[1]}")
       for src, split in itertools.product(("va", "tr"), ((8, 8), (15, 1)))]
    + [pytest.param(env, "tr", (16, 0), 10, 40, id=f"dim{env.dim}-tr-16_0")
       for env in (ENV, ENV8)]
    + [pytest.param(env, src, (8, 8), 10, 1, id=f"dim{env.dim}-{src}-1task")
       for env, src in itertools.product((ENV, ENV8), ("va", "tr"))]
    + [pytest.param(ENV, src, split, 10, 500, id=f"{src}-{split[0]}_{split[1]}-500tasks")
       for src, split in itertools.product(("va", "tr"), SPLITS)])


@pytest.mark.parametrize("env,eval_source,split,steps,n_tasks", ADAPT_CASES)
def test_adapt_eval_matches_loop(env, eval_source, split, steps, n_tasks, monkeypatch):
    # task by task as well: the sum often rounds away one ulp of a task's risk
    risks = []
    monkeypatch.setattr(evaluate, "ordered_sum",
                        lambda x: risks.append(x.copy()) or ordered_sum(x))
    cfg = make_cfg(split, test_adapt_steps=steps)
    u = np.linspace(-2.5, -4.5, env.dim)
    got = adapt_eval(u, env, cfg, n_tasks, derive_stream(3, [9]), eval_source)
    want, want_risks = ref_adapt_eval(u, cfg, n_tasks, derive_stream(3, [9]), eval_source, env)
    assert risks[0].tolist() == want_risks
    assert got == want


def test_non_finite_paths_raise_the_gradient_check_error():
    # the loops raised this from batch_grad's check on W; an inner rate this
    # large overflows W within a few steps
    cfg = replace(make_cfg(), schedules=Schedules(
        eta0=0.2, beta0=1e200, gamma_outer=1e4, gamma_inner=1e4))
    batch = draw_task_batch(ENV, cfg, 1)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN/Inf"):
        outer_step(np.array(cfg.init_u), MODEL, batch, cfg, 1, BoundAccumulators())
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN/Inf"):
        inner_adapt(np.array(cfg.init_u), MODEL, batch[0], cfg, 1, 0)
    with pytest.raises(ValueError, match="NaN/Inf"):
        outer_step(np.array([np.nan, 0.0]), MODEL, batch, make_cfg(), 1,
                   BoundAccumulators())
    with pytest.raises(ValueError, match="NaN/Inf"):
        adapt_eval(np.array([np.inf, 0.0]), ENV, make_cfg(), 3,
                   derive_stream(3, [9]))


# ------------------------------------------------------------ the whole run
#
# run_meta_sgld draws a block's epochs first, then advances U alone, then
# takes every increment over the block's epoch axis.  The per-epoch trainer it
# replaced is a loop of draw_task_batch, outer_step, assemble_alt_bound and
# observed_gap; its records and U are the reference, bit for bit.

def ref_run(cfg, eval_cadence, n_eval=30, env=ENV):
    sg = subgaussian_mean_estimation(env, cfg.schedules.beta0)
    u = np.array(cfg.init_u if cfg.init_u is not None else (0.0, 0.0))
    acc, records = BoundAccumulators(), []
    for t in range(1, cfg.T + 1):
        try:        # a run names the epoch of a failed draw
            batch = draw_task_batch(env, cfg, t)
        except ValueError as exc:
            raise stopped_at(exc, "epoch", t) from None
        u, risk = outer_step(u, MODEL, batch, cfg, t, acc)
        if not (np.all(np.isfinite(u)) and np.isfinite(risk)):
            raise FloatingPointError(f"meta parameter became non-finite at epoch {t}")
        gap = (None,) * 3
        if eval_cadence > 0 and (t % eval_cadence == 0 or t == cfg.T):
            try:    # a run names the epoch of a failed evaluation
                rep = observed_gap(u, env, cfg, n_eval, n_eval,
                                   test_stream=derive_stream(cfg.seed, (P_TEST, t)),
                                   train_stream=derive_stream(cfg.seed, (P_TRAIN_PROBE, t)))
            except ValueError as exc:
                raise stopped_at(exc, "epoch", t) from None
            gap = (rep.train_loss, rep.test_loss, rep.gap)
        records.append((t, acc.eps_u_sum, acc.eps_w_sum, acc.gnorm_u_sum,
                        acc.gnorm_w_sum, acc.lipschitz_max,
                        *astuple(assemble_alt_bound(acc, sg, cfg.n, cfg.m_va)), *gap))
    return records, u


def as_bits(rows):
    """Each value's float repr, so the sign of zero and every bit count."""
    return [tuple(v if v is None or isinstance(v, int) else repr(float(v)) for v in row)
            for row in rows]


@pytest.mark.parametrize("decay_rule,inner_batch,K,task_batch", itertools.product(
    (DECAY_CONSTANT, DECAY_INVERSE_T, DECAY_EXPONENTIAL), (0, 3), (0, 4), (1, 5)))
def test_run_matches_per_epoch_loop(decay_rule, inner_batch, K, task_batch):
    cfg = replace(make_cfg(inner_batch=inner_batch, K=K, task_batch=task_batch), T=5,
                  schedules=Schedules(eta0=0.2, beta0=0.3, gamma_outer=1e4,
                                      gamma_inner=25.0, decay_rule=decay_rule,
                                      decay_c=0.4, decay_rate=0.8))
    records, u = run_meta_sgld(cfg, ENV, eval_cadence=2, n_test=30, n_train_probe=30)
    want, want_u = ref_run(cfg, eval_cadence=2)
    assert as_bits(astuple(r) for r in records) == as_bits(want)
    assert u.tobytes() == want_u.tobytes()


# Diverging runs, with the error and epoch the per-epoch trainer (layout 4)
# raised: exponential decay with a huge rate makes the rates jump by that
# factor each epoch.  (eta0, beta0, K, decay_rate, eval_cadence, T, the
# last T that runs through, error, message)
DIVERGING = {
    # the inner paths overflow first
    "inner": (1e-90, 1e-60, 4, 1e30, 0, 6, 3, ValueError, "NaN/Inf"),
    "u": (1e-60, 1e-200, 4, 1e30, 0, 7, 5, FloatingPointError, "at epoch 6$"),
    # the live W^K is finite, its va risk is not; U stays finite
    "train_risk": (1e-300, 1e-20, 2, 1e40, 0, 5, 2, FloatingPointError, "at epoch 3$"),
    # the rates overflow at epoch 4, after U did at epoch 3
    "u_before_rates": (1e-95, 1e40, 0, 1e100, 0, 6, 2, FloatingPointError, "at epoch 3$"),
    # the gap evaluation at epoch 2 overflows (beta0 = 1e40) before U does
    "eval": (1e-95, 1e40, 0, 1e100, 2, 3, 0, ValueError, "NaN/Inf"),
    # the rates overflow at epoch 4 while U and the paths stay finite
    "rates": (1e-300, 1e-300, 2, 1e100, 0, 6, 3, OverflowError, "at epoch 4$"),
    # the meta rate underflows to 0.0 at epoch 3, so its noise std raises in the U loop
    "meta_noise_std": (1e-300, 0.3, 4, 1e-10, 0, 4, 2, ValueError,
                       "lr must be positive, got 0.0 at epoch 3$"),
}


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_diverging_run_raises_where_the_per_epoch_loop_did(case):
    eta0, beta0, K, rate, cadence, T, last_ok, error, match = DIVERGING[case]
    cfg = replace(make_cfg(K=K, task_batch=3), init_u=(-4.0, -4.0), seed=5,
                  schedules=Schedules(eta0=eta0, beta0=beta0, gamma_outer=1e4,
                                      gamma_inner=1e4, decay_rule=DECAY_EXPONENTIAL,
                                      decay_rate=rate, decay_period=1.0))
    with np.errstate(all="ignore"):
        if last_ok:
            run_meta_sgld(replace(cfg, T=last_ok), ENV, eval_cadence=cadence)
        with pytest.raises(error, match=match):
            run_meta_sgld(replace(cfg, T=T), ENV, eval_cadence=cadence,
                          n_test=30, n_train_probe=30)
        with pytest.raises(error, match=match):
            ref_run(replace(cfg, T=T), eval_cadence=cadence)


def test_live_path_overflow_raises_before_u_as_the_per_epoch_loop():
    # gamma_inner = 1e-250 makes the inner noise std ~4e152 at epoch 2 (beta =
    # 1e55): the live W^K overflows there while its mean row stays finite
    # (~1e221), and U goes non-finite at the same epoch.  The per-epoch loop
    # checked W^K before U.
    cfg = replace(make_cfg(K=4, task_batch=3), init_u=(-4.0, -4.0), seed=5, T=3,
                  schedules=Schedules(eta0=1e-200, beta0=1e-45, gamma_outer=1e4,
                                      gamma_inner=1e-250, decay_rule=DECAY_EXPONENTIAL,
                                      decay_rate=1e50, decay_period=1.0))
    with np.errstate(all="ignore"):
        run_meta_sgld(replace(cfg, T=1), ENV)
        with pytest.raises(ValueError, match="NaN/Inf at epoch 2$"):
            run_meta_sgld(cfg, ENV)
        with pytest.raises(ValueError, match="NaN/Inf at epoch 2$"):
            ref_run(cfg, eval_cadence=0)


# run_meta_sgld draws and advances BLOCK epochs at a time, from the U and
# running values the block before it ends with: runs of T = B - 1, B, B + 1
# and 2 B + 1 epochs end inside, at and just past a block's edge, and a
# cadence of 100 evaluates the gap in every block
BLOCK = 256
EDGES = list(itertools.product((BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1), (0, 3)))


def test_edge_runs_use_the_run_block():
    assert meta_sgld.BLOCK == BLOCK


@pytest.mark.parametrize("T,inner_batch", EDGES, ids=[f"T{T}-b{b}" for T, b in EDGES])
def test_run_matches_per_epoch_loop_at_block_edges(T, inner_batch):
    cfg = replace(make_cfg(inner_batch=inner_batch, task_batch=3), T=T)
    records, u = run_meta_sgld(cfg, ENV, eval_cadence=100, n_test=30, n_train_probe=30)
    want, want_u = ref_run(cfg, eval_cadence=100)
    assert as_bits(astuple(r) for r in records) == as_bits(want)
    assert u.tobytes() == want_u.tobytes()


# Runs that fail in block 2, with the error and epoch of the failure: each
# rate is eta0 * 1e100 ** (t / decay_period), and the power passes the float
# range once t > 3.0825 decay_period.  A meta noise std sqrt(2 eta /
# gamma_outer) overflows earlier, at a tiny gamma_outer; K = 0 keeps W^K = U.
# (eta0, beta0, decay_period, gamma_outer, eval_cadence, T, error, epoch)
EDGE_DIVERGING = {
    # the rates overflow at the first epoch of block 2, which has no drawn epoch
    "rates": (5e-324, 5e-324, 83.2, 1e4, 0, BLOCK + 3, OverflowError, BLOCK + 1),
    # the meta noise std is inf at the first epoch of block 2
    "u": (1e-310, 1e-300, 84.0, 1e-313, 0, BLOCK + 2, FloatingPointError, BLOCK + 1),
    # U fails at epoch B + 2, the rates at B + 4, both in block 2
    "u_before_rates": (1e-311, 1e-300, 84.2, 1e-313, 0, BLOCK + 6, FloatingPointError,
                       BLOCK + 2),
    # the gap evaluation at epoch 200 (beta0 = 1e40) fails in block 1, before
    # the rates overflow at epoch B + 1
    "eval_before_rates": (5e-324, 1e40, 83.2, 1e4, 200, BLOCK + 3, ValueError, 200),
}


@pytest.mark.parametrize("case", sorted(EDGE_DIVERGING))
def test_run_fails_past_the_block_edge_as_the_per_epoch_loop(case):
    eta0, beta0, period, gamma_outer, cadence, T, error, epoch = EDGE_DIVERGING[case]
    cfg = replace(make_cfg(K=0, task_batch=3), init_u=(-4.0, -4.0), seed=5, T=T,
                  schedules=Schedules(eta0=eta0, beta0=beta0, gamma_outer=gamma_outer,
                                      gamma_inner=1e4, decay_rule=DECAY_EXPONENTIAL,
                                      decay_rate=1e100, decay_period=period))
    with np.errstate(all="ignore"):
        with pytest.raises(error) as got:
            run_meta_sgld(cfg, ENV, eval_cadence=cadence, n_test=30, n_train_probe=30)
        with pytest.raises(error) as want:
            ref_run(cfg, eval_cadence=cadence)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert str(got.value).endswith(f" at epoch {epoch}")


# With trunc_hi = (0, 0), a 5-task batch's first task-mean draw leaves the box
# at about a third of the epochs, so the sampler redraws there, and each
# redraw draws the epoch's means and datasets again from a (P_TASK, t)
# stream: 85 of the 257 epochs at seed 2, epoch BLOCK + 1 (block 2's first)
# among them.  Seed 2 is the smallest seed that redraws that epoch.
NARROW = replace(ENV, trunc_hi=np.array([0.0, 0.0]))


def redrawn_epochs(cfg, env):
    """The epochs whose first (task_batch, dim) task-mean draw is not all in the box."""
    firsts = (env.env_mean + np.sqrt(env.env_cov_scale) * ref_row(
        cfg, P_MEANS, t, "standard_normal", (cfg.task_batch, 2)) for t in range(1, cfg.T + 1))
    return [t for t, mus in enumerate(firsts, 1)
            if not np.all((mus >= env.trunc_lo) & (mus <= env.trunc_hi))]


# A box of mass ~2.5e-7 about the mean: at seed 17 a one-task batch's sampler
# finds its mean at epoch 1 and gives up at epoch 2, after 4e6 draws without a
# hit.  The per-epoch loop drew an epoch's tasks before its rates, so the
# sampler's error also wins over a rate that overflows at epoch 2.
LOW_MASS = replace(ENV, trunc_lo=np.array([-4.0014, -4.0014]),
                   trunc_hi=np.array([-3.9986, -3.9986]))
SAMPLER_FAILS = {
    "sampler": make_cfg().schedules,
    # eta0 * 1e100 ** (t / 0.64) passes the float range at t = 2
    "sampler_before_rates": Schedules(eta0=1e-300, beta0=1e-300, gamma_outer=1e4,
                                      gamma_inner=1e4, decay_rule=DECAY_EXPONENTIAL,
                                      decay_rate=1e100, decay_period=0.64),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_FAILS))
def test_sampler_fails_after_the_first_epoch_as_the_per_epoch_loop(case):
    cfg = replace(make_cfg(task_batch=1), seed=17, T=2, schedules=SAMPLER_FAILS[case])
    if case == "sampler_before_rates":
        with pytest.raises(OverflowError):
            cfg.schedules.outer_lr(2)
    records, u = run_meta_sgld(replace(cfg, T=1), LOW_MASS)
    want, want_u = ref_run(replace(cfg, T=1), 0, env=LOW_MASS)
    assert as_bits(astuple(r) for r in records) == as_bits(want)
    assert u.tobytes() == want_u.tobytes()
    with pytest.raises(ConfigurationError) as got:
        run_meta_sgld(cfg, LOW_MASS)
    with pytest.raises(ConfigurationError) as want:
        ref_run(cfg, 0, env=LOW_MASS)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("too little mass at epoch 2")


@pytest.mark.parametrize("inner_batch", (0, 3))
def test_run_redraws_task_means_as_the_per_epoch_loop(inner_batch):
    cfg = replace(make_cfg(inner_batch=inner_batch), T=BLOCK + 1, seed=2)
    redrawn = redrawn_epochs(cfg, NARROW)
    assert len(redrawn) == 85 and redrawn[-1] == BLOCK + 1
    records, u = run_meta_sgld(cfg, NARROW, eval_cadence=100, n_test=30, n_train_probe=30)
    want, want_u = ref_run(cfg, eval_cadence=100, env=NARROW)
    assert as_bits(astuple(r) for r in records) == as_bits(want)
    assert u.tobytes() == want_u.tobytes()


# ------------------------------------------------------------ Monte-Carlo oracles
#
# The trainer takes every bound increment in closed form: the meta-level
# terms from one noise-free mean row plus the variance of W^K, the
# task-level terms from the union gradient at each live W^k plus the
# variance of a union probe's mean.  The loop's replicas and probes
# estimate the same expectations by Monte Carlo.

ORACLE_R = 2000
ORACLE_BATCHES = (0, 1, 3, 8)      # 8 = m_tr: minibatches only in the probes


def oracle_cfg(decay_rule=DECAY_CONSTANT, noise=True, K=4, inner_batch=0):
    # gamma_inner = 25 makes the inner noise most of E||g_full||^2
    return RunConfig(n=100, m=16, m_tr=8, m_va=8, task_batch=2, T=2, K=K,
                     schedules=Schedules(eta0=0.2, beta0=0.3, gamma_outer=1e4,
                                         gamma_inner=25.0,
                                         decay_rule=decay_rule, decay_c=0.4),
                     seed=11, mc_replicas=ORACLE_R, inner_batch=inner_batch,
                     noise=noise)


def oracle_replicas(cfg, t=2):
    """U near the batch's task means, the exact terms, and the replicas' terms."""
    batch = draw_task_batch(ENV, cfg, t)
    u = np.mean([ds.samples.mean(axis=0) for ds in batch], axis=0)
    s = cfg.schedules
    weight = s.outer_lr(t) * s.gamma_outer / 2.0
    reps = np.array([(weight * float((g_full - g_tr) @ (g_full - g_tr)),
                      weight * float(g_full @ g_full))
                     for g_full, g_tr in ref_meta_replicas(u, batch, cfg, t)])
    return batch, u, estimate_eps_u(u, MODEL, batch, cfg, t), reps


def check_gnorm_u_is_the_replica_mean(cfg):
    batch, u, (eps_u, gnorm_u), reps = oracle_replicas(cfg)
    se = reps[:, 1].std(ddof=1) / math.sqrt(ORACLE_R)
    assert abs(reps[:, 1].mean() - gnorm_u) < 4 * se
    assert eps_u == pytest.approx(reps[:, 0].mean(), rel=1e-12)
    # the variance terms are resolved: without the inner noise, or without
    # the variance of single-sample tr minibatches, the term is far off
    _, noise_free = estimate_eps_u(u, MODEL, batch, replace(cfg, noise=False), 2)
    assert abs(reps[:, 1].mean() - noise_free) > 4 * se
    if cfg.inner_batch == 1:
        _, full_batch = estimate_eps_u(u, MODEL, batch,
                                       replace(cfg, inner_batch=0), 2)
        assert abs(reps[:, 1].mean() - full_batch) > 4 * se


@pytest.mark.parametrize("decay_rule", (DECAY_CONSTANT, DECAY_INVERSE_T))
def test_full_batch_gnorm_u_is_the_replica_mean(decay_rule):
    check_gnorm_u_is_the_replica_mean(oracle_cfg(decay_rule))


@pytest.mark.parametrize("decay_rule,inner_batch", itertools.product(
    (DECAY_CONSTANT, DECAY_INVERSE_T), ORACLE_BATCHES[1:]))
def test_minibatch_gnorm_u_is_the_replica_mean(decay_rule, inner_batch):
    check_gnorm_u_is_the_replica_mean(oracle_cfg(decay_rule, inner_batch=inner_batch))


@pytest.mark.parametrize("inner_batch", ORACLE_BATCHES)
def test_eps_w_and_gnorm_w_are_the_probe_means(inner_batch):
    # the live path is the loop's, bit for bit; its R union probes per step
    # estimate the exact task-level increments
    cfg = oracle_cfg(inner_batch=inner_batch)
    ds = draw_task_batch(ENV, cfg, 2)[1]
    u = ds.samples.mean(axis=0) + 0.5
    acc, ref_acc = BoundAccumulators(), RefAccumulators()
    inner_adapt(u, MODEL, ds, cfg, 2, 1, collect=acc)
    ref_inner_adapt(u, ds, cfg, 2, 1, collect=ref_acc)
    per_probe = np.sum(ref_acc.probe_terms, axis=0)          # (2, R)
    se = per_probe.std(axis=1, ddof=1) / math.sqrt(ORACLE_R)
    got = np.array([acc.eps_w_sum, acc.gnorm_w_sum])
    assert np.all(np.abs(per_probe.mean(axis=1) - got) < 4 * se + 1e-12 * got)
    # the probe variance term is resolved wherever it is not 0
    probe_var = sum(cfg.schedules.inner_lr(2, k) * cfg.schedules.gamma_inner / 2.0
                    for k in range(1, cfg.K + 1)) * 4.0 * float(
                        minibatch_mean_var(ds.samples, inner_batch).sum())
    assert probe_var > 4 * se.max() if inner_batch else probe_var == 0.0


@pytest.mark.parametrize("K", (0, 4))
def test_full_batch_without_inner_noise_matches_replicas(K):
    # noise off (v = 0), or no inner step at all: every replica is the mean row
    cfg = oracle_cfg(noise=K == 0, K=K)
    _, _, terms, reps = oracle_replicas(cfg)
    assert terms == pytest.approx(tuple(reps.mean(axis=0)), rel=1e-12)


def test_full_batch_k0_adds_no_inner_increment():
    cfg = oracle_cfg(K=0)
    acc = BoundAccumulators()
    outer_step(np.zeros(2), MODEL, draw_task_batch(ENV, cfg, 1), cfg, 1, acc)
    assert acc.eps_w_sum == acc.gnorm_w_sum == 0.0 < acc.gnorm_u_sum


def check_lipschitz_sees_the_live_paths(K, inner_batch):
    # the union gradient at each live W^k and g_full at the live W^K, not at
    # the mean row; from the task's own mean the union gradients are small
    # and the noise sets g_full
    cfg = replace(oracle_cfg(K=K, inner_batch=inner_batch), task_batch=1)
    batch = draw_task_batch(ENV, cfg, 1)
    u = batch[0].samples.mean(axis=0)
    acc = BoundAccumulators()
    outer_step(u, MODEL, batch, cfg, 1, acc)
    steps = ref_inner_adapt(u, batch[0], cfg, 1, 0)
    g_full = ref_meta_gradient(steps[-1:], batch, "union")
    assert acc.lipschitz_max == max(
        [0.0] + [float(np.linalg.norm(ref_grad(w, batch[0].samples)))
                 for w in steps[:-1]] + [float(np.linalg.norm(g_full))])


@pytest.mark.parametrize("K", (0, 1, 4))
def test_full_batch_lipschitz_sees_the_live_paths(K):
    check_lipschitz_sees_the_live_paths(K, 0)


@pytest.mark.parametrize("K", (0, 1, 4))
def test_minibatch_lipschitz_sees_the_live_paths(K):
    # the same rule: the minibatches move the path, not what is measured
    check_lipschitz_sees_the_live_paths(K, 3)


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


def ref_mean_risk(w, batch):
    """ref_risk(w, batch) as ||w - mean||^2 plus the mean's own risk on the
    rows: the square loss reads a dataset only through those two."""
    mean = batch.mean(axis=0)
    d = w - mean
    return float(d @ d) + ref_risk(mean, batch)


def ref_run_joint(cfg, sigma_sg):
    """The joint trainer's loop: u and a list of w_i, one task at a time."""
    rng = derive_stream(cfg.seed, (P_TASK, 0))
    datasets = list(sample_datasets(sample_task_means(ENV, cfg.n, rng), ENV,
                                    cfg.m, cfg.m, rng)[0])
    u, ws = np.zeros(2), [np.zeros(2) for _ in range(cfg.n)]
    noise_rng = derive_stream(cfg.seed, (P_NOISE_U, 0))
    s = cfg.schedules
    records, mi_sum, l_hat = [], 0.0, 0.0
    for t in range(1, cfg.T + 1):
        eta = s.outer_lr(t)
        sigma = math.sqrt(eta) if cfg.sigma0 is None else cfg.sigma0
        grad = ref_joint_grad(u, ws, datasets, cfg.coupling)
        if cfg.fixed_l is None:
            l_hat = max(l_hat, float(np.linalg.norm(grad)))
        else:
            l_hat = cfg.fixed_l
        term = mi_step_term(eta, sigma, l_hat, grad.size)
        mi_sum += term      # left to right, as the trainer adds
        flat = np.concatenate([u] + ws) - eta * grad
        if sigma > 0:
            flat = flat + sigma * noise_rng.standard_normal(flat.size)
        u, ws = flat[:2].copy(), [flat[2 * i:2 * i + 2].copy()
                                  for i in range(1, cfg.n + 1)]
        cf = (joint_closed_form(sigma_sg, l_hat, cfg.n, cfg.m, s.decay_c, t)
              if cfg.sigma0 is None else float("nan"))
        train = float(np.mean([ref_mean_risk(w, b) for w, b in zip(ws, datasets)]))
        records.append(JointRecord(
            t=t, l_hat=l_hat, mi_step_term=term, mi_sum=mi_sum,
            joint_bound=joint_bound(mi_sum, sigma_sg, cfg.n, cfg.m),
            closed_form=cf, train_risk=train))
    return records


JOINT_GRID = list(itertools.product((0.0, 0.7), (None, 0.05), (None, 5.0), (1, 3, 12)))


@pytest.mark.parametrize("coupling,sigma0,fixed_l,n", JOINT_GRID,
                         ids=[f"{c}-{'sqrt_eta' if s is None else 'fixed'}-{l}-{n}"
                              for c, s, l, n in JOINT_GRID])
def test_run_joint_matches_loop(coupling, sigma0, fixed_l, n):
    cfg = JointConfig(n=n, m=5, T=25,
                      schedules=Schedules(eta0=1.0, beta0=1.0, gamma_outer=1.0,
                                          gamma_inner=1.0,
                                          decay_rule=DECAY_INVERSE_T,
                                          decay_c=0.3),
                      seed=4, coupling=coupling, sigma0=sigma0, fixed_l=fixed_l)
    got = run_joint_sgld(cfg, ENV, sigma_sg=1.2)
    want = ref_run_joint(cfg, sigma_sg=1.2)
    assert len(got) == len(want) == cfg.T
    # compare the bits, so NaN closed forms and the sign of zero count too
    for a, b in zip(got, want):
        assert np.array(astuple(a)).tobytes() == np.array(astuple(b)).tobytes()


# run_joint_sgld scores the train risk RISK_BLOCK steps at a time: runs of
# T = 1, B - 1, B, B + 1 steps end inside, at and just past a block's edge;
# 4 B + 1 steps read the run's one noise draw over several blocks
JOINT_BLOCK = 32
JOINT_EDGES = list(itertools.product((1, JOINT_BLOCK - 1, JOINT_BLOCK, JOINT_BLOCK + 1,
                                      4 * JOINT_BLOCK + 1), (0.0, 0.7), (None, 5.0)))


def test_joint_edge_runs_use_the_run_block():
    assert joint_sgld.RISK_BLOCK == JOINT_BLOCK


def edge_joint(T, coupling=0.7, fixed_l=None):
    return JointConfig(n=3, m=5, T=T,
                       schedules=Schedules(eta0=1.0, beta0=1.0, gamma_outer=1.0,
                                           gamma_inner=1.0, decay_rule=DECAY_INVERSE_T,
                                           decay_c=0.3),
                       seed=4, coupling=coupling, fixed_l=fixed_l)


@pytest.mark.parametrize("T,coupling,fixed_l", JOINT_EDGES,
                         ids=[f"T{T}-{c}-{l}" for T, c, l in JOINT_EDGES])
def test_run_joint_matches_loop_at_block_edges(T, coupling, fixed_l):
    cfg = edge_joint(T, coupling, fixed_l)
    got = run_joint_sgld(cfg, ENV, sigma_sg=1.2)
    want = ref_run_joint(cfg, sigma_sg=1.2)
    assert len(got) == len(want) == T
    for a, b in zip(got, want):
        assert np.array(astuple(a)).tobytes() == np.array(astuple(b)).tobytes()


# the JOINT_GRID configs in dim 2, and one config in dim 1 (stacked_risk's
# one-coordinate pass) and in dim 8 (its np.sum branch)
ROW_RISK_CASES = ([(c, s, l, n, 2) for c, s, l, n in JOINT_GRID]
                  + [(0.7, None, None, 3, 1), (0.7, None, None, 3, 8)])


@pytest.mark.parametrize("coupling,sigma0,fixed_l,n,dim", ROW_RISK_CASES,
                         ids=[f"{c}-{'sqrt_eta' if s is None else 'fixed'}-{l}-{n}-dim{d}"
                              for c, s, l, n, d in ROW_RISK_CASES])
def test_joint_train_risk_is_the_row_risk(coupling, sigma0, fixed_l, n, dim, monkeypatch):
    # train_risk from each dataset's mean and scatter is the mean over tasks
    # of ref_risk(W_i, D_i), scored on the rows, at every step the run took
    env = {1: ENV1, 2: ENV, 8: ENV8}[dim]
    cfg = replace(edge_joint(JOINT_BLOCK + 5, coupling, fixed_l), n=n, sigma0=sigma0)
    phis, step = [], joint_sgld.joint_sgld_step
    monkeypatch.setattr(joint_sgld, "joint_sgld_step",
                        lambda *args: phis.append(step(*args)) or phis[-1])
    got = [r.train_risk for r in run_joint_sgld(cfg, env, sigma_sg=1.2)]
    rng = derive_stream(cfg.seed, (P_TASK, 0))
    data = sample_datasets(sample_task_means(env, n, rng), env, cfg.m, cfg.m, rng)[0]
    want = [np.mean([ref_risk(w, d) for w, d in zip(phi[1:], data)]) for phi in phis]
    assert len(got) == len(want) == cfg.T
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_joint_run_scores_the_scatter_once(monkeypatch):
    # the rows are read once, for each dataset's scatter; the RISK_BLOCK
    # blocks of stored W_i read only the means
    calls, risk = [], joint_sgld.stacked_risk
    monkeypatch.setattr(joint_sgld, "stacked_risk",
                        lambda *args: calls.append(1) or risk(*args))
    assert len(run_joint_sgld(edge_joint(500), ENV, sigma_sg=1.2)) == 500
    assert len(calls) == 1


def diverging_joint(t0, case):
    """A run (n = 1, no tether) that fails at step t0 in the given way, with
    the error type and message the step loop raises there.  Each rate is
    eta0 * rate ** (t / period)."""
    steps = dict(decay_rule=DECAY_EXPONENTIAL, beta0=1.0, gamma_outer=1.0, gamma_inner=1.0)
    kw = {}
    if case == "rate":      # the power passes the float range at step t0
        s, err = dict(eta0=1e-306, decay_rate=1e308, decay_period=t0 - 0.5), (
            OverflowError, "decay_rate ** (t / decay_period) overflows")
    elif case == "mi":      # the rate underflows to 0 at step t0, so sigma_t = 0
        s, err = dict(eta0=1e-20, decay_rate=1e-300, decay_period=t0 - 0.5), (
            UndefinedBoundError, "mutual-information step term diverges as sigma_t -> 0; "
            "got sigma_t = 0 (noise-free steps carry unbounded information)")
    else:
        # eta_t = 10 ** (t - k) makes W grow by ~2 eta_t a step; at this seed
        # it passes the float range at step k + 25, and at step 1 from 1e308
        k = {"phi": t0 - 25, "mi_and_phi": t0 - 25, "mi_then_phi": t0 - 24}[case]
        s = dict(eta0=1e307 if t0 == 1 and k < -23 else 10.0 ** -k, decay_rate=10.0,
                 decay_period=1.0)
        # a fixed L whose (eta_t L)^2 first overflows at step t0: eta_t0 L
        # passes 1.34e154 there (eta_t0 is 1e25, 1e24, or 1e308 at t0 = 1)
        kw = dict(sigma0=1.0, fixed_l={"phi": 0.0, "mi_and_phi": 4e129,
                                       "mi_then_phi": 4e130}[case])
        err = ((FloatingPointError, "joint parameter became non-finite") if case == "phi"
               else (OverflowError, "mutual-information step term overflowed"))
    cfg = JointConfig(n=1, m=5, T=60, schedules=Schedules(**steps, **s), seed=4,
                      coupling=0.0, **kw)
    return cfg, err[0], f"{err[1]} at step {t0}"


@pytest.mark.parametrize("case", ("rate", "mi", "phi", "mi_and_phi", "mi_then_phi"))
@pytest.mark.parametrize("t0", (1, JOINT_BLOCK, JOINT_BLOCK + 1))
def test_diverging_joint_run_fails_as_the_loop(t0, case):
    # at equal steps the rate fails first, then the MI term, then phi; a
    # failed MI term stops the run though phi stays finite for longer
    cfg, kind, message = diverging_joint(t0, case)
    with np.errstate(all="ignore"), pytest.raises(kind) as exc:
        run_joint_sgld(cfg, ENV, sigma_sg=1.2)
    assert type(exc.value) is kind and str(exc.value) == message
    with np.errstate(all="ignore"):     # the steps before it run through
        assert len(run_joint_sgld(replace(cfg, T=t0 - 1), ENV, sigma_sg=1.2)) == t0 - 1


def test_joint_bound_fails_after_phi_in_step_1():
    # sigma_sg = 0 fails the bound at step 1, unless phi fails there first
    with pytest.raises(ValueError, match=r"^need sigma_sg > 0 and n, m >= 1 at step 1$"):
        run_joint_sgld(edge_joint(JOINT_BLOCK + 1), ENV, sigma_sg=0.0)
    cfg, _, message = diverging_joint(1, "phi")
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
        run_joint_sgld(cfg, ENV, sigma_sg=0.0)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", ("mi", "mi_then_phi"))
@pytest.mark.parametrize("t0", (1, JOINT_BLOCK, JOINT_BLOCK + 1))
def test_failed_mi_term_takes_no_phi_step(t0, case, monkeypatch):
    # phi stops at the step whose MI term fails: steps 1 .. t0 - 1 only
    cfg, kind, message = diverging_joint(t0, case)
    calls, step = [], joint_sgld.joint_sgld_step
    monkeypatch.setattr(joint_sgld, "joint_sgld_step",
                        lambda *args: calls.append(1) or step(*args))
    with np.errstate(all="ignore"), pytest.raises(kind) as exc:
        run_joint_sgld(cfg, ENV, sigma_sg=1.2)
    assert (str(exc.value), len(calls)) == (message, t0 - 1)


@pytest.mark.parametrize("coupling,n,start", itertools.product(
    (0.0, 0.7), (1, 3, 12), ("zero", "random")))
def test_joint_loss_grad_matches_loop(coupling, n, start):
    # at Phi = 0 every tether term is zero: the loop's U block is +0.0
    rng = np.random.default_rng(n)
    phi = np.zeros((n + 1, 2)) if start == "zero" else rng.normal(size=(n + 1, 2))
    data = rng.normal(size=(n, 5, 2))
    got = joint_loss_grad(phi, data.mean(axis=1), coupling).ravel()
    want = ref_joint_grad(phi[0], list(phi[1:]), list(data), coupling)
    assert got.tobytes() == want.tobytes()
