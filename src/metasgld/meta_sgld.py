"""Alternate-training meta learner: nested Langevin loops with first-order
meta-gradients and online tracking of gradient-incoherence and gradient-norm
statistics.

The inner paths of an epoch advance as one array of two rows per task: the
live path, which the meta step uses, and its noise-free mean.  The live
paths take their noise and their minibatches from one draw per epoch, every
bound increment is an exact expectation, and every sum runs in the order of
the former per-path loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConfigurationError, P_BATCH, P_NOISE_U, P_NOISE_W,
                   P_TASK, P_TEST, P_TRAIN_PROBE, RunConfig, UndefinedBoundError,
                   as_vector, derive_stream, noise_std, ordered_sum, sq_norm)
from .model import LossModel, stacked_grad, stacked_risk
from .task_env import (EnvironmentSpec, TaskDataset, minibatch_mean_var,
                       sample_datasets, sample_minibatch, sample_task_means)
from . import bounds as bounds_mod
from . import evaluate as evaluate_mod
from .records import RunRecord


@dataclass
class BoundAccumulators:
    """Running sums feeding the incoherence bound and its gradient-norm analogue."""

    eps_u_sum: float = 0.0
    eps_w_sum: float = 0.0
    gnorm_u_sum: float = 0.0
    gnorm_w_sum: float = 0.0
    lipschitz_max: float = 0.0

    def add_w(self, eps_term: float, gnorm_term: float) -> None:
        if eps_term < 0 or gnorm_term < 0:
            raise ValueError("accumulator increments must be non-negative")
        self.eps_w_sum += eps_term
        self.gnorm_w_sum += gnorm_term

    def add_u(self, eps_term: float, gnorm_term: float) -> None:
        if eps_term < 0 or gnorm_term < 0:
            raise ValueError("accumulator increments must be non-negative")
        self.eps_u_sum += eps_term
        self.gnorm_u_sum += gnorm_term

    def see_gradients(self, grads: np.ndarray) -> None:
        """Raise lipschitz_max to the largest norm among grads (..., dim);
        like a running max() from 0.0, it never takes a NaN norm."""
        self.lipschitz_max = float(np.fmax.reduce(
            np.sqrt(sq_norm(grads)), axis=None, initial=self.lipschitz_max))


def _stack(datasets: Sequence[TaskDataset], split: str) -> np.ndarray:
    """One split ("tr", "va" or "samples") of every task, (tasks, count, dim)."""
    return np.stack([getattr(ds, split) for ds in datasets])


def _advance(u: np.ndarray, model: LossModel, tr: np.ndarray, union: np.ndarray,
             cfg: RunConfig, t: int, slots: Sequence[int],
             collect: Optional[BoundAccumulators] = None) -> np.ndarray:
    """K Langevin steps from U for the tasks of tr and union (tasks, count,
    dim) in the task slots ``slots``; returns W^0..W^K as a (K+1, 2, tasks,
    dim) array.

    Row 0 holds the live paths.  Slot i reads column i of one (K,
    task_batch, dim) noise draw from (P_NOISE_W, t) and, with inner_batch >
    0, steps on the minibatches of column i of one (K, task_batch, m_tr)
    sample_minibatch draw from (P_BATCH, t).  Row 1 is the mean row, E[W^k]:
    no noise, the whole tr split.  With ``collect``, each live step adds,
    task by task and step by step, beta*gamma/2 times the expectation over a
    union probe batch U of ||g_U - g_tr||^2 to eps_w_sum, and of ||g_U||^2 to
    gnorm_w_sum: the squared norm at the whole union plus the trace
    4*sum Var(mean(U)) of the probe's covariance.  lipschitz_max sees the
    union gradient at each live W^k."""
    w0 = as_vector(u, model.dim)
    if tr.shape[-2] == 0:
        raise RuntimeError("dataset has an empty tr split despite m_tr >= 1")
    s, K, b, tasks = cfg.schedules, cfg.K, cfg.inner_batch, len(tr)
    live_batch = tr
    if b:
        m_tr = tr.shape[-2]
        pos = sample_minibatch(np.broadcast_to(np.arange(m_tr), (K, cfg.task_batch, m_tr)),
                               b, derive_stream(cfg.seed, (P_BATCH, t)))[:, slots]
        live_batch = tr[np.arange(tasks)[:, None], pos]       # (K, tasks, b, dim)
    # the gradient on a batch is 2 (w - centre), centre the batch mean
    centre = np.empty((K, 2, tasks, model.dim))
    centre[:, 0] = live_batch.mean(axis=-2)
    centre[:, 1] = tr.mean(axis=-2)
    noise = np.zeros((K, 2, tasks, model.dim))
    noise[:, 0] = derive_stream(cfg.seed, (P_NOISE_W, t)).standard_normal(
        (K, cfg.task_batch, model.dim))[:, slots]
    betas = [s.inner_lr(t, k) for k in range(1, K + 1)]
    path = np.empty((K + 1, 2, tasks, model.dim))
    path[0] = w0
    for k, beta in enumerate(betas):
        std = noise_std(beta, s.gamma_inner) if cfg.noise else 0.0
        path[k + 1] = path[k] - beta * (2.0 * (path[k] - centre[k])) + std * noise[k]
    # a non-finite coordinate stays non-finite in later steps, so this one
    # check raises wherever the per-step gradient check did
    if not np.all(np.isfinite(path[-1])):
        raise ValueError("vector contains NaN/Inf")

    if collect is not None:
        live = path[:-1, 0]                                   # (K, tasks, dim)
        g_tr = 2.0 * (live - centre[:, 0])
        g_un = stacked_grad(live, union)
        probe_var = 4.0 * minibatch_mean_var(union, b).sum(axis=-1)
        weight = np.array([beta * s.gamma_inner / 2.0 for beta in betas])[:, None]
        eps = weight * (sq_norm(g_un - g_tr) + probe_var)
        gn = weight * (sq_norm(g_un) + probe_var)
        for e, g in zip(eps.T.ravel().tolist(), gn.T.ravel().tolist()):
            collect.add_w(e, g)
        collect.see_gradients(g_un)
    return path


def inner_adapt(u: np.ndarray, model: LossModel, ds: TaskDataset, cfg: RunConfig,
                t: int, task_slot: int,
                collect: Optional[BoundAccumulators] = None) -> np.ndarray:
    """The live path of K Langevin steps from U on tr-source batches for one
    task, W^0..W^K as a (K+1, dim) array; ``collect`` gathers the task-level
    probe terms as in ``_advance``."""
    if not 0 <= task_slot < cfg.task_batch:
        raise ValueError(f"task_slot must be in [0, {cfg.task_batch}), got {task_slot}")
    return _advance(u, model, ds.tr[None], ds.samples[None], cfg, t, [task_slot],
                    collect)[:, 0, 0]


def _mean_grad(w: np.ndarray, split: np.ndarray) -> np.ndarray:
    """The task-batch mean of the gradients at w (tasks, dim) on the split
    (tasks, count, dim)."""
    return ordered_sum(stacked_grad(w, split), -2) / len(split)


def _eps_u_terms(w: np.ndarray, tr: np.ndarray, union: np.ndarray,
                 cfg: RunConfig, t: int) -> Tuple[float, float]:
    """eta*gamma*E||g_full - g_tr||^2/2 and its g_full-norm analogue, exact,
    from the mean row w = E[W^K] (tasks, dim).  g_full - g_tr is fixed by the
    data.  About w each W_i^K has variance v per coordinate: a step of the
    gradient 2(w - mean(B)) on a tr minibatch B maps v to (1 - 2 beta)^2 v +
    std^2 + 4 beta^2 Var(mean(B)).  The noise part is common to every task
    and coordinate, the minibatch part (0.0 at full batch) is not, and their
    sum adds the trace 4*sum(v)/B^2 of Cov(g_full) to ||g_full(w)||^2."""
    g_full, g_tr = _mean_grad(w, union), _mean_grad(w, tr)
    s, bt = cfg.schedules, len(tr)
    batch_var = minibatch_mean_var(tr, cfg.inner_batch)
    v, v_batch = 0.0, np.zeros_like(batch_var)
    for k in range(1, cfg.K + 1):
        beta = s.inner_lr(t, k)
        std = noise_std(beta, s.gamma_inner) if cfg.noise else 0.0
        decay = (1.0 - 2.0 * beta) ** 2
        v = decay * v + std ** 2
        v_batch = decay * v_batch + 4.0 * beta ** 2 * batch_var
    trace = (4.0 * w.shape[-1] * v + 4.0 * ordered_sum(v_batch.ravel()) / bt) / bt
    weight = s.outer_lr(t) * s.gamma_outer / 2.0
    return (float(weight * sq_norm(g_full - g_tr)),
            float(weight * (sq_norm(g_full) + trace)))


def estimate_eps_u(u: np.ndarray, model: LossModel,
                   task_batch: Sequence[TaskDataset], cfg: RunConfig, t: int
                   ) -> Tuple[float, float]:
    """The exact terms eta*gamma*E||eps^u||^2/2 and the g_full-norm analogue
    of a task batch adapted from U."""
    if len(task_batch) == 0:
        raise ValueError("task_batch must be non-empty")
    tr, union = _stack(task_batch, "tr"), _stack(task_batch, "samples")
    path = _advance(u, model, tr, union, cfg, t, range(len(task_batch)))
    return _eps_u_terms(path[-1, 1], tr, union, cfg, t)


def outer_step(u: np.ndarray, model: LossModel,
               task_batch: Sequence[TaskDataset], cfg: RunConfig, t: int,
               acc: BoundAccumulators) -> Tuple[np.ndarray, float]:
    """One meta iteration: live inner paths (collecting task-level terms,
    averaged over the task batch), the meta-level terms from the mean row,
    then a Langevin meta-step on the va-evaluated first-order meta-gradient.

    Returns the new U and the mean va risk of the adapted parameters.
    """
    if len(task_batch) != cfg.task_batch:
        raise ValueError(f"expected {cfg.task_batch} tasks, got {len(task_batch)}")
    if cfg.m_va < 1:
        raise ConfigurationError("outer update needs m_va >= 1 (va split empty)")
    s = cfg.schedules
    bt = len(task_batch)
    tr, va, union = (_stack(task_batch, split) for split in ("tr", "va", "samples"))
    task_acc = BoundAccumulators()
    w, w_mean = _advance(u, model, tr, union, cfg, t, range(bt), collect=task_acc)[-1]
    acc.add_w(task_acc.eps_w_sum / bt, task_acc.gnorm_w_sum / bt)
    acc.lipschitz_max = max(acc.lipschitz_max, task_acc.lipschitz_max)
    acc.add_u(*_eps_u_terms(w_mean, tr, union, cfg, t))
    acc.see_gradients(_mean_grad(w, union))   # g_full at the live W^K

    eta = s.outer_lr(t)
    std = noise_std(eta, s.gamma_outer) if cfg.noise else 0.0
    xi = std * derive_stream(cfg.seed, (P_NOISE_U, t)).standard_normal(model.dim)
    return u - eta * _mean_grad(w, va) + xi, float(np.mean(stacked_risk(w, va)))


def draw_task_batch(env: EnvironmentSpec, cfg: RunConfig, t: int) -> List[TaskDataset]:
    """Fresh tasks and datasets for outer iteration t, all from (P_TASK, t)."""
    rng = derive_stream(cfg.seed, (P_TASK, t))
    parts = sample_datasets(sample_task_means(env, cfg.task_batch, rng),
                            env, cfg.m, cfg.m_tr, rng)
    return [TaskDataset(*task) for task in zip(*parts)]


def run_meta_sgld(cfg: RunConfig, env: EnvironmentSpec,
                  eval_cadence: int = 0, n_test: int = 500,
                  n_train_probe: int = 500
                  ) -> Tuple[List[RunRecord], np.ndarray]:
    """Full alternate-training run.

    Returns the per-epoch records and the final meta parameter.  A positive
    ``eval_cadence`` fills the train/test/gap fields every that many epochs
    (and always at the final epoch).
    """
    if cfg.m_va < 1:
        raise ConfigurationError("alternate training requires m_va >= 1")
    for name in ("gamma_outer", "gamma_inner"):
        if np.isinf(getattr(cfg.schedules, name)):
            raise UndefinedBoundError(f"{name} = inf weights every bound increment by "
                                      "inf; set noise = false to run without noise")
    model = LossModel(dim=env.dim)
    sg = bounds_mod.subgaussian_mean_estimation(env, cfg.schedules.beta0)
    u = (np.array(cfg.init_u, dtype=float) if cfg.init_u is not None
         else np.zeros(env.dim))
    if u.shape != (env.dim,):
        raise ConfigurationError(f"init_u must have length {env.dim}")

    acc = BoundAccumulators()
    records: List[RunRecord] = []
    for t in range(1, cfg.T + 1):
        task_batch = draw_task_batch(env, cfg, t)
        u, train_risk = outer_step(u, model, task_batch, cfg, t, acc)
        if not (np.all(np.isfinite(u)) and np.isfinite(train_risk)):
            raise FloatingPointError(f"meta parameter became non-finite at epoch {t}")
        ab = bounds_mod.assemble_alt_bound(acc, sg, cfg.n, cfg.m_va)

        train_loss = test_loss = gap = None
        if eval_cadence > 0 and (t % eval_cadence == 0 or t == cfg.T):
            rep = evaluate_mod.observed_gap(
                u, env, cfg, n_train_probe, n_test,
                test_stream=derive_stream(cfg.seed, (P_TEST, t)),
                train_stream=derive_stream(cfg.seed, (P_TRAIN_PROBE, t)))
            train_loss, test_loss, gap = rep.train_loss, rep.test_loss, rep.gap

        records.append(RunRecord(
            epoch=t,
            eps_u=acc.eps_u_sum, eps_w=acc.eps_w_sum,
            gnorm_u=acc.gnorm_u_sum, gnorm_w=acc.gnorm_w_sum,
            lipschitz=acc.lipschitz_max,
            bound_u=ab.bound_u, bound_w=ab.bound_w, bound_total=ab.bound_total,
            gnorm_bound_u=ab.gnorm_u, gnorm_bound_w=ab.gnorm_w,
            gnorm_bound_total=ab.gnorm_total,
            train_loss=train_loss, test_loss=test_loss, gap=gap))
    return records, u
