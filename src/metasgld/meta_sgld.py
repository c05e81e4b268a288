"""Alternate-training meta learner: nested Langevin loops with first-order
meta-gradients and online tracking of gradient-incoherence and gradient-norm
statistics.

All inner paths of an epoch (live, and per task either one noise-free mean
row or the Monte-Carlo replicas) advance as one array.  The live paths take
their noise from one draw per epoch, and every sum runs in the order of the
former per-path loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConfigurationError, P_BATCH, P_MC, P_NOISE_U, P_NOISE_W,
                   P_TASK, P_TEST, P_TRAIN_PROBE, RunConfig, UndefinedBoundError,
                   as_vector, derive_stream, noise_std, ordered_sum, sq_norm)
from .model import LossModel, stacked_grad, stacked_risk
from .task_env import (EnvironmentSpec, TaskDataset, sample_datasets,
                       sample_minibatch, sample_task_means)
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


def _minibatches(datasets: Sequence[TaskDataset], union: np.ndarray,
                 cfg: RunConfig, t: int, slots: Sequence[int],
                 replicas: Sequence[int], probe: bool
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """inner_batch > 0: per step, the tr batch of every path and the union
    probes of the first replica, drawn from each path's (P_BATCH, t, slot, r)
    stream in the loop's order (a step's tr batch, then its probes)."""
    b, K, R = cfg.inner_batch, cfg.K, cfg.mc_replicas
    tr_idx = np.zeros((K, len(replicas), len(slots), b), dtype=int)
    un_idx = np.zeros((K, len(slots), R, b), dtype=int)
    for p, r in enumerate(replicas):
        for i, (slot, ds) in enumerate(zip(slots, datasets)):
            rng = derive_stream(cfg.seed, (P_BATCH, t, slot, r))
            pool = np.arange(ds.m)
            for k in range(K):
                tr_idx[k, p, i] = sample_minibatch(ds.tr_indices, b, rng)
                for j in range(R if probe and p == 0 else 0):
                    un_idx[k, i, j] = sample_minibatch(pool, b, rng)
    task = np.arange(len(slots))
    return union[task[:, None], tr_idx], union[task[:, None, None], un_idx]


def _meta_rows(cfg: RunConfig) -> Tuple[Optional[int], ...]:
    """Full batch: the noise-free mean row (None); else replicas 1..R."""
    return (None,) if cfg.inner_batch == 0 else tuple(range(1, cfg.mc_replicas + 1))


def _advance(u: np.ndarray, model: LossModel, datasets: Sequence[TaskDataset],
             cfg: RunConfig, t: int, slots: Sequence[int],
             replicas: Sequence[Optional[int]],
             collect: Optional[BoundAccumulators] = None) -> np.ndarray:
    """K Langevin steps from U on tr-source batches for every (replica, task)
    path at once; returns W^0..W^K as a (K+1, replicas, tasks, dim) array.

    The live paths (r = 0) read column slot of one (K, task_batch, dim) draw
    from (P_NOISE_W, t), path (r >= 1, slot) reads (P_MC, t, slot, r) and row
    None has no noise.  With ``collect``, the first replica also probes the
    union source (``mc_replicas`` batches per step if inner_batch > 0) and
    adds, task by task and step by step,
    beta*gamma*mean(||grad_union - grad_tr||^2)/2 to eps_w_sum (gradient-norm
    and Lipschitz analogues alike)."""
    w0 = as_vector(u, model.dim)
    if cfg.m_tr >= 1 and any(ds.tr_indices.size == 0 for ds in datasets):
        raise RuntimeError("dataset has an empty tr split despite m_tr >= 1")
    s, K = cfg.schedules, cfg.K
    tr, union = _stack(datasets, "tr"), _stack(datasets, "samples")
    if cfg.inner_batch == 0:
        tr_b = np.broadcast_to(tr, (K, 1) + tr.shape)
        un_b = np.broadcast_to(union[:, None], (K, len(slots), 1) + union.shape[1:])
    else:
        tr_b, un_b = _minibatches(datasets, union, cfg, t, slots, replicas,
                                  collect is not None)
    live = (derive_stream(cfg.seed, (P_NOISE_W, t)).standard_normal(
        (K, cfg.task_batch, model.dim)) if 0 in replicas else None)
    noise = np.array([[np.zeros((K, model.dim)) if r is None else live[:, slot] if r == 0
                       else derive_stream(cfg.seed, (P_MC, t, slot, r)
                                          ).standard_normal((K, model.dim))
                       for slot in slots] for r in replicas])
    betas = [s.inner_lr(t, k) for k in range(1, K + 1)]
    path = np.empty((K + 1,) + noise.shape[:2] + (model.dim,))
    path[0] = w0
    for k, beta in enumerate(betas):
        std = noise_std(beta, s.gamma_inner) if cfg.noise else 0.0
        path[k + 1] = (path[k] - beta * stacked_grad(path[k], tr_b[k])
                       + std * noise[:, :, k])
    # a non-finite coordinate stays non-finite in later steps, so this one
    # check raises wherever the per-step gradient check did
    if not np.all(np.isfinite(path[-1])):
        raise ValueError("vector contains NaN/Inf")

    if collect is not None:
        live = path[:-1, 0]                                   # (K, tasks, dim)
        g_tr = stacked_grad(live, tr_b[:, 0])
        g_un = stacked_grad(live[:, :, None], un_b)           # (K, tasks, R, dim)
        weight = np.array([b * s.gamma_inner / 2.0 for b in betas])[:, None]
        eps = weight * ordered_sum(sq_norm(g_un - g_tr[:, :, None])) / un_b.shape[2]
        gn = weight * ordered_sum(sq_norm(g_un)) / un_b.shape[2]
        for e, g in zip(eps.T.ravel().tolist(), gn.T.ravel().tolist()):
            collect.add_w(e, g)
        collect.see_gradients(g_un)
    return path


def inner_adapt(u: np.ndarray, model: LossModel, ds: TaskDataset, cfg: RunConfig,
                t: int, task_slot: int, replica: int = 0,
                collect: Optional[BoundAccumulators] = None) -> np.ndarray:
    """K Langevin steps from U on tr-source batches for one task and replica,
    W^0..W^K as a (K+1, dim) array; ``collect`` gathers the task-level probe
    terms as in ``_advance``."""
    if not 0 <= task_slot < cfg.task_batch:
        raise ValueError(f"task_slot must be in [0, {cfg.task_batch}), got {task_slot}")
    return _advance(u, model, [ds], cfg, t, [task_slot], [replica], collect)[:, 0, 0]


def _mean_grad(w: np.ndarray, task_batch: Sequence[TaskDataset],
               split: str) -> np.ndarray:
    """The task-batch mean of the ``split`` gradients at w (rows, tasks, dim)."""
    return ordered_sum(stacked_grad(w, _stack(task_batch, split)), -2) / len(task_batch)


def _eps_u_terms(w: np.ndarray, task_batch: Sequence[TaskDataset],
                 cfg: RunConfig, t: int, acc: Optional[BoundAccumulators]
                 ) -> Tuple[float, float]:
    """eta*gamma*mean(||g_full - g_tr||^2)/2 and its g_full-norm analogue over
    the rows of the adapted w, (rows, tasks, dim).  On the mean row g_full -
    g_tr is fixed by the data, and W_i^K is Gaussian about it with variance v
    per coordinate (a step of the gradient 2(w - mean_tr) maps v to
    (1 - 2 beta)^2 v + std^2), which adds the trace 4*d*v/B of Cov(g_full)."""
    g_full = _mean_grad(w, task_batch, "samples")
    g_tr = _mean_grad(w, task_batch, "tr")
    if acc is not None:
        acc.see_gradients(g_full)
    s, rows, v = cfg.schedules, w.shape[0], 0.0
    for k in range(1, cfg.K + 1) if cfg.inner_batch == 0 and cfg.noise else ():
        beta = s.inner_lr(t, k)
        v = (1.0 - 2.0 * beta) ** 2 * v + noise_std(beta, s.gamma_inner) ** 2
    trace = 4.0 * w.shape[-1] * v / len(task_batch)
    weight = s.outer_lr(t) * s.gamma_outer / 2.0
    return (float(weight * ordered_sum(sq_norm(g_full - g_tr), 0) / rows),
            float(weight * (ordered_sum(sq_norm(g_full), 0) + rows * trace) / rows))


def estimate_eps_u(u: np.ndarray, model: LossModel,
                   task_batch: Sequence[TaskDataset], cfg: RunConfig, t: int,
                   acc: Optional[BoundAccumulators] = None
                   ) -> Tuple[float, float]:
    """The terms eta*gamma*mean(||eps^u||^2)/2 and the g_full-norm analogue:
    exact for full-batch updates, else Monte-Carlo over the replicas."""
    if len(task_batch) == 0:
        raise ValueError("task_batch must be non-empty")
    path = _advance(u, model, task_batch, cfg, t, range(len(task_batch)),
                    _meta_rows(cfg))
    return _eps_u_terms(path[-1], task_batch, cfg, t, acc)


def outer_step(u: np.ndarray, model: LossModel,
               task_batch: Sequence[TaskDataset], cfg: RunConfig, t: int,
               acc: BoundAccumulators) -> Tuple[np.ndarray, float]:
    """One meta iteration: live inner paths (collecting task-level terms,
    averaged over the task batch), meta-level incoherence estimation, then a
    Langevin meta-step on the va-evaluated first-order meta-gradient.

    Returns the new U and the mean va risk of the adapted parameters.
    """
    if len(task_batch) != cfg.task_batch:
        raise ValueError(f"expected {cfg.task_batch} tasks, got {len(task_batch)}")
    s = cfg.schedules
    bt = len(task_batch)
    task_acc = BoundAccumulators()
    w = _advance(u, model, task_batch, cfg, t, range(bt),
                 (0,) + _meta_rows(cfg), collect=task_acc)[-1]
    acc.add_w(task_acc.eps_w_sum / bt, task_acc.gnorm_w_sum / bt)
    acc.lipschitz_max = max(acc.lipschitz_max, task_acc.lipschitz_max)

    acc.add_u(*_eps_u_terms(w[1:], task_batch, cfg, t, acc if cfg.inner_batch else None))
    if cfg.inner_batch == 0:   # no path ran along the mean row: see the live W^K
        acc.see_gradients(_mean_grad(w[:1], task_batch, "samples"))

    if cfg.m_va < 1:
        raise ConfigurationError("outer update needs m_va >= 1 (va split empty)")
    va = _stack(task_batch, "va")
    meta_grad = ordered_sum(stacked_grad(w[0], va), -2) / bt
    eta = s.outer_lr(t)
    std = noise_std(eta, s.gamma_outer) if cfg.noise else 0.0
    xi = std * derive_stream(cfg.seed, (P_NOISE_U, t)).standard_normal(model.dim)
    return u - eta * meta_grad + xi, float(np.mean(stacked_risk(w[0], va)))


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
