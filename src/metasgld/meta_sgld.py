"""Alternate-training meta learner: nested Langevin loops with first-order
meta-gradients and online tracking of gradient-incoherence and gradient-norm
statistics.

Epoch t depends on earlier epochs only through U_{t-1}, so a run takes three
passes per block of BLOCK epochs from the carried U and running sums: (1) the
block's draws, one call per array kind, then per epoch the rate row, then the
task-mean box test, a redraw of the epochs it rejects, the datasets; (2)
the U loop, per epoch W^K of the live inner steps and the meta step, storing
no path; (3) the live paths stepped again as block ops, the noise-free mean
rows, every bound increment (exact expectations over noise, minibatch and
probe draws) and running sums.  Sums add in the order of the former per-epoch
loop, so rows are that loop's bit for bit, and a failure raises what that
loop raised first: each pass works on the epochs before the earliest failure
found so far.
``outer_step``, ``inner_adapt`` and ``estimate_eps_u`` are one-epoch cases.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConfigurationError, P_BATCH, P_MEANS, P_NOISE_U, P_NOISE_W,
                   P_SAMPLES, P_SPLIT, P_TASK, P_TEST, P_TRAIN_PROBE, RunConfig,
                   as_vector, block_rows, derive_stream, noise_std,
                   ordered_sum, sq_norm, stopped_at)
from .model import LossModel, descend, stacked_risk
from .task_env import (EnvironmentSpec, TaskDataset, box_means, draw_datasets,
                       minibatch_mean_var, rows_mean, sample_task_means,
                       split_datasets, take_minibatch, take_rows)
from . import bounds as bounds_mod
from . import evaluate as evaluate_mod
from .records import RunRecord

BLOCK = 256     # epochs drawn and advanced at once; a STREAM_BLOCK multiple draws no row twice


@dataclass
class BoundAccumulators:
    """Running sums feeding the incoherence bound and its gradient-norm
    analogue, and L-hat: floats, or arrays of their values after each epoch."""

    eps_u_sum: float = 0.0
    eps_w_sum: float = 0.0
    gnorm_u_sum: float = 0.0
    gnorm_w_sum: float = 0.0
    lipschitz_max: float = 0.0


# n epochs of B tasks, K inner steps, dimension d: meta rates eta (n,);
# inner rates beta and noise stds std (n, K); the tr and union (all m
# samples) means tr_mean, un_mean and the variance batch_var of a live
# minibatch mean (n, B, d); a union probe mean's 4 sum Var, probe_var (n,
# B); va (n, B, m_va, d); for live steps the minibatch means centre and the
# noise std_k xi_k (n, K, B, d), and the meta noise z_u (n, d) before its std.
_Epochs = namedtuple("_Epochs", "eta beta std tr_mean un_mean batch_var "
                                "probe_var va centre noise z_u")


def _task_means(env: EnvironmentSpec, cfg: RunConfig, t0: int, rows, n: int, failure):
    """Task means of epochs t0.., a failed one's too (its sampler errs first), then n and
    failure cut at a failed redraw: an out-of-box epoch redraws means and data from (P_TASK, t)."""
    mus, inside = box_means(rows[P_MEANS][:n + (failure is not None)], env)
    for i in np.flatnonzero(~inside.all(axis=1)).tolist():
        rng = derive_stream(cfg.seed, (P_TASK, t0 + i))
        try:
            mus[i] = sample_task_means(env, cfg.task_batch, rng)
        except ValueError as exc:
            return mus, i, exc
        draw_datasets(cfg.task_batch, cfg.m, env.dim, rng, (rows[P_SAMPLES][i], rows[P_SPLIT][i]))
    return mus, n, failure


def _rates(cfg: RunConfig, t: int) -> List[float]:
    """Epoch t's K inner rates, then its meta rate, then the K inner noise
    stds (0.0 without noise)."""
    s = cfg.schedules
    betas = [s.inner_lr(t, k) for k in range(1, cfg.K + 1)]
    return betas + [s.outer_lr(t)] + [noise_std(b, s.gamma_inner) if cfg.noise else 0.0
                                      for b in betas]


def _epochs(cfg: RunConfig, samples, tr_idx, va_idx, z, keys, z_u, rates) -> _Epochs:
    """Pass 1's array ops on consecutive epochs: datasets, live noise and minibatch
    keys, meta noise (these three may be None), rates, each with a leading epoch axis."""
    beta, eta, std = rates[:, :cfg.K], rates[:, cfg.K], rates[:, cfg.K + 1:]
    tr = take_rows(samples, tr_idx)
    tr_mean, b = rows_mean(tr), cfg.inner_batch
    if keys is not None:    # the gradient on a batch is 2 (w - its mean)
        pos = take_minibatch(np.broadcast_to(np.arange(cfg.m_tr), keys.shape), keys, b)
        centre = rows_mean(tr[np.arange(len(tr))[:, None, None, None],
                              np.arange(tr.shape[1])[:, None], pos])
    else:
        centre = np.broadcast_to(tr_mean[:, None], (len(tr), cfg.K) + tr_mean.shape[1:])
    return _Epochs(eta, beta, std, tr_mean, rows_mean(samples),
                   minibatch_mean_var(tr, b), 4.0 * minibatch_mean_var(samples, b).sum(axis=-1),
                   take_rows(samples, va_idx), centre,
                   None if z is None else std[..., None, None] * z, z_u)


def _one_epoch(cfg: RunConfig, t: int, task_batch: Sequence[TaskDataset], dim: int,
               cols=None, z_u=None) -> _Epochs:
    """Epoch t on the datasets task_batch, with slots ``cols`` of its live draws if set."""
    rates = np.array([_rates(cfg, t)])
    rows = {} if cols is None else block_rows(cfg, dim, t, 1, (P_NOISE_W, P_BATCH))
    z, keys = (rows[p][:, :, cols] if p in rows else None for p in (P_NOISE_W, P_BATCH))
    data = (np.stack([getattr(ds, name) for ds in task_batch])[None]
            for name in ("samples", "tr_indices", "va_indices"))
    return _epochs(cfg, *data, z, keys, None if z_u is None else z_u[None], rates)


def _live_steps(w: np.ndarray, betas, centres, noises, path=None) -> np.ndarray:
    """The live steps w <- w - beta_k 2 (w - mean(B_k)) + std_k xi_k from w = U,
    one per beta_k, with W^0..W^K into path[0..K] if given; returns W^K."""
    if path is not None:
        path[0] = w
    for k, (beta, centre, noise) in enumerate(zip(betas, centres, noises), 1):
        w = w - beta * (2.0 * (w - centre)) + noise
        if path is not None:
            path[k] = w
    return w


def _live_paths(us: np.ndarray, ep: _Epochs) -> np.ndarray:
    """The live paths W^0..W^K (n, K+1, B, d) from U_0..U_{n-1}: _live_steps
    on the epoch axis at once, elementwise, so each epoch's bits are its own.
    Non-finite stays non-finite, so a check of W^K raises wherever a per-step
    one did."""
    n = len(us)
    paths = np.empty((n, ep.beta.shape[1] + 1) + ep.tr_mean.shape[1:])
    _live_steps(us[:, None], ep.beta[:n].T[..., None, None], ep.centre[:n].swapaxes(0, 1),
                ep.noise[:n].swapaxes(0, 1), paths.swapaxes(0, 1))
    return paths


def _variance_rates(betas: Sequence[float], stds: Sequence[float]) -> List[tuple]:
    """Per step (1 - 2 beta)^2, std^2, 4 beta^2 by float ** (not x * x)."""
    try:
        return [((1.0 - 2.0 * b) ** 2, s ** 2, 4.0 * b ** 2) for b, s in zip(betas, stds)]
    except OverflowError:
        raise OverflowError(f"(1 - 2 beta)^2 overflows for beta = {max(betas):g}") from None


def _mean_rows(us: np.ndarray, ep: _Epochs) -> np.ndarray:
    """E[W^K] (n, B, d) after U_0..U_{n-1}: K noise-free steps on all of tr."""
    n = len(us)
    return descend(np.broadcast_to(us[:, None], ep.tr_mean[:n].shape),
                   ep.beta[:n].T[..., None, None], ep.tr_mean[:n])


def _task_terms(live: np.ndarray, ep: _Epochs, cfg: RunConfig):
    """Per live step W^k (n, K, B, d): beta gamma/2 times E||g_U - g_tr||^2
    and E||g_U||^2 over a union probe batch U, the squared norm at the whole
    union plus the trace 4 sum Var(mean(U)); and |g_union|, for L-hat."""
    n = len(live)
    g_un = 2.0 * (live - ep.un_mean[:n, None])
    weight = (ep.beta[:n] * cfg.schedules.gamma_inner / 2.0)[..., None]
    sq_un, probe = sq_norm(g_un), ep.probe_var[:n, None]
    return (weight * (sq_norm(g_un - 2.0 * (live - ep.centre[:n])) + probe),
            weight * (sq_un + probe), np.sqrt(sq_un))


def _meta_terms(w: np.ndarray, ep: _Epochs, rates, cfg: RunConfig):
    """eta*gamma*E||g_full - g_tr||^2/2 and its g_full-norm analogue per
    epoch, exact, from the mean rows w = E[W^K] (n, B, d).  g_full - g_tr is
    fixed by the data.  About w each W_i^K has variance v per coordinate: a
    step of the gradient 2(w - mean(B)) on a tr minibatch B maps v to
    (1 - 2 beta)^2 v + std^2 + 4 beta^2 Var(mean(B)).  The noise part is
    common to every task and coordinate, the minibatch part (0.0 at full
    batch) is not, and their sum adds the trace 4*sum(v)/B^2 of Cov(g_full)
    to ||g_full(w)||^2."""
    n, (B, d) = len(w), w.shape[1:]
    g_full = ordered_sum(2.0 * (w - ep.un_mean[:n]), -2) / B
    g_tr = ordered_sum(2.0 * (w - ep.tr_mean[:n]), -2) / B
    r = np.array(rates[:n], dtype=float).reshape(n, cfg.K, 3)
    v, v_batch = np.zeros(n), np.zeros_like(ep.batch_var[:n])
    for k in range(cfg.K):
        v = r[:, k, 0] * v + r[:, k, 1]
        v_batch = r[:, k, 0, None, None] * v_batch + r[:, k, 2, None, None] * ep.batch_var[:n]
    trace = (4.0 * d * v + 4.0 * ordered_sum(v_batch.reshape(n, B * d)) / B) / B
    weight = ep.eta[:n] * cfg.schedules.gamma_outer / 2.0
    return weight * sq_norm(g_full - g_tr), weight * (sq_norm(g_full) + trace)


def _cumulate(start, terms: np.ndarray, op=np.add) -> np.ndarray:
    """The running values (..., n + 1) of ``total = start; for x in terms:
    total = op(total, x)``, from start on."""
    lead = np.broadcast_to(start, terms.shape[:-1] + (1,))
    return op.accumulate(np.concatenate([lead, terms], axis=-1), axis=-1)


def _advance(ep: _Epochs, u: np.ndarray, acc: BoundAccumulators, cfg: RunConfig,
             failure: Optional[Exception] = None):
    """Passes 2 and 3 from the carried state, U and acc, which it reads and
    does not write.  Pass 2, per epoch: W^K of the live steps, variance rates,
    U <- U - eta g_va + xi, checking only U; its failure after n epochs
    replaces pass 1's ``failure``.  Pass 3 steps again the live paths of the
    epochs pass 2 ran; a non-finite W^K at its last epoch, which the former
    loop checked before U, replaces pass 2's failure.  The mean rows' W^K
    check and the train-risk check cut n where the former loop stopped.
    Returns U_0..U_n, the running values (n,) as a BoundAccumulators, the
    train risks and the failure."""
    n, (B, d), g = len(ep.eta), ep.tr_mean.shape[1:], cfg.schedules.gamma_outer
    us = np.empty((n + 1, d))
    us[0], va_mean, rates = u, rows_mean(ep.va), []
    try:
        for i, (eta, betas, stds) in enumerate(zip(
                ep.eta.tolist(), ep.beta.tolist(), ep.std.tolist())):
            w = _live_steps(u, betas, ep.centre[i], ep.noise[i])
            rates.append(_variance_rates(betas, stds))
            xi = (noise_std(eta, g) if cfg.noise else 0.0) * ep.z_u[i]
            u = us[i + 1] = u - eta * (ordered_sum(2.0 * (w - va_mean[i]), -2) / B) + xi
            if not np.isfinite(u).all():
                raise FloatingPointError("meta parameter became non-finite")
    except (ValueError, ArithmeticError) as exc:
        n, us, failure = i, us[:i + 1], exc
    ran = us[:len(ep.eta)]          # U_0.. of the epochs pass 2 ran, a failed one too
    paths = _live_paths(ran, ep)
    if n < len(paths) and not np.isfinite(paths[n, -1]).all():
        failure = ValueError("vector contains NaN/Inf")
    w_mean = _mean_rows(ran, ep)
    bad = np.flatnonzero(~np.isfinite(w_mean).all(axis=(1, 2)))
    if bad.size:
        n, failure = bad[0], ValueError("vector contains NaN/Inf")
    risk = np.mean(stacked_risk(paths[:n, -1], ep.va[:n]), axis=-1)
    bad = np.flatnonzero(~np.isfinite(risk))
    if bad.size:
        n, failure = bad[0], FloatingPointError(
            "va risk of the adapted parameters is not finite")
    eps_w, gn_w, norms = _task_terms(paths[:n, :-1], ep, cfg)
    g_full = ordered_sum(2.0 * (paths[:n, -1] - ep.un_mean[:n]), -2) / B
    # task-level terms add task by task, step by step, then / B
    eps_w, gn_w = (_cumulate(0.0, x.transpose(0, 2, 1).reshape(n, cfg.K * B))[:, -1] / B
                   for x in (eps_w, gn_w))
    seen = np.concatenate([norms.reshape(n, cfg.K * B), np.sqrt(sq_norm(g_full))[:, None]], 1)
    eps_u, gn_u = _meta_terms(w_mean[:n], ep, rates, cfg)
    run = BoundAccumulators(*(
        _cumulate(getattr(acc, f.name), x, op)[1:] for f, x, op in zip(
            fields(acc), (eps_u, eps_w, gn_u, gn_w, np.fmax.reduce(seen, axis=1)),
            (np.add,) * 4 + (np.fmax,))))
    return us, run, risk[:n], failure


def inner_adapt(u: np.ndarray, model: LossModel, ds: TaskDataset, cfg: RunConfig,
                t: int, task_slot: int,
                collect: Optional[BoundAccumulators] = None) -> np.ndarray:
    """The live path of K Langevin steps from U for one task in slot
    ``task_slot`` of epoch t, W^0..W^K as a (K+1, dim) array; ``collect``
    adds its task-level terms and union-gradient norms as a run does."""
    if not 0 <= task_slot < cfg.task_batch:
        raise ValueError(f"task_slot must be in [0, {cfg.task_batch}), got {task_slot}")
    ep = _one_epoch(cfg, t, [ds], model.dim, slice(task_slot, task_slot + 1))
    path = _live_paths(as_vector(u, model.dim)[None], ep)[0]
    if not np.isfinite(path[-1]).all():
        raise ValueError("vector contains NaN/Inf")
    if collect is not None:
        eps, gn, norms = (x.ravel() for x in _task_terms(path[None, :-1], ep, cfg))
        collect.eps_w_sum = float(_cumulate(collect.eps_w_sum, eps)[-1])
        collect.gnorm_w_sum = float(_cumulate(collect.gnorm_w_sum, gn)[-1])
        collect.lipschitz_max = float(_cumulate(collect.lipschitz_max, norms, np.fmax)[-1])
    return path[:, 0]


def estimate_eps_u(u: np.ndarray, model: LossModel,
                   task_batch: Sequence[TaskDataset], cfg: RunConfig, t: int
                   ) -> Tuple[float, float]:
    """The exact terms eta*gamma*E||eps^u||^2/2 and the g_full-norm analogue
    of a task batch adapted from U, from its mean row alone."""
    if len(task_batch) == 0:
        raise ValueError("task_batch must be non-empty")
    ep = _one_epoch(cfg, t, task_batch, model.dim)
    w = _mean_rows(as_vector(u, model.dim)[None], ep)
    if not np.all(np.isfinite(w)):
        raise ValueError("vector contains NaN/Inf")
    rates = [_variance_rates(ep.beta[0].tolist(), ep.std[0].tolist())]
    eps_u, gn_u = _meta_terms(w, ep, rates, cfg)
    return float(eps_u[0]), float(gn_u[0])


def outer_step(u: np.ndarray, model: LossModel,
               task_batch: Sequence[TaskDataset], cfg: RunConfig, t: int,
               acc: BoundAccumulators) -> Tuple[np.ndarray, float]:
    """One meta iteration, a one-epoch run adding its increments to acc.
    Returns the new U and the mean va risk of the adapted parameters."""
    if len(task_batch) != cfg.task_batch:
        raise ValueError(f"expected {cfg.task_batch} tasks, got {len(task_batch)}")
    if cfg.m_va < 1:
        raise ConfigurationError("outer update needs m_va >= 1 (va split empty)")
    u = as_vector(u, model.dim)
    try:
        ep = _one_epoch(cfg, t, task_batch, model.dim, slice(None),
                        block_rows(cfg, model.dim, t, 1, (P_NOISE_U,))[P_NOISE_U][0])
        us, run, risk, failure = _advance(ep, u, acc, cfg)
    except (ValueError, ArithmeticError) as exc:
        failure = exc
    if failure is not None:
        raise stopped_at(failure, "epoch", t) from None
    for f in fields(acc):
        setattr(acc, f.name, float(getattr(run, f.name)[0]))
    return us[-1], float(risk[0])


def draw_task_batch(env: EnvironmentSpec, cfg: RunConfig, t: int) -> List[TaskDataset]:
    """The tasks and datasets of a run's epoch t."""
    rows = block_rows(cfg, env.dim, t, 1, (P_MEANS, P_SAMPLES, P_SPLIT))
    mus, _, failure = _task_means(env, cfg, t, rows, 1, None)
    if failure is not None:
        raise failure
    return [TaskDataset(*task) for task in zip(*split_datasets(
        mus[0], rows[P_SAMPLES][0], rows[P_SPLIT][0], env, cfg.m_tr))]


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
    sg = bounds_mod.subgaussian_mean_estimation(env, cfg.schedules.beta0)
    u = (np.array(cfg.init_u, dtype=float) if cfg.init_u is not None
         else np.zeros(env.dim))
    if u.shape != (env.dim,):
        raise ConfigurationError(f"init_u must have length {env.dim}")

    records, acc, failure = [], BoundAccumulators(), None
    for t0 in range(1, cfg.T + 1, BLOCK):
        n = min(BLOCK, cfg.T + 1 - t0)     # the block's epochs, then those before a failure
        rows, rates = block_rows(cfg, env.dim, t0, n), np.empty((n, 2 * cfg.K + 1))
        for i in range(n):              # per epoch only the rate row
            try:
                rates[i] = _rates(cfg, t0 + i)
            except (ValueError, OverflowError) as exc:
                n, failure = i, exc
                break
        mus, n, failure = _task_means(env, cfg, t0, rows, n, failure)
        if n == 0:                      # the block's first epoch: no epoch runs before it
            raise stopped_at(failure, "epoch", t0) from None
        data = split_datasets(mus[:n], rows.pop(P_SAMPLES)[:n], rows.pop(P_SPLIT)[:n], env, cfg.m_tr)
        ep = _epochs(cfg, *data, *(rows[p][:n] if p in rows else None
                                   for p in (P_NOISE_W, P_BATCH, P_NOISE_U)), rates[:n])
        del data, rows                  # no pass-1 array outlives _epochs
        us, run, _, failure = _advance(ep, u, acc, cfg, failure)
        ab = bounds_mod.assemble_alt_bound(run, sg, cfg.n, cfg.m_va)
        gaps, ts = {}, range(t0, t0 + len(run.eps_u_sum))   # the epochs before a failure
        evals = [t for t in ts if eval_cadence > 0 and (t % eval_cadence == 0 or t == cfg.T)]
        for t in evals:
            try:
                rep = evaluate_mod.observed_gap(
                    us[t - t0 + 1], env, cfg, n_train_probe, n_test,
                    test_stream=derive_stream(cfg.seed, (P_TEST, t)),
                    train_stream=derive_stream(cfg.seed, (P_TRAIN_PROBE, t)))
            except (ValueError, ArithmeticError) as exc:
                raise stopped_at(exc, "epoch", t) from None
            gaps[t] = (rep.train_loss, rep.test_loss, rep.gap)
        if failure is not None:
            raise stopped_at(failure, "epoch", ts.stop) from None
        columns = [getattr(x, f.name).tolist() for x in (run, ab) for f in fields(x)]
        records += [RunRecord(t, *row, *gaps.get(t, (None,) * 3))
                    for t, *row in zip(ts, *columns)]
        u, acc = us[-1], BoundAccumulators(*(getattr(run, f.name)[-1] for f in fields(run)))
    return records, u
