"""Observed-generalization measurement: meta-test adaptation on fresh tasks
and the train/test loss gap."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RunConfig, as_vector, ordered_sum, sq_norm
from .model import descend
from .task_env import EnvironmentSpec, sample_task_means


@dataclass(frozen=True)
class GapReport:
    train_loss: float
    test_loss: float
    gap: float                  # test_loss - train_loss, exactly

    def __post_init__(self):
        if self.gap != self.test_loss - self.train_loss:
            raise ValueError("gap must equal test_loss - train_loss exactly")


def adapt_eval(u: np.ndarray, env: EnvironmentSpec, cfg: RunConfig,
               n_tasks: int, rng: np.random.Generator,
               eval_source: str = "va") -> float:
    """Average risk after noiseless tr-split fine-tuning on fresh tasks.

    The square loss reads a task's k scored rows only through their mean and
    scatter: (1/k) sum ||w - x_j||^2 = ||w - x_bar||^2 + (1/k) sum ||x_j - x_bar||^2.
    Of k i.i.d. N(mu, tau I) rows these are mu + sqrt(tau/k) z and, independent
    of it, tau chi^2(dim (k - 1)), so the draws, all tasks at once, are exact in
    distribution: the n_tasks means, then (n_tasks, s, dim) normals, the tr and
    va means' on the "va" side (s = 2) and the tr mean's on the "tr" side (s = 1),
    then, for k >= 2, n_tasks chi-squares.  A loss that overflows raises
    FloatingPointError.

    ``eval_source`` selects the split the adapted parameter is scored on:
    "va" (held-out) for test loss, "tr" (the data actually fitted) for the
    train-loss side of the observed gap.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    if eval_source not in ("va", "tr"):
        raise ValueError(f"eval_source must be va or tr, got {eval_source!r}")
    if eval_source == "va" and cfg.m_va < 1:
        raise ValueError("va evaluation needs m_va >= 1")
    k, tau = cfg.m_va if eval_source == "va" else cfg.m_tr, env.task_cov_scale
    mus = sample_task_means(env, n_tasks, rng)
    z = rng.standard_normal((n_tasks, 2 if eval_source == "va" else 1, env.dim))
    tr_mean = mus + np.sqrt(tau / cfg.m_tr) * z[:, 0]
    scored_mean = mus + np.sqrt(tau / k) * z[:, 1] if eval_source == "va" else tr_mean
    w = descend(as_vector(u, env.dim), [cfg.schedules.beta0] * cfg.test_adapt_steps, tr_mean)
    if not np.all(np.isfinite(w)):
        raise ValueError("vector contains NaN/Inf")
    risks = sq_norm(w - scored_mean)
    if k > 1:       # the scored rows' scatter, over tau
        risks += tau * rng.chisquare(env.dim * (k - 1), n_tasks) / k
    loss = float(ordered_sum(risks)) / n_tasks
    if not np.isfinite(loss):
        raise FloatingPointError(f"gap evaluation overflowed: {eval_source} loss is {loss}")
    return loss


def observed_gap(u: np.ndarray, env: EnvironmentSpec, cfg: RunConfig,
                 n_train_probe: int, n_test: int,
                 test_stream: np.random.Generator,
                 train_stream: np.random.Generator) -> GapReport:
    """Test-minus-train meta loss on fresh tasks from the same environment.

    The test side scores adapted parameters on held-out (va) data, the train
    side on the support (tr) data they were fitted to, so the gap measures
    how much held-out performance trails fitted performance.
    """
    test_loss = adapt_eval(u, env, cfg, n_test, test_stream, eval_source="va")
    train_loss = adapt_eval(u, env, cfg, n_train_probe, train_stream, eval_source="tr")
    return GapReport(train_loss=train_loss, test_loss=test_loss,
                     gap=test_loss - train_loss)
