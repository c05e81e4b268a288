"""Observed-generalization measurement: meta-test adaptation on fresh tasks
and the train/test loss gap."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RunConfig, as_vector, ordered_sum
from .model import descend, stacked_risk
from .task_env import EnvironmentSpec, form_samples, rows_mean, sample_task_means


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

    All n_tasks means, then their datasets' normals, are drawn from rng as
    whole arrays, and all tasks adapt at once.  A uniform split of i.i.d.
    rows is distributed as the first m_tr rows for tr and the rest for va, so
    the tasks come split: the "va" side draws (n_tasks, m, dim) normals, rows
    :m_tr tr and m_tr: va, the "tr" side only the (n_tasks, m_tr, dim) it
    fits and scores.  A loss that overflows raises FloatingPointError.

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
    mus = sample_task_means(env, n_tasks, rng)
    z = rng.standard_normal((n_tasks, cfg.m if eval_source == "va" else cfg.m_tr, env.dim))
    tr = form_samples(mus, z[:, :cfg.m_tr], env)
    batch = form_samples(mus, z[:, cfg.m_tr:], env) if eval_source == "va" else tr
    w = descend(as_vector(u, env.dim), [cfg.schedules.beta0] * cfg.test_adapt_steps,
                rows_mean(tr))
    if not np.all(np.isfinite(w)):
        raise ValueError("vector contains NaN/Inf")
    loss = float(ordered_sum(stacked_risk(w, batch))) / n_tasks
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
