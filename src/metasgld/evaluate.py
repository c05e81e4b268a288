"""Observed-generalization measurement: meta-test adaptation on fresh tasks
and the train/test loss gap."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RunConfig, as_vector, ordered_sum
from .model import descend, stacked_risk
from .task_env import (EnvironmentSpec, draw_datasets, form_samples, rows_mean,
                       sample_task_means, split_indices, take_rows)


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

    All n_tasks means, then the raw draws of their datasets, are drawn from
    rng as whole arrays; all tasks adapt at once.  Only the rows it scores
    become samples (task_env.form_samples, elementwise): the split's tr rows
    and, for "va", its va rows, taken from the raw normals by
    task_env.take_rows.  A whole samples array would scale and shift rows it
    never reads.  The values, the tr mean (task_env.rows_mean) and the
    C-contiguous (n_tasks, k, dim) batch scored are those of the whole array,
    bit for bit.  A loss that overflows raises FloatingPointError.

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
    z, keys = draw_datasets(n_tasks, cfg.m, env.dim, rng)
    tr_idx, va_idx = split_indices(keys, cfg.m_tr)
    tr = form_samples(mus, take_rows(z, tr_idx), env)
    batch = form_samples(mus, take_rows(z, va_idx), env) if eval_source == "va" else tr
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
