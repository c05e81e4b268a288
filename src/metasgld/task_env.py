"""Task environment: truncated-Gaussian task means, per-task datasets, splits, minibatches."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .core import ConfigurationError, as_vector

# Rejection sampling gives up once the implied acceptance rate drops below this.
MIN_ACCEPT_RATE = 1e-6
_REJECT_CHUNK = 1024
_MAX_REJECT_DRAWS = int(4 / MIN_ACCEPT_RATE)


@dataclass(frozen=True)
class EnvironmentSpec:
    """The distribution over tasks: an isotropic Gaussian over task means, box-truncated."""

    env_mean: np.ndarray
    env_cov_scale: float
    trunc_lo: np.ndarray
    trunc_hi: np.ndarray
    task_cov_scale: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "env_mean", as_vector(self.env_mean, self.dim))
        object.__setattr__(self, "trunc_lo", as_vector(self.trunc_lo, self.dim))
        object.__setattr__(self, "trunc_hi", as_vector(self.trunc_hi, self.dim))
        if self.env_cov_scale <= 0 or self.task_cov_scale <= 0:
            raise ValueError("covariance scales must be positive")
        if not np.all(self.trunc_lo < self.trunc_hi):
            raise ValueError("trunc_lo must be componentwise below trunc_hi")
        if not np.all((self.env_mean >= self.trunc_lo) & (self.env_mean <= self.trunc_hi)):
            raise ValueError("env_mean must lie inside the truncation box")


@dataclass(frozen=True)
class TaskSpec:
    mu: np.ndarray


@dataclass(frozen=True)
class TaskDataset:
    """One task's m samples plus a fixed train/validation index split."""

    samples: np.ndarray            # (m, dim)
    tr_indices: np.ndarray         # (m_tr,)
    va_indices: np.ndarray         # (m_va,)

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def tr(self) -> np.ndarray:
        return self.samples[self.tr_indices]

    @property
    def va(self) -> np.ndarray:
        return self.samples[self.va_indices]


def sample_task(env: EnvironmentSpec, rng: np.random.Generator) -> TaskSpec:
    """Draw a task mean from the truncated Gaussian via rejection sampling."""
    std = np.sqrt(env.env_cov_scale)
    total = 0
    while total < _MAX_REJECT_DRAWS:
        z = rng.standard_normal((_REJECT_CHUNK, env.dim))
        total += _REJECT_CHUNK
        # the whole chunk is drawn, but row 0 usually hits: test it alone first
        first = env.env_mean + std * z[0]
        if ((first >= env.trunc_lo) & (first <= env.trunc_hi)).all():
            return TaskSpec(mu=first)
        draws = env.env_mean + std * z
        ok = np.all((draws >= env.trunc_lo) & (draws <= env.trunc_hi), axis=1)
        hits = np.flatnonzero(ok)
        if hits.size:
            return TaskSpec(mu=draws[hits[0]].copy())
    raise ConfigurationError(
        f"rejection sampling acceptance rate below {MIN_ACCEPT_RATE} "
        f"({total} draws without a hit); truncation box carries too little mass")


def sample_tasks(env: EnvironmentSpec, rng: np.random.Generator,
                 count: int) -> np.ndarray:
    """Vectorized rejection sampling of `count` task means, shape (count, dim)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    std = np.sqrt(env.env_cov_scale)
    accepted: List[np.ndarray] = []
    have = 0
    total = 0
    chunk = max(_REJECT_CHUNK, count)
    while have < count:
        if total >= _MAX_REJECT_DRAWS * max(1, count):
            raise ConfigurationError(
                f"rejection sampling acceptance rate below {MIN_ACCEPT_RATE}; "
                "truncation box carries too little mass")
        draws = env.env_mean + std * rng.standard_normal((chunk, env.dim))
        ok = np.all((draws >= env.trunc_lo) & (draws <= env.trunc_hi), axis=1)
        total += chunk
        hits = draws[ok]
        if hits.size:
            accepted.append(hits)
            have += hits.shape[0]
    return np.concatenate(accepted)[:count]


def sample_dataset(task: TaskSpec, env: EnvironmentSpec, m: int, m_tr: int,
                   rng: np.random.Generator) -> TaskDataset:
    """m i.i.d. draws from N(mu, task_cov_scale * I) with a uniform random split."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= m_tr <= m:
        raise ValueError(f"m_tr must be in [0, m], got {m_tr}")
    samples = task.mu + np.sqrt(env.task_cov_scale) * rng.standard_normal((m, env.dim))
    perm = rng.permutation(m)
    return TaskDataset(samples=samples,
                       tr_indices=np.sort(perm[:m_tr]),
                       va_indices=np.sort(perm[m_tr:]))


def sample_minibatch(ds: TaskDataset, source: str, b: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform index subset of the tr / va / union source; b = 0 means full batch."""
    if source == "tr":
        pool = ds.tr_indices
    elif source == "va":
        pool = ds.va_indices
    elif source == "union":
        pool = np.arange(ds.m)
    else:
        raise ValueError(f"source must be tr/va/union, got {source!r}")
    if b == 0:
        return pool.copy()
    if b < 0 or b > pool.size:
        raise ValueError(f"batch size {b} exceeds source size {pool.size}")
    return np.sort(rng.choice(pool, size=b, replace=False))

