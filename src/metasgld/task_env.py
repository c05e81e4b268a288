"""Task environment: truncated-Gaussian task means, per-task datasets, splits, minibatches."""
from __future__ import annotations

import math
from dataclasses import dataclass

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
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        object.__setattr__(self, "env_mean", as_vector(self.env_mean, self.dim))
        object.__setattr__(self, "trunc_lo", as_vector(self.trunc_lo, self.dim))
        object.__setattr__(self, "trunc_hi", as_vector(self.trunc_hi, self.dim))
        for name in ("env_cov_scale", "task_cov_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    def tr(self) -> np.ndarray:
        return self.samples[self.tr_indices]

    @property
    def va(self) -> np.ndarray:
        return self.samples[self.va_indices]


def box_means(z: np.ndarray, env: EnvironmentSpec) -> tuple[np.ndarray, np.ndarray]:
    """One round of the rejection sampler on raw normals z (..., dim), over any
    leading axes: the means env_mean + sqrt(env_cov_scale) z (..., dim) and
    whether each lies in the truncation box (...).  It is elementwise, so a
    block of rounds gives each round's values."""
    mus = env.env_mean + np.sqrt(env.env_cov_scale) * z
    inside = (mus[..., 0] >= env.trunc_lo[0]) & (mus[..., 0] <= env.trunc_hi[0])
    for j in range(1, env.dim):     # np.all over the short dim axis is slow
        inside &= (mus[..., j] >= env.trunc_lo[j]) & (mus[..., j] <= env.trunc_hi[j])
    return mus, inside


def sample_task_means(env: EnvironmentSpec, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """n task means (n, dim) from the truncated Gaussian by rejection: one
    (n, dim) round of box_means, then rounds of max(#rejected, _REJECT_CHUNK)
    rows whose first hits fill the rejected slots in row order."""
    mus, inside = box_means(rng.standard_normal((n, env.dim)), env)
    todo = np.flatnonzero(~inside)
    since_hit = 0 if todo.size < n else n
    while todo.size:
        if since_hit >= _MAX_REJECT_DRAWS:
            raise ConfigurationError(
                f"rejection sampling acceptance rate below {MIN_ACCEPT_RATE} ({since_hit} "
                "draws without a hit); truncation box carries too little mass")
        size = max(todo.size, _REJECT_CHUNK)
        draws, inside = box_means(rng.standard_normal((size, env.dim)), env)
        hits = draws[inside][:todo.size]
        mus[todo[:len(hits)]] = hits
        todo = todo[len(hits):]
        since_hit = 0 if len(hits) else since_hit + size
    return mus


# perfbench traces the task-mean draws under the span task_env.sample_task
sample_task = sample_task_means


def draw_datasets(n: int, m: int, dim: int, rng: np.random.Generator, out=(None, None)):
    """The raw draws of n datasets: (n, m, dim) standard normals, then (n, m)
    uniform split keys, into the arrays ``out`` if given."""
    return rng.standard_normal((n, m, dim), out=out[0]), rng.random((n, m), out=out[1])


def form_samples(mus: np.ndarray, z: np.ndarray, env: EnvironmentSpec) -> np.ndarray:
    """Samples mus + sqrt(task_cov_scale) z (..., k, dim) of the means mus (..., dim)
    from raw normals z (..., k, dim).  It is elementwise, so rows formed alone equal
    those rows of a whole dataset.  mus is repeated over the k rows: NumPy adds a
    broadcast over the short dim axis slowly."""
    return np.repeat(mus[..., None, :], z.shape[-2], axis=-2) + np.sqrt(env.task_cov_scale) * z


def split_indices(keys: np.ndarray, m_tr: int) -> tuple[np.ndarray, np.ndarray]:
    """The split argsort(keys) of datasets with keys (..., m): its sorted tr
    (..., m_tr) and va (..., m - m_tr) indices."""
    perm = np.argsort(keys, axis=-1)
    return np.sort(perm[..., :m_tr], axis=-1), np.sort(perm[..., m_tr:], axis=-1)


def split_datasets(mus: np.ndarray, z: np.ndarray, keys: np.ndarray, env: EnvironmentSpec,
                   m_tr: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Datasets from their raw draws, over any leading axes: samples (..., m, dim)
    (form_samples), then the split's sorted tr and va indices (split_indices)."""
    return (form_samples(mus, z, env),) + split_indices(keys, m_tr)


def take_rows(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows idx (..., k) of each dataset of x (..., m, dim), (..., k, dim), as
    take_along_axis gives them, by one take on x's rows flattened to (-1, dim)."""
    lead = idx.shape[:-1]
    rows = idx + x.shape[-2] * np.arange(math.prod(lead)).reshape(lead + (1,))
    return x.reshape(-1, x.shape[-1]).take(rows, axis=0)


def sample_datasets(mus: np.ndarray, env: EnvironmentSpec, m: int, m_tr: int,
                    rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row of mus, m i.i.d. draws from N(mu, task_cov_scale * I) and a
    uniform random split: samples (n, m, dim), then the sorted tr (n, m_tr)
    and va (n, m - m_tr) indices; draw_datasets, then split_datasets."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= m_tr <= m:
        raise ValueError(f"m_tr must be in [0, m], got {m_tr}")
    return split_datasets(mus, *draw_datasets(len(mus), m, env.dim, rng), env, m_tr)


def sample_dataset(task: TaskSpec, env: EnvironmentSpec, m: int, m_tr: int,
                   rng: np.random.Generator) -> TaskDataset:
    """One task's dataset: sample_datasets for a single mean."""
    samples, tr, va = sample_datasets(task.mu[None], env, m, m_tr, rng)
    return TaskDataset(samples=samples[0], tr_indices=tr[0], va_indices=va[0])


def sample_minibatch(pool: np.ndarray, b: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform subsets of b entries, drawn without replacement and kept in
    pool order, from the last axis of pool (..., N), (..., b): take_minibatch
    on one uniform key per entry of pool."""
    if not 1 <= b <= pool.shape[-1]:
        raise ValueError(f"batch size {b} not in [1, {pool.shape[-1]}]")
    return take_minibatch(pool, rng.random(pool.shape), b)


def take_minibatch(pool: np.ndarray, keys: np.ndarray, b: int) -> np.ndarray:
    """The entries of pool (..., N) at the first b of argsort(keys), in pool order (..., b)."""
    first = np.argsort(keys, axis=-1)[..., :b]
    return np.take_along_axis(pool, np.sort(first, axis=-1), axis=-1)


def minibatch_mean_var(pool: np.ndarray, b: int) -> np.ndarray:
    """Per-coordinate variance of the mean of a uniform b-subset of the N rows
    of pool (..., N, dim), drawn without replacement: the finite-population
    S^2/b * (N - b)/(N - 1), S^2 the population variance, (..., dim).  It is
    exactly 0.0 when the subset is the whole pool, b = N or b = 0."""
    n = pool.shape[-2]
    if b in (0, n):
        return np.zeros(pool.shape[:-2] + pool.shape[-1:])
    return pool.var(axis=-2) / b * (n - b) / (n - 1)


def rows_mean(pool: np.ndarray) -> np.ndarray:
    """pool (..., N, dim).mean(axis=-2) of a C-contiguous pool, bit for bit,
    without NumPy's slow reduction over a middle axis.  From dim = 2 on NumPy
    adds the N rows in order, as a mean over the leading axis of an (N, ..., dim)
    copy does; in dim 1 the rows are contiguous and it adds them pairwise.  One
    row's mean is the row + 0.0, which makes -0.0 +0.0 as NumPy's sum does."""
    if pool.shape[-2] == 1:
        return pool[..., 0, :] + 0.0
    if pool.shape[-1] == 1:
        return pool.mean(axis=-2)
    return np.moveaxis(pool, -2, 0).copy().mean(axis=0)
