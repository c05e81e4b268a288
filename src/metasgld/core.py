"""Shared primitives: schedules, hierarchical RNG streams, run configuration."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np


class ConfigurationError(ValueError):
    """A configuration is structurally valid but unusable (e.g. hopeless rejection sampling)."""


class UndefinedBoundError(ValueError):
    """A bound formula is evaluated outside its domain (e.g. zero noise variance)."""


def as_vector(v, dim: Optional[int] = None) -> np.ndarray:
    """Validate a parameter vector: 1-D, float, finite, optionally of fixed length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected vector of length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains NaN/Inf")
    return arr


def stopped_at(exc: Exception, unit: str, t: int) -> Exception:
    """exc's type and message, naming where a run stopped: `` at epoch t``."""
    return type(exc)(f"{exc} at {unit} {t}")


def ordered_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over ``axis`` bit for bit as ``total = 0.0; for v in x: total += v``
    (np.sum adds pairwise; ``+ 0.0`` makes cumsum's all -0.0 sum +0.0).  The
    axis must be non-empty: an empty one raises IndexError."""
    return x.cumsum(axis).take(-1, axis) + 0.0


def sq_norm(v: np.ndarray) -> np.ndarray:
    """``v @ v`` over the last axis by the dot product that ``float(v @ v)``
    and ``np.linalg.norm`` use; v*v summed can round differently."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------- schedules

DECAY_CONSTANT = "constant"
DECAY_INVERSE_T = "inverse_t"
DECAY_EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class Schedules:
    """Learning-rate and inverse-temperature settings for the outer and inner loops.

    ``decay_rule`` applies to both learning rates; ``constant`` returns
    eta0/beta0, ``inverse_t`` returns c/t (outer) and c/(t*k) (inner),
    ``exponential`` returns base * rate**(t/period).
    """

    eta0: float
    beta0: float
    gamma_outer: float
    gamma_inner: float
    decay_rule: str = DECAY_CONSTANT
    decay_c: float = 1.0
    decay_rate: float = 0.96
    decay_period: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():     # every field but the rule is a float
            if name != "decay_rule" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("eta0", "beta0", "gamma_outer", "gamma_inner"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.decay_rule not in (DECAY_CONSTANT, DECAY_INVERSE_T, DECAY_EXPONENTIAL):
            raise ValueError(f"unknown decay rule {self.decay_rule!r}")
        if self.decay_rule == DECAY_INVERSE_T and self.decay_c <= 0:
            raise ValueError("inverse_t decay needs c > 0")
        if self.decay_rule == DECAY_EXPONENTIAL and (self.decay_rate <= 0 or self.decay_period <= 0):
            raise ValueError("exponential decay needs rate > 0 and period > 0")

    def outer_lr(self, t: int) -> float:
        return self._rate(self.eta0, t, 1)

    def inner_lr(self, t: int, k: int) -> float:
        return self._rate(self.beta0, t, k)

    def _rate(self, base: float, t: int, k: int) -> float:
        """The decay rule from base; the outer rate is the case k = 1."""
        if t < 1:
            raise ValueError(f"iteration index t must be >= 1, got {t}")
        if k < 1:
            raise ValueError(f"inner index k must be >= 1, got {k}")
        if self.decay_rule == DECAY_CONSTANT:
            return base
        if self.decay_rule == DECAY_INVERSE_T:
            return self.decay_c / (t * k)
        try:
            return base * self.decay_rate ** (t / self.decay_period)
        except OverflowError:
            raise OverflowError("decay_rate ** (t / decay_period) overflows") from None


def noise_std(lr: float, gamma: float) -> float:
    """Langevin noise standard deviation sqrt(2 * lr / gamma).

    gamma = inf yields 0.0.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if not (gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    return math.sqrt(2.0 * lr / gamma)


# ---------------------------------------------------------------- RNG streams

# Stream purpose tags: the first path component. Keeping them distinct makes
# every (purpose, t, ...) coordinate an independent reproducible stream.
P_TASK = 2
P_BATCH = 5
P_NOISE_U = 6
P_NOISE_W = 7
P_TEST = 9
P_TRAIN_PROBE = 10


def derive_stream(master_seed: int, path: Sequence[int]) -> np.random.Generator:
    """Deterministic, independent RNG stream addressed by an integer path.

    Same (master_seed, path) always yields the same generator state; distinct
    paths (or seeds) give statistically independent streams.
    """
    seed = check_seed(master_seed)
    key = tuple(check_seed(x, "stream path entry") for x in path)
    if not key:
        raise ValueError("stream path must be non-empty")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def epoch_streams(seed: int, purposes: Sequence[int], ts: Sequence[int]
                  ) -> Iterator[Tuple[int, Dict[int, np.random.Generator]]]:
    """For each t of ts, t and a new generator per purpose on its (purpose, t)
    stream; each stays valid after the loop moves on.  ts is one block of a
    run's epochs: its seed words are derived in one call per purpose."""
    words = [stream_states(seed, p, ts).astype(np.uint64) for p in purposes]
    # SeedSequence's uint64 words pair its uint32 words low word first
    for t, *rows in zip(ts, *(w[:, 0::2] | w[:, 1::2] << 32 for w in words)):
        yield t, {p: np.random.Generator(np.random.PCG64(_Words(row)))
                  for p, row in zip(purposes, rows)}


class _Words(np.random.bit_generator.ISeedSequence):
    """A SeedSequence's generate_state(4, np.uint64), given as its words: what
    PCG64 asks for when it seeds itself.  PCG64 reads the array's memory, so
    the words must be 4 contiguous native uint64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# SeedSequence's hash multipliers before and after each hash of t's words
# (the pool of (seed, purpose) took 20: 4 for the seed words, 12 to mix
# them, 4 for the purpose word) and of generate_state's 8 words
_HASH_T = np.array([0x43B0D7E5 * 0x931E8875 ** k & 0xFFFFFFFF for k in range(20, 29)],
                   dtype=np.uint32)
_HASH_OUT = np.array([0x8B51F9DD * 0x58F38DED ** k & 0xFFFFFFFF for k in range(9)],
                     dtype=np.uint32)


# SeedSequence's hashmix and mix, on uint32 arrays
def _hash(v, before, after):
    v = (v ^ before) * after
    return v ^ v >> 16


def _mix(x, y):
    v = x * 0xCA01F9DD - y * 0x4973F715
    return v ^ v >> 16


def stream_states(seed: int, purpose: int, ts: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(purpose, t)).generate_state(8)`` for
    each t of ts, as one (len(ts), 8) uint32 array; purpose is a one-word tag
    and t in [0, 2**64).

    NumPy hashes the seed and purpose into SeedSequence's pool of 4 words;
    t's low word, then its high word if nonzero, are hashed onto it here as
    uint32 array ops over all of ts, then generate_state's 8 words follow."""
    if not 0 <= purpose < 2 ** 32:
        raise ValueError(f"purpose must be in [0, 2**32), got {purpose}")
    t = np.array([check_seed(t, "t") for t in ts], dtype=np.uint64)[:, None]
    pool = np.random.SeedSequence(check_seed(seed), spawn_key=(purpose,)).pool
    lo, hi = (t & 0xFFFFFFFF).astype(np.uint32), (t >> 32).astype(np.uint32)
    pool = _mix(pool, _hash(lo, _HASH_T[:4], _HASH_T[1:5]))
    pool = np.where(hi != 0, _mix(pool, _hash(hi, _HASH_T[4:8], _HASH_T[5:])), pool)
    return _hash(np.concatenate([pool, pool], axis=1), _HASH_OUT[:-1], _HASH_OUT[1:])


def check_seed(seed: int, name: str = "seed") -> int:
    """seed as an int, if it is an integer in [0, 2**64); any other value
    would alias one inside (1.7 as 1, 2**64 as 0).  Path entries alike."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")
    return seed


# ---------------------------------------------------------------- run config

@dataclass(frozen=True)
class RunConfig:
    """Everything a trainer needs besides the task environment."""

    n: int                      # task count entering the bound denominator
    m: int                      # samples per task
    m_tr: int
    m_va: int
    task_batch: int             # |I_t|
    T: int
    K: int
    schedules: Schedules
    seed: int
    mc_replicas: int = 10       # no code reads it; callers still pass it
    test_adapt_steps: int = 10
    inner_batch: int = 0        # 0 = full-batch inner updates (GLD branch)
    noise: bool = True          # False disables Langevin noise (plain first-order MAML)
    init_u: Optional[tuple] = None   # None = zero vector

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.m_tr + self.m_va != self.m:
            raise ValueError(f"m_tr + m_va must equal m ({self.m_tr}+{self.m_va} != {self.m})")
        if self.m_tr < 1:
            raise ValueError("m_tr must be >= 1 (no inner adaptation possible otherwise)")
        if self.m_va < 0:
            raise ValueError("m_va must be >= 0")
        if not (1 <= self.task_batch <= self.n):
            raise ValueError("task_batch must satisfy 1 <= task_batch <= n")
        if self.T < 0 or self.K < 0:
            raise ValueError("T and K must be non-negative")
        check_seed(self.seed)
        if self.mc_replicas < 1:
            raise ValueError("mc_replicas must be >= 1")
        if self.test_adapt_steps < 0:
            raise ValueError("test_adapt_steps must be >= 0")
        if self.inner_batch < 0 or self.inner_batch > self.m_tr:
            raise ValueError("inner_batch must be in [0, m_tr]")
        if self.init_u is not None and not all(map(math.isfinite, self.init_u)):
            raise ValueError(f"init_u must be finite, got {self.init_u}")
