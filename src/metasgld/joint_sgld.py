"""Joint-training mode: Langevin dynamics over the stacked parameter
(U, W_1..W_n) with online tracking of the mutual-information bound and its
closed form under the eta_t = c/t, sigma_t = sqrt(eta_t) schedule.

The chain is one (n+1, d) array: row 0 is U and rows 1..n are W_1..W_n.
Each step matches the per-task loop of tests/test_engine_reference.py bit
for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import (DECAY_INVERSE_T, P_DATA, P_NOISE_U, P_TASK, Schedules,
                   UndefinedBoundError, derive_stream, ordered_sum)
from .model import stacked_grad, stacked_risk
from .task_env import EnvironmentSpec, sample_dataset, sample_task

SIGMA_SQRT_ETA = "sqrt_eta"
SIGMA_FIXED = "fixed"


@dataclass
class GradBoundTracker:
    """Running estimate of the gradient-norm constant and the MI summands."""

    l_hat: float = 0.0
    per_step_terms: List[float] = field(default_factory=list)
    fixed_l: Optional[float] = None     # set to pin L instead of tracking the max

    def observe(self, grad_norm: float) -> float:
        if self.fixed_l is not None:
            self.l_hat = self.fixed_l
        else:
            self.l_hat = max(self.l_hat, float(grad_norm))
        return self.l_hat

    @property
    def mi_sum(self) -> float:
        return float(sum(self.per_step_terms))


def joint_loss_grad(phi: np.ndarray, data: np.ndarray,
                    coupling: float) -> np.ndarray:
    """Gradient of (1/n) sum_i R_{D_i}(w_i) + (coupling/n) sum_i ||w_i - u||^2
    at phi (n+1, d), row 0 u and rows 1..n the w_i, on the datasets data (n, m, d)."""
    n = phi.shape[0] - 1
    if data.shape[0] != n:
        raise ValueError(f"need one dataset per task ({n}), got {data.shape[0]}")
    if coupling < 0:
        raise ValueError("coupling must be non-negative")
    grad = np.zeros_like(phi)
    grad[1:] = stacked_grad(phi[1:], data) / n
    if coupling > 0:
        x = (2.0 * coupling / n) * (phi[1:] - phi[0])
        grad[1:] += x
        # left to right from zero: the rounding and sign of zero of
        # subtracting each x_i from U's block in task order
        grad[0] = ordered_sum(-x, 0)
    return grad


def joint_sgld_step(phi: np.ndarray, grad: np.ndarray, eta_t: float,
                    sigma_t: float, rng: np.random.Generator) -> np.ndarray:
    """Phi <- Phi - eta_t * grad + N(0, sigma_t^2 I); sigma_t = 0 is plain GD.
    The noise is one draw of the flat (n+1)*d vector, in row order."""
    if grad.shape != phi.shape:
        raise ValueError("gradient shape does not match stacked parameter")
    if sigma_t < 0:
        raise ValueError("sigma_t must be non-negative")
    noise = (sigma_t * rng.standard_normal(phi.size).reshape(phi.shape)
             if sigma_t > 0 else 0.0)
    return phi - eta_t * grad + noise


def mi_step_term(eta_t: float, sigma_t: float, l_hat: float,
                 stacked_dim: int) -> float:
    """Per-step information increment ((nd+k)/2) log(1 + eta^2 L^2 / ((nd+k) sigma^2))."""
    if stacked_dim < 1:
        raise ValueError("stacked_dim must be positive")
    if l_hat < 0:
        raise ValueError("l_hat must be non-negative")
    if sigma_t <= 0:
        raise UndefinedBoundError(
            "mutual-information step term diverges as sigma_t -> 0; "
            "got sigma_t = 0 (noise-free steps carry unbounded information)")
    x = (eta_t * l_hat) ** 2 / (stacked_dim * sigma_t ** 2)
    return 0.5 * stacked_dim * math.log1p(x)


def joint_bound(mi_sum: float, sigma_sg: float, n: int, m: int) -> float:
    """Generalization bound sqrt(2 sigma^2 mi_sum / (n m))."""
    if mi_sum < 0:
        raise ValueError("mi_sum must be non-negative")
    if sigma_sg <= 0 or n < 1 or m < 1:
        raise ValueError("need sigma_sg > 0 and n, m >= 1")
    return math.sqrt(2.0 * sigma_sg ** 2 * mi_sum / (n * m))


def joint_closed_form(sigma_sg: float, l_hat: float, n: int, m: int,
                      c: float, T: float) -> float:
    """Closed-form bound sigma L / sqrt(nm) * sqrt(c log T + c) for eta_t = c/t,
    sigma_t = sqrt(eta_t)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if c <= 0:
        raise ValueError("c must be positive")
    if sigma_sg <= 0 or l_hat < 0 or n < 1 or m < 1:
        raise ValueError("invalid bound inputs")
    return sigma_sg * l_hat / math.sqrt(n * m) * math.sqrt(c * math.log(T) + c)


@dataclass(frozen=True)
class JointConfig:
    n: int
    m: int
    T: int
    schedules: Schedules
    seed: int
    coupling: float = 1.0
    sigma_rule: str = SIGMA_SQRT_ETA
    sigma0: float = 0.0          # used when sigma_rule == "fixed"
    fixed_l: Optional[float] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.T < 0:
            raise ValueError("n, m must be >= 1 and T >= 0")
        if self.coupling < 0:
            raise ValueError("coupling must be non-negative")
        if self.sigma_rule not in (SIGMA_SQRT_ETA, SIGMA_FIXED):
            raise ValueError(f"unknown sigma rule {self.sigma_rule!r}")
        if self.sigma_rule == SIGMA_FIXED and self.sigma0 <= 0:
            raise ValueError("fixed sigma rule needs sigma0 > 0")


def sigma_value(cfg: JointConfig, eta_t: float) -> float:
    return math.sqrt(eta_t) if cfg.sigma_rule == SIGMA_SQRT_ETA else cfg.sigma0


@dataclass(frozen=True)
class JointRecord:
    t: int
    l_hat: float
    mi_step_term: float
    mi_sum: float
    joint_bound: float
    closed_form: float
    train_risk: float


def run_joint_sgld(cfg: JointConfig, env: EnvironmentSpec,
                   sigma_sg: float) -> List[JointRecord]:
    """Full joint-training run on n fixed datasets sampled once up front."""
    data = np.empty((cfg.n, cfg.m, env.dim))
    for i in range(cfg.n):
        task = sample_task(env, derive_stream(cfg.seed, (P_TASK, 0, i)))
        data[i] = sample_dataset(task, env, cfg.m, cfg.m,
                                 derive_stream(cfg.seed, (P_DATA, 0, i))).samples

    phi = np.zeros((cfg.n + 1, env.dim))
    tracker = GradBoundTracker(fixed_l=cfg.fixed_l)
    noise_rng = derive_stream(cfg.seed, (P_NOISE_U, 0))
    s = cfg.schedules
    closed_form_available = s.decay_rule == DECAY_INVERSE_T and cfg.sigma_rule == SIGMA_SQRT_ETA

    records: List[JointRecord] = []
    for t in range(1, cfg.T + 1):
        eta = s.outer_lr(t)
        sigma = sigma_value(cfg, eta)
        grad = joint_loss_grad(phi, data, cfg.coupling)
        l_hat = tracker.observe(np.linalg.norm(grad))
        try:
            term = mi_step_term(eta, sigma, l_hat, phi.size)
        except OverflowError:
            raise FloatingPointError(
                f"information step term overflowed at step {t}") from None
        tracker.per_step_terms.append(term)
        phi = joint_sgld_step(phi, grad, eta, sigma, noise_rng)
        if not np.all(np.isfinite(phi)):
            raise FloatingPointError(f"joint parameter became non-finite at step {t}")

        bound = joint_bound(tracker.mi_sum, sigma_sg, cfg.n, cfg.m)
        cf = (joint_closed_form(sigma_sg, l_hat, cfg.n, cfg.m, s.decay_c, t)
              if closed_form_available else float("nan"))
        train = float(np.mean(stacked_risk(phi[1:], data)))
        records.append(JointRecord(t=t, l_hat=l_hat, mi_step_term=term,
                                   mi_sum=tracker.mi_sum, joint_bound=bound,
                                   closed_form=cf, train_risk=train))
    return records
