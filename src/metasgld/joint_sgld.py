"""Joint-training mode: Langevin dynamics over the stacked parameter
(U, W_1..W_n), one (n+1, d) array with U in row 0, and the mutual-information
bound and its closed form under the eta_t = c/t, sigma_t = sqrt(eta_t) schedule.

A run draws all its noise into its store of phi, takes one step loop (rate,
gradient, L-hat, MI term, phi, bound), then scores the train risk, RISK_BLOCK
steps at a time."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import (DECAY_INVERSE_T, P_NOISE_U, P_TASK, Schedules, UndefinedBoundError,
                   check_seed, derive_stream, ordered_sum, stopped_at)
from .model import stacked_risk
from .task_env import EnvironmentSpec, sample_datasets, sample_task_means

RISK_BLOCK = 32     # the steps whose train risk a run scores at once


@dataclass
class GradBoundTracker:
    """Running estimate of the gradient-norm constant and the MI summands."""

    l_hat: float = 0.0
    per_step_terms: List[float] = field(default_factory=list)

    def observe(self, grad_norm: float) -> float:
        self.l_hat = max(self.l_hat, float(grad_norm))
        return self.l_hat

    @property
    def mi_sum(self) -> float:
        return float(sum(self.per_step_terms))


def joint_loss_grad(phi: np.ndarray, means: np.ndarray,
                    coupling: float) -> np.ndarray:
    """Gradient of (1/n) sum_i R_{D_i}(w_i) + (coupling/n) sum_i ||w_i - u||^2
    at phi (n+1, d), row 0 u and rows 1..n the w_i.  means (n, d) holds each
    dataset D_i's sample mean: the square loss's gradient reads nothing else."""
    n = phi.shape[0] - 1
    if means.shape[0] != n:
        raise ValueError(f"need one dataset per task ({n}), got {means.shape[0]}")
    if coupling < 0:
        raise ValueError("coupling must be non-negative")
    grad = np.empty_like(phi)
    grad[1:] = 2.0 * (phi[1:] - means) / n
    if coupling > 0:
        x = (2.0 * coupling / n) * (phi[1:] - phi[0])
        grad[1:] += x
        # left to right from zero: the rounding and sign of zero of
        # subtracting each x_i from U's block in task order
        grad[0] = ordered_sum(-x, 0)
    else:
        grad[0] = 0.0
    return grad


def joint_sgld_step(phi: np.ndarray, grad: np.ndarray, eta_t: float,
                    sigma_t: float, z: np.ndarray) -> np.ndarray:
    """Phi <- Phi - eta_t * grad + sigma_t * z, for z standard normals of phi's
    shape; sigma_t = 0 is plain GD, which adds +0.0 (0 * z would carry z's signs)."""
    if grad.shape != phi.shape:
        raise ValueError("gradient shape does not match stacked parameter")
    if sigma_t < 0:
        raise ValueError("sigma_t must be non-negative")
    return phi - eta_t * grad + (sigma_t * z if sigma_t > 0 else 0.0)


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
    try:
        sigma_sq = sigma_t ** 2
    except OverflowError:
        sigma_sq = math.inf
    if sigma_sq == 0 or math.isinf(sigma_sq):
        raise UndefinedBoundError(
            f"mutual-information step term is undefined: sigma_t = {sigma_t} "
            f"squares to {sigma_sq:g} in floating point")
    try:
        x = (eta_t * l_hat) ** 2 / (stacked_dim * sigma_sq)
    except OverflowError:
        x = math.inf
    if math.isinf(x):
        raise OverflowError("mutual-information step term overflowed")
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
    sigma0: Optional[float] = None   # None: sigma_t = sqrt(eta_t); a value pins it
    fixed_l: Optional[float] = None  # None: L is the running max of the gradient norm

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.T < 0:
            raise ValueError("n, m must be >= 1 and T >= 0")
        check_seed(self.seed)
        if not math.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if self.coupling < 0:
            raise ValueError("coupling must be non-negative")
        if self.sigma0 is not None and not (math.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ValueError(f"sigma0 must be finite and > 0, got {self.sigma0}")
        if self.fixed_l is not None and not (math.isfinite(self.fixed_l)
                                             and self.fixed_l >= 0):
            raise ValueError(f"fixed_l must be finite and >= 0, got {self.fixed_l}")


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
    """Full joint-training run on n fixed datasets sampled once up front; a
    step that fails raises there, before any later step is taken."""
    rng = derive_stream(cfg.seed, (P_TASK, 0))
    data, _, _ = sample_datasets(sample_task_means(env, cfg.n, rng), env,
                                 cfg.m, cfg.m, rng)
    means = data.mean(axis=1)   # the square loss's gradient reads only these
    # one draw of T (n + 1) d normals: step t reads phis[t - 1], then writes phi there
    phis = np.empty((cfg.T, cfg.n + 1, env.dim))
    derive_stream(cfg.seed, (P_NOISE_U, 0)).standard_normal(out=phis)
    phi, s, tracker = np.zeros(phis.shape[1:]), cfg.schedules, GradBoundTracker()
    closed_form_available = s.decay_rule == DECAY_INVERSE_T and cfg.sigma0 is None
    rows, mi_sum = [], 0.0
    for t in range(1, cfg.T + 1):
        try:
            eta = s.outer_lr(t)
            sigma = math.sqrt(eta) if cfg.sigma0 is None else cfg.sigma0
            grad = joint_loss_grad(phi, means, cfg.coupling)
            g = grad.ravel()    # np.linalg.norm's dot product, without its layers
            l_hat = (tracker.observe(math.sqrt(float(g @ g))) if cfg.fixed_l is None
                     else float(cfg.fixed_l))
            term = mi_step_term(eta, sigma, l_hat, phi.size)
            phi = phis[t - 1] = joint_sgld_step(phi, grad, eta, sigma, phis[t - 1])
            if not np.isfinite(phi).all():
                raise FloatingPointError("joint parameter became non-finite")
            mi_sum += term
            rows.append((t, l_hat, term, mi_sum, joint_bound(mi_sum, sigma_sg, cfg.n, cfg.m),
                         joint_closed_form(sigma_sg, l_hat, cfg.n, cfg.m, s.decay_c, t)
                         if closed_form_available else float("nan")))
        except (ValueError, ArithmeticError) as exc:
            raise stopped_at(exc, "step", t) from None
    train = np.concatenate([np.mean(stacked_risk(block, data), axis=-1) for block in
                            np.array_split(phis[:, 1:], range(RISK_BLOCK, cfg.T, RISK_BLOCK))])
    return [JointRecord(*row, risk) for row, risk in zip(rows, train.tolist())]
