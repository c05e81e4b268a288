"""Joint-training mode: Langevin dynamics over the stacked parameter
(U, W_1..W_n) with online tracking of the mutual-information bound and its
closed form under the eta_t = c/t, sigma_t = sqrt(eta_t) schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .core import (DECAY_INVERSE_T, P_DATA, P_NOISE_U, P_TASK, Schedules,
                   UndefinedBoundError, derive_stream)
from .model import LossModel, batch_grad, batch_risk
from .task_env import EnvironmentSpec, sample_dataset, sample_task

SIGMA_SQRT_ETA = "sqrt_eta"
SIGMA_FIXED = "fixed"


@dataclass(frozen=True)
class JointParams:
    """Stacked parameter Phi = (u, w_1..w_n)."""

    u: np.ndarray
    ws: List[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.ws)

    @property
    def stacked_dim(self) -> int:
        return self.u.shape[0] + sum(w.shape[0] for w in self.ws)

    def stack(self) -> np.ndarray:
        return np.concatenate([self.u] + list(self.ws))

    def unstack(self, vec: np.ndarray) -> "JointParams":
        """Rebuild a JointParams with this object's shapes from a flat vector."""
        if vec.shape != (self.stacked_dim,):
            raise ValueError(f"expected flat vector of length {self.stacked_dim}")
        k = self.u.shape[0]
        u = vec[:k].copy()
        ws, off = [], k
        for w in self.ws:
            d = w.shape[0]
            ws.append(vec[off:off + d].copy())
            off += d
        return JointParams(u=u, ws=ws)


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


def joint_loss_grad(phi: JointParams, model: LossModel,
                    batches: Sequence[np.ndarray],
                    coupling: float) -> np.ndarray:
    """Stacked gradient of (1/n) sum_i R_{B_i}(w_i) + (coupling/n) sum_i ||w_i - u||^2."""
    n = phi.n
    if len(batches) != n:
        raise ValueError(f"need one batch per task ({n}), got {len(batches)}")
    if coupling < 0:
        raise ValueError("coupling must be non-negative")
    gu = np.zeros_like(phi.u)
    gws = []
    for w, batch in zip(phi.ws, batches):
        gw = batch_grad(model, w, batch) / n
        if coupling > 0:
            diff = w - phi.u
            gw = gw + (2.0 * coupling / n) * diff
            gu -= (2.0 * coupling / n) * diff
        gws.append(gw)
    return np.concatenate([gu] + gws)


def joint_sgld_step(phi: JointParams, grad: np.ndarray, eta_t: float,
                    sigma_t: float, rng: np.random.Generator) -> JointParams:
    """Phi <- Phi - eta_t * grad + N(0, sigma_t^2 I); sigma_t = 0 is plain GD."""
    flat = phi.stack()
    if grad.shape != flat.shape:
        raise ValueError("gradient shape does not match stacked parameter")
    if sigma_t < 0:
        raise ValueError("sigma_t must be non-negative")
    noise = sigma_t * rng.standard_normal(flat.shape[0]) if sigma_t > 0 else 0.0
    return phi.unstack(flat - eta_t * grad + noise)


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


JOINT_FIELD_NAMES = ["t", "l_hat", "mi_step_term", "mi_sum", "joint_bound",
                     "closed_form", "train_risk"]


def run_joint_sgld(cfg: JointConfig, env: EnvironmentSpec,
                   sigma_sg: float) -> List[JointRecord]:
    """Full joint-training run on n fixed datasets sampled once up front."""
    model = LossModel(dim=env.dim)
    datasets = []
    for i in range(cfg.n):
        task = sample_task(env, derive_stream(cfg.seed, (P_TASK, 0, i)))
        ds = sample_dataset(task, env, cfg.m, cfg.m,
                            derive_stream(cfg.seed, (P_DATA, 0, i)))
        datasets.append(ds.samples)

    phi = JointParams(u=np.zeros(env.dim),
                      ws=[np.zeros(env.dim) for _ in range(cfg.n)])
    tracker = GradBoundTracker(fixed_l=cfg.fixed_l)
    noise_rng = derive_stream(cfg.seed, (P_NOISE_U, 0))
    s = cfg.schedules
    closed_form_available = s.decay_rule == DECAY_INVERSE_T and cfg.sigma_rule == SIGMA_SQRT_ETA

    records: List[JointRecord] = []
    for t in range(1, cfg.T + 1):
        eta = s.outer_lr(t)
        sigma = sigma_value(cfg, eta)
        grad = joint_loss_grad(phi, model, datasets, cfg.coupling)
        l_hat = tracker.observe(np.linalg.norm(grad))
        term = mi_step_term(eta, sigma, l_hat, phi.stacked_dim)
        tracker.per_step_terms.append(term)
        phi = joint_sgld_step(phi, grad, eta, sigma, noise_rng)
        if not np.all(np.isfinite(phi.stack())):
            raise FloatingPointError(f"joint parameter became non-finite at step {t}")

        bound = joint_bound(tracker.mi_sum, sigma_sg, cfg.n, cfg.m)
        cf = (joint_closed_form(sigma_sg, l_hat, cfg.n, cfg.m, s.decay_c, t)
              if closed_form_available else float("nan"))
        train = float(np.mean([batch_risk(model, w, b)
                               for w, b in zip(phi.ws, datasets)]))
        records.append(JointRecord(t=t, l_hat=l_hat, mi_step_term=term,
                                   mi_sum=tracker.mi_sum, joint_bound=bound,
                                   closed_form=cf, train_risk=train))
    return records
