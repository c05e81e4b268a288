"""Pure bound arithmetic: sub-gaussian constants, Gaussian KL identity, bound assembly."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UndefinedBoundError, as_vector
from .task_env import EnvironmentSpec


@dataclass(frozen=True)
class SubgaussianSpec:
    sigma_sq: float

    def __post_init__(self):
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be positive")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma_sq)


def subgaussian_mean_estimation(env: EnvironmentSpec, inner_lr: float) -> SubgaussianSpec:
    """Sub-gaussian constant for the quadratic mean-estimation loss.

    Worst case: the base learner output after one step from the origin on a
    single sample Z', giving W ~ 2*beta*Z'.  Then W - Z is Gaussian with
    per-coordinate variance sigma_l^2 = task_var * (1 + (2*beta)^2) and mean
    (2*beta - 1) * mu, so the loss is a scaled noncentral chi-square whose CGF
    is dominated by sigma^2 = 2 * (2*k + d) * sigma_l^4 with
    k = (1 - 2*beta)^2 * max ||mu||^2 over the truncation box.
    """
    if inner_lr <= 0:
        raise ValueError("inner_lr must be positive")
    two_beta = 2.0 * inner_lr
    # worst-case squared norm of a task mean inside the box
    with np.errstate(over="ignore"):    # an inf box is named below
        mu_sq_max = float(np.sum(np.maximum(env.trunc_lo ** 2, env.trunc_hi ** 2)))
    try:
        sigma_l_sq = env.task_cov_scale * (1.0 + two_beta ** 2)
        k = (1.0 - two_beta) ** 2 * mu_sq_max
        sigma_sq = 2.0 * (2.0 * k + env.dim) * sigma_l_sq ** 2
    except OverflowError:
        sigma_sq = math.inf
    if not math.isfinite(sigma_sq):     # the box, else the larger factor of sigma_l^2
        culprit = ("the truncation box (trunc_lo, trunc_hi)" if math.isinf(mu_sq_max)
                   else f"task_cov_scale = {env.task_cov_scale:g}"
                   if math.sqrt(env.task_cov_scale) > two_beta else f"beta = {inner_lr:g}")
        raise OverflowError(f"sub-gaussian constant overflows for {culprit}")
    if sigma_sq == 0.0:     # sigma_l^4 underflows
        raise ValueError("sub-gaussian constant underflows to 0 for "
                         f"task_cov_scale = {env.task_cov_scale:g}")
    return SubgaussianSpec(sigma_sq=sigma_sq)


def gauss_kl_same_cov(mu1, mu2, var: float) -> float:
    """KL divergence between isotropic Gaussians sharing variance: ||mu1-mu2||^2 / (2 var)."""
    if var <= 0:
        raise ValueError("var must be positive")
    mu1 = as_vector(mu1)
    mu2 = as_vector(mu2, mu1.shape[0])
    d = mu1 - mu2
    return float(d @ d) / (2.0 * var)


def step_term_consistency(eta: float, gamma: float, eps) -> tuple[float, float]:
    """Per-step bound summand and the Gaussian-KL it doubles.

    term = eta*gamma*||eps||^2/2 is exactly twice the KL between the two
    one-step transition kernels (mean shift eta*eps, shared variance
    2*eta/gamma).  A nonzero eps whose squares fall below the smallest normal
    float keeps too few significant bits for either value to mean anything.
    """
    if eta <= 0 or gamma <= 0:
        raise ValueError("eta and gamma must be positive")
    eps = as_vector(eps)
    sq, shift_sq = float(eps @ eps), float((eta * eps) @ (eta * eps))
    term = eta * gamma * sq / 2.0
    kl = gauss_kl_same_cov(eta * eps, np.zeros_like(eps), 2.0 * eta / gamma)
    if np.any(eps != 0) and min(sq, shift_sq, kl) < np.finfo(float).tiny:
        raise UndefinedBoundError(f"step term is undefined: eps = {eps.tolist()} squares "
                                  f"to {min(sq, shift_sq, kl):g}, below the smallest normal float")
    return term, kl


@dataclass(frozen=True)
class AltBound:
    bound_u: float
    bound_w: float
    bound_total: float
    gnorm_u: float
    gnorm_w: float
    gnorm_total: float


def assemble_alt_bound(acc, sg: SubgaussianSpec, n: int, m_va: int) -> AltBound:
    """Assemble the alternate-training bound values from accumulator sums,
    floats or arrays of them (one per epoch).

    Each component is sigma * sqrt(sum / (n * m_va)); the gnorm_* values use
    the gradient-norm accumulators with identical weighting.
    """
    if m_va < 1:
        raise UndefinedBoundError("bound undefined for m_va = 0")
    if n < 1:
        raise ValueError("n must be positive")
    scale = sg.sigma / math.sqrt(n * m_va)

    def part(x):
        if np.any(np.less(x, 0)):
            raise ValueError("accumulator sums must be non-negative")
        return scale * np.sqrt(x)

    return AltBound(
        bound_u=part(acc.eps_u_sum),
        bound_w=part(acc.eps_w_sum),
        bound_total=part(acc.eps_u_sum + acc.eps_w_sum),
        gnorm_u=part(acc.gnorm_u_sum),
        gnorm_w=part(acc.gnorm_w_sum),
        gnorm_total=part(acc.gnorm_u_sum + acc.gnorm_w_sum),
    )
