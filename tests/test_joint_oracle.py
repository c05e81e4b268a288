"""The joint chain against its closed form.

On fixed datasets S the square loss makes the joint chain linear-Gaussian,
one coordinate at a time:

    phi' = (I - eta_t A) phi + eta_t b(S) + sigma_t xi,   xi ~ N(0, I),

where A is fixed by n and the coupling c, and b(S) = (0, 2 mu_1/n, ..,
2 mu_n/n) holds the sample means of the n datasets.  From phi_0 = 0 the mean
and the covariance of phi_t given S follow from two recursions, so the
expected train risk at every step is exact.  Over seeds, observed minus exact
train risk must average to zero.  Only run_joint_sgld's records and the
(P_TASK, 0) draw of S come from the package.
"""
import itertools

import numpy as np
import pytest

from metasgld.core import DECAY_INVERSE_T, P_TASK, Schedules, derive_stream
from metasgld.joint_sgld import JointConfig, run_joint_sgld
from metasgld.task_env import EnvironmentSpec, sample_datasets, sample_task_means

ENV = EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                      trunc_lo=np.array([-12.0, -12.0]),
                      trunc_hi=np.array([4.0, 4.0]), task_cov_scale=0.1, dim=2)
N, M, T = 3, 5, 40
STEPS = (1, 5, 40)      # eta_t = 0.6 / t: the mean still moves at t = 40
SEEDS = range(1, 101)


def joint_cfg(seed, coupling, sigma0):
    return JointConfig(n=N, m=M, T=T, seed=seed, coupling=coupling, sigma0=sigma0,
                       schedules=Schedules(eta0=1.0, beta0=1.0, gamma_outer=1.0,
                                           gamma_inner=1.0, decay_rule=DECAY_INVERSE_T,
                                           decay_c=0.6))


def exact_train_risk(cfg):
    """E[train_risk_t | S] for t = 1..T, from the mean and covariance recursions."""
    rng = derive_stream(cfg.seed, (P_TASK, 0))
    data = sample_datasets(sample_task_means(ENV, cfg.n, rng), ENV, cfg.m, cfg.m, rng)[0]
    mu = data.mean(axis=1)                                  # (n, d)
    spread = np.mean(np.sum((data - mu[:, None]) ** 2, axis=-1), axis=-1)
    n, c = cfg.n, cfg.coupling
    # the gradient is A phi - b: (2/n)(w_i - mu_i) + (2c/n)(w_i - u) in row i,
    # (2c/n) sum_i (u - w_i) in row 0
    a = np.diag([2.0 * c] + [2.0 * (1.0 + c) / n] * n)
    a[0, 1:] = a[1:, 0] = -2.0 * c / n
    b = np.vstack([np.zeros(ENV.dim), 2.0 * mu / n])
    mean, cov, risks = np.zeros((n + 1, ENV.dim)), np.zeros((n + 1, n + 1)), []
    for t in range(1, cfg.T + 1):
        eta = cfg.schedules.outer_lr(t)
        sigma_sq = eta if cfg.sigma0 is None else cfg.sigma0 ** 2
        step = np.eye(n + 1) - eta * a
        mean = step @ mean + eta * b
        cov = step @ cov @ step.T + sigma_sq * np.eye(n + 1)
        bias = np.sum((mean[1:] - mu) ** 2, axis=-1)
        risks.append(np.mean(bias + ENV.dim * np.diag(cov)[1:] + spread))
    return np.array(risks)


CASES = list(itertools.product((0.0, 1.0), (None, 0.5)))


@pytest.mark.parametrize("coupling,sigma0", CASES,
                         ids=[f"{c}-{'sqrt_eta' if s is None else 'fixed'}"
                              for c, s in CASES])
def test_train_risk_matches_the_closed_form(coupling, sigma0):
    diffs = []
    for seed in SEEDS:
        cfg = joint_cfg(seed, coupling, sigma0)
        observed = np.array([r.train_risk for r in run_joint_sgld(cfg, ENV, sigma_sg=1.0)])
        diffs.append(observed - exact_train_risk(cfg))
    diffs = np.array(diffs)[:, [t - 1 for t in STEPS]]
    se = diffs.std(axis=0, ddof=1) / np.sqrt(len(SEEDS))
    assert np.all(np.abs(diffs.mean(axis=0)) <= 4 * se), (diffs.mean(axis=0), se)
