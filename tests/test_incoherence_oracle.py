"""Closed-form oracle for the incoherence accumulators of the shipped presets.

With full-batch inner updates on the square loss every incoherence probe is
g_union - g_tr = 2 * Delta_i, Delta_i = mean_tr_i - mean_union_i, whatever U
or W is.  Delta_i ~ N(0, s^2 I_d) with s^2 = tau * m_va / (m * m_tr), fresh
for each task of each epoch.  Per epoch (constant rates),

    eps_w += a * X,  X = sum_i ||Delta_i||^2,  a = 2 K beta gamma_in / B
    eps_u += b * Y,  Y = ||sum_i Delta_i||^2,  b = 2 eta gamma_out / B^2

E[X] = E[Y] = B d s^2.  Per coordinate, X is a sum of B scaled chi^2_1 and Y
one scaled chi^2_1 of variance B s^2, so Var X = 2 B s^4, Var Y = 2 B^2 s^4
and Cov(X, Y) = 2 B s^4.  Epochs and coordinates are independent.
"""
import math
from dataclasses import replace

import pytest

from metasgld.cli import load_config_file, preset_path
from metasgld.core import DECAY_CONSTANT
from metasgld.meta_sgld import run_meta_sgld

EPOCH = 180


def expected_incoherence(cfg, env, T):
    """Mean and standard deviation of eps_u + eps_w after T epochs."""
    s = cfg.schedules
    assert cfg.inner_batch == 0 and s.decay_rule == DECAY_CONSTANT
    B, d = cfg.task_batch, env.dim
    s2 = env.task_cov_scale * cfg.m_va / (cfg.m * cfg.m_tr)
    a = 2.0 * cfg.K * s.beta0 * s.gamma_inner / B
    b = 2.0 * s.eta0 * s.gamma_outer / B ** 2
    mean = T * B * d * s2 * (a + b)
    var = T * d * 2.0 * B * s2 ** 2 * (a * a + b * b * B + 2.0 * a * b)
    return mean, math.sqrt(var)


@pytest.mark.parametrize("preset", ["toy_8_8", "toy_1_15", "toy_15_1"])
def test_epoch_180_incoherence_within_4_sd(preset):
    cfg = load_config_file(preset_path(preset))
    records, _ = run_meta_sgld(replace(cfg.run, T=EPOCH), cfg.env)
    mean, sd = expected_incoherence(cfg.run, cfg.env, EPOCH)
    got = records[-1].eps_u + records[-1].eps_w
    assert abs(got - mean) < 4 * sd, f"{preset}: {got} vs {mean} +/- {sd}"
