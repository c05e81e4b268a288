"""Numerical laboratory for meta-learning Langevin trainers with online
information-theoretic generalization-bound tracking.

Two training modes are provided: joint training (one Langevin chain over the
shared parameter and every per-task parameter, with a mutual-information
bound) and alternate training (nested Langevin loops with support/query
splits, with a gradient-incoherence bound and a gradient-norm baseline).
"""

__version__ = "0.1.0"

from .core import (ConfigurationError, RunConfig, Schedules,
                   UndefinedBoundError, derive_stream, noise_std,
                   schedule_value)
from .task_env import EnvironmentSpec, TaskDataset, TaskSpec
from .model import LossModel
from .bounds import (SubgaussianSpec, assemble_alt_bound, gauss_kl_same_cov,
                     subgaussian_bounded, subgaussian_mean_estimation)
from .records import RunRecord
from .evaluate import GapReport, meta_test_loss, observed_gap
from .meta_sgld import BoundAccumulators, run_meta_sgld
from .joint_sgld import JointConfig, run_joint_sgld

__all__ = [
    "ConfigurationError", "UndefinedBoundError", "RunConfig", "Schedules",
    "schedule_value", "noise_std", "derive_stream",
    "EnvironmentSpec", "TaskSpec", "TaskDataset", "LossModel",
    "SubgaussianSpec", "subgaussian_mean_estimation", "subgaussian_bounded",
    "gauss_kl_same_cov", "assemble_alt_bound",
    "RunRecord", "GapReport", "meta_test_loss", "observed_gap",
    "BoundAccumulators", "run_meta_sgld",
    "JointConfig", "run_joint_sgld",
]
