"""Truncated-Gaussian task sampling, dataset generation, splits, minibatches."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from metasgld.core import ConfigurationError, derive_stream
from metasgld.task_env import (EnvironmentSpec, TaskDataset, TaskSpec,
                               sample_dataset, sample_minibatch, sample_task)


def paper_env():
    return EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                           trunc_lo=np.array([-12.0, -12.0]),
                           trunc_hi=np.array([4.0, 4.0]),
                           task_cov_scale=0.1, dim=2)


class TestEnvironmentSpec:
    def test_box_must_be_ordered(self):
        with pytest.raises(ValueError):
            EnvironmentSpec(env_mean=np.zeros(2), env_cov_scale=1.0,
                            trunc_lo=np.array([1.0, 1.0]),
                            trunc_hi=np.array([0.0, 0.0]),
                            task_cov_scale=0.1, dim=2)

    def test_mean_must_lie_inside(self):
        with pytest.raises(ValueError):
            EnvironmentSpec(env_mean=np.array([5.0, 0.0]), env_cov_scale=1.0,
                            trunc_lo=np.array([-1.0, -1.0]),
                            trunc_hi=np.array([1.0, 1.0]),
                            task_cov_scale=0.1, dim=2)


def draw_tasks(env, rng, count):
    return np.array([sample_task(env, rng).mu for _ in range(count)])


class TestSampleTask:
    def test_draws_stay_inside_box(self):
        env = paper_env()
        mus = draw_tasks(env, derive_stream(0, [1]), 10_000)
        assert np.all(mus >= env.trunc_lo) and np.all(mus <= env.trunc_hi)

    def test_single_draw_inside_box(self):
        env = paper_env()
        task = sample_task(env, derive_stream(3, [1]))
        assert np.all(task.mu >= env.trunc_lo) and np.all(task.mu <= env.trunc_hi)

    def test_tight_box_forces_draws_near_mean(self):
        # acceptance rate ~1e-5: still feasible, and every draw lands within the box
        env = EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                              trunc_lo=np.array([-4.01, -4.01]),
                              trunc_hi=np.array([-3.99, -3.99]),
                              task_cov_scale=0.1, dim=2)
        task = sample_task(env, derive_stream(1, [1]))
        assert np.all(np.abs(task.mu - env.env_mean) <= 0.01)

    def test_hopeless_box_raises_configuration_error(self):
        env = EnvironmentSpec(env_mean=np.array([0.0, 0.0]), env_cov_scale=5.0,
                              trunc_lo=np.array([-1e-9, -1e-9]),
                              trunc_hi=np.array([1e-9, 1e-9]),
                              task_cov_scale=0.1, dim=2)
        with pytest.raises(ConfigurationError):
            sample_task(env, derive_stream(1, [1]))

    def test_mean_matches_quadrature_oracle(self):
        # isotropic Gaussian on a product box: coordinates are independent
        # 1-D truncated normals, so integrate each coordinate directly and
        # check the sample mean and variance within 5 standard errors
        env = paper_env()
        draws = 20_000
        mus = draw_tasks(env, derive_stream(11, [1]), draws)
        for c in range(2):
            mu, var = env.env_mean[c], env.env_cov_scale
            lo, hi = env.trunc_lo[c], env.trunc_hi[c]
            pdf = lambda x: np.exp(-(x - mu) ** 2 / (2 * var))
            z, _ = integrate.quad(pdf, lo, hi)
            mean = integrate.quad(lambda x: x * pdf(x), lo, hi)[0] / z
            v, m4 = (integrate.quad(lambda x: (x - mean) ** p * pdf(x), lo, hi)[0] / z
                     for p in (2, 4))
            assert abs(mus[:, c].mean() - mean) < 5 * np.sqrt(v / draws)
            assert abs(mus[:, c].var() - v) < 5 * np.sqrt((m4 - v ** 2) / draws)

    @given(mean=st.floats(-3, 3), half=st.floats(0.5, 4), var=st.floats(0.1, 9))
    @settings(max_examples=25, deadline=None)
    def test_box_invariant_property(self, mean, half, var):
        env = EnvironmentSpec(env_mean=np.array([mean, mean]), env_cov_scale=var,
                              trunc_lo=np.array([mean - half] * 2),
                              trunc_hi=np.array([mean + half] * 2),
                              task_cov_scale=0.1, dim=2)
        task = sample_task(env, derive_stream(5, [int(var * 100), 1]))
        assert np.all(task.mu >= env.trunc_lo) and np.all(task.mu <= env.trunc_hi)


class TestSampleDataset:
    def test_split_sizes_disjoint(self):
        env = paper_env()
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), env, 16, 8,
                            derive_stream(0, [2]))
        assert ds.tr_indices.size == 8 and ds.va_indices.size == 8
        assert not set(ds.tr_indices) & set(ds.va_indices)
        assert sorted(list(ds.tr_indices) + list(ds.va_indices)) == list(range(16))

    def test_degenerate_split(self):
        env = paper_env()
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), env, 1, 0,
                            derive_stream(0, [2]))
        assert ds.tr_indices.size == 0 and ds.va_indices.size == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), 0, 0,
                           derive_stream(0, [2]))

    def test_sample_variance_matches_law_of_large_numbers(self):
        env = paper_env()
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), env, 1_000_000, 0,
                            derive_stream(9, [2]))
        v = ds.samples.var(axis=0)
        assert np.all(np.abs(v - 0.1) < 0.002)

    @given(m=st.integers(1, 40), frac=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_split_conservation_property(self, m, frac):
        m_tr = int(round(frac * m))
        ds = sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), m, m_tr,
                            derive_stream(1, [m, m_tr, 3]))
        assert ds.tr_indices.size + ds.va_indices.size == m
        assert not set(ds.tr_indices) & set(ds.va_indices)


class TestSampleMinibatch:
    def make_ds(self, m=16, m_tr=8):
        return sample_dataset(TaskSpec(mu=np.zeros(2)), paper_env(), m, m_tr,
                              derive_stream(0, [4]))

    def test_full_union(self):
        idx = sample_minibatch(np.arange(16), 16, derive_stream(0, [5]))
        assert np.array_equal(idx, np.arange(16))

    def test_forced_single_va(self):
        ds = self.make_ds(16, 15)
        idx = sample_minibatch(ds.va_indices, 1, derive_stream(0, [5]))
        assert np.array_equal(idx, ds.va_indices)

    def test_oversized_batch_rejected(self):
        ds = self.make_ds()
        with pytest.raises(ValueError):
            sample_minibatch(ds.tr_indices, 9, derive_stream(0, [5]))

    def test_empty_batch_rejected(self):
        # a full batch is the pool itself; callers draw only when b >= 1
        ds = self.make_ds()
        with pytest.raises(ValueError):
            sample_minibatch(ds.tr_indices, 0, derive_stream(0, [5]))

    def test_uniformity(self):
        rng = derive_stream(42, [6])
        pool = np.arange(16)
        counts = np.zeros(16)
        draws = 100_000
        for _ in range(draws):
            counts[sample_minibatch(pool, 1, rng)[0]] += 1
        p = 1 / 16
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 3.5 * sigma)
