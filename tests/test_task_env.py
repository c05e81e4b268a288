"""Truncated-Gaussian task sampling, dataset generation, splits, minibatches."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from metasgld.core import ConfigurationError, derive_stream
from metasgld.task_env import (EnvironmentSpec, TaskSpec, minibatch_mean_var,
                               rows_mean, sample_dataset, sample_datasets,
                               sample_minibatch, sample_task_means, take_rows)


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

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_must_be_positive(self, dim):
        with pytest.raises(ValueError, match=f"dim must be positive, got {dim}"):
            EnvironmentSpec(env_mean=np.zeros(0), env_cov_scale=1.0,
                            trunc_lo=np.zeros(0), trunc_hi=np.zeros(0),
                            task_cov_scale=0.1, dim=dim)


def box_env(half=1.0):
    # acceptance ~ (2 Phi(half / sqrt 5) - 1)^2: 0.12 at half = 1
    return EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                           trunc_lo=np.array([-4.0 - half] * 2),
                           trunc_hi=np.array([-4.0 + half] * 2),
                           task_cov_scale=0.1, dim=2)


def in_box(mus, env):
    return np.all((mus >= env.trunc_lo) & (mus <= env.trunc_hi), axis=1)


class TestSampleTask:
    def test_draws_stay_inside_box(self):
        env = paper_env()
        mus = sample_task_means(env, 10_000, derive_stream(0, [1]))
        assert mus.shape == (10_000, 2) and np.all(in_box(mus, env))

    def test_single_draw_inside_box(self):
        env = paper_env()
        mus = sample_task_means(env, 1, derive_stream(3, [1]))
        assert mus.shape == (1, 2) and np.all(in_box(mus, env))

    def test_tight_box_forces_draws_near_mean(self):
        # acceptance rate ~1e-5: still feasible, and every draw lands within the box
        env = box_env(half=0.01)
        mus = sample_task_means(env, 3, derive_stream(1, [1]))
        assert np.all(np.abs(mus - env.env_mean) <= 0.01)

    def test_hopeless_box_raises_configuration_error(self):
        env = EnvironmentSpec(env_mean=np.array([0.0, 0.0]), env_cov_scale=5.0,
                              trunc_lo=np.array([-1e-9, -1e-9]),
                              trunc_hi=np.array([1e-9, 1e-9]),
                              task_cov_scale=0.1, dim=2)
        with pytest.raises(ConfigurationError, match="acceptance rate"):
            sample_task_means(env, 4, derive_stream(1, [1]))

    def test_mean_matches_quadrature_oracle(self):
        # isotropic Gaussian on a product box: coordinates are independent
        # 1-D truncated normals, so integrate each coordinate directly and
        # check the sample mean and variance within 5 standard errors; the
        # tighter second box sends most rows through the redraw rounds
        draws = 20_000
        for env in (paper_env(), box_env(half=2.0)):
            mus = sample_task_means(env, draws, derive_stream(11, [1]))
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

    @given(mean=st.floats(-3, 3), half=st.floats(0.5, 4), var=st.floats(0.1, 9),
           n=st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_box_invariant_property(self, mean, half, var, n):
        env = EnvironmentSpec(env_mean=np.array([mean, mean]), env_cov_scale=var,
                              trunc_lo=np.array([mean - half] * 2),
                              trunc_hi=np.array([mean + half] * 2),
                              task_cov_scale=0.1, dim=2)
        mus = sample_task_means(env, n, derive_stream(5, [int(var * 100), 1]))
        assert mus.shape == (n, 2) and np.all(in_box(mus, env))

    def test_first_round_hits_kept_and_rejections_filled_in_row_order(self):
        # 100 rows at acceptance ~0.12: one redraw round of 1,024 rows has
        # enough hits for the ~88 rejected slots
        env, n = box_env(), 100
        rng = derive_stream(8, [1])
        first = env.env_mean + np.sqrt(5.0) * rng.standard_normal((n, 2))
        ok = in_box(first, env)
        redraw = env.env_mean + np.sqrt(5.0) * rng.standard_normal((1024, 2))
        want = first.copy()
        want[~ok] = redraw[in_box(redraw, env)][:n - ok.sum()]
        assert 0 < ok.sum() < n
        assert np.array_equal(sample_task_means(env, n, derive_stream(8, [1])), want)

    def test_rejected_rows_are_redrawn_inside_box(self):
        # 500 rows at acceptance ~0.01 take several redraw rounds
        env, n = box_env(half=0.3), 500
        first = env.env_mean + np.sqrt(5.0) * derive_stream(9, [1]).standard_normal((n, 2))
        ok = in_box(first, env)
        mus = sample_task_means(env, n, derive_stream(9, [1]))
        assert (~ok).sum() > 400
        assert np.all(in_box(mus, env))
        assert np.array_equal(mus[ok], first[ok])
        assert len(np.unique(mus, axis=0)) == n


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

    def test_tr_split_larger_than_the_dataset_rejected(self):
        with pytest.raises(ValueError, match=r"^m_tr must be in \[0, m\], got 17$"):
            sample_datasets(np.zeros((1, 2)), paper_env(), 16, 17, derive_stream(0, [2]))

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


    @given(n=st.integers(1, 30), m=st.integers(1, 40), frac=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_splits_sorted_disjoint_and_cover(self, n, m, frac):
        m_tr = int(round(frac * m))
        samples, tr, va = sample_datasets(np.zeros((n, 2)), paper_env(), m, m_tr,
                                          derive_stream(2, [n, m, m_tr]))
        assert samples.shape == (n, m, 2)
        assert tr.shape == (n, m_tr) and va.shape == (n, m - m_tr)
        assert np.all(np.diff(tr) > 0) and np.all(np.diff(va) > 0)
        both = np.sort(np.concatenate([tr, va], axis=1), axis=1)
        assert np.array_equal(both, np.broadcast_to(np.arange(m), (n, m)))

    @pytest.mark.parametrize("m,m_tr", [(16, 1), (16, 8), (16, 15), (3, 1)])
    def test_each_index_lands_in_tr_uniformly(self, m, m_tr):
        # the tr indicators of one split have covariance p(1-p) m/(m-1)
        # (I - 11'/m), so this statistic is chi^2 with m - 1 degrees of freedom
        splits, p = 20_000, m_tr / m
        _, tr, _ = sample_datasets(np.zeros((splits, 2)), paper_env(), m, m_tr,
                                   derive_stream(3, [m, m_tr]))
        counts = np.bincount(tr.ravel(), minlength=m)
        chi2 = (m - 1) / m * np.sum((counts - splits * p) ** 2) / (splits * p * (1 - p))
        assert stats.chi2.sf(chi2, m - 1) > 1e-3


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

    def test_leading_axes_draw_independent_subsets_in_pool_order(self):
        # one uniform key per pool entry: each (k, i) row is its own subset
        pool = np.broadcast_to(np.arange(10, 18), (500, 3, 8))
        idx = sample_minibatch(pool, 3, derive_stream(0, [7]))
        assert idx.shape == (500, 3, 3)
        assert np.all(np.diff(idx, axis=-1) > 0) and np.all((idx >= 10) & (idx < 18))
        assert len({tuple(row) for row in idx.reshape(-1, 3)}) > 50   # of C(8, 3) = 56


class TestMinibatchMeanVar:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_every_subset(self, m):
        pool = derive_stream(1, [m]).normal(size=(m, 2)) * [1.0, 3.0]
        for b in range(1, m + 1):
            means = np.array([pool[list(c)].mean(axis=0)
                              for c in itertools.combinations(range(m), b)])
            want = ((means - means.mean(axis=0)) ** 2).mean(axis=0)
            got = minibatch_mean_var(pool, b)
            if b == m:
                assert np.all(got == 0.0)
            else:
                assert got == pytest.approx(want, rel=1e-12)

    def test_whole_pool_is_zero_on_leading_axes(self):
        pool = derive_stream(1, [9]).normal(size=(3, 5, 2))
        assert minibatch_mean_var(pool, 0).shape == (3, 2)
        assert np.all(minibatch_mean_var(pool, 0) == 0.0)
        assert np.all(minibatch_mean_var(pool, 5) == 0.0)


class TestRows:
    @given(lead=st.lists(st.integers(1, 6), max_size=3), n=st.integers(1, 20),
           dim=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_mean_is_numpys_mean_bit_for_bit(self, lead, n, dim, seed):
        # magnitudes 1e-8..1e8 make the order of the additions show
        rng = derive_stream(seed, [5])
        shape = tuple(lead) + (n, dim)
        pool = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        assert rows_mean(pool).tobytes() == pool.mean(axis=-2).tobytes()

    @given(lead=st.lists(st.integers(1, 6), max_size=3), m=st.integers(1, 20),
           dim=st.integers(1, 4), frac=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_take_rows_is_take_along_axis(self, lead, m, dim, frac, seed):
        rng = derive_stream(seed, [6])
        x = rng.normal(size=tuple(lead) + (m, dim))
        idx = np.sort(np.argsort(rng.random(tuple(lead) + (m,)), axis=-1)
                      [..., :int(round(frac * m))], axis=-1)
        want = np.take_along_axis(x, idx[..., None], axis=-2)
        assert np.array_equal(take_rows(x, idx), want)
