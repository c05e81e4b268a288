"""Quadratic loss model: analytic values, gradients vs finite differences."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metasgld.model import (LossModel, batch_grad, batch_risk, finite_diff_grad,
                            stacked_risk)

MODEL = LossModel(dim=2)


class TestLoss:
    """The per-sample loss ||w - z||^2 is the risk of a one-sample batch."""

    def test_identity(self):
        assert batch_risk(MODEL, [0, 0], [[0, 0]]) == 0.0

    def test_one_four(self):
        assert batch_risk(MODEL, [1, 2], [[0, 0]]) == 5.0

    def test_unit_offsets(self):
        assert batch_risk(MODEL, [-4, -4], [[-3, -5]]) == 2.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            batch_risk(MODEL, [1, 2, 3], [[0, 0]])


class TestBatchRisk:
    def test_singleton_is_loss(self):
        w, z = np.array([0.3, -0.7]), np.array([1.0, 2.0])
        assert batch_risk(MODEL, w, [z]) == float((w - z) @ (w - z))

    def test_symmetric_pair(self):
        assert batch_risk(MODEL, [0, 0], [[1, 0], [-1, 0]]) == 1.0

    def test_monte_carlo_trace_of_covariance(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(0.0, np.sqrt(0.1), size=(1000, 2))
        assert batch_risk(MODEL, [0, 0], batch) == pytest.approx(0.2, abs=0.02)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_risk(MODEL, [0, 0], np.empty((0, 2)))

    def test_convexity_witness(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w1, w2 = rng.normal(size=2), rng.normal(size=2)
            batch = rng.normal(size=(5, 2))
            lam = rng.uniform()
            lhs = batch_risk(MODEL, lam * w1 + (1 - lam) * w2, batch)
            rhs = (lam * batch_risk(MODEL, w1, batch)
                   + (1 - lam) * batch_risk(MODEL, w2, batch))
            assert lhs <= rhs + 1e-12


def numpy_sum_risk(w, batch):
    """stacked_risk's former expression: NumPy's sum over the coordinates."""
    d = w[..., None, :] - batch
    return np.mean(np.sum(d * d, axis=-1), axis=-1)


def heavy_tailed(rng, shape):
    return rng.normal(size=shape) * rng.lognormal(sigma=4.0, size=shape)


class TestStackedRisk:
    """stacked_risk is the former np.sum expression, bit for bit, at every dim."""

    @pytest.mark.parametrize("dim", [*range(1, 10), 16])
    @pytest.mark.parametrize("w_lead,batch_lead", [
        ((), ()), ((40,), (40,)), ((6, 5), (5,)), ((6, 5), (6, 5))])
    def test_numpy_sum_bytes(self, dim, w_lead, batch_lead):
        # below 8 coordinates NumPy adds left to right, as the coordinate loop
        # does; from 8 on stacked_risk calls np.sum itself
        rng = np.random.default_rng(dim)
        w = heavy_tailed(rng, w_lead + (dim,))
        batch = heavy_tailed(rng, batch_lead + (30, dim))
        got = stacked_risk(w, batch)
        assert got.shape == np.broadcast_shapes(w_lead, batch_lead)
        assert got.tobytes() == numpy_sum_risk(w, batch).tobytes()


class TestBatchGrad:
    def test_stationary_at_mean(self):
        batch = np.array([[1.0, 2.0], [3.0, -2.0]])
        g = batch_grad(MODEL, batch.mean(axis=0), batch)
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_singleton(self):
        assert np.array_equal(batch_grad(MODEL, [0, 0], [[1, 1]]), [-2.0, -2.0])

    def test_matches_finite_differences_100_probes(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = rng.normal(scale=3, size=2)
            batch = rng.normal(scale=2, size=(rng.integers(1, 10), 2))
            g = batch_grad(MODEL, w, batch)
            fd = finite_diff_grad(MODEL, w, batch)
            denom = max(np.linalg.norm(g), 1e-3)
            assert np.linalg.norm(g - fd) / denom < 1e-6

    def test_shift_linearity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=2)
        batch = rng.normal(size=(4, 2))
        s = np.array([0.7, -1.2])
        g0 = batch_grad(MODEL, w, batch)
        g1 = batch_grad(MODEL, w, batch + s)
        assert np.allclose(g1 - g0, -2 * s, atol=1e-12)

    @given(wx=st.floats(-5, 5), wy=st.floats(-5, 5))
    @example(wx=1.0, wy=0.99999)    # 1e-5 from the mean, so the gradient is not 0
    @settings(max_examples=30, deadline=None)
    def test_zero_grad_iff_mean(self, wx, wy):
        batch = np.array([[1.0, -1.0], [2.0, 3.0], [0.0, 1.0]])
        w = np.array([wx, wy])
        g = batch_grad(MODEL, w, batch)
        at_mean = np.allclose(w, batch.mean(axis=0), rtol=0.0, atol=1e-12)
        assert (np.linalg.norm(g) < 1e-11) == at_mean


class TestFiniteDiffGrad:
    def test_zero_at_own_minimum(self):
        w = np.array([0.4, -1.1])
        fd = finite_diff_grad(MODEL, w, [w])
        assert np.all(np.abs(fd) < 1e-6)

    def test_bad_h_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(MODEL, [0, 0], [[1, 1]], h=0)
