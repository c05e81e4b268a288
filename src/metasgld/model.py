"""The mean-estimation square loss with analytic gradients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_vector


@dataclass(frozen=True)
class LossModel:
    """The square loss ||w - z||^2 on dim-dimensional parameters and samples."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")


def batch_risk(model: LossModel, w, batch) -> float:
    """Empirical risk: mean of per-sample losses over the batch."""
    return float(stacked_risk(as_vector(w, model.dim), _as_batch(batch, model.dim)))


def batch_grad(model: LossModel, w, batch) -> np.ndarray:
    """Gradient of batch_risk at w; equals 2 (w - mean(batch)) for the quadratic model."""
    return 2.0 * (as_vector(w, model.dim) - _as_batch(batch, model.dim).mean(axis=0))


def stacked_risk(w: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Unvalidated batch_risk, bitwise, of w (..., dim) on batch (..., n, dim).
    Below 8 coordinates np.sum adds them left to right, as the loop does without
    NumPy's slow short-axis reduction; from 8 on np.sum pairs them."""
    if w.shape[-1] >= 8:
        d = w[..., None, :] - batch
        return np.mean(np.sum(d * d, axis=-1), axis=-1)
    for k in range(w.shape[-1]):
        d = w[..., None, k] - batch[..., k]
        d *= d      # in place: a pass holds two arrays of the risk's size
        sq = d if k == 0 else np.add(sq, d, out=sq)
    return np.mean(sq, axis=-1)


def descend(w: np.ndarray, rates, mean: np.ndarray) -> np.ndarray:
    """Noise-free steps w <- w - rate 2 (w - mean), one per rate: gradient
    descent on the risk of a batch whose mean is mean."""
    for rate in rates:
        w = w - rate * (2.0 * (w - mean))
    return w


def finite_diff_grad(model: LossModel, w, batch, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of batch_risk, the test oracle for batch_grad."""
    if h <= 0:
        raise ValueError("h must be positive")
    w = as_vector(w, model.dim)
    g = np.empty_like(w)
    for i in range(model.dim):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (batch_risk(model, w + e, batch) - batch_risk(model, w - e, batch)) / (2 * h)
    return g


def _as_batch(batch, dim: int) -> np.ndarray:
    arr = np.asarray(batch, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"batch must have shape (n, {dim}), got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    return arr
