"""Per-bucket inference models and segmentation quality metrics.

The engine treats models as pluggable: anything with ``infer(tile) -> Mask``
can sit in the model gallery. The default LinearPixelModel is a logistic
pixel classifier over raw band values plus 3x3 local band means, trained by
fixed-schedule gradient descent so results are deterministic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np
from scipy.ndimage import uniform_filter

from .raster import Mask, Tile

MODEL_MAGIC = b"LPM1"


class ModelError(ValueError):
    """Bad training set, tile shape, or artifact file."""


@runtime_checkable
class BucketModel(Protocol):
    """Behavior contract for gallery models."""

    def infer(self, tile: Tile) -> Mask: ...


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class SegMetrics:
    tp: int
    fp: int
    fn: int
    iou: float
    f1: float


def pixel_features(pixels: np.ndarray) -> np.ndarray:
    """(h*w, 2*bands) matrix: band values then 3x3 local means per band."""
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w, bands = pixels.shape
    out = np.empty((h * w, 2 * bands), dtype=np.float64)
    out[:, :bands] = pixels.reshape(h * w, bands)
    for b in range(bands):
        # Filter each band column straight into its local-mean column.
        uniform_filter(
            out[:, b].reshape(h, w),
            size=3,
            mode="nearest",
            output=out[:, bands + b].reshape(h, w),
        )
    return out


def logistic_loss_grad(weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray):
    """Mean logistic loss and its analytic gradient."""
    z = X @ weights + bias
    # log(1 + exp(z)) - y*z, computed stably
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    p = 1.0 / (1.0 + np.exp(-z))
    resid = p - y
    grad_w = X.T @ resid / len(y)
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


@dataclass(eq=False)
class LinearPixelModel:
    """Thresholded linear pixel classifier with stored standardization."""

    weights: np.ndarray
    bias: float
    mu: np.ndarray
    sigma: np.ndarray
    bands: int

    def decision(self, X: np.ndarray) -> np.ndarray:
        """Linear score per row of X; X itself is left unchanged."""
        Xs = X - self.mu
        Xs /= self.sigma
        scores = Xs @ self.weights
        scores += self.bias
        return scores

    def infer(self, tile: Tile) -> Mask:
        if tile.bands != self.bands:
            raise ModelError(f"tile has {tile.bands} bands, model expects {self.bands}")
        scores = self.decision(pixel_features(tile.pixels))
        labels = (scores > 0).astype(np.uint8).reshape(tile.extent.h, tile.extent.w)
        return Mask(w=tile.extent.w, h=tile.extent.h, labels=labels)


def train_bucket_model(
    samples: list[tuple[Tile, Mask]],
    hyper: TrainConfig = TrainConfig(),
) -> LinearPixelModel:
    """Fit the logistic pixel classifier on (tile, truth mask) pairs.

    Full-batch gradient descent from zero weights for a fixed epoch count,
    with features standardized in place by the training statistics;
    mean-based updates make a duplicated training set fit the same parameters.

    Each epoch is the loss-free form of a ``logistic_loss_grad`` step: the
    same ufuncs and matrix products in the same order, run in one reused
    n-length buffer, so the fitted parameters match that reference loop bit
    for bit.
    """
    if not samples:
        raise ModelError("no training samples")
    bands = samples[0][0].bands
    xs, ys = [], []
    for tile, truth in samples:
        if tile.bands != bands:
            raise ModelError("mixed band counts across training samples")
        if (truth.h, truth.w) != (tile.extent.h, tile.extent.w):
            raise ModelError(f"truth mask {truth.w}x{truth.h} does not match tile {tile.extent}")
        xs.append(pixel_features(tile.pixels))
        ys.append((truth.labels.ravel() != 0).astype(np.float64))
    X = np.concatenate(xs)
    y = np.concatenate(ys)
    if y.min() == y.max():
        raise ModelError("degenerate labels: training set contains a single class")
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma[sigma == 0] = 1.0
    X -= mu
    X /= sigma
    n = len(y)
    w = np.zeros(X.shape[1])
    b = 0.0
    r = np.empty(n)
    for _ in range(hyper.epochs):
        # r = sigmoid(X @ w + b) - y
        np.matmul(X, w, out=r)
        r += b
        np.negative(r, out=r)
        np.exp(r, out=r)
        r += 1.0
        np.divide(1.0, r, out=r)
        r -= y
        gw = X.T @ r / n
        gb = float(r.mean())
        w -= hyper.learning_rate * gw
        b -= hyper.learning_rate * gb
    return LinearPixelModel(weights=w, bias=b, mu=mu, sigma=sigma, bands=bands)


def seg_metrics(pred: Mask, truth: Mask) -> SegMetrics:
    """Pixel counts and overlap scores; empty-vs-empty scores 1.0 by convention."""
    if (pred.w, pred.h) != (truth.w, truth.h):
        raise ModelError(f"mask dims differ: {pred.w}x{pred.h} vs {truth.w}x{truth.h}")
    p = pred.labels != 0
    t = truth.labels != 0
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    denom = tp + fp + fn
    if denom == 0:
        return SegMetrics(tp=0, fp=0, fn=0, iou=1.0, f1=1.0)
    iou = tp / denom
    f1 = 2 * tp / (2 * tp + fp + fn)
    return SegMetrics(tp=tp, fp=fp, fn=fn, iou=iou, f1=f1)


def iou_to_f1(iou: float) -> float:
    """F1 implied by an IoU value: 2*iou / (1 + iou)."""
    if not 0.0 <= iou <= 1.0:
        raise ModelError(f"iou out of range: {iou}")
    return 2.0 * iou / (1.0 + iou)


def save_model(path, model: LinearPixelModel) -> None:
    """Artifact layout: LPM1, band count, then f64 weights, bias, mu, sigma."""
    n = 2 * model.bands
    if model.weights.shape != (n,) or model.mu.shape != (n,) or model.sigma.shape != (n,):
        raise ModelError("inconsistent parameter shapes for artifact")
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<I", model.bands))
        f.write(model.weights.astype("<f8").tobytes())
        f.write(struct.pack("<d", model.bias))
        f.write(model.mu.astype("<f8").tobytes())
        f.write(model.sigma.astype("<f8").tobytes())


def load_model(path) -> LinearPixelModel:
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ModelError(f"bad model artifact magic in {path}")
    bands = struct.unpack("<I", raw[4:8])[0]
    n = 2 * bands
    need = 8 + 8 * n + 8 + 8 * n + 8 * n
    if len(raw) != need:
        raise ModelError(f"model artifact {path} is {len(raw)} bytes, expected {need}")
    at = 8
    weights = np.frombuffer(raw, dtype="<f8", count=n, offset=at).copy()
    at += 8 * n
    bias = struct.unpack("<d", raw[at : at + 8])[0]
    at += 8
    mu = np.frombuffer(raw, dtype="<f8", count=n, offset=at).copy()
    at += 8 * n
    sigma = np.frombuffer(raw, dtype="<f8", count=n, offset=at).copy()
    return LinearPixelModel(weights=weights, bias=bias, mu=mu, sigma=sigma, bands=bands)
