"""Per-bucket inference models and segmentation quality metrics.

The engine treats models as pluggable: anything with ``infer(tile) -> Mask``
can sit in the model gallery. The default LinearPixelModel is a logistic
pixel classifier over raw band values plus 3x3 local band means. It is
trained by Newton steps (IRLS) on the ridge-penalised mean logistic loss,
run to a fixed stop rule from zero weights, so results are deterministic.

Training and inference share one band-major feature kernel. It writes each
raw band and each band's local mean to its own contiguous ``(h, w)`` float64
plane, standardizes every plane in place when inference asks for it, and
copies the planes once, transposed, into the C-ordered ``(h*w, 2*bands)``
matrix that the gemv reads. Standardizing is elementwise, so the planes hold
the same values a row-major matrix would, but the gemv must read the
C-ordered copy: ``weights @ planes`` sums in another order and changes
scores. The output matrix is allocated before the planes, so the planes are
the short-lived allocation; the other order raised peak RSS.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.special import expit

from .raster import Mask, Tile

MODEL_MAGIC = b"LPM1"

# The Newton solve in train_bucket_model: the L2 penalty on the weights, the
# largest step component at which it stops, its step cap, and the rows per
# block of the weighted Gram matrix.
RIDGE = 1e-6
STEP_TOL = 1e-8
MAX_NEWTON_STEPS = 25
GRAM_BLOCK_ROWS = 16_384


class ModelError(ValueError):
    """Bad training set, tile shape, or artifact file."""


@runtime_checkable
class BucketModel(Protocol):
    """Behavior contract for gallery models."""

    def infer(self, tile: Tile) -> Mask: ...


@dataclass(frozen=True)
class SegMetrics:
    tp: int
    fp: int
    fn: int
    iou: float
    f1: float


def pixel_features(pixels: np.ndarray, mu=None, sigma=None) -> np.ndarray:
    """(h*w, 2*bands) matrix: band values then 3x3 local means per band.

    Each column is standardized by ``mu`` and ``sigma`` when they are given.
    """
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w, bands = pixels.shape
    # The long-lived output before the temporary planes: the other order
    # raised the benchmark's peak RSS.
    out = np.empty((h * w, 2 * bands), dtype=np.float64)
    planes = np.empty((2 * bands, h, w), dtype=np.float64)
    planes[:bands] = pixels.transpose(2, 0, 1)
    # Size 1 across planes: each band is filtered alone, one call for all of them.
    uniform_filter(planes[:bands], size=(1, 3, 3), mode="nearest", output=planes[bands:])
    if mu is not None:
        planes -= mu[:, None, None]
        planes /= sigma[:, None, None]
    out[...] = planes.reshape(2 * bands, h * w).T
    return out


@dataclass(eq=False)
class LinearPixelModel:
    """Thresholded linear pixel classifier with stored standardization.

    Scoring runs the band-major ``pixel_features`` kernel: the raw and 3x3-mean
    planes are standardized per plane by ``mu`` and ``sigma``, copied once,
    transposed, into a C-ordered matrix, and multiplied by ``weights``. That
    matrix is allocated before the planes, so the planes are the short-lived
    allocation, and at most two feature matrices are live at once.
    """

    weights: np.ndarray
    bias: float
    mu: np.ndarray
    sigma: np.ndarray
    bands: int

    def scores(self, pixels: np.ndarray) -> np.ndarray:
        """Linear score per pixel in row-major order; ``pixels`` is left unchanged."""
        scores = pixel_features(pixels, self.mu, self.sigma) @ self.weights
        scores += self.bias
        return scores

    def infer(self, tile: Tile) -> Mask:
        if tile.bands != self.bands:
            raise ModelError(f"tile has {tile.bands} bands, model expects {self.bands}")
        scores = self.scores(tile.pixels)
        labels = (scores > 0).astype(np.uint8).reshape(tile.extent.h, tile.extent.w)
        return Mask(w=tile.extent.w, h=tile.extent.h, labels=labels)


def train_bucket_model(samples: list[tuple[Tile, Mask]]) -> LinearPixelModel:
    """Fit the logistic pixel classifier on (tile, truth mask) pairs.

    Features are standardized in place by the training statistics. The fit
    minimises the mean logistic loss plus ``RIDGE / 2 * ||weights||**2`` (the
    bias is not penalised) by undamped Newton steps from zero, that is,
    iteratively reweighted least squares. It stops once no component of a
    step reaches ``STEP_TOL``, or after ``MAX_NEWTON_STEPS`` steps. Separable
    labels have no unpenalised minimum; the ridge gives them one far out
    along the separating direction, so they take the most steps. Mean-based
    sums make a duplicated training set fit the same parameters.

    Each step scores the pixels and takes their sigmoid in reused n-length
    buffers, then forms the gradient ``X.T @ r``, the weight-bias column
    ``X.T @ s`` and the weighted Gram matrix ``X.T @ (X * s)``, where ``r``
    is the residual and ``s = p * (1 - p)`` the IRLS weight. The Gram matrix
    is summed over blocks of ``GRAM_BLOCK_ROWS`` rows through one reused
    ``(d, GRAM_BLOCK_ROWS)`` weighted block, so no weighted copy of the whole
    matrix is made; the block is transposed because scaling its long rows is
    faster than scaling ``d``-wide ones. The ``(d + 1) x (d + 1)`` system is then
    solved directly.

    A training set whose labels hold one class gets a constant model: zero
    weights and a bias of +1 (all building) or -1 (all background).
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
    del xs, ys
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma[sigma == 0] = 1.0
    n, d = X.shape
    w = np.zeros(d)
    if y.min() == y.max():
        return LinearPixelModel(weights=w, bias=1.0 if y[0] else -1.0, mu=mu, sigma=sigma, bands=bands)
    X -= mu
    X /= sigma
    b = 0.0
    z = np.empty(n)
    p = np.empty(n)
    s = np.empty(n)
    block = np.empty((d, min(n, GRAM_BLOCK_ROWS)))
    grad = np.empty(d + 1)
    hess = np.empty((d + 1, d + 1))
    ridge = RIDGE * np.eye(d)
    for _ in range(MAX_NEWTON_STEPS):
        np.matmul(X, w, out=z)
        z += b
        expit(z, out=p)
        np.subtract(1.0, p, out=s)
        s *= p
        p -= y  # the residual r
        np.matmul(X.T, p, out=grad[:d])
        grad[d] = p.sum()
        hess[:d, :d] = 0.0
        for lo in range(0, n, GRAM_BLOCK_ROWS):
            rows = X[lo : lo + GRAM_BLOCK_ROWS]
            weighted = block[:, : len(rows)]
            np.multiply(rows.T, s[lo : lo + GRAM_BLOCK_ROWS], out=weighted)
            hess[:d, :d] += weighted @ rows
        np.matmul(X.T, s, out=hess[:d, d])
        hess[d, :d] = hess[:d, d]
        hess[d, d] = s.sum()
        grad /= n
        hess /= n
        grad[:d] += RIDGE * w
        hess[:d, :d] += ridge
        step = np.linalg.solve(hess, grad)
        w -= step[:d]
        b -= float(step[d])
        if np.abs(step).max() < STEP_TOL:
            break
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
