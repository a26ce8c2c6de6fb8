"""Per-bucket inference models and segmentation quality metrics.

Every bucket's model is a LinearPixelModel, stored as one LPM1 file: a
logistic pixel classifier over raw band values plus 3x3 local band means. It
is trained by Newton steps (IRLS) on the ridge-penalised mean logistic loss,
run to a fixed stop rule from zero weights, so results are deterministic.

Scoring folds the standardization into the weights once, when a model is
built or loaded: ``w = weights / sigma`` and ``bias' = bias - w @ mu``. The 3x3
mean is linear, so the local-mean half of ``w`` moves outside the filter: with
``P`` the ``(h*w, bands)`` pixels, a tile's scores are
``P @ w_raw + box3(P @ w_mean) + bias'``, two band sums and one box filter of
one plane.

Training writes every tile's raw band planes and their 3x3 local means with
``_fill_planes``, which serves training only, straight into the columns of one
band-major ``(2*bands + 1, n)`` matrix whose last row holds ones for the
bias. ``mu`` and ``sigma`` are reductions along its contiguous rows. Each
Newton step is one fused pass over that matrix in column blocks that stay in
cache: scores, a sigmoid taken as ``1 / (1 + exp(-z))`` with numpy's ``exp``,
the IRLS weights and residuals, and their sums into the gradient and Hessian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import uniform_filter

from .raster import Mask, Tile

MODEL_MAGIC = b"LPM1"

# The Newton solve in train_bucket_model: the L2 penalty on the weights, the
# largest step component at which it stops, its step cap, and the columns of
# the training matrix per block of a step.
RIDGE = 1e-6
STEP_TOL = 1e-8
MAX_NEWTON_STEPS = 25
NEWTON_BLOCK_COLS = 8_192


class ModelError(ValueError):
    """Bad training set, tile shape, or artifact file."""


@dataclass(frozen=True)
class SegMetrics:
    tp: int
    fp: int
    fn: int
    iou: float
    f1: float


def _fill_planes(pixels: np.ndarray, planes: np.ndarray) -> None:
    """Write an ``(h, w, bands)`` tile's raw band planes, then their 3x3 local means.

    ``planes`` is a float64 ``(2*bands, h*w)`` array or view whose rows are
    contiguous; each plane is written in row-major pixel order.
    """
    h, w, bands = pixels.shape
    grid = np.reshape(planes, (2 * bands, h, w), copy=False)
    grid[:bands] = pixels.transpose(2, 0, 1)
    # Size 1 across planes: each band is filtered alone, one call for all of them.
    uniform_filter(grid[:bands], size=(1, 3, 3), mode="nearest", output=grid[bands:])


@dataclass(eq=False)
class LinearPixelModel:
    """Thresholded linear pixel classifier with stored standardization.

    ``weights`` apply to the standardized raw band values, then the
    standardized 3x3 local band means. Building a model checks that every
    parameter is finite, that every ``sigma`` is above 0, and that the folded
    weights and bias stay finite; otherwise it raises ``ModelError``.
    """

    weights: np.ndarray
    bias: float
    mu: np.ndarray
    sigma: np.ndarray
    bands: int

    def __post_init__(self):
        stored = np.concatenate([self.weights, [self.bias], self.mu, self.sigma])
        if not np.isfinite(stored).all() or not (self.sigma > 0).all():
            raise ModelError("model parameters must be finite, with every sigma above 0")
        with np.errstate(over="ignore", invalid="ignore"):
            folded = self.weights / self.sigma
            bias = self.bias - folded @ self.mu
        if not (np.isfinite(folded).all() and np.isfinite(bias)):
            raise ModelError("model weights overflow once divided by sigma")
        self._w_raw = folded[: self.bands]
        self._w_mean = folded[self.bands :]
        self._bias = float(bias)

    def scores(self, pixels: np.ndarray) -> np.ndarray:
        """Linear score per pixel in row-major order; ``pixels`` is left unchanged."""
        if pixels.ndim == 2:
            pixels = pixels[:, :, None]
        h, w, bands = pixels.shape
        flat = pixels.reshape(h * w, bands)
        scores = flat @ self._w_raw
        local = (flat @ self._w_mean).reshape(h, w)
        scores += uniform_filter(local, size=3, mode="nearest").ravel()
        scores += self._bias
        return scores

    def infer(self, tile: Tile) -> Mask:
        if tile.bands != self.bands:
            raise ModelError(f"tile has {tile.bands} bands, model expects {self.bands}")
        scores = self.scores(tile.pixels)
        labels = (scores > 0).astype(np.uint8).reshape(tile.extent.h, tile.extent.w)
        return Mask(w=tile.extent.w, h=tile.extent.h, labels=labels)


def train_bucket_model(samples: list[tuple[Tile, Mask]]) -> LinearPixelModel:
    """Fit the logistic pixel classifier on (tile, truth mask) pairs.

    The fit minimises the mean logistic loss on the standardized features
    plus ``RIDGE / 2 * ||weights||**2`` (the bias is not penalised) by
    undamped Newton steps from zero, that is, iteratively reweighted least
    squares. It stops once no component of a step reaches ``STEP_TOL``, or
    after ``MAX_NEWTON_STEPS`` steps. Separable labels have no unpenalised
    minimum; the ridge gives them one far out along the separating direction,
    so they take the most steps. Mean-based sums make a duplicated training
    set fit the same parameters.

    The training matrix is band-major: one ``(d + 1, n)`` float64 array into
    whose columns ``_fill_planes`` writes each tile's planes, with a last row
    of ones for the bias. ``mu`` and ``sigma`` are reductions along its
    contiguous plane rows, and those rows are then standardized in place.

    Each Newton step is one pass over that matrix in blocks of
    ``NEWTON_BLOCK_COLS`` columns. For a block ``Xb`` it forms the scores
    ``z = wa @ Xb`` of the weights and bias ``wa``, the sigmoid
    ``p = 1 / (1 + exp(-z))`` in place (``exp`` overflows to ``inf`` where
    ``z`` is very negative, which gives the right ``p = 0``), the IRLS weight
    ``s = p * (1 - p)`` and the residual ``r = p - y``, and adds ``Xb @ r``
    to the gradient and ``(Xb * s) @ Xb.T`` to the Hessian, through buffers
    reused across blocks and steps. The ``(d + 1) x (d + 1)`` system is then
    solved directly.

    A training set whose labels hold one class gets a constant model: zero
    weights and a bias of +1 (all building) or -1 (all background).
    """
    if not samples:
        raise ModelError("no training samples")
    bands = samples[0][0].bands
    d = 2 * bands
    n = sum(tile.extent.h * tile.extent.w for tile, _ in samples)
    XT = np.empty((d + 1, n))
    y = np.empty(n)
    lo = 0
    for tile, truth in samples:
        if tile.bands != bands:
            raise ModelError("mixed band counts across training samples")
        if (truth.h, truth.w) != (tile.extent.h, tile.extent.w):
            raise ModelError(f"truth mask {truth.w}x{truth.h} does not match tile {tile.extent}")
        hi = lo + tile.extent.h * tile.extent.w
        _fill_planes(tile.pixels, XT[:d, lo:hi])
        y[lo:hi] = truth.labels.ravel() != 0
        lo = hi
    mu = XT[:d].mean(axis=1)
    sigma = XT[:d].std(axis=1)
    sigma[sigma == 0] = 1.0
    if y.min() == y.max():
        return LinearPixelModel(weights=np.zeros(d), bias=1.0 if y[0] else -1.0, mu=mu, sigma=sigma, bands=bands)
    XT[:d] -= mu[:, None]
    XT[:d] /= sigma[:, None]
    XT[d] = 1.0
    wa = np.zeros(d + 1)  # the weights, then the bias
    width = min(n, NEWTON_BLOCK_COLS)
    p_buf = np.empty(width)
    s_buf = np.empty(width)
    weighted = np.empty((d + 1, width))
    ridge = RIDGE * np.eye(d)
    for _ in range(MAX_NEWTON_STEPS):
        grad = np.zeros(d + 1)
        hess = np.zeros((d + 1, d + 1))
        for lo in range(0, n, width):
            Xb = XT[:, lo : lo + width]
            m = Xb.shape[1]
            p, s, ws = p_buf[:m], s_buf[:m], weighted[:, :m]
            np.matmul(-wa, Xb, out=p)  # -z: negating the weights is exact
            with np.errstate(over="ignore"):
                np.exp(p, out=p)
            p += 1.0
            np.reciprocal(p, out=p)
            np.subtract(1.0, p, out=s)
            s *= p
            p -= y[lo : lo + m]  # the residual r
            grad += Xb @ p
            np.multiply(Xb, s, out=ws)
            hess += ws @ Xb.T
        grad /= n
        hess /= n
        grad[:d] += RIDGE * wa[:d]
        hess[:d, :d] += ridge
        step = np.linalg.solve(hess, grad)
        wa -= step
        if np.abs(step).max() < STEP_TOL:
            break
    return LinearPixelModel(weights=wa[:d].copy(), bias=float(wa[d]), mu=mu, sigma=sigma, bands=bands)


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
    if len(raw) < 8:
        raise ModelError(f"model artifact {path} is {len(raw)} bytes, shorter than its 8-byte header")
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
    try:
        return LinearPixelModel(weights=weights, bias=bias, mu=mu, sigma=sigma, bands=bands)
    except ModelError as e:
        raise ModelError(f"model artifact {path}: {e}") from None
