"""Tile descriptors, clustering, and data-driven bucket-count selection.

The descriptor is a fixed spectral/texture summary (per band: mean, standard
deviation, an 8-bin intensity histogram, and gradient energy), zero-padded to
the hash's input width. Clustering is a Ward-linkage cut of the descriptors;
one linkage serves the knee selection of the bucket count and the cut at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from .raster import Tile

# Histogram range upper bound per sample dtype; f32 inputs are expected in [0, 1].
_FULL_SCALE = {"uint8": 256.0, "uint16": 65536.0, "float32": 1.0, "float64": 1.0}
# Descriptor slots per band: mean, std, HIST_BINS histogram bins, gradient energy.
HIST_BINS = 8
PER_BAND = 2 + HIST_BINS + 1
# Samples per band in one stacked u8 descriptor group: one 256x256 band.
GROUP_PIXELS = 256 * 256


class ClusterError(ValueError):
    """Invalid clustering request or degenerate input."""


def extract_features(tiles: Tile | list[Tile], dim: int = 48) -> np.ndarray:
    """Deterministic descriptors of ``dim`` slots: ``(n, dim)`` for a sequence of tiles.

    A single ``Tile`` gives its ``(dim,)`` row of the same kernel. Per band:
    mean, std, normalized intensity histogram, and the mean absolute finite
    difference pooled over the horizontal and vertical directions (gradient
    energy); unused slots are zero. Byte-identical tiles give byte-identical
    rows, and a row does not depend on the other tiles of the call.

    Consecutive u8 tiles of one shape are stacked band-major and described
    together, at most ``GROUP_PIXELS`` samples per band at a time, so one
    call's float64 temporaries never exceed one 256x256 band and a 256-px
    tile is described alone. For pixel blocks in C order, as ``read_window``
    returns them, each row equals the all-float descriptor byte for byte. The
    mean, the ``px >> 5`` histogram and the gradient energy (int16
    differences) come from integer sums below 2**53, which the float path
    also computes exactly. The std sums each tile's squared deviations over
    its own contiguous ``h*w`` plane: the same sequence in the same order as
    ``ndarray.std``, whose deviation array is a fresh C-contiguous copy of
    the band. u16 and f32 tiles take the float path one at a time.
    """
    if isinstance(tiles, Tile):
        return extract_features([tiles], dim)[0]
    out = np.zeros((len(tiles), dim), dtype=np.float64)
    row = 0
    for (dtype, shape), run in groupby((t.pixels for t in tiles), key=lambda p: (p.dtype, p.shape)):
        run = list(run)
        if run[0].size == 0:
            raise ClusterError("empty tile")
        need = shape[2] * PER_BAND
        if need > dim:
            raise ClusterError(f"descriptor needs {need} slots, dim is {dim}")
        if dtype == np.uint8:
            step = max(1, GROUP_PIXELS // (shape[0] * shape[1]))
            for k in range(0, len(run), step):
                group = run[k : k + step]
                _describe_u8(group, out[row + k : row + k + len(group)])
        else:
            for k, px in enumerate(run):
                _describe_float(px, out[row + k])
        row += len(run)
    return out


def _describe_u8(pixels: list[np.ndarray], out: np.ndarray) -> None:
    """Rows for same-shape u8 tiles, written into ``out``; one band at a time."""
    n = len(pixels)
    h, w, bands = pixels[0].shape
    size = h * w
    npairs = (w - 1) * h + (h - 1) * w
    # (bands, n, h, w) in C order: each tile's band is one contiguous plane.
    planes = np.stack(pixels).transpose(3, 0, 1, 2).copy()
    offsets = np.arange(0, n * HIST_BINS, HIST_BINS)[:, None]
    for b in range(bands):
        at = b * PER_BAND
        plane = planes[b].reshape(n, size)
        mean = plane.sum(axis=1, dtype=np.int64) / size
        out[:, at] = mean
        dev = plane.astype(np.float64)
        dev -= mean[:, None]
        dev *= dev
        out[:, at + 1] = np.sqrt(dev.sum(axis=1) / size)
        counts = np.bincount(((plane >> 5) + offsets).ravel(), minlength=n * HIST_BINS)
        out[:, at + 2 : at + 2 + HIST_BINS] = counts.reshape(n, HIST_BINS) / size
        if npairs:
            ints = planes[b].astype(np.int16)
            grad = np.abs(np.diff(ints, axis=2)).sum(axis=(1, 2), dtype=np.int64)
            grad += np.abs(np.diff(ints, axis=1)).sum(axis=(1, 2), dtype=np.int64)
            out[:, at + 2 + HIST_BINS] = grad / npairs


def _describe_float(px: np.ndarray, out: np.ndarray) -> None:
    """One tile's row through float64, written into ``out``."""
    full = _FULL_SCALE.get(px.dtype.name, 1.0)
    data = px.astype(np.float64)
    for b in range(px.shape[2]):
        at = b * PER_BAND
        band = data[:, :, b]
        out[at] = band.mean()
        out[at + 1] = band.std()
        counts, _ = np.histogram(band, bins=HIST_BINS, range=(0.0, full))
        out[at + 2 : at + 2 + HIST_BINS] = counts / band.size
        dh = np.abs(np.diff(band, axis=1))
        dv = np.abs(np.diff(band, axis=0))
        npairs = dh.size + dv.size
        out[at + 2 + HIST_BINS] = (dh.sum() + dv.sum()) / npairs if npairs else 0.0


@dataclass(eq=False)
class ClusterModel:
    k: int
    centroids: np.ndarray
    labels: np.ndarray


def ward_tree(embeddings: np.ndarray) -> np.ndarray:
    """The Ward linkage matrix of the embeddings, for ``tree=`` arguments."""
    return linkage(np.asarray(embeddings, dtype=np.float64), method="ward")


def _ward_cut(points: np.ndarray, k: int, tree: np.ndarray | None) -> ClusterModel:
    """The Ward cut at k clusters, numbered densely in order of first occurrence.

    ``centroids.txt`` bucket ids follow that order. Tied merge heights can make
    the cut yield fewer than k clusters; the model's ``k`` counts what it yields.
    """
    if len(points) == k:
        labels = np.arange(k)
    else:
        raw = fcluster(ward_tree(points) if tree is None else tree, t=k, criterion="maxclust")
        _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        labels = rank[inverse]
    got = int(labels.max()) + 1
    centroids = np.stack([points[labels == c].mean(axis=0) for c in range(got)])
    return ClusterModel(k=got, centroids=centroids, labels=labels)


def fit_clusters(embeddings: np.ndarray, k: int, tree: np.ndarray | None = None) -> ClusterModel:
    """Cluster embedding vectors into k groups by a Ward-linkage cut.

    ``tree``, when given, is ``ward_tree(embeddings)`` built by the caller, so
    one linkage can serve the knee selection and the fit. Labels are dense and
    numbered in order of first occurrence.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2:
        raise ClusterError(f"expected 2-d embeddings, got shape {points.shape}")
    n = len(points)
    if k <= 0:
        raise ClusterError(f"k must be >= 1, got {k}")
    if k > n:
        raise ClusterError(f"k={k} exceeds number of points {n}")
    model = _ward_cut(points, k, tree)
    if model.k != k:
        raise ClusterError(f"ward cut produced {model.k} clusters, wanted {k}")
    return model


def intra_cluster_variance(model: ClusterModel, embeddings: np.ndarray) -> float:
    """Mean over clusters of the mean squared member-to-centroid distance."""
    points = np.asarray(embeddings, dtype=np.float64)
    per_cluster = []
    for c in range(model.k):
        d2 = ((points[model.labels == c] - model.centroids[c]) ** 2).sum(axis=1)
        per_cluster.append(float(d2.mean()))
    return float(np.mean(per_cluster))


def variance_curve(embeddings: np.ndarray, ks, tree: np.ndarray | None = None) -> dict[int, float]:
    """Intra-cluster variance of the Ward cut per candidate k, all from one linkage.

    ``tree`` is ``ward_tree(embeddings)`` when the caller already built it;
    otherwise one is built here. Each k scores whatever clusters its cut yields.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    ks = sorted(set(int(k) for k in ks))
    if tree is None and any(k < len(points) for k in ks):
        tree = ward_tree(points)
    return {k: intra_cluster_variance(_ward_cut(points, k, tree), points) for k in ks}


def select_bucket_count(
    embeddings: np.ndarray,
    k_range,
    tau: float = 0.1,
    tree: np.ndarray | None = None,
) -> int:
    """Pick the knee of the variance-vs-k curve.

    Returns the smallest k whose relative variance reduction to the next k
    falls below ``tau``; if no k qualifies, the largest candidate wins.
    ``tree`` is passed on to ``variance_curve``.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ClusterError("empty k_range")
    if ks[-1] > len(points):
        raise ClusterError(f"max k {ks[-1]} exceeds number of points {len(points)}")
    probe = list(ks)
    if ks[-1] + 1 <= len(points):
        probe.append(ks[-1] + 1)
    curve = variance_curve(points, probe, tree=tree)
    for k, k_next in zip(probe[:-1], probe[1:]):
        if k not in ks:
            continue
        v, v_next = curve[k], curve[k_next]
        reduction = (v - v_next) / v if v > 0 else 0.0
        if reduction < tau:
            return k
    return ks[-1]
