"""Tile descriptors, clustering, and data-driven bucket-count selection.

The descriptor is a fixed spectral/texture summary (per band: mean, standard
deviation, an 8-bin intensity histogram, and gradient energy), zero-padded to
the hash's input width. Clustering offers seeded k-means and Ward-linkage
agglomerative; both return the same ClusterModel shape.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from .raster import Tile

log = logging.getLogger(__name__)

# Histogram range upper bound per sample dtype; f32 inputs are expected in [0, 1].
_FULL_SCALE = {"uint8": 256.0, "uint16": 65536.0, "float32": 1.0, "float64": 1.0}
# Descriptor slots per band: mean, std, HIST_BINS histogram bins, gradient energy.
HIST_BINS = 8
PER_BAND = 2 + HIST_BINS + 1
# k-means++ starts per k-means fit; the knee scores the same fit that partition writes.
KMEANS_RESTARTS = 3


class ClusterError(ValueError):
    """Invalid clustering request or degenerate input."""


def extract_features(tile: Tile, dim: int = 48) -> np.ndarray:
    """Deterministic per-tile descriptor of ``dim`` slots.

    Per band: mean, std, normalized intensity histogram, and the mean absolute
    finite difference pooled over the horizontal and vertical directions
    (gradient energy); unused slots are zero. Byte-identical tiles give
    byte-identical vectors.

    u8 tiles take an integer path for the histogram (``px >> 5`` counted by
    ``bincount``) and the gradient energy (int16 differences summed in
    int64). Every count and partial sum there is an integer below 2**53, so
    the float path would compute the same sums exactly and the output is
    identical; mean and std always take the float path.
    """
    px = tile.pixels
    if px.size == 0:
        raise ClusterError("empty tile")
    full = _FULL_SCALE.get(px.dtype.name, 1.0)
    bands = px.shape[2]
    need = bands * PER_BAND
    if need > dim:
        raise ClusterError(f"descriptor needs {need} slots, dim is {dim}")
    integer_path = px.dtype == np.uint8
    vec = np.zeros(dim, dtype=np.float64)
    at = 0
    data = px.astype(np.float64)
    for b in range(bands):
        band = data[:, :, b]
        vec[at] = band.mean()
        vec[at + 1] = band.std()
        hist = slice(at + 2, at + 2 + HIST_BINS)
        if integer_path:
            ints = px[:, :, b]
            vec[hist] = np.bincount((ints >> 5).ravel(), minlength=HIST_BINS) / band.size
            ints = ints.astype(np.int16)
            grad = int(np.abs(np.diff(ints, axis=1)).sum(dtype=np.int64))
            grad += int(np.abs(np.diff(ints, axis=0)).sum(dtype=np.int64))
        else:
            counts, _ = np.histogram(band, bins=HIST_BINS, range=(0.0, full))
            vec[hist] = counts / band.size
            dh = np.abs(np.diff(band, axis=1))
            dv = np.abs(np.diff(band, axis=0))
            grad = dh.sum() + dv.sum()
        npairs = (px.shape[1] - 1) * px.shape[0] + (px.shape[0] - 1) * px.shape[1]
        vec[at + 2 + HIST_BINS] = float(grad) / npairs if npairs else 0.0
        at += PER_BAND
    return vec


@dataclass(eq=False)
class ClusterModel:
    k: int
    centroids: np.ndarray
    labels: np.ndarray
    seed: int
    method: str = "kmeans"


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _means(points: np.ndarray, labels: np.ndarray, k: int, prev: np.ndarray) -> np.ndarray:
    out = prev.copy()
    d2_own = ((points - prev[labels]) ** 2).sum(axis=1)
    for c in range(k):
        members = labels == c
        if members.any():
            out[c] = points[members].mean(axis=0)
        else:
            # Classic empty-cluster fix: seize the point farthest from its centroid.
            far = int(np.argmax(d2_own))
            out[c] = points[far]
            d2_own[far] = -1.0
    return out


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        else:
            idx = int(np.argmax(d2))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def lloyd(points: np.ndarray, init_centroids: np.ndarray, max_iter: int = 300, tol: float = 1e-6):
    """Lloyd iterations from explicit starting centroids.

    Returns (centroids, labels) with centroids equal to the exact means of the
    final assignment. Exposed so nested runs (k -> k+1 warm starts) can be
    built on top of a converged solution.
    """
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    k = len(centroids)
    labels = _assign(points, centroids)
    for _ in range(max_iter):
        new = _means(points, labels, k, centroids)
        shift = np.abs(new - centroids).max()
        centroids = new
        labels = _assign(points, centroids)
        if shift < tol:
            break
    centroids = _means(points, labels, k, centroids)
    return centroids, labels


def _fit_kmeans(points: np.ndarray, k: int, seed: int) -> ClusterModel:
    best = None
    best_sse = np.inf
    seeds = np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        centroids, labels = lloyd(points, _kmeans_pp_init(points, k, rng))
        sse = float(((points - centroids[labels]) ** 2).sum())
        if sse < best_sse - 1e-12:
            best_sse = sse
            best = (centroids, labels)
    centroids, labels = best
    return ClusterModel(k=k, centroids=centroids, labels=labels, seed=seed, method="kmeans")


def _fit_agglomerative(points: np.ndarray, k: int, seed: int) -> ClusterModel:
    if len(points) == k:
        raw = np.arange(k) + 1
    else:
        raw = fcluster(linkage(points, method="ward"), t=k, criterion="maxclust")
    # Relabel by first occurrence so ids are dense and order-stable.
    remap: dict[int, int] = {}
    labels = np.empty(len(points), dtype=np.int64)
    for i, r in enumerate(raw):
        if r not in remap:
            remap[r] = len(remap)
        labels[i] = remap[r]
    got = len(remap)
    if got != k:
        raise ClusterError(f"ward cut produced {got} clusters, wanted {k}")
    centroids = np.stack([points[labels == c].mean(axis=0) for c in range(k)])
    return ClusterModel(k=k, centroids=centroids, labels=labels, seed=seed, method="agglomerative")


def fit_clusters(
    embeddings: np.ndarray,
    k: int,
    method: str = "kmeans",
    seed: int = 0,
) -> ClusterModel:
    """Cluster embedding vectors into k groups.

    kmeans: ``KMEANS_RESTARTS`` k-means++ seedings drawn from ``seed``, each
    followed by Lloyd iterations until the max per-coordinate centroid shift
    drops below 1e-6 or 300 iterations; the lowest-SSE result wins.
    agglomerative: Ward linkage cut at k clusters (seed is ignored there).
    """
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2:
        raise ClusterError(f"expected 2-d embeddings, got shape {points.shape}")
    n = len(points)
    if k <= 0:
        raise ClusterError(f"k must be >= 1, got {k}")
    if k > n:
        raise ClusterError(f"k={k} exceeds number of points {n}")
    if method == "kmeans":
        return _fit_kmeans(points, k, seed)
    if method == "agglomerative":
        return _fit_agglomerative(points, k, seed)
    raise ClusterError(f"unknown clustering method {method!r}")


def intra_cluster_variance(model: ClusterModel, embeddings: np.ndarray) -> float:
    """Mean over clusters of the mean squared member-to-centroid distance.

    An empty cluster contributes 0 and is logged as a warning.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    per_cluster = []
    for c in range(model.k):
        members = model.labels == c
        if not members.any():
            log.warning("cluster %d is empty; contributes 0 to variance", c)
            per_cluster.append(0.0)
            continue
        d2 = ((points[members] - model.centroids[c]) ** 2).sum(axis=1)
        per_cluster.append(float(d2.mean()))
    return float(np.mean(per_cluster))


def variance_curve(
    embeddings: np.ndarray,
    ks,
    method: str = "kmeans",
    seed: int = 0,
) -> dict[int, float]:
    """Intra-cluster variance per candidate k; shares one linkage for ward."""
    points = np.asarray(embeddings, dtype=np.float64)
    ks = sorted(set(int(k) for k in ks))
    out = {}
    if method == "agglomerative" and len(points) > max(ks):
        Z = linkage(points, method="ward")
        for k in ks:
            raw = fcluster(Z, t=k, criterion="maxclust")
            labels = np.unique(raw, return_inverse=True)[1]
            kk = labels.max() + 1
            centroids = np.stack([points[labels == c].mean(axis=0) for c in range(kk)])
            model = ClusterModel(k=kk, centroids=centroids, labels=labels, seed=seed, method=method)
            out[k] = intra_cluster_variance(model, points)
        return out
    for k in ks:
        model = fit_clusters(points, k, method=method, seed=seed)
        out[k] = intra_cluster_variance(model, points)
    return out


def select_bucket_count(
    embeddings: np.ndarray,
    k_range,
    method: str = "kmeans",
    seed: int = 0,
    tau: float = 0.1,
) -> int:
    """Pick the knee of the variance-vs-k curve.

    Returns the smallest k whose relative variance reduction to the next k
    falls below ``tau``; if no k qualifies, the largest candidate wins.
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
    curve = variance_curve(points, probe, method=method, seed=seed)
    for k, k_next in zip(probe[:-1], probe[1:]):
        if k not in ks:
            continue
        v, v_next = curve[k], curve[k_next]
        reduction = (v - v_next) / v if v > 0 else 0.0
        if reduction < tau:
            return k
    return ks[-1]
