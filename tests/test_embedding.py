import numpy as np
import pytest

from resflow.embedding import (
    KMEANS_RESTARTS,
    ClusterError,
    ClusterModel,
    HIST_BINS,
    PER_BAND,
    extract_features,
    fit_clusters,
    intra_cluster_variance,
    lloyd,
    _kmeans_pp_init,
    select_bucket_count,
)
from resflow.synth import make_texture_tiles

from conftest import make_blobs, make_tile


def checkerboard(n=4, lo=0, hi=255):
    board = np.fromfunction(lambda y, x: (y + x) % 2, (n, n))
    return (board * (hi - lo) + lo).astype(np.uint8)


class TestFeatures:
    def test_constant_tile(self):
        tile = make_tile(np.full((6, 6, 3), 17, dtype=np.uint8))
        vec = extract_features(tile)
        for b in range(3):
            at = b * PER_BAND
            assert vec[at] == 17.0
            assert vec[at + 1] == 0.0
            hist = vec[at + 2 : at + 10]
            assert hist[0] == 1.0 and hist[1:].sum() == 0.0
            assert vec[at + 10] == 0.0
        assert (vec[33:] == 0.0).all()

    def test_checkerboard_hand_values(self):
        # 4x4 board of 0/255: mean 127.5, std 127.5, mass split between the
        # extreme histogram bins, every adjacent difference is 255
        tile = make_tile(checkerboard())
        vec = extract_features(tile)
        assert vec[0] == 127.5
        assert vec[1] == 127.5
        hist = vec[2:10]
        assert hist[0] == 0.5 and hist[7] == 0.5 and hist[1:7].sum() == 0.0
        assert vec[10] == 255.0

    def test_determinism(self):
        rng = np.random.default_rng(9)
        pixels = rng.integers(0, 255, size=(16, 16, 3), dtype=np.uint8)
        a = extract_features(make_tile(pixels))
        b = extract_features(make_tile(pixels.copy()))
        assert a.tobytes() == b.tobytes()

    def test_single_pixel_tile(self):
        vec = extract_features(make_tile(np.array([[200]], dtype=np.uint8)))
        assert vec[0] == 200.0 and vec[10] == 0.0

    def test_dim_too_small(self):
        tile = make_tile(np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ClusterError):
            extract_features(tile, dim=8)


_REF_FULL_SCALE = {"uint8": 256.0, "uint16": 65536.0, "float32": 1.0, "float64": 1.0}


def reference_features(tile):
    """The all-float descriptor that extract_features must reproduce for every dtype."""
    px = tile.pixels
    full = _REF_FULL_SCALE.get(px.dtype.name, 1.0)
    vec = np.zeros(48, dtype=np.float64)
    at = 0
    data = px.astype(np.float64)
    for b in range(px.shape[2]):
        band = data[:, :, b]
        vec[at] = band.mean()
        vec[at + 1] = band.std()
        counts, _ = np.histogram(band, bins=HIST_BINS, range=(0.0, full))
        vec[at + 2 : at + 2 + HIST_BINS] = counts / band.size
        dh = np.abs(np.diff(band, axis=1))
        dv = np.abs(np.diff(band, axis=0))
        npairs = dh.size + dv.size
        vec[at + 2 + HIST_BINS] = (dh.sum() + dv.sum()) / npairs if npairs else 0.0
        at += PER_BAND
    return vec


def random_u8_tiles(count, seed):
    """Random u8 tiles, with edge shapes, constant tiles and the bin-edge values mixed in."""
    rng = np.random.default_rng(seed)
    edges = np.array([0, 31, 32, 255], dtype=np.uint8)
    shapes = [(1, 1), (1, 17), (17, 1), (1, 2), (2, 1)]
    for i in range(count):
        h, w = shapes[i] if i < len(shapes) else tuple(int(v) for v in rng.integers(1, 48, 2))
        bands = (1, 3, 4)[i % 3]
        kind = i % 4
        if kind == 0:
            px = rng.integers(0, 256, size=(h, w, bands), dtype=np.uint8)
        elif kind == 1:
            px = rng.choice(edges, size=(h, w, bands))
        elif kind == 2:
            px = np.full((h, w, bands), rng.choice(edges if i % 8 == 2 else np.arange(256)), np.uint8)
        else:
            px = rng.integers(0, 256, size=(h, w, bands), dtype=np.uint8)
            px[rng.random((h, w, bands)) < 0.5] = rng.choice(edges)
        yield make_tile(px)


class TestFeatureExactness:
    def test_u8_integer_path_matches_float_path(self):
        n = 0
        for tile in random_u8_tiles(1200, seed=31):
            assert extract_features(tile).tobytes() == reference_features(tile).tobytes(), (
                tile.pixels.shape
            )
            n += 1
        assert n == 1200

    def test_256_px_tiles(self):
        rng = np.random.default_rng(32)
        for _ in range(4):
            tile = make_tile(rng.integers(0, 256, size=(256, 256, 3), dtype=np.uint8))
            assert extract_features(tile).tobytes() == reference_features(tile).tobytes()

    def test_u16_and_f32_keep_float_path(self):
        rng = np.random.default_rng(33)
        for i in range(200):
            h, w = (int(v) for v in rng.integers(1, 30, 2))
            if i % 2:
                px = rng.integers(0, 65536, size=(h, w, 3), dtype=np.uint16)
            else:
                px = rng.random((h, w, 3)).astype(np.float32)
            tile = make_tile(px)
            assert extract_features(tile).tobytes() == reference_features(tile).tobytes()


class TestFitClusters:
    def test_k1(self):
        points, _ = make_blobs(3, 20, seed=1)
        model = fit_clusters(points, 1, seed=0)
        assert (model.labels == 0).all()
        assert np.allclose(model.centroids[0], points.mean(axis=0))

    @pytest.mark.parametrize("method", ["kmeans", "agglomerative"])
    def test_blob_recovery(self, method):
        points, truth = make_blobs(3, 40, seed=2)
        model = fit_clusters(points, 3, method=method, seed=0)
        # same partition up to label permutation
        mapping = {}
        for got, want in zip(model.labels, truth):
            mapping.setdefault(got, want)
            assert mapping[got] == want
        assert len(mapping) == 3

    def test_k_equals_n(self):
        points, _ = make_blobs(2, 3, seed=3)
        model = fit_clusters(points, len(points), seed=0)
        assert len(set(model.labels.tolist())) == len(points)
        assert intra_cluster_variance(model, points) == 0.0

    def test_errors(self):
        points, _ = make_blobs(2, 5, seed=4)
        with pytest.raises(ClusterError):
            fit_clusters(points, 0)
        with pytest.raises(ClusterError):
            fit_clusters(points, len(points) + 1)
        with pytest.raises(ClusterError):
            fit_clusters(points, 2, method="mystery")

    @pytest.mark.parametrize("method", ["kmeans", "agglomerative"])
    def test_permutation_invariance(self, method):
        points, _ = make_blobs(4, 30, seed=5)
        model_a = fit_clusters(points, 4, method=method, seed=7)
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(points))
        model_b = fit_clusters(points[perm], 4, method=method, seed=7)
        # compare partitions via co-membership of a sample of pairs
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        la, lb = model_a.labels, model_b.labels[inv]
        pairs = rng.integers(0, len(points), size=(500, 2))
        for i, j in pairs:
            assert (la[i] == la[j]) == (lb[i] == lb[j])

    def test_kmeans_keeps_its_best_restart(self):
        # The knee scores k with KMEANS_RESTARTS starts; the fit partition writes must be
        # the lowest-SSE one of those. One start gave SSE 12.4 here against 11.2.
        tiles, _ = make_texture_tiles(6, 8, tile_px=32, seed=3)
        points = np.array([extract_features(t) for t in tiles])
        sses = []
        for ss in np.random.SeedSequence(3).spawn(KMEANS_RESTARTS):
            init = _kmeans_pp_init(points, 10, np.random.default_rng(ss))
            centroids, labels = lloyd(points, init)
            sses.append(float(((points - centroids[labels]) ** 2).sum()))
        model = fit_clusters(points, 10, method="kmeans", seed=3)
        sse = float(((points - model.centroids[model.labels]) ** 2).sum())
        assert sse == min(sses) < sses[0]

    def test_centroid_is_member_mean(self):
        points, _ = make_blobs(3, 25, seed=6)
        model = fit_clusters(points, 3, seed=1)
        for c in range(3):
            members = points[model.labels == c]
            assert np.allclose(model.centroids[c], members.mean(axis=0), atol=1e-6)


class TestVariance:
    def test_zero_when_on_centroids(self):
        points = np.array([[0.0], [0.0], [5.0], [5.0]])
        model = fit_clusters(points, 2, seed=0)
        assert intra_cluster_variance(model, points) == 0.0

    def test_hand_example(self):
        # {0,2} and {10,12} in 1-d: centroids 1 and 11, every member 1 away
        points = np.array([[0.0], [2.0], [10.0], [12.0]])
        model = fit_clusters(points, 2, seed=0)
        assert intra_cluster_variance(model, points) == pytest.approx(1.0)

    def test_k1_equals_sample_variance(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(500, 1))
        model = fit_clusters(points, 1, seed=0)
        assert intra_cluster_variance(model, points) == pytest.approx(float(np.var(points)))

    def test_monotone_under_nested_runs(self):
        # Warm-starting k+1 from the converged k solution cannot increase the
        # within-cluster variance; checked across several synthetic datasets.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            points = rng.normal(size=(120, 3)) + rng.integers(0, 4, size=(120, 1)) * 3.0
            model = fit_clusters(points, 2, seed=seed)
            prev = intra_cluster_variance(model, points)
            centroids = model.centroids
            for k in range(3, 8):
                d2 = ((points - centroids[model.labels]) ** 2).sum(axis=1)
                extra = points[int(np.argmax(d2))]
                centroids, labels = lloyd(points, np.vstack([centroids, extra]))
                model = ClusterModel(k=k, centroids=centroids, labels=labels, seed=seed)
                cur = intra_cluster_variance(model, points)
                assert cur <= prev + 1e-9
                prev = cur


class TestSelectBucketCount:
    def test_three_blobs(self):
        points, _ = make_blobs(3, 50, seed=21)
        assert select_bucket_count(points, range(2, 9), seed=0) == 3

    def test_single_blob(self):
        # one isotropic cloud at descriptor-like dimensionality: the very
        # first variance reduction is already below the knee threshold
        rng = np.random.default_rng(22)
        points = rng.normal(size=(150, 16))
        assert select_bucket_count(points, range(2, 9), seed=0) == 2

    def test_six_blobs(self):
        points, _ = make_blobs(6, 60, seed=23)
        assert select_bucket_count(points, range(2, 11), seed=0) == 6

    def test_agglomerative_path(self):
        points, _ = make_blobs(6, 40, seed=24)
        assert select_bucket_count(points, range(2, 11), method="agglomerative", seed=0) == 6

    def test_errors(self):
        points, _ = make_blobs(2, 3, seed=25)
        with pytest.raises(ClusterError):
            select_bucket_count(points, [])
        with pytest.raises(ClusterError):
            select_bucket_count(points, range(2, 50))
