import numpy as np
import pytest

from resflow.embedding import (
    GROUP_PIXELS,
    ClusterError,
    HIST_BINS,
    PER_BAND,
    extract_features,
    fit_clusters,
    intra_cluster_variance,
    select_bucket_count,
    variance_curve,
    ward_tree,
)
from resflow import embedding

from conftest import make_blobs, make_tile
from simulated import make_texture_tiles


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

    def test_sequence_rows_match_single_tiles(self):
        # One call over u8 runs of one shape (the 128-px run outgrows a group of
        # GROUP_PIXELS // 128**2 tiles), edge-clamped, 1x1 and 1xn shapes, a run
        # that resumes after another shape, and u16 and f32 tiles between them.
        rng = np.random.default_rng(34)

        def u8(h, w, bands=3):
            return rng.integers(0, 256, size=(h, w, bands), dtype=np.uint8)

        over = GROUP_PIXELS // (128 * 128) + 2
        pixels = [u8(32, 32) for _ in range(12)]
        pixels += [u8(32, 17), u8(17, 32), u8(17, 17), u8(1, 1), u8(1, 1), u8(1, 9), u8(9, 1)]
        pixels += [np.full((32, 32, 3), 31, np.uint8), u8(32, 32, 1), u8(32, 32)]
        pixels += [rng.integers(0, 65536, size=(32, 32, 3), dtype=np.uint16)]
        pixels += [u8(128, 128) for _ in range(over)]
        pixels += [rng.random((17, 32, 3)).astype(np.float32), u8(32, 32), u8(32, 32, 4)]
        tiles = [make_tile(px) for px in pixels]
        rows = extract_features(tiles)
        assert rows.shape == (len(tiles), 48)
        for tile, row in zip(tiles, rows):
            assert row.tobytes() == reference_features(tile).tobytes(), tile.pixels.shape
            single = extract_features(tile)
            assert single.shape == (48,) and single.tobytes() == row.tobytes()

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
        model = fit_clusters(points, 1)
        assert (model.labels == 0).all()
        assert np.allclose(model.centroids[0], points.mean(axis=0))

    def test_blob_recovery(self):
        points, truth = make_blobs(3, 40, seed=2)
        model = fit_clusters(points, 3)
        # same partition up to label permutation
        mapping = {}
        for got, want in zip(model.labels, truth):
            mapping.setdefault(got, want)
            assert mapping[got] == want
        assert len(mapping) == 3

    def test_labels_numbered_by_first_occurrence(self):
        # centroids.txt bucket ids follow this order: label 0 is the first
        # point's cluster, and each new label is one more than the largest so far
        tiles, _ = make_texture_tiles(6, 8, tile_px=32, seed=3)
        points = extract_features(tiles)
        rng = np.random.default_rng(13)
        for k in (2, 6, 10, len(points) - 1):
            for order in (np.arange(len(points)), rng.permutation(len(points))):
                labels = fit_clusters(points[order], k).labels
                ids, first = np.unique(labels, return_index=True)
                assert ids.tolist() == list(range(k))
                assert (np.diff(first) > 0).all()

    def test_k_equals_n(self):
        points, _ = make_blobs(2, 3, seed=3)
        model = fit_clusters(points, len(points))
        assert len(set(model.labels.tolist())) == len(points)
        assert intra_cluster_variance(model, points) == 0.0

    def test_errors(self):
        points, _ = make_blobs(2, 5, seed=4)
        with pytest.raises(ClusterError):
            fit_clusters(points, 0)
        with pytest.raises(ClusterError):
            fit_clusters(points, len(points) + 1)
        with pytest.raises(ClusterError, match="produced 1 clusters, wanted 2"):
            fit_clusters(np.zeros((4, 3)), 2)

    def test_permutation_invariance(self):
        points, _ = make_blobs(4, 30, seed=5)
        model_a = fit_clusters(points, 4)
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(points))
        model_b = fit_clusters(points[perm], 4)
        # compare partitions via co-membership of a sample of pairs
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        la, lb = model_a.labels, model_b.labels[inv]
        pairs = rng.integers(0, len(points), size=(500, 2))
        for i, j in pairs:
            assert (la[i] == la[j]) == (lb[i] == lb[j])

    def test_centroid_is_member_mean(self):
        points, _ = make_blobs(3, 25, seed=6)
        model = fit_clusters(points, 3)
        for c in range(3):
            members = points[model.labels == c]
            assert np.allclose(model.centroids[c], members.mean(axis=0), atol=1e-6)


class TestVariance:
    def test_zero_when_on_centroids(self):
        points = np.array([[0.0], [0.0], [5.0], [5.0]])
        model = fit_clusters(points, 2)
        assert intra_cluster_variance(model, points) == 0.0

    def test_hand_example(self):
        # {0,2} and {10,12} in 1-d: centroids 1 and 11, every member 1 away
        points = np.array([[0.0], [2.0], [10.0], [12.0]])
        model = fit_clusters(points, 2)
        assert intra_cluster_variance(model, points) == pytest.approx(1.0)

    def test_k1_equals_sample_variance(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(500, 1))
        model = fit_clusters(points, 1)
        assert intra_cluster_variance(model, points) == pytest.approx(float(np.var(points)))


class TestSelectBucketCount:
    def test_three_blobs(self):
        points, _ = make_blobs(3, 50, seed=21)
        assert select_bucket_count(points, range(2, 9)) == 3

    def test_single_blob(self):
        # one isotropic cloud at descriptor-like dimensionality: the very
        # first variance reduction is already below the knee threshold
        rng = np.random.default_rng(22)
        points = rng.normal(size=(150, 16))
        assert select_bucket_count(points, range(2, 9)) == 2

    @pytest.mark.parametrize("per_blob, seed", [(60, 23), (40, 24)], ids=["60_per_blob", "40_per_blob"])
    def test_six_blobs(self, per_blob, seed):
        points, _ = make_blobs(6, per_blob, seed=seed)
        assert select_bucket_count(points, range(2, 11)) == 6

    def test_errors(self):
        points, _ = make_blobs(2, 3, seed=25)
        with pytest.raises(ClusterError):
            select_bucket_count(points, [])
        with pytest.raises(ClusterError):
            select_bucket_count(points, range(2, 50))

    def test_passed_tree_gives_the_same_result(self, monkeypatch):
        tiles, _ = make_texture_tiles(6, 8, tile_px=32, seed=3)
        points = extract_features(tiles)
        tree = ward_tree(points)
        built = []
        linkage = embedding.linkage
        monkeypatch.setattr(embedding, "linkage", lambda *a, **kw: built.append(1) or linkage(*a, **kw))
        ks = range(2, 11)
        curve = variance_curve(points, ks)
        assert variance_curve(points, ks, tree=tree) == curve
        k = select_bucket_count(points, ks)
        assert select_bucket_count(points, ks, tree=tree) == k
        for kk in (k, 2, len(points)):
            alone = fit_clusters(points, kk)
            shared = fit_clusters(points, kk, tree=tree)
            assert shared.labels.tobytes() == alone.labels.tobytes()
            assert shared.centroids.tobytes() == alone.centroids.tobytes()
        # only the calls without a tree built one; k = n needs no tree
        assert len(built) == 4
