import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from resflow.models import (
    BucketModel,
    LinearPixelModel,
    ModelError,
    TrainConfig,
    iou_to_f1,
    load_model,
    logistic_loss_grad,
    pixel_features,
    save_model,
    seg_metrics,
    train_bucket_model,
)
from resflow.raster import Mask

from conftest import make_mask, make_tile


def separable_samples(n_tiles=6, size=24, seed=0):
    """Tiles where class 1 sits above intensity 148 and class 0 below 108."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_tiles):
        truth = (rng.random((size, size)) < 0.3).astype(np.uint8)
        base = rng.normal(88.0, 6.0, size=(size, size, 3))
        hi = rng.normal(168.0, 6.0, size=(size, size, 3))
        pixels = np.where(truth[:, :, None] == 1, hi, base)
        samples.append((make_tile(np.clip(pixels, 0, 255).astype(np.uint8)), make_mask(truth)))
    return samples


class TestTraining:
    def test_separable_accuracy(self):
        samples = separable_samples()
        model = train_bucket_model(samples)
        correct = total = 0
        for tile, truth in samples:
            pred = model.infer(tile)
            correct += int((pred.labels == truth.labels).sum())
            total += truth.labels.size
        assert correct / total >= 0.99

    def test_single_class_error(self):
        tile = make_tile(np.full((8, 8, 3), 50, dtype=np.uint8))
        with pytest.raises(ModelError, match="degenerate labels"):
            train_bucket_model([(tile, make_mask(np.zeros((8, 8))))])

    def test_duplicated_set_trains_same_model(self):
        samples = separable_samples(n_tiles=3, seed=1)
        one = train_bucket_model(samples)
        two = train_bucket_model(samples + samples)
        assert np.allclose(one.weights, two.weights, atol=1e-9)
        assert abs(one.bias - two.bias) <= 1e-9

    def test_deterministic(self):
        samples = separable_samples(n_tiles=2, seed=2)
        a = train_bucket_model(samples)
        b = train_bucket_model(samples)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 6))
        y = (rng.random(40) < 0.5).astype(np.float64)
        w = rng.standard_normal(6) * 0.5
        b = 0.3
        _, gw, gb = logistic_loss_grad(w, b, X, y)
        step = 1e-5
        for i in range(6):
            delta = np.zeros(6)
            delta[i] = step
            lo, _, _ = logistic_loss_grad(w - delta, b, X, y)
            hi, _, _ = logistic_loss_grad(w + delta, b, X, y)
            fd = (hi - lo) / (2 * step)
            assert abs(fd - gw[i]) <= 1e-4 * max(1.0, abs(fd))
        lo, _, _ = logistic_loss_grad(w, b - step, X, y)
        hi, _, _ = logistic_loss_grad(w, b + step, X, y)
        assert abs((hi - lo) / (2 * step) - gb) <= 1e-4


def reference_pixel_features(pixels):
    """The list-and-stack feature matrix that pixel_features must reproduce."""
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w, bands = pixels.shape
    data = pixels.astype(np.float64)
    cols = [data[:, :, b].ravel() for b in range(bands)]
    for b in range(bands):
        cols.append(uniform_filter(data[:, :, b], size=3, mode="nearest").ravel())
    return np.stack(cols, axis=1)


def reference_decision(model, X):
    Xs = (X - model.mu) / model.sigma
    return Xs @ model.weights + model.bias


def reference_train(samples, hyper=TrainConfig()):
    """Gradient descent through logistic_loss_grad, the loop train_bucket_model replaces."""
    X = np.concatenate([reference_pixel_features(tile.pixels) for tile, _ in samples])
    y = np.concatenate([(truth.labels.ravel() != 0).astype(np.float64) for _, truth in samples])
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma[sigma == 0] = 1.0
    Xs = (X - mu) / sigma
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(hyper.epochs):
        _, gw, gb = logistic_loss_grad(w, b, Xs, y)
        w -= hyper.learning_rate * gw
        b -= hyper.learning_rate * gb
    return w, b, mu, sigma


def one_pixel_samples():
    rng = np.random.default_rng(21)
    samples = []
    for i in range(12):
        value = rng.integers(0, 256, size=(1, 1, 3), dtype=np.uint8)
        samples.append((make_tile(value), make_mask([[i % 2]])))
    return samples


def one_band_samples():
    rng = np.random.default_rng(22)
    truth = (rng.random((9, 31)) < 0.4).astype(np.uint8)
    pixels = np.where(truth == 1, 170, 90) + rng.integers(-20, 21, size=truth.shape)
    return [(make_tile(pixels.astype(np.uint8)), make_mask(truth))]


EXACT_SETS = {
    "separable": lambda: separable_samples(),
    "duplicated": lambda: separable_samples(n_tiles=3, seed=1) * 2,
    "one_pixel_tiles": one_pixel_samples,
    "one_pixel_mixed": lambda: separable_samples(n_tiles=2, size=5, seed=23) + one_pixel_samples()[:4],
    "one_band": one_band_samples,
}


class TestExactness:
    @pytest.mark.parametrize("name", sorted(EXACT_SETS))
    def test_training_matches_reference_loop(self, name):
        samples = EXACT_SETS[name]()
        for hyper in (TrainConfig(), TrainConfig(epochs=7, learning_rate=0.5)):
            model = train_bucket_model(samples, hyper)
            w, b, mu, sigma = reference_train(samples, hyper)
            assert np.array_equal(model.weights, w)
            assert model.bias == b
            assert np.array_equal(model.mu, mu) and np.array_equal(model.sigma, sigma)

    def test_pixel_features_and_decision_match_reference(self):
        rng = np.random.default_rng(24)
        model = train_bucket_model(separable_samples(seed=25))
        shapes = [(1, 1, 3), (1, 9, 3), (9, 1, 3), (2, 2, 3), (17, 23, 3), (64, 64, 3)]
        for h, w, bands in shapes:
            for dtype in (np.uint8, np.uint16, np.float32):
                if dtype is np.float32:
                    pixels = rng.random((h, w, bands)).astype(dtype) * 255
                else:
                    pixels = rng.integers(0, 256, size=(h, w, bands)).astype(dtype)
                X = pixel_features(pixels)
                assert X.flags.c_contiguous
                assert X.tobytes() == reference_pixel_features(pixels).tobytes()
                before = X.copy()
                scores = model.decision(X)
                assert np.array_equal(X, before), "decision mutated its argument"
                assert scores.tobytes() == reference_decision(model, X).tobytes()
        flat = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        assert pixel_features(flat).tobytes() == reference_pixel_features(flat).tobytes()


class TestInference:
    def test_background_tile_all_zero(self):
        model = train_bucket_model(separable_samples(seed=4))
        low = make_tile(np.full((10, 10, 3), 80, dtype=np.uint8))
        assert (model.infer(low).labels == 0).all()

    def test_same_tile_same_mask(self):
        model = train_bucket_model(separable_samples(seed=5))
        tile = separable_samples(n_tiles=1, seed=6)[0][0]
        assert np.array_equal(model.infer(tile).labels, model.infer(tile).labels)

    def test_one_pixel_tile(self):
        model = train_bucket_model(separable_samples(seed=7))
        mask = model.infer(make_tile(np.full((1, 1, 3), 200, dtype=np.uint8)))
        assert (mask.h, mask.w) == (1, 1)

    def test_band_mismatch(self):
        model = train_bucket_model(separable_samples(seed=8))
        with pytest.raises(ModelError):
            model.infer(make_tile(np.zeros((4, 4), dtype=np.uint8)))

    def test_custom_model_satisfies_interface(self):
        class Zeros:
            def infer(self, tile):
                return Mask(w=tile.extent.w, h=tile.extent.h,
                            labels=np.zeros((tile.extent.h, tile.extent.w), dtype=np.uint8))

        assert isinstance(Zeros(), BucketModel)
        out = Zeros().infer(make_tile(np.zeros((5, 7, 3), dtype=np.uint8)))
        assert (out.w, out.h) == (7, 5)

    def test_pixel_features_shape(self):
        feats = pixel_features(np.zeros((4, 6, 3)))
        assert feats.shape == (24, 6)


class TestSegMetrics:
    def test_exact_match(self):
        m = make_mask(np.eye(8))
        out = seg_metrics(m, m)
        assert out.iou == 1.0 and out.f1 == 1.0

    def test_disjoint(self):
        a = make_mask([[1, 0], [0, 0]])
        b = make_mask([[0, 0], [0, 1]])
        out = seg_metrics(a, b)
        assert out.iou == 0.0 and out.f1 == 0.0

    def test_half_overlap_hand_counts(self):
        # two 10x10 squares overlapping in a 5x10 strip
        pred = np.zeros((10, 20), dtype=np.uint8)
        truth = np.zeros((10, 20), dtype=np.uint8)
        pred[:, 0:10] = 1
        truth[:, 5:15] = 1
        out = seg_metrics(make_mask(pred), make_mask(truth))
        assert (out.tp, out.fp, out.fn) == (50, 50, 50)
        assert out.iou == pytest.approx(1 / 3)
        assert out.f1 == pytest.approx(0.5)

    def test_empty_empty_convention(self):
        z = make_mask(np.zeros((4, 4)))
        out = seg_metrics(z, z)
        assert out.iou == 1.0 and out.f1 == 1.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(9)
        a = make_mask(rng.integers(0, 2, size=(12, 12)))
        b = make_mask(rng.integers(0, 2, size=(12, 12)))
        ab, ba = seg_metrics(a, b), seg_metrics(b, a)
        assert (ab.fp, ab.fn) == (ba.fn, ba.fp)
        assert ab.iou == ba.iou and ab.f1 == ba.f1

    def test_f1_identity_on_counts(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            a = make_mask(rng.integers(0, 2, size=(9, 9)))
            b = make_mask(rng.integers(0, 2, size=(9, 9)))
            out = seg_metrics(a, b)
            assert out.f1 == pytest.approx(2 * out.iou / (1 + out.iou))

    def test_dim_mismatch(self):
        with pytest.raises(ModelError):
            seg_metrics(make_mask(np.zeros((2, 2))), make_mask(np.zeros((3, 3))))


class TestIouToF1:
    def test_published_pairs(self):
        assert iou_to_f1(0.64) == pytest.approx(0.78, abs=0.005)
        assert iou_to_f1(0.79) == pytest.approx(0.88, abs=0.005)

    def test_endpoints(self):
        assert iou_to_f1(0.0) == 0.0
        assert iou_to_f1(1.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ModelError):
            iou_to_f1(1.5)
        with pytest.raises(ModelError):
            iou_to_f1(-0.1)


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        model = train_bucket_model(separable_samples(n_tiles=2, seed=11))
        save_model(tmp_path / "m.lpm1", model)
        back = load_model(tmp_path / "m.lpm1")
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias
        assert np.array_equal(back.mu, model.mu)
        assert np.array_equal(back.sigma, model.sigma)
        assert back.bands == model.bands

    def test_loaded_model_infers_identically(self, tmp_path):
        model = train_bucket_model(separable_samples(n_tiles=2, seed=12))
        save_model(tmp_path / "m.lpm1", model)
        back = load_model(tmp_path / "m.lpm1")
        tile = separable_samples(n_tiles=1, seed=13)[0][0]
        assert np.array_equal(model.infer(tile).labels, back.infer(tile).labels)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.lpm1").write_bytes(b"XXXX")
        with pytest.raises(ModelError):
            load_model(tmp_path / "m.lpm1")
