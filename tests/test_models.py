import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter
from scipy.optimize import minimize

from resflow import models
from resflow.models import (
    MODEL_MAGIC,
    LinearPixelModel,
    ModelError,
    RIDGE,
    iou_to_f1,
    load_model,
    save_model,
    seg_metrics,
    train_bucket_model,
)
from resflow.synth import SIGNATURES, _paint_region, _place_buildings

from conftest import make_mask, make_tile


def logistic_loss_grad(weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray):
    """Mean logistic loss and its analytic gradient: the oracle for the loss train_bucket_model fits."""
    z = X @ weights + bias
    # log(1 + exp(z)) - y*z, computed stably
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    p = 1.0 / (1.0 + np.exp(-z))
    resid = p - y
    grad_w = X.T @ resid / len(y)
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


def separable_samples(n_tiles=6, size=24, seed=0, bands=3):
    """Tiles where class 1 sits above intensity 148 and class 0 below 108."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_tiles):
        truth = (rng.random((size, size)) < 0.3).astype(np.uint8)
        base = rng.normal(88.0, 6.0, size=(size, size, bands))
        hi = rng.normal(168.0, 6.0, size=(size, size, bands))
        pixels = np.where(truth[:, :, None] == 1, hi, base)
        samples.append((make_tile(np.clip(pixels, 0, 255).astype(np.uint8)), make_mask(truth)))
    return samples


def far_outlier_samples(n_tiles=2, size=24, seed=31):
    """One-band tiles: buildings at 101, background at 100 with a few pixels at 0.

    The margin is half a level and the dark pixels sit 200 times further out,
    so the fitted scores there fall far below -709, where exp(-z) overflows.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_tiles):
        truth = (rng.random((size, size)) < 0.3).astype(np.uint8)
        pixels = np.where(truth == 1, 101, 100).astype(np.uint8)
        pixels[(truth == 0) & (rng.random((size, size)) < 0.02)] = 0
        samples.append((make_tile(pixels), make_mask(truth)))
    return samples


def one_pixel_samples():
    rng = np.random.default_rng(21)
    samples = []
    for i in range(12):
        value = rng.integers(0, 256, size=(1, 1, 3), dtype=np.uint8)
        samples.append((make_tile(value), make_mask([[i % 2]])))
    return samples


def overlapping_samples(n_tiles=3, size=24, seed=30, bands=3):
    """Tiles whose building and background intensities overlap, so no weights separate them."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_tiles):
        truth = (rng.random((size, size)) < 0.35).astype(np.uint8)
        pixels = rng.normal(110.0, 18.0, size=(size, size, bands)) + 25.0 * truth[:, :, None]
        samples.append((make_tile(np.clip(pixels, 0, 255).astype(np.uint8)), make_mask(truth)))
    return samples


def one_band_samples():
    rng = np.random.default_rng(22)
    truth = (rng.random((9, 31)) < 0.4).astype(np.uint8)
    pixels = np.where(truth == 1, 170, 90) + rng.integers(-20, 21, size=truth.shape)
    return [(make_tile(pixels.astype(np.uint8)), make_mask(truth))]


TRAINING_SETS = {
    "overlapping": overlapping_samples,
    "separable": separable_samples,
    "duplicated": lambda: separable_samples(n_tiles=3, seed=1) * 2,
    "one_pixel_tiles": one_pixel_samples,
    "one_pixel_mixed": lambda: separable_samples(n_tiles=2, size=5, seed=23) + one_pixel_samples()[:4],
    "one_band": one_band_samples,
}


@st.composite
def lpm1_files(draw):
    """The LPM1 magic and a band count, then a body of the length it implies, give or take a byte."""
    bands = draw(st.integers(0, 3))
    size = 8 * (6 * bands + 1) + draw(st.integers(-1, 1))
    return MODEL_MAGIC + struct.pack("<I", bands) + draw(st.binary(min_size=size, max_size=size))


def standardized_training_set(samples, model):
    X = np.concatenate([reference_pixel_features(tile.pixels) for tile, _ in samples])
    y = np.concatenate([(truth.labels.ravel() != 0).astype(np.float64) for _, truth in samples])
    return (X - model.mu) / model.sigma, y


def penalised_loss_grad(params, X, y):
    """The objective train_bucket_model minimises, over (weights..., bias)."""
    w, b = params[:-1], params[-1]
    loss, gw, gb = logistic_loss_grad(w, b, X, y)
    return loss + RIDGE / 2 * float(w @ w), np.append(gw + RIDGE * w, gb)


class TestTraining:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_separable_accuracy(self):
        for samples in (separable_samples(), far_outlier_samples()):
            model = train_bucket_model(samples)
            for tile, truth in samples:
                assert np.array_equal(model.infer([tile])[0].labels, truth.labels)

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_labels_give_a_constant_model(self, label):
        samples = [(tile, make_mask(np.full((24, 24), label))) for tile, _ in separable_samples(n_tiles=2)]
        model = train_bucket_model(samples)
        planes = np.concatenate([reference_pixel_features(tile.pixels) for tile, _ in samples]).T.copy()
        assert not model.weights.any()
        assert (model.bias > 0) == bool(label)
        assert np.array_equal(model.mu, planes.mean(axis=1))
        assert np.array_equal(model.sigma, planes.std(axis=1))
        for tile, truth in samples:
            assert np.array_equal(model.scores(tile.pixels), np.full(24 * 24, model.bias))
            assert np.array_equal(model.infer([tile])[0].labels, truth.labels)

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

    @pytest.mark.parametrize("name", sorted(TRAINING_SETS))
    def test_converges_to_a_stationary_point(self, name):
        samples = TRAINING_SETS[name]()
        model = train_bucket_model(samples)
        X, y = standardized_training_set(samples, model)
        _, grad = penalised_loss_grad(np.append(model.weights, model.bias), X, y)
        assert np.abs(grad).max() <= 1e-12

    @pytest.mark.parametrize("name", ["overlapping", "separable"])
    def test_block_sums_match_one_block(self, name, monkeypatch):
        # 97 divides neither 1,728 nor 3,456 pixels, so the last block is partial
        samples = TRAINING_SETS[name]()
        one = train_bucket_model(samples)
        monkeypatch.setattr(models, "NEWTON_BLOCK_COLS", 97)
        many = train_bucket_model(samples)
        X, y = standardized_training_set(samples, many)
        assert len(y) % 97 and len(y) > 2 * 97
        _, grad = penalised_loss_grad(np.append(many.weights, many.bias), X, y)
        assert np.abs(grad).max() <= 1e-12
        assert np.allclose(many.weights, one.weights, rtol=0, atol=1e-12)
        assert abs(many.bias - one.bias) <= 1e-12

    def test_matches_a_general_purpose_minimiser(self):
        samples = overlapping_samples()
        model = train_bucket_model(samples)
        X, y = standardized_training_set(samples, model)
        ref = minimize(
            penalised_loss_grad, np.zeros(X.shape[1] + 1), args=(X, y), jac=True,
            method="BFGS", options={"gtol": 1e-12},
        )
        assert np.allclose(model.weights, ref.x[:-1], rtol=0, atol=1e-8)
        assert abs(model.bias - ref.x[-1]) <= 1e-8
        assert penalised_loss_grad(np.append(model.weights, model.bias), X, y)[0] <= ref.fun + 1e-12

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
    """(h*w, 2*bands) list-and-stack feature matrix: band values, then 3x3 local means per band."""
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w, bands = pixels.shape
    data = pixels.astype(np.float64)
    cols = [data[:, :, b].ravel() for b in range(bands)]
    for b in range(bands):
        cols.append(uniform_filter(data[:, :, b], size=3, mode="nearest").ravel())
    return np.stack(cols, axis=1)


def random_pixels(rng, shape, dtype):
    if dtype is np.float32:
        return rng.random(shape).astype(dtype) * 255
    return rng.integers(0, 256, size=shape).astype(dtype)


def reference_decision(model, X):
    Xs = (X - model.mu) / model.sigma
    return Xs @ model.weights + model.bias


def texture_tile(rng, sig, px):
    """One synth texture cell of ``px`` pixels a side with its buildings, and its truth."""
    block = _paint_region(rng, sig, px, px)
    block, truth, _ = _place_buildings(rng, sig, block, np.zeros((px, px), dtype=np.uint8), px, px)
    return make_tile(np.clip(block, 0, 255).astype(np.uint8)), make_mask(truth)


class TestExactness:
    def test_scores_match_reference(self):
        # The folded kernel sums in another order than the reference, so scores
        # agree to a few ulps of the tile's largest score, and labels agree
        # wherever the reference score is farther than that from 0.
        rng = np.random.default_rng(24)
        models = {bands: train_bucket_model(separable_samples(seed=25, bands=bands)) for bands in (1, 3, 4)}
        shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (17, 23), (256, 256)]
        for (h, w), bands, dtype in itertools.product(shapes, (1, 3, 4), (np.uint8, np.uint16, np.float32)):
            pixels = random_pixels(rng, (h, w, bands), dtype)
            model = models[bands]
            expected = reference_decision(model, reference_pixel_features(pixels))
            tol = 1e-12 * np.abs(expected).max()
            clear = np.abs(expected) > tol
            before = pixels.copy()
            scores = model.scores(pixels)
            assert scores.shape == (h * w,)
            assert np.abs(scores - expected).max() <= tol
            tile = make_tile(pixels)
            labels = model.infer([tile])[0].labels
            assert labels.dtype == np.uint8
            assert np.array_equal(labels.ravel()[clear], (expected > 0)[clear])
            assert tile.pixels.tobytes() == before.tobytes(), "infer changed the tile's pixels"
            if bands == 1:
                assert np.abs(model.scores(pixels[:, :, 0]) - expected).max() <= tol

    @pytest.mark.parametrize("px", [32, 256])
    def test_texture_masks_match_reference(self, px):
        rng = np.random.default_rng(28)
        differ = 0
        for sig in SIGNATURES[:6]:
            model = train_bucket_model([texture_tile(rng, sig, px) for _ in range(3)])
            for _ in range(8 if px == 32 else 2):
                tile, _ = texture_tile(rng, sig, px)
                expected = reference_decision(model, reference_pixel_features(tile.pixels)) > 0
                differ += int(np.count_nonzero(model.infer([tile])[0].labels.ravel() != expected))
        assert differ == 0


class TestMemory:
    def test_infer_peak_stays_within_six_values_per_pixel(self):
        # numpy reports its data buffers to tracemalloc, so any new
        # temporary in the scoring kernel shows up in the traced peak.
        model = train_bucket_model(separable_samples(seed=26))
        tile = make_tile(np.random.default_rng(27).integers(0, 256, size=(256, 256, 3), dtype=np.uint8))
        model.infer([tile])
        n = 256 * 256
        budget = 6 * n * 8 + n  # six f64 values per pixel, u8 labels
        tracemalloc.start()
        try:
            model.infer([tile])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, f"infer peaked at {peak} bytes, budget {budget}"


class TestInference:
    def test_background_tile_all_zero(self):
        model = train_bucket_model(separable_samples(seed=4))
        low = make_tile(np.full((10, 10, 3), 80, dtype=np.uint8))
        assert (model.infer([low])[0].labels == 0).all()

    def test_same_tile_same_mask(self):
        model = train_bucket_model(separable_samples(seed=5))
        tile = separable_samples(n_tiles=1, seed=6)[0][0]
        assert np.array_equal(model.infer([tile])[0].labels, model.infer([tile])[0].labels)

    def test_one_pixel_tile(self):
        model = train_bucket_model(separable_samples(seed=7))
        mask = model.infer([make_tile(np.full((1, 1, 3), 200, dtype=np.uint8))])[0]
        assert (mask.h, mask.w) == (1, 1)

    def test_band_mismatch(self):
        model = train_bucket_model(separable_samples(seed=8))
        with pytest.raises(ModelError, match="bands"):
            model.infer([make_tile(np.zeros((4, 4), dtype=np.uint8))])
        with pytest.raises(ModelError, match="bands"):
            model.infer([make_tile(np.zeros((4, 4), dtype=np.uint8)) for _ in range(3)])

    @pytest.mark.parametrize(
        "shapes",
        [[], [(4, 4, 3), (4, 5, 3)], [(4, 4, 3), (5, 4, 3)], [(4, 4, 3), (4, 4, 3), (4, 4, 1)]],
        ids=["none", "width", "height", "bands"],
    )
    def test_mixed_shapes_raise(self, shapes):
        model = train_bucket_model(separable_samples(seed=8))
        with pytest.raises(ModelError, match="one shape"):
            model.infer([make_tile(np.zeros(shape, dtype=np.uint8)) for shape in shapes])

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
    @pytest.mark.parametrize("bands", [1, 3])
    def test_group_masks_equal_per_tile_masks(self, bands, dtype):
        rng = np.random.default_rng(40 + bands)
        model = train_bucket_model(separable_samples(seed=41, bands=bands))
        ones = pixels = 0
        for h, w, n in [(1, 1, 5), (32, 32, 64), (6, 4, 3), (17, 23, 7), (256, 256, 2)]:
            tiles = [make_tile(random_pixels(rng, (h, w, bands), dtype), x0=i) for i in range(n)]
            group = model.infer(tiles)
            stacked = model.scores(np.stack([tile.pixels for tile in tiles])).reshape(n, h * w)
            assert len(group) == n
            for tile, mask, scores in zip(tiles, group, stacked):
                alone = model.infer([tile])[0]
                assert (mask.w, mask.h) == (w, h)
                assert mask.labels.tobytes() == alone.labels.tobytes()
                if h * w > 1:  # see LinearPixelModel.scores on one-pixel tiles
                    assert scores.tobytes() == model.scores(tile.pixels).tobytes()
                ones += int(mask.labels.sum())
                pixels += mask.labels.size
        assert 0 < ones < pixels


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
        assert np.array_equal(model.infer([tile])[0].labels, back.infer([tile])[0].labels)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.lpm1").write_bytes(b"XXXX")
        with pytest.raises(ModelError):
            load_model(tmp_path / "m.lpm1")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        raw=st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=64).map(MODEL_MAGIC.__add__),
            lpm1_files(),
        )
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_any_bytes_load_or_raise_model_error(self, tmp_path, raw):
        path = tmp_path / "m.lpm1"
        path.write_bytes(raw)
        try:
            model = load_model(path)
        except ModelError:
            return
        assert isinstance(model, LinearPixelModel)
        # Zero pixels score the folded bias and turn a non-finite folded weight into NaN.
        assert np.isfinite(model.scores(np.zeros((4, 4, model.bands), dtype=np.uint8))).all()

    @pytest.mark.parametrize(
        "field, value",
        [("weights", np.nan), ("bias", np.inf), ("mu", -np.inf), ("sigma", 0.0), ("sigma", -1.0), ("sigma", 1e-310)],
    )
    def test_parameters_that_cannot_score_raise_model_error(self, tmp_path, field, value):
        model = train_bucket_model(separable_samples(n_tiles=2, seed=14))
        if field == "bias":
            model.bias = value
        else:
            getattr(model, field)[1] = value
        save_model(tmp_path / "m.lpm1", model)
        with pytest.raises(ModelError, match="m.lpm1"):
            load_model(tmp_path / "m.lpm1")
