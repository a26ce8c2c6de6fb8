import statistics

import numpy as np
import pytest

from resflow.config import ConfigError, RunConfig
from resflow.embedding import extract_features, fit_clusters
from resflow.executor import (
    DeviceCostModel,
    PipelineAssets,
    PipelineError,
    RunMetrics,
    SimulatedDevice,
    area_rate,
    compute_speedup,
    group_by_scene,
    make_virtual_scenes,
    predicted_wall_s,
    run_pipeline,
)
from resflow.gallery import ImageGallery, ModelGallery, ModelRecord
from resflow.hashing import bucket_centroids, encode_many, fit_hash
from resflow.models import save_model, train_bucket_model
from resflow.pool import DevicePool, audit_events, parse_event_line
from resflow.raster import (
    Mask,
    ReadLedger,
    TileExtent,
    read_window,
    tile_extents,
    write_scene,
)
from resflow.synth import make_texture_tiles

from conftest import make_mask


class TestSpeedupArithmetic:
    def test_table_cell_nine_x(self):
        m = RunMetrics(wall_s=3.81 * 60, scenes=1)
        assert compute_speedup(m, 35 * 60) == pytest.approx(9.19, abs=0.01)

    def test_unit_speedup(self):
        m = RunMetrics(wall_s=4200.0, scenes=2)
        assert compute_speedup(m, 2100.0) == 1.0

    def test_twelve_scene_cell(self):
        m = RunMetrics(wall_s=7.73 * 60, scenes=12)
        assert compute_speedup(m, 35 * 60) == pytest.approx(54.3, abs=0.05)

    def test_zero_wall_time(self):
        with pytest.raises(PipelineError):
            compute_speedup(RunMetrics(wall_s=0.0, scenes=1), 2100.0)


class TestAreaRate:
    def test_published_relation(self):
        m = RunMetrics(wall_s=1.0, area_sqkm=5.245)
        rate, per_day = area_rate(m)
        assert rate == pytest.approx(5.245)
        assert per_day == pytest.approx(453_168.0, abs=1.0)

    def test_small_example(self):
        m = RunMetrics(wall_s=1.0, area_sqkm=0.25)
        assert area_rate(m)[1] == pytest.approx(21_600.0)

    def test_inverse_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = RunMetrics(wall_s=float(rng.uniform(0.1, 50)), area_sqkm=float(rng.uniform(0.1, 500)))
            rate, per_day = area_rate(m)
            assert per_day / 86_400.0 == pytest.approx(rate)


class TestGroupByScene:
    def test_empty(self):
        assert group_by_scene([]) == {}

    def test_two_scenes_sorted(self):
        tiles = []
        for sid in ("b", "a"):
            for y in (32, 0):
                for x in (32, 0):
                    ext = TileExtent(sid, x, y, 32, 32)
                    tiles.append((sid, ext, make_mask(np.zeros((32, 32)))))
        grouped = group_by_scene(tiles)
        assert set(grouped) == {"a", "b"}
        for sid in grouped:
            keys = [(e.y0, e.x0) for e, _ in grouped[sid]]
            assert keys == [(0, 0), (0, 32), (32, 0), (32, 32)]

    def test_arrival_order_independent(self):
        rng = np.random.default_rng(1)
        tiles = []
        for sid in ("s0", "s1", "s2"):
            for i in range(40):
                ext = TileExtent(sid, (i % 8) * 10, (i // 8) * 10, 10, 10)
                tiles.append((sid, ext, make_mask(np.full((10, 10), i % 5))))
        reference = group_by_scene(tiles)
        for _ in range(10):
            shuffled = list(tiles)
            rng.shuffle(shuffled)
            got = group_by_scene(shuffled)
            assert list(got) != [] and all(
                [e for e, _ in got[s]] == [e for e, _ in reference[s]] for s in reference
            )


def build_assets(tmp_path, tiles, labels, task="building", skip_bucket=None):
    """Fit hash + centroids + per-bucket models from labeled tiles."""
    embeddings = np.array([extract_features(t) for t in tiles])
    clusters = fit_clusters(embeddings, len(set(labels)), method="agglomerative", seed=0)
    hash_fn = fit_hash(embeddings, clusters.labels, 32, seed=0)
    codes = encode_many(hash_fn, embeddings)
    table = bucket_centroids(codes, clusters.labels)
    registry = ModelGallery(tmp_path / "m.mgal", table)
    for bucket_id, centroid in table.items():
        if bucket_id == skip_bucket:
            continue
        members = [t for t, c in zip(tiles, clusters.labels) if c == bucket_id]
        samples = []
        for t in members:
            truth = (t.pixels.astype(np.float64).mean(axis=2) > t.pixels.mean() + 25).astype(np.uint8)
            samples.append((t, Mask(w=t.extent.w, h=t.extent.h, labels=truth)))
        if not any(s[1].labels.any() for s in samples):
            samples[0][1].labels[0, 0] = 1
        model = train_bucket_model(samples)
        artifact = tmp_path / f"b{bucket_id}.lpm1"
        save_model(artifact, model)
        registry.register(ModelRecord(centroid, task, 0, str(artifact), {"f1": 1.0}))
    registry.close()  # releases the append handle only; lookups still work
    return hash_fn, table, registry


def write_synthetic_scene(tmp_path, scene_id, px=128, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 255, size=(px, px, 3), dtype=np.uint8)
    return write_scene(tmp_path / f"{scene_id}.rsr", pixels, 0.5, scene_id)


@pytest.fixture
def real_setup(tmp_path):
    tiles, labels = make_texture_tiles(3, 30, tile_px=32, seed=4, with_buildings=True)
    hash_fn, table, registry = build_assets(tmp_path, tiles, labels)
    scenes = [write_synthetic_scene(tmp_path, f"s{i}", px=128, seed=i) for i in range(3)]
    return hash_fn, table, registry, scenes


def run_once(tmp_path, hash_fn, table, registry, scenes, workers, seed=0, gallery_name=None):
    gallery = None
    if gallery_name is not None:
        path = tmp_path / gallery_name
        if path.exists():
            path.unlink()
        gallery = ImageGallery(path, n_bits=32, centroids=table)
    assets = PipelineAssets(
        hash_fn=hash_fn,
        centroids=table,
        model_gallery=registry,
        image_gallery=gallery,
    )
    pool = DevicePool(4, 2)
    config = RunConfig(workers=workers, batch=3, tile_px=64, seed=seed)
    out = run_pipeline(scenes, config, assets, pool, ReadLedger())
    if gallery is not None:
        gallery.close()
    return out


class TestRunPipelineReal:
    def test_read_twice_and_shapes(self, tmp_path, real_setup):
        hash_fn, table, registry, scenes = real_setup
        out = run_once(tmp_path, hash_fn, table, registry, scenes, workers=1)
        assert set(out.metrics.reads_per_scene.values()) == {2.0}
        for scene in scenes:
            mask = out.masks[scene.scene_id]
            assert (mask.w, mask.h) == (scene.width_px, scene.height_px)
            assert len(mask.provenance) == 4  # 128 px scene in 64 px tiles
        assert out.metrics.tiles == 12
        assert not out.failures

    def test_schedule_independence(self, tmp_path, real_setup):
        hash_fn, table, registry, scenes = real_setup
        reference = run_once(
            tmp_path, hash_fn, table, registry, scenes, workers=1, gallery_name="ref.igal"
        )
        ref_bytes = (tmp_path / "ref.igal").read_bytes()
        for workers, seed in [(4, 1), (8, 2), (8, 3)]:
            out = run_once(
                tmp_path, hash_fn, table, registry, scenes,
                workers=workers, seed=seed, gallery_name="run.igal",
            )
            for scene in scenes:
                assert np.array_equal(
                    out.masks[scene.scene_id].labels,
                    reference.masks[scene.scene_id].labels,
                )
                assert (
                    out.masks[scene.scene_id].provenance
                    == reference.masks[scene.scene_id].provenance
                )
            assert (tmp_path / "run.igal").read_bytes() == ref_bytes

    def test_model_gap_fails_partition_not_run(self, tmp_path):
        tiles, labels = make_texture_tiles(3, 30, tile_px=32, seed=4, with_buildings=True)
        hash_fn, table, registry = build_assets(tmp_path, tiles, labels, skip_bucket=1)
        scenes = [write_synthetic_scene(tmp_path, f"s{i}", px=128, seed=i) for i in range(3)]
        out = run_once(tmp_path, hash_fn, table, registry, scenes, workers=2)
        # every scene that hit bucket 1 is reported and unmerged; others merged
        assert out.failures
        for scene_id, problems in out.failures.items():
            assert scene_id not in out.masks
            assert any("model gap" in p for p in problems)
        for scene in scenes:
            assert scene.scene_id in out.masks or scene.scene_id in out.failures


class TestRunPipelineSimulate:
    def test_metrics_and_masks(self):
        scenes = make_virtual_scenes(2, 256, 256)
        config = RunConfig(workers=4, batch=2, tile_px=64)
        device = SimulatedDevice(DeviceCostModel(base_ms=1.0, ms_per_megapixel=0.0), 6, tile_px=64)
        out = run_pipeline(scenes, config, device, DevicePool(2, 2))
        m = out.metrics
        assert m.scenes == 2 and m.tiles == 32
        assert set(m.reads_per_scene.values()) == {2.0}
        assert m.bytes_read == 2 * 2 * 256 * 256 * 3
        for mask in out.masks.values():
            assert (mask.labels == 0).all()
        assert m.wall_s > 0 and m.stage_a_s > 0 and m.stage_b_s > 0

    def test_scaling_matches_queue_model(self):
        # base 5 ms / 1 ms per megapixel, 12 scenes, sweep of worker counts; the
        # median of 3 runs per count, as one run can stall on a loaded host
        cost = DeviceCostModel(base_ms=5.0, ms_per_megapixel=1.0)
        scenes = make_virtual_scenes(12, 400, 400)
        for workers in (1, 4, 8, 16):
            config = RunConfig(workers=workers, batch=1, tile_px=100, seed=workers)
            walls = [
                run_pipeline(
                    scenes, config, SimulatedDevice(cost, 6, tile_px=100), DevicePool(4, 2)
                ).metrics.wall_s
                for _ in range(3)
            ]
            pred = predicted_wall_s(
                scenes, cost, tile_px=100, workers=workers, tickets_total=8
            )
            assert abs(statistics.median(walls) - pred) / pred <= 0.15

    def test_ticket_log_is_clean(self):
        scenes = make_virtual_scenes(3, 128, 128)
        pool = DevicePool(2, 2)
        config = RunConfig(workers=8, batch=2, tile_px=32)
        device = SimulatedDevice(DeviceCostModel(base_ms=0.2, ms_per_megapixel=0.0), 6, tile_px=32)
        run_pipeline(scenes, config, device, pool)
        report = audit_events(pool.events, tickets_per_device=2)
        assert report.ok


class FailingDevice(SimulatedDevice):
    """A zero-cost simulated device whose label raises on one tile."""

    def __init__(self, bad: TileExtent, tile_px: int):
        super().__init__(DeviceCostModel(base_ms=0.0, ms_per_megapixel=0.0), 6, tile_px)
        self.bad = bad
        self.labelled: list[TileExtent] = []

    def label(self, model, scene, ext, ledger):
        self.labelled.append(ext)
        if ext == self.bad:
            raise RuntimeError("label failed")
        return super().label(model, scene, ext, ledger)


class TestAbortOnError:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_error_propagates_and_tickets_come_back(self, workers):
        scenes = make_virtual_scenes(2, 128, 128)
        device = FailingDevice(tile_extents(scenes[1], 32)[5], tile_px=32)
        pool = DevicePool(2, 2)
        config = RunConfig(workers=workers, batch=1, tile_px=32)
        with pytest.raises(RuntimeError, match="label failed"):
            run_pipeline(scenes, config, device, pool)
        assert set(pool.snapshot().values()) == {0}
        assert audit_events(pool.events, tickets_per_device=2).ok

    def test_no_label_after_the_failing_one(self):
        scenes = make_virtual_scenes(2, 128, 128)
        bad = tile_extents(scenes[1], 32)[5]
        device = FailingDevice(bad, tile_px=32)
        config = RunConfig(workers=1, batch=1, tile_px=32)
        with pytest.raises(RuntimeError, match="label failed"):
            run_pipeline(scenes, config, device, DevicePool(1, 1))
        assert device.labelled[-1] == bad
        assert len(device.labelled) < 32  # tasks were left when it failed


def test_event_log_worker_ids_are_pool_slots(tmp_path):
    scenes = make_virtual_scenes(3, 128, 128)
    pool = DevicePool(2, 2)
    config = RunConfig(workers=2, batch=1, tile_px=32)
    device = SimulatedDevice(DeviceCostModel(base_ms=0.5, ms_per_megapixel=0.0), 6, tile_px=32)
    run_pipeline(scenes, config, device, pool)
    log = tmp_path / "events.log"
    pool.write_event_log(log)
    workers = {parse_event_line(line).worker for line in log.read_text().splitlines()}
    assert workers and workers <= {0, 1}


@pytest.mark.parametrize("field", ["workers", "batch"])
def test_bad_run_shape_fails_before_any_ticket(field):
    scenes = make_virtual_scenes(1, 64, 64)
    pool = DevicePool(1, 1)
    device = SimulatedDevice(DeviceCostModel(base_ms=0.0, ms_per_megapixel=0.0), 6, tile_px=32)
    with pytest.raises(ConfigError, match=field):
        run_pipeline(scenes, RunConfig(tile_px=32, **{field: 0}), device, pool)
    assert pool.events == []
