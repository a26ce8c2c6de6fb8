import math
import statistics
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from resflow import executor
from resflow.config import ConfigError, RunConfig
from resflow.embedding import GROUP_PIXELS, extract_features, fit_clusters
from resflow.executor import (
    PipelineAssets,
    PipelineError,
    RunMetrics,
    group_by_scene,
    run_pipeline,
)
from resflow.gallery import ImageGallery, ModelGallery, ModelRecord
from resflow.hashing import bucket_centroids, encode_many, fit_hash
from resflow.models import LinearPixelModel, save_model, train_bucket_model
from resflow.pool import DevicePool, audit_events, parse_event_line
from resflow.raster import (
    Mask,
    ReadLedger,
    TileExtent,
    read_window,
    scene_area_sqkm,
    tile_extents,
    write_scene,
)

from conftest import make_mask
from simulated import (
    DeviceCostModel,
    SimulatedDevice,
    make_texture_tiles,
    make_virtual_scenes,
    predicted_wall_s,
)


class TestSpeedupArithmetic:
    def test_table_cell_nine_x(self):
        m = RunMetrics(wall_s=3.81 * 60, scenes=1).finalize()
        assert m.speedup == pytest.approx(9.19, abs=0.01)

    def test_unit_speedup(self):
        assert RunMetrics(wall_s=4200.0, scenes=2).finalize().speedup == 1.0

    def test_twelve_scene_cell(self):
        m = RunMetrics(wall_s=7.73 * 60, scenes=12).finalize()
        assert m.speedup == pytest.approx(54.3, abs=0.05)

    def test_zero_wall_time(self):
        with pytest.raises(PipelineError):
            RunMetrics(wall_s=0.0, scenes=1).finalize()

    def test_no_scene(self):
        with pytest.raises(PipelineError, match="at least one scene"):
            RunMetrics(wall_s=1.0, scenes=0).finalize()


class TestAreaRate:
    def test_published_relation(self):
        m = RunMetrics(wall_s=1.0, scenes=1, area_sqkm=5.245).finalize()
        assert m.sqkm_per_s == pytest.approx(5.245)
        assert m.sqkm_per_s * 86_400.0 == pytest.approx(453_168.0, abs=1.0)


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
    embeddings = extract_features(tiles)
    clusters = fit_clusters(embeddings, len(set(labels)))
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

    def test_one_descriptor_call_per_stage_a_chunk(self, tmp_path, real_setup, monkeypatch):
        hash_fn, table, registry, scenes = real_setup
        calls = []

        def counted(tiles, dim):
            calls.append({t.extent.scene_id for t in tiles})
            return extract_features(tiles, dim)

        monkeypatch.setattr(executor, "extract_features", counted)
        out = run_once(tmp_path, hash_fn, table, registry, scenes, workers=1)
        # 128 px scenes in 64 px tiles: 4 tiles a scene, in batches of 3
        assert all(len(ids) == 1 for ids in calls)
        per_scene = Counter(ids.pop() for ids in calls)
        assert per_scene == {scene.scene_id: math.ceil(4 / 3) for scene in scenes}
        assert set(out.metrics.reads_per_scene.values()) == {2.0}

    def test_one_scoring_call_per_stage_b_group(self, tmp_path, real_setup, monkeypatch):
        hash_fn, table, registry, scenes = real_setup
        calls = log_infer_calls(monkeypatch)
        out = run_once(tmp_path, hash_fn, table, registry, scenes, workers=1)
        # 64 px tiles, far below GROUP_PIXELS: one group, and one call, per
        # stage-B chunk of at most 3 tiles of one scene and bucket
        scene_ids = [{t.extent.scene_id for t in tiles} for _model, tiles in calls]
        assert all(len(ids) == 1 for ids in scene_ids)
        per_scene_model = Counter((ids.pop(), id(model)) for ids, (model, _) in zip(scene_ids, calls))
        tiles = Counter(
            (scene.scene_id, bucket)
            for scene in scenes
            for bucket in out.masks[scene.scene_id].provenance.values()
        )
        assert sorted(per_scene_model.values()) == sorted(math.ceil(n / 3) for n in tiles.values())
        assert set(out.metrics.reads_per_scene.values()) == {2.0}

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
        # every tile of these noise scenes lands in the skipped bucket 1, so all
        # three scenes fail and none merges; a partial map is the next test's case
        assert out.masks == {}
        assert sorted(out.failures) == ["s0", "s1", "s2"]
        for problems in out.failures.values():
            assert any("model gap" in p for p in problems)

    def test_model_gap_counts_only_merged_scenes(self, tmp_path):
        # the same assets, on scenes of one texture class each, so the gap
        # fails one scene and the other two merge
        tiles, labels = make_texture_tiles(3, 30, tile_px=32, seed=4, with_buildings=True)
        hash_fn, table, registry = build_assets(tmp_path, tiles, labels, skip_bucket=1)
        blocks, classes = make_texture_tiles(3, 4, tile_px=64, seed=9, with_buildings=True)
        scenes = []
        for c in range(3):
            q = [b.pixels for b, label in zip(blocks, classes) if label == c]
            pixels = np.concatenate([np.concatenate(q[:2], 1), np.concatenate(q[2:], 1)], 0)
            scenes.append(write_scene(tmp_path / f"c{c}.rsr", pixels, 0.5, f"c{c}"))
        out = run_once(tmp_path, hash_fn, table, registry, scenes, workers=2)
        merged = [s for s in scenes if s.scene_id in out.masks]
        assert out.failures and merged
        m = out.metrics
        assert m.scenes == len(merged)
        assert m.tiles == 4 * len(merged)  # 128 px scenes in 64 px tiles
        assert m.area_sqkm == pytest.approx(sum(scene_area_sqkm(s) for s in merged))


def log_infer_calls(monkeypatch) -> list:
    """Patch ``LinearPixelModel.infer`` to append (model, tiles) to the returned list per call."""
    calls = []
    infer = LinearPixelModel.infer

    def logged(model, tiles):
        calls.append((model, tiles))
        return infer(model, tiles)

    monkeypatch.setattr(LinearPixelModel, "infer", logged)
    return calls


def random_model(rng, bands, scale):
    """A model whose scores straddle 0 on pixels drawn from 0..``scale``."""
    d = 2 * bands
    return LinearPixelModel(
        weights=rng.normal(size=d),
        bias=0.0,
        mu=np.full(d, scale / 2),
        sigma=np.full(d, scale / 4),
        bands=bands,
    )


def write_random_scene(path, rng, w, h, bands, dtype):
    if dtype is np.float32:
        pixels = (rng.random((h, w, bands)) * 255).astype(dtype)
    else:
        pixels = rng.integers(0, 256, size=(h, w, bands)).astype(dtype)
    return write_scene(path, pixels, 0.5, "s")


class TestLabel:
    """``PipelineAssets.label``, which uses only the model it is given."""

    device = PipelineAssets(hash_fn=None, centroids=None, model_gallery=None)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
    @pytest.mark.parametrize("bands", [1, 3])
    def test_chunk_masks_equal_per_tile_masks(self, tmp_path, monkeypatch, bands, dtype):
        rng = np.random.default_rng(bands)
        scene = write_random_scene(tmp_path / "s.rsr", rng, 100, 70, bands, dtype)
        model = random_model(rng, bands, 255)
        # 32 px tiles: 32x32 interior, 4x32 right, 32x6 bottom and 4x6 corner
        exts = tile_extents(scene, 32)
        calls = log_infer_calls(monkeypatch)
        ledger = ReadLedger()
        masks = self.device.label(model, scene, exts, ledger)
        # each run of one shape in plan order is one group
        assert [len(tiles) for _model, tiles in calls] == [3, 1, 3, 1, 3, 1]
        assert ledger.count("s", executor.STAGE_INFER) == len(exts)
        assert len(masks) == len(exts)
        ones = 0
        for ext, mask in zip(exts, masks):
            alone = model.infer([read_window(scene, ext, ReadLedger(), "x")])[0]
            assert (mask.w, mask.h) == (ext.w, ext.h)
            assert mask.labels.tobytes() == alone.labels.tobytes()
            ones += int(mask.labels.sum())
        assert 0 < ones < 100 * 70

    def test_groups_hold_at_most_group_pixels(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        scene = write_random_scene(tmp_path / "s.rsr", rng, 320, 224, 1, np.uint8)
        calls = log_infer_calls(monkeypatch)
        masks = self.device.label(random_model(rng, 1, 255), scene, tile_extents(scene, 32), ReadLedger())
        assert GROUP_PIXELS == 64 * 32 * 32
        assert [len(tiles) for _model, tiles in calls] == [64, 6]
        assert len(masks) == 70

    def test_chunk_of_large_tiles_is_read_one_group_at_a_time(self, tmp_path):
        # numpy reports its data buffers to tracemalloc. 256-px tiles fill a
        # group each, so a chunk is read, scored and let go tile by tile, and
        # labelling it peaks below holding its 12 windows at once.
        rng = np.random.default_rng(8)
        scene = write_random_scene(tmp_path / "s.rsr", rng, 1024, 768, 3, np.float32)
        exts = tile_extents(scene, 256)
        model = random_model(rng, 3, 255)
        assert len(exts) == 12
        self.device.label(model, scene, exts[:1], ReadLedger())
        tracemalloc.start()
        try:
            windows = [read_window(scene, ext, ReadLedger(), "x") for ext in exts]
            _, read_peak = tracemalloc.get_traced_memory()
            del windows
            tracemalloc.reset_peak()
            masks = self.device.label(model, scene, exts, ReadLedger())
            _, label_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(masks) == 12
        assert label_peak < read_peak, f"labelling peaked at {label_peak} bytes, reading at {read_peak}"


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

    def label(self, model, scene, exts, ledger):
        masks = []
        for ext in exts:
            self.labelled.append(ext)
            if ext == self.bad:
                raise RuntimeError("label failed")
            masks += super().label(model, scene, [ext], ledger)
        return masks


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
