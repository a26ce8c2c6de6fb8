"""Three-stage pipeline over a fixed worker pool with ticketed device access.

Stage layout per scene: (A) window read, descriptor, hash encode, bucket
assignment, gallery insert; (B) per-bucket batched inference on a second
window read; (C) single-worker merge into the full-scene mask. A tile enters
stage B only after its stage-A assignment exists, and a scene merges only
after all its tiles finish B; the engine runs A, B, C as barriered phases,
which satisfies both constraints and keeps the read ledger exactly at two
passes per scene.

Workers hold a device ticket for the duration of any stage-A or stage-B
batch. Results are collected as immutable values and reassembled in plan
order, so masks and gallery contents do not depend on worker count or
schedule; ``workers=1`` is the fully serial determinism oracle.

Simulate mode replaces pixel work with a device cost model (sleeps sized by
tile area and window bytes) while keeping the scheduling, ticketing, ledger
accounting, and merge paths real, which is what the scaling-shape checks
exercise.
"""

from __future__ import annotations

import json
import math
import queue
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .embedding import FeatureConfig, extract_features
from .gallery import GalleryRecord, ImageGallery, ModelGallery, ModelGapError
from .hashing import BinaryCode, CentroidTable, HashFunction, assign_bucket, encode
from .models import BucketModel, load_model
from .pool import DevicePool
from .raster import (
    DTYPES,
    Mask,
    ReadLedger,
    SceneRef,
    TileExtent,
    merge_tiles,
    read_window,
    scene_area_sqkm,
    tile_extents,
)

STAGE_EMBED = "embed"
STAGE_INFER = "infer"


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class DeviceCostModel:
    """Synthetic device timing: per-tile service plus per-window I/O."""

    base_ms: float = 5.0
    ms_per_megapixel: float = 1.0
    io_ms_per_megabyte: float = 0.0

    def __post_init__(self):
        if min(self.base_ms, self.ms_per_megapixel, self.io_ms_per_megabyte) < 0:
            raise PipelineError("cost model coefficients must be non-negative")

    def service_s(self, w: int, h: int) -> float:
        return (self.base_ms + (w * h / 1e6) * self.ms_per_megapixel) / 1e3

    def io_s(self, nbytes: int) -> float:
        return (nbytes / 1e6) * self.io_ms_per_megabyte / 1e3

    def tile_cost_s(self, extent: TileExtent, bands: int, itemsize: int) -> float:
        nbytes = extent.w * extent.h * bands * itemsize
        return self.service_s(extent.w, extent.h) + self.io_s(nbytes)


@dataclass
class RunMetrics:
    """Primitive counters plus rates derived from them."""

    wall_s: float = 0.0
    stage_a_s: float = 0.0
    stage_b_s: float = 0.0
    stage_c_s: float = 0.0
    scenes: int = 0
    tiles: int = 0
    bytes_read: int = 0
    reads_per_scene: dict[str, float] = field(default_factory=dict)
    area_sqkm: float = 0.0
    speedup: float | None = None
    sqkm_per_s: float = 0.0
    gb_per_s: float = 0.0
    images_per_s: float = 0.0

    def finalize(self, baseline_s_per_scene: float) -> "RunMetrics":
        self.speedup = compute_speedup(self, baseline_s_per_scene)
        self.sqkm_per_s = self.area_sqkm / self.wall_s
        self.gb_per_s = self.bytes_read / 1e9 / self.wall_s
        self.images_per_s = self.tiles / self.wall_s
        return self

    def to_json_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "stage_a_s": self.stage_a_s,
            "stage_b_s": self.stage_b_s,
            "stage_c_s": self.stage_c_s,
            "scenes": self.scenes,
            "tiles": self.tiles,
            "bytes_read": self.bytes_read,
            "reads_per_scene": self.reads_per_scene,
            "area_sqkm": self.area_sqkm,
            "speedup": self.speedup,
            "sqkm_per_s": self.sqkm_per_s,
            "gb_per_s": self.gb_per_s,
            "images_per_s": self.images_per_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def compute_speedup(metrics: RunMetrics, baseline_s_per_scene: float) -> float:
    """Baseline per-scene time times scene count over measured wall seconds."""
    if metrics.scenes < 1:
        raise PipelineError("speedup needs at least one scene")
    if metrics.wall_s <= 0:
        raise PipelineError("speedup undefined for zero wall time")
    return baseline_s_per_scene * metrics.scenes / metrics.wall_s


def area_rate(metrics: RunMetrics) -> tuple[float, float]:
    """(sq.km per second, sq.km per day)."""
    if metrics.wall_s <= 0 or metrics.area_sqkm <= 0:
        raise PipelineError("area rate needs positive area and wall time")
    rate = metrics.area_sqkm / metrics.wall_s
    return rate, rate * 86_400.0


def group_by_scene(results) -> dict[str, list[tuple[TileExtent, Mask]]]:
    """Partition (scene_id, extent, mask) triples by scene, sorted by (y0, x0).

    Output is independent of arrival order.
    """
    grouped: dict[str, list[tuple[TileExtent, Mask]]] = {}
    for scene_id, extent, mask in results:
        grouped.setdefault(scene_id, []).append((extent, mask))
    for items in grouped.values():
        items.sort(key=lambda t: (t[0].y0, t[0].x0))
    return grouped


@dataclass
class ExecutorConfig:
    """Run-shape knobs for one pipeline invocation; the pool rides along."""

    pool: DevicePool
    workers: int = 4
    batch: int = 12
    tile_px: int = 500
    overlap_px: int = 0
    simulate: bool = False
    cost_model: DeviceCostModel = field(default_factory=DeviceCostModel)
    task: str = "building"
    scheduler_seed: int = 0
    ticket_timeout_s: float = 30.0
    sim_buckets: int = 6

    def __post_init__(self):
        if self.workers < 1:
            raise PipelineError("workers must be >= 1")
        if self.batch < 1:
            raise PipelineError("batch must be >= 1")


@dataclass
class PipelineAssets:
    """Fitted artifacts the real-mode pipeline runs against."""

    hash_fn: HashFunction
    centroids: CentroidTable
    model_gallery: ModelGallery
    image_gallery: ImageGallery | None = None
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)

    def load_bucket_model(self, record) -> BucketModel:
        return load_model(record.artifact_path)


@dataclass
class RunOutput:
    masks: dict[str, Mask]
    metrics: RunMetrics
    failures: dict[str, list[str]] = field(default_factory=dict)


def _run_tasks(tasks, workers: int, fn):
    """Run fn(worker_id, payload) over tasks on a fixed thread pool.

    Results return in task order regardless of schedule; the first worker
    error aborts the remaining tasks and is re-raised.
    """
    if not tasks:
        return []
    q: queue.Queue = queue.Queue()
    for item in enumerate(tasks):
        q.put(item)
    results = [None] * len(tasks)
    errors: list[BaseException] = []
    abort = threading.Event()

    def loop(worker_id: int):
        while True:
            try:
                i, payload = q.get_nowait()
            except queue.Empty:
                return
            if abort.is_set():
                continue
            try:
                results[i] = fn(worker_id, payload)
            except BaseException as e:  # noqa: BLE001 - propagated to driver
                errors.append(e)
                abort.set()

    threads = [
        threading.Thread(target=loop, args=(w,), name=f"worker-{w}", daemon=True)
        for w in range(workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _chunks(seq, size):
    return [seq[i : i + size] for i in range(0, len(seq), size)]


class _SimPacer:
    """Per-worker simulated-time pacing.

    Platform timers overshoot short sleeps; tracking the cumulative owed
    time per worker keeps each worker's total simulated duration at the
    cost model's intent instead of drifting by one overshoot per tile.
    """

    def __init__(self):
        self._owed: dict[int, float] = {}

    def sleep(self, worker_id: int, seconds: float) -> None:
        owed = self._owed.get(worker_id, 0.0) + seconds
        if owed > 0:
            t0 = time.perf_counter()
            time.sleep(owed)
            owed -= time.perf_counter() - t0
        self._owed[worker_id] = owed


def run_pipeline(
    scenes: list[SceneRef],
    config: ExecutorConfig,
    assets: PipelineAssets | None = None,
    ledger: ReadLedger | None = None,
) -> RunOutput:
    """Execute embed+assign, per-bucket inference, and per-scene merge.

    Real mode needs fitted assets (hash, centroids, a model per bucket for
    the configured task); a missing bucket model fails only that bucket's
    tiles and is reported per scene. Simulate mode needs none of them.
    """
    if not scenes:
        raise PipelineError("no scenes to run")
    if not config.simulate and assets is None:
        raise PipelineError("real-mode run requires pipeline assets")
    ledger = ledger if ledger is not None else ReadLedger()
    pool = config.pool
    rng = random.Random(config.scheduler_seed)
    pacer = _SimPacer()
    plans = [tile_extents(scene, config.tile_px, config.overlap_px) for scene in scenes]
    tile_index = {
        (si, ext): j for si, plan in enumerate(plans) for j, ext in enumerate(plan)
    }
    metrics = RunMetrics(
        scenes=len(scenes),
        tiles=sum(len(p) for p in plans),
        area_sqkm=sum(scene_area_sqkm(s) for s in scenes),
    )
    t_start = time.perf_counter()

    # Stage A: embed, encode, assign; one ticket per batch.
    a_tasks = []
    for si, plan in enumerate(plans):
        for chunk in _chunks(plan, config.batch):
            a_tasks.append((si, chunk))
    rng.shuffle(a_tasks)

    def do_stage_a(worker_id: int, payload):
        si, chunk = payload
        scene = scenes[si]
        itemsize = DTYPES[scene.dtype].itemsize
        ticket = pool.checkout(worker_id, timeout=config.ticket_timeout_s)
        try:
            out = []
            for ext in chunk:
                if config.simulate:
                    nbytes = ext.w * ext.h * scene.bands * itemsize
                    ledger.record(scene.scene_id, STAGE_EMBED, nbytes)
                    pacer.sleep(worker_id, config.cost_model.tile_cost_s(ext, scene.bands, itemsize))
                    code = None
                    bucket = tile_index[(si, ext)] % config.sim_buckets
                else:
                    tile = read_window(scene, ext, ledger, STAGE_EMBED)
                    emb = extract_features(tile, assets.feature_config)
                    code = encode(assets.hash_fn, emb)
                    bucket = assign_bucket(code, assets.centroids)
                out.append((si, ext, code, bucket))
            return out
        finally:
            pool.return_ticket(ticket)

    a_results = [item for batch in _run_tasks(a_tasks, config.workers, do_stage_a) for item in batch]
    a_results.sort(key=lambda r: (r[0], r[1].y0, r[1].x0))
    if not config.simulate and assets.image_gallery is not None:
        for si, ext, code, bucket in a_results:
            assets.image_gallery.insert(
                GalleryRecord(
                    code=code,
                    bucket_id=bucket,
                    scene_id=scenes[si].scene_id,
                    extent=ext,
                    storage_path=scenes[si].path,
                )
            )
    t_a = time.perf_counter()
    metrics.stage_a_s = t_a - t_start

    # Stage B: per-(scene, bucket) inference batches.
    by_scene_bucket: dict[tuple[int, int], list[TileExtent]] = {}
    for si, ext, _code, bucket in a_results:
        by_scene_bucket.setdefault((si, bucket), []).append(ext)

    failures: dict[str, list[str]] = {}
    models: dict[int, BucketModel] = {}
    failed_scenes: set[int] = set()
    if not config.simulate:
        for (si, bucket) in sorted(by_scene_bucket):
            if bucket in models:
                continue
            centroid = dict(assets.centroids.items())[bucket]
            try:
                record = assets.model_gallery.lookup(centroid, config.task)
            except ModelGapError as e:
                models[bucket] = None
                for (sj, bj), exts in sorted(by_scene_bucket.items()):
                    if bj != bucket:
                        continue
                    failed_scenes.add(sj)
                    failures.setdefault(scenes[sj].scene_id, []).append(
                        f"{e} ({len(exts)} tiles skipped)"
                    )
                continue
            models[bucket] = assets.load_bucket_model(record)

    b_tasks = []
    for (si, bucket), exts in sorted(by_scene_bucket.items()):
        if not config.simulate and models.get(bucket) is None:
            continue
        for chunk in _chunks(exts, config.batch):
            b_tasks.append((si, bucket, chunk))
    rng.shuffle(b_tasks)

    def do_stage_b(worker_id: int, payload):
        si, bucket, chunk = payload
        scene = scenes[si]
        itemsize = DTYPES[scene.dtype].itemsize
        ticket = pool.checkout(worker_id, timeout=config.ticket_timeout_s)
        try:
            out = []
            for ext in chunk:
                if config.simulate:
                    nbytes = ext.w * ext.h * scene.bands * itemsize
                    ledger.record(scene.scene_id, STAGE_INFER, nbytes)
                    pacer.sleep(worker_id, config.cost_model.tile_cost_s(ext, scene.bands, itemsize))
                    mask = Mask(w=ext.w, h=ext.h, labels=np.zeros((ext.h, ext.w), dtype=np.uint8))
                else:
                    tile = read_window(scene, ext, ledger, STAGE_INFER)
                    mask = models[bucket].infer(tile)
                mask.provenance[ext] = bucket
                out.append((scene.scene_id, ext, mask))
            return out
        finally:
            pool.return_ticket(ticket)

    b_results = [item for batch in _run_tasks(b_tasks, config.workers, do_stage_b) for item in batch]
    t_b = time.perf_counter()
    metrics.stage_b_s = t_b - t_a

    # Stage C: merge each complete scene exactly once, on a single worker.
    grouped = group_by_scene(b_results)
    merge_order = [
        scenes[si] for si in range(len(scenes))
        if si not in failed_scenes and scenes[si].scene_id in grouped
    ]

    def do_stage_c(worker_id: int, scene: SceneRef):
        labeled = grouped[scene.scene_id]
        if config.simulate:
            # Reconstruction cost: one service pass over the full scene area.
            pacer.sleep(worker_id, config.cost_model.service_s(scene.width_px, scene.height_px))
        mask = merge_tiles(scene.scene_id, labeled, width=scene.width_px, height=scene.height_px)
        return scene.scene_id, mask

    masks = dict(_run_tasks(merge_order, config.workers, do_stage_c))
    t_c = time.perf_counter()
    metrics.stage_c_s = t_c - t_b
    metrics.wall_s = t_c - t_start
    metrics.bytes_read = ledger.bytes_read
    for si, scene in enumerate(scenes):
        n = len(plans[si])
        passes = (
            ledger.count(scene.scene_id, STAGE_EMBED) + ledger.count(scene.scene_id, STAGE_INFER)
        ) / n
        metrics.reads_per_scene[scene.scene_id] = passes
    return RunOutput(masks=masks, metrics=metrics, failures=failures)


def make_virtual_scenes(
    count: int,
    width_px: int,
    height_px: int,
    bands: int = 3,
    dtype: str = "u8",
    gsd_m: float = 0.5,
) -> list[SceneRef]:
    """Descriptor-only scenes for simulate-mode runs; never read from disk."""
    return [
        SceneRef(
            scene_id=f"sim{i:03d}",
            path=f"sim://scene/{i}",
            width_px=width_px,
            height_px=height_px,
            bands=bands,
            dtype=dtype,
            gsd_m=gsd_m,
        )
        for i in range(count)
    ]


def predicted_wall_s(
    scenes: list[SceneRef],
    cost_model: DeviceCostModel,
    tile_px: int,
    workers: int,
    tickets_total: int,
    overlap_px: int = 0,
    merge_s_per_scene: float | None = None,
) -> float:
    """Analytic queue model for simulate-mode wall time.

    Stages A and B are a single pool-limited phase: their summed serial cost
    divided by min(workers, tickets_total). Merging is serial per scene and
    parallel across scenes up to the worker count; its default per-scene cost
    is the cost model's full-scene service time, matching simulate-mode runs.
    """
    total = 0.0
    for scene in scenes:
        itemsize = DTYPES[scene.dtype].itemsize
        for ext in tile_extents(scene, tile_px, overlap_px):
            total += 2.0 * cost_model.tile_cost_s(ext, scene.bands, itemsize)
    if merge_s_per_scene is None:
        merge_s_per_scene = max(
            cost_model.service_s(s.width_px, s.height_px) for s in scenes
        )
    conc = min(workers, tickets_total)
    merge_conc = min(workers, len(scenes))
    return total / conc + merge_s_per_scene * math.ceil(len(scenes) / merge_conc)
