"""Three-stage pipeline over a fixed worker pool, run against a device.

Stage layout per scene: (A) window read, descriptor, hash encode, bucket
assignment, gallery insert; (B) per-bucket batched inference on a second
window read; (C) single-worker merge into the full-scene mask. A tile enters
stage B only after its stage-A assignment exists, and a scene merges only
after all its tiles finish B; the engine runs A, B, C as barriered phases,
which satisfies both constraints and keeps the read ledger exactly at two
passes per scene.

The device is the only thing that differs between a real run and a
cost-model run. It offers four calls, which the stages make without branching:

    embed(scene, ext, ledger) -> (code, bucket)
    model(bucket, task) -> model, or ModelGapError
    label(model, scene, ext, ledger) -> Mask
    merge_pause(scene)

plus an ``image_gallery`` that stage A indexes its tiles into, or None.
``PipelineAssets`` is the real device: it reads windows, describes, hashes
and labels them with the fitted artifacts. ``SimulatedDevice`` does no pixel
work: it records the same ledger reads and sleeps as long as a device cost
model says, which is what the scaling-shape checks exercise.

The run's shape comes from the CLI's one ``RunConfig``. Descriptor and code
widths come from the fitted artifacts, so ``feature_dim`` and ``n_bits``
apply at ``partition`` only.

Workers hold a device ticket for the duration of any stage-A or stage-B
batch. Results are collected as immutable values and reassembled in plan
order, so masks and gallery contents do not depend on worker count or
schedule; ``workers=1`` is the fully serial determinism oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import RunConfig
from .embedding import extract_features
from .gallery import GalleryRecord, ImageGallery, ModelGallery, ModelGapError
from .hashing import BinaryCode, CentroidTable, HashFunction, assign_bucket, encode
from .models import BucketModel, load_model
from .pool import DevicePool
from .raster import (
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
# The paper's single-node time per scene (35 minutes), the speedup's baseline.
BASELINE_S_PER_SCENE = 2100.0


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class DeviceCostModel:
    """Synthetic device timing: a fixed cost per call plus a cost per pixel."""

    base_ms: float = 5.0
    ms_per_megapixel: float = 1.0

    def __post_init__(self):
        if min(self.base_ms, self.ms_per_megapixel) < 0:
            raise PipelineError("cost model coefficients must be non-negative")

    def service_s(self, w: int, h: int) -> float:
        return (self.base_ms + (w * h / 1e6) * self.ms_per_megapixel) / 1e3


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

    def finalize(self) -> "RunMetrics":
        self.speedup = compute_speedup(self, BASELINE_S_PER_SCENE)
        self.sqkm_per_s = self.area_sqkm / self.wall_s
        self.gb_per_s = self.bytes_read / 1e9 / self.wall_s
        self.images_per_s = self.tiles / self.wall_s
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def compute_speedup(metrics: RunMetrics, baseline: float) -> float:
    """Baseline per-scene time times scene count over measured wall seconds."""
    if metrics.scenes < 1:
        raise PipelineError("speedup needs at least one scene")
    if metrics.wall_s <= 0:
        raise PipelineError("speedup undefined for zero wall time")
    return baseline * metrics.scenes / metrics.wall_s


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
class PipelineAssets:
    """Fitted artifacts: the device of a real run.

    Tiles are described at the hash's input width. Its calls resolve
    ``read_window``, ``extract_features``, ``encode``, ``assign_bucket`` and
    ``load_model`` through this module's globals, so a tracer that replaces
    those names here sees every call.
    """

    hash_fn: HashFunction
    centroids: CentroidTable
    model_gallery: ModelGallery
    image_gallery: ImageGallery | None = None

    def embed(self, scene: SceneRef, ext: TileExtent, ledger: ReadLedger) -> tuple[BinaryCode, int]:
        tile = read_window(scene, ext, ledger, STAGE_EMBED)
        code = encode(self.hash_fn, extract_features(tile, self.hash_fn.dim))
        return code, assign_bucket(code, self.centroids)

    def model(self, bucket: int, task: str) -> BucketModel:
        record = self.model_gallery.lookup(self.centroids.codes[bucket], task)
        return load_model(record.artifact_path)

    def label(self, model: BucketModel, scene: SceneRef, ext: TileExtent, ledger: ReadLedger) -> Mask:
        return model.infer(read_window(scene, ext, ledger, STAGE_INFER))

    def merge_pause(self, scene: SceneRef) -> None:
        pass


class SimulatedDevice:
    """A device that does no pixel work and takes as long as a cost model says.

    Each tile records its window read in the ledger and sleeps for the cost
    model's service time of its extent; a tile's bucket is its row-major
    position in the tile plan modulo ``buckets``, and every label is all
    zeros. Merging a scene costs one service pass over its full area. Platform
    timers overshoot short sleeps, so each thread carries the time it still
    owes (negative after an overshoot) into its next sleep; a worker's total
    then matches the cost model instead of drifting by one overshoot per tile.
    """

    image_gallery = None

    def __init__(self, cost_model: DeviceCostModel, buckets: int, tile_px: int):
        self.cost_model = cost_model
        self.buckets = buckets
        self.tile_px = tile_px
        self._plans: dict[str, dict[TileExtent, int]] = {}
        self._owed = threading.local()

    def _pause(self, seconds: float) -> None:
        owed = getattr(self._owed, "s", 0.0) + seconds
        if owed > 0:
            t0 = time.perf_counter()
            time.sleep(owed)
            owed -= time.perf_counter() - t0
        self._owed.s = owed

    def _read(self, scene: SceneRef, ext: TileExtent, ledger: ReadLedger, stage: str) -> None:
        nbytes = ext.w * ext.h * scene.bands * scene.np_dtype.itemsize
        ledger.record(scene.scene_id, stage, nbytes)
        self._pause(self.cost_model.service_s(ext.w, ext.h))

    def embed(self, scene: SceneRef, ext: TileExtent, ledger: ReadLedger) -> tuple[None, int]:
        self._read(scene, ext, ledger, STAGE_EMBED)
        plan = self._plans.get(scene.scene_id)
        if plan is None:  # threads racing here build equal plans
            extents = tile_extents(scene, self.tile_px)
            plan = self._plans[scene.scene_id] = {e: j for j, e in enumerate(extents)}
        return None, plan[ext] % self.buckets

    def model(self, bucket: int, task: str) -> None:
        return None

    def label(self, model: None, scene: SceneRef, ext: TileExtent, ledger: ReadLedger) -> Mask:
        self._read(scene, ext, ledger, STAGE_INFER)
        return Mask(w=ext.w, h=ext.h, labels=np.zeros((ext.h, ext.w), dtype=np.uint8))

    def merge_pause(self, scene: SceneRef) -> None:
        self._pause(self.cost_model.service_s(scene.width_px, scene.height_px))


@dataclass
class RunOutput:
    masks: dict[str, Mask]
    metrics: RunMetrics
    failures: dict[str, list[str]] = field(default_factory=dict)


def _chunks(seq, size):
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _map_tasks(tasks, workers: int, fn) -> list:
    """Run fn(worker_id, task) over tasks on a pool of threads numbered 0..workers-1.

    Results return in task order regardless of schedule. The first error is
    re-raised once running tasks finish, and every task not yet started by
    then is skipped: ``map`` alone cancels only the futures still queued when
    the caller reaches the failed one, and a worker can start the next first.
    """
    worker_ids = itertools.count()
    worker = threading.local()
    failed = threading.Event()

    def name_worker():
        worker.id = next(worker_ids)

    def run(task):
        if failed.is_set():
            return None
        try:
            return fn(worker.id, task)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(workers, thread_name_prefix="worker", initializer=name_worker) as pool:
        return list(pool.map(run, tasks))


def run_pipeline(
    scenes: list[SceneRef],
    config: RunConfig,
    device,
    pool: DevicePool,
    ledger: ReadLedger | None = None,
) -> RunOutput:
    """Execute embed+assign, per-bucket inference, and per-scene merge on ``device``.

    ``config`` gives ``workers``, ``batch``, ``tile_px``, ``task``, ``seed``
    (the scheduler shuffle) and ``ticket_timeout_s``, and is validated
    (``ConfigError``) before any thread starts; its ``feature_dim`` and
    ``n_bits`` are unused, as the device's artifacts fix both. ``pool``
    hands out the tickets. ``device`` is ``PipelineAssets`` for a real run or
    ``SimulatedDevice`` for a cost-model run. A bucket whose model lookup
    raises ``ModelGapError`` fails only that bucket's tiles; every scene it
    touches is reported in ``failures`` and left unmerged. Any other error
    stops the run: tasks not yet started are dropped, running ones finish and
    return their tickets, and the error is re-raised.
    """
    config.validate()
    if not scenes:
        raise PipelineError("no scenes to run")
    ledger = ledger if ledger is not None else ReadLedger()
    rng = random.Random(config.seed)
    plans = [tile_extents(scene, config.tile_px) for scene in scenes]
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
        ticket = pool.checkout(worker_id, timeout=config.ticket_timeout_s)
        try:
            return [(si, ext, *device.embed(scenes[si], ext, ledger)) for ext in chunk]
        finally:
            pool.return_ticket(ticket)

    a_results = [item for batch in _map_tasks(a_tasks, config.workers, do_stage_a) for item in batch]
    a_results.sort(key=lambda r: (r[0], r[1].y0, r[1].x0))
    if device.image_gallery is not None:
        for si, ext, code, bucket in a_results:
            device.image_gallery.insert(
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
    for bucket in dict.fromkeys(b for _si, b in sorted(by_scene_bucket)):
        try:
            models[bucket] = device.model(bucket, config.task)
        except ModelGapError as e:
            for (sj, bj), exts in sorted(by_scene_bucket.items()):
                if bj != bucket:
                    continue
                failed_scenes.add(sj)
                failures.setdefault(scenes[sj].scene_id, []).append(
                    f"{e} ({len(exts)} tiles skipped)"
                )

    b_tasks = []
    for (si, bucket), exts in sorted(by_scene_bucket.items()):
        if bucket not in models:
            continue
        for chunk in _chunks(exts, config.batch):
            b_tasks.append((si, bucket, chunk))
    rng.shuffle(b_tasks)

    def do_stage_b(worker_id: int, payload):
        si, bucket, chunk = payload
        scene = scenes[si]
        ticket = pool.checkout(worker_id, timeout=config.ticket_timeout_s)
        try:
            out = []
            for ext in chunk:
                mask = device.label(models[bucket], scene, ext, ledger)
                mask.provenance[ext] = bucket
                out.append((scene.scene_id, ext, mask))
            return out
        finally:
            pool.return_ticket(ticket)

    b_results = [item for batch in _map_tasks(b_tasks, config.workers, do_stage_b) for item in batch]
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
        device.merge_pause(scene)
        mask = merge_tiles(scene.scene_id, labeled, width=scene.width_px, height=scene.height_px)
        return scene.scene_id, mask

    masks = dict(_map_tasks(merge_order, config.workers, do_stage_c))
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
    """Descriptor-only scenes for ``SimulatedDevice`` runs; never read from disk."""
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
) -> float:
    """Analytic queue model for ``SimulatedDevice`` wall time.

    Stages A and B are a single pool-limited phase: their summed serial cost
    divided by min(workers, tickets_total). Merging is serial per scene and
    parallel across scenes up to the worker count; its per-scene cost is the
    cost model's full-scene service time, matching ``SimulatedDevice.merge_pause``.
    """
    total = 0.0
    for scene in scenes:
        for ext in tile_extents(scene, tile_px):
            total += 2.0 * cost_model.service_s(ext.w, ext.h)
    merge_s = max(cost_model.service_s(s.width_px, s.height_px) for s in scenes)
    conc = min(workers, tickets_total)
    merge_conc = min(workers, len(scenes))
    return total / conc + merge_s * math.ceil(len(scenes) / merge_conc)
