"""Three-stage pipeline over a fixed worker pool, run against a device.

Stage layout per scene: (A) window reads, one descriptor call per chunk,
hash encode, bucket assignment, gallery insert; (B) per-bucket batched
inference on a second window read; (C) single-worker merge into the
full-scene mask. A tile enters stage B only after its stage-A assignment
exists, and a scene merges only after all its tiles finish B; the engine
runs A, B, C as barriered phases, which satisfies both constraints and keeps
the read ledger exactly at two passes per scene.

The device offers three calls, which the stages make without branching:

    embed(scene, exts, ledger) -> [(code, bucket)], one per extent
    model(bucket, task) -> model, or ModelGapError
    label(model, scene, exts, ledger) -> [Mask], one per extent

plus an ``image_gallery`` that stage A indexes its tiles into, or None. Stage
A makes one ``embed`` call per chunk and stage B one ``label`` call per chunk
of one scene and bucket.
``PipelineAssets`` is the device: it reads windows, describes, hashes and
labels them with the fitted artifacts. Stage C merges on the host and makes
no device call.

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
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from .config import RunConfig
from .embedding import GROUP_PIXELS, extract_features
from .gallery import GalleryRecord, ImageGallery, ModelGallery, ModelGapError
from .hashing import BinaryCode, CentroidTable, HashFunction, assign_bucket, encode
from .models import LinearPixelModel, load_model
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
        """Fill in the rates; the speedup is the baseline time of ``scenes`` over ``wall_s``."""
        if self.scenes < 1:
            raise PipelineError("speedup needs at least one scene")
        if self.wall_s <= 0:
            raise PipelineError("speedup undefined for zero wall time")
        self.speedup = BASELINE_S_PER_SCENE * self.scenes / self.wall_s
        self.sqkm_per_s = self.area_sqkm / self.wall_s
        self.gb_per_s = self.bytes_read / 1e9 / self.wall_s
        self.images_per_s = self.tiles / self.wall_s
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


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
    """Fitted artifacts: the device that ``infer`` and ``bench`` run on.

    ``embed`` reads a stage-A chunk's windows one by one and describes the
    chunk in one ``extract_features`` call at the hash's input width; its
    rows equal the per-tile descriptors byte for byte, and its float64
    temporaries stay within one 256x256 band (see ``extract_features``).
    Each row is then encoded and assigned on its own.

    ``label`` splits a stage-B chunk into the groups ``extract_features``
    stacks: consecutive extents of one shape, at most ``GROUP_PIXELS``
    pixels per band. It reads a group's windows one by one, scores the
    group in one ``LinearPixelModel.infer`` call and lets it go before it
    reads the next, so a 256-px tile is read and scored alone. Each mask
    equals the tile's own ``infer([tile])`` mask.

    The calls resolve ``read_window``, ``extract_features``, ``encode``,
    ``assign_bucket`` and ``load_model`` through this module's globals, so a
    tracer that replaces those names here sees every call: ``read_window``
    once per window in both stages, ``encode`` and ``assign_bucket`` once
    per row, ``extract_features`` once per stage-A chunk and
    ``LinearPixelModel.infer`` once per stage-B group.
    """

    hash_fn: HashFunction
    centroids: CentroidTable
    model_gallery: ModelGallery
    image_gallery: ImageGallery | None = None

    def embed(
        self, scene: SceneRef, exts: list[TileExtent], ledger: ReadLedger
    ) -> list[tuple[BinaryCode, int]]:
        tiles = [read_window(scene, ext, ledger, STAGE_EMBED) for ext in exts]
        codes = [encode(self.hash_fn, row) for row in extract_features(tiles, self.hash_fn.dim)]
        return [(code, assign_bucket(code, self.centroids)) for code in codes]

    def model(self, bucket: int, task: str) -> LinearPixelModel:
        record = self.model_gallery.lookup(self.centroids.codes[bucket], task)
        return load_model(record.artifact_path)

    def label(
        self, model: LinearPixelModel, scene: SceneRef, exts: list[TileExtent], ledger: ReadLedger
    ) -> list[Mask]:
        masks = []
        for (h, w), run in itertools.groupby(exts, key=lambda ext: (ext.h, ext.w)):
            run = list(run)
            step = max(1, GROUP_PIXELS // (h * w))
            for k in range(0, len(run), step):
                group = run[k : k + step]
                masks += model.infer([read_window(scene, ext, ledger, STAGE_INFER) for ext in group])
        return masks


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
    hands out the tickets. ``device`` makes the three calls of the module
    docstring; the CLI passes ``PipelineAssets``. A bucket whose model lookup
    raises ``ModelGapError`` fails only that bucket's tiles; every scene it
    touches is reported in ``failures``, left unmerged and left out of the
    metrics' scene, tile and area counts. Any other error stops the run:
    tasks not yet started are dropped, running ones finish and return their
    tickets, and the error is re-raised.
    """
    config.validate()
    if not scenes:
        raise PipelineError("no scenes to run")
    ledger = ledger if ledger is not None else ReadLedger()
    rng = random.Random(config.seed)
    plans = [tile_extents(scene, config.tile_px) for scene in scenes]
    metrics = RunMetrics()
    t_start = time.perf_counter()

    # Stage A: embed, encode, assign; one ticket and one embed call per batch.
    a_tasks = []
    for si, plan in enumerate(plans):
        for chunk in _chunks(plan, config.batch):
            a_tasks.append((si, chunk))
    rng.shuffle(a_tasks)

    def do_stage_a(worker_id: int, payload):
        si, chunk = payload
        ticket = pool.checkout(worker_id, timeout=config.ticket_timeout_s)
        try:
            embedded = device.embed(scenes[si], chunk, ledger)
            return [(si, ext, code, bucket) for ext, (code, bucket) in zip(chunk, embedded)]
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
    models: dict[int, LinearPixelModel] = {}
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
            for ext, mask in zip(chunk, device.label(models[bucket], scene, chunk, ledger)):
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
        mask = merge_tiles(scene.scene_id, labeled, width=scene.width_px, height=scene.height_px)
        return scene.scene_id, mask

    masks = dict(_map_tasks(merge_order, config.workers, do_stage_c))
    t_c = time.perf_counter()
    metrics.stage_c_s = t_c - t_b
    metrics.wall_s = t_c - t_start
    metrics.bytes_read = ledger.bytes_read
    # Scene, tile and area counts cover the merged scenes only.
    mapped = [si for si, scene in enumerate(scenes) if scene.scene_id in masks]
    metrics.scenes = len(mapped)
    metrics.tiles = sum(len(plans[si]) for si in mapped)
    metrics.area_sqkm = sum(scene_area_sqkm(scenes[si]) for si in mapped)
    for si, scene in enumerate(scenes):
        n = len(plans[si])
        passes = (
            ledger.count(scene.scene_id, STAGE_EMBED) + ledger.count(scene.scene_id, STAGE_INFER)
        ) / n
        metrics.reads_per_scene[scene.scene_id] = passes
    return RunOutput(masks=masks, metrics=metrics, failures=failures)

