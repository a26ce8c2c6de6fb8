"""Test-only devices, scenes and tiles.

``SimulatedDevice`` runs ``run_pipeline``'s scheduling with no pixel work:
each call records its window read and sleeps as long as a ``DeviceCostModel``
says, and ``predicted_wall_s`` is the queue model its wall time is checked
against. ``split_mask`` cuts a mask along the scene grid, the inverse of
``merge_tiles``; ``make_texture_tiles`` draws standalone labeled tiles from
the synthetic texture signatures.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from resflow.executor import STAGE_EMBED, STAGE_INFER, PipelineError
from resflow.raster import Mask, ReadLedger, SceneRef, Tile, TileExtent, grid_extents, tile_extents
from resflow.synth import SIGNATURES, _paint_region, _place_buildings


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


class SimulatedDevice:
    """A device that does no pixel work and takes as long as a cost model says.

    Each tile records its window read in the ledger and sleeps for the cost
    model's service time of its extent; a tile's bucket is its row-major
    position in the tile plan modulo ``buckets``, and every label is all
    zeros. Platform timers overshoot short sleeps, so each thread carries the
    time it still owes (negative after an overshoot) into its next sleep; a
    worker's total then matches the cost model instead of drifting by one
    overshoot per tile.
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

    def embed(
        self, scene: SceneRef, exts: list[TileExtent], ledger: ReadLedger
    ) -> list[tuple[None, int]]:
        plan = self._plans.get(scene.scene_id)
        if plan is None:  # threads racing here build equal plans
            extents = tile_extents(scene, self.tile_px)
            plan = self._plans[scene.scene_id] = {e: j for j, e in enumerate(extents)}
        for ext in exts:
            self._read(scene, ext, ledger, STAGE_EMBED)
        return [(None, plan[ext] % self.buckets) for ext in exts]

    def model(self, bucket: int, task: str) -> None:
        return None

    def label(
        self, model: None, scene: SceneRef, exts: list[TileExtent], ledger: ReadLedger
    ) -> list[Mask]:
        masks = []
        for ext in exts:
            self._read(scene, ext, ledger, STAGE_INFER)
            masks.append(Mask(w=ext.w, h=ext.h, labels=np.zeros((ext.h, ext.w), dtype=np.uint8)))
        return masks


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
            data_offset=0,
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
    divided by min(workers, tickets_total). The stage-C merge makes no device
    call, so the model leaves it out.
    """
    total = 0.0
    for scene in scenes:
        for ext in tile_extents(scene, tile_px):
            total += 2.0 * cost_model.service_s(ext.w, ext.h)
    return total / min(workers, tickets_total)


def split_mask(scene_id: str, mask: Mask, tile_px: int) -> list[tuple[TileExtent, Mask]]:
    """Cut a mask into per-extent masks along the same grid used for scenes."""
    out = []
    for ext in grid_extents(scene_id, mask.w, mask.h, tile_px):
        block = mask.labels[ext.y0 : ext.y0 + ext.h, ext.x0 : ext.x0 + ext.w]
        out.append((ext, Mask(w=ext.w, h=ext.h, labels=block.copy())))
    return out


def make_texture_tiles(
    k: int,
    per_cluster: int,
    tile_px: int = 48,
    seed: int = 0,
    with_buildings: bool = False,
):
    """Standalone labeled tiles drawn from the texture signatures.

    Returns (tiles, labels) where labels are the generating distribution ids.
    """
    if k > len(SIGNATURES):
        raise ValueError(f"at most {len(SIGNATURES)} texture distributions available, got {k}")
    rng = np.random.default_rng(seed)
    tiles, labels = [], []
    order = np.resize(np.arange(k), k * per_cluster)
    for i, dist in enumerate(order):
        sig = SIGNATURES[int(dist)]
        block = _paint_region(rng, sig, tile_px, tile_px)
        if with_buildings:
            truth = np.zeros((tile_px, tile_px), dtype=np.uint8)
            block, _, _ = _place_buildings(rng, sig, block, truth, tile_px, tile_px)
        ext = TileExtent(f"synthetic{i:04d}", 0, 0, tile_px, tile_px)
        tiles.append(Tile(extent=ext, pixels=np.clip(block, 0, 255).astype(np.uint8)))
        labels.append(int(dist))
    return tiles, np.array(labels)
