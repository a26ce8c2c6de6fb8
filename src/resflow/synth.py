"""Seeded synthetic scene generator with exact ground truth.

Scenes are mosaics of tile-aligned texture regions, each drawn from one of a
small set of signatures with distinct band means, noise levels, and stripe
patterns, so the intended bucket of every tile is known. Rectangular
"building" objects are embedded brighter than their local background with a
safe margin, and the truth masks record them exactly. The same seed always
produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .raster import Mask, SceneRef, grid_extents, write_mask, write_scene

BUILDING_OFFSET = 60.0
BUILDING_NOISE = 3.0


@dataclass(frozen=True)
class TextureSignature:
    base: tuple[float, float, float]
    noise: float
    stripes: tuple[str, int, float] | None = None  # (axis, period, amplitude)


SIGNATURES = [
    TextureSignature(base=(40.0, 62.0, 48.0), noise=5.0),
    TextureSignature(base=(78.0, 70.0, 95.0), noise=8.0),
    TextureSignature(base=(118.0, 108.0, 72.0), noise=6.0, stripes=("h", 8, 10.0)),
    TextureSignature(base=(150.0, 152.0, 148.0), noise=9.0),
    TextureSignature(base=(188.0, 175.0, 160.0), noise=5.0, stripes=("v", 6, 8.0)),
    TextureSignature(base=(60.0, 115.0, 178.0), noise=7.0),
    TextureSignature(base=(25.0, 30.0, 120.0), noise=4.0, stripes=("h", 12, 6.0)),
    TextureSignature(base=(135.0, 55.0, 60.0), noise=6.0),
]


def _paint_region(rng: np.random.Generator, sig: TextureSignature, h: int, w: int) -> np.ndarray:
    block = np.array(sig.base)[None, None, :] + rng.normal(0.0, sig.noise, size=(h, w, 3))
    if sig.stripes is not None:
        axis, period, amp = sig.stripes
        idx = np.arange(h) if axis == "h" else np.arange(w)
        wave = ((idx // period) % 2).astype(np.float64) * amp
        block += wave[:, None, None] if axis == "h" else wave[None, :, None]
    return block


def _place_buildings(rng, sig, block, truth, cell_h, cell_w):
    # Few small buildings per cell: keeps tile descriptors texture-dominated
    # while every training cell still carries both classes.
    rects = []
    count = int(rng.integers(1, 3))
    for _ in range(count):
        bh = int(rng.integers(max(cell_h // 12, 3), max(cell_h // 8, 4)))
        bw = int(rng.integers(max(cell_w // 12, 3), max(cell_w // 8, 4)))
        margin = 2
        y = int(rng.integers(margin, max(cell_h - bh - margin, margin + 1)))
        x = int(rng.integers(margin, max(cell_w - bw - margin, margin + 1)))
        level = np.array(sig.base) + BUILDING_OFFSET
        block[y : y + bh, x : x + bw, :] = level[None, None, :] + rng.normal(
            0.0, BUILDING_NOISE, size=(bh, bw, 3)
        )
        truth[y : y + bh, x : x + bw] = 1
        rects.append((x, y, bw, bh))
    return block, truth, rects


@dataclass
class SynthDataset:
    out_dir: Path
    manifest_path: Path
    scene_paths: dict[str, Path]
    truth_paths: dict[str, Path]
    records: dict


def generate_dataset(out_dir, config: RunConfig) -> SynthDataset:
    """Write scenes, truth masks, a manifest, and the generator record file."""
    k = config.distributions
    if k > len(SIGNATURES):
        raise ValueError(f"at most {len(SIGNATURES)} texture distributions available, got {k}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    records: dict = {"seed": config.seed, "distributions": k, "scenes": {}}
    scene_paths: dict[str, Path] = {}
    truth_paths: dict[str, Path] = {}
    manifest_lines = []

    for i in range(config.scenes):
        scene_id = f"scene{i:03d}"
        cells = [
            (ext.x0, ext.y0, ext.w, ext.h)
            for ext in grid_extents(scene_id, config.scene_px, config.scene_px, config.tile_px)
        ]
        # Balanced coverage of all distributions, order shuffled per scene.
        dist_ids = np.resize(np.arange(k), len(cells))
        rng.shuffle(dist_ids)
        pixels = np.zeros((config.scene_px, config.scene_px, 3), dtype=np.float64)
        truth = np.zeros((config.scene_px, config.scene_px), dtype=np.uint8)
        cell_records = []
        building_rects = []
        for (x0, y0, w, h), dist in zip(cells, dist_ids):
            sig = SIGNATURES[int(dist)]
            block = _paint_region(rng, sig, h, w)
            cell_truth = np.zeros((h, w), dtype=np.uint8)
            block, cell_truth, rects = _place_buildings(rng, sig, block, cell_truth, h, w)
            pixels[y0 : y0 + h, x0 : x0 + w, :] = block
            truth[y0 : y0 + h, x0 : x0 + w] = cell_truth
            cell_records.append({"x0": x0, "y0": y0, "w": w, "h": h, "dist": int(dist)})
            building_rects.extend([x0 + bx, y0 + by, bw, bh] for bx, by, bw, bh in rects)
        scene_path = out_dir / f"{scene_id}.rsr"
        truth_path = out_dir / f"{scene_id}.truth.rsr"
        write_scene(scene_path, np.clip(pixels, 0, 255).astype(np.uint8), config.gsd_m, scene_id)
        write_mask(truth_path, Mask(w=config.scene_px, h=config.scene_px, labels=truth), config.gsd_m)
        scene_paths[scene_id] = scene_path
        truth_paths[scene_id] = truth_path
        manifest_lines.append(f"{scene_id} {scene_path.name}\n")
        records["scenes"][scene_id] = {"cells": cell_records, "buildings": building_rects}
    manifest_path = out_dir / "manifest.txt"
    manifest_path.write_text("".join(manifest_lines), encoding="utf-8")
    (out_dir / "gen_records.json").write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return SynthDataset(
        out_dir=out_dir,
        manifest_path=manifest_path,
        scene_paths=scene_paths,
        truth_paths=truth_paths,
        records=records,
    )

