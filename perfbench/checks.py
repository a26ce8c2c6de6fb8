"""Output checks that do not rely on the program's own readers or results.

Masks and sidecars are parsed here from their documented on-disk layouts,
truth is painted from the building rectangles in ``gen_records.json``, and
areas and tile counts are recomputed from the scene sizes the workload asked
for. Every check returns a list of problems; an empty list is a pass.

``self_test`` corrupts copies of real outputs (a flipped mask block, a
swapped sidecar bucket, a missing mask, a miscounted metrics file) and
reports every check that failed to notice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

RSR_MAGIC = b"RSR1\n"
# Pooled held-out IoU below this is a quality regression, not noise.
IOU_FLOOR = 0.9
# Share of one tile's pixels that may disagree with painted truth.
TILE_ERROR_CEILING = 0.05


@dataclass
class MapOutput:
    """One infer output directory, read without the program's readers."""

    masks: dict[str, np.ndarray]
    sidecars: dict[str, list[tuple[int, int, int, int, str]]]
    metrics: dict = field(default_factory=dict)


def read_rsr_mask(path) -> np.ndarray:
    """Parse a one-band u8 RSR1 container into an (h, w) array."""
    raw = Path(path).read_bytes()
    if not raw.startswith(RSR_MAGIC):
        raise ValueError(f"bad magic in {path}")
    end = raw.index(b"\n", len(RSR_MAGIC))
    w, h, bands, dtype, _gsd = raw[len(RSR_MAGIC) : end].decode("ascii").split()
    w, h = int(w), int(h)
    if bands != "1" or dtype != "u8":
        raise ValueError(f"{path} is not a one-band u8 mask")
    payload = raw[end + 1 :]
    if len(payload) != w * h:
        raise ValueError(f"{path} holds {len(payload)} bytes, header implies {w * h}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def read_sidecar(path) -> list[tuple[int, int, int, int, str]]:
    out = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.strip():
            x0, y0, w, h, code = line.split()
            out.append((int(x0), int(y0), int(w), int(h), code))
    return out


def load_output(out_dir) -> MapOutput:
    out_dir = Path(out_dir)
    masks = {p.name[: -len(".mask.rsr")]: read_rsr_mask(p) for p in sorted(out_dir.glob("*.mask.rsr"))}
    sidecars = {
        p.name[: -len(".buckets.txt")]: read_sidecar(p) for p in sorted(out_dir.glob("*.buckets.txt"))
    }
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="ascii"))
    return MapOutput(masks=masks, sidecars=sidecars, metrics=metrics)


def paint_truth(records: dict, size_px: int) -> dict[str, np.ndarray]:
    """Truth masks from the generator's building rectangles."""
    truth = {}
    for scene_id, scene in records["scenes"].items():
        canvas = np.zeros((size_px, size_px), dtype=np.uint8)
        for x, y, w, h in scene["buildings"]:
            canvas[y : y + h, x : x + w] = 1
        truth[scene_id] = canvas
    return truth


def check_masks_present(out: MapOutput, scene_ids) -> list[str]:
    return [f"no mask for scene {sid}" for sid in scene_ids if sid not in out.masks] + [
        f"no bucket sidecar for scene {sid}" for sid in scene_ids if sid not in out.sidecars
    ]


def pooled_counts(out: MapOutput, truth: dict[str, np.ndarray]) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for sid, mask in out.masks.items():
        p, t = mask != 0, truth[sid] != 0
        tp += int(np.count_nonzero(p & t))
        fp += int(np.count_nonzero(p & ~t))
        fn += int(np.count_nonzero(~p & t))
    return tp, fp, fn


def iou(tp: int, fp: int, fn: int) -> float:
    return tp / (tp + fp + fn) if tp + fp + fn else 1.0


def check_truth(out: MapOutput, truth: dict[str, np.ndarray], tile_px: int) -> list[str]:
    """Pooled IoU at or above the floor, and no tile far off its truth."""
    problems = []
    pooled = iou(*pooled_counts(out, truth))
    if pooled < IOU_FLOOR:
        problems.append(f"pooled IoU {pooled:.4f} below floor {IOU_FLOOR}")
    for sid, mask in out.masks.items():
        if mask.shape != truth[sid].shape:
            problems.append(f"scene {sid}: mask {mask.shape} vs truth {truth[sid].shape}")
            continue
        wrong = mask != truth[sid]
        for y0 in range(0, mask.shape[0], tile_px):
            for x0 in range(0, mask.shape[1], tile_px):
                block = wrong[y0 : y0 + tile_px, x0 : x0 + tile_px]
                share = np.count_nonzero(block) / block.size
                if share > TILE_ERROR_CEILING:
                    problems.append(f"scene {sid} tile ({x0},{y0}): {share:.1%} of pixels wrong")
    return problems


def check_purity(out: MapOutput, records: dict) -> list[str]:
    """Every bucket holds tiles of one generated texture class."""
    classes: dict[str, set[int]] = {}
    problems = []
    for sid, entries in out.sidecars.items():
        cell_class = {(c["x0"], c["y0"]): c["dist"] for c in records["scenes"][sid]["cells"]}
        for x0, y0, _w, _h, code in entries:
            if (x0, y0) not in cell_class:
                problems.append(f"scene {sid}: sidecar tile ({x0},{y0}) is not a generated cell")
                continue
            classes.setdefault(code, set()).add(cell_class[(x0, y0)])
    for code, seen in sorted(classes.items()):
        if len(seen) > 1:
            problems.append(f"bucket {code} mixes texture classes {sorted(seen)}")
    return problems


def check_identical(a: MapOutput, b: MapOutput) -> list[str]:
    """Masks and sidecars equal byte for byte between two runs."""
    problems = []
    if a.masks.keys() != b.masks.keys():
        problems.append(f"mask sets differ: {sorted(a.masks)} vs {sorted(b.masks)}")
    for sid in sorted(a.masks.keys() & b.masks.keys()):
        if a.masks[sid].tobytes() != b.masks[sid].tobytes():
            diff = int(np.count_nonzero(a.masks[sid] != b.masks[sid]))
            problems.append(f"scene {sid}: masks differ in {diff} pixels")
    if a.sidecars != b.sidecars:
        problems.append("bucket sidecars differ")
    return problems


def tile_count(size_px: int, tile_px: int) -> int:
    return math.ceil(size_px / tile_px) ** 2


def check_counts(out: MapOutput, scenes: int, size_px: int, tile_px: int, gsd_m: float) -> list[str]:
    """Scene, tile and area figures in metrics.json against the workload's sizes."""
    problems = []
    tiles = scenes * tile_count(size_px, tile_px)
    area = scenes * (size_px * gsd_m) ** 2 / 1e6
    m = out.metrics
    if m.get("scenes") != scenes:
        problems.append(f"metrics.json scenes {m.get('scenes')} != {scenes}")
    if m.get("tiles") != tiles:
        problems.append(f"metrics.json tiles {m.get('tiles')} != {tiles}")
    if not math.isclose(m.get("area_sqkm", -1.0), area, rel_tol=1e-9):
        problems.append(f"metrics.json area_sqkm {m.get('area_sqkm')} != {area}")
    for sid, entries in out.sidecars.items():
        if len(entries) != tile_count(size_px, tile_px):
            problems.append(f"scene {sid}: sidecar lists {len(entries)} tiles")
    return problems


def _flip_block(out: MapOutput, tile_px: int) -> MapOutput:
    sid = sorted(out.masks)[0]
    mask = out.masks[sid].copy()
    mask[:tile_px, :tile_px] ^= 1
    return replace(out, masks={**out.masks, sid: mask})


def _swap_bucket(out: MapOutput, records: dict) -> MapOutput:
    sid = sorted(out.sidecars)[0]
    entries = list(out.sidecars[sid])
    cell_class = {(c["x0"], c["y0"]): c["dist"] for c in records["scenes"][sid]["cells"]}
    first = entries[0]
    j = next(
        i for i, e in enumerate(entries)
        if e[4] != first[4] and cell_class[e[:2]] != cell_class[first[:2]]
    )
    entries[0] = first[:4] + (entries[j][4],)
    entries[j] = entries[j][:4] + (first[4],)
    return replace(out, sidecars={**out.sidecars, sid: entries})


def _drop_mask(out: MapOutput) -> MapOutput:
    sid = sorted(out.masks)[-1]
    return replace(out, masks={k: v for k, v in out.masks.items() if k != sid})


def self_test(w1: MapOutput, w2: MapOutput, truth, records, scenes, size_px, tile_px, gsd_m) -> list[str]:
    """Each check must fail on a corrupted copy of a real output."""
    flipped = _flip_block(w1, tile_px)
    cases = {
        "truth check on a flipped mask block": check_truth(flipped, truth, tile_px),
        "identity check on a flipped mask block": check_identical(flipped, w2),
        "purity check on a swapped sidecar bucket": check_purity(_swap_bucket(w1, records), records),
        "presence check on a missing mask": check_masks_present(_drop_mask(w1), sorted(truth)),
        "count check on a miscounted metrics file": check_counts(
            replace(w1, metrics={**w1.metrics, "tiles": w1.metrics["tiles"] + 1}),
            scenes, size_px, tile_px, gsd_m,
        ),
    }
    return [f"{name} passed a corrupted output" for name, problems in cases.items() if not problems]
