"""Scene references, windowed raster I/O, tile planning, and mask merging.

Rasters live in a small seekable container (magic ``RSR1``) so a rectangular
window can be read without touching the rest of the file. Scenes are handled
through path-carrying references plus windowed reads; nothing here loads a
full scene unless the window spans it.

Container layout, bit-exact:

    RSR1\\n
    <w> <h> <bands> <dtype> <gsd>\\n
    raw little-endian row-major samples, band-interleaved by pixel

with ``dtype`` one of ``u8``, ``u16``, ``f32`` and ``gsd`` in decimal meters
per pixel side. Output masks reuse the container with ``bands=1 dtype=u8``
plus a sidecar text file of ``x0 y0 w h bucket_hex`` lines.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MAGIC = b"RSR1\n"

DTYPES = {
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "f32": np.dtype("<f4"),
}


class RasterError(ValueError):
    """Bad raster file, window, or merge input."""


class RasterFormatError(RasterError):
    """Missing magic, malformed header, or truncated payload."""


class WindowBoundsError(RasterError):
    """Requested window falls outside the scene rectangle."""


class MissingTilesError(RasterError):
    """Merge input does not cover the scene; lists the uncovered rectangles."""

    def __init__(self, scene_id: str, rectangles):
        self.scene_id = scene_id
        self.rectangles = [tuple(int(v) for v in r) for r in rectangles]
        rects = ", ".join(f"(x0={x} y0={y} w={w} h={h})" for x, y, w, h in self.rectangles)
        super().__init__(f"missing tile coverage for scene {scene_id}: {rects}")


@dataclass(frozen=True)
class SceneRef:
    """Path-based reference to a raster; carries size and ground sampling.

    The pixel payload is never attached to the reference. ``gsd_m`` is the
    ground-sampling distance in meters per pixel side and is stored per
    scene, not globally.
    """

    scene_id: str
    path: str
    width_px: int
    height_px: int
    bands: int
    dtype: str
    gsd_m: float

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise RasterFormatError(f"zero dimension: {self.width_px}x{self.height_px}")
        if self.bands <= 0:
            raise RasterFormatError("zero dimension: bands=0")
        if self.dtype not in DTYPES:
            raise RasterFormatError(f"unknown dtype {self.dtype!r}")
        if not self.gsd_m > 0:
            raise RasterFormatError(f"non-positive gsd {self.gsd_m}")

    @property
    def np_dtype(self) -> np.dtype:
        return DTYPES[self.dtype]

    @property
    def nbytes(self) -> int:
        return self.width_px * self.height_px * self.bands * self.np_dtype.itemsize


@dataclass(frozen=True)
class TileExtent:
    """Rectangular window of a scene, in pixel coordinates."""

    scene_id: str
    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self):
        if self.x0 < 0 or self.y0 < 0:
            raise RasterError(f"negative offset in extent {self}")
        if self.w <= 0 or self.h <= 0:
            raise RasterError(f"non-positive span in extent {self}")


@dataclass(eq=False)
class Tile:
    """Materialized pixel block for one extent, shaped (h, w, bands)."""

    extent: TileExtent
    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim == 2:
            self.pixels = self.pixels[:, :, None]
        h, w, _ = self.pixels.shape
        if (h, w) != (self.extent.h, self.extent.w):
            raise RasterError(
                f"pixel block {h}x{w} does not match extent {self.extent.h}x{self.extent.w}"
            )

    @property
    def bands(self) -> int:
        return self.pixels.shape[2]


@dataclass(eq=False)
class Mask:
    """Per-pixel class labels (u8) plus the tile -> bucket provenance map."""

    w: int
    h: int
    labels: np.ndarray
    provenance: dict[TileExtent, int] = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if self.labels.shape != (self.h, self.w):
            raise RasterError(f"labels shape {self.labels.shape} != ({self.h}, {self.w})")


class ReadLedger:
    """Window-read accounting per (scene_id, stage); the only I/O count source.

    Thread safe: one increment per read_window call, plus a byte total.
    """

    def __init__(self):
        self._counts: dict[tuple[str, str], int] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def record(self, scene_id: str, stage: str, nbytes: int) -> None:
        with self._lock:
            key = (scene_id, stage)
            self._counts[key] = self._counts.get(key, 0) + 1
            self._bytes += int(nbytes)

    def count(self, scene_id: str, stage: str) -> int:
        with self._lock:
            return self._counts.get((scene_id, stage), 0)

    @property
    def bytes_read(self) -> int:
        with self._lock:
            return self._bytes


def _dtype_tag(arr: np.ndarray) -> str:
    for tag, dt in DTYPES.items():
        if arr.dtype == dt or arr.dtype == dt.newbyteorder("="):
            return tag
    raise RasterError(f"unsupported array dtype {arr.dtype}; use u8/u16/f32")


def write_scene(path, pixels: np.ndarray, gsd_m: float, scene_id: str | None = None) -> SceneRef:
    """Write a (h, w, bands) or (h, w) array to an RSR1 container."""
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    if pixels.ndim != 3:
        raise RasterError(f"expected 2-d or 3-d pixel array, got shape {pixels.shape}")
    h, w, bands = pixels.shape
    tag = _dtype_tag(pixels)
    path = Path(path)
    header = f"{w} {h} {bands} {tag} {float(gsd_m)!r}\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(header)
        f.write(np.ascontiguousarray(pixels, dtype=DTYPES[tag]).tobytes())
    return SceneRef(
        scene_id=scene_id if scene_id is not None else path.stem,
        path=str(path),
        width_px=w,
        height_px=h,
        bands=bands,
        dtype=tag,
        gsd_m=float(gsd_m),
    )


def load_scene_header(path, scene_id: str | None = None) -> SceneRef:
    """Read dimensions, bands, dtype, and gsd without touching pixel data."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such raster: {path}")
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise RasterFormatError(f"malformed header: bad magic in {path}")
        line = f.readline()
        data_start = f.tell()
    if not line.endswith(b"\n"):
        raise RasterFormatError(f"malformed header: truncated in {path}")
    parts = line.decode("ascii", errors="replace").split()
    if len(parts) != 5:
        raise RasterFormatError(f"malformed header: expected 5 fields in {path}")
    try:
        w, h, bands = int(parts[0]), int(parts[1]), int(parts[2])
        tag = parts[3]
        gsd = float(parts[4])
    except ValueError as e:
        raise RasterFormatError(f"malformed header: {e}") from e
    ref = SceneRef(
        scene_id=scene_id if scene_id is not None else path.stem,
        path=str(path),
        width_px=w,
        height_px=h,
        bands=bands,
        dtype=tag,
        gsd_m=gsd,
    )
    expected = data_start + ref.nbytes
    actual = os.stat(path).st_size
    if actual != expected:
        raise RasterFormatError(
            f"truncated pixel data in {path}: {actual} bytes, header implies {expected}"
        )
    return ref


def _header_end(path) -> int:
    with open(path, "rb") as f:
        f.read(len(MAGIC))
        f.readline()
        return f.tell()


def read_window(scene: SceneRef, extent: TileExtent, ledger: ReadLedger, stage: str) -> Tile:
    """Materialize one window, reading only the requested rows and columns.

    Every call increments the ledger cell for (scene_id, stage).
    """
    if extent.scene_id != scene.scene_id:
        raise RasterError(f"extent scene {extent.scene_id!r} != scene {scene.scene_id!r}")
    if extent.x0 + extent.w > scene.width_px or extent.y0 + extent.h > scene.height_px:
        raise WindowBoundsError(f"window {extent} exceeds scene {scene.width_px}x{scene.height_px}")
    dt = scene.np_dtype
    row_samples = extent.w * scene.bands
    row_bytes = row_samples * dt.itemsize
    stride = scene.width_px * scene.bands * dt.itemsize
    start = _header_end(scene.path)
    out = np.empty((extent.h, row_samples), dtype=dt)
    with open(scene.path, "rb") as f:
        for i in range(extent.h):
            y = extent.y0 + i
            off = start + y * stride + (extent.x0 * scene.bands) * dt.itemsize
            f.seek(off)
            buf = f.read(row_bytes)
            if len(buf) != row_bytes:
                raise RasterFormatError(f"truncated pixel data in {scene.path} at row {y}")
            out[i] = np.frombuffer(buf, dtype=dt)
    pixels = out.reshape(extent.h, extent.w, scene.bands)
    if scene.dtype == "f32" and not np.isfinite(pixels).all():
        raise RasterError(f"non-finite samples in window {extent} of {scene.scene_id}")
    ledger.record(scene.scene_id, stage, extent.h * row_bytes)
    return Tile(extent=extent, pixels=pixels)


def grid_extents(scene_id: str, width: int, height: int, tile_px: int) -> list[TileExtent]:
    """Row-major tile grid covering a width x height rectangle exactly once.

    Interior tiles are tile_px square; tiles at the right/bottom boundary are
    clamped, never padded, which keeps split/merge an exact round trip.
    """
    if tile_px <= 0:
        raise RasterError(f"tile_px must be positive, got {tile_px}")
    extents = []
    for y0 in range(0, height, tile_px):
        for x0 in range(0, width, tile_px):
            extents.append(
                TileExtent(
                    scene_id=scene_id,
                    x0=x0,
                    y0=y0,
                    w=min(tile_px, width - x0),
                    h=min(tile_px, height - y0),
                )
            )
    return extents


def tile_extents(scene: SceneRef, tile_px: int) -> list[TileExtent]:
    """Plan the tile grid for a scene; deterministic row-major order."""
    return grid_extents(scene.scene_id, scene.width_px, scene.height_px, tile_px)


def split_mask(scene_id: str, mask: Mask, tile_px: int) -> list[tuple[TileExtent, Mask]]:
    """Cut a mask into per-extent masks along the same grid used for scenes."""
    out = []
    for ext in grid_extents(scene_id, mask.w, mask.h, tile_px):
        block = mask.labels[ext.y0 : ext.y0 + ext.h, ext.x0 : ext.x0 + ext.w]
        out.append((ext, Mask(w=ext.w, h=ext.h, labels=block.copy())))
    return out


def _uncovered_rectangles(covered: np.ndarray) -> list[tuple[int, int, int, int]]:
    # Greedy maximal rectangles over the uncovered region; good enough for
    # error reporting, not a general decomposition.
    holes = ~covered.copy()
    rects = []
    while holes.any():
        ys, xs = np.nonzero(holes)
        y0, x0 = int(ys[0]), int(xs[0])
        w = 1
        while x0 + w < holes.shape[1] and holes[y0, x0 + w]:
            w += 1
        h = 1
        while y0 + h < holes.shape[0] and holes[y0 + h, x0 : x0 + w].all():
            h += 1
        holes[y0 : y0 + h, x0 : x0 + w] = False
        rects.append((x0, y0, w, h))
    return rects


def merge_tiles(
    scene_id: str,
    labeled: list[tuple[TileExtent, Mask]],
    width: int | None = None,
    height: int | None = None,
) -> Mask:
    """Assemble per-tile masks into one full-scene mask.

    Where extents overlap, the tile whose extent has the smallest (y0, x0)
    wins. Coverage gaps raise MissingTilesError listing the uncovered
    rectangles. Pass explicit width/height to check coverage against the true
    scene rectangle; otherwise the bounding box of the extents is used.
    """
    if not labeled:
        raise RasterError(f"no tiles to merge for scene {scene_id}")
    for ext, m in labeled:
        if ext.scene_id != scene_id:
            raise RasterError(f"foreign scene_id {ext.scene_id!r} in merge for {scene_id!r}")
        if (m.w, m.h) != (ext.w, ext.h):
            raise RasterError(f"mask {m.w}x{m.h} does not match extent {ext}")
    if width is None:
        width = max(ext.x0 + ext.w for ext, _ in labeled)
    if height is None:
        height = max(ext.y0 + ext.h for ext, _ in labeled)
    for ext, _ in labeled:
        if ext.x0 + ext.w > width or ext.y0 + ext.h > height:
            raise WindowBoundsError(f"extent {ext} exceeds scene {width}x{height}")

    out = np.zeros((height, width), dtype=np.uint8)
    covered = np.zeros((height, width), dtype=bool)
    provenance: dict[TileExtent, int] = {}
    # Paint in descending (y0, x0) order so the smallest key lands last.
    for ext, m in sorted(labeled, key=lambda t: (t[0].y0, t[0].x0), reverse=True):
        out[ext.y0 : ext.y0 + ext.h, ext.x0 : ext.x0 + ext.w] = m.labels
        covered[ext.y0 : ext.y0 + ext.h, ext.x0 : ext.x0 + ext.w] = True
        provenance.update(m.provenance)
    if not covered.all():
        raise MissingTilesError(scene_id, _uncovered_rectangles(covered))
    return Mask(w=width, h=height, labels=out, provenance=provenance)


def scene_area_sqkm(scene: SceneRef) -> float:
    """Ground area of the scene in square kilometers."""
    return scene.width_px * scene.height_px * scene.gsd_m**2 / 1e6


def write_mask(path, mask: Mask, gsd_m: float, scene_id: str | None = None) -> SceneRef:
    """Write a mask to the standard container (bands=1, u8)."""
    return write_scene(path, mask.labels, gsd_m, scene_id=scene_id)


def read_mask(path) -> Mask:
    """Read a full mask container back into memory."""
    ref = load_scene_header(path)
    if ref.bands != 1 or ref.dtype != "u8":
        raise RasterFormatError(f"not a mask container: {path} ({ref.bands} bands, {ref.dtype})")
    ledger = ReadLedger()
    full = TileExtent(ref.scene_id, 0, 0, ref.width_px, ref.height_px)
    tile = read_window(ref, full, ledger, "mask-load")
    return Mask(w=ref.width_px, h=ref.height_px, labels=tile.pixels[:, :, 0])


def write_bucket_sidecar(path, entries: list[tuple[TileExtent, str]]) -> None:
    """Write the tile -> bucket sidecar: one "x0 y0 w h bucket_hex" line per tile."""
    lines = [
        f"{ext.x0} {ext.y0} {ext.w} {ext.h} {code_hex}\n"
        for ext, code_hex in sorted(entries, key=lambda t: (t[0].y0, t[0].x0))
    ]
    with open(path, "w", encoding="ascii") as f:
        f.writelines(lines)


class SceneCatalog:
    """Scene references keyed by id; ids must be unique."""

    def __init__(self):
        self._scenes: dict[str, SceneRef] = {}

    def add(self, scene: SceneRef) -> None:
        if scene.scene_id in self._scenes:
            raise RasterError(f"duplicate scene_id {scene.scene_id!r} in catalog")
        self._scenes[scene.scene_id] = scene

    def get(self, scene_id: str) -> SceneRef:
        try:
            return self._scenes[scene_id]
        except KeyError:
            raise KeyError(f"unknown scene_id {scene_id!r}") from None

    def __iter__(self):
        return iter(self._scenes.values())

    def __len__(self):
        return len(self._scenes)

    @classmethod
    def from_manifest(cls, manifest_path) -> "SceneCatalog":
        """Load "scene_id path" lines; relative paths resolve next to the manifest.

        Lines containing "=" are config entries and are skipped here.
        """
        manifest_path = Path(manifest_path)
        cat = cls()
        base = manifest_path.parent
        with open(manifest_path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#") or "=" in line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise RasterError(f"malformed manifest line: {line!r}")
                scene_id, raw = parts
                p = Path(raw)
                if not p.is_absolute():
                    p = base / p
                cat.add(replace(load_scene_header(p), scene_id=scene_id))
        return cat
