"""Persistent image gallery and per-bucket model registry.

Both galleries are append-only newline-delimited logs with in-memory indexes
rebuilt on open: crash-simple, diff-friendly, and fast enough for the record
counts this engine handles. Records are immutable once written; writes go
through a single writer per instance while reads are free.

Image gallery line format (space separated, dash for absent optionals):

    IGAL1 n_bits=<n>
    record_id code_hex bucket_id scene_id x0 y0 w h storage_path geo_bbox acquired_at

Model gallery:

    MGAL1
    centroid_hex task version artifact_path f1

``storage_path`` and ``artifact_path`` are written percent-escaped, so a path
with a space or a non-ASCII character stays one ASCII token; other tokens must
contain no whitespace.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote, unquote

from .hashing import BinaryCode, CentroidTable, assign_bucket
from .raster import TileExtent

IMAGE_HEADER = "IGAL1"
MODEL_HEADER = "MGAL1"


class GalleryError(ValueError):
    """Bad gallery file or record."""


class RecordInvariantError(GalleryError):
    """Record violates a gallery invariant (for example a stale bucket_id)."""


class UnknownBucketError(GalleryError):
    """Model registration against a centroid the table does not contain."""


class ModelGapError(LookupError):
    """No model registered for a (bucket, task) pair.

    Signals the executor to fail that partition of the work, not the run.
    """

    def __init__(self, bucket_code: BinaryCode, task: str):
        self.bucket_code = bucket_code
        self.task = task
        super().__init__(f"model gap: no model for bucket {bucket_code.to_hex()} task {task!r}")


@dataclass(frozen=True)
class GalleryRecord:
    """One indexed tile: its code, bucket, extent, and storage metadata."""

    code: BinaryCode
    bucket_id: int
    scene_id: str
    extent: TileExtent
    storage_path: str
    geo_bbox: tuple[float, float, float, float] | None = None
    acquired_at: str | None = None


def _check_token(value: str, what: str) -> str:
    if not value or any(ch.isspace() for ch in value):
        raise GalleryError(f"{what} must be a non-empty token without whitespace: {value!r}")
    return value


def _escape_path(path: str) -> str:
    """Percent-escape ``%`` and every character that is not printable ASCII.

    That covers whitespace and non-ASCII characters (as UTF-8 bytes); a path
    of printable ASCII without ``%`` is written unchanged.
    """
    return re.sub(r"[^\x21-\x24\x26-\x7e]", lambda m: quote(m.group()), path)


def record_to_line(record_id: int, r: GalleryRecord) -> str:
    geo = ",".join(repr(float(v)) for v in r.geo_bbox) if r.geo_bbox is not None else "-"
    acq = r.acquired_at if r.acquired_at is not None else "-"
    e = r.extent
    return (
        f"{record_id} {r.code.to_hex()} {r.bucket_id} {r.scene_id} "
        f"{e.x0} {e.y0} {e.w} {e.h} {_escape_path(r.storage_path)} {geo} {acq}\n"
    )


def line_to_record(line: str, n_bits: int) -> tuple[int, GalleryRecord]:
    parts = line.split()
    if len(parts) != 11:
        raise GalleryError(f"malformed gallery line ({len(parts)} fields): {line!r}")
    rid = int(parts[0])
    geo = None
    if parts[9] != "-":
        vals = tuple(float(v) for v in parts[9].split(","))
        if len(vals) != 4:
            raise GalleryError(f"geo_bbox needs 4 values: {parts[9]!r}")
        geo = vals
    record = GalleryRecord(
        code=BinaryCode.from_hex(parts[1], n_bits),
        bucket_id=int(parts[2]),
        scene_id=parts[3],
        extent=TileExtent(parts[3], int(parts[4]), int(parts[5]), int(parts[6]), int(parts[7])),
        storage_path=unquote(parts[8]),
        geo_bbox=geo,
        acquired_at=None if parts[10] == "-" else parts[10],
    )
    return rid, record


class ImageGallery:
    """Append-only tile index, queryable by bucket."""

    def __init__(self, path, n_bits: int | None = None, centroids: CentroidTable | None = None):
        self.path = Path(path)
        self.centroids = centroids
        self._records: list[GalleryRecord] = []
        self._by_bucket: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._fh = None
        if self.path.exists():
            self._load(expected_bits=n_bits)
        else:
            if n_bits is None:
                raise GalleryError("n_bits required to create a new gallery")
            self.n_bits = int(n_bits)
            with open(self.path, "w", encoding="ascii") as f:
                f.write(f"{IMAGE_HEADER} n_bits={self.n_bits}\n")

    def _load(self, expected_bits: int | None):
        with open(self.path, "r", encoding="ascii") as f:
            header = f.readline().split()
            if len(header) != 2 or header[0] != IMAGE_HEADER or not header[1].startswith("n_bits="):
                raise GalleryError(f"malformed gallery header in {self.path}")
            self.n_bits = int(header[1].split("=", 1)[1])
            if expected_bits is not None and expected_bits != self.n_bits:
                raise GalleryError(f"gallery has n_bits={self.n_bits}, expected {expected_bits}")
            for line in f:
                if not line.strip():
                    continue
                rid, record = line_to_record(line, self.n_bits)
                if rid != len(self._records):
                    raise GalleryError(f"non-monotone record_id {rid} in {self.path}")
                self._index(rid, record)

    def _index(self, rid: int, record: GalleryRecord):
        self._records.append(record)
        self._by_bucket.setdefault(record.bucket_id, []).append(rid)

    def insert(self, record: GalleryRecord) -> int:
        """Append one record; returns its monotone record_id."""
        if record.code.width != self.n_bits:
            raise RecordInvariantError(
                f"code width {record.code.width} != gallery n_bits {self.n_bits}"
            )
        if self.centroids is not None:
            expected = assign_bucket(record.code, self.centroids)
            if expected != record.bucket_id:
                raise RecordInvariantError(
                    f"bucket_id {record.bucket_id} inconsistent with assignment {expected} "
                    f"for code {record.code.to_hex()}"
                )
        _check_token(record.scene_id, "scene_id")
        _check_token(_escape_path(record.storage_path), "storage_path")
        if record.acquired_at is not None:
            _check_token(record.acquired_at, "acquired_at")
        with self._lock:
            rid = len(self._records)
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="ascii")
            self._fh.write(record_to_line(rid, record))
            self._fh.flush()
            self._index(rid, record)
            return rid

    def __len__(self):
        return len(self._records)

    def record(self, rid: int) -> GalleryRecord:
        return self._records[rid]

    def query_by_bucket(self, bucket_id: int) -> list[GalleryRecord]:
        """All records of the bucket in insertion order; unknown bucket is empty."""
        return [self._records[rid] for rid in self._by_bucket.get(bucket_id, [])]

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass(frozen=True)
class ModelRecord:
    """Registry entry pairing a bucket centroid and task with a model artifact."""

    bucket_code: BinaryCode
    task: str
    version: int
    artifact_path: str
    train_stats: dict = field(default_factory=dict, compare=False)


def model_record_to_line(r: ModelRecord) -> str:
    f1 = float(r.train_stats.get("f1", 0.0))
    return f"{r.bucket_code.to_hex()} {r.task} {r.version} {_escape_path(r.artifact_path)} {f1!r}\n"


class ModelGallery:
    """Versioned (bucket, task) -> model registry; lookups return the newest."""

    def __init__(self, path, centroids: CentroidTable):
        self.path = Path(path)
        self.centroids = centroids
        self._known = {code.bits for _, code in centroids.items()}
        self._by_key: dict[tuple[int, str], list[ModelRecord]] = {}
        self._lock = threading.Lock()
        self._fh = None
        if self.path.exists():
            self._load()
        else:
            with open(self.path, "w", encoding="ascii") as f:
                f.write(f"{MODEL_HEADER}\n")

    def _load(self):
        with open(self.path, "r", encoding="ascii") as f:
            if f.readline().strip() != MODEL_HEADER:
                raise GalleryError(f"malformed model gallery header in {self.path}")
            for line in f:
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 5:
                    raise GalleryError(f"malformed model gallery line: {line!r}")
                record = ModelRecord(
                    bucket_code=BinaryCode.from_hex(parts[0], self.centroids.width),
                    task=parts[1],
                    version=int(parts[2]),
                    artifact_path=unquote(parts[3]),
                    train_stats={"f1": float(parts[4])},
                )
                self._by_key.setdefault((record.bucket_code.bits, record.task), []).append(record)

    def next_version(self, bucket_code: BinaryCode, task: str) -> int:
        versions = [r.version for r in self._by_key.get((bucket_code.bits, task), [])]
        return max(versions, default=0) + 1

    def register(self, record: ModelRecord) -> int:
        """Append a registration; the version is assigned here, starting at 1."""
        if record.bucket_code.bits not in self._known:
            raise UnknownBucketError(
                f"centroid {record.bucket_code.to_hex()} is not in the bucket table"
            )
        _check_token(record.task, "task")
        _check_token(_escape_path(record.artifact_path), "artifact_path")
        with self._lock:
            version = self.next_version(record.bucket_code, record.task)
            stored = ModelRecord(
                bucket_code=record.bucket_code,
                task=record.task,
                version=version,
                artifact_path=record.artifact_path,
                train_stats=dict(record.train_stats),
            )
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="ascii")
            self._fh.write(model_record_to_line(stored))
            self._fh.flush()
            self._by_key.setdefault((stored.bucket_code.bits, stored.task), []).append(stored)
            return version

    def lookup(self, bucket_code: BinaryCode, task: str) -> ModelRecord:
        """Highest-version record for the key; ModelGapError when absent."""
        records = self._by_key.get((bucket_code.bits, task))
        if not records:
            raise ModelGapError(bucket_code, task)
        return max(records, key=lambda r: r.version)

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
