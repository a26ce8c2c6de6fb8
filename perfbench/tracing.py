"""Per-layer spans recorded from outside the program.

The tracer replaces public functions and methods of the ``resflow`` modules
with timing wrappers, at the names the stage code calls them by, and puts the
originals back on ``remove``. Each call adds one count and its wall seconds to
the cell of (layer, current stage). Threads share the current stage, which
the benchmark sets before it calls a stage. Cells hold inclusive times: a
wrapped call that calls another wrapped name counts in both cells.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from resflow import cli, executor, gallery, models, pool

# (owner, attribute, layer): the names stage code resolves at call time.
TRACE_POINTS = [
    (cli, "generate_dataset", "synth.generate_dataset"),
    (cli, "read_window", "raster.read_window"),
    (executor, "read_window", "raster.read_window"),
    (executor, "merge_tiles", "raster.merge_tiles"),
    (cli, "write_mask", "raster.write_mask"),
    (cli, "extract_features", "embedding.extract_features"),
    (executor, "extract_features", "embedding.extract_features"),
    (cli, "select_bucket_count", "embedding.select_bucket_count"),
    (cli, "fit_clusters", "embedding.fit_clusters"),
    (cli, "fit_hash", "hashing.fit_hash"),
    (cli, "encode_many", "hashing.encode_many"),
    (cli, "assign_bucket", "hashing.assign_bucket"),
    (executor, "encode", "hashing.encode"),
    (executor, "assign_bucket", "hashing.assign_bucket"),
    (gallery.ImageGallery, "__init__", "gallery.ImageGallery.open"),
    (gallery.ImageGallery, "insert", "gallery.ImageGallery.insert"),
    (executor, "load_model", "models.load_model"),
    (cli, "train_bucket_model", "models.train_bucket_model"),
    (models.LinearPixelModel, "infer", "models.LinearPixelModel.infer"),
    (pool.DevicePool, "checkout", "pool.DevicePool.checkout"),
]

# Layers whose time is waiting, not work; left out of busy time.
WAIT_LAYERS = {"pool.DevicePool.checkout"}


class Tracer:
    def __init__(self):
        self.stage = "setup"
        self._cells: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self._lock = threading.Lock()
        self._originals = []

    def _wrap(self, owner, attr: str, layer: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                with self._lock:
                    cell = self._cells[(layer, self.stage)]
                    cell[0] += 1
                    cell[1] += elapsed

        setattr(owner, attr, timed)
        self._originals.append((owner, attr, original))

    def install(self) -> "Tracer":
        for owner, attr, layer in TRACE_POINTS:
            self._wrap(owner, attr, layer)
        return self

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def take(self, stage: str) -> dict[str, tuple[int, float]]:
        """Remove and return {layer: (calls, seconds)} recorded under ``stage``."""
        with self._lock:
            keys = [key for key in self._cells if key[1] == stage]
            return {layer: tuple(self._cells.pop((layer, s))) for layer, s in keys}


def busy_seconds(cells: dict[str, tuple[int, float]]) -> float:
    return sum(s for layer, (_n, s) in cells.items() if layer not in WAIT_LAYERS)
