#!/usr/bin/env python3
"""Build-and-map benchmark for resflow, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload coarse_heldout --seed 1 --seconds 42 --trace 0

A run generates a build workspace and a held-out workspace from the seed
(set-up, repeated and timed), partitions the build scene once and trains on
it twice, each pass from an empty ``models/``. It copies the build's
``partition/`` and ``models/`` next to the held-out scenes, then repeats
rounds of partition passes and held-out ``infer`` passes at workers 1 and 2
while the next round still fits in ``--seconds`` of wall time counted from
the start of the process. Every round's outputs are checked by
``checks.py``. With ``--trace 0`` the last line of output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` the same run is made with
the per-layer wrappers of ``tracing.py`` installed and the JSON holds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".perfbench_work")
CLASSES = 6
GSD_M = 0.5
SETUPS = 3
# A train pass lasts about 10 s, long enough that one pass swings with host load.
TRAIN_PASSES = 2
HELDOUT_SEED_OFFSET = 7919


@dataclass(frozen=True)
class Workload:
    tile_px: int
    k_min: int
    k_max: int
    build_px: int
    heldout_scenes: int
    heldout_px: int
    devices: int
    tickets_per_device: int
    partition_passes: int  # per round; short passes get more samples


WORKLOADS = {
    # k pinned to the class count by a one-value range; per-pixel work dominates.
    "coarse_heldout": Workload(256, CLASSES, CLASSES, 1024, 1, 2048, 4, 2, 2),
    # Default k range, so the knee selection runs; per-tile fixed costs dominate.
    "fine_heldout": Workload(32, 2, 10, 1024, 1, 1024, 4, 2, 1),
    # Coarse tiles, but both workers share one device holding one ticket.
    "shared_device_heldout": Workload(256, CLASSES, CLASSES, 1024, 1, 2048, 1, 1, 2),
}

END_TO_END = [
    ("setup_s", "s"),
    ("partition_s", "s"),
    ("train_s", "s"),
    ("map_w1_sqkm_per_s", "sq.km/s"),
    ("map_w2_sqkm_per_s", "sq.km/s"),
    ("mask_iou", "ratio"),
    ("peak_rss_mb", "MB"),
]


def _per_layer():
    def timed(layer, stages, calls=False, suffix="s"):
        out = [(f"{layer}.{st}_{suffix}", "s") for st in stages]
        return out + ([(f"{layer}.{st}_calls", "count") for st in stages] if calls else [])

    return [
        *timed("raster.read_window", ("partition", "train", "map_w1", "map_w2"), calls=True),
        ("raster.bytes_read.map_w1", "bytes"),
        *timed("raster.merge_tiles", ("map_w1",)),
        *timed("raster.write_mask", ("map_w1",)),
        *timed("embedding.extract_features", ("partition", "map_w1", "map_w2")),
        *timed("embedding.select_bucket_count", ("partition",)),
        *timed("embedding.fit_clusters", ("partition",)),
        *timed("hashing.fit_hash", ("partition",)),
        *timed("hashing.encode_many", ("partition",)),
        *timed("hashing.encode", ("map_w1",)),
        *timed("hashing.assign_bucket", ("map_w1",)),
        *timed("gallery.ImageGallery.insert", ("partition", "map_w1"), calls=True),
        *timed("gallery.ImageGallery.open", ("train",)),
        *timed("models.load_model", ("map_w1",)),
        *timed("models.train_bucket_model", ("train",), calls=True),
        *timed("models.LinearPixelModel.infer", ("train", "map_w1", "map_w2")),
        *timed("pool.DevicePool.checkout", ("map_w1", "map_w2"), calls=True, suffix="wait_s"),
        *[(f"executor.stage_{x}.{st}_s", "s") for x in "abc" for st in ("map_w1", "map_w2")],
        ("executor.reads_per_scene.map_w1", "reads/tile"),
        ("cli.cmd_infer.overhead.map_w1_s", "s"),
        ("executor.busy_inflation.map_w2", "ratio"),
        *timed("synth.generate_dataset", ("setup",)),
    ]


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    pass


def run_stage(fn, *args, **kwargs) -> None:
    """Call one cli stage with its output captured; a non-zero exit code raises."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = fn(*args, **kwargs)
    if rc != 0:
        raise BenchError(f"{fn.__name__} exited {rc}:\n{sink.getvalue()}")


class PeakRss:
    """Samples this process's resident set every few milliseconds while open."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self, interval_s: float = 0.005):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)

    def _sample(self) -> None:
        with open("/proc/self/statm", "rb") as f:
            self.peak = max(self.peak, int(f.read().split()[1]) * self.PAGE)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def machine_notes() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", f"unset (OpenBLAS uses {os.cpu_count()})")
    return (
        f"cpus {os.cpu_count()}, python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, blas {blas}, OPENBLAS_NUM_THREADS {threads}"
    )


def run_workload(name: str, seed: int, seconds: float, tracer) -> dict:
    from resflow import cli
    from resflow.config import RunConfig

    import checks

    wl = WORKLOADS[name]

    def config(scenes, px, cfg_seed):
        return RunConfig(
            tile_px=wl.tile_px, k=0, k_min=wl.k_min, k_max=wl.k_max, scenes=scenes,
            scene_px=px, distributions=CLASSES, gsd_m=GSD_M, seed=cfg_seed,
            devices=wl.devices, tickets_per_device=wl.tickets_per_device,
        ).validate()

    build_cfg = config(1, wl.build_px, seed)
    held_cfg = config(wl.heldout_scenes, wl.heldout_px, seed + HELDOUT_SEED_OFFSET)
    ws = WORK_DIR / f"{name}-s{seed}-p{os.getpid()}"
    build, held = ws / "build", ws / "heldout"
    passes: dict[str, list[dict]] = {s: [] for s in ("setup", "partition", "train", "map_w1", "map_w2")}
    walls: dict[str, list[float]] = {s: [] for s in passes}

    def staged(stage, work):
        """Time one pass of ``stage``; ``work`` takes no arguments."""
        if tracer is not None:
            tracer.stage = stage
        t0 = time.perf_counter()
        work()
        walls[stage].append(time.perf_counter() - t0)
        passes[stage].append(tracer.take(stage) if tracer is not None else {})

    def set_up():
        ws.mkdir(parents=True)
        run_stage(cli.cmd_synth, build_cfg, build)
        run_stage(cli.cmd_synth, held_cfg, held)

    def partition():
        run_stage(cli.cmd_partition, build_cfg, build)

    try:
        for _ in range(SETUPS):
            shutil.rmtree(ws, ignore_errors=True)
            staged("setup", set_up)
        records = json.loads((held / "scenes" / "gen_records.json").read_text(encoding="utf-8"))
        truth = checks.paint_truth(records, wl.heldout_px)
        scene_ids = sorted(truth)
        tiles_per_scene = checks.tile_count(wl.heldout_px, wl.tile_px)
        area = wl.heldout_scenes * (wl.heldout_px * GSD_M) ** 2 / 1e6

        staged("partition", partition)
        for _ in range(TRAIN_PASSES):
            shutil.rmtree(build / "models", ignore_errors=True)
            staged("train", lambda: run_stage(cli.cmd_train, build_cfg, build))
        for part in ("partition", "models"):
            shutil.copytree(build / part, held / part)

        problems: list[str] = []
        impure: set[str] = set()
        rss_peaks: list[int] = []
        metrics_json: dict[str, list[dict]] = {"map_w1": [], "map_w2": []}
        reference = None
        pooled = None
        attempted = failed = scenes_attempted = scenes_failed = 0
        while True:
            t_round = time.perf_counter()
            for _ in range(wl.partition_passes):
                staged("partition", partition)
            outs = {}
            peak = 0
            for workers in (1, 2):
                stage = f"map_w{workers}"
                sampler = PeakRss() if tracer is None else contextlib.nullcontext()
                with sampler:
                    staged(stage, lambda: run_stage(
                        cli.cmd_infer, held_cfg, held, out_name=stage, workers=workers
                    ))
                if tracer is None:
                    peak = max(peak, sampler.peak)
                outs[stage] = checks.load_output(held / stage)
                metrics_json[stage].append(outs[stage].metrics)
                missing = [sid for sid in scene_ids if sid not in outs[stage].masks]
                attempted += tiles_per_scene * len(scene_ids)
                failed += tiles_per_scene * len(missing)
                scenes_attempted += len(scene_ids)
                scenes_failed += len(missing)
            rss_peaks.append(peak)
            w1, w2 = outs["map_w1"], outs["map_w2"]
            for out in (w1, w2):
                problems += checks.check_masks_present(out, scene_ids)
                problems += checks.check_counts(
                    out, wl.heldout_scenes, wl.heldout_px, wl.tile_px, GSD_M
                )
            problems += checks.check_truth(w1, truth, wl.tile_px)
            impure.update(checks.check_purity(w1, records))
            problems += checks.check_identical(w1, w2)
            if reference is None:
                reference = w1
                pooled = checks.iou(*checks.pooled_counts(w1, truth))
                problems += checks.self_test(
                    w1, w2, truth, records, wl.heldout_scenes, wl.heldout_px, wl.tile_px, GSD_M
                )
            else:
                problems += checks.check_identical(reference, w1)
            now = time.perf_counter()
            if now - T_START + (now - t_round) > seconds:
                break
    finally:
        shutil.rmtree(ws, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    rounds = len(walls["map_w1"])
    print(f"workload {name} seed {seed}: {rounds} mapping rounds, "
          f"{len(walls['partition'])} partition passes, {SETUPS} set-ups")
    print(f"attempted: {attempted} tiles, {scenes_attempted} scenes; "
          f"failed: {failed} tiles, {scenes_failed} scenes")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    # Held-out bucket purity depends on the seed (see README), so it is reported, not gated.
    print(f"held-out bucket purity: {'; '.join(sorted(impure)) or 'every bucket holds one class'}")
    med = statistics.median
    if tracer is None:
        values = {
            "setup_s": med(walls["setup"]),
            "partition_s": med(walls["partition"]),
            "train_s": med(walls["train"]),
            "map_w1_sqkm_per_s": area / med(walls["map_w1"]),
            "map_w2_sqkm_per_s": area / med(walls["map_w2"]),
            "mask_iou": pooled,
            "peak_rss_mb": med(rss_peaks) / 1e6,
        }
        units = END_TO_END
    else:
        values = layer_values(passes, walls, metrics_json)
        units = PER_LAYER
        print("traced stage walls: " + ", ".join(
            f"{stage} {med(w):.4f} s" for stage, w in walls.items()
        ))
    for metric, unit in units:
        print(f"{metric} = {values[metric]:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units},
    }


def layer_values(passes, walls, metrics_json) -> dict[str, float]:
    """Medians over passes of every per-layer metric."""
    from tracing import WAIT_LAYERS, busy_seconds

    samples: dict[str, list[float]] = {}
    for stage, cells_list in passes.items():
        for cells in cells_list:
            for layer, (calls, secs) in cells.items():
                kind = "wait_s" if layer in WAIT_LAYERS else "s"
                samples.setdefault(f"{layer}.{stage}_{kind}", []).append(secs)
                samples.setdefault(f"{layer}.{stage}_calls", []).append(calls)
    for stage in ("map_w1", "map_w2"):
        for wall, m in zip(walls[stage], metrics_json[stage]):
            for x in "abc":
                samples.setdefault(f"executor.stage_{x}.{stage}_s", []).append(m[f"stage_{x}_s"])
            samples.setdefault(f"cli.cmd_infer.overhead.{stage}_s", []).append(wall - m["wall_s"])
            samples.setdefault(f"raster.bytes_read.{stage}", []).append(m["bytes_read"])
            reads = statistics.fmean(m["reads_per_scene"].values())
            samples.setdefault(f"executor.reads_per_scene.{stage}", []).append(reads)
    samples["executor.busy_inflation.map_w2"] = [
        busy_seconds(c2) / busy_seconds(c1) for c1, c2 in zip(passes["map_w1"], passes["map_w2"])
    ]
    # A layer that a stage never called reads 0.
    return {name: statistics.median(samples.get(name, [0.0])) for name, _unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "resflow" / "cli.py").is_file():
        print(f"perfbench: no resflow sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)  # relative workspace paths: the gallery rejects paths with spaces
    print(f"machine: {machine_notes()}")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, tracer)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.remove()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
