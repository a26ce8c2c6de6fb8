"""Command-line front end.

Commands operate on a workspace directory with a fixed layout:

    <ws>/scenes/      scene rasters, truth masks, manifest.txt, gen_records.json
    <ws>/partition/   hash.hsh1, centroids.txt, image_gallery.igal, bucket_counts.txt
    <ws>/models/      model_gallery.mgal plus per-bucket artifacts
    <ws>/<out>/       masks, bucket sidecars, image_gallery.igal (the run's tiles),
                      metrics.json (infer; default "infer"; written only when a
                      scene was mapped, and counting mapped scenes only); infer
                      first removes these files of every catalog scene, so each
                      holds this run's output or is absent

Every command reads one ``RunConfig``. ``feature_dim`` and ``n_bits`` apply
at ``partition`` only, which writes them into the hash and centroid files;
``train``, ``infer`` and ``bench`` take both widths from those files. Only
``train`` creates the model gallery; ``infer`` and ``bench`` need it to exist.

Exit codes: 0 success, 2 config error, 3 data error, 4 pipeline error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, emit_config, load_config
from .embedding import (
    ClusterError,
    extract_features,
    fit_clusters,
    intra_cluster_variance,
    select_bucket_count,
    ward_tree,
)
from .executor import PipelineAssets, PipelineError, RunMetrics, run_pipeline
from .gallery import (
    GalleryError,
    GalleryRecord,
    ImageGallery,
    ModelGallery,
    ModelRecord,
)
from .hashing import (
    CentroidTable,
    HashError,
    assign_bucket,
    bucket_centroids,
    encode_many,
    fit_hash,
    load_hash,
    save_hash,
)
from .models import ModelError, save_model, seg_metrics, train_bucket_model
from .pool import DevicePool, PoolError
from .raster import (
    Mask,
    RasterError,
    ReadLedger,
    SceneCatalog,
    load_scene_header,
    read_window,
    tile_extents,
    write_bucket_sidecar,
    write_mask,
)
from .synth import generate_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PIPELINE = 4


def _ws_paths(workspace) -> dict[str, Path]:
    ws = Path(workspace)
    return {
        "root": ws,
        "scenes": ws / "scenes",
        "manifest": ws / "scenes" / "manifest.txt",
        "partition": ws / "partition",
        "hash": ws / "partition" / "hash.hsh1",
        "centroids": ws / "partition" / "centroids.txt",
        "gallery": ws / "partition" / "image_gallery.igal",
        "counts": ws / "partition" / "bucket_counts.txt",
        "models": ws / "models",
        "model_gallery": ws / "models" / "model_gallery.mgal",
    }


def _catalog(paths) -> SceneCatalog:
    """The workspace's scenes; a manifest that lists none is a data error."""
    catalog = SceneCatalog.from_manifest(paths["manifest"])
    if not len(catalog):
        raise RasterError(f"manifest {paths['manifest']} lists no scene")
    return catalog


def _warn_torn(gallery) -> None:
    if gallery.dropped_bytes:
        print(
            f"warning: dropped {gallery.dropped_bytes} bytes of a torn final line "
            f"in {gallery.path}",
            file=sys.stderr,
        )


def _open_model_gallery(paths, table: CentroidTable) -> ModelGallery:
    """The model gallery ``train`` wrote; a missing one is a data error, never created."""
    path = paths["model_gallery"]
    if not path.exists():
        raise FileNotFoundError(f"model gallery not found: {path} (run train first)")
    registry = ModelGallery(path, table)
    _warn_torn(registry)
    return registry


def _warn_failures(result) -> None:
    for scene_id, problems in sorted(result.failures.items()):
        for p in problems:
            print(f"warning: scene {scene_id}: {p}", file=sys.stderr)


def _scan_embeddings(catalog, config: RunConfig, stage: str):
    """Row-major descriptor pass over every tile of every scene.

    Windows are read and described ``config.batch`` at a time, so no scene is
    held in memory whole.
    """
    ledger = ReadLedger()
    keys = [(scene, ext) for scene in catalog for ext in tile_extents(scene, config.tile_px)]
    rows = np.empty((len(keys), config.feature_dim))
    for i in range(0, len(keys), config.batch):
        chunk = keys[i : i + config.batch]
        tiles = [read_window(scene, ext, ledger, stage) for scene, ext in chunk]
        rows[i : i + len(chunk)] = extract_features(tiles, config.feature_dim)
    return keys, rows


def cmd_synth(config: RunConfig, workspace) -> int:
    paths = _ws_paths(workspace)
    dataset = generate_dataset(paths["scenes"], config)
    print(f"wrote {len(dataset.scene_paths)} scenes to {dataset.out_dir}")
    print(f"manifest: {dataset.manifest_path}")
    return EXIT_OK


def cmd_partition(config: RunConfig, workspace, dump_embeddings=None) -> int:
    paths = _ws_paths(workspace)
    catalog = _catalog(paths)
    keys, embeddings = _scan_embeddings(catalog, config, stage="partition")
    if dump_embeddings:
        with open(dump_embeddings, "w", encoding="ascii") as f:
            dim = embeddings.shape[1]
            f.write("scene_id,x0,y0," + ",".join(f"v{i + 1}" for i in range(dim)) + "\n")
            for (scene, ext), row in zip(keys, embeddings):
                values = ",".join(repr(float(v)) for v in row)
                f.write(f"{scene.scene_id},{ext.x0},{ext.y0},{values}\n")

    # One Ward tree serves both the knee selection and the cut at the chosen k.
    tree = ward_tree(embeddings) if len(embeddings) > 1 else None
    if config.k > 0:
        k = config.k
    else:
        k_hi = min(config.k_max, len(embeddings))
        k = select_bucket_count(embeddings, range(config.k_min, k_hi + 1), tree=tree)
    clusters = fit_clusters(embeddings, k, tree=tree)
    vk = intra_cluster_variance(clusters, embeddings)
    min_d2 = min(
        float(((clusters.centroids[i] - clusters.centroids[j]) ** 2).sum())
        for i in range(k)
        for j in range(i + 1, k)
    ) if k > 1 else float("inf")
    # Well-separated buckets keep centroids far apart relative to their spread.
    if min_d2 < 100.0 * max(vk, 1e-12):
        print(
            f"warning: weak cluster separation "
            f"(min centroid distance^2 {min_d2:.4g} vs within-variance {vk:.4g})",
            file=sys.stderr,
        )

    hash_fn = fit_hash(embeddings, clusters.labels, config.n_bits, seed=config.seed)
    codes = encode_many(hash_fn, embeddings)
    table = bucket_centroids(codes, clusters.labels)

    paths["partition"].mkdir(parents=True, exist_ok=True)
    save_hash(paths["hash"], hash_fn)
    table.save(paths["centroids"])
    if paths["gallery"].exists():
        paths["gallery"].unlink()
    counts: dict[int, int] = {bid: 0 for bid, _ in table.items()}
    with ImageGallery(paths["gallery"], n_bits=config.n_bits, centroids=table) as gallery:
        for (scene, ext), code in zip(keys, codes):
            bucket = assign_bucket(code, table)
            counts[bucket] += 1
            gallery.insert(
                GalleryRecord(
                    code=code,
                    bucket_id=bucket,
                    scene_id=scene.scene_id,
                    extent=ext,
                    storage_path=scene.path,
                )
            )
    lines = [f"{bid} {counts[bid]}\n" for bid, _ in table.items()]
    paths["counts"].write_text("".join(lines), encoding="ascii")
    print(f"partitioned {len(keys)} tiles into {len(table)} buckets:")
    for bid, _ in table.items():
        print(f"  bucket {bid}: {counts[bid]} tiles")
    return EXIT_OK


def _truth_ref(paths, scene):
    return load_scene_header(paths["scenes"] / f"{scene.scene_id}.truth.rsr", scene_id=scene.scene_id)


def cmd_train(config: RunConfig, workspace) -> int:
    paths = _ws_paths(workspace)
    catalog = _catalog(paths)
    table = CentroidTable.load(paths["centroids"])
    paths["models"].mkdir(parents=True, exist_ok=True)
    ledger = ReadLedger()
    truth_refs = {s.scene_id: _truth_ref(paths, s) for s in catalog}
    with ImageGallery(paths["gallery"], centroids=table) as gallery, ModelGallery(
        paths["model_gallery"], table
    ) as registry:
        _warn_torn(gallery)
        _warn_torn(registry)
        for bucket_id, centroid in table.items():
            records = gallery.query_by_bucket(bucket_id)
            if not records:
                print(f"warning: bucket {bucket_id} has no tiles; skipped", file=sys.stderr)
                continue
            samples = []
            for r in records:
                scene = catalog.get(r.scene_id)
                tile = read_window(scene, r.extent, ledger, "train")
                truth_tile = read_window(truth_refs[r.scene_id], r.extent, ledger, "train")
                samples.append(
                    (tile, Mask(w=r.extent.w, h=r.extent.h, labels=truth_tile.pixels[:, :, 0]))
                )
            if len(samples) >= 8:
                val = samples[::4]
                train = [s for i, s in enumerate(samples) if i % 4 != 0]
                scored = "val F1"
            else:
                # Too few tiles to hold some out: F1 is scored on the training tiles.
                val = samples
                train = samples
                scored = "train-set F1"
            try:
                model = train_bucket_model(train)
            except ModelError as e:
                print(f"warning: bucket {bucket_id} skipped: {e}", file=sys.stderr)
                continue
            tp = fp = fn = 0
            for tile, truth_mask in val:
                m = seg_metrics(model.infer([tile])[0], truth_mask)
                tp, fp, fn = tp + m.tp, fp + m.fp, fn + m.fn
            f1 = 1.0 if (2 * tp + fp + fn) == 0 else 2 * tp / (2 * tp + fp + fn)
            version = registry.next_version(centroid, config.task)
            artifact = paths["models"] / f"{config.task}_b{bucket_id}_v{version}.lpm1"
            save_model(artifact, model)
            registry.register(
                ModelRecord(
                    bucket_code=centroid,
                    task=config.task,
                    version=version,
                    artifact_path=str(artifact),
                    train_stats={"samples": len(train), "f1": f1},
                )
            )
            kind = ""
            if not model.weights.any():
                kind = f", constant ({'all building' if model.bias > 0 else 'all background'})"
            print(f"bucket {bucket_id}: version {version}, {len(train)} tiles{kind}, {scored} {f1:.4f}")
    return EXIT_OK


def cmd_infer(config: RunConfig, workspace, out_name="infer", event_log=None, workers=None) -> int:
    if workers is not None:
        config = replace(config, workers=workers).validate()
    paths = _ws_paths(workspace)
    catalog = _catalog(paths)
    scenes = list(catalog)
    table = CentroidTable.load(paths["centroids"])
    hash_fn = load_hash(paths["hash"])
    registry = _open_model_gallery(paths, table)
    out_dir = paths["root"] / out_name
    out_dir.mkdir(parents=True, exist_ok=True)
    run_gallery_path = out_dir / "image_gallery.igal"
    run_gallery_path.unlink(missing_ok=True)
    # Outputs of an earlier run go first, so a scene this run does not map leaves none.
    (out_dir / "metrics.json").unlink(missing_ok=True)
    for scene in scenes:
        (out_dir / f"{scene.scene_id}.mask.rsr").unlink(missing_ok=True)
        (out_dir / f"{scene.scene_id}.buckets.txt").unlink(missing_ok=True)
    pool = DevicePool(config.devices, config.tickets_per_device)
    ledger = ReadLedger()
    with registry, ImageGallery(
        run_gallery_path, n_bits=table.width, centroids=table
    ) as run_gallery:
        assets = PipelineAssets(
            hash_fn=hash_fn,
            centroids=table,
            model_gallery=registry,
            image_gallery=run_gallery,
        )
        result = run_pipeline(scenes, config, assets, pool, ledger)
    centroid_hex = {bid: code.to_hex() for bid, code in table.items()}
    for scene in scenes:
        if scene.scene_id not in result.masks:
            continue
        mask = result.masks[scene.scene_id]
        write_mask(out_dir / f"{scene.scene_id}.mask.rsr", mask, scene.gsd_m, scene.scene_id)
        entries = [(ext, centroid_hex[bucket]) for ext, bucket in mask.provenance.items()]
        write_bucket_sidecar(out_dir / f"{scene.scene_id}.buckets.txt", entries)
    if event_log:
        pool.write_event_log(event_log)
    _warn_failures(result)
    if not result.masks:
        print(f"pipeline error: no scene of {len(scenes)} produced a mask", file=sys.stderr)
        return EXIT_PIPELINE
    metrics = result.metrics.finalize()
    (out_dir / "metrics.json").write_text(metrics.to_json(), encoding="ascii")
    print(f"wrote {len(result.masks)} masks and metrics.json to {out_dir}")
    return EXIT_OK


BENCH_COLUMNS = [
    "workers",
    "scenes",
    "gb",
    "sqkm",
    "wall_s",
    "speedup",
    "sqkm_per_s",
    "gb_per_s",
    "images_per_s",
    "per_day",
]


def cmd_bench(config: RunConfig, workspace, workers_list, scene_counts, out_path=None) -> int:
    if not workers_list or not scene_counts:
        raise ConfigError("bench sweep must list at least one workers and scenes value")
    paths = _ws_paths(workspace)
    out_path = Path(out_path) if out_path else paths["root"] / "bench.csv"
    all_scenes = list(_catalog(paths))
    table = CentroidTable.load(paths["centroids"])
    device = PipelineAssets(
        hash_fn=load_hash(paths["hash"]),
        centroids=table,
        model_gallery=_open_model_gallery(paths, table),
    )
    rows = []
    for n_scenes in scene_counts:
        if n_scenes > len(all_scenes):
            raise ConfigError(f"manifest has {len(all_scenes)} scenes, sweep asks for {n_scenes}")
        scenes = all_scenes[:n_scenes]
        for workers in workers_list:
            pool = DevicePool(config.devices, config.tickets_per_device)
            result = run_pipeline(scenes, replace(config, workers=workers), device, pool)
            _warn_failures(result)
            # A row stands for all n_scenes scenes, so a run that left one unmapped has no row.
            if len(result.masks) < n_scenes:
                print(
                    f"pipeline error: {n_scenes - len(result.masks)} of {n_scenes} scenes "
                    f"produced no mask at workers={workers}; no bench rows written",
                    file=sys.stderr,
                )
                return EXIT_PIPELINE
            m = result.metrics.finalize()
            rows.append(
                {
                    "workers": workers,
                    "scenes": n_scenes,
                    "gb": m.bytes_read / 1e9,
                    "sqkm": m.area_sqkm,
                    "wall_s": m.wall_s,
                    "speedup": m.speedup,
                    "sqkm_per_s": m.sqkm_per_s,
                    "gb_per_s": m.gb_per_s,
                    "images_per_s": m.images_per_s,
                    "per_day": m.sqkm_per_s * 86_400.0,
                }
            )
    with open(out_path, "w", newline="", encoding="ascii") as f:
        writer = csv.DictWriter(f, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} bench rows to {out_path}")
    return EXIT_OK


def _metrics_problem(data) -> str | None:
    """Why a loaded ``metrics.json`` cannot be reported, or None.

    Every ``RunMetrics`` key must be present; ``reads_per_scene`` must hold an
    object and every other key a number (a JSON bool is not one).
    """
    keys = [f.name for f in fields(RunMetrics)]
    missing = [k for k in keys if k not in data] if isinstance(data, dict) else keys
    if missing:
        return f"is not a metrics object; missing keys: {', '.join(missing)}"
    for key in keys:
        wanted = dict if key == "reads_per_scene" else (int, float)
        if isinstance(data[key], bool) or not isinstance(data[key], wanted):
            return f"has a value of the wrong type for key {key}: {data[key]!r}"
    return None


def cmd_report(metrics_path) -> int:
    metrics_path = Path(metrics_path)
    if not metrics_path.exists():
        raise FileNotFoundError(f"metrics file not found: {metrics_path}")
    try:
        data = json.loads(metrics_path.read_text(encoding="ascii"))
        problem = _metrics_problem(data)
    except UnicodeDecodeError as e:
        problem = f"is not ASCII: {e}"
    except RecursionError:
        problem = "nests JSON values too deeply to parse"
    if problem:
        print(f"data error: {metrics_path} {problem}", file=sys.stderr)
        return EXIT_DATA
    day = 86_400.0
    print(f"{'':28s}{'per second':>16s}{'per day':>18s}")
    print(f"{'area mapped (sq.km)':28s}{data['sqkm_per_s']:16.4f}{data['sqkm_per_s'] * day:18.1f}")
    print(f"{'number of images':28s}{data['images_per_s']:16.4f}{data['images_per_s'] * day:18.1f}")
    print(f"{'total image data (GB)':28s}{data['gb_per_s']:16.4f}{data['gb_per_s'] * day:18.1f}")
    print(f"speedup over baseline: {data['speedup']:.2f}x")
    print(f"wall seconds: {data['wall_s']:.3f} over {data['scenes']} scenes, {data['tiles']} tiles")
    return EXIT_OK


def _int_list(raw: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", help="config file (key = value lines)")
        p.add_argument("-w", "--workspace", default="workspace", help="workspace directory")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key",
        )

    p = sub.add_parser("synth", help="generate seeded synthetic scenes and truth masks")
    common(p)
    p = sub.add_parser("partition", help="embed tiles, fit hash and buckets, build the gallery")
    common(p)
    p.add_argument("--dump-embeddings", help="also write embeddings as CSV")
    p = sub.add_parser("train", help="train and register one model per bucket")
    common(p)
    p = sub.add_parser("infer", help="run the full pipeline and write masks + metrics")
    common(p)
    p.add_argument("--out", default="infer", help="output subdirectory name")
    p.add_argument("--event-log", help="write the ticket event log here")
    p.add_argument("--workers", type=int, help="override config workers")
    p = sub.add_parser("bench", help="sweep workers and scene counts, write CSV")
    common(p)
    p.add_argument("--workers-list", default="1,2,4,8", help="comma-separated worker counts")
    p.add_argument("--scene-counts", default="1,12", help="comma-separated scene counts")
    p.add_argument("--out", help="CSV output path")
    p = sub.add_parser("report", help="print throughput arithmetic from a metrics file")
    common(p)
    p.add_argument("--metrics", help="metrics.json path (default <ws>/infer/metrics.json)")
    p = sub.add_parser("config", help="print the effective configuration")
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        if args.command == "synth":
            return cmd_synth(config, args.workspace)
        if args.command == "partition":
            return cmd_partition(config, args.workspace, dump_embeddings=args.dump_embeddings)
        if args.command == "train":
            return cmd_train(config, args.workspace)
        if args.command == "infer":
            return cmd_infer(
                config,
                args.workspace,
                out_name=args.out,
                event_log=args.event_log,
                workers=args.workers,
            )
        if args.command == "bench":
            return cmd_bench(
                config,
                args.workspace,
                _int_list(args.workers_list),
                _int_list(args.scene_counts),
                out_path=args.out,
            )
        if args.command == "report":
            metrics = args.metrics or Path(args.workspace) / "infer" / "metrics.json"
            return cmd_report(metrics)
        if args.command == "config":
            sys.stdout.write(emit_config(config))
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, OSError, json.JSONDecodeError, RasterError, GalleryError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (PipelineError, PoolError, HashError, ClusterError, ModelError, LookupError) as e:
        print(f"pipeline error: {e}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
