import csv
import json
from pathlib import Path

import numpy as np
import pytest

from resflow.cli import main
from resflow.config import ConfigError, RunConfig, emit_config, load_config, parse_config
from resflow.executor import RunMetrics
from resflow.gallery import ImageGallery
from resflow.hashing import CentroidTable
from resflow.embedding import extract_features
from resflow.raster import (
    Mask,
    ReadLedger,
    SceneCatalog,
    load_scene_header,
    read_mask,
    read_window,
    tile_extents,
    write_mask,
)

from conftest import WS_OVERRIDES, run_cli


class TestConfig:
    def test_round_trip(self):
        config = RunConfig(tile_px=256, batch=5, seed=42, task="roads", gsd_m=0.31)
        assert parse_config(emit_config(config)) == config

    def test_defaults_round_trip(self):
        assert parse_config(emit_config(RunConfig())) == RunConfig()

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("not_a_key = 5")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("tile_px = many")

    def test_comments_and_blanks(self):
        config = parse_config("# comment\n\ntile_px = 128\n")
        assert config.tile_px == 128

    def test_override_order(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("workers = 2\n")
        config = load_config(p, overrides=["workers=6"])
        assert config.workers == 6

    def test_validation(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["tile_px=0"])
        # partition has one clustering method; the key that chose between two is gone
        with pytest.raises(ConfigError, match="unknown config key 'cluster_method'"):
            load_config(overrides=["cluster_method=agglomerative"])


class TestSynthCommand:
    def test_deterministic_bytes(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli(["synth", "-w", str(tmp_path / name)]) == 0
        for f in sorted((tmp_path / "a" / "scenes").iterdir()):
            twin = tmp_path / "b" / "scenes" / f.name
            assert f.read_bytes() == twin.read_bytes(), f.name

    def test_truth_matches_generator_records(self, tmp_path):
        assert run_cli(["synth", "-w", str(tmp_path)]) == 0
        records = json.loads((tmp_path / "scenes" / "gen_records.json").read_text())
        for scene_id, entry in records["scenes"].items():
            truth = read_mask(tmp_path / "scenes" / f"{scene_id}.truth.rsr")
            rebuilt = np.zeros_like(truth.labels)
            for x0, y0, w, h in entry["buildings"]:
                rebuilt[y0 : y0 + h, x0 : x0 + w] = 1
            assert np.array_equal(rebuilt, truth.labels)

    def test_every_distribution_present(self, tmp_path):
        assert run_cli(["synth", "-w", str(tmp_path)]) == 0
        records = json.loads((tmp_path / "scenes" / "gen_records.json").read_text())
        seen = set()
        for entry in records["scenes"].values():
            seen.update(c["dist"] for c in entry["cells"])
        assert seen == set(range(6))


class TestPartitionCommand:
    def test_rerun_identical_bytes(self, trained_workspace, tmp_path):
        ws2 = tmp_path / "again"
        assert run_cli(["synth", "-w", str(ws2)]) == 0
        assert run_cli(["partition", "-w", str(ws2)]) == 0
        first = (ws2 / "partition" / "image_gallery.igal").read_bytes()
        assert run_cli(["partition", "-w", str(ws2)]) == 0
        assert (ws2 / "partition" / "image_gallery.igal").read_bytes() == first
        for name in ("hash.hsh1", "centroids.txt", "bucket_counts.txt"):
            assert (ws2 / "partition" / name).exists()

    def test_six_nonempty_buckets(self, trained_workspace):
        counts = (trained_workspace / "partition" / "bucket_counts.txt").read_text().split()
        pairs = list(zip(counts[::2], counts[1::2]))
        assert len(pairs) == 6
        assert all(int(n) > 0 for _, n in pairs)

    def test_embedding_dump(self, trained_workspace, tmp_path):
        out = tmp_path / "emb.csv"
        assert run_cli(["partition", "-w", str(trained_workspace), "--dump-embeddings", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["scene_id", "x0", "y0"]
        assert len(header) == 3 + 48
        assert len(lines) == 1 + 27  # 3 scenes of 3x3 tiles
        # every value parses and is the tile's descriptor row, bit for bit
        catalog = SceneCatalog.from_manifest(trained_workspace / "scenes" / "manifest.txt")
        for line in lines[1:]:
            scene_id, x0, y0, *values = line.split(",")
            scene = catalog.get(scene_id)
            ext = next(e for e in tile_extents(scene, 256) if (e.x0, e.y0) == (int(x0), int(y0)))
            row = extract_features(read_window(scene, ext, ReadLedger(), "partition"))
            assert np.array([float(v) for v in values]).tobytes() == row.tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [[], ["tile_px=256", "k_min=2", "k_max=4"]],
        ids=["knee", "k_max_is_tile_count"],
    )
    def test_one_ward_tree_per_partition(self, tmp_path, monkeypatch, overrides):
        # the knee selection and the cut at the chosen k share one linkage, also
        # when the top of the k range is the tile count (4 tiles of 256 px)
        from resflow import embedding

        ws = tmp_path / "knee"
        sets = [arg for item in ("seed=5", *overrides) for arg in ("--set", item)]
        assert main(["synth", "-w", str(ws), *SMALL_WS, *sets]) == 0
        built = []
        linkage = embedding.linkage
        monkeypatch.setattr(embedding, "linkage", lambda *a, **kw: built.append(1) or linkage(*a, **kw))
        assert main(["partition", "-w", str(ws), *SMALL_WS, *sets, "--set", "k=0"]) == 0
        assert len(built) == 1

    def test_weak_separation_warning(self, tmp_path, capsys):
        ws = tmp_path / "flat"
        assert run_cli(["synth", "-w", str(ws)], extra_overrides=["distributions=1"]) == 0
        assert run_cli(["partition", "-w", str(ws)], extra_overrides=["distributions=1", "k=2"]) == 0
        assert "weak cluster separation" in capsys.readouterr().err


class TestTrainCommand:
    def test_six_registrations_then_versions_advance(self, tmp_path):
        ws = tmp_path / "ws"
        assert run_cli(["synth", "-w", str(ws)]) == 0
        assert run_cli(["partition", "-w", str(ws)]) == 0
        assert run_cli(["train", "-w", str(ws)]) == 0
        lines = [
            line.split()
            for line in (ws / "models" / "model_gallery.mgal").read_text().splitlines()[1:]
        ]
        assert len(lines) == 6
        assert all(line[2] == "1" for line in lines)
        assert run_cli(["train", "-w", str(ws)]) == 0
        lines = (ws / "models" / "model_gallery.mgal").read_text().splitlines()[1:]
        versions = sorted(line.split()[2] for line in lines)
        assert versions == ["1"] * 6 + ["2"] * 6

    def test_validation_f1_floor(self, trained_workspace):
        lines = (trained_workspace / "models" / "model_gallery.mgal").read_text().splitlines()[1:]
        f1s = [float(line.split()[4]) for line in lines]
        assert len(f1s) == 6
        assert min(f1s) >= 0.95


class TestInferCommand:
    def test_metrics_contract(self, trained_workspace):
        assert run_cli(["infer", "-w", str(trained_workspace), "--out", "infer"]) == 0
        data = json.loads((trained_workspace / "infer" / "metrics.json").read_text())
        expected_keys = {
            "wall_s", "stage_a_s", "stage_b_s", "stage_c_s", "scenes", "tiles",
            "bytes_read", "reads_per_scene", "area_sqkm", "speedup", "sqkm_per_s",
            "gb_per_s", "images_per_s",
        }
        assert set(data) == expected_keys
        assert data["scenes"] == 3 and data["tiles"] == 27
        assert set(data["reads_per_scene"].values()) == {2.0}
        # masks and sidecars for every scene
        for i in range(3):
            assert (trained_workspace / "infer" / f"scene{i:03d}.mask.rsr").exists()
            sidecar = (trained_workspace / "infer" / f"scene{i:03d}.buckets.txt").read_text()
            assert len(sidecar.splitlines()) == 9

    def test_masks_recover_truth(self, trained_workspace):
        assert run_cli(["infer", "-w", str(trained_workspace), "--out", "check"]) == 0
        from resflow.models import seg_metrics

        ious = []
        for i in range(3):
            scene_id = f"scene{i:03d}"
            pred = read_mask(trained_workspace / "check" / f"{scene_id}.mask.rsr")
            truth = read_mask(trained_workspace / "scenes" / f"{scene_id}.truth.rsr")
            ious.append(seg_metrics(pred, truth).iou)
        assert min(ious) >= 0.9

    def test_event_log(self, trained_workspace, tmp_path):
        log = tmp_path / "events.log"
        assert run_cli(["infer", "-w", str(trained_workspace), "--out", "ev", "--event-log", str(log)]) == 0
        from resflow.pool import audit_events, parse_event_line

        events = [parse_event_line(line) for line in log.read_text().splitlines()]
        report = audit_events(events, tickets_per_device=2)
        assert report.ok and report.checkouts > 0

    def test_widths_come_from_the_partition_files(self, trained_workspace):
        # n_bits and feature_dim apply at partition; infer must ignore other values.
        ws = str(trained_workspace)
        assert run_cli(["infer", "-w", ws, "--out", "widths_default"]) == 0
        overrides = ["n_bits=8", "feature_dim=64"]
        assert run_cli(["infer", "-w", ws, "--out", "widths_set"], overrides) == 0
        for i in range(3):
            name = f"scene{i:03d}.mask.rsr"
            want = (trained_workspace / "widths_default" / name).read_bytes()
            assert (trained_workspace / "widths_set" / name).read_bytes() == want

    def test_zero_workers_is_config_error(self, trained_workspace, capsys):
        capsys.readouterr()
        assert run_cli(["infer", "-w", str(trained_workspace), "--out", "w0", "--workers", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (trained_workspace / "w0").exists()


SMALL_WS = ["--set", "scenes=1", "--set", "scene_px=512", "--set", "tile_px=128",
            "--set", "k=6", "--set", "distributions=6"]


def small_cli(command, ws, seed=5):
    return main([command, "-w", str(ws), *SMALL_WS, "--set", f"seed={seed}"])


def small_bench(ws):
    return main(["bench", "-w", str(ws), "--workers-list", "1", "--scene-counts", "1", *SMALL_WS])


@pytest.fixture
def small_partitioned(tmp_path):
    ws = tmp_path / "small"
    assert small_cli("synth", ws) == 0
    assert small_cli("partition", ws) == 0
    return ws


class TestInferFailures:
    def test_no_mask_after_repartition_is_4(self, small_partitioned, capsys):
        ws = small_partitioned
        assert small_cli("train", ws) == 0
        assert small_cli("infer", ws) == 0  # leaves outputs the failed run must remove
        stale = ["metrics.json", "scene000.mask.rsr", "scene000.buckets.txt"]
        assert all((ws / "infer" / name).exists() for name in stale)
        assert small_cli("partition", ws, seed=6) == 0
        capsys.readouterr()
        assert small_cli("infer", ws, seed=6) == 4
        err = capsys.readouterr().err
        assert "model gap" in err
        assert "no scene of 1 produced a mask" in err
        assert "Traceback" not in err
        assert [name for name in stale if (ws / "infer" / name).exists()] == []

    def test_bench_with_an_unmapped_scene_is_4(self, small_partitioned, capsys):
        # a bench row stands for every scene it lists, so a run that maps none has no row
        ws = small_partitioned
        assert small_cli("train", ws) == 0
        assert small_cli("partition", ws, seed=6) == 0
        capsys.readouterr()
        assert small_bench(ws) == 4
        err = capsys.readouterr().err
        assert "model gap" in err
        assert "no bench rows written" in err
        assert "Traceback" not in err
        assert not (ws / "bench.csv").exists()

    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_missing_model_gallery_is_3(self, small_partitioned, capsys, command):
        # only train creates the model gallery
        ws = small_partitioned
        (ws / "models").mkdir()
        capsys.readouterr()
        assert (small_cli(command, ws) if command == "infer" else small_bench(ws)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "model_gallery.mgal" in err
        assert list((ws / "models").iterdir()) == []
        assert not (ws / "infer").exists() and not (ws / "bench.csv").exists()

    @pytest.mark.parametrize("command", ["partition", "train", "infer", "bench"])
    def test_empty_manifest_is_3(self, small_partitioned, capsys, command):
        ws = small_partitioned
        assert small_cli("train", ws) == 0
        manifest = ws / "scenes" / "manifest.txt"
        manifest.write_text("# no scenes\n")
        capsys.readouterr()
        assert (small_bench(ws) if command == "bench" else small_cli(command, ws)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "lists no scene" in err and str(manifest) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["partition", "train", "infer", "bench"])
    def test_manifest_not_utf8_is_3(self, small_partitioned, capsys, command):
        ws = small_partitioned
        assert small_cli("train", ws) == 0
        manifest = ws / "scenes" / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"scene\xff scene000.rsr\n")
        capsys.readouterr()
        assert (small_bench(ws) if command == "bench" else small_cli(command, ws)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "not UTF-8" in err and str(manifest) in err
        assert "Traceback" not in err

    def test_bench_sweep_beyond_the_manifest_is_2(self, small_partitioned, capsys):
        ws = small_partitioned
        assert small_cli("train", ws) == 0
        capsys.readouterr()
        argv = ["bench", "-w", str(ws), "--workers-list", "1", "--scene-counts", "2", *SMALL_WS]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sweep asks for 2" in err

    def test_torn_gallery_tail_is_dropped_with_a_warning(self, small_partitioned, capsys):
        ws = small_partitioned
        gallery = ws / "partition" / "image_gallery.igal"
        intact = gallery.read_bytes()
        with open(gallery, "ab") as f:
            f.write(b"16 abc")
        capsys.readouterr()
        assert small_cli("train", ws) == 0
        assert "warning: dropped 6 bytes of a torn final line" in capsys.readouterr().err
        assert gallery.read_bytes() == intact + b"16 abc"  # train only reads the gallery

    def test_torn_model_gallery_tail_is_dropped_with_a_warning(self, small_partitioned, capsys):
        ws = small_partitioned
        assert small_cli("train", ws) == 0
        registry = ws / "models" / "model_gallery.mgal"
        with open(registry, "ab") as f:
            f.write(b"abc")
        capsys.readouterr()
        assert small_cli("infer", ws) == 0
        assert "warning: dropped 3 bytes of a torn final line" in capsys.readouterr().err
        assert registry.read_bytes().endswith(b"\nabc")  # infer only reads the registry

    @pytest.mark.parametrize(
        "command, name, line",
        [
            ("train", "partition/image_gallery.igal", b"x 0f 1 scene000 0 0 128 128 p - -\n"),
            ("infer", "models/model_gallery.mgal", b"{centroid} building x /a 0.5\n"),
            ("infer", "models/model_gallery.mgal", b"\xff\n"),
        ],
        ids=["igal-int", "mgal-int", "mgal-non-ascii"],
    )
    def test_bad_gallery_token_is_3(self, small_partitioned, capsys, command, name, line):
        ws = small_partitioned
        assert small_cli("train", ws) == 0
        centroid = (ws / "partition" / "centroids.txt").read_text().splitlines()[1].split()[1]
        with open(ws / name, "ab") as f:
            f.write(line.replace(b"{centroid}", centroid.encode()))
        capsys.readouterr()
        assert small_cli(command, ws) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_malformed_gallery_line_is_3(self, small_partitioned, capsys):
        with open(small_partitioned / "partition" / "image_gallery.igal", "ab") as f:
            f.write(b"16 abc\n")
        capsys.readouterr()
        assert small_cli("train", small_partitioned) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "malformed gallery line (2 fields)" in err

    def test_empty_manifest_with_default_k_is_3(self, tmp_path, capsys):
        (tmp_path / "scenes").mkdir()
        (tmp_path / "scenes" / "manifest.txt").write_text("")
        capsys.readouterr()
        assert main(["partition", "-w", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize(
        "name, content",
        [
            ("hash.hsh1", b"HSH1\0\0"),
            ("hash.hsh1", b""),
            ("centroids.txt", b"CTAB1 n_bits=abc\n0 0f\n"),
            ("centroids.txt", b"CTAB1 n_bits=8\nzero 0f\n"),
            ("centroids.txt", b"CTAB1 n_bits=8\n0 0g\n"),
            ("centroids.txt", b"CTAB1 n_bits=8\n0 \xff\n"),
        ],
    )
    def test_broken_partition_file_is_4(self, small_partitioned, capsys, name, content):
        (small_partitioned / "partition" / name).write_bytes(content)
        capsys.readouterr()
        assert small_cli("infer", small_partitioned) == 4
        err = capsys.readouterr().err
        assert err.startswith("pipeline error:") and "Traceback" not in err

    def test_truncated_model_artifact_is_4(self, small_partitioned, capsys):
        ws = small_partitioned
        assert small_cli("train", ws) == 0
        artifact = sorted((ws / "models").glob("*.lpm1"))[0]
        artifact.write_bytes(b"LPM1\x03")  # the magic, then one byte of the band count
        capsys.readouterr()
        assert small_cli("infer", ws) == 4
        err = capsys.readouterr().err
        assert err.startswith("pipeline error:") and artifact.name in err
        assert "Traceback" not in err


class TestOneClassBucket:
    def test_bucket_without_buildings_gets_a_constant_model(self, small_partitioned, capsys):
        ws = small_partitioned
        table = CentroidTable.load(ws / "partition" / "centroids.txt")
        with ImageGallery(ws / "partition" / "image_gallery.igal", centroids=table) as gallery:
            extents = [r.extent for r in gallery.query_by_bucket(0)]
        assert len(extents) == 3
        truth_path = ws / "scenes" / "scene000.truth.rsr"
        labels = read_mask(truth_path).labels.copy()
        for e in extents:
            assert labels[e.y0 : e.y0 + e.h, e.x0 : e.x0 + e.w].any()
            labels[e.y0 : e.y0 + e.h, e.x0 : e.x0 + e.w] = 0
        gsd_m = load_scene_header(truth_path).gsd_m
        write_mask(truth_path, Mask(w=labels.shape[1], h=labels.shape[0], labels=labels), gsd_m)
        capsys.readouterr()
        assert small_cli("train", ws) == 0
        out, err = capsys.readouterr()
        assert "bucket 0: version 1, 3 tiles, constant (all background), train-set F1 1.0000" in out
        assert "skipped" not in err
        assert small_cli("infer", ws) == 0
        mask = read_mask(ws / "infer" / "scene000.mask.rsr").labels
        assert mask.any()
        for e in extents:
            assert not mask[e.y0 : e.y0 + e.h, e.x0 : e.x0 + e.w].any()


def test_workspace_path_with_space(tmp_path):
    ws = tmp_path / "ws space é"
    for command in ("synth", "partition", "train", "infer"):
        assert small_cli(command, ws) == 0, command
    assert (ws / "infer" / "scene000.mask.rsr").exists()
    assert small_bench(ws) == 0
    assert len((ws / "bench.csv").read_text().splitlines()) == 2


def test_manifest_path_with_space(tmp_path):
    # the manifest names its scene by an absolute path through a directory
    # whose name has a space; the truth mask stays in the workspace
    ws = tmp_path / "ws"
    assert small_cli("synth", ws) == 0
    elsewhere = tmp_path / "sp ace"
    elsewhere.mkdir()
    (ws / "scenes" / "scene000.rsr").rename(elsewhere / "scene000.rsr")
    (ws / "scenes" / "manifest.txt").write_text(f"scene000 {elsewhere / 'scene000.rsr'}\n")
    for command in ("partition", "train", "infer"):
        assert small_cli(command, ws) == 0, command
    assert read_mask(ws / "infer" / "scene000.mask.rsr").labels.any()
    with ImageGallery(ws / "partition" / "image_gallery.igal") as gallery:
        paths = {r.storage_path for b in range(6) for r in gallery.query_by_bucket(b)}
    assert paths == {str(elsewhere / "scene000.rsr")}


class TestBenchCommand:
    def test_csv_shape_and_arithmetic(self, trained_workspace, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli(
            ["bench", "-w", str(trained_workspace), "--workers-list", "1,2", "--scene-counts", "1,3",
             "--out", str(out)]
        )
        assert code == 0
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert [(row["workers"], row["scenes"]) for row in rows] == [
            ("1", "1"), ("2", "1"), ("1", "3"), ("2", "3")
        ]
        assert list(rows[0]) == [
            "workers", "scenes", "gb", "sqkm", "wall_s", "speedup",
            "sqkm_per_s", "gb_per_s", "images_per_s", "per_day",
        ]
        for row in rows:
            # 768-px scenes at 0.5 m
            assert float(row["sqkm"]) == pytest.approx(int(row["scenes"]) * 0.384**2)
            assert float(row["per_day"]) == pytest.approx(86_400.0 * float(row["sqkm_per_s"]), rel=1e-9)

    def test_empty_sweep_is_config_error(self, tmp_path):
        code = main(["bench", "-w", str(tmp_path), "--workers-list", ""])
        assert code == 2


def complete_metrics(**changes) -> bytes:
    """A finalized metrics.json with ``changes`` applied to its values."""
    data = json.loads(RunMetrics(wall_s=1.0, scenes=1, tiles=4, area_sqkm=1.0).finalize().to_json())
    return json.dumps({**data, **changes}).encode("ascii")


class TestReportCommand:
    def test_report_output(self, trained_workspace, capsys):
        assert run_cli(["infer", "-w", str(trained_workspace), "--out", "infer"]) == 0
        assert main(["report", "-w", str(trained_workspace)]) == 0
        out = capsys.readouterr().out
        assert "per second" in out and "per day" in out
        assert "area mapped (sq.km)" in out
        assert "speedup over baseline" in out

    def test_report_math_matches_metrics(self, trained_workspace, capsys):
        assert run_cli(["infer", "-w", str(trained_workspace), "--out", "infer"]) == 0
        data = json.loads((trained_workspace / "infer" / "metrics.json").read_text())
        assert main(["report", "-w", str(trained_workspace)]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if "area mapped" in l][0]
        per_s, per_day = (float(v) for v in line.split()[-2:])
        assert per_day == pytest.approx(per_s * 86_400.0, rel=1e-3)

    def test_published_area_per_day(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_bytes(complete_metrics(sqkm_per_s=5.245))
        capsys.readouterr()
        assert main(["report", "--metrics", str(path)]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if "area mapped" in l][0]
        assert line.split()[-1] == "453168.0"

    @pytest.mark.parametrize(
        "content, named",
        [
            (b"[]", ["images_per_s", "wall_s"]),
            (b'{"sqkm_per_s": 1.0}', ["images_per_s", "wall_s"]),
            (complete_metrics(sqkm_per_s="x"), ["sqkm_per_s"]),
            (complete_metrics(speedup=None), ["speedup"]),
            (complete_metrics(scenes=True), ["scenes"]),
            (complete_metrics(reads_per_scene=[]), ["reads_per_scene"]),
            (b'{"wall_s": "\xff"}', ["ASCII"]),
            (b'{"wall_s": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", ["too deeply"]),
        ],
        ids=["list", "one_key", "str_rate", "null_speedup", "bool_scenes", "list_reads", "not_ascii", "deep"],
    )
    def test_malformed_metrics_is_3(self, tmp_path, capsys, content, named):
        path = tmp_path / "metrics.json"
        path.write_bytes(content)
        capsys.readouterr()
        assert main(["report", "--metrics", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("data error:") and str(path) in err
        assert all(key in err for key in named)


class TestExitCodes:
    def test_unknown_key_is_2(self, tmp_path):
        assert main(["synth", "-w", str(tmp_path), "--set", "bogus=1"]) == 2

    def test_missing_manifest_is_3(self, tmp_path):
        assert main(["partition", "-w", str(tmp_path)]) == 3

    def test_degenerate_input_is_4(self, tmp_path):
        # single flat distribution with zero noise has no separating direction
        ws = tmp_path / "flat"
        (ws / "scenes").mkdir(parents=True)
        from resflow.raster import write_scene

        flat = np.full((256, 256, 3), 80, dtype=np.uint8)
        for i in range(2):
            write_scene(ws / "scenes" / f"s{i}.rsr", flat, 0.5)
        (ws / "scenes" / "manifest.txt").write_text("s0 s0.rsr\ns1 s1.rsr\n")
        code = main(["partition", "-w", str(ws), "--set", "tile_px=128", "--set", "k=2"])
        assert code == 4

    @pytest.mark.parametrize(
        "override", ["simulate=true", "cost_base_ms=1", "cost_ms_per_megapixel=1", "k=13", "k_max=13"]
    )
    def test_removed_key_or_more_than_twelve_buckets_is_2(self, tmp_path, capsys, override):
        capsys.readouterr()
        assert main(["bench", "-w", str(tmp_path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["synth", "-w", str(tmp_path), "-c", str(tmp_path / "none.cfg")]) == 2

    def test_config_file_not_utf8_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# caf\xe9\n")
        capsys.readouterr()
        assert main(["config", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not UTF-8" in err and str(cfg) in err

    def test_config_path_is_a_directory_is_2(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["config", "-c", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not a file" in err and str(tmp_path) in err
