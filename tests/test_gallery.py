from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from resflow.gallery import (
    GalleryError,
    GalleryRecord,
    ImageGallery,
    ModelGallery,
    ModelGapError,
    ModelRecord,
    RecordInvariantError,
    UnknownBucketError,
    model_record_to_line,
    record_to_line,
)
from resflow.hashing import BinaryCode, CentroidTable, assign_bucket
from resflow.raster import TileExtent

from conftest import text_artifacts


@pytest.fixture
def table():
    return CentroidTable(
        codes={0: BinaryCode(0x00, 8), 1: BinaryCode(0x0F, 8), 2: BinaryCode(0xF0, 8)}
    )


def record_for(code, table, scene="sceneA", x0=0, y0=0):
    return GalleryRecord(
        code=code,
        bucket_id=assign_bucket(code, table),
        scene_id=scene,
        extent=TileExtent(scene, x0, y0, 16, 16),
        storage_path=f"/data/{scene}.rsr",
    )


class TestImageGallery:
    def test_first_insert_is_zero(self, tmp_path, table):
        with ImageGallery(tmp_path / "g.igal", n_bits=8, centroids=table) as g:
            assert g.insert(record_for(BinaryCode(0x0F, 8), table)) == 0
            assert g.insert(record_for(BinaryCode(0x01, 8), table)) == 1

    def test_duplicate_flagged_not_rejected(self, tmp_path, table):
        with ImageGallery(tmp_path / "g.igal", n_bits=8, centroids=table) as g:
            r = record_for(BinaryCode(0x0F, 8), table)
            assert g.insert(r) == 0
            assert g.insert(r) == 1

    def test_inconsistent_bucket_rejected(self, tmp_path, table):
        with ImageGallery(tmp_path / "g.igal", n_bits=8, centroids=table) as g:
            bad = GalleryRecord(
                code=BinaryCode(0x0F, 8),
                bucket_id=2,
                scene_id="s",
                extent=TileExtent("s", 0, 0, 4, 4),
                storage_path="/d/s.rsr",
            )
            with pytest.raises(RecordInvariantError):
                g.insert(bad)

    def test_query_by_bucket_in_order(self, tmp_path, table):
        with ImageGallery(tmp_path / "g.igal", n_bits=8, centroids=table) as g:
            codes = [BinaryCode(0x0F, 8), BinaryCode(0x0E, 8), BinaryCode(0x0D, 8)]
            for i, c in enumerate(codes):
                g.insert(record_for(c, table, x0=i))
            got = g.query_by_bucket(1)
            assert [r.code for r in got] == codes
            assert g.query_by_bucket(99) == []

    def test_optional_fields_round_trip(self, tmp_path, table):
        r = GalleryRecord(
            code=BinaryCode(0x0F, 8),
            bucket_id=1,
            scene_id="s",
            extent=TileExtent("s", 1, 2, 3, 4),
            storage_path="/d/s.rsr",
            geo_bbox=(-106.5, 35.0, -106.25, 35.25),
            acquired_at="2019-07-01T10:00:00Z",
        )
        path = tmp_path / "g.igal"
        with ImageGallery(path, n_bits=8, centroids=table) as g:
            g.insert(r)
        with ImageGallery(path, centroids=table) as g:
            assert g.query_by_bucket(1) == [r]

    def test_durability_byte_identical_answers(self, tmp_path, table):
        rng = np.random.default_rng(0)
        path = tmp_path / "g.igal"
        with ImageGallery(path, n_bits=8, centroids=table) as g:
            for i in range(100):
                g.insert(record_for(BinaryCode(int(rng.integers(256)), 8), table, x0=i))
            before = b"".join(
                record_to_line(i, r).encode() for i, r in enumerate(g.query_by_bucket(1))
            )
        with ImageGallery(path) as g:
            after = b"".join(
                record_to_line(i, r).encode() for i, r in enumerate(g.query_by_bucket(1))
            )
            assert after == before

    def test_whitespace_token_rejected(self, tmp_path, table):
        with ImageGallery(tmp_path / "g.igal", n_bits=8, centroids=table) as g:
            bad = GalleryRecord(
                code=BinaryCode(0x0F, 8),
                bucket_id=1,
                scene_id="has space",
                extent=TileExtent("has space", 0, 0, 4, 4),
                storage_path="/d/s.rsr",
            )
            with pytest.raises(GalleryError):
                g.insert(bad)

    def test_path_with_space_and_percent_round_trips(self, tmp_path, table):
        r = replace(record_for(BinaryCode(0x0F, 8), table), storage_path="/my data/100%\tsé.rsr")
        path = tmp_path / "g.igal"
        with ImageGallery(path, n_bits=8, centroids=table) as g:
            g.insert(r)
        assert "/my%20data/100%25%09s%C3%A9.rsr" in path.read_text()
        with ImageGallery(path, centroids=table) as g:
            assert g.query_by_bucket(1) == [r]

    def test_ordinary_path_bytes_unchanged(self, table):
        r = record_for(BinaryCode(0x0F, 8), table)
        assert record_to_line(0, r).split()[8] == "/data/sceneA.rsr"

    def test_torn_final_line_dropped_then_truncated(self, tmp_path, table):
        path = tmp_path / "g.igal"
        with ImageGallery(path, n_bits=8, centroids=table) as g:
            g.insert(record_for(BinaryCode(0x0F, 8), table))
        intact = path.read_bytes()
        with open(path, "ab") as f:
            f.write(b"1 0f 1 sceneA 16")  # a crash cut this append short
        with ImageGallery(path, centroids=table) as g:
            assert g.dropped_bytes == 16
            assert len(g) == 1
            assert path.read_bytes() == intact + b"1 0f 1 sceneA 16"  # opening writes nothing
            assert g.insert(record_for(BinaryCode(0xF0, 8), table, x0=16)) == 1
        assert path.read_bytes() == intact + record_to_line(
            1, record_for(BinaryCode(0xF0, 8), table, x0=16)
        ).encode()
        with ImageGallery(path, centroids=table) as g:
            assert g.dropped_bytes == 0
            assert [r.extent.x0 for r in g.query_by_bucket(2)] == [16]

    def test_malformed_line_with_newline_still_raises(self, tmp_path, table):
        path = tmp_path / "g.igal"
        with ImageGallery(path, n_bits=8, centroids=table) as g:
            g.insert(record_for(BinaryCode(0x0F, 8), table))
        with open(path, "ab") as f:
            f.write(b"16 abc\n")
        with pytest.raises(GalleryError, match="malformed gallery line"):
            ImageGallery(path, centroids=table)
        path.write_bytes(path.read_bytes()[:-7] + b"\xff\n")
        with pytest.raises(GalleryError, match="non-ASCII byte"):
            ImageGallery(path, centroids=table)

    @pytest.mark.parametrize(
        "line",
        [
            b"x 0f 1 sceneA 0 0 16 16 /d/s.rsr - -",
            b"0 zz 1 sceneA 0 0 16 16 /d/s.rsr - -",
            b"0 0f one sceneA 0 0 16 16 /d/s.rsr - -",
            b"0 0f 1 sceneA 0 0 16 1e1 /d/s.rsr - -",
            b"0 0f 1 sceneA 0 0 16 16 /d/s.rsr 1,2,x,4 -",
        ],
        ids=["record_id", "code", "bucket_id", "h", "geo_bbox"],
    )
    def test_token_that_does_not_parse_is_gallery_error(self, tmp_path, line):
        path = tmp_path / "g.igal"
        path.write_bytes(b"IGAL1 n_bits=8\n" + line + b"\n")
        with pytest.raises(GalleryError, match="malformed gallery line"):
            ImageGallery(path)

    def test_torn_header_is_malformed(self, tmp_path):
        path = tmp_path / "g.igal"
        path.write_bytes(b"IGAL1 n_bi")
        with pytest.raises(GalleryError, match="malformed gallery header"):
            ImageGallery(path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=text_artifacts(st.one_of(st.integers(min_value=0).map("IGAL1 n_bits={}".format), st.text(max_size=16))))
    @example(raw=b"IGAL1 n_bits=%d\n0 1 0 s 0 0 1 1 /d/s.rsr - -\n" % 2**70)
    def test_any_bytes_open_or_raise_gallery_error(self, tmp_path, raw):
        path = tmp_path / "g.igal"
        path.write_bytes(raw)
        try:
            ImageGallery(path).close()
        except GalleryError:
            pass


class TestModelGallery:
    def test_path_with_space_and_percent_round_trips(self, tmp_path, table):
        path = tmp_path / "m.mgal"
        artifact = "/my models/b 0 @ 50%.lpm1"
        with ModelGallery(path, table) as g:
            g.register(ModelRecord(table.codes[0], "building", 0, artifact, {"f1": 0.9}))
        assert "/my%20models/b%200%20@%2050%25.lpm1" in path.read_text()
        with ModelGallery(path, table) as g:
            assert g.lookup(table.codes[0], "building").artifact_path == artifact

    def test_versions_monotone(self, tmp_path, table):
        with ModelGallery(tmp_path / "m.mgal", table) as g:
            c = table.codes[0]
            r = ModelRecord(c, "building", 0, "/m/a.lpm1", {"f1": 0.9})
            assert g.register(r) == 1
            assert g.register(r) == 2
            assert g.register(r) == 3
            assert g.lookup(c, "building").version == 3

    def test_missing_task_is_model_gap(self, tmp_path, table):
        with ModelGallery(tmp_path / "m.mgal", table) as g:
            g.register(ModelRecord(table.codes[0], "building", 0, "/m/a.lpm1", {"f1": 0.9}))
            with pytest.raises(ModelGapError, match="roads"):
                g.lookup(table.codes[0], "roads")
            with pytest.raises(ModelGapError):
                g.lookup(table.codes[1], "building")

    def test_foreign_centroid_rejected(self, tmp_path, table):
        with ModelGallery(tmp_path / "m.mgal", table) as g:
            with pytest.raises(UnknownBucketError):
                g.register(ModelRecord(BinaryCode(0xAA, 8), "building", 0, "/m/a.lpm1", {}))

    def test_every_bucket_resolves(self, tmp_path, table):
        with ModelGallery(tmp_path / "m.mgal", table) as g:
            for bid, code in table.items():
                g.register(ModelRecord(code, "building", 0, f"/m/b{bid}.lpm1", {"f1": 0.8}))
            for _, code in table.items():
                assert g.lookup(code, "building").task == "building"

    def test_reopen_preserves_lookups(self, tmp_path, table):
        path = tmp_path / "m.mgal"
        with ModelGallery(path, table) as g:
            g.register(ModelRecord(table.codes[2], "building", 0, "/m/a.lpm1", {"f1": 0.75}))
            g.register(ModelRecord(table.codes[2], "building", 0, "/m/b.lpm1", {"f1": 0.8}))
        with ModelGallery(path, table) as g:
            top = g.lookup(table.codes[2], "building")
            assert top.version == 2
            assert top.artifact_path == "/m/b.lpm1"
            assert top.train_stats["f1"] == 0.8

    def test_torn_final_line_dropped_then_truncated(self, tmp_path, table):
        path = tmp_path / "m.mgal"
        first = ModelRecord(table.codes[0], "building", 1, "/m/a.lpm1", {"f1": 0.9})
        with ModelGallery(path, table) as g:
            g.register(first)
        intact = path.read_bytes()
        with open(path, "ab") as f:
            f.write(b"0f building 1 /m")  # a crash cut this append short
        second = ModelRecord(table.codes[1], "building", 1, "/m/b.lpm1", {"f1": 0.8})
        with ModelGallery(path, table) as g:
            assert g.dropped_bytes == 16
            assert g.lookup(table.codes[0], "building") == first
            assert path.read_bytes() == intact + b"0f building 1 /m"  # opening writes nothing
            assert g.register(second) == 1
        assert path.read_bytes() == intact + model_record_to_line(second).encode()
        with ModelGallery(path, table) as g:
            assert g.dropped_bytes == 0
            assert g.lookup(table.codes[1], "building") == second

    @pytest.mark.parametrize(
        "line, match",
        [
            (b"00 building x /m/a.lpm1 0.5", "malformed model gallery line"),
            (b"00 building 1 /m/a.lpm1 high", "malformed model gallery line"),
            (b"zz building 1 /m/a.lpm1 0.5", "malformed model gallery line"),
            (b"100 building 1 /m/a.lpm1 0.5", "malformed model gallery line"),
            (b"00 building 1 /m/\xe9.lpm1 0.5", "non-ASCII byte"),
        ],
        ids=["version", "f1", "code", "code_too_wide", "non_ascii"],
    )
    def test_token_that_does_not_parse_is_gallery_error(self, tmp_path, table, line, match):
        path = tmp_path / "m.mgal"
        path.write_bytes(b"MGAL1\n" + line + b"\n")
        with pytest.raises(GalleryError, match=match):
            ModelGallery(path, table)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=text_artifacts(st.one_of(st.just("MGAL1"), st.text(max_size=8))))
    def test_any_bytes_open_or_raise_gallery_error(self, tmp_path, table, raw):
        path = tmp_path / "m.mgal"
        path.write_bytes(raw)
        try:
            ModelGallery(path, table).close()
        except GalleryError:
            pass
