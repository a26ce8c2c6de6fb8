import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resflow import raster
from resflow.raster import (
    MissingTilesError,
    RasterError,
    RasterFormatError,
    ReadLedger,
    SceneCatalog,
    SceneRef,
    TileExtent,
    WindowBoundsError,
    load_scene_header,
    merge_tiles,
    read_mask,
    read_window,
    scene_area_sqkm,
    tile_extents,
    write_mask,
    write_scene,
)

from conftest import make_mask
from simulated import split_mask


def ramp_scene(tmp_path, w=4, h=4, gsd=0.5):
    pixels = (np.arange(w * h, dtype=np.uint8).reshape(h, w))[:, :, None]
    return write_scene(tmp_path / "ramp.rsr", pixels, gsd, scene_id="ramp"), pixels


class TestHeader:
    def test_round_trip(self, tmp_path):
        pixels = np.zeros((80, 100, 3), dtype=np.uint8)
        write_scene(tmp_path / "s.rsr", pixels, 0.5)
        ref = load_scene_header(tmp_path / "s.rsr")
        assert (ref.width_px, ref.height_px, ref.bands) == (100, 80, 3)
        assert ref.dtype == "u8"
        assert ref.gsd_m == 0.5

    def test_u16_and_f32(self, tmp_path):
        for arr, tag in [
            (np.zeros((4, 4), dtype=np.uint16), "u16"),
            (np.zeros((4, 4), dtype=np.float32), "f32"),
        ]:
            write_scene(tmp_path / f"{tag}.rsr", arr, 1.0)
            assert load_scene_header(tmp_path / f"{tag}.rsr").dtype == tag

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scene_header(tmp_path / "nope.rsr")

    def test_truncated_header(self, tmp_path):
        (tmp_path / "bad.rsr").write_bytes(b"RSR1\n100 80")
        with pytest.raises(RasterFormatError, match="malformed header"):
            load_scene_header(tmp_path / "bad.rsr")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.rsr").write_bytes(b"JUNK\n1 1 1 u8 0.5\n\x00")
        with pytest.raises(RasterFormatError, match="malformed header"):
            load_scene_header(tmp_path / "bad.rsr")

    def test_zero_dimension(self, tmp_path):
        (tmp_path / "bad.rsr").write_bytes(b"RSR1\n0 80 3 u8 0.5\n")
        with pytest.raises(RasterFormatError, match="zero dimension"):
            load_scene_header(tmp_path / "bad.rsr")

    def test_truncated_payload(self, tmp_path):
        (tmp_path / "bad.rsr").write_bytes(b"RSR1\n4 4 1 u8 0.5\n" + b"\x00" * 7)
        with pytest.raises(RasterFormatError, match="truncated"):
            load_scene_header(tmp_path / "bad.rsr")


class TestReadWindow:
    def test_full_scene_window(self, tmp_path):
        ref, pixels = ramp_scene(tmp_path)
        ledger = ReadLedger()
        tile = read_window(ref, TileExtent("ramp", 0, 0, 4, 4), ledger, "embed")
        assert np.array_equal(tile.pixels, pixels)

    def test_bottom_right_window_of_ramp(self, tmp_path):
        # 4x4 ramp, values y*4+x; window (2,2,2,2) enumerates to these samples
        ref, _ = ramp_scene(tmp_path)
        ledger = ReadLedger()
        tile = read_window(ref, TileExtent("ramp", 2, 2, 2, 2), ledger, "embed")
        assert np.array_equal(tile.pixels[:, :, 0], np.array([[10, 11], [14, 15]]))

    def test_out_of_bounds(self, tmp_path):
        ref, _ = ramp_scene(tmp_path)
        with pytest.raises(WindowBoundsError):
            read_window(ref, TileExtent("ramp", 3, 3, 2, 2), ReadLedger(), "embed")

    def test_ledger_accounting(self, tmp_path):
        ref, _ = ramp_scene(tmp_path)
        ledger = ReadLedger()
        ext = TileExtent("ramp", 1, 0, 2, 3)
        read_window(ref, ext, ledger, "embed")
        read_window(ref, ext, ledger, "embed")
        read_window(ref, ext, ledger, "infer")
        assert ledger.count("ramp", "embed") == 2
        assert ledger.count("ramp", "infer") == 1
        assert ledger.bytes_read == 3 * (2 * 3)

    def test_window_reads_only_window_bytes(self, tmp_path):
        # 1000x1000x3 scene; a 10x10 window accounts for exactly its own bytes
        pixels = np.zeros((1000, 1000, 3), dtype=np.uint8)
        ref = write_scene(tmp_path / "big.rsr", pixels, 0.5)
        ledger = ReadLedger()
        read_window(ref, TileExtent("big", 500, 500, 10, 10), ledger, "embed")
        assert ledger.bytes_read == 10 * 10 * 3

    def test_multiband_values(self, tmp_path):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 255, size=(12, 9, 3), dtype=np.uint8)
        ref = write_scene(tmp_path / "rgb.rsr", pixels, 0.5)
        tile = read_window(ref, TileExtent("rgb", 2, 3, 4, 5), ReadLedger(), "x")
        assert np.array_equal(tile.pixels, pixels[3:8, 2:6, :])

    @pytest.mark.parametrize(
        "x0, y0, w, h",
        [(2, 3, 5, 1), (4, 1, 1, 6), (1, 2, 4, 3), (0, 0, 7, 8)],
        ids=["one-row", "one-column", "interior", "full-scene"],
    )
    def test_one_open_and_one_pread_per_window(self, tmp_path, monkeypatch, x0, y0, w, h):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 65535, size=(8, 7, 2), dtype=np.uint16)
        ref = write_scene(tmp_path / "s.rsr", pixels, 0.5)
        calls = {"builtin open": 0, "os.open": 0, "os.pread": 0, "os.close": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(raster, "open", counting("builtin open", open), raising=False)
        for name in ("open", "pread", "close"):
            monkeypatch.setattr(os, name, counting(f"os.{name}", getattr(os, name)))
        tile = read_window(ref, TileExtent("s", x0, y0, w, h), ReadLedger(), "embed")
        assert calls == {"builtin open": 0, "os.open": 1, "os.pread": 1, "os.close": 1}
        assert np.array_equal(tile.pixels, pixels[y0 : y0 + h, x0 : x0 + w])

    @pytest.mark.parametrize("gsd", [0.5, 0.1 + 0.2, 1 / 3, 12345.678901234567])
    def test_data_offset_is_where_the_pixels_start(self, tmp_path, gsd):
        pixels = np.arange(5 * 6 * 2, dtype=np.uint16).reshape(5, 6, 2)
        path = tmp_path / "s.rsr"
        written = write_scene(path, pixels, gsd)
        loaded = load_scene_header(path)
        assert written.data_offset == loaded.data_offset == path.stat().st_size - written.nbytes
        assert written == loaded


def write_random_scene(path, rng, dtype, w, h, bands, nan=False):
    if dtype == "f32":
        pixels = rng.normal(0, 100, size=(h, w, bands)).astype(np.float32)
        if nan:
            pixels[rng.integers(h), rng.integers(w), rng.integers(bands)] = np.nan
    else:
        top = 255 if dtype == "u8" else 65535
        pixels = rng.integers(0, top + 1, size=(h, w, bands)).astype(raster.DTYPES[dtype])
    write_scene(path, pixels, 0.5, scene_id="s")
    return load_scene_header(path, scene_id="s")


def all_windows(w, h):
    for y0 in range(h):
        for x0 in range(w):
            for wh in range(1, h - y0 + 1):
                for ww in range(1, w - x0 + 1):
                    yield TileExtent("s", x0, y0, ww, wh)


def check_cut_file(path, ref, cut):
    """Read every window of a scene before and after cutting its file at ``cut`` bytes.

    A window whose last byte lies before the cut reads as it did uncut (the
    same array, or the same non-finite error); every other window raises
    RasterFormatError.
    """
    data_start = Path(path).stat().st_size - ref.nbytes
    pixel = ref.bands * ref.np_dtype.itemsize
    uncut = {}
    for ext in all_windows(ref.width_px, ref.height_px):
        try:
            uncut[ext] = read_window(ref, ext, ReadLedger(), "x").pixels
        except RasterError as e:
            assert "non-finite" in str(e)  # a NaN sample in an f32 window
            uncut[ext] = None
    os.truncate(path, cut)
    for ext, expected in uncut.items():
        last = data_start + (ext.y0 + ext.h - 1) * ref.width_px * pixel + (ext.x0 + ext.w) * pixel
        if last > cut:
            with pytest.raises(RasterFormatError, match="truncated"):
                read_window(ref, ext, ReadLedger(), "x")
        elif expected is None:
            with pytest.raises(RasterError, match="non-finite"):
                read_window(ref, ext, ReadLedger(), "x")
        else:
            assert np.array_equal(read_window(ref, ext, ReadLedger(), "x").pixels, expected)


class TestCutFile:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", ["u8", "u16", "f32"])
    def test_cut_after_header(self, tmp_path, dtype, seed):
        rng = np.random.default_rng(seed)
        w, h, bands = (int(v) for v in rng.integers(1, 6, size=3))
        path = tmp_path / "s.rsr"
        ref = write_random_scene(path, rng, dtype, w, h, bands)
        size = path.stat().st_size
        check_cut_file(path, ref, int(rng.integers(size - ref.nbytes, size)))

    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from(["u8", "u16", "f32"]),
        w=st.integers(1, 5),
        h=st.integers(1, 5),
        bands=st.integers(1, 3),
        nan=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_cut_at_any_byte(self, dtype, w, h, bands, nan, seed, data):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "s.rsr"
            ref = write_random_scene(path, np.random.default_rng(seed), dtype, w, h, bands, nan)
            cut = data.draw(st.integers(0, path.stat().st_size - 1), label="cut")
            check_cut_file(path, ref, cut)

    def test_nan_window_raises(self, tmp_path):
        pixels = np.ones((4, 5, 2), dtype=np.float32)
        pixels[2, 3, 1] = np.nan
        ref = write_scene(tmp_path / "f.rsr", pixels, 0.5, scene_id="s")
        ledger = ReadLedger()
        with pytest.raises(RasterError, match="non-finite"):
            read_window(ref, TileExtent("s", 3, 1, 2, 2), ledger, "x")
        tile = read_window(ref, TileExtent("s", 0, 0, 3, 4), ledger, "x")
        assert np.array_equal(tile.pixels, pixels[:, :3])
        assert ledger.count("s", "x") == 1


class TestTileExtents:
    def test_exact_division(self):
        scene = SceneRef("s", "p", 100, 100, 1, "u8", 0.5, 0)
        assert len(tile_extents(scene, 50)) == 4

    def test_clamped_edges(self):
        scene = SceneRef("s", "p", 100, 100, 1, "u8", 0.5, 0)
        exts = tile_extents(scene, 40)
        assert len(exts) == 9
        assert exts[-1] == TileExtent("s", 80, 80, 20, 20)
        widths = {e.x0: e.w for e in exts}
        assert widths == {0: 40, 40: 40, 80: 20}

    def test_full_scale_grid(self):
        # 40000x35000 at 500 px tiles is an 80x70 grid
        scene = SceneRef("s", "p", 40000, 35000, 3, "u8", 0.5, 0)
        exts = tile_extents(scene, 500)
        assert len(exts) == 5600
        assert sum(e.w * e.h for e in exts) == 40000 * 35000

    def test_coverage_and_disjointness(self):
        scene = SceneRef("s", "p", 101, 67, 1, "u8", 0.5, 0)
        for tile_px in (1, 7, 33, 101, 500):
            exts = tile_extents(scene, tile_px)
            assert sum(e.w * e.h for e in exts) == 101 * 67
            cover = np.zeros((67, 101), dtype=int)
            for e in exts:
                cover[e.y0 : e.y0 + e.h, e.x0 : e.x0 + e.w] += 1
            assert (cover == 1).all()

    def test_bad_args(self):
        scene = SceneRef("s", "p", 10, 10, 1, "u8", 0.5, 0)
        with pytest.raises(RasterError):
            tile_extents(scene, 0)

    def test_deterministic(self):
        scene = SceneRef("s", "p", 333, 222, 1, "u8", 0.5, 0)
        assert tile_extents(scene, 50) == tile_extents(scene, 50)


class TestMerge:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        mask = make_mask(rng.integers(0, 4, size=(100, 100)))
        merged = merge_tiles("s", split_mask("s", mask, 50))
        assert np.array_equal(merged.labels, mask.labels)

    def test_round_trip_ragged(self):
        rng = np.random.default_rng(1)
        mask = make_mask(rng.integers(0, 2, size=(67, 101)))
        for tile_px in (1, 7, 40, 101, 500):
            merged = merge_tiles("s", split_mask("s", mask, tile_px))
            assert np.array_equal(merged.labels, mask.labels)

    def test_overlap_tie_break(self):
        a = TileExtent("s", 0, 0, 4, 4)
        b = TileExtent("s", 2, 0, 4, 4)
        ones = make_mask(np.ones((4, 4)))
        twos = make_mask(np.full((4, 4), 2))
        merged = merge_tiles("s", [(b, twos), (a, ones)], width=6, height=4)
        # overlap columns 2..3 belong to the (y0=0, x0=0) tile
        assert (merged.labels[:, :4] == 1).all()
        assert (merged.labels[:, 4:] == 2).all()

    def test_missing_tile_names_rectangle(self):
        mask = make_mask(np.ones((100, 100)))
        parts = split_mask("s", mask, 50)
        with pytest.raises(MissingTilesError) as err:
            merge_tiles("s", parts[:-1], width=100, height=100)
        assert err.value.rectangles == [(50, 50, 50, 50)]

    def test_foreign_scene_id(self):
        mask = make_mask(np.ones((10, 10)))
        parts = split_mask("other", mask, 10)
        with pytest.raises(RasterError, match="foreign"):
            merge_tiles("s", parts)

    def test_provenance_union(self):
        mask = make_mask(np.ones((10, 10)))
        parts = split_mask("s", mask, 5)
        for i, (ext, m) in enumerate(parts):
            m.provenance[ext] = i % 3
        merged = merge_tiles("s", parts)
        assert len(merged.provenance) == 4
        assert merged.provenance[parts[1][0]] == 1

    @settings(max_examples=25, deadline=None)
    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        tile=st.integers(1, 45),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(self, w, h, tile, seed):
        rng = np.random.default_rng(seed)
        mask = make_mask(rng.integers(0, 255, size=(h, w)))
        merged = merge_tiles("s", split_mask("s", mask, tile))
        assert np.array_equal(merged.labels, mask.labels)


class TestAreaAndMaskIO:
    def test_area_small(self):
        assert scene_area_sqkm(SceneRef("s", "p", 1000, 1000, 1, "u8", 0.5, 0)) == 0.25

    def test_area_full_scale(self):
        assert scene_area_sqkm(SceneRef("s", "p", 40000, 35000, 3, "u8", 0.5, 0)) == 350.0

    def test_zero_area_forbidden(self):
        with pytest.raises(RasterFormatError):
            SceneRef("s", "p", 0, 1000, 1, "u8", 0.5, 0)

    def test_mask_container_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        mask = make_mask(rng.integers(0, 3, size=(20, 30)))
        write_mask(tmp_path / "m.rsr", mask, 0.5)
        back = read_mask(tmp_path / "m.rsr")
        assert np.array_equal(back.labels, mask.labels)


class TestCatalog:
    def test_manifest_round_trip(self, tmp_path):
        for i in range(2):
            write_scene(tmp_path / f"s{i}.rsr", np.zeros((8, 8), dtype=np.uint8), 0.5)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("alpha s0.rsr\nbeta s1.rsr\n")
        cat = SceneCatalog.from_manifest(manifest)
        assert len(cat) == 2
        assert cat.get("alpha").width_px == 8

    def test_duplicate_scene_id(self, tmp_path):
        write_scene(tmp_path / "s0.rsr", np.zeros((8, 8), dtype=np.uint8), 0.5)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("alpha s0.rsr\nalpha s0.rsr\n")
        with pytest.raises(RasterError, match="duplicate"):
            SceneCatalog.from_manifest(manifest)

    def test_config_lines_skipped(self, tmp_path):
        write_scene(tmp_path / "s0.rsr", np.zeros((8, 8), dtype=np.uint8), 0.5)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# comment\nworkers = 4\nalpha s0.rsr\n")
        assert len(SceneCatalog.from_manifest(manifest)) == 1
