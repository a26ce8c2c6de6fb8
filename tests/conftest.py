import numpy as np
import pytest

from resflow.cli import main
from resflow.raster import Mask, Tile, TileExtent


def make_blobs(k, per_cluster, dim=8, spacing=10.0, sigma=0.1, seed=0):
    """Well-separated gaussian blobs; returns (points, labels)."""
    rng = np.random.default_rng(seed)
    centers = rng.permutation(k)[:, None] * spacing + rng.normal(0, 0.5, size=(k, dim))
    points, labels = [], []
    for c in range(k):
        points.append(centers[c] + rng.normal(0, sigma, size=(per_cluster, dim)))
        labels.extend([c] * per_cluster)
    return np.concatenate(points), np.array(labels)


def make_tile(pixels, scene_id="t", x0=0, y0=0):
    pixels = np.asarray(pixels)
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w = pixels.shape[:2]
    return Tile(extent=TileExtent(scene_id, x0, y0, w, h), pixels=pixels)


def make_mask(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return Mask(w=labels.shape[1], h=labels.shape[0], labels=labels)


WS_OVERRIDES = [
    "scenes=3",
    "scene_px=768",
    "tile_px=256",
    "k=6",
    "distributions=6",
    "seed=11",
    "workers=4",
]


def run_cli(args, extra_overrides=()):
    argv = list(args)
    for item in WS_OVERRIDES + list(extra_overrides):
        argv += ["--set", item]
    return main(argv)


@pytest.fixture(scope="session")
def trained_workspace(tmp_path_factory):
    """Synth + partition + train once; shared by pipeline-level tests."""
    ws = tmp_path_factory.mktemp("ws")
    assert run_cli(["synth", "-w", str(ws)]) == 0
    assert run_cli(["partition", "-w", str(ws)]) == 0
    assert run_cli(["train", "-w", str(ws)]) == 0
    return ws
