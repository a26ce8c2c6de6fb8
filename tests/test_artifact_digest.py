import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_digest(seed, workload="tiny"):
    out = subprocess.run(
        [sys.executable, str(HERE / "artifact_digest.py"), "--src", str(HERE.parent / "src"),
         "--seed", str(seed), "--workload", workload],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    return out[:-1], out[-1]


def test_two_runs_give_the_same_digest():
    files, digest = run_digest(5)
    names = [line.split()[1] for line in files]
    assert "build/partition/hash.hsh1" in names
    assert "build/partition/image_gallery.igal" in names
    assert any(n.endswith(".lpm1") for n in names)
    for workers in (1, 2):
        assert f"heldout/map_w{workers}/scene000.mask.rsr" in names
        assert f"heldout/map_w{workers}/scene000.buckets.txt" in names
    assert digest.startswith("digest ")
    assert run_digest(5) == (files, digest)
    assert run_digest(6)[1] != digest


def test_knee_workload_repeats():
    # tiny_knee leaves k to the knee selection over the default 2..10 range
    files, digest = run_digest(5, "tiny_knee")
    names = [line.split()[1] for line in files]
    assert "build/partition/bucket_counts.txt" in names
    assert run_digest(5, "tiny_knee") == (files, digest)
    assert digest != run_digest(5)[1]
