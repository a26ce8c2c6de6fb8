#!/usr/bin/env python3
"""sha256 over the artifacts of one build-and-map run of a resflow source tree.

    python3 tests/artifact_digest.py --src src --workload coarse_heldout --seed 15

The run takes its workload shapes, class count, ground sample distance and
held-out seed offset from ``perfbench/run.py`` and builds its configs the way
that script does: ``synth`` a build and a held-out workspace, ``partition``
and ``train`` on the build, copy its ``partition/`` and ``models/`` next to
the held-out scenes, then ``infer`` there at workers 1 and 2. It prints one
``sha256 name`` line per artifact (the build's ``partition/`` files, every
``.lpm1``, and every mask and bucket sidecar of both ``infer`` runs) and ends
with ``digest <hex>`` over all of them. To compare two checkouts, give
``--against`` the ``src`` directory of the other one:

    python3 tests/artifact_digest.py --src src --against ../parent/src --seed 15

Each tree then runs in its own interpreter, and the output is one
``same name`` or ``differs name`` line per artifact of either run, then a
``digest <hex> <src>`` line per tree. Two extra workloads run in a few
seconds on 512-px scenes: ``tiny`` (128-px tiles, ``k`` pinned to the class
count) and ``tiny_knee`` (64-px tiles, the default 2..10 ``k`` range, so the
knee selection runs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def _load_perfbench():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = _load_perfbench()
WORKLOADS = {
    **bench.WORKLOADS,
    "tiny": bench.Workload(128, bench.CLASSES, bench.CLASSES, 512, 1, 512, 4, 2, 1),
    "tiny_knee": bench.Workload(64, 2, 10, 512, 1, 512, 4, 2, 1),
}


def _run(fn, *args, **kwargs) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = fn(*args, **kwargs)
    if rc != 0:
        raise SystemExit(f"{fn.__name__} exited {rc}:\n{sink.getvalue()}")


def artifact_digests(name: str, seed: int, work_dir: Path) -> list[tuple[str, str]]:
    """(sha256, relative name) for every artifact of one run, in name order."""
    from resflow import cli
    from resflow.config import RunConfig

    wl = WORKLOADS[name]

    def config(scenes, px, cfg_seed):
        return RunConfig(
            tile_px=wl.tile_px, k=0, k_min=wl.k_min, k_max=wl.k_max, scenes=scenes,
            scene_px=px, distributions=bench.CLASSES, gsd_m=bench.GSD_M, seed=cfg_seed,
            devices=wl.devices, tickets_per_device=wl.tickets_per_device,
        ).validate()

    build_cfg = config(1, wl.build_px, seed)
    held_cfg = config(wl.heldout_scenes, wl.heldout_px, seed + bench.HELDOUT_SEED_OFFSET)
    here = os.getcwd()
    os.chdir(work_dir)  # relative workspace paths keep the gallery bytes run-independent
    try:
        build, held = Path("build"), Path("heldout")
        _run(cli.cmd_synth, build_cfg, build)
        _run(cli.cmd_synth, held_cfg, held)
        _run(cli.cmd_partition, build_cfg, build)
        _run(cli.cmd_train, build_cfg, build)
        for part in ("partition", "models"):
            shutil.copytree(build / part, held / part)
        for workers in (1, 2):
            _run(cli.cmd_infer, held_cfg, held, out_name=f"map_w{workers}", workers=workers)
        files = sorted(p for p in (build / "partition").iterdir() if p.is_file())
        files += sorted((build / "models").glob("*.lpm1"))
        for workers in (1, 2):
            out = held / f"map_w{workers}"
            files += sorted([*out.glob("*.mask.rsr"), *out.glob("*.buckets.txt")])
        return [(hashlib.sha256(p.read_bytes()).hexdigest(), p.as_posix()) for p in files]
    finally:
        os.chdir(here)


def combined_digest(entries: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for digest, name in entries:
        h.update(f"{digest} {name}\n".encode("ascii"))
    return h.hexdigest()


def run_tree(src: Path, workload: str, seed: int) -> tuple[dict[str, str], str]:
    """The artifact digests by name and the overall digest of ``src``, run in a child interpreter."""
    run = subprocess.run(
        [sys.executable, __file__, "--src", str(src), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True,
    )
    if run.returncode != 0:
        raise SystemExit(f"{src} exited {run.returncode}:\n{run.stderr}")
    lines = run.stdout.splitlines()
    return {name: digest for digest, name in map(str.split, lines[:-1])}, lines[-1].split()[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the resflow package")
    parser.add_argument("--against", help="the src directory of a second tree to compare with")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="coarse_heldout")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    trees = [Path(args.src).resolve()]
    if args.against:
        trees.append(Path(args.against).resolve())
    for src in trees:
        if not (src / "resflow" / "cli.py").is_file():
            print(f"no resflow package under {src}", file=sys.stderr)
            return 2
    if args.against:
        runs = [run_tree(src, args.workload, args.seed) for src in trees]
        (ours, _), (theirs, _) = runs
        for name in sorted(ours.keys() | theirs.keys()):
            print(f"{'same' if ours.get(name) == theirs.get(name) else 'differs'}  {name}")
        for src, (_, digest) in zip(trees, runs):
            print(f"digest {digest}  {src}")
        return 0
    src = trees[0]
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory(prefix="resflow-digest-") as tmp:
        entries = artifact_digests(args.workload, args.seed, Path(tmp))
    for digest, name in entries:
        print(f"{digest}  {name}")
    print(f"digest {combined_digest(entries)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
