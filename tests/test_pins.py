"""Every output byte of the four commands, pinned on the benchmark's scenes.

The `dense` and `crawl` scene configs come from bench/run.py's make_scene
(imported read-only) at the default seed and the held-out one.  simulate,
build-map, annotate and evaluate run in process through cli.main; one
sha256 covers every output file's name and bytes, then stdout with the
scene root replaced.  A change that moves any byte fails here; one that
moves bytes on purpose updates its pin and says so in CHANGES.md.

Neither scene carries descriptors, so two more pins cover the appearance
term: each scene at seed 1 with w_desc 0.2 and a descriptor on 4 of every 5
detection lines, hashed over build-map's and annotate's outputs and stdout.
No two pairs ever compete for a track on `crawl`, so its descriptors move no
assignment; on `dense` every frame has such a choice, and a track that keeps
a zero descriptor instead of its last one changes the map.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from seqlabel.cli import main

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
_spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
bench_run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

# Measured with Python 3.11.7 and numpy 2.4.6.
PINS = {
    ("dense", 1): "2dd533066932bc83779fe0acaafae7b4eb424380a33f2a90bb82d9872ff40dce",
    ("dense", 7919): "2c55d7c41fcbe148d2178a72b2f2e1b08acdcceee0491bb07409d7c28599e016",
    ("crawl", 1): "127ec4717de6283becc2403e79c95fde2e1441cc7ba0e71954db77ecedb893da",
    ("crawl", 7919): "ea1d56adf1d89b65b8d3e924c2f313bfabf5267100b17b56a3a6d06f17b38e2d",
}
DESCRIPTOR_PINS = {
    "dense": "d5ccb9fce9df9c871533135e0e9f1577c24565efc6c2d86bfa2015877d536bcb",
    "crawl": "8d8115055bfef243c5d140b8d729caf72ae306c832fcf457eced12a8d3d3956e",
}


def _run(scene, commands: list[list[str]], dirs: tuple[Path, ...]) -> str:
    """sha256 of every file under dirs, then of stdout, after running commands in process."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in commands:
            assert main(argv) == 0, argv
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(scene.dir)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(stdout.getvalue().replace(str(scene.dir), "<root>").encode())
    return h.hexdigest()


def run_scene(root: Path, name: str, seed: int) -> str:
    scene = bench_run.make_scene(bench_run.load_workloads(), name, seed, root)
    sim, out = scene.dir / "sim", scene.dir / "out"
    common = ["--config", str(scene.config), "--output"]
    return _run(scene, [["simulate", *common, str(sim)], ["build-map", *common, str(out)],
                        ["annotate", *common, str(out)],
                        ["evaluate", *common, str(out), "--gt", str(sim / "gt_labels")]],
                (sim, out))


def descriptor(gt_id: int, frame_id: int) -> list[float]:
    """A descriptor of a detection line: its object's direction, turned a little by frame."""
    return [gt_id % 3 - 1.0, (gt_id // 3) % 3 - 1.0, 1.0 + 0.25 * (frame_id % 4)]


def run_descriptor_scene(root: Path, name: str) -> str:
    """The scene at seed 1 with w_desc 0.2, simulated, then a descriptor on every detection
    line but each fifth: the hash of build-map's and annotate's outputs and stdout."""
    scene = bench_run.make_scene(bench_run.load_workloads(), name, 1, root)
    cfg = json.loads(scene.config.read_text())
    cfg["association"].update(w_iou=0.4, w_dist=0.4, w_desc=0.2)
    scene.config.write_text(json.dumps(cfg, indent=1))
    sim, out = scene.dir / "sim", scene.dir / "out"
    common = ["--config", str(scene.config), "--output"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *common, str(sim)]) == 0
    path = sim / "detections.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for i, r in enumerate(records):
        if i % 5 != 4:
            r["descriptor"] = descriptor(r["gt_id"], r["frame_id"])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return _run(scene, [["build-map", *common, str(out)], ["annotate", *common, str(out)]],
                (out,))


@pytest.mark.parametrize("name, seed", sorted(PINS))
def test_outputs_match_their_pins(tmp_path, name, seed):
    got = run_scene(tmp_path, name, seed)
    assert got == PINS[name, seed], (
        f"{name} seed {seed}: outputs hash to {got}; pinned with Python 3.11.7 and "
        f"numpy 2.4.6, this is Python {platform.python_version()} and numpy {np.__version__}")


@pytest.mark.parametrize("name", sorted(DESCRIPTOR_PINS))
def test_descriptor_scene_matches_its_pin(tmp_path, name):
    got = run_descriptor_scene(tmp_path, name)
    assert got == DESCRIPTOR_PINS[name], (
        f"{name} seed 1 with descriptors: outputs hash to {got}; pinned with Python 3.11.7 "
        f"and numpy 2.4.6, this is Python {platform.python_version()} and numpy {np.__version__}")
