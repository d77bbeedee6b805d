"""Every output byte of the four commands, pinned on the benchmark's scenes.

The `dense` and `crawl` scene configs come from bench/run.py's make_scene
(imported read-only) at the default seed and the held-out one.  simulate,
build-map, annotate and evaluate run in process through cli.main; one
sha256 covers every output file's name and bytes, then stdout with the
scene root replaced.  A change that moves any byte fails here; one that
moves bytes on purpose updates its pin and says so in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.util
import io
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


def run_scene(root: Path, name: str, seed: int) -> str:
    scene = bench_run.make_scene(bench_run.load_workloads(), name, seed, root)
    sim, out = scene.dir / "sim", scene.dir / "out"
    common = ["--config", str(scene.config), "--output"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in (["simulate", *common, str(sim)], ["build-map", *common, str(out)],
                     ["annotate", *common, str(out)],
                     ["evaluate", *common, str(out), "--gt", str(sim / "gt_labels")]):
            assert main(argv) == 0, argv
    h = hashlib.sha256()
    for path in sorted(p for d in (sim, out) for p in d.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(scene.dir)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(stdout.getvalue().replace(str(scene.dir), "<root>").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, seed", sorted(PINS))
def test_outputs_match_their_pins(tmp_path, name, seed):
    got = run_scene(tmp_path, name, seed)
    assert got == PINS[name, seed], (
        f"{name} seed {seed}: outputs hash to {got}; pinned with Python 3.11.7 and "
        f"numpy 2.4.6, this is Python {platform.python_version()} and numpy {np.__version__}")
