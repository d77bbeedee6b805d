#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute).

    python3 bench/selftest.py

Checks that every end-to-end and per-layer metric of BENCHMARK.json prints
with its unit, that the traced run's self times add up to its root spans,
that an operation exiting non-zero or failing its check counts as failed,
and that the benchmark refuses to run without the seqlabel sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "why": "three objects over twenty frames",
    "simulate": {"n_objects": 3, "frames": 20, "trajectory": "arc", "speed": 1.0,
                 "arc_radius": 80.0},
    "pipeline": {},
    "reference_s": {"simulate": 1.0, "build-map": 1.0, "annotate": 1.0, "evaluate": 1.0},
}


_load_workloads = run.load_workloads


def tiny_spec() -> dict:
    spec = _load_workloads()
    spec["workloads"] = {"tiny": TINY}
    return spec


def bench_json(trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    assert rc == 0, rc
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_metrics_print_with_units():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench_json(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        for m in declared[section]:
            got = result["metrics"].get(m["name"])
            assert got is not None, f"{section} metric {m['name']} missing"
            assert got["unit"] == m["unit"], (m, got)
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        if section == "end_to_end":
            for m in declared[section]:
                assert result["metrics"][m["name"]]["value"] != 0, m["name"]


def test_self_times_add_up_to_root():
    work = run.WORK / "selftest-spans"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run.Runner(work)
        scene = run.make_scene(tiny_spec(), "tiny", 5, work)
        assert run.simulate(runner, scene) is not None
        assert run.pipeline(runner, scene, work / "out", spans_dir=work) is not None
        assert runner.failed == 0
        for command in ("build-map", "annotate", "evaluate"):
            spans = json.loads((work / f"{command}.json").read_text())["spans"]
            roots = [s for s in spans if s[3] < 0]
            assert len(roots) == 1 and roots[0][0] == tracer.ROOTS[command], roots
            total = sum(tracer.self_times(spans).values())
            root = tracer.root_seconds(spans)
            assert abs(total - root) <= 1e-9 * max(1.0, root), (command, total, root)
            assert all(v >= -1e-9 for v in tracer.self_times(spans).values())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_self_times_of_nested_spans():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.root_seconds(spans) == 10.0


def test_failed_operations_are_counted():
    work = run.WORK / "selftest-fail"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run.Runner(work)
        assert runner.op([sys.executable, "-c", "import sys; sys.exit(3)"]) is None
        assert runner.op([sys.executable, "-c", "pass"], lambda: "injected problem") is None
        assert runner.op([sys.executable, "-c", "pass"]) is not None
        assert (runner.attempted, runner.failed) == (3, 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_without_sources():
    src = run.SRC
    run.SRC = src.parent / "no-such-src"
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "0"])
        assert rc != 0 and out.getvalue() == "", (rc, out.getvalue())
    finally:
        run.SRC = src


def main() -> int:
    run.load_workloads = tiny_spec
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as e:
            failed += 1
            print(f"FAIL {test.__name__}: {e}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
