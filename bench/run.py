#!/usr/bin/env python3
"""seqlabel benchmark: wall time of the four CLI commands on simulator scenes.

    python3 bench/run.py --workload dense --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each CLI command runs as its own
subprocess, start-up included, from the sources under ``src/``.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` it has the per-layer
metrics, measured by ``bench/tracer.py``.  bench/README.md describes the
metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402

BASELINE = BENCH / "baseline"  # frozen copy of the seqlabel sources; it gauges the machine's speed
SETUP_RUNS = 3          # simulate pairs per untraced run; setup_s is their median
STEPS = ("build_map_s", "annotate_s", "evaluate_s")
IMPORT_RUNS = 3         # `import seqlabel.cli` subprocesses per traced run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Op:
    """One subprocess: wall time, peak resident memory and exit code.

    scaled_s is the wall time at the reference speed of the machine, set
    when the operation is paired with the same command of the baseline.
    """

    wall_s: float
    rss_mb: float
    rc: int
    stderr: str
    scaled_s: float = math.nan


def run_op(argv: list[str], log: Path, src: Path = SRC) -> Op:
    """Run argv from the repository root with src first on the import path.

    The child is reaped with os.wait4 so its own ru_maxrss is read.  The
    file systems are synced first, so that the journal commits and block
    discards left by the previous command's deletes and writes are not
    charged to this one.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    os.sync()
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here; Popen must not wait again
    return Op(wall, usage.ru_maxrss / 1024.0, proc.returncode, log.read_text(errors="replace"))


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


@dataclass
class Scene:
    """One simulated scene: its config, its inputs and reference digests."""

    dir: Path
    config: Path
    frames: int
    n_objects: int
    reference_s: dict  # command -> the baseline's wall time at the reference speed
    digests: dict = field(default_factory=dict)
    quality: dict | None = None

    def same(self, what: str, value: str) -> str | None:
        """None when value matches the first one recorded for what."""
        ref = self.digests.setdefault(what, value)
        return None if ref == value else f"{what} differs from an earlier run of the same scene"


class Runner:
    """Runs operations and counts the attempted and failed ones."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0

    def op(self, argv: list[str], check=None) -> Op | None:
        """One operation; None when it exits non-zero or check() names a problem."""
        self.attempted += 1
        op = run_op(argv, self.work / "stderr.log")
        if op.rc != 0:
            lines = op.stderr.strip().splitlines()
            problem = f"exit {op.rc}: {lines[-1] if lines else ''}"
        elif check is not None:
            try:
                problem = check()
            except (OSError, ValueError, KeyError) as e:
                problem = f"output unreadable: {e!r}"
        else:
            problem = None
        if problem:
            self.failed += 1
            print(f"bench: operation failed ({' '.join(argv[1:])}): {problem}", file=sys.stderr)
            return None
        return op

    def paired(self, argv: list[str], base_argv: list[str], reference_s: float,
               base_first: bool, check=None) -> Op | None:
        """An operation run right before or after the baseline's same command.

        The machine's speed drifts by tens of percent over seconds to
        minutes, and two runs of the same code a few seconds apart drift
        together.  So the operation's wall time is scaled by reference_s
        (the baseline's time at the reference speed) over the baseline's
        wall time.  The baseline is not an operation of the program.
        """
        if base_first:
            base = self.baseline(base_argv)
        op = self.op(argv, check)
        if not base_first:
            base = self.baseline(base_argv)
        if op is not None:
            op.scaled_s = op.wall_s * reference_s / base.wall_s
        return op

    def baseline(self, argv: list[str]) -> Op:
        op = run_op(argv, self.work / "baseline.log", BASELINE)
        if op.rc != 0:
            raise SystemExit(f"bench: the baseline failed ({' '.join(argv[3:5])}): "
                             f"{op.stderr.strip()}")
        return op


# --- workloads --------------------------------------------------------------

def load_workloads() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())


def camera_at(sim: dict, frame: int) -> tuple[float, float, float]:
    """Camera (x, z, yaw) at a frame of the simulator's straight or arc path."""
    s = frame * sim["speed"]
    if sim["trajectory"] == "arc":
        r = sim["arc_radius"]
        phi = s / r
        return r * (1.0 - math.cos(phi)), r * math.sin(phi), phi
    return 0.0, s, 0.0


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi), one in each of n equal slices, in a seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in order]


def place_objects(sim: dict, n_objects: int, seed: int) -> list[list[float]]:
    """Objects anchored at evenly spaced frames, with offsets drawn from seed.

    The simulator's own placement draws each anchor frame at random, so
    objects bunch up differently per seed and association work swings by
    about 20% between seeds.  Even spacing keeps the density of every seed
    at that of the workload, and drawing the lateral offsets and depths
    stratified keeps how long objects stay in view alike between seeds.
    The seed still draws each object's offset, depth, yaw and size, and
    every noise term.
    """
    rng = random.Random(seed)
    lateral = strata(rng, n_objects, -8.0, 8.0)
    ahead = strata(rng, n_objects, 12.0, 45.0)
    objects = []
    for j, (lx, lz) in enumerate(zip(lateral, ahead)):
        cx, cz, cyaw = camera_at(sim, int((j + 0.5) * sim["frames"] / n_objects))
        c, s = math.cos(cyaw), math.sin(cyaw)
        yaw = math.degrees(cyaw) + rng.uniform(-180.0, 180.0)
        objects.append([cx + c * lx + s * lz, 1.65, cz - s * lx + c * lz, yaw,
                        1.5 + rng.uniform(-0.1, 0.1), 1.7 + rng.uniform(-0.1, 0.1),
                        4.2 + rng.uniform(-0.4, 0.4)])
    return objects


def make_scene(spec: dict, name: str, seed: int, work: Path, sub: str = "scene") -> Scene:
    """Write the config of one scene under work/sub; its inputs come from `seqlabel simulate`."""
    workload = spec["workloads"][name]
    d = work / sub
    d.mkdir(parents=True)
    cfg = json.loads(json.dumps(spec["pipeline"]))
    for section, values in workload["pipeline"].items():
        cfg[section].update(values)
    sim = dict(workload["simulate"])
    n_objects = sim.pop("n_objects")
    sim.update(spec["noise"], seed=seed, objects=place_objects(sim, n_objects, seed))
    cfg["simulate"] = sim
    cfg["paths"] = {"trajectory": str(d / "sim" / "trajectory.txt"),
                    "calib": str(d / "sim" / "calib.txt"),
                    "detections": str(d / "sim" / "detections.jsonl")}
    config = d / "config.yaml"
    config.write_text(json.dumps(cfg, indent=1))  # JSON is YAML
    return Scene(d, config, sim["frames"], n_objects, workload["reference_s"])


# --- operations and their checks -----------------------------------------------

def cli_argv(command: str, scene: Scene, out: Path, *extra: str) -> list[str]:
    return [sys.executable, "-m", "seqlabel.cli", command, "--config", str(scene.config),
            "--output", str(out), *extra]


def traced_argv(spans: Path, command: str, scene: Scene, out: Path, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans),
            "--n-objects", str(scene.n_objects), "--",
            *cli_argv(command, scene, out, *extra)[3:]]


def simulate(runner: Runner, scene: Scene, base: Scene | None = None,
             base_first: bool = False) -> Op | None:
    """`seqlabel simulate`; with base, paired with the baseline's (see Runner.paired)."""
    sim = scene.dir / "sim"
    shutil.rmtree(sim, ignore_errors=True)

    def check():
        labels = sorted((sim / "gt_labels").glob("*.txt"))
        return scene.same("simulate", digest([sim / "detections.jsonl", *labels]))

    argv = cli_argv("simulate", scene, sim)
    if base is None:
        return runner.op(argv, check)
    shutil.rmtree(base.dir / "sim", ignore_errors=True)
    return runner.paired(argv, cli_argv("simulate", base, base.dir / "sim"),
                         base.reference_s["simulate"], base_first, check)


def check_labels(scene: Scene, out: Path) -> str | None:
    labels = out / "labels"
    missing = [k for k in range(scene.frames) if not (labels / f"{k:06d}.txt").exists()]
    if missing:
        return f"{len(missing)} frames have no label file (first: {missing[0]})"
    files = sorted(labels.glob("*.txt"))
    return scene.same("labels", digest(files + [out / "annotations.jsonl"]))


def check_report(scene: Scene, out: Path) -> str | None:
    report = json.loads((out / "report.json").read_text())
    if report["matching"]["n_matched"] == 0:
        return "report.json has zero matched pairs"
    scene.quality = {
        "metrics.abs_rel": report["depth"]["abs_rel"],
        "metrics.rmse_m": report["depth"]["rmse"],
        "metrics.mederr_deg": report["viewpoint"]["mederr"],
        "recall": report["matching"]["recall"],
        "precision": report["matching"]["precision"],
    }
    return None


def pipeline(runner: Runner, scene: Scene, out: Path, spans_dir: Path | None = None,
             base: Scene | None = None, base_first: bool = False):
    """build-map, annotate, evaluate on one scene; their Ops, or None if one failed.

    With spans_dir each command runs under bench/tracer.py and writes its
    spans there.  With base each command is paired with the baseline's same
    command on the base scene (see Runner.paired); base_first says which
    side of each pair runs first.
    """
    shutil.rmtree(out, ignore_errors=True)
    if base is not None:
        shutil.rmtree(base.dir / "out", ignore_errors=True)

    def extra(command, on):
        return ("--gt", str(on.dir / "sim" / "gt_labels")) if command == "evaluate" else ()

    def step(command, check):
        if spans_dir is None:
            argv = cli_argv(command, scene, out, *extra(command, scene))
        else:
            argv = traced_argv(spans_dir / f"{command}.json", command, scene, out,
                               *extra(command, scene))
        if base is None:
            return runner.op(argv, check)
        base_argv = cli_argv(command, base, base.dir / "out", *extra(command, base))
        return runner.paired(argv, base_argv, base.reference_s[command], base_first, check)

    ops = [
        step("build-map", lambda: scene.same("map", digest([out / "map.jsonl"]))),
        step("annotate", lambda: check_labels(scene, out)),
        step("evaluate", lambda: check_report(scene, out)),
    ]
    return None if None in ops else ops


def step_medians(reps: list[list[Op]], attr: str) -> dict[str, float]:
    """Median over repetitions of each command's wall_s or scaled_s."""
    return {name: statistics.median(getattr(ops[i], attr) for ops in reps)
            for i, name in enumerate(STEPS)}


def medians(samples: list[dict]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# --- the two kinds of run ---------------------------------------------------------

def repeat(seconds: float, body) -> None:
    """Call body() at least twice, then again while one more call fits in seconds."""
    start = time.perf_counter()
    calls = 0
    while True:
        before = time.perf_counter()
        body()
        calls += 1
        now = time.perf_counter()
        if calls >= 2 and now + (now - before) > start + seconds:
            return


def setup(runner: Runner, scene: Scene, times: int, base: Scene | None = None) -> list[Op]:
    ops = [simulate(runner, scene, base, base_first=k % 2 == 0) for k in range(times)]
    if None in ops:
        raise SystemExit("bench: simulate failed, so there are no inputs to measure")
    return ops


def untraced_run(runner: Runner, scene: Scene, base: Scene, seconds: float) -> dict:
    sims = setup(runner, scene, SETUP_RUNS, base)
    reps = []
    turns = itertools.count()

    def rep():
        # Alternate which side of each pair runs first, so neither gains from going second.
        ops = pipeline(runner, scene, scene.dir / "out", base=base, base_first=next(turns) % 2 == 0)
        if ops is not None:
            reps.append(ops)
            print("rep " + " ".join(f"{name} {op.wall_s:.3f} scaled {op.scaled_s:.3f}"
                                    for name, op in zip(STEPS, ops)), file=sys.stderr)

    repeat(seconds, rep)
    if not reps:
        raise SystemExit("bench: no pipeline repetition succeeded")
    raw = step_medians(reps, "wall_s")
    raw["setup_s"] = statistics.median(op.wall_s for op in sims)
    print("raw " + json.dumps(raw))
    metrics = step_medians(reps, "scaled_s")
    # The sum of the medians is steadier than the median of per-repetition sums.
    metrics["pipeline_s"] = sum(metrics[name] for name in STEPS)
    metrics["setup_s"] = statistics.median(op.scaled_s for op in sims)
    metrics["peak_rss_mb"] = statistics.median(max(op.rss_mb for op in ops) for ops in reps)
    metrics.update(scene.quality or {})
    return metrics


def import_times(runner: Runner) -> dict[str, float]:
    plain = [runner.op([sys.executable, "-c", "import seqlabel.cli"]) for _ in range(IMPORT_RUNS)]
    probe = runner.op([sys.executable, "-X", "importtime", "-c", "import seqlabel.cli"])
    out = {}
    if None not in plain:
        out["cli.import_s"] = statistics.median(op.wall_s for op in plain)
    if probe is not None:
        out["cli.import_scipy_s"] = 0.0  # stays 0 when scipy.optimize is not imported
        for line in probe.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
                out["cli.import_scipy_s"] = int(fields[1]) / 1e6
    return out


def traced_run(runner: Runner, scene: Scene, seconds: float) -> dict:
    setup(runner, scene, 1)
    metrics = import_times(runner)
    plain, traced, layers = [], [], []
    spans = scene.dir / "spans"
    spans.mkdir()

    def rep():
        ops = pipeline(runner, scene, scene.dir / "out")
        if ops is not None:
            plain.append(sum(op.wall_s for op in ops))
        gen = runner.op([sys.executable, str(BENCH / "tracer.py"), "--spans",
                         str(spans / "generate.json"), "--generate", str(scene.config)])
        ops = pipeline(runner, scene, scene.dir / "out-traced", spans)
        if ops is not None and gen is not None:
            traced.append(sum(op.wall_s for op in ops))
            records = [json.loads((spans / f"{c}.json").read_text())
                       for c in ("generate", "build-map", "annotate", "evaluate")]
            layers.append(tracer.layer_metrics(records))

    repeat(seconds, rep)
    if not plain or not traced:
        raise SystemExit("bench: no traced pipeline repetition succeeded")
    metrics.update(medians(layers))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics.update(scene.quality or {})
    return metrics


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "PyYAML"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def main(argv=None) -> int:
    spec = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqlabel" / "cli.py").is_file():
        print(f"bench: no seqlabel sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    print("env " + json.dumps(environment()))
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        scene = make_scene(spec, args.workload, args.seed, work)
        if args.trace:
            measured = traced_run(runner, scene, args.seconds)
        else:
            base = make_scene(spec, args.workload, args.seed, work, "baseline")
            measured = untraced_run(runner, scene, base, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    absent = [m["name"] for m in wanted if m["name"] not in measured]
    if absent and not args.trace:
        print(f"bench: end-to-end metrics not measured: {absent}", file=sys.stderr)
        return 1
    if absent:
        print(f"bench: per-layer metrics absent (hook target gone): {absent}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in measured},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
