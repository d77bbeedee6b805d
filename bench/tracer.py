"""Traced run of one seqlabel command, in process, with spans kept in memory.

    python3 bench/tracer.py --spans OUT.json [--n-objects N] -- build-map --config CFG
    python3 bench/tracer.py --spans OUT.json --generate CFG

The first form drives ``seqlabel.cli.main`` with the given arguments; the
second calls ``seqlabel.simulator.generate`` on the config's simulate
section.  Timing wrappers are patched onto the public functions of each
module, in every namespace that looks them up, before the call.  Each
wrapped call records a span (name, start, end, parent); the spans and the
counters are written to OUT.json when the call returns.

Only stable public names are hooked, so the hooks survive refactors inside
a module.  A hook whose every target is gone is listed as absent and its
metrics are left out, instead of failing the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.state: dict = {}

    def run_span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            result = self.run_span(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, result, *args)
            return result
        return wrapper

    def timer(self, count_name, time_name, fn):
        """Count calls and their inclusive time without a span.

        Used for the geometry primitives, which every other layer calls tens
        of thousands of times: as spans they would be subtracted from the
        self time of each caller instead of showing where the caller spends.
        """
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts[count_name] += 1
                if time_name:
                    self.counts[time_name] += time.perf_counter() - start
        return wrapper


# --- what each hook counts -------------------------------------------------

def _detections_read(tr, result, *args):
    tr.counts["dataio.detections_read"] += sum(len(v) for v in result.values())


def _label_file(tr, result, *args):
    tr.counts["dataio.label_files"] += 1


def _labels_parsed(tr, result, *args):
    tr.counts["dataio.label_lines_parsed"] += len(result)


def _tracks(tr, result, *args):
    tr.state["tracks"] = result
    tr.counts["association.tracks_spawned"] += len(result)


def _cost(tr, result, *args):
    tr.counts["association.pairs_scored"] += 1
    tr.counts["association.pairs_feasible"] += result != math.inf


def _assign(tr, result, *args):
    tr.counts["association.assign_calls"] += 1
    tr.counts["association.matches"] += len(result)


def _track_update(tr, result, *args):
    tr.counts["association.track_updates"] += 1


def _fused(tr, result, tracks, *args):
    landmarks, rejected, _ = result
    tr.counts["landmark.landmarks"] += len(landmarks)
    tr.counts["landmark.support"] += sum(lm.support for lm in landmarks)
    tr.counts["landmark.observations"] += sum(len(t.observations) for t in tracks)
    for r in rejected.values():
        tr.counts[f"landmark.rejected_{r.reason}"] += 1


def _fuse_pose(tr, result, *args):
    tr.counts["landmark.fuse_pose_calls"] += 1


def _frame(tr, result, landmarks, *args):
    tr.counts["annotate.frames"] += 1
    tr.counts["annotate.entries"] += len(result.entries)
    tr.counts["annotate.entries_map_projected"] += sum(
        e.provenance == "map_projected" for e in result.entries)
    tr.counts["annotate.checks"] += len(landmarks)
    for _, cause in result.exclusions:
        tr.counts[f"annotate.excluded_{cause}"] += 1


def _matched(tr, result, *args):
    tr.counts["metrics.pairs_matched"] += len(result)


def _generated(tr, result, *args):
    tr.counts["simulator.detections"] += len(result[1])


# name, kind, targets (module, attribute path), what to count on return,
# and the metrics the hook produces.  Hooked names are the public entry
# points of each module; names a planned refactor deletes are never hooked.
HOOKS = [
    ("dataio.read_detections", "span", [("seqlabel.cli", "read_detections")], _detections_read,
     ["dataio.read_detections_s", "dataio.detections_read"]),
    ("dataio.format_labels", "span", [("seqlabel.cli", "write_kitti_labels")], _label_file,
     ["dataio.format_labels_s", "dataio.label_files"]),
    ("dataio.write_dump", "span", [("seqlabel.cli", "write_annotation_dump")], None,
     ["dataio.write_dump_s"]),
    ("dataio.parse_labels", "span", [("seqlabel.cli", "parse_kitti_labels")], _labels_parsed,
     ["dataio.parse_labels_s", "dataio.label_lines_parsed"]),
    # Label and input files are read and written by the CLI itself, through
    # pathlib; this is the file I/O that dominates on long sequences.
    ("dataio.file_io", "span",
     [("pathlib", "Path.read_text"), ("pathlib", "Path.write_text"),
      ("pathlib", "Path.read_bytes")], None,
     ["dataio.file_io_s"]),
    ("association.run", "span", [("seqlabel.cli", "run_association")], _tracks,
     ["association.run_s", "association.tracks_spawned", "association.purity",
      "association.coverage"]),
    ("association.cost", "span", [("seqlabel.association", "association_cost")], _cost,
     ["association.cost_s", "association.pairs_scored", "association.pairs_feasible"]),
    ("association.assign", "span", [("seqlabel.association", "solve_assignment")], _assign,
     ["association.assign_s", "association.assign_calls", "association.match_ratio"]),
    ("association.lift", "span", [("seqlabel.association", "lift_detection")], None,
     ["association.lift_s"]),
    ("association.track_update", "span", [("seqlabel.association", "Track.add")], _track_update,
     ["association.track_update_s", "association.track_updates"]),
    ("landmark.fuse", "span", [("seqlabel.cli", "fuse_tracks")], _fused,
     ["landmark.fuse_s", "landmark.landmarks", "landmark.rejected_low_support",
      "landmark.rejected_dynamic", "landmark.rejected_degenerate_mean", "landmark.inlier_ratio"]),
    ("landmark.reject_outliers", "span", [("seqlabel.landmark", "reject_outliers")], None,
     ["landmark.reject_outliers_s"]),
    ("landmark.fuse_pose", "span",
     [("seqlabel.association", "fuse_pose"), ("seqlabel.landmark", "fuse_pose")], _fuse_pose,
     ["landmark.fuse_pose_s", "landmark.fuse_pose_calls"]),
    ("annotate.frame", "span", [("seqlabel.cli", "annotate_frame")], _frame,
     ["annotate.frame_s", "annotate.frames", "annotate.entries", "annotate.entries_map_projected",
      "annotate.excluded_out_of_window", "annotate.excluded_behind_camera",
      "annotate.excluded_off_image", "annotate.entry_ratio"]),
    ("metrics.match", "span", [("seqlabel.cli", "match_annotations")], _matched,
     ["metrics.match_s", "metrics.pairs_matched"]),
    ("metrics.report", "span",
     [("seqlabel.cli", "depth_metrics"), ("seqlabel.cli", "viewpoint_metrics")], None,
     ["metrics.report_s"]),
    ("simulator.generate", "span", [("seqlabel.simulator", "generate")], _generated,
     ["simulator.generate_s", "simulator.detections"]),
    ("geometry.pose_validate", "timer", [("seqlabel.geometry", "Pose.__post_init__")], None,
     ["geometry.pose_validations", "geometry.pose_validate_s"]),
    ("geometry.project_box", "timer",
     [("seqlabel.association", "project_box"), ("seqlabel.annotate", "project_box")], None,
     ["geometry.project_box_calls"]),
]

# Root span of each traced command; a traced generate call is its own root.
ROOTS = {"build-map": "cli.build_map", "annotate": "cli.annotate", "evaluate": "cli.evaluate"}


def _resolve(module: str, path: str):
    """(owner object, attribute name), or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def install(tracer: Tracer) -> list[str]:
    """Patch every hook; returns the names of hooks with no target left."""
    absent = []
    for name, kind, targets, on_result, metrics in HOOKS:
        found = [t for t in (_resolve(m, p) for m, p in targets) if t is not None]
        if not found:
            absent.append(name)
        for owner, attr in found:
            fn = getattr(owner, attr)
            if kind == "span":
                wrapped = tracer.span(name, fn, on_result)
            else:
                wrapped = tracer.timer(metrics[0], (metrics[1:] or [None])[0], fn)
            setattr(owner, attr, wrapped)
    return absent


def trace_command(argv: list[str], n_objects: int | None) -> dict:
    tracer = Tracer()
    absent = install(tracer)
    from seqlabel import cli

    rc = tracer.run_span(ROOTS[argv[0]], cli.main, argv)
    score = getattr(importlib.import_module("seqlabel.simulator"), "score_association", None)
    if "tracks" in tracer.state and n_objects is not None and score is not None:
        tracer.state["score"] = score(tracer.state["tracks"], n_objects)
    return _record(tracer, absent, rc)


def trace_generate(config: str) -> dict:
    from seqlabel import config as config_mod, simulator

    sim = config_mod.load_config(config).simulate  # before the hooks: not part of the span
    tracer = Tracer()
    absent = install(tracer)
    simulator.generate(sim)  # the hook makes this call the root span
    return _record(tracer, absent, 0)


def _record(tracer: Tracer, absent: list[str], rc: int) -> dict:
    return {
        "rc": rc,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "score": tracer.state.get("score"),
        "absent": absent,
    }


# --- turning child records into per-layer metrics ---------------------------

def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    out: Counter = Counter()
    for name, start, end, parent in spans:
        out[name] += end - start
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return dict(out)


def root_seconds(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (one record per child).

    A span metric (``<hook>_s``) is the hook's self time; counters are summed
    over the children.  Metrics of absent hooks are left out.
    """
    selfs: Counter = Counter()
    values: Counter = Counter()
    absent: set[str] = set()
    score = None
    for rec in records:
        selfs.update(self_times(rec["spans"]))
        values.update(rec["counts"])
        absent.update(rec["absent"])
        score = rec["score"] or score

    for name in list(ROOTS.values()) + [h[0] for h in HOOKS if h[1] == "span"]:
        values[f"{name}_s"] = selfs.get(name, 0.0)
    values["association.match_ratio"] = _ratio(values["association.matches"],
                                               values["association.pairs_scored"])
    values["landmark.inlier_ratio"] = _ratio(values["landmark.support"],
                                             values["landmark.observations"])
    values["annotate.entry_ratio"] = _ratio(values["annotate.entries"], values["annotate.checks"])

    wanted = [f"{root}_s" for root in ROOTS.values()]
    for name, _, _, _, metrics in HOOKS:
        if name not in absent:
            wanted += metrics
    out = {k: values.get(k, 0) for k in wanted}
    if score is None:
        out.pop("association.purity", None)
        out.pop("association.coverage", None)
    else:
        out["association.purity"] = score["purity"]
        out["association.coverage"] = score["coverage"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans and counters")
    parser.add_argument("--n-objects", type=int, help="ground-truth object count, for purity")
    parser.add_argument("--generate", metavar="CONFIG", help="trace simulator.generate instead")
    parser.add_argument("command", nargs="*", help="seqlabel CLI arguments after --")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.generate:
        record = trace_generate(args.generate)
    else:
        record = trace_command(args.command, args.n_objects)
    Path(args.spans).write_text(json.dumps(record))
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
