"""Command-line pipeline: simulate, build-map, annotate, evaluate.

Every run is driven by a YAML config; a few flags override it (flags
win, then the SEQLABEL_OUTPUT environment variable, then the file).
Exit codes: 0 ok, 2 input parse error, 3 config error, 4 empty
evaluation.  Output files we own start with a provenance comment line
(tool version, config hash, input digests, each SHA-256 from CPython's
built-in module: config.sha256); KITTI-format files stay comment-free.
annotate writes annotations.jsonl a frame at a time, to a temp file that
replaces it when complete.  A label directory's frame files are the names
labels.frame_id_of accepts: evaluate reads those both directories hold,
annotate and simulate replace them, other files stay.

Each command imports only what it runs.  This module imports only the
numpy-free config and labels modules at the top; the stage functions are
imported on first use.  So `--version` loads no stage, `evaluate` loads
metrics but never numpy, and build-map and annotate never load metrics.
The module __getattr__ (PEP 562) imports a stage function on first
access and keeps it as a module global, and each cmd_* calls every stage
function through the module, as _stage.run_association(...); only
parse_kitti_labels and write_kitti_labels, from the labels module
imported at the top, are plain globals.  They are module attributes, not
local imports, because the benchmark tracer hooks a command by patching
these names on this module, and a local import would bypass its wrappers.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import PipelineConfig, config_fingerprint, load_config, read_value, sha256
from .errors import ConfigError, ParseError, SeqLabelError
from .labels import (FrameAnnotation, frame_file_name, frame_id_of, parse_kitti_labels,
                     write_kitti_labels)

# The stage functions each stage module provides to the commands.
_STAGES = {
    "annotate": ("annotate_frame", "annotate_sequence", "write_annotation_dump"),
    "association": ("run_association",),
    "dataio": ("CalibFile", "parse_calib", "parse_trajectory", "read_detections",
               "serialize_calib", "serialize_trajectory", "write_detections"),
    "landmark": ("fuse_tracks", "parse_landmarks", "serialize_landmarks"),
    "metrics": ("depth_metrics", "format_report_table", "match_annotations", "report_to_json",
                "viewpoint_metrics"),
    "simulator": ("generate",),
}
_MODULE_OF = {name: module for module, names in _STAGES.items() for name in names}


def __getattr__(name: str):
    """Import a stage function on first access and keep it as a module global."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __package__), name)
    globals()[name] = value
    return value


_stage = sys.modules[__name__]  # stage functions are looked up here, where a tracer patches them
OUTPUT_ENV = "SEQLABEL_OUTPUT"


def _parse_with_context(parser, path: str | Path, what: str, digest: bool = True):
    """parser's value of the file's text, read once, and if digest the sha256 prefix of the
    bytes it decodes (the header's digest), else None.  A missing file or parent directory
    is a ConfigError; a parse error, invalid UTF-8 included, names the file."""
    if not path:
        raise ConfigError(f"no {what} path configured")
    try:
        with open(path, "rb") as f:
            data = f.read()
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"{what} file not found: {Path(path)}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        reason = f"not valid UTF-8 (byte {data[e.start]:#04x} at offset {e.start})"
        raise ParseError(line, f"{path}: {reason}") from None
    hexdigest = sha256(data).hexdigest()[:12] if digest else None
    del data  # only the text is held while it is parsed
    try:
        return parser(text), hexdigest
    except ParseError as e:
        raise ParseError(e.line, f"{path}: {e.reason}") from None


def _meta(cfg: PipelineConfig, digests: dict[str, str]) -> dict:
    """Tool, config hash and the digest of each input, keyed by its header name."""
    return {"tool": f"seqlabel {__version__}", "config": config_fingerprint(cfg),
            "inputs": digests}


def _header(meta: dict) -> str:
    """The provenance comment line of a _meta: tool, config hash and input digests."""
    digests = " ".join(f"{name}:{digest}" for name, digest in meta["inputs"].items())
    return f"# {meta['tool']} config={meta['config']} {digests}".rstrip() + "\n"


@contextlib.contextmanager
def _replacing(path: Path):
    """A text file to write that replaces path when the block ends; if it raises, path stays."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _frame_files(directory: Path) -> set[str]:
    """The names of the frame label files in directory (labels.frame_id_of)."""
    return {name for name in os.listdir(directory) if frame_id_of(name) is not None}


def _write_labels(directory: Path, annotations) -> None:
    """One KITTI label file per frame annotation, and no other frame file in directory."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in _frame_files(directory):
        (directory / name).unlink()
    for ann in annotations:
        (directory / frame_file_name(ann.frame_id)).write_text(write_kitti_labels(ann))


def _load_inputs(cfg: PipelineConfig):
    """The trajectory, the configured camera's matrix and the two files' digests."""
    digests = {}
    trajectory, digests["trajectory"] = _parse_with_context(
        _stage.parse_trajectory, cfg.trajectory_path, "trajectory")
    calib, digests["calib"] = _parse_with_context(_stage.parse_calib, cfg.calib_path, "calib")
    return trajectory, calib.get(cfg.camera), digests


def cmd_build_map(cfg: PipelineConfig, out_dir: Path) -> int:
    trajectory, P, digests = _load_inputs(cfg)
    detections, digests["detections"] = _parse_with_context(
        _stage.read_detections, cfg.detections_path, "detections")
    detections = {k: v for k, v in detections.items() if cfg.frame_allowed(k)}
    if not detections:
        print("seqlabel: warning: no detections after filtering; writing an empty map",
              file=sys.stderr)

    try:
        tracks = _stage.run_association(detections, trajectory, P, cfg.association)
    except ParseError as e:  # a detection on a frame the trajectory lacks, at its line
        raise ParseError(e.line, f"{cfg.detections_path}: {e.reason}") from None
    landmarks, rejected, track_of = _stage.fuse_tracks(tracks, cfg.weighting, cfg.fusion)
    landmark_of_track = {tid: lid for lid, tid in track_of.items()}

    meta = _meta(cfg, digests)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "map.jsonl").write_text(_header(meta) + _stage.serialize_landmarks(landmarks))

    diagnostics = {
        "meta": meta,
        "tracks": [
            {
                "track_id": t.track_id,
                "n_observations": len(t.observations),
                "first_frame": t.observations[0].frame_id,
                "last_frame": t.observations[-1].frame_id,
                "status": "rejected" if t.track_id in rejected else "landmark",
                "reason": rejected[t.track_id].reason if t.track_id in rejected else None,
                "detail": rejected[t.track_id].detail if t.track_id in rejected else None,
                "landmark_id": landmark_of_track.get(t.track_id),
            }
            for t in tracks
        ],
        "n_landmarks": len(landmarks),
        "n_rejected": len(rejected),
    }
    (out_dir / "track_diagnostics.json").write_text(json.dumps(diagnostics, indent=2) + "\n")
    print(f"map: {len(landmarks)} landmarks from {len(tracks)} tracks "
          f"({len(rejected)} rejected) -> {out_dir / 'map.jsonl'}")
    return 0


def cmd_annotate(cfg: PipelineConfig, out_dir: Path, map_path: str | None) -> int:
    trajectory, P, digests = _load_inputs(cfg)
    map_file = Path(map_path) if map_path else out_dir / "map.jsonl"
    landmarks, digests["map"] = _parse_with_context(
        _stage.parse_landmarks, str(map_file), "landmark map")

    annotations = [
        _stage.annotate_frame(landmarks, k, trajectory.pose(k), P, cfg.visibility)
        for k in range(len(trajectory)) if cfg.frame_allowed(k)
    ]

    labels_dir = out_dir / "labels"
    _write_labels(labels_dir, annotations)
    with _replacing(out_dir / "annotations.jsonl") as f:
        f.write(_header(_meta(cfg, digests)))
        _stage.write_annotation_dump(annotations, f)
    n_entries = sum(len(a.entries) for a in annotations)
    print(f"annotate: {n_entries} entries over {len(annotations)} frames -> {labels_dir}")
    return 0


def cmd_evaluate(cfg: PipelineConfig, out_dir: Path, pred_dir: str | None,
                 gt_dir: str | None) -> int:
    pred = Path(pred_dir) if pred_dir else out_dir / "labels"
    if gt_dir is None:
        raise ConfigError("evaluate needs --gt DIR with ground-truth label files")
    gt = Path(gt_dir)
    for d, what in ((pred, "prediction"), (gt, "ground-truth")):
        if not d.is_dir():
            raise ConfigError(f"{what} label directory not found: {d}")

    common = sorted(_frame_files(pred) & _frame_files(gt))
    if not common:
        print("evaluate: no common label files between the two directories", file=sys.stderr)
        return 4

    pairs, n_pred, n_gt = [], 0, 0
    for name in common:
        pred_ann, gt_ann = (FrameAnnotation(frame_id_of(name), _parse_with_context(
            parse_kitti_labels, d / name, "labels", digest=False)[0]) for d in (pred, gt))
        pairs += _stage.match_annotations(pred_ann, gt_ann, cfg.metrics_iou_min)
        n_pred += len(pred_ann.entries)
        n_gt += len(gt_ann.entries)
    if not pairs:
        print("evaluate: zero matched pairs", file=sys.stderr)
        return 4

    depth = _stage.depth_metrics(pairs)
    viewpoint = _stage.viewpoint_metrics(pairs)
    sidebar = {
        "n_pred": n_pred,
        "n_gt": n_gt,
        "n_matched": len(pairs),
        "precision": len(pairs) / n_pred if n_pred else 0.0,
        "recall": len(pairs) / n_gt if n_gt else 0.0,
    }
    meta = _meta(cfg, {})
    report = {
        "meta": meta,
        "depth": _stage.report_to_json(depth),
        "viewpoint": _stage.report_to_json(viewpoint),
        "matching": sidebar,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    table = _stage.format_report_table(depth, viewpoint)
    (out_dir / "report.txt").write_text(_header(meta) + table)
    print(table, end="")
    print(f"matching: {sidebar['n_matched']}/{n_gt} gt matched "
          f"(precision {sidebar['precision']:.4f}, recall {sidebar['recall']:.4f})")
    return 0


def cmd_simulate(cfg: PipelineConfig, out_dir: Path, seed: int | None) -> int:
    if cfg.simulate is None:
        raise ConfigError("config has no simulate section")
    sim = cfg.simulate
    if seed is not None:
        try:
            sim = sim._replace(seed=read_value("seed", sim.seed, seed, "--seed"))
        except ValueError as e:
            raise ConfigError(str(e)) from None

    gt, detections = _stage.generate(sim)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trajectory.txt").write_text(_stage.serialize_trajectory(gt.trajectory))
    (out_dir / "calib.txt").write_text(_stage.serialize_calib(_stage.CalibFile({cfg.camera: gt.P})))
    (out_dir / "detections.jsonl").write_text(_stage.write_detections(detections))
    (out_dir / "gt_map.jsonl").write_text(
        _header(_meta(cfg, {})) + _stage.serialize_landmarks(gt.landmarks))
    _write_labels(out_dir / "gt_labels",
                  _stage.annotate_sequence(gt.landmarks, gt.trajectory, gt.P, cfg.visibility))
    print(f"simulate: {len(gt.landmarks)} objects, {len(gt.trajectory)} frames, "
          f"{len(detections)} detections -> {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlabel",
        description="Fuse sequence detections into a landmark map and emit "
                    "corrected per-frame annotations.",
    )
    parser.add_argument("--version", action="version", version=f"seqlabel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="pipeline YAML config")
        p.add_argument("--output", help="output directory (overrides config and env)")
        p.add_argument("--camera", help="calibration key, e.g. P2")

    p = sub.add_parser("build-map", help="associate detections and fuse the landmark map")
    common(p)
    p = sub.add_parser("annotate", help="project the map into every frame")
    common(p)
    p.add_argument("--map", help="landmark map JSONL (default: <output>/map.jsonl)")
    p = sub.add_parser("evaluate", help="compare predicted labels against ground truth")
    common(p)
    p.add_argument("--pred", help="predicted label dir (default: <output>/labels)")
    p.add_argument("--gt", help="ground-truth label dir")
    p = sub.add_parser("simulate", help="write a synthetic dataset")
    common(p)
    p.add_argument("--seed", type=int, help="override the simulate seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.output or os.environ.get(OUTPUT_ENV) or cfg.output_dir
        cfg = cfg._replace(camera=args.camera or cfg.camera, output_dir=out)
        out_dir = Path(out)

        if args.command == "build-map":
            return cmd_build_map(cfg, out_dir)
        if args.command == "annotate":
            return cmd_annotate(cfg, out_dir, args.map)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out_dir, args.pred, args.gt)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.seed)
    except ParseError as e:
        print(f"seqlabel: parse error: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"seqlabel: config error: {e}", file=sys.stderr)
        return 3
    except SeqLabelError as e:
        print(f"seqlabel: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"seqlabel: io error: {e}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
