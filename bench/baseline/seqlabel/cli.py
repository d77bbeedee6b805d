"""Command-line pipeline: simulate, build-map, annotate, evaluate.

Every run is driven by a YAML config; a few flags override it (flags
win, then the SEQLABEL_OUTPUT environment variable, then the file).
Exit codes: 0 ok, 2 input parse error, 3 config error, 4 empty
evaluation.  Output files we own start with a provenance comment line
(tool version, config hash, input digests); KITTI-format files stay
comment-free for ecosystem compatibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .annotate import annotate_frame, annotation_from_labels, write_annotation_dump
from .association import run_association
from .config import PipelineConfig, config_fingerprint, file_digest, load_config
from .dataio import (
    CalibFile,
    frame_file_name,
    parse_calib,
    parse_kitti_labels,
    parse_trajectory,
    read_detections,
    serialize_calib,
    serialize_trajectory,
    write_detections,
    write_kitti_labels,
)
from .errors import ConfigError, ParseError, SeqLabelError
from .landmark import fuse_tracks, parse_landmarks, serialize_landmarks
from .metrics import (
    depth_metrics,
    depth_report_to_json,
    format_report_table,
    match_annotations,
    viewpoint_metrics,
    viewpoint_report_to_json,
)
from .simulator import generate

OUTPUT_ENV = "SEQLABEL_OUTPUT"


def _warn(msg: str) -> None:
    print(f"seqlabel: warning: {msg}", file=sys.stderr)


def _read_text(path: str, what: str) -> str:
    p = Path(path)
    if not path:
        raise ConfigError(f"no {what} path configured")
    if not p.exists():
        raise ConfigError(f"{what} file not found: {p}")
    return p.read_text()


def _parse_with_context(parser, path: str, what: str):
    try:
        return parser(_read_text(path, what))
    except ParseError as e:
        raise ParseError(e.line, f"{path}: {e.reason}") from None


def _header(cfg: PipelineConfig, inputs: dict[str, str]) -> str:
    digests = " ".join(f"{name}:{file_digest(p)}" for name, p in inputs.items() if Path(p).exists())
    return f"# seqlabel {__version__} config={config_fingerprint(cfg)} {digests}".rstrip() + "\n"


def _meta(cfg: PipelineConfig, inputs: dict[str, str]) -> dict:
    return {
        "tool": f"seqlabel {__version__}",
        "config": config_fingerprint(cfg),
        "inputs": {name: file_digest(p) for name, p in inputs.items() if Path(p).exists()},
    }


def _load_inputs(cfg: PipelineConfig):
    trajectory = _parse_with_context(parse_trajectory, cfg.trajectory_path, "trajectory")
    calib = _parse_with_context(parse_calib, cfg.calib_path, "calib")
    P = calib.get(cfg.camera)
    return trajectory, P


def cmd_build_map(cfg: PipelineConfig, out_dir: Path) -> int:
    trajectory, P = _load_inputs(cfg)
    detections = _parse_with_context(read_detections, cfg.detections_path, "detections")
    detections = {k: v for k, v in detections.items() if cfg.frame_allowed(k)}
    if not detections:
        _warn("no detections after filtering; writing an empty map")

    tracks = run_association(detections, trajectory, P, cfg.association)
    landmarks, rejected, track_of = fuse_tracks(tracks, cfg.weighting, cfg.fusion)
    landmark_of_track = {tid: lid for lid, tid in track_of.items()}

    inputs = {"trajectory": cfg.trajectory_path, "calib": cfg.calib_path,
              "detections": cfg.detections_path}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "map.jsonl").write_text(_header(cfg, inputs) + serialize_landmarks(landmarks))

    diagnostics = {
        "meta": _meta(cfg, inputs),
        "tracks": [
            {
                "track_id": t.track_id,
                "n_observations": len(t.observations),
                "first_frame": t.observations[0].frame_id,
                "last_frame": t.last_seen,
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


def cmd_annotate(cfg: PipelineConfig, out_dir: Path, map_path: str | None, threads: int) -> int:
    trajectory, P = _load_inputs(cfg)
    map_file = Path(map_path) if map_path else out_dir / "map.jsonl"
    if not map_file.exists():
        raise ConfigError(f"landmark map not found: {map_file}")
    landmarks = parse_landmarks(map_file.read_text())

    frames = [k for k in range(len(trajectory)) if cfg.frame_allowed(k)]

    def one(frame_id: int):
        return annotate_frame(landmarks, frame_id, trajectory.pose(frame_id), P, cfg.visibility)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            annotations = list(pool.map(one, frames))
    else:
        annotations = [one(k) for k in frames]

    labels_dir = out_dir / "labels"
    labels_dir.mkdir(parents=True, exist_ok=True)
    for ann in annotations:
        (labels_dir / frame_file_name(ann.frame_id)).write_text(write_kitti_labels(ann))
    inputs = {"trajectory": cfg.trajectory_path, "calib": cfg.calib_path,
              "map": str(map_file)}
    (out_dir / "annotations.jsonl").write_text(
        _header(cfg, inputs) + write_annotation_dump(annotations)
    )
    n_entries = sum(len(a.entries) for a in annotations)
    print(f"annotate: {n_entries} entries over {len(annotations)} frames -> {labels_dir}")
    return 0


def cmd_evaluate(cfg: PipelineConfig, out_dir: Path, pred_dir: str | None,
                 gt_dir: str | None, threads: int) -> int:
    pred = Path(pred_dir) if pred_dir else out_dir / "labels"
    if gt_dir is None:
        raise ConfigError("evaluate needs --gt DIR with ground-truth label files")
    gt = Path(gt_dir)
    for d, what in ((pred, "prediction"), (gt, "ground-truth")):
        if not d.is_dir():
            raise ConfigError(f"{what} label directory not found: {d}")

    def frame_files(d: Path) -> set[str]:
        return {p.name for p in d.glob("*.txt") if p.stem.isdigit()}

    common = sorted(frame_files(pred) & frame_files(gt))
    if not common:
        print("evaluate: no common label files between the two directories", file=sys.stderr)
        return 4

    def one(name: str):
        frame_id = int(name.split(".")[0])
        pred_ann = annotation_from_labels(
            frame_id, _parse_with_context(parse_kitti_labels, str(pred / name), "labels"))
        gt_ann = annotation_from_labels(
            frame_id, _parse_with_context(parse_kitti_labels, str(gt / name), "labels"))
        pairs = match_annotations(pred_ann, gt_ann, cfg.metrics_iou_min)
        return pairs, len(pred_ann.entries), len(gt_ann.entries)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, common))
    else:
        results = [one(name) for name in common]

    pairs = [p for frame_pairs, _, _ in results for p in frame_pairs]
    n_pred = sum(r[1] for r in results)
    n_gt = sum(r[2] for r in results)
    if not pairs:
        print("evaluate: zero matched pairs", file=sys.stderr)
        return 4

    depth = depth_metrics(pairs)
    viewpoint = viewpoint_metrics(pairs)
    sidebar = {
        "n_pred": n_pred,
        "n_gt": n_gt,
        "n_matched": len(pairs),
        "precision": len(pairs) / n_pred if n_pred else 0.0,
        "recall": len(pairs) / n_gt if n_gt else 0.0,
    }
    report = {
        "meta": _meta(cfg, {}),
        "depth": depth_report_to_json(depth),
        "viewpoint": viewpoint_report_to_json(viewpoint),
        "matching": sidebar,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    table = format_report_table(depth, viewpoint)
    (out_dir / "report.txt").write_text(_header(cfg, {}) + table)
    print(table, end="")
    print(f"matching: {sidebar['n_matched']}/{n_gt} gt matched "
          f"(precision {sidebar['precision']:.4f}, recall {sidebar['recall']:.4f})")
    return 0


def cmd_simulate(cfg: PipelineConfig, out_dir: Path, seed: int | None) -> int:
    if cfg.simulate is None:
        raise ConfigError("config has no simulate section")
    sim = cfg.simulate
    if seed is not None:
        sim = type(sim)(**{**sim.__dict__, "seed": seed})

    gt, detections = generate(sim)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trajectory.txt").write_text(serialize_trajectory(gt.trajectory))
    (out_dir / "calib.txt").write_text(serialize_calib(CalibFile({cfg.camera: gt.P})))
    (out_dir / "detections.jsonl").write_text(write_detections(detections))
    (out_dir / "gt_map.jsonl").write_text(
        f"# seqlabel {__version__} config={config_fingerprint(cfg)}\n"
        + serialize_landmarks(gt.landmarks)
    )
    gt_labels = out_dir / "gt_labels"
    gt_labels.mkdir(exist_ok=True)
    for k in range(len(gt.trajectory)):
        ann = annotate_frame(gt.landmarks, k, gt.trajectory.pose(k), gt.P, cfg.visibility)
        (gt_labels / frame_file_name(k)).write_text(write_kitti_labels(ann))
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
        p.add_argument("--threads", type=int, default=1, help="worker threads")

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
        if args.camera:
            cfg.camera = args.camera
        out = args.output or os.environ.get(OUTPUT_ENV) or cfg.output_dir
        cfg.output_dir = out
        out_dir = Path(out)

        if args.command == "build-map":
            return cmd_build_map(cfg, out_dir)
        if args.command == "annotate":
            return cmd_annotate(cfg, out_dir, args.map, args.threads)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out_dir, args.pred, args.gt, args.threads)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.seed)
        raise ConfigError(f"unknown command {args.command!r}")
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
