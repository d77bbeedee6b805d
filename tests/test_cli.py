"""End-to-end CLI behavior: subcommand composition, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlabel.cli import main
from seqlabel.config import AssociationConfig, load_config
from seqlabel.metrics import BUCKETS

BASE_CONFIG = {
    "paths": {},
    "camera": "P2",
    "association": {"w_iou": 0.5, "w_dist": 0.5, "w_desc": 0.0},
    "fusion": {"min_support": 2},
    "visibility": {"frame_window": 10},
    "simulate": {
        "seed": 42,
        "n_objects": 3,
        "frames": 60,
        "trajectory": "straight",
    },
}


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = json.loads(json.dumps(BASE_CONFIG))  # deep copy
    sim_dir = tmp_path / "sim"
    cfg["paths"] = {
        "trajectory": str(sim_dir / "trajectory.txt"),
        "calib": str(sim_dir / "calib.txt"),
        "detections": str(sim_dir / "detections.jsonl"),
        "output": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "pipeline.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


# Number keys of the config, for the finite-number rule.
NUMBER_KEYS = [
    ("association", "dist_gate"),
    ("association", "w_iou"),
    ("association", "max_frame_gap"),
    ("fusion", "depth_tol"),
    ("fusion", "yaw_tol_deg"),
    ("fusion", "var_gate"),
    ("visibility", "min_box_area"),
    ("visibility", "image_width"),
    ("metrics", "iou_min"),
]


def simulate(tmp_path, config):
    assert main(["simulate", "--config", str(config),
                 "--output", str(tmp_path / "sim")]) == 0


SYNTHETIC = Path(__file__).resolve().parent.parent / "configs" / "synthetic.yaml"


def simulate_synthetic(tmp_path: Path, **sections) -> Path:
    """configs/synthetic.yaml, its sections updated, writing under tmp_path; simulated."""
    raw = yaml.safe_load(SYNTHETIC.read_text())
    for section, values in sections.items():
        raw[section].update(values)
    sim = tmp_path / "sim"
    raw["paths"] = {"trajectory": str(sim / "trajectory.txt"), "calib": str(sim / "calib.txt"),
                    "detections": str(sim / "detections.jsonl"), "output": str(tmp_path / "out")}
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw))
    simulate(tmp_path, config)
    return config


def edit_object_detections(tmp_path: Path, gt_id: int, edit) -> None:
    """Apply edit to every simulated detection record of object gt_id."""
    det = tmp_path / "sim" / "detections.jsonl"
    records = [json.loads(line) for line in det.read_text().splitlines()]
    for r in records:
        if r["gt_id"] == gt_id:
            edit(r)
    det.write_text("".join(json.dumps(r) + "\n" for r in records))


def reject_constant(name):
    """json.loads' parse_constant hook: Infinity, -Infinity and NaN are not strict JSON."""
    raise ValueError(f"report.json holds {name}")


class TestSimulate:
    def test_writes_dataset(self, tmp_path):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        sim = tmp_path / "sim"
        for name in ("trajectory.txt", "calib.txt", "detections.jsonl", "gt_map.jsonl"):
            assert (sim / name).exists()
        assert sorted((sim / "gt_labels").glob("*.txt"))

    def test_byte_identical_across_runs(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--output", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(config), "--output", str(tmp_path / "b")]) == 0
        for name in ("trajectory.txt", "calib.txt", "detections.jsonl", "gt_map.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_flag_changes_stream(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--output", str(tmp_path / "a"),
                     "--seed", "1"]) == 0
        assert main(["simulate", "--config", str(config), "--output", str(tmp_path / "b"),
                     "--seed", "2"]) == 0
        assert (tmp_path / "a" / "detections.jsonl").read_bytes() != \
            (tmp_path / "b" / "detections.jsonl").read_bytes()

    def test_zero_objects_is_valid(self, tmp_path):
        config = write_config(tmp_path, simulate={**BASE_CONFIG["simulate"], "n_objects": 0})
        simulate(tmp_path, config)
        assert (tmp_path / "sim" / "detections.jsonl").read_text() == ""

    def test_infeasible_scene_exit_3(self, tmp_path):
        sim = {**BASE_CONFIG["simulate"], "objects": [[0.0, 1.65, -10.0, 0.0]]}
        config = write_config(tmp_path, simulate=sim)
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "sim")]) == 3

    def test_missing_simulate_section_exit_3(self, tmp_path):
        config = write_config(tmp_path, simulate=None)
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "sim")]) == 3


class TestPipelineComposition:
    def test_build_annotate_evaluate(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["build-map", "--config", str(config)]) == 0
        assert (out / "map.jsonl").exists()
        assert (out / "track_diagnostics.json").exists()

        assert main(["annotate", "--config", str(config)]) == 0
        labels = sorted((out / "labels").glob("*.txt"))
        assert len(labels) == 60

        assert main(["evaluate", "--config", str(config),
                     "--gt", str(tmp_path / "sim" / "gt_labels")]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["depth"]["count"] > 0
        assert report["depth"]["abs_rel"] < 1e-9
        assert report["viewpoint"]["mederr"] < 1e-7
        captured = capsys.readouterr()
        assert "MedErr" in captured.out
        assert captured.err == ""  # a successful run warns about nothing

    def test_outputs_deterministic(self, tmp_path):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        digests = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["build-map", "--config", str(config), "--output", str(out)]) == 0
            assert main(["annotate", "--config", str(config), "--output", str(out)]) == 0
            blob = (out / "map.jsonl").read_bytes() + (out / "annotations.jsonl").read_bytes()
            blob += b"".join(p.read_bytes() for p in sorted((out / "labels").glob("*.txt")))
            digests.append(blob)
        assert digests[0] == digests[1]

    def test_provenance_headers(self, tmp_path):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        assert main(["build-map", "--config", str(config)]) == 0
        head = (tmp_path / "out" / "map.jsonl").read_text().splitlines()[0]
        assert head.startswith("# seqlabel 0.1.0 config=")
        assert "detections:" in head
        # KITTI-format outputs carry no comment header.
        assert main(["annotate", "--config", str(config)]) == 0
        label = next(iter(sorted((tmp_path / "out" / "labels").glob("*.txt"))))
        text = label.read_text()
        assert not text.startswith("#")

    def test_empty_detections_warns_and_succeeds(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        (tmp_path / "sim" / "detections.jsonl").write_text("")
        assert main(["build-map", "--config", str(config)]) == 0
        assert "warning" in capsys.readouterr().err
        map_lines = (tmp_path / "out" / "map.jsonl").read_text().splitlines()
        assert len(map_lines) == 1  # header only

    def test_annotate_empty_map_writes_empty_labels(self, tmp_path):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        (tmp_path / "sim" / "detections.jsonl").write_text("")
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        labels = sorted((tmp_path / "out" / "labels").glob("*.txt"))
        assert len(labels) == 60
        assert all(p.read_text() == "" for p in labels)


class TestExitCodes:
    def test_missing_trajectory_exit_3(self, tmp_path):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        (tmp_path / "sim" / "trajectory.txt").unlink()
        assert main(["build-map", "--config", str(config)]) == 3

    @pytest.mark.parametrize("where", ["missing", "under a file"])
    def test_input_file_not_found_exit_3_with_one_line(self, tmp_path, capsys, where):
        # A missing file and a path through a regular file (ENOENT, ENOTDIR) read alike.
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        raw = yaml.safe_load(config.read_text())
        path = tmp_path / "sim" / ("nothing.txt" if where == "missing" else "calib.txt/x.txt")
        raw["paths"]["trajectory"] = str(path)
        config.write_text(yaml.safe_dump(raw))
        capsys.readouterr()
        assert main(["build-map", "--config", str(config)]) == 3
        assert capsys.readouterr().err == (
            f"seqlabel: config error: trajectory file not found: {path}\n")

    def test_malformed_detections_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        det = tmp_path / "sim" / "detections.jsonl"
        lines = det.read_text().splitlines()
        lines[4] = '{"frame_id": 1, "category": "Car"}'
        det.write_text("\n".join(lines) + "\n")
        assert main(["build-map", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "detections.jsonl" in err

    def test_malformed_trajectory_names_file_and_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        traj = tmp_path / "sim" / "trajectory.txt"
        traj.write_text(traj.read_text() + "1 2 3\n")
        assert main(["build-map", "--config", str(config)]) == 2
        assert "trajectory.txt" in capsys.readouterr().err

    def test_unknown_config_key_exit_3(self, tmp_path):
        config = write_config(tmp_path, association={"w_iou": 0.5, "w_dist": 0.5,
                                                     "w_desc": 0.0, "bogus": 1})
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "sim")]) == 3

    def test_missing_camera_key_exit_3(self, tmp_path):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        assert main(["build-map", "--config", str(config), "--camera", "P9"]) == 3

    def test_evaluate_disjoint_exit_4(self, tmp_path):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        # Ground truth boxes nowhere near the predictions: zero matches.
        gt_dir = tmp_path / "fake_gt"
        gt_dir.mkdir()
        for p in sorted((tmp_path / "out" / "labels").glob("*.txt")):
            (gt_dir / p.name).write_text(
                "Car 0.00 0 0.00 0.00 0.00 1.00 1.00 1.50 1.70 4.20 900.00 1.65 900.00 0.00\n"
            )
        assert main(["evaluate", "--config", str(config), "--gt", str(gt_dir)]) == 4

    def test_evaluate_without_gt_exit_3(self, tmp_path):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        assert main(["evaluate", "--config", str(config)]) == 3

    def test_zero_scores_reject_tracks_instead_of_crashing(self, tmp_path, capsys):
        # With a score threshold of 0, zero-score detections reach
        # association and fusion, where every weight sum is 0.
        association = {**BASE_CONFIG["association"], "score_threshold": 0.0}
        config = write_config(tmp_path, association=association)
        simulate(tmp_path, config)
        det = tmp_path / "sim" / "detections.jsonl"
        records = [json.loads(line) for line in det.read_text().splitlines()]
        det.write_text("".join(json.dumps({**r, "score": 0.0}) + "\n" for r in records))

        assert main(["build-map", "--config", str(config)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        diagnostics = json.loads((tmp_path / "out" / "track_diagnostics.json").read_text())
        assert diagnostics["n_landmarks"] == 0
        assert all(t["status"] == "rejected" for t in diagnostics["tracks"])
        reasons = {t["reason"] for t in diagnostics["tracks"] if t["n_observations"] > 1}
        assert "degenerate_mean" in reasons

    def test_negative_depth_exit_2_with_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        det = tmp_path / "sim" / "detections.jsonl"
        lines = det.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "depth": -1.0})
        det.write_text("\n".join(lines) + "\n")
        assert main(["build-map", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "depth" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("corrupt", ["center2d", "calib"])
    def test_non_finite_lift_exit_3(self, tmp_path, capsys, corrupt):
        # Finite inputs whose back-projection is not: a center at 1e308 pixels
        # on two consecutive frames, or intrinsics of 1e-320.
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        capsys.readouterr()
        if corrupt == "center2d":
            det = tmp_path / "sim" / "detections.jsonl"
            records = [json.loads(line) for line in det.read_text().splitlines()]
            kept = [r for r in records if r["score"] >= AssociationConfig().score_threshold]
            first = kept[0]
            second = next(r for r in kept if r["frame_id"] == first["frame_id"] + 1)
            for r in (first, second):
                r["center2d"] = {"u": 1e308, "v": 1e308}
            det.write_text("".join(json.dumps(r) + "\n" for r in records))
        else:
            calib = tmp_path / "sim" / "calib.txt"
            calib.write_text("P2: 1e-320 0 0 0 0 1e-320 0 0 0 0 1 0\n")
        assert main(["build-map", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "DegenerateProjection" in err and len(err.splitlines()) == 1

    def test_overflowing_map_dims_exit_0(self, tmp_path, capsys):
        # Finite landmark sizes whose projected corners overflow: the landmark
        # is excluded in every frame and the run prints nothing to stderr.
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        map_file = tmp_path / "sim" / "gt_map.jsonl"
        lines = map_file.read_text().splitlines()
        huge = json.loads(lines[-1])
        huge["dims"] = {"h": 1e308, "w": 1e308, "l": 1e308}
        lines[-1] = json.dumps(huge)
        map_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["annotate", "--config", str(config), "--map", str(map_file)]) == 0
        assert capsys.readouterr().err == ""
        dump = [json.loads(line) for line in
                (tmp_path / "out" / "annotations.jsonl").read_text().splitlines()[1:]]
        assert all(e["landmark_id"] != huge["id"] for frame in dump for e in frame["entries"])
        assert all(huge["id"] in [lid for lid, _ in frame["exclusions"]] for frame in dump)

    @pytest.mark.parametrize("section, key, value", [
        *(pytest.param(section, key, float("nan"), id=f"{section}-{key}")
          for section, key in NUMBER_KEYS),
        # An integer beyond the float range, for each float field.
        *(pytest.param(section, key, 10**400, id=f"{section}-{key}-1e400")
          for section, key in NUMBER_KEYS if key != "max_frame_gap"),
    ])
    def test_nan_config_number_exit_3(self, tmp_path, capsys, section, key, value):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        capsys.readouterr()
        raw = yaml.safe_load(config.read_text())
        raw.setdefault(section, {})[key] = value
        config.write_text(yaml.safe_dump(raw))
        assert main(["build-map", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and len(err.splitlines()) == 1


    @pytest.mark.parametrize("iou_min", ["nan", "0.5", 0, -0.25, 1.5, True])
    def test_bad_iou_min_exit_3(self, tmp_path, capsys, iou_min):
        config = write_config(tmp_path, metrics={"iou_min": iou_min})
        assert main(["build-map", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "metrics.iou_min" in err and len(err.splitlines()) == 1

    def test_nan_yaw_exit_2_with_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        det = tmp_path / "sim" / "detections.jsonl"
        lines = det.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "yaw": float("nan")})
        det.write_text("\n".join(lines) + "\n")
        assert main(["build-map", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "non-finite" in err and len(err.splitlines()) == 1

    def test_non_numeric_descriptor_exit_2_with_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        det = tmp_path / "sim" / "detections.jsonl"
        lines = det.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "descriptor": ["a", "b"]})
        det.write_text("\n".join(lines) + "\n")
        assert main(["build-map", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "descriptor" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("field, key, value", [
        ("box2d", "l", True), ("box2d", "t", "10"), ("dims", "l", "3.9"), ("center2d", "u", False),
    ])
    def test_non_number_box_dims_or_center_exit_2_with_file_and_line(self, tmp_path, capsys,
                                                                     field, key, value):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        det = tmp_path / "sim" / "detections.jsonl"
        lines = det.read_text().splitlines()
        obj = json.loads(lines[2])
        obj[field][key] = value
        lines[2] = json.dumps(obj)
        det.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["build-map", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(det) in err and "line 3" in err and f"{field}.{key}" in err

    @pytest.mark.parametrize("corrupt", [
        lambda obj: {**obj, "pose": [1.1 * v for v in obj["pose"]]},
        lambda obj: {**obj, "pose": [-v if i in (0, 4, 8) else v
                                     for i, v in enumerate(obj["pose"])]},
        lambda obj: json.dumps(obj).replace(str(obj["pose"][0]), "NaN", 1),
        lambda obj: json.dumps(obj)[:40],
        lambda obj: {k: v for k, v in obj.items() if k != "dims"},
        lambda obj: {**obj, "dims": {**obj["dims"], "h": -obj["dims"]["h"]}},
        # The detections reader's field rules: integers are JSON integers, and
        # numbers are never booleans.
        lambda obj: {**obj, "id": 1.5},
        lambda obj: {**obj, "first_frame": 2.9},
        lambda obj: {**obj, "observed_frames": [3.7]},
        lambda obj: {**obj, "support": True},
        lambda obj: {**obj, "dims": {**obj["dims"], "h": True}},
        # An identity rotation written with true or "1.0" on its diagonal.
        lambda obj: {**obj, "pose": [True, 0, 0, obj["pose"][3], 0, True, 0, obj["pose"][7],
                                     0, 0, True, obj["pose"][11]]},
        lambda obj: {**obj, "pose": ["1.0", 0, 0, obj["pose"][3], 0, "1.0", 0, obj["pose"][7],
                                     0, 0, "1.0", obj["pose"][11]]},
    ], ids=["scaled_rotation", "reflection", "nan", "truncated", "missing_dims",
            "negative_dims", "float_id", "float_first_frame", "float_observed_frame",
            "bool_support", "bool_dims", "bool_pose", "quoted_pose"])
    def test_malformed_map_exit_2_with_file_and_line(self, tmp_path, capsys, corrupt):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        lines = (tmp_path / "sim" / "gt_map.jsonl").read_text().splitlines()
        bad = corrupt(json.loads(lines[-1]))
        lines[-1] = bad if isinstance(bad, str) else json.dumps(bad)
        map_file = tmp_path / "bad_map.jsonl"
        map_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["annotate", "--config", str(config), "--map", str(map_file)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(map_file) in err and f"line {len(lines)}" in err

    def test_gt_label_at_negative_depth_is_never_matched(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        gt_dir = tmp_path / "sim" / "gt_labels"
        label = next(p for p in sorted(gt_dir.glob("*.txt")) if p.read_text())
        fields = label.read_text().splitlines()[0].split()
        fields[13] = "-3.00"  # z of the first object
        label.write_text(" ".join(fields) + "\n" + "".join(
            line + "\n" for line in label.read_text().splitlines()[1:]))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--gt", str(gt_dir)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        matching = json.loads((tmp_path / "out" / "report.json").read_text())["matching"]
        assert matching["n_matched"] == matching["n_gt"] - 1

    def test_kitti_dontcare_row_counts_but_never_matches(self, tmp_path, capsys):
        # KITTI writes DontCare regions with dims of -1; evaluation never reads dims.
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        gt_dir = tmp_path / "sim" / "gt_labels"
        argv = ["evaluate", "--config", str(config), "--gt", str(gt_dir)]
        report = tmp_path / "out" / "report.json"
        assert main(argv) == 0
        before = json.loads(report.read_text())["matching"]
        label = next(p for p in sorted(gt_dir.glob("*.txt")) if p.read_text())
        label.write_text(label.read_text() + "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 "
                         "-1 -1 -1 -1000 -1000 -1000 -10\n")
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        after = json.loads(report.read_text())["matching"]
        assert after["n_gt"] == before["n_gt"] + 1
        assert after["n_matched"] == before["n_matched"]

    def test_label_box_out_of_order_exit_2_naming_file_and_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        gt_dir = tmp_path / "sim" / "gt_labels"
        label = next(p for p in sorted(gt_dir.glob("*.txt")) if p.read_text())
        lines = label.read_text().splitlines()
        fields = lines[-1].split()
        fields[4], fields[6] = fields[6], fields[4]  # left > right
        lines[-1] = " ".join(fields)
        label.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--pred", str(gt_dir), "--gt", str(gt_dir)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(label) in err and f"line {len(lines)}" in err and "invalid box" in err

    def test_label_overlap_below_the_float_range_is_no_match(self, tmp_path, capsys):
        # Boxes 1e-200 px wide overlap by an area that underflows to 0: no match, not 0 / 0.
        for d in ("pred", "gt"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "000000.txt").write_text(
                "Car 0.00 0 0.00 0 0 1e-200 1e-200 1.50 1.70 4.20 0.00 1.60 20.00 0.00\n")
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config), "--pred", str(tmp_path / "pred"),
                     "--gt", str(tmp_path / "gt")]) == 4
        assert capsys.readouterr().err == "evaluate: zero matched pairs\n"

    @pytest.mark.parametrize("command, target", [("build-map", "detections"), ("annotate", "map")])
    def test_deeply_nested_json_line_exit_2_naming_file_and_line(self, tmp_path, capsys,
                                                                 command, target):
        # json.loads raises RecursionError on arrays nested past the recursion limit.
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        assert main(["build-map", "--config", str(config)]) == 0
        bad = {"detections": tmp_path / "sim" / "detections.jsonl",
               "map": tmp_path / "out" / "map.jsonl"}[target]
        lines = bad.read_text().splitlines()
        lines.append('{"frame_id": 0, "x": ' + "[" * 3000 + "]" * 3000 + "}")
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"line {len(lines)}: {bad}: invalid JSON: nested too deeply" in err

    @pytest.mark.parametrize("depth", [3000, 30000])
    def test_deeply_nested_config_exit_3_with_one_line(self, tmp_path, capsys, depth):
        # PyYAML composes nested nodes recursively, and raises RecursionError past the limit.
        # At 30,000 levels yaml.CSafeLoader would crash the process instead (SIGSEGV).
        config = write_config(tmp_path)
        text = config.read_text()
        assert "camera: P2\n" in text
        nested = "[" * depth + "]" * depth
        config.write_text(text.replace("camera: P2\n", f"camera: {nested}\n"))
        assert main(["build-map", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{config}: invalid YAML: nested too deeply" in err

    @pytest.mark.parametrize("frame_id", [5000, -3])
    def test_detection_on_unknown_frame_exit_2_naming_file_and_line(self, tmp_path, capsys,
                                                                     frame_id):
        config = simulate_synthetic(tmp_path)
        det = tmp_path / "sim" / "detections.jsonl"
        records = [json.loads(line) for line in det.read_text().splitlines()]
        assert min(r["score"] for r in records) >= 0.7  # the threshold of the config
        records[0].update(frame_id=frame_id, score=0.5)  # dropped before matching: no error
        for k in (7, 3):
            records[k]["frame_id"] = frame_id
        det.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert main(["build-map", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"seqlabel: parse error: line 4: {det}: no camera pose for frame {frame_id}\n")
        # A frame the sequence excludes is dropped before the check.
        excluded = write_config(tmp_path, sequence={"exclude": [[frame_id, frame_id]]})
        assert main(["build-map", "--config", str(excluded)]) == 0

    def test_opposite_huge_yaws_evaluate_in_range(self, tmp_path, capsys):
        # rotation_y of 1e308 in every ground-truth line of a frame and -1e308 in every
        # predicted one: their difference overflowed to -inf, which wrap_angle rejected.
        config = simulate_synthetic(tmp_path)
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        for path, value in ((tmp_path / "sim" / "gt_labels" / "000011.txt", "1e308"),
                            (tmp_path / "out" / "labels" / "000011.txt", "-1e308")):
            lines = [line.split() for line in path.read_text().splitlines()]
            assert lines
            path.write_text("".join(" ".join(w[:14] + [value] + w[15:]) + "\n" for w in lines))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--gt", str(tmp_path / "sim" / "gt_labels")]) == 0
        assert capsys.readouterr().err == ""
        viewpoint = json.loads((tmp_path / "out" / "report.json").read_text())["viewpoint"]
        assert 0.0 <= viewpoint["mederr"] <= 180.0

    def test_overflowing_depth_metric_is_null_in_report(self, tmp_path, capsys):
        # A predicted z of 1e308 overflows sqr_rel and rmse, which report.json held as
        # Infinity, a constant that strict JSON parsers reject.
        config = simulate_synthetic(tmp_path)
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        label = tmp_path / "out" / "labels" / "000010.txt"
        label.write_text(mutate(label.read_text(), False, 0, 13, ("1e308", 1e308)))  # z of line 1
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--gt", str(tmp_path / "sim" / "gt_labels")]) == 0
        assert capsys.readouterr().err == ""
        depth = json.loads((tmp_path / "out" / "report.json").read_text(),
                           parse_constant=reject_constant)["depth"]
        for report in (depth, depth["intervals"]["50+"]):
            assert report["sqr_rel"] is None and report["rmse"] is None
            assert math.isfinite(report["abs_rel"]) and math.isfinite(report["rmse_log"])
        rows = (tmp_path / "out" / "report.txt").read_text().splitlines()
        overall = rows[rows.index("Depth estimation") + 2].split()
        assert overall[3:5] == ["-", "-"]
        assert next(row for row in rows if row.startswith("50+")).split()[3:5] == ["-", "-"]

    @pytest.mark.parametrize("dims, record, association", [
        ({"l": 1e308}, {}, {}),  # the fused length overflows to inf
        # 0.4 * 5e-324 underflows to 0, and so does the fused height.
        ({"h": 5e-324}, {"score": 0.4}, {"score_threshold": 0.3}),
    ], ids=["overflow", "underflow"])
    def test_extreme_dims_reject_the_track_and_annotate_reads_the_map(
            self, tmp_path, capsys, dims, record, association):
        config = simulate_synthetic(tmp_path, association=association)
        edit_object_detections(tmp_path, 0,
                               lambda r: r.update(record, dims={**r["dims"], **dims}))
        capsys.readouterr()
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""
        diagnostics = json.loads((tmp_path / "out" / "track_diagnostics.json").read_text())
        assert "degenerate_mean" in {t["reason"] for t in diagnostics["tracks"]}

    @pytest.mark.parametrize("sigma_floor, code", [(1e-200, 3), (1e-100, 0)])
    def test_sigma_floor_keeps_inverse_variance_weights_finite(self, tmp_path, capsys,
                                                               sigma_floor, code):
        # Under a floor of 1e-200, sigma 1e-160 gave weights of inf, a NaN circular median
        # and a track rejected with 0 inliers; the floor's bound caps each weight at 1e200.
        config = simulate_synthetic(tmp_path,
                                    simulate={"sigma_model": {"offset": 0.1, "slope": 0.01}})
        edit_object_detections(tmp_path, 0, lambda r: r.update(sigma=1e-160))
        raw = yaml.safe_load(config.read_text())
        raw["weighting"] = {"mode": "inverse_variance", "sigma_floor": sigma_floor}
        config.write_text(yaml.safe_dump(raw))
        capsys.readouterr()
        assert main(["build-map", "--config", str(config)]) == code
        err = capsys.readouterr().err
        if code == 3:
            assert len(err.splitlines()) == 1 and "weighting.sigma_floor" in err
        else:
            diagnostics = json.loads((tmp_path / "out" / "track_diagnostics.json").read_text())
            assert err == "" and diagnostics["n_landmarks"] == 3

    @pytest.mark.parametrize("key, value", [("l", -1e308), ("r", 1e308)])
    def test_box_edge_near_float_max_exit_0(self, tmp_path, capsys, key, value):
        config = simulate_synthetic(tmp_path)
        edit_object_detections(tmp_path, 0, lambda r: r["box2d"].update({key: value}))
        capsys.readouterr()
        assert main(["build-map", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("entry", [0, 3])
    def test_projection_entry_near_float_max_exit_0(self, tmp_path, capsys, entry):
        config = simulate_synthetic(tmp_path)
        assert main(["build-map", "--config", str(config)]) == 0
        calib = tmp_path / "sim" / "calib.txt"
        key, values = calib.read_text().split(":")
        values = values.split()
        values[entry] = "1e308"
        calib.write_text(f"{key}: {' '.join(values)}\n")
        capsys.readouterr()
        assert main(["annotate", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""

    def test_rotation_entry_near_float_max_exit_2_with_line(self, tmp_path, capsys):
        config = simulate_synthetic(tmp_path)
        trajectory = tmp_path / "sim" / "trajectory.txt"
        lines = trajectory.read_text().splitlines()
        lines[4] = " ".join(["1e308", *lines[4].split()[1:]])
        trajectory.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["build-map", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(trajectory) in err and "line 5" in err

    @pytest.mark.parametrize("command, target", [
        ("build-map", "detections"), ("annotate", "map"), ("evaluate", "labels"),
    ])
    def test_non_utf8_input_exit_2_naming_the_file(self, tmp_path, capsys, command, target):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        bad = {"detections": tmp_path / "sim" / "detections.jsonl",
               "map": tmp_path / "out" / "map.jsonl",
               "labels": tmp_path / "sim" / "gt_labels" / "000000.txt"}[target]
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        capsys.readouterr()
        argv = [command, "--config", str(config)]
        if command == "evaluate":
            argv += ["--gt", str(tmp_path / "sim" / "gt_labels")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(bad) in err and "line 1" in err and "UTF-8" in err

    def test_non_utf8_config_exit_3_naming_the_file(self, tmp_path, capsys):
        config = write_config(tmp_path)
        config.write_bytes(config.read_bytes() + b"# caf\xe9\n")
        assert main(["build-map", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(config) in err and "UTF-8" in err

    @pytest.mark.parametrize("text, where", [
        ("association:\n  iou_gate: [1, 2\n", " at line 3, column 1: expected ',' or ']'"),
        ("camera: *nowhere\n", " at line 1, column 9: found undefined alias 'nowhere'"),
        ("camera: P2\x00\n", ": unacceptable character #x0000"),
    ], ids=["unclosed-flow-sequence", "undefined-alias", "nul-byte"])
    def test_malformed_yaml_exit_3_with_one_line(self, tmp_path, capsys, text, where):
        # PyYAML's own message spans several lines: an excerpt with a caret under it.
        config = tmp_path / "pipeline.yaml"
        config.write_text(text)
        assert main(["build-map", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{config}: invalid YAML{where}" in err

    @pytest.mark.parametrize("key, value", [
        ("paths.trajectory", 5),
        ("paths.calib", [1]),
        ("paths.detections", None),
        ("paths.output", 3.5),
        ("camera", [1]),
        ("camera", 2),
    ])
    def test_non_string_config_value_exit_3(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path)
        raw = yaml.safe_load(config.read_text())
        if key.startswith("paths."):
            raw["paths"][key.split(".")[1]] = value
        else:
            raw[key] = value
        config.write_text(yaml.safe_dump(raw))
        assert main(["build-map", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err and "string" in err

    @pytest.mark.parametrize("key, value", [
        ("sigma_model", {}),
        ("sigma_model", {"offset": 0.1}),
        ("objects", [[1.0, 2.0]]),
        ("objects", [[0.0, 1.65, 30.0, 0.0, 1.5]]),
        ("objects", [[0.0, 1.65, 30.0, 0.0, 1.5, 1.7]]),
        ("waypoints", [[0.0, 0.0, 0.0], [0.0]]),
        ("depth_range", [5.0]),
        ("depth_range", [45.0, 12.0]),
        ("lateral_range", [1.0, 2.0, 3.0]),
        ("objects", [[0, 1.65, 20, 0, -1.5, 1.7, 4.2]]),
    ])
    def test_malformed_simulate_shape_exit_3(self, tmp_path, capsys, key, value):
        sim = {**BASE_CONFIG["simulate"], key: value}
        if key == "waypoints":
            sim["trajectory"] = "waypoints"
        config = write_config(tmp_path, simulate=sim)
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "sim")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err

    @pytest.mark.parametrize("key, value, flags", [
        ("simulate.frames", 1.5, []),
        ("simulate.frames", True, []),
        ("simulate.n_objects", 2.5, []),
        ("simulate.seed", "a", []),
        ("simulate.seed", -1, []),
        ("simulate.seed", 42, ["--seed", "-1"]),
        ("simulate.category", 5, []),
        ("visibility.frame_window", 1.5, []),
        ("association.max_frame_gap", 1.5, []),
        ("fusion.min_support", 1.5, []),
    ])
    def test_bad_count_or_category_exit_3(self, tmp_path, capsys, key, value, flags):
        # Counts must be YAML integers (not floats or booleans), the seed
        # non-negative and the category a string, from the file or a flag.
        section, name = key.split(".")
        config = write_config(tmp_path, **{section: {name: value}})
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "sim"), *flags]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert name in err
        assert not (tmp_path / "sim").exists()


    @pytest.mark.parametrize("key, value", [
        *((key, "x") for key in (
            "speed", "arc_radius", "sigma_z", "sigma_yaw_deg", "sigma_px", "dropout_prob",
            "outlier_prob", "outlier_dz", "outlier_dyaw_deg", "score_base", "score_decay",
            "image_width", "image_height", "focal", "ground_y")),
        ("speed", True),
        ("dropout_prob", True),
        ("focal", False),
        ("score_decay", None),
        ("image_width", [1242]),
    ])
    def test_non_numeric_simulate_scalar_exit_3(self, tmp_path, capsys, key, value):
        # arc_radius is checked on a straight trajectory too, which never reads it.
        config = write_config(tmp_path, simulate={key: value})
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "sim")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"simulate.{key}" in err
        assert not (tmp_path / "sim").exists()

    def test_simulate_scalars_kept_as_given(self, tmp_path):
        config = write_config(tmp_path, simulate={"image_width": 1242, "speed": 1.5})
        sim = load_config(config).simulate
        assert type(sim.image_width) is int and type(sim.speed) is float

    @pytest.mark.parametrize("key, value", [
        ("association.score_threshold", True),
        ("association.iou_gate", False),
        ("association.w_iou", "0.5"),
        ("visibility.image_width", True),
        ("visibility.min_visible_fraction", True),
        ("visibility.min_box_area", "100"),
        ("weighting.sigma_floor", True),
        ("fusion.var_gate", True),
        ("fusion.yaw_tol_deg", True),
        ("fusion.depth_tol", "a"),
        ("simulate.sigma_model", {"offset": "nan", "slope": 0.01}),
        ("simulate.sigma_model", {"offset": 0.1, "slope": True}),
        ("sequence.include", [[0.5, 10.9]]),
        ("sequence.include", [["3", "7"]]),
        ("sequence.exclude", [[True, 4]]),
        ("sequence.include", 5),
        ("sequence.include", [[10, 5]]),
        ("sequence.exclude", [[0, 3], [7, -1]]),
        ("association", 5),
        ("paths", 5),
        ("metrics", 0.5),
        ("sequence", 5),
    ])
    def test_value_of_wrong_kind_exit_3_naming_it(self, tmp_path, capsys, key, value):
        # A section must be a mapping, each value must have the kind of its
        # field's default, and a frame range must be a pair of integers with
        # start <= end: a reversed range would select no frame.
        section, _, name = key.partition(".")
        config = write_config(tmp_path, **{section: {name: value} if name else value})
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "sim")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err
        assert not (tmp_path / "sim").exists()


def _by_frame(text: str) -> dict[int, list[str]]:
    """The detection lines of text grouped by frame id, in frame order of first appearance."""
    groups: dict[int, list[str]] = {}
    for line in text.splitlines():
        groups.setdefault(json.loads(line)["frame_id"], []).append(line)
    return groups


class TestInputOrder:
    """build-map's map does not depend on how the detection lines are laid out.

    Reordering frames, line ends and blank or comment lines leave every
    byte but the detections digest in the header; lines shuffled within a
    frame only renumber the landmarks.
    """

    EDITS = {
        "frames reordered": lambda text, rng: "".join(
            line + "\n" for ds in rng.sample(list(_by_frame(text).values()), len(_by_frame(text)))
            for line in ds),
        "CRLF": lambda text, rng: text.replace("\n", "\r\n"),
        "blank and comment lines": lambda text, rng: text.replace("\n", "\n\n# a comment\n"),
    }

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        """A simulated scene of several objects per frame, and its map lines."""
        tmp_path = tmp_path_factory.mktemp("order")
        config = simulate_synthetic(tmp_path, simulate={"n_objects": 8, "frames": 40})
        assert main(["build-map", "--config", str(config)]) == 0
        return config, (tmp_path / "out" / "map.jsonl").read_text().splitlines(keepends=True)

    def _map_of(self, scene, tmp_path, text: str) -> list[str]:
        config, _ = scene
        raw = yaml.safe_load(config.read_text())
        raw["paths"]["detections"] = str(tmp_path / "detections.jsonl")
        edited = tmp_path / "pipeline.yaml"
        edited.write_text(yaml.safe_dump(raw))
        (tmp_path / "detections.jsonl").write_bytes(text.encode())
        assert main(["build-map", "--config", str(edited), "--output", str(tmp_path / "out")]) == 0
        return (tmp_path / "out" / "map.jsonl").read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_layout_keeps_the_map_bytes(self, scene, tmp_path, edit):
        config, want = scene
        text = Path(load_config(config).detections_path).read_text()
        got = self._map_of(scene, tmp_path, self.EDITS[edit](text, random.Random(0)))
        assert len(_by_frame(text)) > 20 and max(map(len, _by_frame(text).values())) > 3
        strip = lambda header: [w for w in header.split() if not w.startswith("detections:")]
        assert strip(got[0]) == strip(want[0]) and got[0] != want[0]
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("seed", range(3))
    def test_lines_shuffled_within_frames_keep_the_map_up_to_ids(self, scene, tmp_path, seed):
        config, want = scene
        rng = random.Random(seed)
        text = "".join(line + "\n" for ds in _by_frame(
            Path(load_config(config).detections_path).read_text()).values()
            for line in rng.sample(ds, len(ds)))
        got = self._map_of(scene, tmp_path, text)

        def landmarks(lines):
            return sorted(json.dumps({k: v for k, v in json.loads(line).items() if k != "id"})
                          for line in lines[1:])
        assert landmarks(got) == landmarks(want)


class TestOutputOverrides:
    def test_env_var_overrides_config(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("SEQLABEL_OUTPUT", str(env_out))
        assert main(["build-map", "--config", str(config)]) == 0
        assert (env_out / "map.jsonl").exists()

    def test_flag_wins_over_env(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        simulate(tmp_path, config)
        monkeypatch.setenv("SEQLABEL_OUTPUT", str(tmp_path / "env_out"))
        flag_out = tmp_path / "flag_out"
        assert main(["build-map", "--config", str(config), "--output", str(flag_out)]) == 0
        assert (flag_out / "map.jsonl").exists()
        assert not (tmp_path / "env_out").exists()


class TestEvaluateFixture:
    def test_hand_computed_metrics_through_cli(self, tmp_path):
        # One matched pair per frame; every value is 2-decimal exact, so the
        # label round trip is lossless and the report must hit the frozen
        # oracle to 1e-12.
        from test_metrics import FIXTURE_EXPECTED, FIXTURE_PAIRS

        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for i, (z_gt, z_pred, yaw_gt, yaw_pred) in enumerate(FIXTURE_PAIRS):
            line = "Car 0.00 0 0.00 100.00 100.00 200.00 200.00 1.50 1.70 4.20 0.00 1.65 {z:.2f} {ry:.2f}\n"
            (pred_dir / f"{i:06d}.txt").write_text(line.format(z=z_pred, ry=yaw_pred))
            (gt_dir / f"{i:06d}.txt").write_text(line.format(z=z_gt, ry=yaw_gt))

        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--output", str(out),
                     "--pred", str(pred_dir), "--gt", str(gt_dir)]) == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("delta_125", "abs_rel", "sqr_rel", "rmse", "rmse_log"):
            assert abs(report["depth"][key] - FIXTURE_EXPECTED[key]) < 1e-12
        for key in ("acc_pi4", "acc_pi6", "mederr"):
            assert abs(report["viewpoint"][key] - FIXTURE_EXPECTED[key]) < 1e-12
        assert report["matching"] == {
            "n_pred": 10, "n_gt": 10, "n_matched": 10, "precision": 1.0, "recall": 1.0,
        }
        # Key order is part of the file format.
        depth_keys = ["delta_125", "abs_rel", "sqr_rel", "rmse", "rmse_log", "count",
                      "log_excluded"]
        viewpoint_keys = ["acc_pi4", "acc_pi6", "mederr", "count"]
        assert list(report) == ["meta", "depth", "viewpoint", "matching"]
        assert list(report["depth"]) == depth_keys + ["intervals"]
        assert list(report["viewpoint"]) == viewpoint_keys + ["intervals"]
        assert list(report["depth"]["intervals"]["0-10"]) == depth_keys
        for family in ("depth", "viewpoint"):
            assert list(report[family]["intervals"]) == list(BUCKETS)
            assert all("intervals" not in sub for sub in report[family]["intervals"].values())


class TestSequenceFilter:
    def test_exclude_range_drops_frames(self, tmp_path):
        config = write_config(tmp_path, sequence={"exclude": [[0, 29]]})
        simulate(tmp_path, config)
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        labels = sorted((tmp_path / "out" / "labels").glob("*.txt"))
        assert len(labels) == 30
        assert labels[0].name == "000030.txt"

    def test_annotate_leaves_only_this_runs_frame_files(self, tmp_path, capsys):
        # A narrower run into the same output replaces the frame files of the wider one,
        # which evaluate would otherwise read as this run's predictions.
        config = simulate_synthetic(tmp_path, simulate={"frames": 20})
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        labels = tmp_path / "out" / "labels"
        assert len(list(labels.glob("*.txt"))) == 20
        (labels / "notes.txt").write_text("not a frame file\n")
        raw = yaml.safe_load(config.read_text())
        raw["sequence"] = {"include": [[0, 4]]}
        config.write_text(yaml.safe_dump(raw))
        assert main(["annotate", "--config", str(config)]) == 0
        assert sorted(p.name for p in labels.glob("*.txt")) == [
            "000000.txt", "000001.txt", "000002.txt", "000003.txt", "000004.txt", "notes.txt"]
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--gt", str(tmp_path / "sim" / "gt_labels")]) == 0
        assert "matching: 15/15 gt matched" in capsys.readouterr().out


    def test_names_other_than_ascii_digits_are_neither_read_nor_deleted(self, tmp_path, capsys):
        # "²".isdigit() holds, but int("²") fails: such a name is not a frame file.
        config = simulate_synthetic(tmp_path, simulate={"frames": 20})
        assert main(["build-map", "--config", str(config)]) == 0
        assert main(["annotate", "--config", str(config)]) == 0
        argv = ["evaluate", "--config", str(config), "--gt", str(tmp_path / "sim" / "gt_labels")]
        capsys.readouterr()
        assert main(argv) == 0
        before = capsys.readouterr().out
        odd = [tmp_path / "out" / "labels" / "².txt", tmp_path / "sim" / "gt_labels" / "².txt"]
        for path in odd:
            path.write_text(path.with_name("000010.txt").read_text())
        assert main(["annotate", "--config", str(config)]) == 0
        assert all(path.exists() for path in odd)
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == (before, "")


def _python(script: str, *args: str) -> str:
    """stdout of a fresh interpreter running script with this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_scipy_unloaded():
    # simulate, annotate and evaluate never assign, so they must not pay
    # for importing scipy.optimize at start-up.
    out = _python("import sys, seqlabel.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_build_map_never_loads_scipy(tmp_path):
    # The assignment solver is built in: a whole build-map run, not just
    # the import, finishes without scipy in sys.modules.
    config = write_config(tmp_path)
    simulate(tmp_path, config)
    script = ("import sys\n"
              "from seqlabel.cli import main\n"
              "rc = main(['build-map', '--config', sys.argv[1]])\n"
              "print(rc, 'scipy' in sys.modules)\n")
    assert _python(script, str(config)).splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "map.jsonl").exists()


def test_simulator_import_leaves_association_unloaded():
    # simulate never associates; score_association names Track only as a type hint.
    out = _python("import sys, seqlabel.simulator; print('seqlabel.association' in sys.modules)")
    assert out.strip() == "False"


@pytest.mark.parametrize("script", [
    "import seqlabel.errors",
    "import seqlabel.config",
    "import seqlabel.labels",
    "import seqlabel.metrics",
    "import seqlabel.cli",
    pytest.param("from seqlabel.cli import main\ntry:\n    main(['--version'])\n"
                 "except SystemExit:\n    pass", id="seqlabel --version"),
])
def test_numpy_free_layer_never_loads_numpy(script):
    # These modules import no numpy stage; a stray top-level import would
    # cost every evaluate run the numpy import.
    out = _python(script + "\nimport sys\nprint('numpy' in sys.modules)")
    assert out.splitlines()[-1] == "False"


def test_evaluate_never_loads_numpy(tmp_path):
    # evaluate parses labels, matches and averages in pure Python, takes its median
    # without statistics (which brings fractions and decimal), and its records are
    # NamedTuples, not dataclasses (which bring inspect, ast and dis): a whole run, in a
    # fresh interpreter, leaves none of these modules loaded.
    config = write_config(tmp_path)
    simulate(tmp_path, config)
    assert main(["build-map", "--config", str(config)]) == 0
    assert main(["annotate", "--config", str(config)]) == 0
    script = ("import sys\n"
              "from seqlabel.cli import main\n"
              "rc = main(['evaluate', '--config', sys.argv[1], '--gt', sys.argv[2]])\n"
              "print(rc, sorted({'numpy', 'statistics', 'dataclasses', 'inspect'}"
              " & set(sys.modules)))\n")
    out = _python(script, str(config), str(tmp_path / "sim" / "gt_labels"))
    assert out.splitlines()[-1] == "0 []"
    assert json.loads((tmp_path / "out" / "report.json").read_text())["matching"]["n_matched"] > 0


def test_no_source_line_longer_than_100():
    # Keeps line counts of the package comparable: no statement is packed into a long line.
    src = Path(__file__).resolve().parent.parent / "src" / "seqlabel"
    long = [f"{path.name}:{n}" for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == []


# --- input fuzzing: one field of one line of a 20-frame scene's input ----------------------

# What a mutation writes into the field: (its text in a trajectory or calib line, its JSON
# value in a detections or map line); None drops the field.
FUZZ_VALUES = [("1e308", 1e308), ("-1e308", -1e308), ("1e200", 1e200), ("5e-324", 5e-324),
               ("0", 0), ("-1", -1), ("nan", math.nan), ("inf", math.inf), ("x", "x"),
               ("true", True), ("null", None), ("[]", []), ("{}", {}), ('"12.5"', "12.5"),
               ("5000", 5000), ("-3", -3), None]
# Edits of the whole file instead of one field: its bytes from its text.  "².txt" leaves the
# input as it is and adds a copy of both label files under a name of a non-ASCII digit.
FILE_EDITS = {"empty": lambda text: b"",
              "CRLF": lambda text: text.replace("\n", "\r\n").encode(),
              "invalid UTF-8": lambda text: b"\xff" + text.encode(),
              "².txt": str.encode}
# (command, the input it reads that is mutated); evaluate reads labels against gt_labels.
FUZZ_TARGETS = [("build-map", "trajectory"), ("build-map", "calib"), ("build-map", "detections"),
                ("annotate", "trajectory"), ("annotate", "calib"), ("annotate", "map"),
                ("evaluate", "labels"), ("evaluate", "gt_labels")]


@pytest.fixture(scope="module")
def fuzz_scene(tmp_path_factory):
    """configs/synthetic.yaml at 20 frames, simulated, mapped and annotated:
    (config, {input: path})."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    config = simulate_synthetic(tmp_path, simulate={"frames": 20})
    for command in ("build-map", "annotate"):
        assert main([command, "--config", str(config), "--output", str(tmp_path / "map")]) == 0
    sim = tmp_path / "sim"
    return config, {"trajectory": sim / "trajectory.txt", "calib": sim / "calib.txt",
                    "detections": sim / "detections.jsonl", "map": tmp_path / "map" / "map.jsonl",
                    "labels": tmp_path / "map" / "labels" / "000010.txt",
                    "gt_labels": sim / "gt_labels" / "000010.txt"}


def _leaves(value, path=()):
    """The paths of the leaves of a JSON value, an empty array or object counted as a leaf."""
    children = list(value.items() if isinstance(value, dict)
                    else enumerate(value) if isinstance(value, list) else ())
    if not children:
        yield path
    for key, child in children:
        yield from _leaves(child, path + (key,))


def mutate(text: str, json_lines: bool, line: int, field: int, value) -> str:
    """text with one field of data line `line` replaced by value, or dropped for None.

    A field is a whitespace-separated word of a text line (a calib line's key is
    word 0) or a leaf of a JSON line; line and field wrap around their counts.
    """
    lines = text.splitlines()
    data = [i for i, s in enumerate(lines) if s.strip() and not s.startswith("#")]
    i = data[line % len(data)]
    if json_lines:
        record = json.loads(lines[i])
        leaves = list(_leaves(record))
        *parents, key = leaves[field % len(leaves)]
        owner = record
        for k in parents:
            owner = owner[k]
        if value is None:
            del owner[key]
        else:
            owner[key] = value[1]
        lines[i] = json.dumps(record)
    else:
        words = lines[i].split()
        k = field % len(words)
        words[k:k + 1] = [] if value is None else [value[0]]
        lines[i] = " ".join(words)
    return "".join(s + "\n" for s in lines)


def run_mutated(fuzz_scene, target, line, field, value) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of target's command in process on its mutated input.

    value is a FUZZ_VALUES entry, or a FILE_EDITS key.
    """
    config, inputs = fuzz_scene
    command, name = target
    path = inputs[name]
    original = path.read_text()
    if isinstance(value, str):
        path.write_bytes(FILE_EDITS[value](original))
    else:
        path.write_text(mutate(original, name in ("detections", "map"), line, field, value))
    copies = ([inputs[k].with_name("².txt") for k in ("labels", "gt_labels")]
              if value == "².txt" else [])
    for copy in copies:
        copy.write_text(copy.with_name("000010.txt").read_text())
    out_dir = config.parent / "fuzz"
    argv = [command, "--config", str(config), "--output", str(out_dir)]
    if command == "annotate":
        argv += ["--map", str(inputs["map"])]
    if command == "evaluate":
        argv += ["--pred", str(inputs["labels"].parent), "--gt", str(inputs["gt_labels"].parent)]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        path.write_text(original)
        for copy in copies:
            copy.unlink()
    if rc == 0 and command == "evaluate":
        json.loads((out_dir / "report.json").read_text(), parse_constant=reject_constant)
    return rc, out.getvalue(), err.getvalue()


# Translations and a projection entry near the float limit, where the association distance
# and the fusion variance gate overflow: (target, line, field, value, build-map's stdout).
EXTREME_POSES = [
    (("build-map", "trajectory"), 5, 3, ("1e308", 1e308), "3 landmarks from 6 tracks"),
    (("build-map", "calib"), 0, 2, ("1e200", 1e200), "0 landmarks from 54 tracks"),
    (("build-map", "calib"), 0, 8, ("1e308", 1e308), "15 landmarks from 18 tracks"),
]


@pytest.mark.parametrize("target, line, field, value, stdout", EXTREME_POSES,
                         ids=["trajectory-t_x", "calib-P2[1]", "calib-P2[7]"])
def test_extreme_pose_builds_map_without_warnings(fuzz_scene, target, line, field, value,
                                                  stdout):
    # Under tier-1's filterwarnings an overflow warning fails the run instead of printing.
    rc, out, err = run_mutated(fuzz_scene, target, line, field, value)
    assert (rc, err) == (0, "")
    assert stdout in out


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(FUZZ_TARGETS), line=st.integers(0, 99), field=st.integers(0, 99),
       value=st.sampled_from(FUZZ_VALUES + list(FILE_EDITS)))
@example(*EXTREME_POSES[0][:4])
@example(*EXTREME_POSES[1][:4])
@example(*EXTREME_POSES[2][:4])
@example(("evaluate", "labels"), 0, 0, "empty")
@example(("evaluate", "gt_labels"), 0, 0, "CRLF")
@example(("evaluate", "labels"), 0, 0, "invalid UTF-8")
@example(("evaluate", "gt_labels"), 0, 0, "².txt")
@example(("evaluate", "labels"), 0, 13, ("1e308", 1e308))  # z: sqr_rel and rmse overflow
@example(("build-map", "detections"), 0, 6, ('"12.5"', "12.5"))  # a quoted depth
@example(("build-map", "detections"), 0, 2, ("5000", 5000))  # a reversed box: l > r
@example(("build-map", "detections"), 0, 0, ("5000", 5000))  # frame_id past the trajectory
@example(("build-map", "detections"), 0, 0, ("-3", -3))  # frame_id before it
@example(("build-map", "detections"), 20, 84, ("1e308", 1e308))  # a box edge-on to a hull with inf edges
def test_mutated_input_exits_with_at_most_one_line(fuzz_scene, target, line, field, value):
    # run_mutated also parses every report.json that evaluate writes as strict JSON.
    rc, _, err = run_mutated(fuzz_scene, target, line, field, value)
    assert rc in (0, 2, 3, 4)
    assert len(err.splitlines()) <= 1, err
