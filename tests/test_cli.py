"""End-to-end CLI behavior: subcommand composition, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

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
        ("association", 5),
        ("paths", 5),
        ("metrics", 0.5),
        ("sequence", 5),
    ])
    def test_value_of_wrong_kind_exit_3_naming_it(self, tmp_path, capsys, key, value):
        # A section must be a mapping, each value must have the kind of its
        # field's default, and a frame range must be a pair of integers.
        section, _, name = key.partition(".")
        config = write_config(tmp_path, **{section: {name: value} if name else value})
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "sim")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err
        assert not (tmp_path / "sim").exists()


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
    # evaluate parses labels, matches and averages in pure Python.
    config = write_config(tmp_path)
    simulate(tmp_path, config)
    assert main(["build-map", "--config", str(config)]) == 0
    assert main(["annotate", "--config", str(config)]) == 0
    script = ("import sys\n"
              "from seqlabel.cli import main\n"
              "rc = main(['evaluate', '--config', sys.argv[1], '--gt', sys.argv[2]])\n"
              "print(rc, 'numpy' in sys.modules)\n")
    out = _python(script, str(config), str(tmp_path / "sim" / "gt_labels"))
    assert out.splitlines()[-1] == "0 False"
    assert json.loads((tmp_path / "out" / "report.json").read_text())["matching"]["n_matched"] > 0
