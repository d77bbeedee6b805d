"""Synthetic scene generation: determinism, noise bookkeeping, pipeline oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlabel import simulator
from seqlabel.annotate import annotate_sequence
from seqlabel.association import AssociationConfig, run_association
from seqlabel.dataio import write_detections
from seqlabel.errors import InfeasibleScene
from seqlabel.landmark import FusionConfig, WeightPolicy, fuse_tracks
from seqlabel.simulator import (
    GroundTruth,
    SimConfig,
    _pcg64_states,
    _streams,
    generate,
    make_trajectory,
    score_association,
)

NOISELESS = SimConfig(seed=7, n_objects=3, frames=60)


def oracle_rng(seed, frame, obj, kind) -> np.random.Generator:
    """numpy's own generator for one stream key, built on its own: every stream
    that simulator._streams opens must draw as this one does."""
    return np.random.default_rng(np.random.SeedSequence((seed, frame, obj, kind)))


def group_by_frame(detections):
    groups = {}
    for d in detections:
        groups.setdefault(d.frame_id, []).append(d)
    return groups


def run_pipeline(gt: GroundTruth, detections, assoc=None, policy=None, fusion=None):
    tracks = run_association(
        group_by_frame(detections), gt.trajectory, gt.P, assoc or AssociationConfig()
    )
    landmarks, rejected, _ = fuse_tracks(
        tracks, policy or WeightPolicy("score"), fusion or FusionConfig()
    )
    return tracks, landmarks, rejected


class TestTrajectories:
    def test_straight(self):
        traj = make_trajectory(SimConfig(frames=5, speed=2.0))
        assert np.allclose(traj.pose(4).translation, [0, 0, 8])
        assert np.allclose(traj.pose(4).rotation, np.eye(3))

    def test_arc_heading_follows_tangent(self):
        cfg = SimConfig(frames=50, trajectory="arc", arc_radius=40.0, speed=1.0)
        traj = make_trajectory(cfg)
        phi = 20 * 1.0 / 40.0
        pose = traj.pose(20)
        assert pose.rotation[0, 2] == pytest.approx(math.sin(phi))
        assert pose.translation[0] == pytest.approx(40.0 * (1 - math.cos(phi)))

    def test_waypoints_interpolate(self):
        cfg = SimConfig(frames=5, trajectory="waypoints", speed=1.0,
                        waypoints=((0, 0, 0), (0, 0, 2), (2, 0, 2)))
        traj = make_trajectory(cfg)
        assert np.allclose(traj.pose(1).translation, [0, 0, 1])
        assert np.allclose(traj.pose(3).translation, [1, 0, 2])
        # Heading turns with the second segment.
        assert traj.pose(3).rotation[0, 2] == pytest.approx(1.0)

    def test_waypoints_clamp_at_end(self):
        cfg = SimConfig(frames=10, trajectory="waypoints", speed=1.0,
                        waypoints=((0, 0, 0), (0, 0, 3)))
        traj = make_trajectory(cfg)
        assert np.allclose(traj.pose(9).translation, [0, 0, 3])


class TestGenerate:
    def test_deterministic(self):
        _, det_a = generate(NOISELESS)
        _, det_b = generate(NOISELESS)
        assert write_detections(det_a) == write_detections(det_b)

    def test_adding_objects_keeps_existing_streams(self):
        cfg_two = SimConfig(seed=7, n_objects=2, frames=40, sigma_z=0.5)
        cfg_three = SimConfig(seed=7, n_objects=3, frames=40, sigma_z=0.5)
        _, det_a = generate(cfg_two)
        _, det_b = generate(cfg_three)
        # Keyed streams: every record of the 2-object scene reappears
        # verbatim (modulo id renumbering) once a third object is added.
        b_keys = {(d.frame_id, d.depth, d.center2d) for d in det_b}
        assert all((d.frame_id, d.depth, d.center2d) in b_keys for d in det_a)
        assert len(det_b) > len(det_a)

    def test_zero_objects(self):
        gt, detections = generate(SimConfig(seed=1, n_objects=0, frames=10))
        assert gt.landmarks == [] and detections == []

    def test_every_landmark_visible(self):
        gt, _ = generate(NOISELESS)
        assert len(gt.landmarks) == 3
        for lm in gt.landmarks:
            assert lm.support >= 1
            assert lm.observed_frames

    def test_infeasible_scene(self):
        cfg = SimConfig(seed=1, frames=10, objects=((0.0, 1.65, -10.0, 0.0),))
        with pytest.raises(InfeasibleScene):
            generate(cfg)

    def test_score_decays_with_depth(self):
        gt, detections = generate(SimConfig(seed=3, n_objects=1, frames=40))
        by_frame = sorted(detections, key=lambda d: d.frame_id)
        # Camera approaches the object: depth falls, score rises.
        assert by_frame[0].depth > by_frame[-1].depth
        assert by_frame[0].score < by_frame[-1].score

    def test_sigma_model_emits_sigma(self):
        cfg = SimConfig(seed=3, n_objects=1, frames=20, sigma_model=(0.2, 0.01))
        _, detections = generate(cfg)
        for d in detections:
            assert d.sigma == pytest.approx(0.2 + 0.01 * d.depth)

    def test_dropout_thins_stream(self):
        cfg_full = SimConfig(seed=11, n_objects=2, frames=50)
        cfg_drop = SimConfig(seed=11, n_objects=2, frames=50, dropout_prob=0.3)
        _, full = generate(cfg_full)
        _, dropped = generate(cfg_drop)
        assert len(dropped) < len(full)
        # Surviving records are untouched (independent streams).
        full_by_key = {(d.frame_id, d.gt_id): d for d in full}
        for d in dropped:
            assert full_by_key[(d.frame_id, d.gt_id)].depth == d.depth

    def test_outliers_are_gross(self):
        cfg = SimConfig(seed=13, n_objects=1, frames=60, outlier_prob=0.15, sigma_z=0.3)
        gt, detections = generate(cfg)
        lm = gt.landmarks[0]
        errors = []
        for d in detections:
            cam = gt.trajectory.pose(d.frame_id)
            true_depth = float((np.linalg.inv(cam.rotation)
                                @ (lm.global_pose.translation - cam.translation))[2])
            errors.append(abs(d.depth - true_depth))
        errors = np.array(errors)
        n_outliers = int(np.sum(errors > 10.0))
        assert n_outliers > 0
        assert np.all((errors < 5.0) | (errors > 15.0))  # bimodal by construction


def _draws(rng):
    """The first draws of every kind the simulator makes, in one order."""
    return [rng.random(), rng.normal(0.0, 0.3), *rng.normal(0.0, 1.0, size=4),
            rng.choice([-1.0, 1.0]), rng.choice([-1.0, 1.0]), rng.integers(0, 80),
            rng.uniform(-0.1, 0.1)]


# Seeds of one, two, three and four 32-bit entropy words; frames past 2**32 add a word too.
_SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                   st.integers(2**64, 2**100))
_KEYS = st.tuples(_SEEDS, st.one_of(st.integers(0, 500), st.integers(0, 2**40)),
                  st.integers(0, 100), st.integers(0, 5))


class TestStreams:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_KEYS, min_size=1, max_size=12))
    @example([(0, 0, 0, 0), (7919, 79, 19, 5), (2**40 + 3, 1, 2, 3), (2**70 + 5, 2**33, 0, 1),
              (7919, 79, 19, 5)])
    def test_port_seeds_and_draws_as_numpy(self, keys):
        # One batch mixes keys of different word counts, and may repeat a key.
        states = _pcg64_states(keys)
        open_stream = _streams(keys)
        for key in keys:
            want = oracle_rng(*key)
            assert states[key] == want.bit_generator.state
            assert _draws(open_stream(*key)) == _draws(want)

    def test_generate_draws_the_oracle_streams(self, monkeypatch):
        # Placement and every noise kind on, at a seed of two words: the scene is the one
        # that numpy's own generator per key gives, draw for draw.
        cfg = SimConfig(seed=2**40 + 3, n_objects=4, frames=40, sigma_z=0.3, sigma_yaw=0.1,
                        sigma_px=1.0, dropout_prob=0.2, outlier_prob=0.3)
        gt, detections = generate(cfg)
        monkeypatch.setattr(simulator, "_streams", lambda keys: oracle_rng)
        want_gt, want = generate(cfg)
        assert write_detections(detections) == write_detections(want)
        assert [lm.global_pose.translation.tolist() for lm in gt.landmarks] == [
            lm.global_pose.translation.tolist() for lm in want_gt.landmarks]


class TestNoiselessFixedPoint:
    def test_pipeline_recovers_ground_truth(self):
        gt, detections = generate(NOISELESS)
        _, landmarks, rejected = run_pipeline(gt, detections)
        assert not rejected
        assert len(landmarks) == len(gt.landmarks)
        for got, want in zip(landmarks, gt.landmarks):
            assert np.allclose(got.global_pose.translation,
                               want.global_pose.translation, atol=1e-6)
            assert np.abs(got.global_pose.rotation - want.global_pose.rotation).max() < 1e-6
            assert got.observed_frames == want.observed_frames
            assert got.category == want.category

    def test_annotations_match_ground_truth(self):
        gt, detections = generate(NOISELESS)
        _, landmarks, _ = run_pipeline(gt, detections)
        pred = annotate_sequence(landmarks, gt.trajectory, gt.P, gt.visibility)
        want = annotate_sequence(gt.landmarks, gt.trajectory, gt.P, gt.visibility)
        for pa, wa in zip(pred, want):
            assert len(pa.entries) == len(wa.entries)
            for pe, we in zip(pa.entries, wa.entries):
                assert np.allclose(pe.local_pose.translation,
                                   we.local_pose.translation, atol=1e-6)
                assert abs(pe.yaw_local - we.yaw_local) < 1e-6


class TestScoreAssociation:
    def test_perfect_association(self):
        gt, detections = generate(NOISELESS)
        tracks, _, _ = run_pipeline(gt, detections)
        result = score_association(tracks, n_objects=len(gt.landmarks))
        assert result == {"purity": 1.0, "coverage": 1.0}

    def test_merged_track_purity(self):
        gt, detections = generate(SimConfig(seed=5, n_objects=2, frames=30))
        tracks, _, _ = run_pipeline(gt, detections)
        # Force a 50/50 merged track by relabeling half of one track.
        track = max(tracks, key=lambda t: len(t.observations))
        half = len(track.observations) // 2
        for obs in track.observations[:half]:
            obs.detection.gt_id = 99
        result = score_association([track], n_objects=1)
        assert result["purity"] == pytest.approx(
            max(half, len(track.observations) - half) / len(track.observations)
        )

    def test_missed_object_lowers_coverage(self):
        gt, detections = generate(NOISELESS)
        kept = [d for d in detections if d.gt_id != 0]
        tracks, _, _ = run_pipeline(gt, kept)
        result = score_association(tracks, n_objects=len(gt.landmarks))
        assert result["coverage"] < 1.0
