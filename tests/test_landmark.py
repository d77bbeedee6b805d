"""Fusion math: weights, weighted means, rotation averaging, outlier gates.

Rotation-averaging results are checked against the weighted circular mean
atan2(sum w sin, sum w cos), which never touches an SVD.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_observation, make_track, oracle_fuse, oracle_fusion_row
from seqlabel.association import Observation
from seqlabel.config import load_config
from seqlabel.errors import (ConfigError, DegenerateMean, EmptyInput, MissingSigma,
                             OrthonormalityError, ParseError, ZeroWeightSum)
from seqlabel.geometry import (Pose, nearest_rotation, yaw_from_rotation, yaw_only,
                               yaw_to_rotation, yaw_to_rotations)
from seqlabel.labels import wrap_angle
from seqlabel.landmark import (
    FusionConfig,
    Landmark,
    Rejected,
    WeightPolicy,
    fuse_pose,
    fuse_rows,
    fuse_track,
    fuse_tracks,
    fusion_rows,
    observation_weight,
    parse_landmarks,
    reject_outliers,
    rotation_average,
    serialize_landmarks,
    weighted_circular_median,
    weighted_median,
)


def circular_mean(angles, weights):
    s = sum(w * math.sin(a) for w, a in zip(weights, angles))
    c = sum(w * math.cos(a) for w, a in zip(weights, angles))
    return math.atan2(s, c)


def oracle_circular_median(angles, weights, order_keys):
    """weighted_circular_median as a plain double loop over candidates and angles."""
    best = None
    for j, theta in enumerate(angles):
        cost = sum(
            w * abs(wrap_angle(theta - a)) for w, a in zip(weights, angles)
        )
        key = (cost, order_keys[j])
        if best is None or key < best[0]:
            best = (key, theta)
    return float(best[1])


class TestObservationWeight:
    def test_score_mode(self):
        obs = make_observation(score=0.8)
        assert observation_weight(obs, WeightPolicy("score")) == 0.8

    def test_inverse_variance(self):
        obs = make_observation(sigma=0.5)
        assert observation_weight(obs, WeightPolicy("inverse_variance")) == pytest.approx(4.0)

    def test_sigma_floor(self):
        obs = make_observation(sigma=1e-9)
        w = observation_weight(obs, WeightPolicy("inverse_variance", sigma_floor=1e-3))
        assert w == pytest.approx(1e6)

    def test_missing_sigma(self):
        obs = make_observation()
        with pytest.raises(MissingSigma):
            observation_weight(obs, WeightPolicy("inverse_variance"))

    def test_unknown_mode_rejected(self, tmp_path):
        config = tmp_path / "pipeline.yaml"
        config.write_text("weighting: {mode: magic}\n")
        with pytest.raises(ConfigError, match=r"weighting\.mode must be one of .*, got 'magic'"):
            load_config(config)


class TestRotationAverage:
    def test_idempotent(self):
        r = yaw_to_rotation(0.7)
        assert np.allclose(rotation_average([r, r], [1, 1]), r, atol=1e-12)

    def test_symmetric_pair_gives_identity(self):
        plus = yaw_to_rotation(math.radians(20))
        minus = yaw_to_rotation(math.radians(-20))
        assert np.allclose(rotation_average([plus, minus], [1, 1]), np.eye(3), atol=1e-12)

    def test_zero_and_ninety_average_to_45(self):
        # Mean matrix [[.5,0,.5],[0,1,0],[-.5,0,.5]] projects onto the 45 deg yaw.
        avg = rotation_average([yaw_to_rotation(0.0), yaw_to_rotation(math.pi / 2)], [1, 1])
        assert np.allclose(avg, yaw_to_rotation(math.pi / 4), atol=1e-12)

    def test_matches_circular_mean_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = rng.integers(2, 8)
            center = rng.uniform(-math.pi, math.pi)
            angles = [math.remainder(center + rng.uniform(-0.7, 0.7), math.tau) for _ in range(n)]
            weights = rng.uniform(0.1, 2.0, size=n).tolist()
            avg = rotation_average([yaw_to_rotation(a) for a in angles], weights)
            got = yaw_from_rotation(avg)
            want = circular_mean(angles, weights)
            assert abs(math.remainder(got - want, math.tau)) < 1e-6

    def test_output_always_proper_rotation(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = rng.integers(1, 6)
            angles = rng.uniform(-math.pi, math.pi, size=n)
            weights = rng.uniform(0.01, 5.0, size=n).tolist()
            avg = rotation_average([yaw_to_rotation(a) for a in angles], weights)
            assert np.abs(avg.T @ avg - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(avg) - 1.0) < 1e-9

    def test_empty(self):
        with pytest.raises(EmptyInput):
            rotation_average([], [])

    def test_single_input_unchanged(self):
        r = yaw_to_rotation(2.1)
        assert np.array_equal(rotation_average([r], [0.3]), r)


class TestMedians:
    def test_weighted_median_simple(self):
        assert weighted_median([3.0, 1.0, 2.0], [1, 1, 1], [0, 1, 2]) == 2.0

    def test_weighted_median_heavy_tail(self):
        # Weight 3 on value 10 pulls the median to 10.
        assert weighted_median([10.0, 20.0], [3, 1], [0, 1]) == 10.0

    def test_circular_median_wraps(self):
        angles = [math.pi - 0.1, -math.pi + 0.1, math.pi - 0.05]
        med = weighted_circular_median(angles, [1, 1, 1], [0, 1, 2])
        assert med in angles  # candidate set
        # All inputs sit within 0.2 rad of the wrap point; the median must too.
        assert abs(math.remainder(med - math.pi, math.tau)) < 0.2


# Angles as yaw_from_rotation returns them, in (-pi, pi], with the wrap
# point, exact duplicates and sums that tie all likely.
_angles = st.one_of(
    st.floats(-math.pi, math.pi, allow_nan=False, exclude_min=True),
    st.sampled_from([math.pi, -math.pi + 1e-15, 0.0, 0.5, -0.5, math.pi / 2, -math.pi / 2]),
)
_weights = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 5.0, allow_nan=False))


class TestCircularMedianOracle:
    @given(st.lists(st.tuples(_angles, _weights), min_size=1, max_size=12), st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_same_pick_as_double_loop(self, pairs, rnd):
        angles = [a for a, _ in pairs]
        weights = [w for _, w in pairs]
        keys = list(range(len(pairs)))
        rnd.shuffle(keys)
        assert (weighted_circular_median(angles, weights, keys)
                == oracle_circular_median(angles, weights, keys))

    def test_tie_goes_to_lowest_order_key(self):
        # Both candidates cost 1.0; order key 0 belongs to the second.
        assert weighted_circular_median([0.0, 1.0], [1, 1], [1, 0]) == 1.0


def _scores(observations):
    return [o.detection.score for o in observations]


class TestRejectOutliers:
    CFG = FusionConfig(depth_tol=2.0, yaw_tol=math.radians(30), min_support=2)

    def test_identical_all_inliers(self):
        obs = [make_observation(frame_id=i, depth=20.0) for i in range(5)]
        inliers, outliers = reject_outliers(obs, self.CFG, _scores(obs))
        assert len(inliers) == 5 and not outliers

    def test_depth_outlier_removed(self):
        obs = [make_observation(frame_id=i, depth=10.0) for i in range(9)]
        obs.append(make_observation(frame_id=9, depth=50.0))
        inliers, outliers = reject_outliers(obs, self.CFG, _scores(obs))
        assert len(outliers) == 1
        assert outliers[0].detection.depth == 50.0

    def test_yaw_outlier_removed(self):
        obs = [make_observation(frame_id=i, yaw=0.1) for i in range(6)]
        obs.append(make_observation(frame_id=6, yaw=0.1 + math.radians(90)))
        inliers, outliers = reject_outliers(obs, self.CFG, _scores(obs))
        assert len(outliers) == 1

    def test_two_way_disagreement(self):
        obs = [make_observation(frame_id=0, depth=10.0, yaw=0.0),
               make_observation(frame_id=1, depth=50.0, yaw=2.0)]
        inliers, _ = reject_outliers(obs, self.CFG, _scores(obs))
        assert len(inliers) < 2

    def test_weight_scale_invariance(self):
        obs = [make_observation(frame_id=i, depth=d)
               for i, d in enumerate([10.0, 10.5, 9.8, 50.0, 10.2])]
        weights = [0.9, 0.7, 0.8, 0.95, 0.6]
        base_in, base_out = reject_outliers(obs, self.CFG, weights=weights)
        for c in (1e-3, 137.5, 1e6):
            inl, outl = reject_outliers(obs, self.CFG, weights=[c * w for w in weights])
            assert [o.frame_id for o in inl] == [o.frame_id for o in base_in]
            assert [o.frame_id for o in outl] == [o.frame_id for o in base_out]


class TestFuseTrack:
    POLICY = WeightPolicy("score")
    CFG = FusionConfig()

    def test_identical_observations_fixed_point(self):
        track = make_track([make_observation(frame_id=i, depth=25.0, yaw=0.3, u=630.0)
                            for i in range(5)])
        lm = fuse_track(track, self.POLICY, self.CFG)
        assert isinstance(lm, Landmark)
        want = track.observations[0].global_pose
        assert np.allclose(lm.global_pose.translation, want.translation, atol=1e-12)
        assert np.allclose(lm.global_pose.rotation, want.rotation, atol=1e-12)
        assert lm.support == 5
        assert lm.observed_frames == (0, 1, 2, 3, 4)

    def test_single_observation_low_support(self):
        track = make_track([make_observation(frame_id=0)])
        result = fuse_track(track, self.POLICY, self.CFG)
        assert isinstance(result, Rejected) and result.reason == "low_support"

    def test_degenerate_window_identity(self):
        # One observation, min_support 1: fusion adds nothing and changes nothing.
        obs = make_observation(frame_id=3, depth=31.7, yaw=1.9, u=650.0, score=0.73)
        track = make_track([obs])
        lm = fuse_track(track, self.POLICY, FusionConfig(min_support=1))
        assert isinstance(lm, Landmark)
        assert np.array_equal(lm.global_pose.translation, obs.global_pose.translation)
        assert np.allclose(lm.global_pose.rotation, obs.global_pose.rotation, atol=1e-15)
        assert lm.dims == obs.detection.dims
        assert lm.mean_score == obs.detection.score
        assert lm.support == 1

    def test_noisy_depth_averages_down(self):
        rng = np.random.default_rng(42)
        n = 20
        zs = 30.0 + rng.normal(0, 0.5, size=n)
        track = make_track([make_observation(frame_id=i, depth=float(z)) for i, z in enumerate(zs)])
        lm = fuse_track(track, self.POLICY, self.CFG)
        assert isinstance(lm, Landmark)
        assert abs(lm.global_pose.translation[2] - 30.0) < 3 * 0.5 / math.sqrt(n)

    def test_dynamic_track_rejected(self):
        # Slow consistent drift: inliers spread wider than the variance gate.
        track = make_track([make_observation(frame_id=i, depth=20.0 + 0.8 * i)
                            for i in range(6)])
        result = fuse_track(track, self.POLICY, self.CFG)
        assert isinstance(result, Rejected) and result.reason == "dynamic"

    def test_fast_mover_rejected(self):
        track = make_track([make_observation(frame_id=i, depth=10.0 + 5.0 * i)
                            for i in range(6)])
        result = fuse_track(track, self.POLICY, self.CFG)
        assert isinstance(result, Rejected)

    def test_outlier_does_not_poison_fusion(self):
        obs = [make_observation(frame_id=i, depth=30.0) for i in range(10)]
        obs.append(make_observation(frame_id=10, depth=50.0))
        lm = fuse_track(make_track(obs), self.POLICY, self.CFG)
        assert isinstance(lm, Landmark)
        assert lm.support == 10
        assert lm.global_pose.translation[2] == pytest.approx(30.0, abs=1e-9)

    def test_weight_scale_invariance_via_sigma(self):
        # Same relative weights expressed through sigma at two scales.
        obs_a = [make_observation(frame_id=i, depth=d, sigma=s)
                 for i, (d, s) in enumerate([(29.6, 0.4), (30.0, 0.8), (30.5, 0.2)])]
        obs_b = [make_observation(frame_id=i, depth=d, sigma=s * 10)
                 for i, (d, s) in enumerate([(29.6, 0.4), (30.0, 0.8), (30.5, 0.2)])]
        policy = WeightPolicy("inverse_variance")
        cfg = FusionConfig(depth_tol=10.0)
        lm_a = fuse_track(make_track(obs_a), policy, cfg)
        lm_b = fuse_track(make_track(obs_b), policy, cfg)
        assert np.allclose(lm_a.global_pose.translation, lm_b.global_pose.translation, atol=1e-12)

    def test_yaw_matches_circular_mean(self):
        rng = np.random.default_rng(9)
        yaws = (0.5 + rng.uniform(-0.3, 0.3, size=12)).tolist()
        scores = rng.uniform(0.7, 1.0, size=12).tolist()
        track = make_track([make_observation(frame_id=i, yaw=y, score=s)
                            for i, (y, s) in enumerate(zip(yaws, scores))])
        lm = fuse_track(track, self.POLICY, self.CFG)
        want = circular_mean(yaws, scores)
        got = yaw_from_rotation(lm.global_pose.rotation)
        assert abs(got - want) < 1e-6


def _global_observation(frame_id, yaw, translation, dims, score, sigma):
    """An observation placed directly at a global pose."""
    obs = make_observation(frame_id=frame_id, score=score, sigma=sigma, dims=dims)
    return Observation(obs.detection, Pose(yaw_to_rotation(yaw), np.array(translation)))


_unit = st.floats(-1.0, 1.0, allow_nan=False)


class TestFusePoseOracle:
    @given(
        st.sampled_from(["score", "inverse_variance"]),
        st.floats(-math.pi, math.pi, allow_nan=False),
        st.lists(st.tuples(_unit, _unit, _unit, _unit,
                           st.tuples(st.floats(0.5, 3), st.floats(0.5, 3), st.floats(0.5, 6)),
                           st.floats(0.05, 1.0), st.floats(0.05, 2.0)),
                 min_size=2, max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_refit(self, mode, heading, steps):
        # Yaws stay within 1 rad of a common heading, so the rotation mean is
        # well conditioned and the two summation orders agree to rounding.
        observations = [
            _global_observation(k, heading + dyaw, [20.0 * dx, 1.65 + dy, 30.0 + 20.0 * dz],
                                dims, score, sigma)
            for k, (dyaw, dx, dy, dz, dims, score, sigma) in enumerate(steps)
        ]
        policy = WeightPolicy(mode)
        weights = [observation_weight(o, policy) for o in observations]
        pose, dims = fuse_pose(observations, weights)
        want_pose, want_dims = oracle_fuse(observations, weights)
        np.testing.assert_allclose(pose.rotation, want_pose.rotation, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pose.translation, want_pose.translation, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            [dims.height, dims.width, dims.length],
            [want_dims.height, want_dims.width, want_dims.length], rtol=0, atol=1e-12)

    def test_fusion_rows_match_the_per_observation_oracle(self):
        observations = [_global_observation(k, 0.4 * k - 1.0, [3.0 * k, 1.65, 20.0 - k],
                                            (1.5, 1.7 + 0.1 * k, 4.2), 0.9, 0.5)
                        for k in range(4)]
        got = fusion_rows(np.array([o.global_pose.translation for o in observations]),
                          np.array([o.global_pose.rotation for o in observations]),
                          np.array([(o.detection.dims.height, o.detection.dims.width,
                                     o.detection.dims.length) for o in observations]))
        assert got.tobytes() == np.array([oracle_fusion_row(o) for o in observations]).tobytes()

    def test_non_finite_sum_is_a_degenerate_mean(self):
        # An infinite weight (inverse variance, sigma near 1e-154 and a lower floor)
        # makes the sums inf and NaN; they never reach the SVD, which raises or hangs on them.
        observations = [_global_observation(k, 0.3, [1.0, 1.65, 20.0], (1.5, 1.7, 4.2), 0.9, 0.5)
                        for k in range(2)]
        with pytest.raises(DegenerateMean, match="not finite"):
            fuse_pose(observations, [math.inf, 1.0])


def oracle_fuse_rows(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """fuse_rows as three arrays: fused rotations (n, 3, 3), translations (n, 3) and dims
    (n, 3), and each row's error, None where the row has a mean.  fuse_rows' rows must
    hold these bits wherever a mean exists."""
    total = sums[:, :1]
    mean = sums / np.where(total > 0.0, total, 1.0)
    usable = np.isfinite(mean).all(axis=1) & (mean[:, 13:] > 0.0).all(axis=1)
    if not usable.all():
        mean[~usable, 4:13] = 0.0
    rotations, collapsed = nearest_rotation(mean[:, 4:13].reshape(-1, 3, 3))
    errors = [ZeroWeightSum("weights sum to zero") if w <= 0.0
              else DegenerateMean(f"fused mean not finite or dims <= 0 "
                                  f"(dims {mean[i, 13:].tolist()})") if not ok else c
              for i, (w, ok, c) in enumerate(zip(total[:, 0].tolist(), usable.tolist(), collapsed))]
    return yaw_only(rotations), mean[:, 1:4], mean[:, 13:], errors


@st.composite
def fusion_sums(draw):
    """A stack of sums of w * fusion_rows over 1 to 4 observations each: rows with a mean,
    rows of zero weight and rows scaled past the float range."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        steps = draw(st.lists(st.tuples(
            st.floats(-math.pi, math.pi), _unit, _unit, _unit,
            st.tuples(st.floats(0.5, 3), st.floats(0.5, 3), st.floats(0.5, 6)),
            st.one_of(st.just(0.0), st.floats(0.05, 1.0))), min_size=1, max_size=4))
        yaws, dx, dy, dz, dims, w = zip(*steps)
        t = np.array([20.0 * np.array(dx), 1.65 + np.array(dy), 30.0 + 20.0 * np.array(dz)]).T
        row = np.array(w) @ fusion_rows(t, yaw_to_rotations(yaws), np.array(dims))
        with np.errstate(over="ignore"):
            rows.append(row * draw(st.sampled_from([1.0, 1.0, 1.0, 1e308])))
    return np.array(rows)


class TestFuseRowsOracle:
    @given(fusion_sums())
    @settings(max_examples=100, deadline=None)
    def test_rows_hold_the_three_arrays(self, sums):
        with np.errstate(invalid="ignore"):  # an inf sum over an inf weight is nan
            rows, errors = fuse_rows(sums)
            rotation, translation, dims, want = oracle_fuse_rows(sums)
        assert rows.shape == sums.shape
        assert [(type(e), str(e)) for e in errors] == [(type(e), str(e)) for e in want]
        for i in (i for i, e in enumerate(errors) if e is None):
            assert rows[i, 4:13].tobytes() == rotation[i].tobytes()
            assert rows[i, 1:4].tobytes() == translation[i].tobytes()
            assert rows[i, 13:].tobytes() == dims[i].tobytes()


class TestErrorReduction:
    def test_monotonic_in_observation_count(self):
        # Mean |z error| over 100 seeds must not grow with more observations
        # (5% slack absorbs sampling noise).
        sizes = (1, 5, 20)
        means = {}
        for n in sizes:
            errs = []
            for seed in range(100):
                rng = np.random.default_rng(1000 + seed)
                zs = 30.0 + rng.normal(0, 0.5, size=n)
                track = make_track(
                    [make_observation(frame_id=i, depth=float(z)) for i, z in enumerate(zs)]
                )
                lm = fuse_track(track, WeightPolicy("score"), FusionConfig(min_support=1))
                errs.append(abs(lm.global_pose.translation[2] - 30.0))
            means[n] = np.mean(errs)
        assert means[5] <= means[1] * 1.05
        assert means[20] <= means[5] * 1.05


class TestFuseTracks:
    def test_id_assignment_by_first_frame(self):
        late = make_track([make_observation(frame_id=i, depth=20.0) for i in range(10, 14)],
                          track_id=0)
        early = make_track([make_observation(frame_id=i, depth=40.0) for i in range(4)],
                           track_id=1)
        landmarks, rejected, track_of = fuse_tracks([late, early], WeightPolicy("score"), FusionConfig())
        assert not rejected
        assert [lm.landmark_id for lm in landmarks] == [0, 1]
        assert landmarks[0].first_frame == 0  # the early track got id 0
        assert landmarks[0].global_pose.translation[2] == pytest.approx(40.0)
        assert track_of == {0: 1, 1: 0}  # landmark 0 came from track 1

    def test_rejections_reported(self):
        single = make_track([make_observation(frame_id=0)], track_id=7)
        landmarks, rejected, _ = fuse_tracks([single], WeightPolicy("score"), FusionConfig())
        assert not landmarks
        assert rejected[7].reason == "low_support"

    def test_serialization_round_trip(self):
        track = make_track([make_observation(frame_id=i, depth=25.0, yaw=0.4) for i in range(5)])
        landmarks, _, _ = fuse_tracks([track], WeightPolicy("score"), FusionConfig())
        again = parse_landmarks(serialize_landmarks(landmarks))
        assert len(again) == 1
        assert np.array_equal(again[0].global_pose.translation,
                              landmarks[0].global_pose.translation)
        assert np.array_equal(again[0].global_pose.rotation, landmarks[0].global_pose.rotation)
        assert again[0].observed_frames == landmarks[0].observed_frames
        assert again[0].mean_score == landmarks[0].mean_score


class TestParseLandmarks:
    """The map reader checks each rotation once, as it reads it."""

    def _line(self, rotation=None, **overrides):
        r = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
        obj = {
            "id": 0, "category": "Car",
            "pose": [float(v) for v in np.hstack([r, [[1.0], [1.65], [20.0]]]).ravel()],
            "dims": {"h": 1.5, "w": 1.7, "l": 4.2}, "support": 3,
            "first_frame": 0, "last_frame": 2, "mean_score": 0.9, "observed_frames": [0, 1, 2],
        }
        obj.update(overrides)
        return json.dumps(obj) + "\n"

    def test_rotation_used_exactly_as_read(self):
        r = yaw_to_rotation(0.7)
        (lm,) = parse_landmarks(self._line(r))
        assert np.array_equal(lm.global_pose.rotation, r)

    def test_scaled_rotation(self):
        with pytest.raises(OrthonormalityError) as exc:
            parse_landmarks(self._line() + self._line(1.1 * np.eye(3)))
        assert exc.value.line == 2

    def test_reflection(self):
        with pytest.raises(OrthonormalityError) as exc:
            parse_landmarks("# header\n" + self._line(np.diag([1.0, 1.0, -1.0])))
        assert exc.value.line == 2

    def test_off_by_more_than_tolerance(self):
        r = yaw_to_rotation(0.3) + 1e-6 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(OrthonormalityError):
            parse_landmarks(self._line(r))

    @pytest.mark.parametrize("text", [
        '{"id": 0, "category": "Car", "pose": [1, 0, 0',                # truncated JSON
        json.dumps({"id": 0, "category": "Car", "pose": [1.0] * 12}),  # missing fields
        '{"id": 0, "pose": [NaN, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]}',    # NaN
    ], ids=["truncated", "missing_fields", "nan"])
    def test_malformed_json(self, text):
        with pytest.raises(ParseError) as exc:
            parse_landmarks(self._line() + text + "\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("field, value", [
        ("dims", {"h": -1.5, "w": 1.7, "l": 4.2}),
        ("dims", [1.5, 1.7, 4.2]),
        ("pose", [1.0, 0.0, 0.0]),
        ("pose", ["a"] * 12),
        ("id", "seven"),
        ("category", 3),
        ("dims", 5),
        ("dims", {"h": 1.5, "w": 1.7, "l": 4.2, "x": 2}),
    ])
    def test_bad_field(self, field, value):
        with pytest.raises(ParseError) as exc:
            parse_landmarks(self._line(**{field: value}))
        assert exc.value.line == 1
        if field == "dims" and (not isinstance(value, dict) or set(value) != set("hwl")):
            # The detections' object rule, message included.
            assert "field 'dims' must be an object with keys ['h', 'w', 'l']" in str(exc.value)

    def test_missing_field_is_named(self):
        line = json.loads(self._line())
        del line["dims"]
        with pytest.raises(ParseError, match="'dims'"):
            parse_landmarks(json.dumps(line))
