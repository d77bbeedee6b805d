"""Geometry unit tests.

Expected values are hand-computed (matrix multiplication by hand, angle
addition, corner enumeration) and frozen here, independent of the code
under test.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    P_OFFSET,
    dump_text,
    make_observation,
    oracle_back_project,
    oracle_box3d_corners,
    oracle_nearest_rotation,
    oracle_project_box,
)
from seqlabel.annotate import annotate_frame, annotate_sequence, read_annotation_dump
from seqlabel.association import run_association
from seqlabel.config import AssociationConfig, FusionConfig, VisibilityConfig
from seqlabel.dataio import (CalibFile, parse_calib, parse_trajectory, read_detections,
                             serialize_calib, serialize_trajectory, write_detections)
from seqlabel.errors import DegenerateMean, DegenerateProjection
from seqlabel.geometry import (
    Pose,
    ProjectionMatrix,
    back_project,
    compose,
    half_extents,
    inverse,
    nearest_rotation,
    project_box,
    project_point,
    yaw_from_rotation,
    yaw_from_rotations,
    yaw_only,
    yaw_to_rotation,
    yaw_to_rotations,
)
from seqlabel.labels import Box2D, Dimensions3D, iou_2d, wrap_angle
from seqlabel.landmark import (Landmark, WeightPolicy, fuse_pose, fuse_tracks,
                               observation_weight, parse_landmarks, rotation_average,
                               serialize_landmarks)
from seqlabel.simulator import SimConfig, generate, make_trajectory

P_SIMPLE = ProjectionMatrix(np.array([[700.0, 0, 600, 0], [0, 700, 180, 0], [0, 0, 1, 0]]))


def oracle_yaw_from_rotation(r: np.ndarray) -> float:
    """Yaw of one matrix with scalar tests: from the (sin, cos) pattern of a verified
    pure y rotation, else the folded base formula.  geometry.yaw_from_rotations
    must reproduce it bit for bit."""
    tol = 1e-9
    if (abs(r[0, 1]) < tol and abs(r[1, 0]) < tol and abs(r[1, 2]) < tol and abs(r[2, 1]) < tol
            and abs(r[1, 1] - 1.0) < tol):
        return math.atan2(r[0, 2], r[0, 0])
    return math.atan2(-r[2, 0], math.hypot(r[0, 0], r[1, 0]))


def oracle_yaw_to_rotation(yaw: float) -> np.ndarray:
    """One rotation about y: geometry.yaw_to_rotations must reproduce it bit for bit."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def yaw_pose(yaw, t=(0.0, 0.0, 0.0)):
    return Pose(yaw_to_rotation(yaw), np.array(t, dtype=float))


def random_pose(rng):
    # Random rotation via QR of a Gaussian matrix, sign-fixed to det +1.
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Pose(nearest_rotation(q)[0], rng.uniform(-20, 20, size=3))


class TestProjectPoint:
    def test_optical_axis_hits_principal_point(self):
        assert project_point((0, 0, 10), P_SIMPLE) == (600.0, 180.0, 10.0)

    def test_off_axis_point(self):
        # Hand multiplication: u = (700*1 + 600*10)/10 = 670.
        u, v, z = project_point((1, 0, 10), P_SIMPLE)
        assert (u, v, z) == (670.0, 180.0, 10.0)

    def test_negative_depth_preserved(self):
        u, v, z = project_point((0, 0, -5), P_SIMPLE)
        assert (u, v, z) == (600.0, 180.0, -5.0)

    def test_degenerate_projection(self):
        with pytest.raises(DegenerateProjection):
            project_point((1, 1, 0), P_SIMPLE)

    def test_back_project_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.uniform([-30, -10, 1], [30, 10, 80])
            u, v, z = project_point(p, P_SIMPLE)
            assert np.allclose(back_project(u, v, z, P_SIMPLE), p, atol=1e-9)

    def test_back_project_nonzero_last_column(self):
        # KITTI-style P with a translation column still round-trips.
        P = ProjectionMatrix(
            np.array([[700.0, 0, 600, 44.8], [0, 700, 180, 0.2], [0, 0, 1, 0.0027]])
        )
        p = np.array([3.0, 1.5, 25.0])
        u, v, z = project_point(p, P)
        assert np.allclose(back_project(u, v, z, P), p, atol=1e-9)


pixels = st.floats(-5000, 5000, allow_nan=False)
depths = st.floats(0.01, 500)
# Two rows alike: the intrinsics block is singular, though P[2][2] is not zero.
P_SINGULAR = ProjectionMatrix(np.array([[700.0, 0, 600, 0], [700, 0, 600, 0], [0, 0, 1, 0]]))


class TestBackProjectOracle:
    """back_project, on scalars or arrays, gives oracle_back_project's bits point by point."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(pixels, pixels, depths), max_size=12),
           st.sampled_from([P_SIMPLE, P_OFFSET]))
    def test_scalar_and_array_forms_match_oracle(self, points, P):
        u, v, z = np.array(points, dtype=float).reshape(-1, 3).T
        stacked = back_project(u, v, z, P)
        assert stacked.shape == (len(points), 3)
        for (pu, pv, pz), row in zip(points, stacked):
            expected = oracle_back_project(pu, pv, pz, P).tobytes()
            assert row.tobytes() == expected
            assert back_project(pu, pv, pz, P).tobytes() == expected

    def test_singular_intrinsics_raise_in_both_forms(self):
        with pytest.raises(DegenerateProjection, match="singular"):
            oracle_back_project(600.0, 180.0, 10.0, P_SINGULAR)
        with pytest.raises(DegenerateProjection, match="singular"):
            back_project(600.0, 180.0, 10.0, P_SINGULAR)
        with pytest.raises(DegenerateProjection, match="singular"):
            back_project(np.array([600.0, 610.0]), np.array([180.0, 190.0]),
                         np.array([10.0, 20.0]), P_SINGULAR)

    @pytest.mark.parametrize("u, P", [
        (1e308, P_SIMPLE),
        (600.0, ProjectionMatrix(np.array([[1e-320, 0, 0, 0], [0, 1e-320, 0, 0], [0, 0, 1, 0]]))),
    ], ids=["overflowing-center", "denormal-intrinsics"])
    def test_non_finite_point_raises_in_both_forms(self, u, P):
        # Under error::RuntimeWarning, an overflow warning would fail this too.
        with pytest.raises(DegenerateProjection, match="not finite"):
            back_project(u, 180.0, 10.0, P)
        with pytest.raises(DegenerateProjection, match="not finite"):
            back_project(np.array([600.0, u]), np.array([180.0, 180.0]),
                         np.array([10.0, 10.0]), P)


class TestPoseAlgebra:
    def test_identity_compose(self):
        x = yaw_pose(0.4, (1, 2, 3))
        out = compose(Pose.identity(), x)
        assert np.allclose(out.rotation, x.rotation)
        assert np.allclose(out.translation, x.translation)

    def test_translation_composition(self):
        a = Pose(np.eye(3), np.array([0, 0, 5]))
        b = Pose(np.eye(3), np.array([0, 0, 10]))
        assert np.allclose(compose(a, b).translation, [0, 0, 15])

    def test_yaw_angle_addition(self):
        a = yaw_pose(math.radians(30))
        b = yaw_pose(math.radians(60))
        assert np.allclose(compose(a, b).rotation, yaw_to_rotation(math.radians(90)), atol=1e-12)

    def test_inverse_identity(self):
        inv = inverse(Pose.identity())
        assert np.allclose(inv.rotation, np.eye(3))
        assert np.allclose(inv.translation, 0.0)

    def test_inverse_pure_translation(self):
        inv = inverse(Pose(np.eye(3), np.array([1, 2, 3])))
        assert np.allclose(inv.translation, [-1, -2, -3])

    def test_compose_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = random_pose(rng)
            ident = compose(p, inverse(p))
            assert np.abs(ident.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(ident.translation).max() < 1e-9


def assert_proper_rotation(pose):
    r = pose.rotation
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(r) - 1.0) < 1e-9


angles = st.floats(-math.pi, math.pi, allow_nan=False)
coords = st.floats(-50, 50, allow_nan=False)


@st.composite
def rotations(draw):
    """A rotation with yaw, pitch and roll anywhere."""
    yaw, pitch, roll = draw(angles), draw(angles), draw(angles)
    cp, sp, cr, sr = math.cos(pitch), math.sin(pitch), math.cos(roll), math.sin(roll)
    pitch_m = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    roll_m = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    return yaw_to_rotation(yaw) @ pitch_m @ roll_m


@st.composite
def cameras(draw):
    """A camera pose with yaw, pitch and roll anywhere."""
    return Pose(draw(rotations()), np.array([draw(coords) for _ in range(3)]))


class TestInternalPosesStayProper:
    """Pose does not check its rotation, so every pose the pipeline builds
    itself must stay within 1e-9 of orthonormal with determinant +1."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(cameras(), min_size=1, max_size=30))
    def test_compose_and_inverse_chains(self, poses):
        acc = Pose.identity()
        for p in poses:
            acc = compose(acc, p)
            assert_proper_rotation(acc)
            assert_proper_rotation(inverse(acc))
            assert_proper_rotation(compose(acc, inverse(p)))

    @settings(max_examples=60, deadline=None)
    @given(cameras(), st.lists(st.tuples(angles, st.floats(1, 80)), min_size=1, max_size=8),
           st.sampled_from(["score", "inverse_variance"]))
    # Seen from cam itself, this map box (1 m ahead, tilted by the camera's
    # pitch) misses the image, so only the view camera below annotates it.
    @example(Pose(np.array([[1.0, 0.0, 0.0],
                            [0.0, math.cos(0.5), math.sin(0.5)],
                            [0.0, -math.sin(0.5), math.cos(0.5)]]), np.array([0.0, 0.0, 0.0])),
             [(0.0, 1.0), (3.0, 1.0)], "score")
    def test_lift_fuse_and_reproject(self, cam, dets, mode):
        observations = [make_observation(cam=cam, frame_id=k, yaw=yaw, depth=depth, sigma=0.5)
                        for k, (yaw, depth) in enumerate(dets)]
        for obs in observations:
            d = obs.detection
            # The camera-local pose of the lift, by its definition.
            assert_proper_rotation(Pose(yaw_to_rotation(d.yaw),
                                        back_project(*d.center2d, d.depth, P_SIMPLE)))
            assert_proper_rotation(obs.global_pose)
        policy = WeightPolicy(mode)
        pose, dims = fuse_pose(observations, [observation_weight(o, policy) for o in observations])
        assert_proper_rotation(pose)
        lm = Landmark(0, pose, dims, len(observations), 0, len(observations) - 1, "Car", 0.9,
                      tuple(range(len(observations))))
        # The batched annotation pass builds the camera-local pose of each entry.  A tilted
        # box close to cam can miss the image, so it is viewed from 20 m further back along
        # cam's optical axis: every corner is then in front, and the hull holds the principal
        # point the detections were lifted from.
        view = compose(cam, Pose(np.eye(3), np.array([0.0, 0.0, -20.0])))
        vis = VisibilityConfig(min_box_area=1e-9, min_visible_fraction=1e-9)
        (entry,) = annotate_frame([lm], 0, view, P_SIMPLE, vis).entries
        assert_proper_rotation(entry.local_pose)

    @pytest.mark.parametrize("sim", [
        SimConfig(frames=400, trajectory="straight"),
        SimConfig(frames=400, trajectory="arc", speed=1.7, arc_radius=35.0),
        SimConfig(frames=400, trajectory="waypoints",
                  waypoints=((0, 0, 0), (30, 0, 40), (-20, 0, 90), (-25, 0, 60))),
    ], ids=["straight", "arc", "waypoints"])
    def test_simulated_trajectories(self, sim):
        trajectory = make_trajectory(sim)
        for pose in trajectory.poses:
            assert_proper_rotation(pose)
            assert_proper_rotation(inverse(pose))


def _weighted_mean(pairs):
    weights = [w for _, w in pairs]
    return np.tensordot(weights, [r for r, _ in pairs], axes=1) / float(np.sum(weights))


unit = st.floats(-1.0, 1.0)
# Matrices a rotation mean or an input file can present: near-rotations,
# weighted means of yaw, pitch and roll rotations, reflections, rank-1
# matrices at scales that do and do not collapse, and the zero matrix.
matrices = st.one_of(
    st.builds(lambda r, e: r + np.reshape(e, (3, 3)), rotations(),
              st.lists(st.floats(-3e-4, 3e-4), min_size=9, max_size=9)),
    st.lists(st.tuples(rotations(), st.floats(0.01, 1.0)), min_size=1, max_size=6)
    .map(_weighted_mean),
    rotations().map(lambda r: r @ np.diag([1.0, 1.0, -1.0])),
    st.builds(lambda a, b, scale: scale * np.outer(a, b),
              st.tuples(unit, unit, unit), st.tuples(unit, unit, unit),
              st.sampled_from([1e-12, 1e-9, 1e-6, 1.0])),
    st.just(np.zeros((3, 3))),
)


class TestNearestRotation:
    @pytest.mark.parametrize("m", [np.zeros((3, 3)), np.diag([0.0, 0.0, 1e-10])])
    def test_collapsed_mean_raises_degenerate_mean(self, m):
        # A weighted rotation mean whose two largest singular values vanish
        # has no direction to project onto: the kernel reports it with the
        # oracle's message, and rotation_average raises it.
        with pytest.raises(DegenerateMean) as expected:
            oracle_nearest_rotation(m)
        (report,) = nearest_rotation(m)[1]
        assert isinstance(report, DegenerateMean) and str(report) == str(expected.value)
        with pytest.raises(DegenerateMean, match="rotation mean collapsed"):
            rotation_average([m, m], [1.0, 1.0])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(matrices, max_size=8))
    def test_stack_matches_oracle_bit_for_bit(self, ms):
        stack = np.array(ms).reshape(-1, 3, 3)
        projected, reports = nearest_rotation(stack)
        assert projected.shape == stack.shape and len(reports) == len(stack)
        for m, r, report in zip(stack, projected, reports):
            (single,), (single_report,) = nearest_rotation(m[None])
            try:
                expected = oracle_nearest_rotation(m)
            except DegenerateMean as e:
                assert str(report) == str(single_report) == str(e)
            else:
                assert report is None and single_report is None
                assert r.tobytes() == single.tobytes() == expected.tobytes()
                assert nearest_rotation(m)[0].tobytes() == expected.tobytes()

    def test_empty_stack(self):
        projected, reports = nearest_rotation(np.zeros((0, 3, 3)))
        assert projected.shape == (0, 3, 3) and reports == []


class TestYaw:
    def test_identity_zero(self):
        assert yaw_from_rotation(np.eye(3)) == 0.0

    def test_30_degrees(self):
        # R[2,0] = -sin(30), so atan2(0.5, 0.8660...) = 30 deg.
        assert yaw_from_rotation(yaw_to_rotation(math.radians(30))) == pytest.approx(
            math.radians(30), abs=1e-12
        )

    def test_minus_45_degrees(self):
        assert yaw_from_rotation(yaw_to_rotation(math.radians(-45))) == pytest.approx(
            math.radians(-45), abs=1e-12
        )

    def test_yaw_to_rotation_pi(self):
        r = yaw_to_rotation(math.pi)
        assert r[0, 0] == pytest.approx(-1)
        assert r[2, 2] == pytest.approx(-1)
        assert r[1, 1] == 1.0
        assert abs(r[0, 2]) < 1e-15 and abs(r[2, 0]) < 1e-15

    def test_yaw_to_rotation_half_pi(self):
        r = yaw_to_rotation(math.pi / 2)
        assert r[0, 2] == pytest.approx(1)
        assert r[2, 0] == pytest.approx(-1)
        assert abs(r[0, 0]) < 1e-15 and abs(r[2, 2]) < 1e-15

    @given(st.floats(min_value=-math.pi / 2 + 1e-6, max_value=math.pi / 2 - 1e-6))
    def test_round_trip_within_half_pi(self, theta):
        assert yaw_from_rotation(yaw_to_rotation(theta)) == pytest.approx(theta, abs=1e-12)

    @given(st.floats(min_value=-math.pi + 1e-6, max_value=math.pi))
    def test_full_range_recovery_for_pure_yaw(self, theta):
        # Disambiguation path: a verified y rotation recovers the full range.
        assert yaw_from_rotation(yaw_to_rotation(theta)) == pytest.approx(theta, abs=1e-9)

    def test_folded_range_for_tilted_rotation(self):
        # With pitch mixed in, the base formula stays in [-pi/2, pi/2].
        tilt, _ = nearest_rotation(
            yaw_to_rotation(math.radians(140))
            @ np.array([[1, 0, 0], [0, 0.9998, -0.02], [0, 0.02, 0.9998]])
        )
        got = yaw_from_rotation(tilt)
        assert -math.pi / 2 <= got <= math.pi / 2

    @pytest.mark.parametrize("seed", range(3))
    def test_stacks_match_the_scalar_oracles(self, seed):
        # Proper rotations, pure yaws, and pure yaws off by less and more than the
        # yaw-only tolerance, so that both formulas run.
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-4.0, 4.0, 300).tolist() + [0.0, math.pi, -math.pi, math.pi / 2]
        pure = np.array([oracle_yaw_to_rotation(a) for a in angles])
        stacks = [nearest_rotation(rng.normal(size=(300, 3, 3)))[0], pure,
                  pure + rng.normal(scale=1e-10, size=pure.shape),
                  pure + rng.normal(scale=1e-8, size=pure.shape), np.zeros((0, 3, 3))]
        for r in stacks:
            want = [oracle_yaw_from_rotation(m) for m in r]
            assert np.array(yaw_from_rotations(r)).tobytes() == np.array(want).tobytes()
            assert [yaw_from_rotation(m) for m in r] == want
            rebuilt = np.array([oracle_yaw_to_rotation(a) for a in want]).reshape(-1, 3, 3)
            assert yaw_to_rotations(want).tobytes() == rebuilt.tobytes()
            assert yaw_only(r).tobytes() == rebuilt.tobytes()
        assert np.array([yaw_to_rotation(a) for a in angles]).tobytes() == pure.tobytes()

    def test_wrap_angle_range(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.3 + 4 * math.pi) == pytest.approx(0.3, abs=1e-12)


def hulls(poses, dims, P=P_SIMPLE):
    """project_box over a batch of (pose, dims) cuboids, as Box2D (None for an empty hull)."""
    out = project_box(np.stack([p.rotation for p in poses]),
                      np.stack([p.translation for p in poses]),
                      half_extents([(d.height, d.width, d.length) for d in dims]), P)
    return [Box2D(*(float(x) for x in col)) if col[0] <= col[2] else None for col in out.T]


class TestBoxCorners:
    """The corner layout, through the scalar oracle and the batched hull built on it."""

    def test_identity_bottom_centered(self):
        corners = oracle_box3d_corners(Pose.identity(), Dimensions3D(2, 2, 2))
        expected = {
            (1, 0, 1), (1, 0, -1), (-1, 0, -1), (-1, 0, 1),
            (1, -2, 1), (1, -2, -1), (-1, -2, -1), (-1, -2, 1),
        }
        got = {tuple(np.round(c, 9)) for c in corners}
        assert got == expected
        # Seen 10 m ahead, the hull spans those corners: x in [-1, 1], y in [-2, 0],
        # nearest face at z = 9 (u = 600 -+ 700/9), v from 180 - 1400/9 to 180.
        (box,) = hulls([Pose(np.eye(3), np.array([0, 0, 10]))], [Dimensions3D(2, 2, 2)])
        assert (box.left, box.top, box.right, box.bottom) == pytest.approx(
            (600 - 700 / 9, 180 - 1400 / 9, 600 + 700 / 9, 180.0), abs=1e-9)

    def test_translation_equivariance(self):
        base = oracle_box3d_corners(Pose.identity(), Dimensions3D(1.5, 1.6, 4.0))
        moved = oracle_box3d_corners(Pose(np.eye(3), np.array([0, 0, 10])),
                                     Dimensions3D(1.5, 1.6, 4.0))
        assert np.allclose(moved, base + np.array([0, 0, 10]))
        # A camera-frame shift along x moves the whole hull by focal * dx / depth
        # when the cuboid's depth extent is zero.
        flat = Dimensions3D(1.5, 1e-12, 4.0)
        near, shifted = hulls([Pose(np.eye(3), np.array([0, 0, 20])),
                               Pose(np.eye(3), np.array([2, 0, 20]))],
                              [flat, flat])
        assert shifted.left - near.left == pytest.approx(700 * 2 / 20, abs=1e-9)
        assert shifted.right - near.right == pytest.approx(700 * 2 / 20, abs=1e-9)

    def test_yaw_90_swaps_extents(self):
        dims = Dimensions3D(1.0, 2.0, 6.0)  # width 2 along z, length 6 along x
        corners = oracle_box3d_corners(yaw_pose(math.pi / 2), dims)
        # After a 90 degree yaw the x extent comes from width, z from length.
        assert corners[:, 0].max() - corners[:, 0].min() == pytest.approx(2.0)
        assert corners[:, 2].max() - corners[:, 2].min() == pytest.approx(6.0)
        # So the hull is narrower than the unrotated one at the same place.
        turned, straight = hulls([yaw_pose(math.pi / 2, (0, 0, 30)), yaw_pose(0.0, (0, 0, 30))],
                                 [dims, dims])
        assert turned.right - turned.left < straight.right - straight.left

    def test_group_equivariance(self):
        rng = np.random.default_rng(3)
        dims = Dimensions3D(1.5, 1.7, 4.2)
        for _ in range(20):
            g = random_pose(rng)
            pose = random_pose(rng)
            lhs = oracle_box3d_corners(compose(g, pose), dims)
            rhs = g.apply(oracle_box3d_corners(pose, dims))
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_batch_matches_oracle(self):
        # Random poses in front, straddling depth 0 and behind, under both cameras:
        # every hull equals the scalar oracle's, bit for bit, and an empty hull
        # is exactly where the oracle finds no corner in front.
        rng = np.random.default_rng(11)
        for P in (P_SIMPLE, P_OFFSET):
            poses = [random_pose(rng) for _ in range(60)]
            dims = [Dimensions3D(*rng.uniform(0.3, 5.0, size=3)) for _ in poses]
            for pose, d, got in zip(poses, dims, hulls(poses, dims, P)):
                assert got == oracle_project_box(oracle_box3d_corners(pose, d), P)


class TestProjectBox:
    def test_centered_cuboid_symmetric_box(self):
        # Cuboid around the optical axis: box symmetric about the principal point.
        pose = Pose(np.eye(3), np.array([0, 1, 20]))  # bottom center 1 below axis, height 2
        (box,) = hulls([pose], [Dimensions3D(2, 2, 2)])
        assert box.left + box.right == pytest.approx(2 * 600)
        assert box.top + box.bottom == pytest.approx(2 * 180)

    def test_all_behind_camera(self):
        pose = Pose(np.eye(3), np.array([0.0, 0.0, -50.0]))
        out = project_box(pose.rotation[None], pose.translation[None],
                          half_extents([(2, 2, 2)]), P_SIMPLE)
        assert out[:, 0].tolist() == [math.inf, math.inf, -math.inf, -math.inf]
        assert oracle_project_box(oracle_box3d_corners(pose, Dimensions3D(2, 2, 2)),
                                  P_SIMPLE) is None

    def test_degenerate_cuboid_matches_point(self):
        eps = 1e-9
        pose = Pose(np.eye(3), np.array([2, 1, 30]))
        (box,) = hulls([pose], [Dimensions3D(eps, eps, eps)])
        u, v, _ = project_point((2, 1, 30), P_SIMPLE)
        assert box.area() < 1e-6
        assert box.left == pytest.approx(u, abs=1e-6)
        assert box.top == pytest.approx(v, abs=1e-6)

    def test_straddling_depth_zero_keeps_front_corners(self):
        # Length 4 along z centered at z = 1: the z = 3 corners are in front,
        # the z = -1 ones behind and left out of the hull.
        pose = yaw_pose(math.pi / 2, (0, 0, 1))
        (box,) = hulls([pose], [Dimensions3D(2, 2, 4)])
        assert (box.left, box.top, box.right, box.bottom) == pytest.approx(
            (600 - 700 / 3, 180 - 1400 / 3, 600 + 700 / 3, 180.0), abs=1e-9)

    def test_batch_order_and_empty_batch(self):
        poses = [Pose(np.eye(3), np.array([x, 0, 25])) for x in (-3.0, 0.0, 3.0)]
        dims = [Dimensions3D(1.5, 1.7, 4.2)] * 3
        boxes = hulls(poses, dims)
        assert [b.left for b in boxes] == sorted(b.left for b in boxes)
        assert hulls(poses[1:2], dims[1:2]) == boxes[1:2]
        empty = project_box(np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros((0, 3)), P_SIMPLE)
        assert empty.shape == (4, 0)


def oracle_iou_2d(a: Box2D, b: Box2D) -> float:
    """iou_2d through Box2D's attributes and area(): the scalar rule iou_2d must equal."""
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area() + b.area() - inter)


_BIG = 1e308
# Boxes whose IoU takes every branch: touching edges and corners, nesting, zero width or
# height, and edges near the float maximum, where an area or the union overflows.
IOU_CASES = [
    (Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10)),          # touching edge
    (Box2D(0, 0, 10, 10), Box2D(10, 10, 20, 20)),         # touching corner
    (Box2D(0, 0, 10, 10), Box2D(0, 0, 10, 10)),           # identical
    (Box2D(0, 0, 10, 10), Box2D(2.5, 3.25, 7.5, 9.0)),    # nested
    (Box2D(0.1, 0.2, 30.7, 10.3), Box2D(0.1, 0.2, 30.7, 10.3 + 1e-12)),  # nearly identical
    (Box2D(0, 0, 10, 10), Box2D(3, 3, 3, 8)),             # zero width, inside
    (Box2D(0, 0, 10, 10), Box2D(3, 5, 8, 5)),             # zero height, inside
    (Box2D(5, 5, 5, 5), Box2D(5, 5, 5, 5)),               # two points
    (Box2D(-_BIG, 0, _BIG, 10), Box2D(0, 0, 10, 10)),     # infinite area, finite overlap
    (Box2D(-_BIG, -_BIG, _BIG, _BIG), Box2D(-_BIG, -_BIG, _BIG, _BIG)),  # inf / inf
    (Box2D(0, 0, _BIG, _BIG), Box2D(1, 1, _BIG, _BIG)),   # overlap overflows
    (Box2D(-_BIG, 0, 0, 10), Box2D(0, 0, _BIG, 10)),      # touching at 0, huge widths
    (Box2D(_BIG / 2, 0, _BIG, 1), Box2D(_BIG / 4, 0, _BIG, 1)),
]


class TestIoU:
    @pytest.mark.parametrize("a, b", IOU_CASES)
    def test_scalar_oracle_bit_for_bit(self, a, b):
        assert iou_2d(a, b).hex() == oracle_iou_2d(a, b).hex()
        assert iou_2d(b, a).hex() == oracle_iou_2d(b, a).hex()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([0.0, 1e-200, 10.0, _BIG, -_BIG]), min_size=8, max_size=8))
    @settings(max_examples=300)
    def test_matches_the_scalar_oracle(self, edges):
        a, b = (Box2D(min(e[0], e[2]), min(e[1], e[3]), max(e[0], e[2]), max(e[1], e[3]))
                for e in (edges[:4], edges[4:]))
        try:
            want = oracle_iou_2d(a, b)
        except ZeroDivisionError:  # an overlap that underflows: iou_2d reads it as none
            want = 0.0
        assert iou_2d(a, b).hex() == want.hex()

    @pytest.mark.parametrize("a, b", [
        (Box2D(0, 0, 1e-200, 1e-200), Box2D(0, 0, 1e-200, 1e-200)),
        (Box2D(5e-324, 5e-324, 1e-323, 1e-323), Box2D(0, 0, 1e-323, 1e-323)),
        (Box2D(0, 0, 1e-200, 1e-200), Box2D(0, 0, 10, 10)),
    ])
    def test_overlap_below_the_float_range_is_zero(self, a, b):
        # iw and ih are positive but their product underflows: no overlap, not 0 / 0.
        assert iou_2d(a, b) == iou_2d(b, a) == 0.0

    def test_identical(self):
        b = Box2D(0, 0, 10, 10)
        assert iou_2d(b, b) == 1.0

    def test_disjoint(self):
        assert iou_2d(Box2D(0, 0, 10, 10), Box2D(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # Intersection 50, union 150.
        got = iou_2d(Box2D(0, 0, 10, 10), Box2D(5, 0, 15, 10))
        assert got == pytest.approx(50 / 150)

    def test_two_empty_boxes_are_zero(self):
        # As association.cost_matrix scores them: no positive overlap, IoU 0.
        z = Box2D(5, 5, 5, 5)
        assert iou_2d(z, z) == 0.0

    def test_one_degenerate_box_is_zero(self):
        assert iou_2d(Box2D(5, 5, 5, 5), Box2D(0, 0, 10, 10)) == 0.0

    @given(
        st.tuples(*[st.floats(-100, 100) for _ in range(4)]),
        st.tuples(*[st.floats(-100, 100) for _ in range(4)]),
    )
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, raw_a, raw_b):
        a = Box2D(min(raw_a[0], raw_a[2]), min(raw_a[1], raw_a[3]),
                  max(raw_a[0], raw_a[2]), max(raw_a[1], raw_a[3]))
        b = Box2D(min(raw_b[0], raw_b[2]), min(raw_b[1], raw_b[3]),
                  max(raw_b[0], raw_b[2]), max(raw_b[1], raw_b[3]))
        if a.area() == 0.0 and b.area() == 0.0:
            return
        ab = iou_2d(a, b)
        assert ab == iou_2d(b, a)
        assert 0.0 <= ab <= 1.0


# --- the records' producers --------------------------------------------------------------

@functools.cache
def _scene():
    """A simulated scene whose config gives whole numbers where floats are read."""
    return generate(SimConfig(seed=3, n_objects=4, frames=40, speed=1, focal=700,
                              image_width=1242, image_height=375, sigma_z=0.3, sigma_px=1.0))


def _tracks(gt, detections):
    return run_association(read_detections(write_detections(detections)), gt.trajectory, gt.P,
                           AssociationConfig())


def _annotations(gt):
    return annotate_sequence(gt.landmarks, gt.trajectory, gt.P, gt.visibility)


def _arc_and_objects():
    """The poses of an arc trajectory and of an object placed by the config, whole numbers."""
    gt, _ = generate(SimConfig(trajectory="arc", speed=1, arc_radius=80, frames=10,
                               objects=((2, 2, 20, 0),)))
    return [*gt.trajectory.poses, *(lm.global_pose for lm in gt.landmarks)]


# Each producer of a Pose or ProjectionMatrix: the records it hands over, of _scene().
PRODUCERS = {
    "parse_trajectory": lambda gt, dets: parse_trajectory(
        serialize_trajectory(gt.trajectory)).poses,
    "parse_calib": lambda gt, dets: [parse_calib(serialize_calib(CalibFile({"P2": gt.P})))
                                     .get("P2")],
    "parse_landmarks": lambda gt, dets: [lm.global_pose for lm in parse_landmarks(
        serialize_landmarks(gt.landmarks))],
    "read_annotation_dump": lambda gt, dets: [e.local_pose for a in read_annotation_dump(
        dump_text(_annotations(gt))) for e in a.entries],
    "generate.trajectory": lambda gt, dets: [*gt.trajectory.poses, gt.P],
    "generate.landmarks": lambda gt, dets: [lm.global_pose for lm in gt.landmarks],
    "generate.arc_and_objects": lambda gt, dets: _arc_and_objects(),
    "run_association": lambda gt, dets: [o.global_pose for t in _tracks(gt, dets)
                                         for o in t.observations],
    "fuse_tracks": lambda gt, dets: [lm.global_pose for lm in fuse_tracks(
        _tracks(gt, dets), WeightPolicy(), FusionConfig())[0]],
    "annotate_sequence": lambda gt, dets: [e.local_pose for a in _annotations(gt)
                                           for e in a.entries],
}


def test_pose_arrays_are_read_only():
    # Poses may share their arrays (views of one block), so a write through one raises.
    block = np.zeros((2, 3))
    pose = Pose(np.eye(3), block[0])
    for value in (pose.rotation, pose.translation):
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 1.0
    assert not block[0].any()


@pytest.mark.parametrize("producer", PRODUCERS)
def test_every_producer_hands_over_float_arrays(producer):
    # Pose and ProjectionMatrix convert nothing, so each producer hands over float64 arrays
    # of the right shapes: an int translation would print differently in map.jsonl.
    records = PRODUCERS[producer](*_scene())
    assert records
    shapes = {"rotation": (3, 3), "translation": (3,), "P": (3, 4)}
    for record in records:
        names = ("P",) if isinstance(record, ProjectionMatrix) else ("rotation", "translation")
        for name in names:
            value = getattr(record, name)
            assert (type(value), value.dtype, value.shape) == (np.ndarray, np.float64,
                                                               shapes[name]), (producer, name)
