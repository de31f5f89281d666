import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarview.camera import (
    EPS_DEPTH,
    CameraModel,
    EgoPose,
    Rig,
    make_symmetric_rig,
    max_rotation_discrepancy,
    project_rig,
    project_to_view,
    rotation_about_z,
)


def simple_camera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=640, height=480):
    """Identity extrinsics: ego axes coincide with camera axes (+z optical)."""
    return CameraModel(
        fx=fx, fy=fy, cx=cx, cy=cy,
        rotation=np.eye(3), translation=np.zeros(3),
        width=width, height=height,
    )


def back_project(u, v, depth, cam):
    """Ego-frame point at camera-frame ``depth`` behind pixel (u, v): the pinhole inverted."""
    p_cam = depth * np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
    return cam.rotation.T @ (p_cam - cam.translation)


def ring_point(rng):
    """A point 5-40 m from the ego origin at any azimuth, within 1 m of the ground plane."""
    r = rng.uniform(5, 40)
    a = rng.uniform(-math.pi, math.pi)
    return np.array([r * math.cos(a), r * math.sin(a), rng.uniform(-1, 1)])


def scalar_projection(point, cam):
    """The pinhole one point at a time: ``R @ p + t``, then ``fx * x / z + cx``, then the visibility rule.

    Returns the depth and, for a depth above EPS_DEPTH, (u, v, visible).
    """
    x, y, depth = (cam.rotation @ np.asarray(point, dtype=np.float64) + cam.translation).tolist()
    if depth <= EPS_DEPTH:
        return depth, None
    u = cam.fx * x / depth + cam.cx
    v = cam.fy * y / depth + cam.cy
    return depth, (u, v, 0.0 <= u < cam.width and 0.0 <= v < cam.height)


# identity extrinsics and fx = fy = 1, so (x, y, z) lands on pixel (x / z, y / z) of a 10 x 8 image
EDGE_CAMERA = simple_camera(width=10, height=8)
# for EDGE_CAMERA: pixels on u = 0, u = W, v = H and just inside; depths 0, EPS_DEPTH and negative
EDGE_POINTS = [
    (0.0, 0.0, 1.0), (10.0, 0.0, 1.0), (0.0, 8.0, 1.0), (9.5, 7.5, 1.0), (20.0, 0.0, 2.0), (-0.0, 0.0, 3.0),
    (1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, EPS_DEPTH), (0.0, 0.0, EPS_DEPTH), (1.0, 1.0, -3.0),
]
_coordinate = st.floats(-60.0, 60.0)


class TestProjection:
    def test_on_axis_point(self):
        cam = simple_camera()
        u, v, depth, visible = project_to_view(np.array([0.0, 0.0, 5.0]), cam)
        assert visible.tolist() == [True]
        assert (u[0], v[0], depth[0]) == (0.0, 0.0, 5.0)

    def test_behind_camera_absent(self):
        cam = simple_camera()
        assert project_to_view(np.array([0.0, 0.0, -1.0]), cam)[3].tolist() == [False]

    def test_pinhole_evaluation(self):
        # u = fx * x/z + cx = 100 * (1/2) + 320 = 370
        cam = simple_camera(fx=100.0, fy=100.0, cx=320.0, cy=240.0)
        u, v, depth, visible = project_to_view(np.array([1.0, 0.0, 2.0]), cam)
        assert visible.tolist() == [True]
        assert u[0] == pytest.approx(370.0)
        assert v[0] == pytest.approx(240.0)
        assert depth[0] == pytest.approx(2.0)

    def test_out_of_image_absent(self):
        cam = simple_camera(fx=100.0, fy=100.0, cx=320.0, cy=240.0, width=360, height=480)
        assert project_to_view(np.array([1.0, 0.0, 2.0]), cam)[3].tolist() == [False]  # u = 370 >= 360

    def test_half_open_bounds(self):
        cam = simple_camera(cx=0.0, cy=0.0, width=10, height=10)
        # u == width exactly is outside [0, W)
        u, _, _, visible = project_to_view(np.array([[0.0, 0.0, 1.0], [10.0, 0.0, 1.0]]), cam)
        assert visible.tolist() == [True, False]
        assert u[0] == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            project_to_view(np.array([math.nan, 0.0, 1.0]), simple_camera())

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (1, 3, 1), (3, 1), (2, 2), (0,)])
    def test_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            project_to_view(np.ones(shape), simple_camera())

    def test_project_rig_takes_one_point(self):
        with pytest.raises(ValueError):
            project_rig(np.ones((2, 3)), make_symmetric_rig(4))

    def test_depth_positive_always(self):
        rng = np.random.default_rng(2)
        cam = simple_camera(fx=200, fy=200, cx=320, cy=240)
        _, _, depth, visible = project_to_view(rng.normal(0, 10, size=(300, 3)), cam)
        assert (depth[visible] > 0.0).all()

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(_coordinate, _coordinate, _coordinate), max_size=40),
        st.one_of(st.just(EDGE_CAMERA), st.sampled_from(make_symmetric_rig(6).cameras + make_symmetric_rig(5).cameras)),
        st.one_of(st.none(), st.sampled_from([math.nan, math.inf, -math.inf])),
        st.integers(0, 999),
    )
    def test_batch_matches_scalar_arithmetic(self, points, cam, spoiler, where):
        p = np.array([*EDGE_POINTS, *points])
        if spoiler is not None:
            p.flat[where % p.size] = spoiler
            with pytest.raises(ValueError, match="non-finite"):
                project_to_view(p, cam)
            return
        u, v, depth, visible = project_to_view(p, cam)
        for i, point in enumerate(p):
            d, pixel = scalar_projection(point, cam)
            assert float(depth[i]).hex() == d.hex()
            if pixel is None:
                assert not visible[i]
            else:
                got = (float(u[i]).hex(), float(v[i]).hex(), bool(visible[i]))
                assert got == (pixel[0].hex(), pixel[1].hex(), pixel[2])


class TestBackProjection:
    def test_reprojection_consistency(self):
        rng = np.random.default_rng(5)
        rig = make_symmetric_rig(6)
        worst = 0.0
        for _ in range(500):
            k = int(rng.integers(0, 6))
            cam = rig[k]
            u = rng.uniform(0, cam.width)
            v = rng.uniform(0, cam.height)
            depths = np.array([1.0, 10.0, 50.0])
            pu, pv, pd, visible = project_to_view([back_project(u, v, d, cam) for d in depths], cam)
            assert visible.all()
            worst = max(worst, *np.abs(pu - u), *np.abs(pv - v), *np.abs(pd - depths))
        assert worst < 1e-9

    def test_projected_point_back_projects_to_itself(self):
        rng = np.random.default_rng(6)
        rig = make_symmetric_rig(6)
        worst = 0.0
        for _ in range(300):
            p = np.array(
                [rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-1, 1)]
            )
            for k, pix in enumerate(project_rig(p, rig)):
                if pix is None:
                    continue
                worst = max(worst, float(np.abs(back_project(pix.u, pix.v, pix.depth, rig[k]) - p).max()))
        assert worst < 1e-9


class TestSymmetricRig:
    def test_needs_two_cameras(self):
        with pytest.raises(ValueError):
            make_symmetric_rig(1)

    def test_adjacent_axes_differ_by_60_degrees(self):
        rig = make_symmetric_rig(6)
        axes = [cam.rotation.T @ np.array([0.0, 0.0, 1.0]) for cam in rig.cameras]
        for a, b in zip(axes, axes[1:]):
            angle = math.acos(np.clip(a @ b, -1, 1))
            assert angle == pytest.approx(math.pi / 3, abs=1e-12)

    def test_rotation_moves_projection_to_next_view(self):
        rig = make_symmetric_rig(6)
        rng = np.random.default_rng(8)
        pts = []
        while len(pts) < 100:
            r = rng.uniform(5, 40)
            a = rng.uniform(-math.pi, math.pi)
            pts.append([r * math.cos(a), r * math.sin(a), rng.uniform(-1, 1)])
        max_px, max_depth = max_rotation_discrepancy(rig, np.array(pts))
        assert max_px < 1e-9
        assert max_depth < 1e-9

    def test_mount_offset_rotates(self):
        rig = make_symmetric_rig(4)
        c1 = -rig[1].rotation.T @ rig[1].translation  # camera center in ego coordinates
        np.testing.assert_allclose(c1, [0.0, 1.0, 1.6], atol=1e-12)  # camera 0's (1, 0, 1.6) turned by 90 degrees

    def test_straight_ahead_visible_in_view_0_only(self):
        rig = make_symmetric_rig(6)
        visible = [k for k, pix in enumerate(project_rig(np.array([20.0, 0.0, 0.0]), rig)) if pix is not None]
        assert visible == [0]

    def test_point_above_the_rig_invisible_everywhere(self):
        assert project_rig(np.array([0.0, 0.0, 100.0]), make_symmetric_rig(6)) == [None] * 6

    def test_rotation_permutes_visibility(self):
        rig = make_symmetric_rig(6)
        rng = np.random.default_rng(25)
        rz = rotation_about_z(math.pi / 3)
        for _ in range(50):
            p = ring_point(rng)
            base = [pix is not None for pix in project_rig(p, rig)]
            rotated = [pix is not None for pix in project_rig(rz @ p, rig)]
            assert rotated == base[-1:] + base[:-1]


class TestEgoPose:
    def test_forward_translation(self):
        # ego moved +5 m along x; static object at x=10 now was at x=15 then
        pose = EgoPose(rotation=np.eye(3), translation=np.array([5.0, 0.0, 0.0]), dt=0.5)
        moved = pose.apply(np.array([10.0, 0.0, 0.0]))
        np.testing.assert_allclose(moved, [15.0, 0.0, 0.0])

    def test_pure_yaw_shifts_view_index(self):
        rig = make_symmetric_rig(6)
        pose = EgoPose(rotation=rotation_about_z(math.pi / 3), translation=np.zeros(3), dt=0.5)
        rng = np.random.default_rng(9)
        points = np.array([ring_point(rng) for _ in range(200)])
        checked = 0
        for k in range(6):
            *past, past_seen = project_to_view([pose.apply(p) for p in points], rig[k])
            *now_prev, now_prev_seen = project_to_view(points, rig[k - 1])
            assert (past_seen == now_prev_seen).all()
            assert np.abs(np.array(past)[:, past_seen] - np.array(now_prev)[:, past_seen]).max(initial=0.0) < 1e-9
            checked += int(past_seen.sum())
        assert checked > 100


class TestValidation:
    def test_rig_needs_a_camera(self):
        with pytest.raises(ValueError):
            Rig(())

    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(ValueError):
            CameraModel(
                fx=1, fy=1, cx=0, cy=0,
                rotation=np.eye(3) * 2.0, translation=np.zeros(3),
                width=10, height=10,
            )

    def test_reflection_rejected(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            EgoPose(rotation=flip, translation=np.zeros(3))

    def test_focal_lengths_positive(self):
        with pytest.raises(ValueError):
            CameraModel(
                fx=0.0, fy=1, cx=0, cy=0,
                rotation=np.eye(3), translation=np.zeros(3),
                width=10, height=10,
            )
