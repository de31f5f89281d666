import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarview.camera import EgoPose, make_symmetric_rig, project_rig, rotation_about_z
from polarview.geometry import (
    CartesianBox,
    CartesianVelocity,
    PolarBox,
    PolarVelocity,
    cartesian_to_polar,
    velocity_cartesian_to_polar,
)
from polarview.serialization import dumps_json, scene_to_dict
from polarview.simulator import (
    Detection,
    DetectionFrame,
    DetectionSet,
    NoiseModel,
    Scene,
    SceneConfig,
    SceneFrame,
    SceneObject,
    _noisy_size,
    generate_scene,
    render_detections,
    rotate_scene,
)


class TestGeneration:
    def test_seed_determinism_byte_identical(self):
        cfg = SceneConfig(n_objects=4, n_frames=3, seed=42, ego_motion="arc")
        a = dumps_json(scene_to_dict(generate_scene(cfg)))
        b = dumps_json(scene_to_dict(generate_scene(cfg)))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_scene(SceneConfig(n_objects=2, seed=1))
        b = generate_scene(SceneConfig(n_objects=2, seed=2))
        assert a.frames[0].objects[0].box.x != b.frames[0].objects[0].box.x

    def test_zero_objects(self):
        scene = generate_scene(SceneConfig(n_objects=0, n_frames=3))
        assert all(len(f.objects) == 0 for f in scene.frames)

    def test_constant_velocity_kinematics_static_ego(self):
        cfg = SceneConfig(n_objects=5, n_frames=8, dt=0.5, seed=3, ego_motion="static")
        scene = generate_scene(cfg)
        first = scene.frames[0]
        for n, frame in enumerate(scene.frames):
            for obj0, obj in zip(first.objects, frame.objects):
                t = n * cfg.dt
                assert obj.box.x == pytest.approx(obj0.box.x + t * obj0.velocity.v_x, abs=1e-12)
                assert obj.box.y == pytest.approx(obj0.box.y + t * obj0.velocity.v_y, abs=1e-12)

    def test_kinematics_hold_in_frame0_coords_with_moving_ego(self):
        cfg = SceneConfig(n_objects=4, n_frames=6, dt=0.5, seed=4, ego_motion="arc")
        scene = generate_scene(cfg)
        first = scene.frames[0]
        for n, frame in enumerate(scene.frames):
            t = n * cfg.dt
            for obj0, obj in zip(first.objects, frame.objects):
                p = frame.ego_pose.apply(np.array([obj.box.x, obj.box.y, obj.box.z]))
                expected = np.array(
                    [
                        obj0.box.x + t * obj0.velocity.v_x,
                        obj0.box.y + t * obj0.velocity.v_y,
                        obj0.box.z,
                    ]
                )
                np.testing.assert_allclose(p, expected, atol=1e-9)

    def test_placement_within_perception_radius(self):
        scene = generate_scene(SceneConfig(n_objects=50, seed=5, r_max=50.0))
        for obj in scene.frames[0].objects:
            r = math.hypot(obj.box.x, obj.box.y)
            assert 2.0 <= r <= 50.0

    def test_ids_stable_across_frames(self):
        scene = generate_scene(SceneConfig(n_objects=3, n_frames=4, seed=6))
        ids0 = [o.object_id for o in scene.frames[0].objects]
        for frame in scene.frames:
            assert [o.object_id for o in frame.objects] == ids0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SceneConfig(n_frames=0)
        with pytest.raises(ValueError):
            SceneConfig(speed_min=5.0, speed_max=1.0)
        with pytest.raises(ValueError):
            SceneConfig(ego_motion="teleport")


class TestRotation:
    def test_zero_rotation_identity(self):
        scene = generate_scene(SceneConfig(n_objects=3, n_frames=2, seed=7))
        rotated = rotate_scene(scene, 0.0)
        assert dumps_json(scene_to_dict(rotated)) == dumps_json(scene_to_dict(scene))

    def test_full_turn_is_identity_within_tolerance(self):
        scene = generate_scene(SceneConfig(n_objects=3, n_frames=2, seed=8))
        rotated = rotate_scene(scene, 2.0 * math.pi)
        for fa, fb in zip(scene.frames, rotated.frames):
            for oa, ob in zip(fa.objects, fb.objects):
                assert ob.box.x == pytest.approx(oa.box.x, abs=1e-12)
                assert ob.box.y == pytest.approx(oa.box.y, abs=1e-12)
                assert math.sin(ob.box.yaw) == pytest.approx(math.sin(oa.box.yaw), abs=1e-12)

    def test_radial_quantities_preserved(self):
        scene = generate_scene(SceneConfig(n_objects=10, n_frames=2, seed=9, speed_max=6.0))
        rotated = rotate_scene(scene, 1.234)
        for fa, fb in zip(scene.frames, rotated.frames):
            for oa, ob in zip(fa.objects, fb.objects):
                pa, pb = cartesian_to_polar(oa.box), cartesian_to_polar(ob.box)
                assert pb.r == pytest.approx(pa.r, abs=1e-12)
                assert pb.z == pa.z
                va = velocity_cartesian_to_polar(oa.velocity, pa.sin_a, pa.cos_a)
                vb = velocity_cartesian_to_polar(ob.velocity, pb.sin_a, pb.cos_a)
                assert vb.v_rad == pytest.approx(va.v_rad, abs=1e-12)
                assert vb.v_tan == pytest.approx(va.v_tan, abs=1e-12)
                assert ob.velocity.norm() == pytest.approx(oa.velocity.norm(), abs=1e-12)

    def test_rig_rotation_moves_projections_to_adjacent_camera(self):
        rig = make_symmetric_rig(6)
        scene = generate_scene(SceneConfig(n_objects=12, n_frames=1, seed=10), rig=rig)
        rotated = rotate_scene(scene, math.pi / 3)
        for oa, ob in zip(scene.frames[0].objects, rotated.frames[0].objects):
            base = project_rig(np.array([oa.box.x, oa.box.y, oa.box.z]), rig)
            moved = project_rig(np.array([ob.box.x, ob.box.y, ob.box.z]), rig)
            for k in range(6):
                if base[k] is None:
                    continue
                other = moved[(k + 1) % 6]
                assert other is not None
                assert abs(other.u - base[k].u) < 1e-9
                assert abs(other.v - base[k].v) < 1e-9
                assert abs(other.depth - base[k].depth) < 1e-9


class TestRendering:
    def test_zero_noise_is_exact_identity(self):
        scene = generate_scene(SceneConfig(n_objects=5, n_frames=3, seed=11, speed_max=5.0))
        dets = render_detections(scene, NoiseModel())
        for frame_gt, frame_det in zip(scene.frames, dets.frames):
            assert len(frame_det.detections) == len(frame_gt.objects)
            for obj, det in zip(frame_gt.objects, frame_det.detections):
                polar = cartesian_to_polar(obj.box)
                np.testing.assert_array_equal(det.box.as_array(), polar.as_array())
                vel = velocity_cartesian_to_polar(obj.velocity, polar.sin_a, polar.cos_a)
                assert (det.velocity.v_rad, det.velocity.v_tan) == (vel.v_rad, vel.v_tan)
                assert det.score == 1.0
                assert det.probs[obj.label] == 1.0

    def test_drop_probability_one_empties_frames(self):
        scene = generate_scene(SceneConfig(n_objects=5, n_frames=2, seed=12))
        dets = render_detections(scene, NoiseModel(drop_prob=1.0))
        assert all(len(f.detections) == 0 for f in dets.frames)

    def test_false_positives_appear_without_objects(self):
        scene = generate_scene(SceneConfig(n_objects=0, n_frames=50, seed=13))
        dets = render_detections(scene, NoiseModel(false_positive_rate=2.0, seed=1))
        counts = [len(f.detections) for f in dets.frames]
        assert np.mean(counts) == pytest.approx(2.0, abs=0.6)

    def test_radial_std_matches_target(self):
        scene = generate_scene(SceneConfig(n_objects=200, n_frames=50, seed=14, speed_max=0.0))
        dets = render_detections(scene, NoiseModel(radial_std=0.5, seed=2))
        residuals = []
        for frame_gt, frame_det in zip(scene.frames, dets.frames):
            for obj, det in zip(frame_gt.objects, frame_det.detections):
                residuals.append(det.box.r - cartesian_to_polar(obj.box).r)
        assert len(residuals) == 10000
        assert np.std(residuals) == pytest.approx(0.5, rel=0.05)

    def test_render_determinism(self):
        scene = generate_scene(SceneConfig(n_objects=5, n_frames=3, seed=15))
        noise = NoiseModel(radial_std=0.3, drop_prob=0.2, false_positive_rate=0.5, seed=3)
        a = render_detections(scene, noise)
        b = render_detections(scene, noise)
        for fa, fb in zip(a.frames, b.frames):
            assert len(fa.detections) == len(fb.detections)
            for da, db in zip(fa.detections, fb.detections):
                np.testing.assert_array_equal(da.box.as_array(), db.box.as_array())

    def test_cartesian_noise_mode(self):
        scene = generate_scene(SceneConfig(n_objects=100, n_frames=20, seed=16, speed_max=0.0))
        dets = render_detections(scene, NoiseModel(radial_std=0.4, mode="cartesian", seed=4))
        dx = []
        for frame_gt, frame_det in zip(scene.frames, dets.frames):
            for obj, det in zip(frame_gt.objects, frame_det.detections):
                x, y = det.box.center_xy()
                dx.extend([x - obj.box.x, y - obj.box.y])
        assert np.std(dx) == pytest.approx(0.4, rel=0.05)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(radial_std=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(drop_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(mode="spherical")

    @pytest.mark.parametrize("draw", [1.0, -1.0], ids=["overflow", "underflow"])
    def test_size_noise_out_of_float_range_names_size_rel_std(self, draw):
        # exp(1000) overflows, exp(-1000) underflows to a zero size
        with pytest.raises(ValueError, match=r"^NoiseModel: size_rel_std "):
            _noisy_size(4.0, draw, 1000.0)
        assert _noisy_size(4.0, draw, 0.5) == 4.0 * math.exp(draw * 0.5)

    def test_radial_noise_that_overflows_below_zero_still_clamps(self):
        # the one object's radial draw at seed 3 is -2.56: r - 2.56e308 overflows to -inf, which clamps to 1e-6
        scene = generate_scene(SceneConfig(n_objects=1, n_frames=1))
        dets = render_detections(scene, NoiseModel(radial_std=1e308, seed=3))
        assert dets.frames[0].boxes[:, 0].tolist() == [1e-6]


class TestDetectionProbs:
    @staticmethod
    def detection(probs):
        box = PolarBox(10.0, 0.0, 1.0, 0.0, 4.0, 2.0, 1.5, 0.0, 1.0)
        return Detection(box=box, probs=probs, velocity=PolarVelocity(0.0, 0.0), score=0.5)

    @pytest.mark.parametrize("probs", [[], [[0.2, 0.8]], 0.5], ids=["empty", "nested", "scalar"])
    def test_rejects_probs_that_are_not_a_non_empty_vector(self, probs):
        with pytest.raises(ValueError):
            self.detection(probs)

    def test_keeps_callers_array_writable(self):
        probs = np.array([0.2, 0.8])
        det = self.detection(probs)
        assert probs.flags.writeable and not det.probs.flags.writeable

    def test_set_rejects_mixed_class_counts(self):
        frames = (
            DetectionFrame(t=0.0, detections=(self.detection([0.2, 0.8]),)),
            DetectionFrame(t=1.0, detections=(self.detection([0.2, 0.3, 0.5]),)),
        )
        with pytest.raises(ValueError):
            DetectionSet(frames=frames)
        assert len(DetectionSet(frames=frames[:1]).frames) == 1


# Values at and across every boundary the record checks draw: sign of r and
# sizes, the [0, 1] ends of probabilities and scores, non-finite values, and
# numbers whose square overflows.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, 1.0000000000000002, -1.0, 1e200, math.nan, math.inf, -math.inf]


@st.composite
def records(draw, n_classes):
    """A valid detection as plain floats with up to two values swapped for edge values.

    Unit pairs are stretched by factors that straddle the 1e-9 tolerance.
    """
    stretches = st.sampled_from([0.0, 0.0, 0.0, 4.9e-10, 5.1e-10, -5.1e-10, 1e-3])
    pairs = []
    for _ in range(2):
        angle, stretch = draw(st.floats(-math.pi, math.pi)), draw(stretches)
        pairs.append([math.sin(angle) * (1.0 + stretch), math.cos(angle) * (1.0 + stretch)])
    r, z = draw(st.floats(0.0, 60.0)), draw(st.floats(-5.0, 5.0))
    sizes = draw(st.lists(st.floats(1e-3, 6.0), min_size=3, max_size=3))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=n_classes, max_size=n_classes))
    velocity = draw(st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=2))
    values = [r, *pairs[0], z, *sizes, *pairs[1], *probs, *velocity, draw(st.floats(0.0, 1.0))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(EDGES))
    return values[:9], values[9:-3], values[-3:-1], values[-1]


def record_fails(box, probs, velocity, score):
    try:
        Detection(box=PolarBox(*box), probs=probs, velocity=PolarVelocity(*velocity), score=score)
    except ValueError:
        return True
    return False


def frame_fails(rows):
    columns = [[row[k] for row in rows] for k in range(4)]
    try:
        DetectionFrame.from_arrays(0.0, *columns)
    except ValueError:
        return True
    return False


class TestDetectionFrameChecks:
    def test_each_edge_value_at_each_position_fails_alike(self):
        base = [10.0, 0.6, 0.8, 0.0, 4.0, 2.0, 1.5, 0.0, 1.0, 0.2, 0.8, 1.0, -1.0, 0.5]
        cases = []
        for k in range(len(base)):
            for value in EDGES:
                values = list(base)
                values[k] = value
                cases.append(values)
        for first in (1, 7):  # azimuth and yaw pairs stretched across the tolerance
            for stretch in (4.9e-10, 5e-10, 5.1e-10, -5.1e-10):
                values = list(base)
                values[first : first + 2] = [v * (1.0 + stretch) for v in base[first : first + 2]]
                cases.append(values)
        outcomes = set()
        for values in cases:
            record = (values[:9], values[9:11], values[11:13], values[13])
            assert frame_fails([record]) == record_fails(*record), values
            outcomes.add(record_fails(*record))
        assert outcomes == {True, False}

    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from([0, 1, 1, 2, 3]).flatmap(records))
    def test_one_row_fails_exactly_when_the_record_does(self, record):
        assert frame_fails([record]) == record_fails(*record)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda c: st.lists(records(c), min_size=1, max_size=4)))
    def test_frame_fails_exactly_when_some_record_does(self, rows):
        assert frame_fails(rows) == any(record_fails(*row) for row in rows)

    def test_arrays_are_read_only_copies(self):
        boxes = np.array([[10.0, 0.0, 1.0, 0.0, 4.0, 2.0, 1.5, 0.0, 1.0]])
        frame = DetectionFrame.from_arrays(0.5, boxes, [[0.2, 0.8]], [[0.0, 0.0]], [0.5])
        assert boxes.flags.writeable
        assert not any(a.flags.writeable for a in (frame.boxes, frame.probs, frame.velocities, frame.scores))
        assert len(frame) == 1 and frame.labels.tolist() == [1]

    def test_detections_round_trip(self):
        scene = generate_scene(SceneConfig(n_objects=6, n_frames=2, seed=3))
        dets = render_detections(scene, NoiseModel(radial_std=0.2, false_positive_rate=2.0, seed=4))
        for frame in dets.frames:
            again = DetectionFrame(frame.t, frame.detections)
            for name in ("boxes", "probs", "velocities", "scores"):
                np.testing.assert_array_equal(getattr(again, name), getattr(frame, name))

    def test_empty_frame(self):
        frame = DetectionFrame(1.0)
        assert len(frame) == 0 and frame.detections == () and frame.labels.shape == (0,)
        assert frame.boxes.shape == (0, 9) and frame.velocities.shape == (0, 2)

    @pytest.mark.parametrize(
        "change", [(0, lambda a: a[:, :8]), (1, lambda a: a[0]), (2, lambda a: np.zeros((1, 3))),
                   (0, lambda a: np.repeat(a, 2, axis=0)), (3, lambda a: a[:, None])],
        ids=["box-width", "probs-1d", "velocity-width", "row-count", "scores-2d"],
    )
    def test_rejects_bad_shapes(self, change):
        arrays = [np.array([[10.0, 0.0, 1.0, 0.0, 4.0, 2.0, 1.5, 0.0, 1.0]]), np.array([[0.2, 0.8]]),
                  np.zeros((1, 2)), np.array([0.5])]
        DetectionFrame.from_arrays(0.0, *arrays)
        k, reshape = change
        arrays[k] = reshape(arrays[k])
        with pytest.raises(ValueError):
            DetectionFrame.from_arrays(0.0, *arrays)


def fails(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


def set_fails(times, frames):
    """Whether the one per-file check refuses frames of detection records."""
    rows = [row for frame in frames for row in frame]
    boxes, probs, velocities, scores = ([row[k] for row in rows] for k in range(4))
    if not rows:
        boxes, probs, velocities = np.empty((0, 9)), np.empty((0, 0)), np.empty((0, 2))
    return fails(lambda: DetectionSet.from_arrays(times, [len(f) for f in frames], boxes, probs, velocities, scores))


def frames_fail(times, frames):
    """Whether per-frame checks plus the set's own checks refuse the same frames."""
    if any(rows and frame_fails(rows) for rows in frames):
        return True
    built = tuple(
        DetectionFrame.from_arrays(t, *[[row[k] for row in rows] for k in range(4)]) if rows else DetectionFrame(t)
        for t, rows in zip(times, frames)
    )
    return fails(lambda: DetectionSet(frames=built))


# Frame times at and across the order and finiteness checks.
TIMES = [0.0, 0.5, 0.5, 1.0, -1.0, math.nan, math.inf, 5e-324]


class TestDetectionSetChecks:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda c: st.lists(st.lists(records(c), max_size=3), min_size=1, max_size=3)
        ),
        st.lists(st.sampled_from(TIMES), min_size=3, max_size=3),
    )
    def test_file_check_fails_exactly_when_frame_checks_do(self, frames, times):
        times = times[: len(frames)]
        assert set_fails(times, frames) == frames_fail(times, frames)

    def test_frames_are_read_only_slices(self):
        boxes = np.tile([10.0, 0.0, 1.0, 0.0, 4.0, 2.0, 1.5, 0.0, 1.0], (3, 1))
        dets = DetectionSet.from_arrays([0.0, 0.5], [1, 2], boxes, [[0.2, 0.8]] * 3, np.zeros((3, 2)), [0.5] * 3)
        assert [len(f) for f in dets.frames] == [1, 2] and [f.t for f in dets.frames] == [0.0, 0.5]
        assert dets.frames[1].boxes.base is dets.frames[0].boxes.base
        assert not any(a.flags.writeable for f in dets.frames for a in (f.boxes, f.probs, f.velocities, f.scores))

    @pytest.mark.parametrize("counts", [[1, 0], [2, 1], [-1, 3], [2]], ids=["short", "long", "negative", "one-frame"])
    def test_rejects_counts_that_do_not_add_up(self, counts):
        boxes = np.tile([10.0, 0.0, 1.0, 0.0, 4.0, 2.0, 1.5, 0.0, 1.0], (2, 1))
        with pytest.raises(ValueError):
            DetectionSet.from_arrays([0.0, 0.5], counts, boxes, [[1.0]] * 2, np.zeros((2, 2)), [0.5] * 2)


RIG = make_symmetric_rig(2)
# Values at and across every boundary the object checks draw: signed zeros
# and denormals for sizes, both yaw ends and their neighbours, non-finite
# values and the largest floats.
OBJECT_EDGES = [0.0, -0.0, 5e-324, -5e-324, math.pi, -math.pi, math.nextafter(math.pi, 4.0),
                math.nextafter(-math.pi, 0.0), 1.7976931348623157e308, math.nan, math.inf, -math.inf]
# Integers at and across the 64-bit range.
ID_EDGES = [0, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**30]


@st.composite
def scene_objects(draw):
    """A valid ground-truth object as plain values with up to two values swapped for edge values."""
    box = [draw(st.floats(-60.0, 60.0)), draw(st.floats(-60.0, 60.0)), draw(st.floats(-3.0, 3.0)),
           *draw(st.lists(st.floats(1e-3, 6.0), min_size=3, max_size=3)),
           draw(st.floats(-math.pi, math.pi, exclude_min=True))]
    values = box + draw(st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=2))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(OBJECT_EDGES))
    ids = [draw(st.one_of(st.integers(0, 9), st.integers(-9, -1), st.sampled_from(ID_EDGES))) for _ in range(2)]
    return ids[0], ids[1], values[:7], values[7:]


def object_fails(object_id, label, box, velocity):
    return fails(lambda: SceneObject(object_id, label, CartesianBox(*box), CartesianVelocity(*velocity)))


def scene_arrays_fail(times, rows_per_frame, poses=None):
    rows = [row for frame in rows_per_frame for row in frame]
    poses = poses or [(np.eye(3), np.zeros(3))] * len(times)
    return fails(lambda: Scene.from_arrays(
        RIG, times, [len(f) for f in rows_per_frame], [p[0] for p in poses], [p[1] for p in poses],
        [r[0] for r in rows], [r[1] for r in rows], np.reshape([r[2] for r in rows], (-1, 7)),
        np.reshape([r[3] for r in rows], (-1, 2)),
    ))


@st.composite
def ego_poses(draw):
    """A rotation about z scaled across the orthonormality and determinant
    tolerances, sometimes a reflection, and a translation with an edge value."""
    stretch = draw(st.sampled_from([0.0, 0.0, 3.3e-10, 3.4e-10, 4.9e-10, 5.1e-10, -5.1e-10, 1e-3]))
    rotation = rotation_about_z(draw(st.floats(-math.pi, math.pi))) * (1.0 + stretch)
    if draw(st.booleans()) and draw(st.booleans()):
        rotation[:, 2] *= -1.0
    translation = draw(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))
    if draw(st.booleans()):
        values = rotation.reshape(-1) if draw(st.booleans()) else translation
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([math.nan, math.inf, 1e308]))
    return rotation, np.array(translation)


class TestSceneArrayChecks:
    def test_each_edge_value_at_each_position_fails_alike(self):
        base = (3, 1, [10.0, -4.0, 0.5, 4.0, 2.0, 1.5, 0.3], [1.0, -2.0])
        cases = [(i, c, base[2], base[3]) for i in ID_EDGES for c in (1, i)]
        for k in range(9):
            for value in OBJECT_EDGES:
                values = base[2] + base[3]
                values[k] = value
                cases.append((3, 1, values[:7], values[7:]))
        outcomes = set()
        for row in cases:
            assert scene_arrays_fail([0.0], [[row]]) == object_fails(*row), row
            outcomes.add(object_fails(*row))
        assert outcomes == {True, False}

    @settings(max_examples=1000, deadline=None)
    @given(scene_objects())
    def test_one_row_fails_exactly_when_the_object_does(self, row):
        assert scene_arrays_fail([0.0], [[row]]) == object_fails(*row)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(ego_poses(), min_size=1, max_size=3))
    def test_poses_fail_exactly_when_an_ego_pose_does(self, poses):
        times = [0.5 * n for n in range(len(poses))]
        expected = any(fails(lambda: EgoPose(rotation, translation)) for rotation, translation in poses)
        assert scene_arrays_fail(times, [[]] * len(poses), poses) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 3), max_size=4), min_size=1, max_size=3),
        st.lists(st.sampled_from(TIMES), min_size=3, max_size=3),
    )
    def test_scene_fails_exactly_when_the_object_path_does(self, ids_per_frame, times):
        times = times[: len(ids_per_frame)]
        box, velocity = [10.0, -4.0, 0.5, 4.0, 2.0, 1.5, 0.3], [1.0, -2.0]
        rows = [[(i, 1, box, velocity) for i in ids] for ids in ids_per_frame]

        def from_objects():
            frames = tuple(
                SceneFrame(t, EgoPose.identity(t), [SceneObject(i, c, CartesianBox(*b), CartesianVelocity(*v))
                                                    for i, c, b, v in frame])
                for t, frame in zip(times, rows)
            )
            return Scene(rig=RIG, frames=frames)

        assert scene_arrays_fail(times, rows) == fails(from_objects)

    def test_objects_and_pose_round_trip(self):
        scene = generate_scene(SceneConfig(n_objects=5, n_frames=3, ego_motion="arc", seed=8))
        for frame in scene.frames:
            again = SceneFrame(frame.t, frame.ego_pose, frame.objects)
            for name in ("pose_rotation", "pose_translation", "ids", "classes", "boxes", "velocities"):
                np.testing.assert_array_equal(getattr(again, name), getattr(frame, name))
            assert again.ids.dtype == again.classes.dtype == np.int64 and frame.ego_pose.dt == frame.t

    def test_frames_are_read_only_slices(self):
        scene = generate_scene(SceneConfig(n_objects=4, n_frames=3, seed=2))
        first, second = scene.frames[:2]
        assert second.boxes.base is first.boxes.base and len(second) == 4
        names = ("pose_rotation", "pose_translation", "ids", "classes", "boxes", "velocities")
        assert not any(getattr(f, name).flags.writeable for f in scene.frames for name in names)

    @pytest.mark.parametrize(
        "change",
        [("counts", [1, 2]), ("counts", [2]), ("boxes", np.ones((2, 6))), ("velocities", np.zeros((2, 3))),
         ("ids", [0]), ("classes", [0.0, 1.0]), ("ids", [True, False]), ("rotations", [np.eye(3)]),
         ("translations", np.zeros((2, 2)))],
        ids=["count-sum", "count-frames", "box-width", "velocity-width", "id-count", "float-class", "bool-id",
             "pose-count", "translation-width"],
    )
    def test_rejects_bad_shapes_and_types(self, change):
        arrays = dict(times=[0.0, 0.5], counts=[1, 1], rotations=[np.eye(3)] * 2, translations=np.zeros((2, 3)),
                      ids=[0, 0], classes=[1, 1], boxes=[[10.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0]] * 2,
                      velocities=np.zeros((2, 2)))
        Scene.from_arrays(RIG, **arrays)
        name, value = change
        arrays[name] = value
        with pytest.raises(ValueError):
            Scene.from_arrays(RIG, **arrays)


class TestSceneConfigFinite:
    @pytest.mark.parametrize("field", ["dt", "r_max", "speed_min", "speed_max", "ego_speed", "ego_yaw_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            SceneConfig(**{field: value})
