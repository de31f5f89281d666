import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarview.camera import make_symmetric_rig, project_rig
from polarview.geometry import (
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
    SceneConfig,
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


class TestSceneConfigFinite:
    @pytest.mark.parametrize("field", ["dt", "r_max", "speed_min", "speed_max", "ego_speed", "ego_yaw_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            SceneConfig(**{field: value})
