"""Acceptance suite: one criterion per test, one [PASS]/[FAIL] line each.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
lines (they are also captured in the normal run).  Each criterion carries
the runtime budget it must meet on a commodity machine.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _published import TEST_ROWS, VAL_ROWS
from polarview.assignment import (
    brute_force_assign,
    build_cost_matrix,
    filter_perception_range,
    hungarian,
    range_ambiguity_fixture,
    scaling_ambiguity_fixture,
)
from polarview.camera import make_symmetric_rig, max_rotation_discrepancy, project_rig
from polarview.geometry import (
    CartesianBox,
    CartesianVelocity,
    RangeConfig,
    decode_boxes,
    encode_boxes,
    velocity_cartesian_to_polar,
    velocity_polar_to_cartesian,
)
from polarview.loss import (
    finite_difference_gradient,
    loss_gradient,
    random_gradient_fixture,
)
from polarview.metrics import nds
from polarview.sampling import FeatureMap, bilinear_sample
from polarview.simulator import (
    DetectionFrame,
    DetectionSet,
    NoiseModel,
    Scene,
    SceneFrame,
    SceneObject,
    render_detections,
)
from polarview.camera import EgoPose
from polarview.tracker import TrackerConfig, count_id_switches, run_tracker

RC = RangeConfig()


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"[FAIL] {name} (runtime {elapsed:.2f}s over {budget_s:g}s budget)")
        raise AssertionError(f"{name}: runtime {elapsed:.2f}s exceeds {budget_s:g}s")
    print(f"[PASS] {name} ({elapsed:.2f}s < {budget_s:g}s)")


def test_criterion_1_nds_reproduces_published_rows():
    with criterion("1 composite-score formula reproduces published rows", 1.0):
        for name, m_ap, *tps, published in VAL_ROWS + TEST_ROWS:
            score = nds(m_ap, tps)
            assert abs(score - published) <= 0.002, (name, score, published)
        assert len(VAL_ROWS) >= 6 and len(TEST_ROWS) == 5
        # spot values
        assert f"{nds(0.338, [0.768, 0.284, 0.443, 0.883, 0.221]):.3f}" == "0.409"
        assert f"{nds(0.346, [0.773, 0.268, 0.383, 0.842, 0.216]):.3f}" == "0.425"
        assert f"{nds(0.431, [0.588, 0.253, 0.408, 0.845, 0.129]):.3f}" == "0.493"


def test_criterion_2_decode_encode_roundtrip_10k():
    with criterion("2 decode/encode roundtrip on 10k interior boxes", 5.0):
        rng = np.random.default_rng(202)
        n = 10_000
        angles = rng.uniform(-math.pi, math.pi, size=(n, 2))
        boxes = np.column_stack(
            [
                rng.uniform(0.5, RC.r_max - 0.5, n),
                np.sin(angles[:, 0]),
                np.cos(angles[:, 0]),
                rng.uniform(RC.z_min + 0.2, RC.z_max - 0.2, n),
                rng.uniform(0.3, 6.0, n),
                rng.uniform(0.3, 3.0, n),
                rng.uniform(0.3, 3.0, n),
                np.sin(angles[:, 1]),
                np.cos(angles[:, 1]),
            ]
        )
        decoded = decode_boxes(encode_boxes(boxes, RC), RC)
        rel = np.abs(decoded - boxes) / np.maximum(np.abs(boxes), 1e-300)
        assert rel.max() < 1e-9
        # decoded boxes satisfy the polar-box invariants
        assert (decoded[:, 0] >= 0.0).all()
        assert np.abs(decoded[:, 1] ** 2 + decoded[:, 2] ** 2 - 1.0).max() <= 1e-9
        assert np.abs(decoded[:, 7] ** 2 + decoded[:, 8] ** 2 - 1.0).max() <= 1e-9
        assert (decoded[:, 4:7] > 0.0).all()
        assert np.isfinite(decoded).all()


def test_criterion_3_assignment_optimality():
    with criterion("3 Hungarian equals brute force on 600 random matrices", 10.0):
        rng = np.random.default_rng(303)
        for _ in range(500):
            m, n = rng.integers(1, 6, size=2)
            costs = rng.uniform(-5.0, 5.0, size=(m, n))
            assert hungarian(costs).total_cost(costs) == brute_force_assign(costs).total_cost(costs)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            if m == n:
                n = m + int(rng.integers(1, 4))
            costs = rng.uniform(-5.0, 5.0, size=(m, n))
            h = hungarian(costs)
            assert len(h) == min(m, n)
            assert h.total_cost(costs) == brute_force_assign(costs).total_cost(costs)


def test_criterion_4_view_symmetry_suite():
    with criterion("4 view symmetry: rotation maps view k to view k+1", 1.0):
        rig = make_symmetric_rig(6)
        rng = np.random.default_rng(404)
        points = []
        while len(points) < 100:
            r = rng.uniform(5.0, 40.0)
            a = rng.uniform(-math.pi, math.pi)
            p = np.array([r * math.cos(a), r * math.sin(a), rng.uniform(-1.0, 1.0)])
            if any(pix is not None for pix in project_rig(p, rig)):
                points.append(p)
        max_px, max_depth = max_rotation_discrepancy(rig, np.array(points))
        assert max_px < 1e-9
        assert max_depth < 1e-9


def test_criterion_5_scaling_factor_flip():
    with criterion("5 azimuth scaling flips the assignment argmin", 1.0):
        gts, preds = scaling_ambiguity_fixture()
        azimuth_near = {(0, 0), (1, 1)}

        low = build_cost_matrix(preds, gts, 1.0)
        low_best = brute_force_assign(low)
        assert set(low_best.pairs) != azimuth_near  # tangentially wrong
        assert set(hungarian(low).pairs) == set(low_best.pairs)

        high = build_cost_matrix(preds, gts, 20.0)
        high_best = brute_force_assign(high)
        assert set(high_best.pairs) == azimuth_near  # correct
        assert set(hungarian(high).pairs) == azimuth_near


def test_criterion_6_perception_range_ambiguity():
    with criterion("6 circular vs rectangular range on an equal-radius pair", 1.0):
        objects, circular, rectangular = range_ambiguity_fixture()
        r0 = math.hypot(objects[0].x, objects[0].y)
        r1 = math.hypot(objects[1].x, objects[1].y)
        assert abs(r0 - r1) < 1e-9  # equal radial distance
        kept_c, dropped_c = filter_perception_range(objects, circular)
        assert len(kept_c) == 2 and not dropped_c
        kept_r, dropped_r = filter_perception_range(objects, rectangular)
        assert len(kept_r) == 1 and len(dropped_r) == 1


def test_criterion_7_gradient_checks():
    with criterion("7 analytic gradients vs finite differences (200 fixtures)", 10.0):
        rng = np.random.default_rng(707)
        worst = 0.0
        for _ in range(200):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            analytic = loss_gradient(enc, vel, gt_box, gt_vel, RC)
            numeric = finite_difference_gradient(enc, vel, gt_box, gt_vel, RC, step=1e-6)
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
        assert worst < 1e-5


def test_criterion_8_velocity_decomposition_10k():
    with criterion("8 velocity decomposition roundtrip on 10k samples", 1.0):
        rng = np.random.default_rng(808)
        angles = rng.uniform(-math.pi, math.pi, size=10_000)
        velocities = rng.normal(0.0, 5.0, size=(10_000, 2))
        worst = 0.0
        for a, (vx, vy) in zip(angles, velocities):
            sin_a, cos_a = math.sin(a), math.cos(a)
            v = CartesianVelocity(vx, vy)
            pv = velocity_cartesian_to_polar(v, sin_a, cos_a)
            back = velocity_polar_to_cartesian(pv, sin_a, cos_a)
            worst = max(
                worst,
                abs(pv.norm() - v.norm()),
                abs(back.v_x - vx),
                abs(back.v_y - vy),
            )
        assert worst < 1e-12


def _ring_scene(n_objects=5, n_frames=20, dt=0.5):
    rng = np.random.default_rng(909)
    frames = []
    starts = []
    for i in range(n_objects):
        angle = 2.0 * math.pi * i / n_objects
        starts.append(
            (
                np.array([25.0 * math.cos(angle), 25.0 * math.sin(angle)]),
                rng.uniform(-0.4, 0.4, size=2),
            )
        )
    for n in range(n_frames):
        t = n * dt
        objects = tuple(
            SceneObject(
                object_id=i,
                label=0,
                box=CartesianBox(p0[0] + v[0] * t, p0[1] + v[1] * t, 0.0, 4.0, 2.0, 1.5, 0.0),
                velocity=CartesianVelocity(v[0], v[1]),
            )
            for i, (p0, v) in enumerate(starts)
        )
        frames.append(SceneFrame(t=t, ego_pose=EgoPose.identity(dt=t), objects=objects))
    return Scene(rig=make_symmetric_rig(6), frames=tuple(frames))


def test_criterion_9_tracker_stability():
    with criterion("9 tracker id stability and forced-drop respawn", 1.0):
        scene = _ring_scene()
        dets = render_detections(scene, NoiseModel())
        result = run_tracker(dets, TrackerConfig(distance_threshold=2.0, max_misses=2))
        assert result.tracks_created == 5
        assert count_id_switches(result, scene) == 0
        first_ids = {tid for tid, _ in result.frames[0]}
        assert all({tid for tid, _ in frame} == first_ids for frame in result.frames)

        # drop object 0 for max_misses + 1 frames: exactly one new id appears
        frames = list(dets.frames)
        for n in range(8, 11):
            keep = tuple(
                det
                for det, obj in zip(frames[n].detections, scene.frames[n].objects)
                if obj.object_id != 0
            )
            frames[n] = DetectionFrame(t=frames[n].t, detections=keep)
        gapped = DetectionSet(frames=tuple(frames))
        regress = run_tracker(gapped, TrackerConfig(distance_threshold=2.0, max_misses=2))
        assert regress.tracks_created == 6
        assert count_id_switches(regress, scene) == 1


def test_criterion_10_sampling_rules():
    with criterion("10 bilinear identity, neighbor bounds, zero rule", 2.0):
        rng = np.random.default_rng(1010)
        data = rng.uniform(0.5, 9.5, size=(7, 9, 3))  # strictly positive
        fmap = FeatureMap(data=data)
        # grid-point identity, exact
        for v in range(7):
            for u in range(9):
                sample = bilinear_sample(fmap, float(u), float(v))
                assert sample.valid
                assert np.array_equal(sample.values, data[v, u])
        # neighbor bounds on 1000 random in-grid samples
        for _ in range(1000):
            u = rng.uniform(0.0, 8.0)
            v = rng.uniform(0.0, 6.0)
            sample = bilinear_sample(fmap, u, v)
            i0, j0 = int(u), int(v)
            i1, j1 = min(i0 + 1, 8), min(j0 + 1, 6)
            corners = data[[j0, j0, j1, j1], [i0, i1, i0, i1]]
            assert np.all(sample.values >= corners.min(axis=0) - 1e-12)
            assert np.all(sample.values <= corners.max(axis=0) + 1e-12)
        # zero rule: validity iff nonzero, exactly
        for _ in range(500):
            u = rng.uniform(-4.0, 13.0)
            v = rng.uniform(-4.0, 11.0)
            sample = bilinear_sample(fmap, u, v)
            assert sample.valid == bool(np.any(sample.values != 0.0))
            if not sample.valid:
                assert np.all(sample.values == 0.0)
