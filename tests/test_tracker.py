import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarview.assignment import hungarian
from polarview.camera import EgoPose, make_symmetric_rig
from polarview.geometry import (
    CartesianBox,
    CartesianVelocity,
    PolarBox,
    PolarVelocity,
    planar_distances,
    polar_centers,
)
from polarview.simulator import (
    Detection,
    DetectionFrame,
    DetectionSet,
    NoiseModel,
    Scene,
    SceneFrame,
    SceneObject,
    render_detections,
)
from polarview.tracker import (
    TrackerConfig,
    _greedy_match,
    TrackerState,
    back_project,
    count_id_switches,
    match_tracks,
    run_tracker,
    step,
)


def polar_at(x, y, yaw=0.0):
    r = math.hypot(x, y)
    return PolarBox(
        r=r, sin_a=y / r, cos_a=x / r, z=0.0, l=4.0, w=2.0, h=1.5,
        sin_t=math.sin(yaw), cos_t=math.cos(yaw),
    )


def detection_at(x, y, label=0, score=1.0, v_rad=0.0, v_tan=0.0, n_classes=2):
    probs = np.zeros(n_classes)
    probs[label] = 1.0
    return Detection(
        box=polar_at(x, y), probs=probs,
        velocity=PolarVelocity(v_rad=v_rad, v_tan=v_tan), score=score,
    )


def frame(*detections):
    return DetectionFrame(t=0.0, detections=detections)


def manual_scene(trajectories, n_frames, dt=0.5, labels=None):
    """trajectories: list of ((x0, y0), (vx, vy)) in a static ego frame."""
    labels = labels or [0] * len(trajectories)
    frames = []
    for n in range(n_frames):
        t = n * dt
        objects = tuple(
            SceneObject(
                object_id=i,
                label=labels[i],
                box=CartesianBox(x0 + vx * t, y0 + vy * t, 0.0, 4.0, 2.0, 1.5, 0.0),
                velocity=CartesianVelocity(vx, vy),
            )
            for i, ((x0, y0), (vx, vy)) in enumerate(trajectories)
        )
        frames.append(SceneFrame(t=t, ego_pose=EgoPose.identity(dt=t), objects=objects))
    return Scene(rig=make_symmetric_rig(6), frames=tuple(frames))


class TestBackProject:
    def test_zero_velocity_unchanged(self):
        center = back_project(polar_at(10.0, 0.0).as_array(), np.array([0.0, 0.0]), 0.5)
        np.testing.assert_allclose(center, [10.0, 0.0])

    def test_radial_motion(self):
        # cartesian velocity (2, 0) at azimuth 0 is purely radial
        center = back_project(polar_at(10.0, 0.0).as_array(), np.array([2.0, 0.0]), 0.5)
        np.testing.assert_allclose(center, [9.0, 0.0])

    def test_pure_tangential(self):
        center = back_project(polar_at(10.0, 0.0).as_array(), np.array([0.0, 2.0]), 0.5)
        np.testing.assert_allclose(center, [10.0, -1.0])

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            back_project(polar_at(10.0, 0.0).as_array(), np.array([0.0, 0.0]), 0.0)


def reference_greedy(dist, allowed):
    # plain sort-then-claim over (distance, row, column) tuples
    candidates = sorted(
        (float(dist[r, c]), r, c)
        for r in range(dist.shape[0])
        for c in range(dist.shape[1])
        if allowed[r, c]
    )
    used_r, used_c, pairs = set(), set(), []
    for _, r, c in candidates:
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        pairs.append((r, c))
    return pairs


class TestDistancesAndGreedy:
    def test_greedy_matches_reference_loop_under_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m, n = rng.integers(1, 8, size=2)
            dist = rng.integers(0, 4, size=(m, n)).astype(np.float64)  # few values: exact ties
            allowed = rng.random((m, n)) < 0.7
            assert _greedy_match(dist, allowed) == reference_greedy(dist, allowed)

    def test_greedy_empty_and_all_gated(self):
        assert _greedy_match(np.zeros((0, 3)), np.zeros((0, 3), dtype=bool)) == []
        assert _greedy_match(np.ones((3, 4)), np.zeros((3, 4), dtype=bool)) == []


class TestConfig:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_threshold(self, threshold):
        with pytest.raises(ValueError):
            TrackerConfig(distance_threshold=threshold)


class TestMatching:
    def test_exact_overlap_matches(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0)), 0.5)
        matches, unmatched_d, unmatched_t = match_tracks(state, frame(detection_at(10.0, 0.0)), 0.5)
        assert matches == [(0, 0)]
        assert not unmatched_d and not unmatched_t

    def test_threshold_boundary(self):
        config = TrackerConfig(distance_threshold=2.0)
        state = TrackerState(config=config)
        step(state, frame(detection_at(10.0, 0.0)), 0.5)
        inside, _, _ = match_tracks(state, frame(detection_at(12.0, 0.0)), 0.5)
        assert inside == [(0, 0)]  # exactly at threshold counts
        outside, ud, ut = match_tracks(state, frame(detection_at(12.0 + 1e-6, 0.0)), 0.5)
        assert outside == [] and ud == [0] and ut == [0]

    def test_class_gate(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0, label=0)), 0.5)
        matches, ud, _ = match_tracks(state, frame(detection_at(10.0, 0.0, label=1)), 0.5)
        assert matches == [] and ud == [0]

    def test_no_crossing_when_well_separated(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0), detection_at(20.0, 0.0)), 0.5)
        dets = frame(detection_at(20.3, 0.0), detection_at(10.3, 0.0))  # swapped order
        matches, _, _ = match_tracks(state, dets, 0.5)
        assert sorted(matches) == [(0, 1), (1, 0)]

    def test_greedy_prefers_closest_pair(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0), detection_at(11.0, 0.0)), 0.5)
        # one detection between both tracks, nearer the second
        matches, _, _ = match_tracks(state, frame(detection_at(10.9, 0.0)), 0.5)
        assert matches == [(0, 1)]

    def test_hungarian_alternative_minimizes_total(self):
        config = TrackerConfig(distance_threshold=5.0, matching="hungarian")
        state = TrackerState(config=config)
        step(state, frame(detection_at(10.0, 0.0), detection_at(13.0, 0.0)), 0.5)
        # greedy would grab (det0, track1) at 1.4 and strand det1 at 4.4 total;
        # optimal pairing is det0-track0 (2.4) + det1-track1 (1.6)
        dets = frame(detection_at(12.4, 0.0), detection_at(14.6, 0.0))
        matches, _, _ = match_tracks(state, dets, 0.5)
        assert sorted(matches) == [(0, 0), (1, 1)]


class TestStep:
    def test_fresh_state_spawns_tracks(self):
        state = TrackerState()
        ids = step(state, frame(*(detection_at(10.0 + 5 * i, 0.0) for i in range(4))), 0.5)
        assert ids == [0, 1, 2, 3]
        assert state.created == 4
        assert state.tracks.tolist() == [0, 1, 2, 3]
        assert state.misses.tolist() == [0, 0, 0, 0]
        np.testing.assert_array_equal(state.centers, [[10.0 + 5 * i, 0.0] for i in range(4)])

    def test_ids_never_reused(self):
        state = TrackerState(config=TrackerConfig(max_misses=0))
        step(state, frame(detection_at(10.0, 0.0)), 0.5)
        step(state, frame(), 0.5)  # track retires
        ids = step(state, frame(detection_at(10.0, 0.0)), 0.5)
        assert ids == [1]

    def test_retirement_after_max_misses(self):
        state = TrackerState(config=TrackerConfig(max_misses=2))
        step(state, frame(detection_at(10.0, 0.0)), 0.5)
        step(state, frame(), 0.5)
        step(state, frame(), 0.5)
        assert len(state.tracks) == 1  # still within the miss budget
        step(state, frame(), 0.5)
        assert len(state.tracks) == 0

    def test_matched_track_updates_state(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0, score=0.9)), 0.5)
        step(state, frame(detection_at(10.5, 0.0, score=0.7)), 0.5)
        assert state.tracks.tolist() == [0] and state.misses.tolist() == [0]
        assert state.centers[0, 0] == pytest.approx(10.5)

    def test_unmatched_row_counts_misses(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0), detection_at(20.0, 0.0)), 0.5)
        step(state, frame(detection_at(20.0, 0.0)), 0.5)
        assert state.tracks.tolist() == [0, 1] and state.misses.tolist() == [1, 0]


@dataclass
class ReferenceTrack:
    """One track as a Python record: the per-track reference that the row state must reproduce."""

    track_id: int
    box: np.ndarray
    velocity: np.ndarray
    label: int
    score: float
    age: int = 1
    misses: int = 0

    def center(self):
        return polar_centers(self.box)


def reference_step(config, tracks, created, frame, dt):
    """One frame of the per-track loop; returns (ids per detection, surviving tracks, tracks created)."""
    matches = []
    if len(frame) and tracks:
        det_centers = back_project(frame.boxes, frame.velocities, dt)
        dist = planar_distances(det_centers, np.array([t.center() for t in tracks]))
        trk_labels = np.array([t.label for t in tracks])
        allowed = (frame.labels[:, None] == trk_labels[None, :]) & (dist <= config.distance_threshold)
        if config.matching == "hungarian":
            big = config.distance_threshold * (min(dist.shape) + 1) + 1.0
            gated = np.where(allowed, dist, big)
            matches = [(di, ti) for di, ti in hungarian(gated).pairs if gated[di, ti] < big]
        else:
            matches = reference_greedy(dist, allowed)
    assigned = [-1] * len(frame)
    for di, ti in matches:
        track = tracks[ti]
        track.box, track.velocity = frame.boxes[di], frame.velocities[di]
        track.score, track.age, track.misses = float(frame.scores[di]), track.age + 1, 0
        assigned[di] = track.track_id
    matched_t = {ti for _, ti in matches}
    survivors = []
    for ti, track in enumerate(tracks):
        if ti not in matched_t:
            track.age += 1
            track.misses += 1
        if track.misses <= config.max_misses:
            survivors.append(track)
    labels = frame.labels.tolist()
    for di in range(len(frame)):
        if assigned[di] == -1:
            survivors.append(ReferenceTrack(created, frame.boxes[di], frame.velocities[di], labels[di],
                                            float(frame.scores[di])))
            assigned[di] = created
            created += 1
    return assigned, survivors, created


# a detection on a 1 m grid (so distances tie, also at the 2 m gate): x offset, y, label, v_rad, v_tan
grid_detection = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1), st.sampled_from([-2.0, 0.0, 2.0]),
    st.sampled_from([-2.0, 0.0, 2.0]),
)


class TestRowsMatchPerTrackLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(grid_detection, max_size=6), min_size=1, max_size=8),
        st.integers(0, 2),
        st.sampled_from(["greedy", "hungarian"]),
    )
    def test_same_ids_and_rows(self, sequence, max_misses, matching):
        config = TrackerConfig(max_misses=max_misses, matching=matching)
        frames = tuple(
            DetectionFrame(t=0.5 * n, detections=tuple(
                detection_at(10.0 + x, float(y), label=label, v_rad=v_rad, v_tan=v_tan)
                for x, y, label, v_rad, v_tan in dets
            ))
            for n, dets in enumerate(sequence)
        )
        state, tracks, created, expected = TrackerState(config=config), [], 0, []
        for n, det_frame in enumerate(frames):
            dt = 1.0 if n == 0 else 0.5  # as run_tracker steps
            ids, tracks, created = reference_step(config, tracks, created, det_frame, dt)
            assert step(state, det_frame, dt) == ids
            assert state.tracks.tolist() == [t.track_id for t in tracks]
            assert state.labels.tolist() == [t.label for t in tracks]
            assert state.misses.tolist() == [t.misses for t in tracks]
            assert state.centers.tobytes() == np.reshape([t.center() for t in tracks], (-1, 2)).tobytes()
            assert state.created == created
            expected.append(ids)
        result = run_tracker(DetectionSet(frames=frames), config)
        assert [ids.tolist() for ids in result.track_ids] == expected
        assert result.tracks_created == created


class TestSequences:
    def test_constant_velocity_ids_stable(self):
        scene = manual_scene(
            [((10.0, 0.0), (1.0, 0.0)), ((0.0, 20.0), (0.0, -1.0))], n_frames=20
        )
        dets = render_detections(scene, NoiseModel())
        result = run_tracker(dets)
        assert result.tracks_created == 2
        assert count_id_switches(result, scene) == 0
        first = {tid for tid, _ in result.frames[0]}
        for frame in result.frames:
            assert {tid for tid, _ in frame} == first

    def test_drop_and_reappear_creates_new_id(self):
        scene = manual_scene([((10.0, 0.0), (0.5, 0.0))], n_frames=10)
        dets = render_detections(scene, NoiseModel())
        frames = list(dets.frames)
        for n in range(3, 6):  # gone for max_misses + 1 = 3 frames
            frames[n] = DetectionFrame(t=frames[n].t, detections=())
        gapped = DetectionSet(frames=tuple(frames))
        result = run_tracker(gapped, TrackerConfig(max_misses=2))
        assert result.tracks_created == 2
        assert count_id_switches(result, scene) == 1

    def test_short_gap_keeps_id(self):
        scene = manual_scene([((10.0, 0.0), (0.5, 0.0))], n_frames=10)
        dets = render_detections(scene, NoiseModel())
        frames = list(dets.frames)
        for n in range(3, 5):  # gone for exactly max_misses frames
            frames[n] = DetectionFrame(t=frames[n].t, detections=())
        result = run_tracker(DetectionSet(frames=tuple(frames)), TrackerConfig(max_misses=2))
        assert result.tracks_created == 1
        assert count_id_switches(result, scene) == 0

    def test_identity_exchange_counts_switches(self):
        # two static objects exchange positions halfway through; the tracks
        # stay where the detections are, so each object switches track once
        spots = [(10.0, 1.0), (10.0, -1.0)]
        frames = []
        for n in range(4):
            placed = spots if n < 2 else spots[::-1]
            objects = tuple(
                SceneObject(
                    object_id=i,
                    label=0,
                    box=CartesianBox(x, y, 0.0, 4.0, 2.0, 1.5, 0.0),
                    velocity=CartesianVelocity(0.0, 0.0),
                )
                for i, (x, y) in enumerate(placed)
            )
            frames.append(
                SceneFrame(t=0.5 * n, ego_pose=EgoPose.identity(dt=0.5 * n), objects=objects)
            )
        scene = Scene(rig=make_symmetric_rig(6), frames=tuple(frames))
        dets = render_detections(scene, NoiseModel())
        result = run_tracker(dets, TrackerConfig(distance_threshold=5.0))
        switches = count_id_switches(result, scene)

        # independent recount: nearest-track bookkeeping per ground-truth id
        last = {}
        expected = 0
        for frame_out, frame_gt in zip(result.frames, scene.frames):
            for obj in frame_gt.objects:
                tid = min(
                    frame_out,
                    key=lambda td: math.hypot(
                        td[1].box.center_xy()[0] - obj.box.x,
                        td[1].box.center_xy()[1] - obj.box.y,
                    ),
                )[0]
                if obj.object_id in last and last[obj.object_id] != tid:
                    expected += 1
                last[obj.object_id] = tid
        assert expected == 2
        assert switches == expected

    def test_separation_invariant_zero_switches(self):
        rng = np.random.default_rng(52)
        trajectories = []
        for i in range(5):
            angle = 2 * math.pi * i / 5
            trajectories.append(
                (
                    (25 * math.cos(angle), 25 * math.sin(angle)),
                    tuple(rng.uniform(-0.5, 0.5, size=2)),
                )
            )
        scene = manual_scene(trajectories, n_frames=20)
        dets = render_detections(scene, NoiseModel())
        result = run_tracker(dets)
        assert result.tracks_created == 5
        assert count_id_switches(result, scene) == 0
