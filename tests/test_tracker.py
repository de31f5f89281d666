import math
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _frame_loops import frame_by_frame_id_switches, frame_loop_track_ids, reference_greedy
from polarview import tracker
from polarview.assignment import hungarian
from polarview.camera import EgoPose, make_symmetric_rig
from polarview.geometry import (
    CartesianBox,
    CartesianVelocity,
    PolarBox,
    PolarVelocity,
    planar_distances,
    polar_centers,
    polar_fields,
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
    TrackingResult,
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
        # 0 * inf is NaN: a non-finite dt would give NaN centers, which match nothing
        for dt in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                back_project(polar_at(10.0, 0.0).as_array(), np.array([0.0, 0.0]), dt)


# detection centers on the axes, where polar_centers gives the integers back exactly
AXIS_POINTS = [(float(s * k), 0.0) for s in (1, -1) for k in (1, 2, 3)] + [
    (0.0, float(s * k)) for s in (1, -1) for k in (1, 2, 3)
]


def greedy_state(centers, labels):
    """A greedy tracker state whose track rows sit at ``centers`` with ``labels``, ids 0, 1, ..."""
    n = len(labels)
    return TrackerState(
        tracks=np.arange(n, dtype=np.int64), centers=np.reshape(np.asarray(centers, dtype=np.float64), (n, 2)),
        labels=np.asarray(labels, dtype=np.intp), misses=np.zeros(n, dtype=np.int64), created=n,
    )


def terms(det_frame, dt):
    """A frame's detections as ``match_tracks`` takes them: back-projected centers by ``dt``, and labels."""
    return back_project(det_frame.boxes, det_frame.velocities, dt), det_frame.labels


def reference_matches(state, det_frame, dt):
    """Greedy ``match_tracks`` pairs as the dense reference finds them: one (N, T) matrix and mask."""
    dist = planar_distances(back_project(det_frame.boxes, det_frame.velocities, dt), state.centers)
    allowed = (det_frame.labels[:, None] == state.labels[None, :]) & (dist <= state.config.distance_threshold)
    return sorted(reference_greedy(dist, allowed))


class TestDistancesAndGreedy:
    def test_greedy_matches_reference_loop_under_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m, n = rng.integers(1, 8, size=2)
            # integer centers: equal distances tie exactly, and some lie on the 2 m gate
            det_frame = frame(*(detection_at(*AXIS_POINTS[i], label=int(label))
                                for i, label in zip(rng.integers(0, len(AXIS_POINTS), size=m),
                                                    rng.integers(0, 2, size=m))))
            state = greedy_state(rng.integers(-3, 4, size=(n, 2)), rng.integers(0, 2, size=n))
            matches, unmatched_d, unmatched_t = match_tracks(state, *terms(det_frame, 0.5))
            assert matches == reference_matches(state, det_frame, 0.5)
            assert unmatched_d == sorted(set(range(m)) - {di for di, _ in matches})
            assert unmatched_t == sorted(set(range(n)) - {ti for _, ti in matches})

    def test_greedy_empty_and_all_gated(self):
        state = greedy_state([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]], [0, 0, 1])
        assert match_tracks(state, *terms(frame(), 0.5)) == ([], [], [0, 1, 2])
        assert match_tracks(greedy_state([], []), *terms(frame(detection_at(1.0, 0.0)), 0.5)) == ([], [0], [])
        # every cell is gated: the near ones by class, the same-class ones by distance
        dets = frame(detection_at(1.0, 0.0, label=1), detection_at(0.0, 3.0, label=0),
                     detection_at(-3.0, 0.0, label=0))
        assert reference_matches(state, dets, 0.5) == []
        assert match_tracks(state, *terms(dets, 0.5)) == ([], [0, 1, 2], [0, 1, 2])


class TestGreedyMemory:
    def test_peak_grows_with_the_gated_cells_not_with_n_times_t(self):
        # two frames of the same 2000 detections, spread over a 1 km square: the second frame's
        # 2000 x 2000 distances alone would take 32 MB, while few cells lie within the 2 m gate
        n = 2000
        xy = np.random.default_rng(11).uniform(-500.0, 500.0, size=(n, 2))
        boxes = np.reshape([polar_fields(x, y, 0.0, 4.0, 2.0, 1.5, 0.0) for x, y in xy.tolist()], (n, 9))
        detections = DetectionSet.from_arrays([0.0, 0.5], [n, n], np.tile(boxes, (2, 1)), np.ones((2 * n, 1)),
                                              np.zeros((2 * n, 2)), np.ones(2 * n))
        tracemalloc.start()
        try:
            result = run_tracker(detections)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.tracks_created == n
        assert result.track_ids[1].tolist() == result.track_ids[0].tolist()
        assert peak < n * n * 8


class TestConfig:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_threshold(self, threshold):
        with pytest.raises(ValueError):
            TrackerConfig(distance_threshold=threshold)


class TestMatching:
    def test_exact_overlap_matches(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0)), 0.5)
        matches, unmatched_d, unmatched_t = match_tracks(state, *terms(frame(detection_at(10.0, 0.0)), 0.5))
        assert matches == [(0, 0)]
        assert not unmatched_d and not unmatched_t

    def test_threshold_boundary(self):
        config = TrackerConfig(distance_threshold=2.0)
        state = TrackerState(config=config)
        step(state, frame(detection_at(10.0, 0.0)), 0.5)
        inside, _, _ = match_tracks(state, *terms(frame(detection_at(12.0, 0.0)), 0.5))
        assert inside == [(0, 0)]  # exactly at threshold counts
        outside, ud, ut = match_tracks(state, *terms(frame(detection_at(12.0 + 1e-6, 0.0)), 0.5))
        assert outside == [] and ud == [0] and ut == [0]

    def test_class_gate(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0, label=0)), 0.5)
        matches, ud, _ = match_tracks(state, *terms(frame(detection_at(10.0, 0.0, label=1)), 0.5))
        assert matches == [] and ud == [0]

    def test_no_crossing_when_well_separated(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0), detection_at(20.0, 0.0)), 0.5)
        dets = frame(detection_at(20.3, 0.0), detection_at(10.3, 0.0))  # swapped order
        matches, _, _ = match_tracks(state, *terms(dets, 0.5))
        assert sorted(matches) == [(0, 1), (1, 0)]

    def test_greedy_prefers_closest_pair(self):
        state = TrackerState()
        step(state, frame(detection_at(10.0, 0.0), detection_at(11.0, 0.0)), 0.5)
        # one detection between both tracks, nearer the second
        matches, _, _ = match_tracks(state, *terms(frame(detection_at(10.9, 0.0)), 0.5))
        assert matches == [(0, 1)]

    def test_hungarian_alternative_minimizes_total(self):
        config = TrackerConfig(distance_threshold=5.0, matching="hungarian")
        state = TrackerState(config=config)
        step(state, frame(detection_at(10.0, 0.0), detection_at(13.0, 0.0)), 0.5)
        # greedy would grab (det0, track1) at 1.4 and strand det1 at 4.4 total;
        # optimal pairing is det0-track0 (2.4) + det1-track1 (1.6)
        dets = frame(detection_at(12.4, 0.0), detection_at(14.6, 0.0))
        matches, _, _ = match_tracks(state, *terms(dets, 0.5))
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


#: Frame times whose steps tie or differ, and frame times whose steps overflow the back-projected centers
#: (7e307) or are infinite (from -1e308 or below to 1e308 or above).
STEP_TIMES = [[-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.5, 4.0], [-1.7e308, -1e308, 1e308, 1.7e308]]


@st.composite
def tracked_sets(draw):
    """A detection set of grid detections (empty frames included) at drawn, strictly increasing frame times."""
    choices = draw(st.sampled_from(STEP_TIMES))
    sequence = draw(st.lists(st.lists(grid_detection, max_size=6), max_size=len(choices)))
    times = sorted(draw(st.lists(st.sampled_from(choices), min_size=len(sequence), max_size=len(sequence),
                                 unique=True)))
    rows = [(10.0 + x, float(y), label, v_rad, v_tan) for dets in sequence for x, y, label, v_rad, v_tan in dets]
    probs = np.zeros((len(rows), 2))
    probs[np.arange(len(rows)), [label for _, _, label, _, _ in rows]] = 1.0
    return DetectionSet.from_arrays(
        times, [len(dets) for dets in sequence],
        np.reshape([polar_fields(x, y, 0.0, 4.0, 2.0, 1.5, 0.0) for x, y, *_ in rows], (-1, 9)), probs,
        np.reshape([(v_rad, v_tan) for *_, v_rad, v_tan in rows], (-1, 2)), np.ones(len(rows)),
    )


class TestPerFileTrackingMatchesTheFrameLoop:
    """``run_tracker``, with its per-file terms, gives the frame loop's track ids, or fails at its frame."""

    @settings(max_examples=400, deadline=None)
    @given(tracked_sets(), st.integers(0, 2), st.sampled_from(["greedy", "hungarian"]), st.sampled_from([1.0, 2.0]))
    def test_same_ids_count_and_error(self, detections, max_misses, matching, threshold):
        config = TrackerConfig(distance_threshold=threshold, max_misses=max_misses, matching=matching)
        expected, created, error = [], 0, None
        try:
            for ids, created in frame_loop_track_ids(detections, config):
                expected.append(ids.tolist())
        except ValueError as exc:
            error = str(exc)
        with mock.patch.object(tracker, "match_tracks", wraps=tracker.match_tracks) as matcher:
            try:
                result = run_tracker(detections, config)
            except ValueError as exc:
                # one match_tracks call per frame before the one that fails
                assert (str(exc), matcher.call_count) == (error, len(expected))
                return
        assert error is None and matcher.call_count == len(detections.times)
        assert [ids.tolist() for ids in result.track_ids] == expected
        assert all(ids.dtype == np.int64 for ids in result.track_ids)
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


#: Center coordinates where distances tie, sit on the 2 m gate, or overflow.
EDGE_CENTERS = [1.0, -1.0, 2.0, 3.0, -4e-16, 1.7e308, -1.7e308]


@st.composite
def tracked_files(draw):
    """A scene and a tracking result over the same frames, with drawn track ids (so that switches abound)."""
    coordinate = draw(st.sampled_from([st.integers(-3, 3).map(float), st.sampled_from(EDGE_CENTERS),
                                       st.floats(-5.0, 5.0)]))
    center = st.tuples(coordinate, coordinate).filter(lambda c: c != (0.0, 0.0))
    n_classes = draw(st.integers(1, 3))
    frames = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=5))
    det_counts, gt_counts = [n for n, _ in frames], [m for _, m in frames]
    dets = draw(st.lists(center, min_size=sum(det_counts), max_size=sum(det_counts)))
    with np.errstate(over="ignore"):  # a diagonal edge center has r = inf; keep the axis ones
        boxes = [polar_fields(x, y if abs(x) < 1e300 else 0.0, 0.0, 4.0, 2.0, 1.5, 0.0) for x, y in dets]
    probs = draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n_classes, max_size=n_classes),
                          min_size=len(boxes), max_size=len(boxes)))
    detections = DetectionSet.from_arrays(np.arange(len(frames)), det_counts, np.reshape(boxes, (-1, 9)),
                                          np.reshape(probs, (len(boxes), n_classes)), np.zeros((len(boxes), 2)),
                                          np.ones(len(boxes)))
    objects = [draw(st.lists(st.integers(0, 5), min_size=m, max_size=m, unique=True)) for m in gt_counts]
    ids = [i for frame_ids in objects for i in frame_ids]
    gts = draw(st.lists(center, min_size=len(ids), max_size=len(ids)))
    scene = Scene.from_arrays(
        make_symmetric_rig(6), np.arange(len(frames)), gt_counts, np.tile(np.eye(3), (len(frames), 1, 1)),
        np.zeros((len(frames), 3)), np.array(ids, dtype=np.int64),
        np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=len(ids), max_size=len(ids))), dtype=np.int64),
        np.array([(x, y, 0.0, 4.0, 2.0, 1.5, 0.0) for x, y in gts]).reshape(-1, 7), np.zeros((len(ids), 2)),
    )
    track_ids = tuple(np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
                      for n in det_counts)
    return TrackingResult(detections, track_ids, 4), scene


class TestWholeFileIdSwitches:
    @settings(max_examples=300, deadline=None)
    @given(tracked_files())
    def test_equals_the_frame_by_frame_count(self, tracked):
        result, scene = tracked
        assert count_id_switches(result, scene) == frame_by_frame_id_switches(result, scene)

    @pytest.mark.parametrize("seed", range(4))
    def test_tracked_renders_count_as_frame_by_frame(self, seed):
        rng = np.random.default_rng(seed)
        trajectories = [((float(x), float(y)), (float(vx), float(vy)))
                        for x, y, vx, vy in rng.uniform(-20.0, 20.0, size=(12, 4)) * [1, 1, 0.2, 0.2]]
        scene = manual_scene(trajectories, n_frames=8, labels=rng.integers(0, 2, size=12).tolist())
        dets = render_detections(scene, NoiseModel(radial_std=0.5, drop_prob=0.3, false_positive_rate=2.0,
                                                   seed=seed))
        frames = list(dets.frames)
        frames[3] = DetectionFrame(t=frames[3].t, detections=())  # an empty frame's probs have no columns
        result = run_tracker(DetectionSet(frames=tuple(frames)), TrackerConfig(distance_threshold=1.0))
        assert count_id_switches(result, scene) == frame_by_frame_id_switches(result, scene)

    def test_refuses_a_scene_at_other_frame_times(self):
        scene = manual_scene([((10.0, 0.0), (0.5, 0.0))], n_frames=3)
        result = run_tracker(render_detections(scene, NoiseModel()))
        for other in (manual_scene([((10.0, 0.0), (0.5, 0.0))], n_frames=3, dt=0.25),
                      manual_scene([((10.0, 0.0), (0.5, 0.0))], n_frames=2)):
            with pytest.raises(ValueError, match="^count_id_switches: scene and detections disagree on frame times$"):
                count_id_switches(result, other)

    def test_no_detections_or_no_objects_anywhere(self):
        scene = manual_scene([((10.0, 0.0), (0.5, 0.0))], n_frames=3)
        empty = DetectionSet(frames=tuple(DetectionFrame(t=f.t, detections=()) for f in scene.frames))
        assert count_id_switches(run_tracker(empty), scene) == 0
        dets = render_detections(scene, NoiseModel())
        no_objects = Scene(rig=scene.rig, frames=tuple(SceneFrame(f.t, f.ego_pose, ()) for f in scene.frames))
        assert count_id_switches(run_tracker(dets), no_objects) == 0
