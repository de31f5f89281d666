"""Tracking-by-detection with velocity back-projection and distance matching.

Each frame, detections are projected back in time with their predicted
velocity and matched to the active tracks' last centers, greedily in
ascending distance (ties: lower detection index, then lower track id),
gated by class and by a distance threshold.  Matched tracks are updated,
unmatched detections spawn new tracks, and tracks that miss too many
consecutive frames retire.  Hungarian matching is available as a config
alternative.

Back-projection compensates object motion only, so detection coordinates
must share one frame across steps (static ego, or ego motion compensated
upstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import hungarian
from .geometry import PolarBox, PolarVelocity, planar_distances, velocity_polar_to_cartesian
from .simulator import Detection, DetectionSet, Scene

__all__ = [
    "Track",
    "TrackerConfig",
    "TrackerState",
    "TrackingResult",
    "back_project",
    "match_tracks",
    "step",
    "run_tracker",
    "count_id_switches",
]


def _greedy_match(dist: np.ndarray, allowed: np.ndarray) -> list[tuple[int, int]]:
    """Claim (row, column) pairs greedily in ascending (distance, row, column) order.

    Only cells where ``allowed`` is true are candidates; a pair is claimed
    when neither its row nor its column is taken.  Pairs come back in
    claim order.
    """
    rows, cols = np.nonzero(allowed)
    order = np.lexsort((cols, rows, dist[rows, cols]))
    used_r: set[int] = set()
    used_c: set[int] = set()
    pairs = []
    for r, c in zip(rows[order].tolist(), cols[order].tolist()):
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        pairs.append((r, c))
    return pairs


def back_project(box: PolarBox, velocity: PolarVelocity, dt: float) -> np.ndarray:
    """Planar center moved back by dt seconds along the predicted velocity."""
    if dt <= 0.0:
        raise ValueError("back_project: dt must be positive")
    x, y = box.center_xy()
    v = velocity_polar_to_cartesian(velocity, box.sin_a, box.cos_a)
    return np.array([x - dt * v.v_x, y - dt * v.v_y])


@dataclass
class Track:
    """Persistent identity carrying the last matched detection's state."""

    track_id: int
    box: PolarBox
    velocity: PolarVelocity
    label: int
    score: float
    age: int = 1
    misses: int = 0

    def center(self) -> np.ndarray:
        return np.array(self.box.center_xy())


@dataclass(frozen=True)
class TrackerConfig:
    distance_threshold: float = 2.0
    max_misses: int = 2
    matching: str = "greedy"  # greedy | hungarian

    def __post_init__(self) -> None:
        if self.distance_threshold <= 0.0 or self.max_misses < 0:
            raise ValueError("TrackerConfig: invalid thresholds")
        if self.matching not in ("greedy", "hungarian"):
            raise ValueError("TrackerConfig: matching must be 'greedy' or 'hungarian'")


@dataclass
class TrackerState:
    config: TrackerConfig = field(default_factory=TrackerConfig)
    tracks: list[Track] = field(default_factory=list)
    created: int = 0  # tracks spawned so far; also the next track id


def match_tracks(
    state: TrackerState, detections: tuple[Detection, ...], dt: float
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Associate detections with active tracks.

    Returns (matches as (detection index, track list position) pairs,
    unmatched detection indices, unmatched track list positions).
    """
    n_det, n_trk = len(detections), len(state.tracks)
    if n_det == 0 or n_trk == 0:
        return [], list(range(n_det)), list(range(n_trk))

    det_centers = np.array([back_project(d.box, d.velocity, dt) for d in detections])
    trk_centers = np.array([t.center() for t in state.tracks])
    dist = planar_distances(det_centers, trk_centers)
    det_labels = np.array([d.label for d in detections])
    trk_labels = np.array([t.label for t in state.tracks])
    threshold = state.config.distance_threshold
    allowed = (det_labels[:, None] == trk_labels[None, :]) & (dist <= threshold)

    if state.config.matching == "hungarian":
        big = max(threshold, float(dist.max())) * (min(n_det, n_trk) + 1) + 1.0
        gated = np.where(allowed, dist, big)
        matches = [(di, ti) for di, ti in hungarian(gated).pairs if gated[di, ti] < big]
    else:
        # state.tracks is in ascending track_id order, so the column order is
        # the track-id tie-break
        matches = _greedy_match(dist, allowed)
    matches.sort()

    matched_d = {di for di, _ in matches}
    matched_t = {ti for _, ti in matches}
    unmatched_d = [di for di in range(n_det) if di not in matched_d]
    unmatched_t = [ti for ti in range(n_trk) if ti not in matched_t]
    return matches, unmatched_d, unmatched_t


def step(state: TrackerState, detections: tuple[Detection, ...], dt: float) -> list[int]:
    """Advance the tracker one frame; returns the track id per detection."""
    matches, unmatched_d, unmatched_t = match_tracks(state, detections, dt)

    assigned = [-1] * len(detections)
    for di, ti in matches:
        track = state.tracks[ti]
        det = detections[di]
        track.box = det.box
        track.velocity = det.velocity
        track.score = det.score
        track.age += 1
        track.misses = 0
        assigned[di] = track.track_id

    matched_t = {ti for _, ti in matches}
    survivors = []
    for ti, track in enumerate(state.tracks):
        if ti in matched_t:
            survivors.append(track)
            continue
        track.age += 1
        track.misses += 1
        if track.misses <= state.config.max_misses:
            survivors.append(track)
    state.tracks = survivors

    for di in unmatched_d:
        det = detections[di]
        track = Track(
            track_id=state.created,
            box=det.box,
            velocity=det.velocity,
            label=det.label,
            score=det.score,
        )
        state.created += 1
        state.tracks.append(track)
        assigned[di] = track.track_id
    return assigned


@dataclass(frozen=True)
class TrackingResult:
    """Per-frame (track id, detection) pairs plus the spawn count."""

    frames: tuple[tuple[tuple[int, Detection], ...], ...]
    tracks_created: int


def run_tracker(detections: DetectionSet, config: TrackerConfig = TrackerConfig()) -> TrackingResult:
    """Run tracking-by-detection over a whole detection set."""
    state = TrackerState(config=config)
    out_frames = []
    prev_t = None
    for frame in detections.frames:
        dt = frame.t - prev_t if prev_t is not None else 1.0
        prev_t = frame.t
        ids = step(state, frame.detections, dt)
        out_frames.append(tuple(zip(ids, frame.detections)))
    return TrackingResult(frames=tuple(out_frames), tracks_created=state.created)


def count_id_switches(result: TrackingResult, scene: Scene, max_match_distance: float = 2.0) -> int:
    """Count identity switches of tracked detections against ground truth.

    Per frame, tracked detections are greedily matched to ground-truth
    objects by planar center distance (same class, within
    ``max_match_distance``).  A switch is a frame where a ground-truth
    object's matched track id differs from its previous matched frame's.
    """
    if len(result.frames) != len(scene.frames):
        raise ValueError("count_id_switches: frame counts differ")
    last_track_of_gt: dict[int, int] = {}
    switches = 0
    for frame_out, frame_gt in zip(result.frames, scene.frames):
        if not frame_out or not frame_gt.objects:
            continue
        det_centers = np.array([det.box.center_xy() for _, det in frame_out])
        gt_centers = np.array([[o.box.x, o.box.y] for o in frame_gt.objects])
        dist = planar_distances(det_centers, gt_centers)
        det_labels = np.array([det.label for _, det in frame_out])
        gt_labels = np.array([o.label for o in frame_gt.objects])
        allowed = (dist <= max_match_distance) & (det_labels[:, None] == gt_labels[None, :])
        for di, gi in _greedy_match(dist, allowed):
            gt_id = frame_gt.objects[gi].object_id
            track_id = frame_out[di][0]
            if gt_id in last_track_of_gt and last_track_of_gt[gt_id] != track_id:
                switches += 1
            last_track_of_gt[gt_id] = track_id
    return switches
