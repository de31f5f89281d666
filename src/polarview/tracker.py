"""Tracking-by-detection with velocity back-projection and distance matching.

Each frame, detections are projected back in time with their predicted
velocity and matched to the active tracks' last centers, greedily in
ascending distance (ties: lower detection index, then lower track id),
gated by class and by a distance threshold.  Matched tracks are updated,
unmatched detections spawn new tracks, and tracks that miss too many
consecutive frames retire.  Hungarian matching is available as a config
alternative.  The tracker state holds the active tracks as rows: one array
per field (id, last center, label, misses), in ascending id order.

Back-projection compensates object motion only, so detection coordinates
must share one frame across steps (static ego, or ego motion compensated
upstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import greedy_claim, hungarian
from .geometry import gated_cells, planar_distances, polar_centers, rotate_planar
from .simulator import Detection, DetectionFrame, DetectionSet, Scene

__all__ = [
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
    """Claim the ``allowed`` (row, column) pairs in ascending (distance, row, column) order; see ``greedy_claim``."""
    rows, cols = np.nonzero(allowed)
    order = np.lexsort((cols, rows, dist[rows, cols]))
    return greedy_claim(rows[order].tolist(), cols[order].tolist())


def back_project(boxes: np.ndarray, velocities: np.ndarray, dt: float) -> np.ndarray:
    """Planar centers (..., 2) of boxes (..., 9) moved back by dt along velocities (..., 2)."""
    if dt <= 0.0:
        raise ValueError("back_project: dt must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed center fails every distance gate
        v_x, v_y = rotate_planar(velocities[..., 0], velocities[..., 1], boxes[..., 1], boxes[..., 2])
        return polar_centers(boxes) - dt * np.stack([v_x, v_y], axis=-1)


_MATCHINGS = ("greedy", "hungarian")


@dataclass(frozen=True)
class TrackerConfig:
    distance_threshold: float = 2.0
    max_misses: int = 2
    matching: str = field(default="greedy", metadata={"choices": _MATCHINGS})

    def __post_init__(self) -> None:
        if not 0.0 < self.distance_threshold < np.inf or self.max_misses < 0:
            raise ValueError("TrackerConfig: invalid thresholds")
        if self.matching not in _MATCHINGS:
            raise ValueError("TrackerConfig: matching must be 'greedy' or 'hungarian'")


@dataclass
class TrackerState:
    """The active tracks as rows in ascending id order: ``tracks`` (T,) ids, ``centers`` (T, 2) planar centers
    of each track's last matched detection box, ``labels`` (T,) and ``misses`` (T,) consecutive unmatched frames."""

    config: TrackerConfig = field(default_factory=TrackerConfig)
    tracks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    centers: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    misses: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    created: int = 0  # tracks spawned so far; also the next track id


def match_tracks(
    state: TrackerState, frame: DetectionFrame, dt: float
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Associate a frame's detections with active tracks.

    Returns (matches as (detection index, track row) pairs, unmatched
    detection indices, unmatched track rows).
    """
    n_det, n_trk = len(frame), len(state.tracks)
    if n_det == 0 or n_trk == 0:
        return [], list(range(n_det)), list(range(n_trk))

    det_centers = back_project(frame.boxes, frame.velocities, dt)
    dist = planar_distances(det_centers, state.centers)
    threshold = state.config.distance_threshold
    allowed = (frame.labels[:, None] == state.labels[None, :]) & (dist <= threshold)

    if state.config.matching == "hungarian":
        big = threshold * (min(n_det, n_trk) + 1) + 1.0  # exceeds any sum of allowed distances
        gated = np.where(allowed, dist, big)
        matches = [(di, ti) for di, ti in hungarian(gated).pairs if gated[di, ti] < big]
    else:
        # the rows are in ascending track id order, so the column order is
        # the track-id tie-break
        matches = _greedy_match(dist, allowed)
    matches.sort()

    matched_d = {di for di, _ in matches}
    matched_t = {ti for _, ti in matches}
    unmatched_d = [di for di in range(n_det) if di not in matched_d]
    unmatched_t = [ti for ti in range(n_trk) if ti not in matched_t]
    return matches, unmatched_d, unmatched_t


def step(state: TrackerState, frame: DetectionFrame, dt: float) -> list[int]:
    """Advance the tracker one frame; returns the track id per detection.

    Matched rows take their detection's center and reset ``misses``, every
    other row adds a miss, rows past ``max_misses`` retire, and unmatched
    detections append rows with ids ``created, created + 1, ...`` in
    detection order.
    """
    matches, new, _ = match_tracks(state, frame, dt)
    det, trk = np.array(matches, dtype=np.intp).reshape(-1, 2).T
    new_ids = np.arange(state.created, state.created + len(new), dtype=np.int64)
    assigned = np.empty(len(frame), dtype=np.int64)
    assigned[det] = state.tracks[trk]
    assigned[new] = new_ids

    centers = polar_centers(frame.boxes)
    state.centers[trk] = centers[det]
    state.misses += 1
    state.misses[trk] = 0
    keep = state.misses <= state.config.max_misses
    state.tracks = np.concatenate([state.tracks[keep], new_ids])
    state.centers = np.concatenate([state.centers[keep], centers[new]])
    state.labels = np.concatenate([state.labels[keep], frame.labels[new]])
    state.misses = np.concatenate([state.misses[keep], np.zeros(len(new), dtype=np.int64)])
    state.created += len(new)
    return assigned.tolist()


@dataclass(frozen=True)
class TrackingResult:
    """The tracked detections, one track-id array per frame, and the spawn count."""

    detections: DetectionSet
    track_ids: tuple[np.ndarray, ...]
    tracks_created: int

    @property
    def frames(self) -> tuple[tuple[tuple[int, Detection], ...], ...]:
        """Per-frame (track id, detection) pairs (API edge; built on each access)."""
        pairs = zip(self.track_ids, self.detections.frames)
        return tuple(tuple(zip(ids.tolist(), frame.detections)) for ids, frame in pairs)


def run_tracker(detections: DetectionSet, config: TrackerConfig = TrackerConfig()) -> TrackingResult:
    """Run tracking-by-detection over a whole detection set."""
    state = TrackerState(config=config)
    track_ids = []
    prev_t = None
    for frame in detections.frames:
        dt = frame.t - prev_t if prev_t is not None else 1.0
        prev_t = frame.t
        track_ids.append(np.array(step(state, frame, dt), dtype=np.int64))
    return TrackingResult(detections=detections, track_ids=tuple(track_ids), tracks_created=state.created)


def count_id_switches(result: TrackingResult, scene: Scene) -> int:
    """Count identity switches of tracked detections against ground truth.

    Per frame, tracked detections are greedily matched to ground-truth
    objects by planar center distance (same class, within 2 m): one search
    (``geometry.gated_cells``) and one claim pass in (frame, distance,
    detection, object) order cover all frames.  A switch is a frame where
    a ground-truth object's matched track id differs from its previous
    matched frame's.
    """
    if len(result.track_ids) != len(scene.frames):
        raise ValueError("count_id_switches: frame counts differ")
    counts, boxes, probs = result.detections.stacked("boxes", "probs")
    gt_counts, gt_boxes, classes, gt_ids = scene.stacked("boxes", "classes", "ids")
    rows, cols, dist = gated_cells(polar_centers(boxes), counts, gt_boxes[:, :2], gt_counts, 2.0)
    same = probs[rows].argmax(axis=1) == classes[cols] if len(rows) else np.zeros(0, dtype=bool)
    rows, cols, dist = rows[same], cols[same], dist[same]
    order = np.lexsort((cols, rows, dist, np.repeat(np.arange(len(counts)), counts)[rows]))
    det, gt = np.array(greedy_claim(rows[order].tolist(), cols[order].tolist()), dtype=np.intp).reshape(-1, 2).T
    # each object's matched tracks in frame order: a switch is a change between neighbours
    gt_id, track = gt_ids[gt], np.concatenate([np.zeros(0, dtype=np.int64), *result.track_ids])[det]
    by_object = np.argsort(gt_id, kind="stable")
    gt_id, track = gt_id[by_object], track[by_object]
    return int(np.count_nonzero((gt_id[1:] == gt_id[:-1]) & (track[1:] != track[:-1])))
