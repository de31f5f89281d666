"""Tracking-by-detection with velocity back-projection and distance matching.

Detections are projected back in time with their predicted velocity and
each frame's are matched to the active tracks' last centers, greedily in
ascending distance (ties: lower detection index, then lower track id), gated
by class and by a distance threshold.  The centers, back-projected centers
and labels of all detections are computed once per file; per frame only the
gate, the claim and the track update run.  Matched tracks are updated,
unmatched detections spawn new tracks, and tracks that miss too many
consecutive frames retire.  Greedy tracking and the id-switch count share
one matcher (``_nearest_first``); only the Hungarian alternative builds a
dense distance matrix, as LSAP reads it whole.  The tracker state holds the
active tracks as rows: one array per field (id, last center, label, misses),
in ascending id order.

Back-projection compensates object motion only, so detection coordinates
must share one frame across steps (static ego, or ego motion compensated
upstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, pairwise

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


def _nearest_first(a, a_counts, a_labels, b, b_counts, b_labels, reach: float) -> list[tuple[int, int]]:
    """Greedy same-frame, same-label pairs (row of ``a``, row of ``b``) within ``reach``: ``greedy_claim`` of the
    ``gated_cells`` cells (framed as it frames them) in ascending (frame, distance, row, column) order."""
    rows, cols, dist = gated_cells(a, a_counts, b, b_counts, reach)
    same = a_labels[rows] == b_labels[cols]
    rows, cols, dist = rows[same], cols[same], dist[same]
    order = np.lexsort((cols, rows, dist, np.repeat(np.arange(len(a_counts)), a_counts)[rows]))
    return greedy_claim(rows[order].tolist(), cols[order].tolist())


def _check_step(dt: float) -> None:
    if not 0.0 < dt < np.inf:
        raise ValueError(f"back_project: dt must be positive and finite, not {dt!r}")


def _moved_back(centers: np.ndarray, boxes: np.ndarray, velocities: np.ndarray, dt) -> np.ndarray:
    """Unchecked ``back_project`` of boxes at ``centers`` (..., 2); ``dt`` may be one step per row, (..., 1)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed center fails every distance gate
        v_x, v_y = rotate_planar(velocities[..., 0], velocities[..., 1], boxes[..., 1], boxes[..., 2])
        return centers - dt * np.stack([v_x, v_y], axis=-1)


def back_project(boxes: np.ndarray, velocities: np.ndarray, dt: float) -> np.ndarray:
    """Planar centers (..., 2) of boxes (..., 9) moved back by dt along velocities (..., 2)."""
    _check_step(dt)
    return _moved_back(polar_centers(boxes), boxes, velocities, dt)


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
    state: TrackerState, centers: np.ndarray, labels: np.ndarray
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Associate one frame's detections, given as back-projected planar ``centers`` (N, 2) and ``labels`` (N,),
    with the active tracks: greedily by ``_nearest_first`` (the track rows are in id order, so its column order
    is the track-id tie-break), or by LSAP on the dense (N, T) matrix that it reads.

    Returns (matches as (detection index, track row) pairs, unmatched
    detection indices, unmatched track rows).
    """
    n_det, n_trk = len(labels), len(state.tracks)
    if n_det == 0 or n_trk == 0:
        return [], list(range(n_det)), list(range(n_trk))

    threshold = state.config.distance_threshold
    if state.config.matching == "hungarian":
        dist = planar_distances(centers, state.centers)
        allowed = (labels[:, None] == state.labels[None, :]) & (dist <= threshold)
        big = threshold * (min(n_det, n_trk) + 1) + 1.0  # exceeds any sum of allowed distances
        gated = np.where(allowed, dist, big)
        matches = [(di, ti) for di, ti in hungarian(gated).pairs if gated[di, ti] < big]
    else:
        matches = _nearest_first(centers, [n_det], labels, state.centers, [n_trk], state.labels, threshold)
    matches.sort()

    matched_d = {di for di, _ in matches}
    matched_t = {ti for _, ti in matches}
    unmatched_d = [di for di in range(n_det) if di not in matched_d]
    unmatched_t = [ti for ti in range(n_trk) if ti not in matched_t]
    return matches, unmatched_d, unmatched_t


def _update(state: TrackerState, centers: np.ndarray, moved_back: np.ndarray, labels: np.ndarray, dt: float):
    """Advance one frame of detections at planar ``centers`` (N, 2), ``moved_back`` (N, 2) by the step ``dt``
    (checked as ``back_project`` checks it when there are tracks to match) and with ``labels`` (N,); returns the
    int64 track id per detection.  Matched rows take their detection's center and reset ``misses``, every other row
    adds a miss, rows past ``max_misses`` retire, and unmatched detections append rows with ids ``created, ...``."""
    if len(labels) and len(state.tracks):
        _check_step(dt)
    matches, new, _ = match_tracks(state, moved_back, labels)
    det, trk = np.array(matches, dtype=np.intp).reshape(-1, 2).T
    new_ids = np.arange(state.created, state.created + len(new), dtype=np.int64)
    assigned = np.empty(len(labels), dtype=np.int64)
    assigned[det] = state.tracks[trk]
    assigned[new] = new_ids

    state.centers[trk] = centers[det]
    state.misses += 1
    state.misses[trk] = 0
    keep = state.misses <= state.config.max_misses
    state.tracks = np.concatenate([state.tracks[keep], new_ids])
    state.centers = np.concatenate([state.centers[keep], centers[new]])
    state.labels = np.concatenate([state.labels[keep], labels[new]])
    state.misses = np.concatenate([state.misses[keep], np.zeros(len(new), dtype=np.int64)])
    state.created += len(new)
    return assigned


def step(state: TrackerState, frame: DetectionFrame, dt: float) -> list[int]:
    """Advance the tracker one frame by ``dt``; returns the track id per detection (the update of ``_update``)."""
    centers = polar_centers(frame.boxes)
    return _update(state, centers, _moved_back(centers, frame.boxes, frame.velocities, dt), frame.labels, dt).tolist()


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
    """Run tracking-by-detection over a whole detection set: every detection's center, label and center moved back
    by its frame's step (1, then the time since the previous frame) once, then ``_update`` frame by frame."""
    state = TrackerState(config=config)
    counts, boxes, velocities = detections.stacked("boxes", "velocities")
    times = detections.times.tolist()
    steps = [1.0, *(b - a for a, b in pairwise(times))][: len(times)]
    centers, labels = polar_centers(boxes), detections.labels
    moved_back = _moved_back(centers, boxes, velocities, np.repeat(steps, counts)[:, None])
    bounds = [0, *accumulate(counts.tolist())]
    track_ids = tuple(
        _update(state, centers[lo:hi], moved_back[lo:hi], labels[lo:hi], dt)
        for dt, lo, hi in zip(steps, bounds, bounds[1:])
    )
    return TrackingResult(detections=detections, track_ids=track_ids, tracks_created=state.created)


def count_id_switches(result: TrackingResult, scene: Scene) -> int:
    """Count identity switches of tracked detections against ground truth.

    Per frame, tracked detections are greedily matched to ground-truth
    objects by planar center distance (same class, within 2 m), with the
    tracker's own matcher (``_nearest_first``) run once over the whole
    file.  A switch is a frame where a ground-truth object's matched track
    id differs from its previous matched frame's.
    """
    if not np.array_equal(result.detections.times, scene.times):
        raise ValueError("count_id_switches: scene and detections disagree on frame times")
    counts, boxes = result.detections.stacked("boxes")
    gt_counts, gt_boxes, classes, gt_ids = scene.stacked("boxes", "classes", "ids")
    labels = result.detections.labels
    matches = _nearest_first(polar_centers(boxes), counts, labels, gt_boxes[:, :2], gt_counts, classes, 2.0)
    det, gt = np.array(matches, dtype=np.intp).reshape(-1, 2).T
    # each object's matched tracks in frame order: a switch is a change between neighbours
    gt_id, track = gt_ids[gt], np.concatenate([np.zeros(0, dtype=np.int64), *result.track_ids])[det]
    by_object = np.argsort(gt_id, kind="stable")
    gt_id, track = gt_id[by_object], track[by_object]
    return int(np.count_nonzero((gt_id[1:] == gt_id[:-1]) & (track[1:] != track[:-1])))
