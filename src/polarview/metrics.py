"""Desk-scale detection metrics: TP errors, center-distance AP, NDS.

TP errors take the matched pairs as rows: (P, 9) boxes in
``geometry.POLAR_FIELDS`` order and (P, 2) polar velocities per side.
Matching runs once per file for every threshold: one search for the
same-frame cells, one sort of them by (frame, score rank, distance, gt
index), then the shared ``assignment.greedy_claim`` loop per threshold.
AP takes the scores and TP flags at one threshold.

These are single-pool surrogates of the nuScenes metric suite: no
class-balanced averaging, no recall floor.  The composite score formula
itself is exact:

    NDS = (5 * mAP + sum over the five TP metrics of (1 - min(1, mTP))) / 10

so published sub-metric rows reproduce their published composite score.
The attribute error (the fifth TP metric) is accepted as an input but
never computed here — attributes are dataset-specific.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import greedy_claim
from .geometry import gated_cells, rotate_planar, wrap_angle

__all__ = [
    "TPErrors",
    "tp_errors",
    "aligned_iou",
    "match_by_center_distance",
    "average_precision_frames",
    "nds",
]


@dataclass(frozen=True)
class TPErrors:
    """Mean true-positive errors over matched pairs."""

    ate: float  # meters, planar center distance
    ase: float  # 1 - aligned IoU, in [0, 1]
    aoe: float  # radians, in [0, pi]
    ave: float  # m/s, planar velocity distance

    def __post_init__(self) -> None:
        if not (0.0 <= self.ate < math.inf and 0.0 <= self.ave < math.inf):
            raise ValueError("TPErrors: ate and ave must be finite and nonnegative")
        if not 0.0 <= self.ase <= 1.0:
            raise ValueError("TPErrors: ase must lie in [0, 1]")
        if not 0.0 <= self.aoe <= math.pi:
            raise ValueError("TPErrors: aoe must lie in [0, pi]")


def aligned_iou(pred, gt):
    """Volume IoU of boxes, one row or (P, 9) rows in ``POLAR_FIELDS`` order, after aligning centers and yaws.

    Co-centered axis-aligned boxes intersect in the per-axis minimum
    extents, so the IoU is closed-form.
    """
    (pl, pw, ph), (gl, gw, gh) = (np.asarray(b, dtype=np.float64).T[4:7] for b in (pred, gt))
    inter = np.minimum(pl, gl) * np.minimum(pw, gw) * np.minimum(ph, gh)
    union = pl * pw * ph + gl * gw * gh - inter
    return inter / union


def _sum_in_order(values) -> float:
    """``values`` added left to right, as a ``+=`` loop adds them: no pairwise or compensated summation."""
    return float(np.add.accumulate(np.fromiter(values, dtype=np.float64))[-1])


def tp_errors(pred_boxes, pred_velocities, gt_boxes, gt_velocities) -> TPErrors:
    """Average translation / scale / orientation / velocity errors over matched pairs.

    Row p of each argument belongs to pair p: boxes are (P, 9) rows in
    ``POLAR_FIELDS`` order and velocities (P, 2) rows of (v_rad, v_tan).
    Each pair's hypot, atan2 and angle wrapping are scalar calls, the
    other arithmetic runs on the pair columns, and each error is summed in
    pair order.  Sizes whose volumes both underflow to 0 give an IoU of
    NaN, which ``TPErrors`` refuses.
    """
    rows = [np.asarray(a, dtype=np.float64) for a in (pred_boxes, pred_velocities, gt_boxes, gt_velocities)]
    n = len(rows[0])
    if not n or [a.shape for a in rows] != [(n, 9), (n, 2), (n, 9), (n, 2)]:
        raise ValueError("tp_errors: need (P, 9) boxes and (P, 2) velocities per side, P >= 1")
    pred, pv, gt, gv = rows
    with np.errstate(all="ignore"):  # overflow and 0 / 0 give inf and NaN, as float arithmetic would
        dx = pred[:, 0] * pred[:, 2] - gt[:, 0] * gt[:, 2]
        dy = pred[:, 0] * pred[:, 1] - gt[:, 0] * gt[:, 1]
        ase = 1.0 - aligned_iou(pred, gt)
        pv_x, pv_y = rotate_planar(pv[:, 0], pv[:, 1], pred[:, 1], pred[:, 2])
        gv_x, gv_y = rotate_planar(gv[:, 0], gv[:, 1], gt[:, 1], gt[:, 2])
        dvx, dvy = pv_x - gv_x, pv_y - gv_y
    # each yaw is wrapped first, as PolarBox.yaw() does: atan2(-0.0, -1.0) is -pi
    yaws = [list(map(wrap_angle, map(math.atan2, b[:, 7].tolist(), b[:, 8].tolist()))) for b in (pred, gt)]
    ate = _sum_in_order(map(math.hypot, dx.tolist(), dy.tolist())) / n
    aoe = _sum_in_order(map(abs, map(wrap_angle, np.subtract(*yaws).tolist()))) / n
    ave = _sum_in_order(map(math.hypot, dvx.tolist(), dvy.tolist())) / n
    return TPErrors(ate=ate, ase=_sum_in_order(ase) / n, aoe=min(aoe, math.pi), ave=ave)


def match_by_center_distance(
    pred_centers: np.ndarray,
    scores: np.ndarray,
    pred_counts: Sequence[int],
    gt_centers: np.ndarray,
    gt_counts: Sequence[int],
    thresholds: Sequence[float],
) -> list[tuple[list[tuple[int, int]], np.ndarray]]:
    """Score-descending greedy matching of predictions to ground truths within each frame, at each threshold.

    Frame f holds the next ``pred_counts[f]`` prediction rows and the next
    ``gt_counts[f]`` ground-truth rows.  In each frame, each prediction
    (best score first; ties keep input order) claims its nearest
    still-unmatched ground truth (lowest index among equal distances) if
    that lies within the threshold.  One search finds the same-frame cells
    within the largest threshold (``geometry.gated_cells``); they are
    sorted once, by (frame, score rank, distance, gt index), and each
    threshold claims the run of them within its reach.  Returns, per
    threshold, the (pred row, gt row) matches in claim order, frame by
    frame, and the per-prediction TP flags.
    """
    pred_centers = np.asarray(pred_centers, dtype=np.float64).reshape(-1, 2)
    scores = np.asarray(scores, dtype=np.float64)
    gt_centers = np.asarray(gt_centers, dtype=np.float64).reshape(-1, 2)
    if not all(np.isfinite(a).all() for a in (pred_centers, scores, gt_centers)) or np.isnan(thresholds).any():
        raise ValueError("match_by_center_distance: centers and scores must be finite, thresholds not NaN")
    frame = np.repeat(np.arange(len(pred_counts)), pred_counts)
    rank = np.empty(len(scores), dtype=np.int64)
    rank[np.lexsort((-scores, frame))] = np.arange(len(scores))  # frame first, so ranks never mix frames
    rows, cols, d = gated_cells(pred_centers, pred_counts, gt_centers, gt_counts, max(thresholds))
    order = np.lexsort((cols, d, rank[rows]))
    rows, cols, d = rows[order], cols[order], d[order]
    results = []
    for threshold in thresholds:
        within = d <= threshold
        matches = greedy_claim(rows[within].tolist(), cols[within].tolist())
        is_tp = np.zeros(len(pred_centers), dtype=bool)
        is_tp[[pi for pi, _ in matches]] = True
        results.append((matches, is_tp))
    return results


def average_precision_frames(
    frame_scores: Sequence[np.ndarray], frame_tp: Sequence[np.ndarray], n_gt: int
) -> float | None:
    """AP pooled over frames: one global score ranking, TP flags from within-frame matching.

    Part f (one frame, or all of them) gives prediction scores and, at one
    threshold, the TP flags that ``match_by_center_distance`` returned for
    them; ``n_gt`` counts the ground truths of all frames.  None when there
    are none.
    """
    if len(frame_scores) != len(frame_tp):
        raise ValueError("average_precision_frames: frame counts differ")
    if n_gt == 0:
        return None
    scores = np.concatenate([np.zeros(0), *frame_scores])
    if not len(scores):
        return 0.0
    order = np.argsort(-scores, kind="stable")
    tp_cum = np.cumsum(np.concatenate([np.zeros(0, dtype=bool), *frame_tp])[order])
    ranks = np.arange(1, len(order) + 1)
    precision = tp_cum / ranks
    recall = tp_cum / n_gt
    # monotone precision envelope, then trapezoid over achieved recalls
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    r = np.concatenate([[0.0], recall])
    p = np.concatenate([[envelope[0]], envelope])
    return float(np.sum((r[1:] - r[:-1]) * (p[1:] + p[:-1]) * 0.5))


def nds(m_ap: float, m_tps: Sequence[float]) -> float:
    """Composite detection score from mAP and the five TP metrics.

    Each TP metric is clamped at 1 before inversion, so metrics of 1 or
    worse contribute nothing.
    """
    if not 0.0 <= m_ap <= 1.0:
        raise ValueError("nds: mAP must lie in [0, 1]")
    tps = [float(v) for v in m_tps]
    if len(tps) != 5:
        raise ValueError("nds: exactly five TP metrics required")
    if any(not math.isfinite(v) or v < 0.0 for v in tps):
        raise ValueError("nds: TP metrics must be finite and nonnegative")
    return (5.0 * m_ap + sum(1.0 - min(1.0, v) for v in tps)) / 10.0
