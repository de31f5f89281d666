"""Desk-scale detection metrics: TP errors, center-distance AP, NDS.

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

from .geometry import PolarBox, PolarVelocity, planar_distances, rotate_planar, wrap_angle

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
        if self.ate < 0.0 or self.ave < 0.0:
            raise ValueError("TPErrors: ate and ave must be nonnegative")
        if not 0.0 <= self.ase <= 1.0:
            raise ValueError("TPErrors: ase must lie in [0, 1]")
        if not 0.0 <= self.aoe <= math.pi:
            raise ValueError("TPErrors: aoe must lie in [0, pi]")


def aligned_iou(pred: PolarBox, gt: PolarBox) -> float:
    """Volume IoU of the two boxes after aligning centers and yaws.

    Co-centered axis-aligned boxes intersect in the per-axis minimum
    extents, so the IoU is closed-form.
    """
    inter = min(pred.l, gt.l) * min(pred.w, gt.w) * min(pred.h, gt.h)
    union = pred.l * pred.w * pred.h + gt.l * gt.w * gt.h - inter
    return inter / union


def tp_errors(
    pairs: Sequence[tuple[tuple[PolarBox, PolarVelocity], tuple[PolarBox, PolarVelocity]]],
) -> TPErrors:
    """Average translation / scale / orientation / velocity errors over pairs."""
    if not pairs:
        raise ValueError("tp_errors: at least one matched pair required")
    ate = ase = aoe = ave = 0.0
    for (pred_box, pred_vel), (gt_box, gt_vel) in pairs:
        px, py = pred_box.center_xy()
        gx, gy = gt_box.center_xy()
        ate += math.hypot(px - gx, py - gy)
        ase += 1.0 - aligned_iou(pred_box, gt_box)
        aoe += abs(wrap_angle(pred_box.yaw() - gt_box.yaw()))
        pv_x, pv_y = rotate_planar(pred_vel.v_rad, pred_vel.v_tan, pred_box.sin_a, pred_box.cos_a)
        gv_x, gv_y = rotate_planar(gt_vel.v_rad, gt_vel.v_tan, gt_box.sin_a, gt_box.cos_a)
        ave += math.hypot(pv_x - gv_x, pv_y - gv_y)
    n = len(pairs)
    return TPErrors(ate=ate / n, ase=ase / n, aoe=min(aoe / n, math.pi), ave=ave / n)


def match_by_center_distance(
    pred_centers: np.ndarray,
    scores: np.ndarray,
    gt_centers: np.ndarray,
    threshold: float,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Score-descending greedy matching of predictions to ground truths.

    Each prediction (best score first; ties keep input order) claims its
    nearest still-unmatched ground truth if that lies within
    ``threshold``.  Returns the (pred index, gt index) matches and the
    per-prediction TP flags in score order position of the input arrays.
    """
    pred_centers = np.asarray(pred_centers, dtype=np.float64).reshape(-1, 2)
    gt_centers = np.asarray(gt_centers, dtype=np.float64).reshape(-1, 2)
    is_tp = np.zeros(len(pred_centers), dtype=bool)
    matches = []
    if not len(gt_centers):
        return matches, is_tp
    dist = planar_distances(pred_centers, gt_centers)
    taken = np.zeros(len(gt_centers), dtype=bool)
    for pi in np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable").tolist():
        d = np.where(taken, np.inf, dist[pi])
        gi = int(np.argmin(d))
        if d[gi] <= threshold:
            taken[gi] = True
            is_tp[pi] = True
            matches.append((pi, gi))
    return matches, is_tp


def _ap_from_flags(scores: np.ndarray, is_tp: np.ndarray, n_gt: int) -> float:
    order = np.argsort(-scores, kind="stable")
    tp_cum = np.cumsum(is_tp[order])
    ranks = np.arange(1, len(order) + 1)
    precision = tp_cum / ranks
    recall = tp_cum / n_gt
    # monotone precision envelope, then trapezoid over achieved recalls
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    r = np.concatenate([[0.0], recall])
    p = np.concatenate([[envelope[0]], envelope])
    return float(np.sum((r[1:] - r[:-1]) * (p[1:] + p[:-1]) * 0.5))


def average_precision_frames(
    frame_preds: Sequence[tuple[np.ndarray, np.ndarray]],
    frame_gts: Sequence[np.ndarray],
    threshold: float,
) -> float | None:
    """AP pooled over frames: global score ranking, within-frame matching.

    Each frame gives its predictions as (centers (N, 2), scores (N,)) and
    its ground truths as (M, 2) centers.
    """
    if len(frame_preds) != len(frame_gts):
        raise ValueError("average_precision_frames: frame counts differ")
    n_gt = sum(len(g) for g in frame_gts)
    if n_gt == 0:
        return None
    all_scores = []
    all_tp = []
    for (centers, scores), gts in zip(frame_preds, frame_gts):
        if not len(scores):
            continue
        if len(gts):
            _, is_tp = match_by_center_distance(centers, scores, gts, threshold)
        else:
            is_tp = np.zeros(len(scores), dtype=bool)
        all_scores.append(np.asarray(scores, dtype=np.float64))
        all_tp.append(is_tp)
    if not all_scores:
        return 0.0
    return _ap_from_flags(np.concatenate(all_scores), np.concatenate(all_tp), n_gt)


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
