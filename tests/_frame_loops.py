"""References for the whole-file passes: center-distance matching, the ``assign`` and ``eval`` loops and the
id-switch count as they ran one frame at a time, with one distance or cost matrix per frame.

The tests hold the whole-file code to these: the same matches, documents and counts, and the same error
message for a file whose one fault lies in some frame.
"""

import dataclasses
import math

import numpy as np

from polarview import assignment, cli, metrics, serialization
from polarview.assignment import greedy_claim
from polarview.geometry import planar_distances, polar_centers, polar_fields, rotate_planar
from polarview.tracker import _greedy_match


def frame_match_by_center_distance(pred_centers, scores, gt_centers, thresholds):
    """Greedy center-distance matching of one frame: per threshold, the claims and the TP flags."""
    rank = np.empty(len(scores), dtype=np.int64)
    rank[np.argsort(-scores, kind="stable")] = np.arange(len(scores))
    dist = planar_distances(pred_centers, gt_centers)
    rows, cols = np.nonzero(dist <= max(thresholds))
    d = dist[rows, cols]
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


def frame_by_frame_id_switches(result, scene):
    """``tracker.count_id_switches`` with one distance matrix and one claim pass per frame."""
    last_track_of_gt = {}
    switches = 0
    for ids, frame, frame_gt in zip(result.track_ids, result.detections.frames, scene.frames):
        if not len(ids) or not len(frame_gt):
            continue
        dist = planar_distances(polar_centers(frame.boxes), frame_gt.boxes[:, :2])
        allowed = (dist <= 2.0) & (frame.labels[:, None] == frame_gt.classes[None, :])
        gt_ids = frame_gt.ids.tolist()
        for di, gi in _greedy_match(dist, allowed):
            gt_id = gt_ids[gi]
            track_id = int(ids[di])
            if gt_id in last_track_of_gt and last_track_of_gt[gt_id] != track_id:
                switches += 1
            last_track_of_gt[gt_id] = track_id
    return switches


def _in_region(region, rows):
    return [i for i, (x, y, *_) in enumerate(rows) if region is None or region.contains(x, y)]


def _frames(args, command):
    """The region and, lazily per frame, (scene frame, detection frame, box rows, indices of rows in the region)."""
    scene = serialization.load_scene(args.scene)
    dets = serialization.load_detections(args.detections)
    if len(scene.frames) != len(dets.frames):
        raise ValueError(f"{command}: scene and detections disagree on frame count")
    region = cli._region_from_args(args)
    rows = (f.boxes.tolist() for f in scene.frames)
    return region, ((g, d, r, _in_region(region, r)) for g, d, r in zip(scene.frames, dets.frames, rows))


def frame_loop_assign_report(args) -> dict:
    """The ``assign`` document, one cost matrix and one set of pair columns per frame."""
    _, frames = _frames(args, "assign")
    if not (math.isfinite(args.k_scaling) and args.k_scaling >= 1.0):
        raise ValueError("assign: --k-scaling must be finite and >= 1")
    frames_out, columns = [], {key: [] for key in ("gt", "gt_id", "pred", "cost", "class_cost", "box_cost")}
    for frame_gt, frame_det, gt_rows, kept in frames:
        gt_boxes = np.array([polar_fields(*gt_rows[j]) for j in kept]).reshape(-1, 9)
        gt_classes = frame_gt.classes[kept]
        costs = assignment.build_cost_matrix(
            (frame_det.boxes, frame_det.probs), (gt_boxes, gt_classes), args.k_scaling,
            class_cost_form=args.class_cost,
        )
        result = assignment.hungarian(costs)
        gts, preds = np.array(result.pairs, dtype=np.intp).reshape(-1, 2).T
        pair_columns = (
            gts, frame_gt.ids[kept][gts], preds, costs[gts, preds],
            assignment.class_cost(frame_det.probs[preds], gt_classes[gts], form=args.class_cost),
            assignment.box_cost(frame_det.boxes[preds], gt_boxes[gts], args.k_scaling),
        )
        for column, values in zip(columns.values(), pair_columns):
            column.append(values)
        frames_out.append(
            {
                "t": frame_gt.t,
                "pairs": None,
                "unmatched_gts": sorted(set(range(len(kept))) - result.matched_gts()),
                "unmatched_preds": sorted(set(range(len(frame_det))) - result.matched_preds()),
            }
        )
    whole = {k: np.concatenate(v) if v else np.zeros(0) for k, v in columns.items()}
    table = serialization._RecordTable([len(a) for a in columns["gt"]], whole)
    for frame, pairs in zip(frames_out, table):
        frame["pairs"] = pairs
    return {"schema_version": serialization.SCHEMA_VERSION, "k_scaling": args.k_scaling, "frames": frames_out}


def frame_loop_eval_metrics(args) -> dict:
    """The ``eval`` report, matched one frame at a time; the flag checks are those of ``cli._eval_metrics``."""
    region, frames = _frames(args, "eval")
    thresholds = cli._floats(args.thresholds, "eval: --thresholds")
    if not all(math.isfinite(t) and t > 0.0 for t in [*thresholds, args.tp_threshold]):
        raise ValueError("eval: --thresholds and --tp-threshold must be finite and positive")
    if not (math.isfinite(args.maae) and args.maae >= 0.0):
        raise ValueError("eval: --maae must be finite and nonnegative")
    keys = [f"{th:g}" for th in thresholds]
    if len(set(keys)) < len(keys):
        raise ValueError("eval: --thresholds must differ in their first 6 significant digits")
    frame_scores = []
    frame_tp = [[] for _ in thresholds]
    n_gt = 0
    matched = []
    for frame_gt, frame_det, gt_rows, kept_gt in frames:
        gt_centers = frame_gt.boxes[kept_gt, :2]
        centers = polar_centers(frame_det.boxes)
        kept = _in_region(region, centers.tolist())
        scores = frame_det.scores[kept]
        *at_thresholds, (matches, _) = frame_match_by_center_distance(
            centers[kept], scores, gt_centers, [*thresholds, args.tp_threshold]
        )
        frame_scores.append(scores)
        for flags, (_, is_tp) in zip(frame_tp, at_thresholds):
            flags.append(is_tp)
        n_gt += len(kept_gt)
        if matches:
            di = [kept[pi] for pi, _ in matches]
            gj = [kept_gt[gi] for _, gi in matches]
            gt_boxes = np.reshape([polar_fields(*gt_rows[j]) for j in gj], (-1, 9))
            v = frame_gt.velocities[gj]
            gt_velocities = np.column_stack(rotate_planar(v[:, 0], v[:, 1], -gt_boxes[:, 1], gt_boxes[:, 2]))
            matched.append((frame_det.boxes[di], frame_det.velocities[di], gt_boxes, gt_velocities))
    pairs = [np.concatenate(rows) for rows in zip(*matched)]
    n_pairs = len(pairs[0]) if pairs else 0
    ap = {key: metrics.average_precision_frames(frame_scores, flags, n_gt) for key, flags in zip(keys, frame_tp)}
    values = list(ap.values())
    m_ap = None if any(v is None for v in values) else float(np.mean(values))
    report = {"ap": ap, "map": m_ap, "tp_threshold": args.tp_threshold, "matched_pairs": n_pairs}
    if n_pairs:
        report["tp_errors"] = dataclasses.asdict(metrics.tp_errors(*pairs))
        if m_ap is not None:
            report["maae"] = args.maae
            report["nds"] = metrics.nds(m_ap, [*report["tp_errors"].values(), args.maae])
    return report
