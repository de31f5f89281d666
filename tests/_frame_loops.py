"""References for the whole-file passes: center-distance matching, the ``assign`` and ``eval`` loops and the
id-switch count as they ran one frame at a time, with one distance or cost matrix per frame, and the tracker's
greedy claim as a plain loop over a dense matrix, which shares no matcher with ``polarview``; the cutting of a
scene or detections file into frames with the checks each set made over its frames; and the tracker run one
frame at a time, with one ``back_project`` and one distance matrix per frame; and ``render`` drawing, noising
and checking one object at a time.

The tests hold the whole-file code to these: the same matches, documents, counts, frames and track ids, and
the same error message for a file whose one fault lies in some frame.
"""

import dataclasses
import itertools
import math

import numpy as np

from polarview import assignment, cli, metrics, serialization
from polarview.assignment import greedy_claim, hungarian
from polarview.geometry import planar_distances, polar_centers, polar_fields, rotate_planar, wrap_angle
from polarview.simulator import DetectionSet
from polarview.tracker import TrackerState, back_project


def frame_slices(owner, times, counts, *rows):
    """Per frame, its time and the slices of the checked ``rows`` it holds, as a ``Scene`` or ``DetectionSet``
    (``owner``) was cut into frames one by one and then checked frame by frame: the counts, the times and, for a
    scene whose first row array holds the object ids, ids that differ within each frame."""
    frame = "SceneFrame" if owner == "Scene" else "DetectionFrame"
    times = [float(t) for t in times]
    bounds = [0, *itertools.accumulate(counts)]
    if len(counts) != len(times) or any(c < 0 for c in counts) or bounds[-1] != len(rows[0]):
        raise ValueError(f"{frame}: need one nonnegative row count per frame, adding up to the rows")
    frames = [(t, [a[lo:hi] for a in rows]) for t, lo, hi in zip(times, bounds, bounds[1:])]
    if not all(map(math.isfinite, times)) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"{owner}: timestamps must be finite and strictly increase")
    if owner == "Scene" and any(len(set(ids.tolist())) != len(ids) for _, (ids, *_) in frames):
        raise ValueError("Scene: object ids must be unique within a frame")
    return frames


def frame_loop_track_ids(detections, config):
    """Per frame in turn, its track-id array and the tracks spawned so far, as ``tracker.run_tracker`` gave them
    stepping one frame at a time: the frame's labels and centers, one ``back_project`` where its detections meet
    active tracks, one distance matrix gated by class and distance, the greedy claim of ``reference_greedy`` or
    LSAP, and the update of the track rows."""
    state = TrackerState(config=config)
    prev_t = None
    for frame in detections.frames:
        dt = frame.t - prev_t if prev_t is not None else 1.0
        prev_t = frame.t
        matches = []
        if len(frame) and len(state.tracks):
            dist = planar_distances(back_project(frame.boxes, frame.velocities, dt), state.centers)
            allowed = (frame.labels[:, None] == state.labels[None, :]) & (dist <= config.distance_threshold)
            if config.matching == "hungarian":
                big = config.distance_threshold * (min(dist.shape) + 1) + 1.0
                gated = np.where(allowed, dist, big)
                matches = [(di, ti) for di, ti in hungarian(gated).pairs if gated[di, ti] < big]
            else:
                matches = reference_greedy(dist, allowed)
        det, trk = np.array(sorted(matches), dtype=np.intp).reshape(-1, 2).T
        new = [di for di in range(len(frame)) if di not in set(det.tolist())]
        new_ids = np.arange(state.created, state.created + len(new), dtype=np.int64)
        assigned = np.empty(len(frame), dtype=np.int64)
        assigned[det] = state.tracks[trk]
        assigned[new] = new_ids
        centers = polar_centers(frame.boxes)
        state.centers[trk] = centers[det]
        state.misses += 1
        state.misses[trk] = 0
        keep = state.misses <= config.max_misses
        state.tracks = np.concatenate([state.tracks[keep], new_ids])
        state.centers = np.concatenate([state.centers[keep], centers[new]])
        state.labels = np.concatenate([state.labels[keep], frame.labels[new]])
        state.misses = np.concatenate([state.misses[keep], np.zeros(len(new), dtype=np.int64)])
        state.created += len(new)
        yield assigned, state.created


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


def reference_greedy(dist, allowed):
    """The greedy claim as a plain loop: the ``allowed`` (row, column) cells sorted by (distance, row, column),
    each claimed when its row and column are both untaken; pairs in claim order."""
    rows, cols = np.nonzero(allowed)
    candidates = sorted(zip(dist[rows, cols].tolist(), rows.tolist(), cols.tolist()))
    used_r, used_c, pairs = set(), set(), []
    for _, r, c in candidates:
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        pairs.append((r, c))
    return pairs


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
        for di, gi in reference_greedy(dist, allowed):
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
    if [f.t for f in scene.frames] != [f.t for f in dets.frames]:
        raise ValueError(f"{command}: scene and detections disagree on frame times")
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


def _noisy(value, name, low=-math.inf):
    """``value`` if it lies in (``low``, inf), else the ValueError naming the ``NoiseModel`` std that moved it."""
    if not low < value < math.inf:
        raise ValueError(f"NoiseModel: {name} is too large to render: a noisy value leaves the float range")
    return value


def _noisy_size(size, draw, std):
    """``size * exp(draw * std)``, refused by ``_noisy`` unless finite and positive."""
    try:
        scale = math.exp(draw * std)
    except OverflowError:
        scale = math.inf
    return _noisy(size * scale, "size_rel_std", low=0.0)


def _polar_row(x, y, z, l, w, h, yaw):
    """One box row's ``POLAR_FIELDS`` values, one ``math`` call per value; ValueError on the ego z axis."""
    r = math.hypot(x, y)
    if r == 0.0:
        raise ValueError("cartesian_to_polar: degenerate azimuth at (x, y) = (0, 0)")
    return r, y / r, x / r, z, l, w, h, math.sin(yaw), math.cos(yaw)


def object_noisy_row(box, velocity, draws, noise):
    """One kept object's noisy detection row, its polar box and polar velocity, under the nine normal ``draws``,
    every check on floats in ``render_detections``' order (the first that fails raises)."""
    (v_x, v_y), (r, sin_a, cos_a, z, l, w, h, sin_t, cos_t) = velocity, _polar_row(*box)
    if noise.mode == "polar":
        a = _noisy(math.atan2(sin_a, cos_a) + draws[1] * noise.tangential_std, "tangential_std")
        r = _noisy(max(r + draws[0] * noise.radial_std, 1e-6), "radial_std")
    else:
        x = box[0] + draws[0] * noise.radial_std
        y = box[1] + draws[1] * noise.radial_std
        r = _noisy(max(math.hypot(x, y), 1e-6), "radial_std")
        a = math.atan2(y, x)
    if (noise.tangential_std if noise.mode == "polar" else noise.radial_std) != 0.0:
        sin_a, cos_a = math.sin(a), math.cos(a)
    if noise.yaw_std > 0.0:
        yaw = wrap_angle(_noisy(box[6] + draws[6] * noise.yaw_std, "yaw_std"))
        sin_t, cos_t = math.sin(yaw), math.cos(yaw)
    v_rad, v_tan = rotate_planar(v_x, v_y, -sin_a, cos_a)
    l, w, h = (_noisy_size(s, d, noise.size_rel_std) for s, d in zip((l, w, h), draws[3:6]))
    box = (r, sin_a, cos_a, _noisy(z + draws[2] * noise.z_std, "z_std"), l, w, h, sin_t, cos_t)
    v_std = noise.velocity_std
    v_rad, v_tan = v_rad + draws[7] * v_std, v_tan + draws[8] * v_std
    return box, (_noisy(v_rad, "velocity_std"), _noisy(v_tan, "velocity_std"))


def object_loop_render(scene, noise, range_config):
    """``render_detections`` one object at a time: per frame, each object's ``uniform()`` drop draw and
    ``normal(0.0, 1.0, size=9)`` draws, then its noisy row (``object_noisy_row``; the first failing row
    raises), then the frame's false positives."""
    if noise.false_positive_rate > 0.0 and range_config.r_max < 2.0:
        raise ValueError("render_detections: false positives need r_max >= the 2 m placement floor")
    n_classes = int(scene.classes.max()) + 1 if len(scene.classes) else 1
    rng = np.random.default_rng(noise.seed)
    objects = zip(scene.classes.tolist(), scene.boxes.tolist(), scene.velocities.tolist())
    boxes, labels, velocities, scores, counts = [], [], [], [], []
    for count in scene.counts.tolist():
        start = len(scores)
        for label, box, velocity in itertools.islice(objects, count):
            dropped = rng.uniform() < noise.drop_prob
            draws = rng.normal(0.0, 1.0, size=9).tolist()
            if dropped:
                continue
            box, velocity = object_noisy_row(box, velocity, draws, noise)
            boxes.append(box)
            labels.append(label)
            velocities.append(velocity)
            scores.append(1.0)
        for _ in range(int(rng.poisson(noise.false_positive_rate))):
            r = rng.uniform(2.0, range_config.r_max)
            a = rng.uniform(-math.pi, math.pi)
            yaw = rng.uniform(-math.pi, math.pi)
            z = rng.uniform(range_config.z_min + 0.1, range_config.z_max - 0.1)
            l, w, h = (rng.uniform(low, high) for low, high in ((3.0, 5.0), (1.5, 2.2), (1.3, 2.0)))
            boxes.append((r, math.sin(a), math.cos(a), z, l, w, h, math.sin(yaw), math.cos(yaw)))
            labels.append(int(rng.integers(0, n_classes)))
            velocities.append((0.0, 0.0))
            scores.append(rng.uniform(0.1, 0.9))
        counts.append(len(scores) - start)
    return DetectionSet.from_arrays(scene.times, counts, np.reshape(boxes, (-1, 9)),
                                    np.eye(n_classes)[labels], np.reshape(velocities, (-1, 2)), scores)
