"""Batch command-line surface for reproducible experiments.

Subcommands: simulate, render, assign, track, eval, symmetry-check,
range-demo, gradcheck, nds.  Exit codes: 0 success, 1 validation error
(including bad flags), 2 I/O error.  Identical argv plus identical input
files produce byte-identical outputs: every random draw is seeded and
floats are serialized at fixed precision.

Each subcommand accepts ``--config FILE`` with a JSON object whose keys
mirror the flag names (dashes or underscores); config values override
flags and pass the same type and choice checks.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import sys
from itertools import pairwise

import numpy as np

from . import assignment, loss, metrics, serialization, tracker
from .camera import make_symmetric_rig, max_rotation_discrepancy
from .geometry import RangeConfig, polar_boxes, polar_centers, rotate_planar
from .simulator import NoiseModel, SceneConfig, generate_scene, render_detections

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _floats(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of a flag's value; ``flag`` names it in the error."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, then again with the ``--config`` values appended as flags."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    try:
        overrides = serialization.read_json(args.config)
    except ValueError as exc:
        raise ValueError(f"--config: {exc}") from None
    if not isinstance(overrides, dict):
        raise ValueError("--config file must hold a JSON object")
    extra = []
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("command", "config", "func"):
            raise ValueError(f"--config: unknown key {key!r}")
        if value is None:
            raise ValueError(f"--config: key {key!r} is null")
        extra.append(f"--{attr.replace('_', '-')}={value}")
    return parser.parse_args(argv + extra)  # a flag's last value wins, so config overrides


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    scene = generate_scene(_settings(SceneConfig, args), rig=make_symmetric_rig(args.cameras))
    serialization.save_scene(scene, args.out)
    return 0


def _cmd_render(args) -> int:
    scene = serialization.load_scene(args.scene)
    dets = render_detections(scene, _settings(NoiseModel, args), RangeConfig(r_max=args.r_max))
    serialization.save_detections(dets, args.out)
    return 0


def _region_from_args(args):
    if args.range_mode == "circular":
        return assignment.CircularRange(r_max=args.r_max)
    if args.range_mode == "rectangular":
        return assignment.RectangularRange(x_max=args.x_max, y_max=args.y_max)
    return None


def _in_region(region, rows: np.ndarray) -> np.ndarray:
    """Mask of the rows whose first two values (x, y) lie in the region (all rows for None)."""
    if region is None:
        return np.ones(len(rows), dtype=bool)
    return region.contains(rows[:, 0], rows[:, 1])


def _kept_counts(counts: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Per frame, how many of its ``counts[f]`` rows the mask ``kept`` keeps."""
    return np.bincount(np.repeat(np.arange(len(counts)), counts)[kept], minlength=len(counts))


def _same_times(scene, dets, command: str) -> None:
    """Refuse a scene and detections whose frames are not at the same times, in the same order."""
    if not np.array_equal(scene.times, dets.times):
        raise ValueError(f"{command}: scene and detections disagree on frame times")


def _ground_truth(args, command: str, *names: str):
    """Load ``--scene`` and ``--detections``, check their frame times agree, and keep the objects in the region.

    Returns the region, the detections, and the kept objects of all frames: their per-frame counts, box
    rows, and the rows of each ``Scene.stacked`` field in ``names``.
    """
    scene = serialization.load_scene(args.scene)
    dets = serialization.load_detections(args.detections)
    _same_times(scene, dets, command)
    region = _region_from_args(args)
    counts, boxes, *rows = scene.stacked("boxes", *names)
    kept = _in_region(region, boxes)
    return region, dets, [_kept_counts(counts, kept), boxes[kept], *(a[kept] for a in rows)]


def _cmd_assign(args) -> int:
    _, dets, (gt_counts, gt_rows, gt_classes, gt_ids) = _ground_truth(args, "assign", "classes", "ids")
    if not (math.isfinite(args.k_scaling) and args.k_scaling >= 1.0):
        raise ValueError("assign: --k-scaling must be finite and >= 1")
    counts, boxes, probs = dets.stacked("boxes", "probs")
    gt_boxes = polar_boxes(gt_rows)
    starts, gt_starts = (np.concatenate([[0], np.cumsum(c)]) for c in (counts, gt_counts))
    frames_out, local, n_pairs = [], [], []  # local: each frame's (gt, pred) pairs, frame by frame
    for t, (lo, hi), (g_lo, g_hi) in zip(dets.times.tolist(), pairwise(starts.tolist()), pairwise(gt_starts.tolist())):
        costs = assignment.build_cost_matrix(
            (boxes[lo:hi], probs[lo:hi]), (gt_boxes[g_lo:g_hi], gt_classes[g_lo:g_hi]), args.k_scaling,
            class_cost_form=args.class_cost,
        )
        result = assignment.hungarian(costs)
        local += result.pairs
        n_pairs.append(len(result))
        frames_out.append(
            {
                "t": t,
                "pairs": None,  # filled from the table of all frames' pairs below
                "unmatched_gts": sorted(set(range(g_hi - g_lo)) - result.matched_gts()),
                "unmatched_preds": sorted(set(range(hi - lo)) - result.matched_preds()),
            }
        )
    gts, preds = np.array(local, dtype=np.intp).reshape(-1, 2).T
    g, p = gts + np.repeat(gt_starts[:-1], n_pairs), preds + np.repeat(starts[:-1], n_pairs)  # rows of the file
    class_costs = assignment.class_cost(probs[p], gt_classes[g], form=args.class_cost)
    box_costs = assignment.box_cost(boxes[p], gt_boxes[g], args.k_scaling)
    # the cost matrix adds the same two terms, so the sum is its cell, bit for bit
    columns = (gts, gt_ids[g], preds, box_costs + class_costs, class_costs, box_costs)
    keys = ("gt", "gt_id", "pred", "cost", "class_cost", "box_cost")
    for frame, records in zip(frames_out, serialization._RecordTable(n_pairs, dict(zip(keys, columns)))):
        frame["pairs"] = records
    report = {
        "schema_version": serialization.SCHEMA_VERSION,
        "k_scaling": args.k_scaling,
        "frames": frames_out,
    }
    _write_text(args.out, serialization.dumps_json(report) + "\n")
    return 0


def _cmd_track(args) -> int:
    dets = serialization.load_detections(args.detections)
    result = tracker.run_tracker(dets, _settings(tracker.TrackerConfig, args))
    summary = {"tracks_created": result.tracks_created}
    if args.scene:
        scene = serialization.load_scene(args.scene)
        _same_times(scene, dets, "track")
        summary["id_switches"] = tracker.count_id_switches(result, scene)
    track_ids = np.concatenate([np.zeros(0, dtype=np.int64), *result.track_ids])
    report = serialization._detections_document(dets, {"track_id": track_ids})
    report["summary"] = summary
    _write_text(args.out, serialization.dumps_json(report) + "\n")
    return 0


def _eval_metrics(args) -> dict:
    region, dets, (gt_counts, gt_rows, gt_velocities) = _ground_truth(args, "eval", "velocities")
    thresholds = _floats(args.thresholds, "eval: --thresholds")
    if not all(math.isfinite(t) and t > 0.0 for t in [*thresholds, args.tp_threshold]):
        raise ValueError("eval: --thresholds and --tp-threshold must be finite and positive")
    if not (math.isfinite(args.maae) and args.maae >= 0.0):
        raise ValueError("eval: --maae must be finite and nonnegative")
    keys = [f"{th:g}" for th in thresholds]  # the AP keys
    if len(set(keys)) < len(keys):
        raise ValueError("eval: --thresholds must differ in their first 6 significant digits")
    counts, boxes, velocities, scores = dets.stacked("boxes", "velocities", "scores")
    centers = polar_centers(boxes)
    kept = _in_region(region, centers)
    *at_thresholds, (matches, _) = metrics.match_by_center_distance(
        centers[kept], scores[kept], _kept_counts(counts, kept), gt_rows[:, :2], gt_counts,
        [*thresholds, args.tp_threshold],
    )
    pairs = []  # the matched rows: pred boxes, pred velocities, gt boxes, gt velocities
    if matches:
        di, gj = np.array(matches).T
        di = np.flatnonzero(kept)[di]
        gt_boxes = polar_boxes(gt_rows[gj])  # only these need an azimuth
        v = gt_velocities[gj]
        gt_v = np.column_stack(rotate_planar(v[:, 0], v[:, 1], -gt_boxes[:, 1], gt_boxes[:, 2]))
        pairs = [boxes[di], velocities[di], gt_boxes, gt_v]
    n_pairs = len(matches)
    ap = {key: metrics.average_precision_frames([scores[kept]], [is_tp], len(gt_rows))
          for key, (_, is_tp) in zip(keys, at_thresholds)}
    values = list(ap.values())
    m_ap = None if any(v is None for v in values) else float(np.mean(values))
    report: dict = {
        "ap": ap,
        "map": m_ap,
        "tp_threshold": args.tp_threshold,
        "matched_pairs": n_pairs,
    }
    if n_pairs:
        report["tp_errors"] = dataclasses.asdict(metrics.tp_errors(*pairs))  # ate, ase, aoe, ave
        if m_ap is not None:
            report["maae"] = args.maae
            report["nds"] = metrics.nds(m_ap, [*report["tp_errors"].values(), args.maae])
    return report


def _cmd_eval(args) -> int:
    report = _eval_metrics(args)
    if args.format == "json":
        _write_text(args.out, serialization.dumps_json(report) + "\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["metric", "value"])
        flat = dict(report)
        rows = [(f"ap@{key}", value) for key, value in flat.pop("ap").items()]
        for key, value in [*rows, *flat.pop("tp_errors", {}).items(), *flat.items()]:
            if isinstance(value, float):
                value = serialization.dumps_json(value)
            writer.writerow([key, "" if value is None else value])
        _write_text(args.out, buf.getvalue())
    return 0


def _cmd_symmetry_check(args) -> int:
    if args.points < 0:
        raise ValueError("symmetry-check: --points must be >= 0")
    if args.seed < 0:
        raise ValueError("symmetry-check: --seed must be >= 0")
    rig = make_symmetric_rig(args.cameras)
    rng = np.random.default_rng(args.seed)
    r = rng.uniform(5.0, 40.0, size=args.points)
    a = rng.uniform(-math.pi, math.pi, size=args.points)
    z = rng.uniform(-1.0, 1.0, size=args.points)
    points = np.stack([r * np.cos(a), r * np.sin(a), z], axis=1)
    max_px, max_depth = max_rotation_discrepancy(rig, points)
    report = {
        "cameras": args.cameras,
        "seed": args.seed,
        "points": args.points,
        "max_pixel_error": max_px,
        "max_depth_error": max_depth,
    }
    _write_text(args.out, serialization.dumps_json(report) + "\n")
    return 0


def _cmd_range_demo(args) -> int:
    objects, circular, rectangular = assignment.range_ambiguity_fixture()
    centers = np.array([(b.x, b.y) for b in objects])
    kept_c, kept_r = (np.flatnonzero(_in_region(region, centers)).tolist() for region in (circular, rectangular))
    report = {
        "objects": [{"x": x, "y": y, "r": math.hypot(x, y)} for x, y in centers.tolist()],
        "circular": {"r_max": circular.r_max, "kept": kept_c},
        "rectangular": {
            "x_max": rectangular.x_max,
            "y_max": rectangular.y_max,
            "kept": kept_r,
            "dropped": [i for i in range(len(centers)) if i not in kept_r],
        },
    }
    _write_text(args.out, serialization.dumps_json(report) + "\n")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.fixtures < 0:
        raise ValueError("gradcheck: --fixtures must be >= 0")
    if args.seed < 0:
        raise ValueError("gradcheck: --seed must be >= 0")
    rng = np.random.default_rng(args.seed)
    rc = RangeConfig()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["fixture_id", "max_rel_error"])
    fixtures = [loss.random_gradient_fixture(rng, rc) for _ in range(args.fixtures)]
    analytic = np.empty((args.fixtures, 11))  # filled in place: no F small arrays stay alive
    for fid, fixture in enumerate(fixtures):
        analytic[fid] = loss.loss_gradient(*fixture, rc)
    # one finite-difference call over every fixture: the (encodings, velocities, gt boxes, gt velocities)
    numeric = loss.finite_difference_gradient(*([fixture[j] for fixture in fixtures] for j in range(4)), rc)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    for fid, rel in enumerate((np.abs(analytic - numeric) / scale).max(axis=1).tolist()):
        writer.writerow([fid, serialization.dumps_json(rel)])
    _write_text(args.out, buf.getvalue())
    return 0


def _cmd_nds(args) -> int:
    tps = _floats(args.tps, "nds: --tps")
    score = metrics.nds(args.map, tps)
    sys.stdout.write(f"{score:.3f}\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Per settings class, its command's flags in listing order, each mapped to the field it sets; None
# marks a flag of the command's own, whose add_argument keywords the caller of _add_settings gives.
_SETTINGS_FLAGS = {
    SceneConfig: {
        "--objects": "n_objects", "--frames": "n_frames", "--dt": "dt", "--cameras": None, "--r-max": "r_max",
        "--classes": "n_classes", "--speed-min": "speed_min", "--speed-max": "speed_max", "--ego": "ego_motion",
        "--ego-speed": "ego_speed", "--ego-yaw-rate": "ego_yaw_rate", "--seed": "seed",
    },
    NoiseModel: {
        "--radial-std": "radial_std", "--tangential-std": "tangential_std", "--z-std": "z_std",
        "--size-std": "size_rel_std", "--yaw-std": "yaw_std", "--velocity-std": "velocity_std",
        "--drop-prob": "drop_prob", "--fp-rate": "false_positive_rate", "--noise-frame": "mode", "--r-max": None,
        "--seed": "seed",
    },
    tracker.TrackerConfig: {"--threshold": "distance_threshold", "--max-misses": "max_misses", "--matching": "matching"},
}


def _settings(cls, args):
    """``cls`` built from the parsed flags that set its fields."""
    flags = _SETTINGS_FLAGS[cls].items()
    return cls(**{name: getattr(args, flag[2:].replace("-", "_")) for flag, name in flags if name})


def _add_settings(p: _Parser, cls, own: dict | None = None) -> None:
    """Add the flags of ``_SETTINGS_FLAGS[cls]`` in order, each with its field's default, and its choices or else
    the default's type; ``own`` gives the add_argument keywords of each of the command's own flags."""
    fields = cls.__dataclass_fields__
    for flag, name in _SETTINGS_FLAGS[cls].items():
        if name is None:
            p.add_argument(flag, **own[flag])
        elif "choices" in fields[name].metadata:
            p.add_argument(flag, default=fields[name].default, choices=fields[name].metadata["choices"])
        else:
            p.add_argument(flag, default=fields[name].default, type=type(fields[name].default))


def _add_range_flags(p: _Parser) -> None:
    p.add_argument("--range-mode", choices=["circular", "rectangular", "none"], default="circular")
    p.add_argument("--r-max", type=float, default=50.0)
    p.add_argument("--x-max", type=float, default=50.0)
    p.add_argument("--y-max", type=float, default=50.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="polarview", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a synthetic scene JSON")
    _add_settings(p, SceneConfig, {"--cameras": dict(type=int, default=6)})
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("render", help="render noisy detections from a scene")
    p.add_argument("--scene", required=True)
    _add_settings(p, NoiseModel, {"--r-max": dict(type=float, default=50.0)})
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("assign", help="Hungarian assignment of detections to ground truth")
    p.add_argument("--scene", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--k-scaling", type=float, default=20.0)
    p.add_argument("--class-cost", choices=assignment.CLASS_COST_FORMS, default=assignment.CLASS_COST_FORMS[0])
    _add_range_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("track", help="tracking-by-detection over a detection set")
    p.add_argument("--detections", required=True)
    p.add_argument("--scene", default=None, help="optional ground truth for id-switch count")
    _add_settings(p, tracker.TrackerConfig)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="detection metrics against scene ground truth")
    p.add_argument("--scene", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--thresholds", default="0.5,1,2,4", help="AP center-distance thresholds (m)")
    p.add_argument("--tp-threshold", type=float, default=2.0)
    p.add_argument("--maae", type=float, default=1.0, help="attribute error fed into the composite score")
    _add_range_flags(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("symmetry-check", help="max projection discrepancy under rig rotation")
    p.add_argument("--cameras", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_symmetry_check)

    p = sub.add_parser("range-demo", help="circular vs rectangular filtering of an equal-radius pair")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_range_demo)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradient errors (CSV)")
    p.add_argument("--fixtures", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("nds", help="composite detection score from published sub-metrics")
    p.add_argument("--map", type=float, required=True)
    p.add_argument("--tps", required=True, help="comma-separated mATE,mASE,mAOE,mAVE,mAAE")
    p.set_defaults(func=_cmd_nds)

    for sp in sub.choices.values():
        sp.add_argument("--config", default=None, help="JSON file whose keys override flags")

    return parser


_parser = functools.cache(build_parser)  # main's parser: parsing leaves it as it was, so one serves every call


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(_parser(), argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        sys.stderr.write(f"polarview: i/o error: {exc}\n")
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"polarview: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"polarview: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
