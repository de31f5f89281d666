"""Output checks.  Each returns a list of problems; an empty list passes.

The assignment check rebuilds every frame's cost matrix with this file's
own numpy code from the scene and detection files and solves it with
``scipy.optimize.linear_sum_assignment``.  The oracle checks use the
acceptance suite's tolerances, measured against oracles accurate enough
for them (see ``check_gradcheck`` and ``check_roundtrip``).  They also
record, in the ``stats`` dict they are given, the worst error found and
how many items exceed the tolerance, both as gated and as the suite
measures it, so that a change in these figures shows.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

GRADCHECK_TOL = 1e-5
SYMMETRY_TOL = 1e-9
ROUNDTRIP_TOL = 1e-9
COST_RTOL = 1e-9
NDS_TOL = 1e-12
LOSS_RTOL = 1e-9
COMPLEX_STEP = 1e-30
# decode gives z as z_min + span * sigmoid(b_z), whose rounding is absolute
# (about 1e-15 m), so z's relative error is taken against max(|z|, 1 m)
Z_SCALE_FLOOR = 1.0
# the figures the oracle checks record; per-layer metrics of the same names.
# ``fd_`` and ``unfloored_`` figures are measured as the acceptance suite
# does and are recorded, not gated.
STATS = (
    "oracle.gradcheck.max_rel_error",
    "oracle.gradcheck.fixtures_over_tol",
    "oracle.gradcheck.fd_max_rel_error",
    "oracle.gradcheck.fd_fixtures_over_tol",
    "oracle.symmetry.max_pixel_error",
    "oracle.symmetry.max_depth_error",
    "oracle.roundtrip.max_rel_error",
    "oracle.roundtrip.boxes_over_tol",
    "oracle.roundtrip.unfloored_max_rel_error",
    "oracle.roundtrip.unfloored_boxes_over_tol",
)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _class_cost(p: np.ndarray, form: str) -> np.ndarray:
    if form == "negative_prob":
        return -p
    gamma, alpha, eps = 2.0, 0.25, 1e-8
    pos = alpha * (1.0 - p) ** gamma * -np.log(p + eps)
    neg = (1.0 - alpha) * p**gamma * -np.log(1.0 - p + eps)
    return pos - neg


def _in_region(xy: np.ndarray, argv: list[str]) -> np.ndarray:
    mode = _flag(argv, "--range-mode", "circular")
    if mode == "circular":
        return np.hypot(xy[:, 0], xy[:, 1]) <= float(_flag(argv, "--r-max", "50"))
    if mode == "rectangular":
        x_max, y_max = float(_flag(argv, "--x-max", "50")), float(_flag(argv, "--y-max", "50"))
        return (np.abs(xy[:, 0]) < x_max) & (np.abs(xy[:, 1]) < y_max)
    return np.ones(len(xy), dtype=bool)


def check_assign(scene_path: str, dets_path: str, assign_path: str, argv: list[str]) -> list[str]:
    """Each frame's total cost equals the optimum of an independently built cost matrix."""
    scene, dets, report = _load(scene_path), _load(dets_path), _load(assign_path)
    k = float(_flag(argv, "--k-scaling", "20"))
    form = _flag(argv, "--class-cost", "negative_prob")
    if len(report["frames"]) != len(scene["frames"]):
        return ["assign: frame count differs from the scene"]
    problems = []
    for n, (fg, fd, fr) in enumerate(zip(scene["frames"], dets["frames"], report["frames"])):
        objects = fg["objects"]
        gt_xy = np.array([o["box"][:2] for o in objects], dtype=np.float64).reshape(-1, 2)
        keep = _in_region(gt_xy, argv)
        gt_xy = gt_xy[keep]
        labels = np.array([o["class"] for o in objects], dtype=np.int64)[keep]
        r = np.hypot(gt_xy[:, 0], gt_xy[:, 1])
        gt = np.column_stack([r, gt_xy[:, 1] / r, gt_xy[:, 0] / r])
        pred = np.array([d["box"][:3] for d in fd["detections"]], dtype=np.float64).reshape(-1, 3)
        pairs = fr["pairs"]
        if min(len(gt), len(pred)) == 0:
            if pairs:
                problems.append(f"assign: frame {n} has pairs but an empty side")
            continue
        probs = np.array([d["probs"] for d in fd["detections"]], dtype=np.float64)
        box = np.abs(gt[:, None, 0] - pred[None, :, 0]) + k * (
            np.abs(gt[:, None, 1] - pred[None, :, 1]) + np.abs(gt[:, None, 2] - pred[None, :, 2])
        )
        costs = box + _class_cost(probs[:, labels].T, form)
        rows, cols = linear_sum_assignment(costs)
        expected = float(costs[rows, cols].sum())
        reported = math.fsum(p["cost"] for p in pairs)
        if len(pairs) != len(rows):
            problems.append(f"assign: frame {n} has {len(pairs)} pairs, expected {len(rows)}")
        elif abs(reported - expected) > COST_RTOL * max(1.0, abs(expected)):
            problems.append(f"assign: frame {n} total cost {reported!r} != optimum {expected!r}")
    return problems


def check_track(dets_path: str, tracks_path: str) -> list[str]:
    """Every detection of every frame carries a track id below the spawn count."""
    dets, report = _load(dets_path), _load(tracks_path)
    created = report["summary"]["tracks_created"]
    if "id_switches" not in report["summary"]:
        return ["track: summary lacks id_switches"]
    if [len(f["detections"]) for f in report["frames"]] != [len(f["detections"]) for f in dets["frames"]]:
        return ["track: detections per frame differ from the input"]
    ids = [d["track_id"] for f in report["frames"] for d in f["detections"]]
    if ids and not (0 <= min(ids) and max(ids) < created):
        return [f"track: track ids outside [0, {created})"]
    return []


def _eval_report(path: str) -> dict:
    if path.endswith(".json"):
        report = _load(path)
        flat = {f"ap@{k}": v for k, v in report.pop("ap").items()}
        flat.update(report.pop("tp_errors", {}))
        flat.update(report)
        return flat
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return {key: (float(value) if value else None) for key, value in rows}


def check_eval(path: str) -> list[str]:
    """Every AP lies in [0, 1]; map and nds follow from the reported sub-metrics."""
    report = _eval_report(path)
    aps = [v for k, v in report.items() if k.startswith("ap@")]
    if not aps or any(v is None or not 0.0 <= v <= 1.0 for v in aps):
        return [f"eval: AP outside [0, 1]: {aps}"]
    problems = []
    if abs(report["map"] - sum(aps) / len(aps)) > NDS_TOL:
        problems.append("eval: map is not the mean of the APs")
    tps = [report[k] for k in ("ate", "ase", "aoe", "ave", "maae")]
    expected = (5.0 * report["map"] + sum(1.0 - min(1.0, v) for v in tps)) / 10.0
    if abs(report["nds"] - expected) > NDS_TOL:
        problems.append(f"eval: nds {report['nds']!r} != composite {expected!r}")
    return problems


def _pair_loss(x: np.ndarray, gt: np.ndarray, rc, signs=None):
    """Matched-pair box + velocity L1 loss of each row, from the loss's definition.

    ``x`` holds the 9 raw box channels and the 2 velocity components, ``gt``
    the 9 polar box parameters and 2 velocity components.  Each |residual|
    is written as sign * residual with the signs taken at the real point, so
    the function is analytic there and accepts complex ``x``.
    """
    b = x[:, :9]

    def sigmoid(t):
        return 1.0 / (1.0 + np.exp(-t))

    n_a = np.sqrt(b[:, 1] ** 2 + b[:, 2] ** 2)
    n_t = np.sqrt(b[:, 7] ** 2 + b[:, 8] ** 2)
    pred = np.column_stack(
        [
            rc.r_max * sigmoid(b[:, 0]),
            b[:, 1] / n_a,
            b[:, 2] / n_a,
            rc.z_min + (rc.z_max - rc.z_min) * sigmoid(b[:, 3]),
            np.exp(b[:, 4:7]),
            b[:, 7] / n_t,
            b[:, 8] / n_t,
            x[:, 9:11],
        ]
    )
    residuals = pred - gt
    if signs is None:
        signs = np.where(residuals.real > 0.0, 1.0, -1.0)
    weights = np.array([1.0, rc.k_scaling, rc.k_scaling] + [1.0] * 8)
    return (weights * signs * residuals).sum(axis=1), signs


def check_gradcheck(path: str, fixtures: int, seed: int, stats: dict) -> list[str]:
    """The analytic gradient of every fixture against its complex-step derivative.

    ``gradcheck`` compares ``loss.loss_gradient`` with a step-1e-6 central
    difference, whose roundoff (about 1e-9 at a loss of about 100) exceeds
    1e-5 relative on components below about 3e-4: on most seeds one to four
    of 1500 fixtures.  So this check redraws the command's fixtures (the
    same generator and seed) and compares the program's gradient, at the
    same 1e-5 relative tolerance and with the command's error formula, with
    the complex-step derivative of ``_pair_loss``, which is exact to
    rounding.  ``_pair_loss`` must equal the program's ``matched_pair_loss``.
    The command's own figures are recorded as ``fd_`` stats.
    """
    from polarview import geometry, loss

    with open(path, newline="", encoding="utf-8") as fh:
        fd_errors = [float(row[1]) for row in list(csv.reader(fh))[1:]]
    if len(fd_errors) != fixtures:
        return [f"gradcheck: {len(fd_errors)} rows, expected {fixtures}"]
    if not all(math.isfinite(e) and e >= 0.0 for e in fd_errors):
        return ["gradcheck: an error is negative or not finite"]
    stats.update(
        {
            "oracle.gradcheck.fd_max_rel_error": max(fd_errors),
            "oracle.gradcheck.fd_fixtures_over_tol": sum(1 for e in fd_errors if e > GRADCHECK_TOL),
        }
    )

    rc = geometry.RangeConfig()
    rng = np.random.default_rng(seed)
    x, gt, analytic, program_loss = [], [], [], []
    for _ in range(fixtures):
        enc, vel, gt_box, gt_vel = loss.random_gradient_fixture(rng, rc)
        x.append([*enc.as_array(), vel.v_rad, vel.v_tan])
        gt.append([*gt_box.as_array(), gt_vel.v_rad, gt_vel.v_tan])
        analytic.append(loss.loss_gradient(enc, vel, gt_box, gt_vel, rc))
        program_loss.append(loss.matched_pair_loss(enc, vel, gt_box, gt_vel, rc))
    x, gt, analytic, program_loss = (np.array(a, dtype=np.float64) for a in (x, gt, analytic, program_loss))

    value, signs = _pair_loss(x, gt, rc)
    problems = []
    if (np.abs(value - program_loss) > LOSS_RTOL * np.maximum(1.0, np.abs(program_loss))).any():
        problems.append("gradcheck: matched_pair_loss differs from the loss definition")
    exact = np.empty_like(x)
    for k in range(x.shape[1]):
        stepped = x.astype(np.complex128)
        stepped[:, k] += 1j * COMPLEX_STEP
        exact[:, k] = _pair_loss(stepped, gt, rc, signs)[0].imag / COMPLEX_STEP
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(exact)), 1e-8)
    errors = (np.abs(analytic - exact) / scale).max(axis=1)
    worst, over = float(errors.max()), int((errors > GRADCHECK_TOL).sum())
    stats.update({"oracle.gradcheck.max_rel_error": worst, "oracle.gradcheck.fixtures_over_tol": over})
    if over:
        problems.append(
            f"gradcheck: {over} of {fixtures} gradients over {GRADCHECK_TOL} against the complex-step "
            f"derivative, max relative error {worst!r}"
        )
    return problems


def check_symmetry(path: str, stats: dict) -> list[str]:
    report = _load(path)
    pixel, depth = report["max_pixel_error"], report["max_depth_error"]
    stats.update({"oracle.symmetry.max_pixel_error": pixel, "oracle.symmetry.max_depth_error": depth})
    worst = max(pixel, depth)
    return [] if worst <= SYMMETRY_TOL else [f"symmetry: discrepancy {worst!r} > {SYMMETRY_TOL}"]


def check_roundtrip(boxes: np.ndarray, decoded: np.ndarray, stats: dict) -> list[str]:
    """One chunk of decode(encode); ``stats`` accumulates over the chunks of a call.

    The acceptance suite divides by |x|.  A z within about 1e-6 m of 0 then
    turns decode's one-ulp absolute rounding into a relative error above
    1e-9 (on about one seed in 30 at 500k boxes), so the gate divides z's
    error by max(|z|, 1 m); the suite's figure is recorded as ``unfloored_``.
    """
    error = np.abs(decoded - boxes)
    scale = np.abs(boxes)
    unfloored = (error / np.maximum(scale, 1e-300)).max(axis=1)
    scale[:, 3] = np.maximum(scale[:, 3], Z_SCALE_FLOOR)
    rel = (error / np.maximum(scale, 1e-300)).max(axis=1)
    worst, over = float(rel.max()), int((rel > ROUNDTRIP_TOL).sum())
    for prefix, errors in (("oracle.roundtrip.", rel), ("oracle.roundtrip.unfloored_", unfloored)):
        stats[prefix + "max_rel_error"] = max(stats.get(prefix + "max_rel_error", 0.0), float(errors.max()))
        stats[prefix + "boxes_over_tol"] = stats.get(prefix + "boxes_over_tol", 0) + int((errors > ROUNDTRIP_TOL).sum())
    if not over:
        return []
    return [f"decode(encode): {over} boxes over {ROUNDTRIP_TOL}, max relative error {worst!r}"]


def check_bilinear(grid: np.ndarray, cells: np.ndarray, values: np.ndarray, valid: np.ndarray) -> list[str]:
    """Spot-check 1000 samples against a direct four-corner blend."""
    h, w, _ = grid.shape
    problems = []
    for i in np.linspace(0, len(cells) - 1, 1000).astype(int):
        x, y = cells[i]
        inside = 0.0 <= x <= w - 1.0 and 0.0 <= y <= h - 1.0
        if inside != bool(valid[i]):
            problems.append(f"bilinear: validity of point {i} is {bool(valid[i])}")
            continue
        expected = np.zeros(grid.shape[2])
        if inside:
            x0, y0 = int(math.floor(x)), int(math.floor(y))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = x - x0, y - y0
            expected = (
                grid[y0, x0] * (1 - fx) * (1 - fy)
                + grid[y0, x1] * fx * (1 - fy)
                + grid[y1, x0] * (1 - fx) * fy
                + grid[y1, x1] * fx * fy
            )
        if np.abs(values[i] - expected).max() > 1e-12:
            problems.append(f"bilinear: value of point {i} differs from the four-corner blend")
    return problems[:3]


def check_hungarian(costs: np.ndarray, pairs) -> list[str]:
    rows, cols = linear_sum_assignment(costs)
    expected = float(costs[rows, cols].sum())
    total = math.fsum(costs[j, i] for j, i in pairs)
    if len(pairs) != min(costs.shape) or abs(total - expected) > COST_RTOL * max(1.0, abs(expected)):
        return [f"hungarian: total {total!r} != optimum {expected!r}"]
    return []
