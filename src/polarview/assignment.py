"""Polar matching cost, perception-range filtering, optimal and greedy assignment.

The pairwise cost between a prediction and a ground-truth box combines a
class term with the polar box term

    |r - r_gt| + k_scaling * (|sin_a - sin_a_gt| + |cos_a - cos_a_gt|)

which deliberately uses only the radial distance and the azimuth pair.
``k_scaling`` (default 20) rescales the tangential terms so the radial
coordinate — up to 50 m against a pair bounded by [-1, 1] — cannot
dominate the assignment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import CartesianBox

__all__ = [
    "CircularRange",
    "RectangularRange",
    "Assignment",
    "filter_perception_range",
    "box_cost",
    "class_cost",
    "build_cost_matrix",
    "hungarian",
    "greedy_claim",
    "brute_force_assign",
    "scaling_ambiguity_fixture",
    "range_ambiguity_fixture",
]

_BRUTE_FORCE_LIMIT = 8


@dataclass(frozen=True)
class CircularRange:
    """Keep objects with planar distance <= r_max from the ego origin."""

    r_max: float

    def __post_init__(self) -> None:
        if not self.r_max > 0.0:
            raise ValueError("CircularRange: r_max must be positive")

    def contains(self, x, y):
        """Whether the points (x, y), floats or arrays of one shape, lie within ``r_max``.

        The distance is ``math.hypot``'s, which is correctly rounded.  ``np.hypot`` is one
        ulp off it on about 0.6% of points, so it decides only the points a few ulps or more
        from the edge.
        """
        with np.errstate(over="ignore"):  # a distance past the float range is inf, as math.hypot gives it
            d = np.hypot(x, y)
        edge = np.abs(d - self.r_max) <= 4.0 * np.spacing(self.r_max)
        if edge.any():
            d = np.where(edge, np.vectorize(math.hypot, otypes=[float])(x, y), d)
        return d <= self.r_max


@dataclass(frozen=True)
class RectangularRange:
    """Keep objects with |x| < x_max and |y| < y_max (strict)."""

    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_max > 0.0 and self.y_max > 0.0):
            raise ValueError("RectangularRange: bounds must be positive")

    def contains(self, x, y):
        """Whether the points (x, y), floats or arrays of one shape, lie inside the rectangle."""
        return (abs(x) < self.x_max) & (abs(y) < self.y_max)


def filter_perception_range(
    boxes: Sequence[CartesianBox], region
) -> tuple[list[CartesianBox], list[CartesianBox]]:
    """Split ground-truth boxes into (kept, dropped) by the range region."""
    kept, dropped = [], []
    for box in boxes:
        (kept if region.contains(box.x, box.y) else dropped).append(box)
    return kept, dropped


def box_cost(pred: np.ndarray, gt: np.ndarray, k_scaling: float) -> np.ndarray:
    """Radial + scaled-azimuth L1 distance between polar boxes.

    The last axis holds boxes in ``geometry.POLAR_FIELDS`` order (only r,
    sin_a and cos_a are read); leading axes broadcast, so (N, 9)
    predictions against (M, 1, 9) ground truths give the (M, N) matrix.
    Each of the three channels is differenced into a plane of its own, not
    into one strided (..., 3) block; every cell sees the same ops in the
    same order, so the bits are the same.  A huge ``k_scaling`` gives inf
    without a warning; the assignment refuses a non-finite cost matrix.
    """
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    dr, ds, dc = (np.abs(pred[..., c] - gt[..., c]) for c in range(3))
    with np.errstate(over="ignore"):
        return (dr + k_scaling * (ds + dc))[()]


CLASS_COST_FORMS = ("negative_prob", "focal")  # the first is the default


def _focal(p: float) -> float:
    """Focal cost at probability ``p`` with gamma = 2 and alpha = 0.25, 1e-8 inside each log."""
    return 0.25 * (1.0 - p) ** 2.0 * -math.log(p + 1e-8) - 0.75 * p**2.0 * -math.log(1.0 - p + 1e-8)


def class_cost(pred_class_probs: np.ndarray, gt_class, form: str = "negative_prob") -> np.ndarray:
    """Class term of the matching cost.

    Probabilities lie along the last axis; their leading axes broadcast
    with the integer ``gt_class`` ids like :func:`box_cost`'s, so (N, C)
    probabilities against (M, 1) classes give the (M, N) matrix.
    ``negative_prob`` (default) is -p_hat(gt_class); ``focal`` is the
    focal-style variant of Lin et al. (2017) at gamma = 2 and alpha =
    0.25: alpha (1-p)^gamma (-ln(p + 1e-8)) - (1-alpha) p^gamma
    (-ln(1 - p + 1e-8)) at the predicted probability p.  It is computed
    once per distinct probability (``np.unique`` and its inverse; most
    probabilities repeat, e.g. one-hot rows hold only 0 and 1), with
    ``math.log`` and float ``**``, so every cell has the bits of a call at
    its own probability (``-0.0`` and ``0.0`` give the same bits), and its
    bits do not depend on which SIMD kernels numpy dispatches.
    """
    probs, classes = np.asarray(pred_class_probs, dtype=np.float64), np.asarray(gt_class)
    if form not in CLASS_COST_FORMS:
        raise ValueError(f"class_cost: unknown form {form!r}")
    if not np.isfinite(probs).all() or ((probs < 0.0) | (probs > 1.0)).any():
        raise ValueError("class_cost: probabilities must lie in [0, 1]")
    c = probs.shape[-1] if probs.ndim else 0  # a scalar holds no class axis
    if not np.issubdtype(classes.dtype, np.integer) or ((classes < 0) | (classes >= c)).any():
        raise ValueError(f"class_cost: class ids must be integers in [0, {c})")
    if form == "negative_prob":
        table = -probs
    else:
        distinct, inverse = np.unique(probs.ravel(), return_inverse=True)  # -0.0 and 0.0 give the same bits
        table = np.array([_focal(p) for p in distinct.tolist()])[inverse].reshape(probs.shape)
    lead = probs.shape[:-1]
    rows = np.arange(math.prod(lead)).reshape(lead)  # each prediction's row of the flattened table
    return table.reshape(rows.size, c)[rows, classes][()]


def build_cost_matrix(
    preds: tuple[np.ndarray, np.ndarray],
    gts: tuple[np.ndarray, np.ndarray],
    k_scaling: float,
    class_cost_form: str = "negative_prob",
) -> np.ndarray:
    """(..., M, N) cost matrices: rows are ground truths, columns predictions.

    ``preds`` is (boxes (..., N, 9), probs (..., N, C)) and ``gts`` is
    (boxes (..., M, 9), integer classes (..., M)), boxes in
    ``geometry.POLAR_FIELDS`` order.  Leading axes stack frames of one
    shape: (G, N, 9) predictions against (G, M, 9) ground truths give G
    (M, N) matrices, each with the bits of its own one-frame call, as
    both cost terms are computed cell by cell.  A matrix with no rows or
    no columns is zeros, with no term computed.
    """
    (pred_boxes, probs), (gt_boxes, classes) = preds, gts
    pred_boxes, gt_boxes = np.asarray(pred_boxes), np.asarray(gt_boxes)
    m, n = gt_boxes.shape[-2], pred_boxes.shape[-2]
    if m == 0 or n == 0:
        return np.zeros((*np.broadcast_shapes(gt_boxes.shape[:-2], pred_boxes.shape[:-2]), m, n))
    return box_cost(pred_boxes[..., None, :, :], gt_boxes[..., :, None, :], k_scaling) + class_cost(
        np.asarray(probs)[..., None, :, :], np.asarray(classes)[..., :, None], form=class_cost_form
    )


def _index(v) -> int:
    """``v`` as a Python int if it is a Python or numpy integer (a bool is not one)."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise ValueError("Assignment: indices must be integers")


@dataclass(frozen=True)
class Assignment:
    """One-to-one (gt index, prediction index) pairs, injective both ways."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        gt_idx, pred_idx = [j for j, _ in pairs], [i for _, i in pairs]
        if not {*map(type, gt_idx), *map(type, pred_idx)} <= {int}:  # the plain ints of tolist() pass as they are
            gt_idx, pred_idx = [*map(_index, gt_idx)], [*map(_index, pred_idx)]
        if len(set(gt_idx)) != len(gt_idx) or len(set(pred_idx)) != len(pred_idx):
            raise ValueError("Assignment: indices must not repeat")
        if any(j < 0 for j in gt_idx) or any(i < 0 for i in pred_idx):
            raise ValueError("Assignment: indices must be nonnegative")
        object.__setattr__(self, "pairs", tuple(zip(gt_idx, pred_idx)))

    def __len__(self) -> int:
        return len(self.pairs)

    def total_cost(self, costs: np.ndarray) -> float:
        return float(sum(costs[j, i] for j, i in self.pairs))

    def matched_preds(self) -> set[int]:
        return {i for _, i in self.pairs}

    def matched_gts(self) -> set[int]:
        return {j for j, _ in self.pairs}


def _validated_matrix(costs: np.ndarray) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if costs.size and not np.isfinite(costs).all():
        raise ValueError("cost matrix must be finite")
    return costs


def hungarian(costs: np.ndarray) -> Assignment:
    """Minimum-cost assignment of size min(M, N); rectangular matrices allowed."""
    costs = _validated_matrix(costs)
    if min(costs.shape) == 0:
        return Assignment(())
    from scipy.optimize import linear_sum_assignment  # only here: its import outweighs most commands

    rows, cols = linear_sum_assignment(costs)
    return Assignment(tuple(zip(rows.tolist(), cols.tolist())))


def greedy_claim(rows: list[int], cols: list[int]) -> list[tuple[int, int]]:
    """Claim (row, column) cells in the given order: a cell is claimed when its row and column are both untaken.

    The caller's order is the whole rule: the tracker sorts by distance,
    eval by prediction score.  Pairs come back in claim order.
    """
    used_r: set[int] = set()
    used_c: set[int] = set()
    pairs = []
    for r, c in zip(rows, cols):
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        pairs.append((r, c))
    return pairs


def brute_force_assign(costs: np.ndarray) -> Assignment:
    """Exhaustive assignment oracle for matrices with min(M, N) <= 8."""
    costs = _validated_matrix(costs)
    m, n = costs.shape
    if m > n:  # search the transpose; pairs come back sorted by ground truth
        return Assignment(tuple(sorted((j, i) for i, j in brute_force_assign(costs.T).pairs)))
    if m == 0:
        return Assignment(())
    if m > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute_force_assign: min(M, N) must be <= {_BRUTE_FORCE_LIMIT}")
    best_pairs = None
    best_total = math.inf
    for cols in itertools.permutations(range(n), m):
        total = sum(costs[j, i] for j, i in enumerate(cols))
        if total < best_total:
            best_total = total
            best_pairs = tuple(enumerate(cols))
    return Assignment(best_pairs)


def _polar_row(r: float, azimuth: float) -> list[float]:
    return [r, math.sin(azimuth), math.cos(azimuth), 0.0, 4.0, 2.0, 1.5, 0.0, 1.0]


def scaling_ambiguity_fixture() -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Deterministic 2-GT / 2-prediction case where k_scaling flips the argmin.

    Two ground truths sit 10 degrees apart in azimuth at nearly equal
    radial distance (30 m and 31 m).  Each prediction has exactly the
    azimuth of one ground truth but sits 1 m off radially — at the
    *other* ground truth's radius.  At k_scaling=1 the radial term
    dominates and both predictions match the azimuth-far ground truth;
    at k_scaling=20 both match their azimuth-near one.

    Returns (gts, preds) as the array pairs :func:`build_cost_matrix` takes;
    all classes identical so only the box term discriminates.
    """
    a1 = 0.0
    a2 = math.radians(10.0)
    gts = (np.array([_polar_row(30.0, a1), _polar_row(31.0, a2)]), np.array([0, 0]))
    preds = (np.array([_polar_row(31.0, a1), _polar_row(30.0, a2)]), np.ones((2, 1)))
    return gts, preds


def range_ambiguity_fixture() -> tuple[list[CartesianBox], CircularRange, RectangularRange]:
    """Equal-radial-distance pair split by a rectangular range but not a circular one.

    Both objects sit exactly 48 m from the ego: one straight ahead at
    (48, 0), one on the diagonal at 48/sqrt(2) * (1, 1).  A 35 x 50
    rectangle drops the axial object (|x| >= 35) yet keeps the diagonal
    one; the circular 50 m range keeps both.
    """
    d = 48.0 / math.sqrt(2.0)
    objects = [
        CartesianBox(x=48.0, y=0.0, z=0.0, l=4.0, w=2.0, h=1.5, yaw=0.0),
        CartesianBox(x=d, y=d, z=0.0, l=4.0, w=2.0, h=1.5, yaw=0.0),
    ]
    return objects, CircularRange(r_max=50.0), RectangularRange(x_max=35.0, y_max=50.0)
