"""Matched-pair regression loss and analytic gradients through the decode chain.

The loss of a matched (prediction, ground truth) pair is an L1 over the
decoded polar box parameters — with the azimuth pair scaled by
``k_scaling`` — plus an L1 over the polar velocity components.  The
class term of the matching lives in :func:`polarview.assignment.class_cost`.
:func:`loss_gradient` differentiates the pair loss through sigmoid / exp /
pair normalization analytically; its partner
:func:`finite_difference_gradient` is the independent numerical check.

The pair loss is written once on Python floats, with the checks of
``BoxEncoding``, ``PolarVelocity`` and the decoded ``PolarBox`` run on the
floats instead of building those objects: :func:`matched_pair_loss` is one
call to ``_pair_loss``.  The finite differences run on rows: one call takes
F pairs, and each of its 22 perturbed points is one numpy pass over all F
rows that re-decodes only the part of the decode the step moves (r, the
azimuth pair, z, l, w, h or the yaw pair).  Every ``exp`` and ``hypot`` is
still one ``math`` call per element and every ``+ - * / abs`` runs
elementwise in the order of ``_pair_sum``, so each row's perturbed losses
have the bits of a full float evaluation.  The checks become masks; the
first row that fails is evaluated again by ``_pair_loss`` at its first
failing point, which raises that point's message.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

import numpy as np

from .geometry import (
    _PAIR_TOL,
    BoxEncoding,
    PolarBox,
    PolarVelocity,
    RangeConfig,
    _box_fields,
    _encoding_fields,
    _require_encoding,
    _require_finite,
    _require_positive_size,
    _require_unit_pair,
)

__all__ = [
    "KinkError",
    "matched_pair_loss",
    "loss_gradient",
    "finite_difference_gradient",
    "random_gradient_fixture",
    "GRADIENT_FIELDS",
]

#: Order of the partial derivatives returned by the gradient functions.
GRADIENT_FIELDS = (
    "b_r",
    "b_sin_a",
    "b_cos_a",
    "b_z",
    "b_l",
    "b_w",
    "b_h",
    "b_sin_t",
    "b_cos_t",
    "v_rad",
    "v_tan",
)


class KinkError(ValueError):
    """Gradient requested at (or too near) a non-differentiable L1 kink."""


def _box_l1(p, g, k_scaling: float) -> float:
    """L1 over ``POLAR_FIELDS`` sequences with the azimuth pair scaled by ``k_scaling``."""
    return (
        abs(p[0] - g[0])
        + k_scaling * (abs(p[1] - g[1]) + abs(p[2] - g[2]))
        + abs(p[3] - g[3])
        + abs(p[4] - g[4])
        + abs(p[5] - g[5])
        + abs(p[6] - g[6])
        + abs(p[7] - g[7])
        + abs(p[8] - g[8])
    )


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _unit_pair(name: str, u: float, w: float) -> tuple[float, float]:
    """The pair (u, w) divided by its norm, with the unit-pair check of ``PolarBox``."""
    # n >= max(|u|, |w|) > 0, so both quotients are finite
    n = math.hypot(u, w)
    s, c = u / n, w / n
    _require_unit_pair(name, s, c)
    return s, c


def _size(b: float) -> float:
    """exp of a size channel, with the ``PolarBox`` check that it is positive."""
    try:
        size = math.exp(b)
    except OverflowError:
        raise ValueError("decode: exp of a size channel must be positive and finite") from None
    _require_positive_size(size)  # exp underflows to 0
    return size


def _decode_checked(b, range_config: RangeConfig) -> list[float]:
    """The float decode: ``geometry.decode_boxes`` of one encoding, on Python floats.

    Runs the checks of ``BoxEncoding`` on all 9 channels, then decodes the
    parts in field order (r, azimuth, z, l, w, h, yaw) with the checks of
    ``PolarBox`` on each.  ``math.exp`` and ``math.hypot`` differ from
    numpy's in the last bit on a few percent of inputs, and the
    ``gradcheck`` bytes depend on those bits.
    """
    rc = range_config
    _require_encoding(b)
    # sigmoid lies in [0, 1] and r_max > 0, so r is finite and >= 0 as PolarBox requires;
    # RangeConfig keeps z_max - z_min finite, so z is finite
    return [
        _sigmoid(b[0]) * rc.r_max,
        *_unit_pair("PolarBox azimuth", b[1], b[2]),
        _sigmoid(b[3]) * (rc.z_max - rc.z_min) + rc.z_min,
        _size(b[4]),
        _size(b[5]),
        _size(b[6]),
        *_unit_pair("PolarBox yaw", b[7], b[8]),
    ]


def _pair_sum(box, x, gt, k_scaling: float) -> float:
    """The box L1 (:func:`_box_l1`) of a decoded ``box``, plus the velocity L1 of ``x``, in that order.

    The entries are floats, or columns of F rows each (numpy arrays).
    """
    return _box_l1(box, gt, k_scaling) + (abs(x[9] - gt[9]) + abs(x[10] - gt[10]))


def _pair_loss(x, gt, range_config: RangeConfig) -> float:
    """:func:`matched_pair_loss` on floats, with every check its objects make.

    ``x`` holds the 9 encoding channels then (v_rad, v_tan); ``gt`` holds
    the 9 ground-truth box fields then (v_rad, v_tan).
    """
    box = _decode_checked(x[:9], range_config)
    _require_finite("PolarVelocity", x[9], x[10])
    return _pair_sum(box, x, gt, range_config.k_scaling)


def _pair_rows(enc, velocity, gt_box, gt_velocity) -> tuple[list, list]:
    """The ``x`` and ``gt`` of :func:`_pair_loss` for one matched pair, every field as a double.

    A float32 field would otherwise round what it meets in float32: numpy
    keeps the narrower type against a Python float.
    """
    x = [*map(float, _encoding_fields(enc)), float(velocity.v_rad), float(velocity.v_tan)]
    return x, [*map(float, _box_fields(gt_box)), float(gt_velocity.v_rad), float(gt_velocity.v_tan)]


def matched_pair_loss(
    enc: BoxEncoding,
    velocity: PolarVelocity,
    gt_box: PolarBox,
    gt_velocity: PolarVelocity,
    range_config: RangeConfig,
) -> float:
    """Box + velocity loss of one matched pair (decodes the encoding first); ValueError if it is not finite."""
    value = _pair_loss(*_pair_rows(enc, velocity, gt_box, gt_velocity), range_config)
    if not math.isfinite(value):
        raise ValueError("matched_pair_loss: the loss is not finite")
    return value


def _sign(x: float) -> float:
    return 1.0 if x > 0.0 else -1.0


def _sigmoid_partial(b: float, residual: float, span: float) -> float:
    """d|sigmoid(b) * span + offset - target| / db, given the residual."""
    s = _sigmoid(b)
    return _sign(residual) * s * (1.0 - s) * span


def _pair_partials(u: float, w: float, residual_s: float, residual_c: float, scale: float) -> tuple[float, float]:
    """d/du and d/dw of scale * (|u/n - target_s| + |w/n - target_c|), n = hypot(u, w), given the residuals."""
    # normalized-pair Jacobian: d(u/n)/du = w^2/n^3, d(u/n)/dw = -u*w/n^3
    n = math.hypot(u, w)
    try:
        n3 = n**3
    except OverflowError:
        n3 = math.inf
    if not sys.float_info.min <= n3 < math.inf:
        # n^3 underflows or overflows: divide the norm out first, (w/n)^2/n and so on
        u, w, n3 = u / n, w / n, n
    sgn_s, sgn_c = _sign(residual_s), _sign(residual_c)
    return scale * (sgn_s * w * w - sgn_c * u * w) / n3, scale * (-sgn_s * u * w + sgn_c * u * u) / n3


def loss_gradient(
    enc: BoxEncoding,
    velocity: PolarVelocity,
    gt_box: PolarBox,
    gt_velocity: PolarVelocity,
    range_config: RangeConfig,
    kink_tol: float = 1e-7,
) -> np.ndarray:
    """Analytic gradient of :func:`matched_pair_loss` w.r.t. the 11 raw inputs.

    Component order follows :data:`GRADIENT_FIELDS`.  ``kink_tol`` must be
    finite and >= 0.  Raises :class:`KinkError` when any matched coordinate
    sits within ``kink_tol`` of its target, where the L1 subgradient is
    ambiguous, and ValueError when a partial derivative is not finite.
    """
    if not (math.isfinite(kink_tol) and kink_tol >= 0.0):
        raise ValueError(f"loss_gradient: kink_tol must be finite and >= 0, got {kink_tol!r}")
    rc = range_config
    x, gt = _pair_rows(enc, velocity, gt_box, gt_velocity)
    d = [p - g for p, g in zip(_decode_checked(x[:9], rc), gt)] + [x[9] - gt[9], x[10] - gt[10]]
    if min(map(abs, d)) < kink_tol:  # every residual is a difference of finite doubles: none is NaN
        near = [field for field, residual in zip(GRADIENT_FIELDS, d) if abs(residual) < kink_tol]
        raise KinkError(f"L1 kink within {kink_tol} on: {', '.join(near)}")

    partials = [
        _sigmoid_partial(x[0], d[0], rc.r_max),
        *_pair_partials(x[1], x[2], d[1], d[2], rc.k_scaling),
        _sigmoid_partial(x[3], d[3], rc.z_max - rc.z_min),
        _sign(d[4]) * math.exp(x[4]),
        _sign(d[5]) * math.exp(x[5]),
        _sign(d[6]) * math.exp(x[6]),
        *_pair_partials(x[7], x[8], d[7], d[8], 1.0),
        _sign(d[9]),
        _sign(d[10]),
    ]
    if not all(map(math.isfinite, partials)):
        raise ValueError("loss_gradient: a partial derivative is not finite")
    return np.array(partials, dtype=np.float64)


def _exp_or_inf(b: float) -> float:
    try:
        return math.exp(b)
    except OverflowError:
        return math.inf


def _exps(col: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element of a column, inf where it overflows: one libm call each, so the bits of ``_size``."""
    values = col.tolist()
    try:
        return np.fromiter(map(math.exp, values), np.float64, len(values))
    except OverflowError:
        return np.fromiter(map(_exp_or_inf, values), np.float64, len(values))


def _decode_part_rows(b, i: int, range_config: RangeConfig) -> tuple[int, list, np.ndarray]:
    """Rows form of the part of :func:`_decode_checked` that reads channel ``i``, on a list of 9 channel columns.

    Returns the part's first field index, its field columns and the mask of
    the rows that fail a check on it: one of ``BoxEncoding`` on the part's
    channels, or one of ``PolarBox`` on its fields.
    """
    rc = range_config
    if i in (0, 3):
        # sigmoid as _sigmoid splits it: exp(-|x|) is exp(-x) where x >= 0 and exp(x) below
        e = _exps(-np.abs(b[i]))
        s = np.where(b[i] >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        field = s * rc.r_max if i == 0 else s * (rc.z_max - rc.z_min) + rc.z_min
        return i, [field], ~np.isfinite(b[i])
    if 4 <= i <= 6:
        size = _exps(b[i])  # 0, inf or NaN where the channel is not finite
        return i, [size], ~((size > 0.0) & (size < math.inf))
    start = 1 if i < 3 else 7
    u, w = b[start], b[start + 1]
    n = np.fromiter(map(math.hypot, u.tolist(), w.tolist()), np.float64, len(u))
    s, c = u / n, w / n
    # NaN where a channel is not finite or the pair is (0, 0): one comparison makes all three checks
    return start, [s, c], ~(abs(s * s + c * c - 1.0) <= _PAIR_TOL)


def _decode_rows(b, range_config: RangeConfig) -> tuple[list, np.ndarray]:
    """:func:`_decode_checked` of every row of 9 channel columns: the 9 field columns and the rows that fail."""
    box, fails = [], False
    for i in (0, 1, 3, 4, 5, 6, 7):
        _, fields, part_fails = _decode_part_rows(b, i, range_config)
        box += fields
        fails = fails | part_fails
    return box, fails


def _pair_columns(pairs) -> tuple[np.ndarray, np.ndarray, bool]:
    """The (F, 11) ``x`` and ``gt`` rows of :func:`finite_difference_gradient`'s four pair arguments.

    Each argument is one object (F = 1, flagged) or all four are sequences of F objects.
    """
    batched = [isinstance(arg, Sequence) for arg in pairs]
    if not any(batched):
        pairs = [[arg] for arg in pairs]
    elif not all(batched):
        raise ValueError("finite_difference_gradient: pass one object or a sequence for every pair argument, not a mix")
    elif len({len(arg) for arg in pairs}) > 1:
        lengths = ", ".join(str(len(arg)) for arg in pairs)
        raise ValueError(f"finite_difference_gradient: the pair sequences differ in length ({lengths})")
    # filled row by row: no list of F row lists stays alive next to the arrays
    x, gt = np.empty((len(pairs[0]), 11)), np.empty((len(pairs[0]), 11))
    for row, pair in enumerate(zip(*pairs)):
        x[row], gt[row] = _pair_rows(*pair)
    return x, gt, not any(batched)


def finite_difference_gradient(
    enc: BoxEncoding | Sequence[BoxEncoding],
    velocity: PolarVelocity | Sequence[PolarVelocity],
    gt_box: PolarBox | Sequence[PolarBox],
    gt_velocity: PolarVelocity | Sequence[PolarVelocity],
    range_config: RangeConfig,
    step: float = 1e-6,
) -> np.ndarray:
    """Central finite differences of :func:`matched_pair_loss` (the oracle), for one pair or for F pairs.

    The four pair arguments are one object each, which gives an (11,)
    gradient, or four sequences of F objects, which gives (F, 11); anything
    else raises ValueError.  ``step`` must be finite and positive.  Each of
    the 22 perturbed points is one numpy pass over the F rows that
    re-decodes only the part the step moves; every row has the bits of a
    one-pair call.

    Every point must pass the checks its ``BoxEncoding``, ``PolarVelocity``
    and decoded ``PolarBox`` would make, and every partial derivative must
    be finite.  Otherwise the first row that breaks a rule raises
    ValueError: the message a full evaluation gives at its first failing
    point (the unperturbed point, then +step and -step on each channel in
    ``GRADIENT_FIELDS`` order), or else that a perturbed loss or a partial
    derivative is not finite.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"finite_difference_gradient: step must be finite and positive, got {step!r}")
    # doubles throughout, whatever scalar types the step and the objects hold
    step = float(step)
    x_rows, gt_rows, single = _pair_columns((enc, velocity, gt_box, gt_velocity))
    x0, gt = list(x_rows.T.copy()), list(gt_rows.T.copy())
    k = range_config.k_scaling
    grad = np.empty_like(x_rows)
    # rows that fail a check compute with zeros, infinities and NaNs until the masks drop them
    with np.errstate(all="ignore"):
        box0, fails = _decode_rows(x0[:9], range_config)
        point_fails = [fails | ~np.isfinite(x0[9]) | ~np.isfinite(x0[10])]
        for i in range(11):
            losses = []
            for moved in (x0[i] + step, x0[i] - step):
                y = x0.copy()
                y[i] = moved
                if i < 9:
                    # the part that reads channel i, with the checks on it
                    start, fields, fails = _decode_part_rows(y, i, range_config)
                    box = box0.copy()
                    box[start : start + len(fields)] = fields
                else:
                    box, fails = box0, ~np.isfinite(moved)
                point_fails.append(fails)
                losses.append(_pair_sum(box, y, gt, k))
            grad[:, i] = (losses[0] - losses[1]) / (2.0 * step)
    point_fails = np.array(point_fails)
    bad = point_fails.any(axis=0) | ~np.isfinite(grad).all(axis=1)  # a finite gradient means finite losses
    if bad.any():
        row = int(np.argmax(bad))
        failing = np.flatnonzero(point_fails[:, row])
        if failing.size:
            x = x_rows[row].tolist()
            if failing[0]:
                i, minus = divmod(int(failing[0]) - 1, 2)
                x[i] = x[i] - step if minus else x[i] + step
            _pair_loss(x, gt_rows[row].tolist(), range_config)  # raises that point's message
        raise ValueError("finite_difference_gradient: a perturbed loss or a partial derivative is not finite")
    return grad[0] if single else grad


def random_gradient_fixture(rng: np.random.Generator, range_config: RangeConfig):
    """Draw a random non-kink (encoding, velocity, gt box, gt velocity) tuple.

    Redraws until every matched coordinate clears the default kink
    tolerance 100 times over, so both the analytic gradient and its
    finite-difference check are well defined.
    """
    for _ in range(1000):
        # Python floats from each draw: the objects hold the type their fields are annotated with
        enc = BoxEncoding(*rng.normal(0.0, 1.5, size=9).tolist())
        velocity = PolarVelocity(*rng.normal(0.0, 3.0, size=2).tolist())
        gt_angles = rng.uniform(-math.pi, math.pi, size=2).tolist()
        gt_box = PolarBox(
            r=float(rng.uniform(1.0, range_config.r_max - 1.0)),
            sin_a=math.sin(gt_angles[0]),
            cos_a=math.cos(gt_angles[0]),
            z=float(rng.uniform(range_config.z_min + 0.2, range_config.z_max - 0.2)),
            l=float(rng.uniform(0.5, 6.0)),
            w=float(rng.uniform(0.5, 3.0)),
            h=float(rng.uniform(0.5, 3.0)),
            sin_t=math.sin(gt_angles[1]),
            cos_t=math.cos(gt_angles[1]),
        )
        gt_velocity = PolarVelocity(*rng.normal(0.0, 3.0, size=2).tolist())
        try:
            # the product is 9.999999999999999e-06, not 1e-5: the fixtures drawn depend on that last bit
            loss_gradient(enc, velocity, gt_box, gt_velocity, range_config, kink_tol=100 * 1e-7)
        except KinkError:
            continue
        return enc, velocity, gt_box, gt_velocity
    raise RuntimeError("could not draw a non-kink gradient fixture")
