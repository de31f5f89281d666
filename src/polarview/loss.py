"""Matched-pair regression loss and analytic gradients through the decode chain.

The loss of a matched (prediction, ground truth) pair is an L1 over the
decoded polar box parameters — with the azimuth pair scaled by
``k_scaling`` — plus an L1 over the polar velocity components.  The
class term of the matching lives in :func:`polarview.assignment.class_cost`.
:func:`loss_gradient` differentiates the pair loss through sigmoid / exp /
pair normalization analytically; its partner
:func:`finite_difference_gradient` is the independent numerical check.

The pair loss is written once on Python floats (``_pair_loss``):
:func:`matched_pair_loss` is one call to it, and the finite differences
evaluate their 22 perturbed points with it, running the checks of
``BoxEncoding``, ``PolarVelocity`` and the decoded ``PolarBox`` on the
floats instead of building those objects.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    BoxEncoding,
    PolarBox,
    PolarVelocity,
    RangeConfig,
    _box_fields,
    _encoding_fields,
    _require_encoding,
    _require_finite,
    _require_polar_box,
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


def _decode_checked(b, range_config: RangeConfig) -> tuple[float, ...]:
    """The finite differences' decode: ``geometry.decode_boxes`` of one encoding, on Python floats.

    Runs the checks of ``BoxEncoding`` and ``PolarBox``.  ``math.exp`` and
    ``math.hypot`` differ from numpy's in the last bit on a few percent of
    inputs, and the ``gradcheck`` bytes depend on those bits.
    """
    _require_encoding(b)
    b_r, b_sin_a, b_cos_a, b_z, b_l, b_w, b_h, b_sin_t, b_cos_t = b
    rc = range_config
    na = math.hypot(b_sin_a, b_cos_a)
    nt = math.hypot(b_sin_t, b_cos_t)
    try:
        sizes = math.exp(b_l), math.exp(b_w), math.exp(b_h)
    except OverflowError:
        raise ValueError("decode: exp of a size channel must be positive and finite") from None
    box = (
        _sigmoid(b_r) * rc.r_max,
        b_sin_a / na,
        b_cos_a / na,
        _sigmoid(b_z) * (rc.z_max - rc.z_min) + rc.z_min,
        *sizes,
        b_sin_t / nt,
        b_cos_t / nt,
    )
    _require_polar_box(box)
    return box


def _pair_loss(x, gt, range_config: RangeConfig) -> float:
    """:func:`matched_pair_loss` on floats, with every check its objects make.

    ``x`` holds the 9 encoding channels then (v_rad, v_tan); ``gt`` holds
    the 9 ground-truth box fields then (v_rad, v_tan).  The sum is the
    box L1 (:func:`_box_l1`) plus the velocity L1, in that order.
    """
    box = _decode_checked(x[:9], range_config)
    _require_finite("PolarVelocity", x[9], x[10])
    return _box_l1(box, gt, range_config.k_scaling) + (abs(x[9] - gt[9]) + abs(x[10] - gt[10]))


def _pair_rows(enc, velocity, gt_box, gt_velocity) -> tuple[list, tuple]:
    """The ``x`` and ``gt`` of :func:`_pair_loss` for one matched pair."""
    x = [*_encoding_fields(enc), velocity.v_rad, velocity.v_tan]
    return x, (*_box_fields(gt_box), gt_velocity.v_rad, gt_velocity.v_tan)


def matched_pair_loss(
    enc: BoxEncoding,
    velocity: PolarVelocity,
    gt_box: PolarBox,
    gt_velocity: PolarVelocity,
    range_config: RangeConfig,
) -> float:
    """Box + velocity loss of one matched pair (decodes the encoding first)."""
    return _pair_loss(*_pair_rows(enc, velocity, gt_box, gt_velocity), range_config)


def _sign(x: float) -> float:
    return 1.0 if x > 0.0 else -1.0


def loss_gradient(
    enc: BoxEncoding,
    velocity: PolarVelocity,
    gt_box: PolarBox,
    gt_velocity: PolarVelocity,
    range_config: RangeConfig,
    kink_tol: float = 1e-7,
) -> np.ndarray:
    """Analytic gradient of :func:`matched_pair_loss` w.r.t. the 11 raw inputs.

    Component order follows :data:`GRADIENT_FIELDS`.  Raises
    :class:`KinkError` when any matched coordinate sits within
    ``kink_tol`` of its target, where the L1 subgradient is ambiguous.
    """
    rc = range_config
    deltas = np.array(_decode_checked(_encoding_fields(enc), rc)) - gt_box.as_array()
    residuals = np.concatenate(
        [deltas, [velocity.v_rad - gt_velocity.v_rad, velocity.v_tan - gt_velocity.v_tan]]
    )
    near = np.abs(residuals) < kink_tol
    if near.any():
        fields = [GRADIENT_FIELDS[k] for k in np.flatnonzero(near)]
        raise KinkError(f"L1 kink within {kink_tol} on: {', '.join(fields)}")

    k = rc.k_scaling
    grad = np.empty(11)

    s_r = _sigmoid(enc.b_r)
    grad[0] = _sign(deltas[0]) * s_r * (1.0 - s_r) * rc.r_max

    # normalized-pair Jacobian: d(u/n)/du = w^2/n^3, d(u/n)/dw = -u*w/n^3
    u, w = enc.b_sin_a, enc.b_cos_a
    n3 = math.hypot(u, w) ** 3
    sgn_s, sgn_c = _sign(deltas[1]), _sign(deltas[2])
    grad[1] = k * (sgn_s * w * w - sgn_c * u * w) / n3
    grad[2] = k * (-sgn_s * u * w + sgn_c * u * u) / n3

    s_z = _sigmoid(enc.b_z)
    grad[3] = _sign(deltas[3]) * s_z * (1.0 - s_z) * (rc.z_max - rc.z_min)

    grad[4] = _sign(deltas[4]) * math.exp(enc.b_l)
    grad[5] = _sign(deltas[5]) * math.exp(enc.b_w)
    grad[6] = _sign(deltas[6]) * math.exp(enc.b_h)

    u, w = enc.b_sin_t, enc.b_cos_t
    n3 = math.hypot(u, w) ** 3
    sgn_s, sgn_c = _sign(deltas[7]), _sign(deltas[8])
    grad[7] = (sgn_s * w * w - sgn_c * u * w) / n3
    grad[8] = (-sgn_s * u * w + sgn_c * u * u) / n3

    grad[9] = _sign(residuals[9])
    grad[10] = _sign(residuals[10])
    return grad


def finite_difference_gradient(
    enc: BoxEncoding,
    velocity: PolarVelocity,
    gt_box: PolarBox,
    gt_velocity: PolarVelocity,
    range_config: RangeConfig,
    step: float = 1e-6,
) -> np.ndarray:
    """Central finite differences of :func:`matched_pair_loss` (the oracle).

    ``step`` must be finite and positive.  Each perturbed point must pass
    the checks its ``BoxEncoding``, ``PolarVelocity`` and decoded
    ``PolarBox`` would make, or ValueError is raised.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"finite_difference_gradient: step must be finite and positive, got {step!r}")
    # doubles throughout, whatever scalar types the step and the objects hold
    step = float(step)
    x, gt = _pair_rows(enc, velocity, gt_box, gt_velocity)
    x0 = [float(v) for v in x]
    grad = np.empty(11)
    for i in range(11):
        hi = x0.copy()
        lo = x0.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (_pair_loss(hi, gt, range_config) - _pair_loss(lo, gt, range_config)) / (2.0 * step)
    return grad


def random_gradient_fixture(rng: np.random.Generator, range_config: RangeConfig):
    """Draw a random non-kink (encoding, velocity, gt box, gt velocity) tuple.

    Redraws until every matched coordinate clears the default kink
    tolerance 100 times over, so both the analytic gradient and its
    finite-difference check are well defined.
    """
    for _ in range(1000):
        enc = BoxEncoding.from_array(rng.normal(0.0, 1.5, size=9))
        velocity = PolarVelocity(*rng.normal(0.0, 3.0, size=2))
        gt_angles = rng.uniform(-math.pi, math.pi, size=2)
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
        gt_velocity = PolarVelocity(*rng.normal(0.0, 3.0, size=2))
        try:
            # the product is 9.999999999999999e-06, not 1e-5: the fixtures drawn depend on that last bit
            loss_gradient(enc, velocity, gt_box, gt_velocity, range_config, kink_tol=100 * 1e-7)
        except KinkError:
            continue
        return enc, velocity, gt_box, gt_velocity
    raise RuntimeError("could not draw a non-kink gradient fixture")
