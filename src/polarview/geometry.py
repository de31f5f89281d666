"""Polar box parametrization and conversions between representations.

Frame conventions used throughout the package:

* Ego frame: right-handed, x forward, y left, z up.
* Azimuth ``a``: angle of the object center around the ego origin,
  measured from +x counter-clockwise.  Stored only as a (sin, cos) pair;
  the same applies to the yaw ``t``.  Raw angles appear only in
  explicit diagnostic accessors (:meth:`PolarBox.azimuth`,
  :meth:`PolarBox.yaw`) and in :class:`CartesianBox`.
* Yaw is the object heading in the ego frame (not relative to the radial
  direction); this is a documented convention choice.

A raw network-style encoding maps to a polar box through
:func:`decode_box_encoding`: sigmoid squashes the radial and height
channels into the perception range, size channels go through exp, and the
angle pairs are L2-normalized.  :func:`encode_polar_box` is the exact
inverse on the open interior of the range.  Both are one row of their
batch forms, :func:`decode_boxes` and :func:`encode_boxes`, which run on
blocks of rows transposed into contiguous channel rows and keep the bits
and the failure order of one pass over the whole array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RangeError",
    "RangeConfig",
    "BoxEncoding",
    "PolarBox",
    "CartesianBox",
    "CartesianVelocity",
    "PolarVelocity",
    "decode_box_encoding",
    "decode_boxes",
    "encode_polar_box",
    "encode_boxes",
    "planar_distances",
    "gated_cells",
    "polar_centers",
    "rotate_planar",
    "polar_fields",
    "polar_boxes",
    "cartesian_to_polar",
    "polar_to_cartesian",
    "velocity_cartesian_to_polar",
    "velocity_polar_to_cartesian",
    "wrap_angle",
    "wrap_angles",
    "POLAR_FIELDS",
    "ENCODING_FIELDS",
]

#: Field order shared by array representations of boxes and encodings.
POLAR_FIELDS = ("r", "sin_a", "cos_a", "z", "l", "w", "h", "sin_t", "cos_t")
ENCODING_FIELDS = tuple("b_" + f for f in POLAR_FIELDS)

_PAIR_TOL = 1e-9
_NORMAL_MIN = np.finfo(np.float64).tiny


class RangeError(ValueError):
    """Value sits on or outside the invertible range of an encoding."""


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name}: non-finite component {v!r}")


def _require_unit_pair(name: str, s: float, c: float) -> None:
    if abs(s * s + c * c - 1.0) > _PAIR_TOL:
        raise ValueError(f"{name}: ({s}, {c}) is not a unit (sin, cos) pair")


def _require_nonzero_pair(name: str, s: float, c: float) -> None:
    if s == 0.0 and c == 0.0:
        raise ValueError(f"BoxEncoding: {name} pair must not be (0, 0)")


def _require_positive_size(size: float) -> None:
    if size <= 0.0:
        raise ValueError("PolarBox: sizes must be positive")


def _require_encoding(b) -> None:
    """The checks of :class:`BoxEncoding` on its 9 fields."""
    _require_finite("BoxEncoding", *b)
    _require_nonzero_pair("azimuth", b[1], b[2])
    _require_nonzero_pair("yaw", b[7], b[8])


def _require_polar_box(p) -> None:
    """The checks of :class:`PolarBox` on its 9 fields."""
    _require_finite("PolarBox", *p)
    if p[0] < 0.0:
        raise ValueError("PolarBox: r must be >= 0")
    _require_unit_pair("PolarBox azimuth", p[1], p[2])
    _require_unit_pair("PolarBox yaw", p[7], p[8])
    _require_positive_size(min(p[4], p[5], p[6]))


#: The 9 fields of a :class:`BoxEncoding` / :class:`PolarBox` as a tuple, in array order.
_encoding_fields = operator.attrgetter(*ENCODING_FIELDS)
_box_fields = operator.attrgetter(*POLAR_FIELDS)


@dataclass(frozen=True)
class RangeConfig:
    """Perception-range bounds and the azimuth scaling factor.

    ``r_max`` is the circular perception radius (50 m by default, the
    nuScenes setting), ``z_min``/``z_max`` bound the decoded height, and
    ``k_scaling`` multiplies azimuth terms in costs and losses so that
    tangential errors are commensurate with radial ones (default 20, the
    best ablation setting).
    """

    r_max: float = 50.0
    z_min: float = -5.0
    z_max: float = 3.0
    k_scaling: float = 20.0

    def __post_init__(self) -> None:
        _require_finite("RangeConfig", self.r_max, self.z_min, self.z_max, self.k_scaling)
        if self.r_max <= 0.0:
            raise ValueError("r_max must be positive")
        if self.z_max <= self.z_min:
            raise ValueError("z_max must exceed z_min")
        if not math.isfinite(self.z_max - self.z_min):
            raise ValueError("z_max - z_min must be finite")
        if self.k_scaling < 1.0:
            raise ValueError("k_scaling must be >= 1")


@dataclass(frozen=True)
class BoxEncoding:
    """Raw pre-activation 9-tuple produced by a regression head."""

    b_r: float
    b_sin_a: float
    b_cos_a: float
    b_z: float
    b_l: float
    b_w: float
    b_h: float
    b_sin_t: float
    b_cos_t: float

    def __post_init__(self) -> None:
        _require_encoding(_encoding_fields(self))

    def as_array(self) -> np.ndarray:
        return np.array(_encoding_fields(self))

    @classmethod
    def from_array(cls, values) -> "BoxEncoding":
        return cls(*(float(v) for v in values))


@dataclass(frozen=True)
class PolarBox:
    """3D box in polar parametrization: (r, sin_a, cos_a, z, l, w, h, sin_t, cos_t)."""

    r: float
    sin_a: float
    cos_a: float
    z: float
    l: float
    w: float
    h: float
    sin_t: float
    cos_t: float

    def __post_init__(self) -> None:
        _require_polar_box(_box_fields(self))

    def as_array(self) -> np.ndarray:
        return np.array(_box_fields(self))

    @classmethod
    def from_array(cls, values) -> "PolarBox":
        return cls(*(float(v) for v in values))

    def center_xy(self) -> tuple[float, float]:
        return self.r * self.cos_a, self.r * self.sin_a

    def azimuth(self) -> float:
        """Diagnostic raw azimuth in (-pi, pi]."""
        return wrap_angle(math.atan2(self.sin_a, self.cos_a))

    def yaw(self) -> float:
        """Diagnostic raw yaw in (-pi, pi]."""
        return wrap_angle(math.atan2(self.sin_t, self.cos_t))


@dataclass(frozen=True)
class CartesianBox:
    """3D box with a cartesian center and raw yaw in (-pi, pi]."""

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    yaw: float

    def __post_init__(self) -> None:
        _require_finite("CartesianBox", self.x, self.y, self.z, self.l, self.w, self.h, self.yaw)
        if min(self.l, self.w, self.h) <= 0.0:
            raise ValueError("CartesianBox: sizes must be positive")
        if not (-math.pi < self.yaw <= math.pi):
            raise ValueError("CartesianBox: yaw must lie in (-pi, pi]")


@dataclass(frozen=True)
class CartesianVelocity:
    """Planar velocity (m/s) along the ego x/y axes."""

    v_x: float
    v_y: float

    def __post_init__(self) -> None:
        _require_finite("CartesianVelocity", self.v_x, self.v_y)

    def norm(self) -> float:
        return math.hypot(self.v_x, self.v_y)


@dataclass(frozen=True)
class PolarVelocity:
    """Planar velocity (m/s) decomposed along/against the ego-to-object ray.

    Positive ``v_rad`` moves away from the ego; positive ``v_tan`` moves
    counter-clockwise (increasing azimuth) seen from +z.
    """

    v_rad: float
    v_tan: float

    def __post_init__(self) -> None:
        _require_finite("PolarVelocity", self.v_rad, self.v_tan)

    def norm(self) -> float:
        return math.hypot(self.v_rad, self.v_tan)


def decode_box_encoding(enc: BoxEncoding, range_config: RangeConfig) -> PolarBox:
    """Decode a raw encoding into a valid polar box: one row of :func:`decode_boxes`."""
    return PolarBox.from_array(decode_boxes(enc.as_array()[None], range_config)[0])


#: Rows per block of :func:`decode_boxes` and :func:`encode_boxes`.  Each block is transposed into
#: contiguous channel rows, which numpy's loops run about 3x faster than the 72-byte-strided columns;
#: a block of a few thousand rows keeps the transposes cheap as well.
_BLOCK_ROWS = 4096


def _channel_blocks(rows: np.ndarray):
    """(row slice, block) for each block of ``_BLOCK_ROWS`` rows of (N, 9) ``rows``.

    Each block is a new (9, B) array of contiguous channel rows, which the caller may overwrite.
    """
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        yield block, rows[block].T.copy()


def decode_boxes(encodings: np.ndarray, range_config: RangeConfig) -> np.ndarray:
    """Decode an (N, 9) encoding array into (N, 9) boxes in ``POLAR_FIELDS`` order.

    r = sigmoid(b_r) * r_max, z = sigmoid(b_z) * (z_max - z_min) + z_min,
    sizes are exp of their channels and both angle pairs are
    L2-normalized.  The rows run in blocks of ``_BLOCK_ROWS``, each as
    contiguous channel rows; every element goes through the same functions
    in the same order whatever the block, so the bits do not depend on N.

    Rejects, with ValueError, in this order over the whole batch:
    non-finite channels, a (0, 0) azimuth or yaw pair, size channels whose
    exp overflows or underflows to zero, and a pair whose norm is
    subnormal or overflows and whose quotients are not a unit pair (the
    first such azimuth row, then the first such yaw row).
    """
    enc = np.asarray(encodings, dtype=np.float64)
    if enc.ndim != 2 or enc.shape[1] != 9:
        raise ValueError("encodings must have shape (N, 9)")
    rc = range_config
    out = np.empty_like(enc)
    zero_pair = bad_size = False
    off_unit = ([], [])  # the azimuth and the yaw pairs whose norm is subnormal or overflows
    with np.errstate(all="ignore"):  # a failing block computes quietly; the checks refuse it
        for rows, b in _channel_blocks(enc):
            if not np.isfinite(b).all():
                raise ValueError("encodings must be finite")
            # the split sigmoid of b_r and b_z: e / (1 + e) below 0 and 1 / (1 + e) from 0 up, with
            # e = exp(-|x|); exp(min(x, 0)) is that numerator, bit for bit (exp(0) is exactly 1)
            x = b[[0, 3]]
            s = np.exp(np.minimum(x, 0.0))
            s /= 1.0 + np.exp(-np.abs(x))
            np.multiply(s[0], rc.r_max, out=b[0])
            np.multiply(s[1], rc.z_max - rc.z_min, out=b[3])
            b[3] += rc.z_min
            n = np.hypot(b[[1, 7]], b[[2, 8]])  # the azimuth and the yaw norm
            b[1:3] /= n[0]
            b[7:9] /= n[1]
            np.exp(b[4:7], out=b[4:7])
            bad_size = bad_size or not (b[4:7].min() > 0.0 and b[4:7].max() < math.inf)
            # a norm that is subnormal or overflows can leave the quotient pair off the unit circle
            if not (n.min() >= _NORMAL_MIN and n.max() < math.inf):
                zero_pair = zero_pair or not (n > 0.0).all()
                for pairs, quotients, normal in zip(off_unit, (b[1:3], b[7:9]), (n >= _NORMAL_MIN) & (n < math.inf)):
                    pairs += quotients[:, ~normal].T.tolist()
            out[rows] = b.T
    if zero_pair:
        raise ValueError("encodings: azimuth and yaw pairs must not be (0, 0)")
    if bad_size:
        raise ValueError("decode: exp of a size channel must be positive and finite")
    for name, pairs in zip(("azimuth", "yaw"), off_unit):
        for s, c in pairs:
            _require_unit_pair(f"PolarBox {name}", s, c)
    return out


def encode_boxes(boxes: np.ndarray, range_config: RangeConfig) -> np.ndarray:
    """Vectorized strict inverse of :func:`decode_boxes` for (N, 9) arrays.

    The rows run in blocks of ``_BLOCK_ROWS``, as in :func:`decode_boxes`.
    Each row must pass the checks of :class:`PolarBox`: the first row of
    the batch that fails raises the ValueError that ``PolarBox`` raises for
    it.  Then an r or z on or outside the open perception range raises
    :class:`RangeError`.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 9:
        raise ValueError("boxes must have shape (N, 9)")
    rc = range_config
    out = np.empty_like(boxes)
    with np.errstate(all="ignore"):  # a block that fails is refused below
        for rows, b in _channel_blocks(boxes):  # the angle pairs pass through
            # s*s + c*c - 1 of the azimuth and the yaw pair, as PolarBox computes it
            squares = b[[1, 7, 2, 8]]
            squares *= squares
            off = squares[:2] + squares[2:]
            off -= 1.0
            p = b[[0, 3]]
            p[0] /= rc.r_max
            p[1] -= rc.z_min
            p[1] /= rc.z_max - rc.z_min
            p /= 1.0 - p
            b[[0, 3]] = np.log(p)
            np.log(b[4:7], out=b[4:7])
            # a non-finite field, a size <= 0, and an r or z outside the open range each leave a non-finite code
            if not (np.isfinite(b).all() and np.abs(off).max() <= _PAIR_TOL):
                break
            out[rows] = b.T
        else:
            return out
        # the rows that may fail a PolarBox check (the squares of huge fields overflow)
        bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 0] < 0.0) | (boxes[:, 4:7] <= 0.0).any(axis=1)
        for i in (1, 7):
            bad |= np.abs(boxes[:, i] * boxes[:, i] + boxes[:, i + 1] * boxes[:, i + 1] - 1.0) > _PAIR_TOL
    for row in boxes[bad].tolist():
        _require_polar_box(row)
    raise RangeError("r or z on/outside the open perception range")


def encode_polar_box(box: PolarBox, range_config: RangeConfig) -> BoxEncoding:
    """Invert :func:`decode_box_encoding`: one row of :func:`encode_boxes`.

    Boundary or exterior r/z raise :class:`RangeError`.
    """
    return BoxEncoding.from_array(encode_boxes(box.as_array()[None], range_config)[0])


def planar_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(M, N) planar distances between the rows of (M, 2) ``a`` and (N, 2) ``b``; inf where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.hypot(a[:, 0:1] - b[None, :, 0], a[:, 1:2] - b[None, :, 1])


def gated_cells(a: np.ndarray, a_counts, b: np.ndarray, b_counts, reach: float):
    """Same-frame cells within ``reach``: (row of ``a``, row of ``b``, distance) arrays, by row of ``a``.

    Frame f holds the next ``a_counts[f]`` rows of (M, 2) ``a`` and ``b_counts[f]`` rows of (N, 2) ``b``; the
    cells and distance bits are those of ``planar_distances(a_f, b_f) <= reach``.  Each row of ``a`` takes the
    rows of ``b`` in an x-window a little wider than ``reach`` (so rounding cannot narrow it), and only those
    within ``reach`` in x and in y (hypot is at least both) go to ``np.hypot``.
    """
    fa, fb = (np.repeat(np.arange(len(c)), c) for c in (a_counts, b_counts))
    if (len(fa), len(fb)) != (len(a), len(b)):
        raise ValueError("gated_cells: the per-frame row counts must add up to the rows")
    # b's x as ranks, so that (frame, x) orders as one integer key: frame * (N + 1) + rank
    xs, span = np.sort(b[:, 0]), len(b) + 1
    keys = fb * span + np.searchsorted(xs, b[:, 0])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    margin = reach + (reach * 2.0**-40 + 2.0**-1000)  # an x-gap past it rounds to more than reach
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = (np.nextafter(a[:, 0] + side * margin, side * np.inf) for side in (-1.0, 1.0))
        first = np.searchsorted(keys, fa * span + np.searchsorted(xs, lo, "left"))
        n = np.maximum(np.searchsorted(keys, fa * span + np.searchsorted(xs, hi, "right")) - first, 0)
        rows = np.repeat(np.arange(len(a)), n)
        cols = order[np.arange(n.sum()) + np.repeat(first - np.cumsum(n) + n, n)]
        dx, dy = a[rows, 0] - b[cols, 0], a[rows, 1] - b[cols, 1]
        near = (np.abs(dx) <= reach) & (np.abs(dy) <= reach)
        dist = np.hypot(dx[near], dy[near])
    keep = dist <= reach
    return rows[near][keep], cols[near][keep], dist[keep]


def polar_centers(boxes: np.ndarray) -> np.ndarray:
    """Planar centers (r cos_a, r sin_a) of boxes in ``POLAR_FIELDS`` order, shape (..., 2)."""
    r, sin_a, cos_a = boxes[..., 0], boxes[..., 1], boxes[..., 2]
    return np.stack([r * cos_a, r * sin_a], axis=-1)


def rotate_planar(u, v, sin_a, cos_a):
    """Rotate planar vectors (u, v), floats or broadcasting arrays, by the angle (sin_a, cos_a)."""
    return u * cos_a - v * sin_a, u * sin_a + v * cos_a


def _libm(f, *columns: np.ndarray) -> np.ndarray:
    """``f`` (a ``math`` function) of each element of the 1-D float ``columns``: one libm call per element, so
    the bits do not follow the SIMD level numpy's own loops pick; inf where ``f`` overflows."""
    args = [c.tolist() for c in columns]
    try:
        return np.fromiter(map(f, *args), np.float64, len(args[0]))
    except OverflowError:  # rare: again, one element at a time
        return np.array([_or_inf(f, *v) for v in zip(*args)], dtype=np.float64)


def _or_inf(f, *args: float) -> float:
    """``f(*args)``, or inf where it overflows."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def polar_boxes(rows: np.ndarray) -> np.ndarray:
    """(N, 9) ``POLAR_FIELDS`` rows of (N, 7) cartesian box rows (x, y, z, l, w, h, yaw).

    r is ``math.hypot(x, y)``, the azimuth pair is (y / r, x / r) and the
    yaw pair (sin, cos) of the yaw, each ``math`` call one per element, so
    a row's bits depend neither on N nor on the SIMD level.  A row on the
    ego z axis has no azimuth: ValueError.
    """
    x, y, z, l, w, h, yaw = np.asarray(rows, dtype=np.float64).reshape(-1, 7).T
    r = _libm(math.hypot, x, y)
    if (r == 0.0).any():
        raise ValueError("cartesian_to_polar: degenerate azimuth at (x, y) = (0, 0)")
    return np.column_stack([r, y / r, x / r, z, l, w, h, _libm(math.sin, yaw), _libm(math.cos, yaw)])


def polar_fields(x: float, y: float, z: float, l: float, w: float, h: float, yaw: float) -> tuple[float, ...]:
    """``POLAR_FIELDS`` values of a cartesian box row: one row of :func:`polar_boxes`."""
    return tuple(polar_boxes(np.array([x, y, z, l, w, h, yaw]))[0].tolist())


def cartesian_to_polar(box: CartesianBox) -> PolarBox:
    """Transform a cartesian box into the polar parametrization (see :func:`polar_fields`)."""
    return PolarBox(*polar_fields(box.x, box.y, box.z, box.l, box.w, box.h, box.yaw))


def polar_to_cartesian(box: PolarBox) -> CartesianBox:
    """Exact inverse of :func:`cartesian_to_polar` for r > 0."""
    return CartesianBox(*box.center_xy(), box.z, box.l, box.w, box.h, box.yaw())


def velocity_cartesian_to_polar(v: CartesianVelocity, sin_a: float, cos_a: float) -> PolarVelocity:
    """Rotate a planar velocity into radial/tangential components at azimuth (sin_a, cos_a)."""
    _require_unit_pair("velocity azimuth", sin_a, cos_a)
    return PolarVelocity(*rotate_planar(v.v_x, v.v_y, -sin_a, cos_a))


def velocity_polar_to_cartesian(v: PolarVelocity, sin_a: float, cos_a: float) -> CartesianVelocity:
    """Inverse of :func:`velocity_cartesian_to_polar` (same azimuth pair)."""
    _require_unit_pair("velocity azimuth", sin_a, cos_a)
    return CartesianVelocity(*rotate_planar(v.v_rad, v.v_tan, sin_a, cos_a))


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]; -pi maps to +pi."""
    if not math.isfinite(a):
        raise ValueError("wrap_angle: non-finite angle")
    if -math.pi < a <= math.pi:  # exact passthrough, no roundoff
        return a
    m = (a + math.pi) % (2.0 * math.pi)
    if m == 0.0:
        return math.pi
    return m - math.pi


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of each element of a float array, with its bits (``np.remainder`` is Python's float
    ``%``); ValueError if any element is not finite."""
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("wrap_angle: non-finite angle")
    m = np.remainder(a + math.pi, 2.0 * math.pi)
    wrapped = np.where(m == 0.0, math.pi, m - math.pi)
    return np.where((-math.pi < a) & (a <= math.pi), a, wrapped)  # exact passthrough, no roundoff
