import dataclasses
import math
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarview import loss
from polarview.geometry import (
    ENCODING_FIELDS,
    BoxEncoding,
    PolarBox,
    PolarVelocity,
    RangeConfig,
    _box_fields,
    _encoding_fields,
    _require_encoding,
    _require_finite,
    _require_nonzero_pair,
    _require_positive_size,
    _require_unit_pair,
    encode_polar_box,
    velocity_polar_to_cartesian,
)
from polarview.loss import (
    GRADIENT_FIELDS,
    KinkError,
    finite_difference_gradient,
    loss_gradient,
    matched_pair_loss,
    random_gradient_fixture,
)

RC = RangeConfig()


def polar(r, azimuth, **kw):
    fields = dict(z=0.0, l=4.0, w=2.0, h=1.5, sin_t=0.0, cos_t=1.0)
    fields.update(kw)
    return PolarBox(r=r, sin_a=math.sin(azimuth), cos_a=math.cos(azimuth), **fields)


def box_l1(pred, gt, k_scaling):
    """The box term of the pair loss on two boxes' ``POLAR_FIELDS`` rows."""
    return loss._box_l1(pred.as_array(), gt.as_array(), k_scaling)


def velocity_l1(pred, gt):
    """The velocity term of :func:`matched_pair_loss`: the loss at ``pred`` minus the loss at ``gt``."""
    box = polar(10.0, 0.4)
    enc = encode_polar_box(box, RC)
    return matched_pair_loss(enc, pred, box, gt, RC) - matched_pair_loss(enc, gt, box, gt, RC)


class TestL1Terms:
    def test_identical_boxes(self):
        b = polar(10.0, 0.4)
        assert box_l1(b, b, 20.0) == 0.0

    def test_radial_term_ignores_k(self):
        a = polar(10.0, 0.0)
        b = polar(12.0, 0.0)
        assert box_l1(a, b, 1.0) == 2.0
        assert box_l1(a, b, 20.0) == 2.0

    def test_azimuth_only_difference(self):
        a = polar(10.0, 0.0)
        b = PolarBox(10.0, 0.1, math.sqrt(0.99), 0.0, 4.0, 2.0, 1.5, 0.0, 1.0)
        expected = 20.0 * (0.1 + (1.0 - math.sqrt(0.99)))
        assert box_l1(a, b, 20.0) == pytest.approx(expected, abs=1e-12)
        assert box_l1(a, b, 20.0) == pytest.approx(2.100, abs=1e-3)

    def test_affine_in_k_scaling(self):
        rng = np.random.default_rng(41)
        a = polar(rng.uniform(1, 49), rng.uniform(-math.pi, math.pi))
        b = polar(rng.uniform(1, 49), rng.uniform(-math.pi, math.pi))
        azimuth_l1 = abs(a.sin_a - b.sin_a) + abs(a.cos_a - b.cos_a)
        base = box_l1(a, b, 1.0)
        for k in (5.0, 10.0, 20.0):
            assert box_l1(a, b, k) == pytest.approx(base + (k - 1) * azimuth_l1, rel=1e-12)

    def test_velocity_l1(self):
        assert velocity_l1(PolarVelocity(1.0, -2.0), PolarVelocity(1.0, -2.0)) == 0.0
        assert velocity_l1(PolarVelocity(2.0, 1.0), PolarVelocity(0.0, 0.0)) == pytest.approx(3.0, abs=1e-12)

    def test_velocity_l1_matches_cartesian_only_at_zero_azimuth(self):
        pv = PolarVelocity(2.0, 1.0)
        gv = PolarVelocity(-1.0, 0.5)
        polar_l1 = velocity_l1(pv, gv)
        # at azimuth 0 the components coincide with (v_x, v_y)
        p0 = velocity_polar_to_cartesian(pv, 0.0, 1.0)
        g0 = velocity_polar_to_cartesian(gv, 0.0, 1.0)
        assert abs(p0.v_x - g0.v_x) + abs(p0.v_y - g0.v_y) == pytest.approx(polar_l1)
        # at azimuth pi/4 the cartesian L1 differs
        s, c = math.sin(math.pi / 4), math.cos(math.pi / 4)
        p1 = velocity_polar_to_cartesian(pv, s, c)
        g1 = velocity_polar_to_cartesian(gv, s, c)
        assert abs(p1.v_x - g1.v_x) + abs(p1.v_y - g1.v_y) != pytest.approx(polar_l1)


class TestGradient:
    def test_radial_partial_at_zero(self):
        # d r / d b_r at b_r = 0 is sigmoid'(0) * r_max = 12.5
        enc = BoxEncoding(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 1.0)
        gt = polar(30.0, 0.5, z=1.0, l=3.0, w=3.0, h=3.0, sin_t=1.0, cos_t=0.0)
        grad = loss_gradient(enc, PolarVelocity(1.0, 1.0), gt, PolarVelocity(0.0, 0.0), RC)
        assert grad[0] == pytest.approx(-12.5)  # decoded r=25 below gt 30

    def test_size_partial_is_exp(self):
        enc = BoxEncoding(1.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.5, 0.0, 1.0)
        gt = polar(30.0, 0.5, z=1.0, l=3.0, w=3.0, h=3.0, sin_t=1.0, cos_t=0.0)
        grad = loss_gradient(enc, PolarVelocity(1.0, 1.0), gt, PolarVelocity(0.0, 0.0), RC)
        assert grad[4] == pytest.approx(-math.exp(0.0))  # l = 1 below gt 3

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(48)
        worst = 0.0
        for _ in range(200):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            analytic = loss_gradient(enc, vel, gt_box, gt_vel, RC)
            numeric = finite_difference_gradient(enc, vel, gt_box, gt_vel, RC)
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
        assert worst < 1e-5

    def test_kink_rejected(self):
        gt = polar(25.0, 0.0, z=-1.0, l=1.0, w=1.0, h=1.0)
        enc = BoxEncoding(0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0)  # r decodes to exactly 25
        with pytest.raises(KinkError):
            loss_gradient(enc, PolarVelocity(1.0, 1.0), gt, PolarVelocity(0.0, 0.0), RC)

    def test_normalization_null_space(self):
        # directional derivative along the raw pair direction is zero
        rng = np.random.default_rng(49)
        for _ in range(100):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            grad = loss_gradient(enc, vel, gt_box, gt_vel, RC)
            azimuth_dot = grad[1] * enc.b_sin_a + grad[2] * enc.b_cos_a
            yaw_dot = grad[7] * enc.b_sin_t + grad[8] * enc.b_cos_t
            assert abs(azimuth_dot) < 1e-12 * max(1.0, abs(grad[1]), abs(grad[2]))
            assert abs(yaw_dot) < 1e-12 * max(1.0, abs(grad[7]), abs(grad[8]))

    def test_velocity_partials_are_signs(self):
        rng = np.random.default_rng(50)
        enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
        grad = loss_gradient(enc, vel, gt_box, gt_vel, RC)
        assert grad[9] == math.copysign(1.0, vel.v_rad - gt_vel.v_rad)
        assert grad[10] == math.copysign(1.0, vel.v_tan - gt_vel.v_tan)

    def test_pair_loss_value_nonnegative(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            assert matched_pair_loss(enc, vel, gt_box, gt_vel, RC) >= 0.0

    @pytest.mark.parametrize("kink_tol", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_kink_tol_is_refused(self, kink_tol):
        # every residual is exactly 0 here, so a tolerance that switches the guard off returns a gradient
        enc = BoxEncoding(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 1.0)
        gt = PolarBox(*loss._decode_checked(loss._encoding_fields(enc), RC))
        vel = PolarVelocity(1.0, 1.0)
        with pytest.raises(KinkError):
            loss_gradient(enc, vel, gt, vel, RC)
        with pytest.raises(ValueError, match="kink_tol") as raised:
            loss_gradient(enc, vel, gt, vel, RC, kink_tol=kink_tol)
        assert raised.type is ValueError


# The reference for the float gradient: the gradient on numpy arrays, as it
# was written before it moved to Python floats.
def array_loss_gradient(enc, velocity, gt_box, gt_velocity, rc, kink_tol=1e-7):
    deltas = np.array(loss._decode_checked(loss._encoding_fields(enc), rc)) - gt_box.as_array()
    residuals = np.concatenate(
        [deltas, [velocity.v_rad - gt_velocity.v_rad, velocity.v_tan - gt_velocity.v_tan]]
    )
    near = np.abs(residuals) < kink_tol
    if near.any():
        fields = [GRADIENT_FIELDS[k] for k in np.flatnonzero(near)]
        raise KinkError(f"L1 kink within {kink_tol} on: {', '.join(fields)}")

    def sign(x):
        return 1.0 if x > 0.0 else -1.0

    def normalized(u, w):
        """(u, w, n^3), or (u/n, w/n, n) where n^3 is not a finite normal double."""
        n = math.hypot(u, w)
        try:
            n3 = n**3
        except OverflowError:
            return u / n, w / n, n
        return (u, w, n3) if n3 >= sys.float_info.min else (u / n, w / n, n)

    k = rc.k_scaling
    grad = np.empty(11)
    s_r = loss._sigmoid(enc.b_r)
    grad[0] = sign(deltas[0]) * s_r * (1.0 - s_r) * rc.r_max
    u, w, n3 = normalized(enc.b_sin_a, enc.b_cos_a)
    sgn_s, sgn_c = sign(deltas[1]), sign(deltas[2])
    grad[1] = k * (sgn_s * w * w - sgn_c * u * w) / n3
    grad[2] = k * (-sgn_s * u * w + sgn_c * u * u) / n3
    s_z = loss._sigmoid(enc.b_z)
    grad[3] = sign(deltas[3]) * s_z * (1.0 - s_z) * (rc.z_max - rc.z_min)
    grad[4] = sign(deltas[4]) * math.exp(enc.b_l)
    grad[5] = sign(deltas[5]) * math.exp(enc.b_w)
    grad[6] = sign(deltas[6]) * math.exp(enc.b_h)
    u, w, n3 = normalized(enc.b_sin_t, enc.b_cos_t)
    sgn_s, sgn_c = sign(deltas[7]), sign(deltas[8])
    grad[7] = (sgn_s * w * w - sgn_c * u * w) / n3
    grad[8] = (-sgn_s * u * w + sgn_c * u * u) / n3
    grad[9] = sign(residuals[9])
    grad[10] = sign(residuals[10])
    if not np.isfinite(grad).all():
        raise ValueError("loss_gradient: a partial derivative is not finite")
    return grad


def gradient_outcome(compute):
    """(dtype, shape, bytes) of a gradient, or the type and message of the ValueError it raised.

    Where a pair's norm cubed underflows or overflows, both versions divide
    the norm out first; a partial that is still not finite is a ValueError.
    """
    try:
        grad = compute()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return grad.dtype, grad.shape, grad.tobytes()


def same_gradient(*args, **kw):
    expected = gradient_outcome(lambda: array_loss_gradient(*args, **kw))
    assert gradient_outcome(lambda: loss_gradient(*args, **kw)) == expected
    return expected


def as_doubles(obj):
    """The same box, encoding or velocity with every field a Python float."""
    return dataclasses.replace(obj, **{f.name: float(getattr(obj, f.name)) for f in dataclasses.fields(obj)})


def same_gradient_as_doubles(*pair, **kw):
    """``loss_gradient`` of a pair whose fields may be float32 is the reference's on the same values as doubles."""
    expected = gradient_outcome(lambda: array_loss_gradient(*map(as_doubles, pair), RC, **kw))
    assert gradient_outcome(lambda: loss_gradient(*pair, RC, **kw)) == expected
    return expected


class TestFloatGradientMatchesArrays:
    def test_fixtures(self):
        rng = np.random.default_rng(56)
        for _ in range(300):
            fixture = random_gradient_fixture(rng, RC)
            assert same_gradient(*fixture, RC)[:2] == (np.float64, (11,))

    def test_float32_fields(self):
        # float32 fields give the gradient of the same values as doubles
        rng = np.random.default_rng(57)
        for _ in range(50):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            enc32 = BoxEncoding(*enc.as_array().astype(np.float32))
            vel32 = PolarVelocity(*np.float32([vel.v_rad, vel.v_tan]))
            assert same_gradient_as_doubles(enc32, vel32, gt_box, gt_vel)[:2] == (np.float64, (11,))
        # a float32 azimuth field 9.5e-8 below its target: a kink as a double, but
        # two float32 ulps (1.19e-7) apart if the subtraction ran in float32
        enc32 = BoxEncoding(*np.float32([0.3, 0.8, 0.6, -0.2, 1.2, 0.5, 0.4, 0.6, 0.8]))
        sin_a = float(loss._decode_checked(list(map(float, loss._encoding_fields(enc32))), RC)[1]) + 9.5e-8
        gt_box = PolarBox(12.0, sin_a, math.sqrt(1.0 - sin_a * sin_a), -0.5, 4.0, 1.8, 1.6, 0.0, 1.0)
        outcome = same_gradient_as_doubles(enc32, PolarVelocity(0.7, -1.1), gt_box, GT_VEL)
        assert outcome == ("KinkError", "L1 kink within 1e-07 on: b_sin_a")

    def test_kink_at_the_tolerance_and_one_ulp_below(self):
        # a residual equal to kink_tol is not a kink; one ulp below it is
        rng = np.random.default_rng(58)
        kinks = 0
        for _ in range(20):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            deltas = np.array(loss._decode_checked(loss._encoding_fields(enc), RC)) - gt_box.as_array()
            residuals = [*deltas.tolist(), vel.v_rad - gt_vel.v_rad, vel.v_tan - gt_vel.v_tan]
            for residual in residuals:
                tol = abs(float(residual))
                same_gradient(enc, vel, gt_box, gt_vel, RC, kink_tol=tol)
                below = same_gradient(enc, vel, gt_box, gt_vel, RC, kink_tol=math.nextafter(tol, math.inf))
                kinks += below[0] == "KinkError"
        assert kinks == 20 * 11

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-6.0, 6.0), min_size=11, max_size=11),
        st.floats(0.0, 60.0),
        st.floats(-math.pi, math.pi),
        st.floats(-6.0, 4.0),
        st.floats(-math.pi, math.pi),
        st.sampled_from([1e-7, 0.0, 1e-3, 0.5]),
    )
    @example([0.0, 1e-6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 25.0, 0.0, -1.0, 0.0, 1e-7)
    def test_any_point(self, x, r, azimuth, z, yaw, kink_tol):
        try:
            enc, vel = BoxEncoding.from_array(x[:9]), PolarVelocity(x[9], x[10])
            gt_box = polar(r, azimuth, z=z, sin_t=math.sin(yaw), cos_t=math.cos(yaw))
        except ValueError:
            return
        same_gradient(enc, vel, gt_box, GT_VEL, RC, kink_tol=kink_tol)


class TestFloat32FieldsAreDoubles:
    """Float32 fields give the loss and gradients of the same values as doubles."""

    @staticmethod
    def float32_pairs():
        # seed 63's first fixture decodes a yaw pair off the unit circle if float32 division runs
        rng = np.random.default_rng(63)
        for _ in range(20):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            enc32 = BoxEncoding(*enc.as_array().astype(np.float32))
            # the pairs of a target stay doubles: PolarBox checks them in their own precision
            sizes = {name: np.float32(getattr(gt_box, name)) for name in ("r", "z", "l", "w", "h")}
            gt32 = dataclasses.replace(gt_box, **sizes)
            vel32, gt_vel32 = (PolarVelocity(*np.float32([v.v_rad, v.v_tan])) for v in (vel, gt_vel))
            yield from ((enc32, vel, gt_box, gt_vel), (enc, vel, gt32, gt_vel), (enc32, vel32, gt32, gt_vel32))

    def test_loss(self):
        for pair in self.float32_pairs():
            expected = matched_pair_loss(*map(as_doubles, pair), RC)
            assert matched_pair_loss(*pair, RC).hex() == expected.hex()

    def test_gradients(self):
        for pair in self.float32_pairs():
            expected = finite_difference_gradient(*map(as_doubles, pair), RC).tobytes()
            assert finite_difference_gradient(*pair, RC).tobytes() == expected
            assert same_gradient_as_doubles(*pair)[0] == np.float64

    def test_a_float32_velocity_just_below_its_target_is_a_kink(self):
        # 9.5e-8 below its target as doubles, but one float32 ulp (1.19e-7) if the subtraction ran in float32
        enc, _, gt_box, _ = random_gradient_fixture(np.random.default_rng(64), RC)
        pair = (enc, PolarVelocity(np.float32(1.0), np.float32(-1.5)), gt_box, PolarVelocity(1.0 + 9.5e-8, 0.0))
        assert same_gradient_as_doubles(*pair) == ("KinkError", "L1 kink within 1e-07 on: v_rad")


# The reference for the float path: finite differences on objects. Every
# perturbed point builds a BoxEncoding and a PolarVelocity, decodes a
# PolarBox and sums the box and velocity L1 terms, all spelled out here.
# A loss or a partial derivative that is not finite is a ValueError.
def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0.0 else math.exp(x) / (1.0 + math.exp(x))


def object_pair_loss(x, gt_box, gt_vel, rc):
    enc = BoxEncoding.from_array(x[:9])
    vel = PolarVelocity(v_rad=float(x[9]), v_tan=float(x[10]))
    na = math.hypot(enc.b_sin_a, enc.b_cos_a)
    nt = math.hypot(enc.b_sin_t, enc.b_cos_t)
    try:
        sizes = math.exp(enc.b_l), math.exp(enc.b_w), math.exp(enc.b_h)
    except OverflowError:
        raise ValueError("size overflow") from None
    pred = PolarBox(
        sigmoid(enc.b_r) * rc.r_max,
        enc.b_sin_a / na,
        enc.b_cos_a / na,
        sigmoid(enc.b_z) * (rc.z_max - rc.z_min) + rc.z_min,
        *sizes,
        enc.b_sin_t / nt,
        enc.b_cos_t / nt,
    )
    box = (
        abs(pred.r - gt_box.r)
        + rc.k_scaling * (abs(pred.sin_a - gt_box.sin_a) + abs(pred.cos_a - gt_box.cos_a))
        + abs(pred.z - gt_box.z)
        + abs(pred.l - gt_box.l)
        + abs(pred.w - gt_box.w)
        + abs(pred.h - gt_box.h)
        + abs(pred.sin_t - gt_box.sin_t)
        + abs(pred.cos_t - gt_box.cos_t)
    )
    value = box + (abs(vel.v_rad - gt_vel.v_rad) + abs(vel.v_tan - gt_vel.v_tan))
    if not math.isfinite(value):
        raise ValueError("the loss is not finite")
    return value


def object_finite_differences(enc, vel, gt_box, gt_vel, rc, step=1e-6):
    x0 = np.concatenate([enc.as_array(), [vel.v_rad, vel.v_tan]])
    grad = np.empty(11)
    for i in range(11):
        hi = x0.copy()
        lo = x0.copy()
        with np.errstate(over="ignore"):  # a channel stepped past the float range fails in BoxEncoding
            hi[i] += step
            lo[i] -= step
        grad[i] = (object_pair_loss(hi, gt_box, gt_vel, rc) - object_pair_loss(lo, gt_box, gt_vel, rc)) / (2.0 * step)
    if not np.isfinite(grad).all():
        raise ValueError("a partial derivative is not finite")
    return grad


def outcome(compute):
    """The bytes of a result, or "ValueError"; any other exception propagates."""
    try:
        return np.asarray(compute(), dtype=np.float64).tobytes()
    except ValueError:
        return "ValueError"


GT_BOX = polar(12.0, 0.7, z=-0.5, l=4.0, w=1.8, h=1.6, sin_t=0.6, cos_t=0.8)
GT_VEL = PolarVelocity(1.5, -0.5)
# exp(EXP_TOP) is finite and exp(EXP_TOP + 1e-6) overflows; exp(EXP_BOTTOM) is
# the smallest subnormal and exp(EXP_BOTTOM - 1e-6) underflows to 0
EXP_TOP = 709.7827125
EXP_BOTTOM = -745.13321910194
BASE = [0.3, 0.6, 0.8, -0.2, 1.2, 0.5, 0.4, 0.0, 1.0, 0.7, -1.1]


def at(step=1e-6, **fields):
    """BASE with some encoding / velocity entries replaced, as (enc, velocity, step)."""
    x = list(BASE)
    for name, value in fields.items():
        x[GRADIENT_FIELDS.index(name)] = value
    return BoxEncoding.from_array(x[:9]), PolarVelocity(x[9], x[10]), step


EDGE_POINTS = {
    "azimuth pair stepped to (0, 0)": at(b_sin_a=1e-6, b_cos_a=0.0),
    "yaw pair stepped to (0, 0)": at(b_sin_t=0.0, b_cos_t=-1e-6),
    "size exp overflows at +step": at(b_l=EXP_TOP),
    "size exp underflows to 0 at -step": at(b_w=EXP_BOTTOM),
    "subnormal azimuth pair": at(b_sin_a=5e-324, b_cos_a=5e-324),
    "subnormal yaw pair": at(b_sin_t=-5e-324, b_cos_t=5e-324),
    "channel stepped past the float range": at(step=1e300, b_z=-sys.float_info.max),
    "first channel stepped past the float range": at(step=1e300, b_r=-sys.float_info.max),
}


class TestFiniteDifferencesOnFloats:
    @pytest.mark.parametrize("name", sorted(EDGE_POINTS))
    def test_edge_points_fail_as_the_objects_do(self, name):
        enc, vel, step = EDGE_POINTS[name]
        with pytest.raises(ValueError):
            object_finite_differences(enc, vel, GT_BOX, GT_VEL, RC, step)
        with pytest.raises(ValueError):
            finite_difference_gradient(enc, vel, GT_BOX, GT_VEL, RC, step)

    @pytest.mark.parametrize("name", sorted(EDGE_POINTS))
    def test_edge_points_raise_what_a_full_evaluation_raises(self, name):
        # the message of the unperturbed point if it fails, else of the first of the 22 points that fails
        enc, vel, step = EDGE_POINTS[name]
        x0 = [*enc.as_array().tolist(), vel.v_rad, vel.v_tan]
        gt = (*GT_BOX.as_array(), GT_VEL.v_rad, GT_VEL.v_tan)
        points = [x0] + [[*x0[:i], x0[i] + d, *x0[i + 1 :]] for i in range(11) for d in (step, -step)]
        messages = []
        for x in points:
            try:
                loss._pair_loss(x, gt, RC)
            except ValueError as exc:
                messages.append(str(exc))
        with pytest.raises(ValueError) as raised:
            finite_difference_gradient(enc, vel, GT_BOX, GT_VEL, RC, step)
        assert str(raised.value) == messages[0]

    def test_edge_point_losses_keep_their_bits(self):
        # the unperturbed point is valid except for the subnormal pairs
        for name, (enc, vel, _) in EDGE_POINTS.items():
            x = [*enc.as_array(), vel.v_rad, vel.v_tan]
            expected = outcome(lambda: object_pair_loss(x, GT_BOX, GT_VEL, RC))
            assert outcome(lambda: matched_pair_loss(enc, vel, GT_BOX, GT_VEL, RC)) == expected, name
            assert (expected == "ValueError") == name.startswith("subnormal"), name

    @pytest.mark.parametrize("v_rad, v_tan", [(math.inf, 0.0), (0.0, math.nan), (-math.inf, math.inf)])
    def test_pair_loss_refuses_a_non_finite_velocity(self, v_rad, v_tan):
        # no step reaches this through finite_difference_gradient: one that
        # pushes a velocity past the float range first overflows exp(b_l)
        x = [*BASE[:9], v_rad, v_tan]
        with pytest.raises(ValueError):
            object_pair_loss(x, GT_BOX, GT_VEL, RC)
        with pytest.raises(ValueError, match="PolarVelocity"):
            loss._pair_loss(x, (*GT_BOX.as_array(), GT_VEL.v_rad, GT_VEL.v_tan), RC)

    @pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf, -math.inf])
    def test_step_must_be_finite_and_positive(self, step):
        enc, vel, _ = at()
        with pytest.raises(ValueError, match="step"):
            finite_difference_gradient(enc, vel, GT_BOX, GT_VEL, RC, step=step)

    def test_float32_inputs_are_taken_as_doubles(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            enc32 = BoxEncoding(*enc.as_array().astype(np.float32))
            step = np.float32(1e-3)
            expected = object_finite_differences(enc32, vel, gt_box, gt_vel, RC, float(step))
            got = finite_difference_gradient(enc32, vel, gt_box, gt_vel, RC, step)
            assert got.tobytes() == expected.tobytes()

    def test_fixtures_keep_their_bits(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            for step in (1e-6, 1e-3):
                expected = object_finite_differences(enc, vel, gt_box, gt_vel, RC, step)
                got = finite_difference_gradient(enc, vel, gt_box, gt_vel, RC, step)
                assert got.tobytes() == expected.tobytes()
            x = [*enc.as_array(), vel.v_rad, vel.v_tan]
            assert matched_pair_loss(enc, vel, gt_box, gt_vel, RC) == object_pair_loss(x, gt_box, gt_vel, RC)

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-4.0, 4.0),
                st.sampled_from([0.0, 1e-6, -1e-6, 5e-324, -5e-324, EXP_TOP, EXP_BOTTOM, 1e308, -1e308]),
            ),
            min_size=11,
            max_size=11,
        )
    )
    @example([0.0, 1e-6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    def test_any_point_agrees_with_the_objects(self, x):
        try:
            enc, vel = BoxEncoding.from_array(x[:9]), PolarVelocity(x[9], x[10])
        except ValueError:
            return
        assert outcome(lambda: finite_difference_gradient(enc, vel, GT_BOX, GT_VEL, RC)) == outcome(
            lambda: object_finite_differences(enc, vel, GT_BOX, GT_VEL, RC)
        )
        assert outcome(lambda: matched_pair_loss(enc, vel, GT_BOX, GT_VEL, RC)) == outcome(
            lambda: object_pair_loss(x, GT_BOX, GT_VEL, RC)
        )

    def test_decodes_the_unperturbed_point_once(self, monkeypatch):
        # one decode of the unperturbed rows per call, whatever their number, and no full decode
        # per perturbed point (at the one-pair call it was 1 per call; one per point would be 22)
        rng = np.random.default_rng(59)
        fixtures = [random_gradient_fixture(rng, RC) for _ in range(10)]
        calls = []
        decode_rows = loss._decode_rows

        def counted(b, rc):
            calls.append(len(b[0]))
            return decode_rows(b, rc)

        def refuse(b, rc):
            raise AssertionError("a full float decode ran")

        monkeypatch.setattr(loss, "_decode_rows", counted)
        monkeypatch.setattr(loss, "_decode_checked", refuse)
        finite_difference_gradient(*fixtures[0], RC)
        assert calls == [1]
        for n in (0, 1, 10):
            calls.clear()
            finite_difference_gradient(*pair_sequences(fixtures[:n]), RC)
            assert calls == [n]

    def test_each_step_re_decodes_only_its_own_part(self, monkeypatch):
        # 7 parts for the unperturbed rows, then 1 per box-channel step (9 channels, 2 steps each), for any F
        rng = np.random.default_rng(60)
        fixtures = [random_gradient_fixture(rng, RC) for _ in range(10)]
        calls = []
        decode_part_rows = loss._decode_part_rows

        def counted(b, i, rc):
            calls.append((i, len(b[i])))
            return decode_part_rows(b, i, rc)

        monkeypatch.setattr(loss, "_decode_part_rows", counted)
        parts = [0, 1, 3, 4, 5, 6, 7] + [i for i in range(9) for _ in range(2)]
        for fixture in fixtures[:3]:
            calls.clear()
            finite_difference_gradient(*fixture, RC)
            assert calls == [(i, 1) for i in parts]
        calls.clear()
        finite_difference_gradient(*pair_sequences(fixtures), RC)
        assert calls == [(i, 10) for i in parts]

    def test_builds_no_box_objects(self, monkeypatch):
        rng = np.random.default_rng(54)
        fixtures = [random_gradient_fixture(rng, RC) for _ in range(20)]
        expected = [finite_difference_gradient(*f, RC).tobytes() for f in fixtures]

        def refuse(self):
            raise RuntimeError(f"a {type(self).__name__} was built")

        for cls in (BoxEncoding, PolarBox, PolarVelocity):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        assert [finite_difference_gradient(*f, RC).tobytes() for f in fixtures] == expected
        assert finite_difference_gradient(*pair_sequences(fixtures), RC).tobytes() == b"".join(expected)


def pair_sequences(pairs):
    """The four argument sequences (encodings, velocities, gt boxes, gt velocities) of a list of pairs."""
    return [[pair[j] for pair in pairs] for j in range(4)]


# The reference for the row form: the one-pair finite differences as they
# were before they ran on rows, with the part decode they used.
def scalar_decode_part(b, i, rc):
    if i == 0:
        return 0, (loss._sigmoid(b[0]) * rc.r_max,)
    if i == 3:
        return 3, (loss._sigmoid(b[3]) * (rc.z_max - rc.z_min) + rc.z_min,)
    if 4 <= i <= 6:
        try:
            size = math.exp(b[i])
        except OverflowError:
            raise ValueError("decode: exp of a size channel must be positive and finite") from None
        _require_positive_size(size)
        return i, (size,)
    start, name = (1, "PolarBox azimuth") if i < 3 else (7, "PolarBox yaw")
    n = math.hypot(b[start], b[start + 1])
    s, c = b[start] / n, b[start + 1] / n
    _require_unit_pair(name, s, c)
    return start, (s, c)


def scalar_pair_sum(box, x, gt, k):
    box_l1 = (
        abs(box[0] - gt[0])
        + k * (abs(box[1] - gt[1]) + abs(box[2] - gt[2]))
        + abs(box[3] - gt[3])
        + abs(box[4] - gt[4])
        + abs(box[5] - gt[5])
        + abs(box[6] - gt[6])
        + abs(box[7] - gt[7])
        + abs(box[8] - gt[8])
    )
    return box_l1 + (abs(x[9] - gt[9]) + abs(x[10] - gt[10]))


def scalar_finite_differences(enc, velocity, gt_box, gt_velocity, rc, step=1e-6):
    step = float(step)
    x0 = [float(v) for v in (*_encoding_fields(enc), velocity.v_rad, velocity.v_tan)]
    gt = (*_box_fields(gt_box), gt_velocity.v_rad, gt_velocity.v_tan)
    _require_encoding(x0[:9])
    box0 = [field for i in (0, 1, 3, 4, 5, 6, 7) for field in scalar_decode_part(x0, i, rc)[1]]
    _require_finite("PolarVelocity", x0[9], x0[10])
    grad = np.empty(11)
    for i in range(11):
        losses = []
        for moved in (x0[i] + step, x0[i] - step):
            y = x0.copy()
            y[i] = moved
            if i < 9:
                _require_finite("BoxEncoding", moved)
                if i in (1, 2):
                    _require_nonzero_pair("azimuth", y[1], y[2])
                elif i in (7, 8):
                    _require_nonzero_pair("yaw", y[7], y[8])
                start, fields = scalar_decode_part(y, i, rc)
                box = box0.copy()
                box[start : start + len(fields)] = fields
            else:
                _require_finite("PolarVelocity", moved)
                box = box0
            losses.append(scalar_pair_sum(box, y, gt, rc.k_scaling))
        grad[i] = (losses[0] - losses[1]) / (2.0 * step)
    if not all(map(math.isfinite, grad.tolist())):
        raise ValueError("finite_difference_gradient: a perturbed loss or a partial derivative is not finite")
    return grad


def unchecked(x):
    """An encoding and a velocity that hold the 11 values of ``x`` without the checks of their classes."""
    return types.SimpleNamespace(**dict(zip(ENCODING_FIELDS, x[:9]))), types.SimpleNamespace(v_rad=x[9], v_tan=x[10])


EXTREMES = [0.0, 1e-6, -1e-6, 5e-324, -5e-324, EXP_TOP, EXP_BOTTOM, 1e308, -1e308, math.inf, -math.inf, math.nan]
# pairs that fail: the EDGE_POINTS at step 1e-6, a channel or a velocity that is not finite, and a
# velocity L1 that overflows, so every perturbed loss is inf and every velocity partial NaN; a
# velocity that is not finite next to a size that overflows at +step fails at the unperturbed point
FAILING_PAIRS = [(enc, vel, GT_BOX, GT_VEL) for enc, vel, step in EDGE_POINTS.values() if step == 1e-6] + [
    (*unchecked([*BASE[:4], math.inf, *BASE[5:]]), GT_BOX, GT_VEL),
    (*unchecked([*BASE[:8], math.nan, *BASE[9:]]), GT_BOX, GT_VEL),
    (*unchecked([*BASE[:10], -math.inf]), GT_BOX, GT_VEL),
    (*unchecked([*BASE[:4], EXP_TOP, *BASE[5:9], math.nan, BASE[10]]), GT_BOX, GT_VEL),
    (BoxEncoding.from_array(BASE[:9]), PolarVelocity(1e308, -1e308), GT_BOX, GT_VEL),
]
fixture_pairs = st.integers(0, 2**32 - 1).map(lambda seed: random_gradient_fixture(np.random.default_rng(seed), RC))
point_pairs = st.lists(st.floats(-4.0, 4.0) | st.sampled_from(EXTREMES), min_size=11, max_size=11).map(
    lambda x: (*unchecked(x), GT_BOX, GT_VEL)
)


def batch_outcome(pairs, step=1e-6):
    """:func:`gradient_outcome` of one call over the sequences of ``pairs``, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return gradient_outcome(lambda: finite_difference_gradient(*pair_sequences(pairs), RC, step))


class TestFiniteDifferencesOnRows:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(fixture_pairs | point_pairs | st.sampled_from(FAILING_PAIRS), max_size=40),
           st.sampled_from([1e-6, 1e-3]))
    def test_a_batch_raises_what_its_first_failing_pair_raises(self, pairs, step):
        expected = [gradient_outcome(lambda: scalar_finite_differences(*pair, RC, step)) for pair in pairs]
        got = batch_outcome(pairs, step)
        failures = [outcome for outcome in expected if outcome[0] == "ValueError"]
        if failures:
            assert got == failures[0]
        else:
            assert got == (np.float64, (len(pairs), 11), b"".join(outcome[2] for outcome in expected))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(fixture_pairs | point_pairs, max_size=40), st.sampled_from([1e-6, 1e-3]))
    def test_a_batch_that_passes_has_the_bits_of_the_reference_row_by_row(self, pairs, step):
        expected = [gradient_outcome(lambda: scalar_finite_differences(*pair, RC, step)) for pair in pairs]
        passing = [pair for pair, outcome in zip(pairs, expected) if outcome[0] != "ValueError"]
        rows = [outcome[2] for outcome in expected if outcome[0] != "ValueError"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = finite_difference_gradient(*pair_sequences(passing), RC, step)
        assert (grad.dtype, grad.shape) == (np.float64, (len(passing), 11))
        assert [row.tobytes() for row in grad] == rows

    def test_a_failing_pair_raises_at_any_position(self):
        rng = np.random.default_rng(61)
        fixtures = [random_gradient_fixture(rng, RC) for _ in range(12)]
        for pair in FAILING_PAIRS:
            message = gradient_outcome(lambda: scalar_finite_differences(*pair, RC))
            assert message[0] == "ValueError"
            for position in (0, 5, 12):
                pairs = [*fixtures[:position], pair, *fixtures[position:], FAILING_PAIRS[0]]
                assert batch_outcome(pairs) == message

    def test_no_pairs_give_an_empty_gradient(self):
        for empty in ([], ()):
            grad = finite_difference_gradient(empty, empty, empty, empty, RC)
            assert (grad.dtype, grad.shape) == (np.float64, (0, 11))

    def test_arguments_that_are_not_one_pair_or_equal_sequences_are_refused(self):
        rng = np.random.default_rng(62)
        enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
        for args in ([[enc], [vel], [gt_box], [gt_vel, gt_vel]], [[enc], vel, [gt_box], [gt_vel]], [enc, vel, gt_box, []]):
            with pytest.raises(ValueError) as raised:
                finite_difference_gradient(*args, RC)
            assert raised.type is ValueError
            assert str(raised.value).startswith("finite_difference_gradient: ")
            assert "\n" not in str(raised.value)

    def test_float32_targets_are_taken_as_doubles(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            enc, vel, gt_box, gt_vel = random_gradient_fixture(rng, RC)
            fields = [np.float32(v) if j in (0, 3, 4, 5, 6) else v for j, v in enumerate(_box_fields(gt_box))]
            gt32, gt64 = PolarBox(*fields), PolarBox.from_array(fields)
            expected = finite_difference_gradient(enc, vel, gt64, gt_vel, RC)
            assert finite_difference_gradient(enc, vel, gt32, gt_vel, RC).tobytes() == expected.tobytes()


UNIT_BOX = PolarBox(1.0, 0.0, 1.0, 0.0, 2.0, 2.0, 2.0, 0.0, 1.0)


class TestNonFiniteResultsAreValueErrors:
    @pytest.mark.parametrize("yaw_sin, expected", [(1.5e-162, -1.0 / 1.5e-162), (1e200, -1e-200)],
                             ids=["norm-cubed-underflows", "norm-cubed-overflows"])
    def test_a_norm_whose_cube_leaves_the_normal_range_is_divided_out_first(self, yaw_sin, expected):
        # the yaw pair (u, 0) decodes to (1, 0) against the target (0, 1): d/du is 0, d/dw is -1/u
        enc = BoxEncoding(0, 1, 0, 0, 0, 0, 0, yaw_sin, 0)
        grad = loss_gradient(enc, PolarVelocity(1, 1), UNIT_BOX, PolarVelocity(0, 0), RC)
        assert np.isfinite(grad).all()
        assert grad[7:9].tolist() == [0.0, expected]

    def test_a_partial_that_overflows_raises(self):
        # the norm 5e-324 is exact, but its partial 1/n is past the float range
        enc = BoxEncoding(0, 1, 0, 0, 0, 0, 0, 5e-324, 0)
        with pytest.raises(ValueError, match="loss_gradient: a partial derivative is not finite"):
            loss_gradient(enc, PolarVelocity(1, 1), UNIT_BOX, PolarVelocity(0, 0), RC)

    def test_huge_k_scaling_raises_instead_of_returning_inf_or_nan(self):
        rc = RangeConfig(k_scaling=1e308)
        gt_box = PolarBox(10, 0, 1, 0, 1, 1, 1, 0, 1)
        enc, vel = BoxEncoding(0, 1, 0, 0, 0, 0, 0, 0, 1), PolarVelocity(0.5, 0.5)
        with pytest.raises(ValueError, match="matched_pair_loss: the loss is not finite"):
            matched_pair_loss(enc, vel, gt_box, PolarVelocity(0, 0), rc)
        with pytest.raises(ValueError, match="finite_difference_gradient: a perturbed loss"):
            finite_difference_gradient(enc, vel, gt_box, PolarVelocity(0, 0), rc)
        # the azimuth (0.06, 0.08) has norm 0.1, so its partials are 1e308 times about 10
        enc = BoxEncoding(0, 0.06, 0.08, 0, 0, 0, 0, 0, 1)
        gt_box = PolarBox(10, 0, 1, 0, 2, 2, 2, 0.6, 0.8)
        with pytest.raises(ValueError, match="loss_gradient: a partial derivative is not finite"):
            loss_gradient(enc, vel, gt_box, PolarVelocity(0, 0), rc)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(-4.0, 4.0)
            | st.sampled_from([0.0, 5e-324, -5e-324, 1.5e-162, -1.5e-162, 1e200, -1e200, EXP_TOP, 1e308, -1e308]),
            min_size=11,
            max_size=11,
        ),
        st.sampled_from([1.0, 20.0, 1e308]),
    )
    def test_results_are_finite_or_value_errors(self, x, k_scaling):
        try:
            enc, vel = BoxEncoding.from_array(x[:9]), PolarVelocity(x[9], x[10])
        except ValueError:
            return
        rc = RangeConfig(k_scaling=k_scaling)
        for compute in (matched_pair_loss, loss_gradient, finite_difference_gradient):
            try:
                result = compute(enc, vel, GT_BOX, GT_VEL, rc)
            except ValueError:
                continue
            assert np.isfinite(result).all(), compute.__name__
