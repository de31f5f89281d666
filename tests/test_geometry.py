import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polarview.geometry import (
    BoxEncoding,
    CartesianBox,
    CartesianVelocity,
    PolarBox,
    PolarVelocity,
    RangeConfig,
    RangeError,
    cartesian_to_polar,
    decode_box_encoding,
    decode_boxes,
    encode_boxes,
    encode_polar_box,
    gated_cells,
    planar_distances,
    polar_to_cartesian,
    velocity_cartesian_to_polar,
    velocity_polar_to_cartesian,
    wrap_angle,
)
from polarview.loss import _decode_checked

#: Angle pairs whose norm is subnormal or overflows and whose quotients are no unit pair.
EDGE_NORM_PAIRS = {
    (5e-324, 5e-324): "subnormal",
    (1e-320, 3e-320): "subnormal-off-unit",
    (1.7e308, 1.7e308): "overflow",
}

RC = RangeConfig()


# Planar coordinates of magnitude 1e-300 to 1e6, or exactly 0, and the
# angles at the ends of (-pi, pi].
planar_coordinates = st.just(0.0) | st.builds(
    lambda sign, log10: sign * 10.0**log10, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 6.0)
)
EDGE_YAWS = [math.pi, math.nextafter(-math.pi, 0.0)]


def random_polar_box(rng, rc=RC):
    a, t = rng.uniform(-math.pi, math.pi, size=2)
    return PolarBox(
        r=rng.uniform(0.5, rc.r_max - 0.5),
        sin_a=math.sin(a),
        cos_a=math.cos(a),
        z=rng.uniform(rc.z_min + 0.1, rc.z_max - 0.1),
        l=rng.uniform(0.3, 6.0),
        w=rng.uniform(0.3, 3.0),
        h=rng.uniform(0.3, 3.0),
        sin_t=math.sin(t),
        cos_t=math.cos(t),
    )


class TestDecode:
    def test_sigmoid_zero_gives_half_range(self):
        enc = BoxEncoding(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        box = decode_box_encoding(enc, RC)
        assert box.r == 25.0  # sigmoid(0) * 50

    def test_three_four_five_normalization(self):
        enc = BoxEncoding(0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        box = decode_box_encoding(enc, RC)
        assert (box.sin_a, box.cos_a) == (0.6, 0.8)

    def test_exp_zero_gives_unit_sizes(self):
        enc = BoxEncoding(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        box = decode_box_encoding(enc, RC)
        assert box.l == box.w == box.h == 1.0

    def test_z_midpoint(self):
        box = decode_box_encoding(BoxEncoding(0, 0, 1, 0, 0, 0, 0, 0, 1), RC)
        assert box.z == pytest.approx((RC.z_min + RC.z_max) / 2, abs=1e-15)

    def test_output_always_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            enc = BoxEncoding.from_array(rng.normal(0, 3, size=9))
            box = decode_box_encoding(enc, RC)  # PolarBox validates on construction
            assert box.r >= 0.0 and min(box.l, box.w, box.h) > 0.0

    def test_batch_output_always_valid(self):
        out = decode_boxes(np.random.default_rng(71).normal(0, 3, size=(500, 9)), RC)
        assert ((out[:, 0] >= 0.0) & (out[:, 0] <= RC.r_max)).all()
        np.testing.assert_allclose(out[:, 1] ** 2 + out[:, 2] ** 2, 1.0, atol=1e-12)
        np.testing.assert_allclose(out[:, 7] ** 2 + out[:, 8] ** 2, 1.0, atol=1e-12)
        assert (out[:, 4:7] > 0.0).all()

    def test_one_box_is_a_row_of_the_batch(self):
        encs = np.random.default_rng(72).normal(0, 3, size=(500, 9))
        rows = [decode_box_encoding(BoxEncoding.from_array(e), RC).as_array() for e in encs]
        assert np.array_equal(rows, decode_boxes(encs, RC))

    def test_batch_sigmoid_saturates_exactly(self):
        grid = [-800.0, -0.0, 0.0, 800.0]
        enc = np.array([[b_r, 0, 1, b_z, 0, 0, 0, 0, 1] for b_r in grid for b_z in grid])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode_boxes(enc, RC)
        r = [0.0, RC.r_max / 2, RC.r_max / 2, RC.r_max]
        mid_z = (RC.z_min + RC.z_max) / 2
        z = [RC.z_min, mid_z, mid_z, RC.z_max]
        assert out[:, 0].tolist() == [v for v in r for _ in grid]  # b_r varies slowest
        assert out[:, 3].tolist() == z * len(grid)

    @pytest.mark.parametrize(
        "enc",
        [
            [0, 0, 1, 0, 1000, 0, 0, 0, 1],
            [0, 0, 1, 0, -1000, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0, 0, 0, 0],
            *([0, *pair, 0, 0, 0, 0, 0, 1] for pair in EDGE_NORM_PAIRS),
            *([0, 0, 1, 0, 0, 0, 0, *pair] for pair in EDGE_NORM_PAIRS),
        ],
        ids=[
            "exp-overflow",
            "exp-underflow",
            "zero-azimuth-pair",
            "zero-yaw-pair",
            *(f"{slot}-norm-{kind}" for slot in ("azimuth", "yaw") for kind in EDGE_NORM_PAIRS.values()),
        ],
    )
    def test_scalar_and_batch_fail_alike(self, enc):
        # the scalar side is the finite-difference oracle's float decode
        with pytest.raises(ValueError):
            _decode_checked([float(v) for v in enc], RC)
        batch = np.array([[0, 0, 1, 0, 0, 0, 0, 0, 1], enc], dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would escape pytest.raises
            with pytest.raises(ValueError):
                decode_boxes(batch, RC)

    @pytest.mark.parametrize("slot", [1, 7], ids=["azimuth", "yaw"])
    def test_a_subnormal_norm_of_a_unit_pair_decodes(self, slot):
        # hypot(5e-324, 0) is exact, so the quotient pair is (1, 0) on both sides
        enc = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        enc[slot : slot + 2] = [5e-324, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode_boxes(np.array([enc]), RC)
        assert out[0, slot : slot + 2].tolist() == [1.0, 0.0]
        assert _decode_checked(enc, RC) == out[0].tolist()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoxEncoding(math.nan, 0, 1, 0, 0, 0, 0, 0, 1)

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            BoxEncoding(0, 0.0, 0.0, 0, 0, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            BoxEncoding(0, 0, 1, 0, 0, 0, 0, 0.0, 0.0)


class TestEncode:
    def test_midpoint_pre_images_are_zero(self):
        box = PolarBox(25.0, 0.0, 1.0, (RC.z_min + RC.z_max) / 2, 1.0, 1.0, 1.0, 0.0, 1.0)
        enc = encode_polar_box(box, RC)
        assert enc.b_r == 0.0
        assert enc.b_l == 0.0
        assert enc.b_z == pytest.approx(0.0, abs=1e-12)

    def test_boundary_r_raises(self):
        box = PolarBox(RC.r_max, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(RangeError):
            encode_polar_box(box, RC)

    def test_boundary_z_raises(self):
        box = PolarBox(10.0, 0.0, 1.0, RC.z_max, 1.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(RangeError):
            encode_polar_box(box, RC)

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            box = random_polar_box(rng)
            dec = decode_box_encoding(encode_polar_box(box, RC), RC)
            orig = box.as_array()
            rel = np.abs(dec.as_array() - orig) / np.maximum(np.abs(orig), 1e-300)
            assert rel.max() < 1e-9

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        encs = rng.normal(0, 2, size=(50, 9))
        batch = decode_boxes(encs, RC)
        for row, dec in zip(encs, batch):
            np.testing.assert_allclose(dec, _decode_checked(row.tolist(), RC), rtol=1e-15, atol=0)

    def test_batch_encode_inverts_batch_decode(self):
        rng = np.random.default_rng(4)
        boxes = np.stack([random_polar_box(rng).as_array() for _ in range(100)])
        rec = decode_boxes(encode_boxes(boxes, RC), RC)
        rel = np.abs(rec - boxes) / np.maximum(np.abs(boxes), 1e-300)
        assert rel.max() < 1e-9


def near(edge, toward):
    """Floats 1 to 8 ulps from ``edge`` toward ``toward``."""
    def step(k):
        x = edge
        for _ in range(k):
            x = math.nextafter(x, toward)
        return x

    return st.integers(1, 8).map(step)


# Rows (r, z, l, w, h, azimuth, yaw) that reach the open ends of the range:
# r a few ulps below r_max and as small as subnormal, z a few ulps inside
# either bound, sizes over 600 orders of magnitude.
ROUNDTRIP_ROWS = st.lists(
    st.tuples(
        st.floats(0.0, RC.r_max, exclude_min=True, exclude_max=True) | near(RC.r_max, 0.0)
        | st.floats(0.0, 1e-300, exclude_min=True),
        st.floats(RC.z_min, RC.z_max, exclude_min=True, exclude_max=True) | near(RC.z_min, 0.0)
        | near(RC.z_max, 0.0),
        *[st.floats(1e-300, 1e300)] * 3,
        *[st.floats(-math.pi, math.pi)] * 2,
    ),
    min_size=1,
    max_size=4,
)
# The error bound is c * eps times a per-field scale, eps = 2**-52.  First-order
# budget, with numpy's float64 log and exp within 4 ulp (libm's within 1) and
# every other operation rounding once by at most eps / 2:
# - r, scale r_max: p = r / r_max, the sigmoid's division and the product with
#   r_max move r by eps / 2 each; 1 - p, p / (1 - p) and the sigmoid's 1 + e
#   by eps / 2 times p (1 - p) <= 1/4; the log's 4 ulp by 4 eps times
#   p (1 - p) |logit p| <= 0.23, the exp's by 4 eps times p (1 - p).  About
#   4.2 eps in all.
# - z, scale z_max - z_min: the same, plus the subtraction and the addition of
#   z_min; about 5 eps for |z| <= 5.
# - a size s, scale s (1 + |log s|): exp(log s) carries log's 4 ulp of log s as
#   a relative 4 eps |log s|, plus exp's own 4 ulp.
# - the angle pairs, scale 1: sin / hypot(sin, cos), a few eps / 2.
# c = 8 leaves a factor of about 2 for second-order terms; the worst seen on
# 200k random and edge rows is 0.64 eps * r_max.
ROUNDTRIP_C = 8


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(ROUNDTRIP_ROWS)
    def test_decode_inverts_encode_to_a_few_eps(self, rows):
        boxes = []
        for r, z, l, w, h, a, t in rows:
            box = [r, math.sin(a), math.cos(a), z, l, w, h, math.sin(t), math.cos(t)]
            try:
                encode_boxes(np.array([box]), RC)
            except RangeError:  # r / r_max or the scaled z rounded onto an end of (0, 1)
                continue
            boxes.append(box)
        assume(boxes)
        boxes = np.array(boxes)
        scale = np.ones_like(boxes)
        scale[:, 0] = RC.r_max
        scale[:, 3] = RC.z_max - RC.z_min
        scale[:, 4:7] = (1.0 + np.abs(np.log(boxes[:, 4:7]))) * boxes[:, 4:7]
        bound = ROUNDTRIP_C * np.finfo(np.float64).eps * scale
        encodings = encode_boxes(boxes, RC)
        scalar = [_decode_checked(row, RC) for row in encodings.tolist()]
        assert (np.abs(decode_boxes(encodings, RC) - boxes) <= bound).all()
        assert (np.abs(np.array(scalar) - boxes) <= bound).all()


def ulps(x, k):
    """``x`` moved by ``k`` ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# Edge-heavy floats: signed zeros, subnormals, the smallest normal, 1.5e-162
# (its cube underflows), +-max float, infinities and NaN.
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, sys.float_info.min, 1.5e-162, -1.5e-162, 1.0, -1.0,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
])
# Cosines whose pair with sine 0 is off the unit circle by the pair
# tolerance, to within two ulps, on either side of it.
TOLERANCE_EDGES = [ulps(math.sqrt(1.0 + sign * 1e-9), k) for sign in (1.0, -1.0) for k in range(-2, 3)]
PAIRS = st.one_of(
    st.floats(-math.pi, math.pi).map(lambda a: (math.sin(a), math.cos(a))),
    st.tuples(EDGE_FLOATS, EDGE_FLOATS),
    st.tuples(st.sampled_from(TOLERANCE_EDGES), st.sampled_from([0.0, -0.0])).flatmap(
        lambda pair: st.sampled_from([pair, pair[::-1]])
    ),
)
EDGE_BOX_ROWS = st.lists(
    st.builds(
        lambda r, a, z, sizes, t: [r, *a, z, *sizes, *t],
        st.floats(0.0, RC.r_max) | EDGE_FLOATS,
        PAIRS,
        st.floats(RC.z_min, RC.z_max) | EDGE_FLOATS,
        st.tuples(*[st.floats(1e-300, 1e300) | EDGE_FLOATS] * 3),
        PAIRS,
    ),
    min_size=1,
    max_size=4,
)
EDGE_ENCODING_ROWS = st.lists(
    st.lists(st.floats(-800.0, 800.0) | EDGE_FLOATS, min_size=9, max_size=9) | EDGE_BOX_ROWS.map(lambda r: r[0]),
    min_size=1,
    max_size=4,
)


def raised_by(compute):
    """The type and message of the ValueError ``compute`` raises, or None; a warning or any other error fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            compute()
        except ValueError as exc:
            return type(exc), str(exc)
    return None


class TestBatchRowsFailAsScalarRows:
    @settings(max_examples=400, deadline=None)
    @given(EDGE_BOX_ROWS)
    @example([[10.0, 5.0, 5.0, 0.0, -1.0, 1.0, 1.0, 0.0, 1.0]])
    @example([[math.nan, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]])
    @example([[60.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0], [10.0, 0.0, 1.0, 0.0, 1.0, -1.0, 1.0, 0.0, 1.0]])
    def test_encode_boxes_fails_and_encodes_as_encode_polar_box(self, rows):
        # the batch raises what PolarBox raises for its first failing row; else, if any
        # row is outside the range, the RangeError; else each row's encoding, bit for bit
        scalar = [raised_by(lambda: PolarBox(*row)) for row in rows]
        failed = [outcome for outcome in scalar if outcome is not None]
        if not failed:
            scalar = [raised_by(lambda: encode_polar_box(PolarBox(*row), RC)) for row in rows]
            failed = [outcome for outcome in scalar if outcome is not None]
        assert raised_by(lambda: encode_boxes(np.array(rows), RC)) == (failed[0] if failed else None)
        if not failed:
            batch = encode_boxes(np.array(rows), RC)
            for row, encoded in zip(rows, batch):
                assert encode_polar_box(PolarBox(*row), RC).as_array().tobytes() == encoded.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(EDGE_ENCODING_ROWS)
    def test_decode_boxes_fails_where_the_float_decode_fails(self, rows):
        scalar_fails = any(raised_by(lambda: _decode_checked(row, RC)) for row in rows)
        assert (raised_by(lambda: decode_boxes(np.array(rows), RC)) is not None) == scalar_fails


class TestPlanarDistances:
    def test_planar_distances_are_hypot(self):
        rng = np.random.default_rng(71)
        a = rng.normal(0, 10, size=(40, 2))
        b = rng.normal(0, 10, size=(31, 2))
        out = planar_distances(a, b)
        ref = [[math.hypot(p[0] - q[0], p[1] - q[1]) for q in b] for p in a]
        assert out.shape == (40, 31) and out.min() >= 0.0
        np.testing.assert_allclose(out, ref, rtol=1e-15, atol=0)

    def test_empty_sides(self):
        assert planar_distances(np.zeros((0, 2)), np.ones((3, 2))).shape == (0, 3)
        assert planar_distances(np.ones((2, 2)), np.zeros((0, 2))).shape == (2, 0)


class TestCartesianPolar:
    def test_three_four_five(self):
        box = CartesianBox(3.0, 4.0, 0.5, 4.0, 2.0, 1.5, 0.3)
        polar = cartesian_to_polar(box)
        assert polar.r == 5.0
        assert polar.sin_a == pytest.approx(0.8)
        assert polar.cos_a == pytest.approx(0.6)
        assert (polar.z, polar.l, polar.w, polar.h) == (0.5, 4.0, 2.0, 1.5)

    def test_on_axis(self):
        polar = cartesian_to_polar(CartesianBox(10.0, 0.0, 0.0, 1, 1, 1, 0.0))
        assert (polar.r, polar.sin_a, polar.cos_a) == (10.0, 0.0, 1.0)

    def test_origin_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            cartesian_to_polar(CartesianBox(0.0, 0.0, 0.0, 1, 1, 1, 0.0))

    def test_inverse_pair(self):
        polar = PolarBox(5.0, 0.8, 0.6, 0.0, 1, 1, 1, 0.0, 1.0)
        cart = polar_to_cartesian(polar)
        assert (cart.x, cart.y) == pytest.approx((3.0, 4.0))

    def test_center_singularity_maps_to_origin(self):
        polar = PolarBox(0.0, 1.0, 0.0, 0.0, 1, 1, 1, 0.0, 1.0)
        cart = polar_to_cartesian(polar)
        assert (cart.x, cart.y) == (0.0, 0.0)

    def test_roundtrip_thousand_boxes(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            box = CartesianBox(
                x=rng.uniform(-40, 40),
                y=rng.uniform(-40, 40),
                z=rng.uniform(-3, 3),
                l=rng.uniform(0.5, 6),
                w=rng.uniform(0.5, 3),
                h=rng.uniform(0.5, 3),
                yaw=wrap_angle(rng.uniform(-math.pi, math.pi)),
            )
            back = polar_to_cartesian(cartesian_to_polar(box))
            worst = max(
                worst,
                abs(back.x - box.x),
                abs(back.y - box.y),
                abs(back.z - box.z),
                abs(back.yaw - box.yaw),
            )
        assert worst < 1e-12

    @settings(max_examples=500, deadline=None)
    @given(
        st.tuples(planar_coordinates, planar_coordinates).filter(lambda xy: xy != (0.0, 0.0)),
        st.floats(-math.pi, math.pi, exclude_min=True) | st.sampled_from(EDGE_YAWS),
    )
    @example((1e-300, 0.0), math.pi)
    @example((-1e-300, 1e-300), math.nextafter(-math.pi, 0.0))
    @example((0.0, -1e-300), math.pi)
    def test_roundtrip_property(self, xy, yaw):
        box = CartesianBox(*xy, 0.5, 4.0, 2.0, 1.5, yaw)
        back = polar_to_cartesian(cartesian_to_polar(box))
        scale = max(1.0, math.hypot(*xy))
        assert abs(back.x - box.x) <= 1e-12 * scale
        assert abs(back.y - box.y) <= 1e-12 * scale
        assert abs(wrap_angle(back.yaw - box.yaw)) <= 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            box = CartesianBox(
                x=rng.uniform(-30, 30) or 1.0,
                y=rng.uniform(-30, 30),
                z=rng.uniform(-2, 2),
                l=1.0,
                w=1.0,
                h=1.0,
                yaw=0.0,
            )
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)
            rotated = CartesianBox(
                x=c * box.x - s * box.y, y=s * box.x + c * box.y,
                z=box.z, l=1.0, w=1.0, h=1.0, yaw=0.0,
            )
            p0 = cartesian_to_polar(box)
            p1 = cartesian_to_polar(rotated)
            assert p1.r == pytest.approx(p0.r, abs=1e-12)
            assert p1.z == p0.z
            # azimuth pair advances by phi
            assert p1.sin_a == pytest.approx(p0.sin_a * c + p0.cos_a * s, abs=1e-12)
            assert p1.cos_a == pytest.approx(p0.cos_a * c - p0.sin_a * s, abs=1e-12)


class TestVelocity:
    def test_frame_aligned(self):
        pv = velocity_cartesian_to_polar(CartesianVelocity(2.0, 1.0), 0.0, 1.0)
        assert (pv.v_rad, pv.v_tan) == (2.0, 1.0)

    def test_pure_tangential_at_left(self):
        pv = velocity_cartesian_to_polar(CartesianVelocity(2.0, 0.0), 1.0, 0.0)
        assert (pv.v_rad, pv.v_tan) == (0.0, -2.0)

    def test_rejects_nonunit_pair(self):
        with pytest.raises(ValueError):
            velocity_cartesian_to_polar(CartesianVelocity(1.0, 0.0), 0.5, 0.5)

    def test_norm_preserved_and_invertible(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a = rng.uniform(-math.pi, math.pi)
            sin_a, cos_a = math.sin(a), math.cos(a)
            v = CartesianVelocity(*rng.normal(0, 5, size=2))
            pv = velocity_cartesian_to_polar(v, sin_a, cos_a)
            assert abs(pv.norm() - v.norm()) < 1e-12
            back = velocity_polar_to_cartesian(pv, sin_a, cos_a)
            assert abs(back.v_x - v.v_x) < 1e-12
            assert abs(back.v_y - v.v_y) < 1e-12

    @settings(max_examples=500, deadline=None)
    @given(
        st.tuples(planar_coordinates, planar_coordinates),
        st.floats(-math.pi, math.pi) | st.sampled_from(EDGE_YAWS),
    )
    @example((1e-300, -1e-300), math.pi)
    @example((0.0, 1e-300), math.nextafter(-math.pi, 0.0))
    def test_roundtrip_property(self, v, azimuth):
        sin_a, cos_a = math.sin(azimuth), math.cos(azimuth)
        back = velocity_polar_to_cartesian(
            velocity_cartesian_to_polar(CartesianVelocity(*v), sin_a, cos_a), sin_a, cos_a
        )
        scale = max(1.0, math.hypot(*v))
        assert abs(back.v_x - v[0]) <= 1e-12 * scale
        assert abs(back.v_y - v[1]) <= 1e-12 * scale


class TestWrapAngle:
    def test_three_half_pi(self):
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_negative_pi_maps_to_pi(self):
        assert wrap_angle(-math.pi) == math.pi

    def test_identity_inside_range(self):
        assert wrap_angle(0.3) == 0.3

    def test_congruence_and_range(self):
        rng = np.random.default_rng(19)
        for a in rng.uniform(-50, 50, size=500):
            wrapped = wrap_angle(a)
            assert -math.pi < wrapped <= math.pi
            assert math.isclose(
                math.cos(wrapped), math.cos(a), abs_tol=1e-9
            ) and math.isclose(math.sin(wrapped), math.sin(a), abs_tol=1e-9)


class TestInvariantValidation:
    def test_polar_box_rejects_nonunit_pair(self):
        with pytest.raises(ValueError):
            PolarBox(1.0, 0.5, 0.5, 0.0, 1, 1, 1, 0.0, 1.0)

    def test_polar_box_rejects_negative_r(self):
        with pytest.raises(ValueError):
            PolarBox(-1.0, 0.0, 1.0, 0.0, 1, 1, 1, 0.0, 1.0)

    def test_cartesian_box_rejects_out_of_range_yaw(self):
        with pytest.raises(ValueError):
            CartesianBox(1.0, 0.0, 0.0, 1, 1, 1, 4.0)

    def test_range_config_validation(self):
        with pytest.raises(ValueError):
            RangeConfig(r_max=-1.0)
        with pytest.raises(ValueError):
            RangeConfig(z_min=1.0, z_max=0.0)
        with pytest.raises(ValueError, match="finite"):
            RangeConfig(z_min=-1e308, z_max=1e308)  # each bound is finite, their span is not
        with pytest.raises(ValueError, match="finite"):
            RangeConfig(z_min=-1e292, z_max=sys.float_info.max)  # past max by more than half an ulp
        with pytest.raises(ValueError):
            RangeConfig(k_scaling=0.5)

    @pytest.mark.parametrize("b_z", [-800.0, -40.0, -1.0, 0.0, 1.0, 36.0, 40.0, 800.0])
    def test_a_finite_z_span_at_the_edge_of_the_float_range_decodes_finite(self, b_z):
        rc = RangeConfig(z_min=-9.9e291, z_max=sys.float_info.max)
        assert rc.z_max - rc.z_min == sys.float_info.max  # the span rounds down onto max
        enc = [0.0, 0.0, 1.0, b_z, 0.0, 0.0, 0.0, 0.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode_boxes(np.array([enc]), rc)
        assert rc.z_min <= out[0, 3] <= rc.z_max
        assert rc.z_min <= _decode_checked(enc, rc)[3] <= rc.z_max


def per_frame_cells(a, a_counts, b, b_counts, reach):
    """``np.nonzero(planar_distances(a_f, b_f) <= reach)`` frame by frame, as sorted (row, col, distance bits) of
    the whole row sets."""
    cells = []
    a_lo, b_lo = np.cumsum([0, *a_counts]), np.cumsum([0, *b_counts])
    for f in range(len(a_counts)):
        dist = planar_distances(a[a_lo[f] : a_lo[f + 1]], b[b_lo[f] : b_lo[f + 1]])
        rows, cols = np.nonzero(dist <= reach)
        bits = dist[rows, cols].view(np.int64)
        cells += zip((rows + a_lo[f]).tolist(), (cols + b_lo[f]).tolist(), bits.tolist())
    return sorted(cells)


def searched_cells(a, a_counts, b, b_counts, reach):
    rows, cols, dist = gated_cells(a, a_counts, b, b_counts, reach)
    assert rows.tolist() == sorted(rows.tolist())  # by row of a
    return sorted(zip(rows.tolist(), cols.tolist(), dist.view(np.int64).tolist()))


#: Coordinates where distances tie, overflow, or sit within rounding of a reach.
EDGE_COORDINATES = [0.0, -0.0, 1.0, -1.0, 3.0, 4.0, -4e-16, 4e-16, -(1 + 2.0**-51), 5e-324, 1e17, 1e17 + 16,
                    1.7e308, -1.7e308]


def row_sets(draw, coordinate):
    counts = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4))
    a_counts, b_counts = [m for m, _ in counts], [n for _, n in counts]
    a, b = (np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=sum(c), max_size=sum(c))),
                     dtype=np.float64).reshape(-1, 2) for c in (a_counts, b_counts))
    return a, a_counts, b, b_counts


@st.composite
def frames_of_rows(draw):
    coordinate = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.sampled_from(EDGE_COORDINATES),
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=False, allow_infinity=False),
    ]))
    return row_sets(draw, coordinate)


class TestGatedCells:
    """``gated_cells`` finds, frame by frame, exactly the cells of ``planar_distances(a_f, b_f) <= reach``."""

    REACHES = [0.0, 0.5, 1.0, 2.0, 4.0, math.sqrt(2.0), math.hypot(1.0, 2.0), 5e-324, 1e308, math.inf, -1.0]

    @settings(max_examples=300, deadline=None)
    @given(frames_of_rows(), st.sampled_from(REACHES) | st.floats(0.0, 20.0))
    def test_cells_and_distance_bits_are_the_per_frame_matrix(self, rows, reach):
        assert searched_cells(*rows, reach) == per_frame_cells(*rows, reach)

    @pytest.mark.parametrize(
        "a, b, reach, distance",
        [
            ([4.0, 0.0], [0.0, 0.0], 4.0, 4.0),  # exactly at the reach
            ([3.0, 4.0], [0.0, 0.0], 5.0, 5.0),  # hypot exactly at the reach
            ([1.7e308, 0.0], [-1.7e308, 0.0], 1e308, None),  # dx overflows to inf: no cell
            ([1.7e308, 1.7e308], [-1.7e308, -1.7e308], math.inf, math.inf),  # inf <= inf
            # the window's lower bound x - reach rounds to 0, but dx = 4 + 4e-16 rounds to 4: a bound one
            # ulp below 0 would miss the cell
            ([4.0, 0.0], [-4e-16, 0.0], 4.0, 4.0),
            # x - reach is -1 exactly, and dx = 4 + 2**-51 ties to 4: two ulps below the bound
            ([3.0, 0.0], [-(1 + 2.0**-51), 0.0], 4.0, 4.0),
            ([1e17, 0.0], [1e17 + 16, 0.0], 16.0, 16.0),
            ([0.0, 0.0], [5e-324, 0.0], 5e-324, 5e-324),
        ],
    )
    def test_a_cell_at_the_edge_of_the_window(self, a, b, reach, distance):
        a, b = np.array([a]), np.array([b])
        cells = searched_cells(a, [1], b, [1], reach)
        assert cells == per_frame_cells(a, [1], b, [1], reach)
        assert [d for *_, d in cells] == ([] if distance is None else [np.float64(distance).view(np.int64)])

    def test_rows_of_other_frames_are_never_cells(self):
        a = np.zeros((2, 2))
        rows, cols, dist = gated_cells(a, [1, 1, 0], a, [0, 1, 1], 1.0)
        assert (rows.tolist(), cols.tolist(), dist.tolist()) == ([1], [0], [0.0])

    def test_counts_must_add_up_to_the_rows(self):
        with pytest.raises(ValueError, match="row counts"):
            gated_cells(np.zeros((2, 2)), [1], np.zeros((1, 2)), [1], 1.0)

    def test_no_rows_and_no_frames(self):
        for a_counts, b_counts in (([], []), ([0, 0], [0, 0])):
            rows, cols, dist = gated_cells(np.zeros((0, 2)), a_counts, np.zeros((0, 2)), b_counts, 2.0)
            assert len(rows) == len(cols) == len(dist) == 0

    def test_hypot_bits_do_not_depend_on_array_length_or_chunking(self):
        # the search measures the rows of many frames in one np.hypot call
        rng = np.random.default_rng(11)
        dx, dy = rng.uniform(-50.0, 50.0, size=(2, 200_000))
        whole = np.hypot(dx, dy).view(np.int64)
        chunked = np.concatenate([np.hypot(dx[i : i + 7], dy[i : i + 7]) for i in range(0, len(dx), 7)])
        single = np.array([np.hypot(x, y) for x, y in zip(dx[:2000], dy[:2000])])
        assert np.array_equal(whole, chunked.view(np.int64))
        assert np.array_equal(whole[:2000], single.view(np.int64))
        # and the matrix of planar_distances is the same elementwise call
        assert np.array_equal(planar_distances(np.column_stack([dx[:300], dy[:300]]), np.zeros((1, 2)))[:, 0],
                              np.hypot(dx[:300], dy[:300]))
