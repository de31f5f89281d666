"""``render_detections`` on columns against the object-by-object render of ``tests/_frame_loops.py``.

The rows render keeps only the random draws per object; the noise, the polar formulas and the checks run once
over all kept rows.  Every generated case must give the reference's columns bit for bit (``tobytes``) or its
ValueError text, whose first failing row and first failing check within that row the rows render must find.
The draw-stream tests pin the cheaper draws the rows render makes to the draws the reference makes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _frame_loops import object_loop_render, object_noisy_row
from polarview.camera import Rig, make_symmetric_rig
from polarview.geometry import RangeConfig, wrap_angle, wrap_angles
from polarview.simulator import NoiseModel, Scene, _noisy_rows, render_detections

RIG: Rig = make_symmetric_rig(6)
STDS = ("radial_std", "tangential_std", "z_std", "size_rel_std", "yaw_std", "velocity_std")
STD_VALUES = (0.0, 0.3, 1e200, 1e308)


def scene_of(counts, seed, origin_rows=()):
    """A scene of ``len(counts)`` frames with ``counts[f]`` objects in frame f, drawn from ``seed``; the rows
    numbered in ``origin_rows`` (over all frames) sit on the ego z axis."""
    rng = np.random.default_rng(seed)
    n = sum(counts)
    boxes = np.column_stack([
        rng.normal(0.0, 20.0, (n, 3)), rng.uniform(0.5, 5.0, (n, 3)), rng.uniform(-math.pi, math.pi, n),
    ])
    boxes[list(origin_rows), :2] = 0.0
    f = len(counts)
    return Scene.from_arrays(
        RIG, np.arange(f) * 0.5, counts, np.broadcast_to(np.eye(3), (f, 3, 3)), np.zeros((f, 3)),
        np.concatenate([np.arange(c) for c in counts] + [np.zeros(0, dtype=np.int64)]).astype(np.int64),
        rng.integers(0, 4, n), boxes, rng.normal(0.0, 5.0, (n, 2)),
    )


def outcome(render, scene, noise, range_config=RangeConfig()):
    """Every column's dtype, shape and bytes, or the ValueError's text."""
    try:
        dets = render(scene, noise, range_config)
    except ValueError as error:
        return "ValueError", str(error)
    columns = ("times", "counts", "boxes", "probs", "velocities", "scores")
    return [(name, str(a.dtype), a.shape, a.tobytes()) for name, a in ((c, getattr(dets, c)) for c in columns)]


def assert_same(scene, noise, range_config=RangeConfig()):
    expected = outcome(object_loop_render, scene, noise, range_config)
    assert outcome(render_detections, scene, noise, range_config) == expected
    return expected


@st.composite
def cases(draw):
    counts = draw(st.lists(st.integers(0, 5), max_size=4))
    n = sum(counts)
    origin = draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else set()
    noise = NoiseModel(
        **{name: draw(st.sampled_from(STD_VALUES)) for name in STDS},
        drop_prob=draw(st.sampled_from([0.0, 0.1, 1.0])),
        false_positive_rate=draw(st.sampled_from([0.0, 3.0])),
        seed=draw(st.integers(0, 2**32)),
        mode=draw(st.sampled_from(["polar", "cartesian"])),
    )
    return scene_of(counts, draw(st.integers(0, 2**32)), sorted(origin)), noise


class TestRowsRenderMatchesObjectLoop:
    @settings(max_examples=500, deadline=None)
    @given(cases())
    def test_same_columns_or_same_error(self, case):
        assert_same(*case)

    @pytest.mark.parametrize("mode", ["polar", "cartesian"])
    @pytest.mark.parametrize("std", STD_VALUES)
    @pytest.mark.parametrize("name", STDS)
    def test_each_std_alone(self, mode, name, std):
        noise = NoiseModel(**{name: std}, drop_prob=0.1, false_positive_rate=3.0, seed=11, mode=mode)
        assert_same(scene_of([6, 0, 4, 5], seed=3), noise)

    @pytest.mark.parametrize("mode", ["polar", "cartesian"])
    def test_every_std_at_once(self, mode):
        noise = NoiseModel(**{name: 0.3 for name in STDS}, drop_prob=0.1, false_positive_rate=3.0, seed=5,
                           mode=mode)
        columns = assert_same(scene_of([40, 0, 35, 38], seed=4), noise)
        assert columns[0][0] == "times"  # a render, not an error

    @pytest.mark.parametrize("counts", [[], [0], [0, 0, 0]])
    @pytest.mark.parametrize("rate", [0.0, 3.0])
    def test_no_objects(self, counts, rate):
        assert_same(scene_of(counts, seed=1), NoiseModel(radial_std=0.3, false_positive_rate=rate, seed=2))

    def test_every_object_dropped(self):
        noise = NoiseModel(radial_std=0.3, size_rel_std=1e200, drop_prob=1.0, false_positive_rate=3.0, seed=2)
        assert_same(scene_of([3, 4], seed=1, origin_rows=[2]), noise)

    @pytest.mark.parametrize("mode", ["polar", "cartesian"])
    def test_origin_before_an_overflowing_row(self, mode):
        # exp(draw * 1e200) overflows or underflows for every row: each row off the z axis fails on its size
        noise = NoiseModel(size_rel_std=1e200, seed=9, mode=mode)
        assert assert_same(scene_of([2, 2], seed=6, origin_rows=[0]), noise) == (
            "ValueError", "cartesian_to_polar: degenerate azimuth at (x, y) = (0, 0)")

    @pytest.mark.parametrize("mode", ["polar", "cartesian"])
    def test_origin_after_an_overflowing_row(self, mode):
        noise = NoiseModel(size_rel_std=1e200, seed=9, mode=mode)
        assert assert_same(scene_of([2, 2], seed=6, origin_rows=[1]), noise) == (
            "ValueError", "NoiseModel: size_rel_std is too large to render: a noisy value leaves the float range")


# the draw that moves each check's value out of the float range when its std is 1e300
CHECK_DRAWS = {"tangential_std": 1, "radial_std": 0, "yaw_std": 6, "l": 3, "w": 4, "h": 5, "z_std": 2, "v_rad": 7,
               "v_tan": 8}


@st.composite
def crafted_rows(draw):
    """Rows each failing a chosen set of checks: at the origin, or with a +-1e10 draw at a 1e300 std."""
    rows = draw(st.lists(st.sets(st.sampled_from(["origin", *CHECK_DRAWS])), min_size=1, max_size=4))
    boxes = np.tile([3.0, -4.0, 0.5, 4.0, 2.0, 1.5, 0.3], (len(rows), 1))
    draws = np.zeros((len(rows), 9))
    for i, checks in enumerate(rows):
        boxes[i, :2] *= 0.0 if "origin" in checks else 1.0
        for check in checks - {"origin"}:
            draws[i, CHECK_DRAWS[check]] = draw(st.sampled_from([1e10, -1e10]))
    return boxes, draws


class TestCheckOrder:
    """``_noisy_rows`` against ``object_noisy_row`` on rows that fail chosen checks, several in one row."""

    @pytest.mark.parametrize("mode", ["polar", "cartesian"])
    @settings(max_examples=300, deadline=None)
    @given(crafted_rows())
    def test_first_failing_row_and_check(self, mode, case):
        boxes, draws = case
        velocities = np.tile([2.0, -1.0], (len(boxes), 1))
        noise = NoiseModel(**{name: 1e300 for name in STDS}, mode=mode)
        try:
            rows = [object_noisy_row(*row, noise) for row in zip(boxes.tolist(), velocities.tolist(), draws.tolist())]
            expected = np.reshape([b for b, _ in rows], (-1, 9)).tobytes(), np.reshape([v for _, v in rows], (-1, 2))
            expected = expected[0], expected[1].tobytes()
        except ValueError as error:
            expected = str(error)
        try:
            got = tuple(a.tobytes() for a in _noisy_rows(boxes, velocities, draws, noise))
        except ValueError as error:
            got = str(error)
        assert got == expected


def draw_as_render(rng, counts):
    """Per frame, ``count`` pairs of one uniform and nine normals, then a Poisson and a uniform, as render
    draws them, each pair drawn both ways on copies of ``rng``'s state: (cheap, reference) values."""
    pairs = []
    for count in counts:
        for _ in range(count):
            state = rng.bit_generator.state
            cheap = (rng.random(), rng.standard_normal(9) + 0.0)
            after = rng.bit_generator.state
            rng.bit_generator.state = state
            pairs.append((cheap, (rng.uniform(), rng.normal(0.0, 1.0, size=9))))
            assert rng.bit_generator.state == after  # both consume the same stream
        rng.poisson(3.0), rng.uniform(0.1, 0.9)
    return pairs


class TestDrawStream:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**32 - 1])
    def test_random_is_uniform_and_standard_normal_is_normal(self, seed):
        for (u, z), (u_ref, z_ref) in draw_as_render(np.random.default_rng(seed), [50, 0, 30]):
            assert np.float64(u).tobytes() == np.float64(u_ref).tobytes()
            assert z.tobytes() == z_ref.tobytes()

    def test_standard_normal_into_a_row_is_the_same_draw(self):
        rows = np.empty((200, 9))
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for row in rows:
            a.random(), a.standard_normal(out=row)
        expected = np.array([(b.uniform(), b.normal(0.0, 1.0, size=9))[1] for _ in range(200)])
        assert (rows + 0.0).tobytes() == expected.tobytes()


ANGLES = st.floats(allow_nan=False, allow_infinity=False)


class TestWrapAngles:
    SPECIAL = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 5 * math.pi, -7 * math.pi, 1001 * math.pi, 0.0, -0.0,
               1e300, -1e300, 2 * math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
               math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0), 5e-324, 1.7976931348623157e308]

    @staticmethod
    def assert_scalar_bits(values):
        got = wrap_angles(np.array(values, dtype=np.float64))
        assert got.tobytes() == np.array([wrap_angle(a) for a in values], dtype=np.float64).tobytes()

    def test_special_angles(self):
        self.assert_scalar_bits(self.SPECIAL)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ANGLES, max_size=20))
    @example([math.pi, -math.pi, -0.0, 1e300])
    def test_generated_angles(self, values):
        self.assert_scalar_bits(values)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="wrap_angle: non-finite angle"):
            wrap_angles(np.array([0.5, bad]))
