import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarview import assignment
from polarview.assignment import (
    Assignment,
    CircularRange,
    RectangularRange,
    box_cost,
    brute_force_assign,
    build_cost_matrix,
    class_cost,
    filter_perception_range,
    greedy_claim,
    hungarian,
    range_ambiguity_fixture,
    scaling_ambiguity_fixture,
)
from polarview.geometry import CartesianBox, PolarBox


def polar(r, azimuth):
    return PolarBox(
        r=r, sin_a=math.sin(azimuth), cos_a=math.cos(azimuth),
        z=0.0, l=4.0, w=2.0, h=1.5, sin_t=0.0, cos_t=1.0,
    )


def random_box(rng):
    return polar(rng.uniform(1, 49), rng.uniform(-math.pi, math.pi)).as_array()


class TestBoxCost:
    def test_identical_boxes_cost_zero(self):
        b = polar(10.0, 0.3).as_array()
        assert box_cost(b, b, 20.0) == 0.0

    def test_hand_evaluation(self):
        # pred r=10 at azimuth 0; gt r=12 with sin=0.1 (cos = sqrt(0.99))
        pred = polar(10.0, 0.0).as_array()
        gt = PolarBox(
            r=12.0, sin_a=0.1, cos_a=math.sqrt(0.99),
            z=0.0, l=4.0, w=2.0, h=1.5, sin_t=0.0, cos_t=1.0,
        ).as_array()
        expected = 2.0 + 20.0 * (0.1 + (1.0 - math.sqrt(0.99)))
        assert box_cost(pred, gt, 20.0) == pytest.approx(expected, abs=1e-12)
        assert box_cost(pred, gt, 20.0) == pytest.approx(4.100, abs=1e-3)

    def test_linear_in_k_scaling(self):
        pred = polar(10.0, 0.0)
        gt = polar(12.0, 0.2)
        azimuth_l1 = abs(pred.sin_a - gt.sin_a) + abs(pred.cos_a - gt.cos_a)
        c1 = box_cost(pred.as_array(), gt.as_array(), 1.0)
        c20 = box_cost(pred.as_array(), gt.as_array(), 20.0)
        assert c20 - c1 == pytest.approx(19.0 * azimuth_l1, abs=1e-12)
        assert c1 - azimuth_l1 == pytest.approx(2.0)  # radial term unchanged

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(31)
        boxes = [random_box(rng) for _ in range(20)]
        for a in boxes:
            assert box_cost(a, a, 20.0) == 0.0
        for a in boxes[:8]:
            for b in boxes[8:16]:
                assert box_cost(a, b, 20.0) == pytest.approx(box_cost(b, a, 20.0))
                for c in boxes[16:]:
                    assert box_cost(a, c, 20.0) <= box_cost(a, b, 20.0) + box_cost(b, c, 20.0) + 1e-12

    def test_broadcast_matrix_equals_pair_loop(self):
        rng = np.random.default_rng(37)
        preds = np.stack([random_box(rng) for _ in range(7)])
        gts = np.stack([random_box(rng) for _ in range(4)])
        matrix = box_cost(preds, gts[:, None], 20.0)
        assert matrix.shape == (4, 7)
        for j, gt in enumerate(gts):
            for i, pred in enumerate(preds):
                one = box_cost(pred, gt, 20.0)
                assert np.shape(one) == ()
                assert matrix[j, i] == one


class TestClassCost:
    def test_perfect_confidence(self):
        assert class_cost(np.array([1.0, 0.0]), 0) == -1.0

    def test_zero_confidence(self):
        assert class_cost(np.array([0.0, 1.0]), 0) == 0.0

    def test_uniform_ten_classes(self):
        assert class_cost(np.full(10, 0.1), 3) == pytest.approx(-0.1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            class_cost(np.array([1.5, 0.0]), 0)

    @pytest.mark.parametrize("gt_class", [-1, 3])
    def test_rejects_class_outside_probs(self, gt_class):
        with pytest.raises(ValueError):
            class_cost(np.array([0.2, 0.3, 0.5]), gt_class)

    @pytest.mark.parametrize("gt_class", [1.0, 1.5, True, "1"])
    def test_rejects_non_integer_class(self, gt_class):
        with pytest.raises(ValueError):
            class_cost(np.array([0.2, 0.3, 0.5]), gt_class)

    def test_rejects_scalar_probs(self):
        with pytest.raises(ValueError):
            class_cost(0.5, 0)

    @pytest.mark.parametrize("form", ["negative_prob", "focal"])
    def test_broadcast_matrix_equals_pair_loop(self, form):
        rng = np.random.default_rng(38)
        probs = rng.dirichlet(np.ones(5), size=6)
        labels = rng.integers(0, 5, size=3)
        matrix = class_cost(probs, labels[:, None], form=form)
        assert matrix.shape == (3, 6)
        for j, label in enumerate(labels.tolist()):
            for i, p in enumerate(probs):
                one = class_cost(p, label, form=form)
                assert np.shape(one) == ()
                assert matrix[j, i] == one

    def test_focal_form_prefers_confident_correct(self):
        confident = class_cost(np.array([0.9, 0.1]), 0, form="focal")
        unsure = class_cost(np.array([0.2, 0.8]), 0, form="focal")
        assert confident < unsure


def focal(p):
    """``class_cost(form="focal")`` at probability ``p`` of the ground-truth class."""
    return float(class_cost(np.array([p, 1.0 - p]), 0, form="focal"))


class TestFocalClassCost:
    # by hand at gamma = 2, alpha = 0.25: alpha (1-p)^gamma (-ln(p + 1e-8)) - (1-alpha) p^gamma (-ln(1 - p + 1e-8))
    def test_half_probability(self):
        # (0.25 - 0.75) * 0.5^2 * -ln(0.5 + 1e-8) = 0.125 ln(0.50000001)
        assert focal(0.5) == pytest.approx(0.125 * math.log(0.5 + 1e-8), rel=1e-12)
        assert focal(0.5) == pytest.approx(-0.0866434, abs=1e-7)

    def test_negative_weight(self):
        p = 0.3
        expected = 0.25 * (1 - p) ** 2 * -math.log(p + 1e-8) - 0.75 * p**2 * -math.log(1 - p + 1e-8)
        assert focal(p) == pytest.approx(expected, rel=1e-12)

    def test_certain_probabilities_stay_finite(self):
        # the 1e-8 inside each log: 0.25 * 8 ln 10 at p = 0, -0.75 * 8 ln 10 at p = 1
        assert focal(0.0) == pytest.approx(2.0 * math.log(10.0), rel=1e-12)
        assert focal(1.0) == pytest.approx(-6.0 * math.log(10.0), rel=1e-12)


PROBABILITIES = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-8, 1.0 - 2.0**-53, 5e-324]) | st.floats(0.0, 1.0)


@st.composite
def repeating_probs(draw):
    """(N, C) probabilities from a pool of at most four values, so that values repeat within and across rows."""
    pool = draw(st.lists(PROBABILITIES, min_size=1, max_size=4))
    n, c = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n * c, max_size=n * c))).reshape(n, c)


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


class TestFocalOncePerDistinctProbability:
    """``_focal`` runs once per distinct probability, and every cell keeps the bits of a per-cell call."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(repeating_probs(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8, unique=True).map(
        lambda p: np.array(p)[None])))
    @example(np.array([[0.0, -0.0, 1.0], [-0.0, 1.0, 0.0]]))
    @example(np.array([[-0.0, 0.25]]))
    def test_equals_a_per_cell_focal_table(self, probs):
        classes = np.arange(probs.shape[1])[:, None]  # every (class, prediction) cell
        expected = [[assignment._focal(p) for p in row] for row in probs.T.tolist()]
        assert bits(class_cost(probs, classes, form="focal")) == bits(np.reshape(expected, (len(classes), len(probs))))

    @settings(max_examples=100, deadline=None)
    @given(repeating_probs())
    def test_focal_runs_once_per_distinct_value(self, probs):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assignment, "_focal", lambda p: calls.append(p) or 0.0)
            class_cost(probs, np.zeros((3, 1), dtype=int), form="focal")
        assert len(calls) == len(set(calls)) == len(set(probs.ravel().tolist()))

    @pytest.mark.parametrize("probs, gt_class, form, message", [
        (np.array([[math.nan, 0.5]]), 5, "nope", "unknown form 'nope'"),
        (np.array([[math.nan, 0.5]]), 5, "focal", "probabilities must lie in [0, 1]"),
        (np.array([[1.5, 0.5]]), 5, "focal", "probabilities must lie in [0, 1]"),
        (np.array([[-1e-300, 0.5]]), 0, "focal", "probabilities must lie in [0, 1]"),
        (np.array([[0.5, 0.5]]), 2, "focal", "class ids must be integers in [0, 2)"),
        (np.array([[0.5, 0.5]]), 0.0, "focal", "class ids must be integers in [0, 2)"),
    ])
    def test_refusals_keep_their_message_and_order(self, monkeypatch, probs, gt_class, form, message):
        monkeypatch.setattr(assignment, "_focal", lambda p: pytest.fail("_focal ran on refused input"))
        with pytest.raises(ValueError) as info:
            class_cost(probs, gt_class, form=form)
        assert str(info.value) == "class_cost: " + message


class TestPerceptionRange:
    def test_corner_case_circular_drops_rectangular_keeps(self):
        box = CartesianBox(40.0, 40.0, 0.0, 1, 1, 1, 0.0)
        kept_c, dropped_c = filter_perception_range([box], CircularRange(50.0))
        kept_r, dropped_r = filter_perception_range([box], RectangularRange(50.0, 50.0))
        assert dropped_c == [box]  # r ~ 56.6 > 50
        assert kept_r == [box]

    def test_origin_kept_by_both(self):
        box = CartesianBox(0.0, 0.0, 0.0, 1, 1, 1, 0.0)
        assert filter_perception_range([box], CircularRange(50.0))[0] == [box]
        assert filter_perception_range([box], RectangularRange(50.0, 50.0))[0] == [box]

    def test_circular_boundary_inclusive_rectangular_strict(self):
        on_circle = CartesianBox(50.0, 0.0, 0.0, 1, 1, 1, 0.0)
        assert filter_perception_range([on_circle], CircularRange(50.0))[0] == [on_circle]
        on_edge = CartesianBox(50.0, 0.0, 0.0, 1, 1, 1, 0.0)
        assert filter_perception_range([on_edge], RectangularRange(50.0, 50.0))[1] == [on_edge]

    def test_equal_radius_ambiguity_fixture(self):
        objects, circular, rectangular = range_ambiguity_fixture()
        radii = [math.hypot(b.x, b.y) for b in objects]
        assert radii[0] == pytest.approx(radii[1], abs=1e-9)  # equal radial distance
        kept_c, dropped_c = filter_perception_range(objects, circular)
        kept_r, dropped_r = filter_perception_range(objects, rectangular)
        assert len(kept_c) == 2 and not dropped_c  # circular keeps both
        assert len(kept_r) == 1 and len(dropped_r) == 1  # rectangle splits the pair
        assert dropped_r[0] is objects[0]  # the axial object falls outside |x| < 35


def on_and_beside(values):
    """Each value with its neighbouring doubles on either side."""
    return [w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


class TestRangeOnArrays:
    """``contains`` on arrays gives, point for point, what it gives on floats."""

    R_MAX = 50.0

    def reference_circle(self, x, y):
        return np.array([math.hypot(u, v) <= self.R_MAX for u, v in zip(x.tolist(), y.tolist())], dtype=bool)

    def circle_points(self):
        rng = np.random.default_rng(31)
        theta = rng.uniform(-math.pi, math.pi, 20000)
        # on the circle as rounding lands them and a ulp either side, Pythagorean triples, and the axes
        x = [*on_and_beside((self.R_MAX * np.cos(theta)).tolist()), 30.0, 40.0, 0.0, -50.0, *on_and_beside([50.0])]
        y = [*on_and_beside((self.R_MAX * np.sin(theta)).tolist()), 40.0, 30.0, -50.0, 0.0, 0.0, 0.0, 0.0]
        return np.array(x), np.array(y)

    def test_circle_on_the_edge_and_one_ulp_either_side(self):
        region = CircularRange(self.R_MAX)
        x, y = self.circle_points()
        expected = self.reference_circle(x, y)
        # plain np.hypot decides some of these points the other way
        assert not np.array_equal(np.hypot(x, y) <= self.R_MAX, expected)
        assert region.contains(x, y).dtype == bool
        assert np.array_equal(region.contains(x, y), expected)
        assert [bool(region.contains(u, v)) for u, v in zip(x.tolist(), y.tolist())] == expected.tolist()

    def test_rectangle_on_the_edges_and_one_ulp_either_side(self):
        region = RectangularRange(35.0, 50.0)
        xs = on_and_beside([-35.0, 0.0, 35.0])
        ys = on_and_beside([-50.0, 0.0, 50.0])
        x, y = (np.array(a, dtype=float).ravel() for a in np.meshgrid(xs, ys))
        expected = [abs(u) < 35.0 and abs(v) < 50.0 for u, v in zip(x.tolist(), y.tolist())]
        assert region.contains(x, y).tolist() == expected
        assert [bool(region.contains(u, v)) for u, v in zip(x.tolist(), y.tolist())] == expected
        assert sum(expected) == 5 * 5  # one ulp inside each edge, and the three values at 0

    @pytest.mark.parametrize("region", [CircularRange(50.0), RectangularRange(35.0, 50.0)])
    def test_non_finite_points_and_overflowing_distances_are_outside(self, region):
        x = np.array([math.nan, math.inf, -math.inf, 1.0, 1.0, 1.7e308])
        y = np.array([1.0, 1.0, 1.0, math.nan, math.inf, 1.7e308])  # the last distance overflows
        assert not region.contains(x, y).any()
        assert not any(region.contains(u, v) for u, v in zip(x.tolist(), y.tolist()))


class TestCostMatrix:
    def test_single_perfect_pair(self):
        box = polar(10.0, 0.2)
        costs = build_cost_matrix((box.as_array()[None], np.array([[1.0]])), (box.as_array()[None], np.array([0])), 20.0)
        assert costs.shape == (1, 1)
        assert costs[0, 0] == -1.0

    def test_empty_gts_give_empty_matrix(self):
        box = polar(10.0, 0.2)
        costs = build_cost_matrix((box.as_array()[None], np.array([[1.0]])), (np.empty((0, 9)), np.array([], dtype=int)), 20.0)
        assert costs.shape == (0, 1)
        assert len(hungarian(costs)) == 0

    def test_entries_match_independent_recomputation(self):
        rng = np.random.default_rng(33)
        preds = [(PolarBox.from_array(random_box(rng)), rng.dirichlet(np.ones(4))) for _ in range(5)]
        gts = [(PolarBox.from_array(random_box(rng)), int(rng.integers(0, 4))) for _ in range(3)]
        for form in ("negative_prob", "focal"):
            costs = build_cost_matrix(
                (np.array([b.as_array() for b, _ in preds]), np.array([p for _, p in preds])),
                (np.array([g.as_array() for g, _ in gts]), np.array([label for _, label in gts])),
                20.0,
                class_cost_form=form,
            )
            assert costs.shape == (3, 5)
            for j, (g, label) in enumerate(gts):
                for i, (b, probs) in enumerate(preds):
                    p = float(probs[label])
                    cls = -p
                    if form == "focal":
                        cls = 0.25 * (1 - p) ** 2 * -math.log(p + 1e-8) - 0.75 * p**2 * -math.log(
                            1 - p + 1e-8
                        )
                    box = abs(b.r - g.r) + 20.0 * (abs(b.sin_a - g.sin_a) + abs(b.cos_a - g.cos_a))
                    assert costs[j, i] == pytest.approx(cls + box, rel=1e-14)


def strided_box_cost(pred, gt, k_scaling):
    """``box_cost`` as it was written before the plane-wise form: one (..., 3) difference, read strided."""
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    d = np.abs(pred[..., :3] - gt[..., :3])
    with np.errstate(over="ignore"):
        return (d[..., 0] + k_scaling * (d[..., 1] + d[..., 2]))[()]


#: Box values from [-1e307, 1e307], so that no difference overflows; 1e308 scales a sum of two to inf.
BOX_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e307, -1e307]) | st.floats(-1e307, 1e307)
K_SCALINGS = st.sampled_from([1.0, 20.0, 1e300, 1e308]) | st.floats(1.0, 1e308)


def arrays(draw, values, shape):
    return np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)


def drawn_boxes(draw, shape):
    """(..., 9) boxes with drawn r, sin_a and cos_a; the six fields the box term does not read are 0."""
    return np.concatenate([arrays(draw, BOX_VALUES, (*shape, 3)), np.zeros((*shape, 6))], axis=-1)


@st.composite
def stacked_frames(draw):
    """G frames of one shape: (G, N, 9) boxes and (G, N, C) probabilities, (G, M, 9) boxes and (G, M) classes."""
    g, m, n = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    c = draw(st.integers(0 if m * n == 0 else 1, 4))  # no class: only with no cell
    pool = draw(st.lists(PROBABILITIES, min_size=1, max_size=4))
    classes = np.array(draw(st.lists(st.integers(0, max(c - 1, 0)), min_size=g * m, max_size=g * m)), dtype=np.int64)
    probs = arrays(draw, st.sampled_from(pool), (g, n, c))
    return (drawn_boxes(draw, (g, n)), probs), (drawn_boxes(draw, (g, m)), classes.reshape(g, m))


class TestStackedCostMatrix:
    """Leading axes stack frames of one shape: each matrix has the bits of its own one-frame call."""

    @settings(max_examples=200, deadline=None)
    @given(stacked_frames(), K_SCALINGS, st.sampled_from(assignment.CLASS_COST_FORMS))
    @example(((np.zeros((2, 0, 9)), np.zeros((2, 0, 0))), (np.zeros((2, 3, 9)), np.zeros((2, 3), dtype=np.int64))),
             20.0, "focal")
    @example(((np.zeros((3, 2, 9)), np.zeros((3, 2, 0))), (np.zeros((3, 0, 9)), np.zeros((3, 0), dtype=np.int64))),
             20.0, "negative_prob")
    @example(((np.full((2, 1, 9), -0.0), np.full((2, 1, 2), -0.0)),
              (np.array([[[1.0] * 9], [[-1.0] * 9]]), np.array([[1], [0]]))), 1e308, "focal")
    def test_equals_one_call_per_frame(self, frames, k_scaling, form):
        (boxes, probs), (gt_boxes, classes) = frames
        stacked = build_cost_matrix((boxes, probs), (gt_boxes, classes), k_scaling, class_cost_form=form)
        assert stacked.dtype == np.float64 and stacked.shape == (len(boxes), gt_boxes.shape[1], boxes.shape[1])
        for g in range(len(boxes)):
            one = build_cost_matrix((boxes[g], probs[g]), (gt_boxes[g], classes[g]), k_scaling, class_cost_form=form)
            assert (one.dtype, one.shape) == (stacked[g].dtype, stacked[g].shape)
            assert one.tobytes() == stacked[g].tobytes()

    @pytest.mark.parametrize("n", [0, 1])
    def test_leading_axes_broadcast_with_or_without_cells(self, n):
        costs = build_cost_matrix((np.zeros((2, n, 9)), np.ones((2, n, 1))), (np.zeros((3, 9)), np.zeros(3, dtype=int)),
                                  20.0)
        assert costs.shape == (2, 3, n)

    def test_a_huge_scaling_gives_inf_in_its_frame_only(self):
        near, far = polar(10.0, 0.0).as_array(), polar(10.0, math.pi).as_array()
        costs = build_cost_matrix((np.array([[near], [far]]), np.ones((2, 1, 1))),
                                  (np.array([[near], [near]]), np.zeros((2, 1), dtype=int)), 1e308)
        assert costs.tolist() == [[[-1.0]], [[math.inf]]]

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(st.integers(1, 3), max_size=3), K_SCALINGS)
    def test_planes_give_the_strided_form_bits(self, data, lead, k_scaling):
        pred = arrays(data.draw, BOX_VALUES, (*lead, data.draw(st.integers(3, 4))))
        gt = arrays(data.draw, BOX_VALUES, (*[data.draw(st.sampled_from([1, d])) for d in lead], pred.shape[-1]))
        got, expected = box_cost(pred, gt, k_scaling), strided_box_cost(pred, gt, k_scaling)
        assert (np.shape(got), np.asarray(got).dtype) == (np.shape(expected), np.asarray(expected).dtype)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestHungarian:
    def test_two_by_two(self):
        costs = np.array([[1.0, 2.0], [3.0, 1.0]])
        result = hungarian(costs)
        assert set(result.pairs) == {(0, 0), (1, 1)}
        assert result.total_cost(costs) == 2.0

    def test_diagonal_dominant_prefers_identity(self):
        costs = np.full((4, 4), 10.0) - 9.0 * np.eye(4)
        assert set(hungarian(costs).pairs) == {(i, i) for i in range(4)}

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, math.inf], [0.0, 1.0]]))

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(35)
        for _ in range(500):
            m, n = rng.integers(1, 6, size=2)
            costs = rng.uniform(-5, 5, size=(m, n))
            h = hungarian(costs)
            b = brute_force_assign(costs)
            assert len(h) == min(m, n)
            assert h.total_cost(costs) == b.total_cost(costs)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 7), st.booleans(), st.data())
    def test_matches_brute_force_on_tie_heavy_matrices(self, m, n, tenths, data):
        # costs in {0, 1, 2}, or uniform values rounded to 0.1, so many
        # assignments tie; totals are compared exactly in integer ticks
        cell = st.floats(0.0, 1.0).map(lambda u: round(u * 10)) if tenths else st.integers(0, 2)
        ticks = np.array(data.draw(st.lists(cell, min_size=m * n, max_size=m * n)), dtype=np.int64).reshape(m, n)
        costs = ticks / 10.0 if tenths else ticks.astype(np.float64)
        h, b = hungarian(costs), brute_force_assign(costs)
        assert len(h) == min(m, n)
        rows, cols = [j for j, _ in h.pairs], [i for _, i in h.pairs]
        assert len(set(rows)) == len(rows) and all(0 <= j < m for j in rows)
        assert len(set(cols)) == len(cols) and all(0 <= i < n for i in cols)
        assert sum(ticks[j, i] for j, i in h.pairs) == sum(ticks[j, i] for j, i in b.pairs)

    def test_rectangular_sizes(self):
        rng = np.random.default_rng(36)
        for m, n in [(2, 7), (7, 2), (1, 9), (5, 3)]:
            costs = rng.uniform(0, 10, size=(m, n))
            h = hungarian(costs)
            assert len(h) == min(m, n)
            assert h.total_cost(costs) == brute_force_assign(costs).total_cost(costs)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(37)
        costs = rng.uniform(0, 1, size=(4, 4))
        perm = rng.permutation(4)
        base = hungarian(costs)
        permuted = hungarian(costs[:, perm])
        mapped = {(j, int(perm[i])) for j, i in permuted.pairs}
        assert base.total_cost(costs) == pytest.approx(
            sum(costs[j, i] for j, i in mapped), abs=1e-12
        )


class TestGreedyClaim:
    def test_the_given_order_decides_and_pairs_come_in_claim_order(self):
        rows, cols = [0, 0, 1, 1], [0, 1, 0, 1]
        assert greedy_claim(rows, cols) == [(0, 0), (1, 1)]
        assert greedy_claim(rows[::-1], cols[::-1]) == [(1, 1), (0, 0)]
        assert greedy_claim([1, 0, 0], [0, 0, 1]) == [(1, 0), (0, 1)]

    def test_no_cells(self):
        assert greedy_claim([], []) == []


class TestBruteForce:
    def test_one_by_one(self):
        assert brute_force_assign(np.array([[3.0]])).pairs == ((0, 0),)

    def test_two_by_two_enumeration(self):
        result = brute_force_assign(np.array([[1.0, 2.0], [3.0, 1.0]]))
        assert result.total_cost(np.array([[1.0, 2.0], [3.0, 1.0]])) == 2.0

    def test_six_by_six_agrees_with_hungarian(self):
        rng = np.random.default_rng(38)
        costs = rng.uniform(0, 1, size=(6, 6))
        assert brute_force_assign(costs).total_cost(costs) == hungarian(costs).total_cost(costs)

    def test_oracle_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_assign(np.zeros((9, 9)))
        with pytest.raises(ValueError):
            brute_force_assign(np.zeros((12, 9)))
        assert brute_force_assign(np.zeros((3, 0))).pairs == ()

    def test_tall_matrices_pair_as_a_search_over_rows(self):
        def search_rows(costs):
            # each permutation of n of the m rows, in order; the first strict optimum wins
            m, n = costs.shape
            best_pairs, best_total = None, math.inf
            for rows in itertools.permutations(range(m), n):
                total = sum(costs[j, i] for i, j in enumerate(rows))
                if total < best_total:
                    best_total = total
                    best_pairs = tuple(sorted((j, i) for i, j in enumerate(rows)))
            return best_pairs

        rng = np.random.default_rng(39)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            costs = rng.integers(0, 3, size=(int(rng.integers(n + 1, 7)), n)).astype(np.float64)
            assert brute_force_assign(costs).pairs == search_rows(costs)


class TestScalingFixture:
    def test_flip_verified_by_brute_force(self):
        gts, preds = scaling_ambiguity_fixture()
        azimuth_near = {(0, 0), (1, 1)}  # prediction i sits at gt i's azimuth

        low = build_cost_matrix(preds, gts, 1.0)
        low_best = brute_force_assign(low)
        assert set(low_best.pairs) != azimuth_near  # radial term wins, tangentially wrong
        assert set(hungarian(low).pairs) == set(low_best.pairs)

        high = build_cost_matrix(preds, gts, 20.0)
        high_best = brute_force_assign(high)
        assert set(high_best.pairs) == azimuth_near
        assert set(hungarian(high).pairs) == azimuth_near

    def test_fixture_geometry(self):
        gts, preds = scaling_ambiguity_fixture()
        # each prediction is 1 m off its azimuth-near gt radially
        assert abs(preds[0][0, 0] - gts[0][0, 0]) == 1.0
        assert abs(preds[0][1, 0] - gts[0][1, 0]) == 1.0
        # 10 degrees apart in azimuth
        da = math.degrees(PolarBox.from_array(gts[0][1]).azimuth() - PolarBox.from_array(gts[0][0]).azimuth())
        assert da == pytest.approx(10.0)


class TestAssignmentType:
    def test_rejects_repeated_indices(self):
        with pytest.raises(ValueError):
            Assignment(((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            Assignment(((0, 1), (1, 1)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Assignment(((-1, 0),))

    @pytest.mark.parametrize("index", [0.7, 1.9, 1.0, True, False, np.True_, math.inf, -math.inf, math.nan,
                                       np.float64(1.0), "1", None, 1 + 0j])
    def test_rejects_non_integer_indices(self, index):
        for pairs in (((index, 0),), ((0, index),), ((1, 1), (0, index))):
            with pytest.raises(ValueError) as info:
                Assignment(pairs)
            assert str(info.value) == "Assignment: indices must be integers"

    def test_accepts_numpy_integers_as_python_ints(self):
        pairs = Assignment(((np.int64(2), np.uint8(1)), (np.intp(0), 3))).pairs
        assert pairs == ((2, 1), (0, 3))
        assert {type(v) for pair in pairs for v in pair} == {int}

    def test_integer_refusals_keep_their_order(self):
        with pytest.raises(ValueError, match="integers"):
            Assignment(((0, 0), (0, 0.5)))  # a repeat and a float: the type is checked first
        with pytest.raises(ValueError, match="repeat"):
            Assignment(((np.int64(-1), 0), (-1, 1)))
