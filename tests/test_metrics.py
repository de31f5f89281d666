import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _frame_loops import frame_match_by_center_distance
from _published import TEST_ROWS, VAL_ROWS
from polarview.geometry import PolarBox, PolarVelocity, rotate_planar, wrap_angle
from polarview.metrics import (
    TPErrors,
    aligned_iou,
    average_precision_frames,
    match_by_center_distance,
    nds,
    tp_errors,
)


def polar(x, y, l=4.0, w=2.0, h=1.5, yaw=0.0):
    r = math.hypot(x, y)
    return PolarBox(
        r=r, sin_a=y / r, cos_a=x / r, z=0.0, l=l, w=w, h=h,
        sin_t=math.sin(yaw), cos_t=math.cos(yaw),
    )


V0 = PolarVelocity(0.0, 0.0)


def as_rows(pairs):
    """The (P, 9), (P, 2), (P, 9), (P, 2) rows tp_errors takes, from ((box, velocity), (box, velocity)) pairs."""
    def boxes(side):
        return np.reshape([pair[side][0].as_array() for pair in pairs], (-1, 9))

    def velocities(side):
        return np.reshape([(pair[side][1].v_rad, pair[side][1].v_tan) for pair in pairs], (-1, 2))

    return boxes(0), velocities(0), boxes(1), velocities(1)


def as_arrays(frame_preds, frame_gts):
    """Per-frame (center, score) lists and center lists as the arrays AP takes."""
    preds = [
        (np.array([c for c, _ in p], dtype=np.float64).reshape(-1, 2), np.array([s for _, s in p], dtype=np.float64))
        for p in frame_preds
    ]
    return preds, [np.array(g, dtype=np.float64).reshape(-1, 2) for g in frame_gts]


def grid_points(n):
    """n points of the integer grid [-3, 3]^2, so that distances tie exactly."""
    return st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n)


def pooled_ap(frame_preds, frame_gts, threshold):
    """AP at one threshold as eval computes it: match each frame, then rank all frames' predictions together."""
    flags = [match_by_center_distance(c, s, [len(s)], g, [len(g)], [threshold])[0][1]
             for (c, s), g in zip(frame_preds, frame_gts)]
    return average_precision_frames([s for _, s in frame_preds], flags, sum(len(g) for g in frame_gts))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SIZES = st.floats(1e-100, 1e100)  # volumes neither underflow nor overflow
BOX_ROW = st.builds(
    lambda center, sizes, yaw: [*center, *sizes, *yaw],
    st.tuples(FINITE, FINITE, FINITE, FINITE),
    st.tuples(SIZES, SIZES, SIZES),
    st.one_of(st.tuples(FINITE, FINITE), st.sampled_from([(-0.0, -1.0), (0.0, -1.0), (1e-300, -1.0)])),
)
VELOCITY_ROW = st.tuples(FINITE, FINITE).map(list)


class TestTpErrors:
    def test_identical_pairs_zero(self):
        pair = ((polar(10.0, 5.0), PolarVelocity(2.0, 1.0)),) * 2
        errors = tp_errors(*as_rows([pair]))
        assert errors.ate == errors.ase == errors.aoe == errors.ave == 0.0

    def test_scale_error_co_centered_cubes(self):
        small = polar(10.0, 0.0, l=2.0, w=2.0, h=2.0)
        big = polar(10.0, 0.0, l=4.0, w=4.0, h=4.0)
        assert aligned_iou(small.as_array(), big.as_array()) == pytest.approx(8.0 / 64.0)
        errors = tp_errors(*as_rows([((small, V0), (big, V0))]))
        assert errors.ase == pytest.approx(0.875)

    def test_orientation_error_quarter_turn(self):
        a = polar(10.0, 0.0, yaw=0.0)
        b = polar(10.0, 0.0, yaw=math.pi / 2)
        errors = tp_errors(*as_rows([((a, V0), (b, V0))]))
        assert errors.aoe == pytest.approx(math.pi / 2)

    def test_translation_and_velocity_error(self):
        pred = (polar(10.0, 0.0), PolarVelocity(1.0, 0.0))
        gt = (polar(13.0, 4.0), PolarVelocity(0.0, 0.0))
        errors = tp_errors(*as_rows([(pred, gt)]))
        assert errors.ate == pytest.approx(5.0)
        assert errors.ave == pytest.approx(1.0)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            tp_errors(*as_rows([]))

    @pytest.mark.parametrize("field", ["ate", "ave"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_translation_and_velocity_errors_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TPErrors(**{"ate": 0.0, "ase": 0.0, "aoe": 0.0, "ave": 0.0, field: value})

    def test_self_evaluation_identically_zero(self):
        rng = np.random.default_rng(61)
        pairs = []
        for _ in range(20):
            box = polar(rng.uniform(2, 40), rng.uniform(-20, 20), yaw=rng.uniform(-3, 3))
            vel = PolarVelocity(*rng.normal(0, 3, 2))
            pairs.append(((box, vel), (box, vel)))
        errors = tp_errors(*as_rows(pairs))
        assert (errors.ate, errors.ase, errors.aoe, errors.ave) == (0.0, 0.0, 0.0, 0.0)

    def test_rows_match_the_per_object_arithmetic_bit_for_bit(self):
        rng = np.random.default_rng(65)
        pairs = []
        for k in range(300):
            boxes = []
            for side in range(2):
                x, y = rng.uniform(-50.0, 50.0, size=2)
                l, w, h = rng.uniform(0.5, 6.0, size=3)
                box = polar(x, y, l=l, w=w, h=h, yaw=rng.uniform(-math.pi, math.pi))
                if k % 10 == 5 * side:  # a yaw of exactly -pi by atan2, which PolarBox.yaw() wraps to +pi
                    box = PolarBox(*box.as_array()[:7], -0.0, -1.0)
                boxes.append(box)
            velocities = [PolarVelocity(*rng.normal(0, 3, 2)) for _ in range(2)]
            pairs.append(((boxes[0], velocities[0]), (boxes[1], velocities[1])))
        for chunk in [pairs, *([p] for p in pairs)]:
            got, want = tp_errors(*as_rows(chunk)), reference_tp_errors(chunk)
            assert (got.ate, got.ase, got.aoe, got.ave) == (want.ate, want.ase, want.aoe, want.ave)

    @pytest.mark.parametrize("shapes", [((1, 9), (1, 2), (1, 9), (2, 2)), ((2, 9), (2, 2), (2, 7), (2, 2)),
                                        ((3,), (1, 2), (1, 9), (1, 2))])
    def test_rejects_rows_of_other_shapes(self, shapes):
        with pytest.raises(ValueError):
            tp_errors(*(np.ones(shape) for shape in shapes))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 24).flatmap(lambda n: st.tuples(*(st.lists(row, min_size=n, max_size=n)
                                                           for row in (BOX_ROW, VELOCITY_ROW) * 2))))
    def test_rows_match_the_pair_loop_bit_for_bit(self, rows):
        def outcome(f):
            try:
                errors = f(*(np.array(r, dtype=np.float64) for r in rows))
            except (ValueError, ZeroDivisionError) as exc:
                return type(exc), str(exc)
            return tuple(float.hex(v) for v in (errors.ate, errors.ase, errors.aoe, errors.ave))

        assert outcome(tp_errors) == outcome(loop_tp_errors)

    def test_volumes_that_underflow_are_refused(self):
        tiny = PolarBox(10.0, 0.0, 1.0, 0.0, 1e-110, 1e-110, 1e-110, 0.0, 1.0)
        rows = as_rows([((tiny, V0), (tiny, V0))])
        with pytest.raises(ZeroDivisionError):
            loop_tp_errors(*rows)
        with pytest.raises(ValueError, match="ase must lie in"):
            tp_errors(*rows)


def loop_tp_errors(pred_boxes, pred_velocities, gt_boxes, gt_velocities):
    """``tp_errors`` as one scalar loop over the pairs, summing each error with ``+=``."""
    ate = ase = aoe = ave = 0.0
    rows = (a.tolist() for a in (pred_boxes, pred_velocities, gt_boxes, gt_velocities))
    for pred, (pv_rad, pv_tan), gt, (gv_rad, gv_tan) in zip(*rows):
        p_r, p_sin, p_cos, _, pl, pw, ph, p_sin_t, p_cos_t = pred
        g_r, g_sin, g_cos, _, gl, gw, gh, g_sin_t, g_cos_t = gt
        ate += math.hypot(p_r * p_cos - g_r * g_cos, p_r * p_sin - g_r * g_sin)
        inter = min(pl, gl) * min(pw, gw) * min(ph, gh)
        ase += 1.0 - inter / (pl * pw * ph + gl * gw * gh - inter)
        aoe += abs(wrap_angle(wrap_angle(math.atan2(p_sin_t, p_cos_t)) - wrap_angle(math.atan2(g_sin_t, g_cos_t))))
        pv_x, pv_y = rotate_planar(pv_rad, pv_tan, p_sin, p_cos)
        gv_x, gv_y = rotate_planar(gv_rad, gv_tan, g_sin, g_cos)
        ave += math.hypot(pv_x - gv_x, pv_y - gv_y)
    n = len(pred_boxes)
    return TPErrors(ate=ate / n, ase=ase / n, aoe=min(aoe / n, math.pi), ave=ave / n)


def reference_tp_errors(pairs):
    """The per-object arithmetic: center_xy, yaw() and the IoU read off PolarBox and PolarVelocity fields."""
    ate = ase = aoe = ave = 0.0
    for (pred_box, pred_vel), (gt_box, gt_vel) in pairs:
        px, py = pred_box.center_xy()
        gx, gy = gt_box.center_xy()
        ate += math.hypot(px - gx, py - gy)
        inter = min(pred_box.l, gt_box.l) * min(pred_box.w, gt_box.w) * min(pred_box.h, gt_box.h)
        ase += 1.0 - inter / (pred_box.l * pred_box.w * pred_box.h + gt_box.l * gt_box.w * gt_box.h - inter)
        aoe += abs(wrap_angle(pred_box.yaw() - gt_box.yaw()))
        pv_x, pv_y = rotate_planar(pred_vel.v_rad, pred_vel.v_tan, pred_box.sin_a, pred_box.cos_a)
        gv_x, gv_y = rotate_planar(gt_vel.v_rad, gt_vel.v_tan, gt_box.sin_a, gt_box.cos_a)
        ave += math.hypot(pv_x - gv_x, pv_y - gv_y)
    n = len(pairs)
    return TPErrors(ate=ate / n, ase=ase / n, aoe=min(aoe / n, math.pi), ave=ave / n)


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [np.array([0.0, 0.0]), np.array([10.0, 0.0])]
        preds = [(np.array([0.1, 0.0]), 1.0), (np.array([10.1, 0.0]), 1.0)]
        assert pooled_ap(*as_arrays([preds], [gts]), 2.0) == pytest.approx(1.0)

    def test_no_detections(self):
        gts = [np.array([0.0, 0.0])]
        assert pooled_ap(*as_arrays([[]], [gts]), 2.0) == 0.0

    def test_no_ground_truth_undefined(self):
        assert pooled_ap(*as_arrays([[(np.array([0.0, 0.0]), 1.0)]], [[]]), 2.0) is None

    def test_top_score_false_positive_hand_enumeration(self):
        # FP at rank 1, then two TPs: precisions (0, 1/2, 2/3), recalls (0, 1/2, 1);
        # envelope is flat 2/3, so the area is 2/3
        gts = [np.array([0.0, 0.0]), np.array([10.0, 0.0])]
        preds = [
            (np.array([50.0, 50.0]), 0.9),
            (np.array([0.1, 0.0]), 0.8),
            (np.array([10.2, 0.0]), 0.7),
        ]
        assert pooled_ap(*as_arrays([preds], [gts]), 2.0) == pytest.approx(2.0 / 3.0)

    def test_mid_rank_false_positive_hand_enumeration(self):
        # TP, FP, TP: precisions (1, 1/2, 2/3), recalls (1/2, 1/2, 1);
        # envelope (1, 2/3, 2/3): area = 1/2 * 1 + 1/2 * 2/3 = 5/6
        gts = [np.array([0.0, 0.0]), np.array([10.0, 0.0])]
        preds = [
            (np.array([0.1, 0.0]), 0.9),
            (np.array([50.0, 50.0]), 0.8),
            (np.array([10.2, 0.0]), 0.7),
        ]
        assert pooled_ap(*as_arrays([preds], [gts]), 2.0) == pytest.approx(5.0 / 6.0)

    def test_each_gt_matched_at_most_once(self):
        gts = [np.array([0.0, 0.0])]
        preds = [(np.array([0.1, 0.0]), 0.9), (np.array([-0.1, 0.0]), 0.8)]
        [(matches, is_tp)] = match_by_center_distance(
            np.array([c for c, _ in preds]),
            np.array([s for _, s in preds]),
            [len(preds)],
            np.array(gts),
            [len(gts)],
            [2.0],
        )
        assert len(matches) == 1
        assert is_tp.tolist() == [True, False]

    def test_score_monotone_rescaling_invariance(self):
        rng = np.random.default_rng(62)
        gts = [np.array(c) for c in rng.uniform(-20, 20, size=(6, 2))]
        preds = [(np.array(c), float(s)) for c, s in zip(rng.uniform(-20, 20, size=(10, 2)), rng.uniform(0.1, 1.0, 10))]
        base = pooled_ap(*as_arrays([preds], [gts]), 3.0)
        squashed = [(c, s**3 / 2) for c, s in preds]
        assert pooled_ap(*as_arrays([squashed], [gts]), 3.0) == pytest.approx(base)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            gts = [np.array(c) for c in rng.uniform(-20, 20, size=(rng.integers(1, 6), 2))]
            preds = [
                (np.array(c), float(s))
                for c, s in zip(
                    rng.uniform(-20, 20, size=(rng.integers(0, 8), 2)),
                    rng.uniform(0, 1, 8),
                )
            ]
            ap = pooled_ap(*as_arrays([preds], [gts]), 2.0)
            assert 0.0 <= ap <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=1, max_size=5), st.data())
    def test_frame_order_does_not_change_ap_for_distinct_scores(self, sizes, data):
        n_preds = sum(n for n, _ in sizes)
        scores = iter(data.draw(st.lists(st.integers(1, 1000), min_size=n_preds, max_size=n_preds, unique=True)))
        frame_preds = [
            [(np.array(c, dtype=np.float64), next(scores) / 1000.0) for c in data.draw(grid_points(n))] for n, _ in sizes
        ]
        frame_gts = [[np.array(c, dtype=np.float64) for c in data.draw(grid_points(m))] for _, m in sizes]
        threshold = data.draw(st.sampled_from([0.0, 1.0, 1.5, 3.0]))
        order = data.draw(st.permutations(range(len(sizes))))
        base = pooled_ap(*as_arrays(frame_preds, frame_gts), threshold)
        reordered = pooled_ap(*as_arrays([frame_preds[i] for i in order], [frame_gts[i] for i in order]), threshold)
        assert reordered == base

    def test_multi_frame_pooling(self):
        # one perfect frame, one empty-prediction frame: global ranking
        frame_preds = [[(np.array([0.0, 0.0]), 1.0)], []]
        frame_gts = [[np.array([0.0, 0.0])], [np.array([5.0, 5.0])]]
        ap = pooled_ap(*as_arrays(frame_preds, frame_gts), 2.0)
        assert ap == pytest.approx(0.5)  # recall saturates at 1/2


def reference_center_matching(pred_centers, scores, gt_centers, threshold):
    """The per-prediction loop: each prediction measures every ground truth anew."""
    order = np.argsort(-scores, kind="stable")
    taken = np.zeros(len(gt_centers), dtype=bool)
    is_tp = np.zeros(len(pred_centers), dtype=bool)
    matches = []
    for pi in order:
        d = np.hypot(gt_centers[:, 0] - pred_centers[pi, 0], gt_centers[:, 1] - pred_centers[pi, 1])
        d[taken] = np.inf
        gi = int(np.argmin(d))
        if d[gi] <= threshold:
            taken[gi] = True
            is_tp[pi] = True
            matches.append((int(pi), gi))
    return matches, is_tp


class TestCenterDistanceMatching:
    def test_matches_reference_loop_under_ties(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            n_pred, n_gt = rng.integers(1, 9, size=2)
            # integer grids and few score values: exact distance and score ties
            preds = rng.integers(-3, 4, size=(n_pred, 2)).astype(np.float64)
            gts = rng.integers(-3, 4, size=(n_gt, 2)).astype(np.float64)
            scores = rng.integers(1, 4, size=n_pred) / 4.0
            threshold = float(rng.choice([0.0, 1.0, 1.5, 3.0]))
            [(matches, is_tp)] = match_by_center_distance(preds, scores, [n_pred], gts, [n_gt], [threshold])
            ref_matches, ref_tp = reference_center_matching(preds, scores, gts, threshold)
            assert matches == ref_matches
            assert is_tp.tolist() == ref_tp.tolist()

    def test_no_ground_truth(self):
        [(matches, is_tp)] = match_by_center_distance(np.ones((3, 2)), np.ones(3), [3], np.zeros((0, 2)), [0], [2.0])
        assert matches == [] and is_tp.tolist() == [False] * 3

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 8), st.data())
    def test_every_threshold_matches_reference_loop_on_tie_heavy_grids(self, n_pred, n_gt, data):
        preds, gts = (np.array(data.draw(grid_points(n)), dtype=np.float64).reshape(-1, 2) for n in (n_pred, n_gt))
        scores = np.array(data.draw(st.lists(st.integers(1, 3), min_size=n_pred, max_size=n_pred))) / 4.0
        # 0 and distances that occur on the grid, so cells lie exactly on a threshold
        grid_distance = st.builds(lambda dx, dy: float(np.hypot(dx, dy)), st.integers(0, 6), st.integers(0, 6))
        thresholds = data.draw(st.lists(st.just(0.0) | grid_distance, min_size=1, max_size=5))
        results = match_by_center_distance(preds, scores, [n_pred], gts, [n_gt], thresholds)
        assert len(results) == len(thresholds)
        for threshold, (matches, is_tp) in zip(thresholds, results):
            ref_matches, ref_tp = reference_center_matching(preds, scores, gts, threshold)
            assert matches == ref_matches, threshold
            assert is_tp.tolist() == ref_tp.tolist(), threshold

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["pred", "score", "gt"])
    def test_non_finite_centers_or_scores_are_refused(self, where, value):
        # a NaN distance would win argmin and drop a valid match; refuse it instead
        args = {"pred": np.zeros((2, 2)), "score": np.ones(2), "gt": np.zeros((2, 2))}
        args[where].flat[-1] = value
        with pytest.raises(ValueError, match="finite"):
            match_by_center_distance(args["pred"], args["score"], [2], args["gt"], [2], [2.0])

    def test_nan_threshold_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            match_by_center_distance(np.zeros((1, 2)), np.ones(1), [1], np.zeros((1, 2)), [1], [1.0, math.nan])


#: Coordinates where distances tie, overflow, or sit exactly on a threshold.
EDGE_CENTERS = [0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 4.0, -4e-16, 1.7e308, -1.7e308]


@st.composite
def matching_files(draw):
    """Frames of (centers, scores) predictions and ground-truth centers, concatenated, with their counts."""
    coordinate = draw(st.sampled_from([
        st.integers(-3, 3).map(float), st.sampled_from(EDGE_CENTERS), st.floats(-6.0, 6.0),
    ]))
    score = draw(st.sampled_from([st.just(1.0), st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0)]))
    counts = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 5)), max_size=5))
    pred_counts, gt_counts = [n for n, _ in counts], [m for _, m in counts]
    pred, gt = (np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=sum(c), max_size=sum(c))),
                         dtype=np.float64).reshape(-1, 2) for c in (pred_counts, gt_counts))
    scores = np.array(draw(st.lists(score, min_size=sum(pred_counts), max_size=sum(pred_counts))), dtype=np.float64)
    return pred, scores, pred_counts, gt, gt_counts


class TestWholeFileMatching:
    """One call over all frames gives each frame's matches, in frame order, with rows of the whole file."""

    @settings(max_examples=300, deadline=None)
    @given(matching_files(), st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, math.sqrt(2.0), 1e308]), min_size=1,
                                      max_size=5))
    def test_equals_the_per_frame_matching(self, file, thresholds):
        pred, scores, pred_counts, gt, gt_counts = file
        expected = [([], []) for _ in thresholds]
        p_lo, g_lo = np.cumsum([0, *pred_counts]), np.cumsum([0, *gt_counts])
        for f in range(len(pred_counts)):
            frame = slice(p_lo[f], p_lo[f + 1])
            results = frame_match_by_center_distance(pred[frame], scores[frame], gt[g_lo[f] : g_lo[f + 1]], thresholds)
            for (matches, flags), (frame_matches, frame_flags) in zip(expected, results):
                matches += [(pi + p_lo[f], gi + g_lo[f]) for pi, gi in frame_matches]
                flags += frame_flags.tolist()
        got = match_by_center_distance(pred, scores, pred_counts, gt, gt_counts, thresholds)
        assert [(m, t.tolist()) for m, t in got] == expected

    def test_all_equal_scores_and_duplicate_centers_keep_input_order(self):
        pred = np.array([[1.0, 1.0]] * 3 + [[0.0, 0.0]] * 2)
        gt = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        [(matches, is_tp)] = match_by_center_distance(pred, np.ones(5), [3, 2], gt, [2, 1], [0.5])
        assert matches == [(0, 0), (1, 1), (3, 2)]
        assert is_tp.tolist() == [True, True, False, True, False]

    def test_counts_must_add_up_to_the_rows(self):
        with pytest.raises(ValueError):
            match_by_center_distance(np.zeros((2, 2)), np.ones(2), [1], np.zeros((1, 2)), [1], [1.0])


class TestNds:
    def test_published_rows_reproduce(self):
        for row in VAL_ROWS + TEST_ROWS:
            name, m_ap, *tps, published = row
            assert nds(m_ap, tps) == pytest.approx(published, abs=0.002), name

    def test_perfect_score(self):
        assert nds(1.0, [0.0] * 5) == 1.0

    def test_specific_values(self):
        assert nds(0.338, [0.768, 0.284, 0.443, 0.883, 0.221]) == pytest.approx(0.4091, abs=1e-12)
        assert nds(0.346, [0.773, 0.268, 0.383, 0.842, 0.216]) == pytest.approx(0.4248, abs=1e-12)

    def test_monotone_in_map_and_tps(self):
        base = nds(0.4, [0.5, 0.5, 0.5, 0.5, 0.5])
        assert nds(0.5, [0.5] * 5) > base
        assert nds(0.4, [0.6, 0.5, 0.5, 0.5, 0.5]) < base

    def test_clamped_above_one(self):
        assert nds(0.4, [1.0, 0.5, 0.5, 0.5, 0.5]) == nds(0.4, [7.3, 0.5, 0.5, 0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            nds(1.5, [0.0] * 5)
        with pytest.raises(ValueError):
            nds(0.5, [0.0] * 4)
        with pytest.raises(ValueError):
            nds(0.5, [-0.1, 0, 0, 0, 0])
