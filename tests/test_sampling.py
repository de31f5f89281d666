import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarview.sampling import (
    FeatureMap,
    FeatureSample,
    bilinear_sample,
    bilinear_sample_many,
)


def grid_2x2():
    # rows are v, columns are u: value(v, u) in [[0, 1], [2, 3]]
    return FeatureMap(data=np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(2, 2, 1))


class TestBilinear:
    def test_centroid_mean(self):
        sample = bilinear_sample(grid_2x2(), 0.5, 0.5)
        assert sample.valid
        assert sample.values[0] == 1.5

    def test_grid_point_identity(self):
        sample = bilinear_sample(grid_2x2(), 1.0, 0.0)
        assert sample.valid
        assert sample.values[0] == 1.0

    def test_out_of_range_is_zero_invalid(self):
        sample = bilinear_sample(grid_2x2(), -5.0, -5.0)
        assert not sample.valid
        assert np.all(sample.values == 0.0)

    def test_nan_treated_as_out_of_grid(self):
        sample = bilinear_sample(grid_2x2(), math.nan, 0.5)
        assert not sample.valid

    def test_all_grid_points_reproduce_stored_values(self):
        rng = np.random.default_rng(21)
        data = rng.uniform(1.0, 9.0, size=(5, 7, 3))
        fmap = FeatureMap(data=data)
        for v in range(5):
            for u in range(7):
                sample = bilinear_sample(fmap, float(u), float(v))
                np.testing.assert_array_equal(sample.values, data[v, u])

    def test_neighbor_bounds(self):
        rng = np.random.default_rng(22)
        data = rng.uniform(0.5, 10.0, size=(6, 8, 2))
        fmap = FeatureMap(data=data)
        for _ in range(1000):
            u = rng.uniform(0.0, 7.0)
            v = rng.uniform(0.0, 5.0)
            sample = bilinear_sample(fmap, u, v)
            assert sample.valid
            i0, j0 = int(u), int(v)
            i1, j1 = min(i0 + 1, 7), min(j0 + 1, 5)
            corners = data[[j0, j0, j1, j1], [i0, i1, i0, i1]]
            assert np.all(sample.values >= corners.min(axis=0) - 1e-12)
            assert np.all(sample.values <= corners.max(axis=0) + 1e-12)

    def test_stride_divides_pixels(self):
        fmap = FeatureMap(data=grid_2x2().data, stride=16.0)
        # pixel (16, 0) lands on cell (1, 0)
        sample = bilinear_sample(fmap, 16.0, 0.0)
        assert sample.values[0] == 1.0

    def test_zero_rule_validity_iff_nonzero(self):
        rng = np.random.default_rng(23)
        data = rng.uniform(0.5, 3.0, size=(4, 4, 2))  # strictly positive cells
        fmap = FeatureMap(data=data)
        for _ in range(500):
            u = rng.uniform(-2.0, 5.0)
            v = rng.uniform(-2.0, 5.0)
            sample = bilinear_sample(fmap, u, v)
            assert sample.valid == bool(np.any(sample.values != 0.0))

    def test_batch_invalid_rows_are_zero(self):
        rng = np.random.default_rng(71)
        fmap = FeatureMap(data=rng.uniform(-2, 2, size=(9, 13, 4)))
        uv = np.column_stack([rng.uniform(-3, 15, 300), rng.uniform(-3, 11, 300)])
        vals, valid = bilinear_sample_many(fmap, uv)
        assert valid.any() and not valid.all()
        assert np.all(vals[~valid] == 0.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(24)
        data = rng.uniform(0, 1, size=(5, 5, 4))
        fmap = FeatureMap(data=data, stride=2.0)
        uv = rng.uniform(-2, 12, size=(64, 2))
        vals, valid = bilinear_sample_many(fmap, uv)
        for (u, v), row, ok in zip(uv, vals, valid):
            one = bilinear_sample(fmap, u, v)
            assert one.valid == ok
            np.testing.assert_allclose(row, one.values, rtol=0, atol=1e-15)


class TestFeatureSampleInvariant:
    def test_invalid_must_be_zero(self):
        with pytest.raises(ValueError):
            FeatureSample(values=np.array([1.0]), valid=False)

    def test_map_validation(self):
        with pytest.raises(ValueError):
            FeatureMap(data=np.ones((2, 2)))  # missing channel axis
        with pytest.raises(ValueError):
            FeatureMap(data=np.full((2, 2, 1), math.nan))
        with pytest.raises(ValueError):
            FeatureMap(data=np.ones((2, 2, 1)), stride=0.0)

    def test_map_copies_the_callers_array(self):
        data = np.zeros((2, 2, 1))
        fmap = FeatureMap(data=data)
        assert data.flags.writeable and not fmap.data.flags.writeable
        data[0, 0, 0] = 5.0
        assert fmap.data[0, 0, 0] == 0.0
        assert bilinear_sample(fmap, 0.0, 0.0).values[0] == 0.0

    def test_sample_copies_the_callers_array(self):
        # a shared array would let the caller break the all-zero invariant after the check
        values = np.zeros(3)
        sample = FeatureSample(values=values, valid=False)
        assert values.flags.writeable and not sample.values.flags.writeable
        values[0] = 7.0
        assert sample.values.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("stride", [math.inf, -math.inf, math.nan, -1.0])
    def test_stride_must_be_finite_and_positive(self, stride):
        # an infinite stride would send every pixel, (-3, 7) and (1e6, 5e5)
        # alike, to cell (0, 0) and sample it as valid
        with pytest.raises(ValueError, match="stride"):
            FeatureMap(data=np.ones((2, 2, 1)), stride=stride)


def one_shot_corners(fmap, uv):
    """Validity, the four corner weights (each (N, 1)) and the four corner values (each (N, C)) of every point;
    invalid points take cell (0, 0)'s corners, whose results the callers then zero."""
    cells = uv / fmap.stride
    grid = fmap.data
    h, w, _ = grid.shape
    x, y = cells[:, 0], cells[:, 1]
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xs = np.where(valid, x, 0.0)
    ys = np.where(valid, y, 0.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[:, None]
    fy = (ys - y0)[:, None]
    corners = (grid[y0, x0], grid[y0, x1], grid[y1, x0], grid[y1, x1])
    return valid, (fx, fy), corners


def one_shot_weighted_sum(fmap, uv):
    """The sampler's definition over all rows at once: precomputed corner weights times corner values,
    summed from zero in corner order, ((w00*g00 + w01*g01) + w10*g10) + w11*g11."""
    valid, (fx, fy), (g00, g01, g10, g11) = one_shot_corners(fmap, uv)
    vals = np.zeros((len(uv), fmap.data.shape[2]))
    vals += (1.0 - fx) * (1.0 - fy) * g00
    vals += fx * (1.0 - fy) * g01
    vals += (1.0 - fx) * fy * g10
    vals += fx * fy * g11
    vals[~valid] = 0.0
    return vals, valid


def one_shot_blend(fmap, uv):
    """The four-corner blend in value-first order, each corner value times its x weight, then its y weight: an
    independent oracle that rounds differently."""
    valid, (fx, fy), (g00, g01, g10, g11) = one_shot_corners(fmap, uv)
    vals = g00 * (1.0 - fx) * (1.0 - fy) + g01 * fx * (1.0 - fy) + g10 * (1.0 - fx) * fy + g11 * fx * fy
    vals[~valid] = 0.0
    return vals, valid


class TestInterpolationMatrix:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([0, 1, 2, 1023, 1025, 2051]),
        st.one_of(
            st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5)),
            # one row or one column: a point's corners repeat grid cells
            st.tuples(st.just(1), st.integers(1, 9), st.integers(1, 5)),
            st.tuples(st.integers(1, 9), st.just(1), st.integers(1, 5)),
        ),
        st.sampled_from([0.25, 1.0, 3.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_the_weighted_sum(self, n, shape, stride, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-3.0, 3.0, size=shape)
        # signed zeros in the grid: a point whose four products are all -0.0 sums to +0.0 from zero
        zeros = rng.random(shape) < 0.1
        data[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        fmap = FeatureMap(data=data, stride=stride)
        h, w, _ = shape
        uv = np.column_stack(
            [rng.uniform(-2.0, stride * w + 2.0, n), rng.uniform(-2.0, stride * h + 2.0, n)]
        )
        special = [math.nan, math.inf, -math.inf, -1e-300, 0.0, stride * (w - 1), stride * (h - 1), 1e300]
        picks = rng.random((n, 2)) < 0.2
        uv[picks] = rng.choice(special, size=int(picks.sum()))
        vals, valid = bilinear_sample_many(fmap, uv)
        expected_vals, expected_valid = one_shot_weighted_sum(fmap, uv)
        assert vals.shape == (n, shape[2]) and vals.dtype == np.float64
        assert vals.tobytes() == expected_vals.tobytes()
        assert valid.tobytes() == expected_valid.tobytes()
        # value-first order rounds differently, by a few units in the last place at most
        blend, blend_valid = one_shot_blend(fmap, uv)
        assert blend_valid.tobytes() == valid.tobytes()
        np.testing.assert_allclose(vals, blend, rtol=0, atol=4 * np.finfo(float).eps * np.abs(data).max())

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 1), (1, 2, 2), (4, 0)])
    def test_refuses_shapes_other_than_n_by_2(self, shape):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            bilinear_sample_many(grid_2x2(), np.zeros(shape))

    def test_accepts_zero_points(self):
        vals, valid = bilinear_sample_many(grid_2x2(), np.zeros((0, 2)))
        assert vals.shape == (0, 1) and valid.shape == (0,)

    def test_overflowing_cell_is_invalid_without_a_warning(self):
        # 1e300 pixels over a 1e-310 stride overflow to an infinite cell coordinate
        fmap = FeatureMap(data=np.ones((3, 3, 1)), stride=1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, valid = bilinear_sample_many(fmap, [[1e300, 0.0], [0.0, -1e300], [1e-310, 1e-310]])
        assert valid.tolist() == [False, False, True]
        assert vals.tolist() == [[0.0], [0.0], [1.0]]
