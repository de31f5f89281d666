"""decode_boxes and encode_boxes on blocks of rows against their whole-array form.

The reference below is the whole-array ``decode_boxes`` and ``encode_boxes``
as they were written before the rows ran in blocks.  Every batch the
reference accepts must come back with the same bits, and every other batch
must raise the reference's type and message, wherever its edge rows sit
among the blocks.  Warnings are errors throughout.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polarview
from polarview import geometry
from polarview.geometry import (
    _NORMAL_MIN,
    _PAIR_TOL,
    RangeConfig,
    RangeError,
    _require_polar_box,
    _require_unit_pair,
    decode_boxes,
    encode_boxes,
)

RC = RangeConfig()
BLOCK = geometry._BLOCK_ROWS


def _sigmoid_array(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_decode(encodings, rc):
    enc = np.asarray(encodings, dtype=np.float64)
    if enc.ndim != 2 or enc.shape[1] != 9:
        raise ValueError("encodings must have shape (N, 9)")
    if not np.isfinite(enc).all():
        raise ValueError("encodings must be finite")
    out = np.empty_like(enc)
    out[:, 0] = _sigmoid_array(enc[:, 0]) * rc.r_max
    out[:, 3] = _sigmoid_array(enc[:, 3]) * (rc.z_max - rc.z_min) + rc.z_min
    with np.errstate(over="ignore"):
        na = np.hypot(enc[:, 1], enc[:, 2])
        nt = np.hypot(enc[:, 7], enc[:, 8])
        sizes = np.exp(enc[:, 4:7])
    if not (na > 0.0).all() or not (nt > 0.0).all():
        raise ValueError("encodings: azimuth and yaw pairs must not be (0, 0)")
    out[:, 1:3] = enc[:, 1:3] / na[:, None]
    if not (np.isfinite(sizes) & (sizes > 0.0)).all():
        raise ValueError("decode: exp of a size channel must be positive and finite")
    out[:, 4:7] = sizes
    out[:, 7:9] = enc[:, 7:9] / nt[:, None]
    for start, name, n in ((1, "azimuth", na), (7, "yaw", nt)):
        for s, c in out[~((n >= _NORMAL_MIN) & (n < math.inf)), start : start + 2].tolist():
            _require_unit_pair(f"PolarBox {name}", s, c)
    return out


def reference_encode(boxes, rc):
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 9:
        raise ValueError("boxes must have shape (N, 9)")
    out = boxes.copy()
    with np.errstate(all="ignore"):
        p_r = boxes[:, 0] / rc.r_max
        p_z = (boxes[:, 3] - rc.z_min) / (rc.z_max - rc.z_min)
        out[:, 0] = np.log(p_r / (1.0 - p_r))
        out[:, 3] = np.log(p_z / (1.0 - p_z))
        out[:, 4:7] = np.log(boxes[:, 4:7])
        off = [np.abs(boxes[:, i] * boxes[:, i] + boxes[:, i + 1] * boxes[:, i + 1] - 1.0) for i in (1, 7)]
    if np.isfinite(out).all() and all(d.max() <= _PAIR_TOL for d in off):
        return out
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 0] < 0.0) | (boxes[:, 4:7] <= 0.0).any(axis=1)
    for row in boxes[bad | (off[0] > _PAIR_TOL) | (off[1] > _PAIR_TOL)].tolist():
        _require_polar_box(row)
    raise RangeError("r or z on/outside the open perception range")


def outcome(function, rows):
    """The bytes ``function`` returns for ``rows``, or the type and message of the ValueError it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return function(rows, RC).tobytes()
        except ValueError as exc:
            return type(exc).__name__, str(exc)


# Edits of one row: channels and the values written there.  Each makes the
# row an edge case of decode (DECODE_EDITS) or encode (ENCODE_EDITS).
HUGE, OVER, SUB = 1e308, 1.7e308, 5e-324  # hypot(OVER, OVER) overflows
DECODE_EDITS = [
    *(((j,), (v,)) for j in range(9) for v in (HUGE, -HUGE, math.nan, math.inf, -math.inf)),
    *(((j, j + 1), pair) for j in (1, 7) for pair in ((0.0, 0.0), (SUB, 0.0), (SUB, -SUB), (3e-310, 4e-310),
                                                      (HUGE, HUGE), (-OVER, OVER), (OVER, 0.0),
                                                      (1.5e-162, 0.0))),
    *(((j,), (v,)) for j in (4, 5, 6) for v in (709.0, 710.0, -745.0, -746.0, -1e4)),  # exp near its ends
    *(((j,), (v,)) for j in (0, 3) for v in (40.0, -40.0, 800.0, -800.0, 0.0, -0.0)),  # r and z onto the bounds
]
ENCODE_EDITS = [
    *(((j,), (v,)) for j in range(9) for v in (HUGE, -HUGE, math.nan, math.inf, 0.0, -1.0)),
    ((0,), (RC.r_max,)), ((0,), (math.nextafter(RC.r_max, 0.0),)), ((0,), (SUB,)),
    ((3,), (RC.z_min,)), ((3,), (RC.z_max,)), ((3,), (math.nextafter(RC.z_max, 0.0),)),
    *(((j, j + 1), pair) for j in (1, 7) for pair in ((0.0, 0.0), (0.6, 0.8), (1.0, 1e-5), (HUGE, HUGE),
                                                      (0.6, 0.8000001))),
    *(((j,), (v,)) for j in (4, 5, 6) for v in (SUB, HUGE, 1e-300)),
]


@st.composite
def batches(draw, edits):
    """(rows, seed, edits): up to three blocks and a few rows, with edge rows placed anywhere."""
    rows = draw(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]) | st.integers(1, 3 * BLOCK + 8))
    placed = st.tuples(st.integers(0, rows - 1), st.sampled_from(edits))
    return rows, draw(st.integers(0, 2**32 - 1)), draw(st.lists(placed, max_size=4))


def apply(rows, placed):
    for row, (channels, values) in placed:
        rows[row, list(channels)] = values
    return rows


def encodings(n, seed, placed=()):
    return apply(np.random.default_rng(seed).normal(0.0, 2.0, size=(n, 9)), placed)


def boxes(n, seed, placed=()):
    return apply(reference_decode(encodings(n, seed), RC), placed)


def same_outcome(blocked, reference, rows):
    expected = outcome(reference, rows)
    assert outcome(blocked, rows) == expected
    return expected


class TestDecodeBlocks:
    @settings(max_examples=150, deadline=None)
    @given(batches(DECODE_EDITS))
    @example((2 * BLOCK + 3, 1, [(5, ((4,), (710.0,))), (2 * BLOCK + 1, ((1, 2), (0.0, 0.0)))]))
    def test_bits_and_failures_of_the_whole_array(self, batch):
        n, seed, placed = batch
        same_outcome(decode_boxes, reference_decode, encodings(n, seed, placed))

    def test_a_zero_pair_in_a_later_block_wins_over_a_size_overflow_in_block_0(self):
        rows = encodings(3 * BLOCK, 2, [(0, ((4,), (710.0,))), (2 * BLOCK + 7, ((7, 8), (0.0, 0.0)))])
        assert same_outcome(decode_boxes, reference_decode, rows) == (
            "ValueError", "encodings: azimuth and yaw pairs must not be (0, 0)")

    def test_a_non_finite_channel_in_a_later_block_wins_over_everything(self):
        placed = [(0, ((1, 2), (0.0, 0.0))), (1, ((5,), (-746.0,))), (3 * BLOCK - 1, ((3,), (math.nan,)))]
        assert same_outcome(decode_boxes, reference_decode, encodings(3 * BLOCK, 3, placed)) == (
            "ValueError", "encodings must be finite")

    def test_every_azimuth_row_is_checked_before_any_yaw_row(self):
        # both pairs overflow their norm and decode to (0, 0); the yaw row comes first
        placed = [(3, ((7, 8), (OVER, OVER))), (2 * BLOCK, ((1, 2), (OVER, -OVER)))]
        expected = same_outcome(decode_boxes, reference_decode, encodings(2 * BLOCK + 1, 4, placed))
        assert expected[1].startswith("PolarBox azimuth:")

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 20001])
    def test_sizes_around_the_block(self, n):
        assert isinstance(same_outcome(decode_boxes, reference_decode, encodings(n, n)), bytes)

    def test_scales_far_from_one(self):
        rng = np.random.default_rng(5)
        for scale in (1e-160, 1e-5, 1e5, 1e160):
            rows = rng.normal(0.0, 1.0, size=(2 * BLOCK + 5, 9)) * scale
            same_outcome(decode_boxes, reference_decode, rows)

    def test_empty_batch(self):
        assert decode_boxes(np.zeros((0, 9)), RC).shape == (0, 9)


class TestEncodeBlocks:
    @settings(max_examples=150, deadline=None)
    @given(batches(ENCODE_EDITS))
    @example((2 * BLOCK + 3, 1, [(5, ((0,), (RC.r_max,))), (2 * BLOCK + 1, ((4,), (0.0,)))]))
    def test_bits_and_failures_of_the_whole_array(self, batch):
        n, seed, placed = batch
        same_outcome(encode_boxes, reference_encode, boxes(n, seed, placed))

    def test_a_polar_box_failure_in_a_later_block_wins_over_a_range_error(self):
        placed = [(1, ((0,), (RC.r_max,))), (2 * BLOCK + 2, ((7, 8), (0.6, 0.8000001)))]
        assert same_outcome(encode_boxes, reference_encode, boxes(3 * BLOCK, 6, placed))[1].startswith(
            "PolarBox yaw:")

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 20001])
    def test_sizes_around_the_block(self, n):
        assert isinstance(same_outcome(encode_boxes, reference_encode, boxes(n, n)), bytes)

    def test_empty_batch(self):
        # the whole-array form took the max of an empty array here
        with pytest.raises(ValueError, match="zero-size array"):
            reference_encode(np.zeros((0, 9)), RC)
        assert encode_boxes(np.zeros((0, 9)), RC).shape == (0, 9)


# Runs the seeded batches of both classes above through both forms in a
# fresh interpreter and prints how many outcomes differ.
SIMD_CHILD = """
import json, sys
import numpy as np
import test_decode_blocks as t

differ = 0
for seed in range(20):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3 * t.BLOCK + 8))
    for edits, make, pair in ((t.DECODE_EDITS, t.encodings, (t.decode_boxes, t.reference_decode)),
                              (t.ENCODE_EDITS, t.boxes, (t.encode_boxes, t.reference_encode))):
        placed = [(int(rng.integers(n)), edits[int(rng.integers(len(edits)))]) for _ in range(seed % 3)]
        rows = make(n, seed, placed)
        differ += t.outcome(pair[0], rows) != t.outcome(pair[1], rows)
json.dump({"differ": differ}, sys.stdout)
"""


class TestBlocksAtEverySimdLevel:
    def test_child_without_avx_dispatch_gives_the_same_bits(self):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarview.__file__)))
        here = os.path.dirname(os.path.abspath(__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, here, env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", SIMD_CHILD], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"differ": 0}
