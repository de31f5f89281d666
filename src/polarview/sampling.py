"""Bilinear feature sampling from per-view grids with the zero rule.

Feature grids are (height, width, channels) arrays with cell centers at
integer coordinates; an image pixel (u, v) maps to cell coordinates
(u / stride, v / stride).  Points sampling outside the grid's
cell-center hull, or non-finite, produce an all-zero vector flagged
invalid, so a view that does not see a point contributes nothing.

:func:`bilinear_sample_many` gathers the four corners from the grid's
(height * width, channels) view and blends them in place one block of
rows at a time, so its temporaries stay a few cache-sized blocks
whatever N is; the blend keeps the one-shot arithmetic order, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rows blended per block: a few (rows, channels) float64 blocks stay in cache
_BLOCK_ROWS = 1024

__all__ = [
    "FeatureMap",
    "FeatureSample",
    "bilinear_sample",
    "bilinear_sample_many",
]


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Dense per-view feature grid plus the pixel-to-cell stride."""

    data: np.ndarray
    stride: float = 1.0

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError("FeatureMap: data must be (height, width, channels)")
        if not np.isfinite(data).all():
            raise ValueError("FeatureMap: values must be finite")
        if not (math.isfinite(self.stride) and self.stride > 0.0):
            raise ValueError("FeatureMap: stride must be finite and positive")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)


@dataclass(frozen=True, eq=False)
class FeatureSample:
    """Sampled feature vector; invalid samples are identically zero."""

    values: np.ndarray
    valid: bool

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not self.valid and np.any(values != 0.0):
            raise ValueError("FeatureSample: invalid samples must be all-zero")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def bilinear_sample(fmap: FeatureMap, u: float, v: float) -> FeatureSample:
    """Bilinearly blend the 4 cells around image pixel (u, v).

    Out-of-grid points (after stride division) yield a zero, invalid
    sample; non-finite coordinates are treated as out of grid.
    """
    vals, valid = bilinear_sample_many(fmap, np.array([[u, v]]))
    return FeatureSample(values=vals[0], valid=bool(valid[0]))


def bilinear_sample_many(fmap: FeatureMap, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch :func:`bilinear_sample` over (N, 2) pixel coordinates.

    Returns (N, channels) values and an (N,) validity mask.  Points outside
    the cell-center hull [0, W-1] x [0, H-1], or non-finite, come back zero
    and invalid.  Any shape other than (N, 2) raises ValueError.
    """
    uv = np.asarray(uv, dtype=np.float64)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise ValueError(f"bilinear_sample_many: uv must have shape (N, 2), got {uv.shape}")
    cells = uv / fmap.stride
    grid = fmap.data
    h, w, c = grid.shape
    x = cells[:, 0]
    y = cells[:, 1]
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)

    xs = np.where(valid, x, 0.0)
    ys = np.where(valid, y, 0.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    fx = (xs - x0)[:, None]
    fy = (ys - y0)[:, None]
    gx = 1.0 - fx
    gy = 1.0 - fy
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    # rows of the four corners in the (h*w, c) grid: all in range, so take's
    # "clip" mode changes nothing and spares its bounds-check buffer
    i00 = row0 + x0
    corners = ((row0 + x1, fx, gy), (row1 + x0, gx, fy), (row1 + x1, fx, fy))

    flat = grid.reshape(h * w, c)
    vals = np.empty((len(cells), c))
    scratch = np.empty((_BLOCK_ROWS, c))
    for start in range(0, len(cells), _BLOCK_ROWS):
        b = slice(start, start + _BLOCK_ROWS)
        out = vals[b]
        tmp = scratch[: len(out)]
        # ((g00*(1-fx))*(1-fy) + (g01*fx)*(1-fy)) + (g10*(1-fx))*fy + (g11*fx)*fy, in place
        np.take(flat, i00[b], axis=0, out=out, mode="clip")
        out *= gx[b]
        out *= gy[b]
        for idx, wx, wy in corners:
            np.take(flat, idx[b], axis=0, out=tmp, mode="clip")
            tmp *= wx[b]
            tmp *= wy[b]
            out += tmp
    vals[~valid] = 0.0
    return vals, valid
