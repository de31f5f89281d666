"""Bilinear feature sampling from per-view grids with the zero rule.

Feature grids are (height, width, channels) arrays with cell centers at
integer coordinates; an image pixel (u, v) maps to cell coordinates
(u / stride, v / stride).  Points sampling outside the grid's
cell-center hull, or non-finite, produce an all-zero vector flagged
invalid, so a view that does not see a point contributes nothing.

:func:`bilinear_sample_many` builds one sparse (N, height * width)
interpolation matrix, whose row for a valid point holds the four corner
weights (1-fx)(1-fy), fx(1-fy), (1-fx)fy and fx*fy at the corners' cells and
whose row for an invalid point is empty, and multiplies it once by the
grid's (height * width, channels) view.  Each value is therefore
((w00*g00 + w01*g01) + w10*g10) + w11*g11, summed from zero in that order.
``scipy.sparse`` is imported on the first call, so importing this module
(or the CLI) loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        data = np.array(self.data, dtype=np.float64)  # a copy: the caller's array stays theirs
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
        values = np.array(self.values, dtype=np.float64).reshape(-1)  # a copy: the caller's array stays theirs
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
    from scipy import sparse  # loaded on the first call, so importing this module loads no scipy

    uv = np.asarray(uv, dtype=np.float64)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise ValueError(f"bilinear_sample_many: uv must have shape (N, 2), got {uv.shape}")
    with np.errstate(over="ignore"):  # a huge pixel over a tiny stride is an infinite cell, out of the grid
        cells = uv / fmap.stride
    h, w, c = fmap.data.shape
    x = cells[:, 0]
    y = cells[:, 1]
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)

    xv = x[valid]
    yv = y[valid]
    x0 = np.floor(xv).astype(np.intp)
    y0 = np.floor(yv).astype(np.intp)
    fx = xv - x0
    fy = yv - y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    # one row of four corner weights per valid point, none per invalid one
    weights = np.column_stack([gx * gy, fx * gy, gx * fy, fx * fy])
    columns = np.column_stack([row0 + x0, row0 + x1, row1 + x0, row1 + x1])
    indptr = np.concatenate([[0], 4 * np.cumsum(valid)])
    interp = sparse.csr_array((weights.ravel(), columns.ravel(), indptr), shape=(len(cells), h * w))
    return interp @ fmap.data.reshape(h * w, c), valid
