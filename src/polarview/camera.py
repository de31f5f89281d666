"""Pinhole cameras, surround-view rigs and projection.

Camera frame convention: +z along the optical axis, +x right, +y down.
Extrinsics map ego coordinates into the camera frame
(``x_cam = R @ x_ego + t``).  Projection applies the rigid transform,
divides by the positive camera-frame depth and applies the intrinsics;
points behind the camera (depth <= EPS_DEPTH) or landing outside the
half-open pixel box [0, W) x [0, H) are reported as invisible.
Zero skew, no lens distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EPS_DEPTH",
    "CameraModel",
    "Rig",
    "EgoPose",
    "PixelPoint",
    "project_to_view",
    "project_rig",
    "make_symmetric_rig",
    "rotation_about_z",
    "max_rotation_discrepancy",
]

#: Minimum camera-frame depth considered in front of the camera.
EPS_DEPTH = 1e-6

_ORTHO_TOL = 1e-9


def rotation_about_z(angle: float) -> np.ndarray:
    """3x3 rotation by ``angle`` about the ego z axis (counter-clockwise)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _check_poses(rots: np.ndarray, translations: np.ndarray, name: str) -> None:
    """ValueError unless all (3, 3) ``rots`` are finite proper rotations and all ``translations`` finite."""
    if not np.isfinite(rots).all():
        raise ValueError(f"{name}: rotation must be finite")
    with np.errstate(over="ignore"):  # a huge entry overflows to inf and fails the check
        if rots.size and np.abs(rots @ np.swapaxes(rots, -1, -2) - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError(f"{name}: rotation is not orthonormal")
        if (np.abs(np.linalg.det(rots) - 1.0) > _ORTHO_TOL).any():
            raise ValueError(f"{name}: rotation must have determinant +1")
    if not np.isfinite(translations).all():
        raise ValueError(f"{name}: translation must be finite")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _freeze_pose(obj, name: str) -> None:
    """Check ``obj.rotation`` (3, 3) and ``obj.translation`` (3,) and store them as read-only float arrays."""
    rot = np.asarray(obj.rotation, dtype=np.float64)
    if rot.shape != (3, 3):
        raise ValueError(f"{name}: rotation must be 3x3")
    t = np.asarray(obj.translation, dtype=np.float64).reshape(3)
    _check_poses(rot[None], t, name)
    object.__setattr__(obj, "rotation", _frozen(rot))
    object.__setattr__(obj, "translation", _frozen(t))


@dataclass(frozen=True, eq=False)
class CameraModel:
    """Ideal pinhole camera: intrinsics, rigid ego-to-camera extrinsics, image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("CameraModel: focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("CameraModel: image size must be positive")
        _freeze_pose(self, "CameraModel")


@dataclass(frozen=True)
class Rig:
    """Ordered surround-view camera set; view indices are positions in the tuple."""

    cameras: tuple[CameraModel, ...]

    def __post_init__(self) -> None:
        cams = tuple(self.cameras)
        if len(cams) < 1:
            raise ValueError("Rig: at least one camera required")
        object.__setattr__(self, "cameras", cams)

    def __len__(self) -> int:
        return len(self.cameras)

    def __getitem__(self, k: int) -> CameraModel:
        return self.cameras[k]


@dataclass(frozen=True, eq=False)
class EgoPose:
    """Rigid transform taking current-frame ego coordinates to a past frame's.

    ``dt`` is the timestamp delta in seconds between the two frames.
    """

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dt: float = 0.0

    def __post_init__(self) -> None:
        _freeze_pose(self, "EgoPose")

    @classmethod
    def identity(cls, dt: float = 0.0) -> "EgoPose":
        return cls(np.eye(3), np.zeros(3), dt)

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=np.float64) + self.translation


@dataclass(frozen=True)
class PixelPoint:
    """Continuous pixel location with camera-frame depth."""

    u: float
    v: float
    depth: float


def project_to_view(points, cam: CameraModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Project (N, 3) ego-frame points (a (3,) point counts as N = 1) into one view.

    Returns pixel coordinates u and v, camera-frame depth and a visibility
    mask, each of shape (N,).  A point is visible when its depth exceeds
    EPS_DEPTH and its pixel lies in the image; u and v of a point with
    depth <= EPS_DEPTH are not pixels.
    """
    p = np.asarray(points, dtype=np.float64)
    if p.shape != (3,) and (p.ndim, p.shape[-1:]) != (2, (3,)):
        raise ValueError("project_to_view: points must have shape (N, 3) or (3,)")
    if not np.isfinite(p).all():
        raise ValueError("project_to_view: non-finite point")
    # matmul of (3, 3) by (3, 1) per point: the bits of R @ p, which P @ R.T and einsum do not keep
    x, y, depth = (np.matmul(cam.rotation[None], p.reshape(-1, 3, 1))[:, :, 0] + cam.translation).T
    with np.errstate(all="ignore"):  # a depth of 0 divides by zero; such a point is invisible
        u = cam.fx * x / depth + cam.cx
        v = cam.fy * y / depth + cam.cy
    visible = (depth > EPS_DEPTH) & (0.0 <= u) & (u < cam.width) & (0.0 <= v) & (v < cam.height)
    return u, v, depth, visible


def project_rig(point, rig: Rig) -> list[PixelPoint | None]:
    """Project one point into every view of the rig (None where invisible); list index k is view k."""
    p = np.asarray(point, dtype=np.float64).reshape(3)
    views = [project_to_view(p, cam) for cam in rig.cameras]
    return [PixelPoint(float(u[0]), float(v[0]), float(d[0])) if seen[0] else None for u, v, d, seen in views]


# Orientation of a forward-looking camera (optical axis along ego +x):
# camera x = ego -y (right), camera y = ego -z (down), camera z = ego +x.
_FORWARD_CAMERA = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])

# make_symmetric_rig builds one checked camera at a time, so a huge count would run for minutes
_MAX_RIG_CAMERAS = 1000


def make_symmetric_rig(count: int) -> Rig:
    """Build a rig of ``count`` identical cameras spaced 2*pi/count in yaw.

    Every camera is the nuScenes-style 1600 x 900 pinhole with
    fx = fy = 800 and its principal point at the image center (800, 450).
    Camera k looks along ego yaw 2*pi*k/count; the mount offset (camera 0
    centered at (1, 0, 1.6) m in ego coordinates) rotates with it.
    Rotating a scene point by 2*pi/count therefore maps its projection in
    view k to the identical pixel in view k+1.
    """
    if not 2 <= count <= _MAX_RIG_CAMERAS:
        raise ValueError(f"make_symmetric_rig: need 2 to {_MAX_RIG_CAMERAS} cameras, got {count}")
    cams = []
    for k in range(count):
        rz = rotation_about_z(2.0 * math.pi * k / count)
        rotation = _FORWARD_CAMERA @ rz.T
        translation = -rotation @ (rz @ np.array([1.0, 0.0, 1.6]))  # camera center: the mount turned by rz
        cams.append(
            CameraModel(
                fx=800.0, fy=800.0, cx=800.0, cy=450.0, rotation=rotation, translation=translation, width=1600, height=900
            )
        )
    return Rig(tuple(cams))


def max_rotation_discrepancy(rig: Rig, points: np.ndarray) -> tuple[float, float]:
    """Self-check of rig view symmetry.

    Rotates each point by 2*pi/K and compares its projection in view k+1
    with the original projection in view k, over all views where the
    original is visible.  Returns (max pixel error, max depth error);
    both are ~1e-12 for a rig built by :func:`make_symmetric_rig`.
    """
    k_count = len(rig)
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rotated = np.matmul(rotation_about_z(2.0 * math.pi / k_count)[None], p[:, :, None])[:, :, 0]
    max_px = 0.0
    max_depth = 0.0
    for k in range(k_count):
        *base, seen = project_to_view(p, rig[k])
        *moved, still_seen = project_to_view(rotated, rig[(k + 1) % k_count])
        if (seen & ~still_seen).any():
            return math.inf, math.inf
        error = np.abs(np.array(moved)[:, seen] - np.array(base)[:, seen])  # rows u, v, depth
        max_px = max(max_px, error[:2].max(initial=0.0))
        max_depth = max(max_depth, error[2].max(initial=0.0))
    return float(max_px), float(max_depth)
