"""Synthetic surround-view scenes: moving objects, ego motion, noisy detections.

A scene holds a camera rig and columns of all frames.  Objects move with
constant velocity in the frame-0 (world) plane; each frame stores them in
that frame's ego coordinates together with the ego pose mapping those
coordinates back to frame 0.  All generation is a pure function of
(config, seed).

Noise is applied in polar coordinates by default — radial and
tangential-angle perturbations — matching the parametrization under
test; a cartesian mode (isotropic x/y noise at the radial std) exists for
contrast experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .camera import EgoPose, Rig, _check_poses, make_symmetric_rig, rotation_about_z
from .geometry import (
    _PAIR_TOL,
    CartesianBox,
    CartesianVelocity,
    PolarBox,
    PolarVelocity,
    RangeConfig,
    _libm,
    polar_boxes,
    rotate_planar,
    wrap_angle,
    wrap_angles,
)

__all__ = [
    "SceneObject",
    "SceneFrame",
    "Scene",
    "Detection",
    "DetectionFrame",
    "DetectionSet",
    "NoiseModel",
    "SceneConfig",
    "generate_scene",
    "rotate_scene",
    "render_detections",
]


_INT64 = np.iinfo(np.int64)


def _columns(frame: str, owner: str, times, counts, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 ``times`` and intp ``counts`` of ``n_rows`` rows, the counts checked, then the times."""
    times, counts = np.array(times, dtype=np.float64), np.array(counts, dtype=np.intp)
    if counts.shape != times.shape or (counts < 0).any() or counts.sum() != n_rows:
        raise ValueError(f"{frame}: need one nonnegative row count per frame, adding up to the rows")
    if not np.isfinite(times).all() or (times[1:] <= times[:-1]).any():
        raise ValueError(f"{owner}: timestamps must be finite and strictly increase")
    times.setflags(write=False), counts.setflags(write=False)
    return times, counts


def _fill(obj, *values):
    """Set a frozen dataclass's fields to ``values`` in declaration order; the caller checked them."""
    for name, value in zip(obj.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def _stacked(frames: tuple, empty, names: tuple[str, ...]) -> list[np.ndarray]:
    """The per-frame row counts, then each named field of all rows; frames without rows (whose probs may be
    (0, 0)) are left out, and with no rows at all the fields are those of ``empty()``, a frame without rows."""
    counts = [len(f) for f in frames]
    full = [f for f, n in zip(frames, counts) if n] or [empty()]
    return [np.array(counts, dtype=np.intp), *(np.concatenate([getattr(f, n) for f in full]) for n in names)]


def _scene_rows(frames: int, rotations, translations, ids, classes, boxes, velocities) -> list[np.ndarray]:
    """Read-only copies of ``frames`` ego poses and of object rows, checked in one pass.

    The checks are those :class:`EgoPose`, :class:`SceneObject`,
    :class:`CartesianBox` and :class:`CartesianVelocity` make for one pose
    or object, each failure a ValueError.
    """
    ids, classes = np.asarray(ids), np.asarray(classes)
    if any(a.size and a.dtype.kind != "i" for a in (ids, classes)):
        raise ValueError("Scene: object ids and classes must be 64-bit integers")
    arrays = [np.array(a, dtype=np.float64) for a in (rotations, translations, boxes, velocities)]
    rotations, translations, boxes, velocities = arrays
    m = ids.size
    shapes = (rotations.shape, translations.shape, ids.shape, classes.shape, boxes.shape, velocities.shape)
    if shapes != ((frames, 3, 3), (frames, 3), (m,), (m,), (m, 7), (m, 2)):
        raise ValueError("Scene: arrays must have shapes (F, 3, 3), (F, 3), (M,), (M,), (M, 7) and (M, 2)")
    _check_poses(rotations, translations, "EgoPose")
    faults = {
        "Scene: object classes must be >= 0": (classes < 0).any(),
        "Scene: object boxes and velocities must be finite": not all(np.isfinite(a).all() for a in arrays[2:]),
        "Scene: object sizes must be positive": (boxes[:, 3:6] <= 0.0).any(),
        "Scene: object yaw must lie in (-pi, pi]": ((boxes[:, 6] <= -math.pi) | (boxes[:, 6] > math.pi)).any(),
    }
    for message, fault in faults.items():
        if fault:
            raise ValueError(message)
    arrays = [rotations, translations, ids.astype(np.int64), classes.astype(np.int64), boxes, velocities]
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class SceneObject:
    """Ground-truth object in one frame's ego coordinates (API edge)."""

    object_id: int
    label: int
    box: CartesianBox
    velocity: CartesianVelocity

    def __post_init__(self) -> None:
        for v in (self.object_id, self.label):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not _INT64.min <= v <= _INT64.max:
                raise ValueError("SceneObject: object_id and label must be 64-bit integers")
        if self.label < 0:
            raise ValueError("SceneObject: label must be >= 0")


@dataclass(frozen=True, eq=False, init=False)
class SceneFrame:
    """One frame of ground truth as read-only arrays.

    The ego pose is ``pose_rotation`` (3, 3) and ``pose_translation`` (3,);
    objects are int64 ``ids`` (M,) and ``classes`` (M,), ``boxes`` (M, 7)
    as (x, y, z, l, w, h, yaw) and ``velocities`` (M, 2) as (v_x, v_y).
    A scene's frames are slices of its columns, built on first access;
    ``SceneFrame(t, ego_pose, objects)`` stacks objects, and
    :attr:`objects` and :attr:`ego_pose` rebuild them.
    """

    t: float
    pose_rotation: np.ndarray
    pose_translation: np.ndarray
    ids: np.ndarray
    classes: np.ndarray
    boxes: np.ndarray
    velocities: np.ndarray

    def __init__(self, t: float, ego_pose: EgoPose, objects: tuple[SceneObject, ...]) -> None:
        objs = tuple(objects)
        rotation, translation, *rows = _scene_rows(
            1, [ego_pose.rotation], [ego_pose.translation], [o.object_id for o in objs], [o.label for o in objs],
            np.reshape([(o.box.x, o.box.y, o.box.z, o.box.l, o.box.w, o.box.h, o.box.yaw) for o in objs], (-1, 7)),
            np.reshape([(o.velocity.v_x, o.velocity.v_y) for o in objs], (-1, 2)),
        )
        _fill(self, float(t), rotation[0], translation[0], *rows)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def ego_pose(self) -> EgoPose:
        """The pose as a validated :class:`EgoPose` with ``dt = t`` (API edge; built on each access)."""
        return EgoPose(self.pose_rotation, self.pose_translation, self.t)

    @property
    def objects(self) -> tuple[SceneObject, ...]:
        """The rows as validated :class:`SceneObject` objects (API edge; built on each access)."""
        rows = zip(self.ids.tolist(), self.classes.tolist(), self.boxes.tolist(), self.velocities.tolist())
        return tuple(SceneObject(i, c, CartesianBox(*b), CartesianVelocity(*v)) for i, c, b, v in rows)


class _FrameColumns:
    """Frames kept as read-only columns: frame f is at ``times[f]``, holds row f of each ``_POSES`` column and the
    next ``counts[f]`` rows of each ``_ROWS`` column, and is a ``_FRAME`` at the API edge."""

    @cached_property
    def frames(self) -> tuple:
        """One ``_FRAME`` per frame, read-only slices of the columns (API edge; built on first access)."""
        bounds = [0, *itertools.accumulate(self.counts.tolist())]
        poses, rows = ([getattr(self, name) for name in names] for names in (self._POSES, self._ROWS))
        return tuple(
            _fill(self._FRAME.__new__(self._FRAME), t, *(p[f] for p in poses), *(a[lo:hi] for a in rows))
            for f, (t, lo, hi) in enumerate(zip(self.times.tolist(), bounds, bounds[1:]))
        )

    def stacked(self, *names: str) -> list[np.ndarray]:
        """The per-frame row counts, then each named row column (``ids``, ``boxes``, ...), as stored."""
        return [self.counts, *(getattr(self, name) for name in names)]


@dataclass(frozen=True, eq=False, init=False)
class Scene(_FrameColumns):
    """A rig and read-only columns of all frames: frame f is at ``times[f]`` with pose ``pose_rotations[f]`` and
    ``pose_translations[f]``, and holds the next ``counts[f]`` rows of the :class:`SceneFrame` row fields."""

    _FRAME, _POSES = SceneFrame, ("pose_rotations", "pose_translations")
    _ROWS = ("ids", "classes", "boxes", "velocities")
    rig: Rig
    times: np.ndarray
    counts: np.ndarray
    pose_rotations: np.ndarray
    pose_translations: np.ndarray
    ids: np.ndarray
    classes: np.ndarray
    boxes: np.ndarray
    velocities: np.ndarray

    def __init__(self, rig: Rig, frames: tuple[SceneFrame, ...]) -> None:
        counts, *rows = _stacked(frames, lambda: SceneFrame(0.0, EgoPose.identity(), ()), Scene._ROWS)
        rotations = np.reshape([f.pose_rotation for f in frames], (-1, 3, 3))
        translations = np.reshape([f.pose_translation for f in frames], (-1, 3))
        scene = Scene.from_arrays(rig, [f.t for f in frames], counts, rotations, translations, *rows)
        self.__dict__.update(vars(scene))

    @classmethod
    def from_arrays(cls, rig: Rig, times, counts, rotations, translations, ids, classes, boxes, velocities):
        """A scene from whole-scene arrays, each check run once over all rows: frame f holds ``times[f]``, pose
        ``rotations[f]`` (3, 3) and ``translations[f]`` (3,), and the next ``counts[f]`` object rows, ids unique."""
        arrays = rotations, translations, ids, classes, boxes, velocities
        rotations, translations, *rows = _scene_rows(len(times), *arrays)
        times, counts = _columns("SceneFrame", "Scene", times, counts, len(rows[0]))
        frame_of = np.repeat(np.arange(len(counts)), counts)
        ids = rows[0][np.lexsort((rows[0], frame_of))]  # by frame, then by id
        if ((frame_of[1:] == frame_of[:-1]) & (ids[1:] == ids[:-1])).any():
            raise ValueError("Scene: object ids must be unique within a frame")
        return _fill(cls.__new__(cls), rig, times, counts, rotations, translations, *rows)


@dataclass(frozen=True, eq=False)
class Detection:
    """Scored polar-box prediction with class probabilities and polar velocity."""

    box: PolarBox
    probs: np.ndarray
    velocity: PolarVelocity
    score: float

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or not probs.size:
            raise ValueError("Detection: probs must be a non-empty 1-D vector")
        if not np.isfinite(probs).all() or ((probs < 0.0) | (probs > 1.0)).any():
            raise ValueError("Detection: probs must lie in [0, 1]")
        if not (np.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError("Detection: score must lie in [0, 1]")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def _detection_rows(boxes, probs, velocities, scores) -> list[np.ndarray]:
    """Read-only float64 copies of detection rows, checked in one pass.

    The checks are those :class:`PolarBox`, :class:`PolarVelocity` and
    :class:`Detection` make for one record, each failure a ValueError.
    """
    arrays = [np.array(a, dtype=np.float64) for a in (boxes, probs, velocities, scores)]
    boxes, probs, velocities, scores = arrays
    n = scores.size
    if (scores.ndim, boxes.shape, velocities.shape, probs.shape[:1]) != (1, (n, 9), (n, 2), (n,)):
        raise ValueError("DetectionFrame: arrays must have shapes (N, 9), (N, C), (N, 2) and (N,)")
    with np.errstate(all="ignore"):  # the finiteness fault is reported first
        pairs = boxes[:, [1, 7]] ** 2 + boxes[:, [2, 8]] ** 2
        faults = {
            "values must be finite": not all(np.isfinite(a).all() for a in arrays),
            "r must be >= 0": (boxes[:, 0] < 0.0).any(),
            "azimuth and yaw must be unit (sin, cos) pairs": (np.abs(pairs - 1.0) > _PAIR_TOL).any(),
            "sizes must be positive": (boxes[:, 4:7] <= 0.0).any(),
            "probs must be non-empty rows": probs.ndim != 2 or n and not probs.shape[1],
            "probs must lie in [0, 1]": ((probs < 0.0) | (probs > 1.0)).any(),
            "scores must lie in [0, 1]": ((scores < 0.0) | (scores > 1.0)).any(),
        }
    for message, fault in faults.items():
        if fault:
            raise ValueError(f"DetectionFrame: {message}")
    if not n:  # no rows: (0, 0) probs, as a file without detections loads
        arrays[1] = probs = np.empty((0, 0))
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False, init=False)
class DetectionFrame:
    """One frame of detections as four read-only arrays.

    ``boxes`` (N, 9) in ``geometry.POLAR_FIELDS`` order, class ``probs``
    (N, C), ``velocities`` (N, 2) as (v_rad, v_tan) and ``scores`` (N,).
    :meth:`DetectionSet.from_arrays` checks all rows of a file or render
    in one pass as :class:`PolarBox`, :class:`PolarVelocity` and
    :class:`Detection` check one record, each failure a ValueError.
    ``DetectionFrame(t, detections)`` stacks :class:`Detection` objects;
    :attr:`detections` rebuilds them.
    """

    t: float
    boxes: np.ndarray
    probs: np.ndarray
    velocities: np.ndarray
    scores: np.ndarray

    def __init__(self, t: float, detections: tuple[Detection, ...] = ()) -> None:
        dets = tuple(detections)
        probs = [d.probs for d in dets] if dets else np.empty((0, 0))
        boxes = np.reshape([d.box.as_array() for d in dets], (-1, 9))
        velocities = np.reshape([(d.velocity.v_rad, d.velocity.v_tan) for d in dets], (-1, 2))
        _fill(self, float(t), *_detection_rows(boxes, probs, velocities, [d.score for d in dets]))

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def labels(self) -> np.ndarray:
        """Most probable class per detection (first on ties), shape (N,)."""
        return self.probs.argmax(axis=1) if len(self) else np.zeros(0, dtype=np.intp)

    @property
    def detections(self) -> tuple[Detection, ...]:
        """The rows as validated :class:`Detection` objects (API edge; built on each access)."""
        rows = zip(self.boxes.tolist(), self.probs, self.velocities.tolist(), self.scores.tolist())
        return tuple(Detection(PolarBox.from_array(b), p, PolarVelocity(*v), s) for b, p, v, s in rows)


@dataclass(frozen=True, eq=False, init=False)
class DetectionSet(_FrameColumns):
    """Read-only columns of all frames: frame f is at ``times[f]`` and holds the next ``counts[f]`` rows of the
    :class:`DetectionFrame` row fields (with no rows, probs are (0, 0), as a file without detections loads)."""

    _FRAME, _POSES, _ROWS = DetectionFrame, (), ("boxes", "probs", "velocities", "scores")
    times: np.ndarray
    counts: np.ndarray
    boxes: np.ndarray
    probs: np.ndarray
    velocities: np.ndarray
    scores: np.ndarray

    def __init__(self, frames: tuple[DetectionFrame, ...]) -> None:
        counts = [len(f) for f in frames]  # the times are checked before the probs lengths
        times, _ = _columns("DetectionFrame", "DetectionSet", [f.t for f in frames], counts, sum(counts))
        sizes = {f.probs.shape[1] for f in frames if len(f)}
        if len(sizes) > 1:
            raise ValueError(f"DetectionSet: probs lengths differ: {sorted(sizes)}")
        rows = _stacked(frames, lambda: DetectionFrame(0.0), DetectionSet._ROWS)
        self.__dict__.update(vars(DetectionSet.from_arrays(times, *rows)))

    @classmethod
    def from_arrays(cls, times, counts, boxes, probs, velocities, scores) -> "DetectionSet":
        """A detection set from whole-file arrays: frame f holds ``times[f]`` and the next ``counts[f]`` rows, all
        checked in one pass as ``DetectionFrame(t, detections)`` checks its records."""
        rows = _detection_rows(boxes, probs, velocities, scores)
        return _fill(cls.__new__(cls), *_columns("DetectionFrame", "DetectionSet", times, counts, len(rows[0])), *rows)

    @property
    def labels(self) -> np.ndarray:
        """Most probable class per detection of all frames (first on ties), shape (N,)."""
        return self.probs.argmax(axis=1) if len(self.probs) else np.zeros(0, dtype=np.intp)


_NOISE_MODES = ("polar", "cartesian")
# spurious detections are drawn one by one, so a larger mean only stalls the render
_MAX_FALSE_POSITIVE_RATE = 1e4


@dataclass(frozen=True)
class NoiseModel:
    """Perturbation model for rendering detections from ground truth.

    Stds: radial (m), tangential angle (rad), z (m), size (relative,
    log-space), yaw (rad), velocity components (m/s).  ``drop_prob``
    removes true objects; ``false_positive_rate`` is the expected number
    of spurious detections per frame (Poisson, at most 1e4).  ``mode``
    selects polar (default) or cartesian position noise.
    """

    radial_std: float = 0.0
    tangential_std: float = 0.0
    z_std: float = 0.0
    size_rel_std: float = 0.0
    yaw_std: float = 0.0
    velocity_std: float = 0.0
    drop_prob: float = 0.0
    false_positive_rate: float = 0.0
    seed: int = 0
    mode: str = field(default="polar", metadata={"choices": _NOISE_MODES})

    def __post_init__(self) -> None:
        for name in ("radial_std", "tangential_std", "z_std", "size_rel_std", "yaw_std", "velocity_std",
                     "false_positive_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"NoiseModel: {name} must be finite and >= 0")
        if self.false_positive_rate > _MAX_FALSE_POSITIVE_RATE:
            raise ValueError(f"NoiseModel: false_positive_rate must be <= {_MAX_FALSE_POSITIVE_RATE:g} per frame")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("NoiseModel: drop_prob must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("NoiseModel: seed must be >= 0")
        if self.mode not in _NOISE_MODES:
            raise ValueError("NoiseModel: mode must be 'polar' or 'cartesian'")


_EGO_MOTIONS = ("static", "straight", "arc")
# objects and false positives are placed at least this far (m) from the ego
_PLACEMENT_FLOOR = 2.0
# (low, high) of the uniform length, width and height draws of objects and false positives, in m
_SIZE_RANGES = ((3.0, 5.0), (1.5, 2.2), (1.3, 2.0))


@dataclass(frozen=True)
class SceneConfig:
    """Scene generation knobs; everything is seed-deterministic."""

    n_objects: int = 5
    n_frames: int = 1
    dt: float = 0.5
    r_max: float = 50.0
    n_classes: int = 4
    speed_min: float = 0.0
    speed_max: float = 8.0
    ego_motion: str = field(default="static", metadata={"choices": _EGO_MOTIONS})
    ego_speed: float = 5.0
    ego_yaw_rate: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_objects < 0 or self.n_frames < 1 or self.n_classes < 1:
            raise ValueError("SceneConfig: counts out of range")
        finite = (self.dt, self.r_max, self.speed_min, self.speed_max, self.ego_speed, self.ego_yaw_rate)
        if not all(map(math.isfinite, finite)):
            raise ValueError("SceneConfig: dt, r_max, speeds and ego motion must be finite")
        if self.dt <= 0.0:
            raise ValueError("SceneConfig: dt must be positive")
        if self.r_max <= _PLACEMENT_FLOOR:
            raise ValueError(f"SceneConfig: r_max must exceed the {_PLACEMENT_FLOOR:g} m placement floor")
        if not 0.0 <= self.speed_min <= self.speed_max:
            raise ValueError("SceneConfig: need 0 <= speed_min <= speed_max")
        if self.ego_motion not in _EGO_MOTIONS:
            raise ValueError("SceneConfig: unknown ego_motion")
        if self.seed < 0:
            raise ValueError("SceneConfig: seed must be >= 0")


def _ego_state(config: SceneConfig, t: float) -> tuple[float, np.ndarray]:
    """(heading, position) of the ego in frame-0 coordinates at time t."""
    if config.ego_motion == "static":
        return 0.0, np.zeros(3)
    omega = config.ego_yaw_rate if config.ego_motion == "arc" else 0.0
    radius = config.ego_speed / omega if omega else math.inf
    if not math.isfinite(radius):  # straight, or an arc so slight that its radius overflows: straight is the limit
        return 0.0, np.array([config.ego_speed * t, 0.0, 0.0])
    psi = omega * t
    return psi, np.array([radius * math.sin(psi), radius * (1.0 - math.cos(psi)), 0.0])


def generate_scene(config: SceneConfig, rig: Rig | None = None) -> Scene:
    """Generate a constant-velocity scene; deterministic for a given seed.

    Objects are placed with radial distance uniform in (2, r_max) around
    the ego at frame 0 and keep a constant frame-0 velocity; each frame
    stores their positions, yaws and velocities re-expressed in that
    frame's ego coordinates.
    """
    rng = np.random.default_rng(config.seed)
    if rig is None:
        rig = make_symmetric_rig(6)

    labels, objects0 = [], []
    for _ in range(config.n_objects):
        r = rng.uniform(_PLACEMENT_FLOOR, config.r_max)
        a = rng.uniform(-math.pi, math.pi)
        z = rng.uniform(-1.0, 1.0)
        l, w, h = (rng.uniform(low, high) for low, high in _SIZE_RANGES)
        yaw = wrap_angle(rng.uniform(-math.pi, math.pi))
        speed = rng.uniform(config.speed_min, config.speed_max)
        v_dir = rng.uniform(-math.pi, math.pi)
        labels.append(int(rng.integers(0, config.n_classes)))
        v_x, v_y = speed * math.cos(v_dir), speed * math.sin(v_dir)
        objects0.append((r * math.cos(a), r * math.sin(a), z, l, w, h, yaw, v_x, v_y))
    x0, y0, z0, l, w, h, yaw0, vx0, vy0 = np.reshape(objects0, (-1, 9)).T

    m, n_frames = config.n_objects, config.n_frames
    times = [n * config.dt for n in range(n_frames)]
    psis, ego_pos = zip(*[_ego_state(config, t) for t in times])
    rz = np.array([rotation_about_z(psi) for psi in psis])
    rz_inv = rz.transpose(0, 2, 1)
    # (F, M, ...) arrays; matmul still makes one (3, 3) @ (3,) product per object, so the bytes match it
    t = np.array(times)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # Scene.from_arrays reports the non-finite rows
        p_world = np.stack(np.broadcast_arrays(x0 + vx0 * t, y0 + vy0 * t, z0 + 0.0 * t), axis=-1)
        p_ego = np.matmul(rz_inv[:, None], (p_world - np.array(ego_pos)[:, None])[..., None])[..., 0]
    v_ego = np.matmul(rz_inv[:, None, :2, :2], np.stack([vx0, vy0], axis=-1)[:, :, None])[..., 0]
    yaws = wrap_angles(yaw0 - np.array(psis)[:, None])
    sizes = np.broadcast_to(np.stack([l, w, h], axis=-1), (n_frames, m, 3))
    boxes = np.concatenate([p_ego, sizes, yaws[..., None]], axis=-1)
    return Scene.from_arrays(rig, times, [m] * n_frames, rz, ego_pos, np.tile(np.arange(m), n_frames),
                             np.tile(labels, n_frames), boxes.reshape(-1, 7), v_ego.reshape(-1, 2))


def rotate_scene(scene: Scene, phi: float) -> Scene:
    """Rotate all scene content by ``phi`` about the frame-0 ego z axis.

    Object positions, velocities and yaws rotate within every frame's ego
    coordinates; ego pose translations rotate and pose rotations are
    conjugated (a no-op for planar yaw-only motion).  The rig is
    unchanged, so the rotated scene probes view symmetry.
    """
    if not len(scene.times):
        return scene
    rz = rotation_about_z(phi)
    return Scene.from_arrays(
        scene.rig, scene.times, scene.counts, rz @ scene.pose_rotations @ rz.T,
        np.matmul(rz, scene.pose_translations[..., None])[..., 0], scene.ids, scene.classes,
        np.column_stack([np.matmul(rz, scene.boxes[:, :3, None])[..., 0], scene.boxes[:, 3:6],
                         wrap_angles(scene.boxes[:, 6] + phi)]),
        np.matmul(rz[:2, :2], scene.velocities[..., None])[..., 0],
    )


def _noisy_rows(boxes: np.ndarray, velocities: np.ndarray, draws: np.ndarray, noise: NoiseModel):
    """The (K, 9) polar boxes and (K, 2) polar velocities of K ground-truth rows, (K, 7) ``boxes`` and (K, 2)
    ``velocities``, under ``noise`` with the (K, 9) standard-normal ``draws`` of each row.

    Every formula runs once over all rows, ``sin``, ``cos``, ``atan2``, ``hypot`` and ``exp`` as one ``math``
    call per element.  A row on the ego z axis, or one whose noise leaves the float range, is refused: a
    ValueError for the first such row, for the first of its checks in this order: the azimuth, then the noisy
    tangential angle, r, yaw, sizes, z and velocity.
    """
    x, y, _, _, _, _, yaw = boxes.T
    d = draws.T
    at_origin = (x == 0.0) & (y == 0.0)
    faults = [("", at_origin)]  # (NoiseModel std, rows its noise moves out of the float range), in check order
    with np.errstate(all="ignore"):  # a failing row computes quietly; the faults refuse it below
        r, sin_a, cos_a, z, l, w, h, sin_t, cos_t = polar_boxes(np.where(at_origin[:, None], 1.0, boxes)).T
        if noise.mode == "polar":
            if noise.tangential_std != 0.0:  # else the azimuth pair passes through: exact, no roundoff
                a = _libm(math.atan2, sin_a, cos_a) + d[1] * noise.tangential_std
                faults.append(("tangential_std", ~np.isfinite(a)))
                a[faults[-1][1]] = 0.0
                sin_a, cos_a = _libm(math.sin, a), _libm(math.cos, a)
            r = np.maximum(r + d[0] * noise.radial_std, 1e-6)
        else:
            x, y = x + d[0] * noise.radial_std, y + d[1] * noise.radial_std
            r = np.maximum(_libm(math.hypot, x, y), 1e-6)
            if noise.radial_std != 0.0:
                a = _libm(math.atan2, y, x)
                sin_a, cos_a = _libm(math.sin, a), _libm(math.cos, a)
        faults.append(("radial_std", ~(r < math.inf)))
        if noise.yaw_std > 0.0:
            yaw = yaw + d[6] * noise.yaw_std
            faults.append(("yaw_std", ~np.isfinite(yaw)))
            yaw = wrap_angles(np.where(faults[-1][1], 0.0, yaw))
            sin_t, cos_t = _libm(math.sin, yaw), _libm(math.cos, yaw)
        sizes = np.stack([l, w, h])
        if noise.size_rel_std != 0.0:  # else every scale is exp(+-0.0) = 1: the sizes pass through
            sizes *= _libm(math.exp, (d[3:6] * noise.size_rel_std).ravel()).reshape(3, -1)
            faults.append(("size_rel_std", ~((sizes > 0.0) & (sizes < math.inf)).all(axis=0)))
        z = z + d[2] * noise.z_std
        faults.append(("z_std", ~np.isfinite(z)))
        v_rad, v_tan = rotate_planar(velocities[:, 0], velocities[:, 1], -sin_a, cos_a)
        v_rad, v_tan = v_rad + d[7] * noise.velocity_std, v_tan + d[8] * noise.velocity_std
        faults.append(("velocity_std", ~(np.isfinite(v_rad) & np.isfinite(v_tan))))
    table = np.stack([rows for _, rows in faults])
    failing = table.any(axis=0)
    if failing.any():
        i = int(failing.argmax())
        polar_boxes(boxes[i])  # a row on the ego z axis is refused here, as polar_fields refuses it
        name = faults[int(table[:, i].argmax())][0]
        raise ValueError(f"NoiseModel: {name} is too large to render: a noisy value leaves the float range")
    return np.column_stack([r, sin_a, cos_a, z, *sizes, sin_t, cos_t]), np.column_stack([v_rad, v_tan])


def render_detections(
    scene: Scene,
    noise: NoiseModel,
    range_config: RangeConfig = RangeConfig(),
) -> DetectionSet:
    """Render a detection set from ground truth under the noise model.

    With all stds, drop probability and false-positive rate at zero the
    detections are the exact polar transforms of the ground truth in
    either noise frame, with one-hot class probabilities and score 1.
    False positives have r ~ U(2, r_max) and azimuth ~ U(-pi, pi), so they
    are uniform in (r, azimuth), not in area, with score drawn from
    U(0.1, 0.9).  Class probabilities have one entry per class id up to
    the largest in the scene (one entry for a scene without objects).

    Only the random draws run object by object, in a fixed order: per
    frame, a drop draw and nine normals for each object (dropped or not),
    then the frame's false positives.  The noise and the checks then run
    once over all kept rows (see ``_noisy_rows``).
    """
    if noise.false_positive_rate > 0.0 and range_config.r_max < _PLACEMENT_FLOOR:
        raise ValueError(f"render_detections: false positives need r_max >= the {_PLACEMENT_FLOOR:g} m "
                         "placement floor")
    n_classes = int(scene.classes.max()) + 1 if len(scene.classes) else 1
    rng = np.random.default_rng(noise.seed)
    random, standard_normal, uniform = rng.random, rng.standard_normal, rng.uniform
    drop_draws, draws = [], np.empty((len(scene.ids), 9))
    fp_frames, fp_fields, fp_labels, fp_scores = [], [], [], []  # fields: r, azimuth, yaw, z, l, w, h
    rows = iter(draws)
    for f, count in enumerate(scene.counts.tolist()):
        for row in itertools.islice(rows, count):
            drop_draws.append(random())  # the double of uniform()
            standard_normal(out=row)  # normal(0.0, 1.0, size=9) once 0.0 is added below
        for _ in range(int(rng.poisson(noise.false_positive_rate))):
            fp_fields.append([uniform(_PLACEMENT_FLOOR, range_config.r_max), uniform(-math.pi, math.pi),
                              uniform(-math.pi, math.pi), uniform(range_config.z_min + 0.1, range_config.z_max - 0.1),
                              *(uniform(low, high) for low, high in _SIZE_RANGES)])
            fp_labels.append(int(rng.integers(0, n_classes)))
            fp_scores.append(uniform(0.1, 0.9))
            fp_frames.append(f)
    kept = np.array(drop_draws) >= noise.drop_prob
    boxes, velocities = _noisy_rows(scene.boxes[kept], scene.velocities[kept], draws[kept] + 0.0, noise)
    r, a, yaw, z, l, w, h = np.reshape(fp_fields, (-1, 7)).T
    fp_boxes = np.column_stack([r, _libm(math.sin, a), _libm(math.cos, a), z, l, w, h,
                                _libm(math.sin, yaw), _libm(math.cos, yaw)])
    # each frame's kept objects, then its false positives
    frames = np.concatenate([np.repeat(np.arange(len(scene.counts)), scene.counts)[kept],
                             np.array(fp_frames, dtype=np.intp)])
    order = np.argsort(frames, kind="stable")
    labels = np.concatenate([scene.classes[kept], np.array(fp_labels, dtype=np.int64)])[order]
    return DetectionSet.from_arrays(
        scene.times, np.bincount(frames, minlength=len(scene.counts)), np.concatenate([boxes, fp_boxes])[order],
        np.eye(n_classes)[labels], np.concatenate([velocities, np.zeros((len(fp_scores), 2))])[order],
        np.concatenate([np.ones(len(boxes)), fp_scores])[order],
    )
