"""Synthetic surround-view scenes: moving objects, ego motion, noisy detections.

A scene holds a camera rig and a list of frames.  Objects move with
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

import numpy as np

from .camera import EgoPose, Rig, _check_poses, make_symmetric_rig, rotation_about_z
from .geometry import (
    _PAIR_TOL,
    CartesianBox,
    CartesianVelocity,
    PolarBox,
    PolarVelocity,
    RangeConfig,
    polar_fields,
    rotate_planar,
    wrap_angle,
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


def _check_times(times: list[float], owner: str) -> None:
    if not all(map(math.isfinite, times)) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"{owner}: timestamps must be finite and strictly increase")


def _fill(frame, t: float, *arrays: np.ndarray):
    """Set a frozen frame's ``t`` and its array fields in declaration order; the caller checked the rows."""
    for name, value in zip(frame.__dataclass_fields__, (float(t), *arrays)):
        object.__setattr__(frame, name, value)
    return frame


def _frames(cls, times, counts, rows: list[np.ndarray], *per_frame) -> tuple:
    """Frames of ``cls`` holding ``times[f]``, each ``per_frame[k][f]`` and the next ``counts[f]`` checked rows."""
    times = [float(t) for t in times]
    bounds = [0, *itertools.accumulate(counts)]
    if len(counts) != len(times) or any(c < 0 for c in counts) or bounds[-1] != len(rows[0]):
        raise ValueError(f"{cls.__name__}: need one nonnegative row count per frame, adding up to the rows")
    return tuple(
        _fill(cls.__new__(cls), t, *(p[f] for p in per_frame), *(a[lo:hi] for a in rows))
        for f, (t, lo, hi) in enumerate(zip(times, bounds, bounds[1:]))
    )


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
    Loaded and generated frames are slices of whole-scene arrays that
    :meth:`Scene.from_arrays` checked once.  ``SceneFrame(t, ego_pose,
    objects)`` stacks objects; :attr:`objects` and :attr:`ego_pose` rebuild them.
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
        _fill(self, t, rotation[0], translation[0], *rows)

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


@dataclass(frozen=True)
class Scene:
    rig: Rig
    frames: tuple[SceneFrame, ...]

    def __post_init__(self) -> None:
        _check_times([f.t for f in self.frames], "Scene")
        if any(len(set(f.ids.tolist())) != len(f) for f in self.frames):
            raise ValueError("Scene: object ids must be unique within a frame")

    @classmethod
    def from_arrays(cls, rig: Rig, times, counts, rotations, translations, ids, classes, boxes, velocities):
        """A scene from whole-scene arrays, each check run once over all rows, sliced into frames.

        Frame f holds ``times[f]``, pose ``rotations[f]`` (3, 3) and
        ``translations[f]`` (3,), and the next ``counts[f]`` object rows.
        """
        arrays = rotations, translations, ids, classes, boxes, velocities
        rotations, translations, *rows = _scene_rows(len(times), *arrays)
        return cls(rig=rig, frames=_frames(SceneFrame, times, counts, rows, rotations, translations))


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
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False, init=False)
class DetectionFrame:
    """One frame of detections as four read-only arrays.

    ``boxes`` (N, 9) in ``geometry.POLAR_FIELDS`` order, class ``probs``
    (N, C), ``velocities`` (N, 2) as (v_rad, v_tan) and ``scores`` (N,).
    :meth:`from_arrays` checks all rows in one pass as :class:`PolarBox`,
    :class:`PolarVelocity` and :class:`Detection` check one record, each
    failure a ValueError; :meth:`DetectionSet.from_arrays` runs the same
    check once for a whole file.  ``DetectionFrame(t, detections)`` stacks
    :class:`Detection` objects; :attr:`detections` rebuilds them.
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
        _fill(self, t, *_detection_rows(boxes, probs, velocities, [d.score for d in dets]))

    @classmethod
    def from_arrays(cls, t: float, boxes, probs, velocities, scores) -> "DetectionFrame":
        return _fill(cls.__new__(cls), t, *_detection_rows(boxes, probs, velocities, scores))

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


@dataclass(frozen=True)
class DetectionSet:
    frames: tuple[DetectionFrame, ...]

    def __post_init__(self) -> None:
        _check_times([f.t for f in self.frames], "DetectionSet")
        sizes = {f.probs.shape[1] for f in self.frames if len(f)}
        if len(sizes) > 1:
            raise ValueError(f"DetectionSet: probs lengths differ: {sorted(sizes)}")

    @classmethod
    def from_arrays(cls, times, counts, boxes, probs, velocities, scores) -> "DetectionSet":
        """A detection set from whole-file arrays, sliced into frames after one check of all rows.

        Frame f holds ``times[f]`` and the next ``counts[f]`` rows; the check
        is the one :meth:`DetectionFrame.from_arrays` makes for a frame.
        """
        return cls(_frames(DetectionFrame, times, counts, _detection_rows(boxes, probs, velocities, scores)))


_NOISE_MODES = ("polar", "cartesian")


@dataclass(frozen=True)
class NoiseModel:
    """Perturbation model for rendering detections from ground truth.

    Stds: radial (m), tangential angle (rad), z (m), size (relative,
    log-space), yaw (rad), velocity components (m/s).  ``drop_prob``
    removes true objects; ``false_positive_rate`` is the expected number
    of spurious detections per frame (Poisson).  ``mode`` selects polar
    (default) or cartesian position noise.
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
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("NoiseModel: drop_prob must lie in [0, 1]")
        if self.mode not in _NOISE_MODES:
            raise ValueError("NoiseModel: mode must be 'polar' or 'cartesian'")


_EGO_MOTIONS = ("static", "straight", "arc")


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
        if self.r_max <= 2.0:
            raise ValueError("SceneConfig: r_max must exceed the 2 m placement floor")
        if not 0.0 <= self.speed_min <= self.speed_max:
            raise ValueError("SceneConfig: need 0 <= speed_min <= speed_max")
        if self.ego_motion not in _EGO_MOTIONS:
            raise ValueError("SceneConfig: unknown ego_motion")


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
        r = rng.uniform(2.0, config.r_max)
        a = rng.uniform(-math.pi, math.pi)
        z = rng.uniform(-1.0, 1.0)
        l = rng.uniform(3.0, 5.0)
        w = rng.uniform(1.5, 2.2)
        h = rng.uniform(1.3, 2.0)
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
    yaws = [wrap_angle(a) for a in (yaw0 - np.array(psis)[:, None]).reshape(-1).tolist()]
    sizes = np.broadcast_to(np.stack([l, w, h], axis=-1), (n_frames, m, 3))
    boxes = np.concatenate([p_ego, sizes, np.reshape(yaws, (n_frames, m, 1))], axis=-1)
    return Scene.from_arrays(rig, times, [m] * n_frames, rz, ego_pos, np.tile(np.arange(m), n_frames),
                             np.tile(labels, n_frames), boxes.reshape(-1, 7), v_ego.reshape(-1, 2))


def rotate_scene(scene: Scene, phi: float) -> Scene:
    """Rotate all scene content by ``phi`` about the frame-0 ego z axis.

    Object positions, velocities and yaws rotate within every frame's ego
    coordinates; ego pose translations rotate and pose rotations are
    conjugated (a no-op for planar yaw-only motion).  The rig is
    unchanged, so the rotated scene probes view symmetry.
    """
    frames = scene.frames
    if not frames:
        return scene
    rz = rotation_about_z(phi)
    ids, classes, boxes, velocities = (
        np.concatenate([getattr(f, name) for f in frames]) for name in ("ids", "classes", "boxes", "velocities")
    )
    return Scene.from_arrays(
        scene.rig, [f.t for f in frames], [len(f) for f in frames],
        [rz @ f.pose_rotation @ rz.T for f in frames], [rz @ f.pose_translation for f in frames], ids, classes,
        np.column_stack([np.matmul(rz, boxes[:, :3, None])[..., 0], boxes[:, 3:6],
                         [wrap_angle(a + phi) for a in boxes[:, 6].tolist()]]),
        np.matmul(rz[:2, :2], velocities[..., None])[..., 0],
    )


def _noisy(value: float, name: str, low: float = -math.inf) -> float:
    """``value`` if it lies in (``low``, inf), else a ValueError naming the ``NoiseModel`` std that moved it there."""
    if not low < value < math.inf:
        raise ValueError(f"NoiseModel: {name} is too large to render: a noisy value leaves the float range")
    return value


def _noisy_size(size: float, draw: float, std: float) -> float:
    """``size * exp(draw * std)``, refused by ``_noisy`` unless finite and positive."""
    try:
        scale = math.exp(draw * std)
    except OverflowError:
        scale = math.inf
    return _noisy(size * scale, "size_rel_std", low=0.0)


def render_detections(
    scene: Scene,
    noise: NoiseModel,
    range_config: RangeConfig = RangeConfig(),
) -> DetectionSet:
    """Render a detection set from ground truth under the noise model.

    With all stds, drop probability and false-positive rate at zero the
    detections are the exact polar transforms of the ground truth with
    one-hot class probabilities and score 1.  False positives are placed
    uniformly inside the perception range with score drawn from
    U(0.1, 0.9).  Class probabilities have one entry per class id up to
    the largest in the scene (one entry for a scene without objects).
    """
    labels = [int(f.classes.max()) for f in scene.frames if len(f)]
    n_classes = max(labels) + 1 if labels else 1
    rng = np.random.default_rng(noise.seed)
    one_hot = np.eye(n_classes)
    frames = []
    for frame in scene.frames:
        boxes, labels, velocities, scores = [], [], [], []
        for label, box, (v_x, v_y) in zip(frame.classes.tolist(), frame.boxes.tolist(), frame.velocities.tolist()):
            # keep RNG consumption independent of the drop outcome
            dropped = rng.uniform() < noise.drop_prob
            draws = rng.normal(0.0, 1.0, size=9).tolist()  # floats: an overflow is refused below, not warned
            if dropped:
                continue
            r, sin_a, cos_a, z, l, w, h, sin_t, cos_t = polar_fields(*box)
            if noise.mode == "polar":
                a = _noisy(math.atan2(sin_a, cos_a) + draws[1] * noise.tangential_std, "tangential_std")
                r = _noisy(max(r + draws[0] * noise.radial_std, 1e-6), "radial_std")
            else:
                x = box[0] + draws[0] * noise.radial_std
                y = box[1] + draws[1] * noise.radial_std
                r = _noisy(max(math.hypot(x, y), 1e-6), "radial_std")
                a = math.atan2(y, x)
            if noise.tangential_std != 0.0 or noise.mode != "polar":  # else exact passthrough, no trig roundoff
                sin_a, cos_a = math.sin(a), math.cos(a)
            if noise.yaw_std > 0.0:
                yaw = wrap_angle(_noisy(box[6] + draws[6] * noise.yaw_std, "yaw_std"))
                sin_t, cos_t = math.sin(yaw), math.cos(yaw)
            v_rad, v_tan = rotate_planar(v_x, v_y, -sin_a, cos_a)
            l, w, h = (_noisy_size(s, d, noise.size_rel_std) for s, d in zip((l, w, h), draws[3:6]))
            boxes.append((r, sin_a, cos_a, _noisy(z + draws[2] * noise.z_std, "z_std"), l, w, h, sin_t, cos_t))
            labels.append(label)
            v_std = noise.velocity_std
            v_rad, v_tan = v_rad + draws[7] * v_std, v_tan + draws[8] * v_std
            velocities.append((_noisy(v_rad, "velocity_std"), _noisy(v_tan, "velocity_std")))
            scores.append(1.0)
        for _ in range(int(rng.poisson(noise.false_positive_rate))):
            r = rng.uniform(2.0, range_config.r_max)
            a = rng.uniform(-math.pi, math.pi)
            yaw = rng.uniform(-math.pi, math.pi)
            z = rng.uniform(range_config.z_min + 0.1, range_config.z_max - 0.1)
            l, w, h = rng.uniform(3.0, 5.0), rng.uniform(1.5, 2.2), rng.uniform(1.3, 2.0)
            boxes.append((r, math.sin(a), math.cos(a), z, l, w, h, math.sin(yaw), math.cos(yaw)))
            labels.append(int(rng.integers(0, n_classes)))
            velocities.append((0.0, 0.0))
            scores.append(rng.uniform(0.1, 0.9))
        boxes, velocities = np.reshape(boxes, (-1, 9)), np.reshape(velocities, (-1, 2))
        frames.append(DetectionFrame.from_arrays(frame.t, boxes, one_hot[labels], velocities, scores))
    return DetectionSet(frames=tuple(frames))
