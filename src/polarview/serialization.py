"""Scene / detection JSON persistence and report writers.

The scene schema (version 1):

    {"schema_version": 1,
     "rig": [{"intrinsics": [fx, fy, cx, cy],
              "extrinsics": {"rotation": [9 floats, row-major],
                             "translation": [3 floats]},
              "image_size": [w, h]}],
     "frames": [{"t": ..., "ego_pose": {"rotation": ..., "translation": ...},
                 "objects": [{"id": ..., "class": ...,
                              "box": [x, y, z, l, w, h, yaw],
                              "velocity": [vx, vy]}]}]}

Detections mirror it with polar boxes [r, sin_a, cos_a, z, l, w, h,
sin_t, cos_t], a score, a class-probability vector and velocity
[v_rad, v_tan].  Floats are emitted with 17 significant digits, which
round-trips float64 exactly and keeps outputs byte-stable.

Each detections frame loads as one ``simulator.DetectionFrame``: boxes
(N, 9), probs (N, C), velocities (N, 2) and scores (N,) arrays, one
``np.array`` call per key, with no per-record object.  Where the schema
holds a number, both loaders refuse JSON strings and ``null``.

A track file (``polarview track --out``) is a detections file whose
records also carry ``"track_id"`` and which has a top-level ``"summary"``
object; the loaders ignore both keys, so it loads as detections.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .camera import CameraModel, EgoPose, Rig
from .geometry import CartesianBox, CartesianVelocity
from .simulator import (
    DetectionFrame,
    DetectionSet,
    Scene,
    SceneFrame,
    SceneObject,
)

__all__ = [
    "SCHEMA_VERSION",
    "dumps_json",
    "scene_to_dict",
    "scene_from_dict",
    "detections_to_dict",
    "detections_from_dict",
    "save_scene",
    "load_scene",
    "save_detections",
    "load_detections",
    "read_json",
]

SCHEMA_VERSION = 1


_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps does for a str
_CONTAINERS = (dict, list, tuple)


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(x + 0.0, ".17g")  # + 0.0 canonicalizes -0.0


def _scalar(x: Any) -> str:
    t = type(x)
    if t is float:
        return _format_float(x)
    if t is int:
        return str(x)
    if t is str:
        return _encode_str(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    # numpy scalars and subclasses; np.bool_ is none of these and is refused
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _format_float(float(x))
    if isinstance(x, str):
        return _encode_str(x)
    raise TypeError(f"unsupported JSON value of type {type(x)!r}")


def _write(obj: Any, pad: str, out: list[str]) -> None:
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in obj.items():
            out.append(sep)
            out.append(_encode_str(str(k)))
            out.append(": ")
            _write(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        types = set(map(type, obj))
        if types == {float}:
            if not all(map(math.isfinite, obj)):
                raise ValueError("cannot serialize non-finite float")
            out.append("[" + ", ".join([format(x + 0.0, ".17g") for x in obj]) + "]")
        elif not any(issubclass(t, _CONTAINERS) for t in types):
            out.append("[" + ", ".join(map(_scalar, obj)) + "]")
        else:
            inner = pad + "  "
            sep = "[\n" + inner
            for v in obj:
                out.append(sep)
                _write(v, inner, out)
                sep = ",\n" + inner
            out.append("\n" + pad + "]")
    else:
        out.append(_scalar(obj))


def dumps_json(obj: Any, indent: int = 0) -> str:
    """Serialize to JSON with floats at 17 significant digits.

    The stdlib encoder offers no hook for float formatting, so this is a
    small writer over the plain dict/list/scalar values used by the
    schemas here.  It visits each value once, appending to one list that
    is joined at the end: exact ``float``/``int``/``str``/``bool``/``None``
    values dispatch on ``type()``, numpy scalars and subclasses go through
    ``isinstance``, and a list holding no dict, list or tuple is written
    on one line with a single join.  A non-finite float raises
    ``ValueError`` and any other type (``np.bool_``, ``set``, ``bytes``,
    ...) raises ``TypeError``.
    """
    out: list[str] = []
    _write(obj, " " * indent, out)
    return "".join(out)


def _camera_to_dict(cam: CameraModel) -> dict:
    return {
        "intrinsics": [cam.fx, cam.fy, cam.cx, cam.cy],
        "extrinsics": {
            "rotation": cam.rotation.reshape(-1).tolist(),
            "translation": cam.translation.tolist(),
        },
        "image_size": [cam.width, cam.height],
    }


def _camera_from_dict(d: dict) -> CameraModel:
    fx, fy, cx, cy = d["intrinsics"]
    size = d["image_size"]
    if type(size) is not list or len(size) != 2:
        raise ValueError(f"camera image_size must be two JSON integers, got {size!r}")
    width, height = (_json_int(v, "camera image_size") for v in size)
    return CameraModel(
        fx=fx,
        fy=fy,
        cx=cx,
        cy=cy,
        rotation=np.array(d["extrinsics"]["rotation"], dtype=np.float64).reshape(3, 3),
        translation=np.array(d["extrinsics"]["translation"], dtype=np.float64),
        width=width,
        height=height,
    )


def _pose_to_dict(pose: EgoPose) -> dict:
    return {
        "rotation": pose.rotation.reshape(-1).tolist(),
        "translation": pose.translation.tolist(),
    }


def _pose_from_dict(d: dict, dt: float) -> EgoPose:
    return EgoPose(
        rotation=np.array(d["rotation"], dtype=np.float64).reshape(3, 3),
        translation=np.array(d["translation"], dtype=np.float64),
        dt=dt,
    )


def scene_to_dict(scene: Scene) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rig": [_camera_to_dict(cam) for cam in scene.rig.cameras],
        "frames": [
            {
                "t": frame.t,
                "ego_pose": _pose_to_dict(frame.ego_pose),
                "objects": [
                    {
                        "id": obj.object_id,
                        "class": obj.label,
                        "box": [
                            obj.box.x,
                            obj.box.y,
                            obj.box.z,
                            obj.box.l,
                            obj.box.w,
                            obj.box.h,
                            obj.box.yaw,
                        ],
                        "velocity": [obj.velocity.v_x, obj.velocity.v_y],
                    }
                    for obj in frame.objects
                ],
            }
            for frame in scene.frames
        ],
    }


def _check_version(d: Any) -> None:
    if not isinstance(d, dict):
        raise ValueError("expected a JSON object at the top level")
    version = d.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")


def _json_int(value: Any, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_float(value: Any, name: str) -> float:
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def scene_from_dict(d: dict) -> Scene:
    _check_version(d)
    rig = Rig(tuple(_camera_from_dict(c) for c in d["rig"]))
    frames = []
    for fd in d["frames"]:
        objects = tuple(
            SceneObject(
                object_id=_json_int(od["id"], "object id"),
                label=_json_int(od["class"], "object class"),
                box=CartesianBox(*[_json_float(v, "object box") for v in od["box"]]),
                velocity=CartesianVelocity(*[_json_float(v, "object velocity") for v in od["velocity"]]),
            )
            for od in fd["objects"]
        )
        t = _json_float(fd["t"], "frame t")
        frames.append(SceneFrame(t=t, ego_pose=_pose_from_dict(fd["ego_pose"], dt=t), objects=objects))
    return Scene(rig=rig, frames=tuple(frames))


def detections_to_dict(dets: DetectionSet) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "frames": [
            {
                "t": frame.t,
                "detections": [
                    {"box": box, "score": score, "probs": probs, "velocity": velocity}
                    for box, score, probs, velocity in zip(
                        frame.boxes.tolist(),
                        frame.scores.tolist(),
                        frame.probs.tolist(),
                        frame.velocities.tolist(),
                    )
                ],
            }
            for frame in dets.frames
        ],
    }


def _detection_frame(fd: dict) -> DetectionFrame:
    t = _json_float(fd["t"], "detections frame t")
    records = fd["detections"]
    if not records:
        return DetectionFrame(t)
    columns = [np.array([rec[key] for rec in records]) for key in ("box", "probs", "velocity", "score")]
    if any(column.dtype.kind not in "fiu" for column in columns):
        raise ValueError("detection box, probs, velocity and score values must be JSON numbers")
    return DetectionFrame.from_arrays(t, *columns)


def detections_from_dict(d: dict) -> DetectionSet:
    _check_version(d)
    return DetectionSet(frames=tuple(_detection_frame(fd) for fd in d["frames"]))


def _reject_constant(name: str) -> None:
    raise ValueError(f"JSON input holds {name}; numbers must be finite")


def read_json(path: str) -> Any:
    """Parse a JSON file, refusing ``NaN``/``Infinity`` and nesting too deep to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError(f"{path}: JSON nesting too deep to parse") from None


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(scene_to_dict(scene)) + "\n")


def load_scene(path: str) -> Scene:
    return scene_from_dict(read_json(path))


def save_detections(dets: DetectionSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(detections_to_dict(dets)) + "\n")


def load_detections(path: str) -> DetectionSet:
    return detections_from_dict(read_json(path))
