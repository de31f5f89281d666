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
round-trips float64 exactly and keeps outputs byte-stable.  The writer
fills each list of per-box records (scene objects, detections, track
records, assign pairs) from one ``%`` template; any list it cannot fill
that way goes through the per-item path unchanged.

Both loaders read a whole file into one array per key and check it once,
with no per-object record: a scene becomes frame times, per-frame object
counts, ego rotations (F, 3, 3) and translations (F, 3), and object ids
(M,), classes (M,), boxes (M, 7) and velocities (M, 2) over all frames,
checked by ``simulator.Scene.from_arrays``; detections become times,
counts, boxes (N, 9), probs (N, C), velocities (N, 2) and scores (N,),
checked by ``simulator.DetectionSet.from_arrays``.  Each frame is a
read-only slice of those arrays.  Where the schema holds a number, the
loaders accept only a JSON number that is a finite float64 (no string,
``null``, boolean, nested list or integer beyond the float range), and
ids, classes and image sizes must be JSON integers that fit in 64 bits;
classes index class probabilities, so they must also be >= 0.  Every
loading error is a ValueError that starts with the file kind (``scene
file:`` or ``detections file:``); one for a missing key, or for a value
of the wrong JSON type or length, names the key.

A track file (``polarview track --out``) is a detections file whose
records also carry ``"track_id"`` and which has a top-level ``"summary"``
object; the loaders ignore both keys, so it loads as detections.
"""

from __future__ import annotations

import contextlib
import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .camera import CameraModel, Rig
from .simulator import DetectionSet, Scene

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


def _same_keyed_records(obj: list | tuple, pad: str) -> str | None:
    """The dicts ``obj`` at ``pad`` from one ``%`` template, or None if ``dumps_json`` writes them one by one."""
    if not obj[0] or len(set(map(tuple, obj))) != 1 or set(map(type, obj[0])) != {str}:
        return None
    slots, columns = [], []  # a column holds one sequence of values per record
    for column in zip(*map(dict.values, obj)):
        kinds = set(map(type, column))
        if kinds == {int}:
            slots.append("%d")
            columns.append(zip(column))
        elif kinds == {str}:
            slots.append("%s")
            columns.append(zip(map(_encode_str, column)))
        elif kinds == {float} or kinds == {list} and len(set(map(len, column))) == 1:
            rows = list(zip(column)) if kinds == {float} else column
            floats = list(chain.from_iterable(rows))
            if not set(map(type, floats)) <= {float} or not all(map(math.isfinite, floats)):
                return None
            if 0.0 in floats:  # + 0.0 canonicalizes -0.0
                rows = [[x + 0.0 for x in row] for row in rows]
            slot = ", ".join(["%.17g"] * len(rows[0]))
            slots.append(slot if kinds == {float} else "[" + slot + "]")
            columns.append(rows)
        else:
            return None
    inner, field_pad = pad + "  ", pad + "    "
    fields = [_encode_str(k).replace("%", "%%") + ": " + slot for k, slot in zip(obj[0], slots)]
    item = "{\n" + field_pad + (",\n" + field_pad).join(fields) + "\n" + inner + "}"
    template = "[\n" + inner + (",\n" + inner).join([item] * len(obj)) + "\n" + pad + "]"
    return template % tuple(chain.from_iterable(chain.from_iterable(zip(*columns))))


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
        elif types == {dict} and (text := _same_keyed_records(obj, pad)) is not None:
            out.append(text)
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


def dumps_json(obj: Any) -> str:
    """Serialize to JSON with floats at 17 significant digits.

    The stdlib encoder offers no hook for float formatting, so this is a
    small writer over the plain dict/list/scalar values used by the
    schemas here.  It visits each value once, appending to one list that
    is joined at the end: exact ``float``/``int``/``str``/``bool``/``None``
    values dispatch on ``type()``, numpy scalars and subclasses go through
    ``isinstance``, and a list holding no dict, list or tuple is written
    on one line with a single join.  A list of same-keyed records (dicts
    with one order of ``str`` keys, each key's values all exact ``float``,
    ``int`` or ``str``, or all lists of one length of ``float``, every
    float finite) is written with one ``%`` template: ``%.17g``, ``%d``
    and ``%s`` give ``format``'s and ``str``'s bytes.  Any other list,
    including one with a bad value, takes the per-item path, so a
    non-finite float raises ``ValueError`` and any other type
    (``np.bool_``, ``set``, ``bytes``, ...) ``TypeError`` at the first
    such value in document order.
    """
    out: list[str] = []
    _write(obj, "", out)
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
    ((fx, fy, cx, cy),) = _number_rows([d["intrinsics"]], "camera intrinsics", 4).tolist()
    extrinsics = _objects([d["extrinsics"]], "camera extrinsics")[0]
    size = d["image_size"]
    if type(size) is not list or len(size) != 2:
        raise ValueError(f"camera image_size must be two JSON integers, got {size!r}")
    width, height = _integers(size, "camera image_size").tolist()
    return CameraModel(
        fx=fx,
        fy=fy,
        cx=cx,
        cy=cy,
        rotation=_number_rows([extrinsics["rotation"]], "camera rotation", 9).reshape(3, 3),
        translation=_number_rows([extrinsics["translation"]], "camera translation", 3)[0],
        width=width,
        height=height,
    )


def scene_to_dict(scene: Scene) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rig": [_camera_to_dict(cam) for cam in scene.rig.cameras],
        "frames": [
            {
                "t": frame.t,
                "ego_pose": {
                    "rotation": frame.pose_rotation.reshape(-1).tolist(),
                    "translation": frame.pose_translation.tolist(),
                },
                "objects": [
                    {"id": i, "class": c, "box": box, "velocity": velocity}
                    for i, c, box, velocity in zip(
                        frame.ids.tolist(),
                        frame.classes.tolist(),
                        frame.boxes.tolist(),
                        frame.velocities.tolist(),
                    )
                ],
            }
            for frame in scene.frames
        ],
    }


@contextlib.contextmanager
def _file_kind(kind: str):
    """Name the ``kind`` of file in a ValueError raised while loading one, and report a missing key as one."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{kind} file: missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{kind} file: {exc}") from None


def _check_version(d: Any) -> None:
    if not isinstance(d, dict):
        raise ValueError("expected a JSON object at the top level")
    version = d["schema_version"]
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")


def _objects(values: list, name: str) -> list:
    """``values``, each of which must be a JSON object."""
    if not set(map(type, values)) <= {dict}:
        raise ValueError(f"{name} must be a JSON object")
    return values


def _records(lists: list, name: str) -> list:
    """The JSON objects in ``lists`` in order; each of ``lists`` must be a list of JSON objects."""
    rows = list(chain.from_iterable(lists)) if set(map(type, lists)) <= {list} else [None]
    if not set(map(type, rows)) <= {dict}:
        raise ValueError(f"{name} must be a list of JSON objects")
    return rows


def _numbers(values: list, name: str) -> np.ndarray:
    """float64 array of a list of JSON numbers, each finite as a float64."""
    if not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{name} values must be JSON numbers")
    try:
        a = np.array(values, dtype=np.float64)
        if np.isfinite(a).all():
            return a
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{name} values must be finite float64 numbers")


def _number_rows(rows: list, name: str, width: int | None = None) -> np.ndarray:
    """(len(rows), width) float64 array of lists of ``width`` JSON numbers (default: the first row's length)."""
    if not set(map(type, rows)) <= {list}:
        raise ValueError(f"{name} must be lists of JSON numbers")
    if width is None:
        width = len(rows[0]) if rows else 0
    if not set(map(len, rows)) <= {width}:
        raise ValueError(f"{name} lists must all hold {width} values")
    return _numbers(list(chain.from_iterable(rows)), name).reshape(len(rows), width)


def _integers(values: list, name: str) -> np.ndarray:
    """int64 array of a list of JSON integers."""
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{name} must be JSON integers")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} must fit in 64 bits") from None


def scene_from_dict(d: dict) -> Scene:
    with _file_kind("scene"):
        _check_version(d)
        rig = Rig(tuple(map(_camera_from_dict, _records([d["rig"]], "rig"))))
        frames = _records([d["frames"]], "frames")
        poses = _objects([fd["ego_pose"] for fd in frames], "ego_pose")
        objects = [fd["objects"] for fd in frames]
        rows = _records(objects, "objects")
        return Scene.from_arrays(
            rig,
            _numbers([fd["t"] for fd in frames], "frame t"),
            list(map(len, objects)),
            _number_rows([p["rotation"] for p in poses], "ego_pose rotation", 9).reshape(-1, 3, 3),
            _number_rows([p["translation"] for p in poses], "ego_pose translation", 3),
            _integers([od["id"] for od in rows], "object id"),
            _integers([od["class"] for od in rows], "object class"),
            _number_rows([od["box"] for od in rows], "object box", 7),
            _number_rows([od["velocity"] for od in rows], "object velocity", 2),
        )


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


def detections_from_dict(d: dict) -> DetectionSet:
    with _file_kind("detections"):
        _check_version(d)
        frames = _records([d["frames"]], "frames")
        records = [fd["detections"] for fd in frames]
        rows = _records(records, "detections")
        return DetectionSet.from_arrays(
            _numbers([fd["t"] for fd in frames], "detections frame t"),
            list(map(len, records)),
            _number_rows([rec["box"] for rec in rows], "detection box", 9),
            _number_rows([rec["probs"] for rec in rows], "detection probs"),
            _number_rows([rec["velocity"] for rec in rows], "detection velocity", 2),
            _numbers([rec["score"] for rec in rows], "detection score"),
        )


def _reject_constant(name: str) -> None:
    raise ValueError(f"JSON input holds {name}; numbers must be finite")


def read_json(path: str) -> Any:
    """Parse a UTF-8 JSON file, refusing ``NaN``/``Infinity``; every error in the text names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:  # a syntax or encoding error, or NaN/Infinity
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nesting too deep to parse") from None


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(scene_to_dict(scene)) + "\n")


def load_scene(path: str) -> Scene:
    with _file_kind("scene"):
        d = read_json(path)
    return scene_from_dict(d)


def save_detections(dets: DetectionSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(detections_to_dict(dets)) + "\n")


def load_detections(path: str) -> DetectionSet:
    with _file_kind("detections"):
        d = read_json(path)
    return detections_from_dict(d)
