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
round-trips float64 exactly and keeps outputs byte-stable.  The savers
(and ``polarview track`` and ``assign``) write the per-box records of a
file (scene objects, detections, track records, assign pairs) from one
record table built from the file's column arrays, which the writer
fills frame by frame from one ``%`` template.  Most of a file's floats
repeat (sizes, z and velocities in every frame, one-hot probabilities,
scores of 1), so the table formats each distinct float once and writes
that text at every occurrence; the same formatter runs on the same
doubles, so the bytes do not change.  ``scene_to_dict`` and
``detections_to_dict`` are the saved file read back: ``json.loads`` of
the saver's text, so a float written as an integer (``-0.0`` as ``0``)
comes back as an ``int`` equal to it.

Both loaders read a whole file into one array per key and check it once,
with no per-object record: a scene's frame times, per-frame object counts,
ego rotations (F, 3, 3) and translations (F, 3), and object ids (M,),
classes (M,), boxes (M, 7) and velocities (M, 2) over all frames
(``simulator.Scene.from_arrays``); detections' times, counts, boxes (N, 9),
probs (N, C), velocities (N, 2) and scores (N,) (``DetectionSet``).  The set
keeps them as its columns: ``stacked`` returns them as stored, and frames,
slices of them, are built on first access.  orjson parses the text, with the
stdlib's floats bit for bit; a file whose load raises is loaded again
through :func:`read_json`, so every error is the stdlib's.  Where the
schema holds a number, the loaders accept only a JSON number that is a
finite float64 (no string, ``null``, boolean, nested list or integer
beyond the float range), and ids, classes and image sizes must be JSON
integers that fit in 64 bits; classes index class probabilities, so they
must also be >= 0.  Every loading error is a ValueError that starts with
the file kind (``scene file:`` or ``detections file:``); one for a
missing key, or for a value of the wrong JSON type or length, names the
key.

A track file (``polarview track --out``) is a detections file whose
records also carry ``"track_id"`` and which has a top-level ``"summary"``
object; the loaders ignore both keys, so it loads as detections.  An
ignored key may nest deeper than :func:`read_json` can parse.
"""

from __future__ import annotations

import contextlib
import json
import math
from itertools import chain, repeat
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


class _RecordTable:
    """The same-keyed records of one output file as checked columns, split into frames.

    Frame f holds the next ``counts[f]`` records.  ``columns`` maps each
    record key, in record order, to the key's values for all records: one
    (N,) or (N, k) array; an (N, k) column's records hold lists of k
    values.  Float columns (float16 and float32 too, each value taken as
    the double it equals) are checked finite and written at 17 significant
    digits, ``-0.0`` as ``0``: ``-0.0`` is made ``0.0`` first, then one
    ``np.unique`` over the values of all float columns gives the distinct
    doubles, which are formatted with one ``%`` call, and each float slot
    takes its value's text through the inverse.  Integer columns, signed
    or unsigned, are written exactly.  A column of any other dtype is
    written value by value through the scalar path.  A table with a
    non-finite float or such a column is first walked value by value in
    document order, so it raises what :func:`dumps_json` raises for the
    same records, at the same value: ``ValueError`` "cannot serialize
    non-finite float", or ``TypeError`` for a boolean or complex value.
    Iterating gives one value per frame that :func:`dumps_json` writes as
    that frame's list of records, filled at its indentation from one item
    template with a single ``%``.
    """

    def __init__(self, counts, columns: dict[str, np.ndarray]) -> None:
        self.bounds = [0, *np.cumsum(counts, dtype=np.int64).tolist()]
        n = self.bounds[-1]
        if not all(w.dtype.kind in "iu" or w.dtype.kind == "f" and np.isfinite(w).all() for w in columns.values()):
            for value in chain.from_iterable(map(np.atleast_1d, chain.from_iterable(zip(*columns.values())))):
                _scalar(value)  # raises the scalar path's error at the first bad value in document order
        floats = [w.reshape(-1) + 0.0 for w in columns.values() if w.dtype.kind == "f"]  # + 0.0 canonicalizes -0.0
        distinct, inverse = np.unique(np.concatenate([np.zeros(0), *floats]), return_inverse=True)
        text = np.array(("%.17g " * len(distinct) % tuple(distinct.tolist())).split(), dtype=object)[inverse]
        slots, parts, at = [], [], 0
        for whole in columns.values():
            kind = whole.dtype.kind
            if kind == "f":  # each distinct float formatted once
                whole, at = text[at : at + whole.size].reshape(whole.shape), at + whole.size
            elif kind not in "iu":
                whole = np.array(list(map(_scalar, whole.reshape(-1))), dtype=object).reshape(whole.shape)
            slot = "%d" if kind in "iu" else "%s"  # an (N, k) column's records hold lists of k
            slots.append("[" + ", ".join([slot] * whole.shape[1]) + "]" if whole.ndim == 2 else slot)
            parts.append(whole if whole.ndim == 2 else whole[:, None])
        rows = np.empty((n, sum(a.shape[1] for a in parts)), dtype=object)
        np.concatenate(parts, axis=1, out=rows)
        self.values = rows.reshape(-1).tolist()
        self.width = rows.shape[1]
        self.fields = [_encode_str(k).replace("%", "%%") + ": " + slot for k, slot in zip(columns, slots)]

    def __iter__(self):
        return map(_FrameRecords, repeat(self), self.bounds, self.bounds[1:])

    def text(self, lo: int, hi: int, pad: str) -> str:
        """Records ``lo:hi`` as a JSON list at indentation ``pad``."""
        if lo == hi:
            return "[]"
        inner, field_pad = pad + "  ", pad + "    "
        item = "{\n" + field_pad + (",\n" + field_pad).join(self.fields) + "\n" + inner + "}"
        template = "[\n" + inner + (",\n" + inner).join([item] * (hi - lo)) + "\n" + pad + "]"
        return template % tuple(self.values[lo * self.width : hi * self.width])


class _FrameRecords:
    """One frame's rows ``lo:hi`` of a :class:`_RecordTable`."""

    __slots__ = ("table", "lo", "hi")

    def __init__(self, table: _RecordTable, lo: int, hi: int) -> None:
        self.table, self.lo, self.hi = table, lo, hi


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
        if not any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
            out.append("[" + ", ".join(map(_scalar, obj)) + "]")
        else:
            inner = pad + "  "
            sep = "[\n" + inner
            for v in obj:
                out.append(sep)
                _write(v, inner, out)
                sep = ",\n" + inner
            out.append("\n" + pad + "]")
    elif type(obj) is _FrameRecords:
        out.append(obj.table.text(obj.lo, obj.hi, pad))
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
    on one line with a single join.  Every float goes through one
    formatter, except in a frame's records of a record table (the savers'
    files), which are written from the table's ``%`` template: the table
    formats each of its distinct floats once with ``%.17g``, and ``%.17g``
    and ``%d`` give ``format``'s and ``str``'s bytes.  A
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


def _scene_document(scene: Scene) -> dict:
    """The scene file's document, each frame's objects from one :class:`_RecordTable` of the object columns."""
    counts, *columns = scene.stacked("ids", "classes", "boxes", "velocities")
    objects = _RecordTable(counts, dict(zip(("id", "class", "box", "velocity"), columns)))
    return {
        "schema_version": SCHEMA_VERSION,
        "rig": [_camera_to_dict(cam) for cam in scene.rig.cameras],
        "frames": [
            {"t": t, "ego_pose": {"rotation": rotation, "translation": translation}, "objects": rows}
            for t, rotation, translation, rows in zip(
                scene.times.tolist(), scene.pose_rotations.reshape(-1, 9).tolist(),
                scene.pose_translations.tolist(), objects,
            )
        ],
    }


def scene_to_dict(scene: Scene) -> dict:
    """What ``json.load`` reads from the :func:`save_scene` file: an integral float comes back as an ``int``."""
    return json.loads(dumps_json(_scene_document(scene)))


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


def _detections_document(dets: DetectionSet, leading: dict[str, np.ndarray]) -> dict:
    """The detections file's document, each frame's detections from one :class:`_RecordTable` of the
    ``leading`` columns followed by the detection columns."""
    counts, *columns = dets.stacked("boxes", "scores", "probs", "velocities")
    detections = _RecordTable(counts, {**leading, **dict(zip(("box", "score", "probs", "velocity"), columns))})
    return {
        "schema_version": SCHEMA_VERSION,
        "frames": [{"t": t, "detections": rows} for t, rows in zip(dets.times.tolist(), detections)],
    }


def detections_to_dict(dets: DetectionSet) -> dict:
    """What ``json.load`` reads from the :func:`save_detections` file: an integral float comes back as an ``int``."""
    return json.loads(dumps_json(_detections_document(dets, {})))


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
        fh.write(dumps_json(_scene_document(scene)) + "\n")


def _load(path: str, kind: str, from_dict):
    """``from_dict`` of the file's document as orjson parses it; if that raises, as :func:`read_json` parses it.

    orjson words its errors otherwise, refuses some text the stdlib accepts
    (a lone surrogate escape, ``1e400``, a BOM) and reads integers outside
    [-2**63, 2**64) as floats, so on any error the stdlib's outcome stands.
    """
    import orjson  # only here: a command that reads no file does not load it

    with contextlib.suppress(Exception), open(path, "rb") as fh:
        return from_dict(orjson.loads(fh.read()))
    with _file_kind(kind):
        d = read_json(path)
    return from_dict(d)


def load_scene(path: str) -> Scene:
    return _load(path, "scene", scene_from_dict)


def save_detections(dets: DetectionSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(_detections_document(dets, {})) + "\n")


def load_detections(path: str) -> DetectionSet:
    return _load(path, "detections", detections_from_dict)
