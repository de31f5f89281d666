import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarview.camera import make_symmetric_rig
from polarview.serialization import (
    SCHEMA_VERSION,
    _RecordTable,
    detections_from_dict,
    detections_to_dict,
    dumps_json,
    load_detections,
    load_scene,
    save_detections,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)
from polarview.simulator import DetectionSet, NoiseModel, Scene, SceneConfig, generate_scene, render_detections


def make_scene(seed=0, frames=3):
    return generate_scene(
        SceneConfig(n_objects=4, n_frames=frames, seed=seed, ego_motion="arc", speed_max=6.0)
    )


class TestJsonWriter:
    def test_float_precision_roundtrips_exactly(self):
        values = [math.pi, 1/ 3, 1e-17, 123456789.123456789, 2.0**-40]
        text = dumps_json(values)
        assert json.loads(text) == values

    def test_seventeen_significant_digits(self):
        assert dumps_json(math.pi) == "3.1415926535897931"

    def test_ints_stay_ints(self):
        assert dumps_json({"a": 3, "b": 3.0})== '{\n  "a": 3,\n  "b": 3\n}'

    def test_negative_zero_canonicalized(self):
        assert dumps_json(-0.0) == "0"

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dumps_json(math.inf)

    def test_nested_structures_parse(self):
        obj = {"xs": [1.5, {"y": [True, None, "s"]}], "empty": [], "none": {}}
        assert json.loads(dumps_json(obj)) == obj


def reference_dumps(obj, indent=0):
    """The recursive writer ``dumps_json`` replaced, kept as its byte oracle."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {reference_dumps(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_dumps(v, indent) for v in obj]
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(pad + "  " + reference_dumps(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError("cannot serialize non-finite float")
        return format(float(obj) + 0.0, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unsupported JSON value of type {type(obj)!r}")


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]),
)
TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', '\\"q\\"', "\\", "é", "日本", "\n\t", "\x00", "%", "%s", "é%.17g%%"]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    FINITE_FLOATS,
    FINITE_FLOATS.map(np.float64),
    TEXT,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(TEXT, children, max_size=6),
    )


# flat number lists take the writer's own paths, so they are drawn as leaves too
VALUES = st.recursive(
    st.one_of(
        SCALARS,
        st.lists(FINITE_FLOATS, max_size=9),
        st.lists(st.one_of(FINITE_FLOATS, st.integers()), max_size=9),
    ),
    containers,
    max_leaves=40,
)


def planted(bad):
    """Values holding ``bad`` somewhere, with only valid values written before it."""
    return st.recursive(
        bad,
        lambda inner: st.one_of(
            st.builds(lambda a, x, b: a + [x] + b, st.lists(VALUES, max_size=3), inner,
                      st.lists(VALUES, max_size=3)),
            st.builds(lambda a, x: tuple(a) + (x,), st.lists(SCALARS, max_size=3), inner),
            st.builds(lambda d, k, x: {**d, k: x}, st.dictionaries(TEXT, VALUES, max_size=3), TEXT,
                      inner),
        ),
        max_leaves=6,
    )


# a column of same-keyed records: float, int, str, or float lists of one length (0 gives empty lists)
COLUMNS = st.one_of(
    st.just(FINITE_FLOATS),
    st.just(st.integers()),
    st.just(TEXT),
    st.integers(0, 9).map(lambda n: st.lists(FINITE_FLOATS, min_size=n, max_size=n)),
)


def deviate(record, key, how):
    """``record`` with one value, or its key order, changed so that its list is no longer flat same-keyed records."""
    value = record[key]
    if how == "key order":
        return dict(reversed(record.items()))
    if how == "int among floats":
        new = [*value[:-1], 1] if type(value) is list and value else 1
    else:
        new = {"length": [0.5] * 10, "bool": True, "np.float64": np.float64(0.5), "None": None,
               "nested": {"x": [value]}}[how]
    return {**record, key: new}


@st.composite
def same_keyed_records(draw, min_size=0):
    """0-30 dicts with one key order; some lists carry one deviant record."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    values = st.tuples(*[draw(COLUMNS) for _ in keys])
    records = draw(st.lists(values.map(lambda v: dict(zip(keys, v))), min_size=min_size, max_size=30))
    if records and draw(st.booleans()):
        i = draw(st.integers(0, len(records) - 1))
        how = draw(st.sampled_from(["key order", "length", "int among floats", "bool", "np.float64", "None",
                                    "nested"]))
        records[i] = deviate(records[i], draw(st.sampled_from(keys)), how)
    return records


# the records' list at the top level, as a dict value, two levels down, and as a tuple
RECORD_DOCUMENTS = st.tuples(same_keyed_records(), st.sampled_from([
    lambda r: r, lambda r: {"frames": r}, lambda r: {"frames": [{"t": 0.5, "objects": r}]}, tuple,
])).map(lambda rw: rw[1](rw[0]))


def raised(dumps, obj):
    with pytest.raises((ValueError, TypeError)) as info:
        dumps(obj)
    return type(info.value), str(info.value)


class TestWriterMatchesRecursiveWriter:
    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    @example([-0.0, 5e-324, sys.float_info.max])
    def test_same_bytes(self, obj):
        assert dumps_json(obj) == reference_dumps(obj)

    @settings(max_examples=100, deadline=None)
    @given(planted(st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                                    np.float64("-inf"), np.float32("inf")])))
    def test_non_finite_at_any_depth_raises_value_error(self, obj):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json(obj)
        with pytest.raises(ValueError, match="non-finite"):
            reference_dumps(obj)

    @settings(max_examples=100, deadline=None)
    @given(planted(st.sampled_from([np.bool_(True), np.bool_(False), {1, 2}, set(), b"x",
                                    frozenset(), object()])))
    def test_unknown_type_at_any_depth_raises_type_error(self, obj):
        with pytest.raises(TypeError, match="unsupported JSON value"):
            dumps_json(obj)
        with pytest.raises(TypeError, match="unsupported JSON value"):
            reference_dumps(obj)

    @pytest.mark.parametrize(
        "obj",
        [[1.0, 2.0, np.bool_(True)], [np.bool_(False)], [1, "a", None, b"x"], (0.5, set())],
        ids=["after-floats", "alone", "mixed", "tuple"],
    )
    def test_unknown_type_in_flat_list(self, obj):
        with pytest.raises(TypeError, match="unsupported JSON value"):
            dumps_json(obj)

    @settings(max_examples=300, deadline=None)
    @given(RECORD_DOCUMENTS)
    @example([{"%": -0.0, "b": [5e-324, -sys.float_info.max], "é": "%s", "i": -7, "e": []}] * 2)
    def test_same_keyed_records_same_bytes(self, obj):
        assert dumps_json(obj) == reference_dumps(obj)

    @settings(max_examples=200, deadline=None)
    @given(same_keyed_records(min_size=1), st.data())
    def test_bad_values_in_records_raise_what_the_recursive_writer_raises(self, records, data):
        bad = st.sampled_from([math.nan, -math.inf, np.float64("inf"), np.bool_(True), {1}, b"x"])
        for _ in range(data.draw(st.integers(1, 2))):
            i = data.draw(st.integers(0, len(records) - 1))
            key = data.draw(st.sampled_from(list(records[i])))
            value = records[i][key]
            if type(value) is list and value and data.draw(st.booleans()):  # inside a float list
                value = [*value]
                value[data.draw(st.integers(0, len(value) - 1))] = data.draw(bad)
            else:
                value = data.draw(bad)
            records[i] = {**records[i], key: value}
        assert raised(dumps_json, records) == raised(reference_dumps, records)

    def test_first_bad_value_in_document_order_decides_the_error(self):
        records = [{"a": 0.5, "b": {1, 2}}, {"a": math.nan, "b": 0.5}]
        assert raised(dumps_json, records) == raised(reference_dumps, records)
        assert raised(dumps_json, records)[0] is TypeError


class TestFormatterEquivalence:
    """The record path formats with ``%``; the rest of the writer with ``format`` and ``str``."""

    def test_percent_g_matches_format_on_doubles_of_every_exponent(self):
        rng = np.random.default_rng(2024)
        doubles = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False).view(np.float64)
        edges = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, sys.float_info.max, 800.0, 1e16, 1e17,
                 1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e17, 0.0), 99999999999999999.0, 0.0, -0.0]
        values = [*doubles[np.isfinite(doubles)].tolist(), *edges, *(-x for x in edges)]
        assert len(values) > 99_000
        assert ["%.17g" % x for x in values] == [format(x, ".17g") for x in values]

    def test_percent_d_matches_str_on_ints(self):
        rng = random.Random(2024)
        ints = [rng.getrandbits(rng.randrange(0, 300)) * rng.choice([-1, 1]) for _ in range(100_000)]
        ints += [0, -1, 2**63 - 1, -(2**63), 2**64, 10**17]
        assert ["%d" % i for i in ints] == list(map(str, ints))


class TestSceneRoundtrip:
    def test_exact_roundtrip(self):
        scene = make_scene()
        restored = scene_from_dict(json.loads(dumps_json(scene_to_dict(scene))))
        assert dumps_json(scene_to_dict(restored)) == dumps_json(scene_to_dict(scene))
        for fa, fb in zip(scene.frames, restored.frames):
            assert fa.t == fb.t
            np.testing.assert_array_equal(fa.ego_pose.rotation, fb.ego_pose.rotation)
            for oa, ob in zip(fa.objects, fb.objects):
                assert oa == ob

    def test_file_roundtrip(self, tmp_path):
        scene = make_scene(seed=5)
        path = tmp_path / "scene.json"
        save_scene(scene, str(path))
        restored = load_scene(str(path))
        assert dumps_json(scene_to_dict(restored)) == dumps_json(scene_to_dict(scene))

    def test_schema_fields(self):
        d = scene_to_dict(make_scene())
        assert d["schema_version"] == SCHEMA_VERSION
        cam = d["rig"][0]
        assert len(cam["intrinsics"]) == 4
        assert len(cam["extrinsics"]["rotation"]) == 9
        assert len(cam["extrinsics"]["translation"]) == 3
        assert len(cam["image_size"]) == 2
        obj = d["frames"][0]["objects"][0]
        assert len(obj["box"]) == 7
        assert len(obj["velocity"]) == 2
        assert set(obj) == {"id", "class", "box", "velocity"}

    def test_rejects_unknown_version(self):
        d = scene_to_dict(make_scene())
        d["schema_version"] = 99
        with pytest.raises(ValueError):
            scene_from_dict(d)


class TestDetectionsRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        scene = make_scene(seed=6)
        dets = render_detections(
            scene, NoiseModel(radial_std=0.4, tangential_std=0.01, velocity_std=0.2, seed=1)
        )
        path = tmp_path / "dets.json"
        save_detections(dets, str(path))
        restored = load_detections(str(path))
        assert dumps_json(detections_to_dict(restored)) == dumps_json(detections_to_dict(dets))
        for fa, fb in zip(dets.frames, restored.frames):
            for da, db in zip(fa.detections, fb.detections):
                np.testing.assert_array_equal(da.box.as_array(), db.box.as_array())
                np.testing.assert_array_equal(da.probs, db.probs)
                assert da.score == db.score

    def test_polar_field_order(self):
        scene = make_scene(seed=7)
        dets = render_detections(scene, NoiseModel())
        d = detections_to_dict(dets)
        det = d["frames"][0]["detections"][0]
        box = det["box"]
        assert len(box) == 9
        # (r, sin_a, cos_a, ...) with a unit azimuth pair
        assert box[1] ** 2 + box[2] ** 2 == pytest.approx(1.0, abs=1e-9)
        assert detections_from_dict(d).frames[0].detections[0].box.r == box[0]


RIG = make_symmetric_rig(2)
INT64 = np.iinfo(np.int64)
# coordinates as signed zeros, +-1e300 and ordinary values
COORDINATES = st.sampled_from([0.0, -0.0, 1e300, -1e300]) | st.floats(-1e3, 1e3)
SIZES = st.sampled_from([5e-324, 1e300]) | st.floats(0.1, 10.0)
VELOCITIES = st.sampled_from([-0.0, 1e300, -1e300]) | st.floats(-30.0, 30.0)
UNIT_PAIRS = st.sampled_from([(-0.0, 1.0), (1.0, -0.0), (0.0, -1.0)]) | st.floats(-math.pi, math.pi).map(
    lambda a: (math.sin(a), math.cos(a))
)


@st.composite
def scenes(draw):
    """Scenes of 0-5 frames of 0-4 objects each, ids unique per frame and as extreme as int64 allows."""
    counts = draw(st.lists(st.integers(0, 4), max_size=5))
    ids, rows = [], []
    for count in counts:
        ids += draw(st.lists(st.sampled_from([INT64.min, INT64.max, -1, 0]) | st.integers(INT64.min, INT64.max),
                             min_size=count, max_size=count, unique=True))
        rows += draw(st.lists(st.tuples(*[COORDINATES] * 3, *[SIZES] * 3, st.floats(-3.0, math.pi), VELOCITIES,
                                        VELOCITIES), min_size=count, max_size=count))
    m = len(ids)
    rows = np.reshape(rows, (m, 9))
    return Scene.from_arrays(
        RIG, [0.5 * f for f in range(len(counts))], counts, np.tile(np.eye(3), (len(counts), 1, 1)),
        np.reshape(draw(st.lists(COORDINATES, min_size=3 * len(counts), max_size=3 * len(counts))), (-1, 3)),
        np.array(ids, dtype=np.int64), np.array(draw(st.lists(st.integers(0, 3) | st.just(INT64.max), min_size=m,
                                                              max_size=m)), dtype=np.int64),
        rows[:, :7], rows[:, 7:],
    )


@st.composite
def detection_sets(draw):
    """Detection sets of 0-5 frames of 0-4 detections each, over 1-4 classes."""
    counts = draw(st.lists(st.integers(0, 4), max_size=5))
    n, classes = sum(counts), draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1e300]) | st.floats(0.0, 60.0), UNIT_PAIRS,
                                   COORDINATES, *[SIZES] * 3, UNIT_PAIRS, VELOCITIES, VELOCITIES),
                         min_size=n, max_size=n))
    unit = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)
    probs = draw(st.lists(st.lists(unit, min_size=classes, max_size=classes), min_size=n, max_size=n))
    return DetectionSet.from_arrays(
        [0.1 * f for f in range(len(counts))], counts,
        np.reshape([[r, *a, z, l, w, h, *t] for r, a, z, l, w, h, t, _, _ in rows], (n, 9)),
        np.reshape(probs, (n, classes)),
        np.reshape([row[-2:] for row in rows], (n, 2)),
        draw(st.lists(unit, min_size=n, max_size=n)),
    )


class TestSaversWriteTheDictViewsBytes:
    @settings(max_examples=150, deadline=None)
    @given(scenes())
    def test_save_scene(self, tmp_path_factory, scene):
        path = tmp_path_factory.mktemp("scene") / "scene.json"
        save_scene(scene, str(path))
        assert path.read_text(encoding="utf-8") == dumps_json(scene_to_dict(scene)) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(detection_sets())
    def test_save_detections(self, tmp_path_factory, dets):
        path = tmp_path_factory.mktemp("dets") / "dets.json"
        save_detections(dets, str(path))
        assert path.read_text(encoding="utf-8") == dumps_json(detections_to_dict(dets)) + "\n"


# The dict views as they were built before they read the saved file back: one dict per record from the
# frame arrays' tolist() values, kept as their reference.
def reference_scene_to_dict(scene):
    return {
        "schema_version": SCHEMA_VERSION,
        "rig": [{"intrinsics": [cam.fx, cam.fy, cam.cx, cam.cy],
                 "extrinsics": {"rotation": cam.rotation.reshape(-1).tolist(), "translation": cam.translation.tolist()},
                 "image_size": [cam.width, cam.height]} for cam in scene.rig.cameras],
        "frames": [{"t": f.t,
                    "ego_pose": {"rotation": f.pose_rotation.reshape(-1).tolist(),
                                 "translation": f.pose_translation.tolist()},
                    "objects": [{"id": i, "class": c, "box": b, "velocity": v} for i, c, b, v in
                                zip(f.ids.tolist(), f.classes.tolist(), f.boxes.tolist(), f.velocities.tolist())]}
                   for f in scene.frames],
    }


def reference_detections_to_dict(dets):
    return {
        "schema_version": SCHEMA_VERSION,
        "frames": [{"t": f.t,
                    "detections": [{"box": b, "score": s, "probs": p, "velocity": v} for b, s, p, v in
                                   zip(f.boxes.tolist(), f.scores.tolist(), f.probs.tolist(), f.velocities.tolist())]}
                   for f in dets.frames],
    }


def typed(obj):
    """``obj`` with each scalar paired with its type, so that ``==`` compares the types too."""
    if type(obj) is dict:
        return {k: typed(v) for k, v in obj.items()}
    if type(obj) is list:
        return [typed(v) for v in obj]
    return type(obj), obj


class TestDictViewsAreTheSavedFile:
    @settings(max_examples=100, deadline=None)
    @given(scenes())
    def test_scene_to_dict(self, tmp_path_factory, scene):
        view = scene_to_dict(scene)
        assert view == reference_scene_to_dict(scene)
        path = tmp_path_factory.mktemp("scene") / "scene.json"
        save_scene(scene, str(path))
        assert typed(view) == typed(json.loads(path.read_text(encoding="utf-8")))

    @settings(max_examples=100, deadline=None)
    @given(detection_sets())
    def test_detections_to_dict(self, tmp_path_factory, dets):
        view = detections_to_dict(dets)
        assert view == reference_detections_to_dict(dets)
        path = tmp_path_factory.mktemp("dets") / "dets.json"
        save_detections(dets, str(path))
        assert typed(view) == typed(json.loads(path.read_text(encoding="utf-8")))

    def test_integral_floats_come_back_as_ints(self):
        dets = DetectionSet.from_arrays([0.0], [1], np.array([[2.0, 0.0, 1.0, -0.0, 4.0, 2.0, 1.5, 0.0, 1.0]]),
                                        np.array([[0.0, 1.0]]), np.array([[-0.0, 0.25]]), [1.0])
        (record,) = detections_to_dict(dets)["frames"][0]["detections"]
        assert typed(record) == typed({"box": [2, 0, 1, 0, 4, 2, 1.5, 0, 1], "score": 1, "probs": [0, 1],
                                       "velocity": [0, 0.25]})
        assert record == reference_detections_to_dict(dets)["frames"][0]["detections"][0]


class TestRecordTable:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["scalar column", "list column", "second frame"])
    def test_a_non_finite_float_raises_what_dumps_json_raises(self, bad, where):
        frames = {
            "id": [np.array([1, 2]), np.array([3])],
            "score": [np.array([0.5, 0.25]), np.array([1.0])],
            "box": [np.zeros((2, 3)), np.ones((1, 3))],
        }
        key, frame, index = {"scalar column": ("score", 0, 1), "list column": ("box", 0, (1, 2)),
                             "second frame": ("box", 1, (0, 0))}[where]
        frames[key][frame][index] = bad
        with pytest.raises(ValueError) as expected:
            dumps_json([bad])
        with pytest.raises(ValueError) as raised:
            _RecordTable([2, 1], {key: np.concatenate(values) for key, values in frames.items()})
        assert str(raised.value) == str(expected.value) == "cannot serialize non-finite float"

    def test_frames_are_written_at_their_own_indentation(self):
        table = _RecordTable([1, 0, 1], {"%d": np.array([7, -8]), "x": np.array([[-0.0, 0.5], [1e300, 2.0]])})
        frames = list(table)
        document = {"frames": [{"rows": frames[0]}, {"rows": frames[1]}], "last": frames[2]}
        expected = {"frames": [{"rows": [{"%d": 7, "x": [-0.0, 0.5]}]}, {"rows": []}],
                    "last": [{"%d": -8, "x": [1e300, 2.0]}]}
        assert dumps_json(document) == reference_dumps(expected)

    def test_an_integer_list_column_writes_lists_of_integers(self):
        table = _RecordTable([2, 1], {"a": np.array([[1, 2], [3, 4], [INT64.min, INT64.max]]),
                                      "b": np.array([-0.0, 0.5, 2.0])})
        expected = [[{"a": [1, 2], "b": 0}, {"a": [3, 4], "b": 0.5}], [{"a": [INT64.min, INT64.max], "b": 2}]]
        assert dumps_json([{"rows": rows} for rows in table]) == reference_dumps([{"rows": r} for r in expected])

    @pytest.mark.parametrize("column", [
        np.array([True, False]),
        np.array([1 + 2j, 3j]),
        np.array([[True, True], [False, True]]),
        np.array([2**63, 2**64 - 1], dtype=np.uint64),
        np.array([[0, 2**64 - 1], [7, 2**63]], dtype=np.uint64),
        np.array([-(2**7), 2**7 - 1], dtype=np.int8),
        np.array(["a", "%s"]),
    ], ids=["bool", "complex", "bool-list", "uint64", "uint64-list", "int8", "str"])
    def test_a_column_writes_or_refuses_as_the_scalar_path(self, column):
        assert table_bytes([2], {"a": column}) == scalar_bytes([2], {"a": column})

    @pytest.mark.parametrize("columns", [
        {"x": np.array([0.5, math.nan]), "b": np.array([True, False])},  # the bool in row 0 comes first
        {"x": np.array([math.inf, 0.5]), "b": np.array([True, False])},  # the inf in row 0 comes first
        {"b": np.array([3j, 1j]), "x": np.array([[math.nan, 0.5], [0.5, 0.5]])},
        {"x": np.array([0.5, 0.25]), "y": np.array([[0.5, 0.5], [-math.inf, 0.5]])},
    ])
    def test_the_first_bad_value_in_document_order_decides_the_error(self, columns):
        assert table_bytes([1, 1], columns) == scalar_bytes([1, 1], columns)

    def test_no_rows_refuse_nothing(self):
        columns = {"b": np.zeros(0, dtype=bool), "c": np.zeros((0, 2), dtype=complex)}
        assert table_bytes([0, 0], columns) == scalar_bytes([0, 0], columns) == reference_dumps([{"rows": []}] * 2)


def table_bytes(counts, columns):
    """``dumps_json`` of the table's frames, or the error it raises."""
    try:
        return dumps_json([{"rows": rows} for rows in _RecordTable(counts, columns)])
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def frame_records(counts, columns):
    """The table's records as per-frame lists of dicts of numpy scalars (lists of them for an (N, k) column)."""
    rows = [{key: list(v) if np.ndim(v) else v for key, v in zip(columns, values)} for values in zip(*columns.values())]
    bounds = np.cumsum([0, *counts]).tolist()
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def scalar_bytes(counts, columns):
    """What ``dumps_json`` writes, or raises, for the same records value by value."""
    try:
        return dumps_json([{"rows": rows} for rows in frame_records(counts, columns)])
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


_EDGES = [1e-4, 1e16, 1e17, 1.0, 2.0**53]
# small pools, so that values repeat within and across columns: signed zeros, extremes, decade edges +-1 ulp,
# integral floats
REPEATED_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 3.0, -7.0, 1e15, 0.1, 65504.0,
    *_EDGES, *(-x for x in _EDGES), *(math.nextafter(x, math.inf) for x in _EDGES),
    *(math.nextafter(x, -math.inf) for x in _EDGES),
]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def repeating_tables(draw):
    """(counts, columns): empty frames and zero rows included; float64, float32, float16 and integer columns in
    any order, each 1-D or (N, k), the float ones drawn from one pool of at most five values."""
    counts = draw(st.lists(st.integers(0, 4), max_size=5))
    n = sum(counts)
    pool = draw(st.lists(REPEATED_FLOATS, min_size=1, max_size=5))
    columns = {}
    for key in draw(st.lists(TEXT, min_size=1, max_size=5, unique=True)):
        dtype = np.dtype(draw(st.sampled_from(["float64", "float64", "float32", "float16", "int64", "uint64"])))
        shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(0, 3)))
        size = math.prod(shape)
        if dtype.kind == "f":
            finfo = np.finfo(dtype)  # clipped to the type's range, so that the cast stays finite
            values = np.array(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)), dtype=np.float64)
            columns[key] = np.clip(values, finfo.min, finfo.max).astype(dtype).reshape(shape)
        else:
            info = np.iinfo(dtype)
            ints = st.sampled_from([info.min, info.max, 0, 1]) | st.integers(info.min, info.max)
            columns[key] = np.array(draw(st.lists(ints, min_size=size, max_size=size)), dtype=dtype).reshape(shape)
    return counts, columns


class TestRepeatedValuesSameBytes:
    """Each distinct float of a table is formatted once; every record still gets the scalar path's bytes."""

    @settings(max_examples=400, deadline=None)
    @given(repeating_tables())
    @example(([2, 0, 1], {"a": np.array([-0.0, -0.0, 0.0]), "i": np.array([1, 2, 3]),
                          "b": np.array([[0.0, -0.0], [5e-324, -0.0], [1e17, 1e16]])}))
    @example(([1], {"only -0.0": np.array([-0.0])}))
    @example(([0, 0], {"no rows": np.zeros((0, 2))}))
    def test_same_bytes_as_the_scalar_path(self, table):
        counts, columns = table
        document = {"frames": [{"t": 0.5, "objects": rows} for rows in _RecordTable(counts, columns)]}
        expected = {"frames": [{"t": 0.5, "objects": rows} for rows in frame_records(counts, columns)]}
        assert dumps_json(document) == reference_dumps(expected)

    def test_all_distinct(self):
        rng = np.random.default_rng(33)
        columns = {"box": rng.normal(size=(300, 9)) * 20.0, "id": np.arange(300), "score": rng.uniform(size=300)}
        assert len(np.unique(np.concatenate([columns["box"].ravel(), columns["score"]]))) == 300 * 10
        counts = [100, 0, 150, 50]
        assert table_bytes(counts, columns) == reference_dumps([{"rows": r} for r in frame_records(counts, columns)])
