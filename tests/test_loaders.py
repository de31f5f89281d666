"""The file loaders parse with orjson and give what the stdlib loader gives.

``load_scene`` and ``load_detections`` parse a file with orjson and, if
that load raises, load it again through ``read_json``.  ``stdlib_load``
below is the loader without orjson: ``read_json`` followed by
``scene_from_dict`` or ``detections_from_dict``.  On every file the two
must give the same arrays, bit for bit, or the same error.  The one
difference is deliberate: a key the loaders ignore may nest deeper than
the stdlib parser can follow.
"""

import copy
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import orjson
import pytest

import polarview
from polarview import serialization
from polarview.cli import main
from polarview.serialization import (
    detections_from_dict,
    load_detections,
    load_scene,
    read_json,
    save_detections,
    save_scene,
    scene_from_dict,
)
from polarview.simulator import NoiseModel, Scene, SceneConfig, generate_scene, render_detections

LOADERS = {"scene": load_scene, "detections": load_detections}


def stdlib_load(path, kind):
    """The loader as it was before orjson: ``read_json``, then the kind's ``*_from_dict``."""
    with serialization._file_kind(kind):
        d = read_json(path)
    return (scene_from_dict if kind == "scene" else detections_from_dict)(d)


def fingerprint(loaded):
    """dtype, shape and bytes of every number a loaded scene or detection set holds."""
    parts = []
    if isinstance(loaded, Scene):
        for cam in loaded.rig.cameras:
            parts += [np.array([cam.fx, cam.fy, cam.cx, cam.cy]), cam.rotation, cam.translation,
                      np.array([cam.width, cam.height])]
        fields = ("pose_rotation", "pose_translation", "ids", "classes", "boxes", "velocities")
    else:
        fields = ("boxes", "probs", "velocities", "scores")
    for frame in loaded.frames:
        parts += [np.array(frame.t), *(getattr(frame, name) for name in fields)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in parts]


def outcome(load, path):
    """The fingerprint of what ``load(path)`` returns, or the type and message of what it raises."""
    try:
        return fingerprint(load(path))
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_outcome(path, kind):
    fast = outcome(LOADERS[kind], path)
    assert fast == outcome(lambda p: stdlib_load(p, kind), path)
    return fast


def files(directory, seed):
    """A scene, its detections and their track file, written by the savers and ``polarview track``."""
    paths = {k: os.path.join(directory, f"{k}.json") for k in ("scene", "detections", "tracks")}
    scene = generate_scene(SceneConfig(n_objects=6, n_frames=4, n_classes=3, ego_motion="arc", seed=seed))
    noise = NoiseModel(radial_std=0.3, tangential_std=0.01, size_rel_std=0.1, yaw_std=0.1, velocity_std=0.5,
                       false_positive_rate=1.0, mode=("polar", "cartesian")[seed % 2], seed=seed)
    save_scene(scene, paths["scene"])
    save_detections(render_detections(scene, noise), paths["detections"])
    assert main(["track", "--detections", paths["detections"], "--out", paths["tracks"]]) == 0
    return paths


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The scene and detections documents of one set of files, as ``json.load`` reads them."""
    paths = files(str(tmp_path_factory.mktemp("documents")), 1)
    docs = {}
    for kind in ("scene", "detections"):
        with open(paths[kind]) as fh:
            docs[kind] = json.load(fh)
    return docs


class TestValidFiles:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_arrays_bit_for_bit(self, tmp_path, seed):
        paths = files(str(tmp_path), seed)
        for name, kind in (("scene", "scene"), ("detections", "detections"), ("tracks", "detections")):
            assert isinstance(assert_same_outcome(paths[name], kind), list)


# where each literal goes, per file kind
PLACES = {
    "id": [("scene", ("frames", 1, "objects", 0, "id"))],
    "class": [("scene", ("frames", 1, "objects", 0, "class"))],
    "image_size": [("scene", ("rig", 0, "image_size", 1))],
    "schema_version": [("scene", ("schema_version",)), ("detections", ("schema_version",))],
    "t": [("scene", ("frames", 1, "t")), ("detections", ("frames", 1, "t"))],
    "box": [("scene", ("frames", 1, "objects", 0, "box", 3)), ("detections", ("frames", 1, "detections", 0, "box", 0))],
    "probs": [("detections", ("frames", 1, "detections", 0, "probs", 1))],
}
INTEGERS = {
    "2^63": str(2**63), "2^64": str(2**64), "-2^63-1": str(-(2**63) - 1), "10^30": str(10**30),
    "10^400": str(10**400),
}
NON_FINITE = ["NaN", "Infinity", "1e400"]
DEEP = "[" * 5000 + "]" * 5000


def with_literal(doc, path, literal):
    """The text of ``doc`` with the value at ``path`` replaced by the JSON text ``literal``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = "@literal@"
    return json.dumps(doc).replace('"@literal@"', literal).encode()


def literal_cases():
    cases = [(kind, path, literal, f"{kind}-{key}-{name}")
             for name, literal in INTEGERS.items() for key, places in PLACES.items() for kind, path in places]
    cases += [(kind, path, literal, f"{kind}-{key}-{literal}")
              for literal in NON_FINITE for key in ("t", "box") for kind, path in PLACES[key]]
    cases += [(kind, path, DEEP, f"{kind}-{key}-5000-deep")
              for key in ("box", "schema_version") for kind, path in PLACES[key]]
    # the int64 ends are valid ids: orjson gives ints there, as the stdlib does
    cases += [("scene", PLACES["id"][0][1], str(v), f"scene-id-{v}") for v in (2**63 - 1, -(2**63))]
    return cases


def text_cases():
    """(name, how the file's text is made from its document's text) for text-level faults."""
    note = b'"note": "@note@", '
    return [
        ("lone-surrogate-in-record", lambda t: t.replace(b'"box": ', b'"note": "\\ud800", "box": ', 1)),
        ("lone-surrogate-at-top", lambda t: b"{" + note.replace(b"@note@", b"\\ud800") + t[1:]),
        ("bom", lambda t: b"\xef\xbb\xbf" + t),
        ("invalid-utf8-in-ignored-key", lambda t: b"{" + note.replace(b"@note@", b"\xff") + t[1:]),
        ("invalid-utf8-first", lambda t: b"\xff" + t),
        ("control-character-in-ignored-key", lambda t: b"{" + note.replace(b"@note@", b"\x01") + t[1:]),
        ("leading-zero", lambda t: t.replace(b'"t": ', b'"t": 0', 1)),
        ("trailing-comma", lambda t: t[:-1] + b",}"),
        ("truncated", lambda t: t[: len(t) // 2]),
        ("duplicate-key-earlier", lambda t: b'{"schema_version": 2, ' + t[1:]),
        ("duplicate-key-later", lambda t: t[:-1] + b', "schema_version": 2}'),
    ]


class TestSameOutcomeOnEditedFiles:
    @pytest.mark.parametrize("kind, path, literal", [c[:3] for c in literal_cases()],
                             ids=[c[3] for c in literal_cases()])
    def test_literal(self, documents, tmp_path, kind, path, literal):
        bad = tmp_path / "bad.json"
        bad.write_bytes(with_literal(documents[kind], path, literal))
        assert_same_outcome(str(bad), kind)

    @pytest.mark.parametrize("kind", ["scene", "detections"])
    @pytest.mark.parametrize("name, make", text_cases(), ids=[name for name, _ in text_cases()])
    def test_text(self, documents, tmp_path, kind, name, make):
        bad = tmp_path / "bad.json"
        bad.write_bytes(make(json.dumps(documents[kind]).encode()))
        assert_same_outcome(str(bad), kind)


class TestDeepNestingInAnIgnoredKey:
    # the one outcome that differs from the stdlib loader: json.loads stops at Python's recursion
    # limit, orjson does not, and the loaders never look inside an ignored key
    @pytest.mark.parametrize("name, kind, key", [("tracks", "detections", "summary"), ("scene", "scene", "extra")])
    def test_loads_as_the_file_without_it(self, tmp_path, name, kind, key):
        paths = files(str(tmp_path), 2)
        with open(paths[name]) as fh:
            doc = json.load(fh)
        doc[key] = "@deep@"
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps(doc).replace('"@deep@"', DEEP))
        assert fingerprint(LOADERS[kind](str(deep))) == fingerprint(LOADERS[kind](paths[name]))
        with pytest.raises(ValueError, match="JSON nesting too deep to parse"):
            stdlib_load(str(deep), kind)

    def test_track_and_eval_exit_zero(self, capsys, tmp_path):
        paths = files(str(tmp_path), 2)
        with open(paths["tracks"]) as fh:
            tracks = fh.read()
        deep = tmp_path / "deep.json"
        deep.write_text(tracks[: tracks.rindex("}")] + ', "extra": ' + DEEP + "}")
        for argv in (["track", "--detections", "{}"], ["eval", "--scene", paths["scene"], "--detections", "{}"]):
            outputs = [(main([a.format(p) for a in argv]), capsys.readouterr()) for p in (paths["tracks"], str(deep))]
            assert outputs[0] == outputs[1] and outputs[0][0] == 0, outputs


def floats_text(texts):
    return "[" + ",".join(texts) + "]"


def assert_parsed_as_float_does(texts):
    """orjson's numbers for ``texts``, as the loaders' float64 arrays hold them, are ``float()``'s bit for bit."""
    parsed = np.array(orjson.loads(floats_text(texts)), dtype=np.float64)
    expected = np.array([float(t) for t in texts], dtype=np.float64)
    mismatched = np.flatnonzero(parsed.view(np.uint64) != expected.view(np.uint64))
    assert not mismatched.size, [texts[i] for i in mismatched[:5]]


class TestOrjsonParsesNumbersAsFloatDoes:
    """The property the loaders rely on: orjson gives each number the double that ``float()`` gives."""

    def test_bit_pattern_doubles_at_17_digits(self):
        values = np.frombuffer(np.random.default_rng(0).bytes(8 * 100_000), dtype=np.float64)
        values = values[np.isfinite(values)]
        assert values.size > 99_000
        assert_parsed_as_float_does([format(x, ".17g") for x in values.tolist()])

    def test_midpoints_between_adjacent_doubles_and_either_side(self):
        rng = random.Random(1)
        texts = []
        with localcontext() as ctx:
            ctx.prec = 1200  # exact for the midpoint of any two adjacent doubles
            for _ in range(2000):
                x = math.ldexp(rng.random(), rng.randint(-1074, 1024))
                y = math.nextafter(x, math.inf)
                if not math.isfinite(y):
                    continue
                mid = (Decimal(x) + Decimal(y)) / 2
                for value in (mid, mid * (1 + Decimal("1e-60")), mid * (1 - Decimal("1e-60"))):
                    text = format(rng.choice((1, -1)) * value, rng.choice("ef"))
                    texts.append(text if "e" in text or "." in text else text + ".0")
        assert len(texts) > 5000
        assert_parsed_as_float_does(texts)

    def test_mantissas_of_18_to_45_digits(self):
        rng = random.Random(2)
        texts = []
        for _ in range(30_000):
            digits = "".join(rng.choices("0123456789", k=rng.randint(18, 45))).lstrip("0") or "0"
            point = rng.randint(1, len(digits))
            exponent = rng.randint(-340, 300) - point  # from below the subnormals to below the float range's top
            texts.append(f"{'-' * rng.randint(0, 1)}{digits[:point]}.{digits[point:] or '0'}e{exponent}")
        assert_parsed_as_float_does(texts)

    def test_integers_convert_as_float_of_int_does(self):
        rng = random.Random(3)
        ints = [rng.randrange(-(2**64), 2**64) for _ in range(20_000)] + [2**63, 2**64 - 1, -(2**63), 2**53 + 1]
        parsed = orjson.loads(floats_text(map(str, ints)))
        assert np.array(parsed, dtype=np.float64).tobytes() == np.array([float(i) for i in ints]).tobytes()


STARTUP_CHILD = """
import json
import sys
import polarview.cli

loaded = ["orjson" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert polarview.cli.main(argv) == 0, argv
    loaded.append("orjson" in sys.modules)
print(loaded)
"""


class TestOrjsonLoadsOnTheFirstFileRead:
    def test_import_and_file_less_commands_do_not_load_it(self, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarview.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        scene, dets = str(tmp_path / "scene.json"), str(tmp_path / "dets.json")
        argvs = [["simulate", "--objects", "3", "--frames", "2", "--out", scene],
                 ["nds", "--map", "0.3", "--tps", "0.7,0.3,0.4,0.9,0.2"], ["render", "--scene", scene, "--out", dets]]
        result = subprocess.run([sys.executable, "-c", STARTUP_CHILD, json.dumps(argvs)], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[False, False, False, True]"
