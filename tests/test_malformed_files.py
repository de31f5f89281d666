"""Generated malformed input files: every file-reading command ends in a clean exit.

A derandomized hypothesis strategy mutates valid scene, detections and
track files: it sets one to three JSON paths to one of ``VALUES``, or
deletes, duplicates or scales (by 1e300, -1 or 0) the value there.  The
mutated file runs through render, assign (both class-cost forms), track
(greedy with ``--scene``, and hungarian) and eval (json, and csv with
``--range-mode none``) in process.  Each run must exit 0, 1 or 2; a
non-zero exit writes exactly one stderr line, starting ``polarview:``;
exit 0 writes nothing to stderr, and a second run writes the same bytes.
An exception out of ``cli.main`` fails the test with its traceback.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarview.cli import main

# a JSON literal that no Python float writes; json.dumps writes the
# placeholder string, which is then replaced by the literal
RAW = {"@1e400@": "1e400", "@-1e400@": "-1e400"}

VALUES = [
    0, 1, -1, 2, 3.0, 99, 0.5, -0.0, 1e-300, 1e308, -1e308, 5e-324,
    2**63, -2**63, 2**63 - 1, -2**63 - 1, 2**64, 10**30, 10**400, -10**400,
    float("nan"), float("inf"), float("-inf"), "@1e400@", "@-1e400@",
    "1", "", "x", None, True, False,
    [], {}, [0], [[0.0]], [[]], [None], [1.0, 2.0], [0.0] * 7, [0.0] * 9, {"a": 1},
]
SCALES = [1e300, -1, 0]

SCENE_ARGVS = [
    ("render", "--scene", "{bad}", "--out", "{out}"),
    ("assign", "--scene", "{bad}", "--detections", "{dets}", "--out", "{out}"),
    ("assign", "--scene", "{bad}", "--detections", "{dets}", "--class-cost", "focal", "--out", "{out}"),
    ("track", "--detections", "{dets}", "--scene", "{bad}", "--out", "{out}"),
    ("eval", "--scene", "{bad}", "--detections", "{dets}", "--out", "{out}"),
    ("eval", "--scene", "{bad}", "--detections", "{dets}", "--format", "csv", "--range-mode", "none",
     "--out", "{out}"),
]
DETECTION_ARGVS = [
    ("assign", "--scene", "{scene}", "--detections", "{bad}", "--out", "{out}"),
    ("assign", "--scene", "{scene}", "--detections", "{bad}", "--class-cost", "focal", "--out", "{out}"),
    ("track", "--detections", "{bad}", "--scene", "{scene}", "--out", "{out}"),
    ("track", "--detections", "{bad}", "--matching", "hungarian", "--out", "{out}"),
    ("eval", "--scene", "{scene}", "--detections", "{bad}", "--out", "{out}"),
    ("eval", "--scene", "{scene}", "--detections", "{bad}", "--format", "csv", "--range-mode", "none",
     "--out", "{out}"),
]


def run(argv):
    """Exit code, stdout and stderr of ``main(argv)`` in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class ValidFiles:
    """Paths and parsed documents of valid files (no repr of its own, so a failing case prints briefly)."""

    def __init__(self, directory, paths, documents):
        self.directory, self.paths, self.documents = directory, paths, documents


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small arc-ego scene (4 objects, 3 frames, 3 classes), its render and its track file."""
    d = tmp_path_factory.mktemp("valid")
    paths = {k: str(d / f"{k}.json") for k in ("scene", "dets", "tracks")}
    argvs = [
        ("simulate", "--objects", "4", "--frames", "3", "--classes", "3", "--ego", "arc", "--speed-max", "3",
         "--seed", "5", "--out", paths["scene"]),
        ("render", "--scene", paths["scene"], "--radial-std", "0.3", "--drop-prob", "0.2", "--fp-rate", "1",
         "--seed", "2", "--out", paths["dets"]),
        ("track", "--detections", paths["dets"], "--scene", paths["scene"], "--out", paths["tracks"]),
    ]
    for argv in argvs:
        assert run(argv) == (0, "", "")
    documents = {}
    for kind, path in paths.items():
        with open(path) as fh:
            documents[kind] = json.load(fh)
    return ValidFiles(str(d), paths, documents)


def scaled(value, factor):
    """``value`` with every number in it multiplied by ``factor``; an int too large for a float stays."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, list):
        return [scaled(v, factor) for v in value]
    if isinstance(value, dict):
        return {k: scaled(v, factor) for k, v in value.items()}
    try:
        return value * factor
    except OverflowError:
        return value


def paths(node, prefix=()):
    """The path of every value in ``node``, its own first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, (*prefix, key))


def mutate(rng, doc):
    """``doc`` with one value set, deleted, duplicated or scaled; ``None`` for no document.

    The value is drawn in two steps, so that each key of the schema is as likely as any other, however
    many values it has: first a path with its list indices left out, then one of the values on it.
    """
    keyed = {}
    for path in paths(doc):
        keyed.setdefault(tuple("*" if type(step) is int else step for step in path), []).append(path)
    path = rng.choice(keyed[rng.choice(list(keyed))])
    parent, key, node = None, None, doc
    for step in path:
        parent, key, node = node, step, node[step]
    op = rng.choice(["set", "delete", "duplicate", "scale"])
    if op == "set":
        new = copy.deepcopy(rng.choice(VALUES))
    elif op == "scale":
        new = scaled(node, rng.choice(SCALES))
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
        return doc
    elif op == "duplicate":
        new = [node, copy.deepcopy(node)]
    elif parent is None:  # delete the document
        return None
    else:
        del parent[key]
        return doc
    if parent is None:
        return new
    parent[key] = new
    return doc


def text(doc):
    if doc is None:
        return ""
    out = json.dumps(doc)
    for placeholder, literal in RAW.items():
        out = out.replace(json.dumps(placeholder), literal)
    return out


def outcome(argv, out):
    """Exit code, stdout, stderr and the ``--out`` file's bytes (``None`` if absent) of one run."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    code, stdout, stderr = run(argv)
    try:
        with open(out, "rb") as fh:
            return code, stdout, stderr, fh.read()
    except FileNotFoundError:
        return code, stdout, stderr, None


def check_commands(argvs, names):
    for template in argvs:
        argv = [a.format(**names) for a in template]
        first = outcome(argv, names["out"])
        code, _, err, _ = first
        assert code in (0, 1, 2), (argv, first)
        if code:
            assert err.startswith("polarview:") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert err == "", (argv, err)
            assert outcome(argv, names["out"]) == first, argv


class TestMalformedFiles:
    # hypothesis draws the seed of each case's mutations, so that every key and value is as likely as
    # any other; a failing case prints its seed
    @pytest.mark.parametrize("kind", ["scene", "dets", "tracks"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=True))
    def test_every_command_exits_cleanly(self, files, kind, rng):
        doc = copy.deepcopy(files.documents[kind])
        for _ in range(rng.randint(1, 3)):
            if doc is not None:
                doc = mutate(rng, doc)
        bad = os.path.join(files.directory, f"bad-{kind}.json")
        with open(bad, "w") as fh:
            fh.write(text(doc))
        names = dict(files.paths, bad=bad, out=os.path.join(files.directory, "out"))
        check_commands(SCENE_ARGVS if kind == "scene" else DETECTION_ARGVS, names)
