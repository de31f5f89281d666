"""Every scenario the simulator makes, rendered without noise, gets the exact `assign` and `eval` answers.

The grid is fixed: ego motion {static, straight, arc} x noise frame {polar,
cartesian} x cameras {3, 6} x classes {1, 4} x ``--speed-max`` {0, 4, 15} x
``--dt`` {0.5, 1}, rendered with no noise at all, plus the variant whose
only noise is ``--drop-prob 0.3`` for every ego motion, noise frame and
speed (6 cameras, 4 classes, ``--dt 0.5``); 12 objects x 6 frames, simulate
seed 5, render seed 1.  It is not shrunk or re-seeded to make a part pass.

With zero noise each detection is ``geometry.polar_fields`` of one object
bit for bit, so the exact answers are known:
- ``assign``: each rendered object inside the 50 m range is paired with its
  own detection (checked through ``gt_id``) at ``box_cost`` 0, and without
  drops these are all the pairs.  ``assign`` keeps only the objects in
  range and pairs min(objects, detections), so with drops an object in
  range whose detection was dropped can take the detection of an object
  out of range; those are the only other pairs;
- ``eval``: every TP error is 0 and ``matched_pairs`` is the number of
  rendered objects in range.

Still to land here, each with the change that makes it pass (ROADMAP.md):
AP and mAP exactly 1 with the nuScenes AP (direction 7; a perfect render
scores 0.9999999999999999 in some cells), and the ``track`` answers (one
track per object, no switches) with ego-motion compensation and tracks that
coast through missed frames (directions 1 and 12).
"""

import itertools
import json
import math

import numpy as np
import pytest

from polarview import cli, serialization
from polarview.geometry import polar_fields

R_MAX = 50.0  # the default range of assign and eval
EGO_MOTIONS, NOISE_FRAMES, SPEEDS = ["static", "straight", "arc"], ["polar", "cartesian"], [0, 4, 15]
GRID = [
    *itertools.product(EGO_MOTIONS, NOISE_FRAMES, [3, 6], [1, 4], SPEEDS, [0.5, 1], [0.0]),
    *itertools.product(EGO_MOTIONS, NOISE_FRAMES, [6], [4], SPEEDS, [0.5], [0.3]),
]


def cell_id(cell):
    ego, frame, cameras, classes, speed, dt, drop = cell
    return f"{ego}-{frame}-cam{cameras}-cls{classes}-v{speed}-dt{dt}" + (f"-drop{drop}" if drop else "")


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    """Path of each grid scene file, simulated once for all its renders."""
    root, paths = tmp_path_factory.mktemp("scenes"), {}

    def scene(ego, cameras, classes, speed, dt):
        key = f"{ego}-{cameras}-{classes}-{speed}-{dt}"
        if key not in paths:
            paths[key] = str(root / f"{key}.json")
            assert cli.main(["simulate", "--objects", "12", "--frames", "6", "--seed", "5", "--ego", ego,
                             "--cameras", str(cameras), "--classes", str(classes), "--speed-max", str(speed),
                             "--dt", str(dt), "--out", paths[key]]) == 0
        return paths[key]

    return scene


def rendered_objects(scene, dets):
    """Per frame, the index of the object each detection is ``polar_fields`` of, bit for bit."""
    own = []
    for frame, frame_dets in zip(scene.frames, dets.frames):
        fields = np.array([polar_fields(*box) for box in frame.boxes.tolist()]).reshape(-1, 9)
        same = (frame_dets.boxes[:, None, :] == fields[None, :, :]).all(axis=2)
        assert same.sum(axis=1).tolist() == [1] * len(frame_dets), "a detection is not exactly one object"
        own.append(same.argmax(axis=1))
    return own


@pytest.mark.parametrize("cell", GRID, ids=map(cell_id, GRID))
def test_assign_and_eval_are_exact(cell, scenes, tmp_path):
    ego, noise_frame, cameras, classes, speed, dt, drop = cell
    scene_path = scenes(ego, cameras, classes, speed, dt)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("dets", "assign", "eval")}
    assert cli.main(["render", "--scene", scene_path, "--noise-frame", noise_frame, "--drop-prob", str(drop),
                     "--seed", "1", "--out", paths["dets"]]) == 0
    for command in ("assign", "eval"):
        argv = [command, "--scene", scene_path, "--detections", paths["dets"], "--out", paths[command]]
        assert cli.main(argv) == 0
    scene, dets = serialization.load_scene(scene_path), serialization.load_detections(paths["dets"])
    with open(paths["assign"], encoding="utf-8") as fh:
        assign = json.load(fh)
    with open(paths["eval"], encoding="utf-8") as fh:
        report = json.load(fh)

    expected_pairs = 0
    for frame, own, assigned in zip(scene.frames, rendered_objects(scene, dets), assign["frames"]):
        kept = [j for j, (x, y) in enumerate(frame.boxes[:, :2].tolist()) if math.hypot(x, y) <= R_MAX]
        ids, own, pairs = frame.ids.tolist(), own.tolist(), assigned["pairs"]
        assert [ids[kept[p["gt"]]] for p in pairs] == [p["gt_id"] for p in pairs]
        own_pairs = [p for p in pairs if p["gt_id"] == ids[own[p["pred"]]]]
        assert [p["box_cost"] for p in own_pairs] == [0] * len(own_pairs)
        rendered_in_range = len(set(own) & set(kept))
        assert len(own_pairs) == rendered_in_range
        others = [p for p in pairs if p not in own_pairs]
        assert all(kept[p["gt"]] not in own and own[p["pred"]] not in kept for p in others)
        assert len(pairs) == min(len(kept), len(own))
        assert not others or drop
        expected_pairs += rendered_in_range
    assert expected_pairs > 0
    assert report["tp_errors"] == {"ate": 0, "ase": 0, "aoe": 0, "ave": 0}
    assert report["matched_pairs"] == expected_pairs
