import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarview
from _frame_loops import frame_loop_assign_report, frame_loop_eval_metrics
from polarview import assignment, camera, cli, geometry, serialization, simulator, tracker
from polarview.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNdsCommand:
    def test_published_row(self, capsys):
        code, out, _ = run(
            capsys, "nds", "--map", "0.338", "--tps", "0.768,0.284,0.443,0.883,0.221"
        )
        assert code == 0
        assert out.strip() == "0.409"

    def test_bad_tp_count(self, capsys):
        code, _, err = run(capsys, "nds", "--map", "0.3", "--tps", "0.5,0.5")
        assert code == 1
        assert "five" in err


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "nds", "--map", "0.3", "--tps", "0,0,0,0,0", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_input_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "render", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d.json")
        )
        assert code == 2
        assert "i/o error" in err


class TestSymmetryCheck:
    def test_reports_tiny_discrepancy(self, capsys):
        code, out, _ = run(capsys, "symmetry-check", "--cameras", "6", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["max_pixel_error"] < 1e-9
        assert report["max_depth_error"] < 1e-9


class TestRangeDemo:
    def test_fixture_outcome(self, capsys):
        code, out, _ = run(capsys, "range-demo")
        assert code == 0
        report = json.loads(out)
        assert report["circular"]["kept"] == [0, 1]
        assert report["rectangular"]["kept"] == [1]
        assert report["rectangular"]["dropped"] == [0]
        radii = [o["r"] for o in report["objects"]]
        assert radii[0] == pytest.approx(radii[1], abs=1e-9)


class TestGradcheck:
    def test_csv_errors_below_tolerance(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--fixtures", "20", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "fixture_id,max_rel_error"
        assert len(lines) == 21
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(errors) < 1e-5

    def test_300_fixtures_keep_their_bytes(self, capsys, tmp_path):
        # digest taken when the finite differences built a BoxEncoding,
        # PolarVelocity and PolarBox per loss evaluation
        path = str(tmp_path / "grad.csv")
        code, _, err = run(capsys, "gradcheck", "--fixtures", "300", "--seed", "5", "--out", path)
        assert code == 0, err
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "4212a6fef3951d8ae7c8e28650cfe59cbe2c24bbe991294be9cd6d261ffa8998"

    @pytest.mark.parametrize(
        "seed, expected",
        [
            ("0", "2f9417e28e5e9b9f1e6952b52f72b17d086b8b38a353b98ca0588c2dd75f1fb4"),
            ("5", "63cbcb11d2a687a256c7282199df541038dd4c2f78af52bcbd0b4d4735e08707"),
            # the seed whose finite differences err most (digest taken with one call per fixture)
            ("3", "312cff1cbc2e918908b399c150d9c8da7b913c613d3e00f269f36ed0db5a1ed3"),
        ],
    )
    def test_1500_fixtures_keep_their_bytes(self, capsys, seed, expected):
        # the benchmark's scale; digests taken when every finite-difference
        # point ran the full decode and the gradients were numpy arrays
        code, out, err = run(capsys, "gradcheck", "--fixtures", "1500", "--seed", seed)
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected

    def test_no_fixtures_write_only_the_header(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--fixtures", "0")
        assert (code, out, err) == (0, "fixture_id,max_rel_error\r\n", "")

    def test_one_fixture_keeps_its_bytes(self, capsys):
        # digest taken when the finite differences ran one call per fixture
        code, out, err = run(capsys, "gradcheck", "--fixtures", "1")
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "4b684471c85b89343672875b8fe0e91be4d6b04410284ba48580cd381d6bbec0"
        )


class TestPipeline:
    def test_simulate_render_track_eval(self, capsys, tmp_path):
        scene_path = str(tmp_path / "scene.json")
        dets_path = str(tmp_path / "dets.json")
        code, _, _ = run(
            capsys, "simulate", "--objects", "4", "--frames", "6", "--seed", "9",
            "--speed-max", "2.0", "--out", scene_path,
        )
        assert code == 0
        code, _, _ = run(capsys, "render", "--scene", scene_path, "--out", dets_path)
        assert code == 0

        code, out, _ = run(capsys, "assign", "--scene", scene_path, "--detections", dets_path)
        assert code == 0
        report = json.loads(out)
        assert report["k_scaling"] == 20.0
        first = report["frames"][0]
        for pair in first["pairs"]:
            assert pair["cost"] == pytest.approx(pair["class_cost"] + pair["box_cost"], rel=1e-12)
            assert pair["box_cost"] == pytest.approx(0.0, abs=1e-9)  # zero noise
            assert pair["class_cost"] == -1.0

        track_path = str(tmp_path / "tracks.json")
        code, _, _ = run(
            capsys, "track", "--detections", dets_path, "--scene", scene_path, "--out", track_path
        )
        assert code == 0
        with open(track_path) as fh:
            tracks = json.load(fh)
        assert tracks["summary"]["tracks_created"] == 4
        assert tracks["summary"]["id_switches"] == 0

        code, out, _ = run(capsys, "eval", "--scene", scene_path, "--detections", dets_path)
        assert code == 0
        metrics = json.loads(out)
        assert metrics["map"] == pytest.approx(1.0)
        assert metrics["tp_errors"]["ate"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["nds"] == pytest.approx((5.0 + 4.0) / 10.0)  # maae default 1.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        argv = ["simulate", "--objects", "3", "--frames", "4", "--ego", "arc", "--seed", "5"]
        assert main(argv + ["--out", out_a]) == 0
        assert main(argv + ["--out", out_b]) == 0
        capsys.readouterr()
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_empty_scene_is_valid(self, capsys, tmp_path):
        path = str(tmp_path / "empty.json")
        code, _, _ = run(capsys, "simulate", "--objects", "0", "--frames", "2", "--out", path)
        assert code == 0
        with open(path) as fh:
            scene = json.load(fh)
        assert all(frame["objects"] == [] for frame in scene["frames"])

    def test_eval_csv_format(self, capsys, tmp_path):
        scene_path = str(tmp_path / "scene.json")
        dets_path = str(tmp_path / "dets.json")
        run(capsys, "simulate", "--objects", "2", "--frames", "2", "--seed", "1", "--out", scene_path)
        run(capsys, "render", "--scene", scene_path, "--out", dets_path)
        code, out, _ = run(
            capsys, "eval", "--scene", scene_path, "--detections", dets_path, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("map,") for line in lines)

    def test_eval_csv_writes_negative_zero_as_json_does(self, capsys, tmp_path):
        scene_path = str(tmp_path / "scene.json")
        dets_path = str(tmp_path / "dets.json")
        run(capsys, "simulate", "--objects", "2", "--frames", "2", "--seed", "1", "--out", scene_path)
        run(capsys, "render", "--scene", scene_path, "--out", dets_path)
        argv = ("eval", "--scene", scene_path, "--detections", dets_path, "--maae", "-0")
        _, out, _ = run(capsys, *argv)
        assert '"maae": 0,' in out
        _, out, _ = run(capsys, *argv, "--format", "csv")
        assert dict(csv.reader(io.StringIO(out)))["maae"] == "0"

    def test_config_file_overrides_flags(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"objects": 7, "seed": 11}))
        path = str(tmp_path / "scene.json")
        code, _, _ = run(
            capsys, "simulate", "--objects", "2", "--config", str(config_path), "--out", path
        )
        assert code == 0
        with open(path) as fh:
            scene = json.load(fh)
        assert len(scene["frames"][0]["objects"]) == 7

    def test_config_rejects_unknown_key(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"bogus_key": 1}))
        code, _, err = run(
            capsys, "simulate", "--config", str(config_path), "--out", str(tmp_path / "s.json")
        )
        assert code == 1
        assert "bogus_key" in err

    @pytest.mark.parametrize(
        "overrides",
        [{"format": "xml"}, {"range_mode": "square"}, {"thresholds": [0.5, 1]}, {"out": None}],
        ids=["format-choice", "range-mode-choice", "thresholds-list", "null"],
    )
    def test_config_values_are_checked_like_flags(self, capsys, tmp_path, overrides):
        scene_path = str(tmp_path / "scene.json")
        dets_path = str(tmp_path / "dets.json")
        run(capsys, "simulate", "--objects", "2", "--frames", "2", "--seed", "1", "--out", scene_path)
        run(capsys, "render", "--scene", scene_path, "--out", dets_path)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(overrides))
        code, out, err = run(
            capsys, "eval", "--scene", scene_path, "--detections", dets_path,
            "--config", str(config_path),
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("cameras", ["1", "0", "-4"])
    def test_simulate_rejects_fewer_than_two_cameras(self, capsys, tmp_path, cameras):
        out = tmp_path / "scene.json"
        code, _, err = run(capsys, "simulate", "--cameras", cameras, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "symmetry-check"])
    def test_rejects_more_cameras_than_the_bound(self, capsys, tmp_path, command):
        out = tmp_path / "out.json"
        start = time.perf_counter()
        code, _, err = run(capsys, command, "--cameras", "1001", "--out", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert len(err.splitlines()) == 1 and "1000" in err
        assert not out.exists()

    def test_bound_itself_is_accepted(self, capsys):
        code, out, _ = run(capsys, "symmetry-check", "--cameras", "1000", "--points", "1")
        assert code == 0
        assert json.loads(out)["cameras"] == 1000


class TestEvalRegionFilter:
    def test_detection_outside_rectangle_changes_nothing(self, capsys, tmp_path):
        scene_path = str(tmp_path / "scene.json")
        dets_path = tmp_path / "dets.json"
        extra_path = tmp_path / "extra.json"
        run(capsys, "simulate", "--objects", "12", "--frames", "3", "--seed", "4", "--out", scene_path)
        run(capsys, "render", "--scene", scene_path, "--radial-std", "0.2", "--seed", "2",
            "--out", str(dets_path))
        dets = json.loads(dets_path.read_text())
        # 45 m straight ahead is inside the default 50 m circle but outside the
        # 30 x 40 rectangle; listed first, it shifts every kept detection's index
        outside = dict(dets["frames"][0]["detections"][0])
        outside["box"] = [45.0, 0.0, 1.0, 0.0, 4.0, 2.0, 1.5, 0.0, 1.0]
        dets["frames"][0]["detections"].insert(0, outside)
        extra_path.write_text(json.dumps(dets))

        def report(path, *mode):
            code, out, _ = run(capsys, "eval", "--scene", scene_path, "--detections", str(path), *mode)
            assert code == 0
            return out

        rect = ("--range-mode", "rectangular", "--x-max", "30", "--y-max", "40")
        assert json.loads(report(dets_path, *rect))["matched_pairs"] > 0
        assert report(extra_path, *rect) == report(dets_path, *rect)
        assert report(extra_path) != report(dets_path)  # the circle keeps it, and it counts

    def test_unmatched_ground_truth_on_the_ego_axis_evaluates(self, capsys, tmp_path):
        # only matched ground truths are converted to polar rows, so an object
        # at (0, 0) that no detection matches has no azimuth to fail on
        scene_path, dets_path, axis_path = (str(tmp_path / f"{k}.json") for k in ("scene", "dets", "axis"))
        run(capsys, "simulate", "--objects", "5", "--frames", "2", "--seed", "6", "--out", scene_path)
        run(capsys, "render", "--scene", scene_path, "--out", dets_path)
        with open(scene_path) as fh:
            scene = json.load(fh)
        scene["frames"][0]["objects"].append(
            {"id": 99, "class": 0, "box": [0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0], "velocity": [0.0, 0.0]}
        )
        with open(axis_path, "w") as fh:
            json.dump(scene, fh)
        code, out, err = run(capsys, "eval", "--scene", axis_path, "--detections", dets_path)
        assert code == 0, err
        assert json.loads(out)["matched_pairs"] == 10


@pytest.fixture
def tracked(capsys, tmp_path):
    """A noisy scene, its detections and the track file made from them."""
    paths = {k: str(tmp_path / f"{k}.json") for k in ("scene", "dets", "tracks")}
    run(capsys, "simulate", "--objects", "6", "--frames", "5", "--seed", "4",
        "--speed-max", "2.0", "--out", paths["scene"])
    run(capsys, "render", "--scene", paths["scene"], "--radial-std", "0.3", "--drop-prob", "0.2",
        "--fp-rate", "2", "--seed", "3", "--out", paths["dets"])
    code, _, _ = run(capsys, "track", "--detections", paths["dets"], "--scene", paths["scene"],
                     "--out", paths["tracks"])
    assert code == 0
    return paths


class TestEvalOnTracks:
    def test_track_output_is_valid_eval_input(self, capsys, tracked):
        def report(path, *flags):
            code, out, _ = run(capsys, "eval", "--scene", tracked["scene"], "--detections", path, *flags)
            assert code == 0
            return out

        assert report(tracked["tracks"]) == report(tracked["dets"])
        csv_rect = ("--format", "csv", "--range-mode", "rectangular")
        assert report(tracked["tracks"], *csv_rect) == report(tracked["dets"], *csv_rect)

    def test_rejects_unknown_schema_version(self, capsys, tracked, tmp_path):
        with open(tracked["tracks"]) as fh:
            tracks = json.load(fh)
        tracks["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tracks))
        code, _, err = run(capsys, "eval", "--scene", tracked["scene"], "--detections", str(bad))
        assert code == 1
        assert "schema_version" in err


class TestTrackFileIsDetections:
    def test_records_are_source_records_plus_track_id(self, tracked):
        with open(tracked["dets"]) as fh:
            dets = json.load(fh)
        with open(tracked["tracks"]) as fh:
            tracks = json.load(fh)
        stripped = [
            {"t": f["t"], "detections": [{k: v for k, v in d.items() if k != "track_id"}
                                         for d in f["detections"]]}
            for f in tracks["frames"]
        ]
        assert stripped == dets["frames"]

    def test_track_on_own_output_is_byte_identical(self, capsys, tracked, tmp_path):
        again = str(tmp_path / "again.json")
        code, _, _ = run(capsys, "track", "--detections", tracked["tracks"], "--scene",
                         tracked["scene"], "--out", again)
        assert code == 0
        assert open(again, "rb").read() == open(tracked["tracks"], "rb").read()


class TestTrackRefusesNonFiniteStep:
    @pytest.mark.parametrize("matching", ["greedy", "hungarian"])
    def test_frame_times_a_non_finite_step_apart_exit_one(self, capsys, tracked, tmp_path, matching):
        # -1e308 and 1e308 are finite and increasing, but their difference overflows to inf
        with open(tracked["dets"]) as fh:
            doc = json.load(fh)
        still = dict(next(d for f in doc["frames"] for d in f["detections"]), velocity=[0.0, 0.0])
        doc["frames"] = [{"t": t, "detections": [still]} for t in (-1e308, 1e308)]
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run(capsys, "track", "--detections", bad, "--matching", matching)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "dt must be positive and finite" in err


class TestRefusesFilesAtOtherFrameTimes:
    """``assign``, ``eval`` and ``track --scene`` refuse detections whose frame times are not the scene's."""

    @pytest.mark.parametrize("command", ["assign", "eval", "track"])
    @pytest.mark.parametrize("frames", [["--dt", "0.25"], ["--frames", "4"], ["--frames", "6"], ["--seed", "5"]],
                             ids=["same-count", "fewer", "more", "same-times"])
    def test_exit_one_with_one_line_and_no_output(self, capsys, tracked, tmp_path, command, frames):
        other = {k: str(tmp_path / f"other-{k}.json") for k in ("scene", "dets")}
        run(capsys, "simulate", "--objects", "6", "--frames", "5", "--seed", "4", "--speed-max", "2.0", *frames,
            "--out", other["scene"])
        run(capsys, "render", "--scene", other["scene"], "--fp-rate", "2", "--seed", "3", "--out", other["dets"])
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, command, "--scene", tracked["scene"], "--detections", other["dets"],
                                "--out", str(out))
        if frames[0] == "--seed":  # another scene at the same times is scored
            assert (code, stdout, err) == (0, "", "") and out.exists()
        else:
            message = f"polarview: {command}: scene and detections disagree on frame times\n"
            assert (code, stdout, err) == (1, "", message)
            assert not out.exists()


SCENE_KEYS = [
    ("schema_version",), ("rig",), ("frames",),
    ("rig", 0, "intrinsics"), ("rig", 0, "extrinsics"), ("rig", 0, "image_size"),
    ("rig", 0, "extrinsics", "rotation"), ("rig", 0, "extrinsics", "translation"),
    ("frames", 0, "t"), ("frames", 0, "ego_pose"), ("frames", 0, "objects"),
    ("frames", 0, "ego_pose", "rotation"), ("frames", 0, "ego_pose", "translation"),
    *[("frames", 0, "objects", 0, key) for key in ("id", "class", "box", "velocity")],
]
DETECTION_KEYS = [
    ("schema_version",), ("frames",), ("frames", 0, "t"), ("frames", 0, "detections"),
    *[("frames", 0, "detections", 0, key) for key in ("box", "score", "probs", "velocity")],
]

# (file kind, path to the value, malformed value, the key its message must name)
MALFORMED = [
    ("scene", ("frames", 0), [1, 2], "frames"),
    ("scene", ("frames", 0, "objects", 0), [1, 2], "objects"),
    ("scene", ("frames", 0, "ego_pose"), [1, 2], "ego_pose"),
    ("scene", ("rig", 0, "extrinsics"), [1, 2], "extrinsics"),
    ("scene", ("frames",), {"t": 0.0}, "frames"),
    ("scene", ("rig",), {"intrinsics": [1, 1, 0, 0]}, "rig"),
    ("scene", ("frames", 0, "objects"), "cars", "objects"),
    ("scene", ("frames",), 3, "frames"),
    ("scene", ("rig", 0, "intrinsics"), [800.0, 800.0, 800.0], "intrinsics"),
    ("scene", ("rig", 0, "extrinsics", "rotation"), [1.0] * 8, "rotation"),
    ("scene", ("rig", 0, "extrinsics", "translation"), 1.0, "translation"),
    ("scene", ("schema_version",), 99, "schema_version"),
    ("detections", ("frames", 0), [1, 2], "frames"),
    ("detections", ("frames", 0, "detections", 0), [1, 2], "detections"),
    ("detections", ("frames",), {"t": 0.0}, "frames"),
    ("detections", ("frames", 0, "detections"), "cars", "detections"),
    ("detections", ("schema_version",), 99, "schema_version"),
    ("detections", (), [], "top level"),
]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "kind, path",
        [("scene", p) for p in SCENE_KEYS] + [("detections", p) for p in DETECTION_KEYS],
        ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)),
    )
    def test_missing_key_names_itself_and_the_file_kind(self, capsys, tracked, tmp_path, kind, path):
        bad = str(tmp_path / "bad.json")
        if kind == "scene":
            source, argv = tracked["scene"], ("render", "--scene", bad, "--out", str(tmp_path / "out.json"))
        else:
            source, argv = tracked["dets"], ("track", "--detections", bad)
        with open(source) as fh:
            doc = json.load(fh)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        del parent[path[-1]]
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"polarview: {kind} file: missing key {path[-1]!r}\n"

    @pytest.mark.parametrize(
        "kind, path, value, key",
        MALFORMED,
        ids=[f"{kind}-{'.'.join(map(str, path)) or 'document'}-{type(value).__name__}"
             for kind, path, value, _ in MALFORMED],
    )
    def test_malformed_value_names_its_key_and_the_file_kind(self, capsys, tracked, tmp_path, kind, path, value, key):
        bad = str(tmp_path / "bad.json")
        if kind == "scene":
            source, argv = tracked["scene"], ("eval", "--scene", bad, "--detections", tracked["dets"])
        else:
            source, argv = tracked["dets"], ("track", "--detections", bad)
        with open(source) as fh:
            doc = json.load(fh)
        if path:
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = value
        else:
            doc = value
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"polarview: {kind} file: ") and key in err

    @pytest.mark.parametrize("document", ["[]", '"x"'], ids=["list", "string"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--scene", "{bad}", "--out", "{out}"),
            ("assign", "--scene", "{bad}", "--detections", "{dets}"),
            ("assign", "--scene", "{scene}", "--detections", "{bad}"),
            ("track", "--detections", "{bad}"),
            ("eval", "--scene", "{scene}", "--detections", "{bad}"),
        ],
        ids=["render-scene", "assign-scene", "assign-detections", "track-detections",
             "eval-detections"],
    )
    def test_non_object_document_exits_one(self, capsys, tracked, tmp_path, argv, document):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        names = dict(tracked, bad=str(bad), out=str(tmp_path / "out.json"))
        code, _, err = run(capsys, *[a.format(**names) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("past_last", [False, True], ids=["negative", "past-last"])
    def test_assign_rejects_class_outside_probs(self, capsys, tracked, tmp_path, past_last):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        with open(tracked["dets"]) as fh:
            n_classes = len(json.load(fh)["frames"][0]["detections"][0]["probs"])
        scene["frames"][0]["objects"][0]["class"] = n_classes if past_last else -1
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps(scene))
        code, _, err = run(capsys, "assign", "--scene", str(bad), "--detections", tracked["dets"])
        assert code == 1
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("assign", "--scene", "{scene}", "--detections", "{bad}"),
            ("track", "--detections", "{bad}"),
            ("eval", "--scene", "{scene}", "--detections", "{bad}"),
        ],
        ids=["assign", "track", "eval"],
    )
    @pytest.mark.parametrize("probs", ["empty", "nested", "ragged"])
    def test_rejects_malformed_probs(self, capsys, tracked, tmp_path, argv, probs):
        with open(tracked["dets"]) as fh:
            dets = json.load(fh)
        record = dets["frames"][-1]["detections"][-1]
        record["probs"] = {"empty": [], "nested": [record["probs"]],
                           "ragged": record["probs"] + [0.0]}[probs]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dets))
        code, _, err = run(capsys, *[a.format(bad=str(bad), **tracked) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--scene", "{bad}", "--out", "{out}"),
            ("assign", "--scene", "{bad}", "--detections", "{dets}"),
            ("eval", "--scene", "{bad}", "--detections", "{dets}"),
        ],
        ids=["render", "assign", "eval"],
    )
    @pytest.mark.parametrize(
        "key, value", [("class", 1.7), ("id", 0.5), ("class", "2")],
        ids=["float-class", "float-id", "string-class"],
    )
    def test_rejects_non_integer_scene_ids(self, capsys, tracked, tmp_path, argv, key, value):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        scene["frames"][0]["objects"][0][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        names = dict(tracked, bad=str(bad), out=str(tmp_path / "out.json"))
        code, _, err = run(capsys, *[a.format(**names) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--scene", "{bad_scene}", "--out", "{out}"),
            ("assign", "--scene", "{bad_scene}", "--detections", "{dets}"),
            ("assign", "--scene", "{scene}", "--detections", "{bad_dets}"),
            ("track", "--detections", "{bad_dets}"),
            ("track", "--detections", "{dets}", "--scene", "{bad_scene}"),
            ("eval", "--scene", "{bad_scene}", "--detections", "{dets}"),
            ("eval", "--scene", "{scene}", "--detections", "{bad_dets}"),
        ],
        ids=["render-scene", "assign-scene", "assign-detections", "track-detections",
             "track-scene", "eval-scene", "eval-detections"],
    )
    @pytest.mark.parametrize("t", ["NaN", "Infinity", "-Infinity", "1e400", "repeated"])
    def test_rejects_bad_frame_time(self, capsys, tracked, tmp_path, argv, t):
        names = dict(tracked, out=str(tmp_path / "out.json"))
        for kind in ("scene", "dets"):
            with open(tracked[kind]) as fh:
                doc = json.load(fh)
            frames = doc["frames"]
            frames[1]["t"] = frames[0]["t"] if t == "repeated" else "@"
            names[f"bad_{kind}"] = str(tmp_path / f"bad_{kind}.json")
            with open(names[f"bad_{kind}"], "w") as fh:
                fh.write(json.dumps(doc).replace('"@"', t))
        code, _, err = run(capsys, *[a.format(**names) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--scene", "{bad}", "--detections", "{dets}"),
            ("eval", "--scene", "{scene}", "--detections", "{bad}"),
            ("simulate", "--config", "{bad}", "--out", "{out}"),
        ],
        ids=["scene", "detections", "config"],
    )
    def test_rejects_deep_nesting(self, capsys, tracked, tmp_path, argv):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        names = dict(tracked, bad=str(bad), out=str(tmp_path / "out.json"))
        code, _, err = run(capsys, *[a.format(**names) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "nesting" in err

    @pytest.mark.parametrize(
        "content", [b"", b'{"frames": [{"t": 0.0, ', b"\xff{}", b'{"t": NaN}'],
        ids=["empty", "truncated", "not-utf8", "nan"],
    )
    @pytest.mark.parametrize(
        "argv, kind",
        [
            (("track", "--detections", "{bad}"), "detections file"),
            (("eval", "--scene", "{bad}", "--detections", "{dets}"), "scene file"),
            (("range-demo", "--config", "{bad}"), "--config"),
        ],
        ids=["track-detections", "eval-scene", "range-demo-config"],
    )
    def test_json_text_error_names_the_file_and_its_kind(self, capsys, tracked, tmp_path, content, argv, kind):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, *[a.format(**tracked, bad=str(bad)) for a in argv])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"polarview: {kind}: {bad}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("assign", "--scene", "{scene}", "--detections", "{bad}"),
            ("track", "--detections", "{bad}"),
            ("eval", "--scene", "{scene}", "--detections", "{bad}"),
        ],
        ids=["assign", "track", "eval"],
    )
    @pytest.mark.parametrize("value", ["0.5", None], ids=["string", "null"])
    @pytest.mark.parametrize("field", ["score", "t", "box"])
    def test_rejects_detection_numbers_that_are_not_numbers(self, capsys, tracked, tmp_path, argv, value, field):
        with open(tracked["dets"]) as fh:
            dets = json.load(fh)
        frame = dets["frames"][1]
        if field == "t":
            frame["t"] = value
        elif field == "score":
            frame["detections"][0]["score"] = value
        else:
            frame["detections"][0]["box"][3] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dets))
        code, _, err = run(capsys, *[a.format(bad=str(bad), **tracked) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--scene", "{bad}", "--out", "{out}"),
            ("eval", "--scene", "{bad}", "--detections", "{dets}"),
        ],
        ids=["render", "eval"],
    )
    @pytest.mark.parametrize("value", ["0.5", None], ids=["string", "null"])
    @pytest.mark.parametrize("field", ["t", "box", "velocity"])
    def test_rejects_scene_numbers_that_are_not_numbers(self, capsys, tracked, tmp_path, argv, value, field):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        frame = scene["frames"][1]
        if field == "t":
            frame["t"] = value
        else:
            frame["objects"][0][field][1] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        names = dict(tracked, bad=str(bad), out=str(tmp_path / "out.json"))
        code, _, err = run(capsys, *[a.format(**names) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("assign", "--scene", "{scene}", "--detections", "{bad}"),
            ("track", "--detections", "{bad}"),
            ("eval", "--scene", "{scene}", "--detections", "{bad}"),
        ],
        ids=["assign", "track", "eval"],
    )
    @pytest.mark.parametrize("field, index", [("box", 4), ("score", None), ("probs", 0), ("velocity", 1), ("t", None)])
    def test_rejects_boolean_detection_numbers(self, capsys, tracked, tmp_path, argv, field, index):
        with open(tracked["dets"]) as fh:
            dets = json.load(fh)
        frame = dets["frames"][1]
        if field == "t":
            frame["t"] = True
        elif index is None:
            frame["detections"][0][field] = True
        else:
            frame["detections"][0][field][index] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dets))
        code, _, err = run(capsys, *[a.format(bad=str(bad), **tracked) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--scene", "{bad}", "--out", "{out}"),
            ("eval", "--scene", "{bad}", "--detections", "{dets}"),
        ],
        ids=["render", "eval"],
    )
    @pytest.mark.parametrize("value", ["0", True, 10**400], ids=["string", "true", "400-digits"])
    @pytest.mark.parametrize(
        "path",
        [("frames", 1, "objects", 0, "box", 1), ("frames", 1, "objects", 0, "velocity", 1),
         ("frames", 1, "ego_pose", "rotation", 2), ("frames", 1, "ego_pose", "translation", 0),
         ("rig", 0, "intrinsics", 2), ("rig", 0, "extrinsics", "translation", 0)],
        ids=["object-box", "object-velocity", "pose-rotation", "pose-translation", "rig-intrinsics",
             "rig-extrinsics"],
    )
    def test_rejects_scene_numbers_outside_float64(self, capsys, tracked, tmp_path, argv, value, path):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        parent = scene
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        names = dict(tracked, bad=str(bad), out=str(tmp_path / "out.json"))
        code, _, err = run(capsys, *[a.format(**names) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--scene", "{bad}", "--out", "{out}"),
            ("eval", "--scene", "{bad}", "--detections", "{dets}"),
        ],
        ids=["render", "eval"],
    )
    @pytest.mark.parametrize("key", ["id", "class"])
    def test_rejects_scene_integers_beyond_64_bits(self, capsys, tracked, tmp_path, argv, key):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        scene["frames"][1]["objects"][0][key] = 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        names = dict(tracked, bad=str(bad), out=str(tmp_path / "out.json"))
        code, _, err = run(capsys, *[a.format(**names) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1

    # orjson reads these integers as floats; the message is the one the integers themselves get
    @pytest.mark.parametrize(
        "path, value, message",
        [(("frames", 1, "objects", 0, "id"), 2**64, "object id must fit in 64 bits"),
         (("schema_version",), 2**64 + 1, f"unsupported schema_version {2**64 + 1}")],
        ids=["id-2^64", "schema_version-2^64+1"],
    )
    def test_integer_beyond_64_bits_is_named_as_written(self, capsys, tracked, tmp_path, path, value, message):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        parent = scene
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        code, out, err = run(capsys, "render", "--scene", str(bad), "--out", str(tmp_path / "out.json"))
        assert (code, out, err) == (1, "", f"polarview: scene file: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "--scene", "{bad}", "--out", "{out}"),
            ("assign", "--scene", "{bad}", "--detections", "{dets}", "--out", "{out}"),
            ("eval", "--scene", "{bad}", "--detections", "{dets}", "--out", "{out}"),
            ("track", "--detections", "{dets}", "--scene", "{bad}", "--out", "{out}"),
        ],
        ids=["render", "assign", "eval", "track-scene"],
    )
    @pytest.mark.parametrize("every", [False, True], ids=["one", "all"])
    def test_rejects_negative_class(self, capsys, tracked, tmp_path, argv, every):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        objects = [o for frame in scene["frames"] for o in frame["objects"]]
        for o in objects if every else objects[1:2]:
            o["class"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, *[a.format(bad=str(bad), out=str(out), **tracked) for a in argv])
        assert code == 1
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_class_id_too_large_to_render_exits_one(self, capsys, tracked, tmp_path):
        # np.eye over 10**7 classes asks for 728 TiB, beyond the user address
        # space, so the allocation fails at once and touches no memory
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        scene["frames"][0]["objects"][0]["class"] = 10_000_000
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "render", "--scene", str(bad), "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1 and "out of memory" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "size", [[], [1600], [1600, 900, 3], [1600.0, 900], ["1600", 900], "1600x900", None],
        ids=["empty", "one", "three", "float", "string", "not-a-list", "null"],
    )
    def test_rejects_bad_image_size(self, capsys, tracked, tmp_path, size):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        scene["rig"][2]["image_size"] = size
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scene))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "render", "--scene", str(bad), "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # Truncated input files: every prefix of a JSON object document is
    # invalid JSON, so each cut must end in a one-line error, never a traceback
    @pytest.mark.parametrize(
        "cut, argvs",
        [
            ("dets", [
                ("assign", "--scene", "{scene}", "--detections", "{bad}"),
                ("track", "--detections", "{bad}"),
                ("eval", "--scene", "{scene}", "--detections", "{bad}"),
            ]),
            ("scene", [
                ("render", "--scene", "{bad}", "--out", "{out}"),
                ("assign", "--scene", "{bad}", "--detections", "{dets}"),
                ("track", "--detections", "{dets}", "--scene", "{bad}"),
                ("eval", "--scene", "{bad}", "--detections", "{dets}"),
            ]),
        ],
        ids=["detections", "scene"],
    )
    def test_truncated_file_exits_with_one_line(self, capsys, tracked, tmp_path, cut, argvs):
        with open(tracked[cut], "rb") as fh:
            data = fh.read().rstrip()
        bad, out = tmp_path / "bad.json", tmp_path / "out.json"
        names = dict(tracked, bad=str(bad), out=str(out))
        for end in sorted(random.Random(11).sample(range(len(data)), 120)):
            bad.write_bytes(data[:end])
            for argv in argvs:
                code, _, err = run(capsys, *[a.format(**names) for a in argv])
                assert code in (1, 2) and len(err.splitlines()) == 1, (end, argv, err)
                assert not out.exists()


class TestNonFiniteAndNegativeSettings:
    @pytest.mark.parametrize(
        "flag, value",
        [("--r-max", "nan"), ("--r-max", "inf"), ("--dt", "inf"), ("--dt", "nan"), ("--speed-max", "inf"),
         ("--speed-max", "nan"), ("--speed-min", "nan"), ("--ego-speed", "nan"), ("--ego-yaw-rate", "inf")],
    )
    def test_simulate_rejects_non_finite(self, capsys, tmp_path, flag, value):
        out = tmp_path / "scene.json"
        code, _, err = run(capsys, "simulate", "--ego", "arc", flag, value, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [(flag, value)
         for flag in ("--radial-std", "--tangential-std", "--z-std", "--size-std", "--yaw-std", "--velocity-std",
                      "--fp-rate")
         for value in ("nan", "inf")]
        # finite stds whose noise overflows (or, for sizes, also underflows) a rendered value
        + [("--size-std", "1000"), ("--velocity-std", "1e308"), ("--yaw-std", "1e308"), ("--tangential-std", "1e308"),
           ("--radial-std", "1e308"), ("--z-std", "1.7e308"), ("--noise-frame", "cartesian", "--radial-std", "1e308")]
        # a false-positive mean past the per-frame bound
        + [("--fp-rate", "1e308"), ("--fp-rate", "10001")],
        ids="-".join,
    )
    def test_render_rejects_non_finite_noise(self, capsys, tracked, tmp_path, argv):
        out = tmp_path / "noisy.json"
        code, _, err = run(capsys, "render", "--scene", tracked["scene"], *argv, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert f"NoiseModel: {cli._SETTINGS_FLAGS[simulator.NoiseModel][argv[-2]]} " in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_render_refuses_false_positives_inside_the_placement_floor(self, capsys, tracked, tmp_path, seed):
        out = tmp_path / "floor.json"
        code, _, err = run(capsys, "render", "--scene", tracked["scene"], "--r-max", "1", "--fp-rate", "3",
                           "--seed", seed, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1 and "r_max" in err and "2 m placement floor" in err
        assert not out.exists()

    @pytest.mark.parametrize("r_max, fp_rate", [("1.5", "0"), ("2", "1")])
    def test_render_accepts_r_max_at_the_placement_floor(self, capsys, tracked, tmp_path, r_max, fp_rate):
        code, _, err = run(capsys, "render", "--scene", tracked["scene"], "--r-max", r_max, "--fp-rate", fp_rate,
                           "--seed", "1", "--out", str(tmp_path / "floor.json"))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
    def test_track_rejects_threshold(self, capsys, tracked, tmp_path, threshold):
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "track", "--detections", tracked["dets"], "--threshold", threshold,
                           "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [("--thresholds", "nan,-1", "--tp-threshold", "-1"), ("--thresholds", "nan"), ("--thresholds", "1,inf"),
         ("--thresholds", "0.5,-1"), ("--thresholds", "0"), ("--tp-threshold", "-1"), ("--tp-threshold", "nan"),
         ("--tp-threshold", "inf")],
        ids=["issue-case", "nan", "inf", "negative", "zero", "tp-negative", "tp-nan", "tp-inf"],
    )
    def test_eval_rejects_thresholds(self, capsys, tracked, flags):
        code, out, err = run(capsys, "eval", "--scene", tracked["scene"], "--detections", tracked["dets"], *flags)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize(
        "argv, flag",
        [(("eval", "--scene", "{scene}", "--detections", "{dets}", "--thresholds", "a,b"), "--thresholds"),
         (("eval", "--scene", "{scene}", "--detections", "{dets}", "--thresholds", ""), "--thresholds"),
         (("nds", "--map", "0.3", "--tps", "0.1,x,0.2,0.3,0.4"), "--tps")],
        ids=["thresholds-letters", "thresholds-empty", "tps-letter"],
    )
    def test_number_list_flag_names_itself(self, capsys, tracked, argv, flag):
        code, out, err = run(capsys, *[a.format(**tracked) for a in argv])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and f"{flag} must be comma-separated numbers" in err

    @pytest.mark.parametrize("maae", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "region", [(), ("--range-mode", "rectangular", "--x-max", "0.001", "--y-max", "0.001")],
        ids=["matched-pairs", "no-ground-truth-in-range"],
    )
    def test_eval_rejects_maae_whatever_the_data(self, capsys, tracked, maae, region):
        code, out, err = run(capsys, "eval", "--scene", tracked["scene"], "--detections", tracked["dets"],
                             "--maae", maae, *region)
        assert (code, out) == (1, "")
        assert err == "polarview: eval: --maae must be finite and nonnegative\n"

    @pytest.mark.parametrize("thresholds", ["2,2", "0.1,0.10000000001"])
    def test_eval_rejects_thresholds_with_the_same_key(self, capsys, tracked, thresholds):
        code, out, err = run(capsys, "eval", "--scene", tracked["scene"], "--detections", tracked["dets"],
                             "--thresholds", thresholds)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "--thresholds" in err

    @pytest.mark.parametrize("k_scaling", ["-5", "0", "0.5", "nan", "inf"])
    def test_assign_rejects_k_scaling_below_one(self, capsys, tracked, tmp_path, k_scaling):
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "assign", "--scene", tracked["scene"], "--detections", tracked["dets"],
                           "--k-scaling", k_scaling, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "--k-scaling" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [(("gradcheck", "--fixtures", "-2"), "--fixtures"), (("symmetry-check", "--points", "-3"), "--points")],
        ids=["gradcheck", "symmetry-check"],
    )
    def test_rejects_negative_counts(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [("simulate",), ("render", "--scene", "{scene}"), ("symmetry-check",), ("gradcheck",)],
        ids=["simulate", "render", "symmetry-check", "gradcheck"],
    )
    def test_rejects_negative_seed(self, capsys, tracked, tmp_path, argv):
        out = tmp_path / "out"
        code, _, err = run(capsys, *[a.format(**tracked) for a in argv], "--seed", "-1", "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "seed must be >= 0" in err
        assert not out.exists()


class TestTrackHungarianFlag:
    def test_matching_choice_accepted(self, capsys, tmp_path):
        scene_path = str(tmp_path / "scene.json")
        dets_path = str(tmp_path / "dets.json")
        run(capsys, "simulate", "--objects", "3", "--frames", "5", "--seed", "2",
            "--speed-max", "1.0", "--out", scene_path)
        run(capsys, "render", "--scene", scene_path, "--out", dets_path)
        code, out, _ = run(
            capsys, "track", "--detections", dets_path, "--matching", "hungarian"
        )
        assert code == 0
        assert json.loads(out)["summary"]["tracks_created"] == 3


def run_strict(capsys, *argv):
    """``run`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


class TestOverflowIsSilent:
    # Values near the float64 maximum overflow to inf in back-projection and
    # distances; an infinite distance fails every gate, with no numpy warning
    def test_greedy_and_hungarian_agree_on_overflowing_velocities(self, capsys, tracked, tmp_path):
        with open(tracked["dets"]) as fh:
            dets = json.load(fh)
        for frame in dets["frames"]:
            for record in frame["detections"]:
                record["velocity"] = [1.7e308, -1.7e308]
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(dets))
        outputs = []
        for matching in ("greedy", "hungarian"):
            out = tmp_path / f"{matching}.json"
            code, _, err = run_strict(capsys, "track", "--detections", str(path), "--matching", matching,
                                      "--out", str(out))
            assert (code, err) == (0, "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_track_scene_near_float_max(self, capsys, tracked, tmp_path):
        with open(tracked["scene"]) as fh:
            scene = json.load(fh)
        for frame in scene["frames"]:
            for obj in frame["objects"]:
                obj["box"][:2] = [1.7e308, -1.7e308]
        path = tmp_path / "far.json"
        path.write_text(json.dumps(scene))
        code, out, err = run_strict(capsys, "track", "--detections", tracked["dets"], "--scene", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["summary"]["id_switches"] == 0

    @pytest.mark.parametrize(
        "flags",
        [("--objects", "2", "--frames", "2", "--dt", "1e308"),
         ("--frames", "3", "--dt", "1e307", "--ego", "straight", "--ego-speed", "1e300")],
        ids=["objects", "ego"],
    )
    def test_simulate_overflow_gives_one_error_line(self, capsys, tmp_path, flags):
        out = tmp_path / "scene.json"
        code, _, err = run_strict(capsys, "simulate", *flags, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("polarview: ")
        assert not out.exists()

    def test_assign_k_scaling_overflow_gives_one_error_line(self, capsys, tracked, tmp_path):
        out = tmp_path / "out.json"
        code, _, err = run_strict(capsys, "assign", "--scene", tracked["scene"], "--detections", tracked["dets"],
                                  "--k-scaling", "1e308", "--out", str(out))
        assert code == 1
        assert err == "polarview: cost matrix must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("yaw_rate", ["1e-320", "-1e-320"])
    def test_arc_whose_radius_overflows_drives_straight(self, capsys, tmp_path, yaw_rate):
        arc, straight = tmp_path / "arc.json", tmp_path / "straight.json"
        flags = ("--objects", "3", "--frames", "3", "--seed", "2")
        code, _, err = run_strict(capsys, "simulate", *flags, "--ego", "arc", f"--ego-yaw-rate={yaw_rate}",
                                  "--out", str(arc))
        assert (code, err) == (0, "")
        assert run_strict(capsys, "simulate", *flags, "--ego", "straight", "--out", str(straight))[0] == 0
        assert arc.read_bytes() == straight.read_bytes()


# The settings class, the required flags and the flags listed by --help (in
# listing order, without -h and --help) of each command that builds settings
SETTINGS_COMMANDS = {
    "simulate": (simulator.SceneConfig, ("--out", "x"), [
        "--objects", "--frames", "--dt", "--cameras", "--r-max", "--classes", "--speed-min", "--speed-max",
        "--ego", "--ego-speed", "--ego-yaw-rate", "--seed", "--out", "--config"]),
    "render": (simulator.NoiseModel, ("--scene", "s", "--out", "x"), [
        "--scene", "--radial-std", "--tangential-std", "--z-std", "--size-std", "--yaw-std", "--velocity-std",
        "--drop-prob", "--fp-rate", "--noise-frame", "--r-max", "--seed", "--out", "--config"]),
    "track": (tracker.TrackerConfig, ("--detections", "d"), [
        "--detections", "--scene", "--threshold", "--max-misses", "--matching", "--out", "--config"]),
}


def settings_flags(command):
    """Each optional flag of ``command`` mapped to the fields it changes from the class defaults, and its action."""
    cls, required, _ = SETTINGS_COMMANDS[command]
    parser = cli.build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    found = {}
    for action in sub._actions:
        if not action.option_strings or action.required or action.default in (None, argparse.SUPPRESS):
            continue
        if action.choices:
            value = next(c for c in action.choices if c != action.default)
        else:
            value = action.default + (1 if isinstance(action.default, int) else 0.5)
        settings = cli._settings(cls, parser.parse_args([command, *required, action.option_strings[0], str(value)]))
        changed = [f.name for f in dataclasses.fields(cls) if getattr(settings, f.name) != getattr(cls(), f.name)]
        found[action.option_strings[0]] = (changed, action)
    return found


@pytest.mark.parametrize("command", sorted(SETTINGS_COMMANDS))
class TestSettingsFlags:
    def test_every_field_is_set_by_exactly_one_flag(self, command):
        cls = SETTINGS_COMMANDS[command][0]
        fields = [name for changed, _ in settings_flags(command).values() for name in changed]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(cls))

    def test_flag_default_and_type_come_from_the_class(self, command):
        cls = SETTINGS_COMMANDS[command][0]
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for flag, (changed, action) in settings_flags(command).items():
            if not changed:
                continue
            (name,) = changed
            assert action.default == fields[name].default, flag
            if "choices" in fields[name].metadata:
                assert action.choices is fields[name].metadata["choices"], flag
            else:
                assert action.choices is None and action.type is type(fields[name].default), flag

    def test_required_flags_alone_give_the_class_defaults(self, command):
        cls, required, _ = SETTINGS_COMMANDS[command]
        assert cli._settings(cls, cli.build_parser().parse_args([command, *required])) == cls()

    def test_help_lists_the_same_flags(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        flags = [f for f in dict.fromkeys(re.findall(r"--[a-z][a-z-]*", out)) if f != "--help"]
        assert flags == SETTINGS_COMMANDS[command][2]


class TestParserBuiltOnce:
    def test_main_reuses_one_parser_and_build_parser_makes_new_ones(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_config_values_do_not_leak_into_the_next_call(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"objects": 7, "seed": 11}))
        outs = [tmp_path / f"scene{i}.json" for i in range(3)]
        plain = ("simulate", "--objects", "2", "--frames", "2")
        assert run(capsys, *plain, "--out", str(outs[0]))[0] == 0
        assert run(capsys, *plain, "--config", str(config_path), "--out", str(outs[1]))[0] == 0
        assert run(capsys, *plain, "--out", str(outs[2]))[0] == 0
        assert outs[2].read_bytes() == outs[0].read_bytes() != outs[1].read_bytes()

    def test_failed_parse_leaves_the_parser_usable(self, capsys, tmp_path):
        assert run(capsys, "simulate", "--objects", "x", "--out", str(tmp_path / "bad.json"))[0] == 1
        code, out, err = run(capsys, "nds", "--map", "0.338", "--tps", "0.768,0.284,0.443,0.883,0.221")
        assert (code, out.strip(), err) == (0, "0.409", "")

    def test_help_follows_the_terminal_width_of_each_call(self, capsys, monkeypatch):
        for columns in ("80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run(capsys, "--help")
            assert code == 0
            assert out == cli.build_parser().format_help()
        assert max(len(line) for line in out.splitlines()) > 80


class TestChoiceFlags:
    def test_class_cost_lists_the_assignment_forms(self):
        parser = cli.build_parser()
        sub = parser._subparsers._group_actions[0].choices["assign"]
        action = next(a for a in sub._actions if a.dest == "class_cost")
        assert action.choices is assignment.CLASS_COST_FORMS
        assert action.default == "negative_prob"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("simulate", "--out", "x", "--ego", "bad"),
             "polarview simulate: error: argument --ego: invalid choice: 'bad' (choose from 'static', 'straight', "
             "'arc')"),
            (("render", "--scene", "s", "--out", "x", "--noise-frame", "bad"),
             "polarview render: error: argument --noise-frame: invalid choice: 'bad' (choose from 'polar', "
             "'cartesian')"),
            (("track", "--detections", "d", "--matching", "bad"),
             "polarview track: error: argument --matching: invalid choice: 'bad' (choose from 'greedy', "
             "'hungarian')"),
            (("assign", "--scene", "s", "--detections", "d", "--class-cost", "bad"),
             "polarview assign: error: argument --class-cost: invalid choice: 'bad' (choose from 'negative_prob', "
             "'focal')"),
            (("simulate", "--out", "x", "--objects", "1.5"),
             "polarview simulate: error: argument --objects: invalid int value: '1.5'"),
            (("track", "--detections", "d", "--threshold", "x"),
             "polarview track: error: argument --threshold: invalid float value: 'x'"),
        ],
        ids=["ego", "noise-frame", "matching", "class-cost", "int", "float"],
    )
    def test_bad_value_gives_the_argparse_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == message


# One small fixed workload through every byte-stable command, pinned by
# sha256: float formatting, key order and layout must not change. The ego is
# static, whose outputs are meant to keep their bytes across tracker work.
GOLDEN_RUNS = [
    ("scene", "simulate", "--objects", "6", "--frames", "8", "--speed-max", "3", "--seed", "11"),
    ("dets", "render", "--scene", "{scene}", "--radial-std", "0.3", "--tangential-std", "0.005",
     "--velocity-std", "0.2", "--drop-prob", "0.1", "--fp-rate", "2", "--seed", "2"),
    ("assign", "assign", "--scene", "{scene}", "--detections", "{dets}"),
    ("assign-focal-rect", "assign", "--scene", "{scene}", "--detections", "{dets}",
     "--class-cost", "focal", "--range-mode", "rectangular", "--x-max", "30", "--y-max", "20"),
    ("track", "track", "--detections", "{dets}", "--scene", "{scene}"),
    ("track-hungarian", "track", "--detections", "{dets}", "--matching", "hungarian"),
    ("eval", "eval", "--scene", "{scene}", "--detections", "{dets}"),
    ("eval-csv", "eval", "--scene", "{scene}", "--detections", "{dets}", "--format", "csv"),
    ("gradcheck", "gradcheck", "--fixtures", "20", "--seed", "3"),
    ("symmetry-check", "symmetry-check", "--points", "50", "--seed", "4"),
    ("range-demo", "range-demo"),
]

GOLDEN_SHA256 = {
    "scene": "9f8d69519607a678ad0f4ee14eabeb1aeefdb85d1470a2c08963a7de7fc78fd5",
    "dets": "5725d7b5176b847597008c1489de2bdbb71db3d1cf3c35c40dde003022946806",
    "assign": "de90aa896c138e18210e0612ff9b44d1631eb7532daa4863943bb0f63ce24dd3",
    "assign-focal-rect": "ce8c50eb288cc71f33fc66b327e3555e7cd117e44785a0595996f1e78b9ddcbf",
    "track": "a68ef02851b95936acd032d7098818380693a45020b033641fb313b3b0abd878",
    "track-hungarian": "1ca2981566b2f0e648068b73e13e5c42dbc95a1edb2712b3788e04ef629158cb",
    "eval": "af96015a7e2b57d0e79f10535c6ff95067467d1cc3f5760b914b7ecdf7bfd1f5",
    "eval-csv": "bf09617f8f060381a429608ddaa32101805d99f46206e9a129c08c63afcf172c",
    "gradcheck": "467e68b869158df31426bd71025c90751f13a3f6a90e2348e80033787c8a3c85",
    "symmetry-check": "7197f3aab44346ede4517f2f16064f354e9dc82e7653b73d0d4ea1ae683bb1ec",
    "range-demo": "3c332713414eed243ce501c26ed6e9642f8ed94acdae5523a78daefefc8c2827",
}


# A second workload for the detection paths: cartesian noise on every box
# channel, false positives (so rectangular cost matrices), focal class cost
# and a rectangular region, Hungarian tracking with id switches counted, and
# eval on the track file. Digests taken with the code before detection frames
# became arrays.
GOLDEN_RUNS_NOISY = [
    ("scene", "simulate", "--objects", "10", "--frames", "8", "--speed-max", "1", "--seed", "21"),
    ("dets", "render", "--scene", "{scene}", "--radial-std", "0.3", "--z-std", "0.1", "--size-std", "0.05",
     "--yaw-std", "0.1", "--velocity-std", "0.2", "--drop-prob", "0.15", "--fp-rate", "3",
     "--noise-frame", "cartesian", "--seed", "5"),
    ("assign_focal_rect", "assign", "--scene", "{scene}", "--detections", "{dets}", "--class-cost", "focal",
     "--range-mode", "rectangular", "--x-max", "30", "--y-max", "25"),
    ("tracks", "track", "--detections", "{dets}", "--scene", "{scene}", "--matching", "hungarian"),
    ("eval_csv_rect", "eval", "--scene", "{scene}", "--detections", "{dets}", "--format", "csv",
     "--range-mode", "rectangular", "--x-max", "30", "--y-max", "25"),
    ("eval_tracks", "eval", "--scene", "{scene}", "--detections", "{tracks}"),
]

GOLDEN_SHA256_NOISY = {
    "scene": "58e1cb5f300ce6163690df61cfd94248f63a266d13ef6cfa104d001eb115ea64",
    "dets": "15ae39440fc23b293d55ca66ab722c8cebce7e7f65a657e940c59b1cfc6fa4f6",
    "assign_focal_rect": "3e05079240e9da01dea23d8f81b7c58d40d3979b19d929807de6cb200e0d5a8a",
    "tracks": "ba292afedcac6111d4bff8ed3c30ee6394ad94b9ecd29e2dda9c05667064b59b",
    "eval_csv_rect": "88c2a3a57b1623f67c3584549f818d04e57f155eb589ea201dbf1f4eb875f763",
    "eval_tracks": "dc3ccee58f5ff141615973ae8d7e0104d7dc8c504d4e23f9496f74a1f29e6a39",
}


# A third workload for the scene paths with a moving ego: a straight and an
# arc scene, each rendered, assigned, tracked against its ground truth and
# evaluated. Digests taken with the code before scene frames became arrays.
GOLDEN_RUNS_MOVING = [
    ("straight", "simulate", "--objects", "7", "--frames", "8", "--speed-max", "2", "--ego", "straight",
     "--seed", "31"),
    ("arc", "simulate", "--objects", "7", "--frames", "8", "--speed-max", "2", "--ego", "arc",
     "--ego-yaw-rate", "0.4", "--seed", "32"),
    ("straight_dets", "render", "--scene", "{straight}", "--radial-std", "0.2", "--tangential-std", "0.004",
     "--velocity-std", "0.1", "--drop-prob", "0.1", "--fp-rate", "1", "--seed", "6"),
    ("arc_dets", "render", "--scene", "{arc}", "--radial-std", "0.2", "--yaw-std", "0.05",
     "--noise-frame", "cartesian", "--fp-rate", "1", "--seed", "7"),
    ("straight_assign", "assign", "--scene", "{straight}", "--detections", "{straight_dets}"),
    ("arc_assign", "assign", "--scene", "{arc}", "--detections", "{arc_dets}", "--range-mode", "rectangular",
     "--x-max", "30", "--y-max", "30"),
    ("straight_tracks", "track", "--detections", "{straight_dets}", "--scene", "{straight}"),
    ("arc_tracks", "track", "--detections", "{arc_dets}", "--scene", "{arc}", "--matching", "hungarian"),
    ("straight_eval", "eval", "--scene", "{straight}", "--detections", "{straight_dets}"),
    ("arc_eval", "eval", "--scene", "{arc}", "--detections", "{arc_dets}", "--format", "csv"),
]

GOLDEN_SHA256_MOVING = {
    "straight": "c71d051b8987a1f5746b0115cf302c72e80937a8c334b960c305a691a049d68d",
    "arc": "d692c6845b5d9090a76bae6e66db1749dddcec3bcf28de04b53011645661fe02",
    "straight_dets": "59462b11f088d4b5101a06a2eb97bc3549262d76ebd644c99accbd7fd17b0283",
    "arc_dets": "360abcbb2c5b9b45d0cd58bf54048de2d090321b24843015e6ae82b7270f4f74",
    "straight_assign": "cbc481f350e21908c94c3b2ceb6f339b260bf860fc390c2abd729f19f4339aee",
    "arc_assign": "d670ea0a5fbd4cac870de146a6ea96bc9f86733e7f3745d6a8f0a9f659a478dd",
    "straight_tracks": "5d11e55c7326d3e12f7849e0545a64fe800a3de47f6fc5dbd211573bb9b2b844",
    "arc_tracks": "8fd0e927e32b59525c3ff280b8bbe610a97a4ec79af0e263e75a49f60d913b68",
    "straight_eval": "4f47dd2a31650b9bae7afa05a104ce6963d608b368a9214757300fcb0043e506",
    "arc_eval": "83ef3421dd9dd1845d98358a3203b67dcfeb06b6394df9580226c5ac0f5fd598",
}


def golden_digests(capsys, tmp_path, runs):
    paths = {name: str(tmp_path / f"{name}.out") for name, *_ in runs}
    digests = {}
    for name, *argv in runs:
        code, _, err = run(capsys, *[a.format(**paths) for a in argv], "--out", paths[name])
        assert code == 0, err
        with open(paths[name], "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class TestGoldenBytes:
    def test_outputs_match_pinned_digests(self, capsys, tmp_path):
        assert golden_digests(capsys, tmp_path, GOLDEN_RUNS) == GOLDEN_SHA256

    def test_noisy_workload_matches_pinned_digests(self, capsys, tmp_path):
        assert golden_digests(capsys, tmp_path, GOLDEN_RUNS_NOISY) == GOLDEN_SHA256_NOISY

    def test_moving_ego_workload_matches_pinned_digests(self, capsys, tmp_path):
        assert golden_digests(capsys, tmp_path, GOLDEN_RUNS_MOVING) == GOLDEN_SHA256_MOVING


class TestPipelineBuildsNoDetectionObjects:
    def test_same_bytes_with_detection_construction_broken(self, capsys, tmp_path, monkeypatch):
        # render, assign, track and eval hold detection frames and matched
        # pairs as arrays, so a Detection, PolarBox or PolarVelocity that
        # cannot be built must not change their output
        def refuse(self):
            raise RuntimeError(f"a {type(self).__name__} was built")

        for cls in (simulator.Detection, geometry.PolarBox, geometry.PolarVelocity):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        assert golden_digests(capsys, tmp_path, GOLDEN_RUNS_NOISY) == GOLDEN_SHA256_NOISY


class TestPipelineBuildsNoSceneObjects:
    def test_same_bytes_with_scene_object_construction_broken(self, capsys, tmp_path, monkeypatch):
        # simulate, render, assign, track and eval hold scene frames as arrays,
        # so objects and poses that cannot be built must not change their output
        def refuse(self):
            raise RuntimeError(f"a {type(self).__name__} was built")

        for cls in (simulator.SceneObject, geometry.CartesianBox, geometry.CartesianVelocity, camera.EgoPose):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        assert golden_digests(capsys, tmp_path, GOLDEN_RUNS_MOVING) == GOLDEN_SHA256_MOVING


class TestSavePathBuildsNoRecordDicts:
    def test_same_bytes_with_the_dict_views_broken(self, capsys, tmp_path, monkeypatch):
        # the savers and track write their records from record tables, never from the public dict views
        def refuse(*args):
            raise RuntimeError("a dict view was built")

        for name in ("scene_to_dict", "detections_to_dict"):
            monkeypatch.setattr(serialization, name, refuse)
        for runs, expected in ((GOLDEN_RUNS, GOLDEN_SHA256), (GOLDEN_RUNS_NOISY, GOLDEN_SHA256_NOISY),
                               (GOLDEN_RUNS_MOVING, GOLDEN_SHA256_MOVING)):
            assert golden_digests(capsys, tmp_path, runs) == expected


# The assign and track documents as the per-record dict code wrote them
# before the record tables, kept as the byte reference of both commands.
def dict_built_assign_report(args):
    scene = serialization.load_scene(args.scene)
    dets = serialization.load_detections(args.detections)
    region = cli._region_from_args(args)
    frames_out = []
    for frame_gt, frame_det in zip(scene.frames, dets.frames):
        gt_rows = frame_gt.boxes.tolist()
        kept = [i for i, (x, y, *_) in enumerate(gt_rows) if region is None or region.contains(x, y)]
        gt_boxes = np.array([geometry.polar_fields(*gt_rows[j]) for j in kept]).reshape(-1, 9)
        gt_classes = frame_gt.classes[kept]
        gt_ids = frame_gt.ids[kept].tolist()
        costs = assignment.build_cost_matrix(
            (frame_det.boxes, frame_det.probs), (gt_boxes, gt_classes), args.k_scaling,
            class_cost_form=args.class_cost,
        )
        result = assignment.hungarian(costs)
        gts, preds = np.array(result.pairs, dtype=np.intp).reshape(-1, 2).T
        box_costs = assignment.box_cost(frame_det.boxes[preds], gt_boxes[gts], args.k_scaling)
        class_costs = assignment.class_cost(frame_det.probs[preds], gt_classes[gts], form=args.class_cost)
        pairs = [
            {"gt": j, "gt_id": gt_ids[j], "pred": i, "cost": float(costs[j, i]), "class_cost": cc, "box_cost": bc}
            for (j, i), cc, bc in zip(result.pairs, class_costs.tolist(), box_costs.tolist())
        ]
        frames_out.append(
            {
                "t": frame_gt.t,
                "pairs": pairs,
                "unmatched_gts": sorted(set(range(len(kept))) - result.matched_gts()),
                "unmatched_preds": sorted(set(range(len(frame_det))) - result.matched_preds()),
            }
        )
    return {"schema_version": serialization.SCHEMA_VERSION, "k_scaling": args.k_scaling, "frames": frames_out}


def dict_built_track_report(args):
    dets = serialization.load_detections(args.detections)
    result = tracker.run_tracker(dets, cli._settings(tracker.TrackerConfig, args))
    summary = {"tracks_created": result.tracks_created}
    if args.scene:
        summary["id_switches"] = tracker.count_id_switches(result, serialization.load_scene(args.scene))
    report = serialization.detections_to_dict(dets)
    for frame, ids in zip(report["frames"], result.track_ids):
        frame["detections"] = [{"track_id": tid, **record} for tid, record in zip(ids.tolist(), frame["detections"])]
    report["summary"] = summary
    return report


# an empty scene, so that every frame has no pairs and no detections but false positives
EMPTY_RUNS = [
    ("scene", "simulate", "--objects", "0", "--frames", "3", "--seed", "1"),
    ("dets", "render", "--scene", "{scene}", "--fp-rate", "1", "--seed", "2"),
    ("assign", "assign", "--scene", "{scene}", "--detections", "{dets}"),
    ("track", "track", "--detections", "{dets}"),
]


class TestTrackAndAssignWriteTheDictBuiltDocuments:
    @pytest.mark.parametrize("runs", [GOLDEN_RUNS, GOLDEN_RUNS_NOISY, GOLDEN_RUNS_MOVING, EMPTY_RUNS],
                             ids=["golden", "noisy", "moving", "empty"])
    def test_same_bytes(self, capsys, tmp_path, runs):
        paths = {name: str(tmp_path / f"{name}.out") for name, *_ in runs}
        golden_digests(capsys, tmp_path, runs)
        references = {"assign": dict_built_assign_report, "track": dict_built_track_report}
        checked = 0
        for name, command, *argv in runs:
            if command in references:
                args = cli.build_parser().parse_args([command, *(a.format(**paths) for a in argv)])
                with open(paths[name], encoding="utf-8") as fh:
                    assert fh.read() == serialization.dumps_json(references[command](args)) + "\n", name
                checked += 1
        assert checked >= 2


# Runs each workload of (name, *argv) runs through cli.main in a fresh
# interpreter, as golden_digests does, and prints one digest dict per workload.
DIGEST_CHILD = """
import hashlib, json, os, sys
from polarview.cli import main

report = []
for k, runs in enumerate(json.loads(sys.argv[1])):
    paths = {name: os.path.join(sys.argv[2], f"{k}-{name}.out") for name, *_ in runs}
    digests = {}
    for name, *argv in runs:
        assert main([a.format(**paths) for a in argv] + ["--out", paths[name]]) == 0, argv
        with open(paths[name], "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    report.append(digests)
print(json.dumps(report))
"""

# numpy's SIMD levels above the x86-64-v2 baseline; numpy ignores a name the CPU lacks
ABOVE_BASELINE = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


class TestSameBytesAtEverySimdLevel:
    def test_child_without_avx_dispatch_writes_the_same_bytes(self, capsys, tmp_path):
        # soft class probabilities take the focal cost off the one-hot values 0 and 1, where
        # numpy's AVX512 log and libm agree; at about 1 in 300 other inputs they do not
        soft = {k: str(tmp_path / f"soft-{k}.json") for k in ("scene", "dets")}
        run(capsys, "simulate", "--objects", "100", "--frames", "10", "--speed-max", "1", "--seed", "21",
            "--out", soft["scene"])
        run(capsys, "render", "--scene", soft["scene"], "--radial-std", "0.3", "--fp-rate", "3", "--seed", "5",
            "--out", soft["dets"])
        with open(soft["dets"]) as fh:
            dets = json.load(fh)
        rng = np.random.default_rng(0)
        for frame in dets["frames"]:
            for record in frame["detections"]:
                record["probs"] = rng.dirichlet(np.ones(len(record["probs"]))).tolist()
        with open(soft["dets"], "w") as fh:
            json.dump(dets, fh)
        soft_runs = [("soft_focal", "assign", "--scene", soft["scene"], "--detections", soft["dets"],
                      "--class-cost", "focal")]
        workloads = [GOLDEN_RUNS, GOLDEN_RUNS_NOISY, GOLDEN_RUNS_MOVING, soft_runs]
        expected = [GOLDEN_SHA256, GOLDEN_SHA256_NOISY, GOLDEN_SHA256_MOVING, golden_digests(capsys, tmp_path, soft_runs)]

        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=ABOVE_BASELINE)
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarview.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        (tmp_path / "child").mkdir()
        result = subprocess.run(
            [sys.executable, "-c", DIGEST_CHILD, json.dumps(workloads), str(tmp_path / "child")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == expected


# Runs each argv list through cli.main in a fresh interpreter, then calls
# hungarian on a (0, 3) matrix, and records which scipy modules are loaded
# after the import and after each step.
STARTUP_CHILD = """
import json, sys
from polarview.assignment import hungarian
from polarview.cli import main
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

report = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    report.append([argv[0], main(argv), scipy_modules()])
report.append(["hungarian-0x3", len(hungarian(np.zeros((0, 3)))), scipy_modules()])
with open(sys.argv[2], "w") as fh:
    json.dump(report, fh)
"""


def startup_report(tmp_path, argvs):
    """[step, exit code or pair count, loaded scipy modules] per step of STARTUP_CHILD."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(polarview.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    path = tmp_path / "report.json"
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, json.dumps(argvs), str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(path.read_text())


class TestStartupLoadsScipyOnlyForHungarian:
    def test_commands_without_hungarian_never_load_scipy(self, tmp_path):
        names = {k: str(tmp_path / f"{k}.out") for k in ("scene", "dets", "tracks", "eval", "grad", "sym", "demo")}
        argvs = [
            ["simulate", "--objects", "4", "--frames", "3", "--seed", "1", "--out", names["scene"]],
            ["render", "--scene", names["scene"], "--fp-rate", "1", "--out", names["dets"]],
            ["track", "--detections", names["dets"], "--scene", names["scene"], "--out", names["tracks"]],
            ["eval", "--scene", names["scene"], "--detections", names["dets"], "--out", names["eval"]],
            ["gradcheck", "--fixtures", "5", "--out", names["grad"]],
            ["symmetry-check", "--points", "20", "--out", names["sym"]],
            ["range-demo", "--out", names["demo"]],
            ["nds", "--map", "0.3", "--tps", "0.7,0.3,0.4,0.9,0.2"],
        ]
        report = startup_report(tmp_path, argvs)
        assert [step for step, *_ in report] == ["import"] + [a[0] for a in argvs] + ["hungarian-0x3"]
        assert report == [[step, 0, []] for step, *_ in report]

    def test_hungarian_loads_scipy_and_keeps_the_bytes(self, capsys, tmp_path):
        scene, dets = str(tmp_path / "scene.json"), str(tmp_path / "dets.json")
        run(capsys, "simulate", "--objects", "5", "--frames", "4", "--seed", "3", "--out", scene)
        run(capsys, "render", "--scene", scene, "--radial-std", "0.3", "--fp-rate", "2", "--seed", "4",
            "--out", dets)
        argvs = {
            "assign": ["assign", "--scene", scene, "--detections", dets],
            "track": ["track", "--detections", dets, "--matching", "hungarian"],
        }
        expected = {}
        for name, argv in argvs.items():
            out = str(tmp_path / f"{name}-in-process.json")
            assert run(capsys, *argv, "--out", out)[0] == 0
            expected[name] = open(out, "rb").read()

        report = startup_report(
            tmp_path, [argv + ["--out", str(tmp_path / f"{name}.json")] for name, argv in argvs.items()]
        )
        assert [(step, code) for step, code, _ in report] == [
            ("import", 0), ("assign", 0), ("track", 0), ("hungarian-0x3", 0)
        ]
        assert report[0][2] == []
        assert all("scipy.optimize" in modules for _, _, modules in report[1:])
        for name in argvs:
            assert open(tmp_path / f"{name}.json", "rb").read() == expected[name]


# Imports polarview.sampling in a fresh interpreter, then samples one point, and prints which scipy modules are
# loaded after each step.
SAMPLING_STARTUP_CHILD = """
import json, sys
import numpy as np
from polarview import sampling

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

after_import = scipy_modules()
vals, valid = sampling.bilinear_sample_many(sampling.FeatureMap(np.arange(4.0).reshape(2, 2, 1)), [[0.5, 0.5]])
print(json.dumps([after_import, scipy_modules(), vals.tolist(), valid.tolist()]))
"""


class TestSamplingLoadsScipySparseOnFirstCall:
    def test_import_loads_no_scipy_and_the_first_call_loads_only_sparse(self, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarview.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", SAMPLING_STARTUP_CHILD], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        after_import, after_call, vals, valid = json.loads(result.stdout)
        assert after_import == []
        assert "scipy.sparse" in after_call
        assert not any(m == "scipy.optimize" or m.startswith("scipy.optimize.") for m in after_call)
        assert (vals, valid) == ([[1.5]], [True])


def write_files(directory, scene_frames, det_frames, n_classes):
    """Scene and detections files of the given frames: per scene frame a list of (id, class, x, y, vx, vy), per
    detections frame a list of ((x, y), probs, score, (v_rad, v_tan)); each detection box lies at its center."""
    objects = [o for frame in scene_frames for o in frame]
    dets = [d for frame in det_frames for d in frame]
    n = len(scene_frames)
    scene = simulator.Scene.from_arrays(
        camera.make_symmetric_rig(6), np.arange(n) * 0.5, [len(f) for f in scene_frames],
        np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3)), np.array([o[0] for o in objects], dtype=np.int64),
        np.array([o[1] for o in objects], dtype=np.int64),
        np.reshape([(x, y, 0.0, 4.0, 2.0, 1.5, 0.0) for _, _, x, y, *_ in objects], (-1, 7)),
        np.reshape([o[4:] for o in objects], (-1, 2)),
    )
    detections = simulator.DetectionSet.from_arrays(
        np.arange(n) * 0.5, [len(f) for f in det_frames],
        np.reshape([geometry.polar_fields(x, y, 0.0, 4.0, 2.0, 1.5, 0.0) for (x, y), *_ in dets], (-1, 9)),
        np.reshape([p for _, p, _, _ in dets], (-1, n_classes)), np.reshape([v for *_, v in dets], (-1, 2)),
        np.array([s for _, _, s, _ in dets], dtype=np.float64),
    )
    paths = os.path.join(directory, "scene.json"), os.path.join(directory, "dets.json")
    serialization.save_scene(scene, paths[0])
    serialization.save_detections(detections, paths[1])
    return paths


def outcome(fn):
    """(exit code, standard error) of ``fn()``, an exception reported as ``cli.main`` reports it."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return fn(), err.getvalue()
    except (ValueError, KeyError, TypeError) as exc:
        return 1, f"polarview: {exc}\n"


def frame_loop_assign(args):
    cli._write_text(args.out, serialization.dumps_json(frame_loop_assign_report(args)) + "\n")
    return 0


def same_outcome_and_bytes(argv, out):
    """``cli.main(argv)`` and the frame-loop reference exit alike and write the same bytes to ``out``."""
    def written():
        with open(out, "rb") as fh:
            return fh.read()

    got = outcome(lambda: main(argv))
    got_bytes = written() if got[0] == 0 else None
    if argv[0] == "assign":
        reference = outcome(lambda: frame_loop_assign(cli.build_parser().parse_args(argv)))
    else:
        with mock.patch.object(cli, "_eval_metrics", frame_loop_eval_metrics):
            reference = outcome(lambda: main(argv))
    assert got == reference
    if got[0] == 0:
        assert written() == got_bytes


#: Coordinates where distances tie, sit exactly on a threshold, or overflow; (0, 0) has no azimuth.
EDGE_COORDINATES = [1.0, -1.0, 2.0, 3.0, 0.5, -4e-16, 1.7e308, -1.7e308]
REGIONS = [
    ["--range-mode", "circular", "--r-max", "3.5"],
    ["--range-mode", "rectangular", "--x-max", "2.5", "--y-max", "2"],
    ["--range-mode", "none"],
]


@st.composite
def scene_and_detections(draw):
    """Frames of objects and detections on tie-heavy, edge or random centers, empty frames included."""
    coordinate = draw(st.sampled_from([
        st.integers(-3, 3).map(float), st.sampled_from(EDGE_COORDINATES), st.floats(-4.0, 4.0),
    ]))
    center = st.tuples(coordinate, coordinate).filter(lambda c: c != (0.0, 0.0))
    axis_center = center.map(lambda c: c if abs(c[0]) < 1e300 else (c[0], 0.0))  # r = hypot(x, y) stays finite
    n_classes = draw(st.integers(1, 3))
    prob = draw(st.sampled_from([st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                 st.floats(0.0, 1.0)]))
    score = draw(st.sampled_from([st.just(1.0), st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0)]))
    counts = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4))
    if draw(st.booleans()):  # no objects, or no detections, in the whole file
        counts = [(0, n) for _, n in counts] if draw(st.booleans()) else [(m, 0) for m, _ in counts]
    velocity = st.tuples(st.integers(-2, 2).map(float), st.integers(-2, 2).map(float))
    scene_frames = [
        [(i, draw(st.integers(0, n_classes - 1)), *draw(center), *draw(velocity)) for i in range(m)]
        for m, _ in counts
    ]
    det_frames = [
        [(draw(axis_center), draw(st.lists(prob, min_size=n_classes, max_size=n_classes)), draw(score),
          draw(velocity)) for _ in range(n)]
        for _, n in counts
    ]
    return scene_frames, det_frames, n_classes


class TestWholeFilePassesWriteTheFrameLoopBytes:
    """``assign`` and ``eval`` over whole files write what the frame-by-frame loops wrote, or fail as they failed."""

    @settings(max_examples=150, deadline=None)
    @given(scene_and_detections(), st.sampled_from(REGIONS), st.sampled_from(assignment.CLASS_COST_FORMS),
           st.sampled_from([["--thresholds", "0.5,1,2,4"], ["--thresholds", "1,1.4142135623730951,3",
                                                            "--tp-threshold", "1"]]))
    def test_hypothesis_files(self, files, region, form, thresholds):
        with tempfile.TemporaryDirectory() as directory:
            scene, dets = write_files(directory, *files)
            out = os.path.join(directory, "out")
            inputs = ["--scene", scene, "--detections", dets, *region, "--out", out]
            same_outcome_and_bytes(["assign", *inputs, "--class-cost", form], out)
            same_outcome_and_bytes(["eval", *inputs, *thresholds], out)

    @pytest.mark.parametrize("seed", [4242, 5])
    @pytest.mark.parametrize("region", REGIONS[:2] + [["--range-mode", "rectangular", "--x-max", "40",
                                                         "--y-max", "30"], ["--range-mode", "none"]])
    def test_rendered_files(self, capsys, tmp_path, seed, region):
        scene, dets, out = (str(tmp_path / name) for name in ("scene.json", "dets.json", "out"))
        run(capsys, "simulate", "--objects", "30", "--frames", "6", "--speed-max", "4", "--seed", str(seed),
            "--out", scene)
        run(capsys, "render", "--scene", scene, "--radial-std", "0.3", "--drop-prob", "0.2", "--fp-rate", "4",
            "--seed", str(seed), "--out", dets)
        inputs = ["--scene", scene, "--detections", dets, *region, "--out", out]
        for form in assignment.CLASS_COST_FORMS:
            same_outcome_and_bytes(["assign", *inputs, "--class-cost", form], out)
        for fmt in ("json", "csv"):
            same_outcome_and_bytes(["eval", *inputs, "--format", fmt], out)


class TestErrorsSurfaceFrameByFrame:
    """A fault in one frame gives the message it gave when each frame was its own pass."""

    def files(self, tmp_path, bad_class, detections_in_bad_frame):
        # frame 1 holds an object of class bad_class; two classes of probabilities
        scene_frames = [[(0, 0, 1.0, 1.0, 0.0, 0.0)], [(0, 0, 1.0, 1.0, 0.0, 0.0), (1, bad_class, 2.0, 0.0, 0.0, 0.0)],
                        [(0, 1, 1.0, 1.0, 0.0, 0.0)]]
        det = ((1.0, 1.0), [0.8, 0.2], 0.9, (0.0, 0.0))
        det_frames = [[det], [det] if detections_in_bad_frame else [], [det]]
        return write_files(str(tmp_path), scene_frames, det_frames, 2)

    def test_a_class_id_out_of_range_in_a_frame_without_detections_passes(self, capsys, tmp_path):
        scene, dets = self.files(tmp_path, 5, False)
        out = str(tmp_path / "out")
        assert main(["assign", "--scene", scene, "--detections", dets, "--out", out]) == 0
        same_outcome_and_bytes(["assign", "--scene", scene, "--detections", dets, "--out", out],
                               out)

    def test_a_class_id_out_of_range_in_a_frame_with_detections_fails(self, capsys, tmp_path):
        scene, dets = self.files(tmp_path, 5, True)
        code, out, err = run(capsys, "assign", "--scene", scene, "--detections", dets)
        assert (code, out, err) == (1, "", "polarview: class_cost: class ids must be integers in [0, 2)\n")
        argv = ["assign", "--scene", scene, "--detections", dets, "--out", str(tmp_path / "out")]
        same_outcome_and_bytes(argv, str(tmp_path / "out"))

    @pytest.mark.parametrize("command", ["assign", "eval"])
    def test_an_object_at_the_origin_in_one_frame(self, capsys, tmp_path, command):
        scene_frames = [[(0, 0, 1.0, 1.0, 0.0, 0.0)], [(0, 0, 0.0, 0.0, 0.0, 0.0)], []]
        det = ((0.5, 0.0), [1.0], 1.0, (0.0, 0.0))
        scene, dets = write_files(str(tmp_path), scene_frames, [[det], [det], [det]], 1)
        out = str(tmp_path / "out")
        argv = [command, "--scene", scene, "--detections", dets, "--out", out]
        assert run(capsys, *argv)[2] == "polarview: cartesian_to_polar: degenerate azimuth at (x, y) = (0, 0)\n"
        same_outcome_and_bytes(argv, out)

    def test_an_overflowing_cost_in_one_frame(self, capsys, tmp_path):
        # the azimuths agree in frame 0 and are opposite in frame 1, where 1e308 * 2 overflows
        scene_frames = [[(0, 0, 1.0, 0.0, 0.0, 0.0)], [(0, 0, -1.0, 0.0, 0.0, 0.0)]]
        det = ((2.0, 0.0), [1.0], 1.0, (0.0, 0.0))
        scene, dets = write_files(str(tmp_path), scene_frames, [[det], [det]], 1)
        out = str(tmp_path / "out")
        argv = ["assign", "--scene", scene, "--detections", dets, "--k-scaling", "1e308", "--out", out]
        assert run(capsys, *argv)[2] == "polarview: cost matrix must be finite\n"
        same_outcome_and_bytes(argv, out)
