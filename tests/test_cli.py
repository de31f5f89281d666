import argparse
import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import warnings

import pytest

import polarview
from polarview import assignment, camera, cli, geometry, simulator, tracker
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


class TestMalformedInput:
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
           ("--radial-std", "1e308"), ("--z-std", "1.7e308"), ("--noise-frame", "cartesian", "--radial-std", "1e308")],
        ids="-".join,
    )
    def test_render_rejects_non_finite_noise(self, capsys, tracked, tmp_path, argv):
        out = tmp_path / "noisy.json"
        code, _, err = run(capsys, "render", "--scene", tracked["scene"], *argv, "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert f"NoiseModel: {cli._SETTINGS_FLAGS[simulator.NoiseModel][argv[-2]]} " in err
        assert not out.exists()

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
