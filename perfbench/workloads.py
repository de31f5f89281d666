"""The three benchmark workloads, generated from a seed.

A workload is a list of timed calls.  Each call runs one ``polarview``
CLI command in process (``polarview.cli.main``) or one batch of public
library calls, and returns how long the program worked, a digest of its
output (compared across the passes of a run) and, when asked, the
problems the output checks found.  The program's work runs inside
``span(name, fn)``, which the traced run uses to open one root span per
program call, so that the benchmark's own hashing and checking stays
outside every span.

Frame, fixture and point counts are scaled so that one pass takes a few
seconds; objects and detections per frame are kept, because they set
each layer's share of the time.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

REASONS = {
    "dense": (
        "120 objects and about 122 detections per frame: per-frame work grows with M*N, so the "
        "per-pair Python of assignment and tracker carries the time"
    ),
    "sparse-long": (
        "8 objects over many frames: matrices of about 80 cells, so JSON writing/reading and "
        "per-frame overhead dominate; runs the Hungarian, focal, rectangular and CSV branches"
    ),
    "oracles": (
        "no files: gradcheck, symmetry-check and batches of decode/encode, bilinear sampling and "
        "Hungarian library calls exercise loss, camera, sampling and the batched kernels"
    ),
}

DENSE_FRAMES = 8
SPARSE_SCENES = 5
SPARSE_FRAMES = 50  # per scene
GRADCHECK_FIXTURES = 1500
SYMMETRY_POINTS = 10_000
BATCH_BOXES = 500_000
BATCH_POINTS = 500_000
BATCH_CHUNK = 62_500  # inputs are made one chunk at a time, to bound memory
HUNGARIAN_MATRICES = 10
HUNGARIAN_SHAPE = (300, 320)
FEATURE_SHAPE = (64, 176, 32)


Span = Callable[[str, Callable], object]


def no_span(name: str, fn: Callable):
    return fn()


@dataclass
class Call:
    """One timed call: ``run(check, span)`` returns (seconds, digest, problems).

    A checked run also fills ``stats`` with the checks' error figures.
    """

    name: str
    run: Callable[[bool, Span], tuple[float, str, list[str]]]
    stats: dict = field(default_factory=dict)


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli_call(name: str, runs: list[tuple[list[str], str]], checker=None) -> Call:
    """One timed call of ``cli.main`` per (argv, out) in ``runs``, in turn;
    ``checker(i, stats)`` returns the problems of run ``i``'s output file."""
    from polarview import cli

    def run(check: bool, span: Span):
        seconds = 0.0
        digest = hashlib.sha256()
        problems: list[str] = []
        for i, (argv, out) in enumerate(runs):
            start = time.perf_counter()
            code = span("cli." + argv[0], lambda: cli.main(argv))
            seconds += time.perf_counter() - start
            if code != 0:
                return seconds, "", [f"{name}: exit code {code}"]
            if check and checker:
                problems += checker(i, call.stats)
            digest.update(_file_digest(out).encode())
        return seconds, digest.hexdigest(), problems

    call = Call(name, run)
    return call


def pipeline(workload: str, seed: int, workdir: str) -> list[Call]:
    """simulate -> render -> assign -> track -> eval on files in ``workdir``.

    ``sparse-long`` runs each command on ``SPARSE_SCENES`` scenes in turn:
    how many of its 8 objects fall inside the rectangular range is drawn
    once per scene and sets the assign and eval work, so one scene per
    run would make those times follow the seed.  Scene ``i`` is simulated
    and rendered with seeds drawn from (seed, i).
    """
    if workload == "dense":
        scenes = 1
        simulate = ["--objects", "120", "--frames", str(DENSE_FRAMES), "--speed-max", "4"]
        render = ["--radial-std", "0.3", "--tangential-std", "0.005", "--drop-prob", "0.1", "--fp-rate", "12"]
        assign: list[str] = []
        track: list[str] = []
        evaluate = ["--format", "json"]
    else:
        scenes = SPARSE_SCENES
        simulate = ["--objects", "8", "--frames", str(SPARSE_FRAMES), "--speed-max", "0.2"]
        render = ["--radial-std", "0.3", "--drop-prob", "0.1", "--fp-rate", "1", "--noise-frame", "cartesian"]
        region = ["--range-mode", "rectangular", "--x-max", "40", "--y-max", "30"]
        assign = ["--class-cost", "focal"] + region
        track = ["--matching", "hungarian"]
        evaluate = ["--format", "csv"] + region
    kinds = {"scene": "json", "dets": "json", "assign": "json", "tracks": "json", "eval": evaluate[1]}
    files = [{k: os.path.join(workdir, f"{k}-{i}.{ext}") for k, ext in kinds.items()} for i in range(scenes)]
    seeds = [[str(s) for s in np.random.SeedSequence([seed, i]).generate_state(2)] for i in range(scenes)]
    return [
        _cli_call(
            "simulate",
            [(["simulate", *simulate, "--ego", "static", "--seed", s[0], "--out", f["scene"]], f["scene"])
             for f, s in zip(files, seeds)],
        ),
        _cli_call(
            "render",
            [(["render", "--scene", f["scene"], *render, "--seed", s[1], "--out", f["dets"]], f["dets"])
             for f, s in zip(files, seeds)],
        ),
        _cli_call(
            "assign",
            [(["assign", "--scene", f["scene"], "--detections", f["dets"], *assign, "--out", f["assign"]], f["assign"])
             for f in files],
            lambda i, stats: checks.check_assign(files[i]["scene"], files[i]["dets"], files[i]["assign"], assign),
        ),
        _cli_call(
            "track",
            [(["track", "--detections", f["dets"], "--scene", f["scene"], *track, "--out", f["tracks"]], f["tracks"])
             for f in files],
            lambda i, stats: checks.check_track(files[i]["dets"], files[i]["tracks"]),
        ),
        _cli_call(
            "eval",
            [(["eval", "--scene", f["scene"], "--detections", f["dets"], *evaluate, "--out", f["eval"]], f["eval"])
             for f in files],
            lambda i, stats: checks.check_eval(files[i]["eval"]),
        ),
    ]


def _interior_boxes(rng: np.random.Generator, n: int, rc) -> np.ndarray:
    angles = rng.uniform(-math.pi, math.pi, size=(n, 2))
    return np.column_stack(
        [
            rng.uniform(0.5, rc.r_max - 0.5, n),
            np.sin(angles[:, 0]),
            np.cos(angles[:, 0]),
            rng.uniform(rc.z_min + 0.2, rc.z_max - 0.2, n),
            rng.uniform(0.3, 6.0, n),
            rng.uniform(0.3, 3.0, n),
            rng.uniform(0.3, 3.0, n),
            np.sin(angles[:, 1]),
            np.cos(angles[:, 1]),
        ]
    )


def _batch_call(name: str, chunks: int, make: Callable, work: Callable, output: Callable, checker: Callable) -> Call:
    """``chunks`` library calls: ``make(i)`` builds chunk ``i``'s inputs and
    ``work(inputs)`` runs the program on them; only ``work`` is timed.
    ``output(result)`` gives the buffers to hash, which are not copied."""

    def chunk(i: int, check: bool, span: Span, digest) -> tuple[float, list[str]]:
        inputs = make(i)
        start = time.perf_counter()
        result = span("batch_api." + name, lambda: work(inputs))
        seconds = time.perf_counter() - start
        for buffer in output(result):
            digest.update(buffer)
        return seconds, checker(inputs, result, call.stats) if check else []

    def run(check: bool, span: Span):
        seconds = 0.0
        digest = hashlib.sha256()
        problems: list[str] = []
        for i in range(chunks):  # one chunk's inputs and results are alive at a time
            chunk_seconds, chunk_problems = chunk(i, check, span, digest)
            seconds += chunk_seconds
            problems += chunk_problems
        return seconds, digest.hexdigest(), problems

    call = Call(name, run)
    return call


def batch_api(seed: int) -> list[Call]:
    """Decode/encode, bilinear sampling and Hungarian through the public API.

    Three calls, so that each one's check fails on its own.  Chunk ``i``
    of a call is drawn from its own generator, seeded by (seed, call, i).
    """
    from polarview import assignment, geometry, sampling

    rc = geometry.RangeConfig()
    fmap = sampling.FeatureMap(
        data=np.random.default_rng([seed, 0]).uniform(-1.0, 1.0, size=FEATURE_SHAPE), stride=4.0
    )
    h, w, _ = FEATURE_SHAPE

    def boxes(i):
        return _interior_boxes(np.random.default_rng([seed, 1, i]), BATCH_CHUNK, rc)

    def points(i):
        # pixel coordinates reach past the map edges so the out-of-view rule runs too
        rng = np.random.default_rng([seed, 2, i])
        return np.column_stack(
            [rng.uniform(-8.0, 4.0 * w + 8.0, BATCH_CHUNK), rng.uniform(-8.0, 4.0 * h + 8.0, BATCH_CHUNK)]
        )

    def matrix(i):
        return np.random.default_rng([seed, 3, i]).uniform(-5.0, 5.0, size=HUNGARIAN_SHAPE)

    return [
        _batch_call(
            "decode_encode",
            BATCH_BOXES // BATCH_CHUNK,
            boxes,
            lambda chunk: geometry.decode_boxes(geometry.encode_boxes(chunk, rc), rc),
            lambda decoded: [decoded],
            checks.check_roundtrip,
        ),
        _batch_call(
            "bilinear",
            BATCH_POINTS // BATCH_CHUNK,
            points,
            lambda uv: sampling.bilinear_sample_many(fmap, uv),
            lambda result: result,
            lambda uv, result, stats: checks.check_bilinear(fmap.data, uv / fmap.stride, *result),
        ),
        _batch_call(
            "hungarian",
            HUNGARIAN_MATRICES,
            matrix,
            lambda costs: assignment.hungarian(costs),  # looked up per call, so a traced run sees it
            lambda result: [repr(result.pairs).encode()],
            lambda costs, result, stats: checks.check_hungarian(costs, result.pairs),
        ),
    ]


def oracles(seed: int, workdir: str) -> list[Call]:
    grad, sym = os.path.join(workdir, "gradcheck.csv"), os.path.join(workdir, "symmetry.json")
    return [
        _cli_call(
            "gradcheck",
            [(["gradcheck", "--fixtures", str(GRADCHECK_FIXTURES), "--seed", str(seed), "--out", grad], grad)],
            lambda i, stats: checks.check_gradcheck(grad, GRADCHECK_FIXTURES, seed, stats),
        ),
        _cli_call(
            "symmetry",
            [(["symmetry-check", "--cameras", "6", "--points", str(SYMMETRY_POINTS), "--seed", str(seed), "--out", sym],
              sym)],
            lambda i, stats: checks.check_symmetry(sym, stats),
        ),
        *batch_api(seed),
    ]


def build(workload: str, seed: int, workdir: str) -> list[Call]:
    if workload == "oracles":
        return oracles(seed, workdir)
    return pipeline(workload, seed, workdir)
