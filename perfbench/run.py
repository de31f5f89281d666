"""Pipeline benchmark for polarview.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload in turn, default seed

One run builds the workload's inputs from ``--seed``, makes one untimed
pass that checks every output, then repeats timed passes for
``--seconds``, each after timing a fresh-process set-up, and reports
medians of calibrated times (see ``at_nominal`` and ``command_seconds``).
Every pass must give byte-identical outputs.  With ``--trace 1`` the
measured time is split: passes without tracing first, then passes with
the layer functions wrapped (see ``tracer.py``), and the per-layer
metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
timed calls that exited non-zero, failed an output check, or wrote other
bytes than the checked pass.  Spans, samples and provenance are written
under ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("dense", "sparse-long", "oracles")
CALIBRATION_NOMINAL_S = 0.03  # the calibration task's time on an idle 2-core VM
MIN_PASSES = 5  # also the fewest set-up samples behind setup_s
CHECK_ERRORS = (KeyError, ValueError, TypeError, IndexError, OSError)

# timed call -> the CLI command it runs
CLI_COMMANDS = {
    "simulate": "simulate",
    "render": "render",
    "assign": "assign",
    "track": "track",
    "eval": "eval",
    "gradcheck": "gradcheck",
    "symmetry": "symmetry-check",
}
# timed calls of library functions only; together they report ``batch_api_s``
BATCH_CALLS = ("decode_encode", "bilinear", "hungarian")
# every timed call; each reports ``<call>_s``
CALLS = (*CLI_COMMANDS, *BATCH_CALLS)


def import_program():
    """Import polarview from this checkout's ``src/``, or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "polarview", "cli.py")):
        sys.exit(f"perfbench: no program at {SRC}/polarview")
    sys.path.insert(0, SRC)
    import polarview
    import polarview.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(polarview.__file__))) != SRC:
        sys.exit(f"perfbench: polarview imported from {polarview.__file__}, not {SRC}")
    return polarview


def calibration_seconds() -> float:
    """Wall time of a fixed task that mixes the program's kinds of work.

    Python objects, math calls, float formatting and small numpy arrays:
    the task slows down with the host the way the program's calls do, and
    no change to the program can alter it.
    """
    start = time.perf_counter()
    rows = []
    for i in range(3000):
        x = math.sin(i * 0.001) * 50.0
        rows.append({"id": i, "box": [x, math.hypot(x, i), math.atan2(x, 1.0 + i)]})
    ",".join(format(v, ".17g") for row in rows for v in row["box"])
    a = np.array([row["box"] for row in rows])
    for _ in range(50):
        d = np.hypot(a[:200, None, 0] - a[None, :200, 0], a[:200, None, 1] - a[None, :200, 1])
        a[:200, 2] += d.min(axis=1) * 1e-9
    return time.perf_counter() - start


def at_nominal(seconds: float, before: float, after: float) -> float:
    """Scale ``seconds`` by the calibration times measured just before and after it.

    The result is the time at the host speed where the calibration task
    takes ``CALIBRATION_NOMINAL_S``.
    """
    return seconds * CALIBRATION_NOMINAL_S / ((before + after) / 2.0)


def setup_seconds() -> float:
    """Calibrated seconds for a fresh interpreter to import polarview.cli."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import polarview.cli"
    before = calibration_seconds()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    seconds = time.perf_counter() - start
    return at_nominal(seconds, before, calibration_seconds())


def provenance(polarview, workload: str, seed: int) -> dict:
    import scipy

    from workloads import REASONS

    lines = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    backend = polarview.backend() if hasattr(polarview, "backend") else "numpy"
    return {
        "workload": workload,
        "seed": seed,
        "why": REASONS[workload],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend,
        "kernels_note": (
            "kernel spans cover the numpy path only; numba is not installed"
            if backend == "numpy"
            else f"kernel spans cover the {backend} path"
        ),
        "src_lines": lines,
    }


@dataclass
class Result:
    name: str
    seconds: float  # at nominal calibration speed
    raw_seconds: float
    digest: str
    problems: list[str]


def run_pass(calls, check: bool, tracer=None) -> list[Result]:
    """Run each call once, with a calibration task before the first and after each."""
    from workloads import no_span

    span = no_span if tracer is None else tracer.run_span
    results = []
    before = calibration_seconds()
    for call in calls:
        try:
            raw, digest, problems = call.run(check, span)
        except CHECK_ERRORS as exc:
            raw, digest, problems = 0.0, "", [f"{call.name}: raised {exc!r}"]
        after = calibration_seconds()
        results.append(Result(call.name, at_nominal(raw, before, after), raw, digest, problems))
        before = after
    return results


def timed_passes(calls, seconds: float, minimum: int, tracer=None) -> tuple[list[list[Result]], list[float]]:
    """Passes for ``seconds`` (at least ``minimum``); each of the first
    ``minimum`` passes follows one set-up sample.

    Spreading the set-up samples over the run, like the passes, keeps one
    busy moment of the host from deciding ``setup_s``; stopping at
    ``minimum`` leaves the rest of the run to more passes.
    """
    passes, setups = [], []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        if len(setups) < minimum:
            setups.append(setup_seconds())
        passes.append(run_pass(calls, check=False, tracer=tracer))
    return passes, setups


def tally(passes, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over timed calls against the checked pass."""
    attempted = failed = 0
    problems = []
    for results in passes:
        for r in results:
            attempted += 1
            ref_digest, ref_problems = reference[r.name]
            if r.problems or ref_problems or r.digest != ref_digest:
                failed += 1
                problems += r.problems or ref_problems or [f"{r.name}: output bytes differ between passes"]
    return attempted, failed, sorted(set(problems))


def command_samples(passes, field: str = "seconds") -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for results in passes:
        for r in results:
            samples.setdefault(r.name, []).append(getattr(r, field))
    return samples


def command_seconds(passes) -> dict[str, float]:
    """Each call's median calibrated time over the passes of a run.

    Other tenants of a shared host change its speed over seconds to
    minutes.  On a 2-core VM, over ten seeds per workload, the quartile
    distance over the median of ``total_s`` was 3-7% with this estimate,
    against 9-10% for each call's fastest calibrated time.
    """
    return {name: statistics.median(v) for name, v in command_samples(passes).items()}


def total_seconds(passes) -> float:
    """Sum over the workload's calls of each call's median calibrated time."""
    return sum(command_seconds(passes).values())


def layer_metrics(tracer, untraced, traced, stats) -> dict[str, float]:
    """Per-layer metrics: untraced command times, the traced passes' spans and
    counts, and the oracle checks' error figures."""
    from checks import STATS

    values = {f"{name}_s": 0.0 for name in CALLS}
    values.update({f"{name}_s": v for name, v in command_seconds(untraced).items()})
    values["batch_api_s"] = sum(values[f"{name}_s"] for name in BATCH_CALLS)
    values.update({name: 0.0 for name in STATS})
    values.update(stats)
    _, self_time = tracer.times()
    for command in CLI_COMMANDS.values():
        values[f"cli.{command}.self_s"] = self_time.get(f"cli.{command}", 0.0) / len(traced)
    values.update(tracer.metrics(len(traced)))
    values["trace.overhead_ratio"] = total_seconds(traced) / total_seconds(untraced)
    return values


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    polarview = import_program()
    import workloads
    from tracer import Tracer

    end_to_end_units, per_layer_units = declared_units()
    info = provenance(polarview, workload, seed)
    for key, value in info.items():
        print(f"info {key}: {value}")

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-seed{seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        calls = workloads.build(workload, seed, workdir)
        checked = run_pass(calls, check=True)
        reference = {r.name: (r.digest, r.problems) for r in checked}
        stats = {name: value for call in calls for name, value in call.stats.items()}
        # the inputs and checks of the checked pass are in the peak too; this shows their share
        rss_before_timed_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:  # half the time each for untraced and traced passes; setup_s is not reported
            untraced, setup = timed_passes(calls, seconds / 2, 3)
        else:
            untraced, setup = timed_passes(calls, seconds, MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = timed_passes(calls, seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = tally(untraced + traced, reference)
    for problem in problems:
        print(f"problem {problem}")
    for name, value in stats.items():
        print(f"info {name}: {value!r}")
    print(f"info peak_rss_mb before the timed passes: {rss_before_timed_mb:.6g} MB")
    print(f"info passes: {len(untraced)} untraced, {len(traced)} traced; calls attempted {attempted}, failed {failed}")
    print(f"metric ops_failed: {failed / attempted:.6g} share of {attempted} timed calls")
    raw = command_samples(untraced, "raw_seconds")
    for name, v in command_seconds(untraced).items():
        print(
            f"metric {name}_s: {v:.6g} s calibrated (median of {len(raw[name])} passes; "
            f"raw fastest {min(raw[name]):.6g}, median {statistics.median(raw[name]):.6g}, "
            f"slowest {max(raw[name]):.6g})"
        )

    end_to_end = {
        "setup_s": statistics.median(setup),
        "total_s": total_seconds(untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "provenance": info,
        "setup_samples_s": setup,
        "pass_samples_s": [{r.name: r.seconds for r in results} for results in untraced],
        "pass_raw_samples_s": [{r.name: r.raw_seconds for r in results} for results in untraced],
        "end_to_end": end_to_end,
        "peak_rss_before_timed_mb": rss_before_timed_mb,
        "problems": problems,
        "check_stats": stats,
    }
    if trace:
        metrics = layer_metrics(tracer, untraced, traced, stats)
        missing = tracer.missing_calls(workload)
        tracer.write(os.path.join(WORK, f"trace-{workload}-seed{seed}.json"))
        record.update(per_layer=metrics, absent=tracer.absent, binding_sites=tracer.binding_sites())
        for name in tracer.absent:
            print(f"info absent: {name} is not defined by the program; its metrics read 0")
        if missing:
            sys.exit(f"perfbench: traced run reached no call of {', '.join(missing)} on {workload}")
        units = per_layer_units
    else:
        metrics = end_to_end
        units = end_to_end_units
    for name, value in end_to_end.items():
        print(f"metric {name}: {value:.6g} {end_to_end_units[name]}")
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    if trace:
        for name, value in metrics.items():
            print(f"metric {name}: {value:.6g} {units[name]}")
    with open(os.path.join(WORK, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is not None:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run([sys.executable, os.path.abspath(__file__), *argv]).returncode
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
