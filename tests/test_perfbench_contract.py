"""The benchmark's traced run must keep reaching the functions it requires.

``perfbench/tracer.py`` fails a ``--trace 1`` run when a function it
requires on a workload exists but was never called.  One traced pass of
each workload here catches a refactor that would do so, before the
benchmark runs.  The test only reads ``perfbench/``.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("workload", ["dense", "sparse-long", "oracles"])
def test_one_traced_pass_calls_every_required_function(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    calls = workloads.build(workload, 0, str(tmp_path))
    tracer.install()
    try:
        results = [call.run(False, tracer.run_span) for call in calls]
    finally:
        tracer.uninstall()
    assert [problems for _, _, problems in results] == [[]] * len(calls)
    assert tracer.missing_calls(workload) == []
