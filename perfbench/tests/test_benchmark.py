"""Self-checks of the benchmark: repeatable counts, seeded inputs, metric rules.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

run._import_speccov()
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bytes", "ratio")


def _traced(name, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    first, second = _traced(name, 7), _traced(name, 7)
    counts = {k: m["value"] for k, m in first["metrics"].items()
              if m["unit"] in COUNT_UNITS}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert (first["attempted"], first["failed"]) == \
        (second["attempted"], second["failed"])


def _inputs(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, tmp_path, run.ROOT)
    wl.setup(0)
    if name == "large_n":
        return np.concatenate(wl.samples)
    arg = wl.prepare(0)
    if name == "simulate":
        with open(arg[2]) as fh:
            return yaml.safe_load(fh)["scenario"]["seed"]
    return arg[0] if name == "cv" else arg


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    a, b = _inputs(name, 1, tmp_path), _inputs(name, 1, tmp_path)
    c = _inputs(name, 2, tmp_path)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_failed_call_ranks_slowest():
    times = [0.1, 0.1, 0.01]
    outcomes = [workloads.Outcome(1, 0)] * 2 + [workloads.Outcome(1, 1)]
    m = run.end_to_end(times, outcomes, 1.0, [1.0])
    assert math.isinf(m["call_tail_s"][0])
    assert m["call_p50_s"][0] == pytest.approx(0.1)
    # the failed call adds its time but no work
    assert m["items_per_s"][0] == pytest.approx(2 / sum(times))


def test_self_time_and_absent_layer():
    def slow_ecf(Y, F):
        return 0

    def estimate(Y, F):
        return mods["_kernels"].ecf(Y, F)

    mods = {name: types.SimpleNamespace() for name in
            ("cli", "harness", "simgen", "shrinkage", "spectral", "lowrank")}
    mods["_kernels"] = types.SimpleNamespace(ecf=slow_ecf)
    mods["spectral"].spectral_estimate = estimate
    with tracing.Tracer(mods) as tracer:
        tracer.recording = True
        mods["spectral"].spectral_estimate(np.zeros((3, 2)), np.zeros((4, 2)))
        tracer.recording = False
    assert mods["_kernels"].ecf is slow_ecf  # rebinding undone
    assert "_kernels.probe_cf" in tracer.missing
    metrics, absent = tracing.layer_metrics(
        tracer, ("kernels.ecf", "kernels.probe_cf"))
    assert absent == ["kernels.probe_cf"]
    assert "kernels.probe_cf.calls" not in metrics
    assert metrics["kernels.ecf.bytes_computed"] == 16 * 3 * 4
    outer, inner = tracer.spans
    assert metrics["spectral.spectral_estimate.self_s"] == pytest.approx(
        outer.duration - inner.duration)
