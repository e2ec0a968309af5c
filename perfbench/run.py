"""Closed-loop benchmark of speccov, one workload per process.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run sets up the workload three times (``setup_s`` is the import time plus
the median set-up, each set-up ending with one untimed warm-up call), then
calls speccov in a single-threaded closed loop: each call starts when the
previous one has returned, until ``--seconds`` have passed. With
``--trace 1`` it instead makes a fixed number of calls with every layer
rebound (see tracing.py), so that its counts repeat exactly for a seed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
machine record and (traced) the spans, goes to ``perfbench/out/``.
A correctness-gate violation prints ``"correct": false`` and exits 1.

``--workload all`` runs every workload untraced and traced, each in a fresh
process, and prints the tables, the tracing overhead and whether each
workload's predicted dominant layer was confirmed; it exits nonzero if any
run did.
"""

import time

_T0 = time.perf_counter()

import os

# One BLAS thread: the loop is single-threaded and the figures must repeat.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import importlib.util
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
# call_tail_s percentile: the highest that keeps ten calls beyond it on
# every workload at its seed-code call rate; fixed so that runs compare
TAIL_Q = 0.75


def _import_speccov():
    """Import speccov from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "speccov" / "__init__.py").is_file():
        sys.exit(f"error: no speccov sources under {src}")
    sys.path.insert(0, str(src))
    import speccov

    if Path(speccov.__file__).resolve().parent != src / "speccov":
        sys.exit(f"error: imported speccov from {speccov.__file__}, not {src}")
    return speccov


def machine_record(speccov):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_enabled": bool(speccov.NUMBA_ENABLED),
        "cvxpy_importable": importlib.util.find_spec("cvxpy") is not None,
    }


def _blas_threads():
    """Threads of the loaded OpenBLAS, or the requested count if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def percentile(sorted_vals, q):
    """Linear-interpolated percentile; an infinite neighbour gives inf."""
    pos = q * (len(sorted_vals) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    a, b = sorted_vals[lo], sorted_vals[hi]
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return a + (b - a) * (pos - lo)


def end_to_end(times, outcomes, setup_s, errors):
    """The end-to-end metrics; a failed call ranks slower than any other."""
    ranked = sorted(math.inf if o.failed else t for t, o in zip(times, outcomes))
    done = sum(o.items - o.failed for o in outcomes)
    k = len(times)
    beyond = k - math.floor(TAIL_Q * (k - 1)) - 1
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPS} set-ups + import"),
        "items_per_s": (done / sum(times), "1/s", f"{done} items"),
        "call_p50_s": (percentile(ranked, 0.5), "s", f"n={k}"),
        "call_tail_s": (percentile(ranked, TAIL_Q), "s",
                        f"p{TAIL_Q * 100:g}, n={k}, {beyond} beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "this process"),
        "frob_err_p50": (statistics.median(errors) if errors else math.inf,
                         "1", f"n={len(errors)}"),
    }


def _declared(values, kind):
    """``values`` as result metrics with the units BENCHMARK.json gives."""
    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    undeclared = set(values) - set(units)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    return {k: {"value": values[k], "unit": units[k]} for k in units
            if k in values}


def run_one(name, seed, seconds, trace):
    speccov = _import_speccov()
    import workloads
    import tracing

    t_import = time.perf_counter() - _T0
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](seed, workdir, ROOT)
        setups, extra = [], {}
        for rep in range(1 if trace else SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup(rep)
            extra["setup.inputs_s"] = time.perf_counter() - t0
            wl.call(wl.prepare(0))  # warm-up
            setups.append(time.perf_counter() - t0)
            gc.collect()
        extra.update(wl.setup_metrics)

        modules = {m: getattr(speccov, m) for m in
                   ("cli", "harness", "simgen", "shrinkage", "spectral",
                    "lowrank", "_kernels")}
        tracer = tracing.Tracer(modules)
        times, outcomes = [], []
        with tracer if trace else contextlib.nullcontext():
            start = time.perf_counter()
            i = 0
            while (i < wl.trace_calls if trace
                   else time.perf_counter() - start < seconds):
                arg = wl.prepare(i)
                tracer.recording = True
                t0 = time.perf_counter()
                try:
                    raw = wl.call(arg)
                    failure = None
                except Exception as exc:  # a failed call is a failed item
                    failure = f"{type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - t0)
                tracer.recording = False
                outcomes.append(wl.collect(arg, raw) if failure is None else
                                workloads.Outcome(1, 1, error=failure))
                i += 1
        errors, violations = wl.verify([o for o in outcomes if not o.failed])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.items for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    lines = [f"workload {name} seed {seed} trace {trace}: {len(times)} calls, "
             f"{attempted} items, {failed} failed "
             f"(failed_share {failed / attempted:.4f})"]
    lines += [f"failed call: {e}" for e in sorted({o.error for o in outcomes
                                                   if o.error})]
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "call_times": times,
              "machine": machine_record(speccov), "violations": violations}
    lines.append("machine: " + json.dumps(result["machine"]))
    if trace:
        layer, absent = tracing.layer_metrics(tracer, wl.expected)
        layer.update(extra)
        layer["trace.items_per_s"] = (attempted - failed) / sum(times)
        metrics = _declared(layer, "per_layer")
        selfs = {k[:-len(".self_s")]: v for k, v in layer.items()
                 if k.endswith(".self_s")}
        top = max(selfs, key=selfs.get)
        verdict = "confirmed" if top == wl.dominant else "refuted"
        lines.append(f"dominant layer: predicted {wl.dominant}, measured {top} "
                     f"({selfs[top] / sum(times):.0%} of timed wall): {verdict}")
        lines += [f"  {k:<52} {m['value']:>14.6g} {m['unit']}"
                  for k, m in metrics.items()]
        lines += [f"  {a:<52} {'absent':>14}" for a in absent]
        result.update(absent=absent, missing_sites=tracer.missing,
                      dominant={"predicted": wl.dominant, "measured": top,
                                "verdict": verdict},
                      spans=tracer.dump())
    else:
        setup_s = t_import + statistics.median(setups)
        e2e = end_to_end(times, outcomes, setup_s, errors)
        metrics = _declared({k: v for k, (v, _, _) in e2e.items()}, "end_to_end")
        lines += [f"  {k:<14} {v:>14.6g} {u:<4} ({note})"
                  for k, (v, u, note) in e2e.items()]
    lines += [f"GATE VIOLATION: {v}" for v in violations]
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh)
    print("\n".join(lines))
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not violations else 1


def run_all(seed, seconds):
    """Every workload untraced then traced, each in a fresh process."""
    import workloads

    status, results = 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            sys.stderr.write(proc.stderr)
            print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
            status = status or proc.returncode
            if proc.returncode == 0:
                results[name, trace] = json.loads(
                    proc.stdout.strip().splitlines()[-1])["metrics"]
    print("\ntracing overhead (untraced / traced items_per_s - 1):")
    for name in workloads.WORKLOADS:
        if (name, 0) in results and (name, 1) in results:
            plain = results[name, 0]["items_per_s"]["value"]
            traced = results[name, 1]["trace.items_per_s"]["value"]
            print(f"  {name:<10} {plain / traced - 1:+.1%}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("simulate", "cv", "large_n", "lowrank", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed nonnegative")
    if args.workload == "all":
        _import_speccov()
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
