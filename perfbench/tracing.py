"""Span recorder that measures speccov's layers from outside the package.

Each call site is measured by rebinding the module attribute its caller
looks up at call time (``spectral.probe_log_moduli``, ``_kernels.ecf``,
...), so no file of the package changes. A span records its name, start,
end, parent and whether the call raised; spans stay in memory until the run
ends. A layer's self time is its spans' durations minus the time their
child spans cover.

Sites listed in ``COUNTED`` are counted, not timed: each call adds one to
the innermost open span (one ``_barrier_prox`` call is one ADMM iteration,
one ``nuclear_prox`` call one FISTA proximal step, backtracking included).
"""

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional


def _probe_bytes(args, kwargs, result):
    n, p = args[0].shape
    # exp(iUY) for the diagonal probes and exp(iUY/sqrt 2) for the pairs
    return {"bytes": 2 * 16 * n * p}


def _ecf_bytes(args, kwargs, result):
    # the n x m complex matrix exp(i Y F^T)
    return {"bytes": 16 * args[0].shape[0] * args[1].shape[0]}


def _cv_splits(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    return {"splits": cfg.num_splits}


def _fista_iters(args, kwargs, result):
    return {"fista_iters": len(result.tuning["objective_trace"]) - 1}


# (module, attribute, layer, annotate); two sites may feed one layer
TIMED = (
    ("cli", "main", "cli.main", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "write_csv", "harness.write_csv", None),
    ("simgen", "sample_scenario", "simgen.sample_scenario", None),
    ("shrinkage", "cross_validate_tau", "shrinkage.cross_validate_tau", _cv_splits),
    ("shrinkage", "pd_soft_threshold", "shrinkage.pd_soft_threshold", None),
    ("spectral", "spectral_estimate", "spectral.spectral_estimate", None),
    ("shrinkage", "spectral_estimate", "spectral.spectral_estimate", None),
    ("spectral", "probe_log_moduli", "charfreq.probe_log_moduli", None),
    ("_kernels", "probe_cf", "kernels.probe_cf", _probe_bytes),
    ("_kernels", "ecf", "kernels.ecf", _ecf_bytes),
    ("lowrank", "lowrank_estimate", "lowrank.lowrank_estimate", _fista_iters),
)
COUNTED = (
    ("shrinkage", "_barrier_prox", "shrinkage.admm"),
    ("lowrank", "nuclear_prox", "lowrank.nuclear_prox"),
)


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Rebinds every site of ``TIMED`` and ``COUNTED`` while installed.

    Wrappers record only while ``recording`` is true, so the benchmark's
    own input preparation and checks, which call the same functions, stay
    out of the trace. A site whose attribute no longer exists is listed in
    ``missing`` and left alone.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.recording = False
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for mod_name, attr, layer, note in TIMED:
            self._rebind(mod_name, attr, lambda fn, layer=layer, note=note:
                         self._timed(fn, layer, note))
        for mod_name, attr, layer in COUNTED:
            self._rebind(mod_name, attr, lambda fn, layer=layer:
                         self._counted(fn, layer))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _rebind(self, mod_name, attr, make):
        mod = self.modules[mod_name]
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{mod_name}.{attr}")
            print(f"warning: call site {mod_name}.{attr} not found; "
                  "its layer metrics are absent", file=sys.stderr)
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def _timed(self, fn, layer, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(layer, parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.info.update(note(args, kwargs, result))
            return result
        return traced

    def _counted(self, fn, layer):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.recording and self._stack:
                counts = self.spans[self._stack[-1]].counts
                counts[layer] = counts.get(layer, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def ancestor(self, i, name):
        """Index of the nearest enclosing span called ``name``, or None."""
        j = self.spans[i].parent
        while j is not None and self.spans[j].name != name:
            j = self.spans[j].parent
        return j

    def dump(self):
        return [{"name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, "failed": s.failed, "counts": s.counts,
                 "info": s.info} for s in self.spans]


def layer_metrics(tracer, expected):
    """Per-layer metrics of a traced run, keyed by BENCHMARK.json names.

    ``expected`` names the layers the workload is known to use. One of them
    with no recorded call is reported absent, with a warning, rather than
    as a layer that became free; a layer the workload does not use reads 0.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    by_layer = {}
    for i, s in enumerate(spans):
        by_layer.setdefault(s.name, []).append(i)

    def calls(layer):
        return len(by_layer.get(layer, ()))

    def self_s(layer):
        return sum(selfs[i] for i in by_layer.get(layer, ()))

    def total(layer, key, source="info"):
        return sum(getattr(spans[i], source).get(key, 0)
                   for i in by_layer.get(layer, ()))

    pds = "shrinkage.pd_soft_threshold"
    iters = [spans[i].counts.get("shrinkage.admm", 0) for i in by_layer.get(pds, ())]
    cv = "shrinkage.cross_validate_tau"
    splits = total(cv, "splits")
    in_cv = {name: sum(1 for i in by_layer.get(name, ())
                       if tracer.ancestor(i, cv) is not None)
             for name in ("spectral.spectral_estimate", pds)}
    low = "lowrank.lowrank_estimate"
    fista = total(low, "fista_iters")
    prox = total(low, "lowrank.nuclear_prox", "counts")

    groups = {
        pds: {
            pds + ".calls": calls(pds),
            pds + ".self_s": self_s(pds),
            pds + ".failed": sum(spans[i].failed for i in by_layer.get(pds, ())),
        },
        "shrinkage.admm": {
            "shrinkage.admm.iters_p50": statistics.median(iters) if iters else 0,
            "shrinkage.admm.iters_max": max(iters, default=0),
            "shrinkage.admm.iters_total": sum(iters),
        },
        cv: {
            cv + ".self_s": self_s(cv),
            cv + ".spectral_calls_per_split":
                in_cv["spectral.spectral_estimate"] / splits if splits else 0,
            cv + ".solves_per_split": in_cv[pds] / splits if splits else 0,
        },
        "kernels.probe_cf": {
            "kernels.probe_cf.calls": calls("kernels.probe_cf"),
            "kernels.probe_cf.self_s": self_s("kernels.probe_cf"),
            "kernels.probe_cf.bytes_computed": total("kernels.probe_cf", "bytes"),
        },
        "charfreq.probe_log_moduli": {
            "charfreq.probe_log_moduli.self_s": self_s("charfreq.probe_log_moduli"),
        },
        "spectral.spectral_estimate": {
            "spectral.spectral_estimate.calls": calls("spectral.spectral_estimate"),
            "spectral.spectral_estimate.self_s": self_s("spectral.spectral_estimate"),
        },
        "kernels.ecf": {
            "kernels.ecf.calls": calls("kernels.ecf"),
            "kernels.ecf.self_s": self_s("kernels.ecf"),
            "kernels.ecf.bytes_computed": total("kernels.ecf", "bytes"),
        },
        low: {
            low + ".self_s": self_s(low),
            "lowrank.fista.iters": fista,
        },
        "lowrank.nuclear_prox": {
            "lowrank.fista.accept_ratio": fista / prox if prox else 0,
        },
        "simgen.sample_scenario": {
            "simgen.sample_scenario.calls": calls("simgen.sample_scenario"),
            "simgen.sample_scenario.self_s": self_s("simgen.sample_scenario"),
        },
        "harness.run_experiment": {
            "harness.run_experiment.self_s": self_s("harness.run_experiment"),
        },
        "harness.write_csv": {
            "harness.write_csv.s": self_s("harness.write_csv"),
        },
        "cli.main": {"cli.main.self_s": self_s("cli.main")},
    }
    seen = {layer for layer in by_layer}
    seen |= {c for s in spans for c in s.counts}
    out, absent = {}, []
    for layer, metrics in groups.items():
        if layer in expected and layer not in seen:
            absent.append(layer)
            continue
        out.update(metrics)
    for layer in absent:
        print(f"warning: layer {layer} recorded no call on a workload that "
              "uses it; its metrics are absent", file=sys.stderr)
    return out, absent
