"""Experiment runner: replication loops, baselines, CSV/JSON emission.

An experiment is a scenario (covariance model, noise model, n, seed) plus a
list of estimators with their tuning. Each replication draws a fresh sample
with a seed derived from (seed, replication index), runs every estimator,
and records the Frobenius error against the true covariance. Identical
specs produce byte-identical CSV output.
"""

import csv
import io
import json
import math
import numbers
import re
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import yaml

from . import lowrank, shrinkage, simgen, spectral
from .shrinkage import CvConfig, PdSoftConfig
from .simgen import CovModel, NoiseModel, Scenario

__all__ = [
    "ExperimentSpec",
    "ResultRecord",
    "SummaryStats",
    "run_experiment",
    "summarize",
    "records_to_csv",
    "write_csv",
    "load_spec",
    "spec_from_dict",
]

# Tuning keys read as numbers; the integer ones also must be whole. R, T,
# beta and gamma are the theory constants of the admissibility check.
_NUMERIC_KEYS = ("tau", "U", "lambda", "rho_admm", "tol", "alpha",
                 "R", "T", "beta", "gamma")
_INTEGER_KEYS = ("max_iter", "mc_samples", "seed")
# Config keys whose value is a list of numbers.
_LIST_KEYS = ("block_sizes", "tau_grid")


def _check_numbers(block, d, real=(), whole=()):
    """Raise ValueError naming ``block`` and the key for a value of ``d``
    that is not a finite real number (a key of ``real``) or not a whole one
    (a key of ``whole``); under a key of ``_LIST_KEYS``, for a value that is
    not a list of them. An absent key is skipped."""
    for key in real + whole:
        if key not in d:
            continue
        v, is_whole = d[key], key in whole
        kind = "whole number" if is_whole else "number"
        if key in _LIST_KEYS:
            ok = (isinstance(v, (list, tuple, np.ndarray))
                  and all(_is_number(x, is_whole) for x in v))
            kind = f"list of {kind}s"
        else:
            ok = _is_number(v, is_whole)
        if not ok:
            raise ValueError(f"{block}: {key} must be a {kind}, got {v!r}")


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _above(low):
    return (lambda v: v > low), f"> {low}"


def _check_range(block, d, **ranges):
    """Raise ValueError naming ``block`` and the key for a number of ``d``
    outside its range in ``ranges``, a (test, text) pair such as
    ``_at_least(1)``; under a key of ``_LIST_KEYS``, for a list with an
    entry outside it. An absent key is skipped."""
    for key, (ok, text) in ranges.items():
        if key not in d:
            continue
        v, each = d[key], " each" if key in _LIST_KEYS else ""
        if not all(map(ok, v if each else [v])):
            raise ValueError(f"{block}: {key} must be {text}{each}, got {v!r}")


# The range of each tuning number, as the constructor that takes it checks
# it (PdSoftConfig, LowRankConfig, SpectralConfig, stable_generator), so
# that a value out of range fails when the config is parsed instead of in
# every record; lowrank's probe radius is at least 1.
_TUNING_RANGES = {
    "tau": _at_least(0), "U": _above(0), "lambda": _above(0),
    "rho_admm": _above(0), "tol": _above(0), "max_iter": _at_least(1),
    "mc_samples": _at_least(1), "seed": _at_least(0),
    "alpha": ((lambda v: 0 < v <= 2), "in (0, 2]"),
    "R": _above(0), "T": _above(0),
    "beta": ((lambda v: 0 <= v < 2), "in [0, 2)"),
    "gamma": ((lambda v: v > spectral.SQRT2), "> sqrt(2)"),
}
_LOWRANK_RANGES = {**_TUNING_RANGES, "U": _at_least(1)}


def _block(block, d, *keys):
    """Return ``d`` after raising ValueError naming ``block`` when it is not
    a mapping or lacks a key of ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{block}: must be a mapping, got {d!r}")
    for key in keys:
        if key not in d:
            raise ValueError(f"{block}: missing key {key!r}")
    return d


def _is_number(x, whole):
    return (not isinstance(x, bool) and isinstance(x, numbers.Real)
            and math.isfinite(x) and not (whole and x != int(x)))


CSV_HEADER = [
    "replication", "estimator", "frob_error", "wall_time_s",
    "tau", "U", "lambda", "admissible", "error",
]


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: Scenario
    estimators: List[tuple]  # (tag, tuning dict)
    replications: int
    cv: Optional[CvConfig] = None
    cv_rule: str = "sps"
    output: Optional[str] = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        for tag, tuning in self.estimators:
            if tag not in ESTIMATORS:
                raise ValueError(f"unknown estimator tag {tag!r}")
            # a None tau is left to be chosen by cross-validation
            numbers = {k: v for k, v in tuning.items()
                       if not (k == "tau" and v is None)}
            _check_numbers(f"estimator {tag!r}", numbers, _NUMERIC_KEYS,
                           _INTEGER_KEYS)
            _check_range(f"estimator {tag!r}", numbers, **(
                _LOWRANK_RANGES if tag == "lowrank" else _TUNING_RANGES))
            if (tag in THRESHOLD_TAGS and self.cv is None
                    and tuning.get("tau") is None):
                raise ValueError(f"estimator {tag!r} needs a tau or a cv: block")
        if self.cv is not None and self.cv_rule not in THRESHOLD_TAGS:
            raise ValueError(f"unknown cv rule {self.cv_rule!r}")


@dataclass(frozen=True)
class ResultRecord:
    replication: int
    estimator: str
    frob_error: float
    wall_time: float
    tuning_used: dict = field(default_factory=dict)
    admissible_flag: Optional[bool] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class SummaryStats:
    """An estimator's record count ``n``, how many of them failed, and the
    statistics of the others' errors (None when every record failed)."""

    n: int
    n_failed: int
    min: Optional[float] = None
    q25: Optional[float] = None
    median: Optional[float] = None
    q75: Optional[float] = None
    max: Optional[float] = None
    mean: Optional[float] = None
    stderr: Optional[float] = None


def _generator_from_tuning(tuning):
    gen_kind = tuning.get("generator", "gaussian")
    if gen_kind == "gaussian":
        return spectral.gaussian_generator()
    if gen_kind == "stable":
        return spectral.stable_generator(float(tuning.get("alpha", 1.0)))
    raise ValueError(f"unknown elliptical generator {gen_kind!r}")


def _pd_config(tuning):
    return PdSoftConfig(
        tau=tuning.get("tau"),
        lambda_barrier=tuning.get("lambda", 1e-4),
        max_iter=int(tuning.get("max_iter", 10_000)),
        tol=float(tuning.get("tol", 1e-7)),
        rho_admm=float(tuning.get("rho_admm", 2.0)),
    )


def _spectral(Y, tuning):
    return spectral.spectral_estimate(Y, tuning.get("U", 1.0))


def _lowrank(Y, tuning):
    cfg = lowrank.LowRankConfig(
        U=tuning.get("U", 1.0),
        lambda_nuc=tuning.get("lambda", 1e-4),
        mc_samples=int(tuning.get("mc_samples", 4096)),
    )
    w = lowrank.bump_weight(Y.shape[1])
    return lowrank.lowrank_estimate(Y, cfg, w, seed=int(tuning.get("seed", 0)))


def _pd_soft(bases, tuning, taus):
    return shrinkage.pd_soft_threshold(
        bases, [_pd_config({**tuning, "tau": tau}) for tau in taus])


# The estimators that take tau, each a base estimate of Y followed by a rule
# applied to it; a cv: block selects tau and its rule is one of them.
# base: fn(Y, tuning) -> CovEstimate. rule: fn(bases, tuning, taus) -> the
# estimate of each base at its tau, for equal-length lists, so that CV hands
# the rule one base per split at every tau of the grid, and run_experiment
# the bases of a block of replications at one tau, which PD-soft solves as
# stacks.
_BASES = {
    "sps": _spectral,
    "soft": _spectral,
    "hard": _spectral,
    "pds": lambda Y, t: shrinkage.sample_covariance(Y),
}


def _entrywise(rule):
    return lambda bases, t, taus: [rule(base, tau)
                                   for base, tau in zip(bases, taus)]


_RULES = {
    "sps": _pd_soft,
    "soft": _entrywise(shrinkage.soft_threshold),
    "hard": _entrywise(shrinkage.hard_threshold),
    "pds": _pd_soft,
}
THRESHOLD_TAGS = tuple(_RULES)


def _thresholded(tag):
    return lambda Y, t: _RULES[tag]([_BASES[tag](Y, t)], t, [t.get("tau")])[0]


# tag -> fn(Y, tuning) -> CovEstimate, for an (n, p) array Y. Entries call
# package functions through their modules, so a rebound module attribute
# (perfbench's tracer, a test's monkeypatch) takes effect.
ESTIMATORS = {
    "cov": lambda Y, t: shrinkage.sample_covariance(Y),
    **{tag: _thresholded(tag) for tag in THRESHOLD_TAGS},
    "lowrank": _lowrank,
    "elliptical": lambda Y, t: spectral.spectral_estimate(
        Y, t.get("U", 1.0), _generator_from_tuning(t)),
}


def cv_fit(tag, tuning):
    """The ``fit(train, taus)`` callable of cross_validate_tau for one tag:
    the rule at every tau, applied to one base estimate of ``train``."""
    def fit(train, taus):
        base = _BASES[tag](train, tuning)
        return _RULES[tag]([base] * len(taus), tuning, taus)
    return fit


def _admissible_flag(tuning, n, p):
    keys = ("U", "R", "T", "beta")
    if not all(k in tuning for k in keys):
        return None
    cfg = spectral.SpectralConfig(
        U=tuning["U"], R=tuning["R"], T=tuning["T"], beta=tuning["beta"],
        gamma=tuning.get("gamma", 1.5),
    )
    return spectral.admissible(cfg, n, p)


# The replications that run_experiment samples and estimates together. An
# estimator that takes tau hands its rule a block's bases in one call, which
# PD-soft solves as stacks of _STACK // p**2 problems (4 at p=20), so a run
# holds at most _BLOCK bases per estimator however many replications it has.
_BLOCK = 8


def run_experiment(spec: ExperimentSpec) -> List[ResultRecord]:
    """Run all replications; estimator failures are recorded, not raised.

    The replications run in blocks of ``_BLOCK`` (see _run_block), and the
    records come in (replication, estimator) order.
    """
    truth = spec.scenario.cov.matrix()
    n, p = spec.scenario.n, truth.shape[0]
    tau_cv = cv_error = None
    if spec.cv is not None:
        # select tau once on an independent sample drawn past the
        # replication seed range
        cv_sample = simgen.sample_scenario(
            Scenario(cov=spec.scenario.cov, noise=spec.scenario.noise, n=n,
                     seed=_rep_seed(spec.scenario.seed, spec.replications)))
        U_cv = next((t.get("U", 1.0) for tag, t in spec.estimators
                     if _BASES.get(tag) is _spectral), 1.0)
        rule_tuning = next((t for tag, t in spec.estimators
                            if tag == spec.cv_rule), {})
        fit = cv_fit(spec.cv_rule, {**rule_tuning, "U": U_cv})
        try:
            tau_cv, _ = shrinkage.cross_validate_tau(cv_sample, U_cv, spec.cv, fit)
        except Exception as exc:  # fails the tuned records only, below
            cv_error = f"cross-validation failed: {type(exc).__name__}: {exc}"
    tunings = []
    for tag, tuning in spec.estimators:
        tuning = dict(tuning)
        if spec.cv is not None and tag in THRESHOLD_TAGS:
            tuning["tau"] = tau_cv
        tunings.append(tuning)
    flags = [_admissible_flag(tuning, n, p) for tuning in tunings]
    records = []
    for first in range(0, spec.replications, _BLOCK):
        block = _run_block(
            spec, range(first, min(first + _BLOCK, spec.replications)),
            tunings, truth, cv_error)
        for (rep, i), (frob, wall, err_msg) in sorted(block.items()):
            records.append(ResultRecord(
                replication=rep,
                estimator=spec.estimators[i][0],
                frob_error=frob,
                wall_time=wall,
                tuning_used=dict(tunings[i]),
                admissible_flag=flags[i],
                error=err_msg,
            ))
    records.sort(key=lambda r: (r.replication, r.estimator))
    return records


def _run_block(spec, reps, tunings, truth, cv_error):
    """{(replication, estimator index): (frob_error, wall time, error text
    or None)} for the replications ``reps``.

    The samples are drawn and estimated in turn, one held at a time. An
    estimator that takes tau computes only its base estimate of each
    sample there; its rule then takes all the block's bases in one call
    (see _solve_block). Such a record's wall time is its base time plus its
    share of that call's time, in proportion to its solver iterations (1
    for a rule without iterations and for a failed solve).
    """
    out = {}
    bases = {}  # estimator index -> [(replication, base, base seconds)]
    for rep in reps:
        data = simgen.sample_scenario(
            Scenario(cov=spec.scenario.cov, noise=spec.scenario.noise,
                     n=spec.scenario.n,
                     seed=_rep_seed(spec.scenario.seed, rep))).data
        for i, (tag, _) in enumerate(spec.estimators):
            if tag in _RULES and cv_error is not None:
                out[rep, i] = (math.nan, 0.0, cv_error)
                continue
            t0 = time.perf_counter()
            # a threshold estimator's base, or another estimator's estimate
            fn = _BASES[tag] if tag in _RULES else ESTIMATORS[tag]
            est, err_msg = _attempt(fn, data, tunings[i])
            if est is not None and tag in _RULES:
                bases.setdefault(i, []).append(
                    (rep, est, time.perf_counter() - t0))
                continue
            frob = math.nan if est is None else \
                simgen.frobenius_error(est, truth)
            out[rep, i] = (frob, time.perf_counter() - t0, err_msg)
    for i, block in bases.items():
        t0 = time.perf_counter()
        solved = _solve_block(spec.estimators[i][0], tunings[i],
                              [base for _, base, _ in block])
        share = (time.perf_counter() - t0) / sum(w for _, _, w in solved)
        for (rep, _, secs), (est, err_msg, w) in zip(block, solved):
            frob = math.nan if est is None else \
                simgen.frobenius_error(est, truth)
            out[rep, i] = (frob, secs + w * share, err_msg)
    return out


def _solve_block(tag, tuning, bases):
    """(estimate or None, error text or None, iterations or 1) of the rule
    of ``tag`` on each of ``bases`` at the tuning's tau: one call for all
    of them or, when that call raises, one call for each, so that only the
    failing bases fail, with the text that one base alone gives."""
    tau = tuning.get("tau")
    try:
        ests = [(est, None) for est in
                _RULES[tag](bases, tuning, [tau] * len(bases))]
    except Exception:
        ests = [_attempt(lambda b: _RULES[tag]([b], tuning, [tau])[0], base)
                for base in bases]
    return [(est, err_msg,
             1 if est is None else est.tuning.get("iterations", 1))
            for est, err_msg in ests]


def _attempt(fn, *args):
    """(fn(*args), None), or (None, its error text) when it raises."""
    try:
        return fn(*args), None
    except Exception as exc:  # isolate failures per record
        return None, f"{type(exc).__name__}: {exc}"


def _rep_seed(seed, rep):
    return [int(seed), int(rep)]


def summarize(records) -> dict:
    """Per-estimator five-number summary plus mean and standard error of the
    errors of its successful records, with the failed (NaN) ones counted."""
    if not records:
        raise ValueError("no records to summarize")
    out = {}
    by_tag = {}
    for r in records:
        by_tag.setdefault(r.estimator, []).append(r.frob_error)
    for tag, vals in by_tag.items():
        arr = np.asarray(vals)
        arr = arr[~np.isnan(arr)]
        counts = {"n": len(vals), "n_failed": len(vals) - len(arr)}
        if len(arr) == 0:
            out[tag] = SummaryStats(**counts)
            continue
        q25, med, q75 = np.quantile(arr, [0.25, 0.5, 0.75])
        out[tag] = SummaryStats(
            **counts,
            min=float(arr.min()), q25=float(q25), median=float(med),
            q75=float(q75), max=float(arr.max()), mean=float(arr.mean()),
            stderr=float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0,
        )
    return out


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([
            r.replication,
            r.estimator,
            _fmt(r.frob_error),
            _fmt(r.wall_time),
            _fmt(r.tuning_used.get("tau")),
            _fmt(r.tuning_used.get("U")),
            _fmt(r.tuning_used.get("lambda")),
            _fmt(r.admissible_flag),
            _fmt(r.error),
        ])
    return buf.getvalue()


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))


def summary_to_json(summary) -> str:
    return json.dumps(
        {tag: vars(s) for tag, s in sorted(summary.items())}, indent=2,
        sort_keys=True,
    )


def _noise_from_dict(d, p):
    kind = d.get("kind", "none")
    if kind == "none":
        return NoiseModel.none()
    if kind == "gamma_elliptical":
        _block("noise", d, "theta")
        A = d.get("A", "identity")
        A = np.eye(p) if (isinstance(A, str) and A == "identity") else np.asarray(A, float)
        return NoiseModel.gamma_elliptical(A, d["theta"])
    if kind == "gaussian":
        _block("noise", d, "rho")
        return NoiseModel.gaussian(d["rho"])
    if kind == "stable":
        _block("noise", d, "beta", "sigma")
        return NoiseModel.stable(d["beta"], d["sigma"], d.get("norm", "lbeta"))
    raise ValueError(f"unknown noise kind {kind!r}")


def _cov_from_dict(d):
    kind = d["kind"]
    if kind == "tridiagonal":
        _block("covariance", d, "p")
        return CovModel.tridiagonal(int(d["p"]))
    if kind == "block_diagonal":
        _block("covariance", d, "p", "block_sizes")
        return CovModel.block_diagonal(int(d["p"]), d["block_sizes"],
                                       int(d.get("seed", 0)))
    if kind == "explicit":
        _block("covariance", d, "matrix")
        try:
            return CovModel.explicit(d["matrix"])
        except ValueError as exc:
            raise ValueError(f"covariance: matrix {exc}") from None
    raise ValueError(f"unknown covariance kind {kind!r}")


def spec_from_dict(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a parsed config document.

    Schema (YAML): see configs/tridiagonal_gamma.yaml for a complete example.
    """
    _block("config", doc, "scenario", "estimators", "replications")
    sc = _block("scenario", doc["scenario"], "covariance", "n")
    cov_doc = _block("covariance", sc["covariance"], "kind")
    # a bare "noise:" key, like an absent one, is no noise
    noise_doc = _block("noise", sc.get("noise") or {"kind": "none"})
    # only a bare "cv:" key is an empty block: every CV default
    c = _block("cv", {} if doc.get("cv") is None else doc["cv"])
    # numbers are checked here, not coerced: int("20") would pass silently
    _check_numbers("scenario", sc, whole=("n", "seed"))
    _check_numbers("covariance", cov_doc, whole=("p", "block_sizes", "seed"))
    _check_numbers("noise", noise_doc, real=("theta", "rho", "beta", "sigma"))
    _check_numbers("config", doc, whole=("replications",))
    _check_numbers("cv", c, real=("tau_grid",), whole=("num_splits", "seed"))
    _check_range("scenario", sc, n=_at_least(1), seed=_at_least(0))
    _check_range("covariance", cov_doc, p=_at_least(1),
                 block_sizes=_at_least(0), seed=_at_least(0))
    _check_range("config", doc, replications=_at_least(1))
    _check_range("cv", c, num_splits=_at_least(1), seed=_at_least(0))
    cov = _cov_from_dict(cov_doc)
    noise = _noise_from_dict(noise_doc, cov.p)
    scenario = Scenario(cov=cov, noise=noise, n=int(sc["n"]),
                        seed=int(sc.get("seed", 0)))
    estimators = []
    for i, e in enumerate(doc["estimators"] or []):
        e = dict(_block(f"estimator {i}", e, "tag"))
        tag = e.pop("tag")
        estimators.append((tag, e))
    cv = None
    if "cv" in doc:
        grid = c.get("tau_grid")
        if grid is None:
            grid = shrinkage.DEFAULT_TAU_GRID
        cv = CvConfig(num_splits=int(c.get("num_splits", 100)),
                      tau_grid=grid, seed=int(c.get("seed", 0)))
    return ExperimentSpec(
        scenario=scenario,
        estimators=estimators,
        replications=int(doc["replications"]),
        cv=cv,
        cv_rule=c.get("rule", "sps"),
        output=doc.get("output"),
    )


class _SpecLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """YAML 1.1 reads a float without a dot, such as 1e-4, as a string;
    this loader reads it as a float. Quoted scalars stay strings. It parses
    with libyaml when PyYAML was built with it, about ten times faster than
    the pure-Python parser on the committed configs, and resolves and
    builds the values in Python either way."""


_SpecLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        doc = yaml.load(fh, Loader=_SpecLoader)
    return spec_from_dict(doc)
