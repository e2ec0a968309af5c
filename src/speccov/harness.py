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
from collections import namedtuple
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

# The config schema (SCHEMA, below) maps every key that a block allows to a
# _Key: the kind of its value (NUMBER, WHOLE, NUMBERS or WHOLES, LIST for a
# list of anything, a tuple of the allowed names, or None for a value that a
# constructor checks), the range of a number or of each entry of a list,
# whether the block must set it, and its default where no constructor holds
# one. _check walks a block against its table; _given passes on only the
# keys that a block sets and the table's defaults, so other defaults stay
# with their constructors.
NUMBER, WHOLE = "number", "whole number"
NUMBERS, WHOLES = "list of numbers", "list of whole numbers"
LIST = "list"
_Key = namedtuple("_Key", "kind range required default",
                  defaults=(None, None, False, None))


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _above(low):
    return (lambda v: v > low), f"> {low}"


def _block(block, d, *keys):
    """Return ``d`` after raising ValueError naming ``block`` when it is not
    a mapping or lacks a key of ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{block}: must be a mapping, got {d!r}")
    for key in keys:
        if key not in d:
            raise ValueError(f"{block}: missing key {key!r}")
    return d


def _check(block, d, table):
    """Return ``d`` after raising ValueError naming ``block`` and the key
    when ``d`` is not a mapping, sets a key that ``table`` does not list,
    lacks a required one, or holds a value not of its key's kind (checked,
    not coerced: int("20") would pass silently) or out of its range."""
    for key in _block(block, d):
        if key not in table:
            raise ValueError(f"{block}: unknown key {key!r}; allowed keys: "
                             f"{', '.join(table) or 'none'}")
    for key, k in table.items():
        if key not in d:
            if k.required:
                raise ValueError(f"{block}: missing key {key!r}")
            continue
        v = d[key]
        if isinstance(k.kind, tuple) and not (isinstance(v, str)
                                              and v in k.kind):
            raise ValueError(f"{block}: {key} must be one of "
                             f"{', '.join(k.kind)}, got {v!r}")
        if k.kind == LIST and not isinstance(v, list):
            raise ValueError(f"{block}: {key} must be a list, got {v!r}")
        if k.kind not in (NUMBER, WHOLE, NUMBERS, WHOLES):
            continue
        many, whole = k.kind in (NUMBERS, WHOLES), k.kind in (WHOLE, WHOLES)
        vals = v if many else (v,)
        if (many and not isinstance(v, (list, tuple, np.ndarray))
                or not all(not isinstance(x, bool)
                           and isinstance(x, numbers.Real) and math.isfinite(x)
                           and not (whole and x != int(x)) for x in vals)):
            raise ValueError(f"{block}: {key} must be a {k.kind}, got {v!r}")
        if k.range and not all(map(k.range[0], vals)):
            raise ValueError(f"{block}: {key} must be {k.range[1]}"
                             f"{' each' if many else ''}, got {v!r}")
    return d


def _given(d, table, **params):
    """The keyword arguments that block ``d`` gives a constructor: each key
    of ``table`` that ``d`` sets to a value other than None, else its
    default where the table holds one, a whole number as an int and a
    number as a float, named by the parameter that ``params`` maps to the
    key or else by the key."""
    names = {key: param for param, key in params.items()}
    out = {}
    for key, k in table.items():
        v = k.default if d.get(key) is None else d[key]
        if v is not None:
            out[names.get(key, key)] = (int(v) if k.kind == WHOLE else
                                        float(v) if k.kind == NUMBER else v)
    return out


_SEED = {"seed": _Key(WHOLE, _at_least(0))}
_U = {"U": _Key(NUMBER, _above(0), default=1.0)}
_TAU = {"tau": _Key(NUMBER, _at_least(0))}
_PD_SOLVER = {  # PdSoftConfig's keys besides tau
    "lambda": _Key(NUMBER, _above(0)), "rho_admm": _Key(NUMBER, _above(0)),
    "tol": _Key(NUMBER, _above(0)), "max_iter": _Key(WHOLE, _at_least(1))}
# the theory constants of the admissibility check: R bounds the largest
# entry of Sigma, (T, beta) the noise class, gamma the concentration
_THEORY = {
    "R": _Key(NUMBER, _above(0)), "T": _Key(NUMBER, _above(0)),
    "beta": _Key(NUMBER, ((lambda v: 0 <= v < 2), "in [0, 2)")),
    "gamma": _Key(NUMBER, ((lambda v: v > spectral.SQRT2), "> sqrt(2)"))}
_GENERATORS = ("gaussian", "stable")
_ALPHA = {"alpha": _Key(NUMBER, ((lambda v: 0 < v <= 2), "in (0, 2]"),
                        default=1.0)}
_LOWRANK = {  # LowRankConfig's keys; its annulus radius is at least 1
    "U": _U["U"]._replace(range=_at_least(1)),
    "lambda": _PD_SOLVER["lambda"]._replace(default=1e-4),
    "mc_samples": _Key(WHOLE, _at_least(1))}
_P = {"p": _Key(WHOLE, _at_least(1), required=True)}
_SAMPLE = {"n": _Key(WHOLE, _at_least(1), required=True), **_SEED}

# Each block's table; the covariance and noise tables by kind, the tuning
# tables by estimator tag. A tuning's ranges are those of the constructor
# that takes it, so that a value out of range fails when the config is
# parsed instead of in every record.
SCHEMA = {
    "config": {"scenario": _Key(required=True),
               "estimators": _Key(LIST, required=True),
               "replications": _Key(WHOLE, _at_least(1), required=True),
               "cv": _Key(), "output": _Key()},
    "scenario": {"covariance": _Key(required=True), "noise": _Key(),
                 **_SAMPLE},
    "covariance": {
        "tridiagonal": _P,
        "block_diagonal": {
            **_P, "block_sizes": _Key(WHOLES, _at_least(0), required=True),
            **_SEED},
        "explicit": {"matrix": _Key(required=True)}},
    "noise": {
        "none": {},
        "gamma_elliptical": {"theta": _Key(NUMBER, required=True),
                             "A": _Key(default="identity")},
        "gaussian": {"rho": _Key(NUMBER, required=True)},
        "stable": {"beta": _Key(NUMBER, required=True),
                   "sigma": _Key(NUMBER, required=True), "norm": _Key()}},
    "cv": {"num_splits": _Key(WHOLE, _at_least(1), default=100),
           "tau_grid": _Key(NUMBERS, default=shrinkage.DEFAULT_TAU_GRID),
           **_SEED, "rule": _Key()},
    "estimator": {
        "cov": {},
        "pds": {**_TAU, **_PD_SOLVER},
        "sps": {**_TAU, **_PD_SOLVER, **_U, **_THEORY},
        "soft": {**_TAU, **_U, **_THEORY},
        "hard": {**_TAU, **_U, **_THEORY},
        "elliptical": {**_U, "generator": _Key(_GENERATORS),
                       **_ALPHA, **_THEORY},
        "lowrank": {**_LOWRANK, **_SEED}},
}


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
            _check(f"estimator {tag!r}", {
                k: v for k, v in tuning.items()
                if not (k == "tau" and v is None)}, SCHEMA["estimator"][tag])
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


# The estimators read a tuning through _given, so that they take the
# defaults of SCHEMA and of their constructors, as a config does.
def _elliptical(Y, tuning):
    gen_kind = tuning.get("generator", "gaussian")
    if gen_kind not in _GENERATORS:
        raise ValueError(f"unknown elliptical generator {gen_kind!r}")
    gen = (spectral.stable_generator(**_given(tuning, _ALPHA))
           if gen_kind == "stable" else spectral.gaussian_generator())
    return spectral.spectral_estimate(Y, **_given(tuning, _U), gen=gen)


def _spectral(Y, tuning):
    return spectral.spectral_estimate(Y, **_given(tuning, _U))


def _lowrank(Y, tuning):
    cfg = lowrank.LowRankConfig(**_given(tuning, _LOWRANK,
                                         lambda_nuc="lambda"))
    w = lowrank.bump_weight(Y.shape[1])
    return lowrank.lowrank_estimate(Y, cfg, w, **_given(tuning, _SEED))


def _pd_soft(bases, tuning, taus):
    solver = _given(tuning, _PD_SOLVER, lambda_barrier="lambda")
    return shrinkage.pd_soft_threshold(
        bases, [PdSoftConfig(tau, **solver) for tau in taus])


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
    "elliptical": _elliptical,
}


def cv_fit(tag, tuning):
    """The ``fit(train, taus)`` callable of cross_validate_tau for one tag:
    the rule at every tau, applied to one base estimate of ``train``."""
    def fit(train, taus):
        base = _BASES[tag](train, tuning)
        return _RULES[tag]([base] * len(taus), tuning, taus)
    return fit


def _admissible_flag(tuning, n, p):
    if not all(k in tuning for k in ("U", "R", "T", "beta")):
        return None
    cfg = spectral.SpectralConfig(**_given(tuning, {**_U, **_THEORY}))
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
        # the radius of the first estimator with a spectral base
        U_cv = _given(next((t for tag, t in spec.estimators
                            if _BASES.get(tag) is _spectral), {}), _U)["U"]
        rule_tuning = next((t for tag, t in spec.estimators
                            if tag == spec.cv_rule), {})
        fit = cv_fit(spec.cv_rule, {**rule_tuning, "U": U_cv})
        try:
            tau_cv, _ = shrinkage.cross_validate_tau(cv_sample, U_cv, spec.cv, fit)
        except Exception as exc:  # fails the tuned records only, below
            cv_error = f"cross-validation failed: {type(exc).__name__}: {exc}"
    tunings = [{**tuning, "tau": tau_cv}
               if spec.cv is not None and tag in THRESHOLD_TAGS
               else dict(tuning) for tag, tuning in spec.estimators]
    flags = [_admissible_flag(tuning, n, p) for tuning in tunings]
    records = []
    for first in range(0, spec.replications, _BLOCK):
        block = _run_block(
            spec, range(first, min(first + _BLOCK, spec.replications)),
            tunings, truth, cv_error)
        records += [ResultRecord(rep, spec.estimators[i][0], frob, wall,
                                 dict(tunings[i]), flags[i], err_msg)
                    for (rep, i), (frob, wall, err_msg) in sorted(block.items())]
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
    out, by_tag = {}, {}
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
        tuning = [r.tuning_used.get(key) for key in ("tau", "U", "lambda")]
        writer.writerow([r.replication, r.estimator] + [_fmt(x) for x in (
            r.frob_error, r.wall_time, *tuning, r.admissible_flag, r.error)])
    return buf.getvalue()


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))


def summary_to_json(summary) -> str:
    return json.dumps(
        {tag: vars(s) for tag, s in sorted(summary.items())}, indent=2,
        sort_keys=True,
    )


def _kind(block, d):
    """(kind, the keyword arguments that block ``d`` gives its constructor)
    after the table of its kind in SCHEMA checks ``d``. Each covariance and
    noise kind is named after its CovModel or NoiseModel constructor."""
    kind = _block(block, d, "kind")["kind"]
    table = SCHEMA[block].get(kind) if isinstance(kind, str) else None
    if table is None:
        raise ValueError(f"unknown {block} kind {kind!r}")
    _check(block, d, {"kind": _Key(), **table})
    return kind, _given(d, table)


def _cov_from_dict(d):
    kind, args = _kind("covariance", d)
    if kind != "explicit":
        return getattr(CovModel, kind)(**args)
    try:
        return CovModel.explicit(**args)
    except ValueError as exc:
        raise ValueError(f"covariance: matrix {exc}") from None


def _noise_from_dict(d, p):
    kind, args = _kind("noise", d)
    if isinstance(args.get("A"), str) and args["A"] == "identity":
        args["A"] = np.eye(p)
    return getattr(NoiseModel, kind)(**args)


def spec_from_dict(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a parsed config document, each block
    checked against its table in SCHEMA.

    Schema (YAML): see configs/tridiagonal_gamma.yaml for a complete example.
    """
    _check("config", doc, SCHEMA["config"])
    sc = _check("scenario", doc["scenario"], SCHEMA["scenario"])
    cov = _cov_from_dict(sc["covariance"])
    # a bare "noise:" key, like an absent one, is no noise
    noise = _noise_from_dict(sc.get("noise") or {"kind": "none"}, cov.p)
    estimators = []
    for i, e in enumerate(doc["estimators"]):
        e = dict(_block(f"estimator {i}", e, "tag"))
        estimators.append((e.pop("tag"), e))
    cv, rule = None, {}
    if "cv" in doc:
        # only a bare "cv:" key is an empty block: every CV default
        args = _given(_check("cv", {} if doc["cv"] is None else doc["cv"],
                             SCHEMA["cv"]), SCHEMA["cv"])
        rule = {"cv_rule": args.pop("rule")} if "rule" in args else {}
        cv = CvConfig(**args)
    return ExperimentSpec(Scenario(cov, noise, **_given(sc, _SAMPLE)),
                          estimators, int(doc["replications"]), cv,
                          output=doc.get("output"), **rule)


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
