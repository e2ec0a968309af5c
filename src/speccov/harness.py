"""Experiment runner: replication loops, baselines, CSV/JSON emission.

An experiment is a scenario (covariance model, noise model, n, seed) plus a
list of estimators with their tuning. Each replication draws a fresh sample
with a seed derived from (seed, replication index), runs every estimator,
and records the Frobenius error against the true covariance. Identical
specs produce byte-identical CSV output except for the measured
``wall_time_s`` column, and for p above 256 only at a fixed BLAS thread
count: a multi-threaded OpenBLAS rounds the sample's product with
Sigma^(1/2) differently for each thread count.
"""

import csv
import io
import json
import math
import re
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np
import yaml

from . import lowrank, shrinkage, simgen, spectral
from ._checks import (LIST, MATRIX, _COUNT, _Key, _block, _check, _fields,
                      _given)
from .shrinkage import CvConfig, PdSoftConfig
from .simgen import CovModel, NoiseModel, Scenario

__all__ = [
    "ExperimentSpec",
    "ResultRecord",
    "SummaryStats",
    "estimate",
    "run_experiment",
    "summarize",
    "records_to_csv",
    "write_csv",
    "load_spec",
    "spec_from_dict",
]

# The fragments of SCHEMA (below): a number's _Key is the one that the
# module taking its value keeps, with a config's default or requirement.
_U = {"U": spectral._RANGES["U"]._replace(default=1.0)}
_TAU = {"tau": shrinkage._RANGES["tau"]}
_PD_SOLVER = {  # PdSoftConfig's keys besides tau and the start penalty
    "lambda": shrinkage._RANGES["lambda_barrier"],
    "tol": shrinkage._RANGES["tol"], "max_iter": shrinkage._RANGES["max_iter"]}
# the theory constants of the admissibility check
_THEORY = {key: spectral._RANGES[key] for key in ("R", "T", "beta", "gamma")}
_ALPHA = {"alpha": spectral._RANGES["alpha"]._replace(default=1.0)}
_LOWRANK = {  # LowRankConfig's keys
    "U": lowrank._RANGES["U"]._replace(default=1.0),
    "lambda": lowrank._RANGES["lambda_nuc"]._replace(default=1e-4),
    "mc_samples": lowrank._RANGES["mc_samples"]}
# simgen's _Keys, each required: the scenario values that a block must set
_NEEDS = {key: k._replace(required=True) for key, k in simgen._RANGES.items()}
_P = {"p": _NEEDS["p"]}
_SEED = {"seed": simgen._RANGES["seed"]}
_SAMPLE = {"n": _NEEDS["n"], **_SEED}

# An estimator is a base, fn(Y, tuning) -> CovEstimate for an (n, p) array
# Y, and maybe a rule, fn(bases, tuning, taus) -> each base's estimate at its
# tau: CV hands a rule one base at every tau of its grid, and run_experiment
# a block of replications' bases at one tau, which PD-soft solves as stacks.
# Both read a tuning through _given, so that they take the defaults of
# SCHEMA and of their constructors as a config does, and call package
# functions through their modules, so that a rebound module attribute
# (perfbench's tracer, a test's monkeypatch) takes effect.
def _sample_covariance(Y, tuning):
    return shrinkage.sample_covariance(Y)


def _spectral(Y, tuning):
    # every caller has checked the generator against the schema
    gen = (spectral.stable_generator(**_given(tuning, _ALPHA))
           if tuning.get("generator") == "stable"
           else spectral.gaussian_generator())
    return spectral.spectral_estimate(Y, **_given(tuning, _U), gen=gen)


def _lowrank(Y, tuning):
    cfg = lowrank.LowRankConfig(**_given(tuning, _LOWRANK,
                                         lambda_nuc="lambda"))
    w = lowrank.bump_weight(Y.shape[1])
    return lowrank.lowrank_estimate(Y, cfg, w, **_given(tuning, _SEED))


def _pd_soft(bases, tuning, taus):
    solver = _given(tuning, _PD_SOLVER, lambda_barrier="lambda")
    return shrinkage.pd_soft_threshold(
        bases, [PdSoftConfig(tau, **solver) for tau in taus])


def _soft(bases, tuning, taus):
    return list(map(shrinkage.soft_threshold, bases, taus))


def _hard(bases, tuning, taus):
    return list(map(shrinkage.hard_threshold, bases, taus))


# tag -> its base and its rule, or None for an estimator that takes no tau.
# The tags with a rule take tau, which a cv: block may select by one of them.
_Estimator = namedtuple("_Estimator", "base rule")
ESTIMATORS = {
    "cov": _Estimator(_sample_covariance, None),
    "sps": _Estimator(_spectral, _pd_soft),
    "soft": _Estimator(_spectral, _soft),
    "hard": _Estimator(_spectral, _hard),
    "pds": _Estimator(_sample_covariance, _pd_soft),
    "lowrank": _Estimator(_lowrank, None),
    "elliptical": _Estimator(_spectral, None),
}
THRESHOLD_TAGS = tuple(tag for tag, e in ESTIMATORS.items() if e.rule)


# Each block's table of _Keys (see _checks); the covariance and noise tables
# by kind, the tuning tables by estimator tag. A value out of range fails
# when the config is parsed instead of in every record.
SCHEMA = {
    "config": {"scenario": _Key(required=True),
               "estimators": _Key(LIST, required=True),
               "replications": _COUNT._replace(required=True),
               "cv": _Key(), "output": _Key()},
    "scenario": {"covariance": _Key(required=True), "noise": _Key(),
                 **_SAMPLE},
    "covariance": {
        "tridiagonal": _P,
        "block_diagonal": {
            **_P, "block_sizes": _NEEDS["block_sizes"], **_SEED},
        "explicit": {"matrix": _Key(required=True)}},
    "noise": {
        "none": {},
        "gamma_elliptical": {"theta": _NEEDS["theta"],
                             "A": _Key(MATRIX, default="identity")},
        "gaussian": {"rho": _NEEDS["rho"]},
        "stable": {"beta": _NEEDS["beta"], "sigma": _NEEDS["sigma"],
                   "norm": simgen._RANGES["norm"]}},
    "cv": {"num_splits": shrinkage._RANGES["num_splits"]._replace(default=100),
           "tau_grid": shrinkage._RANGES["tau_grid"]._replace(
               default=shrinkage.DEFAULT_TAU_GRID),
           **_SEED, "rule": _Key(THRESHOLD_TAGS, default="sps")},
    "estimator": {
        "cov": {},
        "pds": {**_TAU, **_PD_SOLVER},
        "sps": {**_TAU, **_PD_SOLVER, **_U, **_THEORY},
        "soft": {**_TAU, **_U, **_THEORY},
        "hard": {**_TAU, **_U, **_THEORY},
        "elliptical": {**_U, "generator": _Key(("gaussian", "stable")),
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
    cv_rule: str = SCHEMA["cv"]["rule"].default
    output: Optional[str] = None

    def __post_init__(self):
        _fields(self, {"replications": _COUNT})
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        for tag, tuning in self.estimators:
            # a None tau is left to be chosen by cross-validation
            _check_tuning(tag, {k: v for k, v in tuning.items()
                                if not (k == "tau" and v is None)})
            if (tag in THRESHOLD_TAGS and self.cv is None
                    and tuning.get("tau") is None):
                raise ValueError(f"estimator {tag!r} needs a tau or a cv: block")
        if self.cv is not None:
            _check("cv", {"rule": self.cv_rule}, SCHEMA["cv"])


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


def _check_tuning(tag, tuning, needs_tau=False):
    """Raise ValueError naming the tag, and the key, when ``tag`` is not in
    ESTIMATORS or ``tuning`` fails its table in SCHEMA; with ``needs_tau``,
    a tag with a rule must set tau."""
    if tag not in ESTIMATORS:
        raise ValueError(f"unknown estimator tag {tag!r}")
    table = SCHEMA["estimator"][tag]
    if needs_tau and ESTIMATORS[tag].rule:
        table = {**table, "tau": table["tau"]._replace(required=True)}
    _check(f"estimator {tag!r}", tuning, table)


def estimate(tag, Y, tuning):
    """The estimate of ``tag`` on the (n, p) array ``Y``: its base estimate,
    with its rule applied at the tuning's tau when it has one. The tuning
    is checked as a config's estimator block is, and must set tau for a
    tag with a rule."""
    _check_tuning(tag, tuning, needs_tau=True)
    base, rule = ESTIMATORS[tag]
    est = base(Y, tuning)
    return est if rule is None else rule([est], tuning, [tuning["tau"]])[0]


def cv_fit(tag, tuning):
    """The ``fit(train, taus)`` of cross_validate_tau for a tag with a
    rule: the rule at every tau, applied to one base estimate of train.
    The tuning is checked as a config's estimator block is."""
    _check_tuning(tag, tuning)
    base, rule = ESTIMATORS[tag]
    if rule is None:
        raise ValueError(f"estimator {tag!r} takes no tau, so cross-"
                         f"validation has no rule of it to tune")
    return lambda train, taus: rule([base(train, tuning)] * len(taus),
                                    tuning, taus)


def _admissible_flag(tuning, n, p):
    if not all(k in tuning for k in ("U", "R", "T", "beta")):
        return None
    cfg = spectral.SpectralConfig(**_given(tuning, {**_U, **_THEORY}))
    return spectral.admissible(cfg, n, p)


# The replications that run_experiment samples and estimates together. An
# estimator that takes tau hands its rule a block's bases in one call, which
# PD-soft solves as stacks of _STACK // p**2 problems (8 at p=20, so one
# stack there), so a run holds at most _BLOCK bases per estimator however
# many replications it has.
_BLOCK = 8


def _sample(scenario, k):
    """The sample of ``scenario`` at [seed, k], or [*seed, k] for a list seed."""
    seed = scenario.seed if isinstance(scenario.seed, list) else [scenario.seed]
    return simgen.sample_scenario(replace(scenario, seed=[*seed, k]))


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
        cv_sample = _sample(spec.scenario, spec.replications)
        # the radius of the first estimator with a spectral base and a rule
        U_cv = _given(next((t for tag, t in spec.estimators
                            if ESTIMATORS[tag].base is _spectral
                            and tag in THRESHOLD_TAGS), {}), _U)["U"]
        # the rule's own tuning and U_cv, of the keys that its tag takes;
        # CV selects tau
        rule_tuning = next((t for tag, t in spec.estimators
                            if tag == spec.cv_rule), {})
        table = SCHEMA["estimator"][spec.cv_rule]
        fit = cv_fit(spec.cv_rule, {
            k: v for k, v in {**rule_tuning, "U": U_cv}.items()
            if k in table and k != "tau"})
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
        data = _sample(spec.scenario, rep)
        for i, (tag, _) in enumerate(spec.estimators):
            base, rule = ESTIMATORS[tag]
            if rule and cv_error is not None:
                out[rep, i] = (math.nan, 0.0, cv_error)
                continue
            t0 = time.perf_counter()
            est, err_msg = _attempt(base, data, tunings[i])
            if est is not None and rule:
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
    tau, rule = tuning.get("tau"), ESTIMATORS[tag].rule
    try:
        ests = [(est, None) for est in rule(bases, tuning, [tau] * len(bases))]
    except Exception:
        ests = [_attempt(lambda b: rule([b], tuning, [tau])[0], base)
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


def _build(block, make, **args):
    """make(**args), a ValueError that it raises prefixed by ``block``."""
    try:
        return make(**args)
    except ValueError as exc:
        raise ValueError(f"{block}: {exc}") from None


def _model(block, d, models, p=None):
    """The constructor of ``models`` (CovModel or NoiseModel) that the kind
    of block ``d`` names, called by _build on the arguments that ``d`` gives
    once its kind's table checks it; ``A: identity`` is the p x p one."""
    kind = _block(block, d, "kind")["kind"]
    table = SCHEMA[block].get(kind) if isinstance(kind, str) else None
    if table is None:
        raise ValueError(f"unknown {block} kind {kind!r}")
    args = _given(_check(block, d, {"kind": _Key(), **table}), table)
    if isinstance(args.get("A"), str) and args["A"] == "identity":
        args["A"] = np.eye(p)
    return _build(block, getattr(models, kind), **args)


def _cv_from_dict(d):
    """(CvConfig, rule) of the cv block ``d``, checked against SCHEMA."""
    args = _given(_check("cv", d, SCHEMA["cv"]), SCHEMA["cv"])
    rule = args.pop("rule")
    return _build("cv", CvConfig, **args), rule


def spec_from_dict(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a parsed config document, each block
    checked against its table in SCHEMA.

    Schema (YAML): see configs/tridiagonal_gamma.yaml for a complete example.
    """
    _check("config", doc, SCHEMA["config"])
    sc = _check("scenario", doc["scenario"], SCHEMA["scenario"])
    cov = _model("covariance", sc["covariance"], CovModel)
    # a bare "noise:" key, like an absent one, is no noise
    noise = _model("noise", sc.get("noise") or {"kind": "none"}, NoiseModel,
                   cov.p)
    estimators = []
    for i, e in enumerate(doc["estimators"]):
        e = dict(_block(f"estimator {i}", e, "tag"))
        estimators.append((e.pop("tag"), e))
    # only a bare "cv:" key is an empty block: every CV default
    cv, rule = (None, SCHEMA["cv"]["rule"].default) if "cv" not in doc \
        else _cv_from_dict({} if doc["cv"] is None else doc["cv"])
    return ExperimentSpec(
        _build("scenario", Scenario, cov=cov, noise=noise,
               **_given(sc, _SAMPLE)),
        estimators, doc["replications"], cv, rule, doc.get("output"))


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
