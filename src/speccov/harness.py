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
        rho_admm=float(tuning.get("rho_admm", 1.0)),
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


def _pd_soft(base, tuning, start=None):
    return shrinkage.pd_soft_threshold(base, _pd_config(tuning), start)


# The estimators that take tau, each a base estimate of Y followed by a rule
# applied to it; a cv: block selects tau and its rule is one of them. CV
# computes the base once per split and runs the rule along the tau grid.
# base: fn(Y, tuning) -> CovEstimate. rule: fn(base, tuning, start) ->
# CovEstimate, where start is the estimate at the previous tau of a path
# (a warm start for PD-soft, ignored by hard and soft).
_BASES = {
    "sps": _spectral,
    "soft": _spectral,
    "hard": _spectral,
    "pds": lambda Y, t: shrinkage.sample_covariance(Y),
}
_RULES = {
    "sps": _pd_soft,
    "soft": lambda base, t, start=None: shrinkage.soft_threshold(base, t.get("tau")),
    "hard": lambda base, t, start=None: shrinkage.hard_threshold(base, t.get("tau")),
    "pds": _pd_soft,
}
THRESHOLD_TAGS = tuple(_RULES)


def _thresholded(tag):
    return lambda Y, t: _RULES[tag](_BASES[tag](Y, t), t)


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
    """The ``fit(train, taus)`` callable of cross_validate_tau for one tag.

    It computes the base estimate of ``train`` once and applies the rule at
    each tau in order, warm-starting each from the estimate at the one
    before.
    """
    def fit(train, taus):
        base = _BASES[tag](train, tuning)
        ests = []
        for tau in taus:
            ests.append(_RULES[tag](base, {**tuning, "tau": tau},
                                    ests[-1] if ests else None))
        return ests
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


def run_experiment(spec: ExperimentSpec) -> List[ResultRecord]:
    """Run all replications; estimator failures are recorded, not raised."""
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
                     if tag in ("sps", "hard", "soft")), 1.0)
        rule_tuning = next((t for tag, t in spec.estimators
                            if tag == spec.cv_rule), {})
        fit = cv_fit(spec.cv_rule, {**rule_tuning, "U": U_cv})
        try:
            tau_cv, _ = shrinkage.cross_validate_tau(cv_sample, U_cv, spec.cv, fit)
        except Exception as exc:  # fails the tuned records only, below
            cv_error = f"cross-validation failed: {type(exc).__name__}: {exc}"
    records = []
    for rep in range(spec.replications):
        sample = simgen.sample_scenario(
            Scenario(cov=spec.scenario.cov, noise=spec.scenario.noise,
                     n=n, seed=_rep_seed(spec.scenario.seed, rep)))
        for tag, tuning in spec.estimators:
            tuning = dict(tuning)
            tuned = spec.cv is not None and tag in THRESHOLD_TAGS
            if tuned:
                tuning["tau"] = tau_cv
            t0 = time.perf_counter()
            if tuned and cv_error is not None:
                frob, err_msg = math.nan, cv_error
            else:
                frob, err_msg = _run_estimator(tag, sample.data, tuning, truth)
            wall = time.perf_counter() - t0
            records.append(ResultRecord(
                replication=rep,
                estimator=tag,
                frob_error=frob,
                wall_time=wall,
                tuning_used=tuning,
                admissible_flag=_admissible_flag(tuning, n, p),
                error=err_msg,
            ))
    records.sort(key=lambda r: (r.replication, r.estimator))
    return records


def _run_estimator(tag, data, tuning, truth):
    """(frob_error, error text or None) of one estimator on one sample."""
    try:
        est = ESTIMATORS[tag](data, tuning)
        return simgen.frobenius_error(est, truth), None
    except Exception as exc:  # isolate failures per record
        return math.nan, f"{type(exc).__name__}: {exc}"


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
        A = d.get("A", "identity")
        A = np.eye(p) if (isinstance(A, str) and A == "identity") else np.asarray(A, float)
        return NoiseModel.gamma_elliptical(A, d["theta"])
    if kind == "gaussian":
        return NoiseModel.gaussian(d["rho"])
    if kind == "stable":
        return NoiseModel.stable(d["beta"], d["sigma"], d.get("norm", "lbeta"))
    raise ValueError(f"unknown noise kind {kind!r}")


def _cov_from_dict(d):
    kind = d["kind"]
    if kind == "tridiagonal":
        return CovModel.tridiagonal(int(d["p"]))
    if kind == "block_diagonal":
        return CovModel.block_diagonal(int(d["p"]), d["block_sizes"],
                                       int(d.get("seed", 0)))
    if kind == "explicit":
        return CovModel.explicit(d["matrix"])
    raise ValueError(f"unknown covariance kind {kind!r}")


def spec_from_dict(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a parsed config document.

    Schema (YAML): see configs/tridiagonal_gamma.yaml for a complete example.
    """
    sc = doc["scenario"]
    cov = _cov_from_dict(sc["covariance"])
    noise = _noise_from_dict(sc.get("noise", {"kind": "none"}), cov.p)
    scenario = Scenario(cov=cov, noise=noise, n=int(sc["n"]),
                        seed=int(sc.get("seed", 0)))
    estimators = []
    for e in doc["estimators"]:
        e = dict(e)
        tag = e.pop("tag")
        estimators.append((tag, e))
    # a bare "cv:" key is an empty block: every CV default
    c = doc.get("cv") or {}
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


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return spec_from_dict(doc)
