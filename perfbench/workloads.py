"""The four benchmark workloads and their correctness gates.

Every input is generated from the workload seed: ``derive(seed, i)`` gives
call ``i`` its own scenario seed, so the same seed gives the same inputs
and a held-out seed gives new ones. A workload drives speccov only through
its public entry points (``cli.main`` and package functions), looked up on
the module at call time so that a traced run can rebind them.

Reference values in the gates were measured on the seed code of this
benchmark (see README.md); a gate fails when the output breaks a property
the estimator guarantees or drifts past the band given here.
"""

import contextlib
import copy
import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import yaml

from speccov import cli, lowrank, shrinkage, simgen, spectral
from speccov.simgen import CovModel, NoiseModel, Scenario


def derive(seed, *keys):
    """A 32-bit scenario seed from the workload seed and call keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one timed call produced, parsed outside the timed region."""

    items: int
    failed: int
    record: object = None
    error: str = None


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_error(rc, stderr):
    """Failure text of a nonzero exit; an exit without ``ERROR {json}`` is a
    broken CLI contract, not a failed item, and raises."""
    for line in stderr.splitlines():
        if line.startswith("ERROR "):
            info = json.loads(line[len("ERROR "):])
            return f"{info['type']}: {info['message']}"
    raise RuntimeError(f"cli exited {rc} without an ERROR line: {stderr!r}")


class Workload:
    name = ""
    trace_calls = 1     # timed calls of a traced run: counts must repeat
    dominant = ""       # predicted largest self time in the traced run
    expected = ()       # layers the traced run must see
    # set-up timings reported by the traced run, per_layer names
    setup_metrics = {"lowrank.bump_weight.s": 0.0}

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def setup(self, rep):
        """Generate the shared inputs; ``rep`` numbers repeated set-ups."""

    def prepare(self, i):
        """Per-call input, built outside the timed region."""
        raise NotImplementedError

    def call(self, arg):
        """The timed call into speccov."""
        raise NotImplementedError

    def collect(self, arg, raw):
        """Parse a call's result into an Outcome; no speccov calls here."""
        raise NotImplementedError

    def verify(self, outcomes):
        """Headline Frobenius errors and gate violations of the run."""
        raise NotImplementedError


def _tridiagonal_gamma(p):
    return CovModel.tridiagonal(p), NoiseModel.gamma_elliptical(np.eye(p), 1.0)


class Simulate(Workload):
    name = "simulate"
    trace_calls = 25
    dominant = "shrinkage.pd_soft_threshold"
    expected = ("cli.main", "harness.run_experiment", "harness.write_csv",
                "simgen.sample_scenario", "spectral.spectral_estimate",
                "charfreq.probe_log_moduli", "kernels.probe_cf",
                "shrinkage.pd_soft_threshold", "shrinkage.admm")
    replications = 4
    # seed-code medians of frob_error, 100 replications of the config
    reference = {"sps": 4.19, "pds": 5.07, "cov": 7.77}
    band = 0.15

    def setup(self, rep):
        with open(self.root / "configs" / "tridiagonal_gamma.yaml") as fh:
            self.doc = yaml.safe_load(fh)
        self.doc.pop("output", None)
        self.doc["replications"] = self.replications

    def prepare(self, i):
        doc = copy.deepcopy(self.doc)
        doc["scenario"]["seed"] = derive(self.seed, 1, i)
        cfg = self.workdir / "simulate.yaml"
        with open(cfg, "w") as fh:
            yaml.safe_dump(doc, fh)
        return ["simulate", "--config", str(cfg),
                "--output", str(self.workdir / "records.csv"),
                "--summary", str(self.workdir / "summary.json")]

    def call(self, argv):
        return _run_cli(argv)

    def collect(self, argv, raw):
        rc, _, err = raw
        if rc != 0:
            return Outcome(self.replications, self.replications,
                           error=_cli_error(rc, err))
        with open(self.workdir / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        errors, failed_reps = {}, set()
        for row in rows:
            frob = float(row["frob_error"]) if row["frob_error"] else math.nan
            if math.isnan(frob):
                failed_reps.add(row["replication"])
            else:
                errors.setdefault(row["estimator"], []).append(frob)
        reps = {row["replication"] for row in rows}
        if len(reps) != self.replications:
            raise RuntimeError(f"expected {self.replications} replications, "
                               f"CSV has {len(reps)}")
        return Outcome(self.replications, len(failed_reps), record=errors)

    def verify(self, outcomes):
        pooled = {}
        for o in outcomes:
            for tag, vals in (o.record or {}).items():
                pooled.setdefault(tag, []).extend(vals)
        med = {tag: _median(v) for tag, v in pooled.items()}
        bad = []
        if not (med.get("sps", math.inf) < med.get("pds", math.inf)
                < med.get("cov", math.inf)):
            bad.append(f"median frob_error order sps < pds < cov broken: {med}")
        bad += _band_violations(med, self.reference, self.band)
        return pooled.get("sps", []), bad


class Cv(Workload):
    name = "cv"
    trace_calls = 25
    dominant = "shrinkage.pd_soft_threshold"
    expected = ("cli.main", "shrinkage.cross_validate_tau",
                "spectral.spectral_estimate", "charfreq.probe_log_moduli",
                "kernels.probe_cf", "shrinkage.pd_soft_threshold",
                "shrinkage.admm")
    n, p, splits = 50, 20, 2
    # The CLI's default grid reaches tau = 2, where ADMM at the default
    # rho = 1 fails to converge on every sample (README.md); this grid stops
    # below that so no call fails on the seed code.
    grid = np.geomspace(1e-3, 0.3, 40).tolist()

    def setup(self, rep):
        self.cov, self.noise = _tridiagonal_gamma(self.p)
        self.truth = self.cov.matrix()
        self.grid_arg = ",".join(repr(t) for t in self.grid)

    def prepare(self, i):
        Y = simgen.sample_scenario(Scenario(
            cov=self.cov, noise=self.noise, n=self.n,
            seed=derive(self.seed, 2, i))).data
        path = self.workdir / "cv.csv"
        np.savetxt(path, Y, delimiter=",", fmt="%.17g")
        return Y, ["cv", "--input", str(path), "--splits", str(self.splits),
                   "--grid", self.grid_arg]

    def call(self, arg):
        return _run_cli(arg[1])

    def collect(self, arg, raw):
        rc, out, err = raw
        if rc != 0:
            return Outcome(1, 1, error=_cli_error(rc, err))
        lines = out.split()
        tau_hat = float(lines[0].split(",")[1])
        scores = [tuple(map(float, line.split(","))) for line in lines[1:]]
        return Outcome(1, 0, record=(arg[0], tau_hat, scores))

    def verify(self, outcomes):
        errors, bad = [], []
        for o in outcomes:
            Y, tau_hat, scores = o.record
            if tau_hat not in self.grid:
                bad.append(f"tau_hat {tau_hat} is not on the grid")
            if ([t for t, _ in scores] != self.grid
                    or not all(math.isfinite(q) for _, q in scores)):
                bad.append("cv did not print 40 finite grid scores")
            # headline: the CV-tuned sps estimate on the whole sample; rho
            # only sets the solver's speed, not the optimum it reaches
            est = shrinkage.pd_soft_threshold(
                spectral.spectral_estimate(Y, 1.0),
                shrinkage.PdSoftConfig(tau=tau_hat, rho_admm=20.0))
            errors.append(simgen.frobenius_error(est, self.truth))
        return errors, sorted(set(bad))


class LargeN(Workload):
    name = "large_n"
    trace_calls = 6
    dominant = "kernels.probe_cf"
    expected = ("spectral.spectral_estimate", "charfreq.probe_log_moduli",
                "kernels.probe_cf", "shrinkage.pd_soft_threshold",
                "shrinkage.admm")
    n, p, datasets = 80_000, 50, 2
    U = 2.0
    config = dict(tau=0.25, lambda_barrier=1e-4, rho_admm=20.0)
    reference = {"sps": 3.3}
    band = 0.15

    def setup(self, rep):
        cov, noise = _tridiagonal_gamma(self.p)
        self.truth = cov.matrix()
        self.samples = [simgen.sample_scenario(Scenario(
            cov=cov, noise=noise, n=self.n, seed=derive(self.seed, 3, k))).data
            for k in range(self.datasets)]

    def prepare(self, i):
        return i % self.datasets

    def call(self, k):
        base = spectral.spectral_estimate(self.samples[k], self.U)
        return shrinkage.pd_soft_threshold(
            base, shrinkage.PdSoftConfig(**self.config))

    def collect(self, k, est):
        return Outcome(1, 0, record=(k, est.matrix))

    def verify(self, outcomes):
        errors, bad = [], []
        cov_err = {}
        for o in outcomes:
            k, m = o.record
            err = float(np.linalg.norm(m - self.truth))
            if k not in cov_err:
                cov_err[k] = simgen.frobenius_error(
                    shrinkage.sample_covariance(self.samples[k]), self.truth)
            if not np.array_equal(m, m.T):
                bad.append("estimate is not symmetric")
            if np.linalg.eigvalsh(m).min() <= 0:
                bad.append("estimate is not positive definite")
            if err >= cov_err[k]:
                bad.append(f"error {err:.4f} does not beat the sample "
                           f"covariance's {cov_err[k]:.4f}")
            errors.append(err)
        bad += _band_violations({"sps": _median(errors)},
                                self.reference, self.band)
        return errors, sorted(set(bad))


class LowRank(Workload):
    name = "lowrank"
    trace_calls = 8
    dominant = "kernels.ecf"
    expected = ("lowrank.lowrank_estimate", "lowrank.nuclear_prox",
                "kernels.ecf")
    # p = 5 keeps bump_weight's set-up memory below the ECF kernel's, so
    # peak_rss_mb follows the kernel
    n, p = 2_000, 5
    reference = {"lowrank": 0.15}
    band = 0.5

    def setup(self, rep):
        v = np.ones(self.p) / math.sqrt(self.p)
        self.truth = 2.0 * np.outer(v, v)
        self.cov = CovModel.explicit(self.truth)
        self.noise = NoiseModel.gamma_elliptical(0.3 * np.eye(self.p), 1.0)
        # a new Monte Carlo seed per set-up keeps bump_weight's cached
        # masses from hiding their cost in the repeated set-ups
        t0 = time.perf_counter()
        w = lowrank.bump_weight(self.p, seed=rep)
        self.setup_metrics = {"lowrank.bump_weight.s": time.perf_counter() - t0}
        # the weight's mass is about 1e-30; lambda is scaled by it as the
        # package's own tests do
        self.weight = w
        self.config = lowrank.LowRankConfig(U=1.0, lambda_nuc=0.01 * w.l1_mass,
                                            mc_samples=4096)

    def prepare(self, i):
        return simgen.sample_scenario(Scenario(
            cov=self.cov, noise=self.noise, n=self.n,
            seed=derive(self.seed, 4, i))).data

    def call(self, Y):
        return lowrank.lowrank_estimate(Y, self.config, self.weight)

    def collect(self, Y, est):
        return Outcome(1, 0, record=est.matrix)

    def verify(self, outcomes):
        errors, bad = [], []
        zero_err = float(np.linalg.norm(self.truth))
        for o in outcomes:
            m = o.record
            err = float(np.linalg.norm(m - self.truth))
            if np.linalg.eigvalsh(m).min() < -1e-9 * max(1.0, np.abs(m).max()):
                bad.append("estimate is not positive semidefinite")
            if err >= zero_err:
                bad.append(f"error {err:.4f} does not beat the zero matrix's "
                           f"{zero_err:.4f}")
            errors.append(err)
        bad += _band_violations({"lowrank": _median(errors)},
                                self.reference, self.band)
        return errors, sorted(set(bad))


def _median(values):
    return float(np.median(values)) if len(values) else math.nan


def _band_violations(medians, reference, band):
    return [f"median {tag} frob_error {medians.get(tag, math.nan):.4f} is "
            f"above the seed-code reference {ref} by more than {band:.0%}"
            for tag, ref in reference.items()
            if not medians.get(tag, math.inf) <= ref * (1.0 + band)]


WORKLOADS = {w.name: w for w in (Simulate, Cv, LargeN, LowRank)}
