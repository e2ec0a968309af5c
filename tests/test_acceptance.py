"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure). Tolerances and scenario
parameters are pinned; see the README for how to run this module alone.
"""

import itertools
import math
import time

import numpy as np

from speccov import _kernels, lowrank, shrinkage, spectral
from speccov.harness import ExperimentSpec, run_experiment, summarize
from speccov.shrinkage import PdSoftConfig
from speccov.simgen import (
    CovModel,
    NoiseModel,
    Scenario,
    make_tridiagonal,
    noise_cf,
    sample_scenario,
)
from test_lowrank import prox_fixed_point_residual
from test_shrinkage import pd_soft_kkt_residual, soft_kkt_residual
from test_spectral import exact_cf_estimate


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def medians(spec):
    """The median error of each estimator of ``spec``, run as ``simulate``
    runs a config; every record must succeed."""
    records = run_experiment(spec)
    assert [r.error for r in records if r.error] == []
    return {tag: s.median for tag, s in summarize(records).items()}


class TestCriterion1BiasSeparation:
    def test_gamma_noise_median_ordering(self):
        t0 = time.perf_counter()
        med = medians(ExperimentSpec(
            Scenario(CovModel.tridiagonal(20),
                     NoiseModel.gamma_elliptical(np.eye(20), 1.0), n=50,
                     seed=7),
            [("cov", {}), ("pds", {"tau": 0.25, "lambda": 1e-4}),
             ("sps", {"tau": 0.25, "U": 3.0, "lambda": 1e-4})], 200))
        elapsed = time.perf_counter() - t0
        floor = 0.8 * math.sqrt(20)
        ok = (med["sps"] < med["pds"] and med["sps"] < med["cov"]
              and med["cov"] >= floor and elapsed < 120.0)
        report(1, ok,
               f"medians sps={med['sps']:.3f} < pds={med['pds']:.3f}, "
               f"cov={med['cov']:.3f} >= {floor:.2f}, {elapsed:.1f}s < 120s")


class TestCriterion2NoiselessSanity:
    def test_exact_cf_hook_and_sampled_recovery(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        S = A @ A.T / 4 + 0.5 * np.eye(4)
        cf = lambda u: np.exp(-0.5 * float(u @ S @ u))
        exact = exact_cf_estimate(cf, 4, 1.0).matrix
        exact_err = float(np.abs(exact - S).max())

        truth = make_tridiagonal(5)
        Y = sample_scenario(Scenario(cov=CovModel.tridiagonal(5),
                                     noise=NoiseModel.none(), n=10**5, seed=1))
        sampled = spectral.spectral_estimate(Y, 1.0).matrix
        sampled_err = float(np.abs(sampled - truth).max())
        ok = exact_err < 1e-12 and sampled_err < 0.05
        report(2, ok,
               f"exact-CF max error {exact_err:.2e} < 1e-12, "
               f"sampled max error {sampled_err:.4f} < 0.05")


class TestCriterion3ConcentrationCoverage:
    def test_max_entry_event_probability(self):
        p, n, gamma = 5, 2000, 1.5
        truth = 0.1 * np.eye(p)
        cfg = spectral.SpectralConfig(U=1.0, R=0.1, T=1e-12, beta=0.0,
                                      gamma=gamma)
        assert spectral.admissible(cfg, n, p)
        tau = spectral.tau_threshold(cfg, n, p)
        hits = 0
        reps = 500
        for rep in range(reps):
            Y = sample_scenario(Scenario(cov=CovModel.explicit(truth),
                                         noise=NoiseModel.none(), n=n,
                                         seed=[31, rep]))
            est = spectral.spectral_estimate(Y, 1.0)
            if np.abs(est.matrix - truth).max() < tau:
                hits += 1
        coverage = hits / reps
        floor = max(0.0, 1.0 - 12.0 * math.exp(-gamma**2) * p**(2 - gamma**2))
        ok = coverage >= floor
        report(3, ok, f"coverage {coverage:.3f} >= bound {floor:.3f} "
                      f"(tau={tau:.3f}, {reps} replications)")


class TestCriterion4SolverCertificates:
    def test_all_three_solvers_pass_optimality_certificates(self):
        # the optimality conditions of soft thresholding and PD-soft, and
        # the prox fixed point of low rank
        rng = np.random.default_rng(2)
        soft = kkt = prox = 0.0
        for p in (2, 3):
            shat = rng.standard_normal((p, p))
            shat = 0.5 * (shat + shat.T)
            tau, lam = 0.2, 1e-4
            soft = max(soft, soft_kkt_residual(
                shrinkage.soft_threshold(shat, tau).matrix, shat, tau))
            base = shat + (0.5 + abs(np.linalg.eigvalsh(shat).min())) * np.eye(p)
            kkt = max(kkt, pd_soft_kkt_residual(
                shrinkage.pd_soft_threshold(
                    base, PdSoftConfig(tau=tau, lambda_barrier=lam)).matrix,
                base, tau, lam))

            A = rng.standard_normal((p, p))
            Y = sample_scenario(Scenario(
                cov=CovModel.explicit(A @ A.T), noise=NoiseModel.none(),
                n=2000, seed=[41, p]))
            w = lowrank.bump_weight(p)
            cfg = lowrank.LowRankConfig(U=1.0, lambda_nuc=0.1,
                                        mc_samples=600, tol=1e-14,
                                        max_iter=20_000)
            est = lowrank.lowrank_estimate(Y, cfg, w, seed=3).matrix
            prox = max(prox, prox_fixed_point_residual(est, Y, cfg, w, seed=3))
        ok = soft <= 1e-12 and kkt < 1e-6 and prox < 1e-5
        report(4, ok, f"soft-threshold optimality residual {soft:.1e} <= "
                      f"1e-12, PD-soft KKT residual {kkt:.2e} < 1e-6, "
                      f"low-rank prox fixed-point residual {prox:.2e} < 1e-5")


class TestCriterion5OracleInequalityAudit:
    def test_soft_threshold_risk_never_exceeds_support_oracle(self):
        truth = make_tridiagonal(3)
        tau = 0.3
        c = (1.0 + math.sqrt(2.0)) ** 2 * tau**2
        best = min(
            sum(c if keep else truth.flat[k] ** 2
                for k, keep in enumerate(pattern))
            for pattern in itertools.product([0, 1], repeat=9)
        )
        event_reps = violations = 0
        for rep in range(60):
            Y = sample_scenario(Scenario(cov=CovModel.tridiagonal(3),
                                         noise=NoiseModel.none(), n=800,
                                         seed=[13, rep]))
            est = spectral.spectral_estimate(Y, 1.0)
            if np.abs(est.matrix - truth).max() >= tau:
                continue
            event_reps += 1
            err_sq = float(np.sum(
                (shrinkage.soft_threshold(est, tau).matrix - truth) ** 2))
            if err_sq > best + 1e-12:
                violations += 1
        ok = event_reps > 30 and violations == 0
        report(5, ok, f"{violations} violations over {event_reps} event "
                      f"replications (exhaustive 2^9 support oracle)")


class TestCriterion6GeneratorFidelity:
    def test_empirical_cf_matches_closed_forms(self):
        n, p = 10**5, 2
        rng = np.random.default_rng(3)
        grid = rng.uniform(-2.0, 2.0, size=(20, p))
        models = [
            NoiseModel.gamma_elliptical(np.eye(p), 1.0),
            NoiseModel.gaussian(0.5),
            NoiseModel.stable(0.5, 0.3),
            NoiseModel.stable(1.0, 0.3),
            NoiseModel.stable(1.5, 0.3),
        ]
        worst = 0.0
        for k, model in enumerate(models):
            eps = sample_scenario(Scenario(
                cov=CovModel.explicit(np.zeros((p, p))), noise=model, n=n,
                seed=[51, k]))
            ecf = _kernels.ecf(eps, grid)
            for u, value in zip(grid, ecf):
                worst = max(worst, abs(value - noise_cf(model, u)))
        bound = 3.0 / math.sqrt(n)
        ok = worst < bound
        report(6, ok, f"worst |ecf - psi| = {worst:.5f} < 3/sqrt(n) = {bound:.5f} "
                      f"(5 noise models x 20 frequencies)")


class TestCriterion7RateShape:
    def test_theory_tuned_hard_threshold_error_decays(self):
        p, R, T, beta, gamma = 10, 0.15, 0.02, 1.0, 1.5
        truth = 0.15 * make_tridiagonal(p)
        noise = NoiseModel.stable(beta, T)
        ns = (10**3, 10**4, 10**5, 10**6)
        by_n = []
        for n in ns:
            U = spectral.spectral_radius_star(R, gamma, n, p)
            cfg = spectral.SpectralConfig(U=U, R=R, T=T, beta=beta, gamma=gamma)
            tau = spectral.tau_threshold(cfg, n, p)
            # replication r draws its sample at the seed [21, n, r]
            by_n.append(medians(ExperimentSpec(
                Scenario(CovModel.explicit(truth), noise, n, seed=[21, n]),
                [("hard", {"tau": tau, "U": U})], 11))["hard"])
        x = [math.log(n / math.log(math.e * p)) for n in ns]
        slope = np.polyfit(x, np.log(by_n), 1)[0]
        decreasing = all(a > b for a, b in zip(by_n, by_n[1:]))
        ok = decreasing and slope < 0
        report(7, ok, "medians " + ", ".join(f"{m:.3f}" for m in by_n)
                      + f" strictly decreasing; log-log slope {slope:.3f} < 0")


class TestCriterion8EllipticalReduction:
    def test_gaussian_generator_is_exactly_spectral(self):
        rng = np.random.default_rng(4)
        gen = spectral.gaussian_generator()
        equal = True
        for trial in range(5):
            Y = rng.standard_normal((40 + 20 * trial, 4))
            a = spectral.spectral_estimate(Y, 1.5).matrix
            b = spectral.spectral_estimate(Y, 1.5, gen).matrix
            equal = equal and np.array_equal(a, b)
        report(8, equal, "eta(x)=x/2 generator bitwise equal to the plain "
                         "spectral estimator on 5 random inputs")


class TestCriterion9MisspecificationRobustness:
    def test_gaussian_noise_sps_not_worse_than_pds(self):
        med = medians(ExperimentSpec(
            Scenario(CovModel.tridiagonal(20),
                     NoiseModel.gaussian(math.sqrt(0.5)), n=50, seed=11),
            [("pds", {"tau": 0.4, "lambda": 1e-4}),
             ("sps", {"tau": 0.4, "U": 0.3, "lambda": 1e-4})], 200))
        ok = med["sps"] <= med["pds"]
        report(9, ok, f"median sps={med['sps']:.4f} <= pds={med['pds']:.4f} "
                      f"(Gaussian noise, 200 replications)")
