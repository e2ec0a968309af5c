import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from speccov.harness import ESTIMATORS, load_spec
from speccov.shrinkage import (
    DEFAULT_TAU_GRID,
    ConvergenceError,
    CvConfig,
    PdSoftConfig,
    cross_validate_tau,
    hard_threshold,
    pd_soft_threshold,
    sample_covariance,
    soft_threshold,
)
from speccov.simgen import (
    CovModel,
    NoiseModel,
    Scenario,
    make_tridiagonal,
    sample_scenario,
)
from speccov.spectral import CovEstimate, spectral_estimate


def sym(m):
    return 0.5 * (m + m.T)


def pd_soft_objective(S, shat, tau, lam):
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        return np.inf
    return float(np.sum((S - shat) ** 2) + 2 * tau * np.sum(np.abs(S)) - lam * logdet)


def pd_soft_kkt_residual(S, shat, tau, lam):
    """Largest violation of 0 in 2(S - shat) + 2 tau d|S|_1 - lam S^-1.

    The subgradient of |S|_1 is sign S_ij off the zero set and anything in
    [-1, 1] on it; inf unless S is positive definite.
    """
    if np.linalg.eigvalsh(S).min() <= 0:
        return np.inf
    R = 2.0 * (S - shat) - lam * np.linalg.inv(S)
    viol = np.where(np.abs(S) > 1e-6, np.abs(R + 2.0 * tau * np.sign(S)),
                    np.maximum(np.abs(R) - 2.0 * tau, 0.0))
    return float(viol.max())


class TestHardThreshold:
    def test_zero_threshold_is_identity(self):
        m = sym(np.random.default_rng(0).standard_normal((4, 4)))
        out = hard_threshold(CovEstimate(m, "spectral", {}), 0.0)
        np.testing.assert_array_equal(out.matrix, m)

    def test_kills_small_entries(self):
        m = np.diag([0.3, -0.5, 0.1])
        out = hard_threshold(m, 0.25).matrix
        np.testing.assert_array_equal(np.diag(out), [0.3, -0.5, 0.0])

    def test_boundary_entry_is_zeroed(self):
        # survival requires strict inequality
        m = np.array([[0.25]])
        assert hard_threshold(m, 0.25).matrix[0, 0] == 0.0

    @given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5)),
           st.floats(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_odd_and_symmetric(self, m, tau):
        m = sym(m)
        a = hard_threshold(m, tau).matrix
        b = hard_threshold(-m, tau).matrix
        np.testing.assert_array_equal(a, -b)
        np.testing.assert_array_equal(a, a.T)


class TestSoftThreshold:
    def test_zero_threshold_is_identity(self):
        m = sym(np.random.default_rng(1).standard_normal((3, 3)))
        np.testing.assert_array_equal(soft_threshold(m, 0.0).matrix, m)

    def test_closed_form_values(self):
        m = np.diag([0.3, -0.5, 0.1])
        out = soft_threshold(m, 0.25).matrix
        np.testing.assert_allclose(np.diag(out), [0.05, -0.25, 0.0], atol=1e-15)

    def test_matches_convex_solver_on_3x3(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(2)
        shat = sym(rng.standard_normal((3, 3)))
        tau = 0.3
        S = cp.Variable((3, 3))
        prob = cp.Problem(cp.Minimize(
            cp.sum_squares(S - shat) + 2 * tau * cp.sum(cp.abs(S))))
        prob.solve(solver=cp.CLARABEL)
        got = soft_threshold(shat, tau).matrix
        assert np.linalg.norm(got - S.value) < 1e-6

    @given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5)),
           st.floats(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_shrinkage_bounds(self, m, tau):
        m = sym(m)
        out = soft_threshold(m, tau).matrix
        assert np.all(np.abs(out) <= np.abs(m) + 1e-15)
        assert np.all(np.abs(out - m) <= tau + 1e-15)
        np.testing.assert_array_equal(out, -soft_threshold(-m, tau).matrix)


class TestPdSoftThreshold:
    def test_reduces_to_soft_threshold_when_unconstrained(self):
        # comfortably PD input, entries far above tau, vanishing barrier
        shat = np.array([[2.0, 1.0], [1.0, 2.0]])
        cfg = PdSoftConfig(tau=0.05, lambda_barrier=1e-8)
        got = pd_soft_threshold(shat, cfg).matrix
        want = soft_threshold(shat, 0.05).matrix
        assert np.linalg.norm(got - want) < 1e-4

    def test_matches_convex_solver_2x2(self):
        cp = pytest.importorskip("cvxpy")
        shat = np.array([[1.0, 0.3], [0.3, 0.5]])
        tau, lam = 0.1, 1e-4
        got = pd_soft_threshold(shat, PdSoftConfig(tau=tau, lambda_barrier=lam)).matrix
        S = cp.Variable((2, 2), symmetric=True)
        prob = cp.Problem(cp.Minimize(
            cp.sum_squares(S - shat) + 2 * tau * cp.sum(cp.abs(S))
            - lam * cp.log_det(S)))
        prob.solve(solver=cp.CLARABEL)
        assert np.linalg.norm(got - S.value) < 1e-4

    def test_output_strictly_positive_definite(self):
        rng = np.random.default_rng(3)
        shat = sym(rng.standard_normal((5, 5)))  # indefinite input
        out = pd_soft_threshold(shat, PdSoftConfig(tau=0.2)).matrix
        assert np.linalg.eigvalsh(out).min() > 0

    def test_objective_not_above_warm_start(self):
        rng = np.random.default_rng(4)
        shat = sym(rng.standard_normal((4, 4)))
        tau, lam = 0.15, 1e-4
        out = pd_soft_threshold(shat, PdSoftConfig(tau=tau, lambda_barrier=lam)).matrix
        warm = soft_threshold(shat, tau).matrix
        w, Q = np.linalg.eigh(warm)
        warm = (Q * np.maximum(w, lam)) @ Q.T
        assert pd_soft_objective(out, shat, tau, lam) <= \
            pd_soft_objective(warm, shat, tau, lam) + 1e-10

    def test_first_order_optimality(self):
        shat = np.array([[1.0, 0.4, 0.0],
                         [0.4, 1.0, 0.02],
                         [0.0, 0.02, 0.8]])
        tau, lam, tol = 0.1, 1e-3, 1e-9
        out = pd_soft_threshold(
            shat, PdSoftConfig(tau=tau, lambda_barrier=lam, tol=tol,
                               max_iter=200_000)).matrix
        assert pd_soft_kkt_residual(out, shat, tau, lam) < 10 * tol

    @pytest.mark.parametrize("rho", [1.0, 20.0])
    @pytest.mark.parametrize("tau", [0.01, 0.05, 0.25])
    def test_kkt_certificate_rejects_perturbation(self, tau, rho):
        s = Scenario(cov=CovModel.tridiagonal(5),
                     noise=NoiseModel.gamma_elliptical(np.eye(5), 1.0),
                     n=200, seed=3)
        shat = spectral_estimate(sample_scenario(s), 1.0).matrix
        lam = 1e-4
        out = pd_soft_threshold(shat, PdSoftConfig(
            tau=tau, lambda_barrier=lam, rho_admm=rho)).matrix
        E = sym(np.random.default_rng(0).standard_normal((5, 5)))
        assert pd_soft_kkt_residual(out, shat, tau, lam) < 1e-6
        assert pd_soft_kkt_residual(out + 1e-3 * E / np.linalg.norm(E),
                                    shat, tau, lam) > 1e-2

    def test_nonconvergence_raises_with_residuals(self):
        rng = np.random.default_rng(5)
        shat = sym(rng.standard_normal((4, 4)))
        with pytest.raises(ConvergenceError) as ei:
            pd_soft_threshold(shat, PdSoftConfig(tau=0.3, max_iter=1))
        assert ei.value.primal is not None and ei.value.dual is not None
        assert ei.value.iterations == 1 and ei.value.rho == 1.0

    def test_tuning_records_solver_diagnostics(self):
        rng = np.random.default_rng(5)
        shat = sym(rng.standard_normal((4, 4)))
        cfg = PdSoftConfig(tau=0.3, rho_admm=20.0)
        t = pd_soft_threshold(shat, cfg).tuning
        assert 1 <= t["iterations"] <= cfg.max_iter
        assert max(t["primal"], t["dual"]) < cfg.tol
        # rho only ever moves by whole factors of 10 from its start
        assert math.log10(t["rho"] / 20.0) == pytest.approx(
            round(math.log10(t["rho"] / 20.0)), abs=1e-9)

    @pytest.mark.parametrize("tau", [0.01, 0.25, 1.0])
    def test_diagonal_problem_solved_by_the_start_point(self, tau):
        # entries above, between and below tau, zero and negative ones
        s = np.array([2.0, 0.5, 0.2, 0.005, 0.0, -0.3, -1.0])
        lam = 1e-4
        out = pd_soft_threshold(np.diag(s), PdSoftConfig(tau=tau,
                                                         lambda_barrier=lam))
        assert out.tuning["iterations"] == 1
        want = ((s - tau) + np.sqrt((s - tau) ** 2 + 2.0 * lam)) / 2.0
        np.testing.assert_allclose(out.matrix, np.diag(want), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_large_indefinite_input_stays_finite(self, scale):
        # far below zero the textbook root (t + sqrt(t^2 + 4c))/2 cancels
        # to 0, which made the start point singular
        shat = scale * sym(np.random.default_rng(3).standard_normal((5, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pd_soft_threshold(shat, PdSoftConfig(tau=0.2)).matrix
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, out.T)

    def test_start_far_from_the_solution_costs_no_iterations(self):
        base = _tridiagonal_gamma_base()
        cfg = PdSoftConfig(tau=0.05, rho_admm=20.0)
        cold = pd_soft_threshold(base, cfg)
        far = pd_soft_threshold(base, cfg, start=100.0 * np.eye(20))
        assert far.tuning["iterations"] <= cold.tuning["iterations"]

    def test_start_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            pd_soft_threshold(np.eye(3), PdSoftConfig(tau=0.1),
                              start=np.diag([1.0, 0.0, 1.0]))

    def test_kind_mapping(self):
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((30, 3))
        cfg = PdSoftConfig(tau=0.1)
        assert pd_soft_threshold(spectral_estimate(Y, 1.0), cfg).estimator_kind == "sps"
        assert pd_soft_threshold(sample_covariance(Y), cfg).estimator_kind == "pds"
        assert pd_soft_threshold(np.eye(3), cfg).estimator_kind == "pdsoft"

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PdSoftConfig(tau=-0.1)
        with pytest.raises(ValueError):
            PdSoftConfig(tau=0.1, lambda_barrier=0.0)
        with pytest.raises(ValueError):
            PdSoftConfig(tau=0.1, tol=0.0)


def _tridiagonal_gamma_base(p=20, n=50, seed=0):
    s = Scenario(cov=CovModel.tridiagonal(p),
                 noise=NoiseModel.gamma_elliptical(np.eye(p), 1.0),
                 n=n, seed=seed)
    return spectral_estimate(sample_scenario(s), 1.0)


class TestPdSoftPath:
    """PD-soft along the default CV grid, cold and warm-started."""

    @pytest.mark.parametrize("rho", [1.0, 20.0])
    def test_kkt_certificate_on_default_grid(self, rho):
        # at a fixed rho = 1 the solver stalled at tau >~ 0.5 on this base
        base = _tridiagonal_gamma_base()
        lam = 1e-4
        prev = None
        for tau in DEFAULT_TAU_GRID:
            cfg = PdSoftConfig(tau=tau, lambda_barrier=lam, rho_admm=rho)
            cold = pd_soft_threshold(base, cfg)
            warm = pd_soft_threshold(base, cfg, start=prev)
            for est in (cold, warm):
                assert pd_soft_kkt_residual(est.matrix, base.matrix, tau, lam) \
                    <= 1e-5, (tau, rho, est.tuning)
            prev = warm

    def test_warm_start_agrees_with_cold_solve(self):
        base = _tridiagonal_gamma_base(seed=1)
        prev = None
        warm_iters = cold_iters = 0
        for tau in DEFAULT_TAU_GRID:
            cfg = PdSoftConfig(tau=tau, rho_admm=20.0)
            cold = pd_soft_threshold(base, cfg)
            warm = pd_soft_threshold(base, cfg, start=prev)
            assert np.abs(warm.matrix - cold.matrix).max() <= 1e-5, tau
            cold_iters += cold.tuning["iterations"]
            warm_iters += warm.tuning["iterations"]
            prev = warm
        assert warm_iters < cold_iters

    def test_warm_start_at_the_solution_stops_at_once(self):
        base = _tridiagonal_gamma_base(p=5, n=200, seed=3)
        cfg = PdSoftConfig(tau=0.05, rho_admm=20.0, tol=1e-9, max_iter=100_000)
        sol = pd_soft_threshold(base, cfg)
        again = pd_soft_threshold(base, cfg, start=sol)
        assert again.tuning["iterations"] <= 2
        np.testing.assert_allclose(again.matrix, sol.matrix, atol=1e-8)


class TestAdmmIterationBudget:
    def test_simulation_config_iteration_count(self):
        # The counts are deterministic: 1100 sps + 109 pds iterations with
        # the closed-form start and over-relaxation, 1459 + 440 with a
        # projected soft-threshold start and no relaxation. The bound is
        # about 1.15 times the former.
        spec = load_spec(Path(__file__).resolve().parents[1] / "configs"
                         / "tridiagonal_gamma.yaml")
        total = 0
        for rep in range(20):
            Y = sample_scenario(Scenario(
                cov=spec.scenario.cov, noise=spec.scenario.noise,
                n=spec.scenario.n, seed=[spec.scenario.seed, rep]))
            for tag, tuning in spec.estimators:
                if tag in ("sps", "pds"):
                    total += ESTIMATORS[tag](Y, tuning).tuning["iterations"]
        assert total <= 1390


class TestSampleCovariance:
    def test_single_observation(self):
        y = np.array([[1.0, -2.0]])
        np.testing.assert_allclose(sample_covariance(y).matrix,
                                   np.outer(y[0], y[0]))

    def test_signed_basis_rows(self):
        Y = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(sample_covariance(Y).matrix,
                                   np.diag([1.0, 0.0]))

    def test_no_mean_subtraction(self):
        Y = np.tile([2.0, 0.0], (10, 1))  # constant rows, zero centered cov
        got = sample_covariance(Y).matrix
        np.testing.assert_allclose(got, np.diag([4.0, 0.0]))

    def test_noise_bias_is_theta_on_diagonal(self):
        # E[sample cov] = Sigma + theta * I under the gamma-mixed noise
        theta = 1.0
        s = Scenario(cov=CovModel.tridiagonal(4),
                     noise=NoiseModel.gamma_elliptical(np.eye(4), theta),
                     n=200_000, seed=7)
        got = sample_covariance(sample_scenario(s)).matrix
        want = make_tridiagonal(4) + theta * np.eye(4)
        assert np.abs(got - want).max() < 0.08


class TestPdsBaseline:
    def test_noiseless_small_tau_close_to_sample_cov(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((200, 3))
        cov = sample_covariance(Y).matrix
        got = ESTIMATORS["pds"](Y, {"tau": 1e-9, "lambda": 1e-9}).matrix
        assert np.linalg.norm(got - cov) < 1e-4

    def test_matches_convex_solver_2x2(self):
        cp = pytest.importorskip("cvxpy")
        Y = np.array([[1.0, 0.2], [-0.4, 1.1], [0.3, -0.9], [1.2, 0.5]])
        tau, lam = 0.1, 1e-4
        shat = sample_covariance(Y).matrix
        got = ESTIMATORS["pds"](Y, {"tau": tau, "lambda": lam}).matrix
        S = cp.Variable((2, 2), symmetric=True)
        prob = cp.Problem(cp.Minimize(
            cp.sum_squares(S - shat) + 2 * tau * cp.sum(cp.abs(S))
            - lam * cp.log_det(S)))
        prob.solve(solver=cp.CLARABEL)
        assert np.linalg.norm(got - S.value) < 1e-4


def spectral_fit(rule, U):
    """CV fit applying ``rule(estimate, tau)`` at each grid tau to one
    spectral estimate of the training part."""
    def fit(train, taus):
        est = spectral_estimate(train, U)
        return [rule(est, tau) for tau in taus]
    return fit


class TestCrossValidateTau:
    def test_single_point_grid(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((40, 3))
        cfg = CvConfig(num_splits=3, tau_grid=[0.2], seed=0)
        tau_hat, Q = cross_validate_tau(Y, 1.0, cfg, spectral_fit(soft_threshold, 1.0))
        assert tau_hat == 0.2 and len(Q) == 1

    def test_tie_breaks_toward_smaller_tau(self):
        # every entry of the training estimates sits far below both grid
        # points, so hard thresholding returns the zero matrix for both
        # and the scores tie exactly
        rng = np.random.default_rng(10)
        Y = 0.05 * rng.standard_normal((60, 3))
        cfg = CvConfig(num_splits=4, tau_grid=[0.9, 1.0], seed=1)
        tau_hat, Q = cross_validate_tau(Y, 1.0, cfg, spectral_fit(hard_threshold, 1.0))
        assert Q[0] == Q[1]
        assert tau_hat == 0.9

    def test_split_sizes(self):
        with pytest.raises(ValueError):
            cross_validate_tau(np.ones((3, 2)), 1.0,
                               CvConfig(num_splits=1, tau_grid=[0.1]),
                               spectral_fit(soft_threshold, 1.0))

    def test_fit_must_return_one_estimate_per_tau(self):
        Y = np.random.default_rng(9).standard_normal((40, 3))
        cfg = CvConfig(num_splits=1, tau_grid=[0.1, 0.2], seed=0)
        with pytest.raises(ValueError, match="2 grid points"):
            cross_validate_tau(Y, 1.0, cfg, lambda train, taus: [np.eye(3)])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CvConfig(num_splits=1, tau_grid=[])
        with pytest.raises(ValueError):
            CvConfig(num_splits=1, tau_grid=[0.2, 0.1])
        with pytest.raises(ValueError):
            CvConfig(num_splits=1, tau_grid=[-0.1, 0.2])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((50, 3))
        cfg = CvConfig(num_splits=5, tau_grid=[0.1, 0.3, 0.6], seed=42)
        fit = spectral_fit(soft_threshold, 1.0)
        a = cross_validate_tau(Y, 1.0, cfg, fit)
        b = cross_validate_tau(Y, 1.0, cfg, fit)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_score_curve_has_interior_minimum_on_noisy_scenario(self):
        # noisy tridiagonal data: very small tau underfits the noise and
        # very large tau kills the signal, so the score dips in between
        s = Scenario(cov=CovModel.tridiagonal(20),
                     noise=NoiseModel.gamma_elliptical(np.eye(20), 1.0),
                     n=50, seed=12)
        Y = sample_scenario(s)
        grid = [0.02, 0.1, 0.25, 0.6, 1.5]
        cfg = CvConfig(num_splits=20, tau_grid=grid, seed=0)
        pd_soft = lambda est, tau: pd_soft_threshold(
            est, PdSoftConfig(tau=tau, rho_admm=20.0, tol=1e-6))
        tau_hat, Q = cross_validate_tau(Y, 3.0, cfg, spectral_fit(pd_soft, 3.0))
        k = int(np.argmin(Q))
        assert 0 < k < len(grid) - 1
        assert 0.05 <= tau_hat <= 0.8


class TestThresholdRiskAudits:
    """Closed-form risk bounds checked on replications where the max-entry
    deviation event holds."""

    def _event_reps(self, reps=40):
        truth = make_tridiagonal(3)
        tau = 0.3
        out = []
        for rep in range(reps):
            s = Scenario(cov=CovModel.tridiagonal(3), noise=NoiseModel.none(),
                         n=800, seed=[13, rep])
            est = spectral_estimate(sample_scenario(s), 1.0)
            if np.abs(est.matrix - truth).max() < tau:
                out.append(est)
        assert len(out) > reps // 2
        return truth, tau, out

    def test_hard_threshold_risk_bound(self):
        truth, tau, reps = self._event_reps()
        nnz = np.count_nonzero(truth)
        for est in reps:
            err = np.linalg.norm(hard_threshold(est, tau).matrix - truth)
            assert err <= 3.0 * math.sqrt(nnz) * tau + 1e-12

    def test_soft_threshold_oracle_inequality(self):
        truth, tau, reps = self._event_reps()
        c = (1.0 + math.sqrt(2.0)) ** 2 * tau**2
        # best reference value over every support pattern: keeping an entry
        # costs c, dropping it costs its squared magnitude
        cells = list(itertools.product([0, 1], repeat=9))
        best = min(
            sum(c if keep else truth.flat[k] ** 2
                for k, keep in enumerate(pattern))
            for pattern in cells
        )
        assert best == pytest.approx(
            float(np.sum(np.minimum(truth**2, c))), rel=1e-12)
        for est in reps:
            err_sq = float(np.sum((soft_threshold(est, tau).matrix - truth) ** 2))
            assert err_sq <= best + 1e-12
