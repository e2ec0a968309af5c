import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from speccov import _kernels, shrinkage
from speccov.harness import estimate, load_spec
from speccov.lowrank import LowRankConfig
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
    sample_scenario,
)
from speccov.spectral import CovEstimate, EstimationError, spectral_estimate
from test_charfreq import _BLOCK_BYTES


def sym(m):
    return 0.5 * (m + m.T)


def pd_soft_objective(S, shat, tau, lam):
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        return np.inf
    return float(np.sum((S - shat) ** 2) + 2 * tau * np.sum(np.abs(S)) - lam * logdet)


def kkt_scale(S):
    """max(1, max |S_ij|). A solve to a relative tolerance leaves the
    zero-set entries of S and the KKT residual at about that tolerance
    times this scale, so the zero-set cutoff and pass bounds scale with it."""
    return max(1.0, float(np.abs(S).max()))


def soft_kkt_residual(S, shat, tau):
    """Largest violation of 0 in 2(S - shat) + 2 tau d|S|_1, halved: the
    optimality condition of min |S - shat|^2 + 2 tau |S|_1, entry by entry
    (|shat_ij| <= tau where S_ij = 0, S_ij = shat_ij - tau sign S_ij
    elsewhere)."""
    viol = np.where(S == 0.0, np.maximum(np.abs(shat) - tau, 0.0),
                    np.abs(S - shat + tau * np.sign(S)))
    return float(viol.max())


def pd_soft_kkt_residual(S, shat, tau, lam):
    """Largest violation of 0 in 2(S - shat) + 2 tau d|S|_1 - lam S^-1.

    The subgradient of |S|_1 is sign S_ij off the zero set and anything in
    [-1, 1] on it; the zero set is where |S_ij| <= 1e-6 kkt_scale(S).
    inf unless S is positive definite.
    """
    if np.linalg.eigvalsh(S).min() <= 0:
        return np.inf
    R = 2.0 * (S - shat) - lam * np.linalg.inv(S)
    off_zero = np.abs(S) > 1e-6 * kkt_scale(S)
    viol = np.where(off_zero, np.abs(R + 2.0 * tau * np.sign(S)),
                    np.maximum(np.abs(R) - 2.0 * tau, 0.0))
    return float(viol.max())


class TestHardThreshold:
    def test_zero_threshold_is_identity(self):
        m = sym(np.random.default_rng(0).standard_normal((4, 4)))
        out = hard_threshold(CovEstimate(m), 0.0)
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

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_rejects_invalid_tau(self, tau):
        # NaN and inf used to return the zero matrix
        with pytest.raises(ValueError, match="^tau must be "):
            hard_threshold(np.array([[1.0, 0.3], [0.3, 1.0]]), tau)

    def test_rejects_a_nan_entry(self):
        # a NaN entry used to come back as 0
        with pytest.raises(EstimationError, match="non-finite"):
            hard_threshold(np.array([[1.0, np.nan], [np.nan, 1.0]]), 0.5)


class TestSoftThreshold:
    def test_zero_threshold_is_identity(self):
        m = sym(np.random.default_rng(1).standard_normal((3, 3)))
        np.testing.assert_array_equal(soft_threshold(m, 0.0).matrix, m)

    def test_closed_form_values(self):
        m = np.diag([0.3, -0.5, 0.1])
        out = soft_threshold(m, 0.25).matrix
        np.testing.assert_allclose(np.diag(out), [0.05, -0.25, 0.0], atol=1e-15)

    def test_optimality_certificate_on_3x3(self):
        # the objective |S - shat|^2 + 2 tau |S|_1 separates by entry, and
        # 0 is in 2(s - x) + 2 tau d|s| exactly at the closed form
        shat = sym(np.random.default_rng(2).standard_normal((3, 3)))
        tau = 0.3
        got = soft_threshold(shat, tau).matrix
        for x, s in zip(shat.flat, got.flat):
            assert s == math.copysign(max(abs(x) - tau, 0.0), x)
        assert soft_kkt_residual(got, shat, tau) <= 1e-12
        assert soft_kkt_residual(got + 1e-6 * np.eye(3), shat, tau) > 1e-7

    @given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5)),
           st.floats(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_shrinkage_bounds(self, m, tau):
        m = sym(m)
        out = soft_threshold(m, tau).matrix
        assert np.all(np.abs(out) <= np.abs(m) + 1e-15)
        assert np.all(np.abs(out - m) <= tau + 1e-15)
        np.testing.assert_array_equal(out, -soft_threshold(-m, tau).matrix)

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_rejects_invalid_tau(self, tau):
        # tau = -1 used to add 1 to every |entry|
        with pytest.raises(ValueError, match="^tau must be "):
            soft_threshold(np.array([[1.0, 0.3], [0.3, 1.0]]), tau)


class TestPdSoftThreshold:
    def test_reduces_to_soft_threshold_when_unconstrained(self):
        # comfortably PD input, entries far above tau, vanishing barrier
        shat = np.array([[2.0, 1.0], [1.0, 2.0]])
        cfg = PdSoftConfig(tau=0.05, lambda_barrier=1e-8)
        got = pd_soft_threshold(shat, cfg).matrix
        want = soft_threshold(shat, 0.05).matrix
        assert np.linalg.norm(got - want) < 1e-4

    def test_kkt_certificate_2x2(self):
        shat = np.array([[1.0, 0.3], [0.3, 0.5]])
        tau, lam = 0.1, 1e-4
        got = pd_soft_threshold(shat, PdSoftConfig(tau=tau, lambda_barrier=lam)).matrix
        assert pd_soft_kkt_residual(got, shat, tau, lam) < 1e-6
        # a move of 1e-4, the gap the convex solver was held to, fails it
        for E in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])):
            assert pd_soft_kkt_residual(got + 1e-4 * E, shat, tau, lam) > 1e-6

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
        assert ei.value.iterations == 1 and ei.value.rho == 2.0

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

    def test_the_first_x_update_is_the_start_point(self, monkeypatch):
        # the start's dual makes the first X-update return Z0, so a solve
        # computes one fewer eigendecomposition than it counts iterations
        calls = []
        prox = shrinkage._barrier_prox

        def counting(*args):
            calls.append(1)
            prox(*args)

        monkeypatch.setattr(shrinkage, "_barrier_prox", counting)
        base = _tridiagonal_gamma_base()
        for tau in (5.0, 0.25, 1e-3):
            calls.clear()
            est = pd_soft_threshold(base, PdSoftConfig(tau=tau,
                                                       rho_admm=20.0))
            assert len(calls) == est.tuning["iterations"] - 1, tau
        calls.clear()
        path = pd_soft_threshold([base] * 2, [PdSoftConfig(tau=tau)
                                              for tau in (5.0, 0.25)])
        assert len(calls) == max(e.tuning["iterations"] for e in path) - 1

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

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e8])
    def test_positive_definite_up_to_rounding(self, scale):
        # the barrier eigenvalues (about lam/|t|) fall below the rounding of
        # the rebuilt matrix at large scale, so only -p*eps*|X|_2 holds
        shat = scale * sym(np.random.default_rng(3).standard_normal((5, 5)))
        out = pd_soft_threshold(shat, PdSoftConfig(tau=0.2)).matrix
        bound = 5 * np.finfo(float).eps * np.linalg.norm(out, 2)
        assert np.linalg.eigvalsh(out).min() >= -bound
        if scale == 1.0:
            assert np.linalg.eigvalsh(out).min() > 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PdSoftConfig(tau=-0.1)
        with pytest.raises(ValueError):
            PdSoftConfig(tau=0.1, lambda_barrier=0.0)
        with pytest.raises(ValueError):
            PdSoftConfig(tau=0.1, tol=0.0)
        for kw in (dict(tau=np.nan), dict(tau=np.inf),
                   dict(tau=0.1, tol=np.nan), dict(tau=0.1, tol=np.inf),
                   dict(tau=0.1, lambda_barrier=np.nan),
                   dict(tau=0.1, lambda_barrier=np.inf),
                   dict(tau=0.1, rho_admm=np.nan),
                   dict(tau=0.1, rho_admm=np.inf)):
            with pytest.raises(ValueError):
                PdSoftConfig(**kw)

    def test_integer_rho_admm_matches_its_float(self):
        # rho is balanced in place, so an int start must not give an int array
        Y = sample_scenario(Scenario(
            CovModel.tridiagonal(20),
            NoiseModel.gamma_elliptical(np.eye(20), 1.0), n=50, seed=5002))
        base = spectral_estimate(Y, 3.0)
        a = pd_soft_threshold(base, PdSoftConfig(tau=0.25, rho_admm=2))
        b = pd_soft_threshold(base, PdSoftConfig(tau=0.25, rho_admm=2.0))
        assert a.matrix.tobytes() == b.matrix.tobytes()

    @pytest.mark.parametrize("make,field", [
        (lambda v: PdSoftConfig(tau=0.1, max_iter=v), "max_iter"),
        (lambda v: CvConfig(num_splits=v, tau_grid=[0.1]), "num_splits"),
        (lambda v: LowRankConfig(U=1.0, lambda_nuc=0.1, mc_samples=v),
         "mc_samples"),
        (lambda v: LowRankConfig(U=1.0, lambda_nuc=0.1, max_iter=v),
         "max_iter"),
        (lambda v: Scenario(CovModel.tridiagonal(2), NoiseModel.none(), n=v),
         "n"),
        (lambda v: Scenario(CovModel.tridiagonal(2), NoiseModel.none(), n=5,
                            seed=v), "seed"),
        (lambda v: CvConfig(num_splits=2, tau_grid=[0.1], seed=v), "seed"),
    ], ids=["pd_soft", "cv", "lowrank_mc_samples", "lowrank_max_iter",
            "scenario", "scenario_seed", "cv_seed"])
    def test_whole_float_count_is_stored_as_int(self, make, field):
        # a float count used to fail deep inside, in range() or in a shape
        assert type(getattr(make(10.0), field)) is int
        assert getattr(make(10.0), field) == 10
        with pytest.raises(ValueError,
                           match=f"^{field} must be a whole number, got 10.5"):
            make(10.5)

    @pytest.mark.parametrize("make", [
        lambda v: Scenario(CovModel.tridiagonal(2), NoiseModel.none(), n=5,
                           seed=v),
        lambda v: Scenario(CovModel.tridiagonal(2), NoiseModel.none(), n=5,
                           seed=[3, v]),
        lambda v: CvConfig(num_splits=2, tau_grid=[0.1], seed=v),
    ], ids=["scenario", "scenario_list", "cv"])
    def test_seed_is_a_whole_number_at_least_zero(self, make):
        # a float seed used to fail deep inside, in numpy's SeedSequence
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            make(-1)
        with pytest.raises(ValueError, match="^seed must be a whole number"):
            make(1.5)
        make(0)

    def test_whole_float_seed_draws_the_seed_of_its_int(self):
        def draw(seed):
            return sample_scenario(Scenario(
                CovModel.tridiagonal(3), NoiseModel.none(), n=20,
                seed=seed))
        assert draw(1.0).tobytes() == draw(1).tobytes()
        assert draw([1.0, 2.0]).tobytes() == draw([1, 2]).tobytes()

    def test_whole_float_max_iter_matches_its_int(self):
        Y = sample_scenario(Scenario(
            CovModel.tridiagonal(20),
            NoiseModel.gamma_elliptical(np.eye(20), 1.0), n=50.0, seed=5002))
        base = spectral_estimate(Y, 3.0)
        a = pd_soft_threshold(base, PdSoftConfig(tau=0.25, max_iter=500))
        b = pd_soft_threshold(base, PdSoftConfig(tau=0.25, max_iter=500.0))
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_rejects_a_non_symmetric_estimate(self):
        # soft_threshold rejected it, and pd_soft_threshold solved it
        shat = np.array([[2.0, 1.0], [0.5, 2.0]])
        for rule in (lambda m: soft_threshold(m, 0.1),
                     lambda m: pd_soft_threshold(m, PdSoftConfig(tau=0.1))):
            with pytest.raises(ValueError, match="exactly symmetric"):
                rule(shat)

    @pytest.mark.parametrize("p", [2, 20])
    def test_rejects_a_nan_estimate_before_solving(self, p):
        # it used to raise numpy's LinAlgError (p = 20), or run all 10 000
        # iterations into a ConvergenceError with primal = nan (p = 2)
        shat = np.eye(p)
        shat[0, 1] = shat[1, 0] = np.nan
        with pytest.raises(EstimationError, match="non-finite"):
            pd_soft_threshold(shat, PdSoftConfig(tau=0.1))
        with pytest.raises(EstimationError, match="non-finite"):
            pd_soft_threshold([np.eye(p), shat], [PdSoftConfig(tau=0.1)] * 2)


def _tridiagonal_gamma_base(p=20, n=50, seed=0):
    s = Scenario(cov=CovModel.tridiagonal(p),
                 noise=NoiseModel.gamma_elliptical(np.eye(p), 1.0),
                 n=n, seed=seed)
    return spectral_estimate(sample_scenario(s), 1.0)


class TestPdSoftPath:
    """PD-soft along the default CV grid, as the stacked solves CV runs."""

    @pytest.mark.parametrize("rho", [1.0, 20.0])
    def test_kkt_certificate_on_default_grid(self, rho):
        # at a fixed rho = 1 the solver stalled at tau >~ 0.5 on the sps
        # base at p = 20
        lam = 1e-4
        for tag, p in itertools.product(("sps", "pds"), (5, 20)):
            Y = sample_scenario(Scenario(
                cov=CovModel.tridiagonal(p),
                noise=NoiseModel.gamma_elliptical(np.eye(p), 1.0), n=50,
                seed=0))
            base = (spectral_estimate(Y, 1.0) if tag == "sps"
                    else sample_covariance(Y))
            path = pd_soft_threshold([base] * len(DEFAULT_TAU_GRID), [
                PdSoftConfig(tau=tau, lambda_barrier=lam, rho_admm=rho)
                for tau in DEFAULT_TAU_GRID])
            assert [est.tuning["tau"] for est in path] == \
                list(DEFAULT_TAU_GRID)
            for tau, est in zip(DEFAULT_TAU_GRID, path):
                assert pd_soft_kkt_residual(
                    est.matrix, base.matrix, tau, lam) <= 1e-5, \
                    (tag, p, tau, est.tuning)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("scale", [10.0, 20.0, 50.0])
    def test_kkt_certificate_at_scale(self, scale, seed):
        # the zero-set entries of these solutions reach 7e-6; an absolute
        # 1e-6 cutoff held them to the sign rule and read 5 to 8
        shat = scale * _tridiagonal_gamma_base(seed=seed).matrix
        tau, lam = 2.0, 1e-4
        S = pd_soft_threshold(
            shat, PdSoftConfig(tau=tau, lambda_barrier=lam)).matrix
        assert pd_soft_kkt_residual(S, shat, tau, lam) <= 1e-5 * kkt_scale(S)

    @pytest.mark.parametrize("p", [5, 20])
    def test_stacked_solves_match_one_problem_solves(self, p):
        # tau varies within a call and every other setting across the
        # calls, and the stacks of p = 20 hold fewer problems than the grid
        base = _tridiagonal_gamma_base(p=p, seed=1)
        for rho, lam, tol in ((2.0, 1e-4, 1e-7), (20.0, 1e-3, 1e-9),
                              (1e-3, 1e-4, 1e-6)):
            cfgs = [PdSoftConfig(tau=tau, rho_admm=rho, lambda_barrier=lam,
                                 tol=tol) for tau in DEFAULT_TAU_GRID]
            path = pd_soft_threshold([base] * len(cfgs), cfgs)
            for cfg, est in zip(cfgs, path):
                one = pd_soft_threshold(base, cfg)
                assert est.tuning == one.tuning
                np.testing.assert_allclose(
                    est.matrix, one.matrix, rtol=0,
                    atol=1e-12 * np.abs(one.matrix).max())

    def test_converged_problems_leave_the_stack_without_changing_results(self):
        # the problems converge at iterations 1, 36 and 13; each leaves the
        # stack then, and the others go on without it
        base = _tridiagonal_gamma_base()
        cfgs = [PdSoftConfig(tau=tau, rho_admm=1e-3)
                for tau in (5.0, 1e-3, 0.3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = pd_soft_threshold([base] * len(cfgs), cfgs)
            ones = [pd_soft_threshold(base, cfg) for cfg in cfgs]
        assert [est.tuning["iterations"] for est in path] == [1, 36, 13]
        for est, one in zip(path, ones):
            assert est.tuning == one.tuning
            np.testing.assert_allclose(
                est.matrix, one.matrix, rtol=0,
                atol=1e-12 * np.abs(one.matrix).max())

    def test_a_stack_fails_at_its_first_problem_out_of_iterations(self):
        # tau = 5 converges at the first iteration; 0.05 and 0.1 do not
        # within three
        base = _tridiagonal_gamma_base()
        cfgs = [PdSoftConfig(tau=tau, max_iter=3) for tau in (5.0, 0.05, 0.1)]
        with pytest.raises(ConvergenceError, match="tau=0.05") as ei:
            pd_soft_threshold([base] * len(cfgs), cfgs)
        with pytest.raises(ConvergenceError) as alone:
            pd_soft_threshold(base, cfgs[1])
        assert ei.value.iterations == 3
        assert str(ei.value) == str(alone.value)

    @pytest.mark.parametrize("field,value", [
        ("lambda_barrier", 1e-3), ("max_iter", 50), ("tol", 1e-6),
        ("rho_admm", 20.0)])
    def test_configs_of_one_call_differ_only_in_tau(self, field, value):
        base = _tridiagonal_gamma_base(p=5)
        cfgs = [PdSoftConfig(tau=0.1), PdSoftConfig(tau=0.2, **{field: value})]
        with pytest.raises(ValueError, match="differ only in tau"):
            pd_soft_threshold([base] * 2, cfgs)

    def test_stack_memory_is_capped(self, monkeypatch):
        # the peak grows with the grid only by the estimates returned and by
        # one stack per further worker that may solve one at the same time,
        # not by a stack holding every grid point
        p = 20
        base = _tridiagonal_gamma_base(p=p)
        per_stack = shrinkage._STACK // p**2
        assert 1 < per_stack < len(DEFAULT_TAU_GRID)

        def peak(taus):
            cfgs = [PdSoftConfig(tau=tau) for tau in taus]
            tracemalloc.start()
            try:
                pd_soft_threshold([base] * len(cfgs), cfgs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_stack = peak(DEFAULT_TAU_GRID[:per_stack])
        # an estimate is a p x p matrix and its tuning record
        estimates = len(DEFAULT_TAU_GRID) * (8 * p * p + 2048)
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "_WORKERS", workers)
            assert peak(DEFAULT_TAU_GRID) <= workers * one_stack + estimates

    def test_a_draining_stack_is_not_copied(self, monkeypatch):
        # a stack of 20 at p = 20 whose problems converge at iterations 1 to
        # 10 and leave it one group at a time: its arrays keep their rows in
        # place, so its peak holds about 38 p x p arrays per problem, the
        # estimates returned included. Copying the stack's arrays as
        # problems left read 51 (one float64 p x p array is 3200 bytes).
        p, k = 20, 20
        monkeypatch.setattr(shrinkage, "_STACK", k * p**2)
        monkeypatch.setattr(_kernels, "_WORKERS", 1)
        base = _tridiagonal_gamma_base(p=p)
        cfgs = [PdSoftConfig(tau=tau)
                for tau in np.geomspace(1e-3, 2.0, k).tolist()]
        tracemalloc.start()
        try:
            path = pd_soft_threshold([base] * k, cfgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len({est.tuning["iterations"] for est in path}) >= 5
        assert peak <= 42 * k * 8 * p * p

    def test_one_estimate_per_config_matches_one_problem_solves(self):
        # the replications of a simulation config as simulate solves them:
        # one Shat per problem, every setting shared, stacks that drain as
        # their problems converge (after 2 to 56 iterations here)
        spec = load_spec(Path(__file__).resolve().parents[1] / "configs"
                         / "tridiagonal_gamma.yaml")
        samples = [sample_scenario(Scenario(
            cov=spec.scenario.cov, noise=spec.scenario.noise,
            n=spec.scenario.n, seed=[spec.scenario.seed, rep]))
            for rep in range(20)]
        for tag, tuning in spec.estimators:
            if tag not in ("sps", "pds"):
                continue
            bases = [spectral_estimate(Y, tuning["U"]) if tag == "sps"
                     else sample_covariance(Y) for Y in samples]
            cfg = PdSoftConfig(tau=tuning["tau"],
                               lambda_barrier=tuning["lambda"])
            batch = pd_soft_threshold(bases, [cfg] * len(bases))
            with pytest.raises(ValueError, match="2 configs take a sequence"):
                pd_soft_threshold(bases, [cfg] * 2)
            for base, est in zip(bases, batch):
                one = pd_soft_threshold(base, cfg)
                assert est.tuning == one.tuning
                np.testing.assert_array_equal(est.matrix, one.matrix)


    def test_a_sequence_of_configs_takes_one_estimate_each(self):
        base = _tridiagonal_gamma_base(p=5)
        cfgs = [PdSoftConfig(tau=0.1), PdSoftConfig(tau=0.2)]
        for est in (base, base.matrix, np.stack([base.matrix] * 2), [base],
                    [base] * 3):
            with pytest.raises(ValueError, match="2 configs take a sequence"):
                pd_soft_threshold(est, cfgs)


class TestPooledStacks:
    """The stacks of one call run on the kernels' thread pool, and their
    estimates are collected in stack order."""

    P = 20

    def _per_stack(self):
        return shrinkage._STACK // self.P**2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_grid_bitwise_equal_at_any_worker_count(self, monkeypatch,
                                                    workers):
        # three stacks on the default grid's range, so that some worker
        # solves more than one
        base = _tridiagonal_gamma_base(p=self.P)
        taus = np.geomspace(DEFAULT_TAU_GRID[0], DEFAULT_TAU_GRID[-1],
                            3 * self._per_stack()).tolist()
        cfgs = [PdSoftConfig(tau=tau) for tau in taus]
        assert len(cfgs) > 2 * self._per_stack()
        monkeypatch.setattr(_kernels, "_WORKERS", 1)
        serial = pd_soft_threshold([base] * len(cfgs), cfgs)
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        pooled = pd_soft_threshold([base] * len(cfgs), cfgs)
        assert [est.tuning for est in pooled] == [
            est.tuning for est in serial]
        for est, want in zip(pooled, serial):
            np.testing.assert_array_equal(est.matrix, want.matrix)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failure_in_the_second_stack_reaches_the_caller(
            self, monkeypatch, workers):
        # tau = 5 converges at the first iteration and 0.05 not within
        # three, so of three stacks only the second fails
        base = _tridiagonal_gamma_base(p=self.P)
        k = self._per_stack()
        taus = [5.0] * k + [5.0, 0.05] + [5.0] * (k - 2) + [5.0] * k
        cfgs = [PdSoftConfig(tau=tau, max_iter=3) for tau in taus]
        errors = []
        for count in (1, workers):
            monkeypatch.setattr(_kernels, "_WORKERS", count)
            with pytest.raises(ConvergenceError) as ei:
                pd_soft_threshold([base] * len(cfgs), cfgs)
            errors.append(ei.value)
        serial, pooled = errors
        assert str(pooled) == str(serial)
        assert "tau=0.05" in str(pooled)
        assert (pooled.iterations, pooled.primal, pooled.dual, pooled.rho) \
            == (serial.iterations, serial.primal, serial.dual, serial.rho)

    def test_one_stack_runs_inline(self, monkeypatch):
        # a call of one stack, as simulate's blocks at p=20, starts no pool
        monkeypatch.setattr(_kernels, "_pool", None)
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        base = _tridiagonal_gamma_base(p=self.P)
        cfgs = [PdSoftConfig(tau=0.2)] * self._per_stack()
        pd_soft_threshold([base] * len(cfgs), cfgs)
        assert _kernels._pool is None


class TestAndersonAcceleration:
    """The accelerated ADMM of a stack: memory resets, the safeguard,
    determinism."""

    @pytest.fixture
    def aa_events(self, monkeypatch):
        """Counts of the problems whose memory a change of their rho
        clears and of the accelerated points the safeguard rejects."""
        events = {"clears": 0, "rejected": 0}
        step, clear = shrinkage._Anderson.step, shrinkage._Anderson.clear

        def counting_step(self, s, g):
            f_sq = np.vecdot(g - s, g - s)
            events["rejected"] += int(np.count_nonzero(f_sq > self.limit))
            step(self, s, g)

        def counting_clear(self, rows):
            events["clears"] += len(np.arange(len(self.limit))[rows])
            clear(self, rows)

        monkeypatch.setattr(shrinkage._Anderson, "step", counting_step)
        monkeypatch.setattr(shrinkage._Anderson, "clear", counting_clear)
        return events

    def test_rho_rebalancing_clears_the_memory(self, aa_events):
        # rho starts far below its balanced value and climbs by rebalancing
        base = _tridiagonal_gamma_base()
        lam = 1e-4
        path = pd_soft_threshold([base] * len(DEFAULT_TAU_GRID), [
            PdSoftConfig(tau=tau, lambda_barrier=lam, rho_admm=1e-3)
            for tau in DEFAULT_TAU_GRID])
        for tau, est in zip(DEFAULT_TAU_GRID, path):
            assert pd_soft_kkt_residual(est.matrix, base.matrix, tau, lam) \
                <= 1e-5, (tau, est.tuning)
        assert aa_events["clears"] > len(DEFAULT_TAU_GRID)
        # 1402 iterations; plain ADMM took 1611. Extrapolating again right
        # after a rejected point took 8465.
        assert sum(est.tuning["iterations"] for est in path) <= 1610

    def test_rejected_points_still_converge(self, aa_events):
        base = _tridiagonal_gamma_base()
        lam = 1e-4
        path = pd_soft_threshold([base] * len(DEFAULT_TAU_GRID), [
            PdSoftConfig(tau=tau, lambda_barrier=lam, rho_admm=20.0)
            for tau in DEFAULT_TAU_GRID])
        for tau, est in zip(DEFAULT_TAU_GRID, path):
            assert pd_soft_kkt_residual(est.matrix, base.matrix, tau, lam) \
                <= 1e-5, (tau, est.tuning)
        assert aa_events["rejected"] >= 1

    def test_repeated_solves_are_bitwise_identical(self):
        base = _tridiagonal_gamma_base(seed=1)
        cfgs = [PdSoftConfig(tau=tau) for tau in DEFAULT_TAU_GRID]
        a, b = (pd_soft_threshold([base] * len(cfgs), cfgs)
                for _ in range(2))
        assert max(est.tuning["iterations"] for est in a) > 2
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.matrix, y.matrix)
            assert x.tuning == y.tuning


class TestAdmmIterationBudget:
    def test_simulation_config_iteration_count(self):
        # The counts are deterministic: 462 sps + 40 pds iterations at the
        # solver's own start penalty. At a start of 20 they were 545 + 80
        # with Anderson acceleration, 1100 + 109 without it, and 1459 + 440
        # with a projected soft-threshold start and no relaxation either.
        # The bound is about 1.15 times the first.
        spec = load_spec(Path(__file__).resolve().parents[1] / "configs"
                         / "tridiagonal_gamma.yaml")
        total = 0
        for rep in range(20):
            Y = sample_scenario(Scenario(
                cov=spec.scenario.cov, noise=spec.scenario.noise,
                n=spec.scenario.n, seed=[spec.scenario.seed, rep]))
            for tag, tuning in spec.estimators:
                if tag in ("sps", "pds"):
                    total += estimate(tag, Y, tuning).tuning["iterations"]
        assert total <= 580


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
        want = CovModel.tridiagonal(4).matrix() + theta * np.eye(4)
        assert np.abs(got - want).max() < 0.08


class TestPdsBaseline:
    def test_noiseless_small_tau_close_to_sample_cov(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((200, 3))
        cov = sample_covariance(Y).matrix
        got = estimate("pds", Y, {"tau": 1e-9, "lambda": 1e-9}).matrix
        assert np.linalg.norm(got - cov) < 1e-4

    def test_kkt_certificate_2x2(self):
        Y = np.array([[1.0, 0.2], [-0.4, 1.1], [0.3, -0.9], [1.2, 0.5]])
        tau, lam = 0.1, 1e-4
        shat = sample_covariance(Y).matrix
        got = estimate("pds", Y, {"tau": tau, "lambda": lam}).matrix
        assert pd_soft_kkt_residual(got, shat, tau, lam) < 1e-6
        for E in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])):
            assert pd_soft_kkt_residual(got + 1e-4 * E, shat, tau, lam) > 1e-6


def spectral_cv(rule, U):
    """CV's (base, rule): the spectral estimate at radius U of a part, and
    ``rule(estimate, tau)`` applied to one estimate at each grid tau."""
    return (lambda part: spectral_estimate(part, U),
            lambda est, taus: [rule(est, tau) for tau in taus])


class TestCrossValidateTau:
    def test_single_point_grid(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((40, 3))
        cfg = CvConfig(num_splits=3, tau_grid=[0.2], seed=0)
        tau_hat, Q = cross_validate_tau(Y, cfg, *spectral_cv(soft_threshold, 1.0))
        assert tau_hat == 0.2 and len(Q) == 1

    def test_tie_breaks_toward_smaller_tau(self):
        # every entry of the training estimates sits far below both grid
        # points, so hard thresholding returns the zero matrix for both
        # and the scores tie exactly
        rng = np.random.default_rng(10)
        Y = 0.05 * rng.standard_normal((60, 3))
        cfg = CvConfig(num_splits=4, tau_grid=[0.9, 1.0], seed=1)
        tau_hat, Q = cross_validate_tau(Y, cfg, *spectral_cv(hard_threshold, 1.0))
        assert Q[0] == Q[1]
        assert tau_hat == 0.9

    def test_split_sizes(self):
        with pytest.raises(ValueError):
            cross_validate_tau(np.ones((3, 2)),
                               CvConfig(num_splits=1, tau_grid=[0.1]),
                               *spectral_cv(soft_threshold, 1.0))

    def test_fit_must_return_one_estimate_per_tau(self):
        Y = np.random.default_rng(9).standard_normal((40, 3))
        cfg = CvConfig(num_splits=1, tau_grid=[0.1, 0.2], seed=0)
        with pytest.raises(ValueError, match="2 grid points"):
            cross_validate_tau(Y, cfg, sample_covariance,
                               lambda est, taus: [est])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CvConfig(num_splits=1, tau_grid=[])
        with pytest.raises(ValueError):
            CvConfig(num_splits=1, tau_grid=[0.2, 0.1])
        with pytest.raises(ValueError):
            CvConfig(num_splits=1, tau_grid=[-0.1, 0.2])
        for grid in ([np.nan], [np.nan, 0.1], [0.1, np.inf]):
            with pytest.raises(ValueError):
                CvConfig(num_splits=1, tau_grid=grid)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((50, 3))
        cfg = CvConfig(num_splits=5, tau_grid=[0.1, 0.3, 0.6], seed=42)
        base, rule = spectral_cv(soft_threshold, 1.0)
        a = cross_validate_tau(Y, cfg, base, rule)
        b = cross_validate_tau(Y, cfg, base, rule)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_holds_one_training_copy_at_a_time(self, monkeypatch):
        # the peak holds one training part (2.74 MiB at n1 = 17 981,
        # p = 20), the permutation of the rows and the spectral estimate's
        # working set at one worker (one block plus 512 KB, as in
        # test_simgen); the training part of the last split still held
        # while the next is copied would add 2.74 MiB
        n, p = 20_000, 20
        monkeypatch.setattr(_kernels, "_WORKERS", 1)
        Y = np.random.default_rng(22).standard_normal((n, p))
        cfg = CvConfig(num_splits=3, tau_grid=[0.1, 0.2], seed=0)
        n1 = n - int(n / math.log(n))
        tracemalloc.start()
        try:
            cross_validate_tau(Y, cfg, *spectral_cv(soft_threshold, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n1 * p + 8 * n + _BLOCK_BYTES + 2**19

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
        tau_hat, Q = cross_validate_tau(Y, cfg, *spectral_cv(pd_soft, 3.0))
        k = int(np.argmin(Q))
        assert 0 < k < len(grid) - 1
        assert 0.05 <= tau_hat <= 0.8

    def test_equal_configs_compare_equal_and_hash(self):
        # the grid is kept as a tuple of floats, whatever sequence gave it
        a = CvConfig(2, [0.1, 0.2])
        b = CvConfig(2, np.array([0.1, 0.2]))
        assert a == b and hash(a) == hash(b)
        assert a.tau_grid == (0.1, 0.2)
        assert a != CvConfig(2, [0.1, 0.3])


class TestThresholdRiskAudits:
    """Closed-form risk bounds checked on replications where the max-entry
    deviation event holds."""

    def _event_reps(self, reps=40):
        truth = CovModel.tridiagonal(3).matrix()
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


def _nan_entry():
    m = np.eye(3)
    m[0, 1] = m[1, 0] = np.nan
    return m


@pytest.mark.parametrize("bad", [
    pytest.param(_nan_entry(), id="nan"),
    pytest.param(np.ones((2, 3)), id="non-square"),
    pytest.param(np.array([[2.0, 1.0], [0.5, 2.0]]), id="non-symmetric")])
@pytest.mark.parametrize("rule", [
    pytest.param(lambda m: hard_threshold(m, 0.1), id="hard"),
    pytest.param(lambda m: soft_threshold(m, 0.1), id="soft"),
    pytest.param(lambda m: pd_soft_threshold(m, PdSoftConfig(tau=0.1)),
                 id="pd_soft")])
def test_every_threshold_rule_rejects_a_bad_estimate_as_a_value_error(
        rule, bad):
    with pytest.raises(ValueError):
        rule(bad)
