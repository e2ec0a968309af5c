import math

import numpy as np
import pytest

from speccov.lowrank import (
    ANNULUS,
    LowRankConfig,
    SolverError,
    annulus_volume,
    bump_weight,
    design_matrix,
    lambda_threshold,
    lowrank_estimate,
    lowrank_objective,
    nuclear_norm,
    nuclear_prox,
    sample_annulus,
    weighted_norm_sq,
    _quad_weights,
)
from speccov.simgen import CovModel, NoiseModel, Scenario, sample_scenario


class TestDesignMatrix:
    def test_basis_vector(self):
        p = 3
        e1 = np.eye(p)[0]
        np.testing.assert_array_equal(design_matrix(e1), -np.outer(e1, e1))

    def test_unit_spectral_norm_and_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.standard_normal(4)
            th = design_matrix(u)
            assert np.linalg.norm(th, 2) == pytest.approx(1.0)
            assert np.trace(th) == pytest.approx(-1.0)

    def test_trace_identity_against_quadratic_form(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(3)
        A = rng.standard_normal((3, 3))
        S = A @ A.T
        got = float(np.sum(design_matrix(u) * S))
        assert got == pytest.approx(-float(u @ S @ u) / float(u @ u))

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            design_matrix(np.zeros(3))


class TestNuclearProx:
    def test_singular_value_soft_threshold_exact(self):
        rng = np.random.default_rng(2)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        s = np.array([3.0, 1.5, 0.4, 0.1])
        M = (q1 * s) @ q2.T
        out = nuclear_prox(M, 0.5)
        got = np.linalg.svd(out, compute_uv=False)
        np.testing.assert_allclose(sorted(got, reverse=True),
                                   np.maximum(s - 0.5, 0.0), atol=1e-12)

    def test_psd_variant_projects(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = np.array([2.0, 0.3, -1.0])
        M = (q * w) @ q.T
        out = nuclear_prox(M, 0.2, psd=True)
        got = np.linalg.eigvalsh(out)
        np.testing.assert_allclose(sorted(got, reverse=True),
                                   [1.8, 0.1, 0.0], atol=1e-12)

    def test_nuclear_norm_of_diagonal(self):
        assert nuclear_norm(np.diag([2.0, -3.0])) == pytest.approx(5.0)


class TestQuadrature:
    def test_sample_radii_inside_annulus(self):
        rng = np.random.default_rng(4)
        pts, density = sample_annulus(3, 2.0, 5000, rng)
        r = np.linalg.norm(pts, axis=1)
        assert r.min() >= ANNULUS[0] * 2.0 - 1e-12
        assert r.max() <= ANNULUS[1] * 2.0 + 1e-12
        assert density == pytest.approx(1.0 / annulus_volume(3, 2.0))

    def test_weight_mass_recovered_by_mc(self):
        # the importance weights integrate the weight function itself, whose
        # total mass is scale invariant and precomputed
        p, U, m = 3, 2.0, 40000
        w = bump_weight(p, mc_points=10**6)
        rng = np.random.default_rng(5)
        pts, density = sample_annulus(p, U, m, rng)
        omega = _quad_weights(w, U, pts, density)
        vals = omega * m  # per-point integrand w_U/density
        got = float(np.sum(omega))
        se = float(np.std(vals)) / math.sqrt(m)
        assert abs(got - w.l1_mass) < 3 * se + 1e-12

    def test_isometry_constants_bracket_weighted_norm(self):
        p, U, m = 3, 1.0, 60000
        w = bump_weight(p, mc_points=10**6)
        rng = np.random.default_rng(6)
        pts, density = sample_annulus(p, U, m, rng)
        A_ = rng.standard_normal((p, p))
        A = A_ @ A_.T
        fro_sq = float(np.sum(A * A))
        got = weighted_norm_sq(A, w, U, pts, density)
        # same-sample standard error of the MC integral
        nsq = np.sum(pts**2, axis=1)
        integrand = (np.einsum("ki,ij,kj->k", pts, A, pts) / nsq) ** 2 \
            * _quad_weights(w, U, pts, density) * m
        se = float(np.std(integrand)) / math.sqrt(m)
        assert got >= w.kappa_lower * fro_sq - 3 * se
        assert got <= w.l1_mass * fro_sq + 3 * se

    def test_weight_function_validation(self):
        from speccov.lowrank import WeightFunction

        with pytest.raises(ValueError):
            WeightFunction(radial_profile=lambda r: r, p=2, l1_mass=1.0,
                           kappa_lower=2.0)


class TestObjective:
    def test_zero_signal_zero_matrix_gives_zero(self):
        Y = np.zeros((20, 2))
        cfg = LowRankConfig(U=1.0, lambda_nuc=0.5, mc_samples=500)
        w = bump_weight(2, mc_points=10**5)
        rng = np.random.default_rng(7)
        pts, density = sample_annulus(2, 1.0, 500, rng)
        assert lowrank_objective(np.zeros((2, 2)), Y, cfg, w, pts, density) == 0.0

    def test_penalty_term_is_lambda_times_nuclear_norm(self):
        Y = np.zeros((20, 2))
        lam = 0.7
        cfg = LowRankConfig(U=1.0, lambda_nuc=lam, mc_samples=500)
        w = bump_weight(2, mc_points=10**5)
        rng = np.random.default_rng(8)
        pts, density = sample_annulus(2, 1.0, 500, rng)
        M = np.diag([2.0, -3.0])
        got = lowrank_objective(M, Y, cfg, w, pts, density)
        datafit = weighted_norm_sq(M, w, 1.0, pts, density)
        assert got == pytest.approx(datafit + lam * 5.0, rel=1e-12)

    def test_truncation_rarely_active_on_calibrated_gaussian(self):
        from speccov.lowrank import _cf_targets

        n = 1000
        s = Scenario(cov=CovModel.explicit(0.1 * np.eye(3)),
                     noise=NoiseModel.none(), n=n, seed=9)
        Y = sample_scenario(s)
        cfg = LowRankConfig(U=1.0, lambda_nuc=0.1)  # iota defaults to 1/(2 sqrt n)
        rng = np.random.default_rng(10)
        pts, _ = sample_annulus(3, 1.0, 4000, rng)
        _, keep = _cf_targets(Y, cfg, pts)
        assert keep.mean() >= 0.99


class TestLowRankEstimate:
    def test_rank_one_recovery_from_direct_observations(self):
        v = np.array([1.0, -0.5, 0.8, 0.3])
        S = np.outer(v, v)
        s = Scenario(cov=CovModel.explicit(S), noise=NoiseModel.none(),
                     n=50_000, seed=11)
        Y = sample_scenario(s)
        # the bump weight carries a very small total mass, so "small" lambda
        # means small relative to the data-fit scale set by that mass
        w = bump_weight(4)
        cfg = LowRankConfig(U=1.0, lambda_nuc=1e-3 * w.l1_mass, mc_samples=4096)
        est = lowrank_estimate(Y, cfg, w, seed=0)
        rel = np.linalg.norm(est.matrix - S) / np.linalg.norm(S)
        assert rel < 0.1

    def test_huge_penalty_returns_zero(self):
        rng = np.random.default_rng(12)
        Y = rng.standard_normal((100, 3))
        cfg = LowRankConfig(U=1.0, lambda_nuc=1e6, mc_samples=512)
        est = lowrank_estimate(Y, cfg, bump_weight(3), seed=0)
        np.testing.assert_array_equal(est.matrix, np.zeros((3, 3)))

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((400, 3)) @ np.diag([1.0, 0.7, 0.2])
        w = bump_weight(3)
        cfg = LowRankConfig(U=1.0, lambda_nuc=1e-3 * w.l1_mass, mc_samples=1024)
        est = lowrank_estimate(Y, cfg, w, seed=1)
        trace = np.asarray(est.tuning["objective_trace"])
        assert np.all(np.diff(trace) <= 1e-12)

    def test_matches_convex_solver_on_frozen_quadrature(self):
        cp = pytest.importorskip("cvxpy")
        from speccov.lowrank import _cf_targets

        p = 2
        rng = np.random.default_rng(14)
        A = rng.standard_normal((p, p))
        S = A @ A.T
        sc = Scenario(cov=CovModel.explicit(S), noise=NoiseModel.none(),
                      n=2000, seed=15)
        Y = sample_scenario(sc)
        w = bump_weight(p)
        lam = 0.1 * w.l1_mass  # strong enough to bite, weak enough to keep rank
        cfg = LowRankConfig(U=1.0, lambda_nuc=lam, mc_samples=800,
                            tol=1e-14, max_iter=20_000)
        est = lowrank_estimate(Y, cfg, w, seed=3)

        # rebuild the same frozen surrogate the solver saw
        quad, density = sample_annulus(p, cfg.U, cfg.mc_samples,
                                       np.random.default_rng(3))
        omega = _quad_weights(w, cfg.U, quad, density)
        g, _ = _cf_targets(Y, cfg, quad)
        M = cp.Variable((p, p), PSD=True)
        theta = -np.einsum("ki,kj->kij", quad, quad) / \
            np.sum(quad**2, axis=1)[:, None, None]
        # theta_k and M are both symmetric, so the vectorization order is moot
        resid = g - theta.reshape(len(g), -1) @ cp.vec(M, order="F")
        # normalize by the (tiny) weight mass; scaling the objective does not
        # move the minimizer but keeps the conic solver well-conditioned
        scale = 1.0 / w.l1_mass
        prob = cp.Problem(cp.Minimize(
            cp.sum(cp.multiply(scale * omega, cp.square(resid)))
            + (scale * lam) * cp.trace(M)))
        prob.solve(solver=cp.CLARABEL)
        assert np.linalg.norm(est.matrix - M.value) < 1e-5

    def test_nonconvergence_carries_trace(self):
        rng = np.random.default_rng(16)
        Y = rng.standard_normal((200, 3))
        w = bump_weight(3)
        cfg = LowRankConfig(U=1.0, lambda_nuc=1e-6 * w.l1_mass, mc_samples=512,
                            max_iter=1)
        with pytest.raises(SolverError) as ei:
            lowrank_estimate(Y, cfg, w, seed=0)
        assert ei.value.objective_trace is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LowRankConfig(U=0.5, lambda_nuc=0.1)
        with pytest.raises(ValueError):
            LowRankConfig(U=1.0, lambda_nuc=0.0)
        with pytest.raises(ValueError):
            LowRankConfig(U=1.0, lambda_nuc=0.1, iota=-1.0)


class TestLambdaThreshold:
    def test_noiseless_unit_radius_value(self):
        cfg = LowRankConfig(U=1.0, lambda_nuc=0.1)
        lam, ok = lambda_threshold(cfg, sigma_norm=0.0, T=0.0, beta=1.0,
                                   gamma=1.5, n=10**4)
        assert lam == pytest.approx(1.5**2 / 100.0)
        assert ok is True

    def test_bias_term_scaling(self):
        cfg = LowRankConfig(U=2.0, lambda_nuc=0.1)
        huge_n = 10**30
        lam, _ = lambda_threshold(cfg, 0.0, T=0.5, beta=1.0, gamma=1.5, n=huge_n)
        assert lam == pytest.approx(0.5 * 2.0 ** (-1.0), rel=1e-9)

    def test_hypothesis_flag_false_for_tiny_n(self):
        cfg = LowRankConfig(U=2.0, lambda_nuc=0.1)
        _, ok = lambda_threshold(cfg, 0.0, T=1.0, beta=1.0, gamma=1.5, n=1)
        assert ok is False
