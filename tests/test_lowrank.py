import math
import re
import warnings

import numpy as np
import pytest

from speccov import _kernels, lowrank
from speccov.lowrank import (
    ANNULUS,
    LowRankConfig,
    SolverError,
    bump_weight,
    lambda_threshold,
    lowrank_estimate,
    nuclear_prox,
    sample_annulus,
    _bump_profile,
    _design,
    _surrogate,
)
from speccov.simgen import CovModel, NoiseModel, Scenario, sample_scenario


def _two_dim_problem(lam=0.1):
    """A p=2 noiseless sample with a penalty strong enough to bite."""
    rng = np.random.default_rng(14)
    A = rng.standard_normal((2, 2))
    sc = Scenario(cov=CovModel.explicit(A @ A.T), noise=NoiseModel.none(),
                  n=2000, seed=15)
    cfg = LowRankConfig(U=1.0, lambda_nuc=lam, mc_samples=800,
                        tol=1e-14, max_iter=20_000)
    return sample_scenario(sc), cfg, bump_weight(2)


def _rank_one_problem(p, n=2000):
    """A rank-one covariance observed through gamma-elliptical noise, with
    the default quadrature and a penalty that leaves the estimate nonzero."""
    v = np.ones(p) / math.sqrt(p)
    sc = Scenario(cov=CovModel.explicit(2.0 * np.outer(v, v)),
                  noise=NoiseModel.gamma_elliptical(0.3 * np.eye(p), 1.0),
                  n=n, seed=p)
    cfg = LowRankConfig(U=1.0, lambda_nuc=0.01)
    return sample_scenario(sc), cfg, bump_weight(p)


def _full_surrogate(Y, cfg, w, seed):
    """:func:`_surrogate` with the ECF evaluated at every one of the m
    points, the light ones included."""
    n, p = Y.shape
    D, r = sample_annulus(p, cfg.U, cfg.mc_samples,
                          np.random.default_rng(seed))
    lo, hi = ANNULUS
    vol1 = math.pi ** (p / 2.0) / math.gamma(p / 2.0 + 1.0) * (hi**p - lo**p)
    omega = w(r / cfg.U) * (vol1 / cfg.mc_samples)
    mod = np.abs(_kernels.ecf(Y, D * r[:, None]))
    keep = mod >= 0.5 / math.sqrt(n)
    g = np.zeros(len(mod))
    g[keep] = 2.0 * np.log(mod[keep]) / r[keep] ** 2
    return D, omega, g


def _unit_rows(m, p, seed):
    D = np.random.default_rng(seed).standard_normal((m, p))
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def _mc_stderr(vals, m):
    """Standard error of the m-point Monte Carlo sum whose nonzero terms are
    ``vals``: the points the quadrature skips weigh (to float64) nothing."""
    terms = np.zeros(m)
    terms[:len(vals)] = vals * m
    return float(np.std(terms)) / math.sqrt(m)


def _normal_equations(Y, cfg, w, seed):
    """(G, b, L) of the frozen quadrature: the data fit's gradient at M is
    2 (G vec(M) + b), and L = 2 lambda_max(G) its Lipschitz constant."""
    D, omega, g = _surrogate(Y, cfg, w, seed)
    A = _design(D, omega)
    G = A.T @ A
    return G, A.T @ (np.sqrt(omega) * g), 2.0 * np.linalg.eigvalsh(G)[-1]


def prox_fixed_point_residual(M, Y, cfg, w, seed):
    """|M - prox(M - t grad f(M))| / max(1, |M|) on the frozen quadrature,
    with the PSD nuclear prox at t lam and t = 1/L: M solves the problem
    iff it is this fixed point for some t > 0, so the residual is 0 there."""
    G, b, L = _normal_equations(Y, cfg, w, seed)
    t = 1.0 / L
    grad = 2.0 * (G @ M.ravel() + b).reshape(M.shape)
    step = nuclear_prox(M - t * grad, t * cfg.lambda_nuc)
    return np.linalg.norm(M - step) / max(1.0, np.linalg.norm(M))


class TestDesignMatrix:
    """The weighted design rows sqrt(omega_k) vec(d_k d_k^T) = -sqrt(omega_k)
    vec(Theta_k), for the rank-one designs Theta_k = -d_k d_k^T of unit
    directions d_k."""

    def test_basis_vector(self):
        e1 = np.eye(3)[:1]
        M = np.arange(9.0).reshape(3, 3)
        A = _design(e1, np.ones(1))
        np.testing.assert_array_equal(A, np.outer(e1[0], e1[0]).reshape(1, 9))
        np.testing.assert_array_equal(A @ M.ravel(), [M[0, 0]])

    def test_unit_spectral_norm_and_trace(self):
        for row in _design(_unit_rows(10, 4, seed=0), np.ones(10)):
            theta = -row.reshape(4, 4)
            assert np.linalg.norm(theta, 2) == pytest.approx(1.0)
            assert np.trace(theta) == pytest.approx(-1.0)

    def test_trace_identity_against_quadratic_form(self):
        # sqrt(omega_k) d_k^T S d_k, and the normal equations' quadratic form
        # vec(S)^T G vec(S) = sum_k omega_k (d_k^T S d_k)^2
        D = _unit_rows(7, 3, seed=1)
        rng = np.random.default_rng(2)
        omega = rng.uniform(0.1, 2.0, 7)
        A_ = rng.standard_normal((3, 3))
        S = A_ @ A_.T
        A = _design(D, omega)
        got = A @ S.ravel()
        for k, d in enumerate(D):
            assert got[k] == pytest.approx(math.sqrt(omega[k]) * float(d @ S @ d),
                                           rel=1e-12)
        quad = np.array([float(d @ S @ d) for d in D])
        assert float(S.ravel() @ (A.T @ A) @ S.ravel()) == pytest.approx(
            float(omega @ quad**2), rel=1e-12)

    def test_adjoint_identity(self):
        # A^T c, reshaped, is sum_k c_k sqrt(omega_k) d_k d_k^T, so
        # <A^T c, M> = c . (A vec(M))
        D = _unit_rows(9, 4, seed=3)
        rng = np.random.default_rng(4)
        omega = rng.uniform(0.1, 2.0, 9)
        c = rng.standard_normal(9)
        M = rng.standard_normal((4, 4))
        A = _design(D, omega)
        adj = (A.T @ c).reshape(4, 4)
        np.testing.assert_allclose(adj, (D * (c * np.sqrt(omega))[:, None]).T @ D,
                                   rtol=1e-12, atol=1e-14)
        assert float(np.sum(adj * M)) == pytest.approx(float(c @ (A @ M.ravel())),
                                                       rel=1e-12)


class TestNuclearProx:
    def test_psd_variant_projects(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = np.array([2.0, 0.3, -1.0])
        M = (q * w) @ q.T
        out = nuclear_prox(M, 0.2)
        got = np.linalg.eigvalsh(out)
        np.testing.assert_allclose(sorted(got, reverse=True),
                                   [1.8, 0.1, 0.0], atol=1e-12)


class TestQuadrature:
    def test_sample_radii_inside_annulus(self):
        p, U = 3, 2.0
        D, r = sample_annulus(p, U, 5000, np.random.default_rng(4))
        np.testing.assert_allclose(np.linalg.norm(D, axis=1), 1.0,
                                   rtol=0, atol=1e-12)
        lo, hi = ANNULUS[0] * U, ANNULUS[1] * U
        assert lo <= r.min() and r.max() <= hi
        # uniform on the annulus: r^p is uniform on [lo^p, hi^p]
        t = (r**p - lo**p) / (hi**p - lo**p)
        qs = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(np.quantile(t, qs), qs, rtol=0, atol=0.03)

    def test_weight_mass_recovered_by_mc(self):
        # the importance weights integrate the unit-mass weight, and their
        # d_1^4-weighted sum its isometry constant, at any radius U
        p, U, m = 3, 2.0, 40000
        w = bump_weight(p)
        cfg = LowRankConfig(U=U, lambda_nuc=0.1, mc_samples=m)
        D, omega, _ = _surrogate(np.zeros((1, p)), cfg, w, seed=5)
        for vals, want in ((omega, w.l1_mass),
                           (omega * D[:, 0] ** 4, w.kappa_lower)):
            assert abs(float(np.sum(vals)) - want) < 3 * _mc_stderr(vals, m)

    def test_exact_mass_matches_fine_quadrature(self):
        lo, hi = ANNULUS
        r = np.linspace(lo, hi, 200_001)
        for p in (1, 2, 5, 10, 20):
            radial = float(np.sum(_bump_profile(r) * r ** (p - 1))) \
                * (hi - lo) / 200_000
            area = 2.0 * math.pi ** (p / 2.0) / math.gamma(p / 2.0)
            assert bump_weight(p).mass == pytest.approx(area * radial, rel=1e-12)

    def test_isometry_constants_bracket_weighted_norm(self):
        p, U, m = 3, 1.0, 60000
        w = bump_weight(p)
        cfg = LowRankConfig(U=U, lambda_nuc=0.1, mc_samples=m)
        D, omega, _ = _surrogate(np.zeros((1, p)), cfg, w, seed=6)
        rng = np.random.default_rng(6)
        A_ = rng.standard_normal((p, p))
        A = A_ @ A_.T
        fro_sq = float(np.sum(A * A))
        integrand = (_design(D, omega) @ A.ravel()) ** 2
        got = float(np.sum(integrand))
        # same-sample standard error of the MC integral
        se = _mc_stderr(integrand, m)
        assert got >= w.kappa_lower * fro_sq - 3 * se
        assert got <= w.l1_mass * fro_sq + 3 * se

    def test_weight_function_validation(self):
        from speccov.lowrank import WeightFunction

        with pytest.raises(ValueError):
            WeightFunction(p=2, mass=1.0, kappa_lower=2.0)
        with pytest.raises(ValueError):
            WeightFunction(p=2, mass=0.0, kappa_lower=0.1)
        # a weight that lowrank_estimate would turn into the zero matrix
        for args, message in (
                ({"mass": math.nan}, "mass must be a number, got nan"),
                ({"mass": math.inf}, "mass must be a number, got inf"),
                ({"p": 0}, "p must be >= 1, got 0"),
                ({"kappa_lower": 0.0}, "kappa_lower must be in (0, 1]")):
            with pytest.raises(ValueError, match=re.escape(message)):
                WeightFunction(**{"p": 2, "mass": 1.0, "kappa_lower": 0.1,
                                  **args})


class TestLightPoints:
    """The quadrature skips the points whose weight is at most eps times the
    mean: together they weigh at most eps * sum(omega), so the fit is the
    full quadrature's to float64 precision."""

    @pytest.mark.parametrize("p", [5, 8])
    def test_kept_rows_are_the_full_rows(self, p):
        Y, cfg, w = _rank_one_problem(p)
        D, omega, g = _full_surrogate(Y, cfg, w, seed=0)
        heavy = omega > np.finfo(float).eps * omega.mean()
        assert 0 < heavy.sum() < cfg.mc_samples
        D_k, omega_k, g_k = _surrogate(Y, cfg, w, seed=0)
        np.testing.assert_array_equal(D_k, D[heavy])
        np.testing.assert_array_equal(omega_k, omega[heavy])
        # the ECF sums its rows in blocks sized by the number of points, so
        # g may differ in the last bits; a truncated point's g is 0 in both
        np.testing.assert_allclose(g_k, g[heavy], rtol=1e-12, atol=0)
        assert float(np.sum(omega[~heavy])) <= (
            np.finfo(float).eps * float(np.sum(omega)))

    @pytest.mark.parametrize("p", [5, 8])
    def test_estimate_matches_the_full_quadrature(self, p, monkeypatch):
        Y, cfg, w = _rank_one_problem(p)
        est = lowrank_estimate(Y, cfg, w).matrix
        assert np.linalg.norm(est) > 0.1
        monkeypatch.setattr(lowrank, "_surrogate", _full_surrogate)
        full = lowrank_estimate(Y, cfg, w).matrix
        assert float(np.max(np.abs(est - full))) <= 1e-12


class TestObjective:
    def test_zero_signal_zero_matrix_gives_zero(self):
        Y = np.zeros((20, 2))
        cfg = LowRankConfig(U=1.0, lambda_nuc=0.5, mc_samples=500)
        est = lowrank_estimate(Y, cfg, bump_weight(2), seed=7)
        assert est.tuning["objective_trace"][0] == 0.0
        np.testing.assert_array_equal(est.matrix, np.zeros((2, 2)))

    def test_truncation_rarely_active_on_calibrated_gaussian(self):
        n = 1000
        s = Scenario(cov=CovModel.explicit(0.1 * np.eye(3)),
                     noise=NoiseModel.none(), n=n, seed=9)
        Y = sample_scenario(s)
        # the truncation cutoff is 1/(2 sqrt n); a truncated point's g is 0
        cfg = LowRankConfig(U=1.0, lambda_nuc=0.1, mc_samples=4000)
        _, _, g = _surrogate(Y, cfg, bump_weight(3), seed=10)
        assert (g != 0).mean() >= 0.99


class TestLowRankEstimate:
    def test_rank_one_recovery_from_direct_observations(self):
        v = np.array([1.0, -0.5, 0.8, 0.3])
        S = np.outer(v, v)
        s = Scenario(cov=CovModel.explicit(S), noise=NoiseModel.none(),
                     n=50_000, seed=11)
        Y = sample_scenario(s)
        cfg = LowRankConfig(U=1.0, lambda_nuc=1e-3, mc_samples=4096)
        est = lowrank_estimate(Y, cfg, bump_weight(4), seed=0)
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
        cfg = LowRankConfig(U=1.0, lambda_nuc=1e-3, mc_samples=1024)
        est = lowrank_estimate(Y, cfg, bump_weight(3), seed=1)
        trace = np.asarray(est.tuning["objective_trace"])
        assert np.all(np.diff(trace) <= 1e-12)

    @pytest.mark.parametrize("lam", [1e-3, 0.1])
    def test_prox_fixed_point_certificate(self, lam):
        Y, cfg, w = _two_dim_problem(lam)
        est = lowrank_estimate(Y, cfg, w, seed=3).matrix
        E = np.random.default_rng(17).standard_normal(est.shape)
        E = 0.5 * (E + E.T)
        assert prox_fixed_point_residual(est, Y, cfg, w, seed=3) < 1e-5
        assert prox_fixed_point_residual(
            est + 1e-3 * E / np.linalg.norm(E), Y, cfg, w, seed=3) > 1e-5

    def test_zero_weights_give_the_zero_matrix(self):
        # the single quadrature point of seed 13 gets weight 0, so the fit is
        # constant and its Lipschitz constant 0
        Y = np.random.default_rng(0).standard_normal((100, 5))
        cfg = LowRankConfig(U=1.0, lambda_nuc=0.01, mc_samples=1)
        w = bump_weight(5)
        _, omega, _ = _surrogate(Y, cfg, w, seed=13)
        assert np.all(omega == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = lowrank_estimate(Y, cfg, w, seed=13)
        np.testing.assert_array_equal(est.matrix, np.zeros((5, 5)))
        assert all(v == 0.0 for v in est.tuning["objective_trace"])

    def test_rejects_weight_of_another_dimension(self, monkeypatch):
        def no_ecf(Y, freqs):
            raise AssertionError("ECF evaluated before the weight was checked")

        monkeypatch.setattr(_kernels, "ecf", no_ecf)
        Y = np.random.default_rng(1).standard_normal((100, 5))
        cfg = LowRankConfig(U=1.0, lambda_nuc=0.01, mc_samples=256)
        with pytest.raises(ValueError, match="dimension 2"):
            lowrank_estimate(Y, cfg, bump_weight(2))

    def test_nonconvergence_carries_trace(self):
        rng = np.random.default_rng(16)
        Y = rng.standard_normal((200, 3))
        cfg = LowRankConfig(U=1.0, lambda_nuc=1e-6, mc_samples=512, max_iter=1)
        with pytest.raises(SolverError) as ei:
            lowrank_estimate(Y, cfg, bump_weight(3), seed=0)
        assert ei.value.objective_trace is not None

    @pytest.mark.parametrize("seed,message", [
        (1.5, "seed must be a whole number, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_bad_seed(self, monkeypatch, seed, message):
        # numpy raised TypeError for 1.5, and its own ValueError for -1
        def no_ecf(Y, freqs):
            raise AssertionError("ECF evaluated before the seed was checked")

        monkeypatch.setattr(_kernels, "ecf", no_ecf)
        Y = np.random.default_rng(1).standard_normal((100, 3))
        cfg = LowRankConfig(U=1.0, lambda_nuc=0.01, mc_samples=256)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lowrank_estimate(Y, cfg, bump_weight(3), seed=seed)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LowRankConfig(U=0.5, lambda_nuc=0.1)
        with pytest.raises(ValueError):
            LowRankConfig(U=1.0, lambda_nuc=0.0)
        for kw in (dict(U=np.nan, lambda_nuc=1.0),
                   dict(U=np.inf, lambda_nuc=1.0),
                   dict(U=1.0, lambda_nuc=np.nan),
                   dict(U=1.0, lambda_nuc=1.0, tol=np.nan)):
            with pytest.raises(ValueError):
                LowRankConfig(**kw)


class TestLambdaThreshold:
    def test_noiseless_unit_radius_value(self):
        lam, ok = lambda_threshold(1.0, sigma_norm=0.0, T=0.0, beta=1.0,
                                   gamma=1.5, n=10**4)
        assert lam == pytest.approx(1.5**2 / 100.0)
        assert ok is True

    def test_bias_term_scaling(self):
        huge_n = 10**30
        lam, _ = lambda_threshold(2.0, 0.0, T=0.5, beta=1.0, gamma=1.5, n=huge_n)
        assert lam == pytest.approx(0.5 * 2.0 ** (-1.0), rel=1e-9)

    def test_hypothesis_flag_false_for_tiny_n(self):
        _, ok = lambda_threshold(2.0, 0.0, T=1.0, beta=1.0, gamma=1.5, n=1)
        assert ok is False

    @pytest.mark.parametrize("args,message", [
        ((1.0, math.nan, 1.0, 1.0, 1.5, 100), "sigma_norm must be a number"),
        ((1.0, -1.0, 1.0, 1.0, 1.5, 100), "sigma_norm must be >= 0"),
        ((1.0, 1.0, math.inf, 1.0, 1.5, 100), "T must be a number"),
        ((1.0, 1.0, 1.0, 5.0, 1.5, 100), "beta must be in [0, 2)"),
        ((1.0, 1.0, 1.0, 1.0, 1.0, 100), "gamma must be > sqrt(2)"),
        ((1.0, 1.0, 1.0, 1.0, 1.5, 0), "n must be >= 1"),
        # the radius that LowRankConfig takes
        ((0.5, 0.0, 0.0, 1.0, 1.5, 100), "U must be >= 1, got 0.5"),
    ], ids=["sigma_norm_nan", "sigma_norm_negative", "T_inf", "beta_5",
            "gamma_1", "n_0", "U_half"])
    def test_rejects_bad_constants(self, args, message):
        # NaN used to return (nan, False), beta = 5 and gamma = 1 a value,
        # and n = 0 to raise ZeroDivisionError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            lambda_threshold(*args)
