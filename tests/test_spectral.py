import cmath
import math
import re

import numpy as np
import pytest

from speccov.spectral import (
    CovEstimate,
    EstimationError,
    PreAsymptoticError,
    _assemble,
    admissible,
    gaussian_generator,
    spectral_estimate,
    spectral_radius_star,
    stable_generator,
    tau_threshold,
    theoretical_rate,
)
from test_charfreq import direction


def random_pd(p, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, p))
    return A @ A.T / p + 0.5 * np.eye(p)


def exact_cf_estimate(cf, p, U, gen=gaussian_generator()):
    """Spectral estimate assembled from a closed-form characteristic function
    evaluated at the probe frequencies U * u_ij."""
    def logmod(i, j):
        return math.log(abs(complex(cf(U * direction(i + 1, j + 1, p)))))

    return _assemble(np.array([[logmod(i, j) for j in range(p)]
                               for i in range(p)]), U, gen)


# U, R, T, beta and gamma of tau_threshold and admissible
THEORY = dict(U=1.0, R=1.0, T=1.0, beta=1.0, gamma=1.5)


class TestTheoryConstants:
    """tau_threshold and admissible check their constants alike."""

    def test_valid(self):
        theory = dict(THEORY, T=0.5)
        assert tau_threshold(**theory, n=100, p=5) > 0
        assert admissible(**theory, n=100, p=5) is False

    @pytest.mark.parametrize(
        "kw",
        [
            dict(U=0.0, R=1, T=1, beta=1),
            dict(U=1, R=1, T=1, beta=2.0),
            dict(U=1, R=1, T=1, beta=-0.1),
            dict(U=1, R=0, T=1, beta=1),
            dict(U=1, R=1, T=0, beta=1),
            dict(U=1, R=1, T=1, beta=1, gamma=1.4),
            dict(U=math.nan, R=1, T=1, beta=1),
            dict(U=math.inf, R=1, T=1, beta=1),
            dict(U=1, R=math.nan, T=1, beta=1),
            dict(U=1, R=1, T=math.inf, beta=1),
            dict(U=1, R=1, T=1, beta=math.nan),
            dict(U=1, R=1, T=1, beta=1, gamma=math.nan),
            dict(U=1, R=1, T=1, beta=1, gamma=math.inf),
        ],
    )
    def test_invalid(self, kw):
        theory = dict(THEORY, **kw)
        with pytest.raises(ValueError) as tau_error:
            tau_threshold(**theory, n=100, p=5)
        with pytest.raises(ValueError) as admissible_error:
            admissible(**theory, n=100, p=5)
        assert str(tau_error.value) == str(admissible_error.value)

    @pytest.mark.parametrize("kw,message", [
        (dict(gamma=1.4), "gamma must be > sqrt(2), got 1.4"),
        (dict(U=math.nan), "U must be a number, got nan"),
        (dict(beta=2.0, n=0), "beta must be in [0, 2), got 2.0"),
    ])
    def test_messages_name_the_constant(self, kw, message):
        # the wording of the checks that the helpers' constants had as
        # fields of one config object; a bad constant is named before n
        theory = {**THEORY, "n": 100, "p": 5, **kw}
        for helper in (tau_threshold, admissible):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                helper(**theory)


class TestCovEstimate:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CovEstimate(np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(EstimationError):
            CovEstimate(np.full((2, 2), np.inf))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            CovEstimate(np.ones((2, 3)))


class TestExactCfRecovery:
    @pytest.mark.parametrize("U", [0.5, 1.0, 2.5])
    def test_gaussian_cf_recovers_sigma(self, U):
        S = random_pd(4, 0)
        cf = lambda u: np.exp(-0.5 * float(u @ S @ u))
        est = exact_cf_estimate(cf, 4, U)
        np.testing.assert_allclose(est.matrix, S, atol=1e-12)

    def test_diagonal_entries_depend_only_on_own_variance(self):
        # for diagonal covariances, changing sigma_22 must not move sigma_11
        for s22 in (0.5, 1.0, 3.0):
            S = np.diag([0.7, s22, 1.3])
            cf = lambda u: np.exp(-0.5 * float(u @ S @ u))
            est = exact_cf_estimate(cf, 3, 1.0)
            assert est.matrix[0, 0] == pytest.approx(0.7, abs=1e-12)

    def test_stable_generator_cf_recovers_sigma(self):
        S = random_pd(3, 1)
        gen = stable_generator(1.0)
        cf = lambda u: np.exp(-math.sqrt(float(u @ S @ u)))
        est = exact_cf_estimate(cf, 3, 1.5, gen)
        np.testing.assert_allclose(est.matrix, S, atol=1e-10)

    def test_modulus_above_one_clamps_to_zero(self):
        est = exact_cf_estimate(lambda u: 1.05, 3, 1.0)
        np.testing.assert_array_equal(est.matrix, np.zeros((3, 3)))

    def test_eta_inv_domain_violation_raises(self):
        def log_inv(y):  # eta_inv of eta = exp
            with np.errstate(divide="ignore"):
                return np.log(y)  # -inf at the clamped value 0

        with pytest.raises(EstimationError, match=r"at probe \(0, 0\)"):
            exact_cf_estimate(lambda u: 1.05, 2, 1.0, log_inv)


def oracle_spectral(Y, U):
    """Independent direct-summation evaluation of the probe estimator."""
    n, p = Y.shape

    def logmod(u):
        s = sum(cmath.exp(1j * sum(u[i] * Y[k, i] for i in range(p)))
                for k in range(n)) / n
        return math.log(abs(s))

    out = np.zeros((p, p))
    for i in range(p):
        e = np.zeros(p)
        e[i] = U
        out[i, i] = -2.0 * logmod(e) / U**2
    for i in range(p):
        for j in range(i + 1, p):
            u = np.zeros(p)
            u[i] = u[j] = U / math.sqrt(2.0)
            q = -2.0 * logmod(u) / U**2
            out[i, j] = out[j, i] = q - 0.5 * (out[i, i] + out[j, j])
    return out


class TestSpectralEstimate:
    def test_tiny_dataset_matches_direct_summation_oracle(self):
        Y = np.array([
            [0.3, -1.1],
            [1.4, 0.2],
            [-0.7, 0.9],
            [0.1, -0.4],
        ])
        est = spectral_estimate(Y, 1.0)
        np.testing.assert_allclose(est.matrix, oracle_spectral(Y, 1.0), atol=1e-12)

    def test_larger_dataset_matches_oracle(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((60, 3))
        est = spectral_estimate(Y, 2.0)
        np.testing.assert_allclose(est.matrix, oracle_spectral(Y, 2.0), atol=1e-11)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        est = spectral_estimate(rng.standard_normal((50, 6)), 3.0)
        assert np.array_equal(est.matrix, est.matrix.T)

    def test_metadata(self):
        rng = np.random.default_rng(12)
        est = spectral_estimate(rng.standard_normal((20, 2)), 1.5)
        assert est.tuning == {"U": 1.5}


class TestEllipticalReduction:
    def test_gaussian_generator_bitwise_equal(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            Y = rng.standard_normal((30 + 10 * trial, 4))
            a = spectral_estimate(Y, 2.0)
            b = spectral_estimate(Y, 2.0, gaussian_generator())
            assert np.array_equal(a.matrix, b.matrix)

    def test_generator_inverse_roundtrip(self):
        # each generator is eta_inv of its closed-form eta
        x = np.geomspace(1e-3, 10.0, 50)
        pairs = [(gaussian_generator(), 0.5 * x)] + [
            (stable_generator(a), x ** (a / 2.0)) for a in (0.7, 1.3)]
        for eta_inv, eta_x in pairs:
            np.testing.assert_allclose(eta_inv(eta_x), x, rtol=1e-9)

    @pytest.mark.parametrize("alpha,message", [
        (0.0, "alpha must be in (0, 2], got 0.0"),
        (2.5, "alpha must be in (0, 2], got 2.5"),
        (math.nan, "alpha must be a number, got nan"),
    ])
    def test_stable_generator_rejects_alpha_outside_0_2(self, alpha, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stable_generator(alpha)
        # the closed end of the range is the Gaussian generator
        assert stable_generator(2.0)(3.0) == 3.0


class TestTauThreshold:
    def test_direct_substitution_value(self):
        # beta=0, T negligible: tau = 6 gamma e^R sqrt(log(ep)/n) + 3T
        g = math.sqrt(2) + 0.01
        got = tau_threshold(1.0, 1.0, 1e-12, 0.0, g, 10**6, 1)
        assert got == pytest.approx(6.0 * g * math.e * 1e-3, rel=1e-6)

    def test_direct_substitution_scaled_sample_size(self):
        g = math.sqrt(2) + 0.01
        n = round(math.e * 10**6)
        expected = 6.0 * g * math.exp(1.0) * math.sqrt(1.0 / n) + 3e-12
        assert tau_threshold(1.0, 1.0, 1e-12, 0.0, g, n, 1) == \
            pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n,p,message", [
        (math.nan, 5, "n must be a whole number, got nan"),
        (10**4, 2.5, "p must be a whole number, got 2.5"),
        (10**4, 0, "p must be >= 1, got 0"),
    ])
    def test_rejects_bad_sizes(self, n, p, message):
        # NaN used to return NaN
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tau_threshold(**THEORY, n=n, p=p)

    def test_noiseless_limit_proportional_to_sqrt_log_over_n(self):
        theory = dict(THEORY, R=0.5, T=1e-300, beta=0.0)
        a = tau_threshold(**theory, n=10**4, p=3)
        b = tau_threshold(**theory, n=4 * 10**4, p=3)
        assert a / b == pytest.approx(2.0, rel=1e-9)

    def test_bias_term_decreases_in_u(self):
        # suppress the stochastic term with a huge n
        n = 10**30
        vals = [
            tau_threshold(U, 1e-9, 1.0, 0.5, 1.5, n, 2)
            for U in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            tau_threshold(**THEORY, n=0, p=1)

    @pytest.mark.parametrize("kw", [
        dict(U=30.0), dict(U=2.0, R=200.0), dict(U=1e200), dict(U=1e-200)])
    def test_out_of_float_range_is_inf(self, kw):
        # exp(R U^2 + 3 T U^beta) or U^2 leaves float64's range: each used
        # to raise OverflowError, or ZeroDivisionError where U^2 is 0
        assert tau_threshold(**dict(THEORY, **kw), n=1000, p=10) == math.inf


class TestAdmissible:
    def test_large_n_small_constants(self):
        assert admissible(1.0, 0.01, 0.01, 1.0, 1.5, 10**6, 2) is True

    def test_tiny_n_huge_p(self):
        assert admissible(**THEORY, n=10, p=10**6) is False

    def test_reduces_to_stochastic_condition_in_the_limit(self):
        # with R, T negligible the condition is 8 gamma sqrt(log(ep)/n) < 1
        theory = dict(THEORY, R=1e-12, T=1e-12, beta=0.0)
        assert admissible(**theory, n=10**4, p=2) is True
        assert admissible(**theory, n=100, p=2) is False

    @pytest.mark.parametrize("n,p,message", [
        (0, 5, "n must be >= 1, got 0"),
        (math.nan, 5, "n must be a whole number, got nan"),
        (10**4, math.inf, "p must be a whole number, got inf"),
    ])
    def test_rejects_bad_sizes(self, n, p, message):
        # n = 0 used to raise ZeroDivisionError, and NaN to return False
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            admissible(**THEORY, n=n, p=p)

    @pytest.mark.parametrize("U", [30.0, 1e200])
    def test_out_of_float_range_is_false(self, U):
        # exp(-R U^2 - 3 T U^beta) is 0 there; U^2 used to raise
        # OverflowError at U = 1e200
        assert admissible(**dict(THEORY, U=U), n=10**30, p=1) is False


class TestSpectralRadiusStar:
    def test_value_matches_formula(self):
        # R=1/4 and inner log ~ 1 puts U* ~ 1
        n, p, g = 392, 1, 1.5
        expected = math.sqrt(math.log(n / (64 * g**2)) / 1.0)
        got = spectral_radius_star(0.25, g, n, p)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.0, abs=0.01)

    def test_doubling_r_halves_square(self):
        a = spectral_radius_star(0.1, 1.5, 10**5, 4)
        b = spectral_radius_star(0.2, 1.5, 10**5, 4)
        assert a**2 == pytest.approx(2.0 * b**2, rel=1e-12)

    def test_small_n_raises(self):
        with pytest.raises(PreAsymptoticError):
            spectral_radius_star(0.25, 1.5, 100, 1)

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            spectral_radius_star(-1.0, 1.5, 10**4, 2)
        with pytest.raises(ValueError):
            spectral_radius_star(1.0, 1.0, 10**4, 2)
        for R, gamma, name in [(math.nan, 1.5, "R"), (math.inf, 1.5, "R"),
                               (1.0, math.nan, "gamma"),
                               (1.0, math.inf, "gamma")]:
            with pytest.raises(ValueError, match=f"^{name} must"):
                spectral_radius_star(R, gamma, 10**6, 5)

    def test_gamma_out_of_float_range_is_pre_asymptotic(self):
        # gamma^2 leaves float64's range, where it used to raise
        # OverflowError: n / (64 gamma^2 log(ep)) is then below 1
        with pytest.raises(PreAsymptoticError):
            spectral_radius_star(1.0, 1e200, 10**6, 5)

    @pytest.mark.parametrize("n,p,name", [
        (math.nan, 5, "n"), (0, 5, "n"), (10**6, math.nan, "p"),
        (10**6, 0, "p"),
    ])
    def test_rejects_bad_sizes(self, n, p, name):
        # NaN used to return NaN
        with pytest.raises(ValueError, match=f"^{name} must"):
            spectral_radius_star(1.0, 1.5, n, p)


class TestTheoreticalRate:
    def test_q0_beta0_closed_form(self):
        S, n, p = 4.0, 10**4, 10
        L = math.log(n / math.log(math.e * p))
        assert theoretical_rate(S, 1.0, 1.0, 0.0, 0.0, n, p) == pytest.approx(
            math.sqrt(S) / L
        )

    def test_decreasing_in_n(self):
        vals = [
            theoretical_rate(2.0, 1.0, 0.5, 1.0, 0.0, n, 5)
            for n in (10**3, 10**4, 10**5)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_beta_near_two_loses_decay(self):
        got = theoretical_rate(4.0, 3.0, 0.7, 1.999999, 0.0, 10**6, 5)
        assert got == pytest.approx(2.0 * 0.7, rel=1e-3)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            theoretical_rate(1.0, 1.0, 1.0, 1.0, 2.0, 10**3, 2)

    @pytest.mark.parametrize("S,R,T,name", [
        (math.nan, 1.0, 1.0, "S"), (math.inf, 1.0, 1.0, "S"),
        (-1.0, 1.0, 1.0, "S"), (1.0, -1.0, 1.0, "R"),
        (1.0, math.nan, 1.0, "R"), (1.0, 1.0, -1.0, "T"),
        (1.0, 1.0, math.inf, "T"),
    ])
    def test_rejects_bad_constants(self, S, R, T, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            theoretical_rate(S, R, T, 1.0, 0.0, 10**6, 5)

    @pytest.mark.parametrize("n,p,name", [
        (math.nan, 5, "n"), (10**6, 0, "p"), (10**6, 1.5, "p"),
    ])
    def test_rejects_bad_sizes(self, n, p, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            theoretical_rate(1.0, 1.0, 1.0, 1.0, 0.0, n, p)

    def test_rejects_n_at_most_log_ep(self):
        # log(5e) = 2.61, so L = log(n / log(ep)) <= 0 at n = 2
        with pytest.raises(ValueError, match=re.escape(
                "needs n > log(ep), got n=2, p=5")):
            theoretical_rate(1.0, 1.0, 1.0, 1.0, 0.0, 2, 5)
        assert theoretical_rate(1.0, 1.0, 1.0, 1.0, 0.0, 3, 5) > 0
