import math
import re
import tracemalloc

import numpy as np
import pytest

from speccov import simgen
from speccov.simgen import (
    CovModel,
    NoiseModel,
    Scenario,
    covariance_sqrt,
    frobenius_error,
    make_block_diagonal,
    make_tridiagonal,
    noise_cf,
    sample_scenario,
    stable_one_sided,
    stable_symmetric,
)
from speccov.spectral import spectral_estimate
from test_charfreq import _PROBE_BLOCK_BYTES, _peak_bytes, _per_worker
from test_charfreq import ecf as empirical_cf


class TestTridiagonal:
    def test_p1(self):
        np.testing.assert_array_equal(make_tridiagonal(1), [[1.0]])

    def test_p3_rows(self):
        expected = np.array([
            [1.0, 0.4, 0.0],
            [0.4, 1.0, 0.4],
            [0.0, 0.4, 1.0],
        ])
        np.testing.assert_array_equal(make_tridiagonal(3), expected)

    def test_p20_eigenvalues_bounded(self):
        w = np.linalg.eigvalsh(make_tridiagonal(20))
        assert w.min() > 1.0 - 0.8
        assert w.max() < 1.0 + 0.8

    def test_sparsity_class_membership(self):
        # 3p-2 nonzero entries, all bounded by 1 in absolute value
        p = 12
        m = make_tridiagonal(p)
        assert np.count_nonzero(m) == 3 * p - 2
        assert np.abs(m).max() == 1.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            make_tridiagonal(0)

    def test_whole_float_p_runs_as_its_int(self):
        np.testing.assert_array_equal(make_tridiagonal(4.0), make_tridiagonal(4))
        with pytest.raises(ValueError, match=r"^p must be a whole number, got 4\.5"):
            make_tridiagonal(4.5)


class TestBlockDiagonal:
    def test_size_one_block_normalizes_to_one(self):
        np.testing.assert_array_equal(make_block_diagonal(1, [1]), [[1.0]])

    @pytest.mark.parametrize("p,sizes", [(6, (2, 2, 2)), (20, (5, 5, 5, 5)),
                                         (7, (3, 4))])
    def test_condition_number_equals_p(self, p, sizes):
        m = make_block_diagonal(p, sizes, seed=1)
        w = np.linalg.eigvalsh(m)
        assert w.min() > 0
        cond = w.max() / w.min()
        assert cond == pytest.approx(p, rel=0.01)

    def test_symmetric_pd_and_deterministic(self):
        a = make_block_diagonal(8, (4, 4), seed=3)
        b = make_block_diagonal(8, (4, 4), seed=3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, a.T)
        assert np.linalg.eigvalsh(a).min() > 0

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            make_block_diagonal(5, (2, 2))

    def test_whole_float_sizes_run_as_their_ints(self):
        # float block sizes used to raise TypeError inside numpy
        np.testing.assert_array_equal(
            make_block_diagonal(7.0, [3.0, 4.0], seed=2.0),
            make_block_diagonal(7, [3, 4], seed=2))

    @pytest.mark.parametrize("args,message", [
        ((0, []), "p must be >= 1, got 0"),
        ((4, [2, 2.5]), "block_sizes must be a list of whole numbers"),
        ((4, [6, -2]), "block_sizes must be >= 0 each"),
        ((4, [2, 2], -1), "seed must be >= 0, got -1"),
    ])
    def test_rejects_bad_arguments(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make_block_diagonal(*args)


class TestCovarianceSqrt:
    def test_square_root_property(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        S = A @ A.T
        r = covariance_sqrt(S)
        np.testing.assert_allclose(r @ r, S, atol=1e-10)
        np.testing.assert_allclose(r, r.T, atol=1e-12)

    def test_clamps_tiny_negative_eigenvalue(self):
        S = np.diag([1.0, -1e-12])
        r = covariance_sqrt(S)
        assert r[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            covariance_sqrt(np.diag([1.0, -0.5]))


class TestSampleScenario:
    def test_identical_scenarios_identical_bytes(self):
        s = Scenario(cov=CovModel.tridiagonal(4),
                     noise=NoiseModel.gamma_elliptical(np.eye(4), 1.0),
                     n=100, seed=7)
        a = sample_scenario(s)
        b = sample_scenario(s)
        assert a.tobytes() == b.tobytes()

    def test_noiseless_identity_sample_covariance(self):
        s = Scenario(cov=CovModel.explicit(np.eye(3)),
                     noise=NoiseModel.none(), n=200_000, seed=1)
        Y = sample_scenario(s)
        np.testing.assert_allclose(Y.T @ Y / len(Y), np.eye(3), atol=0.02)

    def test_gamma_elliptical_noise_covariance(self):
        theta = 1.5
        s = Scenario(cov=CovModel.explicit(np.zeros((3, 3))),
                     noise=NoiseModel.gamma_elliptical(np.eye(3), theta),
                     n=100_000, seed=2)
        eps = sample_scenario(s)
        emp = eps.T @ eps / len(eps)
        np.testing.assert_allclose(emp, theta * np.eye(3),
                                   atol=0.05 * theta)

    def test_returns_a_float64_array(self):
        Y = sample_scenario(Scenario(cov=CovModel.tridiagonal(3),
                                     noise=NoiseModel.gaussian(0.5), n=40))
        assert type(Y) is np.ndarray
        assert Y.dtype == np.float64 and Y.shape == (40, 3)

    def test_rejects_its_own_non_finite_draw(self, monkeypatch):
        def overflow(model, X, rng):
            X[-1, 0] = np.inf

        monkeypatch.setattr(simgen, "_add_noise", overflow)
        with pytest.raises(ValueError,
                           match="sample contains non-finite entries"):
            sample_scenario(Scenario(cov=CovModel.tridiagonal(3),
                                     noise=NoiseModel.none(), n=40))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Scenario(cov=CovModel.tridiagonal(3),
                     noise=NoiseModel.gamma_elliptical(np.eye(2), 1.0), n=10)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Scenario(cov=CovModel.tridiagonal(2), noise=NoiseModel.none(), n=0)

    @pytest.mark.parametrize("noise,bound", [
        (NoiseModel.gamma_elliptical(0.5 * np.eye(20), 1.5), 3.5),
        (NoiseModel.gaussian(0.7), 2.5),
        (NoiseModel.stable(1.5, 0.7, "lbeta"), 4.5),
        (NoiseModel.stable(1.5, 0.7, "l2"), 2.5),
    ])
    def test_peak_memory_is_a_few_outputs(self, noise, bound):
        # the signal and the noise are drawn into the output in place, by
        # row blocks: the peak allocation is the output and a few blocks
        s = Scenario(cov=CovModel.tridiagonal(20), noise=noise, n=20_000,
                     seed=3)
        tracemalloc.start()
        try:
            Y = sample_scenario(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * Y.nbytes

    def test_square_root_computed_once_per_model(self, monkeypatch):
        # the samples of one model share its read-only square root, and
        # each is the normals times covariance_sqrt of the matrix, bitwise
        calls = []
        real = simgen.covariance_sqrt
        monkeypatch.setattr(simgen, "covariance_sqrt",
                            lambda m: calls.append(1) or real(m))
        cov = CovModel.block_diagonal(6, [3, 3], seed=2)
        for seed in range(3):
            Y = sample_scenario(Scenario(cov=cov, noise=NoiseModel.none(),
                                         n=50, seed=seed))
            want = (np.random.default_rng(seed).standard_normal((50, 6))
                    @ real(cov.matrix()))
            assert Y.tobytes() == want.tobytes()
        assert len(calls) == 1
        assert not cov.sqrt().flags.writeable


class TestSamplerBlocks:
    """A draw fills its output in place by row blocks: its working memory
    beyond the output does not grow with n, and it takes and combines the
    same numbers as the whole-array draw."""

    P = 20
    # _row_blocks merges a remainder into the last block, which so runs to
    # one row short of two blocks (5279 rows at p = 20): shorter blocks
    # would take BLAS's small-matrix kernel and change the draw's bits.
    # The l_beta-stable sampler holds five arrays of a block at its peak;
    # the bound allows six of the longest.
    LONGEST = 2 * simgen._row_blocks(2**20, P)[0].stop - 1
    BOUND = 6 * 8 * P * LONGEST

    @pytest.mark.parametrize("n", [40_000, 160_000, 42_239, 161_039])
    @pytest.mark.parametrize("noise", [
        NoiseModel.none(), NoiseModel.gaussian(0.7),
        NoiseModel.gamma_elliptical(0.5 * np.eye(20), 1.5),
        NoiseModel.stable(1.5, 0.7, "l2"),
        pytest.param(NoiseModel.stable(1.5, 0.7), id="stable_lbeta")],
        ids=lambda m: m.kind)
    def test_peak_beyond_output_is_flat(self, noise, n):
        s = Scenario(cov=CovModel.tridiagonal(self.P), noise=noise, n=n,
                     seed=3)
        assert _peak_bytes(sample_scenario, s) - 8 * n * self.P < self.BOUND

    @pytest.mark.parametrize("n", [40_000, 160_000])
    def test_spectral_estimate_peak_beyond_input_is_flat(self, n):
        # the probe ECF kernel's block of 2**16 float64 per running worker
        # and a few p x p arrays; a flag per entry of Y alone would take
        # 0.8 MB at n=40 000
        Y = sample_scenario(Scenario(cov=CovModel.tridiagonal(self.P),
                                     noise=NoiseModel.none(), n=n, seed=4))
        assert _peak_bytes(spectral_estimate, Y, 1.0) < _per_worker(
            2**20, _PROBE_BLOCK_BYTES)

    @pytest.mark.parametrize("n", [60, 80_000])
    def test_gaussian_draw_equals_whole_array_formula(self, n):
        cov = CovModel.tridiagonal(self.P)
        Y = sample_scenario(Scenario(cov=cov, noise=NoiseModel.gaussian(0.7),
                                     n=n, seed=5))
        rng = np.random.default_rng(5)
        want = (rng.standard_normal((n, self.P)) @ cov.sqrt()
                + 0.7 * rng.standard_normal((n, self.P)))
        assert Y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [60, 80_000])
    def test_gamma_draw_equals_whole_array_formula(self, n):
        cov = CovModel.block_diagonal(self.P, [5, 15], seed=1)
        A = np.random.default_rng(2).standard_normal((self.P, self.P))
        Y = sample_scenario(Scenario(
            cov=cov, noise=NoiseModel.gamma_elliptical(A, 1.5), n=n,
            seed=6))
        rng = np.random.default_rng(6)
        X = rng.standard_normal((n, self.P)) @ cov.sqrt()
        W = rng.gamma(1.5, 1.0, size=n)
        noise = rng.standard_normal((n, self.P)) @ A.T
        want = X + noise * np.sqrt(W)[:, None]
        assert Y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("norm", ["lbeta", "l2"])
    def test_stable_draw_equals_blockwise_formula(self, norm):
        # at p = 20 a row block is 2640 rows (2**20 multiply-adds, rounded
        # up to 48 rows) and the last one takes the remainder, so n = 8000
        # makes three; each block draws its stable noise in turn
        n, beta, sigma = 8_000, 1.5, 0.7
        cov = CovModel.tridiagonal(self.P)
        Y = sample_scenario(Scenario(
            cov=cov, noise=NoiseModel.stable(beta, sigma, norm), n=n,
            seed=7))
        rng = np.random.default_rng(7)
        want = rng.standard_normal((n, self.P)) @ cov.sqrt()
        scale = sigma ** (1.0 / beta)
        for a, b in [(0, 2640), (2640, 5280), (5280, n)]:
            if norm == "lbeta":
                noise = stable_symmetric(rng, beta, (b - a, self.P)) * scale
            else:
                w = np.sqrt(stable_one_sided(rng, beta / 2.0, b - a))
                noise = (rng.standard_normal((b - a, self.P))
                         * (w * (scale * math.sqrt(2.0)))[:, None])
            want[a:b] += noise
        assert Y.tobytes() == want.tobytes()


class TestNoiseCfClosedForms:
    def test_gaussian(self):
        m = NoiseModel.gaussian(0.7)
        u = np.array([1.0, -2.0])
        got = noise_cf(m, u)
        assert got == pytest.approx(math.exp(-0.5 * 0.49 * 5.0))

    def test_gamma_elliptical(self):
        A = np.array([[1.0, 0.2], [0.0, 0.5]])
        m = NoiseModel.gamma_elliptical(A, 2.0)
        u = np.array([0.3, -1.1])
        q = float(u @ A @ A.T @ u)
        assert noise_cf(m, u) == pytest.approx((1 + q / 2.0) ** -2.0)

    def test_stable_lbeta(self):
        m = NoiseModel.stable(1.5, 0.3)
        u = np.array([1.0, -2.0])
        r = 1.0 + 2.0**1.5
        assert noise_cf(m, u) == pytest.approx(math.exp(-0.3 * r))

    def test_stable_l2(self):
        m = NoiseModel.stable(1.0, 0.4, norm="l2")
        u = np.array([3.0, 4.0])
        assert noise_cf(m, u) == pytest.approx(math.exp(-0.4 * 5.0))

    def test_none(self):
        assert noise_cf(NoiseModel.none(), np.zeros(2)) == 1.0 + 0.0j


class TestNoiseSamplersMatchCf:
    """Empirical CFs of pure-noise samples vs closed forms (heavy tails have
    no moments, so the CF is the only usable acceptance check)."""

    N = 100_000

    def _noise_sample(self, model, p, seed):
        s = Scenario(cov=CovModel.explicit(np.zeros((p, p))), noise=model,
                     n=self.N, seed=seed)
        return sample_scenario(s)

    def test_cauchy_univariate(self):
        eps = self._noise_sample(NoiseModel.stable(1.0, 1.0), 1, 3)
        for t in (0.3, 0.9, 1.7):
            got = empirical_cf(eps, np.array([t]))
            assert abs(got - math.exp(-t)) < 3.0 / math.sqrt(self.N)

    def test_stable_lbeta_multivariate(self):
        m = NoiseModel.stable(0.7, 0.2)
        eps = self._noise_sample(m, 2, 4)
        for u in (np.array([0.5, 0.1]), np.array([-1.0, 0.8])):
            got = empirical_cf(eps, u)
            assert abs(got - noise_cf(m, u)) < 3.0 / math.sqrt(self.N)

    def test_stable_l2_isotropic(self):
        m = NoiseModel.stable(1.3, 0.3, norm="l2")
        eps = self._noise_sample(m, 2, 5)
        for u in (np.array([0.6, -0.4]), np.array([1.2, 0.9])):
            got = empirical_cf(eps, u)
            assert abs(got - noise_cf(m, u)) < 3.0 / math.sqrt(self.N)

    def test_gamma_elliptical_identity_mixing(self):
        m = NoiseModel.gamma_elliptical(np.eye(2), 1.0)
        eps = self._noise_sample(m, 2, 6)
        for u in (np.array([0.5, 0.0]), np.array([1.0, -1.0])):
            want = (1.0 + float(u @ u) / 2.0) ** -1.0
            got = empirical_cf(eps, u)
            assert abs(got - want) < 3.0 / math.sqrt(self.N)

    def test_gaussian_noise(self):
        m = NoiseModel.gaussian(0.5)
        eps = self._noise_sample(m, 2, 7)
        u = np.array([1.0, 1.0])
        want = noise_cf(m, u)
        got = empirical_cf(eps, u)
        assert abs(got - want) < 3.0 / math.sqrt(self.N)


class TestStableBuildingBlocks:
    def test_one_sided_positive(self):
        rng = np.random.default_rng(8)
        x = stable_one_sided(rng, 0.5, 10_000)
        assert np.all(x > 0)

    def test_one_sided_laplace_transform(self):
        # E[exp(-s X)] = exp(-s^alpha)
        rng = np.random.default_rng(9)
        x = stable_one_sided(rng, 0.6, 200_000)
        for s in (0.5, 1.0, 2.0):
            got = float(np.mean(np.exp(-s * x)))
            assert got == pytest.approx(math.exp(-s**0.6), abs=0.01)

    def test_one_sided_rejects_alpha_out_of_range(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            stable_one_sided(rng, 1.2, 10)

    def test_symmetric_cf(self):
        rng = np.random.default_rng(11)
        x = stable_symmetric(rng, 1.4, 200_000)
        for t in (0.5, 1.5):
            got = float(np.mean(np.cos(t * x)))
            assert got == pytest.approx(math.exp(-t**1.4), abs=0.01)

    @pytest.mark.parametrize("size", [200_000, (7_000, 20)])
    def test_symmetric_equals_its_whole_array_expression(self, size):
        beta = 1.4
        rng = np.random.default_rng(12)
        V = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
        E = rng.exponential(1.0, size=size)
        want = (np.sin(beta * V) / np.cos(V) ** (1.0 / beta)
                * (np.cos((1.0 - beta) * V) / E) ** ((1.0 - beta) / beta))
        got = stable_symmetric(np.random.default_rng(12), beta, size)
        assert got.tobytes() == want.tobytes()

    def test_one_sided_equals_its_whole_array_expression(self):
        alpha, n = 0.6, 200_000
        rng = np.random.default_rng(13)
        V = rng.uniform(0.0, math.pi, size=n)
        E = rng.exponential(1.0, size=n)
        want = (np.sin((1.0 - alpha) * V)
                * np.sin(alpha * V) ** (alpha / (1.0 - alpha))
                / np.sin(V) ** (1.0 / (1.0 - alpha))
                / E) ** ((1.0 - alpha) / alpha)
        got = stable_one_sided(np.random.default_rng(13), alpha, n)
        assert got.tobytes() == want.tobytes()


class TestModelValidation:
    def test_noise_parameter_checks(self):
        with pytest.raises(ValueError):
            NoiseModel.gamma_elliptical(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            NoiseModel.gaussian(-0.1)
        with pytest.raises(ValueError):
            NoiseModel.stable(2.0, 1.0)
        with pytest.raises(ValueError):
            NoiseModel.stable(1.0, 0.0)
        with pytest.raises(ValueError):
            NoiseModel.stable(1.0, 1.0, norm="l1")

    @pytest.mark.parametrize("make,message", [
        (lambda: NoiseModel.gaussian(math.nan), "rho must be nonnegative"),
        (lambda: NoiseModel.gaussian(math.inf), "rho must be nonnegative"),
        (lambda: NoiseModel.gamma_elliptical(np.eye(3), math.inf),
         "theta must be positive"),
        (lambda: NoiseModel.gamma_elliptical(np.eye(3), math.nan),
         "theta must be positive"),
        (lambda: NoiseModel.gamma_elliptical([[1.0, math.nan], [0.0, 1.0]],
                                             1.0),
         "A must have finite entries"),
        (lambda: NoiseModel.stable(1.0, math.inf), "sigma must be positive"),
        (lambda: NoiseModel.stable(1.0, math.nan), "sigma must be positive"),
    ])
    def test_noise_parameters_must_be_finite(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("matrix,message", [
        ([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]], "square matrix, got shape (2, 3)"),
        ([1.0, 2.0], "square matrix, got shape (2,)"),
        ([[1.0, np.nan], [np.nan, 1.0]], "finite entries"),
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], "positive semidefinite, has eigenvalue"),
    ])
    def test_explicit_covariance_checks(self, matrix, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CovModel.explicit(matrix)

    def test_explicit_covariance_allows_rounding_below_zero(self):
        # a singular matrix whose eigenvalue 0 rounds to about -1e-16
        v = np.ones(5) / math.sqrt(5)
        m = 2.0 * np.outer(v, v)
        assert np.linalg.eigvalsh(m)[0] < 0
        np.testing.assert_array_equal(CovModel.explicit(m).matrix(), m)


class TestFrobeniusError:
    def test_exact_match_is_zero(self):
        S = make_tridiagonal(4)
        assert frobenius_error(S, S) == 0.0

    def test_rank_one_bump_is_one(self):
        S = make_tridiagonal(4)
        e1 = np.eye(4)[0]
        assert frobenius_error(S + np.outer(e1, e1), S) == pytest.approx(1.0)

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        acc = 0.0
        for i in range(5):
            for j in range(5):
                acc += (a[i, j] - b[i, j]) ** 2
        assert frobenius_error(a, b) == pytest.approx(math.sqrt(acc), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_error(np.eye(2), np.eye(3))
