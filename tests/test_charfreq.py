import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from speccov import _kernels
from speccov.charfreq import (
    SampleMatrix,
    direction_vector,
    empirical_cf,
    log_modulus_cf,
    probe_log_moduli,
)


class TestSampleMatrix:
    def test_wraps_2d_array(self):
        s = SampleMatrix(np.ones((3, 2)))
        assert s.n == 3 and s.p == 2

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.ones(4))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.ones((0, 3)))


class TestEmpiricalCf:
    def test_single_observation_has_unit_modulus(self):
        y = np.array([[0.3, -1.2, 4.0]])
        u = np.array([1.0, 2.0, -0.5])
        out = empirical_cf(y, u)
        assert out.value == pytest.approx(np.exp(1j * float(u @ y[0])))
        assert out.modulus == pytest.approx(1.0)

    def test_zero_frequency_is_exactly_one(self):
        rng = np.random.default_rng(0)
        out = empirical_cf(rng.standard_normal((50, 3)), np.zeros(3))
        assert out.value == 1.0 + 0.0j

    def test_two_point_sample_at_pi(self):
        # (exp(i*pi) + exp(-i*pi)) / 2 = cos(pi) = -1
        Y = np.array([[1.0, 0.0], [-1.0, 0.0]])
        out = empirical_cf(Y, np.array([np.pi, 0.0]))
        assert out.value.real == pytest.approx(-1.0, abs=1e-12)
        assert abs(out.value.imag) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            empirical_cf(np.ones((2, 3)), np.ones(2))

    @given(
        arrays(np.float64, (7, 2), elements=st.floats(-50, 50)),
        arrays(np.float64, (2,), elements=st.floats(-20, 20)),
    )
    @settings(max_examples=60, deadline=None)
    def test_modulus_at_most_one(self, Y, u):
        assert empirical_cf(Y, u).modulus <= 1.0 + 1e-12 * Y.shape[0]

    @given(
        arrays(np.float64, (5, 3), elements=st.floats(-50, 50)),
        arrays(np.float64, (3,), elements=st.floats(-20, 20)),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, Y, u):
        a = empirical_cf(Y, u).value
        b = empirical_cf(Y, -u).value
        assert a == pytest.approx(np.conj(b), abs=1e-12)


class TestLogModulusCf:
    def test_zero_frequency_gives_zero(self):
        rng = np.random.default_rng(1)
        assert log_modulus_cf(rng.standard_normal((10, 2)), np.zeros(2)) == 0.0

    def test_vanishing_modulus_convention(self):
        # cos(pi/2) = 0 exactly in real arithmetic; in floats the mean lands
        # at ~6e-17, so the cutoff must be set above that to see the rule
        Y = np.array([[1.0, 0.0], [-1.0, 0.0]])
        u = np.array([np.pi / 2.0, 0.0])
        assert log_modulus_cf(Y, u, zero_tol=1e-10) == 0.0

    def test_default_cutoff_is_tiny(self):
        Y = np.array([[1.0, 0.0], [-1.0, 0.0]])
        u = np.array([np.pi / 2.0, 0.0])
        # without a raised cutoff the float residue survives the log
        assert log_modulus_cf(Y, u) < -30.0

    def test_gaussian_large_sample_matches_theory(self):
        # standard normal in 2d: log|cf(e_1)| = -1/2
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((200_000, 2))
        got = log_modulus_cf(Y, np.array([1.0, 0.0]))
        assert got == pytest.approx(-0.5, abs=0.02)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_row_permutation_invariance(self, perm):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((6, 2))
        u = np.array([0.7, -0.4])
        base = log_modulus_cf(Y, u)
        assert log_modulus_cf(Y[perm], u) == pytest.approx(base, abs=1e-12)


class TestDirectionVector:
    def test_diagonal_is_basis_vector(self):
        np.testing.assert_array_equal(direction_vector(1, 1, 3), [1.0, 0.0, 0.0])

    def test_offdiagonal_pair(self):
        np.testing.assert_allclose(
            direction_vector(1, 2, 2), [1 / np.sqrt(2)] * 2, rtol=0, atol=0
        )

    @pytest.mark.parametrize("i,j,p", [(1, 1, 1), (2, 5, 7), (3, 3, 3)])
    def test_unit_norm(self, i, j, p):
        assert np.linalg.norm(direction_vector(i, j, p)) == pytest.approx(1.0)

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 4), (-1, 2)])
    def test_out_of_range(self, i, j):
        with pytest.raises(IndexError):
            direction_vector(i, j, 3)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_probe_quadratic_form_identity(self, i, j):
        # <u_ij, S u_ij> = s_ij + (s_ii + s_jj)/2 for i != j
        p = 6
        rng = np.random.default_rng(4)
        A = rng.standard_normal((p, p))
        S = A + A.T
        u = direction_vector(i, j, p)
        quad = float(u @ S @ u)
        if i == j:
            expected = S[i - 1, i - 1]
        else:
            expected = S[i - 1, j - 1] + 0.5 * (S[i - 1, i - 1] + S[j - 1, j - 1])
        assert quad == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestProbeLogModuli:
    def test_matches_per_frequency_evaluation(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((40, 4))
        U = 1.7
        diag, pair = probe_log_moduli(Y, U)
        for i in range(4):
            want = log_modulus_cf(Y, U * direction_vector(i + 1, i + 1, 4))
            assert diag[i] == pytest.approx(want, abs=1e-10)
            for j in range(i + 1, 4):
                want = log_modulus_cf(Y, U * direction_vector(i + 1, j + 1, 4))
                assert pair[i, j] == pytest.approx(want, abs=1e-10)

    def test_pair_block_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        _, pair = probe_log_moduli(rng.standard_normal((30, 5)), 2.0)
        assert np.array_equal(pair, pair.T)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            probe_log_moduli(np.ones((3, 2)), 0.0)


def _probe_cf_loops(Y, U):
    """Direct-summation oracle for ``_kernels.probe_cf``."""
    n, p = Y.shape
    cf_diag = np.zeros(p, dtype=np.complex128)
    cf_pair = np.zeros((p, p), dtype=np.complex128)
    z = np.empty(p, dtype=np.complex128)
    c = U / np.sqrt(2.0)
    for k in range(n):
        for i in range(p):
            cf_diag[i] += np.exp(1j * U * Y[k, i])
            z[i] = np.exp(1j * c * Y[k, i])
        for i in range(p):
            for j in range(p):
                cf_pair[i, j] += z[i] * z[j]
    return cf_diag / n, cf_pair / n


def _ecf_loops(Y, freqs):
    """Direct-summation oracle for ``_kernels.ecf``."""
    n, p = Y.shape
    m = freqs.shape[0]
    out = np.zeros(m, dtype=np.complex128)
    for k in range(n):
        for l in range(m):
            t = 0.0
            for i in range(p):
                t += freqs[l, i] * Y[k, i]
            out[l] += np.exp(1j * t)
    return out / n


class TestKernelPaths:
    """The vectorised kernels must agree with direct summation."""

    def test_probe_cf_paths_agree(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((200, 6))
        d_np, p_np = _kernels.probe_cf(Y, 1.3)
        d_lp, p_lp = _probe_cf_loops(Y, 1.3)
        np.testing.assert_allclose(d_np, d_lp, atol=1e-12)
        np.testing.assert_allclose(p_np, p_lp, atol=1e-12)

    def test_ecf_paths_agree(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((150, 3))
        F = rng.standard_normal((17, 3))
        np.testing.assert_allclose(
            _kernels.ecf(Y, F), _ecf_loops(Y, F), atol=1e-12
        )
