"""The empirical characteristic function (ECF): the sample check, the
kernels of :mod:`speccov._kernels` and the probe geometry of
:func:`speccov.spectral.probe_log_moduli`."""

import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from speccov import _kernels, spectral
from speccov.shrinkage import sample_covariance
from speccov.spectral import EstimationError, probe_log_moduli, spectral_estimate


def direction(i, j, p):
    """Unit probe direction u_ij of the (i, j) entry, 1-based indices:
    e_i when i == j, (e_i + e_j)/sqrt(2) otherwise."""
    u = np.zeros(p)
    if i == j:
        u[i - 1] = 1.0
    else:
        u[i - 1] = u[j - 1] = 1.0 / np.sqrt(2.0)
    return u


def ecf(Y, u):
    """ECF of the rows of Y at one frequency u."""
    return complex(_kernels.ecf(np.asarray(Y, dtype=float),
                                np.asarray(u, dtype=float)[None, :])[0])


# spectral_estimate and sample_covariance check their sample's shape on
# entry, and its entries from their result: the sample is scanned with
# spectral._check_finite only when the result is not finite
_ENTRY_POINTS = pytest.mark.parametrize("estimate", [
    lambda Y: spectral_estimate(Y, 1.0), sample_covariance,
], ids=["spectral_estimate", "sample_covariance"])
_NOT_2D = re.escape("sample must be a 2-d array with n >= 1, p >= 1")
_NOT_FINITE = "sample contains non-finite entries"


class TestSampleCheck:
    @_ENTRY_POINTS
    def test_accepts_2d_array(self, estimate):
        assert estimate(np.ones((3, 2))).matrix.shape == (2, 2)

    @_ENTRY_POINTS
    def test_rejects_1d(self, estimate):
        with pytest.raises(ValueError, match=_NOT_2D):
            estimate(np.ones(4))

    @_ENTRY_POINTS
    def test_rejects_nan(self, estimate):
        with pytest.raises(ValueError, match=_NOT_FINITE):
            estimate(np.array([[1.0, np.nan]]))

    @_ENTRY_POINTS
    def test_rejects_empty(self, estimate):
        with pytest.raises(ValueError, match=_NOT_2D):
            estimate(np.ones((0, 3)))

    @_ENTRY_POINTS
    @pytest.mark.parametrize("row", [0, 3276, 9999])
    def test_rejects_inf_in_any_row_block(self, monkeypatch, estimate, row):
        # the first, a middle and the last of the row blocks of 3276 rows
        # at p = 20 that the probe kernel and the scan take. The rest of
        # the row is 0, so the Gram product holds inf * 0: neither that
        # nor tan(inf) may stand in for the error as a RuntimeWarning, in
        # the caller or in a worker thread
        for workers in (1, 2):
            monkeypatch.setattr(_kernels, "_WORKERS", workers)
            for bad in (np.nan, np.inf, -np.inf):
                Y = np.ones((10_000, 20))
                Y[row] = 0.0
                Y[row, 7] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match=_NOT_FINITE):
                        estimate(Y)

    @_ENTRY_POINTS
    def test_finite_sample_is_not_scanned(self, monkeypatch, estimate):
        def scan(data):
            raise AssertionError("a finite sample was scanned")

        monkeypatch.setattr(spectral, "_check_finite", scan)
        Y = np.random.default_rng(21).standard_normal((10_000, 20))
        assert np.isfinite(estimate(Y).matrix).all()

    def test_bad_sample_is_named_before_bad_radius(self):
        # first the shape, then a non-finite entry, then U
        with pytest.raises(ValueError, match=_NOT_2D):
            spectral_estimate(np.array([np.nan, 1.0]), -1.0)
        with pytest.raises(ValueError, match=_NOT_FINITE):
            spectral_estimate(np.array([[np.nan, 1.0]]), -1.0)
        with pytest.raises(ValueError, match="^U must be "):
            spectral_estimate(np.array([[0.5, 1.0]]), -1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_entries_near_the_float_limit_pass(self, sign):
        # their sum overflows; the check must look at each entry, not at it
        Y = np.full((10_000, 20), sign * 1.7e308)
        Y[5000, 3] = sign * np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral._as_data(Y) is Y

    @pytest.mark.parametrize("bad", [
        [np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
        [np.nan, 1e308, 1e308]])
    def test_rejects_any_non_finite_entry_among_large_ones(self, bad):
        # +inf and -inf sum to nan, and nan absorbs an overflow, so no
        # sum of the sample stands in for the entrywise check
        Y = np.full((10_000, 20), 1e307)
        Y[9999, :len(bad)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=_NOT_FINITE):
                spectral._as_data(Y)


class TestEmpiricalCf:
    def test_single_observation_has_unit_modulus(self):
        y = np.array([[0.3, -1.2, 4.0]])
        u = np.array([1.0, 2.0, -0.5])
        out = ecf(y, u)
        assert out == pytest.approx(np.exp(1j * float(u @ y[0])))
        assert abs(out) == pytest.approx(1.0)

    def test_zero_frequency_is_exactly_one(self):
        rng = np.random.default_rng(0)
        assert ecf(rng.standard_normal((50, 3)), np.zeros(3)) == 1.0 + 0.0j

    def test_two_point_sample_at_pi(self):
        # (exp(i*pi) + exp(-i*pi)) / 2 = cos(pi) = -1
        Y = np.array([[1.0, 0.0], [-1.0, 0.0]])
        out = ecf(Y, np.array([np.pi, 0.0]))
        assert out.real == pytest.approx(-1.0, abs=1e-12)
        assert abs(out.imag) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _kernels.ecf(np.ones((2, 3)), np.ones((1, 2)))

    def test_no_frequencies_give_an_empty_array(self):
        # the low-rank quadrature passes none when every weight is 0
        out = _kernels.ecf(np.ones((5, 3)), np.zeros((0, 3)))
        assert out.shape == (0,) and out.dtype == complex

    @given(
        arrays(np.float64, (7, 2), elements=st.floats(-50, 50)),
        arrays(np.float64, (2,), elements=st.floats(-20, 20)),
    )
    @settings(max_examples=60, deadline=None)
    def test_modulus_at_most_one(self, Y, u):
        assert abs(ecf(Y, u)) <= 1.0 + 1e-12 * Y.shape[0]

    @given(
        arrays(np.float64, (5, 3), elements=st.floats(-50, 50)),
        arrays(np.float64, (3,), elements=st.floats(-20, 20)),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, Y, u):
        assert ecf(Y, u) == pytest.approx(np.conj(ecf(Y, -u)), abs=1e-12)


class TestLogModulusCf:
    """The log-moduli of :func:`probe_log_moduli`."""

    def test_zero_frequency_gives_zero(self):
        # on an all-zero sample every probe sees <U u_ij, Y_k> = 0, as the
        # zero frequency does, so the ECF is exactly 1
        assert np.all(probe_log_moduli(np.zeros((10, 3)), 1.3) == 0.0)

    def test_vanishing_modulus_convention(self):
        # exp(i*pi) and exp(-i*pi) cancel exactly against two exp(0) terms,
        # so the ECF at U = 1 is an exact 0, whose log is -inf, and the
        # estimate names the probe instead of reading it as <u, Sigma u> = 0
        Y = np.array([[0.0], [0.0], [np.pi], [-np.pi]])
        assert _kernels.probe_cf(Y, 1.0)[0, 0] == 0.0
        assert probe_log_moduli(Y, 1.0)[0, 0] == -np.inf
        with pytest.raises(EstimationError, match=r"at probe \(0, 0\)"):
            spectral_estimate(Y, 1.0)

    def test_zero_modulus_probe_fails_the_estimate(self, monkeypatch):
        probe_cf = _kernels.probe_cf

        def one_zero(Y, U):
            cf = probe_cf(Y, U)
            cf[1, 2] = cf[2, 1] = 0.0
            return cf

        monkeypatch.setattr(_kernels, "probe_cf", one_zero)
        Y = np.random.default_rng(1).standard_normal((50, 3))
        with pytest.raises(EstimationError, match=r"at probe \(1, 2\)"):
            spectral_estimate(Y, 1.0)

    def test_tiny_modulus_keeps_a_finite_log(self):
        # cos(pi/2) = 0 in real arithmetic; in floats the ECF of this sample
        # lands at ~6e-17, and its log stays finite
        Y = np.array([[1.0], [-1.0]])
        logmod = probe_log_moduli(Y, np.pi / 2.0)[0, 0]
        assert np.isfinite(logmod) and logmod < -30.0

    def test_gaussian_large_sample_matches_theory(self):
        # standard normal in 2d: log|cf(e_1)| = -1/2
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((200_000, 2))
        assert probe_log_moduli(Y, 1.0)[0, 0] == pytest.approx(-0.5, abs=0.02)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_row_permutation_invariance(self, perm):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((6, 2))
        np.testing.assert_allclose(probe_log_moduli(Y[perm], 0.8),
                                   probe_log_moduli(Y, 0.8),
                                   rtol=0, atol=1e-12)


class TestDirectionVector:
    """The probe directions of ``_kernels.probe_cf``."""

    def test_diagonal_is_basis_vector(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((30, 3))
        cf = _kernels.probe_cf(Y, 1.4)
        for i in range(3):
            want = ecf(Y, 1.4 * np.eye(3)[i])
            assert cf[i, i] == pytest.approx(want, abs=1e-13)

    def test_offdiagonal_pair(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((30, 2))
        cf = _kernels.probe_cf(Y, 1.4)
        want = ecf(Y, 1.4 * np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert cf[0, 1] == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("i,j,p", [(1, 1, 1), (2, 5, 7), (3, 3, 3)])
    def test_unit_norm(self, i, j, p):
        # one observation s * u_ij has phase <U u_ij, s u_ij> = U s |u_ij|^2
        # at the (i, j) probe, which is U s exactly when |u_ij| = 1
        U, s = 1.3, 0.9
        cf = _kernels.probe_cf(s * direction(i, j, p)[None, :], U)
        got = cf[i - 1, j - 1]
        assert got == pytest.approx(np.exp(1j * U * s), abs=1e-13)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_probe_quadratic_form_identity(self, i, j):
        # <u_ij, S u_ij> = s_ij + (s_ii + s_jj)/2 for i != j
        p = 6
        rng = np.random.default_rng(4)
        A = rng.standard_normal((p, p))
        S = A + A.T
        u = direction(i, j, p)
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
        logmod = probe_log_moduli(Y, U)
        for i in range(4):
            for j in range(i, 4):
                want = np.log(abs(ecf(Y, U * direction(i + 1, j + 1, 4))))
                assert logmod[i, j] == pytest.approx(want, abs=1e-10)

    def test_pair_block_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        logmod = probe_log_moduli(rng.standard_normal((30, 5)), 2.0)
        assert np.array_equal(logmod, logmod.T)

    def test_rejects_nonpositive_radius(self):
        for U in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^U must be "):
                probe_log_moduli(np.ones((3, 2)), U)


def _probe_cf_loops(Y, U):
    """Direct-summation oracle for ``_kernels.probe_cf``."""
    n, p = Y.shape
    cf = np.zeros((p, p), dtype=np.complex128)
    z = np.empty(p, dtype=np.complex128)
    c = U / np.sqrt(2.0)
    for k in range(n):
        for i in range(p):
            z[i] = np.exp(1j * c * Y[k, i])
        for i in range(p):
            for j in range(p):
                cf[i, j] += np.exp(1j * U * Y[k, i]) if i == j else z[i] * z[j]
    return cf / n


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
    """The blocked kernels must agree with direct summation."""

    def test_probe_cf_paths_agree(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((200, 6))
        np.testing.assert_allclose(_kernels.probe_cf(Y, 1.3),
                                   _probe_cf_loops(Y, 1.3), atol=1e-12)

    def test_ecf_paths_agree(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((150, 3))
        F = rng.standard_normal((17, 3))
        np.testing.assert_allclose(
            _kernels.ecf(Y, F), _ecf_loops(Y, F), atol=1e-12
        )


class TestHalfAngleCosSin:
    """``_kernels._cos_sin`` against libm's cos and sin."""

    EPS = np.finfo(float).eps

    @staticmethod
    def cos_sin(x):
        s = 0.5 * np.array(x, dtype=float)
        c = np.empty_like(s)
        _kernels._cos_sin(s, c)
        return c, s

    def test_zero_is_exact(self):
        c, s = self.cos_sin([0.0, -0.0])
        assert np.all(c == 1.0) and np.all(s == 0.0)

    def test_within_four_eps_of_libm(self):
        rng = np.random.default_rng(15)
        k = np.arange(-10**6, 10**6 + 1, dtype=float)
        big = np.logspace(0, 15, 2001)
        x = np.concatenate([
            [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi],
            k * np.pi,
            big, -big,
            rng.normal(0.0, 50.0, 100_000),
            # x/2 is the float64 nearest an odd multiple of pi/2, where
            # tan(x/2) is largest (about 2.1e18)
            [np.ldexp(6381956970095103.0, 798)],
        ])
        c, s = self.cos_sin(x)
        assert np.max(np.abs(c - np.cos(x))) <= 4 * self.EPS
        assert np.max(np.abs(s - np.sin(x))) <= 4 * self.EPS
        assert np.max(np.abs(c * c + s * s - 1.0)) <= 4 * self.EPS


def _around_block(rows):
    """Sample sizes at the edges of a block of ``rows`` rows."""
    return sorted({1, max(rows - 1, 1), rows, rows + 1, 2 * rows + 1})


# p = 4 keeps the direct-summation oracle cheap at two blocks of rows
_PROBE_P = 4
_PROBE_ROWS = _kernels._rows_per_block(_PROBE_P)
_ECF_M = 512
_ECF_ROWS = _kernels._BLOCK // _ECF_M


class TestBlockBoundaries:
    """Block edges change the summation order, never the sums."""

    @pytest.mark.parametrize("n", _around_block(_PROBE_ROWS))
    def test_probe_cf_matches_loops(self, n):
        Y = np.random.default_rng(n).standard_normal((n, _PROBE_P))
        cf = _kernels.probe_cf(Y, 1.3)
        np.testing.assert_allclose(cf, _probe_cf_loops(Y, 1.3),
                                   rtol=0, atol=1e-12)
        assert np.array_equal(cf, cf.T)
        assert cf.tobytes() == _kernels.probe_cf(Y, 1.3).tobytes()

    @pytest.mark.parametrize("n", _around_block(_ECF_ROWS))
    def test_ecf_matches_loops(self, n):
        rng = np.random.default_rng(n)
        Y = rng.standard_normal((n, 2))
        F = rng.standard_normal((_ECF_M, 2))
        out = _kernels.ecf(Y, F)
        np.testing.assert_allclose(out, _ecf_loops(Y, F), rtol=0, atol=1e-12)
        assert out.tobytes() == _kernels.ecf(Y, F).tobytes()

    def test_ecf_one_row_per_block(self):
        # more frequencies than half a block: every block is a single row
        m = _kernels._BLOCK // 2 + 1
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((3, 2))
        F = rng.standard_normal((m, 2))
        out = _kernels.ecf(Y, F)
        np.testing.assert_allclose(out, _ecf_loops(Y, F), rtol=0, atol=1e-12)
        assert out.tobytes() == _kernels.ecf(Y, F).tobytes()

    def test_probe_cf_pair_symmetric_over_many_blocks(self):
        Y = np.random.default_rng(12).standard_normal((3 * _PROBE_ROWS, 7))
        cf = _kernels.probe_cf(Y, 2.1)
        assert np.array_equal(cf, cf.T)

    @pytest.mark.parametrize("n", _around_block(_PROBE_ROWS))
    def test_probe_cf_matches_general_ecf(self, n):
        # every entry (i, j) is the ECF at U * u_ij, the diagonal included
        p, U = _PROBE_P, 1.3
        Y = np.random.default_rng(n).standard_normal((n, p))
        pairs = [(i, j) for i in range(p) for j in range(i, p)]
        F = np.array([U * direction(i + 1, j + 1, p) for i, j in pairs])
        want = np.empty((p, p), dtype=complex)
        for (i, j), z in zip(pairs, _kernels.ecf(Y, F)):
            want[i, j] = want[j, i] = z
        np.testing.assert_allclose(_kernels.probe_cf(Y, U), want,
                                   rtol=0, atol=1e-12)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _per_worker(base, block_bytes):
    """A peak bound of ``base`` at one worker, plus one block's working set
    for each further worker that may run a block at the same time."""
    return base + (_kernels._WORKERS - 1) * block_bytes


# the working set of a block of either kernel: two arrays of _BLOCK
# float64, the halves of probe_cf's W or ecf's two arrays
_BLOCK_BYTES = 2 * 8 * _kernels._BLOCK


class TestMemoryFlat:
    """Working memory is bounded by a block per running worker, not by the
    sample size."""

    BOUND = 4 * 2**20

    @pytest.mark.parametrize("n", [4000, 16000])
    def test_ecf(self, n):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((n, 5))
        F = rng.standard_normal((1024, 5))
        assert _peak_bytes(_kernels.ecf, Y, F) < _per_worker(
            self.BOUND, _BLOCK_BYTES)

    @pytest.mark.parametrize("n", [4000, 16000])
    def test_probe_cf(self, n):
        Y = np.random.default_rng(14).standard_normal((n, 20))
        assert _peak_bytes(_kernels.probe_cf, Y, 1.0) < _per_worker(
            self.BOUND, _BLOCK_BYTES)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bounds_at_each_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        rng = np.random.default_rng(15)
        Y = rng.standard_normal((16000, 20))
        F = rng.standard_normal((1024, 20))
        assert _peak_bytes(_kernels.ecf, Y, F) < _per_worker(
            self.BOUND, _BLOCK_BYTES)
        assert _peak_bytes(_kernels.probe_cf, Y, 1.0) < _per_worker(
            self.BOUND, _BLOCK_BYTES)


def _at_each_worker_count(monkeypatch, fn, *args):
    """The bytes of ``fn(*args)`` with the blocks run on 1, 2 and 3
    workers."""
    out = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        out.append(fn(*args).tobytes())
    return out


class TestWorkers:
    """The row blocks run on a pool of ``_kernels._WORKERS`` threads, and
    their sums are added in block order whatever the worker count."""

    @pytest.mark.parametrize("n", _around_block(_PROBE_ROWS)
                             + [9 * _PROBE_ROWS + 5])
    def test_probe_cf_bitwise_equal_at_any_worker_count(self, monkeypatch, n):
        Y = np.random.default_rng(n).standard_normal((n, _PROBE_P))
        assert len(set(_at_each_worker_count(
            monkeypatch, _kernels.probe_cf, Y, 1.3))) == 1

    @pytest.mark.parametrize("n", _around_block(_ECF_ROWS)
                             + [9 * _ECF_ROWS + 5])
    def test_ecf_bitwise_equal_at_any_worker_count(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        Y = rng.standard_normal((n, 2))
        F = rng.standard_normal((_ECF_M, 2))
        assert len(set(_at_each_worker_count(
            monkeypatch, _kernels.ecf, Y, F))) == 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_exception_in_a_worker_reaches_the_caller(self, monkeypatch,
                                                      workers):
        # a frequency width that does not match Y makes every block's
        # product raise; the caller sees the error that one block raises
        rng = np.random.default_rng(16)
        Y = rng.standard_normal((5 * _ECF_ROWS, 3))
        F = rng.standard_normal((_ECF_M, 3))
        with pytest.raises(ValueError) as inline:
            Y[:1] @ F[:, :2].T
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        with pytest.raises(ValueError) as pooled:
            _kernels.ecf(Y, F[:, :2])
        assert str(pooled.value) == str(inline.value)
        got = _kernels.ecf(Y, F)
        monkeypatch.setattr(_kernels, "_WORKERS", 1)
        assert got.tobytes() == _kernels.ecf(Y, F).tobytes()

    def test_forked_child_computes_on_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        Y = np.random.default_rng(17).standard_normal((5 * _PROBE_ROWS,
                                                       _PROBE_P))
        want = _kernels.probe_cf(Y, 1.3).tobytes()
        assert _kernels._pool is not None
        with warnings.catch_warnings():
            # Python 3.12 warns on a fork of a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: exit 0 on the parent's bytes from a
            code = 3  # pool of its own, without running pytest's exit
            try:
                got = _kernels.probe_cf(Y, 1.3).tobytes()
                code = (1 if got != want else
                        2 if _kernels._pool[0][0] != os.getpid() else 0)
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish in 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # more workers than CPUs and a short switch interval, so that the
        # callers and the blocks interleave as much as they can
        Y = np.random.default_rng(19).standard_normal((9 * _PROBE_ROWS + 5,
                                                       _PROBE_P))
        monkeypatch.setattr(_kernels, "_WORKERS", 1)
        want = _kernels.probe_cf(Y, 1.3).tobytes()
        monkeypatch.setattr(_kernels, "_WORKERS", 3)
        monkeypatch.setattr(_kernels, "_pool", None)
        got = [None] * 4

        def run(i):
            got[i] = _kernels.probe_cf(Y, 1.3).tobytes()

        callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [want] * 4

    def test_a_replaced_pool_ends_its_threads(self, monkeypatch):
        Y = np.random.default_rng(20).standard_normal((5 * _PROBE_ROWS,
                                                       _PROBE_P))
        monkeypatch.setattr(_kernels, "_WORKERS", 3)
        monkeypatch.setattr(_kernels, "_pool", None)
        before = set(threading.enumerate())
        _kernels.probe_cf(Y, 1.3)
        started = set(threading.enumerate()) - before
        assert 1 <= len(started) <= 3
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        _kernels.probe_cf(Y, 1.3)
        for t in started:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_inline_calls_create_no_pool(self, monkeypatch, workers):
        # one block at any worker count, and any input at one worker
        monkeypatch.setattr(_kernels, "_pool", None)
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        rng = np.random.default_rng(18)
        n = _PROBE_ROWS if workers > 1 else 3 * _PROBE_ROWS
        _kernels.probe_cf(rng.standard_normal((n, _PROBE_P)), 1.3)
        n = _ECF_ROWS if workers > 1 else 3 * _ECF_ROWS
        _kernels.ecf(rng.standard_normal((n, 2)),
                     rng.standard_normal((_ECF_M, 2)))
        assert _kernels._pool is None
