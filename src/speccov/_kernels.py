"""Hot numeric kernels: batched empirical characteristic function evaluation.

Both kernels walk the rows of the data in blocks, in a fixed order, and
accumulate real sums of cosines and sines; no n-row or complex n-row array
is ever built. A block holds as many rows as fit in ``_BLOCK`` float64
elements per working array (at least one row), so working memory is
independent of the number of observations n. The block boundaries fix the
order of summation, so repeated runs on the same data give identical
results.

Cosines and sines come from one ``tan`` per element by the half-angle
identity (``_cos_sin``). With numpy 2.4 on an AVX-512 x86-64 CPU, float64
``tan`` is SIMD-dispatched (about 2.5 ns per element) while ``cos`` and
``sin`` call libm one element at a time (about 20 ns each); where ``tan``
falls back to libm too, one call still replaces two. The identity works
in the arrays the kernels already hold, so working memory is unchanged,
and its result is within 4 eps of ``np.cos``/``np.sin``.
"""

import numpy as np

_SQRT2 = np.sqrt(2.0)

# Elements per working array; fixes the block boundaries and so the order
# in which the per-row terms are summed.
_BLOCK = 1 << 16


def _rows_per_block(width):
    """Rows of a block whose working arrays are ``width`` elements wide
    (``width`` may be 0)."""
    return max(1, _BLOCK // max(width, 1))


def _cos_sin(x, cos):
    """Overwrite ``x`` with sin x and fill ``cos`` with cos x.

    With t = tan(x/2), cos x = 2/(1+t^2) - 1 and sin x = t * 2/(1+t^2):
    one ``tan`` per element in place of a ``cos`` and a ``sin``. t^2 never
    overflows: the float64 nearest an odd multiple of pi/2,
    6381956970095103 * 2**797, is 4.7e-19 away from it, so |t| < 2.2e18.
    x = 0 gives exactly cos = 1 and sin = 0.
    """
    np.multiply(x, 0.5, out=x)
    np.tan(x, out=x)
    np.multiply(x, x, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    x *= cos
    cos -= 1.0


def probe_cf(Y, U):
    """ECF at every probe frequency ``U * u_ij``, as one p x p matrix.

    Entry (i, i) is the ECF at U*u_ii = U*e_i. For i != j, <U*u_ij, y> =
    a*y_i + a*y_j with a = U/sqrt(2), so with the p x n matrices
    C = cos(a*Y^T) and S = sin(a*Y^T) the pairwise sums are
    sum_k cos(a y_ki + a y_kj) = (C C^T - S S^T)_ij and
    sum_k sin(a y_ki + a y_kj) = (C S^T + S C^T)_ij, all four read off the
    real Gram matrix W W^T of W = [C; S]. A block of W holds its rows of C
    and S transposed, so each half is one contiguous array for the
    elementwise passes. The result is exactly symmetric.
    """
    n, p = Y.shape
    a = U / _SQRT2
    rows = _rows_per_block(2 * p)
    diag_re = np.zeros(p)
    diag_im = np.zeros(p)
    gram = np.zeros((2 * p, 2 * p))
    W = np.empty((2 * p, min(rows, n)))
    for start in range(0, n, rows):
        blk = Y[start:start + rows].T
        w = W[:, :blk.shape[1]]
        C, S = w[:p], w[p:]
        # the diagonal probes use both halves as scratch first
        np.multiply(blk, U, out=C)
        _cos_sin(C, S)
        diag_re += S.sum(axis=1)
        diag_im += C.sum(axis=1)
        np.multiply(blk, a, out=S)
        _cos_sin(S, C)
        gram += w @ w.T
    # a no-op when BLAS returns W W^T exactly symmetric; makes sure otherwise
    gram = 0.5 * (gram + gram.T)
    cf = np.empty((p, p), dtype=complex)
    cf.real = gram[:p, :p] - gram[p:, p:]
    cf.imag = gram[:p, p:] + gram[p:, :p]
    # the Gram diagonal is the ECF at sqrt(2)*U*e_i, which no probe reads
    np.fill_diagonal(cf.real, diag_re)
    np.fill_diagonal(cf.imag, diag_im)
    cf /= n
    return cf


def ecf(Y, freqs):
    """ECF at each row of ``freqs``: the mean over k of exp(i<f, Y_k>)."""
    n = Y.shape[0]
    m = freqs.shape[0]
    rows = _rows_per_block(m)
    re = np.zeros(m)
    im = np.zeros(m)
    T = np.empty((min(rows, n), m))
    V = np.empty_like(T)
    for start in range(0, n, rows):
        blk = Y[start:start + rows]
        t, v = T[:len(blk)], V[:len(blk)]
        np.matmul(blk, freqs.T, out=t)
        _cos_sin(t, v)
        re += v.sum(axis=0)
        im += t.sum(axis=0)
    return (re + 1j * im) / n
