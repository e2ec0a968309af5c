"""Hot numeric kernels: batched empirical characteristic function evaluation.

Both kernels walk the rows of the data in blocks, in a fixed order, and
accumulate real sums of cosines and sines; no n-row or complex n-row array
is ever built. A block holds as many rows as fit in ``_BLOCK`` float64
elements per working array (at least one row), so working memory is
independent of the number of observations n. The block boundaries fix the
order of summation, so repeated runs on the same data give identical
results.
"""

import numpy as np

_SQRT2 = np.sqrt(2.0)

# Elements per working array; fixes the block boundaries and so the order
# in which the per-row terms are summed.
_BLOCK = 1 << 16


def _rows_per_block(width):
    """Rows of a block whose working arrays are ``width`` elements wide."""
    return max(1, _BLOCK // width)


def probe_cf(Y, U):
    """ECF at the probe frequencies ``U * e_i`` and ``U * (e_i + e_j)/sqrt(2)``.

    <U*u_ij, y> = a*y_i + a*y_j with a = U/sqrt(2) for i != j, so with
    C = cos(a*Y) and S = sin(a*Y) the pairwise sums are
    sum_k cos(a y_ki + a y_kj) = (C^T C - S^T S)_ij and
    sum_k sin(a y_ki + a y_kj) = (C^T S + S^T C)_ij, all four read off the
    real Gram matrix W^T W of W = [C, S]. Diagonal probes use U*u_i = U*e_i.
    ``cf_pair`` is exactly symmetric.
    """
    n, p = Y.shape
    a = U / _SQRT2
    rows = _rows_per_block(2 * p)
    diag_re = np.zeros(p)
    diag_im = np.zeros(p)
    gram = np.zeros((2 * p, 2 * p))
    W = np.empty((min(rows, n), 2 * p))
    for start in range(0, n, rows):
        blk = Y[start:start + rows]
        w = W[:len(blk)]
        C, S = w[:, :p], w[:, p:]
        # the diagonal probes use both halves as scratch first
        np.multiply(blk, U, out=C)
        np.cos(C, out=S)
        diag_re += S.sum(axis=0)
        np.sin(C, out=S)
        diag_im += S.sum(axis=0)
        np.multiply(blk, a, out=S)
        np.cos(S, out=C)
        np.sin(S, out=S)
        gram += w.T @ w
    # a no-op when BLAS returns W^T W exactly symmetric; makes sure otherwise
    gram = 0.5 * (gram + gram.T)
    cf_diag = (diag_re + 1j * diag_im) / n
    cf_pair = np.empty((p, p), dtype=complex)
    cf_pair.real = gram[:p, :p] - gram[p:, p:]
    cf_pair.imag = gram[:p, p:] + gram[p:, :p]
    cf_pair /= n
    return cf_diag, cf_pair


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
        re += np.cos(t, out=v).sum(axis=0)
        im += np.sin(t, out=v).sum(axis=0)
    return (re + 1j * im) / n
