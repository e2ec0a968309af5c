"""Hot numeric kernels: batched empirical characteristic function evaluation.

Both kernels are vectorised numpy and sum over the rows of the data in a
fixed order, so repeated runs on the same data give identical results.
"""

import numpy as np

_SQRT2 = np.sqrt(2.0)


def probe_cf(Y, U):
    """ECF at the probe frequencies ``U * e_i`` and ``U * (e_i + e_j)/sqrt(2)``.

    <U*u_ij, y> = U*(y_i + y_j)/sqrt(2) for i != j, so all pairwise probes
    reduce to one complex rank-n product: pair[i, j] = mean_k z_ki * z_kj
    with z = exp(1j*U*Y/sqrt(2)). Diagonal probes use U*u_i = U*e_i.
    """
    n = Y.shape[0]
    cf_diag = np.exp(1j * U * Y).sum(axis=0) / n
    z = np.exp(1j * (U / _SQRT2) * Y)
    cf_pair = (z.T @ z) / n
    return cf_diag, cf_pair


def ecf(Y, freqs):
    """ECF at each row of ``freqs``: the mean over k of exp(i<f, Y_k>)."""
    n = Y.shape[0]
    return np.exp(1j * (Y @ freqs.T)).sum(axis=0) / n
