"""Spectral covariance estimation from the empirical characteristic function.

The estimator reads the quadratic form <u, Sigma u> off the log-modulus of
the characteristic function of the observations at probe frequencies of a
common radius U. For Gaussian signals -2 log|cf(u)| = <u, Sigma u> up to the
noise contribution, which vanishes at rate U^(beta-2) when the noise
characteristic function decays slower than a Gaussian. The same construction
applies to elliptical signals with a known characteristic generator
exp(-eta(<u, Sigma u>)); the Gaussian case is eta(x) = x/2.

Every probe frequency is U * u_ij, where the unit direction u_ij is the
standard basis vector e_i (i == j) or (e_i + e_j)/sqrt(2) (i != j);
:func:`probe_log_moduli` evaluates the empirical characteristic function
(ECF) at all p*(p+1)/2 of them in one pass over the data and returns them
as one symmetric p x p matrix, entry (i, j) the probe of sigma_ij.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from ._checks import NUMBER, _COUNT, _NONNEGATIVE, _POSITIVE, _Key, _check

__all__ = [
    "probe_log_moduli",
    "CovEstimate",
    "gaussian_generator",
    "stable_generator",
    "spectral_estimate",
    "tau_threshold",
    "admissible",
    "spectral_radius_star",
    "theoretical_rate",
    "EstimationError",
    "PreAsymptoticError",
]

SQRT2 = math.sqrt(2.0)

# The ranges of the values that this module's code takes (see _checks): the
# probe radius, the theory constants, alpha and the sizes n and p.
_IN_0_2 = _Key(NUMBER, ((lambda v: 0 <= v < 2), "in [0, 2)"))
_RANGES = {
    "U": _POSITIVE, "R": _POSITIVE, "T": _POSITIVE, "beta": _IN_0_2,
    "gamma": _Key(NUMBER, ((lambda v: v > SQRT2), "> sqrt(2)")),
    "S": _NONNEGATIVE, "q": _IN_0_2,
    "alpha": _Key(NUMBER, ((lambda v: 0 < v <= 2), "in (0, 2]")),
    "n": _COUNT, "p": _COUNT}


class EstimationError(ValueError):
    """No estimate can be formed from the input; a ValueError, as every
    other rejection of a bad input is."""


class PreAsymptoticError(ValueError):
    """n is too small for the theory's radius U* or rate to be defined."""


def _as_sample(Y) -> np.ndarray:
    """Y, n observations of a p-vector in rows, as a float64 array; a
    ValueError unless it is 2-d with n, p >= 1. Its entries are not read."""
    arr = np.asarray(Y, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("sample must be a 2-d array with n >= 1, p >= 1")
    return arr


def _check_finite(data) -> np.ndarray:
    """Return ``data`` after raising ValueError when an entry is not
    finite; scanned by row blocks, so that no n x p array of flags is
    built."""
    rows = _kernels._rows_per_block(data.shape[1])
    if not all(np.isfinite(data[k:k + rows]).all()
               for k in range(0, len(data), rows)):
        raise ValueError("sample contains non-finite entries")
    return data


def _as_data(Y) -> np.ndarray:
    """Y as a float64 array; a ValueError unless it is 2-d with n, p >= 1
    and every entry finite."""
    return _check_finite(_as_sample(Y))


def _finite_from(result, data, overflow):
    """Return ``result``, computed from the sample ``data`` so that a
    non-finite entry of the sample makes it non-finite, and a finite
    sample only by overflowing float64. Only a non-finite result has the
    sample scanned, which raises the error of :func:`_as_data` for such an
    entry; for a finite sample, an EstimationError says ``overflow``, what
    overflowed, and gives the sample's largest magnitude."""
    if not np.isfinite(result).all():
        _check_finite(data)
        rows = _kernels._rows_per_block(data.shape[1])
        scale = max(float(np.abs(data[k:k + rows]).max())
                    for k in range(0, len(data), rows))
        raise EstimationError(
            f"{overflow} float64 at the sample's scale: its largest entry "
            f"is {scale:.3g} in magnitude")
    return result


def probe_log_moduli(Y, U: float):
    """log|ecf(U * u_ij)| at every probe frequency in a single data pass.

    Returns an exactly symmetric p x p matrix whose entry (i, j) is the
    probe of u_ij, so entry (i, i) is at U * e_i. A zero modulus, which
    carries no information, gives -inf, which the estimate rejects.

    The sample's entries are checked from the ECF: a non-finite entry, or
    a phase that overflows, makes it non-finite (see ``_kernels.probe_cf``),
    and only then is the sample scanned, so a finite sample is read once. A
    bad sample is named before a bad U.
    """
    data = _as_sample(Y)
    try:
        _check(None, {"U": U}, _RANGES)
    except ValueError:
        _check_finite(data)
        raise
    cf = _finite_from(_kernels.probe_cf(data, float(U)), data,
                      "ECF phases overflow")
    with np.errstate(divide="ignore"):
        return np.log(np.abs(cf))


@dataclass(frozen=True)
class CovEstimate:
    """A symmetric covariance estimate and the tuning that produced it."""

    matrix: np.ndarray
    tuning: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("estimate must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise EstimationError("estimate contains non-finite entries")
        if not np.array_equal(m, m.T):
            raise ValueError("estimate must be exactly symmetric")
        object.__setattr__(self, "matrix", m)


def gaussian_generator() -> Callable:
    """eta_inv(y) = 2y of the Gaussian generator eta(x) = x/2.

    The estimator needs only eta_inv of a generator, so a generator is that
    closed-form callable on numpy arrays.
    """
    return lambda y: 2.0 * y


_GAUSSIAN = gaussian_generator()


def stable_generator(alpha: float) -> Callable:
    """eta_inv(y) = y**(2/alpha) of the alpha-stable generator x**(alpha/2)."""
    _check(None, {"alpha": alpha}, _RANGES)
    h = alpha / 2.0
    return lambda y: np.asarray(y, dtype=float) ** (1.0 / h)


def _assemble(logmod, U, eta_inv=_GAUSSIAN):
    """Build the symmetric estimate from the probe log-moduli matrix.

    Negative -log|cf| values (|cf| > 1 by float error) are clamped to 0
    before eta_inv. The diagonal is read off directly; each off-diagonal
    entry is then corrected by the halves of its two diagonal entries.
    """
    raw = np.clip(-np.asarray(logmod, dtype=float), 0.0, None)
    q = np.asarray(eta_inv(raw), dtype=float) / (U * U)
    bad = ~np.isfinite(q)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise EstimationError(f"eta_inv out of domain at probe ({i}, {j})")
    d = q.diagonal()
    # q is exactly symmetric and the diagonal correction term is too
    mat = q - 0.5 * (d[:, None] + d[None, :])
    np.fill_diagonal(mat, d)
    return CovEstimate(mat, {"U": U})


def spectral_estimate(Y, U: float, gen: Callable = _GAUSSIAN) -> CovEstimate:
    """Spectral covariance estimate at probe radius U.

    Diagonal: sigma_ii = eta_inv(-log|ecf(U e_i)|)/U^2, by default with the
    Gaussian eta_inv(y) = 2y; off-diagonal entries subtract the diagonal
    halves. Pass ``gen``, the eta_inv of a known generator, for an
    elliptical signal.
    """
    return _assemble(probe_log_moduli(Y, U), U, gen)


def _inf_on_overflow(formula) -> float:
    """formula(), or inf where a power, exponential or quotient in it
    leaves float64's range."""
    try:
        return formula()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def tau_threshold(U: float, R: float, T: float, beta: float, gamma: float,
                  n: int, p: int) -> float:
    """Entrywise concentration threshold tau(U): a stochastic term growing
    like exp(R U^2 + 3 T U^beta) / U^2 plus a deterministic noise-bias
    term 3 T U^(beta-2); inf, its limit, where the exponent or U^2 leaves
    float64's range.

    U is the probe radius, gamma the concentration parameter (> sqrt(2)),
    R bounds the largest entry of Sigma, and (T, beta) describe the noise
    class |log|psi(u)|| <= T * (1 + |u|_beta^beta), beta in [0, 2).
    """
    _check(None, {"U": U, "R": R, "T": T, "beta": beta, "gamma": gamma,
                  "n": n, "p": p}, _RANGES)
    return _inf_on_overflow(lambda: (
        6.0 * gamma * math.exp(R * U**2 + 3.0 * T * U**beta) / U**2
        * math.sqrt(math.log(math.e * p) / n)
        + 3.0 * T * U ** (beta - 2.0)))


def admissible(U: float, R: float, T: float, beta: float, gamma: float,
               n: int, p: int) -> bool:
    """Whether the constants of :func:`tau_threshold` satisfy the
    concentration hypothesis at (n, p).

    8 gamma sqrt(log(ep)/n) < exp(-R U^2 - 3 T U^beta), which fails where
    the exponent leaves float64's range. Estimation proceeds regardless;
    the flag is advisory and recorded by the harness.
    """
    _check(None, {"U": U, "R": R, "T": T, "beta": beta, "gamma": gamma,
                  "n": n, "p": p}, _RANGES)
    x = _inf_on_overflow(lambda: R * U**2 + 3.0 * T * U**beta)
    return 8.0 * gamma * math.sqrt(math.log(math.e * p) / n) < math.exp(-x)


def spectral_radius_star(R: float, gamma: float, n: int, p: int) -> float:
    """Theory-driven probe radius U* = sqrt(log(n / (64 gamma^2 log(ep))) / (4R))."""
    _check(None, {"R": R, "gamma": gamma, "n": n, "p": p}, _RANGES)
    arg = n / _inf_on_overflow(lambda: 64.0 * gamma**2 * math.log(math.e * p))
    if arg <= 1.0:
        raise PreAsymptoticError(
            "pre-asymptotic regime: n <= 64 gamma^2 log(ep); choose U manually"
        )
    return math.sqrt(math.log(arg) / (4.0 * R))


def theoretical_rate(
    S: float, R: float, T: float, beta: float, q: float, n: int, p: int
) -> float:
    """Constant-free reference rate S^(1/2) * (R^(1-b/2) T L^(-1+b/2))^(1-q/2).

    Here L = log(n / log(ep)). Diagnostic only; never used for tuning.
    """
    _check(None, {"S": S, "R": R, "T": T, "beta": beta, "q": q, "n": n,
                  "p": p}, _RANGES)
    L = math.log(n / math.log(math.e * p))
    if L <= 0:
        raise PreAsymptoticError(f"needs n > log(ep), got n={n}, p={p}")
    inner = R ** (1.0 - beta / 2.0) * T * L ** (-1.0 + beta / 2.0)
    return math.sqrt(S) * inner ** (1.0 - q / 2.0)
