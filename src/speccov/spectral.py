"""Spectral covariance estimation from the empirical characteristic function.

The estimator reads the quadratic form <u, Sigma u> off the log-modulus of
the characteristic function of the observations at probe frequencies of a
common radius U. For Gaussian signals -2 log|cf(u)| = <u, Sigma u> up to the
noise contribution, which vanishes at rate U^(beta-2) when the noise
characteristic function decays slower than a Gaussian. The same construction
applies to elliptical signals with a known characteristic generator
exp(-eta(<u, Sigma u>)); the Gaussian case is eta(x) = x/2.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .charfreq import probe_log_moduli

__all__ = [
    "SpectralConfig",
    "CovEstimate",
    "EllipticalGenerator",
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


class EstimationError(RuntimeError):
    pass


class PreAsymptoticError(ValueError):
    """n is too small for the theory-driven spectral radius to be real."""


@dataclass(frozen=True)
class SpectralConfig:
    """Theory constants driving the concentration threshold.

    U is the probe radius, gamma the concentration parameter (> sqrt(2)),
    R bounds the largest entry of Sigma, and (T, beta) describe the noise
    class: |log|psi(u)|| <= T * (1 + |u|_beta^beta) with beta in [0, 2).
    """

    U: float
    R: float
    T: float
    beta: float
    gamma: float = 1.5

    def __post_init__(self):
        if self.U <= 0:
            raise ValueError("U must be positive")
        if self.gamma <= SQRT2:
            raise ValueError("gamma must exceed sqrt(2)")
        if not (0 <= self.beta < 2):
            raise ValueError("beta must lie in [0, 2)")
        if self.R <= 0 or self.T <= 0:
            raise ValueError("R and T must be positive")


@dataclass(frozen=True)
class CovEstimate:
    """A symmetric covariance estimate plus provenance."""

    matrix: np.ndarray
    estimator_kind: str
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

    @property
    def p(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EllipticalGenerator:
    """Characteristic generator exp(-eta(.)) as a callable triple.

    ``eta_inv`` must accept numpy arrays. No numeric inversion is attempted;
    the generator is assumed known in closed form.
    """

    eta: Callable
    eta_prime: Callable
    eta_inv: Callable


def gaussian_generator() -> EllipticalGenerator:
    return EllipticalGenerator(
        eta=lambda x: 0.5 * x,
        eta_prime=lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float)),
        eta_inv=lambda y: 2.0 * y,
    )


_GAUSSIAN = gaussian_generator()


def stable_generator(alpha: float) -> EllipticalGenerator:
    """Generator eta(x) = x**(alpha/2) of a multivariate alpha-stable law."""
    if not (0 < alpha <= 2):
        raise ValueError("alpha must lie in (0, 2]")
    h = alpha / 2.0
    return EllipticalGenerator(
        eta=lambda x: np.asarray(x, dtype=float) ** h,
        eta_prime=lambda x: h * np.asarray(x, dtype=float) ** (h - 1.0),
        eta_inv=lambda y: np.asarray(y, dtype=float) ** (1.0 / h),
    )


def _assemble(diag_logmod, pair_logmod, U, gen=None):
    """Build the symmetric estimate from probe log-moduli.

    Negative -log|cf| values (|cf| > 1 by float error) are clamped to 0
    before eta_inv. Diagonal first, then off-diagonal corrected by the
    diagonal halves. ``gen=None`` is the Gaussian generator and gives kind
    "spectral"; any other generator gives kind "elliptical".
    """
    eta_inv = (_GAUSSIAN if gen is None else gen).eta_inv
    usq = U * U
    raw_diag = np.clip(-np.asarray(diag_logmod, dtype=float), 0.0, None)
    raw_pair = np.clip(-np.asarray(pair_logmod, dtype=float), 0.0, None)
    d = np.asarray(eta_inv(raw_diag), dtype=float) / usq
    q = np.asarray(eta_inv(raw_pair), dtype=float) / usq
    bad = ~np.isfinite(d)
    if np.any(bad):
        raise EstimationError(
            f"eta_inv out of domain at diagonal probes {np.flatnonzero(bad).tolist()}"
        )
    mat = q - 0.5 * (d[:, None] + d[None, :])
    np.fill_diagonal(mat, d)
    bad = ~np.isfinite(mat)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise EstimationError(f"eta_inv out of domain at probe ({i}, {j})")
    # q is exactly symmetric and the diagonal correction term is too
    kind = "spectral" if gen is None else "elliptical"
    return CovEstimate(matrix=mat, estimator_kind=kind, tuning={"U": U})


def spectral_estimate(
    Y, U: float, gen: Optional[EllipticalGenerator] = None
) -> CovEstimate:
    """Spectral covariance estimate at probe radius U.

    Diagonal: sigma_ii = eta_inv(-log|ecf(U e_i)|)/U^2, by default with the
    Gaussian eta_inv(y) = 2y; off-diagonal entries subtract the diagonal
    halves. Pass ``gen`` for an elliptical signal with a known generator.
    """
    diag, pair = probe_log_moduli(Y, U)
    return _assemble(diag, pair, U, gen)


def tau_threshold(cfg: SpectralConfig, n: int, p: int) -> float:
    """Entrywise concentration threshold tau(U).

    Sum of a stochastic term growing like exp(R U^2 + 3 T U^beta) / U^2 and
    a deterministic noise-bias term 3 T U^(beta-2).
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    U = cfg.U
    stoch = (
        6.0
        * cfg.gamma
        * math.exp(cfg.R * U**2 + 3.0 * cfg.T * U**cfg.beta)
        / U**2
        * math.sqrt(math.log(math.e * p) / n)
    )
    return stoch + 3.0 * cfg.T * U ** (cfg.beta - 2.0)


def admissible(cfg: SpectralConfig, n: int, p: int) -> bool:
    """Whether (cfg, n, p) satisfies the concentration hypothesis.

    8 gamma sqrt(log(ep)/n) < exp(-R U^2 - 3 T U^beta). Estimation proceeds
    regardless; the flag is advisory and recorded by the harness.
    """
    lhs = 8.0 * cfg.gamma * math.sqrt(math.log(math.e * p) / n)
    rhs = math.exp(-cfg.R * cfg.U**2 - 3.0 * cfg.T * cfg.U**cfg.beta)
    return lhs < rhs


def spectral_radius_star(R: float, gamma: float, n: int, p: int) -> float:
    """Theory-driven probe radius U* = sqrt(log(n / (64 gamma^2 log(ep))) / (4R))."""
    if R <= 0:
        raise ValueError("R must be positive")
    if gamma <= SQRT2:
        raise ValueError("gamma must exceed sqrt(2)")
    arg = n / (64.0 * gamma**2 * math.log(math.e * p))
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
    if not (0 <= q < 2) or not (0 <= beta < 2):
        raise ValueError("q and beta must lie in [0, 2)")
    L = math.log(n / math.log(math.e * p))
    if L <= 0:
        raise ValueError("n / log(ep) must exceed 1")
    inner = R ** (1.0 - beta / 2.0) * T * L ** (-1.0 + beta / 2.0)
    return math.sqrt(S) * inner ** (1.0 - q / 2.0)
