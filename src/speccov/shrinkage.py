"""Entrywise thresholding, positive-definite variants, and threshold CV.

Hard and soft thresholding act entrywise on a covariance estimate, diagonal
included. The positive-definite soft threshold solves

    min_{S > 0}  |S - Shat|_F^2 + 2 tau |S|_1 - lam log det S

by ADMM with two closed-form proximal maps: entrywise soft thresholding and
an eigenvalue map for the quadratic-plus-log-barrier block.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charfreq import SampleMatrix
from .spectral import CovEstimate, spectral_estimate

__all__ = [
    "PdSoftConfig",
    "CvConfig",
    "hard_threshold",
    "soft_threshold",
    "pd_soft_threshold",
    "pds_baseline",
    "sample_covariance",
    "cross_validate_tau",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    def __init__(self, msg, primal=None, dual=None):
        super().__init__(msg)
        self.primal = primal
        self.dual = dual


@dataclass(frozen=True)
class PdSoftConfig:
    tau: float
    lambda_barrier: float = 1e-4
    max_iter: int = 10_000
    tol: float = 1e-7
    rho_admm: float = 1.0

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.lambda_barrier <= 0:
            raise ValueError("lambda_barrier must be positive")
        if self.max_iter < 1 or self.tol <= 0 or self.rho_admm <= 0:
            raise ValueError("invalid solver controls")


@dataclass(frozen=True)
class CvConfig:
    num_splits: int
    tau_grid: Sequence[float]
    seed: int = 0

    def __post_init__(self):
        grid = np.asarray(self.tau_grid, dtype=float)
        if grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("tau_grid must be nonempty, positive, strictly ascending")
        object.__setattr__(self, "tau_grid", grid)
        if self.num_splits < 1:
            raise ValueError("num_splits must be >= 1")


def _matrix(est) -> np.ndarray:
    if isinstance(est, CovEstimate):
        return est.matrix
    return np.asarray(est, dtype=float)


def _kind(est, default="explicit") -> str:
    return est.estimator_kind if isinstance(est, CovEstimate) else default


def _soft(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def hard_threshold(est, tau: float) -> CovEstimate:
    """Zero out entries with |value| <= tau (strict survival rule)."""
    m = _matrix(est)
    out = np.where(np.abs(m) > tau, m, 0.0)
    return CovEstimate(out, "hard", {"tau": tau, "base": _kind(est)})


def soft_threshold(est, tau: float) -> CovEstimate:
    """Shrink every entry toward zero by tau: sign(x) * (|x| - tau)_+."""
    out = _soft(_matrix(est), tau)
    return CovEstimate(out, "soft", {"tau": tau, "base": _kind(est)})


def _barrier_prox(V, target, rho, lam):
    """argmin_X |X - target|^2 + (rho/2)|X - V|^2 - lam log det X.

    Stationarity gives (2 + rho) X - lam X^{-1} = 2 target + rho V, solved
    per eigenvalue of the right-hand side: x = (d + sqrt(d^2 + 4c))/2 with
    c = lam/(2 + rho), the positive root.
    """
    M = (2.0 * target + rho * V) / (2.0 + rho)
    M = 0.5 * (M + M.T)
    d, Q = np.linalg.eigh(M)
    c = lam / (2.0 + rho)
    x = 0.5 * (d + np.sqrt(d * d + 4.0 * c))
    return (Q * x) @ Q.T


def pd_soft_threshold(est, cfg: PdSoftConfig) -> CovEstimate:
    """Soft thresholding with a log-det barrier; output strictly PD.

    ADMM on the splitting f(X) = |X - Shat|^2 - lam log det X,
    g(Z) = 2 tau |Z|_1. Stops when max(primal, dual residual) < tol.
    """
    shat = _matrix(est)
    p = shat.shape[0]
    rho = cfg.rho_admm
    # warm start at the PD-projected soft threshold
    Z = _soft(shat, cfg.tau)
    w, Q = np.linalg.eigh(0.5 * (Z + Z.T))
    Z = (Q * np.maximum(w, cfg.lambda_barrier)) @ Q.T
    Dual = np.zeros((p, p))
    primal = dual = math.inf
    for _ in range(cfg.max_iter):
        X = _barrier_prox(Z - Dual, shat, rho, cfg.lambda_barrier)
        Z_old = Z
        Z = _soft(X + Dual, 2.0 * cfg.tau / rho)
        Dual = Dual + X - Z
        # residuals scaled by iterate magnitudes, floored at 1 so that
        # small-scale problems keep an absolute criterion
        primal_scale = max(1.0, np.linalg.norm(X), np.linalg.norm(Z))
        dual_scale = max(1.0, rho * np.linalg.norm(Dual))
        primal = np.linalg.norm(X - Z) / primal_scale
        dual = rho * np.linalg.norm(Z - Z_old) / dual_scale
        if max(primal, dual) < cfg.tol:
            break
    else:
        raise ConvergenceError(
            f"ADMM did not converge in {cfg.max_iter} iterations "
            f"(primal={primal:.3e}, dual={dual:.3e})",
            primal=primal,
            dual=dual,
        )
    out = 0.5 * (X + X.T)
    base = _kind(est)
    kind = {"spectral": "sps", "sample": "pds"}.get(base, "pdsoft")
    return CovEstimate(
        out,
        kind,
        {"tau": cfg.tau, "lambda": cfg.lambda_barrier, "base": base},
    )


def sample_covariance(Y) -> CovEstimate:
    """Uncentered sample covariance (1/n) sum_k Y_k Y_k^T."""
    data = Y.data if isinstance(Y, SampleMatrix) else np.asarray(Y, dtype=float)
    n = data.shape[0]
    m = data.T @ data / n
    m = np.triu(m) + np.triu(m, k=1).T
    return CovEstimate(m, "sample", {})


def pds_baseline(Y, cfg: PdSoftConfig) -> CovEstimate:
    """PD soft thresholding applied to the sample covariance."""
    return pd_soft_threshold(sample_covariance(Y), cfg)


def cross_validate_tau(Y, U, cfg: CvConfig, fit):
    """Split-based selection of the threshold tau.

    The data is split num_splits times into a training part of size
    n1 = n - n2 and a validation part of size n2 = floor(n / log n). For
    each grid tau, ``fit(train, tau)`` returns the rule estimate on the
    training part, which is compared (squared Frobenius) to the plain
    spectral estimate at radius U on the validation part; the returned tau
    minimizes the summed score, ties broken toward the smaller tau.

    Returns (tau_hat, Q) with Q the score for each grid point.
    """
    data = Y.data if isinstance(Y, SampleMatrix) else np.asarray(Y, dtype=float)
    n = data.shape[0]
    if n < 4:
        raise ValueError("need n >= 4 for a nondegenerate split")
    n2 = int(n / math.log(n))
    n1 = n - n2
    if n1 < 1 or n2 < 1:
        raise ValueError(f"degenerate split sizes n1={n1}, n2={n2}")
    grid = np.asarray(cfg.tau_grid, dtype=float)
    Q = np.zeros(len(grid))
    for m in range(cfg.num_splits):
        rng = np.random.default_rng([cfg.seed, m])
        perm = rng.permutation(n)
        train, val = data[perm[:n1]], data[perm[n1:]]
        val_est = spectral_estimate(val, U).matrix
        for t, tau in enumerate(grid):
            est = fit(train, float(tau))
            Q[t] += float(np.sum((est.matrix - val_est) ** 2))
    # argmin returns the first (= smallest) tau on ties; grid is ascending
    return float(grid[int(np.argmin(Q))]), Q
