"""Covariance models, noise models with closed-form CFs, and samplers.

Every noise model here has an analytic characteristic function
(:func:`noise_cf`), so generated samples can be validated against it; the
heavy-tailed stable models in particular have no moments to check.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectral import CovEstimate, SampleMatrix

__all__ = [
    "CovModel",
    "NoiseModel",
    "Scenario",
    "make_tridiagonal",
    "make_block_diagonal",
    "covariance_sqrt",
    "sample_scenario",
    "noise_cf",
    "frobenius_error",
    "stable_symmetric",
    "stable_one_sided",
]


def make_tridiagonal(p: int) -> np.ndarray:
    """Unit diagonal, 0.4 on the first off-diagonals."""
    if p < 1:
        raise ValueError("p must be >= 1")
    m = np.eye(p)
    idx = np.arange(p - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = 0.4
    return m


def make_block_diagonal(p: int, block_sizes, seed: int = 0) -> np.ndarray:
    """Random-sign symmetric blocks, diagonal-shifted to condition number p.

    The shift c solving (lmax + c)/(lmin + c) = p is available in closed
    form, so the target is hit exactly (up to eigensolver accuracy). The
    result is rescaled to unit largest eigenvalue.
    """
    sizes = list(block_sizes)
    if sum(sizes) != p:
        raise ValueError("block sizes must sum to p")
    rng = np.random.default_rng(seed)
    blocks = []
    for b in sizes:
        mags = rng.uniform(0.5, 1.5, size=(b, b))
        signs = rng.choice([-1.0, 1.0], size=(b, b))
        m = mags * signs
        blocks.append(0.5 * (m + m.T))
    full = np.zeros((p, p))
    pos = 0
    for blk in blocks:
        b = blk.shape[0]
        full[pos:pos + b, pos:pos + b] = blk
        pos += b
    if p == 1:
        return np.array([[1.0]])
    w = np.linalg.eigvalsh(full)
    lmin, lmax = w[0], w[-1]
    if lmax <= lmin:  # all eigenvalues equal; any positive shift gives cond 1
        full = np.eye(p)
        return full
    c = (lmax - p * lmin) / (p - 1.0)
    shifted = full + c * np.eye(p)
    return shifted / (lmax + c)


@dataclass(frozen=True)
class CovModel:
    kind: str  # tridiagonal | block_diagonal | explicit
    p: int
    block_sizes: Optional[tuple] = None
    seed: int = 0
    matrix_value: Optional[np.ndarray] = None

    @classmethod
    def tridiagonal(cls, p):
        return cls(kind="tridiagonal", p=p)

    @classmethod
    def block_diagonal(cls, p, block_sizes, seed=0):
        return cls(kind="block_diagonal", p=p, block_sizes=tuple(block_sizes),
                   seed=seed)

    @classmethod
    def explicit(cls, matrix):
        m = np.asarray(matrix, dtype=float)
        return cls(kind="explicit", p=m.shape[0], matrix_value=m)

    def matrix(self) -> np.ndarray:
        if self.kind == "tridiagonal":
            return make_tridiagonal(self.p)
        if self.kind == "block_diagonal":
            return make_block_diagonal(self.p, self.block_sizes, self.seed)
        if self.kind == "explicit":
            return self.matrix_value
        raise ValueError(f"unknown covariance model {self.kind!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise with analytically known characteristic function."""

    kind: str  # none | gamma_elliptical | gaussian | stable
    theta: Optional[float] = None
    A: Optional[np.ndarray] = None
    rho: Optional[float] = None
    beta: Optional[float] = None
    sigma: Optional[float] = None
    norm: str = "lbeta"  # lbeta (independent coords) | l2 (isotropic)

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def gamma_elliptical(cls, A, theta):
        if theta <= 0:
            raise ValueError("theta must be positive")
        return cls(kind="gamma_elliptical", A=np.asarray(A, dtype=float),
                   theta=float(theta))

    @classmethod
    def gaussian(cls, rho):
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        return cls(kind="gaussian", rho=float(rho))

    @classmethod
    def stable(cls, beta, sigma, norm="lbeta"):
        if not (0 < beta < 2):
            raise ValueError("beta must lie in (0, 2)")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if norm not in ("lbeta", "l2"):
            raise ValueError("norm must be 'lbeta' or 'l2'")
        return cls(kind="stable", beta=float(beta), sigma=float(sigma),
                   norm=norm)


@dataclass(frozen=True)
class Scenario:
    cov: CovModel
    noise: NoiseModel
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.noise.kind == "gamma_elliptical" and \
                self.noise.A.shape != (self.cov.p, self.cov.p):
            raise ValueError("noise mixing matrix A has wrong shape")


def covariance_sqrt(sigma) -> np.ndarray:
    """Symmetric eigen square root; tolerates tiny negative eigenvalues."""
    sigma = np.asarray(sigma, dtype=float)
    w, Q = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if np.any(w < -1e-10):
        raise ValueError(f"covariance has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (Q * np.sqrt(w)) @ Q.T


def stable_symmetric(rng, beta, size):
    """Symmetric beta-stable draws with cf exp(-|t|^beta) (unit scale)."""
    V = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    E = rng.exponential(1.0, size=size)
    # sin(beta V) / cos(V)^(1/beta) * (cos((1 - beta) V) / E)^((1 - beta)/beta),
    # in place over three buffers, each step in the order of that expression
    P = (1.0 - beta) * V
    np.cos(P, out=P)
    P /= E
    P **= (1.0 - beta) / beta
    np.cos(V, out=E)
    E **= 1.0 / beta
    V *= beta
    np.sin(V, out=V)
    V /= E
    V *= P
    return V


def stable_one_sided(rng, alpha, size):
    """Positive alpha-stable (alpha < 1) with Laplace transform exp(-s^alpha)."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    V = rng.uniform(0.0, math.pi, size=size)
    E = rng.exponential(1.0, size=size)
    a = (
        np.sin((1.0 - alpha) * V)
        * np.sin(alpha * V) ** (alpha / (1.0 - alpha))
        / np.sin(V) ** (1.0 / (1.0 - alpha))
    )
    return (a / E) ** ((1.0 - alpha) / alpha)


def _sample_noise(model: NoiseModel, n, p, rng):
    if model.kind == "none":
        return np.zeros((n, p))
    if model.kind == "gaussian":
        return model.rho * rng.standard_normal((n, p))
    if model.kind == "gamma_elliptical":
        W = rng.gamma(model.theta, 1.0, size=n)
        Z = rng.standard_normal((n, p)) @ model.A.T
        Z *= np.sqrt(W)[:, None]
        return Z
    if model.kind == "stable":
        if model.norm == "lbeta":
            noise = stable_symmetric(rng, model.beta, (n, p))
            noise *= model.sigma ** (1.0 / model.beta)
            return noise
        # isotropic: sqrt of a one-sided (beta/2)-stable mixes a Gaussian;
        # scaling chosen so the cf is exp(-sigma |u|_2^beta)
        W = stable_one_sided(rng, model.beta / 2.0, n)
        G = rng.standard_normal((n, p))
        scale = model.sigma ** (1.0 / model.beta) * math.sqrt(2.0)
        G *= scale * np.sqrt(W)[:, None]
        return G
    raise ValueError(f"unknown noise model {model.kind!r}")


def sample_scenario(s: Scenario) -> SampleMatrix:
    """Draw n noisy observations Y = X + eps, deterministic given the seed."""
    sigma = s.cov.matrix()
    p = sigma.shape[0]
    rng = np.random.default_rng(s.seed)
    X = rng.standard_normal((s.n, p)) @ covariance_sqrt(sigma)
    X += _sample_noise(s.noise, s.n, p, rng)
    return SampleMatrix(X)


def noise_cf(model: NoiseModel, u) -> complex:
    """Closed-form noise characteristic function psi(u)."""
    u = np.asarray(u, dtype=float)
    if model.kind == "none":
        val = 1.0 + 0.0j
    elif model.kind == "gaussian":
        val = complex(np.exp(-0.5 * model.rho**2 * float(u @ u)))
    elif model.kind == "gamma_elliptical":
        q = float(u @ (model.A @ model.A.T) @ u)
        val = complex((1.0 + 0.5 * q) ** (-model.theta))
    elif model.kind == "stable":
        if model.norm == "lbeta":
            r = float(np.sum(np.abs(u) ** model.beta))
        else:
            r = float(np.linalg.norm(u) ** model.beta)
        val = complex(np.exp(-model.sigma * r))
    else:
        raise ValueError(f"unknown noise model {model.kind!r}")
    return val


def frobenius_error(est, truth) -> float:
    """Frobenius distance between an estimate and the true matrix."""
    m = est.matrix if isinstance(est, CovEstimate) else np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if m.shape != truth.shape:
        raise ValueError("shape mismatch")
    return float(np.sqrt(np.sum((m - truth) ** 2)))
