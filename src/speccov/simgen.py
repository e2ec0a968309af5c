"""Covariance models, noise models with closed-form CFs, and samplers.

Every noise model here has an analytic characteristic function
(:func:`noise_cf`), so generated samples can be validated against it; the
heavy-tailed stable models in particular have no moments to check.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._checks import (NUMBER, WHOLES, _COUNT, _NONNEGATIVE, _POSITIVE, _SEED,
                      _Key, _args, _check, _fields)
from .spectral import CovEstimate, _as_data

__all__ = [
    "CovModel",
    "NoiseModel",
    "Scenario",
    "covariance_sqrt",
    "sample_scenario",
    "noise_cf",
    "frobenius_error",
    "stable_symmetric",
    "stable_one_sided",
]

# The most negative eigenvalue a covariance matrix may have: smaller ones
# are taken as rounding and clipped to zero.
_PSD_CUTOFF = -1e-10
# The ranges of the sizes, seeds and numbers that this module's code takes;
# each noise kind is named after its NoiseModel constructor.
_RANGES = {"p": _COUNT, "n": _COUNT, "seed": _SEED,
           "block_sizes": _Key(WHOLES, _NONNEGATIVE.range),
           "alpha": _Key(NUMBER, ((lambda v: 0 < v < 1), "in (0, 1)")),
           "kind": _Key(("none", "gamma_elliptical", "gaussian", "stable")),
           "theta": _POSITIVE, "rho": _NONNEGATIVE,
           "beta": _Key(NUMBER, ((lambda v: 0 < v < 2), "in (0, 2)")),
           "sigma": _POSITIVE, "norm": _Key(("lbeta", "l2"))}


class CovModel:
    """A covariance matrix, built once by a constructor and held read-only,
    and its square root, computed once on first use and held the same way."""

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        m.setflags(write=False)
        self._matrix = m
        self._sqrt = None

    @classmethod
    def tridiagonal(cls, p):
        """Unit diagonal, 0.4 on the first off-diagonals."""
        p = _args(_RANGES, p=p)["p"]
        return cls(np.eye(p) + 0.4 * (np.eye(p, k=1) + np.eye(p, k=-1)))

    @classmethod
    def block_diagonal(cls, p, block_sizes, seed=0):
        """Random-sign symmetric blocks, shifted by the c that solves
        (lmax + c)/(lmin + c) = p in closed form, so that the condition
        number is p up to eigensolver accuracy, and rescaled to unit
        largest eigenvalue."""
        args = _args(_RANGES, p=p, block_sizes=list(block_sizes), seed=seed)
        p, sizes, seed = args["p"], args["block_sizes"], args["seed"]
        if sum(sizes) != p:
            raise ValueError("block sizes must sum to p")
        rng = np.random.default_rng(seed)
        full = np.zeros((p, p))
        pos = 0
        for b in sizes:
            mags = rng.uniform(0.5, 1.5, size=(b, b))
            signs = rng.choice([-1.0, 1.0], size=(b, b))
            m = mags * signs
            full[pos:pos + b, pos:pos + b] = 0.5 * (m + m.T)
            pos += b
        w = np.linalg.eigvalsh(full)
        lmin, lmax = w[0], w[-1]
        if lmax <= lmin:  # all eigenvalues equal, as at p = 1: the result is I
            return cls(np.eye(p))
        c = (lmax - p * lmin) / (p - 1.0)
        shifted = full + c * np.eye(p)
        return cls(shifted / (lmax + c))

    @classmethod
    def explicit(cls, matrix):
        """A given matrix, which must be square, finite, symmetric and
        positive semidefinite up to the cutoff of covariance_sqrt."""
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("matrix must be a square matrix, got shape "
                             f"{m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix must have finite entries")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be symmetric")
        w_min = np.linalg.eigvalsh(m)[0]
        if w_min < _PSD_CUTOFF:
            raise ValueError("matrix must be positive semidefinite, has "
                             f"eigenvalue {w_min:.3e}")
        return cls(m)

    @property
    def p(self) -> int:
        return self._matrix.shape[0]

    def matrix(self) -> np.ndarray:
        return self._matrix

    def sqrt(self) -> np.ndarray:
        """covariance_sqrt of the matrix, which every sample of it uses."""
        if self._sqrt is None:
            r = covariance_sqrt(self._matrix)
            r.setflags(write=False)
            self._sqrt = r
        return self._sqrt


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

    def __post_init__(self):
        _fields(self, {"kind": _RANGES["kind"]})

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def gamma_elliptical(cls, A, theta):
        theta = _args(_RANGES, theta=theta)["theta"]
        A = np.asarray(A, dtype=float)
        if not np.isfinite(A).all():
            raise ValueError("A must have finite entries")
        return cls(kind="gamma_elliptical", A=A, theta=theta)

    @classmethod
    def gaussian(cls, rho):
        return cls(kind="gaussian", **_args(_RANGES, rho=rho))

    @classmethod
    def stable(cls, beta, sigma, norm="lbeta"):
        return cls(kind="stable",
                   **_args(_RANGES, beta=beta, sigma=sigma, norm=norm))


@dataclass(frozen=True)
class Scenario:
    cov: CovModel
    noise: NoiseModel
    n: int
    seed: int = 0

    def __post_init__(self):
        _fields(self, {"n": _RANGES["n"]})
        # a list of seeds is the entropy of one SeedSequence, such as
        # run_experiment's (seed, replication), each entry checked as a seed
        many = isinstance(self.seed, (list, tuple))
        seeds = [_args(_RANGES, seed=s)["seed"]
                 for s in (self.seed if many else [self.seed])]
        object.__setattr__(self, "seed", seeds if many else seeds[0])
        if self.noise.kind == "gamma_elliptical" and \
                self.noise.A.shape != (self.cov.p, self.cov.p):
            raise ValueError("noise mixing matrix A has wrong shape")


def covariance_sqrt(sigma) -> np.ndarray:
    """Symmetric eigen square root; tolerates tiny negative eigenvalues."""
    sigma = np.asarray(sigma, dtype=float)
    w, Q = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if np.any(w < _PSD_CUTOFF):
        raise ValueError(f"covariance has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (Q * np.sqrt(w)) @ Q.T


# A sample's products with Sigma^(1/2) and with A, and its noise, are
# taken by blocks of rows that take at least _BLOCK_MADDS multiply-adds and
# are a multiple of _BLOCK_ALIGN rows, so that a draw made by row blocks
# equals the whole-array draw bit for bit. With OpenBLAS 0.3.31 on an
# AVX-512 x86-64 CPU, a product of up to 10**6 multiply-adds takes a
# small-matrix kernel that rounds differently, and for p above 256 the
# rounding of a row depends on its place in the kernel's tiles of 12 rows;
# 48 rows make a whole number of tiles of 8, 12 or 16 rows.
_BLOCK_MADDS = 1 << 20
_BLOCK_ALIGN = 48


def _row_blocks(n, p):
    """Slices that cut n rows of width p into the blocks of a product with
    a p x p matrix; the last block also takes a shorter remainder."""
    rows = -(-_BLOCK_MADDS // (p * p))
    rows = -(-rows // _BLOCK_ALIGN) * _BLOCK_ALIGN
    cuts = [k * rows for k in range(max(1, n // rows))] + [n]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def stable_symmetric(rng, beta, size):
    """Symmetric beta-stable draws with cf exp(-|t|^beta) (unit scale)."""
    V = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    E = rng.exponential(1.0, size=size)
    return (np.sin(beta * V) / np.cos(V) ** (1.0 / beta)
            * (np.cos((1.0 - beta) * V) / E) ** ((1.0 - beta) / beta))


def stable_one_sided(rng, alpha, size):
    """Positive alpha-stable (alpha < 1) with Laplace transform exp(-s^alpha)."""
    _check(None, {"alpha": alpha}, _RANGES)
    V = rng.uniform(0.0, math.pi, size=size)
    E = rng.exponential(1.0, size=size)
    return (np.sin((1.0 - alpha) * V)
            * np.sin(alpha * V) ** (alpha / (1.0 - alpha))
            / np.sin(V) ** (1.0 / (1.0 - alpha))
            / E) ** ((1.0 - alpha) / alpha)


def _add_noise(model: NoiseModel, X, rng):
    """Add a draw of the noise to the sample X in place, one row block at a
    time, each block taking its numbers from ``rng`` in turn. Gamma noise
    first draws its weights for all n rows, so Gaussian and gamma noise, and
    only they, equal a draw of the whole n x p noise array bit for bit."""
    n, p = X.shape
    if model.kind == "none":
        return
    if model.kind == "gamma_elliptical":
        weights = rng.gamma(model.theta, 1.0, size=n)
        np.sqrt(weights, out=weights)
    elif model.kind == "stable":
        scale = model.sigma ** (1.0 / model.beta)
    for rows in _row_blocks(n, p):
        shape = (rows.stop - rows.start, p)
        if model.kind == "gaussian":
            G = rng.standard_normal(shape)
            G *= model.rho
        elif model.kind == "gamma_elliptical":
            G = rng.standard_normal(shape) @ model.A.T
            G *= weights[rows, None]
        elif model.norm == "lbeta":
            G = stable_symmetric(rng, model.beta, shape)
            G *= scale
        else:
            # isotropic: sqrt of a one-sided (beta/2)-stable mixes a
            # Gaussian; scaling chosen so the cf is exp(-sigma |u|_2^beta)
            w = stable_one_sided(rng, model.beta / 2.0, shape[0])
            np.sqrt(w, out=w)
            w *= scale * math.sqrt(2.0)
            G = rng.standard_normal(shape)
            G *= w[:, None]
        X[rows] += G
        del G  # so that it is not held while the next block is drawn


def sample_scenario(s: Scenario) -> np.ndarray:
    """Draw n noisy observations Y = X + eps, deterministic given the seed,
    as a float64 (n, p) array whose entries are checked to be finite.

    The sample is drawn into its output array, whose products with
    Sigma^(1/2) and with the noise's A are taken one row block at a time,
    and the noise is drawn block by block: working memory beyond the output
    is a few fixed-size blocks and, for gamma noise, a weight per row.
    Stable noise takes its numbers block by block; gamma noise draws its
    weights for all rows first. For Gaussian and gamma noise only, every
    number is the one that the whole-array draw
    rng.standard_normal((n, p)) @ Sigma^(1/2) plus the noise gives, except
    for p above 256 with a multi-threaded BLAS, whose whole-array product
    depends on the number of threads.
    """
    p = s.cov.p
    rng = np.random.default_rng(s.seed)
    X = rng.standard_normal((s.n, p))
    root = s.cov.sqrt()
    for rows in _row_blocks(s.n, p):
        X[rows] = X[rows] @ root
    _add_noise(s.noise, X, rng)
    return _as_data(X)


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
    else:  # stable
        if model.norm == "lbeta":
            r = float(np.sum(np.abs(u) ** model.beta))
        else:
            r = float(np.linalg.norm(u) ** model.beta)
        val = complex(np.exp(-model.sigma * r))
    return val


def frobenius_error(est, truth) -> float:
    """Frobenius distance between an estimate and the true matrix."""
    m = est.matrix if isinstance(est, CovEstimate) else np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if m.shape != truth.shape:
        raise ValueError("shape mismatch")
    return float(np.sqrt(np.sum((m - truth) ** 2)))
