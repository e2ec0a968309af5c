"""Low-rank covariance recovery via a weighted nuclear-norm Lasso.

The data-fit term compares the rescaled log-modulus of the empirical
characteristic function against the linear statistic <Theta(u), M> with
rank-one design Theta(u) = -d d^T, d = u/|u|, integrated over an annulus of
radius ~U against a smooth radial bump weight of unit mass, so lambda is in
the paper's units. The integral is replaced by a frozen, seeded Monte Carlo
quadrature, made with its design, normal-equation matrix and step once per
configuration (:func:`_quadrature`), so a call only evaluates the empirical
characteristic function (ECF) and runs FISTA. The estimate is constrained
to the PSD cone, where the nuclear norm is the trace.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, spectral
from ._checks import (NUMBER, _COUNT, _NONNEGATIVE, _POSITIVE, _SEED, _Key,
                      _args, _at_least, _check, _fields)
from .spectral import CovEstimate, _as_sample, _finite_from

__all__ = [
    "WeightFunction",
    "LowRankConfig",
    "bump_weight",
    "sample_annulus",
    "lowrank_estimate",
    "lambda_threshold",
    "nuclear_prox",
    "SolverError",
]

ANNULUS = (0.25, 0.5)

# The quadrature drops its lightest points while together they weigh at
# most this share of its total weight.
_LIGHT = 1e-12

# The ranges of LowRankConfig's and WeightFunction's fields,
# lowrank_estimate's seed and lambda_threshold's norm of Sigma and noise
# level, 0 without noise.
_RANGES = {"U": _Key(NUMBER, _at_least(1)), "lambda_nuc": _POSITIVE,
           "mc_samples": _COUNT, "max_iter": _COUNT, "tol": _POSITIVE,
           "seed": _SEED, "sigma_norm": _NONNEGATIVE, "T": _NONNEGATIVE,
           "p": _COUNT, "mass": _POSITIVE,
           "kappa_lower": _Key(NUMBER, ((lambda v: 0 < v <= 1), "in (0, 1]"))}


class SolverError(RuntimeError):
    def __init__(self, msg, objective_trace=None):
        super().__init__(msg)
        self.objective_trace = objective_trace


@dataclass(frozen=True)
class WeightFunction:
    """Radial bump on the annulus 1/4 <= |v| <= 1/2, divided by its mass.

    Calling it on radii gives the normalised profile. ``mass`` is the raw
    bump's integral over R^p; ``kappa_lower`` is the smaller isometry
    constant int (v1^4/|v|^4) w(v) dv.
    """

    p: int
    mass: float
    kappa_lower: float

    def __post_init__(self):
        # kappa_lower is at most l1_mass, which is 1
        _fields(self, _RANGES)

    @property
    def l1_mass(self) -> float:
        """Total integral of the weight: 1 by construction."""
        return 1.0

    def __call__(self, r):
        return _bump_profile(r) / self.mass


def _bump_profile(r):
    r = np.asarray(r, dtype=float)
    lo, hi = ANNULUS
    inside = (r > lo) & (r < hi)
    out = np.zeros_like(r)
    rr = r[inside]
    out[inside] = np.exp(-1.0 / ((rr - lo) * (hi - rr)))
    return out


def bump_weight(p, seed=0) -> WeightFunction:
    """The default unit-mass bump weight in dimension p.

    The raw mass is area(S^{p-1}) * int bump(r) r^{p-1} dr; the trapezoid
    rule is spectrally accurate here because the bump and all its
    derivatives vanish at both ends of the annulus. ``seed`` is unused: the
    mass is computed exactly, and the argument is accepted for callers that
    pass it.
    """
    lo, hi = ANNULUS
    r = np.linspace(lo, hi, 2001)
    radial = float(np.sum(_bump_profile(r) * r ** (p - 1))) * (hi - lo) / 2000
    area = 2.0 * math.pi ** (p / 2.0) / math.gamma(p / 2.0)
    # E[d_1^4] for d uniform on the unit sphere
    return WeightFunction(p=p, mass=area * radial, kappa_lower=3.0 / (p * (p + 2.0)))


def sample_annulus(p, U, m, rng):
    """m points uniform on {U/4 <= |u| <= U/2}, as (unit directions, radii)."""
    lo, hi = ANNULUS[0] * U, ANNULUS[1] * U
    g = rng.standard_normal((m, p))
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    # radius density prop. to r^(p-1) on [lo, hi]
    radii = (rng.uniform(lo**p, hi**p, size=m)) ** (1.0 / p)
    return dirs, radii


@dataclass(frozen=True)
class LowRankConfig:
    U: float
    lambda_nuc: float
    mc_samples: int = 4096
    max_iter: int = 2000
    tol: float = 1e-10

    def __post_init__(self):
        _fields(self, _RANGES)


@functools.lru_cache(maxsize=1)
def _quadrature(p, U, m, seed, w):
    """The data-independent half of the fit, made once per configuration:
    the kept points' radii r, frequencies u = d r and weights omega, their
    design A (:func:`_design`), G = A^T A, and the exact step 1/L with
    L = 2 lambda_max(G), or 1 if L = 0 (all weights zero: the fit is
    constant). The arrays are read-only.

    Draws m seeded points u = d r uniform on the annulus U/4 <= |u| <= U/2
    (unit direction d, radius r). The annulus has volume U^p vol1, with
    vol1 = pi^(p/2) / Gamma(p/2 + 1) (1/2^p - 1/4^p), so the unit-mass
    weight w(r/U)/U^p gives the importance weights omega = w(r/U) vol1 / m,
    which sum to about 1. The lightest points are dropped while their
    running sum stays at most ``_LIGHT`` times the total, so the kept
    points, in draw order, hold all but 1e-12 of the weight. The heaviest
    point is always kept, so that the ECF is evaluated, and the sample
    checked from it, even when every weight is 0. Only the last
    configuration is held: A and G take about 1 MB at p=10.
    """
    D, r = sample_annulus(p, U, m, np.random.default_rng(seed))
    lo, hi = ANNULUS
    vol1 = math.pi ** (p / 2.0) / math.gamma(p / 2.0 + 1.0) * (hi**p - lo**p)
    omega = w(r / U) * (vol1 / m)
    order = np.argsort(omega)
    running = np.cumsum(omega[order])
    light = min(int(np.searchsorted(running, _LIGHT * running[-1], "right")),
                m - 1)
    kept = np.sort(order[light:])
    D, r, omega = D[kept], r[kept], omega[kept]
    A = _design(D, omega)
    G = A.T @ A
    L = 2.0 * float(np.linalg.eigvalsh(G)[-1])
    arrays = r, D * r[:, None], omega, A, G
    for a in arrays:
        a.flags.writeable = False
    return *arrays, 1.0 / L if L > 0 else 1.0


def _design(D, omega):
    """The weighted design rows sqrt(omega_k) vec(d_k d_k^T), an m x p^2 array.

    <Theta_k, M> = -vec(d_k d_k^T) . vec(M), so the data fit at M is
    |sqrt(omega) g + A vec(M)|^2 for the returned A.
    """
    m, p = D.shape
    A = np.einsum("ki,kj->kij", D, D).reshape(m, p * p)
    A *= np.sqrt(omega)[:, None]
    return A


def nuclear_prox(M, t):
    """Prox of t * nuclear norm restricted to the PSD cone.

    Soft-thresholds the eigenvalues of the symmetric part by t and clips
    them at 0; on PSD matrices the nuclear norm is the trace.
    """
    w, Q = np.linalg.eigh(0.5 * (M + M.T))
    return (Q * np.maximum(w - t, 0.0)) @ Q.T


def lowrank_estimate(Y, cfg: LowRankConfig, w: WeightFunction, seed=0) -> CovEstimate:
    """Nuclear-norm-penalized PSD fit of the CF regression over the annulus.

    Only the data-dependent half runs here: the ECF at the kept points of
    :func:`_quadrature`, the targets g = 2 log|ecf(u)| / |u|^2 where
    |ecf(u)| >= 1/(2 sqrt(n)), else 0, and FISTA on the data fit
    |sqrt(omega) g + A vec(M)|^2 plus lambda * tr(M), with the held step;
    converged when the relative objective decrease drops below cfg.tol.
    A non-finite ECF (a non-finite entry or an overflowing phase) has the
    sample scanned. ``w`` must be the weight of the data's dimension.
    """
    seed = _args(_RANGES, seed=seed)["seed"]
    data = _as_sample(Y)
    p = data.shape[1]
    if w.p != p:
        raise ValueError(f"weight is for dimension {w.p}, data have {p}")
    r, freqs, omega, A, G, step = _quadrature(p, cfg.U, cfg.mc_samples,
                                              seed, w)
    mod = np.abs(_finite_from(_kernels.ecf(data, freqs), data,
                              "ECF phases overflow"))
    keep = mod >= 0.5 / math.sqrt(len(data))
    target = np.zeros(len(mod))
    target[keep] = 2.0 * np.log(mod[keep]) / r[keep] ** 2
    target *= np.sqrt(omega)
    b = A.T @ target

    def total(M):
        res = target + A @ M.ravel()
        return float(res @ res) + cfg.lambda_nuc * float(np.trace(M))

    M = np.zeros((p, p))
    V = M
    t_mom = 1.0
    obj = total(M)
    trace = [obj]
    for _ in range(cfg.max_iter):
        grad = 2.0 * (G @ V.ravel() + b).reshape(p, p)
        cand = nuclear_prox(V - step * grad, step * cfg.lambda_nuc)
        new_obj = total(cand)
        if new_obj > obj:  # enforce monotonicity (FISTA restart)
            V = M
            t_mom = 1.0
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2))
        V = cand + ((t_mom - 1.0) / t_new) * (cand - M)
        M = cand
        t_mom = t_new
        trace.append(new_obj)
        rel = (obj - new_obj) / max(abs(obj), 1e-30)
        obj = new_obj
        if 0 <= rel < cfg.tol:
            break
    else:
        raise SolverError(
            f"proximal gradient did not converge in {cfg.max_iter} iterations",
            objective_trace=trace,
        )
    return CovEstimate(0.5 * (M + M.T), {
        "U": cfg.U, "lambda": cfg.lambda_nuc, "mc_samples": cfg.mc_samples,
        "seed": seed, "objective_trace": tuple(trace)})


def lambda_threshold(U, sigma_norm, T, beta, gamma, n):
    """Two-term heuristic bound for the nuclear penalty at radius U.

    lam = gamma^2 exp(|Sigma| U^2/4 + 4 T U^beta)/(U^2 sqrt(n)) + T U^(beta-2)
    with both existential constants set to 1 (heuristic). Returns
    (lam, hypothesis_ok); the flag is False when the concentration
    hypothesis exp(|Sigma| U^2/8 + 2 T U^beta) <= sqrt(n) fails. lam is
    inf, and the flag False, where an exponent, gamma^2 or U^2 leaves
    float64's range.
    """
    _check(None, {"U": U, "sigma_norm": sigma_norm, "T": T}, _RANGES)
    _check(None, {"beta": beta, "gamma": gamma, "n": n}, spectral._RANGES)
    lam = spectral._inf_on_overflow(lambda: (
        gamma**2 * math.exp(sigma_norm * U**2 / 4.0 + 4.0 * T * U**beta)
        / (U**2 * math.sqrt(n))
        + T * U ** (beta - 2.0)))
    ok = spectral._inf_on_overflow(lambda: math.exp(
        sigma_norm * U**2 / 8.0 + 2.0 * T * U**beta)) <= math.sqrt(n)
    return lam, ok
