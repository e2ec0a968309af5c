"""Entrywise thresholding, positive-definite variants, and threshold CV.

Hard and soft thresholding act entrywise on a covariance estimate, diagonal
included. The positive-definite soft threshold solves

    min_{S > 0}  |S - Shat|_F^2 + 2 tau |S|_1 - lam log det S

by over-relaxed ADMM with two closed-form proximal maps: entrywise soft
thresholding and an eigenvalue map for the quadratic-plus-log-barrier
block. Type-II Anderson acceleration extrapolates the ADMM state from its
last five steps, with a safeguard that falls back to the plain ADMM step
whenever an extrapolated point's fixed-point residual grows; this about
halves the iterations, whose cost is mostly one p x p eigendecomposition
each. The solver starts from a closed-form point, exact when the thresholded
matrix is diagonal, and from the dual that makes the first X-update return
that point, so that update is skipped: k iterations cost k - 1
eigendecompositions. The ADMM penalty adapts by residual balancing, which
clears the acceleration's memory, so ``PdSoftConfig.rho_admm`` is only the
starting penalty: it changes the iteration count, not the solution, and the
solver converges on the whole default CV grid ``DEFAULT_TAU_GRID``; no
config sets it. Given configs that differ only in tau, one estimate per
config, ``pd_soft_threshold`` solves them as stacks of problems that share
each iteration's numpy calls (one stacked eigendecomposition among them)
while each converges on its own and then leaves the stack; CV solves a
split's whole tau grid this way, and ``simulate`` a block of replications.
A problem leaves in place: in every per-problem array, the stack's last
row moves into its row, so the stack is never held twice. The stacks of
one call run on the ECF kernels' thread pool, and their estimates are
collected in stack order.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from ._checks import (NUMBERS, _COUNT, _NONNEGATIVE, _POSITIVE, _SEED, _Key,
                      _check, _fields)
# spectral_estimate is unused here but kept: perfbench's tracer rebinds it
from .spectral import (CovEstimate, _as_data, _as_sample, _finite_from,
                       spectral_estimate)

__all__ = [
    "PdSoftConfig",
    "CvConfig",
    "hard_threshold",
    "soft_threshold",
    "pd_soft_threshold",
    "sample_covariance",
    "cross_validate_tau",
    "ConvergenceError",
    "DEFAULT_TAU_GRID",
]

# the tau grid of CV when none is given
DEFAULT_TAU_GRID = tuple(np.geomspace(1e-3, 2.0, 40).tolist())

# Residual balancing (Boyd et al. 2011, ADMM, section 3.4.1): every
# _BALANCE_EVERY iterations, when one scaled residual exceeds the other by
# more than _BALANCE_RATIO, rho moves by _BALANCE_FACTOR toward the larger
# one. Balancing every iteration by a factor of 2 took more iterations in
# total on CV grids.
_BALANCE_EVERY = 10
_BALANCE_RATIO = 10.0
_BALANCE_FACTOR = 10.0
# Over-relaxation (Boyd et al. 2011, ADMM, section 3.4.3): the Z- and dual
# updates see _RELAX * X + (1 - _RELAX) * Z_old in place of X.
_RELAX = 1.5
# Anderson acceleration of the ADMM map (see _Anderson): the number of
# difference pairs kept, and the Tikhonov weight of its least-squares
# system relative to the trace of the Gram matrix. On 16 CV paths of 40
# tau (p=20), memory 3, 5 and 10 took 7313, 7072 and 6961 iterations, and
# plain ADMM 12885; the weight moved the count by under 1% from 1e-14 to
# 1e-6.
_AA_MEMORY = 5
_AA_REG = 1e-10
_AA_REG_EYE = _AA_REG * np.eye(_AA_MEMORY)
# The p x p elements of the problems of one stack. A problem holds about 33
# p x p arrays (its state and image, Anderson's ten differences and last
# point, Shat and the X-update's shift), and 38 at the stack's peak with the
# Anderson step's temporaries and the estimates returned so far: the last
# row of each array moves into the row of a problem that converges (_drop),
# so a stack is never copied. A stack of _STACK // p**2 problems so peaks
# near 300 * _STACK bytes (2.4 MB) however many problems the caller passes,
# and a call holds one such stack per worker of the thread pool that solves
# its stacks (_kernels._in_order). At p=20 a stack is 20 problems: a CV
# split's 40-point grid is two stacks, one per worker on 2 CPUs, and a
# simulate block of 8 replications is one stack and runs inline; at p <= 14
# a 40-point grid is one stack. A stack must be large for its
# eigendecompositions and elementwise loops to run long without the GIL:
# over stacks of 4 at p=20 (1600 elements), the threads gained nothing. On
# the perfbench cv workload (2 CPUs, 26 pairs of 25 s runs), stacks of 20
# over stacks of 8 cut the median call by 15-17% and raised the peak RSS of
# a run by 4.7-6.8%.
_STACK = 8000
# The ranges of PdSoftConfig's and CvConfig's fields and of every tau.
_RANGES = {"tau": _NONNEGATIVE, "lambda_barrier": _POSITIVE,
           "max_iter": _COUNT, "tol": _POSITIVE, "rho_admm": _POSITIVE,
           "num_splits": _COUNT, "tau_grid": _Key(NUMBERS, _POSITIVE.range),
           "seed": _SEED}


class ConvergenceError(RuntimeError):
    def __init__(self, msg, primal=None, dual=None, iterations=None, rho=None):
        super().__init__(msg)
        self.primal = primal
        self.dual = dual
        self.iterations = iterations
        self.rho = rho


@dataclass(frozen=True)
class PdSoftConfig:
    tau: float
    lambda_barrier: float = 1e-4
    max_iter: int = 10_000
    tol: float = 1e-7
    # the geometric mean of the extreme eigenvalues of the Hessian 2I of
    # the fit term, the best ADMM penalty for a quadratic (Ghadimi et al.
    # 2015, IEEE TAC)
    rho_admm: float = 2.0

    def __post_init__(self):
        _fields(self, _RANGES)


@dataclass(frozen=True)
class CvConfig:
    num_splits: int
    tau_grid: Sequence[float]
    seed: int = 0

    def __post_init__(self):
        _fields(self, _RANGES)
        grid = np.asarray(self.tau_grid, dtype=float)
        if grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("tau_grid must be nonempty and strictly "
                             f"ascending, got {self.tau_grid!r}")
        # a tuple, so that configs compare and hash by value
        object.__setattr__(self, "tau_grid", tuple(grid.tolist()))


def _matrix(est) -> np.ndarray:
    """The matrix of a CovEstimate, or an array that passes its checks
    (square, finite, exactly symmetric), as every threshold rule takes."""
    if isinstance(est, CovEstimate):
        return est.matrix
    return CovEstimate(est).matrix


def _soft(x, t, out=None):
    return np.multiply(np.sign(x), np.maximum(np.abs(x) - t, 0.0), out=out)


def hard_threshold(est, tau: float) -> CovEstimate:
    """Zero out entries with |value| <= tau (strict survival rule)."""
    _check(None, {"tau": tau}, _RANGES)
    m = _matrix(est)
    return CovEstimate(np.where(np.abs(m) > tau, m, 0.0), {"tau": tau})


def soft_threshold(est, tau: float) -> CovEstimate:
    """Shrink every entry toward zero by tau: sign(x) * (|x| - tau)_+."""
    _check(None, {"tau": tau}, _RANGES)
    return CovEstimate(_soft(_matrix(est), tau), {"tau": tau})


def _pos_root(t, two_c, root):
    """The positive root of x^2 - t x - c = 0 (c > 0), elementwise, given
    ``two_c`` = 2c and ``root`` = 2 sqrt(c).

    With m = |t| + sqrt(t^2 + 4c) the root is m/2 for t >= 0 and, since the
    roots multiply to -c, 2c/m for t < 0. No branch subtracts, so the root
    keeps its relative accuracy where the textbook form
    (t + sqrt(t^2 + 4c))/2 cancels to 0 (t << -sqrt(c)), and m >= 2 sqrt(c)
    is never 0. hypot(t, 2 sqrt(c)) takes sqrt(t^2 + 4c) without squaring t.
    """
    m = np.hypot(t, root)
    m += np.abs(t)
    return np.divide(two_c, m, out=0.5 * m, where=t < 0)


def _barrier_prox(V, terms, out):
    """argmin_X |X - target|^2 + (rho/2)|X - V|^2 - lam log det X, for each
    problem of a stack: V is (B, p, p) and is overwritten.

    Stationarity gives (2 + rho) X - lam X^{-1} = 2 target + rho V, solved
    per eigenvalue d of M = (2 target + rho V)/(2 + rho) (eigh reads its
    lower triangle): x is the positive root of x^2 - d x - lam/(2 + rho)
    = 0. The caller passes the terms that change only with rho:
    ``terms`` = (2 target/(2 + rho), rho/(2 + rho) as (B, 1, 1), and for
    _pos_root 2 lam/(2 + rho) and 2 sqrt(lam/(2 + rho)) as (B, 1)). M is
    built in V, and X is written to ``out``.
    """
    shift, weight, two_c, root = terms
    V *= weight
    V += shift
    d, Q = np.linalg.eigh(V)
    np.matmul(Q * _pos_root(d, two_c, root)[:, None, :], Q.mT, out=out)


def _drop(leaving, arrays):
    """Drop the rows ``leaving``, an ascending index into a stack, from
    each of its per-problem ``arrays`` in place, and return the views of
    the rows kept.

    For each row that leaves, from the last, the last row still in the
    stack is copied into its place, so a stack's arrays shrink without a
    second copy of the stack, and its rows change order.
    """
    m = len(arrays[0])
    for b in leaving[::-1]:
        m -= 1
        if b < m:
            for a in arrays:
                a[b] = a[m]
    return [a[:m] for a in arrays]


class _Anderson:
    """Type-II Anderson acceleration of the fixed-point maps s -> g(s) of a
    stack, one map per row of a (B, size) array (Walker & Ni 2011, SIAM J.
    Numer. Anal.), with the safeguard of Zhang, O'Donoghue & Boyd (2020,
    SIAM J. Optim.).

    With f = g - s and the last ``_AA_MEMORY`` differences dF of f and dG
    of g (= ds + df) between successive points of a row, its next point is
    g - dG gamma, where gamma minimises |f - dF gamma|^2 plus a Tikhonov
    term of weight ``_AA_REG`` times trace(dF^T dF). Every row writes its
    newest differences to the same ring slot, and its Gram matrix dF^T dF,
    at most ``_AA_MEMORY`` square, is updated by that slot's row and
    column. A slot a row has not filled since its memory was cleared holds
    zeros, which add nothing to the least-squares system and get gamma 0.

    Safeguard: when |f| at an accelerated point exceeds |f| at the point
    before it, that point is rejected: the next point is the plain step g
    from the point before, and the row's memory is cleared. Extrapolation
    then resumes only once the memory is full again, so that a map on which
    the secant model keeps failing runs nearly plain instead of spending
    every other step on a rejected point.

    Every array of the instance is per row, and a row leaves with its
    problem: the stack drops it from ``dG``, ``dF``, ``g_prev``,
    ``f_prev``, ``gram``, ``limit``, ``has_prev`` and ``go_from`` with its
    own arrays (see _drop).
    """

    def __init__(self, rows, size):
        self.dG = np.zeros((rows, _AA_MEMORY, size))
        self.dF = np.zeros((rows, _AA_MEMORY, size))
        self.gram = np.zeros((rows, _AA_MEMORY, _AA_MEMORY))
        self.g_prev = np.zeros((rows, size))
        self.f_prev = np.zeros((rows, size))
        # |f|^2 at the last point if that point was accelerated, else inf
        self.limit = np.full(rows, np.inf)
        self.has_prev = np.zeros(rows, dtype=bool)  # f_prev is the last f
        self.cleared = True  # some row has no last point
        # the step from which a row may extrapolate again (the first takes
        # the last point and the second the first difference), and the
        # last of those over the rows
        self.go_from = np.full(rows, 2)
        self.all_go_from = 2
        self.steps = 0

    def _forget(self, rows, steps):
        """Clear the memory of ``rows``, which may extrapolate again
        ``steps`` steps from now."""
        self.dF[rows] = 0.0
        self.gram[rows] = 0.0
        self.limit[rows] = np.inf
        self.go_from[rows] = self.steps + steps
        self.all_go_from = max(self.all_go_from, self.steps + steps)

    def clear(self, rows):
        """Forget the memory and the last point of ``rows``, an index into
        the stack, as for a new map."""
        # the next step takes the last point, and the one after it the
        # first difference
        self._forget(rows, 2)
        self.has_prev[rows] = False
        self.cleared = True  # some row has no last point

    def step(self, s, g):
        """Overwrite the points s, whose images are g, by the next points."""
        self.steps += 1
        n = len(s)
        f = g - s
        f_sq = np.vecdot(f, f)
        rejected = f_sq > self.limit
        n_rejected = np.count_nonzero(rejected)
        if n_rejected:
            back = rejected.nonzero()[0]
            # a full memory of new differences, the first taken next step
            self._forget(back, _AA_MEMORY)
        j = self.steps % _AA_MEMORY
        np.subtract(g, self.g_prev, out=self.dG[:, j])
        df = np.subtract(f, self.f_prev, out=self.dF[:, j])
        if n_rejected or self.cleared:
            # a rejected row, or one without a last point, adds zeros
            df *= (self.has_prev & ~rejected)[:, None]
        row = np.vecdot(self.dF, df[:, None, :])
        self.gram[:, j] = row
        self.gram[:, :, j] = row
        trace = self.gram.trace(axis1=1, axis2=2)
        if self.steps >= self.all_go_from and np.count_nonzero(trace) == n:
            go = None  # every row extrapolates
        else:
            go = (self.go_from <= self.steps) & (trace > 0)
        if go is None or np.count_nonzero(go):
            rhs = np.vecdot(self.dF, f[:, None, :])
            if go is not None:
                # a row that does not extrapolate solves (gram + I) gamma = 0
                trace[~go] = 1.0 / _AA_REG
                rhs *= go[:, None]
            gamma = np.linalg.solve(
                self.gram + trace[:, None, None] * _AA_REG_EYE,
                rhs[:, :, None])
            np.matmul(gamma.mT, self.dG, out=s[:, None])
            np.subtract(g, s, out=s)
        else:
            s[:] = g
        if n_rejected:
            # the next point is the plain step from the point before, which
            # stays the last point
            s[back] = self.g_prev[back]
            f[back] = self.f_prev[back]
        self.g_prev[:] = g
        if n_rejected:
            self.g_prev[back] = s[back]
        self.f_prev = f
        self.limit = f_sq if go is None else np.where(go, f_sq, np.inf)
        if self.cleared:
            self.has_prev[:] = True
            self.cleared = False


def _pd_soft_start(shat, tau, lam, rho):
    """The closed-form start (Z0, Dual0) of each problem of a stack, as a
    (B, 2, p, p) array, for the (B, p, p) estimates ``shat`` at the
    (B, 1, 1) thresholds ``tau``; see pd_soft_threshold."""
    B, p = len(tau), shat.shape[-1]
    T = _soft(shat, tau)
    T.reshape(B, -1)[:, ::p + 1] = np.diagonal(shat, 0, -2, -1) - tau[:, 0]
    t, Q = np.linalg.eigh(T)
    w = _pos_root(t, lam, math.sqrt(2.0 * lam))[:, None, :]
    s = np.empty((B, 2, p, p))
    s[:, 0] = (Q * w) @ Q.mT
    # the first X-update then returns Z0 itself, so the solver skips it
    s[:, 1] = (2.0 * (shat - s[:, 0]) + lam * (Q / w) @ Q.mT) / rho
    return s


def _stack_views(s, work):
    """Z, Dual, the five planes of ``work`` and the flat views of ``s``, of
    its image and of ``work``, per problem; see _pd_soft_stack."""
    n = len(s)
    return (s[:, 0], s[:, 1], *work.transpose(1, 0, 2, 3), s.reshape(n, -1),
            work[:, :2].reshape(n, -1), work.reshape(n, 5, -1))


def _pd_soft_stack(shat, taus, cfg):
    """PD-soft solves of each estimate of the (B, p, p) ``shat`` at its tau
    of ``taus`` and the other settings of ``cfg``, as one stack: a problem
    leaves the stack, with its estimate, at the iteration where it
    converges, and the others go on without it. The rows that leave are
    dropped from every per-problem array in place, ``shat`` included (see
    _drop), and the terms that depend on rho and tau are then recomputed,
    as after a change of rho."""
    B, p, lam = len(taus), shat.shape[-1], cfg.lambda_barrier
    tau = np.array(taus)[:, None, None]
    rho = np.full((B, 1, 1), cfg.rho_admm, dtype=float)
    s = _pd_soft_start(shat, tau, lam, cfg.rho_admm)
    # per problem: the image g = F(s) of the ADMM state s = (Z, Dual) under
    # one iteration, then X, X - Z_new and Z_new - Z, so that one call
    # takes the norms of the residuals; X - Z_new holds the X-update's
    # input before that
    work = np.empty((B, 5, p, p))
    Z, Dual, Z_new, Dual_new, X, gap, step, sv, gv, wv = _stack_views(
        s, work)
    # 2 Shat/(2 + rho), the X-update's shift (see _barrier_prox)
    shift = np.empty_like(shat)
    aa = _Anderson(B, 2 * p * p)
    rows = np.arange(B)  # the problem of each row of the stack
    out = [None] * B
    changed = True  # rho or the problems in the stack changed
    # the first X-update returns Z0 (see _pd_soft_start)
    X[:] = Z
    for it in range(1, cfg.max_iter + 1):
        if changed:
            # what changes with rho and the problems: the terms of the
            # X-update, the soft threshold and the factors that turn the
            # norms of work into |Z_new|, rho |Dual_new|, |X|, |X - Z_new|,
            # rho |Z_new - Z|
            scale = 2.0 + rho
            two_c = (2.0 * lam / scale)[:, 0]
            shift = np.multiply(shat, 2.0, out=shift[:len(shat)])
            shift /= scale
            prox_terms = (shift, rho / scale, two_c, np.sqrt(2.0 * two_c))
            high = 2.0 * tau[rows] / rho
            low = -high
            norm_factors = np.ones((len(rows), 5))
            norm_factors[:, 1] = norm_factors[:, 4] = rho[:, 0, 0]
        if it > 1:
            _barrier_prox(np.subtract(Z, Dual, out=gap), prox_terms, X)
        # A = _RELAX X + (1 - _RELAX) Z + Dual, built in Z_new
        A = np.multiply(X, _RELAX, out=Z_new)
        A += (1.0 - _RELAX) * Z
        A += Dual
        # the dual is A clipped to [low, high] and Z_new the soft threshold
        # of A, sign(A) (|A| - high)_+ = A - clip(A)
        np.minimum(np.maximum(A, low, out=Dual_new), high, out=Dual_new)
        A -= Dual_new
        np.subtract(X, Z_new, out=gap)
        np.subtract(Z_new, Z, out=step)
        norms = np.sqrt(np.vecdot(wv, wv)) * norm_factors
        # residuals scaled by iterate magnitudes, floored at 1 so that
        # small-scale problems keep an absolute criterion: primal =
        # |X - Z_new| / max(1, |X|, |Z_new|), dual =
        # rho |Z_new - Z| / max(1, rho |Dual_new|)
        floor = np.maximum(norms[:, :2], 1.0)
        np.maximum(floor[:, 0], norms[:, 2], out=floor[:, 0])
        res = norms[:, 3:] / floor
        primal, dual = res[:, 0], res[:, 1]
        leaving = (np.maximum(primal, dual) < cfg.tol).nonzero()[0]
        changed = len(leaving) > 0
        if changed:
            for b in leaving:
                out[rows[b]] = CovEstimate(0.5 * (X[b] + X[b].T), {
                    "tau": taus[rows[b]], "lambda": lam, "iterations": it,
                    "primal": float(primal[b]), "dual": float(dual[b]),
                    "rho": float(rho[b, 0, 0])})
            if len(leaving) == len(rows):
                return out
            # the converged problems leave every per-problem array
            (s, work, shat, rows, rho, primal, dual, aa.dG, aa.dF, aa.g_prev,
             aa.f_prev, aa.gram, aa.limit, aa.has_prev, aa.go_from) = _drop(
                leaving, (s, work, shat, rows, rho, primal, dual, aa.dG,
                          aa.dF, aa.g_prev, aa.f_prev, aa.gram, aa.limit,
                          aa.has_prev, aa.go_from))
            Z, Dual, Z_new, Dual_new, X, gap, step, sv, gv, wv = \
                _stack_views(s, work)
        if it == cfg.max_iter:
            # the first problem still in the stack, in the caller's order,
            # which its rows no longer keep
            b = rows.argmin()
            raise ConvergenceError(
                f"ADMM did not converge in {it} iterations at "
                f"tau={taus[rows[b]]:g} (primal={primal[b]:.3e}, "
                f"dual={dual[b]:.3e}, rho={rho[b, 0, 0]:.3g})",
                primal=float(primal[b]), dual=float(dual[b]),
                iterations=it, rho=float(rho[b, 0, 0]))
        moved = ()
        if it % _BALANCE_EVERY == 0:
            # the scaled dual is the unscaled one over rho
            up = primal > _BALANCE_RATIO * dual
            down = dual > _BALANCE_RATIO * primal
            rho[up] *= _BALANCE_FACTOR
            Dual_new[up] /= _BALANCE_FACTOR
            rho[down] /= _BALANCE_FACTOR
            Dual_new[down] *= _BALANCE_FACTOR
            moved = (up | down).nonzero()[0]
        aa.step(sv, gv)
        if len(moved):
            # a new rho is a new map, which the old differences miss
            sv[moved] = gv[moved]
            aa.clear(moved)
            changed = True


def pd_soft_threshold(est, cfg):
    """Soft thresholding with a log-det barrier; output PD up to rounding.

    ``cfg`` is a PdSoftConfig, and the result one estimate; or a sequence
    of them that differ only in tau, with ``est`` a sequence of as many
    estimates (else ValueError), and the result the list of their
    estimates, in order. The problems of a sequence are solved together as
    stacks of at most ``_STACK // p**2``, which all share one
    eigendecomposition call per iteration and each converge, count
    iterations and balance rho on their own. A problem leaves its stack as
    soon as it converges, so a stack's iterations cost less as its problems
    finish, and a solve in a stack returns what it returns alone. The
    stacks run on the thread pool of ``_kernels._in_order``, one per
    worker at a time, and a call of one stack runs inline. The stack
    boundaries do not depend on the worker count, so neither does any
    result.

    The solution is positive definite in exact arithmetic. In floating
    point the returned X has eigenvalues >= -p * eps * |X|_2: the barrier
    keeps them at about lam/|t| or more, which the rebuild (Q * x) @ Q.T
    rounds away once |X|_2 is large (around 1e6 at lam=1e-4), so there a
    Cholesky factor of X can fail.

    ADMM on the splitting f(X) = |X - Shat|^2 - lam log det X,
    g(Z) = 2 tau |Z|_1, over-relaxed by ``_RELAX``, starting at penalty
    ``cfg.rho_admm`` and balancing the residuals as it goes. Stops when
    max(primal, dual residual) < tol. One iteration maps the state
    s = (Z, scaled dual) to F(s), and ``_Anderson`` takes the next state
    from F(s) and the last ``_AA_MEMORY`` steps. Its safeguard rejects an
    extrapolated point whose residual |F(s) - s| exceeds that of the point
    before, and goes on from the plain step F of that point. A change of
    rho changes F, so it clears the memory. Each iteration after the
    first, a rejected one included, costs one eigendecomposition, and each
    counts toward ``max_iter``.

    The start point Z0 minimizes |S - T|^2 - lam log det S, where T is the
    soft threshold of Shat off the diagonal and Shat_ii - tau on it: the
    objective with the l1 subgradient fixed at its value there (+1 on the
    diagonal, as a PD solution has a positive one). With
    T = Q diag(t) Q^T, Z0 = Q diag(x) Q^T where x is the positive root of
    x^2 - t x - lam/2 = 0. When T is diagonal, Z0 is the solution, and the
    solver stops after one iteration. The scaled dual starts at the value
    that makes Z0 stationary for f, so the first X-update would return Z0:
    the solver takes X = Z0 there without the eigendecomposition, and
    counts that iteration all the same. The tuning of the result records the
    iteration count, the final residuals and the final rho. A problem that
    does not converge in ``cfg.max_iter`` iterations raises
    ConvergenceError, for the first such problem of its stack.
    """
    if isinstance(cfg, PdSoftConfig):
        return _pd_soft_stack(_matrix(est)[None], [cfg.tau], cfg)[0]
    cfgs = list(cfg)
    if len({(c.lambda_barrier, c.max_iter, c.tol, c.rho_admm)
            for c in cfgs}) > 1:
        raise ValueError("the configs of one call may differ only in tau")
    if not isinstance(est, (list, tuple)) or len(est) != len(cfgs):
        raise ValueError(f"{len(cfgs)} configs take a sequence of as many "
                         f"estimates")
    shats = [_matrix(e) for e in est]
    taus = [c.tau for c in cfgs]
    size = max(1, _STACK // shats[0].size) if shats else 1

    def stack(i):
        return _pd_soft_stack(np.stack(shats[i:i + size]), taus[i:i + size],
                              cfgs[0])

    return [solved for out in _kernels._in_order(stack, range(0, len(taus),
                                                              size))
            for solved in out]


def sample_covariance(Y) -> CovEstimate:
    """Uncentered sample covariance (1/n) sum_k Y_k Y_k^T.

    The sample's entries are checked from the product, whose diagonal holds
    y_ki^2: only when it is not finite is the sample scanned, so a
    non-finite entry raises the sample's error, and a finite sample whose
    product overflows an EstimationError that gives the sample's scale.
    """
    data = _as_sample(Y)
    n = data.shape[0]
    # inf * 0 is the non-finite entry's to report, and an overflow the
    # sample's scale, not a RuntimeWarning's
    with np.errstate(over="ignore", invalid="ignore"):
        m = data.T @ data / n
    m = _finite_from(np.triu(m) + np.triu(m, k=1).T, data,
                     "the sample covariance overflows")
    return CovEstimate(m)


def cross_validate_tau(Y, cfg: CvConfig, base, rule):
    """Split-based selection of the threshold tau (Bickel & Levina 2008).

    The data is split num_splits times into a training part of size
    n1 = n - n2 and a validation part of size n2 = floor(n / log n).
    ``base(part)`` is the base estimate of a part, and ``rule(est, taus)``
    the rule's estimate from ``est`` at each tau of the ascending grid, in
    grid order. Each split scores rule(base(train), taus) against
    base(val) (squared Frobenius). The returned tau minimizes the summed
    score, ties broken toward the smaller tau.

    Returns (tau_hat, Q) with Q the score for each grid point.
    """
    data = _as_data(Y)
    n = data.shape[0]
    if n < 4:
        raise ValueError("need n >= 4 for a nondegenerate split")
    # n >= 4 gives n2 >= 2 and n1 >= 1
    n2 = int(n / math.log(n))
    n1 = n - n2
    grid = np.asarray(cfg.tau_grid, dtype=float)
    Q = np.zeros(len(grid))
    for m in range(cfg.num_splits):
        rng = np.random.default_rng([cfg.seed, m])
        perm = rng.permutation(n)
        # each part is a copy made for its base call alone, so the copies
        # of a split are freed before those of the next are made
        val_est = base(data[perm[n1:]]).matrix
        ests = rule(base(data[perm[:n1]]), grid.tolist())
        if len(ests) != len(grid):
            raise ValueError(f"rule returned {len(ests)} estimates for "
                             f"{len(grid)} grid points")
        Q += [float(np.sum((est.matrix - val_est) ** 2)) for est in ests]
    # argmin returns the first (= smallest) tau on ties; grid is ascending
    return float(grid[int(np.argmin(Q))]), Q
