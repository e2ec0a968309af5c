"""Hot numeric kernels: batched empirical characteristic function
evaluation, and the thread pool that they and PD-soft's stacks run on.

Both kernels sum real cosines and sines over blocks of the data's rows;
no n-row or complex n-row array is ever built. One engine, ``_sums``, cuts
the rows into blocks of as many rows as fit in ``_BLOCK`` float64 elements
per working array (at least one row): the halves, cosines and sines, of
``probe_cf``'s W, or the planes, phases and then 2/(1+t^2), of ``ecf``'s.
It lends each block a working array trimmed to its rows, that of a
finished block of the call or else a new one, so a call makes at most one,
about 1 MB, per running worker, whatever n is. It runs each block with
overflow and invalid values ignored, in the thread that runs it (numpy's
error state is per thread), and adds the blocks' sums in block order
(``_in_order``). The block boundaries and that order fix every sum, so the
results are bitwise identical for any worker count, and from run to run,
at a fixed BLAS thread count.

The blocks run on a pool of ``_WORKERS`` threads, one per CPU that the
process may run on (its affinity mask, so ``taskset -c 0`` makes it one).
An input of one block, or a pool of one worker, runs inline and starts no
thread. ``shrinkage.pd_soft_threshold`` hands its stacks of problems to
``_in_order`` the same way. The pool is plain ``threading`` threads that
take blocks off a ``queue.SimpleQueue``: ``concurrent.futures`` would
import ``logging`` too, about 0.6 MB and 6 ms on CPython 3.11.

Cosines and sines come from one ``tan`` per element by the half-angle
identity: with t = tan(x/2), cos x = 2/(1+t^2) - 1 and sin x =
t * 2/(1+t^2). Each kernel folds the 1/2, an exact scaling, into the scale
that it applies anyway. With numpy 2.4 on an AVX-512 x86-64 CPU, float64
``tan`` is SIMD-dispatched (about 2.5 ns per element) while ``cos`` and
``sin`` call libm one element at a time (about 20 ns each); where ``tan``
falls back to libm too, one call still replaces two. ``_half_angle``
writes t and 2/(1+t^2) for both kernels. ``probe_cf`` writes the cosines
and sines into W (``_cos_sin``), within 4 eps of ``np.cos``/``np.sin``;
``ecf`` needs only their sums, which it reads off t and 2/(1+t^2) without
writing either.

A phase that overflows float64, or a non-finite entry of the data, makes
``tan`` return nan, which reaches the sums; the engine ignores the flags so
that the caller, which checks the result, names the cause instead of a
RuntimeWarning.
"""

import os
import queue
import threading
import weakref
from collections import deque
from itertools import islice

import numpy as np

_SQRT2 = np.sqrt(2.0)

# Elements per working array; fixes the block boundaries and so the order
# in which the per-row terms are summed.
_BLOCK = 1 << 16


def _rows_per_block(width):
    """Rows of a block whose working arrays are ``width`` elements wide
    (``width`` may be 0)."""
    return max(1, _BLOCK // max(width, 1))


# Threads that run the blocks: one per CPU of the affinity mask.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# ((pid, workers), the _Pool), made on first use by _in_order
_pool = None


class _Pool:
    """Threads that take blocks off the queue ``tasks`` and run them. They
    end once the pool is collected: when ``_pool`` has been replaced and no
    call of _in_order still holds it."""

    def __init__(self, workers):
        self.tasks = tasks = queue.SimpleQueue()
        for _ in range(workers):
            threading.Thread(target=_work, args=(tasks,), daemon=True).start()
        weakref.finalize(self, lambda: [tasks.put(None)
                                        for _ in range(workers)])


def _work(tasks):
    """Run each block (fn, arg, out, stopped) of ``tasks`` until a None:
    put (fn(arg), None), or (None, the exception it raised), on ``out``;
    (None, None) without calling fn once ``stopped`` is nonempty. No
    block's arguments are held while waiting for the next."""
    for fn, arg, out, stopped in iter(tasks.get, None):
        try:
            out.put((None, None) if stopped else (fn(arg), None))
        except BaseException as exc:
            out.put((None, exc))
        del fn, arg, out, stopped


def _in_order(fn, starts):
    """Yield ``fn(start)`` for each of ``starts``, in order, computed on the
    pool with at most 2 * _WORKERS blocks handed out ahead. One block, or
    one worker, runs inline and never creates the pool. An exception of a
    block reaches the caller as it was raised."""
    global _pool
    if len(starts) <= 1 or _WORKERS == 1:
        yield from map(fn, starts)
        return
    key = (os.getpid(), _WORKERS)
    if _pool is None or _pool[0] != key:
        # a forked child, or a changed worker count, gets a new pool
        _pool = key, _Pool(_WORKERS)
    pool = _pool[1]  # held, so that its threads run until this call ends
    stopped = []
    rest = iter(starts)
    ahead = deque()  # the queues of the blocks handed out, in block order

    def hand_out(start):
        out = queue.SimpleQueue()
        pool.tasks.put((fn, start, out, stopped))
        ahead.append(out)

    for s in islice(rest, 2 * _WORKERS):
        hand_out(s)
    try:
        while ahead:
            result, exc = ahead.popleft().get()
            if exc is not None:
                raise exc
            for s in islice(rest, 1):
                hand_out(s)
            yield result
    finally:
        # after a raise, or a caller that stopped early, no block runs on:
        # the blocks not yet started are skipped, the others waited for
        stopped.append(True)
        for out in ahead:
            out.get()


def _sums(block, Y, rows, shape):
    """The sums over the blocks of ``rows`` rows of ``Y`` (at least one row)
    of the arrays that ``block(y, work)`` returns, added into the first
    block's arrays in block order. ``y`` is the block's rows and ``work`` a
    float64 array of ``shape`` trimmed to them on its second axis: the
    array of a finished block of the call, else a new one. Each block runs
    with overflow and invalid values ignored."""
    spare = []  # working arrays of the blocks that have finished

    def run(start):
        y = Y[start:start + rows]
        try:
            work = spare.pop()
        except IndexError:
            work = np.empty(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = block(y, work[:, :len(y)])
        spare.append(work)
        return sums

    blocks = _in_order(run, range(0, len(Y), rows))
    totals = next(blocks)
    for sums in blocks:
        for total, part in zip(totals, sums):
            total += part
    return totals


def _half_angle(t, v):
    """Overwrite the half-angles ``t`` with their tangents and fill ``v``
    with 2/(1+t^2).

    t^2 never overflows: the float64 nearest an odd multiple of pi/2,
    6381956970095103 * 2**797, is 4.7e-19 away from it, so |t| < 2.2e18.
    """
    np.tan(t, out=t)
    # np.square, where np.multiply(t, t) takes a slower loop
    np.square(t, out=v)
    v += 1.0
    np.divide(2.0, v, out=v)


def _cos_sin(h, cos):
    """Overwrite the half-angles ``h`` with sin 2h and fill ``cos`` with
    cos 2h.

    With t = tan h, cos 2h = 2/(1+t^2) - 1 and sin 2h = t * 2/(1+t^2):
    one ``tan`` per element in place of a ``cos`` and a ``sin``. h = 0
    gives exactly cos = 1 and sin = 0.
    """
    _half_angle(h, cos)
    h *= cos
    cos -= 1.0


def probe_cf(Y, U):
    """ECF at every probe frequency ``U * u_ij``, as one p x p matrix.

    Entry (i, i) is the ECF at U*u_ii = U*e_i. For i != j, <U*u_ij, y> =
    a*y_i + a*y_j with a = U/sqrt(2), so with the p x n matrices
    C = cos(a*Y^T) and S = sin(a*Y^T) the pairwise sums are
    sum_k cos(a y_ki + a y_kj) = (C C^T - S S^T)_ij and
    sum_k sin(a y_ki + a y_kj) = (C S^T + S C^T)_ij, all four read off the
    real Gram matrix W W^T of W = [C; S]. A block of W holds its rows of C
    and S transposed, so each half of a full block is one contiguous array
    for the elementwise passes. The result is exactly symmetric.

    A non-finite entry of Y, or a phase U * y_ki that overflows, makes
    ``tan`` return nan, which reaches the diagonal sums of its coordinate,
    so the result is then not finite; otherwise it is finite, as every cos
    and sin term is bounded.
    """
    n, p = Y.shape
    a = U / _SQRT2
    rows = _rows_per_block(p)

    def block(y, w):
        """The block's sums of cos and sin at U*e_i, and its W W^T."""
        C, S = w[:p], w[p:]
        # the diagonal probes use both halves as scratch first
        np.multiply(y.T, 0.5 * U, out=C)
        _cos_sin(C, S)
        re, im = S.sum(axis=1), C.sum(axis=1)
        np.multiply(y.T, 0.5 * a, out=S)
        _cos_sin(S, C)
        return re, im, w @ w.T

    diag_re, diag_im, gram = _sums(block, Y, rows, (2 * p, min(rows, n)))
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
    """ECF at each row of ``freqs``: the mean over k of exp(i<f, Y_k>).

    A block writes its half-phases <f, y>/2 and their tangents t into the
    first plane of its (2, rows, m) working array and 2/(1+t^2) into the
    second, and returns sum cos = sum 2/(1+t^2) - rows and sum sin =
    sum t * 2/(1+t^2) without writing a cosine or a sine. Near an odd
    multiple of pi, |t| is at most 2.2e18 (see ``_half_angle``), so t^2
    stays finite and 2/(1+t^2) goes to 0. The result is not finite when Y
    has a non-finite entry or a phase overflows.
    """
    n, m = Y.shape[0], freqs.shape[0]
    # in C order, which BLAS multiplies by faster than the transposed view
    half = (0.5 * freqs).T.copy()
    rows = _rows_per_block(m)

    def block(y, work):
        """The block's sums of cos and sin of <f, y> over its rows."""
        t, v = work
        np.matmul(y, half, out=t)
        _half_angle(t, v)
        return v.sum(axis=0) - len(y), np.einsum("ij,ij->j", t, v)

    re, im = _sums(block, Y, rows, (2, min(rows, n), m))
    return (re + 1j * im) / n
