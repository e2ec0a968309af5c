"""Hot numeric kernels: batched empirical characteristic function
evaluation, and the thread pool that they and PD-soft's stacks run on.

Both kernels split the rows of the data into blocks and sum real cosines
and sines over each; no n-row or complex n-row array is ever built. A
block holds as many rows as fit in ``_BLOCK`` float64 elements per working
array (at least one row): ``ecf``'s two arrays of the block's phases, and
the two halves, cosines and sines, of ``probe_cf``'s W.

The blocks run on a pool of ``_WORKERS`` threads, one per CPU that the
process may run on (its affinity mask, so ``taskset -c 0`` makes it one).
Each block allocates its own working arrays and returns its partial sums,
and one loop, ``_sums``, adds them into the first block's arrays in block
order (``_in_order``). The block boundaries and that order fix every sum,
so the results are bitwise identical for any worker count, and from run
to run, at a fixed BLAS thread count. Working memory is one block's
arrays, about 1 MB, per running worker, whatever the number of
observations n. An input of one block, or a pool of one worker, runs
inline and starts no thread. ``shrinkage.pd_soft_threshold`` hands its
stacks of problems to ``_in_order`` the same way. The pool is plain ``threading`` threads that
take blocks off a ``queue.SimpleQueue``: ``concurrent.futures`` would
import ``logging`` too, about 0.6 MB and 6 ms on CPython 3.11.

Cosines and sines come from one ``tan`` per element by the half-angle
identity (``_cos_sin``), which takes the half-angles: each kernel folds
the 1/2, an exact scaling, into the scale that it applies anyway. With
numpy 2.4 on an AVX-512 x86-64 CPU, float64 ``tan`` is SIMD-dispatched
(about 2.5 ns per element) while ``cos`` and ``sin`` call libm one
element at a time (about 20 ns each); where ``tan`` falls back to libm
too, one call still replaces two. The identity works in the arrays the
kernels already hold, so working memory is unchanged, and its result is
within 4 eps of ``np.cos``/``np.sin``.
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
    """Run the blocks of ``tasks`` until a None; no block's arguments are
    held while waiting for the next."""
    while True:
        task = tasks.get()
        if task is None:
            return
        _run(*task)
        del task


def _run(fn, arg, out, stopped):
    """Put (fn(arg), None), or (None, the exception it raised), on the
    block's queue ``out``; (None, None) without calling fn once the
    caller's list ``stopped`` is nonempty."""
    try:
        out.put((None, None) if stopped else (fn(arg), None))
    except BaseException as exc:
        out.put((None, exc))


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


def _sums(block, n, rows):
    """The sums over the row blocks ``range(0, n, rows)`` (n >= 1) of the
    arrays that ``block(start)`` returns, added into the first block's
    arrays in block order."""
    blocks = _in_order(block, range(0, n, rows))
    totals = next(blocks)
    for sums in blocks:
        for total, part in zip(totals, sums):
            total += part
    return totals


def _cos_sin(h, cos):
    """Overwrite the half-angles ``h`` with sin 2h and fill ``cos`` with
    cos 2h.

    With t = tan h, cos 2h = 2/(1+t^2) - 1 and sin 2h = t * 2/(1+t^2):
    one ``tan`` per element in place of a ``cos`` and a ``sin``. t^2 never
    overflows: the float64 nearest an odd multiple of pi/2,
    6381956970095103 * 2**797, is 4.7e-19 away from it, so |t| < 2.2e18.
    h = 0 gives exactly cos = 1 and sin = 0.
    """
    np.tan(h, out=h)
    np.multiply(h, h, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
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
    and S transposed, so each half is one contiguous array of ``_BLOCK``
    elements for the elementwise passes. The result is exactly symmetric.

    A non-finite entry of Y makes ``tan`` return nan, which reaches the
    diagonal sums of its coordinate, so the result is then not finite; a
    finite Y gives a finite result, as every cos and sin term is bounded.
    The block ignores ``tan``'s invalid-value flag, in the thread that runs
    it (numpy's error state is per thread), so that the caller can name
    the non-finite entry instead of a RuntimeWarning.
    """
    n, p = Y.shape
    a = U / _SQRT2
    rows = _rows_per_block(p)

    def block(start):
        """The block's sums of cos and sin at U*e_i, and its W W^T."""
        blk = Y[start:start + rows].T
        w = np.empty((2 * p, blk.shape[1]))
        C, S = w[:p], w[p:]
        with np.errstate(invalid="ignore"):
            # the diagonal probes use both halves as scratch first
            np.multiply(blk, 0.5 * U, out=C)
            _cos_sin(C, S)
            re, im = S.sum(axis=1), C.sum(axis=1)
            np.multiply(blk, 0.5 * a, out=S)
            _cos_sin(S, C)
        return re, im, w @ w.T

    diag_re, diag_im, gram = _sums(block, n, rows)
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
    """ECF at each row of ``freqs``: the mean over k of exp(i<f, Y_k>)."""
    n = Y.shape[0]
    half = (0.5 * freqs).T
    rows = _rows_per_block(freqs.shape[0])

    def block(start):
        """The block's sums of cos and sin of <f, y> over its rows."""
        t = Y[start:start + rows] @ half
        v = np.empty_like(t)
        _cos_sin(t, v)
        return v.sum(axis=0), t.sum(axis=0)

    re, im = _sums(block, n, rows)
    return (re + 1j * im) / n
