"""Reference LASSO solver and optimality certificate.

Solves min_x 0.5 ||y - A x||_2^2 + lam ||x||_1 by accelerated proximal
gradient with an adaptive step and one restart rule.  The first step is
1/rho, rho = ||A g0||^2 / ||g0||^2 the Rayleigh quotient of A^T A along
the first gradient g0: one product, and rho <= L, the squared top
singular value, so it is never shorter than 1/L.  Each step from v to
x_new is then tested against the quadratic upper bound of the smooth
part, in the cancellation-free form
step * ||A (x_new - v)||^2 <= ||x_new - v||^2 (Beck and Teboulle 2009).
A step that fails it is rejected and the step halved; one that passes is
accepted and the step grows by _STEP_GROWTH (Scheinberg, Goldfarb and Bai
2014).  An accepted step moves on to v = x_new + m (x_new - x) with the
full momentum m = 1, not a Nesterov t-sequence: greedy FISTA (Liang, Luo
and Schoenlieb, SIAM J. Sci. Comput. 2022).  m is 0 when the step from v
turned against the last move, (v - x_new) . (x_new - x) > 0 (gradient
restart, O'Donoghue and Candes 2015); that guard keeps full momentum in
check, though the objective need not fall on every step.  Each step makes
one pass over the columns it steps on: _residual_and_gradient walks them
in row blocks that stay in cache between A_b x and A_b^T r_b, and gives
r = A x_new - y and the gradient A^T r together.  Both are linear in x,
so at v they are carried as r_new + m (r_new - r), and so on, instead of
being recomputed.  The KKT residual certifies the answer: with
g = A^T (y - A x), optimality means g_i = lam * sign(x_i) on the support
and |g_i| <= lam off it.  The solver is one loop whose head checks it on
the gradient it carries: at x = 0 before the first step, every
_KKT_EVERY steps and at max_iter.

Proximal gradient finds the support in finitely many steps (Hale, Yin
and Zhang, SIAM J. Optim. 2008), and the loop uses that with a working
set (Massias, Gramfort and Salmon, ICML 2018).  Each check on all of A
after the first that does not end the solve copies the columns of W,
the near set: the support of x or v and the columns with
|g_i| > _NEAR_MARGIN * lam, those the strong rule (Tibshirani et al.,
JRSS-B 2012) expects to join it.  The steps then go on over a float32
copy A_W, with x, v and the gradients restricted to W; r stays A x - y.
A pass over A_W is bound by memory traffic, so float32 halves its cost,
but float32 cannot certify at tol: the steps on W use it only for a
correction, by mixed-precision iterative refinement (Carson and Higham,
SIAM J. Sci. Comput. 2018).  From an anchor x_a, where r_a and g_a are
float64 values from a pass over all of A, a step to x_new takes
r = r_a + A_W d and g = g_a + A_W^T A_W d with d = x_new - x_a, so the
float32 error scales with |A d|, not with r.  A_W and d are scaled by
powers of two, which is exact, to stay in float32's range; columns
float32 cannot hold are copied in float64 instead.

A check on W reads the restricted gradient.  It pays a pass over all of
A at x when it passes, when it has cut the residual tenfold since the
last check on all of A, when it is not below the last check on W, or at
max_iter.  If that pass finds violators |g_i| > lam off W, momentum
restarts at x and the same check copies W anew, however wide it is;
otherwise it becomes the anchor, as the check that entered W did.  A
check that is not below the last one may be reading the float32 error,
which also fails the step test (read from a difference of two corrected
residuals) and halves the step; the new anchor clears it.  Only a check
on all of A ends the solve, so the reported residual is the
certificate's own bit for bit, and the steps taken before it are the
iterations.

The passes lasso_solve and power_iteration_sq_norm make after their start
checks can be split between processes (_split).  With w = _workers() > 1
(BLAS on one thread, w CPUs in the affinity mask), on x86-64, and when
each of w processes gets at least two of A's row blocks, the first pass
forks w - 1 helpers (_team.Team).  Each pass then hands each process a
contiguous run of its row blocks, the same blocks as in one process;
this process takes the first run, the shortest where the blocks do not
divide evenly.  x goes out, and r and each block's share of A^T r come
back, through a shared buffer.  This process sums the shares in the
serial order, so every result keeps the serial bits.  A step posts its
pass, then works out what it knows without it (d_x, d_step and their
products) while the helpers do their rows, and only then runs its own
rows.  Each process copies its own rows of A_W, at one scale e; when
float32 cannot hold any of them, all fall back to float64.  The helpers
spin between passes and are reaped before the call returns or raises.
kkt_residual's one pass and smaller matrices stay serial; so does a
working set too narrow to give each process one block.
"""
from __future__ import annotations

import math
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._team import Team
from ._team import workers as _workers
from .exceptions import RangeError
from .instances import ProblemInstance

_POWER_RTOL = 1e-10
_LANCZOS_MAX_ITER = 300
_LANCZOS_CHECK_EVERY = 4
_KKT_EVERY = 10
_STEP_GROWTH = 1.05
# a check on the working set W that has cut the residual tenfold since the
# last check on all of A makes another: a W that misses columns is found
# a decade into its solve, not at tol, at the end of its slow tail
_RECHECK_DROP = 0.1
# a column is near the support when |g_j| > _NEAR_MARGIN * lam (the
# strong rule's margin, Tibshirani et al., JRSS-B 2012)
_NEAR_MARGIN = 0.9
# bytes of A per row block of _residual_and_gradient: small enough that a
# block read by A_b x is still in L2 when A_b^T r_b reads it again
_BLOCK_BYTES = 768 * 1024


@dataclass(frozen=True)
class LassoResult:
    x_hat: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool


def power_iteration_sq_norm(A: np.ndarray) -> float:
    """Largest squared singular value of A, by the Lanczos method on A^T A.

    The plain three-term recurrence, with no stored basis and no restart,
    from a fixed random start: q = u - 0.5 normalized, u the first N
    uniforms of np.random.default_rng(0), doubles fixed by the PCG64 bit
    stream.  A random q is almost surely not orthogonal to the top singular
    vector, as all-ones can be (Kuczynski and Wozniakowski, SIAM J. Matrix
    Anal. Appl. 1992).  Each step makes A^T (A q) in one pass over A, and
    the estimate is the top eigenvalue theta of the tridiagonal matrix T the
    recurrence builds.  It stops when the residual bound beta * |s_k| (s_k
    the last entry of theta's eigenvector of T) is at most
    _POWER_RTOL * theta, tested every _LANCZOS_CHECK_EVERY steps and
    whenever beta breaks down, or after _LANCZOS_MAX_ITER steps.  Ritz
    values interlace, so theta approaches the true value from below.  An
    all-zero A gives 0.0.  Raises RangeError when the estimate is not
    finite (NaN or inf in A).  The name predates the method and is kept as
    public API; lasso_solve no longer calls it, and takes its first step
    from a Rayleigh quotient.
    """
    q = np.random.default_rng(0).random(A.shape[1]) - 0.5
    q /= np.linalg.norm(q)
    q_prev = np.zeros_like(q)
    alphas: list[float] = []
    betas: list[float] = []
    beta = theta = 0.0
    with _split(A, None) as M:
        for k in range(1, _LANCZOS_MAX_ITER + 1):
            # NaN or inf in A ends in the RangeError below, not numpy's
            # warnings; helpers forked at the first pass keep this errstate
            with np.errstate(invalid="ignore"):
                w = _residual_and_gradient(M, q, None)[1]
                alpha = float(q @ w)
                w -= alpha * q + beta * q_prev
                beta = float(np.linalg.norm(w))
            alphas.append(alpha)
            # theta, the last top Ritz value or any diagonal entry of T, bounds
            # the current one from below, so a beta this small (or 0, or NaN)
            # passes the test below: q = w / beta never divides by a breakdown
            theta = max(theta, alpha)
            if k % _LANCZOS_CHECK_EVERY == 0 or k == _LANCZOS_MAX_ITER or not beta > _POWER_RTOL * theta:
                T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
                eigenvalues, eigenvectors = np.linalg.eigh(T)
                theta = float(eigenvalues[-1])
                if not math.isfinite(theta):
                    raise RangeError(f"top singular value estimate is not finite ({theta}): A holds NaN or inf")
                if beta * abs(eigenvectors[-1, -1]) <= _POWER_RTOL * theta:
                    return theta
            betas.append(beta)
            q_prev, q = q, w / beta
    return theta


def _rows(width: int, itemsize: int) -> int:
    # rows per block of a pass or a copy over width columns of itemsize bytes
    return max(1, _BLOCK_BYTES // (itemsize * max(width, 1)))


def _blocks(A: np.ndarray, y: np.ndarray | None, r: np.ndarray, shares: np.ndarray, rows: int) -> list[tuple]:
    # what a pass reads and writes in each block of rows of A: A_b, A_b^T,
    # y_b (None where y is None), r's rows and shares[b]
    return [
        (A[lo : lo + rows], A[lo : lo + rows].T, None if y is None else y[lo : lo + rows], r[lo : lo + rows], share)
        for lo, share in zip(range(0, A.shape[0], rows), shares)
    ]


def _row_blocks(blocks: list[tuple], x: np.ndarray) -> None:
    # r_b = A_b x - y_b (A_b x where y_b is None) and the block's share of
    # A^T r, A_b^T r_b, for each of _blocks' blocks
    for A_b, A_bT, y_b, r_b, share in blocks:
        np.matmul(A_b, x, out=r_b)
        if y_b is not None:
            r_b -= y_b
        np.matmul(A_bT, r_b, out=share)


def _residual_and_gradient(A, x: np.ndarray, y: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    # r = A x - y and g = A^T r in one pass over A, in A's dtype: each block
    # of rows is read by A_b x and again, still in cache, by A_b^T r_b; the
    # blocks' shares of g are summed at the end, and both come back float64.
    # y None stands for zero.  A may be a _Shared matrix, whose y is the one
    # its _Split holds
    if isinstance(A, _Shared):
        return A.split.residual_and_gradient(A.copy, x)
    n, N = A.shape
    rows = _rows(N, A.itemsize)
    r = np.empty(n, A.dtype)
    shares = np.empty((-(-n // rows), N), A.dtype)
    _row_blocks(_blocks(A, y, r, shares, rows), x)
    return r.astype(np.float64, copy=False), shares.sum(axis=0, dtype=np.float64)


def _post(A, x: np.ndarray, y: np.ndarray | None) -> Callable[[], tuple[np.ndarray, np.ndarray]]:
    # _residual_and_gradient(A, x, y) in two calls: this one starts a pass
    # over a _Shared A, whose helpers begin on their rows at once, and the
    # function it returns finishes the pass, so work the caller does in
    # between runs while they do; a serial pass runs when it is finished
    if isinstance(A, _Shared):
        A.split.post(A.copy, x)
    return lambda: _residual_and_gradient(A, x, y)


def _scale(A: np.ndarray, cols: np.ndarray) -> int:
    # e such that 2^e times the largest entry of the first row block of
    # A[:, cols] lies in [0.5, 1)
    rows = _rows(cols.size, A.itemsize)
    return -int(np.frexp(np.max(np.abs(A[:rows, cols]), initial=0.0))[1])


def _float32_columns(A: np.ndarray, cols: np.ndarray, e: int) -> np.ndarray | None:
    # the copy 2^e A[:, cols] in float32, C-ordered, made a row block at a
    # time through a block in A's dtype; None when a block's cast overflows
    # or flushes a nonzero to zero.  mode="clip" fills out in place, "raise"
    # buffers it
    n = A.shape[0]
    rows = _rows(cols.size, A.itemsize)
    block = np.empty((min(rows, n), cols.size), A.dtype)
    A_W = np.empty((n, cols.size), np.float32)
    with np.errstate(over="ignore"):
        for start in range(0, n, rows):
            out = A_W[start : start + rows]
            b = block[: out.shape[0]]
            np.take(A[start : start + rows], cols, axis=1, out=b, mode="clip")
            out[...] = np.ldexp(b, e)
            # no nonzero was flushed when out holds no zero or as many as b
            if not (np.isfinite(out).all() and (out.all() or np.count_nonzero(out) == np.count_nonzero(b))):
                return None
    return A_W


def _columns(A, cols: np.ndarray) -> tuple[np.ndarray, int]:
    # the copy 2^e A[:, cols] and e: float32, with e from _scale, which is
    # exact; or A[:, cols] in A's dtype with e = 0 where float32 cannot hold
    # it.  A may be a _Shared matrix
    if isinstance(A, _Shared):
        return A.split.columns(cols)
    e = _scale(A, cols)
    A_W = _float32_columns(A, cols, e)
    # the float32 copy is gone before the float64 one is made
    return (A_W, e) if A_W is not None else (np.take(A, cols, axis=1), 0)


def _correction(A_W, e: int, d: np.ndarray) -> Callable[[], tuple[np.ndarray, np.ndarray]]:
    # A d and A^T A d, float64 and in A's units, from one pass over the copy
    # A_W = 2^e A[:, W] in its own dtype; d goes in as 2^b d with max |2^b d|
    # in [0.5, 1), so that neither it nor the products leave float32's range;
    # d is scaled in place.  The pass is posted as _post posts one, and the
    # function returned finishes it
    b = -math.frexp(np.maximum.reduce(np.abs(d), initial=0.0))[1]
    finish = _post(A_W, np.ldexp(d, b, out=d).astype(A_W.dtype, copy=False), None)

    def corrected() -> tuple[np.ndarray, np.ndarray]:
        a_d, g_d = finish()
        return np.ldexp(a_d, -(e + b), out=a_d), np.ldexp(g_d, -(2 * e + b), out=g_d)

    return corrected


class _Shared:
    # A, or its working-set copy where copy is True, as the passes of split
    # see it: their row blocks are shared out; dtype is the matrix's
    def __init__(self, split: _Split, copy: bool, dtype: np.dtype):
        self.split, self.copy, self.dtype = split, copy, dtype


def _share(n: int, rows: int, workers: int, j: int) -> tuple[int, int, int]:
    # worker j's share of the row blocks of n rows: blocks [first, last) of
    # B = ceil(n / rows) with first = j B // w, and rows [lo, hi)
    blocks = -(-n // rows)
    first, last = j * blocks // workers, (j + 1) * blocks // workers
    return first, first * rows, min(last * rows, n)


_PASS, _COPY, _FALLBACK = range(3)


class _Split(Team):
    """The passes over A, and over its working-set copy, of one call, each
    split by row blocks between this process (worker 0) and the helpers of
    a Team.  x goes out, and r and the blocks' shares of g come back,
    through the team's shared buffer, in the layout of
    _residual_and_gradient; this process sums the shares in its order, so
    every result keeps the serial bits.  A helper reads A and y as this
    process held them when it forked.  Each worker copies its own rows of
    the working set, all at one scale e, and the copy falls back to float64
    in every worker when any of them finds a row float32 cannot hold.
    """

    def __init__(self, A: np.ndarray, y: np.ndarray | None, workers: int):
        n, N = A.shape
        self.A, self.y = A, y
        self.own = None  # this worker's rows of the working-set copy
        # pass layouts by (worker, copy, width, itemsize), kept for the
        # length of a copy
        self.layouts: dict = {}
        self.posted = False  # a pass is posted and not yet finished
        # the largest pass is over A: a copy of some of its float64 columns,
        # in float32 or float64, has no more blocks and no longer rows
        blocks = -(-n // _rows(N, 8))
        super().__init__(workers, (8 * N, 8 * n, 8 * blocks * N))

    def post(self, copy: bool, x: np.ndarray) -> None:
        # x out and the pass to the helpers, which start on their rows
        self._layout(0, copy, x.size, x.itemsize)[0][:] = x
        self.start(_PASS, copy, x.size, x.itemsize)
        self.posted = True

    def residual_and_gradient(self, copy: bool, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the pass posted for x, or posted now; then this worker's rows, and
        # the shares summed in the serial order once the helpers are done
        if not self.posted:
            self.post(copy, x)
        self.posted = False
        _, r, shares, own = self._layout(0, copy, x.size, x.itemsize)
        _row_blocks(own, x)
        self.wait()
        return r.astype(np.float64), shares.sum(axis=0, dtype=np.float64)

    def columns(self, cols: np.ndarray) -> tuple[np.ndarray | _Shared, int]:
        n, m = self.A.shape[0], cols.size
        # the old copy, and the layouts that view it, go before a new one is
        # made, here or in _copy
        self.own = None
        self.layouts.clear()
        if -(-n // _rows(m, 4)) < self.workers:
            # too narrow for a block per process: this process copies it and
            # passes over it
            return _columns(self.A, cols)
        e = _scale(self.A, cols)
        self.array(0, np.intp, m)[:] = cols
        self.start(_COPY, m, e)
        if not all([self._copy(0, m, e), *self.wait()]):
            self.start(_FALLBACK, m)
            self._copy(0, m, None)
            self.wait()
            e = 0
        return _Shared(self, True, self.own.dtype), e

    def _layout(self, j: int, copy: bool, m: int, itemsize: int) -> tuple:
        # a pass over A or the copy, m columns wide: its x, r and shares
        # arrays, and worker j's blocks
        key = (j, copy, m, itemsize)
        if key not in self.layouts:
            dtype, n = np.dtype(f"f{itemsize}"), self.A.shape[0]
            rows = _rows(m, itemsize)
            first, lo, hi = _share(n, rows, self.workers, j)
            x, r = self.array(0, dtype, m), self.array(1, dtype, n)
            shares = self.array(2, dtype, (-(-n // rows), m))
            if copy:
                M, y = self.own, None
            else:
                M, y = self.A[lo:hi], None if self.y is None else self.y[lo:hi]
            self.layouts[key] = (x, r, shares, _blocks(M, y, r[lo:hi], shares[first:], rows))
        return self.layouts[key]

    def _copy(self, j: int, m: int, e: int | None) -> bool:
        # worker j's rows of the copy: float32 at scale e, or float64 where
        # e is None; False when float32 cannot hold them
        cols = self.array(0, np.intp, m)
        _, lo, hi = _share(self.A.shape[0], _rows(m, 4 if e is not None else 8), self.workers, j)
        self.own = None
        self.layouts.clear()
        self.own = np.take(self.A[lo:hi], cols, axis=1) if e is None else _float32_columns(self.A[lo:hi], cols, e)
        return self.own is not None

    def serve(self, j: int, op: int, *args: int) -> int:
        if op == _PASS:
            copy, m, itemsize = args[:3]
            x, _, _, own = self._layout(j, bool(copy), m, itemsize)
            _row_blocks(own, x)
            return 1
        m, e = args[:2]
        return int(self._copy(j, m, e if op == _COPY else None))


@contextmanager
def _split(A: np.ndarray, y: np.ndarray | None):
    # what the passes of one call after its start checks run on: a _Shared
    # A when w = _workers() > 1 and every worker gets at least two of A's
    # row blocks (float64 A and y only, on x86-64, whose memory order the
    # spinning handoff relies on), else A itself.  The helpers are forked at
    # the first pass and reaped on exit, on error too
    n, N = A.shape
    blocks = -(-n // _rows(N, 8))
    workers = _workers() if blocks >= 4 else 1
    if (
        workers == 1
        or blocks < 2 * workers
        or A.dtype != np.float64
        or not (y is None or y.dtype == np.float64)
        or os.uname().machine != "x86_64"
    ):
        yield A
        return
    split = _Split(A, y, workers)
    try:
        yield _Shared(split, False, A.dtype)
    finally:
        split.close()


def _objective(r: np.ndarray, x: np.ndarray, lam: float) -> float:
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))


def _working_set(x: np.ndarray, keep: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    # the near set: the columns where x != 0, keep holds or
    # |g_j| > _NEAR_MARGIN * lam, the strong rule's test of the columns
    # likely to join the support
    return np.flatnonzero((x != 0.0) | keep | (np.abs(g) > _NEAR_MARGIN * lam))


def _kkt_violation(g: np.ndarray, x: np.ndarray, lam: float) -> float:
    # the violation kkt_residual documents, from the gradient the caller
    # already holds, g = A^T (A x - y): |g_i + lam sign(x_i)| on the support
    on = x != 0.0
    viol_on = np.max(np.abs(g[on] + lam * np.sign(x[on])), initial=0.0)
    viol_off = np.max(np.abs(g[~on]) - lam, initial=0.0)
    # at lam = 0 there is no scale to divide by: the violation is max |g_i|
    return float(max(viol_on, viol_off)) / (lam if lam > 0.0 else 1.0)


def kkt_residual(instance: ProblemInstance, lam: float, x_hat: np.ndarray) -> float:
    """Normalized violation of the subgradient optimality conditions.

    max over the support of |g_i - lam*sign(x_i)| and over the rest of
    (|g_i| - lam)_+, divided by lam (undivided at lam = 0, where it is
    max |g_i|).  Zero exactly at a minimizer.
    """
    if not 0.0 <= lam < math.inf:
        raise RangeError(f"lambda must be finite and >= 0 for the KKT certificate, got {lam}")
    # the same kernel as the solver's gradient, so the two certificates
    # agree exactly
    return _kkt_violation(_residual_and_gradient(instance.A, x_hat, instance.y)[1], x_hat, lam)


def lasso_solve(
    instance: ProblemInstance,
    lam: float,
    tol: float = 1e-6,
    max_iter: int = 5000,
    lipschitz: float | None = None,
) -> LassoResult:
    """Accelerated proximal gradient for the LASSO at one lambda.

    Terminates when the KKT residual of ``kkt_residual`` drops to tol
    (checked at x = 0, where it can end the solve after 0 iterations, then
    every _KKT_EVERY iterations and on the last) or at max_iter;
    non-convergence is reported via the flag, never an exception.  NaN or
    inf in A or y raises RangeError before the first step.  ``lipschitz``
    overrides the first step, 1/rho, with 1/lipschitz; an estimate off in
    either direction costs iterations, not accuracy.  For lam = 0 the
    minimizer may be non-unique in the undersampled regime; the residual
    is then the gradient sup-norm.
    """
    if not 0.0 <= lam < math.inf:
        raise RangeError(f"lambda must be finite and >= 0, got {lam}")
    if not 0.0 <= tol < math.inf:
        raise RangeError(f"tol must be finite and >= 0, got {tol}")
    if max_iter < 1:
        raise RangeError(f"max_iter must be >= 1, got {max_iter}")
    if lipschitz is not None and not 0.0 < lipschitz < math.inf:
        raise RangeError(f"lipschitz must be finite and > 0, got {lipschitz}")
    A, y = instance.A, instance.y
    N = A.shape[1]
    x = np.zeros(N)
    # NaN or inf in A or y reaches the gradient at x = 0; caught here, it
    # cannot run the loop to its cap on NaN iterates, and numpy's warning
    # about it would only repeat the RangeError
    with np.errstate(invalid="ignore"):
        r, g = _residual_and_gradient(A, x, y)  # g: gradient of the smooth part at x
    if not np.isfinite(g).all():
        raise RangeError("gradient at x = 0 is not finite: A or y holds NaN or inf")
    step = None if lipschitz is None else 1.0 / lipschitz
    v, grad_v, r_v = x, g, r
    # the working set: None while the steps are on all of A, before the
    # first check after k = 0 and after a check on all of A that drops W;
    # else the columns W the solver steps on, with A_W = 2^e A[:, W] their
    # copy and x, v, g, grad_v restricted to them; r and r_v stay
    # n-vectors.  A step on W adds to the anchor x_a, r_a, g_a, exact
    # values from a pass over all of A, the correction for d = x_new - x_a
    # in A_W's dtype, so its error scales with |A d|, not with r.
    # full_residual is the residual of the last check on all of A,
    # w_residual that of the last check on W
    cols = A_W = None

    with _split(A, y) as M:
        for k in range(max_iter + 1):
            if k % _KKT_EVERY == 0 or k == max_iter:
                residual = _kkt_violation(g, x, lam)
                if cols is not None:
                    # a check on W that is not below the last one may be reading
                    # the corrections' float32 error: a new anchor clears it
                    stalled, w_residual = residual >= w_residual, residual
                    if residual <= max(tol, _RECHECK_DROP * full_residual) or stalled or k == max_iter:
                        # check x on all of A
                        x_full = np.zeros(N)
                        x_full[cols] = x
                        r_full, g_full = _residual_and_gradient(M, x_full, y)
                        residual = full_residual = _kkt_violation(g_full, x_full, lam)
                        outside = np.abs(g_full) > lam
                        outside[cols] = False
                        if residual <= tol or k == max_iter or outside.any():
                            # the solve ends, or violators off W restart momentum at
                            # x and the old copy is dropped before the new one is made
                            cols, A_W, x, g, r = None, None, x_full, g_full, r_full
                            v, grad_v, r_v = x, g, r
                        else:
                            # W holds: the steps go on from this pass's exact values
                            x_a, r_a, g_a = x, r_full, g_full[cols]
                            r, g = r_a, g_a
                if cols is None and (residual <= tol or k == max_iter):
                    break
                if cols is None and k > 0:
                    full_residual = residual
                    # W takes every column where v is nonzero, as r_v is A v - y
                    cols = _working_set(x, v != 0.0, g, lam)
                    A_W, e = _columns(M, cols)
                    x, v, g, grad_v = x[cols], v[cols], g[cols], grad_v[cols]
                    x_a, r_a, g_a, w_residual = x, r, g, math.inf
            if step is None:
                # the first step, 1/rho from the curvature along g0, scaled so
                # that a tiny g0 cannot underflow: g0 != 0 lies in range(A^T),
                # so A g0 != 0 and the quotient is > 0
                u = g / np.max(np.abs(g))
                a_u = A @ u
                step = float(u @ u) / float(a_u @ a_u)

            x_new = v - step * grad_v
            # soft threshold: u - clip(u, -t, t) is sign(u) * max(|u| - t, 0)
            x_new -= x_new.clip(-step * lam, step * lam)
            if cols is None:
                finish = _post(M, x_new, y)
            else:
                finish = _correction(A_W, e, x_new - x_a)
            # what the step knows before its pass, worked out while a split
            # pass's helpers do their rows
            d_x, d_step = x_new - v, x_new - x
            dx_sq, dx_step = float(d_x @ d_x), float(d_x @ d_step)
            r_new, g_new = finish()
            if cols is not None:
                r_new += r_a
                g_new += g_a
            d_r = r_new - r_v

            if step * float(d_r @ d_r) > dx_sq:
                # the curvature of the step, |A d|^2 / |d|^2, exceeds 1/step: the
                # quadratic model no longer bounds the objective, so halve and
                # retry from v
                step *= 0.5
            else:
                # full momentum, unless the step from v turned against the last
                # move, (v - x_new) . (x_new - x) > 0: then gradient restart.
                # The momentum m is 1 or 0, so it is not multiplied in: at
                # m = 0 the products x_new + 0 d_step, g_new + 0 (g_new - g)
                # and r_new + 0 (r_new - r) differ from x_new, g_new and r_new
                # at most in the sign of a zero.  x_new and v hold no -0.0, so
                # only grad_v and r_v can differ, and neither reaches
                # x_new = v - step grad_v or d_r @ d_r
                if dx_step < 0.0:
                    v, grad_v, r_v = x_new, g_new, r_new
                else:
                    v, grad_v, r_v = x_new + d_step, g_new + (g_new - g), r_new + (r_new - r)
                x, g, r = x_new, g_new, r_new
                step *= _STEP_GROWTH

    return LassoResult(x, _objective(r, x, lam), residual, k, residual <= tol)
