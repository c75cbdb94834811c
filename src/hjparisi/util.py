"""Small shared numerics helpers, the projected-gradient ascent and the
deterministic thread map."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NotIncreasing, ValidationError

PSD_TOL = 1e-10

# _Ascent: the first-order residual that counts as converged, the probe
# step it is taken with, the Armijo step range.
_RESIDUAL_TOL = 1e-7
_RES_STEP = 1e-6
_ETA_MIN, _ETA_MAX = 1e-10, 64.0


def sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def logsumexp(a, axis=None, keepdims=False):
    """log sum exp with the max factored out.

    scipy's version spends more time in dtype and sign plumbing than in
    the reduction itself, which is noticeable in the Monte Carlo inner
    loops; inputs here are always finite.
    """
    a = np.asarray(a)
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if keepdims:
        return out
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def frob(a):
    return float(np.linalg.norm(a))


def clip_increments(values, tol=np.inf):
    """Forward PSD-increment clip of a sequence of symmetric matrices.

    Returns out with out_k = out_{k-1} + [sym(v_k) - out_{k-1}]_+ and
    out_{-1} = 0, where [.]_+ sets negative eigenvalues to zero, so every
    increment of out is PSD.  An increment with an eigenvalue below -tol
    raises NotIncreasing.  On one matrix, clip_increments([a])[0] is the
    nearest PSD matrix to sym(a) in Frobenius norm.
    """
    out = []
    prev = np.zeros_like(values[0], dtype=float)
    for k, v in enumerate(values):
        lam, vec = np.linalg.eigh(sym(np.asarray(v, dtype=float)) - prev)
        if lam[0] < -tol:
            raise NotIncreasing(f"increment {k} has eigenvalue "
                                f"{lam[0]:.3e} below {-tol:g}")
        prev = prev + (vec * np.clip(lam, 0.0, None)) @ vec.T
        out.append(prev)
    return out


def _monotone_project(blocks, cap):
    """Forward eigenvalue clip to PSD increments, then a global norm cap;
    returns an array of shape (n, D, D)."""
    out = np.array(clip_increments(blocks))
    top = float(np.linalg.norm(out, axis=(1, 2)).max())
    return out * (cap / top) if top > cap else out


class _Ascent:
    """Projected-gradient ascent from one start, with an Armijo step along
    the projection arc b(eta) = P(b + eta g) (Bertsekas 1976), P being
    _monotone_project with the norm cap.

    objective(blocks) returns the value, -inf on infeasible blocks, and
    with it (not as a deferred call) the L2 block gradient.  Each move first
    tries the Barzilai-Borwein step <s, s> / -<s, y> (last move s,
    gradient change y), the secant step on a concave quadratic, or twice
    the last step where <s, y> >= 0.  The ascent is done once the
    first-order residual |P(b + h g) - b| / h is at most tol (all norms
    L2), or once no step down to _ETA_MIN gains.
    The latter is also convergence: grad-psi is exact for psi, not for its
    quadrature sum, so near the top the two differ by the quadrature error
    (a residual of 5e-7 at 16 nodes, D = 1, K = 1).
    """

    def __init__(self, objective, cap, lens, start, tol=_RESIDUAL_TOL):
        self.objective, self.cap, self.tol = objective, cap, tol
        self.lens = np.asarray(lens)[:, None, None]
        self.blocks = self.project(np.array(start, dtype=float))
        self.value, g = objective(self.blocks)
        if not np.isfinite(self.value):
            raise ValidationError("projected start is infeasible")
        self.g = np.asarray(g)
        self.eta, self._prev = 1.0, None
        self.iters, self.done, self.residual = 0, False, np.inf

    def _inner(self, a, b):
        return float(np.sum(self.lens * a * b))

    def project(self, blocks):
        return _monotone_project(blocks, self.cap)

    def check(self):
        """Residual at the current blocks; True once done."""
        step = (self.project(self.blocks + _RES_STEP * self.g)
                - self.blocks) / _RES_STEP
        self.residual = self._inner(step, step) ** 0.5
        self.done = self.residual <= self.tol
        return self.done

    def run(self, moves):
        """Advance by up to moves Armijo steps."""
        for _ in range(moves):
            if self.done or self.check():
                return
            self.iters += 1
            if self._prev is not None:
                s, y = self.blocks - self._prev[0], self.g - self._prev[1]
                sy = self._inner(s, y)
                eta = self._inner(s, s) / -sy if sy < 0.0 else 2.0 * self.eta
                self.eta = min(max(eta, _ETA_MIN), _ETA_MAX)
            while self.eta >= _ETA_MIN:
                cand = self.project(self.blocks + self.eta * self.g)
                cval, cgrad = self.objective(cand)
                rise = self._inner(self.g, cand - self.blocks)
                if cval > self.value and cval >= self.value + 1e-4 * rise:
                    break
                self.eta *= 0.5
            else:
                self.done = True
                return
            self._prev = (self.blocks, self.g)
            self.blocks, self.value, self.g = cand, cval, np.asarray(cgrad)


def check_times(t, t_hat=0.0):
    """ValidationError unless 0 <= t < inf and 0 <= t_hat < inf."""
    for name, value in (("t", t), ("t_hat", t_hat)):
        if not 0.0 <= value < np.inf:
            raise ValidationError(
                f"{name} must be finite and nonnegative, got {value:g}")


def node_rng(seed, *key):
    """Counter-based generator for the stream addressed by (seed, key)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def resolve_threads(threads=None):
    """Worker count: threads, at least 1; None means 1."""
    return 1 if threads is None else max(1, int(threads))


def chunked_thread_map(fn, items, threads=1):
    """Map fn over items with an optional thread pool.

    Results come back in submission order, so reductions built on this are
    independent of the worker count.
    """
    items = list(items)
    threads = resolve_threads(threads)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
