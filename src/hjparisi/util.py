"""Small shared numerics helpers and the deterministic thread map."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NotIncreasing

PSD_TOL = 1e-10


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


def psd_sqrt(a, clip_tol=PSD_TOL):
    """Principal square root of a symmetric PSD matrix.

    Eigenvalues in [-clip_tol, 0) are clamped to zero; anything more
    negative raises ValueError.
    """
    lam, vec = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    if lam[0] < -clip_tol:
        raise ValueError(f"matrix is not PSD (min eigenvalue {lam[0]:.3e})")
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)) @ vec.T


def project_psd(a):
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    lam, vec = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    return (vec * np.clip(lam, 0.0, None)) @ vec.T


def clip_increments(values, tol=np.inf):
    """Forward PSD-increment clip of a sequence of symmetric matrices.

    Returns out with out_k = out_{k-1} + [sym(v_k) - out_{k-1}]_+ and
    out_{-1} = 0, where [.]_+ sets negative eigenvalues to zero, so every
    increment of out is PSD.  An increment with an eigenvalue below -tol
    raises NotIncreasing.
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


def node_rng(seed, *key):
    """Counter-based generator for the stream addressed by (seed, key)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def resolve_threads(threads=None):
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("HJPARISI_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


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
