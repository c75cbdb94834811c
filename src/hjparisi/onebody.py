"""One-body free energy psi(q) of a spin in a cascade-correlated Gaussian
field, its path derivative, and the closed form for the log partition
function of a purely Gaussian cascade.

Two genuinely independent backends are kept side by side: psi_eval runs
the deterministic nested-quadrature recursion, psi_mc simulates truncated
cascades directly.  Their agreement is the module's main correctness
argument and is asserted in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cascade import _grow_log_weights
from .errors import BudgetExceeded, ValidationError
from .paths import PiecewisePath, SignedPiecewisePath, sqrt_increments
from .util import chunked_thread_map, logsumexp, node_rng

__all__ = [
    "QuadratureSpec", "PsiResult", "psi_eval", "psi_mc", "psi_grad",
    "gaussian_cascade_logfree", "NODE_BUDGET",
]

NODE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite tensor quadrature; optional MC fallback.

    mc_fallback, when given, is a dict with keys "samples" and "seed"; it
    is used when the full tensor grid would exceed NODE_BUDGET innermost
    evaluations.
    """
    nodes_per_dim: int = 32
    mc_fallback: dict | None = None

    def __post_init__(self):
        if self.nodes_per_dim < 3:
            raise ValidationError("nodes_per_dim must be >= 3")


@dataclass(frozen=True)
class PsiResult:
    value: float
    method: str               # "quadrature" or "mc"
    error_estimate: float
    # psi_mc: largest discarded-atom / retained-mass ratio of any cascade
    # node it grew; 0.0 when no cascade was sampled
    truncation_ratio: float = 0.0


def _read_only(*arrays):
    """The arrays, made read-only: cached node sets are shared by every
    caller and every level of a pass."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=32)
def _gh_nodes_1d(n):
    x, w = np.polynomial.hermite.hermgauss(n)
    return _read_only(x * np.sqrt(2.0), np.log(w) - 0.5 * np.log(np.pi))


@lru_cache(maxsize=16)
def _gh_nodes(n, D):
    """Tensorized standard-normal nodes: points (n**D, D), log-weights."""
    x1, lw1 = _gh_nodes_1d(n)
    grids = np.meshgrid(*([x1] * D), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    lgrids = np.meshgrid(*([lw1] * D), indexing="ij")
    lws = sum(g.ravel() for g in lgrids)
    return _read_only(pts, lws)


def _atom_terms(P1, q_end, tilt):
    """Per-atom additive constants and the sqrt(2)-scaled atom matrix."""
    atoms = np.asarray(P1.atoms, dtype=float)
    logp = np.log(np.asarray(P1.weights, dtype=float))
    const = logp - np.einsum("ad,de,ae->a", atoms, q_end, atoms)
    if tilt is not None:
        tilt = np.asarray(tilt, dtype=float)
        const = const + np.einsum("ad,de,ae->a", atoms, tilt, atoms)
    return const, np.sqrt(2.0) * atoms.T


def _recursion(node_sets, logw_sets, zetas, roots, const, atoms_t, threads,
               moments=False):
    """Evaluate the cascade recursion over explicit per-level node sets.

    node_sets[l] has shape (G_l, D); the innermost free-energy kernel is
    evaluated on the full product grid, then levels are collapsed inward
    with X_{l-1} = zeta_l^{-1} log E exp(zeta_l X_l) and a plain average
    at the root.  Returns (X_0 per outermost node, shape (G_0,), M).

    The innermost kernel is coordinate-major.  Each level's field
    contribution roots[l] @ node_sets[l].T has shape (D, G_l); for a
    chunk of c root nodes they are broadcast-added, level 0 first, into
    the field h of shape (D, c, G_1, ..., G_K).  One tensordot with the
    atoms gives the atom rows a = sqrt(2) atoms . h + const of shape
    (A, c, G_1, ..., G_K), and the log-sum-exp over atoms reduces that
    leading axis: elementwise max, shift, exp and sum over A contiguous
    rows, with no short inner axis.

    M is None unless moments is set, and then has shape (G_0, K+1, D, D):
    M[g, k] sums r mu_k mu_k^T over the level-k descendants of root node
    g, where mu_K is the atom Gibbs mean at an innermost node (the Gibbs
    weights are the shifted exponentials of a divided by their sum),
    mu_{l-1} = sum r_l mu_l over the children, and r is the product of
    the collapse weights r_l = w exp(zeta_l (X_l - X_{l-1})) on the way
    down (each r_l sums to 1 over its siblings).
    """
    K = len(node_sets) - 1
    contrib = [roots[l] @ node_sets[l].T for l in range(K + 1)]
    inner_sizes = tuple(len(node_sets[l]) for l in range(1, K + 1))
    inner_total = int(np.prod(inner_sizes)) if K else 1
    g0 = len(node_sets[0])
    chunk = max(1, min(g0, (1 << 20) // max(inner_total, 1)))
    starts = list(range(0, g0, chunk))
    atoms = atoms_t.T / np.sqrt(2.0)
    D = atoms.shape[1]
    const = const.reshape((-1,) + (1,) * (K + 1))

    def one_chunk(s0):
        idx = slice(s0, min(s0 + chunk, g0))
        c = idx.stop - idx.start
        h = contrib[0][:, idx].reshape((D, c) + (1,) * K)
        for l in range(1, K + 1):
            shape = (D,) + (1,) * l + (inner_sizes[l - 1],) + (1,) * (K - l)
            h = h + contrib[l].reshape(shape)
        a = np.tensordot(atoms_t, h, axes=(0, 0))
        a += const
        top = a.max(axis=0)
        a -= top
        np.exp(a, out=a)
        s = a.sum(axis=0)
        x = np.log(s)
        x += top
        if moments:
            a /= s
            mus = [None] * K + [np.tensordot(a, atoms, axes=(0, 0))]
            rs = [None] * (K + 1)
        for l in range(K, 0, -1):
            t = logw_sets[l] + zetas[l] * x
            x = logsumexp(t, axis=-1) / zetas[l]
            if moments:
                rs[l] = np.exp(t - zetas[l] * x[..., None])
                mus[l - 1] = (rs[l][..., None, :] @ mus[l])[..., 0, :]
        if not moments:
            return x, None
        m = np.empty((c, K + 1, D, D))
        pi = np.ones(c)
        for k in range(K + 1):
            if k:
                pi = pi[..., None] * rs[k]
            mu = mus[k].reshape(c, -1, D)
            m[:, k] = np.swapaxes(pi.reshape(c, -1, 1) * mu, 1, 2) @ mu
        return x, m

    parts = chunked_thread_map(one_chunk, starts, threads)
    x0 = np.concatenate([x for x, _ in parts])
    return x0, np.concatenate([m for _, m in parts]) if moments else None


def _levels(q, quad):
    """Per-level node sets and log-weights of the recursion pass.

    Gauss-Hermite tensor nodes when the full grid fits NODE_BUDGET;
    otherwise, given quad.mc_fallback, equal-weight Monte Carlo node sets
    per level, with per-level sample counts chosen to fit the budget (and
    capped by mc_fallback["samples"]).  Returns (node_sets, logw_sets,
    method) with method "quadrature" or "mc".
    """
    if not isinstance(q, PiecewisePath):
        raise ValidationError("q must be a PiecewisePath")
    K, D = q.K, q.D
    n = quad.nodes_per_dim
    total = float(n) ** (D * (K + 1))
    if total <= NODE_BUDGET:
        pts, lws = _gh_nodes(n, D)
        return [pts] * (K + 1), [lws] * (K + 1), "quadrature"
    if quad.mc_fallback is None:
        raise BudgetExceeded(
            f"grid needs {total:.3g} evaluations, budget {NODE_BUDGET:g};"
            " supply mc_fallback or reduce nodes_per_dim")
    cap = int(quad.mc_fallback.get("samples", 10 ** 5))
    seed = int(quad.mc_fallback.get("seed", 0))
    per_level = max(8, min(cap, int(NODE_BUDGET ** (1.0 / (K + 1)))))
    rng = node_rng(seed, 9)
    node_sets = [rng.standard_normal((per_level, D)) for _ in range(K + 1)]
    logw_sets = [np.full(per_level, -np.log(per_level))] * (K + 1)
    return node_sets, logw_sets, "mc"


def _psi_pass(P1, q, quad, tilt=None, threads=None, grad=False):
    """(psi_eval's PsiResult, psi_grad's path if grad else None), both from
    one recursion pass."""
    node_sets, logw_sets, method = _levels(q, quad)
    const, atoms_t = _atom_terms(P1, q.final_value, tilt)
    x0, m = _recursion(node_sets, logw_sets, q.zetas, sqrt_increments(q),
                       const, atoms_t, threads, moments=grad)
    w0 = np.exp(logw_sets[0])
    if method == "mc":
        stderr = float(x0.std(ddof=1) / np.sqrt(len(x0)))
        res = PsiResult(-float(x0.mean()), "mc", stderr)
    else:       # + 0.0 avoids -0.0 in reports
        res = PsiResult(-float(w0 @ x0) + 0.0, "quadrature", 0.0)
    if grad:
        return res, SignedPiecewisePath(q.zetas, np.tensordot(w0, m, 1))
    return res, None


def psi_eval(P1, q, quad, tilt=None, threads=None) -> PsiResult:
    """psi(q) = -E X_0 by nested Gauss-Hermite over the cascade recursion.

    The optional PSD tilt adds +sigma.tilt.sigma inside the innermost
    kernel (used by the classic Parisi functional); with a tilt the
    result may be negative.  Under the budget fallback (method "mc") the
    error estimate is the stderr over outermost nodes; noise from the
    shared inner-level samples is not included, so treat it as a lower
    bound.
    """
    return _psi_pass(P1, q, quad, tilt, threads)[0]


def psi_mc(P1, q, n_max, samples, seed, tilt=None, threads=None) -> PsiResult:
    """Direct-simulation backend: fresh truncated cascade and field per
    sample, free energy by summation over leaves and atoms.

    Samples run in batches.  The leaf field of a batch is held
    coordinate-major, shape (D, batch, leaves): each level's node vectors
    are broadcast-added over that node's block of descendant leaves.  One
    matrix product then gives, per atom j, a contiguous row
    atoms_j . h + const_j + log w over all leaves, and each sample's log
    partition function is a single max-shifted log-sum-exp over the
    (atom, leaf) pairs.  truncation_ratio is the largest discarded-atom /
    retained-mass ratio over all grown cascade nodes.

    With psi_eval it shares only sqrt_increments and _atom_terms (the
    per-atom constants and scaled atoms); cascade weights come from the
    cascade module's sampler, and the estimate never runs the recursion.
    """
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    roots = sqrt_increments(q)
    K, D = q.K, q.D
    if K > 0 and n_max < 2:
        raise ValidationError("n_max must be >= 2 when the path has steps")
    const, atoms_t = _atom_terms(P1, q.final_value, tilt)
    zi = q.zetas[1:]
    L = int(n_max) ** K
    chunk_samples = 256
    chunks = list(range(0, samples, chunk_samples))

    def one_chunk(start):
        rng = node_rng(seed, 4, start)
        count = min(chunk_samples, samples - start)
        out = np.empty(count)
        ratio = 0.0
        b_cap = max(1, (1 << 20) // L)
        done = 0
        while done < count:
            b = min(b_cap, count - done)
            if K > 0:
                logw, r = _grow_log_weights(zi, n_max, rng, batch=b)
                ratio = max(ratio, r)
            else:
                logw = np.zeros((b, 1))
            field = np.zeros((D, b, L))
            for l in range(K + 1):
                n_l = n_max ** l
                z = rng.standard_normal((b, n_l, D)) @ roots[l].T
                nodes = field.reshape(D, b, n_l, L // n_l)
                nodes += np.moveaxis(z, 2, 0)[..., None]
            a = np.tensordot(atoms_t, field, axes=(0, 0))
            a += logw
            a += const[:, None, None]
            m = a.max(axis=(0, 2))
            a -= m[:, None]
            np.exp(a, out=a)
            out[done:done + b] = np.log(a.sum(axis=(0, 2))) + m
            done += b
        return out, ratio

    parts = chunked_thread_map(one_chunk, chunks, threads)
    f = np.concatenate([out for out, _ in parts])
    value = -float(f.mean())
    stderr = float(f.std(ddof=1) / np.sqrt(samples))
    return PsiResult(value, "mc", stderr, max(r for _, r in parts))


def psi_grad(P1, q, quad, tilt=None, threads=None) -> SignedPiecewisePath:
    """Block gradient of psi, p_k = E^w[mu_k mu_k^T], from one pass of the
    cascade recursion on psi_eval's node sets.

    mu_k is the Gibbs mean of the spin given the field down to level k:
    the atom mean softmax(kernel) @ atoms at level K, and
    mu_{l-1} = sum r_l mu_l with the collapse weights
    r_l = w exp(zeta_l (X_l - X_{l-1})).  E^w averages over the root nodes
    with the products of the r_l as weights.  Gaussian integration by
    parts makes the level terms telescope, so d psi / d q_k =
    len_k E^w[mu_k mu_k^T] with len_k the block length: no derivative of
    the matrix square root enters, and zero or pinched increments need no
    special case.  For K = 0, D = 1 and Ising atoms this is
    E tanh^2(sqrt(2 q) Z).  With psi_eval's tilt the Gibbs means are the
    tilted ones and the result is the gradient of psi_eval(..., tilt).
    """
    return _psi_pass(P1, q, quad, tilt, threads, grad=True)[1]


def gaussian_cascade_logfree(zetas, tilde_theta) -> float:
    """Closed form for E log of a cascade-averaged Gaussian exponential.

    zetas = (s_0, ..., s_k) with s_0 = 0 < ... < s_k = 1 and tilde_theta
    the level values (theta-tilde of p_1 .. p_k); returns
    (tilde_theta_k - sum_l (s_l - s_{l-1}) tilde_theta_l) / 2.
    """
    s = np.asarray(zetas, dtype=float)
    tt = np.asarray(tilde_theta, dtype=float)
    if len(s) < 2 or abs(s[0]) > 1e-12 or abs(s[-1] - 1.0) > 1e-12:
        raise ValidationError("levels must run from 0 to 1")
    if np.any(np.diff(s) <= 0):
        raise ValidationError("levels must be strictly increasing")
    if len(tt) != len(s) - 1:
        raise ValidationError("need one value per level step")
    return float(0.5 * (tt[-1] - np.sum(np.diff(s) * tt)))
