"""Truncated Poisson-Dirichlet cascades, their Gaussian fields, and
overlap diagnostics (level law, Ghirlanda-Guerra residuals).

A depth-K cascade keeps the n_max largest atoms of each node's Poisson
process; leaf weights are the globally normalized products down the tree.
Level k of a leaf pair is the number of common ancestors (0 at the root
split, K for the same leaf), and the level-k time value is zeta_k with
zeta_0 = 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PartitionMismatch, ValidationError
from .paths import sqrt_increments
from .util import logsumexp, node_rng

__all__ = [
    "CascadeSample", "CascadeField", "sample_cascade", "sample_field",
    "overlap_level_law", "OverlapLevelLaw", "gg_check", "GGCheckResult",
]


def _check_int(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_zetas(zetas):
    # stated as what must hold, so NaN fails it
    zetas = np.asarray(zetas, dtype=float)
    if zetas.size and not (np.all(np.diff(zetas) > 0.0)
                           and zetas[0] > 0.0 and zetas[-1] < 1.0):
        raise ValidationError(
            "cascade levels must satisfy 0 < zeta_1 < ... < zeta_K < 1")
    return zetas


@dataclass(frozen=True, eq=False)
class CascadeSample:
    zetas: np.ndarray          # interior levels, shape (K,)
    n_max: int
    seed: int
    log_leaf_weights: np.ndarray
    truncation_ratio: float

    @property
    def K(self) -> int:
        return len(self.zetas)

    @property
    def n_leaves(self) -> int:
        return len(self.log_leaf_weights)

    def leaf_weights(self):
        return np.exp(self.log_leaf_weights)


def _grow_log_weights(zetas, n_max, rng, batch=None):
    """Log leaf weights for `batch` independent cascades (None: single).

    Returns (logw, ratio) with logw of shape (batch, n_max**K) and ratio
    the largest discarded-atom / retained-mass ratio seen at any node.

    Each level draws one (batch, parents, n_max + 1) array of unit
    exponentials and turns it, in its own buffer, into the atom logs
    -log(Gamma_j) / zeta (partial sums, log, negation, division).  The
    node log-sum-exp takes one temporary, freed before the level's leaf
    logs are built, so a batch peaks near two (batch, n_max**K) arrays.
    """
    K = len(zetas)
    b = 1 if batch is None else batch
    logw = np.zeros((b, 1))
    # per-parent log mass of the last level's children; the leaf
    # normaliser is its log-sum-exp over those parents
    parent_mass = logw
    ratio = 0.0
    for k in range(1, K + 1):
        n_parents = logw.shape[1]
        log_u = rng.standard_exponential(size=(b, n_parents, n_max + 1))
        np.cumsum(log_u, axis=2, out=log_u)
        np.log(log_u, out=log_u)
        np.negative(log_u, out=log_u)
        log_u /= zetas[k - 1]
        kept = log_u[:, :, :n_max]
        # atoms come out in decreasing order, so the first one is the max
        top = kept[:, :, 0]
        shifted = kept - top[:, :, None]
        node_lse = np.log(np.exp(shifted, out=shifted).sum(axis=2)) + top
        del shifted
        spill = log_u[:, :, n_max] - node_lse
        ratio = max(ratio, float(np.exp(spill.max())))
        parent_mass = logw + node_lse
        logw = (logw[:, :, None] + kept).reshape(b, -1)
    logw -= logsumexp(parent_mass, axis=1, keepdims=True)
    if batch is None:
        return logw[0], ratio
    return logw, ratio


def sample_cascade(zetas, n_max, seed) -> CascadeSample:
    """Draw a truncated cascade with the given interior levels.

    Each node keeps the n_max largest atoms u_j of a Poisson process with
    intensity x^{-1-zeta} dx, realized as u_j proportional to
    Gamma_j^{-1/zeta} for partial sums Gamma_j of unit-rate exponentials
    (one extra atom is drawn per node for the truncation diagnostic).
    """
    zetas = _check_zetas(zetas)
    _check_int("n_max", n_max)
    if len(zetas) and n_max < 2:
        raise ValidationError("n_max must be at least 2")
    if len(zetas) == 0:
        return CascadeSample(zetas, int(n_max), int(seed),
                             np.zeros(1), 0.0)
    rng = node_rng(seed, 0)
    logw, ratio = _grow_log_weights(zetas, n_max, rng)
    return CascadeSample(zetas, int(n_max), int(seed), logw, ratio)


@dataclass(frozen=True, eq=False)
class CascadeField:
    """Gaussian field over the leaves of a cascade for an increasing path.

    Node Gaussians are drawn lazily from counter-based streams keyed by
    (seed, level), so evaluation is reproducible and reentrant.  The field
    at a leaf is the sum of sqrt-increment-scaled node vectors along its
    ancestry, root included; columns are i.i.d. replicas.
    """

    cascade: CascadeSample
    q: object
    N: int
    seed: int

    def __post_init__(self):
        qz = np.asarray(self.q.zetas, dtype=float)
        cz = self.cascade.zetas
        if len(qz) != len(cz) + 1 or not np.allclose(qz[1:], cz, atol=1e-12):
            raise PartitionMismatch(
                f"path breakpoints {qz.tolist()} do not extend cascade "
                f"levels {cz.tolist()}")

    @cached_property
    def _roots(self):
        return sqrt_increments(self.q)

    @cached_property
    def all(self):
        """Field at every leaf, shape (n_leaves, D, N)."""
        casc = self.cascade
        return _leaf_field(self._roots, [
            node_rng(self.seed, 1, level).standard_normal(
                (casc.n_max ** level, self.q.D, self.N))
            for level in range(casc.K + 1)])


def _leaf_field(roots, zs):
    """Field at every leaf, shape (n_leaves, D, N), from per-level node
    Gaussians zs[l] of shape (n_max**l, D, N): each node's roots[l]-scaled
    vector is added over its contiguous block of leaves."""
    total = np.zeros(zs[-1].shape)
    for root, z in zip(roots, zs):
        blocks = total.reshape(len(z), -1, *z.shape[1:])
        blocks += np.einsum("de,neb->ndb", root, z)[:, None]
    return total


def sample_field(cascade, q, N, seed) -> CascadeField:
    return CascadeField(cascade, q, int(N), int(seed))


def _pair_levels(leaf_a, leaf_b, n_max, K):
    """Common-ancestor count for leaf index pairs (vectorized)."""
    levels = np.zeros(np.broadcast(leaf_a, leaf_b).shape, dtype=int)
    for j in range(1, K + 1):
        div = n_max ** (K - j)
        levels += (leaf_a // div) == (leaf_b // div)
    return levels


def _gumbel_pick(logw, rng, count):
    """`count` independent categorical draws per row of logw.

    The Gumbel keys logw - log(-log(u)) are formed in the uniforms' own
    buffer before the argmax."""
    b, L = logw.shape
    keys = rng.random((count, b, L))
    np.log(keys, out=keys)
    np.negative(keys, out=keys)
    np.log(keys, out=keys)
    np.subtract(logw, keys, out=keys)
    return np.argmax(keys, axis=2)  # shape (count, b)


@dataclass(frozen=True)
class OverlapLevelLaw:
    freqs: np.ndarray
    stderrs: np.ndarray
    expected: np.ndarray
    draws: int
    truncation_ratio: float
    zetas: np.ndarray


def overlap_level_law(cascade, draws, seed) -> OverlapLevelLaw:
    """Empirical law of the common-ancestor level of a Gibbs leaf pair.

    Every draw uses a fresh cascade with the same levels and truncation,
    so the frequencies estimate the ensemble law, which is
    zeta_{k+1} - zeta_k per level.  A depth-0 cascade has one leaf, so
    every pair is at level 0.

    A leaf is picked by inverse CDF: the first leaf whose cumulative
    weight reaches a uniform u, found by searchsorted on that cascade's
    row.  The last cumulative weight is pinned to 1.  Since u < 1, the
    test cum >= u stays monotone along the row even where rounding puts
    an earlier partial sum above 1, so the binary search finds that first
    leaf.  Fresh cascades are exponentiated and summed in the growth's
    own (batch, leaves) buffer.
    """
    _check_int("draws", draws)
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    K, n_max = cascade.K, cascade.n_max
    rng = node_rng(seed, 2)
    counts = np.zeros(K + 1)
    ratio = cascade.truncation_ratio
    if K == 0:
        counts[0] = draws
    else:
        batch = max(1, min(draws, int(8e6) // cascade.n_leaves))
        for done in range(0, draws, batch):
            b = min(batch, draws - done)
            logw, r = _grow_log_weights(cascade.zetas, n_max, rng, batch=b)
            ratio = max(ratio, r)
            cum = np.cumsum(np.exp(logw, out=logw), axis=1, out=logw)
            cum[:, -1] = 1.0
            u = rng.random((2, b, 1))[:, :, 0]
            picks = np.empty((2, b), dtype=np.intp)
            for i in range(b):
                picks[:, i] = np.searchsorted(cum[i], u[:, i])
            lv = _pair_levels(picks[0], picks[1], n_max, K)
            counts += np.bincount(lv, minlength=K + 1)
    freqs = counts / draws
    stderrs = np.sqrt(np.clip(freqs * (1.0 - freqs), 0.0, None) / draws)
    expected = np.diff(np.concatenate([[0.0], cascade.zetas, [1.0]]))
    return OverlapLevelLaw(freqs, stderrs, expected, int(draws),
                           float(ratio), cascade.zetas.copy())


@dataclass(frozen=True)
class GGCheckResult:
    residual: float
    stderr: float
    truncation_bias: float
    n: int
    draws: int


def gg_check(cascade, f, n, draws, seed) -> GGCheckResult:
    """Ghirlanda-Guerra residual for a bounded overlap-array statistic.

    Estimates | E<f R^{1,n+1}> - (1/n) E<f> E<R^{1,2}>
                - (1/n) sum_{l=2..n} E<f R^{1,l}> |
    where R is the level-time overlap (level k maps to zeta_k, diagonal 1)
    and E averages over fresh cascades.  Per cascade, E<R^{1,2}> and the
    conditional mean of R^{1,n+1} given replica 1 are computed exactly
    from level masses; f-moments use sampled replica tuples.  The stderr
    comes from 20 batch means; truncation_bias is the worst discarded
    atom ratio seen, reported as an additive allowance.  The result's
    draws is the number of replica tuples actually sampled, 20 groups of
    max(1, max(20, draws // 8) // 20) cascades with 8 tuples each, which
    can differ from the requested draws.
    """
    _check_int("n", n)
    _check_int("draws", draws)
    if n < 2:
        raise ValidationError("n must be >= 2")
    if draws < 20:
        raise ValidationError("draws must be at least 20")
    K, n_max = cascade.K, cascade.n_max
    zet = np.concatenate([[0.0], cascade.zetas])   # level value map, k -> zeta_k
    rng = node_rng(seed, 3)
    tuples = 8                  # replica tuples sampled per cascade
    n_casc = max(20, draws // tuples)
    groups = 20
    per_group = max(1, n_casc // groups)
    deltas = []
    ratio = 0.0
    for _ in range(groups):
        acc_t1 = acc_f = acc_r12 = 0.0
        acc_fl = np.zeros(max(n - 1, 1))
        count = 0
        for _ in range(per_group):
            if K > 0:
                logw, r = _grow_log_weights(cascade.zetas, n_max, rng, batch=1)
                logw = logw[0]
                ratio = max(ratio, r)
            else:
                logw = cascade.log_leaf_weights
            w = np.exp(logw)
            L = len(w)
            # mass sharing at least level j with each leaf, then B and E<R>
            share = np.empty((K + 2, L))
            share[0] = 1.0
            for j in range(1, K + 1):
                node_w = w.reshape(n_max ** j, -1).sum(axis=1)
                share[j] = np.repeat(node_w, L // (n_max ** j))
            share[K + 1] = 0.0
            exact_mass = share[:K + 1] - share[1:K + 2]
            b_leaf = zet @ exact_mass
            r12 = float(zet @ (exact_mass @ w))
            tup = _gumbel_pick(np.broadcast_to(logw, (tuples, L)),
                               rng, n)          # (n, tuples)
            for t in range(tuples):
                leaves = tup[:, t]
                lv = _pair_levels(leaves[:, None], leaves[None, :], n_max, K)
                rmat = zet[np.minimum(lv, K)]
                np.fill_diagonal(rmat, 1.0)
                fv = float(f(rmat))
                acc_t1 += fv * float(b_leaf[leaves[0]])
                acc_f += fv
                for l in range(1, n):
                    acc_fl[l - 1] += fv * rmat[0, l]
                count += 1
            acc_r12 += r12
        m_t1 = acc_t1 / count
        m_f = acc_f / count
        m_fl = acc_fl / count
        m_r12 = acc_r12 / per_group
        deltas.append(m_t1 - (m_f * m_r12 + float(m_fl.sum())) / n)
    deltas = np.asarray(deltas)
    return GGCheckResult(float(abs(deltas.mean())),
                         float(deltas.std(ddof=1) / np.sqrt(groups)),
                         float(max(ratio, cascade.truncation_ratio)),
                         int(n), groups * per_group * tuples)
