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

# leaf weights a batch of fresh cascades may hold: batch * n_leaves
_BATCH_LEAVES = 8_000_000


def _check_int(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_seed(name, value):
    _check_int(name, value)
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")


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
    the largest discarded-atom / retained-mass ratio seen at any node.  At
    depth 0 every cascade is one leaf of log weight 0.0 with ratio 0.0,
    and nothing is drawn from rng.

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
    _check_seed("seed", seed)
    if len(zetas) and n_max < 2:
        raise ValidationError("n_max must be at least 2")
    logw, ratio = _grow_log_weights(zetas, n_max, node_rng(seed, 0))
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


def _pick_leaves(cum, rng, count):
    """`count` independent leaf picks per row of cum, shape (count, rows).

    cum holds each cascade's cumulative leaf weights, one row per
    cascade.  A leaf is picked by inverse CDF: the first leaf whose
    cumulative weight reaches a uniform u, found by searchsorted on the
    row.  The last cumulative weight is pinned to 1.  Since u < 1, the
    test cum >= u stays monotone along the row even where rounding puts
    an earlier partial sum above 1, so the binary search finds that first
    leaf.
    """
    cum[:, -1] = 1.0
    u = rng.random((count, len(cum)))
    picks = np.empty(u.shape, dtype=np.intp)
    for i, row in enumerate(cum):
        picks[:, i] = np.searchsorted(row, u[:, i])
    return picks


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

    Fresh cascades grow in batches of at most _BATCH_LEAVES leaf weights;
    each is exponentiated and summed in the growth's own (batch, leaves)
    buffer, and both leaves of a pair are picked from it by inverse CDF
    (_pick_leaves).
    """
    _check_int("draws", draws)
    _check_seed("seed", seed)
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    K, n_max = cascade.K, cascade.n_max
    rng = node_rng(seed, 2)
    counts = np.zeros(K + 1)
    ratio = cascade.truncation_ratio
    if K == 0:
        counts[0] = draws
    else:
        batch = max(1, min(draws, _BATCH_LEAVES // cascade.n_leaves))
        for done in range(0, draws, batch):
            b = min(batch, draws - done)
            logw, r = _grow_log_weights(cascade.zetas, n_max, rng, batch=b)
            ratio = max(ratio, r)
            cum = np.cumsum(np.exp(logw, out=logw), axis=1, out=logw)
            picks = _pick_leaves(cum, rng, 2)
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
    max(20, draws // 8) // 20 cascades with 8 tuples each, which can
    differ from the requested draws.

    Cascades grow in capped batches and replicas are picked by inverse
    CDF, as in overlap_level_law; only f runs one tuple at a time.
    """
    _check_int("n", n)
    _check_int("draws", draws)
    _check_seed("seed", seed)
    if n < 2:
        raise ValidationError("n must be >= 2")
    if draws < 20:
        raise ValidationError("draws must be at least 20")
    rng = node_rng(seed, 3)
    tuples = 8                  # replica tuples sampled per cascade
    groups = 20
    per_group = max(20, draws // tuples) // groups
    batch = max(1, min(per_group, _BATCH_LEAVES // cascade.n_leaves))
    deltas = np.empty(groups)
    ratio = cascade.truncation_ratio
    for g in range(groups):
        sums = np.zeros(n + 2)
        for done in range(0, per_group, batch):
            part, r = _gg_sums(cascade, rng, min(batch, per_group - done),
                               n, tuples, f)
            sums += part
            ratio = max(ratio, r)
        m = sums / (per_group * tuples)
        deltas[g] = m[0] - (m[1] * sums[2] / per_group + m[3:].sum()) / n
    return GGCheckResult(float(abs(deltas.mean())),
                         float(deltas.std(ddof=1) / np.sqrt(groups)),
                         float(ratio), int(n), groups * per_group * tuples)


def _gg_sums(cascade, rng, b, n, tuples, f):
    """gg_check's sums over b fresh cascades with `tuples` replica n-tuples
    each, [f B, f, R12, f R^{1,l} for l = 2..n], and the growth's ratio.
    The mass sharing level k with a leaf is its level-k ancestor's, m_k,
    so replica 1's conditional mean of R^{1,n+1} is B = sum_k dz_k m_k and
    the cascade's E<R^{1,2}> is R12 = sum_k dz_k sum m_k^2, with
    dz_k = zeta_k - zeta_{k-1}."""
    zetas, n_max, K = cascade.zetas, cascade.n_max, cascade.K
    logw, ratio = _grow_log_weights(zetas, n_max, rng, batch=b)
    w = np.exp(logw, out=logw)
    # node masses, levels 1..K; the level-K nodes are the leaves
    mass = [w.reshape(b, n_max ** k, -1).sum(axis=2) for k in range(1, K)]
    mass += [w] if K else []
    picks = _pick_leaves(np.cumsum(w, axis=1), rng, tuples * n)
    leaves = picks.T.reshape(b, tuples, n)
    lv = _pair_levels(leaves[..., :, None], leaves[..., None, :], n_max, K)
    rmat = np.concatenate([[0.0], zetas])[lv]
    rmat[..., range(n), range(n)] = 1.0
    fv = np.array([float(f(r)) for r in rmat.reshape(-1, n, n)])
    fv = fv.reshape(b, tuples)
    b1 = np.zeros((b, tuples))
    r12 = 0.0
    for k, (dz, m) in enumerate(zip(np.diff(zetas, prepend=0.0), mass)):
        node = leaves[..., 0] // n_max ** (K - 1 - k)
        b1 += dz * np.take_along_axis(m, node, axis=1)
        r12 += dz * np.einsum("ij,ij->", m, m)
    fl = np.einsum("ct,ctl->l", fv, rmat[..., 0, 1:])
    return np.concatenate([[np.sum(fv * b1), fv.sum(), r12], fl]), ratio
