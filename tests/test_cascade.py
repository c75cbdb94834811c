"""Truncated cascades, their overlap laws and fields."""

import hashlib

import numpy as np
import pytest

from hjparisi import (
    PartitionMismatch,
    ReferenceMeasure,
    ValidationError,
    gg_check,
    overlap_level_law,
    psi_mc,
    sample_cascade,
    sample_field,
)
from hjparisi import cascade
from hjparisi.cascade import (
    _gg_sums,
    _grow_log_weights,
    _pair_levels,
    _pick_leaves,
)
from hjparisi.paths import path_new, sqrt_increments
from hjparisi.util import node_rng


def test_sample_cascade_shapes_and_normalization():
    c = sample_cascade([0.3, 0.6], n_max=8, seed=1)
    assert c.K == 2
    assert c.n_leaves == 64
    assert c.leaf_weights().sum() == pytest.approx(1.0)
    assert c.truncation_ratio > 0.0


def test_depth_zero_cascade_is_a_point_mass():
    c = sample_cascade([], n_max=8, seed=1)
    assert c.n_leaves == 1
    assert c.leaf_weights()[0] == pytest.approx(1.0)
    assert c.truncation_ratio == 0.0


def test_cascade_determinism():
    a = sample_cascade([0.4], n_max=16, seed=9)
    b = sample_cascade([0.4], n_max=16, seed=9)
    c = sample_cascade([0.4], n_max=16, seed=10)
    np.testing.assert_array_equal(a.log_leaf_weights, b.log_leaf_weights)
    assert not np.array_equal(a.log_leaf_weights, c.log_leaf_weights)


def test_cascade_validation():
    with pytest.raises(ValidationError):
        sample_cascade([0.5, 0.3], n_max=8, seed=0)    # not increasing
    with pytest.raises(ValidationError):
        sample_cascade([1.2], n_max=8, seed=0)
    with pytest.raises(ValidationError):
        sample_cascade([0.5], n_max=1, seed=0)


def test_single_level_pair_mass_matches_poisson_dirichlet():
    # E sum_a w_a^2 = 1 - zeta for one level; estimated over fresh
    # cascades, with the truncation deficit far below the MC error
    zeta, n_casc = 0.35, 3000
    logw, _ = _grow_log_weights(np.array([zeta]), 64, node_rng(123, 0),
                                batch=n_casc)
    pair_mass = np.sum(np.exp(logw) ** 2, axis=1)
    se = pair_mass.std(ddof=1) / np.sqrt(n_casc)
    assert pair_mass.mean() == pytest.approx(1.0 - zeta, abs=4 * se + 0.004)


def test_overlap_level_law_matches_increments():
    c = sample_cascade([0.2, 0.4], n_max=64, seed=3)
    law = overlap_level_law(c, draws=20000, seed=5)
    np.testing.assert_allclose(law.expected, [0.2, 0.2, 0.6])
    assert law.freqs.sum() == pytest.approx(1.0)
    for f, e, s in zip(law.freqs, law.expected, law.stderrs):
        assert abs(f - e) <= 4 * s + 0.004
    assert law.truncation_ratio < 0.05


def test_gg_check_constant_and_overlap_functions():
    c = sample_cascade([0.25, 0.5], n_max=48, seed=7)
    for f in (lambda r: 1.0, lambda r: r[0, 1], lambda r: r[0, 1] ** 2):
        res = gg_check(c, f, n=3, draws=1500, seed=11)
        assert res.residual <= 3 * res.stderr + res.truncation_bias


def test_gg_check_validation():
    c = sample_cascade([0.5], n_max=16, seed=0)
    with pytest.raises(ValidationError):
        gg_check(c, lambda r: 1.0, n=1, draws=100, seed=0)
    with pytest.raises(ValidationError):
        gg_check(c, lambda r: 1.0, n=2, draws=5, seed=0)


def test_field_requires_matching_partition():
    c = sample_cascade([0.5], n_max=4, seed=0)
    q_bad = path_new([0.0, 0.4], [[[0.1]], [[0.2]]])
    with pytest.raises(PartitionMismatch):
        sample_field(c, q_bad, N=3, seed=0)


def test_field_covariance_structure():
    # K=1, n_max=2: leaves 0 and 1 share only the root, so their fields
    # correlate at the first path value while each variance is the final
    c = sample_cascade([0.35], n_max=2, seed=2)
    q = path_new([0.0, 0.35], [[[0.2]], [[0.5]]])
    field = sample_field(c, q, N=200000, seed=8)
    f = field.all[:, 0, :]           # (n_leaves, N)
    var0 = np.mean(f[0] * f[0])
    cov01 = np.mean(f[0] * f[1])
    assert var0 == pytest.approx(0.5, abs=0.01)
    assert cov01 == pytest.approx(0.2, abs=0.01)


def test_field_prefix_agreement_across_truncation():
    # level streams are keyed by (seed, level), so a wider cascade extends
    # the narrow one's node draws instead of redrawing them
    q = path_new([0.0, 0.35], [[[0.2]], [[0.5]]])
    f_small = sample_field(sample_cascade([0.35], 2, seed=2), q, N=5, seed=8)
    f_big = sample_field(sample_cascade([0.35], 4, seed=2), q, N=5, seed=8)
    np.testing.assert_allclose(f_small.all[:2], f_big.all[:2])


def test_field_is_the_ancestry_sum_of_node_vectors():
    # D=2, K=2, n_max=3: leaf i's ancestor at level l is node i // 3**(2-l)
    c = sample_cascade([0.3, 0.6], n_max=3, seed=4)
    q = path_new([0.0, 0.3, 0.6], [np.diag([0.1, 0.05]),
                                   [[0.3, 0.1], [0.1, 0.2]],
                                   [[0.5, 0.1], [0.1, 0.45]]])
    roots = sqrt_increments(q)
    z = [node_rng(7, 1, level).standard_normal((3 ** level, 2, 4))
         for level in range(3)]
    leaf = np.arange(9)
    expected = sum(np.einsum("de,neb->ndb", roots[l],
                             z[l][leaf // 3 ** (2 - l)]) for l in range(3))
    got = sample_field(c, q, N=4, seed=7).all
    assert got.shape == (9, 2, 4)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)


def test_sampled_overlap_matrix_is_ultrametric():
    # overlaps read off a sampled cascade through common-ancestor levels
    # satisfy ov(i,k) >= min(ov(i,j), ov(j,k)) on every triple
    c = sample_cascade([0.3, 0.6], n_max=3, seed=13)
    zet = np.array([0.0, 0.3, 0.6])
    leaves = node_rng(21, 0).integers(0, c.n_leaves, size=12)
    lv = _pair_levels(leaves[:, None], leaves[None, :], c.n_max, c.K)
    assert set(lv[np.triu_indices(12, 1)]) == {0, 1, 2}
    ov = zet[np.minimum(lv, c.K)]
    np.fill_diagonal(ov, 1.0)
    assert np.all(ov[:, None, :]
                  >= np.minimum(ov[:, :, None], ov[None, :, :]))


def test_sizes_must_be_integers():
    c = sample_cascade([0.5], n_max=4, seed=0)

    def one(r):
        return 1.0

    cases = [
        ("n_max", lambda: sample_cascade([0.3], 2.5, 3)),
        ("n_max", lambda: sample_cascade([], True, 3)),
        ("draws", lambda: overlap_level_law(c, 10.5, 3)),
        ("draws", lambda: overlap_level_law(c, True, 3)),
        ("n", lambda: gg_check(c, one, 3.0, 100, 0)),
        ("n", lambda: gg_check(c, one, True, 100, 0)),
        ("draws", lambda: gg_check(c, one, 3, 100.0, 0)),
    ]
    for name, call in cases:
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            call()
    # numpy integers are integers
    assert sample_cascade([0.3], np.int64(4), 3).n_leaves == 4
    assert overlap_level_law(c, np.int32(10), 3).draws == 10
    assert gg_check(c, one, np.int64(2), np.int64(20), 0).n == 2


def test_seeds_must_be_non_negative_integers():
    c = sample_cascade([0.5], n_max=4, seed=0)
    cases = [
        ("must be non-negative", lambda: sample_cascade([0.3], 4, -1)),
        ("must be non-negative", lambda: sample_cascade([], 4, -1)),
        ("must be an integer", lambda: sample_cascade([0.3], 4, 1.5)),
        ("must be non-negative", lambda: overlap_level_law(c, 10, -2)),
        ("must be non-negative", lambda: gg_check(c, len, 2, 20, -3)),
    ]
    for message, call in cases:
        with pytest.raises(ValidationError, match=f"^seed {message}"):
            call()


@pytest.mark.parametrize("requested, sampled", [
    (20, 160), (400, 320), (2000, 1920), (4000, 4000)])
def test_gg_check_reports_the_tuples_it_sampled(requested, sampled):
    # 20 groups of max(1, max(20, draws // 8) // 20) cascades, 8 tuples each
    c = sample_cascade([0.5], n_max=3, seed=0)
    res = gg_check(c, lambda r: 1.0, n=2, draws=requested, seed=1)
    assert res.draws == sampled


def test_level_law_batch_peaks_near_two_leaf_arrays(alloc_peak):
    # one batch of 1000 fresh K=2 cascades; the growth's last level and
    # its output are the two (batch, leaves) arrays a batch must hold
    c = sample_cascade([0.2, 0.4], n_max=32, seed=3)
    law, peak = alloc_peak(overlap_level_law, c, 1000, 5)
    assert law.draws == 1000
    assert peak <= 2.5 * 1000 * c.n_leaves * 8


def test_leaf_picks_follow_each_row_of_leaf_weights():
    # 60,000 inverse-CDF picks from each of two K=1, n_max=6 cascades;
    # 20.515 is the 99.9% point of chi-square with 5 degrees of freedom
    logw, _ = _grow_log_weights(np.array([0.6]), 6, node_rng(17, 0), batch=2)
    w = np.exp(logw)
    picks = _pick_leaves(np.cumsum(w, axis=1), node_rng(18, 0), 60000)
    assert picks.shape == (60000, 2)
    for row in range(2):
        counts = np.bincount(picks[:, row], minlength=6)
        expected = 60000 * w[row]
        assert np.sum((counts - expected) ** 2 / expected) <= 20.515


def test_gg_sums_match_a_loop_over_cascades_and_tuples():
    # reference: every leaf's level shares spelled out per cascade, and
    # one overlap matrix per tuple; the batched sums add in another order
    c = sample_cascade([0.2, 0.5, 0.7], n_max=4, seed=1)
    n, tuples, b, K, L = 3, 8, 5, c.K, c.n_leaves

    def f(r):
        return r[0, 1] + r[1, 2] ** 2

    sums, ratio = _gg_sums(c, node_rng(9, 3), b, n, tuples, f)
    rng = node_rng(9, 3)
    logw, want_ratio = _grow_log_weights(c.zetas, 4, rng, batch=b)
    w = np.exp(logw)
    picks = _pick_leaves(np.cumsum(w, axis=1), rng, tuples * n)
    zet = np.concatenate([[0.0], c.zetas])
    want = np.zeros(n + 2)
    for i in range(b):
        share = np.zeros((K + 2, L))
        share[0] = 1.0
        for j in range(1, K + 1):
            share[j] = np.repeat(w[i].reshape(4 ** j, -1).sum(axis=1),
                                 L // 4 ** j)
        exact = share[:-1] - share[1:]      # P(level = k | leaf)
        want[2] += zet @ exact @ w[i]
        for t in range(tuples):
            leaves = picks[t * n:(t + 1) * n, i]
            rmat = zet[_pair_levels(leaves[:, None], leaves[None, :], 4, K)]
            np.fill_diagonal(rmat, 1.0)
            want += f(rmat) * np.concatenate(
                [[(zet @ exact)[leaves[0]], 1.0, 0.0], rmat[0, 1:]])
    np.testing.assert_allclose(sums, want, rtol=1e-12, atol=0.0)
    assert ratio == want_ratio


def test_gg_check_batches_peak_near_two_leaf_arrays(alloc_peak, monkeypatch):
    # 8000 draws are 20 groups of 50 cascades; a cap of 20 cascades per
    # batch makes each group grow three batches, and a batch holds its
    # leaf weights and their cumulative sums, as the growth's peak does
    c = sample_cascade([0.2, 0.4], n_max=64, seed=3)
    monkeypatch.setattr(cascade, "_BATCH_LEAVES", 20 * c.n_leaves)
    res, peak = alloc_peak(gg_check, c, lambda r: r[0, 1], 3, 8000, 5)
    assert res.draws == 8000
    assert peak <= 2.5 * 20 * c.n_leaves * 8


# Sampler outputs as exact bytes, taken at commit f4bacbc, before the
# growth, level-law and Gumbel-pick kernels moved into their own buffers.
# Log weights are pinned by a digest of their bytes, floats by float.hex.

def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


PINNED_CASCADES = {   # name: (zetas, n_max, seed), (log weights, ratio)
    "K1": (((0.4,), 16, 9), ("dc43630143720831", "0x1.5971d13776368p-17")),
    "K2": (((0.3, 0.6), 8, 1), ("cd16855fa3412b7e", "0x1.cf39afb92a225p-6")),
}

PINNED_LAWS = {   # name: (cascade, draws, seed), (freqs..., ratio)
    "K1": ((((0.4,), 16, 9), 3000, 5), (
        "0x1.a37fa89e60f05p-2", "0x1.2e402bb0cf87ep-1",
        "0x1.670767b8470fbp-6")),
    "K2": ((((0.3, 0.6), 8, 1), 3000, 6), (
        "0x1.0aec33e1f6715p-2", "0x1.21735ee402bb1p-2",
        "0x1.d3a06d3a06d3ap-2", "0x1.7d6f393662524p-4")),
    # 4096 leaves cap a batch at 1953 draws, so this one takes two
    "K2_two_batches": ((((0.2, 0.4), 64, 3), 2000, 5), (
        "0x1.8b4395810624ep-3", "0x1.a9fbe76c8b439p-3",
        "0x1.32b020c49ba5ep-1", "0x1.60f16d39c7115p-10")),
}

PINNED_PSI_MC = {   # (value, error estimate, truncation ratio)
    "D1": ("0x1.2fc3d6971223cp-4", "0x1.5b065c6006e32p-6",
           "0x1.2b08a0cab5e2fp-3"),
    "D2": ("0x1.ef691e35ec6c9p-7", "0x1.71d1f6b3d67aap-7",
           "0x1.398478ee98769p-3"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CASCADES))
def test_sample_cascade_is_pinned(name):
    args, expected = PINNED_CASCADES[name]
    c = sample_cascade(*args)
    assert (_digest(c.log_leaf_weights), c.truncation_ratio.hex()) == expected


@pytest.mark.parametrize("name", sorted(PINNED_LAWS))
def test_overlap_level_law_is_pinned(name):
    (casc, draws, seed), expected = PINNED_LAWS[name]
    law = overlap_level_law(sample_cascade(*casc), draws, seed)
    got = tuple(f.hex() for f in law.freqs) + (law.truncation_ratio.hex(),)
    assert got == expected


def test_gg_check_is_pinned():
    # Not from f4bacbc: taken once gg_check grew each group's cascades in
    # batches and picked replicas by inverse CDF, which draws other
    # numbers than the per-cascade growth and Gumbel pick before it, and
    # after gate 7 and the pick's chi-square test passed on the new draws.
    c = sample_cascade([0.25, 0.5], n_max=12, seed=7)
    res = gg_check(c, lambda r: r[0, 1] ** 2, n=3, draws=200, seed=11)
    assert (res.residual.hex(), res.stderr.hex(),
            res.truncation_bias.hex()) == (
        "0x1.b29106dcf3325p-9", "0x1.b582af95656dap-11",
        "0x1.7bdaf42f077e4p-6")


# Depth-0 outputs as exact bytes, taken at commit d58a979, where each
# depth-0 sampler skipped the growth and used a single unit-weight leaf.

def test_depth_zero_samplers_are_pinned():
    c = sample_cascade([], 5, 3)
    assert (_digest(c.log_leaf_weights), c.truncation_ratio.hex()) == (
        "af5570f5a1810b7a", "0x0.0p+0")
    res = gg_check(c, lambda r: r[0, 1] ** 2 + 0.5 * r[1, 2], n=3,
                   draws=200, seed=11)
    assert (res.residual.hex(), res.stderr.hex(), res.truncation_bias.hex(),
            res.draws) == ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", 160)
    p1 = ReferenceMeasure([[1.0], [-1.0]], [0.5, 0.5])
    q = path_new([0.0], [[[0.3]]])
    for threads in (1, 2):
        r = psi_mc(p1, q, n_max=5, samples=300, seed=3, threads=threads)
        assert (r.value.hex(), r.error_estimate.hex(),
                r.truncation_ratio.hex()) == (
            "0x1.c241d5f854ad2p-5", "0x1.22b6371686ef1p-6", "0x0.0p+0")


@pytest.mark.parametrize("D", [1, 2])
def test_psi_mc_on_grown_cascades_is_pinned(D):
    # K=2; 300 samples span two 256-sample chunks, so threads=2 splits them
    if D == 1:
        p1 = ReferenceMeasure([[1.0], [-1.0]], [0.5, 0.5])
        q = path_new([0.0, 0.3, 0.6], [[[0.1]], [[0.3]], [[0.5]]])
    else:
        p1 = ReferenceMeasure([[0.6, 0.2], [-0.3, 0.7], [0.1, -0.9]],
                              [0.5, 0.3, 0.2])
        q = path_new([0.0, 0.3, 0.7],
                     [np.array([[0.08, 0.02], [0.02, 0.05]]),
                      np.array([[0.20, 0.04], [0.04, 0.15]]),
                      np.array([[0.35, 0.10], [0.10, 0.30]])])
    for threads in (1, 2):
        r = psi_mc(p1, q, n_max=5, samples=300, seed=3, threads=threads)
        got = (r.value.hex(), r.error_estimate.hex(),
               r.truncation_ratio.hex())
        assert got == PINNED_PSI_MC[f"D{D}"]
