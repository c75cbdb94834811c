"""Truncated cascades, their overlap laws, fields, and tree reconstruction."""

import numpy as np
import pytest

from hjparisi import (
    NotUltrametric,
    PartitionMismatch,
    ValidationError,
    gg_check,
    overlap_level_law,
    sample_cascade,
    sample_field,
    tree_overlap_matrix,
    ultrametric_tree,
)
from hjparisi.cascade import _grow_log_weights
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


def test_overlap_level_law_conditional_mode_runs():
    c = sample_cascade([0.5], n_max=32, seed=4)
    law = overlap_level_law(c, draws=500, seed=6, resample_cascades=False)
    assert law.freqs.sum() == pytest.approx(1.0)
    law2 = overlap_level_law(c, draws=500, seed=6, resample_cascades=False)
    np.testing.assert_array_equal(law.freqs, law2.freqs)


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


def test_ultrametric_tree_roundtrip():
    ov = np.array([
        [1.0, 0.8, 0.3, 0.3],
        [0.8, 1.0, 0.3, 0.3],
        [0.3, 0.3, 1.0, 0.8],
        [0.3, 0.3, 0.8, 1.0],
    ])
    tree = ultrametric_tree(ov)
    assert sorted(tree.leaves()) == [0, 1, 2, 3]
    np.testing.assert_allclose(tree_overlap_matrix(tree), ov)


def test_ultrametric_tree_rejects_violations():
    bad = np.array([
        [1.0, 0.7, 0.3],
        [0.7, 1.0, 0.5],
        [0.3, 0.5, 1.0],
    ])
    with pytest.raises(NotUltrametric) as exc_info:
        ultrametric_tree(bad)
    assert exc_info.value.triple is not None
    i, j, k = exc_info.value.triple
    assert bad[i, k] < min(bad[i, j], bad[j, k])


def test_sampled_overlap_matrix_is_ultrametric():
    # overlaps read off a sampled cascade through common-ancestor levels
    # must always embed into a tree
    c = sample_cascade([0.3, 0.6], n_max=3, seed=13)
    zet = np.array([0.0, 0.3, 0.6])
    rng = node_rng(21, 0)
    leaves = rng.integers(0, c.n_leaves, size=6)
    from hjparisi.cascade import _pair_levels
    lv = _pair_levels(leaves[:, None], leaves[None, :], c.n_max, c.K)
    ov = zet[np.minimum(lv, c.K)]
    np.fill_diagonal(ov, 1.0)
    tree = ultrametric_tree(ov)
    np.testing.assert_allclose(tree_overlap_matrix(tree, n=6), ov)
