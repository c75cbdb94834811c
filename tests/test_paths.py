"""Step-path construction, refinement, distances, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjparisi import (
    BadBreakpoints,
    NotIncreasing,
    PiecewisePath,
    SignedPiecewisePath,
    lp_distance,
)
from hjparisi.paths import (
    path_from_json_dict,
    path_new,
    path_to_json_dict,
    refine_all,
    signed_path_new,
    sqrt_increments,
)


def scalar_path(zetas, values):
    return path_new(zetas, [[[v]] for v in values])


def test_basic_accessors():
    q = scalar_path([0.0, 0.25, 0.5], [0.1, 0.2, 0.4])
    assert q.K == 2
    assert q.D == 1
    np.testing.assert_allclose(q.lengths(), [0.25, 0.25, 0.5])
    np.testing.assert_allclose(q.increments().ravel(), [0.1, 0.1, 0.2])
    assert q.value_at(0.0) == pytest.approx(0.1)
    assert q.value_at(0.3) == pytest.approx(0.2)
    assert q.value_at(0.5) == pytest.approx(0.4)
    assert q.value_at(1.0) == pytest.approx(0.4)
    assert q.final_value[0, 0] == pytest.approx(0.4)


def test_zeta_validation():
    with pytest.raises(BadBreakpoints):
        scalar_path([0.1], [0.2])          # zeta_0 != 0
    with pytest.raises(BadBreakpoints):
        scalar_path([0.0, 0.5, 0.5], [0.1, 0.2, 0.3])
    with pytest.raises(BadBreakpoints):
        scalar_path([0.0, 1.0], [0.1, 0.2])
    with pytest.raises(BadBreakpoints):
        scalar_path([0.0, 0.5], [0.1])     # length mismatch


def test_asymmetric_values_rejected():
    with pytest.raises(BadBreakpoints):
        signed_path_new([0.0], [np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_increasing_enforced_only_for_piecewise_path():
    zetas = [0.0, 0.5]
    down = [[[0.3]], [[0.1]]]
    with pytest.raises(NotIncreasing):
        path_new(zetas, down)
    s = signed_path_new(zetas, down)
    assert isinstance(s, SignedPiecewisePath)
    assert not isinstance(s, PiecewisePath)


def test_matrix_increments_must_be_psd():
    # second increment has eigenvalues {0.3, -0.1}
    a = np.diag([0.2, 0.2])
    b = a + np.diag([0.3, -0.1])
    with pytest.raises(NotIncreasing):
        path_new([0.0, 0.5], [a, b])


def test_common_refinement_preserves_pointwise_values():
    a = scalar_path([0.0, 0.5], [0.1, 0.3])
    b = scalar_path([0.0, 0.25, 0.75], [0.0, 0.2, 0.6])
    ar, br = refine_all([a, b])
    assert np.array_equal(ar.zetas, br.zetas)
    for u in [0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0]:
        np.testing.assert_allclose(ar.value_at(u), a.value_at(u))
        np.testing.assert_allclose(br.value_at(u), b.value_at(u))


def test_refine_all_three_paths():
    paths = [scalar_path([0.0], [0.5]),
             scalar_path([0.0, 0.3], [0.1, 0.2]),
             scalar_path([0.0, 0.6], [0.0, 0.4])]
    refined = refine_all(paths)
    assert all(np.array_equal(refined[0].zetas, r.zetas) for r in refined)
    np.testing.assert_allclose(refined[0].zetas, [0.0, 0.3, 0.6])


def test_lp_distance_hand_value():
    a = scalar_path([0.0], [0.0])
    b = scalar_path([0.0, 0.5], [0.0, 1.0])
    # difference is 1 on [0.5, 1): L1 = 0.5, L2 = sqrt(0.5), Linf = 1
    assert lp_distance(a, b, 1) == pytest.approx(0.5)
    assert lp_distance(a, b, 2) == pytest.approx(np.sqrt(0.5))
    assert lp_distance(a, b, np.inf) == pytest.approx(1.0)


def test_sqrt_increments_reconstruct():
    rng = np.random.default_rng(5)
    m1 = rng.standard_normal((2, 2))
    m2 = rng.standard_normal((2, 2))
    v0 = m1 @ m1.T
    v1 = v0 + m2 @ m2.T
    q = path_new([0.0, 0.4], [v0, v1])
    roots = sqrt_increments(q)
    np.testing.assert_allclose(roots[0] @ roots[0], v0, atol=1e-12)
    np.testing.assert_allclose(roots[1] @ roots[1], v1 - v0, atol=1e-12)


def test_validation_and_roots_take_one_eigen_call(eigen_calls):
    q = scalar_path([0.0, 0.25, 0.5], [0.1, 0.2, 0.4])
    sqrt_increments(q)
    assert len(eigen_calls) == 1


def test_sqrt_increments_match_per_increment_roots_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        D, K = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        incs = []
        for _ in range(K + 1):
            m = rng.standard_normal((D, int(rng.integers(0, D + 1))))
            incs.append(m @ m.T)
        zetas = np.linspace(0.0, 0.8, K + 1)
        q = path_new(zetas, np.cumsum(incs, axis=0))
        expected = []
        for inc in q.increments():
            lam, vec = np.linalg.eigh(inc)
            expected.append((vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T)
        np.testing.assert_array_equal(sqrt_increments(q), expected)


def test_sqrt_increments_rejects_a_decreasing_signed_path():
    kappa = signed_path_new([0.0, 0.5], [[[0.3]], [[0.1]]])
    with pytest.raises(NotIncreasing):
        sqrt_increments(kappa)


def test_json_roundtrip():
    q = path_new([0.0, 0.3], [np.diag([0.1, 0.05]), np.diag([0.3, 0.2])])
    d = path_to_json_dict(q)
    back = path_from_json_dict(d)
    np.testing.assert_allclose(back.zetas, q.zetas)
    np.testing.assert_allclose(back.values, q.values)


@st.composite
def increasing_scalar_paths(draw):
    k = draw(st.integers(min_value=0, max_value=3))
    cuts = sorted(draw(st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=k, max_size=k,
        unique=True)))
    incs = draw(st.lists(st.floats(min_value=0.0, max_value=0.5),
                         min_size=k + 1, max_size=k + 1))
    return scalar_path([0.0] + cuts, np.cumsum(incs))


@settings(max_examples=40, deadline=None)
@given(increasing_scalar_paths(), increasing_scalar_paths())
def test_lp_distance_is_a_metric_on_samples(a, b):
    d_ab = lp_distance(a, b, 2)
    assert d_ab >= 0.0
    assert d_ab == pytest.approx(lp_distance(b, a, 2))
    assert lp_distance(a, a, 2) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(increasing_scalar_paths())
def test_refinement_does_not_move_distances(q):
    other = scalar_path([0.0, 0.5], [0.05, 0.25])
    base = lp_distance(q, other, 1)
    refined = refine_all([q, other, scalar_path([0.0, 0.2, 0.8],
                                                [0.0, 0.1, 0.2])])
    assert lp_distance(refined[0], refined[1], 1) == pytest.approx(base)
