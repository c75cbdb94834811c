"""Covariance-polynomial models: evaluation, calculus, constants, duals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjparisi.model
from hjparisi import (
    ValidationError,
    XiModel,
    bipartite,
    convexity_probe,
    frobenius_square,
    grad_lipschitz_const,
    ising_measure,
    load_model_dict,
    pure_p,
    sk,
    theta_eval,
    xi_eval,
    xi_grad,
    xi_hessian,
    xi_star,
)
from hjparisi.critpoint import t_critical
from hjparisi.model import grad_lipschitz_upper_bound, sym_basis, xi_eval_batch


def test_xi_hand_values():
    assert xi_eval(sk(1.0), [[0.3]]) == pytest.approx(0.09)
    assert xi_eval(sk(0.5), [[0.3]]) == pytest.approx(0.25 * 0.09)
    assert xi_eval(pure_p(3), [[0.5]]) == pytest.approx(0.125)
    a = np.array([[0.2, 0.9], [0.9, 0.4]])
    assert xi_eval(bipartite(1.0), a) == pytest.approx(0.08)
    assert xi_eval(frobenius_square(1.0), a) == pytest.approx(
        np.sum(a * a))


def test_xi_grad_and_hessian_match_finite_differences():
    rng = np.random.default_rng(2)
    models = [sk(0.8), pure_p(3, 0.6), pure_p(4, 0.5), bipartite(1.2),
              frobenius_square(0.9, 2)]
    eps = 1e-6
    for model in models:
        D = model.D
        for _ in range(6):
            m = rng.standard_normal((D, D))
            a = (m + m.T) / 4.0
            g = xi_grad(model, a)
            h = xi_hessian(model, a)
            for i in range(D):
                for j in range(D):
                    e = np.zeros((D, D))
                    e[i, j] = e[j, i] = 0.5 if i != j else 1.0
                    fd = (xi_eval(model, a + eps * e)
                          - xi_eval(model, a - eps * e)) / (2 * eps)
                    assert float(np.sum(g * e)) == pytest.approx(fd, abs=2e-7)
                    gd = (xi_grad(model, a + eps * e)
                          - xi_grad(model, a - eps * e)) / (2 * eps)
                    np.testing.assert_allclose(
                        (h @ e.reshape(-1)).reshape(D, D), gd, atol=5e-7)


def test_xi_eval_batch_equals_xi_eval_exactly():
    rng = np.random.default_rng(4)
    mixed = XiModel(2, ((1, np.diag([0.3, 0.1])),
                        (3, 0.2 * np.eye(8))))
    for model in (sk(0.8), pure_p(4, 0.5), bipartite(1.2),
                  frobenius_square(0.9, 3), mixed):
        m = rng.standard_normal((7, model.D, model.D))
        r = m @ np.swapaxes(m, 1, 2) / model.D
        batch = xi_eval_batch(model, r)
        assert batch.tolist() == [xi_eval(model, a) for a in r]


def test_theta_closed_forms():
    # theta(a) = a . grad xi(a) - xi(a); degree-p homogeneity gives (p-1) xi
    assert theta_eval(sk(1.0), [[0.4]]) == pytest.approx(0.16)
    assert theta_eval(pure_p(3, 1.0), [[0.4]]) == pytest.approx(2 * 0.4 ** 3)
    assert theta_eval(bipartite(2.0), np.diag([0.3, 0.5])) == pytest.approx(
        4.0 * 0.15)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_theta_nonnegative_on_psd(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2))
    a = m @ m.T / max(np.linalg.norm(m @ m.T), 1.0)
    for model in (bipartite(0.7), frobenius_square(1.3, 2)):
        assert theta_eval(model, a) >= -1e-12


def test_grad_lipschitz_constants():
    # quadratic models have a constant Hessian, so the search is exact
    assert grad_lipschitz_const(sk(1.0)) == pytest.approx(2.0, abs=1e-9)
    assert grad_lipschitz_const(frobenius_square(1.5, 2)) == pytest.approx(
        4.5, abs=1e-9)
    assert grad_lipschitz_const(bipartite(1.0)) == pytest.approx(1.0,
                                                                 abs=1e-9)


def test_lipschitz_upper_bound_dominates_search():
    for model in (sk(1.0), pure_p(3, 0.8), bipartite(1.0),
                  frobenius_square(0.7, 3)):
        assert (grad_lipschitz_upper_bound(model)
                >= grad_lipschitz_const(model, samples=50) - 1e-9)


def test_t_critical_values():
    assert t_critical(sk(1.0)) == pytest.approx(1.0 / 32.0)
    assert t_critical(bipartite(1.0)) == pytest.approx(1.0 / 16.0)


def test_xi_star_scalar_quadratic():
    # xi(x) = x^2 on [0, 2]: conjugate is y^2/4 for y in [0, 4],
    # 0 below, and 2y - 4 beyond the ball radius
    model = sk(1.0)
    assert xi_star(model, [[1.0]], radius=2.0) == pytest.approx(0.25,
                                                                abs=1e-6)
    assert xi_star(model, [[-0.5]], radius=2.0) == pytest.approx(0.0,
                                                                 abs=1e-8)
    assert xi_star(model, [[5.0]], radius=2.0) == pytest.approx(6.0,
                                                                abs=1e-6)


def test_xi_star_warm_start_and_argmax():
    model = frobenius_square(1.0, 2)
    y = np.diag([0.8, 0.6])
    val, arg = xi_star(model, y, radius=3.0, return_argmax=True)
    # quadratic dual: argmax y/2, value |y|^2/4
    np.testing.assert_allclose(arg, y / 2.0, atol=1e-5)
    assert val == pytest.approx(np.sum(y * y) / 4.0, abs=1e-8)


def test_xi_star_keeps_the_sup_on_a_nonconvex_model(monkeypatch):
    # xi(A) = A11 A22 + 0.2 tr(A)^3 fails the convexity probe; pruning the
    # starts after a few rough moves returns 0.865211 here
    model = XiModel(2, bipartite(1.0).terms + ((3, 0.2 * np.eye(8)),))
    a = np.array([[0.9219, -0.3256], [-0.3256, 0.9196]])
    runs = []

    class Counted(hjparisi.model._Ascent):
        def __init__(self, *args, **kwargs):
            runs.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hjparisi.model, "_Ascent", Counted)
    val, arg = xi_star(model, a, radius=2.0, return_argmax=True)
    assert len(runs) == 8
    assert val == pytest.approx(0.867635, abs=1e-6)
    assert np.linalg.eigvalsh(arg)[0] >= -1e-12
    assert np.linalg.norm(arg) <= 2.0 + 1e-12
    assert float(np.sum(a * arg)) - xi_eval(model, arg) == pytest.approx(
        val, abs=1e-12)

    # brute force over a grid of the PSD ball of radius 2
    d = np.linspace(0.0, 2.0, 161)
    b11, b22 = np.meshgrid(d, d, indexing="ij")
    grid_max = -np.inf
    for b12 in np.linspace(-np.sqrt(2.0), np.sqrt(2.0), 321):
        feasible = ((b11 * b22 >= b12 ** 2)
                    & (b11 ** 2 + b22 ** 2 + 2.0 * b12 ** 2 <= 4.0))
        vals = (a[0, 0] * b11 + a[1, 1] * b22 + 2.0 * a[0, 1] * b12
                - b11 * b22 - 0.2 * (b11 + b22) ** 3)
        grid_max = max(grid_max, np.max(vals, where=feasible,
                                        initial=-np.inf))
    assert val >= grid_max > 0.866

    # a convex model climbs from one start
    runs.clear()
    xi_star(sk(1.0), [[1.0]], radius=2.0)
    assert len(runs) == 1


def test_convexity_probe():
    assert convexity_probe(sk(1.0)).is_convex_on_psd
    assert convexity_probe(frobenius_square(1.0, 2)).is_convex_on_psd
    report = convexity_probe(bipartite(1.0))
    assert not report.is_convex_on_psd
    a, b, lam, gap = report.witness
    mid = lam * a + (1.0 - lam) * b
    direct = xi_eval(bipartite(1.0), mid) - (
        lam * xi_eval(bipartite(1.0), a)
        + (1.0 - lam) * xi_eval(bipartite(1.0), b))
    assert direct == pytest.approx(gap)
    assert gap > 0
    # the per-model report is probed once, at 64 samples and seed 0
    model = bipartite(1.0)
    assert model.convexity is model.convexity
    assert model.convexity.witness[3] == convexity_probe(
        model, samples=64, seed=0).witness[3]


def test_model_validation():
    with pytest.raises(ValidationError):
        XiModel(0, ())
    with pytest.raises(ValidationError):
        XiModel(1, ((2, np.array([[-1.0]])),))       # not PSD
    with pytest.raises(ValidationError):
        XiModel(1, ((2, np.eye(3)),))                # wrong shape
    with pytest.raises(ValidationError):
        XiModel(2, ((2, np.array([[0, 1], [0, 0]]),),))  # not symmetric


def test_sym_basis_orthonormal():
    for D in (1, 2, 3):
        basis = sym_basis(D)
        assert len(basis) == D * (D + 1) // 2
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                assert np.sum(bi * bj) == pytest.approx(float(i == j))


def test_ising_measure():
    P1 = ising_measure(2)
    assert len(P1.atoms) == 4
    np.testing.assert_allclose(np.linalg.norm(P1.atoms, axis=1), 1.0)
    assert P1.weights.sum() == pytest.approx(1.0)
    assert ising_measure(1).atoms.tolist() == [[-1.0], [1.0]]


def test_load_model_dict_families_and_terms():
    model, P1 = load_model_dict(
        {"D": 1, "terms": [{"family": "sk", "beta": 0.5}]})
    assert xi_eval(model, [[0.4]]) == pytest.approx(0.04)
    assert P1.atoms.shape == (2, 1)

    explicit, _ = load_model_dict(
        {"D": 1, "terms": [{"p": 3, "C": [[0.36]]}]})
    assert xi_eval(explicit, [[0.5]]) == pytest.approx(0.36 * 0.125)

    with pytest.raises(ValidationError):
        load_model_dict({"D": 1, "terms": [{"family": "nope"}]})
    with pytest.raises(ValidationError):
        load_model_dict({"D": 2, "terms": [{"family": "sk"}]})
    with pytest.raises(ValidationError):
        load_model_dict({"terms": []})
