"""Finite-size oracle: exact enumeration over configs, MC over disorder."""

import numpy as np
import pytest

from hjparisi import (
    BudgetExceeded,
    QuadratureSpec,
    ValidationError,
    free_energy_mc,
    frobenius_square,
    gibbs_overlap_law,
    identity_checks,
    ising_measure,
    psi_eval,
    sample_hamiltonian,
    sk,
)
from hjparisi import finiten
from hjparisi.paths import path_new

P1 = ising_measure(1)


def scalar_path(zetas, values):
    return path_new(zetas, [[[v]] for v in values])


Q2 = scalar_path([0.0, 0.5], [0.1, 0.3])


def test_hamiltonian_moments():
    # E H = 0 and E H(s) H(u) = N xi(overlap) for the quadratic model
    N = 3
    s = np.array([1.0, 1.0, 1.0])
    u = np.array([1.0, -1.0, 1.0])
    vals = np.array([
        sample_hamiltonian(sk(1.0), N, seed).evaluate(np.stack([s, u]))
        for seed in range(20000)
    ])
    r_su = float(s @ u) / N
    np.testing.assert_allclose(vals.mean(axis=0), 0.0, atol=0.05)
    cov = np.mean(vals[:, 0] * vals[:, 1])
    var = np.mean(vals[:, 0] ** 2)
    assert var == pytest.approx(N * 1.0, abs=0.12)        # xi(1) = 1
    assert cov == pytest.approx(N * r_su ** 2, abs=0.08)  # xi(1/3) = 1/9


def test_hamiltonian_size_guard():
    with pytest.raises(BudgetExceeded):
        sample_hamiltonian(sk(1.0), 15, 0)
    with pytest.raises(ValidationError):
        sample_hamiltonian(sk(1.0), 0, 0)


def test_free_energy_matches_psi_at_t_zero():
    ref = psi_eval(P1, Q2, QuadratureSpec(nodes_per_dim=48)).value
    for N in (1, 2):
        est = free_energy_mc(sk(1.0), P1, N, t=0.0, q=Q2, t_hat=0.0,
                             samples=1500, n_max=64, seed=21)
        assert est.n_samples == 1500
        assert est.stderr > 0.0
        assert abs(est.mean - ref) <= 4 * est.stderr


def test_free_energy_deterministic():
    a = free_energy_mc(sk(1.0), P1, 3, 0.1, Q2, 0.0, 200, 16, seed=5)
    b = free_energy_mc(sk(1.0), P1, 3, 0.1, Q2, 0.0, 200, 16, seed=5)
    c = free_energy_mc(sk(1.0), P1, 3, 0.1, Q2, 0.0, 200, 16, seed=6)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert a.mean != c.mean


def test_free_energy_validation():
    with pytest.raises(ValidationError):
        free_energy_mc(sk(1.0), P1, 2, -0.1, Q2, 0.0, 100, 16, 0)
    with pytest.raises(ValidationError):
        free_energy_mc(sk(1.0), P1, 2, 0.1, Q2, 0.0, 1, 16, 0)


def test_overlap_law_masses_and_histogram():
    law = gibbs_overlap_law(sk(1.0), P1, N=6, t=0.1, q=Q2, t_hat=0.02,
                            samples=250, n_max=16, seed=9,
                            with_histogram=True)
    assert law.level_mass.shape == (2,)
    assert law.level_mass.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(law.level_mass >= 0.0)
    assert law.max_abs_overlap <= 1.0 + 1e-12
    r_values, hist = law.scalar_hist
    assert np.all(np.abs(r_values) <= 1.0 + 1e-12)
    # per-level histogram mass reproduces the level masses ...
    np.testing.assert_allclose(hist.sum(axis=1), law.level_mass, atol=1e-9)
    # ... and its conditional first moment matches cond_mean
    for k in range(2):
        m = float(hist[k] @ r_values) / law.level_mass[k]
        assert m == pytest.approx(law.cond_mean[k][0, 0], abs=1e-9)


def test_overlap_law_histogram_guard():
    q = path_new([0.0], [0.05 * np.eye(2)])
    with pytest.raises(ValidationError):
        gibbs_overlap_law(frobenius_square(1.0, 2), ising_measure(2), N=3,
                          t=0.1, q=q, t_hat=0.0, samples=50, n_max=8,
                          seed=0, with_histogram=True)


def test_identity_checks_pass_on_small_instance():
    report = identity_checks(sk(1.0), P1, N=4, t=0.1, q=Q2, samples=400,
                             seed=13)
    assert set(report.checks) == {"lipschitz", "dt_identity", "monotone",
                                  "initial"}
    for name, check in report.checks.items():
        assert check.passed, (name, check)
    assert report.all_passed


def test_identity_checks_fail_their_budget_before_sampling(monkeypatch):
    # a D=2, K=2 path needs 32^6 > NODE_BUDGET quadrature nodes for check
    # (d); the failure must come before any finite-N sample is drawn
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo work ran before the budget check")

    monkeypatch.setattr(finiten, "_log_z_samples", no_sampling)
    q = path_new([0.0, 0.3, 0.6], [np.diag([0.1, 0.08]),
                                   np.diag([0.25, 0.3]),
                                   np.diag([0.4, 0.45])])
    with pytest.raises(BudgetExceeded):
        identity_checks(frobenius_square(1.0, 2), ising_measure(2), N=2,
                        t=0.1, q=q, samples=20, seed=0, n_max=4)


def test_identity_check_fields_are_plain_floats():
    report = identity_checks(sk(1.0), P1, N=3, t=0.1, q=Q2, samples=120,
                             seed=2)
    for check in report.checks.values():
        assert isinstance(check.passed, bool)
        assert isinstance(check.lhs, float)
        assert isinstance(check.sigma, float)
