"""Fixed-point solver for the coupled critical-point equations."""

import numpy as np
import pytest

from hjparisi import (
    NotIncreasing,
    QuadratureSpec,
    SolverOptions,
    ValidationError,
    continuation,
    hat_functional,
    hj_functional,
    ising_measure,
    parisi_functional,
    psi_grad,
    pure_p,
    sk,
    solve_critical,
    t_critical,
)
from hjparisi import critpoint
from hjparisi.critpoint import _q_prime_of, block_norm_l2, _diff_path
from hjparisi.model import xi_grad
from hjparisi.paths import path_new, signed_path_new

P1 = ising_measure(1)
QUAD = QuadratureSpec(nodes_per_dim=32)


def scalar_path(zetas, values):
    return path_new(zetas, [[[v]] for v in values])


def test_solve_critical_below_threshold_finds_zero():
    q0 = scalar_path([0.0], [0.0])
    cp = solve_critical(sk(1.0), P1, t=0.02, t_hat=0.0, q=q0, quad=QUAD)
    assert cp.converged
    assert cp.residual_l2 < 1e-8
    assert abs(cp.p.values[0][0, 0]) < 1e-7
    assert cp.j_value == pytest.approx(0.0, abs=1e-8)


def test_random_starts_agree_below_threshold():
    q0 = scalar_path([0.0], [0.0])
    rng = np.random.default_rng(1)
    sols = []
    for _ in range(3):
        start = scalar_path([0.0], [float(rng.uniform(0.0, 0.9))])
        opts = SolverOptions(initial_p=start)
        cp = solve_critical(sk(1.0), P1, 0.02, 0.0, q0, opts, QUAD)
        assert cp.converged
        sols.append(cp.p)
    for other in sols[1:]:
        assert block_norm_l2(_diff_path(sols[0], other)) < 1e-6


def test_fixed_point_certificate_with_hat_term():
    q = scalar_path([0.0, 0.5], [0.05, 0.15])
    cp = solve_critical(sk(1.0), P1, t=0.1, t_hat=0.05, q=q, quad=QUAD)
    assert cp.converged
    # q' must be the prescribed map of p ...
    expected = [qv + 0.1 * xi_grad(sk(1.0), pv) + 2 * 0.05 * pv
                for qv, pv in zip(q.values, cp.p.values)]
    np.testing.assert_allclose(
        np.asarray(cp.q_prime.values), np.asarray(expected), atol=1e-9)
    # ... and p must be the one-body gradient at q'
    g = psi_grad(P1, cp.q_prime, QUAD)
    assert block_norm_l2(_diff_path(g, cp.p)) < 1e-7


def test_p_equals_j_identity_on_arbitrary_p():
    # with q' = q + t grad-xi(p) the two functionals coincide exactly,
    # critical point or not
    model = sk(1.0)
    t = 0.3
    q = scalar_path([0.0, 0.4], [0.02, 0.1])
    p = scalar_path([0.0, 0.25, 0.6], [0.1, 0.3, 0.55])
    from hjparisi.paths import refine_all
    qr, pr = refine_all([q, p])
    q_prime = _q_prime_of(model, t, 0.0, qr, pr)
    lhs = parisi_functional(model, P1, t, q, p, QUAD)
    rhs = hj_functional(model, P1, t, q, q_prime, p, QUAD)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_hat_functional_identity():
    # J-hat - J = t_hat * int |p|^2 for any admissible inputs
    model = sk(0.8)
    q = scalar_path([0.0], [0.1])
    q_prime = scalar_path([0.0, 0.5], [0.15, 0.3])
    p = scalar_path([0.0, 0.5], [0.2, 0.4])
    base = hj_functional(model, P1, 0.2, q, q_prime, p, QUAD)
    hat = hat_functional(model, P1, 0.2, 0.07, q, q_prime, p, QUAD)
    sq_int = 0.5 * 0.2 ** 2 + 0.5 * 0.4 ** 2
    assert hat - base == pytest.approx(0.07 * sq_int, abs=1e-13)


@pytest.mark.parametrize("t, t_hat", [(np.nan, 0.0), (np.inf, 0.0),
                                      (-0.1, 0.0), (0.2, np.nan),
                                      (0.2, np.inf)])
def test_functionals_check_their_times(t, t_hat):
    # an error, not a nan or inf value
    model = sk(0.8)
    q = scalar_path([0.0], [0.1])
    q_prime = scalar_path([0.0, 0.5], [0.15, 0.3])
    p = scalar_path([0.0, 0.5], [0.2, 0.4])
    with pytest.raises(ValidationError, match="must be finite"):
        hat_functional(model, P1, t, t_hat, q, q_prime, p, QUAD)
    if t_hat == 0.0:
        with pytest.raises(ValidationError, match="t must be finite"):
            hj_functional(model, P1, t, q, q_prime, p, QUAD)
        with pytest.raises(ValidationError, match="t must be finite"):
            parisi_functional(model, P1, t, q, p, QUAD)


def test_q_prime_map_absorbs_tiny_dips_only():
    # with t_hat = 0.5 the map is q' = q + p, so p dips reach q' directly
    model = sk(1.0)
    q = scalar_path([0.0, 0.5], [0.1, 0.1])
    p_soft = signed_path_new([0.0, 0.5], [[[0.1]], [[0.1 - 2.5e-7]]])
    qp = _q_prime_of(model, 0.0, 0.5, q, p_soft)
    assert np.all(np.diff([v[0, 0] for v in qp.values]) >= 0.0)
    # a macroscopic dip must raise
    p_bad = signed_path_new([0.0, 0.5], [[[0.3]], [[0.1]]])
    with pytest.raises(NotIncreasing):
        _q_prime_of(model, 0.0, 0.5, q, p_bad)


def test_solver_validation_and_nonconvergence_as_data():
    q0 = scalar_path([0.0], [0.0])
    for t, t_hat in ((-0.1, 0.0), (np.nan, 0.0), (np.inf, 0.0),
                     (0.1, np.nan)):
        with pytest.raises(ValidationError, match="must be finite"):
            solve_critical(sk(1.0), P1, t, t_hat, q0)
    with pytest.raises(ValidationError):
        SolverOptions(damping=0.0)
    with pytest.raises(ValidationError):
        SolverOptions(tol=-1.0)
    q = scalar_path([0.0, 0.5], [0.05, 0.15])
    opts = SolverOptions(tol=1e-15, max_iters=3)
    cp = solve_critical(sk(1.0), P1, 0.1, 0.0, q, opts, QUAD)
    assert not cp.converged
    assert cp.iterations == 3
    assert np.isfinite(cp.j_value)


def test_continuation_warm_starts():
    q0 = scalar_path([0.0], [0.0])
    grid = [0.005, 0.01, 0.02]
    results = continuation(sk(1.0), P1, grid, 0.0, q0, quad=QUAD)
    assert len(results) == 3
    assert all(cp.converged for cp in results)
    # warm starting from the previous zero solution converges immediately
    assert results[-1].iterations <= 2
    with pytest.raises(ValidationError):
        continuation(sk(1.0), P1, [0.2, 0.1], 0.0, q0, quad=QUAD)


def test_continuation_checks_every_time_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the time check")

    monkeypatch.setattr(critpoint, "solve_critical", no_solve)
    q0 = scalar_path([0.0], [0.0])
    for grid, t_hat in (([0.01, np.nan], 0.0), ([0.01, np.inf], 0.0),
                        ([0.01, 0.02], -0.1)):
        with pytest.raises(ValidationError, match="must be finite"):
            continuation(sk(1.0), P1, grid, t_hat, q0, quad=QUAD)


def test_t_critical_families():
    assert t_critical(sk(1.0)) == pytest.approx(1.0 / 32.0)
    assert t_critical(sk(0.5)) == pytest.approx(1.0 / 8.0)
    assert t_critical(pure_p(1, 1.0)) == np.inf
