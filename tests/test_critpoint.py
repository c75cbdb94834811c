"""Fixed-point solver for the coupled critical-point equations."""

import numpy as np
import pytest

from hjparisi import (
    NotIncreasing,
    QuadratureSpec,
    SolverOptions,
    ValidationError,
    bipartite,
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
P2 = ising_measure(2)
QUAD = QuadratureSpec(nodes_per_dim=32)
QUAD16 = QuadratureSpec(nodes_per_dim=16)


def scalar_path(zetas, values):
    return path_new(zetas, [[[v]] for v in values])


def diag_path(zetas, diagonals):
    return path_new(zetas, [np.diag(d) for d in diagonals])


def certificate(cp, quad):
    return block_norm_l2(_diff_path(psi_grad(P1 if cp.p.D == 1 else P2,
                                             cp.q_prime, quad), cp.p))


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


@pytest.mark.parametrize("kwargs, name", [
    ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"),
    ({"tol": 0.0}, "tol"), ({"max_iters": 2.5}, "max_iters"),
    ({"max_iters": True}, "max_iters"), ({"max_iters": "3"}, "max_iters"),
    ({"max_iters": 0}, "max_iters"),
])
def test_solver_options_reject_bad_tol_and_max_iters(kwargs, name):
    with pytest.raises(ValidationError, match=name):
        SolverOptions(**kwargs)


def test_solver_options_accept_numpy_integers():
    assert SolverOptions(max_iters=np.int64(7)).max_iters == 7


@pytest.mark.parametrize("t_hat", [0.0, 0.05])
@pytest.mark.parametrize("opts", [SolverOptions(),
                                  SolverOptions(tol=1e-15, max_iters=3)])
def test_certificate_is_the_residual_at_the_returned_p(opts, t_hat):
    # no step follows the last evaluation, on a converged exit and on a
    # max_iters exit alike
    q = scalar_path([0.0, 0.5], [0.05, 0.15])
    cp = solve_critical(sk(1.0), P1, 0.1, t_hat, q, opts, QUAD)
    assert cp.converged == (opts.max_iters > 3)
    assert certificate(cp, QUAD) == pytest.approx(cp.residual_l2, abs=1e-12)
    assert len(cp.residual_history) == cp.iterations
    assert cp.residual_history[-1] == cp.residual_l2
    assert all(type(r) is float for r in cp.residual_history)


# (model, measure, t, t_hat, q, start, quadrature, iteration cap, root p,
# J).  The roots are the damped solver's before the Anderson step was
# added, run to tol 1e-14: at the default tol 1e-8 its bipartite(1.5) root
# still lies 9.4e-8 from the fixed point, since that iteration contracts
# slowly.
ANDERSON_CASES = {
    "sk_t0.2": (sk(1.0), P1, 0.2, 0.0, scalar_path([0.0], [0.0]),
                scalar_path([0.0], [0.5]), QUAD, 20,
                [[[4.518226055251122e-14]]], 3.3390580766806826e-18),
    "sk_t0.5": (sk(1.0), P1, 0.5, 0.0, scalar_path([0.0], [0.0]),
                scalar_path([0.0], [0.5]), QUAD, 20,
                [[[0.3089825298248845]]], 0.009961506052454522),
    "bipartite_A": (bipartite(1.0), P2, 0.5, 0.0,
                    diag_path([0.0], [(0.3, 0.02)]),
                    diag_path([0.0], [(0.6, 0.3)]), QUAD16, 20,
                    [np.diag([0.10211764537975374, 0.03129458596034308])],
                    0.017858301319628296),
    "bipartite_1.5": (bipartite(1.5), P2, 1.0, 0.0,
                      diag_path([0.0], [(0.0, 0.0)]),
                      diag_path([0.0], [(0.3, 0.2)]), QUAD16, 30,
                      [0.029076767968416982 * np.eye(2)],
                      7.304293945129209e-05),
    "sk_qa_hat": (sk(1.0), P1, 0.1, 0.05, scalar_path([0.0, 0.5],
                                                      [0.05, 0.15]),
                  None, QUAD, 20,
                  [[[0.10500011039324483]], [[0.29440478785069285]]],
                  0.015236617233705967),
}


@pytest.mark.parametrize("name", list(ANDERSON_CASES))
def test_anderson_solver_reaches_the_damped_root_in_few_iterations(name):
    model, p1, t, t_hat, q, start, quad, cap, root, j = ANDERSON_CASES[name]
    opts = SolverOptions(max_iters=1500, initial_p=start)
    cp = solve_critical(model, p1, t, t_hat, q, opts, quad, threads=1)
    assert cp.converged
    assert cp.iterations <= cap
    assert block_norm_l2(_diff_path(cp.p, path_new(q.zetas, root))) < 1e-7
    assert cp.j_value == pytest.approx(j, abs=1e-9)


def _reject_q_primes(monkeypatch, calls):
    """Make _q_prime_of raise NotIncreasing on the given (1-based) calls;
    returns the list of the p values it was called with."""
    real = critpoint._q_prime_of
    seen = []

    def q_prime_of(*args):
        seen.append(args[-1].values.copy())
        if len(seen) in calls:
            raise NotIncreasing("rejected for the test")
        return real(*args)

    monkeypatch.setattr(critpoint, "_q_prime_of", q_prime_of)
    return seen, real


def test_anderson_falls_back_to_the_damped_step(monkeypatch):
    # the first extrapolated candidate is the third q' built: the initial
    # p, the plain first step (no history yet), then the Anderson step
    model, p1, t, t_hat, q, start, quad, _, root, j = \
        ANDERSON_CASES["bipartite_A"]
    seen, real = _reject_q_primes(monkeypatch, {3})
    opts = SolverOptions(max_iters=1500, initial_p=start)
    cp = solve_critical(model, p1, t, t_hat, q, opts, quad, threads=1)
    assert cp.converged
    # in place of the rejected candidate comes the damped step p + w f
    x = seen[1]
    g = psi_grad(p1, real(model, t, t_hat, q, signed_path_new(q.zetas, x)),
                 quad).values
    assert not np.allclose(seen[3], seen[2])
    np.testing.assert_allclose(seen[3], x + 0.5 * (g - x), rtol=0,
                               atol=1e-15)
    assert block_norm_l2(_diff_path(cp.p, path_new(q.zetas, root))) < 1e-7
    assert cp.j_value == pytest.approx(j, abs=1e-9)


def test_solver_stops_when_the_damped_step_fails_too(monkeypatch):
    model, p1, t, t_hat, q, start, quad, _, _, _ = \
        ANDERSON_CASES["bipartite_A"]
    seen, _ = _reject_q_primes(monkeypatch, {3, 4})
    opts = SolverOptions(max_iters=1500, initial_p=start)
    cp = solve_critical(model, p1, t, t_hat, q, opts, quad, threads=1)
    assert not cp.converged
    assert cp.iterations == 2 == len(cp.residual_history)
    # the last evaluated p is returned with its own certificate
    np.testing.assert_array_equal(np.asarray(cp.p.values), seen[1])
    monkeypatch.undo()
    assert certificate(cp, quad) == pytest.approx(cp.residual_l2, abs=1e-12)
    assert np.isfinite(cp.j_value)


def test_anderson_solver_is_thread_invariant():
    model, p1, t, t_hat, q, start, quad, _, _, _ = \
        ANDERSON_CASES["bipartite_A"]
    opts = SolverOptions(initial_p=start)
    one, two = (solve_critical(model, p1, t, t_hat, q, opts, quad,
                               threads=n) for n in (1, 2))
    np.testing.assert_array_equal(np.asarray(one.p.values),
                                  np.asarray(two.p.values))
    assert one.residual_l2 == two.residual_l2
    assert one.iterations == two.iterations
    assert one.residual_history == two.residual_history


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
