"""Finite-size oracle: exact enumeration over configs, MC over disorder."""

import tracemalloc

import numpy as np
import pytest

from hjparisi import (
    BudgetExceeded,
    QuadratureSpec,
    ValidationError,
    XiModel,
    bipartite,
    free_energy_mc,
    frobenius_square,
    gibbs_overlap_law,
    identity_checks,
    ising_measure,
    psi_eval,
    pure_p,
    sample_hamiltonian,
    sk,
)
from hjparisi import cascade, finiten
from hjparisi.model import ReferenceMeasure, xi_eval_batch
from hjparisi.paths import path_new, sqrt_increments
from hjparisi.util import logsumexp

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


def test_evaluate_rejects_configurations_of_another_width():
    ham = sample_hamiltonian(frobenius_square(1.0, 2), 3, 0)
    assert ham.evaluate(np.ones((2, 6))).shape == (2,)
    for x in (np.ones((2, 3)), np.ones(7), np.ones((2, 2, 6))):
        with pytest.raises(ValidationError, match="D\\*N"):
            ham.evaluate(x)


def test_hamiltonian_size_guard():
    with pytest.raises(BudgetExceeded):
        sample_hamiltonian(sk(1.0), 15, 0)
    with pytest.raises(ValidationError):
        sample_hamiltonian(sk(1.0), 0, 0)
    for N, seed in ((2.5, 0), (True, 0), (3, -1), (3, 2.5), (3, True)):
        with pytest.raises(ValidationError, match="^(N|seed) must be"):
            sample_hamiltonian(sk(1.0), N, seed)


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


def test_free_energy_on_built_model_and_path_makes_no_eigen_call(
        eigen_calls):
    # the Hamiltonian's factors and the field's roots both come from the
    # decompositions that validated the model and the path
    model = frobenius_square(0.8, 2)
    q = path_new([0.0, 0.5], [np.diag([0.1, 0.05]), np.diag([0.3, 0.2])])
    eigen_calls.clear()
    free_energy_mc(model, ising_measure(2), 2, 0.1, q, 0.05, 20, 4, seed=3)
    assert eigen_calls == []


def test_free_energy_validation():
    with pytest.raises(ValidationError):
        free_energy_mc(sk(1.0), P1, 2, -0.1, Q2, 0.0, 100, 16, 0)
    with pytest.raises(ValidationError):
        free_energy_mc(sk(1.0), P1, 2, 0.1, Q2, 0.0, 1, 16, 0)


@pytest.mark.parametrize("t, t_hat", [(-0.1, 0.0), (0.1, -0.1),
                                      (np.nan, 0.0), (0.1, np.nan),
                                      (np.inf, 0.0), (0.1, np.inf)])
def test_time_parameters_are_checked_before_any_work(monkeypatch, t, t_hat):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the time check")

    monkeypatch.setattr(finiten, "_Session", no_work)
    monkeypatch.setattr(finiten, "psi_eval", no_work)
    name = "t_hat" if t == 0.1 else "t"
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        free_energy_mc(sk(1.0), P1, 2, t, Q2, t_hat, 100, 16, 0)
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        gibbs_overlap_law(sk(1.0), P1, 2, t, Q2, t_hat, 100, 16, 0)
    if t_hat == 0.0:
        with pytest.raises(ValidationError, match="^t must be finite"):
            identity_checks(sk(1.0), P1, 2, t, Q2, 100, 0)


def test_overlap_law_and_identity_checks_reject_too_few_samples(monkeypatch):
    # a stderr needs two samples; the check comes before any session or
    # quadrature work
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the samples check")

    monkeypatch.setattr(finiten, "_Session", no_work)
    monkeypatch.setattr(finiten, "psi_eval", no_work)
    for samples in (0, 1):
        with pytest.raises(ValidationError, match="samples"):
            gibbs_overlap_law(sk(1.0), P1, N=3, t=0.1, q=Q2, t_hat=0.0,
                              samples=samples, n_max=16, seed=0)
        with pytest.raises(ValidationError, match="samples"):
            identity_checks(sk(1.0), P1, N=3, t=0.1, q=Q2, samples=samples,
                            seed=0)


def test_overlap_law_masses_and_histogram():
    # Ising takes the spectral histogram; a three-atom D=1 measure keeps
    # the config-pair one
    P3 = ReferenceMeasure(np.array([[1.0], [-0.5], [0.2]]),
                          np.array([0.5, 0.3, 0.2]))
    for P, N, samples in ((P1, 6, 250), (P3, 5, 64)):
        law = gibbs_overlap_law(sk(1.0), P, N=N, t=0.1, q=Q2, t_hat=0.02,
                                samples=samples, n_max=16, seed=9,
                                with_histogram=True)
        assert law.level_mass.shape == (2,)
        assert law.level_mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(law.level_mass >= 0.0)
        assert law.max_abs_overlap <= 1.0 + 1e-12
        r_values, hist = law.scalar_hist
        assert np.all(np.abs(r_values) <= 1.0 + 1e-12)
        # per-level histogram mass reproduces the level masses ...
        np.testing.assert_allclose(hist.sum(axis=1), law.level_mass,
                                   atol=1e-9)
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


PM07 = ReferenceMeasure(np.array([[0.7], [-0.7]]), np.array([0.3, 0.7]))


@pytest.mark.parametrize("measure", (P1, PM07), ids=("ising", "pm07"))
@pytest.mark.parametrize("K", (0, 1, 2))
def test_spectral_histogram_is_the_explicit_pair_sum(measure, K):
    # the Walsh-Hadamard histogram of a +-a measure against the pair sum
    # it stands for: per level j, the products of two configs' level-j
    # node sums, minus the next level's, summed over the config pairs of
    # each overlap x_c x_c' / N; at N=1 the first half has no sites
    n_max, count = 3, 3
    q = scalar_path([0.0, 0.3, 0.6][:K + 1], [0.1, 0.2, 0.3][:K + 1])
    for N in (1, 4, 7):
        session = finiten._Session(sk(1.0), measure, N, [q], n_max)
        parts, _ = session.draw(np.random.default_rng(N), count)
        r_values, histogram = finiten._spectral_histogram(session)
        x = session.x_flat
        bins = np.abs(x @ x.T / N - r_values[:, None, None]) < 1e-9
        assert np.all(bins.sum(axis=0) == 1)
        grid = np.empty((session.n1, session.n2, session.L))
        for t_hat in (0.0, 0.05):
            g = session.gibbs(parts, 0, 0.1, t_hat)
            got = histogram(g)
            assert got.shape == (count, K + 1, len(r_values))
            for s in range(count):
                leaves = g.grid(s, grid)
                shared = [(gj @ gj.T) for gj in (
                    leaves.reshape(len(x), n_max ** j, -1).sum(axis=2)
                    for j in range(K + 1))] + [0.0]
                want = [[np.sum((shared[j] - shared[j + 1])[b])
                         for b in bins] for j in range(K + 1)]
                np.testing.assert_allclose(got[s], want, rtol=0.0,
                                           atol=1e-12)


def _peak_bytes(run):
    """tracemalloc's peak over a second call of run, past any first-call
    allocations."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sign_pair_histogram_forms_no_config_pair_array():
    # 2^11 configurations: one (n_cfg, n_cfg) array of doubles is 32 MiB,
    # and at 2^14 it is 2 GiB
    for N in (11, 14):
        peak = _peak_bytes(lambda: gibbs_overlap_law(
            sk(1.0), P1, N, 0.1, Q2, 0.0, samples=4, n_max=4, seed=0,
            with_histogram=True))
        assert peak < 16 * 2 ** 20, (N, peak)


P3 = ReferenceMeasure(np.array([[1.0], [-0.5], [0.2]]),
                      np.array([0.5, 0.3, 0.2]))
QD = path_new([0.0, 0.5], [0.05 * np.eye(2), 0.1 * np.eye(2)])
# one full chunk each, every one counted at 2^20 doubles or more:
# (estimator, model, measure, N, path, n_max, histogram, t_hat)
HELD_CASES = {
    "fe sk": ("fe", sk(1.0), P1, 14, Q2, 64, False, 0.0),
    "fe pure_p(3)": ("fe", pure_p(3), P1, 14, Q2, 16, False, 0.0),
    "fe frobenius": ("fe", frobenius_square(1.0, 2), ising_measure(2), 7,
                     QD, 8, False, 0.0),
    "fe frobenius coupling": ("fe", frobenius_square(1.0, 2),
                              ising_measure(2), 7, QD, 8, False, 0.05),
    "overlap +-1 histogram": ("law", sk(1.0), P1, 13, Q2, 4, True, 0.0),
    "overlap pair histogram": ("law", sk(1.0), P3, 7, Q2, 4, True, 0.0),
    "overlap": ("law", sk(1.0), P1, 14, Q2, 64, False, 0.0),
    "check N=12": ("checks", sk(1.0), P1, 12, Q2, 64, False, 0.0),
    "check N=14": ("checks", sk(1.0), P1, 14, Q2, 64, False, 0.0),
}


@pytest.mark.parametrize("case", HELD_CASES)
def test_the_chunk_count_bounds_what_a_run_holds(case):
    # the budget's count of doubles is an upper bound on the bytes a run
    # holds, and within a factor 4 of them
    estimator, model, measure, N, q, n_max, histogram, t_hat = \
        HELD_CASES[case]
    samples, t = finiten.CHUNK, 0.1
    paths = [q]
    if estimator == "checks":
        paths += [q.with_values([f * v for v in q.values])
                  for f in (0.85, 0.7)]
    count = finiten._check_run(model, measure, N, paths, n_max, samples, 0,
                               t, t_hat, histogram)
    assert count >= 2 ** 20
    run = {
        "fe": lambda: free_energy_mc(model, measure, N, t, q, t_hat, samples,
                                     n_max, 0),
        "law": lambda: gibbs_overlap_law(model, measure, N, t, q, t_hat,
                                         samples, n_max, 0,
                                         with_histogram=histogram),
        "checks": lambda: identity_checks(model, measure, N, t, q, samples,
                                          0, n_max=n_max),
    }[estimator]
    peak = _peak_bytes(run)
    assert peak <= 8 * count <= 4 * peak, (peak, 8 * count)


def test_identity_checks_pass_on_small_instance():
    report = identity_checks(sk(1.0), P1, N=4, t=0.1, q=Q2, samples=400,
                             seed=13)
    assert set(report.checks) == {"lipschitz", "dt_identity", "monotone",
                                  "initial"}
    for name, check in report.checks.items():
        assert check.passed, (name, check)
    assert report.all_passed


def test_identity_checks_draw_each_session_once(monkeypatch):
    # the shifted and lowered paths share q's partition, so one session
    # and one pass of `samples` draws serve all four checks
    calls = []
    draw = finiten._Session.draw

    def counted(session, rng, count):
        calls.append((session, count))
        return draw(session, rng, count)

    monkeypatch.setattr(finiten._Session, "draw", counted)
    identity_checks(sk(1.0), P1, N=3, t=0.1, q=Q2, samples=20, seed=2,
                    n_max=8)
    assert sum(count for _, count in calls) == 20
    assert len({id(session) for session, _ in calls}) == 1


def test_truncation_ratio_is_reported_and_thread_invariant():
    q0 = scalar_path([0.0], [0.3])
    est = free_energy_mc(sk(1.0), P1, 3, 0.1, q0, 0.0, 40, 8, seed=5)
    law = gibbs_overlap_law(sk(1.0), P1, 3, 0.1, q0, 0.0, 40, 8, seed=5)
    assert est.truncation_ratio == law.truncation_ratio == 0.0
    # both estimators run the same draws, so they see the same cascades
    ratios = [f(sk(1.0), P1, 3, 0.1, Q2, 0.0, 40, 8, seed=5,
                threads=threads).truncation_ratio
              for f in (free_energy_mc, gibbs_overlap_law)
              for threads in (1, 2)]
    assert ratios[0] > 0.0
    assert ratios == [ratios[0]] * 4
    # identity_checks draws the same cascades for its three paths, so its
    # largest ratio is the one the same draws gave above
    report = identity_checks(sk(1.0), P1, 3, 0.1, Q2, 40, seed=5, n_max=8)
    assert report.truncation_ratio == ratios[0]
    report = identity_checks(sk(1.0), P1, 3, 0.1, q0, 40, seed=5, n_max=8)
    assert report.truncation_ratio == 0.0


def test_max_abs_overlap_is_the_largest_pair_overlap():
    # D=2 atoms of unequal norm: the bound |x_c . x_c'| <= |x_c| |x_c'| is
    # met by the config that puts the longest atom at every site
    atoms = np.array([[0.6, 0.3], [-0.2, 0.5], [0.1, -0.9]])
    P = ReferenceMeasure(atoms, np.array([0.5, 0.3, 0.2]))
    q = path_new([0.0], [0.05 * np.eye(2)])
    N = 3
    law = gibbs_overlap_law(frobenius_square(1.0, 2), P, N=N, t=0.1, q=q,
                            t_hat=0.0, samples=4, n_max=4, seed=0)
    x_flat = finiten._enumerate_configs(P, N)[0]
    brute = float(np.max(np.abs(x_flat @ x_flat.T))) / N
    assert law.max_abs_overlap == pytest.approx(brute, abs=1e-12)
    assert law.max_abs_overlap == pytest.approx(0.82, abs=1e-12)


def test_identity_checks_fail_their_budget_before_sampling(monkeypatch):
    # a D=2, K=2 path needs 32^6 > NODE_BUDGET quadrature nodes for check
    # (d); the failure must come before any finite-N sample is drawn
    def no_sampling(*args, **kwargs):
        raise AssertionError("Monte Carlo work ran before the budget check")

    monkeypatch.setattr(finiten._Session, "draw", no_sampling)
    q = path_new([0.0, 0.3, 0.6], [np.diag([0.1, 0.08]),
                                   np.diag([0.25, 0.3]),
                                   np.diag([0.4, 0.45])])
    with pytest.raises(BudgetExceeded):
        identity_checks(frobenius_square(1.0, 2), ising_measure(2), N=2,
                        t=0.1, q=q, samples=20, seed=0, n_max=4)
    # one chunk holds split factors of 2^7 + 2^7 half configs x 4096
    # leaves per sample on each compared path, past the budget
    with pytest.raises(BudgetExceeded, match="one chunk"):
        identity_checks(sk(1.0), P1, N=14, t=0.1, q=Q2, samples=4, seed=0,
                        n_max=4096)


@pytest.mark.parametrize("name, value", [
    ("seed", -1), ("seed", 2.5), ("seed", True),
    ("samples", 8.5), ("samples", 3.0), ("samples", True),
    ("N", 2.5), ("N", True)])
@pytest.mark.parametrize("estimator", ["fe", "law", "checks"])
def test_estimators_reject_a_non_integer_count_or_seed_before_any_work(
        monkeypatch, estimator, name, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the integer check")

    monkeypatch.setattr(finiten, "_Session", no_work)
    monkeypatch.setattr(finiten, "psi_eval", no_work)
    args = dict(N=3, samples=8, seed=0) | {name: value}
    run = {
        "fe": lambda: free_energy_mc(sk(1.0), P1, t=0.1, q=Q2, t_hat=0.0,
                                     n_max=8, **args),
        "law": lambda: gibbs_overlap_law(sk(1.0), P1, t=0.1, q=Q2,
                                         t_hat=0.0, n_max=8, **args),
        "checks": lambda: identity_checks(sk(1.0), P1, t=0.1, q=Q2,
                                          n_max=8, **args),
    }[estimator]
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        run()


def _elementwise_exponents(session, model, paths, count, t, t_hats):
    # each sample's (n_cfg, L) exponent base + leaf_logw + sqrt(2) x F^T
    # per path and t_hat, its terms summed one by one, each rebuilt from a
    # replay of the chunk's stream (seeded 1)
    N, D, K, n_max = session.N, session.D, session.K, session.n_max
    rng = np.random.default_rng(1)
    coeffs = [(p, rng.standard_normal((count, N ** p, D ** p)) @ factor.T)
              for (p, _), factor in zip(model.terms, model.factors)]
    leaf_logw, _ = cascade._grow_log_weights(paths[0].zetas[1:], n_max, rng,
                                             batch=count)
    zs = [rng.standard_normal((count, n_max ** level, D, N))
          for level in range(K + 1)]
    w_hat = rng.standard_normal((count, N, N))
    x_flat, x3 = session.x_flat, session.x3
    gram = np.einsum("cdn,cen->cde", x3, x3)
    out = np.empty((count, len(paths), len(t_hats), len(x_flat), session.L))
    for i in range(count):
        ham = finiten.DisorderSample(model, N, 0, tuple(
            (p, finiten._interleave(j[i:i + 1], p, N, D)[0]
             * N ** (-(p - 1) / 2.0)) for p, j in coeffs))
        hat = np.einsum("cdi,ij,cdj->c", x3, w_hat[i], x3) / np.sqrt(N)
        for path, qp in enumerate(paths):
            field = cascade._leaf_field(sqrt_increments(qp),
                                        [z[i] for z in zs])
            field_term = x_flat @ field.reshape(session.L, -1).T
            for k, t_hat in enumerate(t_hats):
                base = (session.logw_cfg
                        + np.sqrt(2 * t) * ham.evaluate(x_flat)
                        - t * N * xi_eval_batch(model, gram / N)
                        - np.einsum("cde,de->c", gram, qp.final_value)
                        - t_hat * np.einsum("cde,cde->c", gram, gram) / N
                        + np.sqrt(2 * t_hat) * hat)
                out[i, path, k] = (base[:, None] + leaf_logw[i][None, :]
                                   + np.sqrt(2.0) * field_term)
    return out


def _check_split(model, N, K, count):
    # the split factors of every sample of a chunk, on every path of an
    # identity_checks session, against the elementwise exponent grid:
    # log Z, leaf masses, node spin sums, the config marginal and the
    # histogram's Gibbs weights
    D, n_max, t, t_hats = model.D, 4, 0.1, (0.0, 0.05)
    q = path_new([0.0, 0.3, 0.6][:K + 1],
                 [(0.1 + 0.1 * k) * np.eye(D) for k in range(K + 1)])
    paths = [q] + [q.with_values([f * v for v in q.values])
                   for f in (0.85, 0.7)]
    session = finiten._Session(model, ising_measure(D), N, paths, n_max)
    assert session.n_cfg == session.n1 * session.n2 == 2 ** (D * N)
    parts, _ = session.draw(np.random.default_rng(1), count)
    want = _elementwise_exponents(session, model, paths, count, t, t_hats)
    grid = np.empty((session.n1, session.n2, session.L))
    for path in range(len(paths)):
        leaf = session.leaf_factors(parts, path)
        for k, t_hat in enumerate(t_hats):
            g = session.gibbs(parts, path, t, t_hat, leaf=leaf)
            mass, spins = g.leaf_mass(), session.leaf_spins(g)
            marginal = g.marginal()
            for i in range(count):
                expo = want[i, path, k]
                log_z = logsumexp(expo)
                weights = np.exp(expo - log_z)
                close = dict(rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(g.log_z[i], log_z, **close)
                np.testing.assert_allclose(mass[i], weights.sum(axis=0),
                                           **close)
                np.testing.assert_allclose(marginal[i].ravel(),
                                           weights.sum(axis=1), **close)
                np.testing.assert_allclose(g.grid(i, grid), weights,
                                           **close)
                for j in range(K + 1):
                    nodes = n_max ** j
                    gj = weights.reshape(len(weights), nodes, -1).sum(axis=2)
                    node_spins = (gj.T @ session.x_flat).reshape(nodes, D, N)
                    np.testing.assert_allclose(
                        finiten._node_sums(spins[i], nodes),
                        node_spins.transpose(1, 2, 0), **close)


# a D=1 model with every degree 1..4
MIXED = XiModel(1, tuple((p, np.array([[c]])) for p, c in
                         ((1, 0.3), (2, 1.0), (3, 0.5), (4, 0.2))))
# per D: (model, sizes N); at odd N the halves differ in size
SPLIT_MODELS = {
    1: ((sk(1.0), (1, 2, 5)), (MIXED, (1, 3, 5))),
    2: ((frobenius_square(1.0, 2), (1, 2, 5)), (bipartite(1.0), (1, 3))),
}


@pytest.mark.parametrize("D", (1, 2))
@pytest.mark.parametrize("K", (0, 1, 2))
def test_assembled_exponent_is_the_elementwise_sum(D, K):
    # the split factors, and the split Hamiltonian and coupling terms,
    # assemble what the elementwise grid sums: a partial last chunk of
    # three samples; at N=1 the first half has no sites
    for model, sizes in SPLIT_MODELS[D]:
        for N in sizes:
            _check_split(model, N, K, count=3)


def test_assembled_exponent_holds_where_the_contraction_splits_a_chunk():
    # a full chunk of a cubic model, whose half blocks have m = 0..3
    # first-half slots
    _check_split(pure_p(3), 10, 1, count=finiten.CHUNK)


@pytest.mark.parametrize("model", (sk(1.0), MIXED, frobenius_square(1.0, 2),
                                   bipartite(1.0)),
                         ids=("sk", "degrees 1-4", "frobenius", "bipartite"))
def test_split_xi_moment_is_the_explicit_pair_sum(model):
    # sum_{c,c'} g_c g_c' xi(x_c x_c'^T / N) from the halves' moment
    # tensors against the double sum over config pairs
    D, count = model.D, 3
    q = path_new([0.0], [0.1 * np.eye(D)])
    for N in range(1, 6 if D == 1 else 5):
        session = finiten._Session(model, ising_measure(D), N, [q], 4)
        g = np.random.default_rng(N).random((count, session.n1, session.n2))
        g /= g.sum(axis=(1, 2))[:, None, None]
        x3 = session.x3
        pair = np.einsum("adn,ben->abde", x3, x3).reshape(-1, D, D) / N
        xi = xi_eval_batch(model, pair).reshape(len(x3), len(x3))
        want = [w @ xi @ w for w in g.reshape(count, -1)]
        np.testing.assert_allclose(session.xi_moment(g), want, rtol=0.0,
                                   atol=1e-12)


def test_identity_checks_hold_no_config_moment_tensor():
    # at N=14 an (n_cfg, N^2) moment tensor of the sk Gibbs marginal alone
    # is 2^14 x 196 doubles, 24.5 MiB
    peak = _peak_bytes(lambda: identity_checks(
        sk(1.0), P1, 14, 0.1, Q2, finiten.CHUNK, 0, n_max=64))
    assert peak < 24 * 2 ** 20, peak


def test_workers_are_capped_by_the_chunk_budget(monkeypatch):
    # the budget counts one chunk and each worker holds one, so with room
    # for one chunk a 4-thread request runs on one worker, to the same
    # bytes as one thread
    paths = [Q2] + [Q2.with_values([f * v for v in Q2.values])
                    for f in (0.85, 0.7)]
    held = finiten._check_run(sk(1.0), P1, 10, paths, 16, 64, 0, 0.1)
    workers, thread_map = [], finiten.chunked_thread_map

    def counted(fn, items, threads):
        workers.append(threads)
        return thread_map(fn, items, threads)

    monkeypatch.setattr(finiten, "chunked_thread_map", counted)

    def run(threads):
        return identity_checks(sk(1.0), P1, 10, 0.1, Q2, 64, seed=0,
                               n_max=16, threads=threads)

    want = run(1)
    assert run(4) == want
    monkeypatch.setattr(finiten, "PAIR_BUDGET", 2 * held - 1)
    assert run(4) == want
    assert workers == [1, 4, 1]


def test_split_log_z_holds_at_low_temperature_and_a_strong_field():
    # N=14 at t=200 with q_K = 20: every exponent is far from 0 and they
    # spread over hundreds, and the factored log Z still matches the
    # elementwise grid's
    model, N, t = sk(1.0), 14, 200.0
    q = scalar_path([0.0, 0.5], [10.0, 20.0])
    session = finiten._Session(model, P1, N, [q], 4)
    parts, _ = session.draw(np.random.default_rng(1), 2)
    want = _elementwise_exponents(session, model, [q], 2, t, (0.0,))
    got = session.gibbs(parts, 0, t).log_z
    log_z = [logsumexp(want[i, 0, 0]) for i in range(2)]
    np.testing.assert_allclose(got, log_z, rtol=1e-12, atol=0.0)


def test_an_underflowing_partition_sum_is_an_error_not_minus_inf():
    # a field whose exponents spread by thousands within one leaf leaves a
    # factored sum of 0; it must raise, naming the cause
    q = scalar_path([0.0, 0.5], [5e4, 1e5])
    with pytest.raises(ValidationError, match="spread past the float range"):
        free_energy_mc(sk(1.0), P1, 6, 1e5, q, 0.0, 4, 4, seed=1)


def test_identity_check_fields_are_plain_floats():
    report = identity_checks(sk(1.0), P1, N=3, t=0.1, q=Q2, samples=120,
                             seed=2)
    for check in report.checks.values():
        assert isinstance(check.passed, bool)
        assert isinstance(check.lhs, float)
        assert isinstance(check.sigma, float)


# Fixed-seed values of the sample kernel: each chunk draws its samples at
# once from its own stream, and log Z and the Gibbs sums of the whole
# chunk come from the partition function's two half-config factors.  At
# t_hat = 0 the kernel's float operations are fixed, so the values must
# agree bit for bit; at t_hat > 0 the coupling term's sum may run in
# another order, so they agree to rounding.
QD2 = path_new([0.0, 0.5], [np.diag([0.1, 0.08]), np.diag([0.25, 0.3])])
FE_INSTANCES = {
    "D1": (sk(1.0), P1, 4, Q2, 16),
    "D2": (frobenius_square(1.0, 2), ising_measure(2), 3, QD2, 8),
}
PINNED_FE = {   # (instance, t_hat): (mean, stderr, truncation_ratio)
    ("D1", 0.0): (0.01940767635889129, 0.02847821827075865,
                  0.008712998821111788),
    ("D1", 0.05): (0.01955671630268197, 0.03408057974841573,
                   0.008712998821111788),
    ("D2", 0.0): (0.03437584971881773, 0.03488214247241256,
                  0.04198985095345323),
    ("D2", 0.05): (0.051040748313012994, 0.043506283912567015,
                   0.04198985095345323),
}
PINNED_LAW = {   # t_hat: OverlapLaw fields, N=5, n_max=8, seed 9
    0.0: dict(
        level_mass=[0.46289840865720294, 0.537101591342797],
        level_mass_stderr=[0.035664675595999985, 0.03566467559599999],
        cond_mean=[0.10801539977291048, 0.3670449339216575],
        cond_mean_stderr=[0.02460934204118792, 0.02012725537700685],
        joint_mass=[[0.01615010241840003, 0.05859722341531447,
                     0.11376927642964992, 0.1369052145511146,
                     0.10198796583519079, 0.03548862600753315],
                    [0.004466335268106006, 0.026019271008926315,
                     0.07973266351816749, 0.1528398456680235,
                     0.17861649083112288, 0.09542698504845085]],
        truncation_ratio=0.05133585379496952),
    0.05: dict(
        level_mass=[0.46123936175668134, 0.5387606382433187],
        level_mass_stderr=[0.03664716397302451, 0.03664716397302451],
        cond_mean=[0.12259265344936243, 0.39171452634573967],
        cond_mean_stderr=[0.027738740124690887, 0.025668577453152226],
        joint_mass=[[0.020989490538061126, 0.06148909607627969,
                     0.10299911402914383, 0.12287687014058439,
                     0.10608209194507379, 0.04680269902753847],
                    [0.006112235583128026, 0.028324907913457893,
                     0.07522502008189838, 0.1372020700888865,
                     0.17536066505733192, 0.11653573951861593]],
        truncation_ratio=0.05133585379496952),
}
PINNED_CHECKS = {   # name: (passed, lhs, rhs, sigma), N=3, n_max=16, seed 2
    "lipschitz": (True, 0.006663344157409504, 0.08000000000000002,
                  0.006291602624771611),
    "dt_identity": (True, 0.39024614100614835, 0.43252388247319,
                    0.12108997052308611),
    "monotone": (True, 0.0262001577044835, 0.0,
                 0.005240458646622009),
    "initial": (True, 0.07206975886597856, 0.03341942319313077,
                0.019357632552503782),
}


def _assert_pinned(got, want, t_hat):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if t_hat == 0.0:
        assert got.tobytes() == want.tobytes(), (got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("threads", (1, 2))
def test_free_energy_matches_pinned_values(threads):
    for (name, t_hat), want in PINNED_FE.items():
        model, P, N, q, n_max = FE_INSTANCES[name]
        est = free_energy_mc(model, P, N, 0.1, q, t_hat, 40, n_max, seed=7,
                             threads=threads)
        _assert_pinned([est.mean, est.stderr, est.truncation_ratio], want,
                       t_hat)


@pytest.mark.parametrize("threads", (1, 2))
def test_overlap_law_histogram_matches_pinned_values(threads):
    for t_hat, want in PINNED_LAW.items():
        law = gibbs_overlap_law(sk(1.0), P1, 5, 0.1, Q2, t_hat, 40, 8,
                                seed=9, with_histogram=True, threads=threads)
        r_values, joint = law.scalar_hist
        assert r_values.tolist() == [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]
        got = dict(level_mass=law.level_mass,
                   level_mass_stderr=law.level_mass_stderr,
                   cond_mean=law.cond_mean.ravel(),
                   cond_mean_stderr=law.cond_mean_stderr.ravel(),
                   joint_mass=joint,
                   truncation_ratio=law.truncation_ratio)
        for key, value in want.items():
            _assert_pinned(got[key], value, t_hat)


# identity_checks on a D=2 instance, from the same kernel
PINNED_CHECKS_D2 = {   # name: (passed, lhs, rhs, sigma), N=3, n_max=8, seed 2
    "lipschitz": (True, "0x1.e51fa64ee9428p-6", "0x1.6c1b31e94e076p-4",
                  "0x1.6f61f36e7081ep-8"),
    "dt_identity": (True, "0x1.44f7e14928293p-1", "0x1.6c1a9069da63cp-2",
                    "0x1.03e5d1caf407cp-3"),
    "monotone": (True, "0x1.74847b768db40p-10", "0x0.0p+0",
                 "0x1.1290c26875993p-8"),
    "initial": (True, "-0x1.50c422ced43d8p-7", "0x1.14cf85bde9148p-6",
                "0x1.07ecbc2672b6bp-6"),
}


@pytest.mark.parametrize("threads", (1, 2))
def test_identity_checks_on_a_d2_instance_are_pinned(threads):
    report = identity_checks(frobenius_square(1.0, 2), ising_measure(2), 3,
                             0.1, QD2, 40, seed=2, n_max=8, threads=threads)
    got = {name: (c.passed, c.lhs.hex(), c.rhs.hex(), c.sigma.hex())
           for name, c in report.checks.items()}
    assert got == PINNED_CHECKS_D2
    assert report.truncation_ratio.hex() == "0x1.80845ae4c8c4ep-5"


@pytest.mark.parametrize("threads", (1, 2))
def test_identity_checks_match_pinned_values(threads):
    report = identity_checks(sk(1.0), P1, 3, 0.1, Q2, 40, seed=2, n_max=16,
                             threads=threads)
    assert set(report.checks) == set(PINNED_CHECKS)
    for name, (passed, *values) in PINNED_CHECKS.items():
        check = report.checks[name]
        assert check.passed is passed
        _assert_pinned([check.lhs, check.rhs, check.sigma], values, 0.0)


def test_overlap_law_and_identity_checks_are_thread_invariant():
    # each chunk of draws allocates its own work arrays, so the results
    # are the same at every worker count, bit for bit; the free energy is
    # checked where the coupling term is formed, on a D=2 path
    laws, reports, estimates = [], [], []
    for threads in (1, 2, 3):
        law = gibbs_overlap_law(sk(1.0), P1, 6, 0.1, Q2, 0.05, 64, 16,
                                seed=4, with_histogram=True, threads=threads)
        laws.append([law.level_mass, law.level_mass_stderr, law.cond_mean,
                     law.cond_mean_stderr, *law.scalar_hist,
                     law.truncation_ratio])
        rep = identity_checks(sk(1.0), P1, 4, 0.1, Q2, 64, seed=4,
                              n_max=16, threads=threads)
        reports.append((rep.checks, rep.truncation_ratio))
        est = free_energy_mc(frobenius_square(1.0, 2), ising_measure(2), 4,
                             0.1, QD2, 0.05, 64, 8, seed=4, threads=threads)
        estimates.append(tuple(v.hex() for v in (
            est.mean, est.stderr, est.truncation_ratio)))
    for other in laws[1:]:
        for a, b in zip(laws[0], other):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert estimates[1] == estimates[0] and estimates[2] == estimates[0]


def test_validation_comes_before_enumeration(monkeypatch):
    # every input and finite-N budget error needs no configurations, no
    # quadrature and no draw
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the check")

    monkeypatch.setattr(finiten, "_enumerate_configs", no_work)
    monkeypatch.setattr(finiten, "psi_eval", no_work)
    monkeypatch.setattr(finiten._Session, "draw", no_work)
    q_d2 = path_new([0.0], [0.05 * np.eye(2)])
    with pytest.raises(ValidationError, match="D=1"):
        gibbs_overlap_law(frobenius_square(1.0, 2), ising_measure(2), N=3,
                          t=0.1, q=q_d2, t_hat=0.0, samples=50, n_max=8,
                          seed=0, with_histogram=True)
    # 3^8 configurations fit the enumeration budget; the pair path's
    # (n_cfg, n_cfg) matrices do not
    with pytest.raises(BudgetExceeded, match="one chunk"):
        gibbs_overlap_law(sk(1.0), P3, N=8, t=0.1, q=Q2, t_hat=0.0,
                          samples=50, n_max=8, seed=0, with_histogram=True)
    runs = (
        lambda model, P, N, q, n_max: free_energy_mc(
            model, P, N, 0.1, q, 0.0, 50, n_max, seed=0),
        lambda model, P, N, q, n_max: gibbs_overlap_law(
            model, P, N, 0.1, q, 0.0, 50, n_max, seed=0),
        lambda model, P, N, q, n_max: identity_checks(
            model, P, N, 0.1, q, 50, seed=0, n_max=n_max),
    )
    for run in runs:
        with pytest.raises(ValidationError, match="dimensions"):
            run(sk(1.0), P1, 3, q_d2, 8)
        with pytest.raises(ValidationError, match="measure D=2"):
            run(sk(1.0), ising_measure(2), 3, Q2, 8)
        with pytest.raises(ValidationError, match="n_max"):
            run(sk(1.0), P1, 3, Q2, 1)
        with pytest.raises(BudgetExceeded, match="3\\^9"):
            run(sk(1.0), P3, 9, Q2, 8)
        with pytest.raises(BudgetExceeded, match="one chunk"):
            run(sk(1.0), P1, 14, Q2, 16384)


@pytest.mark.parametrize("n_max, message", [(-2, "at least 2"),
                                            (0, "at least 2"),
                                            (1, "at least 2"),
                                            (4.0, "must be an integer")])
def test_sessions_reject_a_truncation_the_cascade_cannot_run(n_max, message):
    # as sample_cascade: a path with steps needs two atoms per node
    runs = [
        lambda: free_energy_mc(sk(1.0), P1, 2, 0.1, Q2, 0.0, 4, n_max, 0),
        lambda: gibbs_overlap_law(sk(1.0), P1, 2, 0.1, Q2, 0.0, 4, n_max, 0),
        lambda: identity_checks(sk(1.0), P1, 2, 0.1, Q2, 4, 0, n_max=n_max),
    ]
    for run in runs:
        with pytest.raises(ValidationError, match=message):
            run()


# free_energy_mc on a depth-0 path, from the same kernel
PINNED_FE_FLAT = {   # t_hat: (mean, stderr, truncation_ratio)
    0.0: ("0x1.a0e722a5f266dp-5", "0x1.fd0ce7c936ccdp-6", "0x0.0p+0"),
    0.05: ("0x1.5039618f6fb88p-4", "0x1.1744a7d30cf81p-5", "0x0.0p+0"),
}


@pytest.mark.parametrize("threads", (1, 2))
def test_free_energy_on_a_flat_path_is_pinned(threads):
    q0 = scalar_path([0.0], [0.3])
    for t_hat, want in PINNED_FE_FLAT.items():
        est = free_energy_mc(sk(1.0), P1, 4, 0.1, q0, t_hat, 40, 5, seed=7,
                             threads=threads)
        got = (est.mean, est.stderr, float(est.truncation_ratio))
        assert tuple(v.hex() for v in got) == want


def test_a_flat_path_runs_at_any_integer_truncation():
    # a depth-0 path has one leaf, so n_max plays no part
    q0 = scalar_path([0.0], [0.2])
    ests = [free_energy_mc(sk(1.0), P1, 2, 0.1, q0, 0.0, 8, n_max, seed=3)
            for n_max in (0, 1, 64)]
    assert ests[0] == ests[1] == ests[2]
