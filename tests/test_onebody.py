"""One-body free energy: quadrature backend, MC backend, gradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjparisi import (
    BudgetExceeded,
    QuadratureSpec,
    ReferenceMeasure,
    ValidationError,
    gaussian_cascade_logfree,
    ising_measure,
    psi_eval,
    psi_grad,
    psi_mc,
)
from hjparisi.paths import lp_distance, path_new

P1 = ising_measure(1)
QUAD = QuadratureSpec(nodes_per_dim=48)


def scalar_path(zetas, values):
    return path_new(zetas, [[[v]] for v in values])


def test_psi_zero_path_is_zero():
    q = scalar_path([0.0], [0.0])
    assert psi_eval(P1, q, QUAD).value == pytest.approx(0.0, abs=1e-13)


def test_psi_single_block_values():
    # value from tools/derive_expected.py: q - E log cosh(sqrt(2 q) Z)
    q5 = scalar_path([0.0], [0.5])
    assert psi_eval(P1, q5, QUAD).value == pytest.approx(
        0.12543279250856203, abs=5e-9)
    q3 = scalar_path([0.0], [0.3])
    assert psi_eval(P1, q3, QUAD).value == pytest.approx(
        0.05494362774810943, abs=5e-9)


def test_psi_two_step_value():
    # value from tools/derive_expected.py (direct tilted recursion)
    q = scalar_path([0.0, 0.5], [0.1, 0.3])
    assert psi_eval(P1, q, QUAD).value == pytest.approx(
        0.033419423193, abs=2e-9)
    res = psi_eval(P1, q, QUAD)
    assert res.method == "quadrature"
    assert res.error_estimate == 0.0


def test_psi_matrix_value():
    # value from tools/derive_expected.py (D=2 tensor-grid recursion)
    q = path_new([0.0, 0.4],
                 [np.array([[0.10, 0.03], [0.03, 0.08]]),
                  np.array([[0.25, 0.05], [0.05, 0.30]])])
    got = psi_eval(ising_measure(2), q, QuadratureSpec(nodes_per_dim=40))
    assert got.value == pytest.approx(0.019796870210, abs=2e-9)


def test_psi_quadrature_node_stability():
    q = scalar_path([0.0, 0.3, 0.7], [0.05, 0.2, 0.45])
    a = psi_eval(P1, q, QuadratureSpec(nodes_per_dim=24)).value
    b = psi_eval(P1, q, QuadratureSpec(nodes_per_dim=48)).value
    assert a == pytest.approx(b, abs=1e-7)


def test_psi_mc_agrees_with_quadrature():
    q = scalar_path([0.0, 0.5], [0.1, 0.3])
    ref = psi_eval(P1, q, QUAD).value
    est = psi_mc(P1, q, n_max=64, samples=4000, seed=17)
    assert est.method == "mc"
    assert est.error_estimate > 0.0
    assert abs(est.value - ref) <= 4 * est.error_estimate + 0.003


def test_psi_mc_deterministic_and_validated():
    q = scalar_path([0.0, 0.5], [0.1, 0.3])
    a = psi_mc(P1, q, n_max=32, samples=300, seed=2, threads=1)
    b = psi_mc(P1, q, n_max=32, samples=300, seed=2, threads=1)
    assert a.value == b.value
    # 300 samples span two chunks, so two threads really split the work
    c = psi_mc(P1, q, n_max=32, samples=300, seed=2, threads=2)
    assert (c.value, c.error_estimate) == (a.value, a.error_estimate)
    with pytest.raises(ValidationError):
        psi_mc(P1, q, n_max=32, samples=1, seed=2)
    with pytest.raises(ValidationError):
        psi_mc(P1, q, n_max=1, samples=100, seed=2)
    # sizes and the seed are checked before any draw
    for kwargs, message in (
            (dict(n_max=4.0, samples=100, seed=2), "^n_max must be an integer"),
            (dict(n_max=4, samples=8.0, seed=2), "^samples must be an integer"),
            (dict(n_max=4, samples=100, seed=-1), "^seed must be non-negative")):
        with pytest.raises(ValidationError, match=message):
            psi_mc(P1, q, **kwargs)


def test_psi_mc_value_is_kept_on_a_tilted_depth_two_instance():
    # D=2, K=2 with four atoms that are not a product measure and a PSD
    # tilt.  The expected value is what psi_mc gave at a fixed seed before
    # its leaf kernel was rewritten in coordinate-major layout (same
    # Philox streams, leaves summed per atom, then over leaves), at commit
    # 82089e4.
    p1 = ReferenceMeasure([[0.6, 0.2], [-0.3, 0.7], [0.1, -0.9], [0.0, 0.5]],
                          [0.4, 0.3, 0.2, 0.1])
    q = path_new([0.0, 0.3, 0.7],
                 [np.array([[0.08, 0.02], [0.02, 0.05]]),
                  np.array([[0.20, 0.04], [0.04, 0.15]]),
                  np.array([[0.35, 0.10], [0.10, 0.30]])])
    tilt = np.array([[0.20, 0.05], [0.05, 0.10]])
    got = psi_mc(p1, q, n_max=6, samples=600, seed=5, tilt=tilt)
    assert got.value == pytest.approx(-0.05403797972612639, abs=1e-12)
    assert got.error_estimate == pytest.approx(0.007941396372912794,
                                               abs=1e-12)


def test_psi_mc_reports_truncation_ratio():
    q = scalar_path([0.0, 0.5], [0.1, 0.3])
    res = psi_mc(P1, q, n_max=16, samples=300, seed=4)
    assert 0.0 < res.truncation_ratio < 1.0
    assert res.truncation_ratio == psi_mc(P1, q, n_max=16, samples=300,
                                          seed=4, threads=2).truncation_ratio
    flat = psi_mc(P1, scalar_path([0.0], [0.3]), n_max=16, samples=50,
                  seed=4)
    assert flat.truncation_ratio == 0.0
    assert psi_eval(P1, q, QUAD).truncation_ratio == 0.0


def test_psi_eval_rejects_signed_paths():
    from hjparisi.paths import signed_path_new
    s = signed_path_new([0.0], [[[0.2]]])
    with pytest.raises(ValidationError):
        psi_eval(P1, s, QUAD)


def test_every_backend_rejects_a_measure_of_another_dimension():
    q = path_new([0.0, 0.5], [0.05 * np.eye(2), 0.1 * np.eye(2)])
    for run in (lambda: psi_eval(P1, q, QUAD), lambda: psi_grad(P1, q, QUAD),
                lambda: psi_mc(P1, q, 4, 8, 0)):
        with pytest.raises(ValidationError, match="D=1, the path D=2"):
            run()


def test_psi_budget_fallback():
    # D=2 with K=2 at 32 nodes would need (32^2)^3 = 1e9 kernel points
    q = path_new([0.0, 0.3, 0.6],
                 [0.05 * np.eye(2), 0.15 * np.eye(2), 0.3 * np.eye(2)])
    P2 = ising_measure(2)
    with pytest.raises(BudgetExceeded):
        psi_eval(P2, q, QuadratureSpec(nodes_per_dim=32))
    res = psi_eval(P2, q, QuadratureSpec(
        nodes_per_dim=32, mc_fallback={"samples": 4000, "seed": 1}))
    assert res.method == "mc"
    assert res.error_estimate > 0.0
    ref = psi_eval(P2, q, QuadratureSpec(nodes_per_dim=12)).value
    assert abs(res.value - ref) <= 5 * res.error_estimate + 0.01


@pytest.mark.parametrize("samples", [-5, 0, 3, 7])
def test_mc_fallback_below_eight_samples_is_rejected(samples):
    # the sampled levels draw at least 8 nodes each, so fewer samples
    # would be echoed but not used
    with pytest.raises(ValidationError, match="mc_fallback samples"):
        QuadratureSpec(mc_fallback={"samples": samples, "seed": 0})
    QuadratureSpec(mc_fallback={"samples": 8, "seed": 0})


@pytest.mark.parametrize("fallback, message", [
    ({"sample": 50}, "keys 'samples' and 'seed'"),
    ({"samples": 50, "seed": 3, "threads": 2}, "keys 'samples' and 'seed'"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"samples": 50, "seed": 1.5}, "seed must be an integer"),
    ({"samples": 50, "seed": True}, "seed must be an integer"),
    ({"samples": 50.5}, "samples must be an integer"),
])
def test_mc_fallback_is_checked_when_built(fallback, message):
    # a misspelt key would otherwise run silently with 10^5 samples
    with pytest.raises(ValidationError, match=message):
        QuadratureSpec(mc_fallback=fallback)
    QuadratureSpec(mc_fallback={"samples": 50})
    QuadratureSpec(mc_fallback={"seed": np.int64(3)})


def test_psi_grad_single_block_analytic():
    # value from tools/derive_expected.py: d psi / d q = E tanh^2(sqrt(2q) Z)
    g5 = psi_grad(P1, scalar_path([0.0], [0.5]), QUAD)
    assert g5.values[0][0, 0] == pytest.approx(0.39429449039784117, abs=1e-6)
    g3 = psi_grad(P1, scalar_path([0.0], [0.3]), QUAD)
    assert g3.values[0][0, 0] == pytest.approx(0.30396133282187311, abs=1e-6)


def test_psi_grad_two_block_values():
    # values from tools/derive_expected.py: a fourth-order central
    # difference of its own two-step recursion, per block length
    g = psi_grad(P1, scalar_path([0.0, 0.5], [0.05, 0.15]), QUAD)
    assert g.values[0][0, 0] == pytest.approx(0.073586687613, abs=1e-8)
    assert g.values[1][0, 0] == pytest.approx(0.213301286310, abs=1e-8)


def test_psi_grad_matches_central_difference_of_psi_eval():
    # D=2, K=1 on a path with off-diagonal entries, untilted and with a
    # non-diagonal PSD tilt.  The exact gradient converges to grad psi,
    # not to the derivative of the quadrature sum; at 24 nodes the two
    # differ here by at most 5.1e-10 with or without the tilt, the O(h^2)
    # error of the difference itself.
    from hjparisi.model import sym_basis
    p2 = ising_measure(2)
    q = path_new([0.0, 0.4],
                 [np.array([[0.20, 0.08], [0.08, 0.15]]),
                  np.array([[0.50, 0.15], [0.15, 0.45]])])
    quad = QuadratureSpec(nodes_per_dim=24)
    h = 1e-4
    for tilt in (None, np.array([[0.3, 0.1], [0.1, 0.2]])):
        got = psi_grad(p2, q, quad, tilt=tilt)
        for k, length in enumerate(q.lengths()):
            fd = np.zeros((2, 2))
            for b_mat in sym_basis(2):
                vals = [np.array(q.values), np.array(q.values)]
                vals[0][k] += h * b_mat
                vals[1][k] -= h * b_mat
                up, down = (psi_eval(p2, q.with_values(v), quad,
                                     tilt=tilt).value for v in vals)
                fd += (up - down) / (2 * h * length) * b_mat
            np.testing.assert_allclose(got.values[k], fd, atol=1e-7)


def test_psi_grad_under_budget_fallback():
    # the sampled node sets of psi_eval's fallback carry the same moment
    # pass: the blocks stay increasing and near the quadrature gradient
    q = path_new([0.0, 0.3, 0.6],
                 [0.05 * np.eye(2), 0.15 * np.eye(2), 0.3 * np.eye(2)])
    p2 = ising_measure(2)
    quad = QuadratureSpec(nodes_per_dim=32,
                          mc_fallback={"samples": 60, "seed": 1})
    g = psi_grad(p2, q, quad)
    assert np.all(np.isfinite(g.values))
    for inc in g.increments():
        assert np.linalg.eigvalsh(inc)[0] >= -1e-12
    ref = psi_grad(p2, q, QuadratureSpec(nodes_per_dim=8))
    np.testing.assert_allclose(g.values, ref.values, atol=0.03)


def test_psi_grad_blocks_increase_along_the_path():
    q = scalar_path([0.0, 0.4, 0.7], [0.1, 0.25, 0.5])
    g = psi_grad(P1, q, QuadratureSpec(nodes_per_dim=32))
    vals = [v[0, 0] for v in g.values]
    assert vals[0] <= vals[1] + 1e-9
    assert vals[1] <= vals[2] + 1e-9


def test_psi_grad_handles_pinched_increments():
    # rank-one value: the field has a zero-variance direction, where the
    # gradient must stay finite and symmetric
    q = path_new([0.0], [np.diag([0.3, 0.0])])
    g = psi_grad(ising_measure(2), q, QuadratureSpec(nodes_per_dim=24))
    assert np.all(np.isfinite(g.values))
    np.testing.assert_allclose(g.values[0], g.values[0].T, atol=1e-12)


@st.composite
def increasing_pairs(draw):
    cuts = sorted(draw(st.lists(st.floats(min_value=0.1, max_value=0.9),
                                min_size=1, max_size=2, unique=True)))
    def vals():
        incs = draw(st.lists(st.floats(min_value=0.0, max_value=0.4),
                             min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        return np.cumsum(incs)
    return (scalar_path([0.0] + cuts, vals()),
            scalar_path([0.0] + cuts, vals()))


@settings(max_examples=15, deadline=None)
@given(increasing_pairs())
def test_psi_is_one_lipschitz_in_l1(pair):
    q, r = pair
    quad = QuadratureSpec(nodes_per_dim=24)
    dv = abs(psi_eval(P1, q, quad).value - psi_eval(P1, r, quad).value)
    assert dv <= lp_distance(q, r, 1) + 1e-8


def test_psi_grad_sixteen_lipschitz_sample():
    rng = np.random.default_rng(3)
    quad = QuadratureSpec(nodes_per_dim=24)
    for _ in range(5):
        cuts = np.sort(rng.uniform(0.1, 0.9, size=2))
        qa = scalar_path([0.0, *cuts], np.cumsum(rng.uniform(0, 0.4, 3)))
        qb = scalar_path([0.0, *cuts], np.cumsum(rng.uniform(0, 0.4, 3)))
        ga = psi_grad(P1, qa, quad)
        gb = psi_grad(P1, qb, quad)
        lhs = lp_distance(ga, gb, 2)
        assert lhs <= 16.0 * lp_distance(qa, qb, 2) + 1e-5


def test_gaussian_cascade_logfree_values():
    assert gaussian_cascade_logfree((0.0, 0.5, 1.0), (1.0, 4.0)) == \
        pytest.approx(0.75)
    # value from tools/derive_expected.py (matches a direct cascade MC)
    assert gaussian_cascade_logfree((0.0, 0.55, 1.0), (0.8, 2.3)) == \
        pytest.approx(0.4125)
    # one level collapses to zero regardless of the variance
    assert gaussian_cascade_logfree((0.0, 1.0), (2.7,)) == pytest.approx(0.0)


def test_gaussian_cascade_logfree_validation():
    with pytest.raises(ValidationError):
        gaussian_cascade_logfree((0.1, 1.0), (1.0,))
    with pytest.raises(ValidationError):
        gaussian_cascade_logfree((0.0, 0.9), (1.0,))
    with pytest.raises(ValidationError):
        gaussian_cascade_logfree((0.0, 0.6, 0.4, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValidationError):
        gaussian_cascade_logfree((0.0, 0.5, 1.0), (1.0,))


def pinned_instances():
    """Recursion instances whose psi_eval and psi_grad values are pinned
    below: D = 1 at depths 0-3 (one with three atoms), D = 2 at depths
    0-2 on non-diagonal paths, PSD tilts, and the budget fallback that
    gate 10 runs (D = 2, K = 2, 32 nodes, 200 samples, seed 5)."""
    p1, p2 = ising_measure(1), ising_measure(2)
    three = ReferenceMeasure(np.array([[-1.0], [0.0], [1.0]]),
                             np.array([0.25, 0.35, 0.4]))
    q1 = scalar_path([0.0, 0.5], [0.1, 0.3])
    q2 = scalar_path([0.0, 0.3, 0.7], [0.05, 0.2, 0.45])
    q3 = scalar_path([0.0, 0.2, 0.5, 0.8], [0.05, 0.15, 0.3, 0.5])
    m0 = path_new([0.0], [np.array([[0.3, 0.1], [0.1, 0.2]])])
    m1 = path_new([0.0, 0.4],
                  [np.array([[0.20, 0.08], [0.08, 0.15]]),
                   np.array([[0.50, 0.15], [0.15, 0.45]])])
    m2 = path_new([0.0, 0.3, 0.6],
                  [np.array([[0.1, 0.0], [0.0, 0.08]]),
                   np.array([[0.25, 0.05], [0.05, 0.3]]),
                   np.array([[0.4, 0.05], [0.05, 0.45]])])
    tilt2 = np.array([[0.3, 0.1], [0.1, 0.2]])
    n = QuadratureSpec
    return {
        "D1K0": (p1, scalar_path([0.0], [0.5]), n(24), None),
        "D1K1": (p1, q1, n(32), None),
        "D1K1_tilt": (p1, q1, n(32), np.array([[0.2]])),
        "D1K2": (p1, q2, n(24), None),
        "D1K2_three": (three, q2, n(16), None),
        "D1K3": (p1, q3, n(16), None),
        "D2K0": (p2, m0, n(16), None),
        "D2K1": (p2, m1, n(12), None),
        "D2K1_tilt": (p2, m1, n(12), tilt2),
        "D2K2": (p2, m2, n(12), None),
        "D2K2_mc": (p2, m2, n(32, {"samples": 200, "seed": 5}), None),
    }


# (psi_eval value, psi_grad blocks) of each pinned instance, computed by
# the row-major (nodes, atoms) kernel that preceded the coordinate-major
# one; repr round-trips, so the values are exact.
PINNED = {
    "D1K0": (0.12543245221642163, [
        [[0.3943185181895593]],
    ]),
    "D1K1": (0.03341942319313077, [
        [[0.11938336703143584]],
        [[0.34102851577866233]],
    ]),
    "D1K1_tilt": (-0.16658057680686944, [
        [[0.11938336703143582]],
        [[0.34102851577866233]],
    ]),
    "D1K2": (0.047994328662088026, [
        [[0.0573911684720534]],
        [[0.22347302999093274]],
        [[0.45488729349489015]],
    ]),
    "D1K2_three": (0.025445002048151394, [
        [[0.04057216380019327]],
        [[0.11583640048033421]],
        [[0.22152694719606233]],
    ]),
    "D1K3": (0.05150359294821058, [
        [[0.055662450274649916]],
        [[0.16572632114465904]],
        [[0.31950965164610146]],
        [[0.4890544240657608]],
    ]),
    "D2K0": (0.026822502073109822, [
        [[0.09504216173996417, 0.020524458798608508],
         [0.020524458798608508, 0.06959842278930373]],
    ]),
    "D2K1": (0.05363872876068275, [
        [[0.05723982958811386, 0.014796272590096641],
         [0.014796272590096641, 0.04431265584978637]],
        [[0.1433487567273225, 0.016557883303968252],
         [0.016557883303968252, 0.13407641684783214]],
    ]),
    "D2K1_tilt": (-0.19664691611814716, [
        [[0.05979939709196655, 0.02287958811513689],
         [0.02287958811513689, 0.04701605778480404]],
        [[0.1468820868651361, 0.03788728805508183],
         [0.03788728805508183, 0.1377149254500808]],
    ]),
    "D2K2": (0.03620669939483147, [
        [[0.03412029275511485, -0.0017336029559022153],
         [-0.0017336029559022153, 0.026508322125063773]],
        [[0.0834253860240628, 0.010208833700067832],
         [0.010208833700067832, 0.09626579518637916]],
        [[0.13085109715529508, 0.0067141635196575926],
         [0.0067141635196575926, 0.14161732516672054]],
    ]),
    "D2K2_mc": (0.05297241761656883, [
        [[0.03009924247677087, -0.0027445942879572244],
         [-0.0027445942879572244, 0.03066588144926068]],
        [[0.08405855539026982, 0.0069629062087052844],
         [0.0069629062087052844, 0.09708878525585606]],
        [[0.12471281414125067, 0.0035249932863120606],
         [0.0035249932863120606, 0.1398938898334479]],
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_recursion_values_are_pinned(name):
    p, q, quad, tilt = pinned_instances()[name]
    value, blocks = PINNED[name]
    got = psi_eval(p, q, quad, tilt=tilt).value
    assert got.hex() == value.hex()
    g = psi_grad(p, q, quad, tilt=tilt)
    np.testing.assert_allclose(g.values, blocks, rtol=0, atol=1e-13)


def test_recursion_is_chunk_and_thread_invariant(monkeypatch):
    # 144 root nodes over 144^2 inner nodes: three chunks of the kernel
    from hjparisi import onebody
    chunks, thread_map = [], onebody.chunked_thread_map

    def counted(fn, items, threads=1):
        chunks.append(len(items))
        return thread_map(fn, items, threads)

    monkeypatch.setattr(onebody, "chunked_thread_map", counted)
    p, q, quad, _ = pinned_instances()["D2K2"]
    evals, grads = [], []
    for threads in (1, 2, 3):
        evals.append(psi_eval(p, q, quad, threads=threads).value)
        grads.append(np.array(psi_grad(p, q, quad, threads=threads).values))
    assert chunks == [3] * 6
    assert evals[1] == evals[0] and evals[2] == evals[0]
    for g in grads[1:]:
        assert g.tobytes() == grads[0].tobytes()


def test_quadrature_cache_is_read_only():
    from hjparisi.onebody import _gh_nodes, _gh_nodes_1d
    for arr in (*_gh_nodes_1d(12), *_gh_nodes(12, 2)):
        with pytest.raises(ValueError):
            arr[0] = 0.0
