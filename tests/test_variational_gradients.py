"""Exact block gradients of the variational objectives against central
differences of the same objectives.

Each public optimizer hands its objective to variational._coordinate_ascent;
the tests intercept that call, so the objective checked is the one the
optimizer climbs, and the difference quotient shares no code with the
gradient.  The last tests count the recursion passes of parisi_sup runs.
"""

import numpy as np
import pytest

from hjparisi import (
    QuadratureSpec,
    ReferenceMeasure,
    XiModel,
    classic_parisi,
    frobenius_square,
    hopf_lax_value,
    ising_measure,
    parisi_std,
    parisi_sup,
    sk,
    onebody,
    variational,
)
from hjparisi.model import sym_basis
from hjparisi.paths import path_new

P1 = ising_measure(1)
P2 = ising_measure(2)


class _Captured(Exception):
    pass


def capture_objective(monkeypatch, run, calls=1):
    """The objective of the calls-th _coordinate_ascent call made by run;
    earlier calls return their first start unchanged."""
    seen = []

    def fake(objective, cap, starts, lens, opts, threads=None):
        seen.append((objective, lens))
        if len(seen) == calls:
            raise _Captured
        return starts[0], 0.0, 0, True, 0.0

    monkeypatch.setattr(variational, "_coordinate_ascent", fake)
    with pytest.raises(_Captured):
        run()
    return seen[-1]


def max_gradient_gap(objective, lens, blocks, h):
    """Largest gap between the L2 gradient and the central difference of
    the objective, divided by the block length, over blocks and a
    symmetric basis."""
    _, g = objective(blocks)
    gap = 0.0
    for k, length in enumerate(lens):
        for e in sym_basis(blocks[0].shape[0]):
            up = [b.copy() for b in blocks]
            down = [b.copy() for b in blocks]
            up[k] += h * e
            down[k] -= h * e
            fd = (objective(up)[0] - objective(down)[0]) / (2 * h * length)
            gap = max(gap, abs(fd - float(np.sum(g[k] * e))))
    return gap


def test_parisi_sup_gradient_d1(monkeypatch):
    q = path_new([0.0, 0.5], [[[0.05]], [[0.15]]])
    objective, lens = capture_objective(monkeypatch, lambda: parisi_sup(
        sk(1.0), P1, 0.4, q, partition=(0.25, 0.75),
        quad=QuadratureSpec(16)))
    blocks = [np.array([[v]]) for v in (0.1, 0.2, 0.35, 0.5)]
    gap = max_gradient_gap(objective, lens, blocks, 1e-4)
    assert gap <= 1e-8          # measured 8.6e-10


def test_parisi_sup_gradient_d2_non_diagonal(monkeypatch):
    # degree 2 and 3 terms with dense coefficients, so Hess-xi couples
    # every entry and depends on the block
    rng = np.random.default_rng(5)
    m2 = rng.standard_normal((4, 4))
    m3 = rng.standard_normal((8, 8))
    model = XiModel(2, ((2, 0.3 * m2 @ m2.T), (3, 0.05 * m3 @ m3.T)))
    q = path_new([0.0, 0.4], [np.array([[0.1, 0.03], [0.03, 0.08]]),
                              np.array([[0.3, 0.1], [0.1, 0.25]])])
    # at 10 nodes the quadrature error alone leaves a 1.5e-5 gap; the
    # exact gradient converges to grad psi, and at 24 nodes the gap is
    # the O(h^2) error of the difference
    objective, lens = capture_objective(monkeypatch, lambda: parisi_sup(
        model, P2, 0.3, q, partition=(), quad=QuadratureSpec(24)))
    blocks = [np.array([[0.1, 0.02], [0.02, 0.05]]),
              np.array([[0.3, 0.08], [0.08, 0.2]])]
    gap = max_gradient_gap(objective, lens, blocks, 1e-4)
    assert gap <= 2.5e-8        # measured 2.5e-9


@pytest.mark.parametrize("d", [1, 2])
def test_hopf_lax_gradient(monkeypatch, d):
    if d == 1:
        model, p1, quad = sk(1.0), P1, QuadratureSpec(16)
        q = path_new([0.0, 0.5], [[[0.05]], [[0.15]]])
        blocks = [np.array([[v]]) for v in (0.1, 0.25)]
    else:
        model, p1, quad = frobenius_square(0.8), P2, QuadratureSpec(10)
        q = path_new([0.0, 0.5], [np.array([[0.05, 0.01], [0.01, 0.02]]),
                                  np.array([[0.16, 0.04], [0.04, 0.1]])])
        blocks = [np.array([[0.1, 0.03], [0.03, 0.06]]),
                  np.array([[0.2, 0.05], [0.05, 0.15]])]
    objective, lens = capture_objective(monkeypatch, lambda: hopf_lax_value(
        model, p1, 0.4, q, quad=quad, partition=(0.5,)))
    # the conjugate's maximizer is only first-order accurate to 1e-8
    gap = max_gradient_gap(objective, lens, blocks, 1e-4)
    assert gap <= 5e-7          # measured 7.2e-8 (D=1), 3.5e-8 (D=2)


def test_parisi_std_inner_gradient(monkeypatch):
    # the second inner minimization runs at the first trial tilt of the
    # outer search, y = 0.15; atoms of unequal norm make the tilt move the
    # Gibbs weights (on +-1 atoms it only adds a constant)
    p1 = ReferenceMeasure(np.array([[1.0], [-0.6], [0.3]]),
                          np.array([0.3, 0.5, 0.2]))
    quad = QuadratureSpec(16)
    objective, lens = capture_objective(
        monkeypatch, lambda: parisi_std(sk(0.8), p1, quad=quad), calls=2)
    zetas = [0.0, 0.25, 0.5, 0.75]
    blocks = [np.array([[v]]) for v in (0.05, 0.15, 0.3, 0.5)]
    y = np.array([[0.15]])
    value, _ = objective(blocks)
    assert value == pytest.approx(
        -classic_parisi(sk(0.8), p1, path_new(zetas, blocks), y, quad),
        abs=1e-15)
    gap = max_gradient_gap(objective, lens, blocks, 1e-4)
    assert gap <= 2e-9          # measured 2.0e-10


def count_recursion_passes(monkeypatch):
    """A list whose length is the number of onebody._recursion calls."""
    passes = []
    recursion = onebody._recursion

    def counted(*args, **kwargs):
        passes.append(1)
        return recursion(*args, **kwargs)

    monkeypatch.setattr(onebody, "_recursion", counted)
    return passes


def test_parisi_sup_psi_call_count(monkeypatch):
    # the single-block oracle instance of test_variational; the
    # finite-difference coordinate ascent made 82 psi_eval calls here, the
    # gradient ascent with a deferred gradient 22 psi_eval and 17 psi_grad
    # calls, and the ascent on eager gradients makes 22 recursion passes
    passes = count_recursion_passes(monkeypatch)
    res = parisi_sup(sk(1.0), P1, t=0.5, q=path_new([0.0], [[[0.0]]]),
                     partition=(), quad=QuadratureSpec(32))
    assert res.value == pytest.approx(0.009961506493, abs=1e-7)
    assert len(passes) <= 30


def test_parisi_sup_takes_value_and_gradient_from_one_pass(monkeypatch):
    passes = count_recursion_passes(monkeypatch)
    feasible = []
    ascent = variational._coordinate_ascent

    def counted_ascent(objective, *args, **kwargs):
        def counted(blocks):
            value, g = objective(blocks)
            if np.isfinite(value):
                feasible.append(1)
            return value, g

        return ascent(counted, *args, **kwargs)

    monkeypatch.setattr(variational, "_coordinate_ascent", counted_ascent)
    q = path_new([0.0, 0.5], [[[0.05]], [[0.15]]])
    parisi_sup(sk(1.0), P1, 0.4, q, partition=(0.25, 0.75),
               quad=QuadratureSpec(16))
    assert len(feasible) > 0
    assert len(passes) == len(feasible)
