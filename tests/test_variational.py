"""Convex-case variational formulas and the classic saddle form."""

import logging

import numpy as np
import pytest

from hjparisi import (
    QuadratureSpec,
    ReferenceMeasure,
    ValidationError,
    bipartite,
    classic_parisi,
    hopf_lax_value,
    ising_measure,
    parisi_functional,
    parisi_std,
    parisi_sup,
    sk,
)
from hjparisi.paths import path_new

P1 = ising_measure(1)
QUAD = QuadratureSpec(nodes_per_dim=32)


def scalar_path(zetas, values):
    return path_new(zetas, [[[v]] for v in values])


Q0 = scalar_path([0.0], [0.0])


def test_parisi_sup_single_block_oracle():
    # value from tools/derive_expected.py (ternary search on [0, 1])
    res = parisi_sup(sk(1.0), P1, t=0.5, q=Q0, partition=(), quad=QUAD)
    assert res.value == pytest.approx(0.009961506493, abs=1e-7)
    assert res.argmax_path.values[0][0, 0] == pytest.approx(0.30898239,
                                                            abs=1e-3)
    assert res.optimizer_iters > 0
    assert res.first_order_residual < 1e-3


def test_parisi_sup_vanishes_at_small_t():
    res = parisi_sup(sk(1.0), P1, t=0.1, q=Q0, partition=(), quad=QUAD)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    assert abs(res.argmax_path.values[0][0, 0]) < 1e-3


def test_hopf_lax_matches_sup_on_shared_partition():
    sup = parisi_sup(sk(1.0), P1, t=0.5, q=Q0, partition=(), quad=QUAD)
    hl = hopf_lax_value(sk(1.0), P1, t=0.5, q=Q0, partition=(), quad=QUAD)
    assert hl == pytest.approx(sup.value, abs=1e-6)


def test_hopf_lax_requires_positive_t():
    with pytest.raises(ValidationError):
        hopf_lax_value(sk(1.0), P1, t=0.0, q=Q0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -0.1])
def test_variational_routes_check_the_time_first(t):
    # the time is named before any recursion pass, not reported as an
    # infeasible start
    for route in (parisi_sup, hopf_lax_value):
        with pytest.raises(ValidationError, match="t must be finite"):
            route(sk(1.0), P1, t=t, q=Q0, quad=QUAD)


def test_sup_dominates_feasible_values():
    model = sk(1.0)
    res = parisi_sup(model, P1, t=0.5, q=Q0, partition=(0.5,), quad=QUAD)
    for pv in ([0.1, 0.4], [0.3, 0.3], [0.0, 0.9]):
        p = scalar_path([0.0, 0.5], pv)
        val = parisi_functional(model, P1, 0.5, Q0, p, QUAD)
        assert res.value >= val - 1e-7


def test_classic_parisi_rs_value():
    # value from tools/derive_expected.py:
    # -b^2 q + b^2 q^2 / 2 + E log cosh(sqrt(2 b^2 q) Z) at b=0.3, q=0.2
    pi = scalar_path([0.0], [0.2])
    got = classic_parisi(sk(0.3), P1, pi, np.zeros((1, 1)),
                         quad=QuadratureSpec(nodes_per_dim=48))
    assert got == pytest.approx(0.001490472812, abs=1e-9)


def test_classic_parisi_is_minus_the_parisi_functional():
    # at zero tilt both run the one Parisi functional at t = 1/2, q = 0;
    # atoms of unequal norm keep the tilt term from being a constant
    p1 = ReferenceMeasure(np.array([[1.0], [-0.6], [0.3]]),
                          np.array([0.3, 0.5, 0.2]))
    pi = scalar_path([0.0, 0.25, 0.5, 0.75], [0.05, 0.15, 0.3, 0.5])
    quad = QuadratureSpec(nodes_per_dim=16)
    got = classic_parisi(sk(0.8), p1, pi, np.zeros((1, 1)), quad)
    assert got == -parisi_functional(sk(0.8), p1, 0.5, Q0, pi, quad)


def test_classic_parisi_tilt_validation():
    pi = scalar_path([0.0], [0.2])
    with pytest.raises(ValidationError):
        classic_parisi(sk(0.3), P1, pi, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_parisi_std_recovers_quadratic_free_energy():
    # high-temperature SK: the saddle value is beta^2 / 2 = 0.045, and the
    # independent grid scan in tools/derive_expected.py lands there too
    val = parisi_std(sk(0.3), P1, quad=QuadratureSpec(nodes_per_dim=16))
    assert val == pytest.approx(0.045, abs=1e-4)


def test_nonconvex_model_warns(caplog):
    q0 = path_new([0.0], [np.zeros((2, 2))])
    with caplog.at_level(logging.WARNING, logger="hjparisi.variational"):
        parisi_sup(bipartite(1.0), ising_measure(2), t=0.05, q=q0,
                   partition=(), quad=QuadratureSpec(nodes_per_dim=12))
    assert any("convexity" in rec.message for rec in caplog.records)
