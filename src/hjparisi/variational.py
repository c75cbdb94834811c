"""Convex-case variational formulas: the Parisi supremum over increasing
step paths, the Hopf-Lax form with the numerical convex conjugate, the
classic Parisi functional with a tilt, and the standard sup-inf value.

All optimizers work over a fixed finite partition (default: the
breakpoints of _default_interior merged with the base path's) by one
projected-gradient ascent on exact block gradients, each from the
recursion pass of its value; multi-starts are deterministic and reduced
best-first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .critpoint import SolverOptions, _parisi_terms
from .errors import NonConvergence, NotIncreasing, ValidationError
from .model import grad_lipschitz_upper_bound, sym_basis, xi_star
from .onebody import QuadratureSpec, _psi_pass
from .paths import PiecewisePath, _on_partition
from .util import (_Ascent, check_times, chunked_thread_map, clip_increments,
                   node_rng)

__all__ = [
    "VariationalResult", "parisi_sup", "hopf_lax_value", "classic_parisi",
    "parisi_std",
]

log = logging.getLogger(__name__)

# _coordinate_ascent: the moves every start makes before the best goes on
_ROUGH_ITERS = 6


def _default_interior(D):
    # quadrature cost grows like nodes^(D*(K+1)), so the default search
    # partition stays coarse in higher dimension; callers wanting richer
    # paths pass their own breakpoints
    return (1.0 / 3.0, 2.0 / 3.0) if D == 1 else (0.5,)


@dataclass(frozen=True)
class VariationalResult:
    value: float
    argmax_path: PiecewisePath
    optimizer_iters: int
    first_order_residual: float


def _merged_partition(q, partition):
    if partition is None:
        extra = _default_interior(q.D)
    else:
        extra = tuple(float(z) for z in partition)
        if not all(0.0 < z < 1.0 for z in extra):
            raise ValidationError(
                f"partition breakpoints must lie in (0, 1), got {list(extra)}")
    return np.unique(np.concatenate([np.asarray(q.zetas, dtype=float),
                                     [0.0], extra]))


def _coordinate_ascent(objective, cap, starts, lens, opts, threads=None):
    """util._Ascent from every start for _ROUGH_ITERS moves, then only the
    best (ties to the earlier start) on to convergence: converging losing
    starts costs most of the runtime and changes nothing.  Returns
    (blocks, value, iters, converged, residual), iters summed over all
    starts.  The benchmark's tracer counts iterations through this name,
    which is older than the method.
    """

    def rough(start):
        run = _Ascent(objective, cap, lens, start)
        run.run(_ROUGH_ITERS)
        return run

    runs = chunked_thread_map(rough, starts, threads)
    best = runs[0]
    for run in runs[1:]:
        if run.value > best.value + 1e-15:
            best = run
    best.run(min(max(opts.max_iters, 10), 200))
    if not best.done:
        best.check()
    return (best.blocks, best.value, sum(r.iters for r in runs), best.done,
            best.residual)


def _parisi_objective(model, P1, t, zetas, qv, quad, tilt, threads):
    """critpoint._parisi_terms with its gradient over step blocks b, and
    -inf where q + t grad-xi(b) is not increasing."""

    def objective(blocks):
        try:
            return _parisi_terms(model, P1, t, zetas, qv, blocks, quad, tilt,
                                 threads, grad=True)
        except NotIncreasing:
            return -np.inf, None

    return objective


def _warn_if_nonconvex(model, label):
    if not model.convexity.is_convex_on_psd:
        log.warning("%s: model failed the convexity probe; the variational "
                    "value need not equal the limit", label)


def parisi_sup(model, P1, t, q, partition=None, opts=None, quad=None,
               threads=None) -> VariationalResult:
    """sup of the Parisi functional over increasing step paths |p_k| <= 1.

    Projected-gradient ascent on the block values with the exact block
    gradient t Hess-xi(p_k)[grad-psi_k - p_k], whose zeros are the
    critical points p = grad-psi(q + t grad-xi(p)); several deterministic
    starts (plus opts.initial_p when given), the best value wins, ties
    broken by start index.
    """
    check_times(t)
    opts = opts or SolverOptions()
    quad = quad or QuadratureSpec()
    _warn_if_nonconvex(model, "parisi_sup")
    zetas = _merged_partition(q, partition)
    lens = np.diff(np.append(zetas, 1.0))
    D = q.D
    objective = _parisi_objective(model, P1, t, zetas,
                                  _on_partition(q, zetas).values, quad, None,
                                  threads)

    n_blocks = len(zetas)
    ramp = [0.3 * (k + 1) / n_blocks * np.eye(D) for k in range(n_blocks)]
    rand_inc = 0.2 * node_rng(0, 7).standard_normal((n_blocks, D, D))
    rand = np.cumsum(rand_inc @ np.swapaxes(rand_inc, 1, 2), axis=0)
    starts = [[np.zeros((D, D)) for _ in range(n_blocks)],
              [0.3 * np.eye(D)] * n_blocks, ramp, rand]
    if opts.initial_p is not None:
        starts.append(_on_partition(opts.initial_p, zetas).values)

    blocks, value, iters, converged, residual = _coordinate_ascent(
        objective, 1.0, starts, lens, opts, threads)
    if not converged:
        raise NonConvergence("parisi_sup gradient ascent did not settle")
    return VariationalResult(float(value), PiecewisePath(zetas, blocks),
                             int(iters), residual)


def hopf_lax_value(model, P1, t, q, opts=None, quad=None, threads=None,
                   partition=None) -> float:
    """sup over increasing q' of psi(q + q') - t * int xi_star(q'/t).

    Projected-gradient ascent on the blocks of q' with the exact L2 block
    gradient grad-psi_k(q + q') - argmax_k, argmax_k being the maximizer
    of the conjugate xi_star(q'_k / t), which is evaluated per block by
    its own projected ascent.  Blocks are capped at 1.5 t L (L an
    analytic bound on |grad xi| over the unit ball) since any maximizer
    has the form t grad-xi(p) with |p| <= 1.
    """
    check_times(t)
    if t <= 0:
        raise ValidationError("hopf_lax_value requires t > 0")
    opts = opts or SolverOptions()
    quad = quad or QuadratureSpec()
    _warn_if_nonconvex(model, "hopf_lax_value")
    zetas = _merged_partition(q, partition)
    qv = _on_partition(q, zetas).values
    lens = np.diff(np.append(zetas, 1.0))
    D = q.D
    box = 1.5 * t * max(grad_lipschitz_upper_bound(model), 1e-6)

    def objective(blocks):
        try:
            path = PiecewisePath(zetas, [a + b for a, b in zip(qv, blocks)])
        except NotIncreasing:
            return -np.inf, None
        psi, g = _psi_pass(P1, path, quad, threads=threads, grad=True)
        stars = [xi_star(model, b / t, radius=2.0, return_argmax=True)
                 for b in blocks]
        dual = sum(l * val for l, (val, _) in zip(lens, stars))
        return psi.value - t * dual, g.values - [arg for _, arg in stars]

    n_blocks = len(zetas)
    small = min(0.5 * box, 0.1)
    ramp = [small * (k + 1) / n_blocks * np.eye(D) for k in range(n_blocks)]
    starts = [[np.zeros((D, D)) for _ in range(n_blocks)],
              [small * np.eye(D)] * n_blocks, ramp]
    if opts.initial_p is not None:
        starts.append(_on_partition(opts.initial_p, zetas).values)

    _, value, _, converged, _ = _coordinate_ascent(
        objective, box, starts, lens, opts, threads)
    if not converged:
        raise NonConvergence("hopf_lax gradient ascent did not settle")
    return float(value)


def classic_parisi(model, P1, pi, x, quad=None, threads=None) -> float:
    """Classic Parisi form: a tilted one-body term for the mapped path
    grad-xi of pi at half scale, plus half the block integral of theta(pi);
    that is minus the Parisi functional at t = 1/2, q = 0 with tilt x.

    The inner field here carries no sqrt(2); evaluating psi at the
    half-scaled mapped path absorbs the normalization difference.
    """
    quad = quad or QuadratureSpec()
    x = np.asarray(x, dtype=float)
    D = pi.D
    if x.shape != (D, D) or np.max(np.abs(x - x.T)) > 1e-9:
        raise ValidationError("tilt must be a symmetric DxD matrix")
    zero = np.zeros_like(pi.values)
    return -float(_parisi_terms(model, P1, 0.5, pi.zetas, zero, pi.values,
                                quad, tilt=x, threads=threads)[0])


def parisi_std(model, P1, opts=None, quad=None, threads=None) -> float:
    """sup over PSD y of [inf over pi of classic_parisi(pi, y)]
    minus xi_star(2y)/2.

    The outer search is a compass pattern search on the symmetric
    coordinates of y with PSD projection.  The inner minimization is the
    projected-gradient ascent of -classic_parisi, which is the Parisi
    functional at t = 1/2, q = 0 with tilt y, so its L2 block gradient is
    Hess-xi(pi_k)[p_k - pi_k] / 2 with p the tilted grad-psi at
    grad-xi(pi) / 2; it is warm-started from the previous y.
    """
    opts = opts or SolverOptions()
    quad = quad or QuadratureSpec()
    _warn_if_nonconvex(model, "parisi_std")
    D = model.D
    zetas = np.array([0.0, 0.25, 0.5, 0.75])
    lens = np.diff(np.append(zetas, 1.0))
    basis = sym_basis(D)
    zero = [np.zeros((D, D)) for _ in zetas]
    # after the first outer evaluation the warm path tracks small moves of
    # y well enough that cold starts only burn time
    starts = [zero, [0.6 * (k + 1) / len(zetas) * np.eye(D)
                     for k in range(len(zetas))]]

    def inner(y):
        nonlocal starts
        neg_obj = _parisi_objective(model, P1, 0.5, zetas, zero, quad, y,
                                    threads)
        blocks, value, _, _, _ = _coordinate_ascent(
            neg_obj, 1.0, starts, lens, opts, threads)
        starts = [blocks]
        return -value

    def h_val(y):
        star = xi_star(model, 2.0 * y, radius=2.0)
        return inner(y) - 0.5 * star

    y = np.zeros((D, D))
    best = h_val(y)
    log.info("parisi_std: lower bound at y=0 is %.6g", best)
    step = 0.15
    evals = 1
    while step > 2e-4 and evals < 120:
        improved = False
        for b_mat in basis:
            for sgn in (1.0, -1.0):
                cand = clip_increments([y + sgn * step * b_mat])[0]
                if np.allclose(cand, y, atol=1e-14):
                    continue
                val = h_val(cand)
                evals += 1
                if val > best + 1e-9:
                    y, best = cand, val
                    improved = True
                    break
            if improved:
                break
        if not improved:
            step *= 0.5
    if step > 1e-3:
        raise NonConvergence("outer pattern search on y did not settle")
    return float(best)
