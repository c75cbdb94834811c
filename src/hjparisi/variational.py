"""Convex-case variational formulas: the Parisi supremum over increasing
step paths, the Hopf-Lax form with the numerical convex conjugate, the
classic Parisi functional with a tilt, and the standard sup-inf value.

All optimizers work over a fixed finite partition (default: uniform with
four interior breakpoints merged with the base path's) with projected
coordinate ascent; multi-starts are deterministic and reduced best-first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .critpoint import SolverOptions
from .errors import NonConvergence, NotIncreasing, ValidationError
from .model import (convexity_probe, grad_lipschitz_upper_bound, sym_basis,
                    theta_eval, xi_grad, xi_star)
from .onebody import QuadratureSpec, psi_eval
from .paths import PiecewisePath
from .util import chunked_thread_map, clip_increments, node_rng, project_psd

__all__ = [
    "VariationalResult", "parisi_sup", "hopf_lax_value", "classic_parisi",
    "parisi_std",
]

log = logging.getLogger(__name__)

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
        extra = tuple(float(z) for z in partition if 0.0 < z < 1.0)
    zetas = np.unique(np.concatenate([np.asarray(q.zetas, dtype=float),
                                      [0.0], extra]))
    if zetas[-1] >= 1.0:
        raise ValidationError("partition breakpoints must be below 1")
    return zetas


def _refit(path, zetas):
    """Path values resampled onto a finer partition."""
    return [path.value_at(z) for z in zetas]


def _monotone_project(blocks, cap=None):
    """Forward eigenvalue clip to PSD increments, then a global norm cap."""
    out = clip_increments(blocks)
    if cap is not None:
        top = max(float(np.linalg.norm(v)) for v in out)
        if top > cap:
            out = [v * (cap / top) for v in out]
    return out


def _fd_gradient(objective, blocks, k, basis, h):
    """Finite-difference gradient in block k, tolerant of infeasibility."""
    grad = np.zeros_like(blocks[k])
    for b_mat in basis:
        def at(step):
            cand = list(blocks)
            cand[k] = blocks[k] + step * b_mat
            return objective(cand)
        fp, fm = at(h), at(-h)
        f0 = None
        if np.isfinite(fp) and np.isfinite(fm):
            coeff = (fp - fm) / (2 * h)
        elif np.isfinite(fp):
            f0 = objective(blocks)
            coeff = (fp - f0) / h
        elif np.isfinite(fm):
            f0 = objective(blocks)
            coeff = (f0 - fm) / h
        else:
            coeff = 0.0
        grad += coeff * b_mat
    return grad


def _coordinate_ascent(objective, project, start, lens, opts, fd_step=1e-5,
                       gain_tol=1e-10, max_sweeps=None):
    """Monotone projected coordinate ascent over a list of block matrices.

    objective must return -inf on infeasible inputs; every accepted
    iterate passes through project.  Returns (blocks, value, sweeps,
    converged).
    """
    basis = sym_basis(start[0].shape[0])
    blocks = project([b.copy() for b in start])
    value = objective(blocks)
    if not np.isfinite(value):
        raise ValidationError("projected start is infeasible")
    etas = [0.25] * len(blocks)
    if max_sweeps is None:
        max_sweeps = min(max(opts.max_iters, 10), 200)
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        sweep_start = value
        for k in range(len(blocks)):
            grad = _fd_gradient(objective, blocks, k, basis, fd_step)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-14:
                continue
            eta = etas[k]
            for _ in range(10):
                cand = list(blocks)
                cand[k] = blocks[k] + eta * grad
                cand = project(cand)
                cval = objective(cand)
                if cval > value + 1e-15:
                    blocks, value = cand, cval
                    etas[k] = min(eta * 1.6, 4.0)
                    break
                eta *= 0.5
            else:
                # keep a mild decrease on failure; adopting the fully
                # backtracked step would make later sweeps crawl
                etas[k] = max(etas[k] * 0.5, 1e-8)
        if value - sweep_start < gain_tol:
            converged = True
            break
    return blocks, value, sweeps, converged


def _first_order_residual(objective, project, blocks, lens, h=1e-6):
    basis = sym_basis(blocks[0].shape[0])
    grads = [_fd_gradient(objective, blocks, k, basis, 1e-5)
             for k in range(len(blocks))]
    moved = project([b + h * g for b, g in zip(blocks, grads)])
    sq = sum(l * np.sum(((m - b) / h) ** 2)
             for l, m, b in zip(lens, moved, blocks))
    return float(np.sqrt(max(sq, 0.0)))


def _warn_if_nonconvex(model, label):
    report = convexity_probe(model, samples=64, seed=0)
    if not report.is_convex_on_psd:
        log.warning("%s: model failed the convexity probe; the variational "
                    "value need not equal the limit", label)


def parisi_sup(model, P1, t, q, partition=None, opts=None, quad=None,
               threads=None) -> VariationalResult:
    """sup of the Parisi functional over increasing step paths |p_k| <= 1.

    Projected coordinate ascent on the block values from several
    deterministic starts (plus opts.initial_p when given); the best value
    wins, ties broken by start index.
    """
    opts = opts or SolverOptions()
    quad = quad or QuadratureSpec()
    _warn_if_nonconvex(model, "parisi_sup")
    zetas = _merged_partition(q, partition)
    qv = _refit(q, zetas)
    lens = np.diff(np.append(zetas, 1.0))
    D = q.D

    def objective(blocks):
        try:
            shifted = PiecewisePath(
                zetas, [a + t * xi_grad(model, b) for a, b in zip(qv, blocks)])
        except NotIncreasing:
            return -np.inf
        psi = psi_eval(P1, shifted, quad, threads=threads).value
        theta = sum(l * theta_eval(model, b) for l, b in zip(lens, blocks))
        return psi - t * theta

    def project(blocks):
        return _monotone_project(blocks, cap=1.0)

    n_blocks = len(zetas)
    rng = node_rng(0, 7)
    ramp = [0.3 * (k + 1) / n_blocks * np.eye(D) for k in range(n_blocks)]
    rand_inc = [rng.standard_normal((D, D)) * 0.2 for _ in range(n_blocks)]
    rand = []
    acc = np.zeros((D, D))
    for m in rand_inc:
        acc = acc + m @ m.T
        rand.append(acc.copy())
    starts = [[np.zeros((D, D)) for _ in range(n_blocks)],
              [0.3 * np.eye(D)] * n_blocks, ramp, rand]
    if opts.initial_p is not None:
        starts.append(_refit(opts.initial_p, zetas))

    # rough pass on every start, then converge only the leader; fully
    # optimizing losing starts costs most of the runtime and changes
    # nothing
    def rough(start):
        return _coordinate_ascent(objective, project, start, lens, opts,
                                  gain_tol=1e-6, max_sweeps=6)

    results = chunked_thread_map(rough, starts, threads)
    best = None
    for res in results:
        if best is None or res[1] > best[1] + 1e-15:
            best = res
    blocks, value, sweeps, converged = _coordinate_ascent(
        objective, project, best[0], lens, opts)
    if not converged:
        raise NonConvergence("parisi_sup coordinate ascent did not settle")
    residual = _first_order_residual(objective, project, blocks, lens)
    total_iters = sweeps + sum(r[2] for r in results)
    return VariationalResult(float(value), PiecewisePath(zetas, blocks),
                             int(total_iters), residual)


def hopf_lax_value(model, P1, t, q, opts=None, quad=None, threads=None,
                   partition=None) -> float:
    """sup over increasing q' of psi(q + q') - t * int xi_star(q'/t).

    The conjugate is evaluated per block by projected gradient ascent
    with warm starts; blocks are capped at 1.5 t L (L an analytic bound
    on |grad xi| over the unit ball) since any maximizer has the form
    t grad-xi(p) with |p| <= 1.
    """
    if t <= 0:
        raise ValidationError("hopf_lax_value requires t > 0")
    opts = opts or SolverOptions()
    quad = quad or QuadratureSpec()
    _warn_if_nonconvex(model, "hopf_lax_value")
    zetas = _merged_partition(q, partition)
    qv = _refit(q, zetas)
    lens = np.diff(np.append(zetas, 1.0))
    D = q.D
    box = 1.5 * t * max(grad_lipschitz_upper_bound(model), 1e-6)

    def make_objective():
        warm = {}

        def objective(blocks):
            try:
                path = PiecewisePath(zetas,
                                     [a + b for a, b in zip(qv, blocks)])
            except NotIncreasing:
                return -np.inf
            psi = psi_eval(P1, path, quad, threads=threads).value
            dual = 0.0
            for k, (l, b) in enumerate(zip(lens, blocks)):
                val, arg = xi_star(model, b / t, radius=2.0,
                                   x0=warm.get(k), return_argmax=True)
                warm[k] = arg
                dual += l * val
            return psi - t * dual

        return objective

    def project(blocks):
        return _monotone_project(blocks, cap=box)

    n_blocks = len(zetas)
    small = min(0.5 * box, 0.1)
    ramp = [small * (k + 1) / n_blocks * np.eye(D) for k in range(n_blocks)]
    starts = [[np.zeros((D, D)) for _ in range(n_blocks)],
              [small * np.eye(D)] * n_blocks, ramp]
    if opts.initial_p is not None:
        starts.append(_refit(opts.initial_p, zetas))

    def rough(start):
        return _coordinate_ascent(make_objective(), project, start, lens,
                                  opts, gain_tol=1e-6, max_sweeps=6)

    results = chunked_thread_map(rough, starts, threads)
    best = None
    for res in results:
        if best is None or res[1] > best[1] + 1e-15:
            best = res
    _, value, _, converged = _coordinate_ascent(
        make_objective(), project, best[0], lens, opts)
    if not converged:
        raise NonConvergence("hopf_lax coordinate ascent did not settle")
    return float(value)


def classic_parisi(model, P1, pi, x, quad=None, threads=None) -> float:
    """Classic Parisi form: a tilted one-body term for the mapped path
    grad-xi of pi at half scale, plus half the block integral of theta(pi).

    The inner field here carries no sqrt(2); evaluating psi at the
    half-scaled mapped path absorbs the normalization difference.
    """
    quad = quad or QuadratureSpec()
    x = np.asarray(x, dtype=float)
    D = pi.D
    if x.shape != (D, D) or np.max(np.abs(x - x.T)) > 1e-9:
        raise ValidationError("tilt must be a symmetric DxD matrix")
    mapped = PiecewisePath(pi.zetas,
                           [0.5 * xi_grad(model, v) for v in pi.values])
    first = -psi_eval(P1, mapped, quad, tilt=x, threads=threads).value
    lens = pi.lengths()
    second = 0.5 * float(sum(l * theta_eval(model, v)
                             for l, v in zip(lens, pi.values)))
    return first + second


def parisi_std(model, P1, opts=None, quad=None, threads=None) -> float:
    """sup over PSD y of [inf over pi of classic_parisi(pi, y)]
    minus xi_star(2y)/2.

    The outer search is a compass pattern search on the symmetric
    coordinates of y with PSD projection; the inner minimization reuses
    the coordinate optimizer, warm-started from the previous y.
    """
    opts = opts or SolverOptions()
    quad = quad or QuadratureSpec()
    _warn_if_nonconvex(model, "parisi_std")
    D = model.D
    zetas = np.array([0.0, 0.25, 0.5, 0.75])
    lens = np.diff(np.append(zetas, 1.0))
    basis = sym_basis(D)
    warm_pi = {"blocks": None}

    def inner(y):
        def neg_obj(blocks):
            try:
                path = PiecewisePath(zetas, blocks)
                return -classic_parisi(model, P1, path, y, quad,
                                       threads=threads)
            except (NotIncreasing, ValidationError):
                return -np.inf

        # after the first outer evaluation the warm path tracks small
        # moves of y well enough that cold starts only burn time
        if warm_pi["blocks"] is not None:
            starts = [warm_pi["blocks"]]
        else:
            starts = [[np.zeros((D, D)) for _ in zetas],
                      [0.6 * (k + 1) / len(zetas) * np.eye(D)
                       for k in range(len(zetas))]]
        best = None
        for s in starts:
            res = _coordinate_ascent(
                neg_obj, lambda b: _monotone_project(b, cap=1.0), s, lens,
                opts)
            if best is None or res[1] > best[1]:
                best = res
        warm_pi["blocks"] = best[0]
        return -best[1]

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
                cand = project_psd(y + sgn * step * b_mat)
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
