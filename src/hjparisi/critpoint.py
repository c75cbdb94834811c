"""Hamilton-Jacobi functionals on step paths and the critical-point
fixed-point solver.

The functional J(q', p) = psi(q') + <p, q - q'> + t * int xi(p) is
stationary exactly at pairs satisfying q' = q + t grad-xi(p) (+ 2 t-hat p
in the perturbed setting) and p = grad-psi(q'), with grad-psi the exact
Gibbs-moment gradient of onebody.psi_grad.  The solver iterates on p with
Anderson mixing over its last few steps (Walker & Ni 2011); the damped
step p + w (grad-psi(q'(p)) - p), w = SolverOptions.damping, is both the
mixing weight and the fallback whenever the extrapolated p would make q'
non-increasing.  The returned point is certified by the residual of its
last evaluation, on the same quadrature.
"""

from __future__ import annotations

import logging
import numbers
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotIncreasing, ValidationError
from .model import (grad_lipschitz_const, grad_lipschitz_upper_bound,
                    theta_eval, xi_eval, xi_grad, xi_hessian)
from .onebody import QuadratureSpec, _psi_pass, psi_eval, psi_grad
from .paths import PiecewisePath, SignedPiecewisePath, refine_all
from .util import check_times, clip_increments, sym

__all__ = [
    "CriticalPoint", "SolverOptions", "hj_functional", "parisi_functional",
    "hat_functional", "solve_critical", "t_critical", "continuation",
    "block_inner", "block_norm_l2",
]

log = logging.getLogger(__name__)


def block_inner(a, b) -> float:
    """L2 pairing of two step paths on a common partition."""
    if not np.allclose(a.zetas, b.zetas, atol=1e-12):
        raise ValidationError("paths must share a partition")
    lens = a.lengths()
    return float(sum(l * np.sum(x * y)
                     for l, x, y in zip(lens, a.values, b.values)))


def block_norm_l2(a) -> float:
    return np.sqrt(max(block_inner(a, a), 0.0))


def _diff_path(a, b):
    return SignedPiecewisePath(a.zetas, [x - y for x, y in
                                         zip(a.values, b.values)])


def hj_functional(model, P1, t, q, q_prime, p, quad, threads=None) -> float:
    """J = psi(q') + <p, q - q'>_{L2} + t * int_0^1 xi(p)."""
    check_times(t)
    q, q_prime, p = refine_all([q, q_prime, p])
    psi = psi_eval(P1, q_prime, quad, threads=threads).value
    pairing = block_inner(p, _diff_path(q, q_prime))
    xi_int = float(sum(l * xi_eval(model, v)
                       for l, v in zip(p.lengths(), p.values)))
    return psi + pairing + t * xi_int


def _parisi_terms(model, P1, t, zetas, qv, blocks, quad, tilt=None,
                  threads=None, grad=False):
    """(P, its L2 block gradient if grad else None) for the blocks p and
    q's values qv on the partition zetas, P being parisi_functional's.

    The gradient t Hess-xi(p_k)[grad-psi_k - p_k] (d theta(p) =
    Hess-xi(p)[p]) comes from psi's recursion pass.  Raises NotIncreasing
    when q + t grad-xi(p) is not increasing.
    """
    shifted = PiecewisePath(
        zetas, [a + t * xi_grad(model, b) for a, b in zip(qv, blocks)])
    res, g = _psi_pass(P1, shifted, quad, tilt, threads, grad)
    lens = np.diff(np.append(zetas, 1.0))
    value = res.value - t * sum(l * theta_eval(model, b)
                                for l, b in zip(lens, blocks))
    if g is None:
        return value, None
    return value, [t * sym((xi_hessian(model, b) @ (pk - b).ravel())
                           .reshape(b.shape))
                   for b, pk in zip(blocks, g.values)]


def parisi_functional(model, P1, t, q, p, quad, threads=None) -> float:
    """P = psi(q + t grad-xi(p)) - t * int_0^1 theta(p)."""
    check_times(t)
    q, p = refine_all([q, p])
    top = max(np.linalg.norm(v) for v in p.values)
    if top > 1.0 + 1e-9:
        log.warning("parisi_functional: block norm %.3f exceeds 1", top)
    return float(_parisi_terms(model, P1, t, q.zetas, q.values, p.values,
                               quad, threads=threads)[0])


def hat_functional(model, P1, t, t_hat, q, q_prime, p, quad,
                   threads=None) -> float:
    """J-hat = J + t_hat * int |p|^2 (Frobenius blockwise)."""
    check_times(t, t_hat)
    base = hj_functional(model, P1, t, q, q_prime, p, quad, threads=threads)
    _, p_r = refine_all([q, p])
    sq = float(sum(l * np.sum(v * v)
                   for l, v in zip(p_r.lengths(), p_r.values)))
    return base + t_hat * sq


@dataclass(frozen=True)
class SolverOptions:
    damping: float = 0.5
    tol: float = 1e-8
    max_iters: int = 500
    initial_p: object = None

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValidationError("damping must lie in (0, 1]")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(
                f"tol must be finite and positive, got {self.tol}")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValidationError(
                f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class CriticalPoint:
    p: object
    q_prime: object
    j_value: float
    residual_l2: float
    iterations: int
    converged: bool
    t: float
    t_hat: float
    residual_history: tuple = ()


# Anderson mixing uses the differences of the last this many steps.
_ANDERSON_DEPTH = 3

# Roundoff in p or in grad-xi can leave an increment of q' a little below
# the path's PSD tolerance; the forward clip absorbs dips down to this size.
# Deeper dips mean grad-xi does not keep p's order (a non-convex model), and
# those raise NotIncreasing.
_DIP_TOL = 1e-6


def _as_increasing(zetas, values, tol=np.inf):
    """The increasing path with these values, or else with their forward
    PSD clip, which raises NotIncreasing on an increment dip below -tol."""
    try:
        return PiecewisePath(zetas, values)
    except NotIncreasing:
        return PiecewisePath(zetas, clip_increments(values, tol))


def _q_prime_of(model, t, t_hat, q, p):
    """q + t grad-xi(p) + 2 t_hat p as an increasing path.

    Increment dips down to _DIP_TOL are absorbed by the forward PSD clip;
    anything deeper raises NotIncreasing.
    """
    vals = [qv + t * xi_grad(model, pv) + 2.0 * t_hat * pv
            for qv, pv in zip(q.values, p.values)]
    return _as_increasing(q.zetas, vals, _DIP_TOL)


def _anderson_step(x, f, dxs, dfs, w, lens):
    """x + w f - (dX + w dF) gamma, gamma fitting f by the columns of dF
    in least squares under the block-length-weighted L2 norm."""
    step = x + w * f
    if not dxs:
        return step
    scale = np.sqrt(lens)[:, None, None]
    dF = np.stack([(df * scale).ravel() for df in dfs], axis=1)
    gamma = np.linalg.lstsq(dF, (f * scale).ravel(), rcond=None)[0]
    for g, dx, df in zip(gamma, dxs, dfs):
        step = step - g * (dx + w * df)
    return step


def solve_critical(model, P1, t, t_hat, q, opts=None, quad=None,
                   threads=None) -> CriticalPoint:
    """Anderson-accelerated fixed-point iteration for p = grad-psi(q'(p)),
    q'(p) = q + t grad-xi(p) + 2 t-hat p.

    grad-psi is onebody.psi_grad, the exact block gradient E^w[mu mu^T].
    Each iteration costs one psi_grad pass.  With f = grad-psi(q'(p)) - p
    and w = opts.damping, the step is Anderson mixing (Walker & Ni 2011)
    over the last _ANDERSON_DEPTH differences of p and f,
    p + w f - (dP + w dF) gamma, with gamma the least-squares fit of f by
    dF in the block-length-weighted L2 norm.  When the extrapolated p
    makes q' non-increasing the damped step p + w f is taken instead and
    the history is cleared; when that fails too the solve stops.

    The residual reported is |p - grad-psi(q'(p))|_{L2} at the returned p
    with the same quadrature, so re-running the certificate reproduces it
    exactly: no step follows the last evaluation.  residual_history holds
    that residual for every iteration in order.  Non-convergence is
    returned as data (converged=False), never raised.
    """
    check_times(t, t_hat)
    opts = opts or SolverOptions()
    quad = quad or QuadratureSpec()
    if opts.initial_p is not None:
        q, p = refine_all([q, opts.initial_p])
        p = SignedPiecewisePath(p.zetas, p.values)
    else:
        p = psi_grad(P1, q, quad, threads=threads)

    w = opts.damping
    lens = p.lengths()
    history = []
    dxs, dfs = deque(maxlen=_ANDERSON_DEPTH), deque(maxlen=_ANDERSON_DEPTH)
    x_prev = f_prev = None
    try:
        q_prime = _q_prime_of(model, t, t_hat, q, p)
    except NotIncreasing:
        q_prime = None
    while q_prime is not None:
        grad = psi_grad(P1, q_prime, quad, threads=threads)
        history.append(float(block_norm_l2(_diff_path(grad, p))))
        if history[-1] <= opts.tol or len(history) == opts.max_iters:
            break
        x, f = p.values, grad.values - p.values
        if x_prev is not None:
            dxs.append(x - x_prev)
            dfs.append(f - f_prev)
        x_prev, f_prev = x, f
        try:
            nxt = SignedPiecewisePath(
                p.zetas, _anderson_step(x, f, dxs, dfs, w, lens))
            q_next = _q_prime_of(model, t, t_hat, q, nxt)
        except NotIncreasing:
            dxs.clear()
            dfs.clear()
            nxt = SignedPiecewisePath(p.zetas, x + w * f)
            try:
                q_next = _q_prime_of(model, t, t_hat, q, nxt)
            except NotIncreasing:
                break
        p, q_prime = nxt, q_next

    converged = bool(history) and history[-1] <= opts.tol
    if history:
        residual = history[-1]
        j_value = hat_functional(model, P1, t, t_hat, q, q_prime, p, quad,
                                 threads=threads)
    else:  # the start itself gives a non-increasing q'
        q_prime, residual, j_value = q, float("inf"), float("nan")
    # p is the evaluated point; a non-increasing one is replaced by its
    # forward PSD clip, since CriticalPoint.p is an increasing path
    return CriticalPoint(_as_increasing(p.zetas, p.values), q_prime,
                         float(j_value), residual, len(history), converged,
                         float(t), float(t_hat), tuple(history))


def t_critical(model) -> float:
    c = grad_lipschitz_const(model)
    if c <= 0.0:
        return float("inf")
    return 1.0 / (16.0 * c)


def continuation(model, P1, t_grid, t_hat, q, opts=None, quad=None,
                 threads=None):
    """Warm-started solves along an increasing t grid.

    Adjacent solutions farther apart in L2 than 10 x grid spacing x an
    analytic gradient-Lipschitz bound are logged as candidate branch
    jumps; the full list of CriticalPoint results is returned regardless.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) < 0):
        raise ValidationError("t_grid must be nondecreasing and nonempty")
    for t in t_grid:
        check_times(t, t_hat)
    opts = opts or SolverOptions()
    results = []
    prev_p = opts.initial_p
    for t in t_grid:
        cp = solve_critical(model, P1, float(t), t_hat, q,
                            replace(opts, initial_p=prev_p), quad,
                            threads=threads)
        results.append(cp)
        prev_p = cp.p
    lip = max(grad_lipschitz_upper_bound(model), 1e-12)
    for a, b, t0, t1 in zip(results, results[1:], t_grid, t_grid[1:]):
        gap = block_norm_l2(_diff_path(b.p, a.p))
        if gap > 10.0 * max(t1 - t0, 1e-12) * lip:
            log.warning("continuation: candidate branch jump |dp|=%.3g "
                        "between t=%.6g and t=%.6g", gap, t0, t1)
    return results
