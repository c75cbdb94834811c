"""Finite-size ground truth: explicit Gaussian Hamiltonian sampling,
the discrete-cascade free energy, Gibbs overlap laws, and the identity
checks that tie them back to the one-body and variational layers.

Spins are enumerated exactly (product measure over atom assignments) so
the only randomness is the disorder, the truncated cascade, its field,
and the optional coupling perturbation; every inner sum is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cascade import _grow_log_weights
from .errors import BudgetExceeded, ValidationError
from .model import xi_eval, xi_eval_batch
from .onebody import QuadratureSpec, psi_eval
from .paths import lp_distance, sqrt_increments
from .util import chunked_thread_map, logsumexp, node_rng

__all__ = [
    "DisorderSample", "McEstimate", "OverlapLaw", "sample_hamiltonian",
    "free_energy_mc", "gibbs_overlap_law", "identity_checks",
    "IdentityReport", "CheckResult",
]

CONFIG_BUDGET = 16384
PAIR_BUDGET = 1 << 26


def _check_size(model, N):
    if N < 1:
        raise ValidationError("N must be >= 1")
    cap = 14 if model.D == 1 else 7
    if N > cap:
        raise BudgetExceeded(f"N={N} exceeds the enumeration budget "
                             f"(max {cap} for D={model.D})")


@dataclass(frozen=True, eq=False)
class DisorderSample:
    """One draw of the Gaussian Hamiltonian's coefficients.

    terms maps each degree p to an interleaved coefficient tensor of
    shape (D*N,)*p (spin-slot index d*N+i) already including the
    N^{-(p-1)/2} normalization; evaluate contracts it against flattened
    configurations.
    """
    model: object
    N: int
    seed: int
    terms: tuple = field(repr=False)

    def evaluate(self, x_flat):
        """H_N for a batch of flattened configurations (n, D*N)."""
        x_flat = np.atleast_2d(np.asarray(x_flat, dtype=float))
        out = np.zeros(len(x_flat))
        dn = x_flat.shape[1]
        for p, tensor in self.terms:
            cur = tensor.reshape(dn, -1)
            y = x_flat @ cur
            for _ in range(p - 1):
                y = y.reshape(len(x_flat), dn, -1)
                y = np.einsum("na,nab->nb", x_flat, y)
            out += y.reshape(-1)
        return out


def _interleave(j, p, N, D):
    """(N^p, D^p) coefficient block -> ((DN,)*p) with index d*N+i."""
    t = j.reshape((N,) * p + (D,) * p)
    perm = []
    for k in range(p):
        perm += [p + k, k]
    return t.transpose(perm).reshape((D * N,) * p)


def sample_hamiltonian(model, N, seed) -> DisorderSample:
    """Independent coefficient blocks per degree with cross-slot
    covariance given by the model's coefficient matrices."""
    _check_size(model, N)
    rng = node_rng(seed, 10)
    D = model.D
    terms = []
    for p, c in model.terms:
        lam, vec = np.linalg.eigh(c)
        factor = vec * np.sqrt(np.clip(lam, 0.0, None))
        z = rng.standard_normal((N ** p, D ** p))
        j = z @ factor.T
        tensor = _interleave(j, p, N, D) * N ** (-(p - 1) / 2.0)
        terms.append((p, tensor))
    return DisorderSample(model, int(N), int(seed), tuple(terms))


def _enumerate_configs(P1, N):
    """All atom assignments: flattened configs (n_cfg, D*N), log-weights."""
    atoms = np.asarray(P1.atoms, dtype=float)
    n_at, D = atoms.shape
    n_cfg = n_at ** N
    if n_cfg > CONFIG_BUDGET:
        raise BudgetExceeded(f"{n_at}^{N} configurations exceed the "
                             f"enumeration budget {CONFIG_BUDGET}")
    idx = np.indices((n_at,) * N).reshape(N, n_cfg).T
    x = atoms[idx]                        # (n_cfg, N, D)
    x = np.ascontiguousarray(np.swapaxes(x, 1, 2))   # (n_cfg, D, N)
    logw = np.log(np.asarray(P1.weights, dtype=float))[idx].sum(axis=1)
    return x.reshape(n_cfg, D * N), x, logw


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int


class _Session:
    """Static per-run data shared by every disorder sample."""

    def __init__(self, model, P1, N, q, n_max):
        _check_size(model, N)
        self.model, self.N, self.q, self.n_max = model, N, q, int(n_max)
        self.x_flat, self.x3, self.logw_cfg = _enumerate_configs(P1, N)
        self.n_cfg = len(self.x_flat)
        self.D = model.D
        if q.D != model.D:
            raise ValidationError("path and model dimensions differ")
        self.K = q.K
        self.L = self.n_max ** self.K
        if self.n_cfg * self.L > PAIR_BUDGET:
            raise BudgetExceeded("config x leaf grid exceeds the budget; "
                                 "reduce N, n_max, or the path depth")
        self.roots = sqrt_increments(q)
        self.zi = q.zetas[1:]
        gram = np.einsum("cdn,cen->cde", self.x3, self.x3)
        self.overlap_self = gram / N
        self.xi_self = xi_eval_batch(model, self.overlap_self)
        self.qk_term = np.einsum("cde,de->c", gram, q.final_value)
        self.sq_self = np.einsum("cde,cde->c", self.overlap_self,
                                 self.overlap_self)

    def draw(self, rng, t, t_hat, need_parts=False):
        """Exponent matrix (n_cfg, L) for one draw of all randomness.

        With need_parts, returns the pieces so several (t, t_hat) values
        can be reassembled with common random numbers.
        """
        N, L, D, K = self.N, self.L, self.D, self.K
        ham = sample_hamiltonian(self.model, N, int(rng.integers(2 ** 62)))
        h_vals = ham.evaluate(self.x_flat)
        if K > 0:
            leaf_logw, _ = _grow_log_weights(self.zi, self.n_max, rng)
        else:
            leaf_logw = np.zeros(1)
        w_field = np.zeros((L, D, N))
        for level in range(K + 1):
            z = rng.standard_normal((self.n_max ** level, D, N))
            contrib = np.einsum("de,neb->ndb", self.roots[level], z)
            w_field += np.repeat(contrib, L // self.n_max ** level, axis=0)
        cross = self.x_flat @ w_field.reshape(L, D * N).T    # (n_cfg, L)
        w_hat = rng.standard_normal((N, N))
        hat_vals = np.einsum("cdi,cdj,ij->c", self.x3, self.x3,
                             w_hat) / np.sqrt(N)
        parts = (h_vals, leaf_logw, cross, hat_vals)
        if need_parts:
            return parts
        return self.assemble(parts, t, t_hat)

    def assemble(self, parts, t, t_hat):
        h_vals, leaf_logw, cross, hat_vals = parts
        base = (self.logw_cfg + np.sqrt(2.0 * t) * h_vals
                - t * self.N * self.xi_self - self.qk_term
                - t_hat * self.N * self.sq_self
                + np.sqrt(2.0 * t_hat) * hat_vals)
        return base[:, None] + leaf_logw[None, :] + np.sqrt(2.0) * cross


def _log_z_samples(session, t_values, t_hat, samples, seed, threads):
    """Per-sample log partition values for each requested t (CRN)."""
    chunk = 16
    starts = list(range(0, samples, chunk))

    def one_chunk(s0):
        rng = node_rng(seed, 5, s0)
        count = min(chunk, samples - s0)
        out = np.empty((len(t_values), count))
        for i in range(count):
            parts = session.draw(rng, None, None, need_parts=True)
            for j, t in enumerate(t_values):
                out[j, i] = logsumexp(session.assemble(parts, t, t_hat))
        return out

    blocks = chunked_thread_map(one_chunk, starts, threads)
    return np.concatenate(blocks, axis=1)


def free_energy_mc(model, P1, N, t, q, t_hat, samples, n_max, seed,
                   threads=None) -> McEstimate:
    """Free energy -(1/N) E log Z of the discrete-cascade Gibbs weight.

    Outer Monte Carlo over disorder, cascade, field, and the coupling
    perturbation; inner sums over configurations and retained leaves are
    exact.
    """
    if t < 0 or t_hat < 0:
        raise ValidationError("t and t_hat must be nonnegative")
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    session = _Session(model, P1, N, q, n_max)
    logz = _log_z_samples(session, [t], t_hat, samples, seed, threads)[0]
    vals = -logz / N
    return McEstimate(float(vals.mean()),
                      float(vals.std(ddof=1) / np.sqrt(samples)),
                      int(samples), int(seed))


@dataclass(frozen=True)
class OverlapLaw:
    levels: np.ndarray
    level_mass: np.ndarray
    level_mass_stderr: np.ndarray
    cond_mean: np.ndarray           # (K+1, D, D)
    cond_mean_stderr: np.ndarray
    scalar_hist: tuple | None       # D=1 only: (values, joint mass per level)
    max_abs_overlap: float
    n_samples: int
    seed: int


def gibbs_overlap_law(model, P1, N, t, q, t_hat, samples, n_max, seed,
                      with_histogram=False, threads=None) -> OverlapLaw:
    """Joint law of (overlap, common-ancestor level) of two replicas.

    Per disorder sample the double sum over configuration pairs and leaf
    pairs is computed exactly through per-node Gibbs aggregates.  Level
    masses and conditional overlap means are always produced; the full
    scalar-overlap histogram (D=1 only) costs a configuration-pair
    matmul per level and is opt-in.
    """
    session = _Session(model, P1, N, q, n_max)
    K, D, n_cfg, N_sp = session.K, session.D, session.n_cfg, session.N
    scalar = with_histogram and D == 1
    if with_histogram and D != 1:
        raise ValidationError("overlap histogram is only kept for D=1")
    if scalar and n_cfg * n_cfg > PAIR_BUDGET:
        raise BudgetExceeded("configuration pair grid exceeds the budget")
    if scalar:
        r_pair = (session.x_flat @ session.x_flat.T) / N_sp
        r_values = np.unique(np.round(r_pair, 12))
        r_index = np.searchsorted(r_values, np.round(r_pair, 12)).ravel()
    chunk = 16
    starts = list(range(0, samples, chunk))

    def one_chunk(s0):
        rng = node_rng(seed, 5, s0)
        count = min(chunk, samples - s0)
        mass = np.zeros((count, K + 1))
        moment = np.zeros((count, K + 1, D, D))
        hist = np.zeros((K + 1, len(r_values))) if scalar else None
        for i in range(count):
            expo = session.draw(rng, t, t_hat)
            g = np.exp(expo - logsumexp(expo))       # (n_cfg, L)
            # tier sums: per node at level j, total mass and spin vector
            share_mass = np.empty(K + 2)
            share_mom = np.empty((K + 2, D, D))
            pair_mats = []
            for j in range(K + 1):
                nodes = session.n_max ** j
                gj = g.reshape(n_cfg, nodes, -1).sum(axis=2)   # (n_cfg, nodes)
                tvec = gj.T @ session.x_flat                   # (nodes, D*N)
                tv3 = tvec.reshape(nodes, D, N_sp)
                share_mass[j] = float(np.sum(gj.sum(axis=0) ** 2))
                share_mom[j] = np.einsum("bdn,ben->de", tv3, tv3)
                if scalar:
                    pair_mats.append(gj)
            share_mass[K + 1] = 0.0
            share_mom[K + 1] = 0.0
            mass[i] = share_mass[:K + 1] - share_mass[1:]
            moment[i] = (share_mom[:K + 1] - share_mom[1:]) / N_sp
            if scalar:
                prev = None
                for j in range(K, -1, -1):
                    pm = pair_mats[j] @ pair_mats[j].T
                    exact = pm if prev is None else pm - prev
                    hist[j] += np.bincount(r_index, weights=exact.ravel(),
                                           minlength=len(r_values))
                    prev = pm
        return mass, moment, hist

    results = chunked_thread_map(one_chunk, starts, threads)
    mass = np.concatenate([r[0] for r in results])
    moment = np.concatenate([r[1] for r in results])
    n = len(mass)
    level_mass = mass.mean(axis=0)
    mass_se = mass.std(axis=0, ddof=1) / np.sqrt(n)
    denom = np.where(level_mass > 0, level_mass, 1.0)
    cond = moment.mean(axis=0) / denom[:, None, None]
    per_sample_cond = moment / np.where(mass > 0, mass, 1.0)[:, :, None, None]
    cond_se = per_sample_cond.std(axis=0, ddof=1) / np.sqrt(n)
    hist = None
    if scalar:
        total_hist = sum(r[2] for r in results) / n
        hist = (r_values, total_hist)
    N_ = session.N
    max_abs = float(np.max(np.abs(session.x_flat @ session.x_flat.T))) / N_
    return OverlapLaw(np.arange(K + 1), level_mass, mass_se, cond, cond_se,
                      hist, max_abs, int(n), int(seed))


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    lhs: float
    rhs: float
    sigma: float
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))
        object.__setattr__(self, "sigma", float(self.sigma))


@dataclass(frozen=True)
class IdentityReport:
    checks: dict

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks.values())


def _xi_sup_unit(model, samples=400, seed=0):
    """sup of xi over the PSD Frobenius unit ball (attained on the
    boundary by convexity of the polynomial in the radial direction)."""
    rng = node_rng(seed, 11)
    best = 0.0
    cands = [np.eye(model.D) / np.sqrt(model.D)]
    for _ in range(samples):
        m = rng.standard_normal((model.D, model.D))
        w = m @ m.T
        cands.append(w / np.linalg.norm(w))
    for a in cands:
        best = max(best, xi_eval(model, a))
    return best


def identity_checks(model, P1, N, t, q, samples, seed, n_max=64,
                    threads=None) -> IdentityReport:
    """Finite-size identities: Lipschitz bound, t-derivative identity,
    dual-cone monotonicity, and the initial condition.

    All comparisons reuse common random numbers across the compared
    parameter values, so the Monte Carlo error of each difference is the
    per-sample spread of the difference itself.  Every session truncates
    its cascade at n_max atoms per node.
    """
    # check (d)'s psi first: past the quadrature budget, fail before sampling
    psi = psi_eval(P1, q, QuadratureSpec()).value
    session = _Session(model, P1, N, q, n_max)
    checks = {}

    # (a) Lipschitz in (t, q)
    q_alt = q.with_values([0.85 * v for v in q.values])
    t_alt = t + 0.05
    session_alt = _Session(model, P1, N, q_alt, n_max)
    lz = _log_z_samples(session, [t], 0.0, samples, seed, threads)[0] / N
    lz_alt = _log_z_samples(session_alt, [t_alt], 0.0, samples, seed,
                            threads)[0] / N
    diff = -(lz.mean() - lz_alt.mean())
    sig = float((lz - lz_alt).std(ddof=1) / np.sqrt(samples))
    bound = lp_distance(q, q_alt, 1) + abs(t - t_alt) * _xi_sup_unit(model)
    checks["lipschitz"] = CheckResult(abs(diff) <= bound + 3 * sig,
                                      abs(diff), bound, sig)

    # (b) t-derivative vs Gibbs overlap moment
    h = 0.02 * max(t, 0.25)
    t_lo = max(t - h, 0.0)
    lz3 = _log_z_samples(session, [t_lo, t, t + h], 0.0, samples, seed,
                         threads)
    fd = -(lz3[2] - lz3[0]) / (N * (t + h - t_lo))
    gibbs = _gibbs_xi_moment(session, t, samples, seed, threads)
    lhs, rhs = float(fd.mean()), float(gibbs.mean())
    sig = float(np.sqrt(fd.std(ddof=1) ** 2 / samples
                        + gibbs.std(ddof=1) ** 2 / samples))
    checks["dt_identity"] = CheckResult(abs(lhs - rhs) <= 3 * sig + h * h,
                                        lhs, rhs, sig)

    # (c) monotonicity along the dual cone
    q_lo = q.with_values([0.7 * v for v in q.values])
    session_lo = _Session(model, P1, N, q_lo, n_max)
    lz_lo = _log_z_samples(session_lo, [t], 0.0, samples, seed, threads)[0] / N
    dmono = -(lz.mean() - lz_lo.mean())
    sig = float((lz - lz_lo).std(ddof=1) / np.sqrt(samples))
    checks["monotone"] = CheckResult(dmono >= -3 * sig, dmono, 0.0, sig,
                                     note="F(t,q) - F(t,q_lower)")

    # (d) initial condition at t = 0
    lz0 = _log_z_samples(session, [0.0], 0.0, samples, seed, threads)[0] / N
    sig = float(lz0.std(ddof=1) / np.sqrt(samples))
    checks["initial"] = CheckResult(abs(-lz0.mean() - psi) <= 3 * sig,
                                    float(-lz0.mean()), psi, sig)
    return IdentityReport(checks)


def _gibbs_xi_moment(session, t, samples, seed, threads):
    """Per-sample exact Gibbs expectation of xi(overlap of two replicas).

    Replicas are conditionally independent given the randomness, so the
    pair expectation factors through the leaf-marginal config weights.
    """
    chunk = 16
    starts = list(range(0, samples, chunk))

    def one_chunk(s0):
        rng = node_rng(seed, 5, s0)
        count = min(chunk, samples - s0)
        out = np.empty(count)
        for i in range(count):
            expo = session.draw(rng, t, 0.0)
            g = np.exp(expo - logsumexp(expo)).sum(axis=1)   # (n_cfg,)
            out[i] = _xi_pair_moment(session, g)
        return out

    return np.concatenate(chunked_thread_map(one_chunk, starts, threads))


def _xi_pair_moment(session, g):
    """sum_{c,c'} g_c g_{c'} xi(x_c x_{c'}^T / N) via moment tensors."""
    model, N, D = session.model, session.N, session.D
    x3 = session.x3
    total = 0.0
    for p, c in model.terms:
        q_t = g.copy()                       # start: (n_cfg,)
        shape_d, shape_i = [], []
        arr = q_t
        for _ in range(p):
            arr = np.einsum("c...,cdn->c...dn", arr, x3)
            shape_d.append(D)
            shape_i.append(N)
        # arr axes: (c, d1, n1, d2, n2, ...); sum over c then regroup
        arr = arr.sum(axis=0)
        perm = [2 * k for k in range(p)] + [2 * k + 1 for k in range(p)]
        q_p = arr.transpose(perm).reshape(D ** p, N ** p)
        total += float(np.einsum("aj,ab,bj->", q_p, c, q_p)) / N ** p
    return total
