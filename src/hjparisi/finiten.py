"""Finite-size ground truth: explicit Gaussian Hamiltonian sampling,
the discrete-cascade free energy, Gibbs overlap laws, and the identity
checks that tie them back to the one-body and variational layers.

Spins are enumerated exactly (product measure over atom assignments) so
the only randomness is the disorder, the truncated cascade, its field,
and the optional coupling perturbation; every inner sum is exact.  One
sample loop draws it from streams keyed by the seed alone, so equal seeds
give common random numbers, and applies a per-sample statistic to each
draw: `identity_checks` reads all it compares, on every compared path,
from one pass, and every estimator reports the largest truncation ratio
drawn.  Each chunk of 16 samples draws all of them at once from its own
stream: the coefficients, the Hamiltonian values (contracted in blocks
of samples), the cascades, the node Gaussians and the coupling matrices
come in one array each with a leading sample axis.  A sample keeps, per
compared path, a leaf factor [sqrt(2) field ; leaf log-weights ; 1] of
D*N + 2 rows; each chunk owns a config factor [configs, 1, config terms]
and an exponent buffer, so one matrix product builds each config-by-leaf
exponent matrix and a sample allocates no config-by-leaf array.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .cascade import _check_int, _check_seed, _grow_log_weights, _leaf_field
from .errors import BudgetExceeded, ValidationError
from .model import xi_eval_batch
from .onebody import QuadratureSpec, psi_eval
from .paths import lp_distance, sqrt_increments
from .util import check_times, chunked_thread_map, node_rng

__all__ = [
    "DisorderSample", "McEstimate", "OverlapLaw", "sample_hamiltonian",
    "free_energy_mc", "gibbs_overlap_law", "identity_checks",
    "IdentityReport", "CheckResult",
]

CONFIG_BUDGET = 16384
PAIR_BUDGET = 1 << 26
# samples one stream draws at once, and one chunk of the sample loop
CHUNK = 16
# doubles the Hamiltonian contraction's first product, n_cfg * samples *
# (D*N)**(p-1), may hold; a chunk is contracted in blocks of samples that fit
CONTRACT_DOUBLES = 1 << 20


def _check_size(model, N):
    _check_int("N", N)
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
        terms = [(p, tensor[None]) for p, tensor in self.terms]
        return _hamiltonian_values(terms, x_flat, 1)[0]


def _hamiltonian_values(terms, x_flat, count):
    """H_N of `count` coefficient draws on every configuration, shape
    (count, n): terms holds per degree p a (count, (D*N,)*p) tensor.  The
    sample axis rides last in the product's columns, so each contraction
    over one spin slot serves every sample of a block; a block holds at
    most as many samples as keep the first product, n * samples *
    (D*N)**(p-1) doubles, under CONTRACT_DOUBLES."""
    n, dn = x_flat.shape
    out = np.zeros((count, n))
    for p, tensor in terms:
        width = dn ** (p - 1)
        cap = max(1, CONTRACT_DOUBLES // (n * width))
        for s0 in range(0, count, cap):
            block = tensor[s0:s0 + cap]
            b = len(block)
            y = x_flat @ np.moveaxis(block, 0, -1).reshape(dn, -1)
            for _ in range(p - 1):
                y = y.reshape(n, dn, -1)
                y = np.einsum("na,nab->nb", x_flat, y)
            out[s0:s0 + b] += y.T
    return out


def _check_run(model, N, samples, seed):
    """Every estimator's checks of its integers, made before any work."""
    _check_size(model, N)
    _check_int("samples", samples)
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    _check_seed("seed", seed)


def _interleave(j, p, N, D):
    """(count, N^p, D^p) coefficient blocks -> (count, (DN,)*p) with index
    d*N+i."""
    t = j.reshape((len(j),) + (N,) * p + (D,) * p)
    perm = [0]
    for k in range(p):
        perm += [1 + p + k, 1 + k]
    return t.transpose(perm).reshape((len(j),) + (D * N,) * p)


def _draw_terms(model, N, rng, count):
    """`count` independent draws of the coefficient tensors: per degree p
    one (count, (D*N,)*p) array, with cross-slot covariance given by the
    model's coefficient matrices, drawn with their square roots
    model.factors, and the N^{-(p-1)/2} normalization included."""
    D = model.D
    terms = []
    for (p, _), factor in zip(model.terms, model.factors):
        z = rng.standard_normal((count, N ** p, D ** p))
        tensor = _interleave(z @ factor.T, p, N, D) * N ** (-(p - 1) / 2.0)
        terms.append((p, tensor))
    return terms


def sample_hamiltonian(model, N, seed) -> DisorderSample:
    """One draw of the coefficient tensors, independent blocks per degree
    with cross-slot covariance given by the model's coefficient matrices,
    from the stream keyed by (seed, 10)."""
    _check_size(model, N)
    _check_seed("seed", seed)
    terms = _draw_terms(model, N, node_rng(seed, 10), 1)
    return DisorderSample(model, int(N), int(seed),
                          tuple((p, tensor[0]) for p, tensor in terms))


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
    truncation_ratio: float = 0.0


_Draw = namedtuple("_Draw", "h_vals factors w_hat")


class _Session:
    """Static per-run data shared by every disorder sample, for compared
    paths of one partition: each path's roots scale one draw's field."""

    def __init__(self, model, P1, N, paths, n_max):
        if any(q.D != model.D for q in paths):
            raise ValidationError("path and model dimensions differ")
        K = paths[0].K
        # as sample_cascade: a depth-0 path has one leaf whatever n_max is
        _check_int("n_max", n_max)
        if K > 0 and n_max < 2:
            raise ValidationError("n_max must be at least 2")
        self.model, self.N, self.n_max = model, N, int(n_max)
        self.x_flat, self.x3, self.logw_cfg = _enumerate_configs(P1, N)
        self.n_cfg = len(self.x_flat)
        self.D = model.D
        self.K, self.L = K, self.n_max ** K
        # a chunk holds one (n_cfg, L) exponent grid, and its draw a leaf
        # factor per compared path and the Hamiltonian values per sample
        held = self.n_cfg * self.L + CHUNK * (
            len(paths) * (self.D * N + 2) * self.L + self.n_cfg)
        if held > PAIR_BUDGET:
            raise BudgetExceeded("config x leaf grid exceeds the budget; "
                                 "reduce N, n_max, or the path depth")
        self.roots = [sqrt_increments(q) for q in paths]
        self.zi = paths[0].zetas[1:]
        gram = np.einsum("cdn,cen->cde", self.x3, self.x3)
        self.overlap_self = gram / N
        self.xi_self = xi_eval_batch(model, self.overlap_self)
        self.qk_term = [np.einsum("cde,de->c", gram, q.final_value)
                        for q in paths]
        self.sq_self = np.einsum("cde,cde->c", self.overlap_self,
                                 self.overlap_self)

    def buffers(self):
        """A chunk's own work buffers: the config factor [x_flat, 1, base]
        of shape (n_cfg, D*N + 2), whose last column assemble rewrites, and
        an uninitialised (n_cfg, L) exponent matrix."""
        return (np.hstack([self.x_flat, np.ones((self.n_cfg, 2))]),
                np.empty((self.n_cfg, self.L)))

    def draw(self, rng, count):
        """The parts of `count` draws of all randomness, each with a
        leading sample axis: Hamiltonian values per config (count, n_cfg),
        each path's leaf factor [sqrt(2) F^T ; leaf_logw ; 1] in factors
        (count, paths, D*N + 2, L), with F the (L, D*N) field at the
        leaves, and the coupling perturbation's matrices (count, N, N);
        and the largest truncation ratio of the count cascades."""
        N, D, K, L = self.N, self.D, self.K, self.L
        terms = _draw_terms(self.model, N, rng, count)
        h_vals = _hamiltonian_values(terms, self.x_flat, count)
        leaf_logw, ratio = _grow_log_weights(self.zi, self.n_max, rng,
                                             batch=count)
        # sample i's level-l nodes are rows i * n_max**l onward, so the
        # count cascades' leaves fill (count * L) rows in sample order
        zs = [rng.standard_normal((count * self.n_max ** level, D, N))
              for level in range(K + 1)]
        factors = np.empty((count, len(self.roots), D * N + 2, L))
        for k, roots in enumerate(self.roots):
            field = _leaf_field(roots, zs).reshape(count, L, D * N)
            np.multiply(np.sqrt(2.0), field.transpose(0, 2, 1),
                        out=factors[:, k, :-2])
        factors[:, :, -2] = leaf_logw[:, None]
        factors[:, :, -1] = 1.0
        w_hat = rng.standard_normal((count, N, N))
        return _Draw(h_vals, factors, w_hat), ratio

    def assemble(self, parts, path, t, t_hat, bufs):
        """Exponent matrix (n_cfg, L) of one draw at (t, t_hat) on the
        path of index `path`, written into the exponent buffer of bufs:
        the config terms fill the config factor's last column and one
        product with the path's leaf factor adds them to the field and
        leaf terms."""
        xaug, expo = bufs
        base = (self.logw_cfg + np.sqrt(2.0 * t) * parts.h_vals
                - t * self.N * self.xi_self - self.qk_term[path])
        if t_hat > 0:
            # sum_d x_cd^T W x_cd: one BLAS product, then a dot per config
            N = self.N
            xw = (self.x3.reshape(-1, N) @ parts.w_hat).reshape(self.n_cfg, -1)
            hat_vals = np.einsum("ci,ci->c", self.x_flat, xw) / np.sqrt(N)
            base -= t_hat * N * self.sq_self
            base += np.sqrt(2.0 * t_hat) * hat_vals
        xaug[:, -1] = base
        return np.matmul(xaug, parts.factors[path], out=expo)


def _log_z(expo, normalize=False):
    """log sum exp of all entries of expo, computed in place: expo is left
    holding exp(expo - max), or with normalize the Gibbs weights
    exp(expo - log Z)."""
    m = expo.max()
    expo -= m
    np.exp(expo, out=expo)
    total = expo.sum()
    if normalize:
        expo *= 1.0 / total
    return float(np.log(total) + m)


def _crn_samples(session, make_stat, samples, seed, threads):
    """stat(parts) of `samples` draws of session, in sample order, and the
    largest truncation ratio drawn.  Each CHUNK-sample chunk draws its
    samples at once from its own stream keyed by (seed, chunk start), so
    sessions run with one seed share common random numbers at any thread
    count.  Each chunk calls make_stat() once for its stat, whose work
    buffers are that chunk's alone: no two threads ever write to one
    buffer."""

    def one_chunk(s0):
        parts, ratio = session.draw(node_rng(seed, 5, s0),
                                    min(CHUNK, samples - s0))
        stat = make_stat()
        return [stat(_Draw(*sample)) for sample in zip(*parts)], ratio

    blocks = chunked_thread_map(one_chunk, range(0, samples, CHUNK), threads)
    return ([v for stats, _ in blocks for v in stats],
            max(ratio for _, ratio in blocks))


def free_energy_mc(model, P1, N, t, q, t_hat, samples, n_max, seed,
                   threads=None) -> McEstimate:
    """Free energy -(1/N) E log Z of the discrete-cascade Gibbs weight.

    Outer Monte Carlo over disorder, cascade, field, and the coupling
    perturbation; inner sums over configurations and retained leaves are
    exact.
    """
    check_times(t, t_hat)
    _check_run(model, N, samples, seed)
    session = _Session(model, P1, N, [q], n_max)

    def make_stat():
        bufs = session.buffers()
        return lambda p: _log_z(session.assemble(p, 0, t, t_hat, bufs))

    logz, ratio = _crn_samples(session, make_stat, samples, seed, threads)
    vals = -np.array(logz) / N
    return McEstimate(float(vals.mean()),
                      float(vals.std(ddof=1) / np.sqrt(samples)),
                      int(samples), int(seed), ratio)


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
    truncation_ratio: float = 0.0


def gibbs_overlap_law(model, P1, N, t, q, t_hat, samples, n_max, seed,
                      with_histogram=False, threads=None) -> OverlapLaw:
    """Joint law of (overlap, common-ancestor level) of two replicas.

    Per disorder sample the double sum over configuration pairs and leaf
    pairs is computed exactly through per-node Gibbs aggregates.  Level
    masses and conditional overlap means are always produced; the full
    scalar-overlap histogram (D=1 only) costs a configuration-pair
    matmul per level and is opt-in.
    """
    check_times(t, t_hat)
    _check_run(model, N, samples, seed)
    if with_histogram:
        if model.D != 1:
            raise ValidationError("overlap histogram is only kept for D=1")
        if len(P1.atoms) ** (2 * N) > PAIR_BUDGET:
            raise BudgetExceeded("configuration pair grid exceeds the budget")
    session = _Session(model, P1, N, [q], n_max)
    K, D, n_cfg, N_sp = session.K, session.D, session.n_cfg, session.N
    if with_histogram:
        r_pair = (session.x_flat @ session.x_flat.T) / N_sp
        r_values = np.unique(np.round(r_pair, 12))
        r_index = np.searchsorted(r_values, np.round(r_pair, 12)).ravel()

    def make_stat():
        bufs = session.buffers()
        if with_histogram:
            pair_bufs = np.empty((2, n_cfg, n_cfg))

        def stat(parts):
            g = session.assemble(parts, 0, t, t_hat, bufs)
            _log_z(g, normalize=True)
            # tier sums: per node at level j, total mass and spin vector
            share_mass = np.zeros(K + 2)
            share_mom = np.zeros((K + 2, D, D))
            pair_mats = []
            for j in range(K + 1):
                nodes = session.n_max ** j
                # (n_cfg, nodes); at the leaf level that is g itself
                gj = g if j == K else g.reshape(n_cfg, nodes, -1).sum(axis=2)
                tvec = gj.T @ session.x_flat                   # (nodes, D*N)
                tv3 = tvec.reshape(nodes, D, N_sp)
                share_mass[j] = float(np.sum(gj.sum(axis=0) ** 2))
                share_mom[j] = np.einsum("bdn,ben->de", tv3, tv3)
                pair_mats.append(gj)
            hist = None
            if with_histogram:
                # pair mass sharing at least j levels, minus that sharing
                # j + 1, taken in two alternating pair buffers
                hist = np.zeros((K + 1, len(r_values)))
                cur, prev = pair_bufs
                for j in range(K, -1, -1):
                    np.matmul(pair_mats[j], pair_mats[j].T, out=cur)
                    exact = cur if j == K else np.subtract(cur, prev,
                                                           out=prev)
                    hist[j] = np.bincount(r_index, weights=exact.ravel(),
                                          minlength=len(r_values))
                    cur, prev = prev, cur
            return (share_mass[:K + 1] - share_mass[1:],
                    (share_mom[:K + 1] - share_mom[1:]) / N_sp, hist)

        return stat

    results, ratio = _crn_samples(session, make_stat, samples, seed,
                                  threads)
    mass = np.array([r[0] for r in results])
    moment = np.array([r[1] for r in results])
    n = len(mass)
    level_mass = mass.mean(axis=0)
    mass_se = mass.std(axis=0, ddof=1) / np.sqrt(n)
    denom = np.where(level_mass > 0, level_mass, 1.0)
    cond = moment.mean(axis=0) / denom[:, None, None]
    per_sample_cond = moment / np.where(mass > 0, mass, 1.0)[:, :, None, None]
    cond_se = per_sample_cond.std(axis=0, ddof=1) / np.sqrt(n)
    hist = ((r_values, sum(r[2] for r in results) / n) if with_histogram
            else None)
    # |x_c . x_c'| <= |x_c| |x_c'| (Cauchy-Schwarz), with equality for the
    # config that puts the largest-norm atom at every site
    max_abs = float(np.max(np.sum(P1.atoms ** 2, axis=1)))
    return OverlapLaw(np.arange(K + 1), level_mass, mass_se, cond, cond_se,
                      hist, max_abs, int(n), int(seed), ratio)


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
    truncation_ratio: float = 0.0   # largest over the one pass's draws

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks.values())


def _xi_sup_unit(model, samples=400, seed=0):
    """sup of xi over the PSD Frobenius unit ball (attained on the
    boundary by convexity of the polynomial in the radial direction)."""
    D = model.D
    m = node_rng(seed, 11).standard_normal((samples, D, D))
    w = m @ np.swapaxes(m, 1, 2)
    cands = np.concatenate([np.eye(D)[None] / np.sqrt(D),
                            w / np.linalg.norm(w, axis=(1, 2))[:, None, None]])
    return max(0.0, float(np.max(xi_eval_batch(model, cands))))


def identity_checks(model, P1, N, t, q, samples, seed, n_max=64,
                    threads=None) -> IdentityReport:
    """Finite-size identities: Lipschitz bound, t-derivative identity,
    dual-cone monotonicity, and the initial condition.

    The compared paths q, 0.85 q and 0.7 q share q's partition, so one
    session serves all three and one pass reads every compared value from
    the same draws: common random numbers across the compared parameter
    values, so the Monte Carlo error of each difference is the per-sample
    spread of the difference itself.  The cascade is truncated at n_max
    atoms per node.
    """
    check_times(t)
    _check_run(model, N, samples, seed)
    # check (d)'s psi first: past the quadrature budget, fail before sampling
    psi = psi_eval(P1, q, QuadratureSpec()).value
    h = 0.02 * max(t, 0.25)
    t_lo = max(t - h, 0.0)
    q_alt = q.with_values([0.85 * v for v in q.values])
    t_alt = t + 0.05
    q_lo = q.with_values([0.7 * v for v in q.values])
    session = _Session(model, P1, N, [q, q_alt, q_lo], n_max)

    def make_stat():
        bufs = session.buffers()

        def stat(parts):
            # log Z on q at t, t_lo, t + h and 0, on q_alt at t_alt and on
            # q_lo at t, then the Gibbs xi moment on q at t: replicas are
            # conditionally independent given the randomness, so the pair
            # expectation factors through the config marginals
            g = session.assemble(parts, 0, t, 0.0, bufs)
            lz_t = _log_z(g, normalize=True)
            gibbs = _xi_pair_moment(session, g.sum(axis=1))
            lz = [_log_z(session.assemble(parts, path, s, 0.0, bufs))
                  for path, s in ((0, t_lo), (0, t + h), (0, 0.0),
                                  (1, t_alt), (2, t))]
            return [lz_t, *lz, gibbs]

        return stat

    vals, ratio = _crn_samples(session, make_stat, samples, seed, threads)
    lz_t, lz_down, lz_up, lz0, lz_alt, lz_lo, gibbs = np.array(vals).T
    lz, lz0, lz_alt, lz_lo = lz_t / N, lz0 / N, lz_alt / N, lz_lo / N
    checks = {}

    # (a) Lipschitz in (t, q)
    diff = -(lz.mean() - lz_alt.mean())
    sig = float((lz - lz_alt).std(ddof=1) / np.sqrt(samples))
    bound = lp_distance(q, q_alt, 1) + abs(t - t_alt) * _xi_sup_unit(model)
    checks["lipschitz"] = CheckResult(abs(diff) <= bound + 3 * sig,
                                      abs(diff), bound, sig)

    # (b) t-derivative vs Gibbs overlap moment
    fd = -(lz_up - lz_down) / (N * (t + h - t_lo))
    lhs, rhs = float(fd.mean()), float(gibbs.mean())
    sig = float(np.sqrt(fd.std(ddof=1) ** 2 / samples
                        + gibbs.std(ddof=1) ** 2 / samples))
    checks["dt_identity"] = CheckResult(abs(lhs - rhs) <= 3 * sig + h * h,
                                        lhs, rhs, sig)

    # (c) monotonicity along the dual cone
    dmono = -(lz.mean() - lz_lo.mean())
    sig = float((lz - lz_lo).std(ddof=1) / np.sqrt(samples))
    checks["monotone"] = CheckResult(dmono >= -3 * sig, dmono, 0.0, sig,
                                     note="F(t,q) - F(t,q_lower)")

    # (d) initial condition at t = 0
    sig = float(lz0.std(ddof=1) / np.sqrt(samples))
    checks["initial"] = CheckResult(abs(-lz0.mean() - psi) <= 3 * sig,
                                    float(-lz0.mean()), psi, sig)
    return IdentityReport(checks, ratio)


def _xi_pair_moment(session, g):
    """sum_{c,c'} g_c g_{c'} xi(x_c x_{c'}^T / N) via moment tensors."""
    model, N, D = session.model, session.N, session.D
    x3 = session.x3
    total = 0.0
    for p, c in model.terms:
        arr = g                              # start: (n_cfg,)
        for _ in range(p):
            arr = np.einsum("c...,cdn->c...dn", arr, x3)
        # arr axes: (c, d1, n1, d2, n2, ...); sum over c then regroup
        arr = arr.sum(axis=0)
        perm = [2 * k for k in range(p)] + [2 * k + 1 for k in range(p)]
        q_p = arr.transpose(perm).reshape(D ** p, N ** p)
        total += float(np.einsum("aj,ab,bj->", q_p, c, q_p)) / N ** p
    return total
