"""Finite-size ground truth: explicit Gaussian Hamiltonian sampling,
the discrete-cascade free energy, Gibbs overlap laws, and the identity
checks that tie them back to the one-body and variational layers.

Spins are enumerated exactly (product measure over atom assignments), so
the only randomness is the disorder, the truncated cascade, its field and
the optional coupling perturbation; every inner sum is exact.  One sample
loop draws it in chunks of 16 samples, each from its own stream keyed by
the seed alone, so equal seeds give common random numbers: the
coefficients, cascades, node Gaussians and coupling matrices of a chunk
come in one array each with a leading sample axis, and `identity_checks`
reads all it compares, on every compared path, from one pass.

Every sum over a config's sites is split by halves, config c = (a, b).
A degree-p polynomial with coefficient tensor T is sum_m U_m T_m V_(p-m)^T
over the tensor powers U_m, V_m of the two halves' configs, T_m summing
T's blocks with m slots on the first half: so go the Hamiltonian and the
coupling perturbation, and the Gibbs xi moment through the adjoint.  The
field enters as sqrt(2) x . F_l, so each term of the partition sum
factors as exp(base_ab) E1[a, l] E2[b, l] w_l, and log Z and the Gibbs
aggregates of a chunk come from one (n1, n2) x (n2, L) product per
sample.  Only the D=1 overlap histogram forms (config, leaf) weights: for
a measure on two atoms +-a it is read off their Walsh-Hadamard spectrum
(the MacWilliams identity), any other D=1 measure bins config-pair
matrices.  `_check_run` makes every input check and budget first.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .cascade import _check_int, _check_seed, _grow_log_weights, _leaf_field
from .errors import BudgetExceeded, ValidationError
from .model import xi_eval_batch
from .onebody import QuadratureSpec, psi_eval
from .paths import lp_distance, sqrt_increments
from .util import check_times, chunked_thread_map, node_rng, resolve_threads

__all__ = [
    "DisorderSample", "McEstimate", "OverlapLaw", "sample_hamiltonian",
    "free_energy_mc", "gibbs_overlap_law", "identity_checks",
    "IdentityReport", "CheckResult",
]

CONFIG_BUDGET = 16384
PAIR_BUDGET = 1 << 26
# samples one stream draws at once, and one chunk of the sample loop
CHUNK = 16


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
    """One draw of the Gaussian Hamiltonian's coefficients: terms holds
    per degree p a tensor (D*N,)*p, spin-slot index d*N+i, with the
    N^{-(p-1)/2} normalization; evaluate contracts it with configs."""
    model: object
    N: int
    seed: int
    terms: tuple = field(repr=False)

    def evaluate(self, x_flat):
        """H_N for a batch of flattened configurations (n, D*N)."""
        x_flat = np.atleast_2d(np.asarray(x_flat, dtype=float))
        dn = self.model.D * self.N
        if x_flat.ndim != 2 or x_flat.shape[1] != dn:
            raise ValidationError(f"configurations must have shape (n, "
                                  f"D*N) = (n, {dn}), got {x_flat.shape}")
        n, out = len(x_flat), np.zeros(len(x_flat))
        for p, tensor in self.terms:
            y = x_flat @ tensor.reshape(dn, -1)
            for _ in range(p - 1):
                y = np.einsum("na,nab->nb", x_flat, y.reshape(n, dn, -1))
            out += y[:, 0]
        return out


def _sign_pair(P1):
    """Whether P1 sits on two atoms +-a, `_spectral_histogram`'s case."""
    a = P1.atoms
    return a.shape == (2, 1) and a[0, 0] == -a[1, 0] != 0


def _check_run(model, P1, N, paths, n_max, samples, seed, t, t_hat=0.0,
               histogram=False):
    """Every estimator's input checks and budgets, made before any work;
    returns the doubles one full chunk holds on the path the run takes."""
    check_times(t, t_hat)
    _check_size(model, N)
    _check_int("samples", samples)
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    _check_seed("seed", seed)
    D, K = model.D, paths[0].K
    if P1.D != D or any(q.D != D for q in paths):
        raise ValidationError(f"dimensions differ: the model has D={D}, the"
                              f" measure D={P1.D}, the path D={paths[0].D}")
    # as sample_cascade: a depth-0 path has one leaf whatever n_max is
    _check_int("n_max", n_max)
    if K > 0 and n_max < 2:
        raise ValidationError("n_max must be at least 2")
    if histogram and D != 1:
        raise ValidationError("overlap histogram is only kept for D=1")
    n_at = len(P1.atoms)
    n_cfg, n1, dn, L = n_at ** N, n_at ** (N // 2), D * N, int(n_max) ** K
    if n_cfg > CONFIG_BUDGET:
        raise BudgetExceeded(f"{n_at}^{N} configurations exceed the "
                             f"enumeration budget {CONFIG_BUDGET}")
    # config arrays; Hamiltonian and config terms (at t_hat > 0 the
    # coupling's two more); node Gaussians; each path's fields and split
    # factors; identity_checks' marginals; the halves' tensor powers, and
    # per degree the block index, coefficients, half blocks, largest middle
    # product and moments; the histogram's buffers
    checks = len(paths) > 1
    n2, w1, w2 = n_cfg // n1, D * (N // 2), D * (N - N // 2)
    degrees = {p for p, _ in model.terms} | {2}
    held = n_cfg * (dn + 2 * D * D + 3 + len(paths)) + CHUNK * (
        (3 + 2 * checks + 2 * (t_hat > 0)) * n_cfg
        + L * (2 * dn + len(paths) * (dn + 2 * (n1 + n2))))
    held += sum(n1 * w1 ** m + n2 * w2 ** m for m in range(max(degrees) + 1))
    for p in degrees:
        held += dn ** p + CHUNK * (
            (5 + 2 * checks) * dn ** p
            + max(min(n1 * w2 ** (p - m), w1 ** m * n2) for m in range(p + 1)))
    if histogram:
        held += (n_cfg * (2 * L + N + 1 + CHUNK * (K + 1)) if _sign_pair(P1)
                 else 4 * n_cfg ** 2 + n_cfg * L)
    if held > PAIR_BUDGET:
        raise BudgetExceeded(f"one chunk of {CHUNK} samples holds {held} "
                             f"doubles, over the budget {PAIR_BUDGET}")
    return held


def _interleave(j, p, N, D):
    """(count, N^p, D^p) coefficients -> (count, (DN,)*p), index d*N+i."""
    t = j.reshape((len(j),) + (N,) * p + (D,) * p)
    perm = [0] + [a for k in range(p) for a in (1 + p + k, 1 + k)]
    return t.transpose(perm).reshape((len(j),) + (D * N,) * p)


def _draw_terms(model, N, rng, count):
    """`count` independent draws of the coefficient tensors: per degree p
    one (count, N**p, D**p) array, sites then dimensions, with cross-slot
    covariance given by the model's coefficient matrices, drawn with their
    square roots model.factors, and the N^{-(p-1)/2} normalization
    included."""
    return [(p, rng.standard_normal((count, N ** p, model.D ** p))
             @ factor.T * N ** (-(p - 1) / 2.0))
            for (p, _), factor in zip(model.terms, model.factors)]


def sample_hamiltonian(model, N, seed) -> DisorderSample:
    """One draw of the coefficient tensors, independent blocks per degree
    with cross-slot covariance given by the model's coefficient matrices,
    from the stream keyed by (seed, 10)."""
    _check_size(model, N)
    _check_seed("seed", seed)
    terms = _draw_terms(model, N, node_rng(seed, 10), 1)
    return DisorderSample(model, int(N), int(seed), tuple(
        (p, _interleave(tensor, p, N, model.D)[0]) for p, tensor in terms))


def _enumerate_configs(P1, N):
    """All atom assignments: flattened configs (n_cfg, D*N), log-weights."""
    atoms = np.asarray(P1.atoms, dtype=float)
    n_at, D = atoms.shape
    n_cfg = n_at ** N
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


_Draw = namedtuple("_Draw", "h_vals leaf_logw fields w_hat")


class _Gibbs(namedtuple("_Gibbs", "cfg e1 e2 p1 weight log_z")):
    """The Gibbs weights of a chunk's samples in split form: sample s puts
    cfg[s, a, b] e1[s, a, l] e2[s, b, l] weight[s, l] on the config of
    halves (a, b) at leaf l.  p1 = e1 * (cfg @ e2) sums out the second
    half, and log_z holds each sample's log Z."""

    def leaf_mass(self):
        """Gibbs mass of each leaf, shape (count, L)."""
        return self.p1.sum(axis=1) * self.weight

    def marginal(self):
        """Gibbs mass of each config summed over the leaves, (count, n1,
        n2): cfg * (e1 diag(weight) e2^T)."""
        return self.cfg * np.matmul(self.e1 * self.weight[:, None],
                                    self.e2.transpose(0, 2, 1))

    def grid(self, s, out):
        """Sample s's (n_cfg, L) Gibbs weights, written into out of shape
        (n1, n2, L) by a broadcast product."""
        np.multiply(self.cfg[s][:, :, None], self.e1[s][:, None], out=out)
        out *= (self.e2[s] * self.weight[s])[None]
        return out.reshape(-1, out.shape[-1])


def _exp_shifted(a):
    """exp(a - max) in place, the max taken over axis 1 per leaf; returns
    the array and the max, shape (count, L)."""
    top = a.max(axis=1)
    a -= top[:, None]
    return np.exp(a, out=a), top


def _node_sums(a, nodes):
    """Sums of a's last (leaf) axis over each of `nodes` contiguous blocks
    of leaves, the nodes of one cascade level."""
    return a.reshape(*a.shape[:-1], nodes, -1).sum(axis=-1)


def _half_blocks(p, D, N, N1):
    """Where the half blocks of a degree-p tensor (N**p, D**p) sit in its
    flat slots, grouped by m, the number of slots on the first N1 sites:
    per m one row per block, first-half slots first and each slot's
    (d, site) row-major, as U_m T_m V_(p-m)^T reads them."""
    index = np.arange(N ** p * D ** p).reshape((N,) * p + (D,) * p)
    groups = [[] for _ in range(p + 1)]
    for second in itertools.product((0, 1), repeat=p):
        block = index[tuple(slice(N1 * h, N if h else N1) for h in second)]
        slots = sorted(range(p), key=second.__getitem__)
        groups[p - sum(second)].append(block.transpose(
            [a for k in slots for a in (p + k, k)]).ravel())
    return [np.array(group) for group in groups]


def _tensor_powers(x, degree):
    """The tensor powers x^(x)m, m = 0..degree, of each row of x (n, w):
    (n, w**m), but m = 0 is one row of 1 that broadcasts over the n."""
    powers = [np.ones((1, 1))]
    for _ in range(degree):
        powers.append(np.einsum("ai,aj->aij", powers[-1], x).reshape(
            len(x), -1))
    return powers


class _Session:
    """Static per-run data shared by every disorder sample, for compared
    paths of one partition: each path's roots scale one draw's field.

    Configs are split by sites into halves: the first N1 = N // 2 sites
    (n1 configs) and the rest (n2), so config c = a * n2 + b since site
    0 is the most significant (`_enumerate_configs`).  Every per-config
    polynomial comes from the halves' tensor powers (`values`)."""

    def __init__(self, model, P1, N, paths, n_max):
        K = paths[0].K
        self.model, self.N, self.n_max = model, N, int(n_max)
        self.x_flat, self.x3, self.logw_cfg = _enumerate_configs(P1, N)
        self.n_cfg = len(self.x_flat)
        self.D = D = model.D
        self.K, self.L = K, self.n_max ** K
        self.N1 = N1 = N // 2
        self.n1 = len(P1.atoms) ** N1
        self.n2 = self.n_cfg // self.n1
        # the halves' tensor powers up to the largest degree, the model's
        # or the coupling's 2: U_1 (n1, D*N1) and V_1 (n2, D*(N - N1)) are
        # the halves' configs
        halves = self.x3.reshape(self.n1, self.n2, D, N)
        degrees = {p for p, _ in model.terms} | {2}
        self.U, self.V = (
            _tensor_powers(x.reshape(len(x), -1), max(degrees))
            for x in (halves[:, 0, :, :N1], halves[0, :, :, N1:]))
        self.roots = [sqrt_increments(q) for q in paths]
        self.zi = paths[0].zetas[1:]
        gram = np.einsum("cdn,cen->cde", self.x3, self.x3)
        self.xi_self = xi_eval_batch(model, gram / N)
        self.qk_term = [np.einsum("cde,de->c", gram, q.final_value)
                        for q in paths]
        self.sq_self = np.einsum("cde,cde->c", gram, gram) / N ** 2
        # per degree and m: the blocks' index, U_m, V_(p-m), and whether
        # U_m T_m V_(p-m)^T takes U_m first, which holds the smaller middle
        # product
        self.split = {p: [(index, self.U[m], self.V[p - m],
                           self.n1 * self.V[p - m].shape[1]
                           <= self.U[m].shape[1] * self.n2)
                          for m, index in enumerate(_half_blocks(p, D, N, N1))]
                      for p in degrees}

    def draw(self, rng, count):
        """The parts of `count` draws of all randomness, each with a
        leading sample axis: Hamiltonian values per config (count, n_cfg),
        leaf log-weights (count, L), each path's sqrt(2) F in fields
        (count, paths, D, N, L), with F the field at the leaves, and the
        coupling perturbation's matrices (count, N, N); and the largest
        truncation ratio of the count cascades."""
        N, D, K, L = self.N, self.D, self.K, self.L
        terms = _draw_terms(self.model, N, rng, count)
        h_vals = self.values(terms).reshape(count, -1)
        leaf_logw, ratio = _grow_log_weights(self.zi, self.n_max, rng,
                                             batch=count)
        # sample i's level-l nodes are rows i * n_max**l onward, so the
        # count cascades' leaves fill (count * L) rows in sample order
        zs = [rng.standard_normal((count * self.n_max ** level, D, N))
              for level in range(K + 1)]
        fields = np.empty((count, len(self.roots), D, N, L))
        for k, roots in enumerate(self.roots):
            field = _leaf_field(roots, zs).reshape(count, L, D, N)
            np.multiply(np.sqrt(2.0), field.transpose(0, 2, 3, 1),
                        out=fields[:, k])
        w_hat = rng.standard_normal((count, N, N))
        return _Draw(h_vals, leaf_logw, fields, w_hat), ratio

    def leaf_factors(self, parts, path):
        """The field's terms on the path of index `path`, split by halves:
        s1 = sqrt(2) X1 F1 of shape (count, n1, L), e2 = exp(sqrt(2) X2 F2
        - m2) of shape (count, n2, L) with m2 its maximum per leaf, and
        each leaf's log scale so far, leaf_logw + m2 (count, L)."""
        count, D, N1, L = len(parts.fields), self.D, self.N1, self.L
        f = parts.fields[:, path]
        s1 = np.matmul(self.U[1], f[:, :, :N1].reshape(count, D * N1, L))
        e2, m2 = _exp_shifted(np.matmul(self.V[1], f[:, :, N1:].reshape(
            count, -1, L)))
        return s1, e2, parts.leaf_logw + m2

    def config_terms(self, parts, path, t, t_hat):
        """Every term of the exponent that does not involve the leaf, per
        sample and config (count, n1, n2)."""
        N = self.N
        base = (self.logw_cfg + np.sqrt(2.0 * t) * parts.h_vals
                - t * N * self.xi_self - self.qk_term[path])
        base = base.reshape(-1, self.n1, self.n2)
        if t_hat > 0:
            base -= t_hat * N * self.sq_self.reshape(self.n1, self.n2)
            # sqrt(2 t_hat / N) sum_d x_d^T W x_d, of the degree-2 tensor
            # W (x) I_D
            w = parts.w_hat * np.sqrt(2.0 * t_hat / N)
            base += self.values([(2, np.einsum("sij,de->sijde", w,
                                               np.eye(self.D)))])
        return base

    def values(self, terms):
        """sum_p T_p . x_c^(x)p of per-degree coefficient tensors T_p
        (count, N**p, D**p) on every config, shape (count, n1, n2): per m
        the blocks with m first-half slots, summed into T_m, give
        U_m T_m V_(p-m)^T."""
        count = len(terms[0][1])
        out = np.zeros((count, self.n1, self.n2))
        for p, tensor in terms:
            flat = tensor.reshape(count, -1)
            for index, u, v, u_first in self.split[p]:
                t_m = flat[:, index].sum(axis=1).reshape(
                    count, u.shape[1], v.shape[1])
                out += (np.matmul(u, t_m) @ v.T if u_first
                        else u @ np.matmul(t_m, v.T))
        return out

    def xi_moment(self, g):
        """sum_{c,c'} g_c g_c' xi(x_c x_c'^T / N) of config weights g
        (count, n1, n2), per sample: by the adjoint of `values`, each m's
        U_m^T g V_(p-m) put at its blocks, the moment sum_c g_c x_c^(x)p is
        an (N**p, D**p) array M, and each degree adds M . M C_p / N**p."""
        count, D, N = len(g), self.D, self.N
        total = np.zeros(count)
        for p, c in self.model.terms:
            moment = np.empty((count, N ** p * D ** p))
            for index, u, v, u_first in self.split[p]:
                # U_0 and V_0 are one row: spread over every half config
                u = np.repeat(u, self.n1 // len(u), axis=0)
                v = np.repeat(v, self.n2 // len(v), axis=0)
                block = (u.T @ np.matmul(g, v) if u_first
                         else np.matmul(u.T @ g, v))
                moment[:, index] = block.reshape(count, 1, -1)
            moment = moment.reshape(count, N ** p, D ** p)
            total += np.einsum("sja,ab,sjb->s", moment, c, moment) / N ** p
        return total

    def gibbs(self, parts, path, t, t_hat=0.0, leaf=None):
        """log Z of every sample of a chunk at (t, t_hat) on the path of
        index `path`, and its Gibbs weights, as a _Gibbs: the exponent
        base + leaf_logw + sqrt(2) x . F factors as cfg * e1 * e2 * leaf
        weight.  leaf takes the path's leaf_factors if the caller has them.

        cfg = exp(base) is shifted by its maximum per row a, which e1
        takes in before its own shift by the maximum per leaf, so each
        leaf's factored sum is at least exp(-(spread of sqrt(2) X2 F2 over
        the second half)): only a field spread of about 700 in one leaf
        can underflow it."""
        s1, e2, scale = leaf if leaf is not None else self.leaf_factors(
            parts, path)
        cfg = self.config_terms(parts, path, t, t_hat)
        top_cfg = cfg.max(axis=2)
        cfg -= top_cfg[:, :, None]
        np.exp(cfg, out=cfg)
        e1, m1 = _exp_shifted(s1 + top_cfg[:, :, None])
        p1 = np.matmul(cfg, e2)
        p1 *= e1
        scale = scale + m1
        top = scale.max(axis=1)
        weight = np.exp(scale - top[:, None])
        total = np.einsum("sl,sl->s", p1.sum(axis=1), weight)
        bad = ~(np.isfinite(total) & (total > 0))
        if bad.any():
            raise ValidationError(
                f"the factored partition sum of a sample is {total[bad][0]}:"
                " the field's exponents spread past the float range within"
                " one leaf, so reduce the path's final value")
        weight /= total[:, None]
        return _Gibbs(cfg, e1, e2, p1, weight, np.log(total) + top)

    def leaf_spins(self, g):
        """Gibbs spin sums of each leaf, sum_c g[c, l] x_c, shape (count,
        D, N, L): X1^T (e1 * cfg e2) on the first half's sites and
        X2^T (e2 * cfg^T e1) on the second's, scaled by the leaf weight."""
        count, D, L = len(g.p1), self.D, self.L
        p2 = np.matmul(g.cfg.transpose(0, 2, 1), g.e1)
        p2 *= g.e2
        spins = np.concatenate([
            np.matmul(self.U[1].T, g.p1).reshape(count, D, self.N1, L),
            np.matmul(self.V[1].T, p2).reshape(count, D, -1, L)], axis=2)
        spins *= g.weight[:, None, None]
        return spins


def _crn_samples(session, stat, samples, seed, threads, held):
    """stat(parts) of every chunk of `samples` draws of session, a tuple
    of arrays with a leading sample axis, each joined in sample order; and
    the largest truncation ratio drawn.  Each CHUNK-sample chunk draws its
    samples at once from its own stream keyed by (seed, chunk start), so
    sessions run with one seed share common random numbers at any thread
    count; stat allocates what it works in, so no two threads share a
    buffer, and as each worker holds a chunk of `held` doubles
    (`_check_run`) no more run at once than PAIR_BUDGET holds."""

    def one_chunk(s0):
        parts, ratio = session.draw(node_rng(seed, 5, s0),
                                    min(CHUNK, samples - s0))
        return stat(parts), ratio

    threads = min(resolve_threads(threads), max(1, PAIR_BUDGET // held))
    blocks = chunked_thread_map(one_chunk, range(0, samples, CHUNK), threads)
    return ([np.concatenate(arrays)
             for arrays in zip(*(stats for stats, _ in blocks))],
            max(ratio for _, ratio in blocks))


def free_energy_mc(model, P1, N, t, q, t_hat, samples, n_max, seed,
                   threads=None) -> McEstimate:
    """Free energy -(1/N) E log Z of the discrete-cascade Gibbs weight:
    Monte Carlo over disorder, cascade, field and coupling perturbation,
    exact sums over configurations and retained leaves."""
    held = _check_run(model, P1, N, [q], n_max, samples, seed, t, t_hat)
    session = _Session(model, P1, N, [q], n_max)
    (logz,), ratio = _crn_samples(
        session, lambda parts: (session.gibbs(parts, 0, t, t_hat).log_z,),
        samples, seed, threads, held)
    vals = -logz / N
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


def _pair_histogram(session):
    """The scalar overlap values and a chunk statistic that gives each
    sample's joint (level, overlap) mass, shape (count, K+1, values), for
    any D=1 measure: per level j the (n_cfg, n_cfg) matrix of pair mass
    sharing a level-j node, minus the next level's, binned by the pair's
    overlap."""
    K, n_cfg, L = session.K, session.n_cfg, session.L
    r_pair = np.round(session.x_flat @ session.x_flat.T / session.N, 12)
    r_values = np.unique(r_pair)
    r_index = np.searchsorted(r_values, r_pair).ravel()

    def histogram(g):
        # pair mass sharing at least j levels, minus that sharing j + 1,
        # taken in two alternating pair buffers
        count = len(g.p1)
        hist = np.zeros((count, K + 1, len(r_values)))
        grid = np.empty((session.n1, session.n2, L))
        cur, prev = np.empty((2, n_cfg, n_cfg))
        for s in range(count):
            leaves = g.grid(s, grid)
            for j in range(K, -1, -1):
                gj = _node_sums(leaves, session.n_max ** j)
                np.matmul(gj, gj.T, out=cur)
                exact = cur if j == K else np.subtract(cur, prev, out=prev)
                hist[s, j] = np.bincount(r_index, weights=exact.ravel(),
                                         minlength=len(r_values))
                cur, prev = prev, cur
        return hist

    return r_values, histogram


def _sylvester(bits):
    """The Sylvester Hadamard matrix of order 2**bits, entry (i, j) =
    (-1)**popcount(i & j)."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.kron(h, [[1.0, 1.0], [1.0, -1.0]])
    return h


def _krawtchouk(N):
    """(N+1, N+1) Krawtchouk matrix: entry (d, w) is the coefficient of
    z**d in (1 - z)**w (1 + z)**(N - w), the sum of (-1)**(S . s) over
    the words s of weight d, for any word S of weight w."""
    P = np.polynomial.polynomial
    return np.stack([P.polymul(P.polypow([1.0, -1.0], w),
                               P.polypow([1.0, 1.0], N - w))
                     for w in range(N + 1)], axis=1)


def _spectral_histogram(session):
    """_pair_histogram for a measure on two atoms +-a, with no config-pair
    array.  Two configs' overlap is a**2 (N - 2d) / N with d their Hamming
    distance, and by the MacWilliams identity the pair mass at distance d
    of weights f on configs is sum_w K_d(w) B(w) / n_cfg, with B(w) the
    sum of the squared Walsh-Hadamard transforms fhat(S)**2 over words S
    of weight w.  The transform over configs (a, b) is H_N1 on the first
    half and H_(N-N1) on the second (site-major order), so S's weight is
    its index's popcount; it commutes with node sums, so is taken once on
    the leaves."""
    N, K, L, n_cfg = session.N, session.K, session.L, session.n_cfg
    n1, n2 = session.n1, session.n2
    # every distance is taken by a pair holding config 0: the config
    # 2**d - 1 differs from it in its last d sites
    r_row = np.round(session.x_flat @ session.x_flat[0] / N, 12)
    r_values = np.unique(r_row)
    r_index = np.searchsorted(r_values, r_row[(1 << np.arange(N + 1)) - 1])
    kraw = _krawtchouk(N)
    to_r = np.zeros((N + 1, len(r_values)))     # (weight class, overlap)
    for d in range(N + 1):
        to_r[:, r_index[d]] += kraw[d] / n_cfg
    popcount = (np.arange(n_cfg)[:, None] >> np.arange(N) & 1).sum(axis=1)
    classes = (popcount[:, None] == np.arange(N + 1)).astype(float)
    h1, h2 = _sylvester(session.N1), _sylvester(N - session.N1)

    def histogram(g):
        count = len(g.p1)
        power = np.empty((count, K + 1, n_cfg))
        grid, spec = np.empty((2, n1, n2, L))
        for s in range(count):
            g.grid(s, grid)
            np.matmul(h1, grid.reshape(n1, -1), out=spec.reshape(n1, -1))
            np.matmul(h2, spec, out=grid)
            leaves = grid.reshape(n_cfg, L)
            for j in range(K + 1):
                fj = _node_sums(leaves, session.n_max ** j)
                np.einsum("cn,cn->c", fj, fj, out=power[s, j])
        # spectral power per weight class sharing at least j levels,
        # minus that sharing j + 1, then mapped to overlaps
        by_class = power @ classes
        exact = by_class.copy()
        exact[:, :K] -= by_class[:, 1:]
        return exact @ to_r

    return r_values, histogram


def gibbs_overlap_law(model, P1, N, t, q, t_hat, samples, n_max, seed,
                      with_histogram=False, threads=None) -> OverlapLaw:
    """Joint law of (overlap, common-ancestor level) of two replicas.

    Per disorder sample the double sum over configuration pairs and leaf
    pairs is exact, through per-node Gibbs aggregates: each leaf's mass
    and spin sum comes from two half-config products, and a node's is the
    sum over its block of leaves.  The scalar-overlap histogram (D=1 only)
    is opt-in: for a measure on two atoms +-a (`ising_measure(1)` among
    them) it is read off the Walsh-Hadamard spectrum of each sample's
    Gibbs weights (`_spectral_histogram`), for any other D=1 measure off a
    configuration-pair matmul per level (`_pair_histogram`).
    """
    held = _check_run(model, P1, N, [q], n_max, samples, seed, t, t_hat,
                      with_histogram)
    session = _Session(model, P1, N, [q], n_max)
    K, D, N_sp = session.K, session.D, session.N
    if with_histogram:
        r_values, histogram = (_spectral_histogram if _sign_pair(P1)
                               else _pair_histogram)(session)

    def stat(parts):
        g = session.gibbs(parts, 0, t, t_hat)
        mass, spins = g.leaf_mass(), session.leaf_spins(g)
        # tier sums: per node at level j, total mass and spin vector
        share_mass = np.zeros((len(mass), K + 2))
        share_mom = np.zeros((len(mass), K + 2, D, D))
        for j in range(K + 1):
            nodes = session.n_max ** j
            share_mass[:, j] = np.sum(_node_sums(mass, nodes) ** 2, axis=1)
            tj = _node_sums(spins, nodes)
            share_mom[:, j] = np.einsum("sdnb,senb->sde", tj, tj)
        out = (share_mass[:, :K + 1] - share_mass[:, 1:],
               (share_mom[:, :K + 1] - share_mom[:, 1:]) / N_sp)
        return out + (histogram(g),) if with_histogram else out

    results, ratio = _crn_samples(session, stat, samples, seed, threads,
                                  held)
    mass, moment = results[:2]
    n = len(mass)
    level_mass = mass.mean(axis=0)
    mass_se = mass.std(axis=0, ddof=1) / np.sqrt(n)
    denom = np.where(level_mass > 0, level_mass, 1.0)
    cond = moment.mean(axis=0) / denom[:, None, None]
    per_sample_cond = moment / np.where(mass > 0, mass, 1.0)[:, :, None, None]
    cond_se = per_sample_cond.std(axis=0, ddof=1) / np.sqrt(n)
    hist = (r_values, results[2].sum(axis=0) / n) if with_histogram else None
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
    q_alt = q.with_values([0.85 * v for v in q.values])
    paths = [q, q_alt, q.with_values([0.7 * v for v in q.values])]
    held = _check_run(model, P1, N, paths, n_max, samples, seed, t)
    # check (d)'s psi first: past the quadrature budget, fail before sampling
    psi = psi_eval(P1, q, QuadratureSpec()).value
    h = 0.02 * max(t, 0.25)
    t_lo = max(t - h, 0.0)
    t_alt = t + 0.05
    session = _Session(model, P1, N, paths, n_max)

    def stat(parts):
        # log Z on q at t, t_lo, t + h and 0 (one set of leaf factors), on
        # q_alt at t_alt and on 0.7 q at t, then the Gibbs xi moment on q
        # at t, through the config marginals: replicas are conditionally
        # independent given the randomness.
        leaf = session.leaf_factors(parts, 0)
        g = session.gibbs(parts, 0, t, leaf=leaf)
        lz = [session.gibbs(parts, path, s,
                            leaf=leaf if path == 0 else None).log_z
              for path, s in ((0, t_lo), (0, t + h), (0, 0.0),
                              (1, t_alt), (2, t))]
        gibbs = session.xi_moment(g.marginal())
        return (np.stack([g.log_z, *lz, gibbs], axis=1),)

    (vals,), ratio = _crn_samples(session, stat, samples, seed, threads,
                                  held)
    lz_t, lz_down, lz_up, lz0, lz_alt, lz_lo, gibbs = vals.T
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
