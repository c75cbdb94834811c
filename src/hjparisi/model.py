"""Covariance polynomials on D x D matrices and reference spin measures.

A model is a finite sum xi(a) = sum_p <C_p, a tensor-power p> with each
C_p a symmetric PSD matrix of shape (D^p, D^p), indexed so that
a^{tensor p} = kron(a, ..., a).  The reference measure is a finite atomic
probability measure on the closed unit ball of R^D.
"""

from __future__ import annotations

import itertools
import string
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NonConvergence, ValidationError
from .util import _Ascent, _monotone_project, frob, sym

MAX_DEGREE = 4
MAX_DIM = 4
_LETTERS = string.ascii_lowercase


@dataclass(frozen=True, eq=False)
class XiModel:
    """Validated coefficient terms (p, C_p).  factors[i] is a square root
    F_p of terms[i]'s C_p (F_p F_p^T = C_p, negative rounding-size
    eigenvalues clipped), from the eigen-decomposition that checked C_p."""

    D: int
    terms: tuple

    def __post_init__(self):
        if not (1 <= self.D <= MAX_DIM):
            raise ValidationError(f"D must be in 1..{MAX_DIM}, got {self.D}")
        checked, factors = [], []
        for p, c in self.terms:
            p = int(p)
            if not (1 <= p <= MAX_DEGREE):
                raise ValidationError(f"degree must be in 1..{MAX_DEGREE}, got {p}")
            c = np.asarray(c, dtype=float)
            n = self.D ** p
            if c.shape != (n, n):
                raise ValidationError(
                    f"coefficient for degree {p} must be {n}x{n}, got {c.shape}")
            if not np.isfinite(c).all():
                raise ValidationError(f"coefficient for degree {p} is not finite")
            if float(np.max(np.abs(c - c.T))) > 1e-9:
                raise ValidationError(f"coefficient for degree {p} is not symmetric")
            c = sym(c)
            lam, vec = np.linalg.eigh(c)
            if lam[0] < -1e-10:
                raise ValidationError(
                    f"coefficient for degree {p} has eigenvalue {lam[0]:.3e}")
            checked.append((p, c))
            factors.append(vec * np.sqrt(np.clip(lam, 0.0, None)))
        object.__setattr__(self, "terms", tuple(checked))
        object.__setattr__(self, "factors", tuple(factors))

    @cached_property
    def convexity(self):
        """convexity_probe(self, samples=64, seed=0), run once per model."""
        return convexity_probe(self, samples=64, seed=0)


@dataclass(frozen=True, eq=False)
class ReferenceMeasure:
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 2 or len(atoms) != len(weights):
            raise ValidationError("atoms and weights must have matching length")
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
            raise ValidationError("atoms and weights must be finite")
        if np.any(weights < 0.0):
            raise ValidationError("weights must be non-negative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {weights.sum()!r}, not 1")
        norms = np.linalg.norm(atoms, axis=1)
        if np.any(norms > 1.0 + 1e-12):
            raise ValidationError(
                f"atom norm {norms.max():.6f} exceeds the unit ball")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def D(self) -> int:
        return self.atoms.shape[1]


def ising_measure(D) -> ReferenceMeasure:
    """Uniform measure on the 2^D sign corners scaled to unit norm."""
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * D), indexing="ij"))
    atoms = corners.reshape(D, -1).T / np.sqrt(D)
    return ReferenceMeasure(atoms, np.full(len(atoms), 1.0 / len(atoms)))


def _c_tensor(model, p, c):
    return c.reshape((model.D,) * (2 * p))


@lru_cache(maxsize=None)
def _subscripts(p, free, batch):
    """einsum subscripts contracting C_p against a in every slot but the
    free ones, whose index pairs are left in the output in that order;
    batch prefixes a batch index z to every a and to the output."""
    z = "z" if batch else ""
    pairs = [_LETTERS[k] + _LETTERS[p + k] for k in range(p)]
    ops = [z + pairs[k] for k in range(p) if k not in free]
    return (",".join([_LETTERS[: 2 * p]] + ops) + "->" + z
            + "".join(pairs[k] for k in free))


def _contract(model, a, order, batch=False):
    """The order-th derivative tensor of xi at a, shape (B,)*batch +
    (D,)*(2*order): for each term, the sum over ordered choices of order
    distinct free slots of C_p contracted against a in the others."""
    out = np.zeros(((len(a),) if batch else ()) + (model.D,) * (2 * order))
    for p, c in model.terms:
        ct = _c_tensor(model, p, c)
        for free in itertools.permutations(range(p), order):
            out += np.einsum(_subscripts(p, free, batch), ct,
                             *([a] * (p - order)))
    return out


def xi_eval(model, a) -> float:
    """Evaluate the covariance polynomial at the matrix a."""
    a = np.asarray(a, dtype=float).reshape(model.D, model.D)
    return float(_contract(model, a, 0))


def xi_eval_batch(model, r) -> np.ndarray:
    """Vectorized xi over a batch of matrices, shape (B, D, D) -> (B,)."""
    return _contract(model, np.asarray(r, dtype=float), 0, batch=True)


def xi_grad(model, a):
    """Gradient of xi at a symmetric matrix, symmetrized on output."""
    a = sym(np.asarray(a, dtype=float).reshape(model.D, model.D))
    grad = _contract(model, a, 1)
    asymmetry = float(np.max(np.abs(grad - grad.T)))
    if asymmetry > 1e-10:
        warnings.warn(
            f"gradient asymmetry {asymmetry:.3e} on symmetric input",
            RuntimeWarning, stacklevel=2)
    return sym(grad)


def xi_hessian(model, a):
    """Hessian of xi at a, returned as a (D*D, D*D) matrix."""
    a = sym(np.asarray(a, dtype=float).reshape(model.D, model.D))
    d = model.D
    return _contract(model, a, 2).reshape(d * d, d * d)


def theta_eval(model, a) -> float:
    """a . grad xi(a) - xi(a); non-negative on PSD inputs."""
    a = np.asarray(a, dtype=float).reshape(model.D, model.D)
    return float(np.sum(a * xi_grad(model, a))) - xi_eval(model, a)


def sym_basis(D):
    """Orthonormal basis of symmetric D x D matrices (Frobenius inner
    product), as a list of matrices: diagonal units then off-diagonal
    pairs scaled by 1/sqrt(2)."""
    mats = []
    for d in range(D):
        e = np.zeros((D, D))
        e[d, d] = 1.0
        mats.append(e)
    for u in range(D):
        for v in range(u + 1, D):
            e = np.zeros((D, D))
            e[u, v] = e[v, u] = 1.0 / np.sqrt(2.0)
            mats.append(e)
    return mats


def _hess_opnorm_sym(model, a, basis):
    h = xi_hessian(model, a)
    cols = np.stack([b.reshape(-1) for b in basis], axis=1)
    m = cols.T @ h @ cols
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (m + m.T)))))


def grad_lipschitz_const(model, samples=200, seed=0) -> float:
    """Lipschitz constant of grad xi on the PSD unit ball.

    Since the ball is convex the constant equals the supremum of the
    Hessian operator norm (restricted to symmetric directions) over the
    ball; we sample PSD points, polish the best with a projected pattern
    search, and cross-check against sampled difference ratios.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    basis = sym_basis(model.D)
    pts = [np.zeros((model.D, model.D)),
           np.eye(model.D) / np.sqrt(model.D)]
    for _ in range(samples):
        m = rng.standard_normal((model.D, model.D))
        a = m @ m.T
        na = frob(a)
        if na > 1e-12:
            pts.append(a / max(na, 1.0))
            pts.append(a / na)
    vals = [_hess_opnorm_sym(model, a, basis) for a in pts]
    best = max(vals)
    a = pts[int(np.argmax(vals))]

    # pattern-search polish over the PSD unit ball
    dirs = basis
    step = 0.25
    while step > 1e-6:
        improved = False
        for d in dirs:
            for sgn in (1.0, -1.0):
                cand = _monotone_project([a + sgn * step * d], 1.0)[0]
                v = _hess_opnorm_sym(model, cand, basis)
                if v > best + 1e-14:
                    best, a, improved = v, cand, True
        if not improved:
            step *= 0.5

    # sampled difference ratios as an independent floor
    for _ in range(samples):
        m1 = rng.standard_normal((model.D, model.D))
        m2 = rng.standard_normal((model.D, model.D))
        x = _monotone_project([m1 @ m1.T], 1.0)[0]
        y = _monotone_project([m2 @ m2.T], 1.0)[0]
        den = frob(x - y)
        if den > 1e-9:
            ratio = frob(xi_grad(model, x) - xi_grad(model, y)) / den
            best = max(best, ratio)
    return best


def grad_lipschitz_upper_bound(model) -> float:
    """Analytic bound sum_p p (p-1) ||C_p||_op for cross-checking."""
    total = 0.0
    for p, c in model.terms:
        total += p * (p - 1) * float(np.max(np.abs(np.linalg.eigvalsh(c))))
    return total


def xi_star(model, a, radius, return_argmax=False):
    """Convex dual sup over PSD b with |b| <= radius of a.b - xi(b).

    The shared projected-gradient ascent util._Ascent on one block with
    norm cap radius, whose projection onto the PSD cone intersected with
    the Frobenius ball is eigenvalue clipping followed by radial scaling.
    On a model that passes its convexity probe the objective is concave,
    so the one start 0 suffices; otherwise every start climbs to
    convergence and the best value wins, ties to the earlier start.  The
    gradient is exact, so the first-order tolerance is 1e-9 rather than
    the quadrature-limited default, at which flat maxima on the PSD
    boundary leave the argmax 4e-7 short.  Raises NonConvergence if no
    run meets it.  With return_argmax the best maximizer is returned
    alongside the value.
    """
    if radius <= 0.0:
        raise ValidationError("radius must be positive")
    a = sym(np.asarray(a, dtype=float).reshape(model.D, model.D))

    def objective(blocks):
        b = blocks[0]
        return (float(np.sum(a * b)) - xi_eval(model, b),
                [a - xi_grad(model, b)])

    inits = [np.zeros_like(a), a, 0.25 * radius * np.eye(model.D)]
    if model.convexity.is_convex_on_psd:
        inits = inits[:1]
    else:
        gauss = np.random.default_rng(0).standard_normal((5, model.D, model.D))
        inits += [m @ m.T for m in gauss]
    runs = [_Ascent(objective, radius, [1.0], [b], tol=1e-9) for b in inits]
    for run in runs:
        run.run(400)
    if not any(run.done for run in runs):
        raise NonConvergence("xi_star ascent did not meet first-order tolerance")
    best = max(runs, key=lambda run: run.value)
    if return_argmax:
        return best.value, best.blocks[0]
    return best.value


@dataclass(frozen=True)
class ConvexityReport:
    is_convex_on_psd: bool
    witness: tuple | None


def convexity_probe(model, samples=500, seed=0) -> ConvexityReport:
    """Midpoint-convexity sampling over PSD pairs in the unit ball.

    Probabilistic certificate only: returns a witness (a, b, lambda, gap)
    on the first violation found.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        m1 = rng.standard_normal((model.D, model.D))
        m2 = rng.standard_normal((model.D, model.D))
        a = _monotone_project([m1 @ m1.T], 1.0)[0]
        b = _monotone_project([m2 @ m2.T], 1.0)[0]
        fa, fb = xi_eval(model, a), xi_eval(model, b)
        for lam in (0.25, 0.5, 0.75):
            mid = lam * a + (1.0 - lam) * b
            gap = xi_eval(model, mid) - (lam * fa + (1.0 - lam) * fb)
            if gap > 1e-10:
                return ConvexityReport(False, (a, b, lam, float(gap)))
    return ConvexityReport(True, None)


def sk(beta=1.0) -> XiModel:
    """D=1 quadratic model xi(r) = beta^2 r^2."""
    return XiModel(1, ((2, np.array([[beta ** 2]])),))


def pure_p(p, beta=1.0) -> XiModel:
    """D=1 pure model xi(r) = beta^2 r^p."""
    return XiModel(1, ((p, np.array([[beta ** 2]])),))


def bipartite(beta=1.0) -> XiModel:
    """D=2 model xi(A) = beta^2 A_11 A_22 (not convex on the PSD cone)."""
    c = np.zeros((4, 4))
    c[1, 1] = c[2, 2] = 0.5 * beta ** 2
    return XiModel(2, ((2, c),))


def frobenius_square(beta=1.0, D=2) -> XiModel:
    """xi(A) = beta^2 |A|_F^2, a convex quadratic in the matrix entries."""
    v = np.eye(D).reshape(-1)
    return XiModel(D, ((2, beta ** 2 * np.outer(v, v)),))


_FAMILIES = {
    "sk": lambda D, beta, p: sk(beta),
    "pure_p": lambda D, beta, p: pure_p(p if p else 3, beta),
    "bipartite": lambda D, beta, p: bipartite(beta),
    "frobenius": lambda D, beta, p: frobenius_square(beta, D),
}


def load_model_dict(spec):
    """Build (XiModel, ReferenceMeasure) from the JSON model schema.  A
    missing field or a value of the wrong kind is a ValidationError."""
    try:
        return _model_from_spec(spec)
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"model spec missing field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad model spec: {exc}") from exc


def _model_from_spec(spec):
    D = int(spec["D"])
    entries = spec["terms"]
    terms = []
    for entry in entries:
        if "family" in entry:
            fam = entry["family"]
            if fam not in _FAMILIES:
                raise ValidationError(f"unknown model family {fam!r}")
            built = _FAMILIES[fam](D, float(entry.get("beta", 1.0)),
                                   entry.get("p"))
            if built.D != D:
                raise ValidationError(
                    f"family {fam!r} has D={built.D}, spec says D={D}")
            terms.extend(built.terms)
        else:
            terms.append((int(entry["p"]), np.asarray(entry["C"], dtype=float)))
    model = XiModel(D, tuple(terms))
    p1_spec = spec.get("P1", {"family": "ising"})
    if "family" in p1_spec:
        if p1_spec["family"] != "ising":
            raise ValidationError(f"unknown measure family {p1_spec['family']!r}")
        measure = ising_measure(D)
    else:
        measure = ReferenceMeasure(np.asarray(p1_spec["atoms"], dtype=float),
                                   np.asarray(p1_spec["weights"], dtype=float))
    if measure.D != D:
        raise ValidationError(
            f"reference measure dimension {measure.D} != model D {D}")
    return model, measure
