"""Independent derivations of the expected values frozen into the tests.

Run as a script; paste the printed constants into the test files. Nothing
here imports the package under src/; each quantity is computed from first
principles with a method unrelated to the library's own code paths
(mpmath quadrature, brute-force search, direct Monte Carlo).
"""

from __future__ import annotations

import numpy as np
import mpmath as mp

mp.mp.dps = 30

RNG = np.random.default_rng(20260823)


def gauss_expect(f):
    """E f(Z) for standard normal Z, by mpmath tanh-sinh quadrature."""
    phi = lambda x: mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
    return mp.quad(lambda x: f(x) * phi(x), [-mp.inf, 0, mp.inf])


def elogcosh(scale):
    return gauss_expect(lambda x: mp.log(mp.cosh(scale * x)))


def etanh2(scale):
    return gauss_expect(lambda x: mp.tanh(scale * x) ** 2)


def hermite_nodes(n):
    """Standard-normal Gauss-Hermite nodes/weights (probabilists' form)."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


def psi_two_step_ising1(z0q, q0, q1, zeta1, nodes=80):
    """psi for D=1 Ising atoms {-1,+1}, two-block path, direct recursion.

    Exponent convention: sqrt(2) * field * sigma - q(1) * sigma^2.
    Outer level zeta=0 is a plain expectation; inner level uses the
    zeta1-tilted log-moment reduction.
    """
    z, w = hermite_nodes(nodes)
    s0, s1 = np.sqrt(q0), np.sqrt(q1 - q0)
    field = s0 * z[:, None] + s1 * z[None, :]
    g = np.log(np.cosh(np.sqrt(2.0) * field)) - q1
    x0 = np.log(np.exp(zeta1 * g) @ w) / zeta1
    return -float(w @ x0)


def psi_two_step_grad_ising1(q0, q1, zeta1, h=1e-3, nodes=80):
    """Block gradient of psi_two_step_ising1, (d psi/d q0 / zeta1,
    d psi/d q1 / (1 - zeta1)), by a fourth-order central difference."""
    def deriv(f):
        return (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)

    d0 = deriv(lambda e: psi_two_step_ising1(None, q0 + e, q1, zeta1, nodes))
    d1 = deriv(lambda e: psi_two_step_ising1(None, q0, q1 + e, zeta1, nodes))
    return d0 / zeta1, d1 / (1.0 - zeta1)


def psi_onestep_d2(q0, q1, zeta1, atoms, nodes=40):
    """D=2 analogue of the above, brute-force over a tensor GH grid."""
    z, w = hermite_nodes(nodes)
    s0 = psd_sqrt(q0)
    s1 = psd_sqrt(q1 - q0)
    zz = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
    ww = np.outer(w, w).reshape(-1)
    f0 = zz @ s0.T   # outer-level field contribution, (n^2, 2)
    f1 = zz @ s1.T
    quad_form = np.einsum("ai,ij,aj->a", atoms, q1, atoms)
    # g over joint grid: (outer, inner)
    fld = f0[:, None, :] + f1[None, :, :]
    expo = np.sqrt(2.0) * fld @ atoms.T - quad_form
    m = expo.max(axis=2, keepdims=True)
    g = np.log(np.mean(np.exp(expo - m), axis=2)) + m[:, :, 0]
    x0 = np.log(np.exp(zeta1 * g) @ ww) / zeta1
    return -float(ww @ x0)


def psd_sqrt(a):
    lam, vec = np.linalg.eigh(a)
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)) @ vec.T


def cascade_closed_form_mc(zeta, var_root, var_leaf, n_atoms=4000,
                           n_casc=20000):
    """MC for E log sum_a v_a e^{Y_a}, one-level cascade, scalar field.

    Y_a = sqrt(var_root) z + sqrt(var_leaf - var_root) z_a.  Expected value
    (closed form): 0.5 * zeta * (var_leaf - var_root).
    """
    vals = np.empty(n_casc)
    for i in range(n_casc):
        gam = np.cumsum(RNG.exponential(size=n_atoms))
        logv = -np.log(gam) / zeta
        logv -= np.max(logv)
        logv -= np.log(np.sum(np.exp(logv)))
        y = (np.sqrt(var_root) * RNG.standard_normal()
             + np.sqrt(var_leaf - var_root) * RNG.standard_normal(n_atoms))
        t = logv + y
        m = t.max()
        vals[i] = m + np.log(np.sum(np.exp(t - m)))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_casc))


def bipartite_lipschitz(samples=200000):
    """sup |grad xi(a) - grad xi(b)| / |a - b| for xi(A)=A11*A22, PSD ball."""
    best = 0.0
    for _ in range(samples):
        a, b = random_psd_unit(), random_psd_unit()
        da = np.array([a[1, 1] - b[1, 1], a[0, 0] - b[0, 0]])
        num = np.sqrt(np.sum(da ** 2))
        den = np.linalg.norm(a - b)
        if den > 1e-9:
            best = max(best, num / den)
    return best


def random_psd_unit():
    m = RNG.standard_normal((2, 2))
    a = m @ m.T
    return a / max(np.linalg.norm(a), 1.0)


def sk_hopf_scan(t, nodes=200):
    """max over p in [0,1] of psi(2*t*p) - t*p^2 for SK (xi = r^2), Ising."""
    z, w = hermite_nodes(nodes)

    def val(p):
        h = 2.0 * t * p
        psi = h - float(w @ np.log(np.cosh(np.sqrt(2.0 * h) * z)))
        return psi - t * p * p

    grid = np.linspace(0.0, 1.0, 2001)
    vals = np.array([val(p) for p in grid])
    i = int(vals.argmax())
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, 2000)]
    for _ in range(60):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if val(m1) < val(m2):
            lo = m1
        else:
            hi = m2
    p = 0.5 * (lo + hi)
    return val(p), p


def parisi_std_sk_scan(beta, nodes=200):
    """sup_y inf_p of the no-correction saddle for SK(beta), xi = beta^2 r^2."""
    z, w = hermite_nodes(nodes)

    def inner(p, y):
        var = 2.0 * beta ** 2 * p
        first = (float(w @ np.log(np.cosh(np.sqrt(var) * z)))
                 - 0.5 * var + y)
        return first + 0.5 * beta ** 2 * p * p

    ys = np.linspace(0.0, 4 * beta ** 2, 400)
    ps = np.linspace(0.0, 1.0, 400)
    best_y, best_val = None, -np.inf
    for y in ys:
        v = min(inner(p, y) - 0.5 * (y ** 2 / beta ** 2) for p in ps)
        if v > best_val:
            best_val, best_y = v, y
    return best_val, best_y


def main():
    print("# Scalar Gaussian expectations (mpmath, 30 digits)")
    for s, name in [(1.0, "E log cosh(Z)"),
                    (np.sqrt(0.6), "E log cosh(sqrt(0.6) Z)"),
                    (np.sqrt(0.036), "E log cosh(sqrt(0.036) Z)")]:
        print(f"{name:36s} = {mp.nstr(elogcosh(s), 17)}")
    for s, name in [(1.0, "E tanh^2(Z)"),
                    (np.sqrt(0.6), "E tanh^2(sqrt(0.6) Z)")]:
        print(f"{name:36s} = {mp.nstr(etanh2(s), 17)}")

    print("\n# psi oracles (independent direct recursions)")
    v = psi_two_step_ising1(None, 0.1, 0.3, 0.5)
    print(f"psi 2-step D=1 ising, zeta=(0,0.5), q=(0.1,0.3)   = {v:.12f}")
    v80 = psi_two_step_ising1(None, 0.1, 0.3, 0.5, nodes=120)
    print(f"  (120-node check)                                 = {v80:.12f}")

    g0, g1 = psi_two_step_grad_ising1(0.05, 0.15, 0.5)
    print(f"grad psi 2-step D=1 ising, zeta=(0,0.5), q=(0.05,0.15) = "
          f"({g0:.12f}, {g1:.12f})")
    g0, g1 = psi_two_step_grad_ising1(0.05, 0.15, 0.5, h=5e-4, nodes=120)
    print(f"  (h=5e-4, 120-node check)                         = "
          f"({g0:.12f}, {g1:.12f})")

    atoms = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]) / np.sqrt(2.0)
    q0 = np.array([[0.10, 0.03], [0.03, 0.08]])
    q1 = np.array([[0.25, 0.05], [0.05, 0.30]])
    v = psi_onestep_d2(q0, q1, 0.4, atoms, nodes=40)
    v2 = psi_onestep_d2(q0, q1, 0.4, atoms, nodes=48)
    print(f"psi 2-step D=2 ising corners, zeta=(0,0.4)         = {v:.12f}")
    print(f"  (48-node check)                                  = {v2:.12f}")

    print("\n# Cascade closed-form convention check (one level)")
    closed = 0.5 * 0.55 * (2.3 - 0.8)
    est, se = cascade_closed_form_mc(0.55, 0.8, 2.3)
    print(f"closed form 0.5*s1*(th2-th1)                       = {closed:.6f}")
    print(f"direct MC                                          = {est:.6f} "
          f"+- {se:.6f}  (|diff|/se = {abs(est - closed) / se:.2f})")

    print("\n# Bipartite model constants")
    print(f"grad-Lipschitz brute force (analytic: 1.0)         = "
          f"{bipartite_lipschitz():.6f}")
    a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    mid = 0.5 * a + 0.5 * b
    print("convexity witness: a=diag(1,0), b=diag(0,1), lam=0.5, "
          f"xi(mid)-avg = {mid[0,0]*mid[1,1] - 0.0:.4f} > 0")

    print("\n# Variational oracles, SK")
    val, p = sk_hopf_scan(0.5)
    print(f"K=0 sup value, SK beta=1, t=0.5, q=0               = {val:.12f} "
          f"at p* = {p:.8f}")
    val, p = sk_hopf_scan(0.1)
    print(f"K=0 sup value, SK beta=1, t=0.1, q=0               = {val:.12f} "
          f"at p* = {p:.8f}")
    val, y = parisi_std_sk_scan(0.3)
    print(f"no-correction saddle, SK beta=0.3 (analytic 0.045) = {val:.8f} "
          f"at y* = {y:.6f}")

    print("\n# Classic Parisi RS value, SK beta=0.3, pi=0.2, x=0")
    rs = (-0.018 + 0.0018 + float(elogcosh(np.sqrt(0.036))))
    print(f"-b^2 q + b^2 q^2/2 + E log cosh(sqrt(2 b^2 q) Z)   = {rs:.12f}")


if __name__ == "__main__":
    main()
