"""Piecewise-constant matrix-valued paths on [0, 1) and their utilities.

A path is a step function u -> q(u) taking symmetric D x D values, with
breakpoints 0 = zeta_0 < zeta_1 < ... < zeta_K < 1 and value q_k on
[zeta_k, zeta_{k+1}).  The value at 1 is defined by continuity as q_K.
PiecewisePath additionally requires PSD increments q_k - q_{k-1} (with
q_{-1} = 0), i.e. the path is increasing in the PSD order from 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBreakpoints, NotIncreasing
from .util import PSD_TOL, sym

__all__ = [
    "SignedPiecewisePath",
    "PiecewisePath",
    "path_new",
    "signed_path_new",
    "lp_distance",
    "sqrt_increments",
    "path_from_json_dict",
    "path_to_json_dict",
]


def _coerce_values(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1, 1)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise BadBreakpoints(
            f"values must have shape (K+1, D, D), got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class SignedPiecewisePath:
    """Step function with unconstrained symmetric matrix values."""

    zetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        zetas = np.asarray(self.zetas, dtype=float)
        values = _coerce_values(self.values)
        if zetas.ndim != 1 or len(zetas) != len(values):
            raise BadBreakpoints(
                f"{len(zetas)} breakpoints for {len(values)} values")
        if len(zetas) == 0:
            raise BadBreakpoints("a path needs at least one block")
        # the breakpoint tests are stated as what must hold, so NaN fails
        if zetas[0] != 0.0:
            raise BadBreakpoints(f"zeta_0 must be 0, got {zetas[0]}")
        if not (np.all(np.diff(zetas) > 0.0) and zetas[-1] < 1.0):
            raise BadBreakpoints(
                "breakpoints must be strictly increasing inside [0, 1)")
        if not np.isfinite(values).all():
            raise BadBreakpoints("values must be finite")
        symmetric = sym(values)
        asym = float(np.max(np.abs(values - symmetric))) if values.size else 0.0
        if asym > 1e-9:
            raise BadBreakpoints(f"values must be symmetric (deviation {asym:.2e})")
        object.__setattr__(self, "zetas", zetas)
        object.__setattr__(self, "values", symmetric)

    @property
    def K(self) -> int:
        return len(self.zetas) - 1

    @property
    def D(self) -> int:
        return self.values.shape[1]

    def lengths(self):
        """Block lengths; the last block runs to 1."""
        return np.diff(np.append(self.zetas, 1.0))

    def increments(self):
        """q_k - q_{k-1} with q_{-1} = 0, shape (K+1, D, D)."""
        return np.diff(self.values, axis=0, prepend=np.zeros((1, self.D, self.D)))

    def value_at(self, u):
        if u >= 1.0:
            return self.values[-1].copy()
        k = int(np.searchsorted(self.zetas, u, side="right")) - 1
        return self.values[max(k, 0)].copy()

    @property
    def final_value(self):
        return self.values[-1].copy()

    def with_values(self, values):
        return type(self)(self.zetas.copy(), values)


class PiecewisePath(SignedPiecewisePath):
    """Increasing step path: all increments PSD within tolerance.

    The eigen-decomposition (lam, vec) of the increments that validates
    the path is kept for sqrt_increments.
    """

    def __post_init__(self):
        super().__post_init__()
        lam, vec = np.linalg.eigh(self.increments())
        bad = np.flatnonzero(lam[:, 0] < -PSD_TOL)
        if bad.size:
            k = int(bad[0])
            raise NotIncreasing(f"increment {k} has eigenvalue "
                                f"{lam[k, 0]:.3e} below -{PSD_TOL:.0e}")
        object.__setattr__(self, "_eig", (lam, vec))


def path_new(zetas, values) -> PiecewisePath:
    """Validated increasing path, or BadBreakpoints / NotIncreasing."""
    return PiecewisePath(np.asarray(zetas, dtype=float), values)


def signed_path_new(zetas, values) -> SignedPiecewisePath:
    return SignedPiecewisePath(np.asarray(zetas, dtype=float), values)


def _on_partition(path, zetas):
    idx = np.searchsorted(path.zetas, zetas, side="right") - 1
    return type(path)(zetas, path.values[np.clip(idx, 0, path.K)])


def refine_all(paths):
    """Rewrite every path on the union of their breakpoints."""
    merged = paths[0].zetas
    for p in paths[1:]:
        merged = np.union1d(merged, p.zetas)
    return [_on_partition(p, merged) for p in paths]


def lp_distance(q, q_prime, p=2.0) -> float:
    """Exact L^p([0,1]) distance of two step paths, Frobenius pointwise."""
    a, b = refine_all([q, q_prime])
    diffs = np.linalg.norm(a.values - b.values, axis=(1, 2))
    lens = a.lengths()
    if np.isinf(p):
        return float(diffs.max())
    return float(np.sum(lens * diffs ** p) ** (1.0 / p))


def sqrt_increments(q):
    """Principal square roots of the increments of an increasing path,
    shape (K+1, D, D), from the eigen-decomposition its validation kept.
    Any other path is validated first, so it raises NotIncreasing unless
    its increments are PSD; eigenvalues in [-PSD_TOL, 0) count as zero."""
    if not isinstance(q, PiecewisePath):
        q = PiecewisePath(q.zetas, q.values)
    lam, vec = q._eig
    root = vec * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
    return root @ np.swapaxes(vec, 1, 2)


def path_from_json_dict(d):
    """Path from {"zetas": [...], "values": [[[...]], ...]} (row-major)."""
    return path_new(d["zetas"], d["values"])


def path_to_json_dict(path):
    return {"zetas": [float(z) for z in path.zetas],
            "values": [[[float(x) for x in row] for row in v] for v in path.values]}
