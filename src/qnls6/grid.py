"""Radial discretization of R^6 for rotation-invariant fields.

A radial function f(|x|) on R^6 is sampled on nodes 0 < r_1 < ... < r_n = r_max.
Integrals carry the surface measure of the 5-sphere,

    int_{R^6} f dx = pi^3 int_0^inf f(r) r^5 dr,

(|S^5| = pi^3), and the Laplacian acts as

    Delta f = f'' + (5/r) f' = r^{-5} (r^5 f')'.

Two discrete operators are provided:

* ``order=2``: a finite-volume form of r^{-5}(r^5 f')' with fluxes at the cell
  edges (arithmetic midpoints of adjacent nodes, plus the edge r=0 where the
  flux vanishes identically by radial regularity).  It is self-adjoint in the
  cell-mass inner product and negative semidefinite, which the eigenvalue
  machinery relies on.
* ``order=4``: a five-point finite-difference stencil for f'' + (5/r) f',
  built by local polynomial fitting.  Not symmetric; used for high-accuracy
  residual diagnostics.

Outer boundary rules: ``dirichlet`` (ghost value 0 past r_max) or ``decay4``
(ghost extrapolated by an A r^-4 + B r^-6 tail fit, appropriate for fields
with the ground state's power tail).  The inner boundary is always the exact
zero-flux / even-extension regularity condition at r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class GridError(ValueError):
    pass


# Bound of the per-grid caches (lru_cache keyed by the grid).  A scenario
# touches at most three grids, so 8 never evicts within a run, while a long
# session keeps at most 8 sets of n x n eigenvectors (32 MB at n = 2048).
GRID_CACHE_SIZE = 8


def _algebraic_map(s: np.ndarray, r_max: float, stretch: float) -> np.ndarray:
    # r(s) = r_max * s / (1 + c(1-s)): spacing ~ (r_max + c r)^2, clustering at 0
    return r_max * s / (1.0 + stretch * (1.0 - s))


@dataclass(frozen=True)
class RadialGrid:
    """Nodes, edges and quadrature data for the radial discretization.

    ``mapping`` is ``"uniform"`` or ``"algebraic"``; the algebraic map
    r(s) = r_max s / (1 + c(1-s)) with s = i/n concentrates nodes near the
    origin (spacing grows like (r_max + c r)^2 / ((1+c) r_max n)) so that the
    slowly decaying r^-4 ground-state tail fits in a large box without
    starving the core.

    Equality and hashing compare (n, r_max, mapping, stretch), which fix the
    nodes; per-grid caches are keyed on that identity.
    """

    n: int
    r_max: float
    mapping: str = "algebraic"
    stretch: float = 29.0
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 5:
            raise GridError(f"grid needs at least 5 nodes, got {self.n}")
        if self.r_max <= 0:
            raise GridError("r_max must be positive")
        s = np.arange(1, self.n + 1) / self.n
        if self.mapping == "uniform":
            r = self.r_max * s
        elif self.mapping == "algebraic":
            if self.stretch < 0:
                raise GridError("stretch must be nonnegative")
            r = _algebraic_map(s, self.r_max, self.stretch)
        else:
            raise GridError(f"unknown mapping {self.mapping!r}")
        edges = np.empty(self.n + 1)
        edges[0] = 0.0
        edges[1:-1] = 0.5 * (r[:-1] + r[1:])
        edges[-1] = r[-1] + 0.5 * (r[-1] - r[-2])
        object.__setattr__(self, "nodes", r)
        object.__setattr__(self, "edges", edges)
        self.nodes.setflags(write=False)
        self.edges.setflags(write=False)

    @cached_property
    def cell_masses(self) -> np.ndarray:
        """Exact cell integrals of r^5 (no pi^3 factor); the operator metric."""
        e = self.edges
        w = (e[1:] ** 6 - e[:-1] ** 6) / 6.0
        w.setflags(write=False)
        return w

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Weights w_i with sum w_i f(r_i) ~ int_{R^6} f dx (pi^3 included).

        Piecewise-quadratic interpolation integrated against r^5 exactly;
        interior segments average the left- and right-based quadratics.  The
        patch [0, r_1] uses an even quadratic in r (radial regularity).
        """
        r = self.nodes
        n = self.n
        w = np.zeros(n)

        def moments(a, b):
            return np.array([(b ** (6 + k) - a ** (6 + k)) / (6 + k) for k in range(3)])

        def contrib(x3, a, b):
            v = np.vander(x3, 3, increasing=True)
            return np.linalg.solve(v.T, moments(a, b))

        m6 = r[0] ** 6 / 6.0
        m8 = r[0] ** 8 / 8.0
        t = (m8 - r[0] ** 2 * m6) / (r[1] ** 2 - r[0] ** 2)
        w[0] += m6 - t
        w[1] += t
        for i in range(n - 1):
            a, b = r[i], r[i + 1]
            if i <= 1:
                # linear rule near the origin keeps every weight positive; the
                # r^5 mass there is O(r_2^6) of the total, so no accuracy cost
                p6 = (b ** 6 - a ** 6) / 6.0
                p7 = (b ** 7 - a ** 7) / 7.0
                w[i] += (b * p6 - p7) / (b - a)
                w[i + 1] += (p7 - a * p6) / (b - a)
            elif i == n - 2:
                w[n - 3:n] += contrib(r[n - 3:n], a, b)
            else:
                w[i - 1:i + 2] += 0.5 * contrib(r[i - 1:i + 2], a, b)
                w[i:i + 3] += 0.5 * contrib(r[i:i + 3], a, b)
        w *= np.pi ** 3
        w.setflags(write=False)
        return w

    def laplacian_tridiag(self, boundary: str = "dirichlet"):
        """Tridiagonal data (sub, diag, super, corner) of the order-2 operator.

        ``corner`` is the extra (n-1, n-3)-free coefficient multiplying
        f[n-2] in the last row under the decay4 rule (0 for dirichlet).
        """
        r, e, m = self.nodes, self.edges, self.cell_masses
        n = self.n
        g = np.zeros(n + 1)
        g[1:n] = e[1:n] ** 5 / (r[1:] - r[:-1])
        r_ghost = r[-1] + (r[-1] - r[-2])
        g[n] = e[n] ** 5 / (r_ghost - r[-1])
        sub = g[1:n] / m[1:]
        sup = g[1:n] / m[:-1]
        diag = -(g[:-1] + g[1:]) / m
        corner = 0.0
        if boundary == "decay4":
            alpha, beta = _tail_ghost_coeffs(r[-2], r[-1], r_ghost)
            diag = diag.copy()
            diag[-1] += g[n] * alpha / m[-1]
            corner = g[n] * beta / m[-1]
        elif boundary != "dirichlet":
            raise GridError(f"unknown boundary rule {boundary!r}")
        return sub, diag, sup, corner

    @cached_property
    def dirichlet_tridiag(self):
        """(sub, diag, super) of the order-2 operator under the dirichlet rule."""
        sub, diag, sup, _ = self.laplacian_tridiag("dirichlet")
        for a in (sub, diag, sup):
            a.setflags(write=False)
        return sub, diag, sup

    def apply_laplacian(self, x: np.ndarray) -> np.ndarray:
        """Delta_h x under the dirichlet rule (real or complex x)."""
        sub, diag, sup = self.dirichlet_tridiag
        out = diag * x
        out[:-1] += sup * x[1:]
        out[1:] += sub * x[:-1]
        return out

    def laplacian_matrix(self, boundary: str = "dirichlet", order: int = 2) -> sp.csr_matrix:
        if order == 2:
            sub, diag, sup, corner = self.laplacian_tridiag(boundary)
            mat = sp.diags([sub, diag, sup], [-1, 0, 1], format="lil")
            if corner:
                mat[-1, -2] += corner
            return mat.tocsr()
        if order == 4:
            return self._laplacian_matrix_o4(boundary)
        raise GridError(f"unsupported order {order}")

    def _laplacian_matrix_o4(self, boundary: str) -> sp.csr_matrix:
        """Five-point f'' + (5/r) f' by local quartic fits; even extension at 0."""
        r = self.nodes
        n = self.n
        r_g1 = r[-1] + (r[-1] - r[-2])
        r_g2 = r[-1] + 2.0 * (r[-1] - r[-2])
        rows, cols, vals = [], [], []

        def stencil_weights(x0, xs):
            # derivative weights from a degree-(len(xs)-1) fit around x0
            d = np.array(xs) - x0
            V = np.vander(d, increasing=True).T
            b1 = np.zeros(len(xs)); b1[1] = 1.0
            b2 = np.zeros(len(xs)); b2[2] = 2.0
            w1 = np.linalg.solve(V, b1)
            w2 = np.linalg.solve(V, b2)
            return w2 + (5.0 / x0) * w1

        if boundary == "decay4":
            a1, b1 = _tail_ghost_coeffs(r[-2], r[-1], r_g1)
            a2, b2 = _tail_ghost_coeffs(r[-2], r[-1], r_g2)
        elif boundary == "dirichlet":
            a1 = b1 = a2 = b2 = 0.0
        else:
            raise GridError(f"unknown boundary rule {boundary!r}")

        for i in range(n):
            idx = [i - 2, i - 1, i, i + 1, i + 2]
            xs, fold = [], []
            for j in idx:
                if j < 0:
                    xs.append(-r[-j - 1])       # even reflection through r=0
                    fold.append(-j - 1)
                elif j < n:
                    xs.append(r[j])
                    fold.append(j)
                elif j == n:
                    xs.append(r_g1)
                    fold.append(("ghost", a1, b1))
                else:
                    xs.append(r_g2)
                    fold.append(("ghost", a2, b2))
            ws = stencil_weights(r[i], xs)
            acc = {}
            for wgt, tgt in zip(ws, fold):
                if isinstance(tgt, tuple):
                    _, ga, gb = tgt
                    acc[n - 1] = acc.get(n - 1, 0.0) + wgt * ga
                    acc[n - 2] = acc.get(n - 2, 0.0) + wgt * gb
                else:
                    acc[tgt] = acc.get(tgt, 0.0) + wgt
            for j_col, wgt in acc.items():
                rows.append(i); cols.append(j_col); vals.append(wgt)
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def symmetrized_tridiag(self):
        """(diag, offdiag) of D^{1/2} Delta_h D^{-1/2}, D = diag(cell masses).

        Exactly symmetric (dirichlet rule); use with eigh_tridiagonal.
        """
        sub, diag, sup = self.dirichlet_tridiag
        off = np.sqrt(sub * sup)
        return diag, off


def _tail_ghost_coeffs(r1: float, r2: float, rg: float):
    """Ghost weights (alpha on f(r2), beta on f(r1)) for an A r^-4 + B r^-6 fit."""
    M = np.array([[r1 ** -4, r1 ** -6], [r2 ** -4, r2 ** -6]])
    inv = np.linalg.inv(M)
    w = np.array([rg ** -4, rg ** -6])
    beta, alpha = w @ inv[:, 0], w @ inv[:, 1]
    return float(alpha), float(beta)


@dataclass(frozen=True)
class RadialField:
    """Complex samples of a radial function at the grid nodes."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise GridError(f"field length {v.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise GridError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        return RadialField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return RadialField(self.grid, self.values - other.values)

    def __rmul__(self, scalar):
        return RadialField(self.grid, scalar * self.values)


@dataclass(frozen=True)
class FieldPair:
    """State (u, v) of the two-component system, with coupling constant kappa."""

    first: RadialField
    second: RadialField
    kappa: float

    def __post_init__(self):
        if self.first.grid != self.second.grid:
            raise GridError("components live on different grids")
        if self.kappa <= 0:
            raise GridError("kappa must be positive")

    @property
    def grid(self) -> RadialGrid:
        return self.first.grid

    @property
    def u(self) -> np.ndarray:
        return self.first.values

    @property
    def v(self) -> np.ndarray:
        return self.second.values

    def with_values(self, u: np.ndarray, v: np.ndarray) -> "FieldPair":
        g = self.grid
        return FieldPair(RadialField(g, u), RadialField(g, v), self.kappa)

    def __add__(self, other):
        return self.with_values(self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        return self.with_values(self.u - other.u, self.v - other.v)

    def __rmul__(self, scalar):
        return self.with_values(scalar * self.u, scalar * self.v)

    def conj(self) -> "FieldPair":
        return self.with_values(np.conj(self.u), np.conj(self.v))


def pair_from_arrays(grid: RadialGrid, u, v, kappa: float) -> FieldPair:
    return FieldPair(RadialField(grid, np.asarray(u, dtype=complex)),
                     RadialField(grid, np.asarray(v, dtype=complex)), kappa)


def laplacian6(f: RadialField, boundary: str = "dirichlet", order: int = 2) -> RadialField:
    """Discrete Delta f = f'' + (5/r) f' with the configured boundary rule."""
    mat = f.grid.laplacian_matrix(boundary, order)
    return RadialField(f.grid, mat @ f.values)


def radial_derivative(f: RadialField) -> RadialField:
    """Centered d/dr (second order on the smooth mapped grid, one-sided ends)."""
    r = f.grid.nodes
    v = f.values
    out = np.empty_like(v)
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    out[1:-1] = (hm / hp * (v[2:] - v[1:-1]) + hp / hm * (v[1:-1] - v[:-2])) / (hm + hp)
    # one-sided quadratic at both ends
    out[0] = _onesided(r[0], r[:3], v[:3])
    out[-1] = _onesided(r[-1], r[-3:], v[-3:])
    return RadialField(f.grid, out)


def _onesided(x0, xs, vs):
    d = xs - x0
    V = np.vander(d, increasing=True).T
    b = np.zeros(len(xs)); b[1] = 1.0
    return np.linalg.solve(V, b) @ vs


def integrate6(f: RadialField):
    """Quadrature for int_{R^6} f dx; returns a complex scalar."""
    val = np.sum(f.grid.quad_weights * f.values)
    return complex(val)


def integrate6_samples(grid: RadialGrid, samples: np.ndarray):
    return complex(np.sum(grid.quad_weights * samples))


def h1dot_inner(f: FieldPair, g: FieldPair) -> float:
    """Re int grad f1 . grad g1~ + grad f2 . grad g2~  (plain product norm)."""
    if f.grid != g.grid:
        raise GridError("inner product requires a shared grid")
    df1 = radial_derivative(f.first).values
    df2 = radial_derivative(f.second).values
    dg1 = radial_derivative(g.first).values
    dg2 = radial_derivative(g.second).values
    w = f.grid.quad_weights
    return float(np.real(np.sum(w * (df1 * np.conj(dg1) + df2 * np.conj(dg2)))))


def h1dot_norm(f: FieldPair) -> float:
    return float(np.sqrt(max(h1dot_inner(f, f), 0.0)))
