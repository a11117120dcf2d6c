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
  every row's quartic fit taken in one stacked Vandermonde solve, with the
  two reflected nodes past r=0 and the two ghost nodes past r_max folded onto
  the nodes they stand for.  Not symmetric; used for high-accuracy residual
  diagnostics.

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


# Bound of the per-grid caches (lru_cache keyed by the grid).  spectrum touches
# four grids (n, the seed, the 2n check, the cross-check), so 8 never evicts in
# a run; an entry is O(n) (the refined Q, the trial modes), so a session holds
# at most 8 of each.
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
        if not 0 < self.r_max < np.inf:
            raise GridError("r_max must be positive and finite")
        s = np.arange(1, self.n + 1) / self.n
        if self.mapping == "uniform":
            r = self.r_max * s
        elif self.mapping == "algebraic":
            if not 0 <= self.stretch < np.inf:
                raise GridError("stretch must be nonnegative and finite")
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
    def op_weights(self) -> np.ndarray:
        """pi^3 times the cell masses: the pairing of the operators and forms."""
        w = np.pi ** 3 * self.cell_masses
        w.setflags(write=False)
        return w

    @cached_property
    def sqrt_masses(self) -> np.ndarray:
        """Square roots of the cell masses: D^{1/2} of D^{1/2} A D^{-1/2}."""
        s = np.sqrt(self.cell_masses)
        s.setflags(write=False)
        return s

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
        # node powers by scalar ``**`` (libm pow); numpy's array power can
        # differ in the last bit, which the Vandermonde solves amplify
        p6, p7, p8 = (np.array([x ** k for x in r.tolist()]) for k in (6, 7, 8))

        m6 = p6[0] / 6.0
        m8 = p8[0] / 8.0
        t = (m8 - r[0] ** 2 * m6) / (r[1] ** 2 - r[0] ** 2)
        w[0] += m6 - t
        w[1] += t
        for j in (0, 1):
            # linear rule near the origin keeps every weight positive; the
            # r^5 mass there is O(r_2^6) of the total, so no accuracy cost
            a, b = r[j], r[j + 1]
            m6 = (p6[j + 1] - p6[j]) / 6.0
            m7 = (p7[j + 1] - p7[j]) / 7.0
            w[j] += (b * m6 - m7) / (b - a)
            w[j + 1] += (m7 - a * m6) / (b - a)
        # segments [r_i, r_i+1], i = 2 .. n-3, average the quadratics through
        # r_i-1..r_i+1 (left) and r_i..r_i+2 (right); the last segment takes
        # its left quadratic whole.  One stacked solve for all 3x3 systems.
        i = np.arange(2, n - 2)
        first = np.concatenate([i - 1, i, [n - 3]])
        seg = np.concatenate([i, i, [n - 2]])
        mom = np.stack([(p[seg + 1] - p[seg]) / k for p, k in ((p6, 6), (p7, 7), (p8, 8))],
                       axis=1)
        c = _vandermonde_weights(r[first[:, None] + np.arange(3)], mom)
        left, right = 0.5 * c[:len(i)], 0.5 * c[len(i):-1]
        # each node takes its shares in the order of increasing segment,
        # the left quadratic's before the right one's
        w[i + 2] += right[:, 2]
        w[i + 1] += left[:, 2]
        w[i + 1] += right[:, 1]
        w[i] += left[:, 1]
        w[i] += right[:, 0]
        w[i - 1] += left[:, 0]
        w[n - 3:] += c[-1]
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
        alpha, beta = self._ghost(boundary, 1)
        diag[-1] += g[n] * alpha / m[-1]
        return sub, diag, sup, g[n] * beta / m[-1]

    def _ghost(self, boundary: str, k: int):
        """(alpha, beta) of the ghost value alpha f[n-1] + beta f[n-2] at
        r[-1] + k (r[-1] - r[-2]): zero under dirichlet, the r^-4 / r^-6 tail
        fit under decay4."""
        r = self.nodes
        if boundary == "dirichlet":
            return 0.0, 0.0
        if boundary == "decay4":
            return _tail_ghost_coeffs(r[-2], r[-1], r[-1] + k * (r[-1] - r[-2]))
        raise GridError(f"unknown boundary rule {boundary!r}")

    @cached_property
    def dirichlet_tridiag(self):
        """(sub, diag, super) of the order-2 operator under the dirichlet rule."""
        sub, diag, sup, _ = self.laplacian_tridiag("dirichlet")
        for a in (sub, diag, sup):
            a.setflags(write=False)
        return sub, diag, sup

    @cached_property
    def derivative_weights(self):
        """Coefficients of ``radial_derivative``: (a, b, c, first, last).

        Interior rows are (a (f[i+1] - f[i]) + b (f[i] - f[i-1])) / c; the end
        rows are the weight triples ``first`` @ f[:3] and ``last`` @ f[-3:].
        """
        r = self.nodes
        hm = r[1:-1] - r[:-2]
        hp = r[2:] - r[1:-1]
        first, last = _vandermonde_weights(r[[[0, 1, 2], [-3, -2, -1]]] - r[[[0], [-1]]],
                                           np.array([0.0, 1.0, 0.0]))
        out = (hm / hp, hp / hm, hm + hp, first, last)
        for a in out:
            a.setflags(write=False)
        return out

    def apply_laplacian(self, x: np.ndarray) -> np.ndarray:
        """Delta_h x under the dirichlet rule (real or complex x of shape (n,),
        or (B, n) for B states at once)."""
        sub, diag, sup = self.dirichlet_tridiag
        out = diag * x
        out[..., :-1] += sup * x[..., 1:]
        out[..., 1:] += sub * x[..., :-1]
        return out

    def laplacian_matrix(self, boundary: str = "dirichlet", order: int = 2) -> sp.csr_matrix:
        if order == 2:
            sub, diag, sup, corner = self.laplacian_tridiag(boundary)
            n = self.n
            # rows (sub, diag, sup) in CSR order, less the two missing corners
            vals = np.stack([np.r_[0.0, sub], diag, np.r_[sup, 0.0]], axis=1).ravel()[1:-1]
            vals[-2] += corner           # the decay4 ghost's weight on f[n-2]
            cols = (np.arange(n)[:, None] + np.arange(-1, 2)).ravel()[1:-1]
            indptr = np.r_[0, np.arange(2, 3 * n - 1, 3), 3 * n - 2]
            return sp.csr_matrix((vals, cols, indptr), shape=(n, n))
        if order == 4:
            return self._laplacian_matrix_o4(boundary)
        raise GridError(f"unsupported order {order}")

    def _laplacian_matrix_o4(self, boundary: str) -> sp.csr_matrix:
        """Five-point f'' + (5/r) f' by local quartic fits; even extension at 0."""
        r = self.nodes
        n = self.n
        # row i fits the nodes i-2 .. i+2: nodes -2, -1 are -r_1, -r_0 and
        # nodes n, n+1 the two ghosts, folded below onto the nodes they stand for
        ext = np.concatenate([-r[1::-1], r, [r[-1] + (r[-1] - r[-2]),
                                             r[-1] + 2.0 * (r[-1] - r[-2])]])
        d = ext[np.arange(n)[:, None] + np.arange(5)] - r[:, None]
        w1, w2 = _vandermonde_weights(np.stack([d, d]), np.array([[[0.0, 1.0, 0.0, 0.0, 0.0]],
                                                                 [[0.0, 0.0, 2.0, 0.0, 0.0]]]))
        w = w2 + (5.0 / r)[:, None] * w1
        (a1, b1), (a2, b2) = self._ghost(boundary, 1), self._ghost(boundary, 2)
        w[0, 2] += w[0, 1]             # -r_0 onto f[0]
        w[0, 3] += w[0, 0]             # -r_1 onto f[1]
        w[1, 1] += w[1, 0]             # -r_0 onto f[0]
        w[-2, 3] += w[-2, 4] * a1      # ghost 1 onto f[n-1] and f[n-2]
        w[-2, 2] += w[-2, 4] * b1
        w[-1, 2] += w[-1, 3] * a1      # ghost 1, then ghost 2
        w[-1, 1] += w[-1, 3] * b1
        w[-1, 2] += w[-1, 4] * a2
        w[-1, 1] += w[-1, 4] * b2
        cols = np.arange(n)[:, None] + np.arange(-2, 3)
        keep = (cols >= 0) & (cols < n)
        indptr = np.r_[0, np.cumsum(keep.sum(axis=1))]
        return sp.csr_matrix((w[keep], cols[keep], indptr), shape=(n, n))

    def symmetrized_tridiag(self):
        """(diag, offdiag) of D^{1/2} Delta_h D^{-1/2}, D = diag(cell masses).

        Exactly symmetric (dirichlet rule).
        """
        sub, diag, sup = self.dirichlet_tridiag
        off = np.sqrt(sub * sup)
        return diag, off


def _vandermonde_weights(x: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Weights c with sum_j c_j x_j^k = moments_k, k < m, for each row of the
    stack x of shape (..., m), in one solve; ``moments`` broadcasts against x.
    The powers are repeated products, as np.vander builds them (``**`` can
    differ in the last bit, which the solves amplify)."""
    powers = [np.ones_like(x), x]
    while len(powers) < x.shape[-1]:
        powers.append(powers[-1] * x)
    rhs = np.broadcast_to(moments, x.shape)[..., None]
    return np.linalg.solve(np.stack(powers, axis=-2), rhs)[..., 0]


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
    return RadialField(f.grid, ddr(f.grid, f.values))


def ddr(grid: RadialGrid, v: np.ndarray) -> np.ndarray:
    """d/dr of v of shape (n,), or (B, n) for B fields at once (a row's
    value equals its 1-D value bit for bit)."""
    a, b, c, first, last = grid.derivative_weights
    out = np.empty_like(v)
    out[..., 1:-1] = (a * (v[..., 2:] - v[..., 1:-1]) + b * (v[..., 1:-1] - v[..., :-2])) / c
    # one-sided quadratic at both ends, one length-3 dot per row
    out[..., 0] = (v[..., None, :3] @ first)[..., 0]
    out[..., -1] = (v[..., None, -3:] @ last)[..., 0]
    return out


def integrate6_samples(grid: RadialGrid, samples: np.ndarray):
    """Quadrature for int_{R^6} f dx of the samples of f; returns a complex scalar."""
    return complex(np.sum(grid.quad_weights * samples))


def h1dot_inner(f: FieldPair, g: FieldPair) -> float:
    """Re int grad f1 . grad g1~ + grad f2 . grad g2~  (plain product norm)."""
    if f.grid != g.grid:
        raise GridError("inner product requires a shared grid")
    return h1dot_gradients(f.grid, _gradients(f), _gradients(g))


def h1dot_norm(f: FieldPair) -> float:
    df = _gradients(f)
    return float(np.sqrt(max(h1dot_gradients(f.grid, df, df), 0.0)))


def _gradients(f: FieldPair):
    return ddr(f.grid, f.u), ddr(f.grid, f.v)


def pair_gradients(grid: RadialGrid, z: np.ndarray):
    """(d/dr u, d/dr v) of stacked pairs z = (u; v) of shape (2n,), or (B, 2n)
    for B pairs at once."""
    n = grid.n
    return ddr(grid, z[..., :n]), ddr(grid, z[..., n:])


def h1dot_gradients(grid: RadialGrid, df, dg) -> float:
    """The Hdot1 pairing Re sum w (df1 conj(dg1) + df2 conj(dg2)) of two gradient pairs."""
    w = grid.quad_weights
    return float(np.real(np.sum(w * (df[0] * np.conj(dg[0]) + df[1] * np.conj(dg[1])))))
