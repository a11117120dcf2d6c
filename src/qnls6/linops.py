"""Linearized operators around the ground state, quadratic forms, the polarization B_N.

Around bQ = (sqrt(k) Q, Q) the real and imaginary parts of a perturbation are
governed by the matrix Schrodinger operators (acting on real pairs)

    L_R = [[-Lap - Q,       -sqrt(k) Q ],          L_I = [[-Lap + Q,      -sqrt(k) Q ],
           [-sqrt(k) Q,  -(k/2) Lap    ]]                 [-sqrt(k) Q,  -(k/2) Lap   ]]

with kernels containing (Lambda bQ) and bQ1 = (sqrt(k) Q, 2Q) respectively.
Around T(bQ) in the transformed system the analogous operators carry the
potential sqrt(2k) Q and kinetic diag(-Lap, -k Lap):

    E_R = [[-Lap - Q, -sqrt(2k) Q], [-sqrt(2k) Q, -k Lap]],
    E_I = [[-Lap + Q, -sqrt(2k) Q], [-sqrt(2k) Q, -k Lap]],

and the full linearized generator is the block rotation

    script_E = [[0, -E_I], [E_R, 0]]     acting on (Re part; Im part).

Quadratic forms:  Phi(a, b)   = 1/2 <L_R Re a, Re b> + 1/2 <L_I Im a, Im b>,
                  Phi_E(a, b) = the same with E_R, E_I.
Pairings use the cell-mass quadrature so that discrete self-adjointness is
exact, which the form identities (anti-self-adjointness of script_E under
Phi_E, degeneracy of the kernel directions) inherit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .grid import FieldPair, RadialGrid, pair_from_arrays
from .groundstate import GroundStateBundle


@dataclass(frozen=True)
class PairOperator:
    """2n x 2n real operator acting on stacked radial pairs (f1; f2)."""

    label: str
    grid: RadialGrid
    kappa: float
    mat: sp.csr_matrix
    boundary: str
    order: int

    @property
    def n(self) -> int:
        return self.grid.n

    def op_weights(self) -> np.ndarray:
        return np.tile(self.grid.op_weights, 2)

    def quad(self, a: np.ndarray, b: np.ndarray) -> float:
        """<A a, b> with the cell-mass pairing of real stacked pairs (2n,)."""
        return float(np.real(np.sum(self.op_weights() * (self.mat @ a) * np.conj(b))))

    def symmetry_defect(self) -> float:
        """|| W A - (W A)^T || / || W A ||  (Frobenius), W = diag(weights).
        An oracle: test_symmetry_defect checks discrete self-adjointness with it."""
        W = sp.diags(self.op_weights())
        M = (W @ self.mat).toarray()
        return float(np.linalg.norm(M - M.T) / np.linalg.norm(M))

    def symmetric_dense(self) -> np.ndarray:
        """D^{1/2} A D^{-1/2} as a dense symmetric matrix (dirichlet rule only)."""
        d = np.tile(self.grid.sqrt_masses, 2)
        S = self.mat.toarray()
        S *= d[:, None]
        S /= d[None, :]
        S += S.T
        S *= 0.5
        return S


def _assemble(bundle: GroundStateBundle, label: str, family: tuple, boundary: str,
              order: int) -> PairOperator:
    if label not in family:
        raise ValueError(f"which must be {family[0]} or {family[1]}, got {label!r}")
    grid, kappa, qvals = bundle.grid, bundle.kappa, bundle.q_bg.values.real
    # second kinetic weight and squared coupling: (k/2, k) for L, (k, 2k) for E
    kin2, c2 = (0.5 * kappa, kappa) if label.startswith("L_") else (kappa, 2.0 * kappa)
    sign = -1.0 if label.endswith("_R") else 1.0
    lap = grid.laplacian_matrix(boundary, order)
    diag_pot = sp.diags(sign * qvals)
    off_pot = sp.diags(-(np.sqrt(c2) * qvals))
    mat = sp.bmat([[-lap + diag_pot, off_pot], [off_pot, -kin2 * lap]], format="csr")
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return PairOperator(label=label, grid=grid, kappa=kappa, mat=mat,
                        boundary=boundary, order=order)


def assemble_L(bundle: GroundStateBundle, which: str,
               boundary: str = "dirichlet", order: int = 2) -> PairOperator:
    return _assemble(bundle, which, ("L_R", "L_I"), boundary, order)


def assemble_E(bundle: GroundStateBundle, which: str,
               boundary: str = "dirichlet", order: int = 2) -> PairOperator:
    return _assemble(bundle, which, ("E_R", "E_I"), boundary, order)


@dataclass(frozen=True)
class GeneratorBand:
    """S = P D script_E D^{-1} P^T on a LAPACK band, D the cell-mass square roots
    on all 4n entries and P the interleaving of each node's four unknowns as
    (Re h_j, Re g_j, Im h_j, Im g_j): kl = ku = 6 for the three-point Laplacian
    (Golub & Van Loan, Matrix Computations, 4th ed., section 4.3, band LU)."""

    ab: np.ndarray       # S[i, j] at ab[ku + i - j, j], Fortran order
    kl: int
    ku: int
    perm: np.ndarray     # entry i of the band layout is entry perm[i] of pack_real's
    d: np.ndarray        # D on the band layout

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """S x on the band layout."""
        return dgbmv(len(x), len(x), self.kl, self.ku, 1.0, self.ab, x)

    def natural(self, x: np.ndarray) -> np.ndarray:
        """D^{-1} P^T x: the layout of ``pack_real`` of band coordinates x."""
        out = np.empty_like(x)
        out[self.perm] = x / self.d
        return out

    def factor(self, s: float) -> "ShiftedFactor":
        """One dgbtrf of S - s; an exactly singular factor raises RuntimeError."""
        kl, ku = self.kl, self.ku
        ab = np.zeros((2 * kl + ku + 1, self.ab.shape[1]), order="F")
        ab[kl:] = self.ab
        ab[kl + ku] -= s
        lu, ipiv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise RuntimeError(f"factor of script_E - {s!r} is exactly singular")
        return ShiftedFactor(band=self, lu=lu, ipiv=ipiv)


@dataclass(frozen=True)
class ShiftedFactor:
    """The band LU of S - s, and through it (script_E - s)^{-1}."""

    band: GeneratorBand
    lu: np.ndarray
    ipiv: np.ndarray

    def solve(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """(S - s)^{-1} x on the band layout; trans=1 solves with the transpose."""
        return dgbtrs(self.lu, self.band.kl, self.band.ku, x, self.ipiv, trans=trans)[0]

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """(script_E - s)^{-1} b on the layout of ``pack_real``, b of shape (4n,) or (4n, k)."""
        return self._apply(b, 0)

    def rmatvec(self, b: np.ndarray) -> np.ndarray:
        """(script_E - s)^{-T} b, the transpose solve of ``matvec``."""
        return self._apply(b, 1)

    def _apply(self, b: np.ndarray, trans: int) -> np.ndarray:
        # (script_E - s)^{-1} = D^{-1} P^T (S - s)^{-1} P D, transposed D P^T (S - s)^{-T} P D^{-1}
        p, d = self.band.perm, self.band.d[:, None]
        y = np.reshape(b, (len(p), -1))[p]
        y = self.solve(y / d if trans else y * d, trans)
        x = np.empty_like(y)
        x[p] = y * d if trans else y / d
        return x.reshape(np.shape(b))


@dataclass(frozen=True)
class BlockOperatorE:
    """script_E = [[0, -E_I], [E_R, 0]] on 4n real degrees of freedom."""

    e_r: PairOperator
    e_i: PairOperator

    @property
    def grid(self) -> RadialGrid:
        return self.e_r.grid

    def apply_complex(self, z: np.ndarray) -> np.ndarray:
        """Act on a complex stacked pair (h; g): Re -> -E_I Im, Im -> E_R Re."""
        return -(self.e_i.mat @ z.imag) + 1j * (self.e_r.mat @ z.real)

    def sparse_real(self) -> sp.csc_matrix:
        """4n x 4n real matrix on (Re h, Re g, Im h, Im g).  Only the oracles of
        test_linops (the dense shifted solve) and test_spectrum (the dense polish
        and the 4n eigensolve) use it; the solvers go through ``band``."""
        n2 = 2 * self.e_r.n
        Z = sp.csr_matrix((n2, n2))
        return sp.bmat([[Z, -self.e_i.mat], [self.e_r.mat, Z]], format="csc")

    def band(self) -> GeneratorBand:
        """The symmetrized, interleaved script_E, built in O(n) from the entries
        of E_R, E_I on each call, so that it lives no longer than its caller."""
        n, sm = self.grid.n, self.grid.sqrt_masses
        rows, cols, vals = [], [], []
        # -E_I maps the imaginary unknowns (2, 3) to the real rows (0, 1), E_R back
        for op, sign, r0, c0 in ((self.e_i, -1.0, 0, 2), (self.e_r, 1.0, 2, 0)):
            coo = op.mat.tocoo()
            r, c = coo.row % n, coo.col % n
            rows.append(4 * r + r0 + coo.row // n)
            cols.append(4 * c + c0 + coo.col // n)
            vals.append(sign * coo.data * sm[r] / sm[c])
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
        ab = np.zeros((kl + ku + 1, 4 * n), order="F")
        ab[ku + rows - cols, cols] = vals
        perm = (np.arange(4) * n + np.arange(n)[:, None]).ravel()
        return GeneratorBand(ab=ab, kl=kl, ku=ku, perm=perm, d=np.repeat(sm, 4))

    def shifted_inverse(self, s: float) -> ShiftedFactor:
        """(script_E - s)^{-1} on the layout of ``sparse_real``, from one band LU
        of the symmetrized generator (``band``); ``rmatvec`` solves with its
        transpose."""
        return self.band().factor(s)

    def solve_shifted(self, s: float, b: np.ndarray) -> np.ndarray:
        """(script_E - s)^{-1} b for a complex stacked pair b = (h; g)."""
        return unpack_real(self.shifted_inverse(s).matvec(pack_real(b)))

    def kernel_residuals(self, bundle: GroundStateBundle) -> dict:
        """Relative residuals of script_E on T(i bQ1) and T(Lambda bQ)."""
        out = {}
        for name, z in (("t_i_q1", 1j * stack_pair(bundle.t_q1)),
                        ("t_lambda_q", stack_pair(bundle.t_lambda_q))):
            res = self.apply_complex(z)
            out[name] = float(np.linalg.norm(res) / np.linalg.norm(z))
        return out


def build_block_E(bundle: GroundStateBundle) -> BlockOperatorE:
    return BlockOperatorE(*form_ops(bundle, "phi_e"))


def stack_pair(p: FieldPair) -> np.ndarray:
    """The stacked (u; v) of a pair, the layout of the operators and forms."""
    return np.concatenate([p.u, p.v])


def unstack_pair(grid: RadialGrid, z: np.ndarray, kappa: float) -> FieldPair:
    """The pair of a stacked (u; v) of shape (2n,), the inverse of ``stack_pair``."""
    return pair_from_arrays(grid, z[:grid.n], z[grid.n:], kappa)


def pack_real(z: np.ndarray) -> np.ndarray:
    """The real layout (Re z; Im z) of ``sparse_real`` of a complex stacked pair z."""
    return np.concatenate([z.real, z.imag])


def unpack_real(x: np.ndarray) -> np.ndarray:
    """The complex stacked pair of a real layout x, the inverse of ``pack_real``."""
    half = len(x) // 2
    return x[:half] + 1j * x[half:]


def weighted_norm(grid: RadialGrid, z: np.ndarray) -> float:
    """The cell-mass L^2 norm of a stacked pair (u; v)."""
    return float(np.sqrt(np.sum(np.tile(grid.op_weights, 2) * np.abs(z) ** 2)))


def form_ops(bundle: GroundStateBundle, which: str) -> tuple[PairOperator, PairOperator]:
    """The operator pair of a form: (L_R, L_I) of Phi ('phi'), (E_R, E_I) of Phi_E ('phi_e'),
    assembled once per bundle (``bundle.ops``); the shared matrices are read-only."""
    if which not in bundle.ops:
        if which == "phi":
            bundle.ops[which] = assemble_L(bundle, "L_R"), assemble_L(bundle, "L_I")
        elif which == "phi_e":
            bundle.ops[which] = assemble_E(bundle, "E_R"), assemble_E(bundle, "E_I")
        else:
            raise ValueError(f"unknown form {which!r}")
    return bundle.ops[which]


def quad_form(a: FieldPair, b: FieldPair, ops: tuple[PairOperator, PairOperator]) -> float:
    """The form of ``ops`` (``form_ops``, or a block's (e_r, e_i)) at (a, b): Phi or Phi_E."""
    (op_r, op_i), za, zb = ops, stack_pair(a), stack_pair(b)
    return 0.5 * op_r.quad(za.real, zb.real) + 0.5 * op_i.quad(za.imag, zb.imag)


def bilinear_N(a: FieldPair, b: FieldPair) -> FieldPair:
    """Polarization of the transformed system's quadratic remainder N(h) =
    (2 conj(h1) h2, h1^2): B_N(a,b) = (conj(a1) b2 + conj(b1) a2, a1 b1).

    Symmetric, with N(a) = B_N(a,a) and N(a+b) = N(a) + 2 B_N(a,b) + N(b).
    """
    return a.with_values(np.conj(a.u) * b.v + np.conj(b.u) * a.v, a.u * b.u)

