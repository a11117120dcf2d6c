"""Linearized operators around the ground state, quadratic forms, remainder maps.

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

from .grid import FieldPair, RadialGrid
from .groundstate import GroundStateBundle, transform_T

_LABELS = ("L_R", "L_I", "E_R", "E_I")


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

    def apply(self, stacked: np.ndarray) -> np.ndarray:
        return self.mat @ stacked

    def op_weights(self) -> np.ndarray:
        m = self.grid.cell_masses
        return np.pi ** 3 * np.concatenate([m, m])

    def quad(self, a: np.ndarray, b: np.ndarray) -> float:
        """<A a, b> with the cell-mass pairing; real stacked inputs."""
        return float(np.real(np.sum(self.op_weights() * (self.mat @ a) * np.conj(b))))

    def symmetry_defect(self) -> float:
        """|| W A - (W A)^T || / || W A ||  (Frobenius), W = diag(weights)."""
        W = sp.diags(self.op_weights())
        M = (W @ self.mat).toarray()
        return float(np.linalg.norm(M - M.T) / np.linalg.norm(M))

    def symmetric_dense(self) -> np.ndarray:
        """D^{1/2} A D^{-1/2} as a dense symmetric matrix (dirichlet rule only)."""
        m = self.grid.cell_masses
        d = np.sqrt(np.concatenate([m, m]))
        M = self.mat.toarray()
        S = (M * d[:, None]) / d[None, :]
        return 0.5 * (S + S.T)


def _kinetic_blocks(grid: RadialGrid, k1: float, k2: float, boundary: str, order: int):
    lap = grid.laplacian_matrix(boundary, order)
    return -k1 * lap, -k2 * lap


def _assemble(grid: RadialGrid, kappa: float, qvals: np.ndarray, label: str,
              boundary: str, order: int) -> PairOperator:
    if label in ("L_R", "L_I"):
        kin2 = 0.5 * kappa
        off = np.sqrt(kappa) * qvals
    else:
        kin2 = kappa
        off = np.sqrt(2.0 * kappa) * qvals
    sign = -1.0 if label.endswith("_R") else 1.0
    A11, A22 = _kinetic_blocks(grid, 1.0, kin2, boundary, order)
    diag_pot = sp.diags(sign * qvals)
    off_pot = sp.diags(-off)
    mat = sp.bmat([[A11 + diag_pot, off_pot], [off_pot, A22]], format="csr")
    return PairOperator(label=label, grid=grid, kappa=kappa, mat=mat,
                        boundary=boundary, order=order)


def assemble_L(bundle: GroundStateBundle, which: str,
               boundary: str = "dirichlet", order: int = 2) -> PairOperator:
    if which not in ("L_R", "L_I"):
        raise ValueError(f"which must be L_R or L_I, got {which!r}")
    return _assemble(bundle.grid, bundle.kappa, bundle.q_bg.values.real, which,
                     boundary, order)


def assemble_E(bundle: GroundStateBundle, which: str,
               boundary: str = "dirichlet", order: int = 2) -> PairOperator:
    if which not in ("E_R", "E_I"):
        raise ValueError(f"which must be E_R or E_I, got {which!r}")
    return _assemble(bundle.grid, bundle.kappa, bundle.q_bg.values.real, which,
                     boundary, order)


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
        """4n x 4n real matrix on (Re h, Re g, Im h, Im g)."""
        n2 = 2 * self.e_r.n
        Z = sp.csr_matrix((n2, n2))
        return sp.bmat([[Z, -self.e_i.mat], [self.e_r.mat, Z]], format="csc")

    def kernel_residuals(self, bundle: GroundStateBundle) -> dict:
        """Relative residuals of script_E on T(i bQ1) and T(Lambda bQ)."""
        tq1 = transform_T(bundle.q1_vec)
        tlq = bundle.t_lambda_q
        z_iq1 = 1j * np.concatenate([tq1.u, tq1.v])
        z_lq = np.concatenate([tlq.u, tlq.v]).astype(complex)
        out = {}
        for name, z in (("t_i_q1", z_iq1), ("t_lambda_q", z_lq)):
            res = self.apply_complex(z)
            out[name] = float(np.linalg.norm(res) / np.linalg.norm(z))
        return out


def build_block_E(bundle: GroundStateBundle, boundary: str = "dirichlet",
                  order: int = 2) -> BlockOperatorE:
    return BlockOperatorE(e_r=assemble_E(bundle, "E_R", boundary, order),
                          e_i=assemble_E(bundle, "E_I", boundary, order))


def _split(p: FieldPair):
    return np.concatenate([p.u, p.v])


def quad_form(a: FieldPair, b: FieldPair, which: str, bundle: GroundStateBundle,
              ops: tuple[PairOperator, PairOperator] | None = None) -> float:
    """Phi(a,b) ('phi') or Phi_E(a,b) ('phi_e'); ops may be passed to reuse assembly."""
    if ops is None:
        if which == "phi":
            ops = (assemble_L(bundle, "L_R"), assemble_L(bundle, "L_I"))
        elif which == "phi_e":
            ops = (assemble_E(bundle, "E_R"), assemble_E(bundle, "E_I"))
        else:
            raise ValueError(f"unknown form {which!r}")
    op_r, op_i = ops
    za, zb = _split(a), _split(b)
    return 0.5 * op_r.quad(za.real, zb.real) + 0.5 * op_i.quad(za.imag, zb.imag)


def nonlinear_map(h: FieldPair, which: str, bundle: GroundStateBundle | None = None) -> FieldPair:
    """Pointwise remainder maps of the two linearizations.

    R(h,g) = (conj(h) g, h^2)              quadratic remainder, original system
    N(h,g) = (2 conj(h) g, h^2)            quadratic remainder, transformed system
    K(h,g) = (conj(h) Q + sqrt(k) Q g, 2 sqrt(k) Q h)       linear coupling, original
    B(h,g) = (conj(h) Q + sqrt(2k) Q g, sqrt(2k) Q h)       linear coupling, transformed
    """
    u, v = h.u, h.v
    if which == "R":
        return h.with_values(np.conj(u) * v, u * u)
    if which == "N":
        return h.with_values(2.0 * np.conj(u) * v, u * u)
    if bundle is None:
        raise ValueError("maps K and B need the ground-state bundle")
    q = bundle.q_bg.values.real
    k = bundle.kappa
    if which == "K":
        return h.with_values(np.conj(u) * q + np.sqrt(k) * q * v, 2.0 * np.sqrt(k) * q * u)
    if which == "B":
        s = np.sqrt(2.0 * k)
        return h.with_values(np.conj(u) * q + s * q * v, s * q * u)
    raise ValueError(f"unknown map {which!r}")


def bilinear_N(a: FieldPair, b: FieldPair) -> FieldPair:
    """Polarization of N: B_N(a,b) = (conj(a1) b2 + conj(b1) a2, a1 b1).

    Symmetric, with N(a) = B_N(a,a) and N(a+b) = N(a) + 2 B_N(a,b) + N(b).
    """
    return a.with_values(np.conj(a.u) * b.v + np.conj(b.u) * a.v, a.u * b.u)


def export_triplets(op: PairOperator, path: str) -> None:
    """Write (row, col, value) rows of the assembled matrix for inspection."""
    coo = op.mat.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {op.label} n={op.n} kappa={op.kappa:.17g} boundary={op.boundary} order={op.order}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")
