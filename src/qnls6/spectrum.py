"""Unstable eigenvalue of the linearized generator and coercivity sampling.

The generator script_E = [[0, -E_I], [E_R, 0]] has essential spectrum on the
imaginary axis and exactly one pair of simple real eigenvalues +-lambda1,
with eigenfunctions e+- = e1 +- i e2 (E_R e1 = lambda1 e2, -E_I e2 = lambda1 e1).

eigenpair_e finds them in O(n) memory at every n, on one code path:

1. Seed.  Only the shift lambda_c is taken from the dense symmetric-product
   route, run on the closed-form background of the grid of the same family
   (r_max, mapping, stretch) with n_c = min(n, SEED_N) nodes: E_I >= 0 has the
   one-dimensional kernel span{T(bQ1)}, so its symmetric square root with
   that channel projected out exists (sqrt_ei), and TT = E_I^{1/2} E_R
   E_I^{1/2} has a single negative eigenvalue mu_c = -lambda_c^2
   (negative_eigenpair_tt).  TT is formed only here: its spectral scale
   grows like n^4, so a cut relative to it rejects mu on fine grids.
2. Shift-invert.  Inverse iteration on the 4n system (one LAPACK band LU,
   dgbtrf, of the symmetrized generator at lambda_c; with each node's four
   unknowns interleaved it has 6 sub- and 6 superdiagonals) from a fixed
   random start, then the Rayleigh-quotient polish, which re-factors at
   each new quotient and leaves an exact discrete eigenvector; that makes
   Phi_E(e+-) vanish identically (for an exact pair <E_R e1, e1> =
   lambda <e1, e2> = -<E_I e2, e2>).  The rest of the spectrum lies on the
   imaginary axis, at least lambda_c from the shift, so no start vector is
   needed from the seed (Parlett, The Symmetric Eigenvalue Problem, SIAM
   1998, on inverse iteration).  lambda1_inverse_iteration is the same
   iteration from the same start, without the polish.
3. Certificates, in place of the two dense eigendecompositions (Sylvester's
   law of inertia; Bunch & Kaufman, Math. Comp. 31 (1977) 163).  With the
   components interleaved, the symmetrized E_I and E_R are banded with lower
   bandwidth 2; the negative pivots of one unpivoted sparse LU = L D L^T
   count the eigenvalues under a shift in O(n).  This is the one place
   SuperLU remains: a pivoting band LU's diagonal carries no inertia.
   * ker(E_I): at most one eigenvalue of E_I lies under
     tau = min(1, kappa) lambda_D / 2, lambda_D the lowest eigenvalue of the
     grid's Dirichlet -Delta_h.  E_I's second eigenvalue is set by the box,
     at 1.01-1.08 min(1, kappa) lambda_D, whatever n; a clip relative to the
     largest eigenvalue, which grows like n^2, is not.  ``kernel_eig`` is
     the lowest eigenvalue, by inverse iteration from T(bQ1) at a shift at
     or below 0.
   * n_negative, the negative count of TT, is the negative inertia of E_R
     compressed to ker(E_I)^perp = T(bQ1)^perp: the Haynsworth inertia of
     the bordered [[E_R, k], [k^T, 0]] gives it from the pivots of E_R + tol
     and one solve.  Compressed eigenvalues above -NEGATIVE_GAP |mu| count
     as zero: the tolerance scales with mu and does not depend on n.

Sign conventions.  Phi_E(e+, e-) = <E_R e1, e1> = <TT g, g> < 0, so the pair
can be normalized to Phi_E(e+, e-) = -1 but not +1 while keeping
e- = conj(e+); the achieved value is recorded in ``normalization``.  The
overall sign of e+ is fixed by (Re e+, T(bQ))_{H_N} > 0, which ties the sign
of the shooting amplitude to the kinetic-energy side the trajectory lands on.

sqrt_ei and negative_eigenpair_tt are the small-n oracles of the seed;
dense_cross_check, an independent one, counts the real and near-zero
eigenvalues of script_E from one dense eigensolve of -E_I E_R.

shifted_solve_conditioning estimates ||(script_E - j lambda1)^{-1}||_1 with
onenormest, from a fixed seed of numpy's global RNG that it restores after.

coercivity_sample checks Phi, Phi_E, L_I and E_I on the complements of their
degenerate directions.  A trial's projection is linear in its coefficients
on the decaying modes, and its form and Hdot1 norm are quadratic in them, so
it is scored on the Gram matrices of the projected basis, built once per
call in O(n); a trial then costs O(1) in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .grid import GRID_CACHE_SIZE, FieldPair, RadialGrid, pair_gradients
from .groundstate import GroundStateBundle, build_bundle, build_directions, transform_T
from .linops import (GeneratorBand, PairOperator, build_block_E, form_ops,
                     quad_form, stack_pair, unpack_real, unstack_pair, weighted_norm)


class SpectrumError(RuntimeError):
    pass


# The dense symmetric product is formed at min(n, SEED_N) nodes only, for the
# shift lambda_c (two 2 SEED_N square eigh).  At 96 nodes lambda_c is within
# 0.3 % of lambda1 for kappa in [0.25, 4] (at 32 nodes, 2.2 %, and eigenpair_e
# still converges); see the module docstring.
SEED_N = 96
# Solves with the one factorization at the seed's lambda before the
# Rayleigh-quotient polish, and the re-factored solves of the polish.
FIXED_SHIFT_SOLVES = 3
POLISH_SOLVES = 3
REFINE_SOLVES = 5      # fixed-shift solves of lambda1_inverse_iteration and kernel_eig
# An iterate whose Rayleigh quotient strays further than this from the shift
# (relative) has locked onto another eigenvalue.
WANDER_REL = 0.5
# Compressed E_R eigenvalues below -NEGATIVE_GAP |mu| count as negative.
NEGATIVE_GAP = 0.5
# dense_cross_check: |Im| <= DENSE_TOL max(|Re|, 1) is real, |lambda| <= DENSE_TOL zero.
DENSE_TOL = 1e-4
# Seed of numpy's global RNG for each onenormest of shifted_solve_conditioning.
ONENORM_SEED = 0


# ---------------------------------------------------------------------------
# square root of E_I


@dataclass(frozen=True)
class SqrtEI:
    """Symmetric square root of E_I on the complement of its kernel."""

    op: PairOperator
    basis: np.ndarray          # eigenvectors in symmetrized coordinates
    sqrt_eigs: np.ndarray      # clipped square roots
    kernel_index: int
    kernel_eig: float


def sqrt_ei(e_i: PairOperator, bundle: GroundStateBundle,
            clip_rel: float = 1e-10) -> SqrtEI:
    """Eigendecompose E_I, project out the T(bQ1) kernel channel, clip, root.

    Any eigenvalue under the clip threshold other than the kernel channel
    signals an unexpected kernel dimension and raises.
    """
    # the exactly symmetric matrix is its own transpose, a Fortran-order view
    # that LAPACK overwrites without a copy
    eigs, basis = sla.eigh(e_i.symmetric_dense().T, overwrite_a=True)
    ref = np.tile(bundle.grid.sqrt_masses, 2) * stack_pair(bundle.t_q1).real
    ref = ref / np.linalg.norm(ref)
    kernel_index = int(np.argmax(np.abs(basis.T @ ref)))
    clip = clip_rel * float(np.max(np.abs(eigs)))
    small = np.where(np.abs(eigs) < clip)[0]
    extra = [int(i) for i in small if i != kernel_index]
    negative = [int(i) for i in np.where(eigs < -clip)[0] if i != kernel_index]
    if extra or negative:
        raise SpectrumError(
            f"unexpected kernel dimension: {len(extra)} extra near-zero and "
            f"{len(negative)} negative eigenvalues of E_I beyond span{{T(Q1)}}")
    clipped = eigs.copy()
    clipped[kernel_index] = 0.0
    clipped[np.abs(clipped) < clip] = 0.0
    return SqrtEI(op=e_i, basis=basis, sqrt_eigs=np.sqrt(np.maximum(clipped, 0.0)),
                  kernel_index=kernel_index, kernel_eig=float(eigs[kernel_index]))


# ---------------------------------------------------------------------------
# the symmetric product operator and its negative eigenvalue


def negative_eigenpair_tt(e_r: PairOperator, root: SqrtEI,
                          tol_scale: float = 1e-12) -> tuple[float, np.ndarray, dict]:
    """Most negative eigenpair of TT = E_I^{1/2} E_R E_I^{1/2} (symmetrized).

    Returns (mu, g, info); raises if no negative eigenvalue is found.
    """
    SQ = root.basis * root.sqrt_eigs[None, :]
    half = e_r.symmetric_dense() @ (SQ @ root.basis.T)
    T = root.basis @ SQ.T @ half
    del SQ, half
    T += T.T
    T *= 0.5
    eigs, vecs = sla.eigh(T)
    scale = float(np.max(np.abs(eigs)))
    neg = np.where(eigs < -tol_scale * scale)[0]
    if len(neg) == 0:
        raise SpectrumError(
            f"no eigenvalue of E_I^{{1/2}} E_R E_I^{{1/2}} below the cut "
            f"{-tol_scale * scale:.3e} ({tol_scale:g} x spectral scale {scale:.3e}) "
            f"at n = {root.op.n}; the lowest is {eigs[0]:.6e}")
    mu = float(eigs[0])
    g = vecs[:, 0]
    resid = float(np.linalg.norm(T @ g - mu * g))
    info = {"n_negative": int(len(neg)), "tt_residual": resid,
            "negative_eigs": [float(eigs[i]) for i in neg[:4]]}
    return mu, g, info


# ---------------------------------------------------------------------------
# eigenpair of script_E


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    e_plus: FieldPair
    e_minus: FieldPair
    normalization: float       # Phi_E(e+, e-) after rescaling (= -1 by convention)
    residual: float            # ||script_E e+ - lambda1 e+|| / ||e+||, weighted L2
    phi_e_plus: float          # Phi_E(e+) relative to ||e+||^2
    phi_e_minus: float
    mu: float                  # -lambda1^2, the negative eigenvalue of TT
    kernel_eig: float          # the lowest eigenvalue of E_I, the one under tau
    n: int
    # n_negative (the certified negative count of TT), tt_residual (of the
    # TT pair at n_c nodes), seed_n (n_c), seed_lambda1 (lambda_c, the shift)
    # and hn_pairing_sign_fixed
    info: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "normalization": self.normalization,
            "residual": self.residual,
            "phi_e_plus_rel": self.phi_e_plus,
            "phi_e_minus_rel": self.phi_e_minus,
            "mu": self.mu,
            "ei_kernel_eig": self.kernel_eig,
            "n": self.n,
            **{k: v for k, v in self.info.items() if isinstance(v, (int, float, str))},
        }


def _hn_inner(a: FieldPair, b: FieldPair) -> float:
    """Re (a, b)_{H_N} = Re <(-Lap a1, -kappa Lap a2), b> with cell-mass weights."""
    grid, w = a.grid, a.grid.op_weights
    t1 = np.sum(w * (-grid.apply_laplacian(a.u)) * b.u)
    t2 = a.kappa * np.sum(w * (-grid.apply_laplacian(a.v)) * b.v)
    return float(np.real(t1 + t2))


def _shift_invert(band: GeneratorBand, shift: float, fixed: int,
                  rayleigh: int) -> tuple[float, np.ndarray]:
    """Shift-inverted iteration on the symmetrized generator S of ``band``.

    Starts from one fixed random vector, so every caller runs the same
    iteration.  The first ``fixed`` solves reuse one factorization at
    ``shift``; each of the ``rayleigh`` solves after them re-factors at the
    current Rayleigh quotient (the polish).  Returns lambda and the last
    iterate, mapped back to the layout of ``pack_real`` (``band.natural``).
    """
    def factor(s):
        try:
            return band.factor(s)
        except RuntimeError:
            # s is an eigenvalue to machine precision: step off it
            return band.factor(s * (1.0 + 1e-9))

    # drawn on the layout of pack_real, then interleaved
    x = np.random.default_rng(7).standard_normal(len(band.perm))[band.perm]
    x /= np.linalg.norm(x)
    lam = shift
    lu = factor(shift) if fixed else None
    for it in range(fixed + rayleigh):
        if it >= fixed:
            lu = factor(lam)
        x = lu.solve(x)
        x /= np.linalg.norm(x)
        lam = float(x @ band.matvec(x))
        if it >= 1 and abs(lam - shift) > WANDER_REL * shift:
            raise SpectrumError("inverse iteration wandered off the target eigenvalue")
    return lam, band.natural(x)


def _seed(bundle: GroundStateBundle, clip_rel: float) -> dict:
    """The shift lambda_c from the dense symmetric-product route on a coarse grid.

    sqrt_ei and negative_eigenpair_tt run on the closed-form background of
    the grid of the same family (r_max, mapping, stretch) with
    n_c = min(n, SEED_N) nodes, whatever the bundle's background: a Q refined
    on so few nodes can sit far from the closed form on a large box (at
    r_max = 400 its lambda_c is 22 % below lambda1, and the polish wanders
    off at n = 2048), while the closed form's stays within 2 %.
    Returns seed_lambda1 (lambda_c), seed_n (n_c) and tt_residual.
    """
    grid = bundle.grid
    cgrid = RadialGrid(n=min(grid.n, SEED_N), r_max=grid.r_max,
                       mapping=grid.mapping, stretch=grid.stretch)
    cbundle = build_bundle(cgrid, bundle.kappa)
    cblock = build_block_E(cbundle)
    mu, _, info = negative_eigenpair_tt(cblock.e_r, sqrt_ei(cblock.e_i, cbundle, clip_rel))
    return {"tt_residual": info["tt_residual"], "seed_n": cgrid.n,
            "seed_lambda1": math.sqrt(-mu)}


def _interleaved(op: PairOperator) -> sp.csc_matrix:
    """D^{1/2} A D^{-1/2} symmetrized, components interleaved as
    (f1_0, f2_0, f1_1, f2_1, ...): banded with lower bandwidth 2."""
    n = op.n
    d = np.tile(op.grid.sqrt_masses, 2)
    S = sp.diags(d) @ op.mat @ sp.diags(1.0 / d)
    perm = np.column_stack([np.arange(n), n + np.arange(n)]).ravel()
    return (0.5 * (S + S.T)).tocsr()[perm][:, perm].tocsc()


def _ldlt(S: sp.csc_matrix, shift: float):
    """Unpivoted LU = L D L^T of the symmetric S - shift, and its negative
    pivot count, the number of eigenvalues of S under ``shift``.  A singular
    or pivoted factorization, whose diagonal has no inertia, raises."""
    # imported here: the scenarios that never reach a spectrum skip its load
    import scipy.sparse.linalg as spla
    A = (S - shift * sp.identity(S.shape[0], format="csc")).tocsc()
    try:
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0)
    except RuntimeError as exc:
        raise SpectrumError(f"inertia count at shift {shift:.3e}: {exc}") from None
    natural = np.arange(S.shape[0])
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
        raise SpectrumError(f"inertia count at shift {shift:.3e}: the factorization pivoted")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def _ei_kernel_eig(e_i: PairOperator, k: np.ndarray) -> float:
    """The lowest eigenvalue of E_I, certified the only one under tau (see
    the module docstring); k, the iteration's start, is the unit T(bQ1) in
    the layout of ``_interleaved``."""
    diag, off = e_i.grid.symmetrized_tridiag()
    lam_d = float(sla.eigh_tridiagonal(-diag, -off, eigvals_only=True,
                                       select="i", select_range=(0, 0))[0])
    tau = 0.5 * min(1.0, e_i.kappa) * lam_d
    S = _interleaved(e_i)
    count = _ldlt(S, tau)[1]
    if count > 1:
        raise SpectrumError(
            f"unexpected kernel dimension: {count} eigenvalues of E_I lie under "
            f"tau = {tau:.3e} beyond span{{T(Q1)}}")
    # 1 / (k . S^{-1} k), when negative, lies below lambda0: iterating there
    # finds lambda0 also where |lambda0| exceeds the second eigenvalue (the
    # coarse grids of r_max = 200)
    lu = _ldlt(S, 0.0)[0]
    shift = min(0.0, 1.0 / (k @ lu.solve(k)))
    if shift < 0:
        lu = _ldlt(S, shift)[0]
    x = k
    for _ in range(REFINE_SOLVES):
        y = lu.solve(x)
        lam = shift + (x @ x) / (x @ y)
        x = y / np.linalg.norm(y)
    return float(lam)


def _compressed_negative_count(e_r: PairOperator, k: np.ndarray, tol: float) -> int:
    """Eigenvalues below -tol of E_R compressed to the complement of the unit k.

    Haynsworth inertia of the bordered [[A, k], [k^T, 0]], A = E_R + tol
    (k in the layout of ``_interleaved``): the bordered matrix has
    neg(A) + [k^T A^{-1} k > 0] negative eigenvalues, one more than the
    compression of A, whose negative eigenvalues are the compressed ones of
    E_R below -tol.
    """
    lu, neg = _ldlt(_interleaved(e_r), -tol)
    return neg + int(k @ lu.solve(k) > 0) - 1


def eigenpair_e(bundle: GroundStateBundle, clip_rel: float = 1e-10) -> SpectralResult:
    """Unstable eigenpair of script_E by shift-invert on the band of the
    symmetrized generator (``BlockOperatorE.band``, one dgbtrf per shift).

    Shifted at the symmetric-product lambda_c of min(n, SEED_N) nodes, whose
    square root of E_I is clipped at clip_rel; see the module docstring for
    the route and its two certificates.
    """
    block = build_block_E(bundle)
    grid = bundle.grid
    info = _seed(bundle, clip_rel)
    lam, x = _shift_invert(block.band(), info["seed_lambda1"], FIXED_SHIFT_SOLVES,
                           POLISH_SOLVES)
    z = unpack_real(x)
    resid = weighted_norm(grid, block.apply_complex(z) - lam * z) / weighted_norm(grid, z)

    # normalization: |Phi_E(e+, e-)| = 1 (value itself is negative), then fix
    # the overall sign through the kinetic pairing of Re e+ with T(bQ)
    ops = (block.e_r, block.e_i)
    ep = unstack_pair(grid, z, bundle.kappa)
    pairing = quad_form(ep, ep.conj(), ops)
    if abs(pairing) < 1e-300:
        raise SpectrumError("Phi_E(e+, e-) vanished; eigenpair degenerate")
    scale = 1.0 / math.sqrt(abs(pairing))
    if _hn_inner(ep, bundle.t_q) < 0:
        scale = -scale
    ep = unstack_pair(grid, scale * z, bundle.kappa)
    em = ep.conj()
    norm_sq = weighted_norm(grid, stack_pair(ep)) ** 2
    phi_p = quad_form(ep, ep, ops) / norm_sq
    phi_m = quad_form(em, em, ops) / norm_sq
    normalization = quad_form(ep, em, ops)

    # the two certificates: ker(E_I) is one-dimensional, and E_R has one
    # negative direction on its complement (the inertia of TT)
    sm = grid.sqrt_masses
    k = np.column_stack([sm * bundle.t_q1.u.real, sm * bundle.t_q1.v.real]).ravel()
    k /= np.linalg.norm(k)
    kernel_eig = _ei_kernel_eig(block.e_i, k)
    n_negative = _compressed_negative_count(block.e_r, k, NEGATIVE_GAP * lam * lam)
    info = {"n_negative": n_negative, **info, "hn_pairing_sign_fixed": True}
    return SpectralResult(lambda1=lam, e_plus=ep, e_minus=em,
                          normalization=float(normalization),
                          residual=resid,
                          phi_e_plus=float(phi_p), phi_e_minus=float(phi_m),
                          mu=-lam * lam, kernel_eig=kernel_eig, n=grid.n, info=info)


def lambda1_inverse_iteration(bundle: GroundStateBundle, lam_guess: float) -> float:
    """lambda1 on this grid by shift-inverted iteration only (refinement checks)."""
    return _shift_invert(build_block_E(bundle).band(), lam_guess, REFINE_SOLVES, 0)[0]


# ---------------------------------------------------------------------------
# dense cross-check through script_E^2


def dense_cross_check(bundle: GroundStateBundle) -> dict:
    """Full spectrum of script_E from one dense 2n x 2n eigensolve of -E_I E_R.

    script_E^2 = diag(-E_I E_R, -E_R E_I), whose blocks share eigenvalues, so
    script_E has the 4n eigenvalues +-sqrt(mu), mu those of D (-E_I E_R) D^{-1}
    (D the cell-mass roots): Van Loan's square-reduced method (Linear Algebra
    Appl. 61 (1984) 233) without the symplectic reduction, at an eighth of the
    flops of the 4n eigensolve.  Squaring moves lambda by about
    eps ||script_E||^2 / (2 |lambda|), <= 3e-8 on lambda1 at the default cross
    grid (||script_E|| = 8.2e3), far under the 1e-2 gate of dense_rel_diff.
    No root of E_I, symmetrized generator or shift-invert enters: the check
    stays independent of eigenpair_e.
    """
    block = build_block_E(bundle)
    d = np.tile(bundle.grid.sqrt_masses, 2)
    M = (sp.diags(-d) @ block.e_i.mat @ block.e_r.mat @ sp.diags(1.0 / d)).toarray(order="F")
    root = np.sqrt(sla.eigvals(M, overwrite_a=True))
    return _dense_counts(np.concatenate([root, -root]))


def _dense_counts(ev: np.ndarray) -> dict:
    """Real eigenvalues (+-lambda1 expected), near-zero ones (the two-dimensional
    radial kernel) and the spectral scale of the eigenvalues ev of script_E;
    E_R, E_I are symmetric in the mass product, so the rest are imaginary."""
    realish = ev[(np.abs(ev.imag) <= DENSE_TOL * np.maximum(np.abs(ev.real), 1.0)) &
                 (np.abs(ev.real) > DENSE_TOL)]
    lam_pos = sorted(float(x.real) for x in realish if x.real > 0)
    return {"lambda1_dense": lam_pos[0] if lam_pos else None,
            "real_eigs": sorted(float(x.real) for x in realish),
            "n_real": int(len(realish)),
            "n_near_zero": int(np.count_nonzero(np.abs(ev) <= DENSE_TOL)),
            "spectral_scale": float(np.max(np.abs(ev)))}


def shifted_solve_conditioning(bundle: GroundStateBundle, lam1: float,
                               j_values: tuple[int, ...] = (2, 3, 4)) -> dict:
    """Estimate ||(script_E - j lam1)^{-1}|| to confirm j lam1 stays off the spectrum.

    ``onenormest`` draws its +-1 start columns from numpy's global RNG; each
    estimate runs from ONENORM_SEED and the caller's RNG state is restored,
    so the result is a function of the arguments alone.
    """
    # imported here: the scenarios that never reach a spectrum skip its load
    import scipy.sparse.linalg as spla
    band = build_block_E(bundle).band()      # built once, factored at each j lam1
    n4 = 4 * bundle.grid.n
    out = {}
    state = np.random.get_state()
    try:
        for j in j_values:
            lu = band.factor(j * lam1)
            op = spla.LinearOperator((n4, n4), matvec=lu.matvec, rmatvec=lu.rmatvec,
                                     dtype=float)
            np.random.seed(ONENORM_SEED)
            out[f"resolvent_norm_j{j}"] = float(spla.onenormest(op))
    finally:
        np.random.set_state(state)
    return out


# ---------------------------------------------------------------------------
# coercivity sampling


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _decaying_modes(grid: RadialGrid) -> np.ndarray:
    """The r^p exp(-sigma r^2) modes of the trial fields on the grid, one per row."""
    r = grid.nodes
    modes = np.array([r ** p * np.exp(-s * r * r)
                      for p in (0, 1, 2, 3) for s in (0.3, 0.6, 1.2, 2.5)])
    modes.setflags(write=False)
    return modes


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_n a[i, n] b[j, n] in numpy's own loops (a threaded BLAS call of
    this shape can stall a fresh process for tens of milliseconds)."""
    return np.einsum("in,jn->ij", a, b)


def coercivity_sample(which: str, trials: int, seed: int,
                      bundle: GroundStateBundle,
                      spectral: SpectralResult | None = None) -> dict:
    """Minimum of form(h)/||h||_{Hdot1}^2 over seeded projected random trials.

    which:
      'phi_G'        Phi on the complement of {Phi(Q,.), i Q1, Lambda Q}
      'phi_e_Gtilde' Phi_E on the complement of {e+, e-, T(i Q1), T(Lambda Q)}
      'L_I'          <L_I v, v> for real v with (v, Q1)_{Hdot1} = 0
      'E_I'          <E_I v, v> for real v with (v, T(Q1))_{Hdot1} = 0

    Trial t is sum_k (cu_tk, cv_tk) mode_k over the r^p exp(-sigma r^2)
    modes, its real coefficients c_t drawn in one standard_normal((trials,
    modes, 4)) as (cu.re, cu.im, cv.re, cv.im) per mode ((cu, cv) and 2 for
    L_I and E_I).  The constraints c_i are linear, so the projection maps
    each basis element b_a to b_a - sum_j X[j, a] d_j, G X = c(b),
    G[i, j] = c_i(d_j), and trial t scores c_t^T F c_t / c_t^T N c_t on the
    form and Hdot1 Gram matrices F, N of the projected basis.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = bundle.grid
    dirs = build_directions(bundle)
    real_only = which in ("L_I", "E_I")
    if which == "phi_G":
        ops = form_ops(bundle, "phi")
        n_form = 1                      # Phi(Q, .); the rest are Hdot1 pairings
        directions = [dirs["q"], dirs["i_q1"], dirs["lambda_q"]]
    elif which == "phi_e_Gtilde":
        if spectral is None:
            raise ValueError("phi_e_Gtilde sampling needs the spectral result")
        ops = form_ops(bundle, "phi_e")
        n_form = 2                      # Phi_E(e+, .), Phi_E(e-, .)
        directions = [spectral.e_plus, spectral.e_minus, dirs["t_i_q1"], dirs["t_lambda_q"]]
    elif real_only:
        ops = form_ops(bundle, "phi" if which == "L_I" else "phi_e")[1:]
        n_form = 0
        directions = [bundle.q1_vec if which == "L_I" else transform_T(bundle.q1_vec)]
    else:
        raise ValueError(f"unknown coercivity target {which!r}")

    # the real stacked vectors that span the basis and the directions: each
    # mode in each component, then Re d_j and (complex targets) Im d_j
    modes = _decaying_modes(grid)
    nm, nd = len(modes), len(directions)
    d = np.array([stack_pair(p) for p in directions])
    zero = np.zeros_like(modes)
    V = np.concatenate([np.hstack([modes, zero]), np.hstack([zero, modes]), d.real]
                       + ([] if real_only else [d.imag]))
    dV = pair_gradients(grid, V)
    w = grid.quad_weights
    hdot = np.pad(_gram(w * dV[0], dV[0]) + _gram(w * dV[1], dV[1]), (0, 1))
    # the elements are the basis b_a in the order of the draws, then the d_j;
    # parts[0] holds the row of V of each one's real part and parts[1] (complex
    # targets) of its imaginary part, -1 the zero row appended to the Grams
    k, none, jd = np.arange(nm), np.full(nm, -1), 2 * nm + np.arange(nd)
    if real_only:
        parts = [np.r_[np.column_stack([k, nm + k]).ravel(), jd]]
    else:
        parts = [np.r_[np.column_stack([k, none, nm + k, none]).ravel(), jd],
                 np.r_[np.column_stack([none, k, none, nm + k]).ravel(), jd + nd]]
    # the Gram matrices of the basis and the directions together; Phi and
    # Phi_E weigh each of their two operators by 1/2
    F_ext = N_ext = 0.0
    for op, rows in zip(ops, parts):
        A = np.pad(_gram(op.op_weights() * (op.mat @ V.T).T, V), (0, 1))
        F_ext = F_ext + A[np.ix_(rows, rows)] / len(ops)
        N_ext = N_ext + hdot[np.ix_(rows, rows)]
    nb = len(parts[0]) - nd
    C = np.concatenate([F_ext[nb:nb + n_form], N_ext[nb + n_form:]])   # c_i of each element
    X = np.linalg.solve(C[:, nb:], C[:, :nb])
    if not np.all(np.isfinite(X)):
        raise SpectrumError("projection rank-deficient")
    P = np.vstack([np.eye(nb), -X]).T                  # row a: projected b_a
    F, N = (_gram(P, _gram(P, M)) for M in (F_ext, N_ext))

    c = np.random.default_rng(seed).standard_normal((trials, nm, 2 if real_only else 4))
    c = c.reshape(trials, nb)
    nrm = np.sqrt(np.maximum(np.einsum("ta,ta->t", _gram(c, N), c), 0.0))
    keep = ~(nrm < 1e-12)             # a NaN norm stays and shows in the result
    c = c[keep]
    ratios = np.einsum("ta,ta->t", _gram(c, F), c) / nrm[keep] ** 2
    return {
        "which": which,
        "trials": int(len(ratios)),
        "min_ratio": float(np.min(ratios)),
        "median_ratio": float(np.median(ratios)),
        "max_ratio": float(np.max(ratios)),
    }
