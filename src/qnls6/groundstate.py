"""Ground state of the coupled quadratic system and derived reference objects.

The scalar profile solves Delta Q + Q^2 = 0 on R^6 (radial, positive,
vanishing at infinity) and is known in closed form:

    Q(r) = (1 + r^2/24)^{-2},   Q(0) = 1,   Q ~ 576 r^{-4} at infinity.

The two-component ground state is bQ = (sqrt(kappa) Q, Q); phase/scaling act as

    u_[theta,lam] = (lam^{-2} e^{i theta} u1(./lam), lam^{-2} e^{2i theta} u2(./lam)),

and the generator of the scaling orbit is Lambda Q = 2Q + r dQ/dr (so that
d/dlam at lam=1 of lam^{-2} Q(r/lam) equals minus Lambda Q).  The
componentwise rescaling T(u1, u2) = (u1/sqrt2, u2/2) conjugates the system to
the variant with doubled first-component coupling; T(bQ) is its ground state.

``refine_discrete`` produces the stationary profile of the *discrete*
operator: sampling the closed form leaves an O(h^2) residual that acts as a
constant forcing in long time integrations, so dynamical scenarios start from
the refined profile instead.  The refinement is a Newton iteration with the
near-kernel of Delta_h + 2q (the broken scaling direction) deflated; the
leftover residual along that single direction is the unavoidable truncation
obstruction and is reported, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

from .grid import (GRID_CACHE_SIZE, FieldPair, RadialField, RadialGrid,
                   laplacian6, pair_from_arrays, radial_derivative)


# The r^2 scale of Q(r) = (1 + r^2/Q_SCALE2)^{-2}; sqrt(Q_SCALE2) is the
# ground state's length scale, where Q has fallen to Q(0)/4.
Q_SCALE2 = 24.0


def q_closed_form(r):
    """Ground-state profile (1 + r^2/24)^{-2}; accepts scalars or arrays."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    out = (1.0 + r * r / Q_SCALE2) ** -2
    return float(out) if out.ndim == 0 else out


def q_derivative_closed_form(r):
    """dQ/dr = -(r/6)(1 + r^2/24)^{-3}."""
    r = np.asarray(r, dtype=float)
    out = -(r / 6.0) * (1.0 + r * r / Q_SCALE2) ** -3
    return float(out) if out.ndim == 0 else out


def ode_ground_state(r_eval: np.ndarray, q0: float = 1.0, rtol: float = 1e-11) -> np.ndarray:
    """Integrate Q'' + (5/r) Q' + Q^2 = 0 outward; cross-check for the closed form.

    Starts from the regular series Q = q0 - q0^2 r^2/12 + q0^3 r^4/192 at a
    small radius.  Scale invariance means every q0 > 0 gives a decaying
    solution; q0 = 1 reproduces the closed form.
    """
    r0 = 1e-4
    y0 = [q0 - q0 ** 2 * r0 ** 2 / 12.0 + q0 ** 3 * r0 ** 4 / 192.0,
          -q0 ** 2 * r0 / 6.0 + q0 ** 3 * r0 ** 3 / 48.0]

    def rhs(r, y):
        return [y[1], -5.0 / r * y[1] - y[0] ** 2]

    sol = solve_ivp(rhs, (r0, float(r_eval[-1])), y0, t_eval=r_eval,
                    rtol=rtol, atol=1e-13, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"ground-state ODE integration failed: {sol.message}")
    return sol.y[0]


def lambda_profile(f: RadialField) -> RadialField:
    """Scaling generator Lambda f = 2 f + r f'."""
    df = radial_derivative(f)
    return RadialField(f.grid, 2.0 * f.values + f.grid.nodes * df.values)


REFINE_MAX_ITER = 30


@lru_cache(maxsize=GRID_CACHE_SIZE)
def refine_discrete(grid: RadialGrid) -> tuple[np.ndarray, float]:
    """Stationary profile of the discrete operator: Delta_h q + q^2 ~ 0.

    Returns (q, kernel_residual) where kernel_residual is the weighted
    relative residual left along the deflated quasi-kernel direction.
    Newton steps solve on the orthogonal complement of the quasi-kernel of
    Delta_h + 2q (found among the top eigenpairs: the potential well carries
    one positive bound state and the broken scaling mode near zero; the rest
    of the spectrum is negative).  The result is cached per grid and shared
    (read-only) by every caller.
    """
    m = grid.cell_masses
    sm = np.sqrt(m)
    diag, off = grid.symmetrized_tridiag()
    n = grid.n

    def deflated_step(q, F):
        evals, vecs = eigh_tridiagonal(diag + 2.0 * q, off,
                                       select="i", select_range=(n - 3, n - 1))
        k0 = int(np.argmin(np.abs(evals)))
        v0 = vecs[:, k0]
        Fs = F * sm
        Fs_perp = Fs - (v0 @ Fs) * v0
        x = _bordered_tridiag_solve(diag + 2.0 * q, off, v0, Fs_perp)
        x -= (v0 @ x) * v0
        return -(x / sm), float(v0 @ Fs)

    q = q_closed_form(grid.nodes)
    best = (np.inf, q.copy())
    for _ in range(REFINE_MAX_ITER):
        F = grid.apply_laplacian(q) + q * q
        resn = np.linalg.norm(F * sm)
        if resn < best[0]:
            best = (resn, q.copy())
        if resn < 1e-14 * np.linalg.norm(q * q * sm):
            break
        dq, _ = deflated_step(q, F)
        if np.linalg.norm(dq * sm) < 1e-15 * np.linalg.norm(q * sm):
            break
        q = q + dq
    q = best[1]
    q.setflags(write=False)
    F = grid.apply_laplacian(q) + q * q
    rel = float(np.linalg.norm(F * sm) / np.linalg.norm(q * q * sm))
    return q, rel


def _bordered_tridiag_solve(diag, off, v0, rhs):
    """Solve T x = rhs on the complement of the quasi-null direction v0.

    Uses the bordered system [[T, v0], [v0^T, 0]] [x; y] = [rhs; 0], which is
    well conditioned even when T is nearly singular along v0; the multiplier
    y absorbs any leftover v0-component of the right-hand side.
    """
    T = sp.diags([off, diag, off], [-1, 0, 1])
    col = sp.csc_matrix(v0[:, None])
    M = sp.bmat([[T, col], [col.T, None]], format="csc")
    sol = splu(M).solve(np.concatenate([rhs, [0.0]]))
    return sol[:len(diag)]


@dataclass(frozen=True)
class GroundStateBundle:
    """Q and every derived reference object on one grid.

    ``q`` holds closed-form samples; ``q_discrete`` the refined stationary
    profile of the discrete Laplacian (used by time integration).  The vector
    objects are built from ``background``, which is one of the two.
    """

    grid: RadialGrid
    kappa: float
    q: RadialField
    q_discrete: RadialField
    background: str            # "closed-form" or "discrete"
    q_vec: FieldPair           # (sqrt(k) Q, Q)
    q1_vec: FieldPair          # (sqrt(k) Q, 2Q)
    lambda_q: FieldPair        # (sqrt(k) Lambda Q, Lambda Q)
    t_q: FieldPair
    t_q1: FieldPair
    t_lambda_q: FieldPair
    discrete_kernel_residual: float

    @property
    def q_bg(self) -> RadialField:
        return self.q_discrete if self.background == "discrete" else self.q


def build_bundle(grid: RadialGrid, kappa: float, background: str = "closed-form") -> GroundStateBundle:
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if background not in ("closed-form", "discrete"):
        raise ValueError(f"unknown background {background!r}")
    qcf = RadialField(grid, q_closed_form(grid.nodes))
    qd_vals, kres = refine_discrete(grid)
    qd = RadialField(grid, qd_vals)
    base = qd if background == "discrete" else qcf
    sk = np.sqrt(kappa)
    qv = base.values.real
    if background == "discrete":
        lam_q = lambda_profile(base).values.real
    else:
        # exact scaling generator of the closed form avoids differencing error
        lam_q = 2.0 * qv + grid.nodes * q_derivative_closed_form(grid.nodes)
    q_vec = pair_from_arrays(grid, sk * qv, qv, kappa)
    q1_vec = pair_from_arrays(grid, sk * qv, 2.0 * qv, kappa)
    lambda_q = pair_from_arrays(grid, sk * lam_q, lam_q, kappa)
    return GroundStateBundle(
        grid=grid, kappa=kappa, q=qcf, q_discrete=qd, background=background,
        q_vec=q_vec, q1_vec=q1_vec, lambda_q=lambda_q,
        t_q=transform_T(q_vec), t_q1=transform_T(q1_vec), t_lambda_q=transform_T(lambda_q),
        discrete_kernel_residual=kres)


def verify_elliptic(bundle: GroundStateBundle, order: int = 4, boundary: str = "decay4") -> float:
    """Relative residual ||Delta Q + Q^2||_2 / ||Q^2||_2 of the closed form."""
    return elliptic_residual(bundle.q, order=order, boundary=boundary)


def elliptic_residual(qf: RadialField, order: int = 4, boundary: str = "decay4") -> float:
    q = qf.values.real
    grid = qf.grid
    nrm2 = np.sum(grid.quad_weights * q ** 4)
    if nrm2 == 0.0:
        return 0.0
    res = laplacian6(RadialField(grid, q), boundary=boundary, order=order).values.real + q * q
    return float(np.sqrt(np.sum(grid.quad_weights * res ** 2) / nrm2))


# Samples below this magnitude are interpolated as zero: PCHIP divides node
# spacings by secant slopes, which overflows between samples at the edge of
# the float range (Gaussian tails reach subnormals ~1e-314).  After the flush
# every nonzero secant is >= 2^-52 * 1e-280 / spacing, far from overflow.
_INTERP_FLUSH = 1e-280


def _interp_component(grid: RadialGrid, values: np.ndarray, r_query: np.ndarray,
                      tail_power: float = 4.0) -> np.ndarray:
    """Monotone-cubic interpolation with even extension at 0 and r^-4 tail."""
    values = np.asarray(values, dtype=complex)
    re, im = (np.where(np.abs(part) < _INTERP_FLUSH, 0.0, part)
              for part in (values.real, values.imag))
    values = re + 1j * im
    r = grid.nodes
    # even quadratic value at r = 0 from the first two nodes
    f0 = values[0] + (values[1] - values[0]) * (0.0 - r[0] ** 2) / (r[1] ** 2 - r[0] ** 2)
    xs = np.concatenate([[0.0], r])
    out = np.empty(len(r_query), dtype=complex)
    inside = r_query <= r[-1]
    re_i = PchipInterpolator(xs, np.real(np.concatenate([[f0], values])))
    im_i = PchipInterpolator(xs, np.imag(np.concatenate([[f0], values])))
    out[inside] = re_i(r_query[inside]) + 1j * im_i(r_query[inside])
    if np.any(~inside):
        out[~inside] = values[-1] * (r[-1] / r_query[~inside]) ** tail_power
    return out


def apply_symmetry(u: FieldPair, theta: float, lam: float) -> FieldPair:
    """Phase/scaling action: (lam^-2 e^{i th} u1(./lam), lam^-2 e^{2i th} u2(./lam))."""
    if lam <= 0:
        raise ValueError("scaling parameter must be positive")
    grid = u.grid
    rq = grid.nodes / lam
    u1 = _interp_component(grid, u.u, rq) * np.exp(1j * theta) / lam ** 2
    u2 = _interp_component(grid, u.v, rq) * np.exp(2j * theta) / lam ** 2
    return u.with_values(u1, u2)


def transform_T(u: FieldPair, inverse: bool = False) -> FieldPair:
    """Componentwise rescaling (u1/sqrt2, u2/2), or its inverse."""
    if inverse:
        return u.with_values(np.sqrt(2.0) * u.u, 2.0 * u.v)
    return u.with_values(u.u / np.sqrt(2.0), u.v / 2.0)


def build_directions(bundle: GroundStateBundle) -> dict:
    """Reference directions used by orthogonality conditions and projections.

    ``i_q1`` is i (sqrt(k) Q, 2Q); translations are identically zero in the
    radial sector and are deliberately not represented.
    """
    i_q1 = bundle.q1_vec.with_values(1j * bundle.q1_vec.u, 1j * bundle.q1_vec.v)
    dirs = {
        "q": bundle.q_vec,
        "i_q1": i_q1,
        "lambda_q": bundle.lambda_q,
        "t_q": bundle.t_q,
        "t_i_q1": transform_T(i_q1),
        "t_lambda_q": bundle.t_lambda_q,
    }
    return dirs


def bundle_to_rows(bundle: GroundStateBundle) -> Iterable[tuple]:
    """(r, Q, Lambda Q) rows for the CSV snapshot."""
    lam_q = lambda_profile(bundle.q).values.real
    for r, qv, lv in zip(bundle.grid.nodes, bundle.q.values.real, lam_q):
        yield (r, qv, lv)
