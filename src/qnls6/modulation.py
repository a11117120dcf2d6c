"""Decomposition of near-ground-state states into (theta, lambda, alpha, h).

A state u close to the orbit {bQ_[theta,lambda]} is written, after moving it
to the reference frame, as

    u_[tn, ln] = (1 + alpha) bQ + h,

where (tn, ln) are fixed by the two orthogonality conditions

    (u_[tn,ln], i bQ1)_{Hdot1} = 0,      (u_[tn,ln], Lambda bQ)_{Hdot1} = 0,

alpha + 1 = Phi(bQ, u_[tn,ln]) / Phi(bQ, bQ), and h then satisfies
Phi(bQ, h) = 0 together with the same two orthogonality conditions (the pair
(bQ, i bQ1) and (bQ, Lambda bQ) pairings vanish).  Translation parameters are
identically zero in the radial sector and are not represented.

The reported (theta, lambda) are the orbit coordinates of u itself, i.e.
u ~ bQ_[theta, lambda]; the Newton iteration works with the inverse frame
parameters (tn, ln) = (-theta, 1/lambda).  delta = |H(u) - H(bQ)| gates the
decomposition: outside delta < delta0 the Newton problem has no guaranteed
basin and the call refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FieldPair, h1dot_inner, h1dot_norm, radial_derivative
from .groundstate import GroundStateBundle, apply_symmetry, build_directions, lambda_profile
from .functionals import hamiltonian, gap_delta
from .linops import form_ops, quad_form


class ModulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModulationPoint:
    t: float
    theta: float
    lam: float
    alpha: float
    delta: float
    h_norm: float
    converged: bool


class ModulationFrame:
    """Cached operators and reference quantities for repeated decompositions."""

    def __init__(self, bundle: GroundStateBundle):
        self.bundle = bundle
        self.ops = form_ops(bundle, "phi")
        self.dirs = build_directions(bundle)
        self.H_Q = hamiltonian(bundle.q_vec)
        self.phi_QQ = quad_form(bundle.q_vec, bundle.q_vec, self.ops)
        self.delta0 = 0.1 * self.H_Q
        self._r_half_q = self._half_radius(bundle.q_vec)

    @staticmethod
    def _half_radius(u: FieldPair) -> float:
        """The node below which the first component holds half its kinetic energy."""
        cum = np.cumsum(u.grid.quad_weights * np.abs(radial_derivative(u.first).values) ** 2)
        idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
        return float(u.grid.nodes[min(idx, u.grid.n - 1)])

    def lambda_guess(self, u: FieldPair) -> float:
        return self._half_radius(u) / self._r_half_q

    def theta_guess(self, u: FieldPair, lam0: float) -> float:
        qs = apply_symmetry(self.bundle.q_vec, 0.0, lam0)
        du = radial_derivative(u.first).values
        dq = radial_derivative(qs.first).values
        z = np.sum(u.grid.quad_weights * du * np.conj(dq))
        return float(np.angle(z))


# decompose stops after NEWTON_MAX_ITER steps or at residuals below NEWTON_TOL ||Q||^2.
NEWTON_MAX_ITER, NEWTON_TOL = 40, 1e-11
# delta <= DELTA_FLOOR is left out of the rate bound and band (0/0 when stationary).
DELTA_FLOOR = 1e-12


def decompose(u: FieldPair, frame: ModulationFrame,
              guess: tuple[float, float] | None = None,
              t: float = 0.0) -> tuple[ModulationPoint, FieldPair]:
    """Newton decomposition against frame.bundle; raises ModulationError outside the delta gate."""
    bundle = frame.bundle
    delta = gap_delta(u, bundle)
    if delta >= frame.delta0:
        raise ModulationError(
            f"delta = {delta:.3e} outside the modulation region (delta0 = {frame.delta0:.3e})")
    if guess is None:
        lam0 = frame.lambda_guess(u)
        th0 = frame.theta_guess(u, lam0)
    else:
        th0, lam0 = guess
    # Newton variables: frame parameters applied to u
    tn, ln = -th0, 1.0 / lam0
    i_q1 = frame.dirs["i_q1"]
    lam_q = frame.dirs["lambda_q"]
    scale = h1dot_norm(bundle.q_vec) ** 2
    converged = False
    for _ in range(NEWTON_MAX_ITER):
        moved = apply_symmetry(u, tn, ln)
        c1 = h1dot_inner(moved, i_q1)
        c2 = h1dot_inner(moved, lam_q)
        if math.hypot(c1, c2) < NEWTON_TOL * scale:
            converged = True
            break
        d_theta = moved.with_values(1j * moved.u, 2j * moved.v)
        d_lam = -(1.0 / ln) * moved.with_values(lambda_profile(moved.first).values,
                                                lambda_profile(moved.second).values)
        J = np.array([
            [h1dot_inner(d_theta, i_q1), h1dot_inner(d_lam, i_q1)],
            [h1dot_inner(d_theta, lam_q), h1dot_inner(d_lam, lam_q)],
        ])
        try:
            step = np.linalg.solve(J, -np.array([c1, c2]))
        except np.linalg.LinAlgError as exc:
            raise ModulationError(f"singular Newton system: {exc}") from exc
        damp = 1.0
        while ln + damp * step[1] <= 0.1 * ln:
            damp *= 0.5
        tn += damp * step[0]
        ln += damp * step[1]
    alpha = quad_form(bundle.q_vec, moved, frame.ops) / frame.phi_QQ - 1.0
    h = moved - (1.0 + alpha) * bundle.q_vec
    theta = float((-tn) % (2.0 * math.pi))
    point = ModulationPoint(t=t, theta=theta, lam=1.0 / ln, alpha=float(alpha),
                            delta=float(delta), h_norm=h1dot_norm(h),
                            converged=bool(converged))
    return point, h


@dataclass
class ModulationTrack:
    times: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    delta: np.ndarray
    h_norm: np.ndarray
    converged: np.ndarray

    def csv_rows(self):
        for i in range(len(self.times)):
            yield (self.times[i], self.theta[i], self.lam[i], self.alpha[i],
                   self.delta[i], self.h_norm[i], int(self.converged[i]))

    def derivatives(self) -> dict:
        """Centered-difference parameter derivatives on the converged samples."""
        ok = self.converged.astype(bool)
        t, th, lm, al = (x[ok] for x in (self.times, self.theta, self.lam, self.alpha))
        if len(t) < 3:
            raise ModulationError("not enough converged samples for derivatives")
        th = np.unwrap(th)
        mid = slice(1, -1)
        dt = t[2:] - t[:-2]
        return {
            "t": t[mid],
            "theta_dot": (th[2:] - th[:-2]) / dt,
            "lam_dot": (lm[2:] - lm[:-2]) / dt,
            "alpha_dot": (al[2:] - al[:-2]) / dt,
            "lam": lm[mid],
            "delta": self.delta[ok][mid],
            "alpha": al[mid],
        }


def track(states: list[tuple[float, FieldPair]], frame: ModulationFrame) -> ModulationTrack:
    """Per-sample decomposition against frame.bundle with warm-start continuation."""
    rows = []
    guess = None
    for t, state in states:
        try:
            pt, _ = decompose(state, frame, guess=guess, t=t)
            guess = (pt.theta, pt.lam)
        except ModulationError:
            pt = ModulationPoint(t=t, theta=np.nan, lam=np.nan, alpha=np.nan,
                                 delta=gap_delta(state, frame.bundle), h_norm=np.nan,
                                 converged=False)
        rows.append(pt)
    return ModulationTrack(
        times=np.array([p.t for p in rows]),
        theta=np.array([p.theta for p in rows]),
        lam=np.array([p.lam for p in rows]),
        alpha=np.array([p.alpha for p in rows]),
        delta=np.array([p.delta for p in rows]),
        h_norm=np.array([p.h_norm for p in rows]),
        converged=np.array([p.converged for p in rows]))


def verify_rate_bound(trk: ModulationTrack) -> dict:
    """Max of (|theta'| + |alpha'| + |lambda'|/lambda) / (lambda^2 delta).

    Samples with delta at or below DELTA_FLOOR are excluded.  The bound's
    constant is fitted, not asserted.
    """
    d = trk.derivatives()
    num = np.abs(d["theta_dot"]) + np.abs(d["alpha_dot"]) + np.abs(d["lam_dot"]) / d["lam"]
    den = d["lam"] ** 2 * d["delta"]
    keep = d["delta"] > DELTA_FLOOR
    if not np.any(keep):
        return {"max_ratio": 0.0, "samples": 0}
    ratio = num[keep] / den[keep]
    return {"max_ratio": float(np.max(ratio)), "median_ratio": float(np.median(ratio)),
            "samples": int(np.sum(keep))}


def comparability_band(trk: ModulationTrack, h_q: float) -> float:
    """max over the track of max(|alpha|/dhat, dhat/|alpha|), dhat = delta/H(Q).

    The raw gap scales like 2 |alpha| H(Q) (expanding H((1+alpha)Q + h) with
    the cross term killed by Phi(Q,h) = 0), so the dimensionless comparison
    uses delta normalized by H(Q); the expected band center is 2.
    """
    ok = trk.converged.astype(bool) & (trk.delta > DELTA_FLOOR)
    if not np.any(ok):
        return 0.0
    a = np.maximum(np.abs(trk.alpha[ok]), 1e-300)
    d = trk.delta[ok] / h_q
    return float(np.max(np.maximum(a / d, d / a)))
