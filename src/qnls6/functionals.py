"""Conserved quantities, variational constants, and the localized virial machinery.

For a state (u, v) with coupling kappa the conserved functionals are

    H(u,v) = ||grad u||_2^2 + (kappa/2) ||grad v||_2^2        (kinetic)
    P(u,v) = Re int u^2 conj(v) dx                            (interaction)
    E      = H/2 - P/2.

The transformed system (first-component coupling doubled) uses

    H_N = ||grad u||^2 + kappa ||grad v||^2,   E_N = H_N/2 - P,

and the two are linked through the componentwise map T by H(T^{-1} w) = 2 H_N(w),
E(T^{-1} w) = 2 E_N(w).

Localized virial: with a radial weight w_R(x) = R^2 phi(|x|/R),

    I_R = 2 kappa Im int grad w_R . (2 grad(u) conj(u) + grad(v) conj(v)) dx
    F_R = int (-2 kappa Lap^2 w_R) [|u|^2 + (kappa/2)|v|^2] dx
          - 2 kappa int Lap(w_R) Re(conj(v) u^2) dx
          + 8 kappa int [|grad u|^2 + (kappa/2)|grad v|^2] d2r(w_R) dx,

and d/dt I_R = F_R along solutions; at R = infinity, F_inf = 8 kappa (2H - 3P).

The cutoff profile phi equals r^2 for r <= 1 and is constant past r = 2, with
a C^3 polynomial blend in between whose second derivative never exceeds 2
(the curvature bound the blow-up argument needs).  phi cannot also vanish
past r = 2: a profile with phi'' <= 2, phi = r^2 on [0,1] and phi(2) = 0 does
not exist, since phi'(2) = 0 with phi'' <= 2 forces phi' >= -2(2-s), whence
phi(2) >= phi(1) - 1 = 0 with equality only for phi' = -2(2-s), contradicting
phi'(1) = 2.  Only derivatives of w_R enter the functionals, so the constant
tail value 31/14 is immaterial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FieldPair, RadialGrid, integrate6_samples, radial_derivative
from .groundstate import GroundStateBundle


@dataclass(frozen=True)
class ConservedSet:
    H: float
    P: float
    E: float
    mass: float
    momentum: np.ndarray  # identically zero for radial states


def _grad_sq(u: FieldPair):
    du = radial_derivative(u.first).values
    dv = radial_derivative(u.second).values
    return np.abs(du) ** 2, np.abs(dv) ** 2


def hamiltonian(u: FieldPair) -> float:
    gu, gv = _grad_sq(u)
    w = u.grid.quad_weights
    return float(np.sum(w * gu) + 0.5 * u.kappa * np.sum(w * gv))


def hamiltonian_n(u: FieldPair) -> float:
    """Kinetic functional of the transformed system: ||grad u||^2 + k ||grad v||^2."""
    gu, gv = _grad_sq(u)
    w = u.grid.quad_weights
    return float(np.sum(w * gu) + u.kappa * np.sum(w * gv))


def interaction(u: FieldPair) -> float:
    return float(np.real(integrate6_samples(u.grid, u.u ** 2 * np.conj(u.v))))


def energy(u: FieldPair) -> float:
    return 0.5 * hamiltonian(u) - 0.5 * interaction(u)


def energy_n(u: FieldPair) -> float:
    return 0.5 * hamiltonian_n(u) - interaction(u)


def mass6(u: FieldPair) -> float:
    """Diagnostic L^2 mass; not conserved by the flow except at kappa = 1/2."""
    return float(np.real(integrate6_samples(u.grid, np.abs(u.u) ** 2 + np.abs(u.v) ** 2)))


def momentum(u: FieldPair) -> np.ndarray:
    """Momentum of a radial state vanishes identically; returned as exact zeros."""
    return np.zeros(6)


def conserved_set(u: FieldPair) -> ConservedSet:
    H = hamiltonian(u)
    P = interaction(u)
    return ConservedSet(H=H, P=P, E=0.5 * (H - P), mass=mass6(u), momentum=momentum(u))


def gap_delta(u: FieldPair, bundle: GroundStateBundle) -> float:
    """delta = |H(u) - H(Q)|, the distance-to-threshold surrogate."""
    return abs(hamiltonian(u) - hamiltonian(bundle.q_vec))


def variational_constants(bundle: GroundStateBundle) -> dict:
    """Sharp interaction-estimate constant, Pohozaev ratio, and the kappa bound.

    C_GN is attained at the ground state: C_GN = P(Q)/H(Q)^{3/2}; the scale
    identity gives H(Q) = (3/2) P(Q); and |P(f)| <= sqrt(8/(27 kappa)) H(f)^{3/2}
    holds for every field.
    """
    HQ = hamiltonian(bundle.q_vec)
    PQ = interaction(bundle.q_vec)
    return {
        "C_GN": PQ / HQ ** 1.5,
        "pohozaev_ratio": HQ / PQ,
        "C_kappa": math.sqrt(8.0 / (27.0 * bundle.kappa)),
        "H_Q": HQ,
        "P_Q": PQ,
        "E_Q": 0.5 * (HQ - PQ),
    }


def check_inequalities(samples: list[FieldPair], bundle: GroundStateBundle,
                       tol: float = 1e-9) -> dict:
    """Evaluate the interaction inequalities on each sample; report worst margins.

    Margins are normalized by H(f)^{3/2} (or H(Q) E(f) for the convexity
    check) and are nonnegative when the inequality holds.  Violations beyond
    ``tol`` are collected, not raised: they indicate a discretization bug.
    """
    consts = variational_constants(bundle)
    HQ, EQ = consts["H_Q"], consts["E_Q"]
    worst = {"gn": np.inf, "kappa_bound": np.inf, "convexity": np.inf}
    violations = []
    for i, f in enumerate(samples):
        Hf, Pf, Ef = hamiltonian(f), interaction(f), energy(f)
        scale = max(Hf ** 1.5, 1e-300)
        m_gn = (consts["C_GN"] * Hf ** 1.5 - Pf) / scale
        m_kb = (consts["C_kappa"] * Hf ** 1.5 - abs(Pf)) / scale
        worst["gn"] = min(worst["gn"], m_gn)
        worst["kappa_bound"] = min(worst["kappa_bound"], m_kb)
        checks = [("gn", m_gn), ("kappa_bound", m_kb)]
        if Hf <= HQ:
            m_cx = (HQ * Ef - Hf * EQ) / max(abs(HQ * EQ), 1e-300)
            worst["convexity"] = min(worst["convexity"], m_cx)
            checks.append(("convexity", m_cx))
        for name, margin in checks:
            if margin < -tol:
                violations.append({"sample": i, "inequality": name, "margin": margin})
    return {"worst_margins": worst, "violations": violations, "n_samples": len(samples)}


# ---------------------------------------------------------------------------
# virial weight

_C_INF = 31.0 / 14.0


def _phi_parts(x):
    """Blend-region derivatives at x = s - 1 in [0, 1]."""
    chi = 2.0 - 90.0 * x ** 2 + 160.0 * x ** 3 - 60.0 * x ** 4 - 12.0 * x ** 5
    chi_p = -180.0 * x + 480.0 * x ** 2 - 240.0 * x ** 3 - 60.0 * x ** 4
    chi_pp = -180.0 + 960.0 * x - 720.0 * x ** 2 - 240.0 * x ** 3
    phi_p = 2.0 + 2.0 * x - 30.0 * x ** 3 + 40.0 * x ** 4 - 12.0 * x ** 5 - 2.0 * x ** 6
    phi = 1.0 + 2.0 * x + x ** 2 - 7.5 * x ** 4 + 8.0 * x ** 5 - 2.0 * x ** 6 - (2.0 / 7.0) * x ** 7
    return phi, phi_p, chi, chi_p, chi_pp


def phi_profile(s):
    """(phi, phi', phi'', phi''', phi'''') of the cutoff profile at s >= 0."""
    s = np.asarray(s, dtype=float)
    phi = np.where(s <= 1.0, s * s, _C_INF)
    d1 = np.where(s <= 1.0, 2.0 * s, 0.0)
    d2 = np.where(s <= 1.0, 2.0, 0.0)
    d3 = np.zeros_like(s)
    d4 = np.zeros_like(s)
    blend = (s > 1.0) & (s < 2.0)
    if np.any(blend):
        x = s[blend] - 1.0
        p, p1, p2, p3, p4 = _phi_parts(x)
        phi[blend] = p
        d1[blend] = p1
        d2[blend] = p2
        d3[blend] = p3
        d4[blend] = p4
    return phi, d1, d2, d3, d4


@dataclass(frozen=True)
class VirialWeight:
    """w_R = R^2 phi(r/R) sampled with all derivatives the functionals need.

    ``R = math.inf`` selects the un-truncated weight w = r^2 (the sentinel
    avoids special-casing callers).
    """

    grid: RadialGrid
    R: float
    w: np.ndarray
    dw: np.ndarray       # d/dr w_R
    d2w: np.ndarray      # d^2/dr^2 w_R  (<= 2 everywhere)
    lap_w: np.ndarray    # Delta w_R
    bilap_w: np.ndarray  # Delta^2 w_R

    @classmethod
    def build(cls, grid: RadialGrid, R: float) -> "VirialWeight":
        r = grid.nodes
        if math.isinf(R):
            return cls(grid=grid, R=math.inf, w=r ** 2, dw=2.0 * r,
                       d2w=np.full_like(r, 2.0), lap_w=np.full_like(r, 12.0),
                       bilap_w=np.zeros_like(r))
        if R < 1.0:
            raise ValueError("virial localization radius must be >= 1")
        s = r / R
        phi, d1, d2, d3, d4 = phi_profile(s)
        w = R ** 2 * phi
        dw = R * d1
        d2w = d2
        lap_w = d2 + 5.0 * np.divide(d1, s, out=np.full_like(s, 2.0), where=s > 0)
        bilap = (d4 + 10.0 * d3 / s + 15.0 * d2 / s ** 2 - 15.0 * d1 / s ** 3) / R ** 2
        core = s <= 1.0
        bilap[core] = 0.0
        return cls(grid=grid, R=float(R), w=w, dw=dw, d2w=d2w, lap_w=lap_w, bilap_w=bilap)


def virial_I(u: FieldPair, weight: VirialWeight) -> float:
    """I_R = 2 kappa Im int grad(w_R) . (2 grad u conj u + grad v conj v) dx."""
    du = radial_derivative(u.first).values
    dv = radial_derivative(u.second).values
    integrand = weight.dw * (2.0 * du * np.conj(u.u) + dv * np.conj(u.v))
    return float(2.0 * u.kappa * np.imag(integrate6_samples(u.grid, integrand)))


def virial_F(u: FieldPair, weight: VirialWeight) -> float:
    """Time derivative of I_R; closed form 8 kappa (2H - 3P) at R = infinity."""
    k = u.kappa
    if math.isinf(weight.R):
        return 8.0 * k * (2.0 * hamiltonian(u) - 3.0 * interaction(u))
    w = u.grid.quad_weights
    gu, gv = _grad_sq(u)
    t_bilap = -2.0 * k * np.sum(w * weight.bilap_w * (np.abs(u.u) ** 2 + 0.5 * k * np.abs(u.v) ** 2))
    t_coupl = -2.0 * k * np.sum(w * weight.lap_w * np.real(np.conj(u.v) * u.u ** 2))
    t_hess = 8.0 * k * np.sum(w * weight.d2w * (gu + 0.5 * k * gv))
    return float(t_bilap + t_coupl + t_hess)


def mass_type_vr(u: FieldPair, weight: VirialWeight,
                 component_weights: tuple[float, float] | None = None) -> float:
    """Weighted mass V_R = int w_R (a |u|^2 + b |v|^2) dx.

    Default component weights (a, b) = (2 kappa, 1).  With those weights a
    direct computation gives d/dt V_R = I_R + 2(2 kappa - 1) Im int w_R u^2
    conj(v) dx, so the identity d/dt V_R = I_R closes only at the mass
    resonance kappa = 1/2; the evolution monitor measures the defect at other
    kappa rather than assuming it away.
    """
    if component_weights is None:
        component_weights = (2.0 * u.kappa, 1.0)
    a, b = component_weights
    integrand = weight.w * (a * np.abs(u.u) ** 2 + b * np.abs(u.v) ** 2)
    return float(np.real(integrate6_samples(u.grid, integrand)))


def f_infinity_gap(u: FieldPair, bundle: GroundStateBundle) -> float:
    """F_inf on the threshold manifold: equals 8 kappa (H(Q) - H(u)) when E(u)=E(Q)."""
    return 8.0 * u.kappa * (hamiltonian(bundle.q_vec) - hamiltonian(u))
