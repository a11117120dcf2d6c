"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Production resolutions (chosen by the refinement studies in the module tests):

* static criteria (1-5):   n = 2048, r_max = 200, algebraic stretch 29
* spectrum criteria (6-8): n = 1024 (+ 2048 refinement, dense check at 256)
* shooting criteria (9, 10, 14): n = 512, dt = 1e-3, k = 3, data size 1e-2
* evolution criteria (11-13):    n = 512 runs, virial identity at n = 1024

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a green suite.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from qnls6.grid import RadialGrid, h1dot_norm, integrate6_samples, pair_from_arrays
from qnls6.groundstate import build_bundle, elliptic_residual, q_closed_form, transform_T
from qnls6.functionals import energy, hamiltonian, interaction, variational_constants
from qnls6.linops import assemble_E, assemble_L, build_block_E, form_ops, quad_form
from qnls6.spectrum import (coercivity_sample, dense_cross_check, eigenpair_e,
                            lambda1_inverse_iteration)
from qnls6.special import (approx_profiles, construct_g, default_fit_window,
                           residual_eps_k, shoot_legs, time_translation_mismatch)
from qnls6.evolution import (EvolutionConfig, check_virial_identity, dynamical_verdict, run,
                             vr_identity_defect)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures

KAPPA = 0.5


@pytest.fixture(scope="session")
def grid_2048():
    return RadialGrid(n=2048, r_max=200.0, stretch=29.0)


@pytest.fixture(scope="session")
def bundle_2048(grid_2048):
    return build_bundle(grid_2048, KAPPA)


@pytest.fixture(scope="session")
def spectrum_1024():
    grid = RadialGrid(n=1024, r_max=200.0, stretch=29.0)
    bundle = build_bundle(grid, KAPPA)
    spectral = eigenpair_e(bundle)
    return bundle, spectral


@pytest.fixture(scope="session")
def shot_pipeline():
    """Discrete-background spectral pipeline and the three shooting legs, shot
    as one batch behind the control leg (as ``qnls6 special`` shoots them)
    with the batch's runtime."""
    grid = RadialGrid(n=512, r_max=200.0, stretch=29.0)
    bundle = build_bundle(grid, KAPPA, background="discrete")
    spectral = eigenpair_e(bundle)
    lam = spectral.lambda1
    t_far = math.log(1.0 / 1e-2) / lam
    sols = [approx_profiles(bundle, spectral, a, 3) for a in (1.0, -1.0, 2.0)]
    t0 = time.time()
    _, legs = shoot_legs(bundle, spectral, sols, t_far, 1e-3, 60)
    runtime = time.time() - t0
    return bundle, spectral, {sol.a: leg for sol, leg in zip(sols, legs)}, runtime


@pytest.fixture(scope="session")
def evo_512():
    grid = RadialGrid(n=512, r_max=200.0, stretch=29.0)
    return build_bundle(grid, KAPPA, background="discrete")


# ---------------------------------------------------------------------------
# criteria 1-5: ground state, functionals, operator kernels


def test_criterion_1_elliptic_residual(bundle_2048):
    t0 = time.time()
    res = elliptic_residual(bundle_2048.q)
    elapsed = time.time() - t0
    ok = res <= 1e-6 and elapsed < 1.0
    report(1, ok, f"elliptic residual {res:.3e} (<= 1e-6), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_pohozaev(grid_2048):
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        b = build_bundle(grid_2048, kappa)
        ratio = hamiltonian(b.q_vec) / interaction(b.q_vec)
        worst = max(worst, abs(ratio - 1.5) / 1.5)
    report(2, worst <= 1e-4, f"max |H/P - 3/2| rel = {worst:.3e} over kappa in {{1/2,1,2}} (<= 1e-4)")


def test_criterion_3_energy_relation(bundle_2048):
    H = hamiltonian(bundle_2048.q_vec)
    E = energy(bundle_2048.q_vec)
    rel = abs(6.0 * E - H) / H
    report(3, rel <= 1e-4, f"|6E(Q) - H(Q)|/H(Q) = {rel:.3e} (<= 1e-4)")


def test_criterion_4_integral_oracle(bundle_2048):
    # oracle first: adaptive 1-D quadrature of the closed form; the Beta
    # evaluation gives pi^3 24^3/60 (the printed constant with exponent 7/2
    # fails its own confirmation step and is off by sqrt(24))
    oracle = np.pi ** 3 * quad(lambda r: q_closed_form(r) ** 3 * r ** 5, 0, np.inf)[0]
    closed = np.pi ** 3 * 24.0 ** 3 / 60.0
    assert abs(oracle - closed) / closed < 1e-10
    grid_val = float(np.real(integrate6_samples(bundle_2048.grid,
                                                bundle_2048.q.values.real ** 3)))
    rel = abs(grid_val - closed) / closed
    report(4, rel <= 1e-5,
           f"int Q^3 = {grid_val:.9e} vs pi^3 24^3/60, rel err {rel:.3e} (<= 1e-5)")


def test_criterion_5_kernels(bundle_2048):
    def relres(op, vec):
        out = op.mat @ np.concatenate([vec.u, vec.v]).real
        w = op.op_weights()
        kin = op.grid.laplacian_matrix(op.boundary, op.order)
        scale = np.sqrt(np.sum(w[:op.n] * np.abs(kin @ vec.u.real) ** 2)
                        + np.sum(w[op.n:] * np.abs(kin @ vec.v.real) ** 2))
        return float(np.sqrt(np.sum(w * out ** 2)) / scale)

    b = bundle_2048
    vals = {
        "L_R(LambdaQ)": relres(assemble_L(b, "L_R", "decay4", 4), b.lambda_q),
        "L_I(Q1)": relres(assemble_L(b, "L_I", "decay4", 4), b.q1_vec),
        "E_R(T LambdaQ)": relres(assemble_E(b, "E_R", "decay4", 4), b.t_lambda_q),
        "E_I(T Q1)": relres(assemble_E(b, "E_I", "decay4", 4), b.t_q1),
    }
    worst = max(vals.values())
    report(5, worst <= 1e-5, "kernel residuals " +
           ", ".join(f"{k}={v:.2e}" for k, v in vals.items()) + " (<= 1e-5)")


# ---------------------------------------------------------------------------
# criteria 6-8: spectrum


def test_criterion_6_lambda1(spectrum_1024, grid_2048):
    bundle, spectral = spectrum_1024
    lam = spectral.lambda1
    ok_exist = lam > 0 and spectral.residual <= 1e-6
    b_kappa1 = build_bundle(RadialGrid(n=512, r_max=200.0, stretch=29.0), 1.0)
    s_kappa1 = eigenpair_e(b_kappa1)
    ok_exist = ok_exist and s_kappa1.lambda1 > 0 and s_kappa1.residual <= 1e-6
    bundle2 = build_bundle(grid_2048, KAPPA)
    lam2 = lambda1_inverse_iteration(bundle2, lam)
    refine = abs(lam2 - lam) / lam
    cross = dense_cross_check(build_bundle(
        RadialGrid(n=256, r_max=60.0, stretch=9.0), KAPPA))
    dense_rel = abs(cross["lambda1_dense"] - lam) / lam
    ok = (ok_exist and refine <= 1e-3 and dense_rel <= 1e-2
          and cross["n_real"] == 2)
    report(6, ok, f"lambda1={lam:.8f} (kappa=1: {s_kappa1.lambda1:.6f}), "
                  f"eig residual {spectral.residual:.1e} (<= 1e-6), "
                  f"refinement {refine:.2e} (<= 1e-3), dense cross {dense_rel:.2e} (<= 1e-2)")


def test_criterion_7_form_signs(spectrum_1024):
    bundle, spectral = spectrum_1024
    phi_tq = quad_form(bundle.t_q, bundle.t_q, form_ops(bundle, "phi_e"))
    ok = (phi_tq < 0
          and abs(spectral.phi_e_plus) <= 1e-8
          and abs(spectral.phi_e_minus) <= 1e-8
          and abs(abs(spectral.normalization) - 1.0) <= 1e-9
          and spectral.normalization != 0.0)
    report(7, ok, f"Phi_E(TQ)={phi_tq:.4e} (< 0), |Phi_E(e+)|/||e+||^2={abs(spectral.phi_e_plus):.1e} "
                  f"(<= 1e-8), Phi_E(e+,e-) normalized to {spectral.normalization:+.6f} "
                  f"(unit magnitude; sign fixed negative by E_I >= 0)")


def test_criterion_8_coercivity(spectrum_1024):
    bundle, spectral = spectrum_1024
    minima = {}
    for which in ("phi_e_Gtilde", "phi_G", "L_I"):
        res = coercivity_sample(which, 100, 2024,
                                bundle, spectral if which == "phi_e_Gtilde" else None)
        minima[which] = res["min_ratio"]
    ok = all(v > 0 for v in minima.values())
    report(8, ok, "min form/||h||^2 over 100 seeded trials: " +
           ", ".join(f"{k}={v:.4f}" for k, v in minima.items()) + " (all > 0)")


# ---------------------------------------------------------------------------
# criteria 9, 10, 14: approximate and special solutions


def test_criterion_9_residual_slopes(shot_pipeline):
    bundle, spectral, _, _ = shot_pipeline
    lam = spectral.lambda1
    window = default_fit_window(lam)
    rows = []
    ok = True
    for k in (1, 2, 3):
        sol = approx_profiles(bundle, spectral, 1.0, k)
        fit = residual_eps_k(sol, bundle, window)
        for tag in ("slope_l2", "slope_h1"):
            ratio = fit[tag] / fit["target_slope"]
            ok = ok and abs(ratio - 1.0) <= 0.1
        rows.append(f"k={k}: {fit['slope_l2']:.4f}/{fit['slope_h1']:.4f} vs {fit['target_slope']:.4f}")
    report(9, ok, "eps_k slopes (L2/Hdot1 vs -(k+1)lam, 10%): " + "; ".join(rows))


def test_criterion_10_special_solutions(shot_pipeline):
    bundle, spectral, shots, runtime = shot_pipeline
    lam = spectral.lambda1
    parts = []
    ok = True
    for a in (1.0, -1.0):
        shot = shots[a]
        m_env = shot.envelope_margin(3.5, shot.dev_wk, 0.05, 0.3)
        rate = shot.hn_gap_rate()
        ok = ok and m_env < 1.0 and abs(rate - lam) / lam <= 0.15
        parts.append(f"a={a:+.0f}: envelope margin {m_env:.2f} (<1), delta-rate {rate:.4f}")
    gp = construct_g(shots[1.0], bundle)
    gm = construct_g(shots[-1.0], bundle)
    ordering = gm.H_value < gp.H_Q < gp.H_value
    e_gap = max(abs(gp.E_value - gp.E_Q) / gp.E_Q, abs(gm.E_value - gm.E_Q) / gm.E_Q)
    ok = ok and ordering and e_gap <= 1e-3 and runtime < 300.0
    parts.append(f"H(G-)={gm.H_value:.1f} < H(Q)={gp.H_Q:.1f} < H(G+)={gp.H_value:.1f}")
    parts.append(f"|E(G+-)-E(Q)|/E(Q) = {e_gap:.2e} (<= 1e-3)")
    parts.append(f"shot runtime {runtime:.0f}s (< 300s)")
    report(10, ok, "; ".join(parts))


def test_criterion_14_time_translation(shot_pipeline):
    bundle, spectral, shots, _ = shot_pipeline
    match = time_translation_mismatch(shots[1.0], shots[2.0], bundle)
    ok = match["max_rel_mismatch"] <= 1e-3 and match["overlap_points"] >= 10
    report(14, ok, f"W^2 vs W^1 shifted by log2/lambda1: max rel Hdot1 mismatch "
                   f"{match['max_rel_mismatch']:.2e} over {match['overlap_points']} "
                   f"snapshots (<= 1e-3)")


# ---------------------------------------------------------------------------
# criteria 11-13: evolution


def test_criterion_11_conservation(evo_512):
    bundle = evo_512
    grid = bundle.grid
    r = grid.nodes
    smooth = pair_from_arrays(grid, 0.8 * np.exp(-r * r),
                              0.5 * np.exp(-r * r / 2), KAPPA)
    cfg = EvolutionConfig(dt=5e-4, t_end=10.0, monitor_stride=200)
    rec = run(smooth, cfg)
    drift = rec.drift()
    q = bundle.q_vec
    rec_q = run(q, EvolutionConfig(dt=5e-4, t_end=5.0, monitor_stride=500))
    dist = h1dot_norm(rec_q.final_state - q) / h1dot_norm(q)
    ok = drift["energy"] <= 1e-6 and drift["mass"] <= 1e-6 and dist <= 1e-4
    report(11, ok, f"E drift {drift['energy']:.2e}, mass drift {drift['mass']:.2e} "
                   f"over t in [0,10] (<= 1e-6); Q stationary to {dist:.2e} at t=5 (<= 1e-4)")


def test_criterion_12_virial_identity():
    # the deviation is pure O(h^2) spatial error (dt- and stride-independent);
    # the R=inf branch needs the production n=2048 since w = r^2 amplifies
    # the radiating far field.  kappa = 1 is report-only and runs at n=1024.
    devs = {}
    for kappa, n in ((0.5, 2048), (1.0, 1024)):
        grid = RadialGrid(n=n, r_max=200.0, stretch=29.0)
        r = grid.nodes
        u = pair_from_arrays(grid, 0.8 * np.exp(-r * r),
                             0.5 * np.exp(1j * 0.4) * np.exp(-r * r / 2), kappa)
        cfg = EvolutionConfig(dt=5e-4, t_end=1.5, monitor_stride=10,
                              virial_radii=(5.0, math.inf))
        rec = run(u, cfg)
        devs[kappa] = (check_virial_identity(rec, 5.0),
                       check_virial_identity(rec, math.inf),
                       vr_identity_defect(rec, 5.0))
    d5, dinf, _ = devs[0.5]
    ok = d5 <= 1e-3 and dinf <= 1e-3
    report(12, ok, f"kappa=1/2: |dI/dt - F| rel = {d5:.2e} (R=5), {dinf:.2e} (R=inf) "
                   f"(<= 1e-3); reported kappa=1: {devs[1.0][0]:.2e}/{devs[1.0][1]:.2e}; "
                   f"V_R defect kappa=1/2: {devs[0.5][2]:.2e} vs kappa=1: {devs[1.0][2]:.2e}")


def test_criterion_13_dichotomy(evo_512, shot_pipeline):
    bundle = evo_512
    h_q = hamiltonian(bundle.q_vec)
    results = {}
    # scale sweep on the ground state
    rec09 = run(0.9 * bundle.q_vec,
                EvolutionConfig(dt=1e-3, t_end=25.0, monitor_stride=100, sponge=True),
                reference_H=h_q)
    results["0.9"] = dynamical_verdict(rec09, delta0=0.1 * h_q)[0]
    rec11 = run(1.1 * bundle.q_vec,
                EvolutionConfig(dt=1e-3, t_end=40.0, monitor_stride=20, adapt=True),
                reference_H=h_q)
    results["1.1"] = dynamical_verdict(rec11, delta0=0.1 * h_q)[0]
    # threshold pair legs (original system, backward in time)
    shot_bundle, _, shots, _ = shot_pipeline
    gp = construct_g(shots[1.0], shot_bundle)
    gm = construct_g(shots[-1.0], shot_bundle)
    h_q_shot = hamiltonian(shot_bundle.q_vec)
    rec_gp = run(gp.initial, EvolutionConfig(dt=1e-3, t_end=-40.0, monitor_stride=20,
                                             adapt=True), reference_H=h_q_shot)
    results["G+ backward"] = rec_gp.termination
    # scattering near the threshold is slow: the local L^4 proxy needs a
    # ~40-unit leg to decay below the classification ratio
    rec_gm = run(gm.initial, EvolutionConfig(dt=1e-3, t_end=-40.0, monitor_stride=100,
                                             sponge=True), reference_H=h_q_shot)
    l4 = rec_gm.l4_density
    gm_decay = float(np.mean(l4[-len(l4) // 4:]) / np.max(l4[: len(l4) // 2]))
    results["G- backward"] = f"{rec_gm.termination}, L4 ratio {gm_decay:.2f}"
    ok = (results["0.9"] == "global-decaying" and results["1.1"] == "blowup"
          and rec_gp.termination == "blowup"
          and rec_gm.termination == "completed" and gm_decay < 0.2)
    report(13, ok, "; ".join(f"{k}: {v}" for k, v in results.items()))
