"""Command-line orchestration: scenarios, serialization, reporting.

Usage:  qnls6 <scenario> --config <path> [--out <dir>] [--seed <u64>]

Scenarios: ground-state, spectrum, special, evolve, modulate, dichotomy,
report.  Exit status 0 on success, 1 on configuration errors, 2 on numerical
failures.  All artifact files carry a version header line; floats are printed
with 17 significant digits so identical config + seed reproduce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (ScenarioConfig, parse_a_values, parse_config, parse_radii,
                     parse_recipe)
from .grid import GridError, RadialGrid, pair_from_arrays
from .groundstate import (GroundStateBundle, apply_symmetry, build_bundle,
                          bundle_to_rows, elliptic_residual, transform_T,
                          verify_elliptic, _interp_component)
from .functionals import energy, hamiltonian, variational_constants
from .linops import build_block_E
from .spectrum import (SpectrumError, SpectralResult, coercivity_sample,
                       dense_cross_check, eigenpair_e, lambda1_inverse_iteration,
                       shifted_solve_conditioning)
from .special import (ShootingError, approx_profiles, construct_g, control_leg,
                      default_fit_window, residual_eps_k, shoot_w,
                      time_translation_mismatch)
from .evolution import (EvolutionConfig, check_virial_identity, dynamical_verdict,
                        l4_decay_ratio, reconcile, run, variational_prediction,
                        vr_identity_defect, write_checkpoint)
from .modulation import (ModulationError, ModulationFrame, comparability_band,
                         track, verify_rate_bound)

_NUMERICAL_ERRORS = (SpectrumError, ShootingError, GridError, ModulationError,
                     np.linalg.LinAlgError, RuntimeError)


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"' + str(x) + '"'
    return f"{x:.17g}"


def _json_dump(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  "{k}": {_json_dump(v, indent + 2).lstrip()}' for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [_json_dump(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if obj is None:
        return pad + "null"
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt_float(float(obj))
    return pad + json.dumps(str(obj))


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_dump({"qnls6_version": __version__, **obj}))
        fh.write("\n")


def write_csv(path: str, header: tuple, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# qnls6 {__version__}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def load_profile_csv(path: str, grid: RadialGrid, kappa: float):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line[0].isalpha():
                continue
            rows.append([float(tok) for tok in line.split(",")])
    r, reu, imu, rev, imv = np.array(rows).T
    from types import SimpleNamespace
    source = SimpleNamespace(nodes=r)
    u = _interp_component(source, reu + 1j * imu, grid.nodes)
    v = _interp_component(source, rev + 1j * imv, grid.nodes)
    return pair_from_arrays(grid, u, v, kappa)


def export_profile_csv(path: str, pair) -> None:
    rows = ((r, z.real, z.imag, w.real, w.imag)
            for r, z, w in zip(pair.grid.nodes, pair.u, pair.v))
    write_csv(path, ("r", "re_u", "im_u", "re_v", "im_v"), rows)


# ---------------------------------------------------------------------------
# scenario plumbing


def _mkgrid(cfg: ScenarioConfig, n_override: int = 0) -> RadialGrid:
    g = cfg.grid
    return RadialGrid(n=n_override or g.n, r_max=g.r_max, mapping=g.mapping,
                      stretch=g.stretch)


def _evo_config(cfg: ScenarioConfig, **overrides) -> EvolutionConfig:
    e = cfg.evolution
    base = dict(dt=e.dt, t_end=e.t_end, scheme=e.scheme, system=e.system,
                blowup_H_factor=e.blowup_H_factor, monitor_stride=e.monitor_stride,
                snapshot_stride=e.snapshot_stride, adapt=e.adapt, sponge=e.sponge,
                sponge_strength=e.sponge_strength,
                virial_radii=parse_radii(e.virial_radii))
    base.update(overrides)
    return EvolutionConfig(**base)


def _spectral_pipeline(cfg: ScenarioConfig, grid: RadialGrid,
                       background: str = "closed-form") -> tuple[GroundStateBundle, SpectralResult]:
    bundle = build_bundle(grid, cfg.physics.kappa, background=background)
    spectral = eigenpair_e(bundle, clip_rel=cfg.spectrum.clip_rel)
    return bundle, spectral


def scenario_ground_state(cfg: ScenarioConfig, outdir: str) -> dict:
    grid = _mkgrid(cfg)
    bundle = build_bundle(grid, cfg.physics.kappa)
    consts = variational_constants(bundle)
    q3_grid = float(np.sum(grid.quad_weights * bundle.q.values.real ** 3))
    q3_exact = math.pi ** 3 * 24.0 ** 3 / 60.0
    summary = {
        "scenario": "ground-state",
        "elliptic_residual": verify_elliptic(bundle),
        "elliptic_residual_order2": elliptic_residual(bundle.q, order=2),
        "pohozaev_ratio": consts["pohozaev_ratio"],
        "C_GN": consts["C_GN"],
        "C_kappa": consts["C_kappa"],
        "H_Q": consts["H_Q"],
        "P_Q": consts["P_Q"],
        "E_Q": consts["E_Q"],
        "six_E_minus_H_rel": abs(6.0 * consts["E_Q"] - consts["H_Q"]) / consts["H_Q"],
        "int_Q3": q3_grid,
        "int_Q3_rel_err": abs(q3_grid - q3_exact) / q3_exact,
        "discrete_kernel_residual": bundle.discrete_kernel_residual,
    }
    write_csv(os.path.join(outdir, "ground_state.csv"), ("r", "Q", "LambdaQ"),
              bundle_to_rows(bundle))
    write_json(os.path.join(outdir, "ground-state.summary.json"), summary)
    return summary


def scenario_spectrum(cfg: ScenarioConfig, outdir: str) -> dict:
    sp = cfg.spectrum
    grid = _mkgrid(cfg, n_override=sp.n)
    bundle, spectral = _spectral_pipeline(cfg, grid)
    summary = {"scenario": "spectrum", **spectral.to_dict()}
    if sp.refine_check:
        grid2 = _mkgrid(cfg, n_override=2 * sp.n)
        bundle2 = build_bundle(grid2, cfg.physics.kappa)
        lam2 = lambda1_inverse_iteration(bundle2, spectral.lambda1)
        summary["lambda1_refined"] = lam2
        summary["refine_rel_diff"] = abs(lam2 - spectral.lambda1) / spectral.lambda1
    cross_grid = RadialGrid(n=sp.cross_check_n, r_max=sp.cross_check_r_max,
                            stretch=sp.cross_check_stretch)
    cross_bundle = build_bundle(cross_grid, cfg.physics.kappa)
    cross = dense_cross_check(cross_bundle)
    summary["dense_lambda1"] = cross["lambda1_dense"]
    summary["dense_n_real"] = cross["n_real"]
    summary["dense_n_near_zero"] = cross["n_near_zero"]
    if cross["lambda1_dense"]:
        summary["dense_rel_diff"] = abs(cross["lambda1_dense"] - spectral.lambda1) / spectral.lambda1
    block = build_block_E(bundle)
    summary.update({f"kernel_{k}": v for k, v in block.kernel_residuals(bundle).items()})
    summary.update(shifted_solve_conditioning(bundle, spectral.lambda1))
    for which in ("phi_G", "phi_e_Gtilde", "L_I", "E_I"):
        res = coercivity_sample(which, sp.coercivity_trials, cfg.seed + 11, bundle,
                                spectral if which == "phi_e_Gtilde" else None)
        summary[f"coercivity_{which}_min"] = res["min_ratio"]
    rows = ((r, spectral.e_plus.u[i].real, spectral.e_plus.u[i].imag,
             spectral.e_plus.v[i].real, spectral.e_plus.v[i].imag)
            for i, r in enumerate(grid.nodes))
    write_csv(os.path.join(outdir, "eigenfunction.csv"),
              ("r", "re_Y", "im_Y", "re_Z", "im_Z"), rows)
    write_json(os.path.join(outdir, "spectrum.summary.json"), summary)
    return summary


def scenario_special(cfg: ScenarioConfig, outdir: str) -> dict:
    spc = cfg.special
    grid = _mkgrid(cfg, n_override=spc.n)
    bundle, spectral = _spectral_pipeline(cfg, grid, background="discrete")
    lam = spectral.lambda1
    a_values = parse_a_values(spc.a_values)
    t_far = math.log(1.0 / spc.data_eps) / lam
    snap = tuple(np.linspace(t_far, 0.0, spc.n_snapshots))
    ctrl = control_leg(bundle, t_far, spc.dt, snap)
    summary = {"scenario": "special", "lambda1": lam, "t_far": t_far, "k": spc.order}
    shots = {}
    for a in a_values:
        shot = shoot_w(bundle, spectral, a, spc.order, dt=spc.dt,
                       data_eps=spc.data_eps, n_snapshots=spc.n_snapshots,
                       t_far=t_far, control=ctrl)
        shots[a] = shot
        tag = f"a{a:+g}"
        summary[f"{tag}_env_margin_k_half"] = shot.envelope_margin(
            spc.order + 0.5, shot.dev_wk, spc.window_lo, spc.window_hi)
        summary[f"{tag}_env_margin_3_2"] = shot.envelope_margin(
            1.5, shot.dev_first, spc.window1_lo, spc.window1_hi)
        summary[f"{tag}_dev_slope"] = shot.fitted_slope(shot.dev_wk, spc.window_lo, spc.window_hi)
        summary[f"{tag}_delta_rate"] = shot.hn_gap_rate()
        write_csv(os.path.join(outdir, f"shot_{tag}.csv"),
                  ("t", "dev_wk", "dev_wk_raw", "dev_first", "hn_gap"),
                  zip(shot.times, shot.dev_wk, shot.dev_wk_raw, shot.dev_first, shot.hn_gap))
        sol = approx_profiles(bundle, spectral, a, spc.order)
        fit = residual_eps_k(sol, bundle, default_fit_window(lam))
        summary[f"{tag}_epsk_slope_l2"] = fit["slope_l2"]
        summary[f"{tag}_epsk_slope_h1"] = fit["slope_h1"]
        summary[f"{tag}_epsk_target"] = fit["target_slope"]
    for a, name in ((1.0, "gplus"), (-1.0, "gminus")):
        if a in shots:
            pair = construct_g(shots[a], bundle)
            summary[f"{name}_H"] = pair.H_value
            summary[f"{name}_E"] = pair.E_value
            summary[f"{name}_H_Q"] = pair.H_Q
            summary[f"{name}_E_rel_gap"] = abs(pair.E_value - pair.E_Q) / abs(pair.E_Q)
            summary[f"{name}_delta_rate"] = pair.delta_rate
            export_profile_csv(os.path.join(outdir, f"{name}_initial.csv"), pair.initial)
    if 2.0 in shots and 1.0 in shots:
        match = time_translation_mismatch(shots[1.0], shots[2.0], bundle)
        summary["translation_mismatch"] = match["max_rel_mismatch"]
        summary["translation_overlap"] = match["overlap_points"]
    write_json(os.path.join(outdir, "special.summary.json"), summary)
    return summary


def _initial_from_recipe(rec: dict, cfg: ScenarioConfig, bundle: GroundStateBundle):
    """Initial data and the bundle whose Q it was built against.

    Threshold-pair recipes are built on the discrete-background Q, and
    E(G+-) = E(Q) holds for that Q; their E/E(Q) and H/H(Q) are taken against
    it, since the closed-form Q's energy differs from it by 2e-3 at n = 128,
    r_max = 60, more than the threshold band.
    """
    if rec["kind"] == "qscale":
        base = apply_symmetry(bundle.q_vec, rec["theta"], rec["lam"])
        return rec["scale"] * base, bundle
    if rec["kind"] == "file":
        return load_profile_csv(rec["path"], bundle.grid, bundle.kappa), bundle
    # threshold-pair recipes need the shooting pipeline on this grid
    spc = cfg.special
    bundle_d = build_bundle(bundle.grid, bundle.kappa, background="discrete")
    spectral = eigenpair_e(bundle_d)
    a = {"gplus": 1.0, "gminus": -1.0}.get(rec["kind"], rec.get("a", 1.0))
    shot = shoot_w(bundle_d, spectral, a, spc.order, dt=spc.dt, data_eps=spc.data_eps,
                   n_snapshots=spc.n_snapshots)
    if rec["kind"] == "wa":
        t0 = min(shot.state_at.keys())
        return transform_T(shot.state_at[t0], inverse=True), bundle_d
    return construct_g(shot, bundle_d).initial, bundle_d


def _run_one(cfg: ScenarioConfig, bundle: GroundStateBundle, initial, label: str,
             outdir: str, **evo_overrides) -> dict:
    """Evolve one initial state; ``bundle`` is the Q it was built against."""
    ecfg = _evo_config(cfg, **evo_overrides)
    h_q = hamiltonian(bundle.q_vec)
    e_ratio = energy(initial) / energy(bundle.q_vec)
    h_ratio = hamiltonian(initial) / h_q
    prediction = variational_prediction(e_ratio, h_ratio)
    rec = run(initial, ecfg, reference_H=h_q)
    verdict, why = dynamical_verdict(rec, delta0=0.1 * h_q)
    classification, reason = reconcile(verdict, why, prediction)
    drift = rec.drift()
    out = {
        "label": label,
        "termination": rec.termination,
        "classification": classification,
        "reason": reason,
        "dynamical_verdict": verdict,
        "variational_prediction": prediction or "none",
        "E_ratio": e_ratio,
        "H_ratio": h_ratio,
        "l4_ratio": l4_decay_ratio(rec),
        "energy_drift": drift["energy"],
        "mass_drift": drift["mass"],
        "steps": rec.steps,
        "final_time": rec.final_time,
    }
    for R in rec.I_R:
        tag = "inf" if math.isinf(R) else f"{R:g}"
        out[f"virial_identity_dev_R{tag}"] = check_virial_identity(rec, R)
        out[f"vr_identity_defect_R{tag}"] = vr_identity_defect(rec, R)
    write_csv(os.path.join(outdir, f"series_{label}.csv"),
              ("t", "H", "P", "E", "mass", "delta"), rec.csv_rows())
    write_checkpoint(os.path.join(outdir, f"final_{label}.chk"), rec.final_state,
                     rec.final_time)
    return out


def scenario_evolve(cfg: ScenarioConfig, outdir: str) -> dict:
    grid = _mkgrid(cfg, n_override=cfg.evolution.n)
    bundle = build_bundle(grid, cfg.physics.kappa)
    recipes = cfg.sweep.recipes
    if not recipes:
        recipes = ("qscale:1",)
    runs = []
    for i, rtext in enumerate(recipes):
        rec = parse_recipe(rtext)
        initial, ref = _initial_from_recipe(rec, cfg, bundle)
        runs.append(_run_one(cfg, ref, initial, f"run{i}", outdir))
    summary = {"scenario": "evolve", "runs": runs}
    write_json(os.path.join(outdir, "evolve.summary.json"), summary)
    return summary


def scenario_modulate(cfg: ScenarioConfig, outdir: str) -> dict:
    grid = _mkgrid(cfg, n_override=cfg.evolution.n)
    bundle = build_bundle(grid, cfg.physics.kappa)
    recipes = cfg.sweep.recipes or ("qscale:1.002",)
    rec = parse_recipe(recipes[0])
    initial, bundle = _initial_from_recipe(rec, cfg, bundle)
    ecfg = _evo_config(cfg, snapshot_stride=max(1, cfg.evolution.snapshot_stride or 5))
    h_q = hamiltonian(bundle.q_vec)
    record = run(initial, ecfg, reference_H=h_q)
    frame = ModulationFrame(bundle)
    trk = track(record.snapshots, bundle, frame)
    write_csv(os.path.join(outdir, "modulation.csv"),
              ("t", "theta", "lambda", "alpha", "delta", "h_norm", "converged"),
              trk.csv_rows())
    summary = {
        "scenario": "modulate",
        "termination": record.termination,
        "converged_fraction": float(np.mean(trk.converged)),
        "comparability_band": comparability_band(trk, h_q),
        "rate_bound": verify_rate_bound(trk),
    }
    write_json(os.path.join(outdir, "modulate.summary.json"), summary)
    return summary


def scenario_dichotomy(cfg: ScenarioConfig, outdir: str) -> dict:
    grid = _mkgrid(cfg, n_override=cfg.evolution.n)
    bundle = build_bundle(grid, cfg.physics.kappa)
    recipes = cfg.sweep.recipes or ("qscale:0.9", "qscale:1.1")
    runs = []
    for i, rtext in enumerate(recipes):
        rec = parse_recipe(rtext)
        initial, ref = _initial_from_recipe(rec, cfg, bundle)
        runs.append(_run_one(cfg, ref, initial, f"sweep{i}", outdir,
                             adapt=True, sponge=True))
        runs[-1]["recipe"] = rtext
    summary = {"scenario": "dichotomy", "runs": runs}
    write_json(os.path.join(outdir, "dichotomy.summary.json"), summary)
    return summary


def scenario_report(cfg: ScenarioConfig, outdir: str) -> dict:
    entries = []
    missing = []
    src = getattr(cfg, "report_source", cfg.output_dir)
    if not os.path.isdir(src):
        missing.append(src)
        names = []
    else:
        names = sorted(fn for fn in os.listdir(src) if fn.endswith(".summary.json"))
    for fn in names:
        try:
            with open(os.path.join(src, fn), encoding="utf-8") as fh:
                entries.append({"file": fn, **json.load(fh)})
        except (OSError, json.JSONDecodeError) as exc:
            missing.append(f"{fn}: {exc}")
    report = {"scenario": "report", "n_entries": len(entries),
              "entries": entries, "missing": missing,
              "warning": "no artifacts found" if not entries else ""}
    write_json(os.path.join(outdir, "report.json"), report)
    with open(os.path.join(outdir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"qnls6 {__version__} report\n")
        if not entries:
            fh.write("warning: no artifacts found\n")
        for e in entries:
            status = e.get("termination", e.get("scenario", "?"))
            fh.write(f"{e['file']:40s} {status}\n")
    return report


_SCENARIO_FNS = {
    "ground-state": scenario_ground_state,
    "spectrum": scenario_spectrum,
    "special": scenario_special,
    "evolve": scenario_evolve,
    "modulate": scenario_modulate,
    "dichotomy": scenario_dichotomy,
    "report": scenario_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qnls6", description=__doc__)
    parser.add_argument("scenario", choices=sorted(_SCENARIO_FNS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        cfg.scenario = args.scenario
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.report_source = cfg.output_dir   # report scans the configured dir
        if args.out is not None:
            cfg.output_dir = args.out
        cfg.validate()
    except (OSError, ValueError) as exc:   # ConfigError, malformed JSON, a recipe's number
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    try:
        summary = _SCENARIO_FNS[args.scenario](cfg, outdir)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: v for k, v in summary.items()
                      if isinstance(v, (int, float, str))}, default=str)[:2000])
    return 0


if __name__ == "__main__":
    sys.exit(main())
