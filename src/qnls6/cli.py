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
from .config import (ConfigError, ScenarioConfig, parse_a_values, parse_config,
                     parse_radii, parse_recipe)
from .grid import GridError, RadialGrid, pair_from_arrays
from .groundstate import (GroundStateBundle, apply_symmetry, build_bundle,
                          bundle_to_rows, elliptic_residual, refine_discrete,
                          transform_T, _interp_component)
from .functionals import energy, hamiltonian, variational_constants
from .linops import build_block_E
from .spectrum import (SpectrumError, SpectralResult, coercivity_sample,
                       dense_cross_check, eigenpair_e, lambda1_inverse_iteration,
                       shifted_solve_conditioning)
from .special import (ShootingError, construct_g, default_fit_window, leg_start,
                      residual_eps_k, shoot_amplitudes, time_translation_mismatch,
                      tq_step_defect)
from .evolution import (EvolutionConfig, check_virial_identity, dynamical_verdict,
                        l4_decay_ratio, reconcile, run_batch, variational_prediction,
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
    """The (r, re_u, im_u, re_v, im_v) rows of a profile CSV, interpolated to the grid.

    Content that is no such profile raises ConfigError.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    try:
        data = np.array([[float(tok) for tok in line.split(",")] for line in lines
                         if line and not line.startswith("#") and not line[0].isalpha()])
        if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] != 5:
            raise ValueError("expected two or more rows of r, re_u, im_u, re_v, im_v")
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite value in profile")
        r, reu, imu, rev, imv = data.T
        # copied: each component contiguous, as in every other FieldPair
        u, v = _interp_component(r, np.stack([reu + 1j * imu, rev + 1j * imv], axis=1),
                                 grid.nodes).T.copy()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
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
    radii = parse_radii(e.virial_radii)
    if e.t_end == 0:
        raise ConfigError("[evolution] t_end = 0 leaves nothing to integrate "
                          "(the runs start at t = 0)")
    if not all(R >= 1 for R in radii):
        raise ConfigError(f"[evolution] virial_radii = {e.virial_radii}: every "
                          "localization radius must be >= 1")
    return e.config(**overrides)


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
        "elliptic_residual": elliptic_residual(bundle.q),
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
        "discrete_kernel_residual": refine_discrete(grid)[1],
    }
    write_csv(os.path.join(outdir, "ground_state.csv"), ("r", "Q", "LambdaQ"),
              bundle_to_rows(bundle))
    write_json(os.path.join(outdir, "ground-state.summary.json"), summary)
    return summary


def scenario_spectrum(cfg: ScenarioConfig, outdir: str) -> dict:
    sp = cfg.spectrum
    if sp.coercivity_trials < 1:
        raise ConfigError(f"[spectrum] coercivity_trials = {sp.coercivity_trials} "
                          "must be >= 1")
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
    a_values = parse_a_values(spc.a_values)
    if not 0 < spc.data_eps < 1:
        raise ConfigError(f"[special] data_eps = {spc.data_eps:g} must lie in (0, 1): "
                          "the legs start where e^(-lambda1 t) = data_eps, at t > 0")
    windows = [(lo, hi, getattr(spc, lo), getattr(spc, hi))
               for lo, hi in (("window_lo", "window_hi"), ("window1_lo", "window1_hi"))]
    for lo, hi, x_lo, x_hi in windows:
        if not 0 < x_lo < x_hi <= 1:
            raise ConfigError(f"[special] {lo} = {x_lo:g}, {hi} = {x_hi:g}: the fit window "
                              f"in x = e^(-lambda1 t) <= 1 needs 0 < {lo} < {hi} <= 1")
    if spc.n_snapshots < 3:
        raise ConfigError(f"[special] n_snapshots = {spc.n_snapshots} must be >= 3: "
                          "a slope is fitted to 3 or more snapshots")
    if 0.0 in a_values:
        raise ConfigError("[special] a_values must be nonzero "
                          "(a = 0 gives U_k = 0, a leg with nothing to fit)")
    if not all(map(math.isfinite, a_values)):
        raise ConfigError(f"[special] a_values = {spc.a_values}: every amplitude must be finite")
    grid = _mkgrid(cfg, n_override=spc.n)
    bundle, spectral = _spectral_pipeline(cfg, grid, background="discrete")
    lam = spectral.lambda1
    # every leg starts at the time of |a| = 1, so the legs share one batch
    t_far = leg_start(lam, 1.0, spc.data_eps)
    x_snap = np.exp(-lam * np.linspace(t_far, 0.0, spc.n_snapshots))
    for lo, hi, x_lo, x_hi in windows:
        count = int(np.count_nonzero((x_snap >= x_lo) & (x_snap <= x_hi)))
        if count < 3:
            raise ConfigError(f"[special] {lo} = {x_lo:g}, {hi} = {x_hi:g}: {count} of the "
                              f"{spc.n_snapshots} snapshots fall in the window, the fit needs 3")
    shots = shoot_amplitudes(bundle, spectral, a_values, spc.order, spc.dt, spc.n_snapshots,
                             spc.data_eps, t_far)
    summary = {"scenario": "special", "lambda1": lam, "t_far": t_far, "k": spc.order,
               "tq_step_defect": tq_step_defect(bundle, spc.dt)}
    for a in a_values:
        sol, shot = shots[a]
        tag = f"a{a:+g}"
        summary[f"{tag}_env_margin_k_half"] = shot.envelope_margin(
            spc.order + 0.5, shot.dev_wk, spc.window_lo, spc.window_hi)
        summary[f"{tag}_env_margin_3_2"] = shot.envelope_margin(
            1.5, shot.dev_first, spc.window1_lo, spc.window1_hi)
        summary[f"{tag}_dev_slope"] = shot.fitted_slope(shot.dev_wk, spc.window_lo, spc.window_hi)
        summary[f"{tag}_delta_rate"] = shot.hn_gap_rate()
        write_csv(os.path.join(outdir, f"shot_{tag}.csv"),
                  ("t", "dev_wk", "dev_first", "hn_gap"),
                  zip(shot.times, shot.dev_wk, shot.dev_first, shot.hn_gap))
        fit = residual_eps_k(sol, bundle, default_fit_window(lam))
        summary[f"{tag}_epsk_slope_l2"] = fit["slope_l2"]
        summary[f"{tag}_epsk_slope_h1"] = fit["slope_h1"]
        summary[f"{tag}_epsk_target"] = fit["target_slope"]
    for a, name in ((1.0, "gplus"), (-1.0, "gminus")):
        if a in shots:
            pair = construct_g(shots[a][1], bundle)
            summary[f"{name}_H"] = pair.H_value
            summary[f"{name}_E"] = pair.E_value
            summary[f"{name}_H_Q"] = pair.H_Q
            summary[f"{name}_E_rel_gap"] = abs(pair.E_value - pair.E_Q) / abs(pair.E_Q)
            summary[f"{name}_delta_rate"] = pair.delta_rate
            export_profile_csv(os.path.join(outdir, f"{name}_initial.csv"), pair.initial)
    if 2.0 in shots and 1.0 in shots:
        match = time_translation_mismatch(shots[1.0][1], shots[2.0][1], bundle)
        summary["translation_mismatch"] = match["max_rel_mismatch"]
        summary["translation_overlap"] = match["overlap_points"]
    write_json(os.path.join(outdir, "special.summary.json"), summary)
    return summary


def _recipe_amplitude(rec: dict, cfg: ScenarioConfig) -> float | None:
    """Amplitude a of a threshold-pair recipe (gplus, gminus, wa:<a>), else None.

    Its leg starts at the time t > 0 where |a| e^(-lambda1 t) = [special] data_eps.
    Raises ConfigError, before anything is built, for a recipe the scenario
    cannot use: such an amplitude, a qscale off 0 < lambda < inf or with a
    non-finite scale or theta, or an unreadable file.
    """
    if rec["kind"] == "qscale" and not (0 < rec["lam"] < math.inf and
                                        all(map(math.isfinite, (rec["scale"], rec["theta"])))):
        raise ConfigError(f"recipe qscale:{rec['scale']:g}:theta={rec['theta']:g}:lambda="
                          f"{rec['lam']:g}: need a finite scale and theta and 0 < lambda < inf")
    if rec["kind"] == "file":
        try:
            open(rec["path"], encoding="utf-8").close()
        except OSError as exc:
            raise ConfigError(f"recipe file:{rec['path']}: {exc}") from None
    if rec["kind"] not in ("gplus", "gminus", "wa"):
        return None
    a = {"gplus": 1.0, "gminus": -1.0}.get(rec["kind"], rec.get("a"))
    if not 0 < cfg.special.data_eps < abs(a) < math.inf:
        raise ConfigError(f"recipe {rec['kind']} with |a| = {abs(a):g}: need a finite |a| "
                          f"and [special] data_eps = {cfg.special.data_eps:g} in (0, |a|)")
    return a


def _initial_from_recipe(rec: dict, a: float | None, bundle: GroundStateBundle,
                         threshold: tuple | None):
    """Initial data and the bundle whose Q it was built against.

    A threshold-pair recipe of amplitude ``a`` reads its shot from ``threshold``,
    (discrete-background bundle, ``shoot_amplitudes`` shots).  E(G+-) = E(Q)
    holds for that Q, so their E/E(Q) and H/H(Q) are taken against it: the
    closed-form Q's energy differs by 2e-3 at n = 128, r_max = 60.
    """
    if rec["kind"] == "qscale":
        base = apply_symmetry(bundle.q_vec, rec["theta"], rec["lam"])
        return rec["scale"] * base, bundle
    if rec["kind"] == "file":
        return load_profile_csv(rec["path"], bundle.grid, bundle.kappa), bundle
    bundle_d, shots = threshold
    shot = shots[a][1]
    if rec["kind"] == "wa":
        t0 = min(shot.state_at.keys())
        return transform_T(shot.state_at[t0], inverse=True), bundle_d
    return construct_g(shot, bundle_d).initial, bundle_d


def _evolve_recipes(cfg: ScenarioConfig, recipes, **evo_overrides) -> list:
    """(initial, bundle, record) per recipe: the states, evolved by one ``run_batch`` call.

    Threshold-pair recipes share one discrete-background pipeline, built only
    when one is present, and one ``shoot_amplitudes`` call.  ``bundle`` is the
    Q a state was built against; its H(Q) is the run's reference_H.
    """
    evo = _evo_config(cfg, **evo_overrides)
    parsed = [parse_recipe(text) for text in recipes]
    amplitudes = [_recipe_amplitude(rec, cfg) for rec in parsed]   # raises before any build
    grid = _mkgrid(cfg, n_override=cfg.evolution.n)
    bundle = build_bundle(grid, cfg.physics.kappa)
    threshold = None
    wanted = [a for a in amplitudes if a is not None]
    if wanted:
        spc = cfg.special
        bundle_d, spectral = _spectral_pipeline(cfg, grid, background="discrete")
        threshold = bundle_d, shoot_amplitudes(bundle_d, spectral, wanted, spc.order, spc.dt,
                                               spc.n_snapshots, spc.data_eps, None)
    built = [_initial_from_recipe(rec, a, bundle, threshold)
             for rec, a in zip(parsed, amplitudes)]
    records = run_batch([initial for initial, _ in built], evo,
                        reference_H=[hamiltonian(ref.q_vec) for _, ref in built])
    return [(initial, ref, rec) for (initial, ref), rec in zip(built, records)]


def _write_run(outdir: str, label: str, initial, bundle: GroundStateBundle, record) -> dict:
    """Summary row of one run, its state built against ``bundle``'s Q; writes its artifacts."""
    h_q = hamiltonian(bundle.q_vec)
    e_ratio = energy(initial) / energy(bundle.q_vec)
    h_ratio = hamiltonian(initial) / h_q
    prediction = variational_prediction(e_ratio, h_ratio)
    verdict, why = dynamical_verdict(record, delta0=0.1 * h_q)
    classification, reason = reconcile(verdict, why, prediction)
    drift = record.drift()
    out = {
        "label": label,
        "termination": record.termination,
        "classification": classification,
        "reason": reason,
        "dynamical_verdict": verdict,
        "variational_prediction": prediction or "none",
        "E_ratio": e_ratio,
        "H_ratio": h_ratio,
        "l4_ratio": l4_decay_ratio(record),
        "energy_drift": drift["energy"],
        "mass_drift": drift["mass"],
        "steps": record.steps,
        "final_time": record.final_time,
    }
    for R in record.I_R:
        tag = "inf" if math.isinf(R) else f"{R:g}"
        out[f"virial_identity_dev_R{tag}"] = check_virial_identity(record, R)
        out[f"vr_identity_defect_R{tag}"] = vr_identity_defect(record, R)
    write_csv(os.path.join(outdir, f"series_{label}.csv"),
              ("t", "H", "P", "E", "mass", "delta"), record.csv_rows())
    write_checkpoint(os.path.join(outdir, f"final_{label}.chk"), record.final_state,
                     record.final_time)
    return out


def scenario_evolve(cfg: ScenarioConfig, outdir: str) -> dict:
    runs = _evolve_recipes(cfg, cfg.sweep.recipes or ("qscale:1",))
    summary = {"scenario": "evolve",
               "runs": [_write_run(outdir, f"run{i}", *r) for i, r in enumerate(runs)]}
    write_json(os.path.join(outdir, "evolve.summary.json"), summary)
    return summary


def scenario_modulate(cfg: ScenarioConfig, outdir: str) -> dict:
    [(_, bundle, record)] = _evolve_recipes(
        cfg, (cfg.sweep.recipes or ("qscale:1.002",))[:1],
        snapshot_stride=max(1, cfg.evolution.snapshot_stride or 5))
    h_q = hamiltonian(bundle.q_vec)
    frame = ModulationFrame(bundle)
    trk = track(record.snapshots, frame)
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
    recipes = cfg.sweep.recipes or ("qscale:0.9", "qscale:1.1")
    runs = _evolve_recipes(cfg, recipes, adapt=True, sponge=True)
    summary = {"scenario": "dichotomy",
               "runs": [{**_write_run(outdir, f"sweep{i}", *r), "recipe": text}
                        for i, (text, r) in enumerate(zip(recipes, runs))]}
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
    except ConfigError as exc:   # an input the scenario cannot use (an amplitude)
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: v for k, v in summary.items()
                      if isinstance(v, (int, float, str))}, default=str)[:2000])
    return 0


if __name__ == "__main__":
    sys.exit(main())
