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

# One BLAS thread unless the user chose a count: the calls are small, and on 2 cores a
# second thread took spectrum-n1024 from 0.88 to 1.55 s CPU and moved dense_lambda1.
if "numpy" not in sys.modules and not any(
        v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .config import (ConfigError, ScenarioConfig, SpecialBlock, parse_a_values, parse_config,
                     parse_radii, parse_recipe)
from .grid import GridError, RadialGrid, h1dot_norm, pair_from_arrays
from .groundstate import (GroundStateBundle, apply_symmetry, build_bundle,
                          bundle_to_rows, elliptic_residual, refine_discrete,
                          transform_T, _interp_component)
from .functionals import energy, hamiltonian, variational_constants
from .linops import build_block_E
from .spectrum import (SpectralResult, coercivity_sample, dense_cross_check, eigenpair_e,
                       lambda1_inverse_iteration, shifted_solve_conditioning)
from .special import (HN_GAP_WINDOW, default_fit_window, leg_start, leg_vs_series,
                      profile_series, residual_eps_k, series_pair, shoot_legs,
                      time_translation_mismatch, wa_at_zero)
from .evolution import (EvolutionConfig, check_virial_identity, dynamical_verdict,
                        l4_decay_ratio, read_checkpoint, reconcile, run_batch, side_by_side,
                        variational_prediction, vr_identity_defect, write_checkpoint)
from .modulation import ModulationFrame, comparability_band, track, verify_rate_bound

# SpectrumError, ShootingError and ModulationError are RuntimeErrors
_NUMERICAL_ERRORS = (GridError, np.linalg.LinAlgError, RuntimeError)


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
    cross_grid = RadialGrid(n=sp.cross_check_n, r_max=sp.cross_check_r_max,
                            stretch=sp.cross_check_stretch)

    def rest():
        bundle, spectral = _spectral_pipeline(cfg, grid)
        refined = {}
        if sp.refine_check:
            grid2 = _mkgrid(cfg, n_override=2 * sp.n)
            lam2 = lambda1_inverse_iteration(build_bundle(grid2, cfg.physics.kappa),
                                             spectral.lambda1)
            refined = {"lambda1_refined": lam2,
                       "refine_rel_diff": abs(lam2 - spectral.lambda1) / spectral.lambda1}
        block = build_block_E(bundle)
        checks = {f"kernel_{k}": v for k, v in block.kernel_residuals(bundle).items()}
        checks.update(shifted_solve_conditioning(bundle, spectral.lambda1))
        for which in ("phi_G", "phi_e_Gtilde", "L_I", "E_I"):
            res = coercivity_sample(which, sp.coercivity_trials, cfg.seed + 11, bundle,
                                    spectral if which == "phi_e_Gtilde" else None)
            checks[f"coercivity_{which}_min"] = res["min_ratio"]
        return spectral, refined, checks

    # The dense check needs nothing of the rest, so it runs in a second process
    # when two CPUs are usable.  Not a thread: scipy's eigvals holds the GIL,
    # and a thread running it beside the other stages took 0.138 s against
    # 0.108 s serially (n = 1024, cross_check_n = 256, 2 CPUs); the process
    # took the median wall time of those defaults from 0.201 to 0.143 s (10
    # alternating pairs).  The summary keys keep their order.
    (spectral, refined, checks), cross = side_by_side([
        rest, lambda: dense_cross_check(build_bundle(cross_grid, cfg.physics.kappa))])
    summary = {"scenario": "spectrum", **spectral.to_dict(), **refined,
               "dense_lambda1": cross["lambda1_dense"], "dense_n_real": cross["n_real"],
               "dense_n_near_zero": cross["n_near_zero"]}
    if cross["lambda1_dense"]:
        summary["dense_rel_diff"] = abs(cross["lambda1_dense"] - spectral.lambda1) / spectral.lambda1
    summary.update(checks)
    rows = ((r, spectral.e_plus.u[i].real, spectral.e_plus.u[i].imag,
             spectral.e_plus.v[i].real, spectral.e_plus.v[i].imag)
            for i, r in enumerate(grid.nodes))
    write_csv(os.path.join(outdir, "eigenfunction.csv"),
              ("r", "re_Y", "im_Y", "re_Z", "im_Z"), rows)
    write_json(os.path.join(outdir, "spectrum.summary.json"), summary)
    return summary


def _check_leg_sampling(spc: SpecialBlock, a: float, windows) -> None:
    """Refuse a [special] sampling on which a shooting leg of W^a cannot be fitted.

    The leg starts where |a| e^(-lambda1 t) = data_eps, and its n_snapshots
    even times down to t = 0 sit at x = e^(-lambda1 t) = (data_eps/|a|)^s, s
    even from 1 to 0, whatever lambda1 is: this runs before anything is built.
    Each fit (name, lo, hi) in ``windows`` needs 0 < lo < hi <= 1 and 3 of them.
    """
    if not 0 < spc.data_eps < abs(a) < math.inf:
        raise ConfigError(f"[special] data_eps = {spc.data_eps:g} for a leg of |a| = {abs(a):g}: "
                          "a leg starts where |a| e^(-lambda1 t) = data_eps, at t > 0, so it "
                          "needs a finite |a| and data_eps in (0, |a|)")
    if spc.n_snapshots < 3:
        raise ConfigError(f"[special] n_snapshots = {spc.n_snapshots} must be >= 3: "
                          "a slope is fitted to 3 or more snapshots")
    x = (spc.data_eps / abs(a)) ** np.linspace(1.0, 0.0, spc.n_snapshots)
    for name, lo, hi in windows:
        if not 0 < lo < hi <= 1:
            raise ConfigError(f"{name} = [{lo:g}, {hi:g}]: the fit window in "
                              "x = e^(-lambda1 t) <= 1 needs 0 < lo < hi <= 1")
        count = int(np.count_nonzero((x >= lo) & (x <= hi)))
        if count < 3:
            raise ConfigError(f"{name} = [{lo:g}, {hi:g}]: {count} of the {spc.n_snapshots} "
                              f"snapshots (x from {x[0]:.3g} to 1) fall in it, the fit needs 3")


# the window of hn_gap_rate, behind every delta_rate and G+-
_HN_WINDOW = ("[special] data_eps, n_snapshots: the delta_rate window", *HN_GAP_WINDOW)


def scenario_special(cfg: ScenarioConfig, outdir: str) -> dict:
    spc = cfg.special
    a_values = parse_a_values(spc.a_values)
    if not all(0 < abs(a) < math.inf for a in a_values):
        raise ConfigError(f"[special] a_values = {spc.a_values}: every amplitude must be finite "
                          "and nonzero (a = 0 gives U_k = 0, a leg with nothing to fit)")
    # every leg starts at the time of |a| = 1, so the legs share one batch
    windows = [(f"[special] {lo}, {hi}", getattr(spc, lo), getattr(spc, hi))
               for lo, hi in (("window_lo", "window_hi"), ("window1_lo", "window1_hi"))]
    _check_leg_sampling(spc, 1.0, windows + [_HN_WINDOW])
    grid = _mkgrid(cfg, n_override=spc.n)
    bundle, spectral = _spectral_pipeline(cfg, grid, background="discrete")
    lam = spectral.lambda1
    t_far = leg_start(lam, 1.0, spc.data_eps)
    series = profile_series(bundle, spectral, spc.order)
    sols = [series.scaled(a, spc.order) for a in dict.fromkeys(a_values)]
    # the legs check the series: they end where their fits end, unless the
    # translation check compares W^2 with W^1 further down
    x_stop = 1.0 if {1.0, 2.0} <= set(a_values) else max(spc.window_hi, spc.window1_hi,
                                                          HN_GAP_WINDOW[1])
    defect, legs = shoot_legs(bundle, spectral, sols, t_far, spc.dt, spc.n_snapshots, x_stop)
    shots = {sol.a: (sol, leg) for sol, leg in zip(sols, legs)}
    summary = {"scenario": "special", "lambda1": lam, "t_far": t_far, "k": spc.order,
               "tq_step_defect": defect, "series_order": series.k,
               "series_last_term": h1dot_norm(series.profiles[-1])}
    for a in a_values:
        sol, shot = shots[a]
        tag = f"a{a:+g}"
        summary[f"{tag}_env_margin_k_half"] = shot.envelope_margin(
            spc.order + 0.5, shot.dev_wk, spc.window_lo, spc.window_hi)
        summary[f"{tag}_env_margin_3_2"] = shot.envelope_margin(
            1.5, shot.dev_first, spc.window1_lo, spc.window1_hi)
        summary[f"{tag}_dev_slope"] = shot.fitted_slope(shot.dev_wk, spc.window_lo, spc.window_hi)
        summary[f"{tag}_delta_rate"] = shot.hn_gap_rate()
        summary[f"{tag}_leg_vs_series"] = leg_vs_series(shot, series.scaled(a), bundle)
        write_csv(os.path.join(outdir, f"shot_{tag}.csv"),
                  ("t", "dev_wk", "dev_first", "hn_gap"),
                  zip(shot.times, shot.dev_wk, shot.dev_first, shot.hn_gap))
        fit = residual_eps_k(sol, bundle, default_fit_window(lam))
        summary[f"{tag}_epsk_slope_l2"] = fit["slope_l2"]
        summary[f"{tag}_epsk_slope_h1"] = fit["slope_h1"]
        summary[f"{tag}_epsk_target"] = fit["target_slope"]
    for a, name in ((1.0, "gplus"), (-1.0, "gminus")):
        if a in shots:
            pair = series_pair(bundle, series, a, spc.data_eps, spc.n_snapshots)
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


def _prepare_recipe(text: str, cfg: ScenarioConfig, grid: RadialGrid) -> tuple[dict, object]:
    """(parsed recipe, what it needs before anything is built): the amplitude a
    of a threshold-pair recipe (gplus, gminus, wa:<a>), the state of a file:
    or chk: recipe on ``grid``, else None.

    Raises ConfigError naming the recipe, before anything is built, for one the
    scenario cannot use: a leg ``_check_leg_sampling`` refuses, a qscale off
    0 < lambda < inf or with a non-finite scale or theta, an unreadable
    profile, or a checkpoint that is unreadable or of another grid or kappa.
    """
    rec = parse_recipe(text)
    kind = rec["kind"]
    try:
        if kind == "qscale" and not (0 < rec["lam"] < math.inf and
                                     all(map(math.isfinite, (rec["scale"], rec["theta"])))):
            raise ConfigError("need a finite scale and theta and 0 < lambda < inf")
        if kind == "file":
            return rec, load_profile_csv(rec["path"], grid, cfg.physics.kappa)
        if kind == "chk":
            state, _ = read_checkpoint(rec["path"], grid)
            if state.kappa != cfg.physics.kappa:
                raise ConfigError(f"checkpoint kappa = {state.kappa:.17g} is not "
                                  f"[physics] kappa = {cfg.physics.kappa:.17g}")
            return rec, state
        if kind not in ("gplus", "gminus", "wa"):
            return rec, None
        a = {"gplus": 1.0, "gminus": -1.0}.get(kind, rec.get("a"))
        _check_leg_sampling(cfg.special, a, () if kind == "wa" else (_HN_WINDOW,))
        return rec, a
    except (OSError, ValueError) as exc:   # ConfigError, GridError of a checkpoint
        raise ConfigError(f"recipe {text!r}: {exc}") from None


def _initial_from_recipe(rec: dict, given, bundle: GroundStateBundle, threshold: tuple | None):
    """Initial data and the bundle whose Q it was built against; ``given`` is
    what ``_prepare_recipe`` returned.

    A threshold-pair recipe reads its state from ``threshold``, (discrete-background
    bundle, its profile series, the ``wa_at_zero`` states, [special] block): G+-
    as ``special`` builds them, ``series_pair``.  E(G+-) = E(Q) holds for that Q,
    so their E/E(Q) and H/H(Q) are taken against it: the closed-form Q's energy
    differs by 2e-3 at n = 128, r_max = 60.
    """
    if rec["kind"] == "qscale":
        base = apply_symmetry(bundle.q_vec, rec["theta"], rec["lam"])
        return rec["scale"] * base, bundle
    if rec["kind"] in ("file", "chk"):
        return given, bundle
    bundle_d, series, w_zero, spc = threshold
    if rec["kind"] == "wa":
        return transform_T(w_zero[given], inverse=True), bundle_d
    return series_pair(bundle_d, series, given, spc.data_eps, spc.n_snapshots).initial, bundle_d


def _evolve_recipes(cfg: ScenarioConfig, recipes, **evo_overrides) -> list:
    """(initial, bundle, record) per recipe: the states, evolved by one ``run_batch`` call.

    Threshold-pair recipes share one discrete-background pipeline and one
    profile series, built only when one is present; of them, only a ``wa:``
    with |a| > 1 steps a leg.  ``bundle`` is the Q a state was built against;
    its H(Q) is the run's reference_H.
    """
    evo = _evo_config(cfg, **evo_overrides)
    grid = _mkgrid(cfg, n_override=cfg.evolution.n)
    prepared = [_prepare_recipe(text, cfg, grid) for text in recipes]   # before any build
    bundle = build_bundle(grid, cfg.physics.kappa)
    threshold = None
    if any(rec["kind"] in ("gplus", "gminus", "wa") for rec, _ in prepared):
        spc = cfg.special
        bundle_d, spectral = _spectral_pipeline(cfg, grid, background="discrete")
        series = profile_series(bundle_d, spectral)
        w_zero = wa_at_zero(bundle_d, spectral, series,
                            [a for rec, a in prepared if rec["kind"] == "wa"], spc.dt,
                            spc.n_snapshots)
        threshold = bundle_d, series, w_zero, spc
    built = [_initial_from_recipe(rec, given, bundle, threshold) for rec, given in prepared]
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
        if cfg.seed < 0:   # seeds numpy generators, which refuse negative seeds
            raise ConfigError(f"seed = {cfg.seed} must be >= 0")
        outdir = cfg.output_dir
        created = not os.path.isdir(outdir)
        os.makedirs(outdir, exist_ok=True)   # an --out naming a file: OSError
    except (OSError, ValueError) as exc:   # ConfigError, malformed JSON
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        summary = _SCENARIO_FNS[args.scenario](cfg, outdir)
    except ConfigError as exc:   # an input the scenario cannot use (a leg, a checkpoint)
        if created and not os.listdir(outdir):
            os.rmdir(outdir)   # a refused run leaves no --out behind
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
