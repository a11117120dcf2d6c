"""The four benchmark workloads: scenario configs, seeded inputs and checks.

Each workload is one ``qnls6`` CLI scenario at a fixed configuration.  The
configurations are shortened from the scenario defaults so that one run of
the benchmark holds at least two fresh-process samples; every shortened
config still passes its checks at the acceptance-suite thresholds:

* ``threshold-pair`` runs ``special`` at n=512 with dt=4e-3 and
  data_eps=4e-2 (defaults: dt=1e-3, data_eps=1e-2).  The legs are ~6.9k
  fused Strang steps each instead of ~39k; the envelope margins stay below
  0.03 and the E gap near 5e-5.
* ``virial-n2048`` runs ``evolve`` at n=2048 to t_end=0.2 (400 steps) so the
  linear substep still outweighs the 2048-point ground-state refinement.
* ``spectrum-n1024`` runs ``spectrum`` at its defaults.
* ``blowup-modulate`` runs ``modulate`` at n=512 with dt=2e-3 (issue timing:
  dt=1e-3); it still blows up, after ~10k adaptive steps, and about a
  quarter of its 103 snapshot decompositions converge.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    why: str
    config: str                     # key=value text; {profile} is substituted
    checks: Callable[[dict], list]  # summary -> [(name, passed, value checked)]
    accuracy: Callable[[dict], dict]  # summary -> figures reported beside the timings
    smoke_config: str               # tiny grid: warm-up and harness self-test
    make_profile: bool = False      # generate the seeded file: input

    @property
    def summary_file(self) -> str:
        return f"{self.scenario}.summary.json"


def _num(summary, key):
    """Summary value as a float; NaN when missing, or written as a string
    (the CLI writes non-finite floats as quoted strings)."""
    if summary is None:
        return math.nan
    val = summary.get(key, math.nan)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return math.nan
    return float(val)


def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


# -- threshold-pair -----------------------------------------------------------

def _checks_threshold_pair(s):
    lam = _num(s, "lambda1")
    out = []
    for a in ("+1", "-1"):
        m = _num(s, f"a{a}_env_margin_k_half")
        out.append((f"a{a} envelope margin < 1", m < 1.0, m))
        rate = _num(s, f"a{a}_delta_rate")
        out.append((f"a{a} delta-rate within 15% of lambda1", _within(rate, lam, 0.15), rate))
        target = _num(s, f"a{a}_epsk_target")
        for norm in ("l2", "h1"):
            slope = _num(s, f"a{a}_epsk_slope_{norm}")
            out.append((f"a{a} eps_k {norm} slope within 10% of -(k+1)lambda1",
                        _within(slope, target, 0.10), slope))
    h_minus, h_q, h_plus = (_num(s, k) for k in ("gminus_H", "gplus_H_Q", "gplus_H"))
    out.append(("H(G-) < H(Q) < H(G+)", h_minus < h_q < h_plus, h_plus - h_minus))
    gap = _accuracy_threshold_pair(s)["E_gap_rel"]
    out.append(("E_gap_rel <= 1e-3", gap <= 1e-3, gap))
    return out


def _accuracy_threshold_pair(s):
    gaps = (_num(s, "gplus_E_rel_gap"), _num(s, "gminus_E_rel_gap"))
    return {"E_gap_rel": math.nan if any(map(math.isnan, gaps)) else max(gaps)}


# -- virial-n2048 -------------------------------------------------------------

def _run0(s):
    runs = (s or {}).get("runs") or [{}]
    return runs[0]


def _checks_virial(s):
    r = _run0(s)
    out = [("termination completed", r.get("termination") == "completed",
            r.get("termination"))]
    for key in ("energy_drift", "mass_drift"):
        v = _num(r, key)
        out.append((f"{key} <= 1e-6", v <= 1e-6, v))
    for tag in ("5", "inf"):
        v = _num(r, f"virial_identity_dev_R{tag}")
        out.append((f"virial deviation R={tag} <= 1e-3", v <= 1e-3, v))
    return out


def _accuracy_virial(s):
    return {"energy_drift": _num(_run0(s), "energy_drift")}


# -- spectrum-n1024 -----------------------------------------------------------

_COERCIVITY = ("phi_G", "phi_e_Gtilde", "L_I", "E_I")


def _checks_spectrum(s):
    out = []
    for key, bound in (("residual", 1e-6), ("refine_rel_diff", 1e-3),
                       ("dense_rel_diff", 1e-2)):
        v = _num(s, key)
        out.append((f"{key} <= {bound:g}", v <= bound, v))
    n_real = _num(s, "dense_n_real")
    out.append(("dense_n_real == 2", n_real == 2, n_real))
    for which in _COERCIVITY:
        v = _num(s, f"coercivity_{which}_min")
        out.append((f"coercivity {which} min > 0", v > 0, v))
    return out


def _accuracy_spectrum(s):
    return {"eig_residual": _num(s, "residual")}


# -- blowup-modulate ----------------------------------------------------------

def _checks_modulate(s):
    s_ = s or {}
    frac = _num(s, "converged_fraction")
    bound = _num(s_.get("rate_bound") or {}, "max_ratio")
    return [
        ("termination blowup", s_.get("termination") == "blowup", s_.get("termination")),
        ("converged_fraction > 0", frac > 0, frac),
        ("rate bound finite", math.isfinite(bound), bound),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="threshold-pair",
        scenario="special",
        why="headline G+- pipeline: three n=512 shooting legs on the dense-cache "
            "linear path plus profile recursion and G+- construction",
        config="""\
scenario = special
[physics]
kappa = 0.5
[special]
n = 512
dt = 0.004
data_eps = 0.04
""",
        checks=_checks_threshold_pair,
        accuracy=_accuracy_threshold_pair,
        smoke_config="""\
scenario = special
[physics]
kappa = 0.5
[special]
n = 128
order = 2
dt = 0.01
data_eps = 0.05
n_snapshots = 24
""",
    ),
    Workload(
        name="virial-n2048",
        scenario="evolve",
        why="one seeded Gaussian-sum trajectory at n=2048, above the dense-cache cap, "
            "with R=5 and R=inf virial monitors every 10 steps",
        config="""\
scenario = evolve
[physics]
kappa = 0.5
[evolution]
n = 2048
dt = 0.0005
t_end = 0.2
monitor_stride = 10
virial_radii = 5, inf
[sweep]
recipe = file:{profile}
""",
        checks=_checks_virial,
        accuracy=_accuracy_virial,
        smoke_config="""\
scenario = evolve
[physics]
kappa = 0.5
[evolution]
n = 256
dt = 0.002
t_end = 0.02
monitor_stride = 1
virial_radii = 5, inf
[sweep]
recipe = file:{profile}
""",
        make_profile=True,
    ),
    Workload(
        name="spectrum-n1024",
        scenario="spectrum",
        why="no time stepping: refine_discrete, eigenpair_e, a 2048 refinement, "
            "a dense 256 cross-check and seeded coercivity sampling",
        config="""\
scenario = spectrum
[physics]
kappa = 0.5
""",
        checks=_checks_spectrum,
        accuracy=_accuracy_spectrum,
        smoke_config="""\
scenario = spectrum
[physics]
kappa = 0.5
[spectrum]
n = 128
cross_check_n = 96
coercivity_trials = 5
""",
    ),
    Workload(
        name="blowup-modulate",
        scenario="modulate",
        why="adaptive unfused stepping with step halving to blow-up, then "
            "modulation Newton solves with gate refusals",
        config="""\
scenario = modulate
[physics]
kappa = 0.5
[evolution]
n = 512
dt = 0.002
t_end = 40
adapt = true
snapshot_stride = 5
[sweep]
recipe = qscale:1.03
""",
        checks=_checks_modulate,
        accuracy=lambda s: {},
        smoke_config="""\
scenario = modulate
[grid]
n = 160
r_max = 80
stretch = 9
[physics]
kappa = 0.5
[evolution]
dt = 0.002
t_end = 0.4
adapt = true
snapshot_stride = 2
[sweep]
recipe = qscale:1.01
""",
    ),
)}


# -- seeded input for virial-n2048 ---------------------------------------------

PROFILE_GRID = {"n": 2048, "r_max": 200.0, "stretch": 29.0}


def gaussian_sum_coefficients(seed: int) -> dict:
    """Two Gaussians per component around the criterion-12 data
    u = 0.8 exp(-r^2), v = 0.5 e^{0.4i} exp(-r^2/2), drawn from the seed."""
    rng = random.Random(seed)
    return {
        "u": [(0.8 * rng.uniform(0.7, 1.0), rng.uniform(0.8, 1.2)),
              (0.2 * rng.uniform(0.0, 1.0), rng.uniform(0.4, 0.7))],
        "v": [(0.5 * rng.uniform(0.7, 1.0), rng.uniform(0.8, 1.2)),
              (0.15 * rng.uniform(0.0, 1.0), rng.uniform(0.4, 0.7))],
        "phase": rng.uniform(0.0, 2.0 * math.pi),
    }


def write_profile(path: Path, seed: int, nodes) -> None:
    """Write the seeded profile as the CLI's r,re_u,im_u,re_v,im_v CSV."""
    c = gaussian_sum_coefficients(seed)
    cph, sph = math.cos(c["phase"]), math.sin(c["phase"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# gaussian-sum profile, seed {seed}\n")
        fh.write("r,re_u,im_u,re_v,im_v\n")
        for r in nodes:
            r = float(r)
            u = sum(a * math.exp(-b * r * r) for a, b in c["u"])
            v = sum(a * math.exp(-b * r * r / 2.0) for a, b in c["v"])
            fh.write(f"{r:.17g},{u:.17g},0,{v * cph:.17g},{v * sph:.17g}\n")


# -- predictions ----------------------------------------------------------------
# Which end-to-end metric each layer's metrics should move, where the layer
# does most of its work, and where it should do almost none.  A change that
# claims a gain on one layer is judged against this table.

PREDICTIONS = [
    ("evolution.linear", ("wall_s", "cpu_s"),
     ("virial-n2048", "threshold-pair"), ("spectrum-n1024",)),
    ("evolution.nonlinear", ("wall_s",), ("threshold-pair",), ("spectrum-n1024",)),
    ("evolution.monitor", ("wall_s",), ("threshold-pair",), ("spectrum-n1024",)),
    ("evolution.run", ("wall_s",), ("blowup-modulate",), ()),
    ("evolution.propagator", ("peak_rss_mb", "wall_s"),
     ("blowup-modulate", "virial-n2048"), ("spectrum-n1024",)),
    ("functionals", ("wall_s",), ("virial-n2048", "blowup-modulate"), ("spectrum-n1024",)),
    ("special", ("wall_s", "cpu_s"), ("threshold-pair",),
     ("virial-n2048", "spectrum-n1024", "blowup-modulate")),
    ("groundstate.refine", ("wall_s",), ("spectrum-n1024",), ()),
    ("groundstate.apply_symmetry", ("wall_s",), ("blowup-modulate", "virial-n2048"), ()),
    ("linops", ("wall_s",), ("spectrum-n1024", "threshold-pair"), ("virial-n2048",)),
    ("spectrum", ("wall_s", "cpu_s", "peak_rss_mb"), ("spectrum-n1024",), ("virial-n2048",)),
    ("grid.h1dot", ("wall_s",), ("spectrum-n1024", "blowup-modulate"), ("virial-n2048",)),
    ("modulation", ("wall_s",), ("blowup-modulate",),
     ("threshold-pair", "virial-n2048", "spectrum-n1024")),
    ("cli", ("setup_s", "wall_s"), (), ()),
]
