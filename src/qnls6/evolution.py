"""Time integration of the coupled system with conservation and virial monitors.

Semi-discrete system (original form):

    i u_t = -Delta_h u - conj(u) v,      i v_t = -kappa Delta_h v - u^2,

the transformed form doubles the first coupling (2 conj(u) v).  The default
scheme is Strang splitting: the linear half-steps apply exp(i dt Delta_h) and
exp(i kappa dt Delta_h), and the nonlinear substep advances the pointwise ODE
i u_t = -c1 conj(u) v, i v_t = -u^2 with a classical RK4 stage (the pointwise
invariant c1^{-1}|u|^2 + ... is preserved to O(dt^5) per step).  A
Crank-Nicolson alternative with a fixed-point nonlinear midpoint is provided
for cross-checks.

The linear substep is the diagonal Pade [2/2] approximant of exp(z),
R(z) = prod_j (z + p_j) / (z - p_j), p_j = 3 +- i sqrt(3), at z = i c dt Delta_h.
A factor is 1 + M_j^{-1}, M_j = (z - p_j) / (2 p_j) tridiagonal in the
unsymmetrized Delta_h, so a pole costs one zgttrs solve (zgttrf factors cached
per (grid, c dt, pole)) and one add, with no Pade weight or cell-mass pass.
Delta_h = D^{-1/2} A D^{1/2} with A real symmetric (D the cell masses), so
R(i c dt Delta_h) = D^{-1/2} R(i c dt A) D^{1/2} and |R(iy)| = 1 make the step
unitary in the cell-mass norm in exact arithmetic; the discrete mass is
conserved to the accuracy of the nonlinear substep.  A fused Strang step is
O(n): per component two solves and two adds, and four RK4 evaluations of
(conj(a) b, a^2) at three array passes each.  On e^{-r^2} at n = 2048
(r_max = 200), 400 steps of dt = 1e-3 are 2.75e-10 off the exact exponential
(cell-mass norm) and move the mass by 4.4e-14.  Krylov and Chebyshev
expansions were rejected because ||dt Delta_h|| is 27 at n = 512 and 431 at
n = 2048 (dt = 1e-3), hundreds of products per step; the Cayley transform
(Pade [1/1]) because it is second order: on a 2-unit Strang run (n = 512,
dt = 5e-4) it is 3.8e-2 off the exact-linear run in Hdot1, [2/2] 2.6e-10.  One
Pade step is accurate only for small |c dt| (t = 0.25 in one step is 13 % off),
so ``linear_propagator`` sub-steps by LINEAR_SUBSTEP.

Batches: ``run_batch`` advances B trajectories on one grid, under either
scheme, as the rows of a C-order (B, n) array per component.  The transpose
of that array is the Fortran-order n x B right-hand side of zgttrs, so one
solve per pole and component steps every row, and RK4, the sponge and the
monitors act on all rows at once; the monitor sums run along each contiguous
row with the same pairwise summation as a 1-D sum, so every member's record
is bit-identical to its own run.  ``run`` is a batch of one.  A member that
blows up leaves the batch at that monitor point.  Adaptive members run one
at a time through the same loop, since a step halving shared by the batch
would change a member's result.  Members never exchange data, so a batch
whose members carry enough work (SPLIT_WORK_FLOOR) is cut into
min(B, usable CPUs) contiguous groups (the CPU affinity, capped by a cgroup
CPU quota) that ``side_by_side`` steps at once: the calling process the first
and a forked child each of the others, whose records come back pickled over a
pipe.  ``side_by_side`` is the package's one fork path; the spectrum scenario
runs its dense cross-check through it as well.  One step of two members costs
less than two steps of one (165 against 2 x 100 us at n = 512), so the split
costs some CPU time to save wall time; the records, and so the artifacts, are
the same bit for bit on any number of cores.  Processes, not threads: scipy's
LAPACK wrappers hold the GIL, and a zgttrs loop beside a Python loop on a
second thread took as long as the two one after the other.

Monitored quantities use the solver-consistent discrete functionals
(<-Delta_h u, u> with cell-mass weights), so the reported E/mass drift
measures integrator error rather than the fixed spatial quadrature offset.
Blow-up is flagged when the kinetic functional exceeds a configured multiple
of the reference value or the adaptive step collapses; "scattering" is
proxied by a trailing-window decay of the local L^4 density (stated as a
proxy, never as a proof).  In d = 6 the critical scattering norm is
L^4_{t,x} (2(d+2)/(d-2) = 4), and a scattering solution empties every fixed
ball.  The density is therefore the cell-mass sum of |u|^4 + |v|^4 over the
ball r < L4_BALL_RADIUS = sqrt(24), the length scale of the ground state
Q(r) = (1 + r^2/24)^{-2}: the core that sub-threshold data must leave.  A
whole-box sum keeps counting L^4 that has left the core but not the box, so
it decays long after the core has emptied (for 0.75 Q the whole-box ratio is
0.30 at t_end = 14, the ball's 0.098).  The radius is the one length the
problem supplies, not a tuning knob: the verdict does depend on it (for
0.75 Q at t_end = 14 the decay ratio is 0.015 at r < 2, 0.098 at r < 5 and
0.29 at r < 10), so it is fixed here and is no config option.  The
trailing-window rule: the run counts as decaying when the mean density over
the last quarter of the monitor points is below ``decay_ratio`` (0.2) times
the maximum over the first half.

The variational dichotomy below the threshold energy predicts the outcome
from the initial data alone: E < E(Q) with H < H(Q) scatters, E < E(Q) with
H > H(Q) blows up.  ``dynamical_verdict`` reports the verdict from the
trajectory alone; ``reconcile`` turns a conclusive verdict that contradicts
the prediction into "undecided".
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import signal
import struct
import threading
import traceback
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .grid import FieldPair, GridError, RadialGrid, pair_from_arrays
from .functionals import VirialWeight, virial_monitors
from .groundstate import Q_SCALE2

# Radius of the ball that the L^4 scattering proxy is scored on: the length
# scale sqrt(24) of Q(r) = (1 + r^2/24)^{-2} (see the module docstring).
L4_BALL_RADIUS = math.sqrt(Q_SCALE2)

# Relative band around E(Q) inside which initial data counts as threshold
# data, where the sub-threshold rule predicts nothing: E(G+-) = E(Q) is
# certified to |E(G+-) - E(Q)| / E(Q) <= 1e-3 against the discrete-background
# Q that G+- is built on, so closer data cannot be told from threshold data.
THRESHOLD_E_BAND = 1e-3

# Adaptive stepping: a step whose max-norm grows by more than GROWTH_LIMIT is
# halved; once the step falls below DT_MIN the run ends as a blow-up.
GROWTH_LIMIT = 1.15
DT_MIN = 1e-9
# The sponge ramps in over the outer 1 - SPONGE_START_FRAC of the box.
SPONGE_START_FRAC = 0.8

# Poles of the Pade [2/2] approximant of exp (see the module docstring).
PADE_POLES = (3.0 + 1j * math.sqrt(3.0), 3.0 - 1j * math.sqrt(3.0))
# Longest Pade step linear_propagator takes (see the module docstring).
LINEAR_SUBSTEP = 1e-3
# Bound of the factorization cache: fixed Strang steps on one grid need 8
# entries (dt and dt/2, two components, two poles).  Adaptive halving adds
# step sizes, merged ones among them: a retry at h/2 after a step of h pays
# h/2 + h/4 = 3h/4.  The step only shrinks, so an evicted entry is one for a
# step size the run has left behind.  An entry is O(n) (140 kB at n = 2048).
FACTOR_CACHE_SIZE = 32
# Work of one member group, members x n x fixed steps, above which run_batch
# steps the groups in separate processes (see the module docstring).  B = 2
# on 2 CPUs, medians of 15 calls in one process, one process against two: at
# n = 128 and 10 steps 1.1 -> 7.3 ms; at 1.9e5 (n = 128, 1,500 steps) even
# within noise (107 -> 116 ms, on a rerun 97 -> 86 ms); at 3.8e5 (n = 256,
# 1,500 steps) 143 -> 119 ms and at 7.7e5 (n = 512) 280 -> 198 ms.
SPLIT_WORK_FLOOR = 2.5e5
# The files of a cgroup CPU quota, which caps the CPUs run_batch counts as
# usable: v2 "<quota|max> <period>", else v1 quota (-1 for none) and period.
CGROUP_CPU_FILES = (("/sys/fs/cgroup/cpu.max",),
                    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 5e-4
    t_end: float = 10.0
    scheme: str = "strang-split"       # or "crank-nicolson"
    system: str = "original"           # or "transformed"
    blowup_H_factor: float = 50.0
    monitor_stride: int = 20
    snapshot_stride: int = 0           # in monitor points; 0 disables
    snapshot_times: tuple = ()         # explicit times (override stride)
    adapt: bool = False
    sponge: bool = False
    sponge_strength: float = 5.0
    virial_radii: tuple = ()           # R values (math.inf allowed)

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt = {self.dt} must be positive and finite")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end = {self.t_end} must be finite")
        if not 0 <= self.sponge_strength < math.inf:
            raise ValueError(f"sponge_strength = {self.sponge_strength} must be finite and >= 0")
        if self.snapshot_stride < 0:
            raise ValueError(f"snapshot_stride = {self.snapshot_stride} must be >= 0")
        if self.monitor_stride < 1:
            raise ValueError(f"monitor_stride = {self.monitor_stride} must be >= 1")
        if not self.blowup_H_factor > 1:
            raise ValueError("blowup_H_factor must exceed 1")
        if self.scheme not in ("strang-split", "crank-nicolson"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.system not in ("original", "transformed"):
            raise ValueError(f"unknown system {self.system!r}")


@dataclass
class TrajectoryRecord:
    """Monitor series of one trajectory, one entry per monitor point.

    ``l4_density`` is the local L^4 density: the cell-mass sum of
    |u|^4 + |v|^4 over the ball r < L4_BALL_RADIUS (nodes inside the ball).
    """

    times: np.ndarray
    H: np.ndarray
    P: np.ndarray
    E: np.ndarray
    mass: np.ndarray
    delta: np.ndarray
    l4_density: np.ndarray
    I_R: dict
    F_R: dict
    V_R: dict
    termination: str
    final_state: FieldPair
    final_time: float
    snapshots: list = field(default_factory=list)
    steps: int = 0
    min_dt: float = 0.0
    diagnostic: str = ""

    def drift(self) -> dict:
        e0, m0 = self.E[0], self.mass[0]
        return {
            "energy": float(np.max(np.abs(self.E - e0)) / max(abs(e0), 1e-300)),
            "mass": float(np.max(np.abs(self.mass - m0)) / max(abs(m0), 1e-300)),
        }

    def csv_rows(self):
        for i, t in enumerate(self.times):
            yield (t, self.H[i], self.P[i], self.E[i], self.mass[i], self.delta[i])


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _shifted_factors(grid: RadialGrid, s: float, pole: complex):
    """LU factors (zgttrf) of (i s Delta_h - pole) / (2 pole), Delta_h the grid's
    ``dirichlet_tridiag``; never singular: Delta_h has a real spectrum, Re(pole) > 0."""
    sub, diag, sup = grid.dirichlet_tridiag
    w = 1j * s / (2.0 * pole)
    *factors, info = zgttrf(w * sub, w * diag - 0.5, w * sup)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgttrf: zero pivot {info}")
    return tuple(factors)


def _shifted_solve(grid: RadialGrid, s: float, pole: complex, b: np.ndarray) -> np.ndarray:
    """((i s Delta_h - pole) / (2 pole))^{-1} b, b of shape (n,) or (B, n): one system per row.

    The rows of a C-order (B, n) array are the columns of its Fortran-order
    transpose, so zgttrs takes b.T as its n x B right-hand side uncopied and
    solves each column as it would solve it alone.
    """
    x, _ = zgttrs(*_shifted_factors(grid, s, pole), b.T)
    return x.T


class RadialPropagator:
    """Linear flow and discrete functionals of the radial Laplacian on one grid."""

    def __init__(self, grid: RadialGrid, kappa: float):
        self.grid = grid
        self.kappa = kappa
        self.w_op = grid.op_weights

    # -- linear flow ------------------------------------------------------

    def _pade(self, x: np.ndarray, s: float) -> np.ndarray:
        for p in PADE_POLES:
            x = x + _shifted_solve(self.grid, s, p, x)
        return x

    def apply_linear(self, u: np.ndarray, v: np.ndarray, dt: float):
        """One Pade [2/2] step of (e^{i dt Delta_h} u, e^{i kappa dt Delta_h} v).

        u, v of shape (n,), or (B, n) to step B states with one solve per
        pole and component.
        """
        return self._pade(u, dt), self._pade(v, self.kappa * dt)

    # -- discrete functionals ----------------------------------------------
    # u, v of shape (n,) give a float, of shape (B, n) one value per row; a
    # row's value equals the float of that row alone bit for bit (numpy sums
    # each contiguous row pairwise, as it sums a 1-D array).

    def discrete_H(self, u, v, system: str = "original"):
        cv = self.kappa if system == "transformed" else 0.5 * self.kappa
        lap = self.grid.apply_laplacian
        t1 = -np.real(np.sum(self.w_op * np.conj(u) * lap(u), axis=-1))
        t2 = -np.real(np.sum(self.w_op * np.conj(v) * lap(v), axis=-1))
        return _per_row(t1 + cv * t2)

    def discrete_P(self, u, v):
        return _per_row(np.real(np.sum(self.w_op * u * u * np.conj(v), axis=-1)))

    def discrete_mass(self, u, v):
        return _per_row(np.sum(self.w_op * (np.abs(u) ** 2 + np.abs(v) ** 2), axis=-1))


def _per_row(x):
    """A float for a single state, the array of row values for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def _energy(H, P, system: str):
    """E from the discrete H and P (floats, or arrays of row values)."""
    if system == "transformed":
        return 0.5 * H - P
    return 0.5 * (H - P)


def linear_propagator(u: FieldPair, dt: float, prop: RadialPropagator | None = None) -> FieldPair:
    """Discrete free flow (e^{i dt Delta_h} u, e^{i kappa dt Delta_h} v).

    Takes ceil(|dt| / LINEAR_SUBSTEP) equal Pade steps.
    """
    if prop is None:
        prop = RadialPropagator(u.grid, u.kappa)
    steps = math.ceil(abs(dt) / LINEAR_SUBSTEP)
    un, vn = u.u, u.v
    for _ in range(steps):
        un, vn = prop.apply_linear(un, vn, dt / steps)
    return u.with_values(un, vn)


def _c1(system: str) -> float:
    return 2.0 if system == "transformed" else 1.0


def nonlinear_substep(u: FieldPair, dt: float, system: str = "original") -> FieldPair:
    """RK4 step of the pointwise ODE i u_t = -c1 conj(u) v, i v_t = -u^2."""
    un, vn = _rk4(u.u, u.v, dt, _c1(system))
    return u.with_values(un, vn)


def _rk4(u, v, dt, c1):
    """Classical RK4 with right-hand side (i c1 g_u, i g_v), g = (conj(a) b, a^2):
    each evaluation is three array passes, i c1 and i ride in the stage scalars."""
    def g(a, b):
        return np.conj(a) * b, a * a
    hu, hv = 0.5j * c1 * dt, 0.5j * dt
    g1u, g1v = g(u, v)
    g2u, g2v = g(u + hu * g1u, v + hv * g1v)
    g3u, g3v = g(u + hu * g2u, v + hv * g2v)
    g4u, g4v = g(u + 2 * hu * g3u, v + 2 * hv * g3v)
    return (u + hu / 3 * (g1u + 2 * g2u + 2 * g3u + g4u),
            v + hv / 3 * (g1v + 2 * g2v + 2 * g3v + g4v))


def _sponge_profile(grid: RadialGrid, cfg: EvolutionConfig) -> np.ndarray:
    r = grid.nodes
    r0 = SPONGE_START_FRAC * grid.r_max
    ramp = np.clip((r - r0) / (grid.r_max - r0), 0.0, None)
    return cfg.sponge_strength * ramp ** 2


class _Series:
    """Monitor series and snapshots of one batch member; its record at the end."""

    _KEYS = ("times", "H", "P", "E", "mass", "delta", "l4_density")

    def __init__(self, radii):
        self.cols = {key: [] for key in self._KEYS}
        self.virial = {name: {R: [] for R in radii} for name in ("I_R", "F_R", "V_R")}
        self.snapshots = []
        self.last = None           # (u, v) at the latest monitor point

    def append(self, *values) -> None:
        """One monitor point: the values of _KEYS in order."""
        for key, val in zip(self._KEYS, values):
            self.cols[key].append(val)

    def finish(self, final: FieldPair, termination: str, diagnostic: str,
               steps: int, min_dt: float) -> TrajectoryRecord:
        return TrajectoryRecord(
            **{key: np.array(s) for key, s in self.cols.items()},
            **{name: {R: np.array(s) for R, s in d.items()} for name, d in self.virial.items()},
            termination=termination, final_state=final, final_time=self.cols["times"][-1],
            snapshots=self.snapshots, steps=steps, min_dt=min_dt, diagnostic=diagnostic)


def run(u0: FieldPair, cfg: EvolutionConfig, reference_H: float | None = None,
        t0: float = 0.0) -> TrajectoryRecord:
    """Integrate from t0 to cfg.t_end (backward if t_end < t0); record monitors."""
    return run_batch([u0], cfg, reference_H, t0)[0]


def fixed_point_images(T: FieldPair, h: float, system: str):
    """(Y*, N_h L_h Y*, L_{h/2} Y*) of the fused Strang maps of step h, as (1, n) row pairs.

    Y* = N_h L_{h/2} T is T carried with h/2 owed; the defect of a carried
    step at T is N_h L_h Y* - Y*, that of a payment L_{h/2} Y* - T, which is
    S_h T - T for the full Strang step S_h.
    """
    prop = RadialPropagator(T.grid, T.kappa)
    c1 = _c1(system)
    y = _rk4(*prop.apply_linear(T.u[None], T.v[None], h / 2), h, c1)
    return y, _rk4(*prop.apply_linear(*y, h), h, c1), prop.apply_linear(*y, h / 2)


def _snapshot_due(t: float, requested: float, sgn: float, reach: float) -> bool:
    """Whether a monitor point at t takes the snapshot requested at ``requested``:
    the run, in direction sgn, has come within ``reach`` of it or passed it."""
    return (t - requested) * sgn >= -reach


def snapshot_step(t0: float, dt: float, stride: int, requested: float) -> int:
    """Steps from t0 to the monitor point at which a fixed-step ``run_batch``
    (signed step dt, ``monitor_stride`` stride) takes the snapshot requested
    at ``requested``, counting from the first point after t0 and assuming the
    run has not ended before it.  A run from t0 to t0 + k dt with this k
    steps exactly as the longer run does up to that point."""
    sgn = math.copysign(1.0, dt)
    k = stride
    while not _snapshot_due(t0 + k * dt, requested, sgn, 0.25 * abs(dt)):
        k += stride
    return k


def run_batch(u0s, cfg: EvolutionConfig, reference_H: float | list | None = None,
              t0: float = 0.0, fixed_point: FieldPair | None = None) -> list[TrajectoryRecord]:
    """``run`` for each state of u0s (one grid and kappa): one record each.

    ``reference_H`` is None, one value, or one value (or None) per member.
    One loop, for either scheme, advances the members as the rows of one
    (B, n) state, and each record equals the member's own ``run`` bit for
    bit; a member that blows up or turns non-finite leaves the batch at that
    monitor point (termination "blowup" or "instability").  Adaptive members
    run one at a time (B = 1), since a step halving shared by the batch
    would change a member's result.  The members are validated here, then
    stepped in min(B, usable CPUs) processes when each group's work is above
    SPLIT_WORK_FLOOR (``_member_groups``); the records are the same either
    way, and an exception raised in a child is raised here.

    ``fixed_point`` T balances the fixed-step Strang maps (Bermudez-Vazquez
    well-balancing): every carried step and every payment subtracts its
    defect at T (``fixed_point_images``), so that T is stepped to T bit for
    bit and a state near T moves only by its own deviation from it.  The
    defects are computed once, for the signed step; a halved step,
    Crank-Nicolson or the sponge would need others, so those are refused.
    """
    u0s = list(u0s)
    if not u0s:
        raise ValueError("empty batch")
    refs = reference_H if np.ndim(reference_H) else [reference_H] * len(u0s)
    if len(refs) != len(u0s):
        raise ValueError(f"{len(refs)} reference_H values for {len(u0s)} members")
    grid, kappa = u0s[0].grid, u0s[0].kappa
    if any(p.grid != grid or p.kappa != kappa for p in u0s):
        raise ValueError("batch members must share one grid and kappa")
    duration = cfg.t_end - t0
    if duration == 0:
        raise ValueError("empty integration interval")
    if fixed_point is not None:
        if cfg.adapt or cfg.scheme != "strang-split" or cfg.sponge:
            raise ValueError("fixed_point balances fixed Strang steps only "
                             "(no adapt, Crank-Nicolson or sponge)")
        if fixed_point.grid != grid or fixed_point.kappa != kappa:
            raise ValueError("fixed_point must share the batch's grid and kappa")

    def step(group):
        return _step_members([u0s[i] for i in group], [refs[i] for i in group],
                             cfg, t0, fixed_point)

    groups = _member_groups(len(u0s), grid.n * round(abs(duration) / cfg.dt))
    return [rec for records in side_by_side([partial(step, group) for group in groups])
            for rec in records]


def _usable_cpus() -> int:
    """The CPUs this process may run on (1 where the platform cannot tell),
    capped by the cgroup's CPU quota, rounded down, when it has one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    quota = _cpu_quota()
    return cpus if quota is None else max(1, min(cpus, math.floor(quota)))


def _cpu_quota() -> float | None:
    """The cgroup's CPU quota in CPUs, quota / period, read from the first of
    CGROUP_CPU_FILES that can be read; None for no quota ("max" in cgroup v2,
    -1 in v1) or when none can be read."""
    for paths in CGROUP_CPU_FILES:
        try:
            quota, period = (word for path in paths for word in Path(path).read_text().split())
            if quota == "max":
                return None
            quota, period = int(quota), int(period)
        except (OSError, ValueError):
            continue
        return quota / period if quota > 0 and period > 0 else None
    return None


def _member_groups(count: int, work: float) -> list:
    """The member indices of ``run_batch``'s processes, one contiguous group each.

    min(count, ``_fork_slots()``) groups when each carries more than
    SPLIT_WORK_FLOOR of work (``work`` per member); else one group.
    """
    parts = min(count, _fork_slots())
    if parts < 2 or (count // parts) * work <= SPLIT_WORK_FLOOR:
        return [range(count)]
    return [range(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


def _fork_slots() -> int:
    """The processes ``side_by_side`` may run at once: the usable CPUs, or 1
    when this process cannot fork safely (no os.fork, or another thread alive)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _usable_cpus()


def side_by_side(calls: list) -> list:
    """[call() for call in calls]: calls[0] in this process and each other call
    in a forked child at the same time, or all here in order when
    ``_fork_slots()`` is below 2.  Callers pass at most ``_fork_slots()`` calls.

    The objects made before the forks are kept out of the garbage collector
    (gc.freeze) until the children are reaped, so that a collection here does
    not write to the pages this process shares with them and copy them: on
    spectrum-n1024 (2 CPUs) that took the median wall time from 0.140 to
    0.123 s and CPU time from 0.74 to 0.68 s (6 alternating pairs).

    A child pickles its result, or the exception that stopped it, to a pipe
    and leaves through os._exit; the parent reads each pipe to EOF before it
    reaps that child (a leg's records outgrow a pipe buffer), re-raises a
    child's exception with its type and message, turns a child that died
    without sending anything into a RuntimeError, and kills and reaps every
    child left when anything fails, so none outlives the call.
    """
    if len(calls) < 2 or _fork_slots() < 2:
        return [call() for call in calls]
    children = []                       # (pid, read end of its pipe), in call order
    gc.freeze()
    try:
        for call in calls[1:]:
            r, w = os.pipe()
            with os.fdopen(w, "wb") as writer:
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    raise
                if pid == 0:
                    _child(writer, call)
            children.append((pid, os.fdopen(r, "rb")))
        results = [calls[0]()]
        while children:
            pid, fh = children[0]
            data = fh.read()
            fh.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0:
                raise RuntimeError(f"forked process {pid} failed (exit status {status})")
            ok, payload, trace = pickle.loads(data)
            if not ok:
                raise payload from RuntimeError(f"in forked process {pid}:\n{trace}")
            results.append(payload)
        return results
    finally:
        gc.unfreeze()
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(writer, call) -> None:
    """Body of a forked process: call(), pickled to ``writer`` as
    (True, result, "") or (False, exception, traceback); never returns."""
    status = 1
    try:
        try:
            payload = (True, call(), "")
        except BaseException as exc:      # sent to the parent, which re-raises it
            payload = (False, exc, traceback.format_exc())
        pickle.dump(payload, writer, pickle.HIGHEST_PROTOCOL)
        writer.flush()
        status = 0
    finally:
        os._exit(status)


def _step_members(u0s, refs, cfg: EvolutionConfig, t0: float,
                  fixed_point: FieldPair | None) -> list[TrajectoryRecord]:
    """The stepping loop of ``run_batch`` over validated members, in this process."""
    if cfg.adapt and len(u0s) > 1:
        return [run(u0, cfg, ref, t0) for u0, ref in zip(u0s, refs)]
    grid, kappa = u0s[0].grid, u0s[0].kappa
    duration = cfg.t_end - t0
    prop = RadialPropagator(grid, kappa)
    sgn = 1.0 if duration > 0 else -1.0
    dt = sgn * cfg.dt
    c1 = _c1(cfg.system)
    if fixed_point is not None:
        carried, stepped, paid = fixed_point_images(fixed_point, dt, cfg.system)
    cn = _make_cn_stepper(prop, c1) if cfg.scheme == "crank-nicolson" else None
    sponge = _sponge_profile(grid, cfg) if cfg.sponge else None
    damping = lru_cache(maxsize=1)(lambda h: np.exp(-sponge * abs(h)))

    m_l4 = int(np.searchsorted(grid.nodes, L4_BALL_RADIUS))
    w_l4 = prop.w_op[:m_l4]
    weights = {R: VirialWeight.build(grid, R) for R in cfg.virial_radii}

    series = [_Series(weights) for _ in u0s]
    records = [None] * len(u0s)
    snap_due = sorted(cfg.snapshot_times, reverse=(sgn < 0))
    snap_idx = 0
    n_points = 0

    def record(t, U, V, final=False):
        """Monitors of the running members (the rows of U, V) at t; their H.

        A snapshot is taken at the first monitor point within dt/4 of its
        requested time, or at the final point when within dt/2 of it: the
        round(|t_end - t0| / dt) fixed steps can end up to dt/2 short of
        t_end.
        """
        nonlocal snap_idx, n_points
        H = prop.discrete_H(U, V, cfg.system)
        P = prop.discrete_P(U, V)
        E = _energy(H, P, cfg.system)
        mass = prop.discrete_mass(U, V)
        l4 = np.sum(w_l4 * (np.abs(U[:, :m_l4]) ** 4 + np.abs(V[:, :m_l4]) ** 4), axis=-1)
        want_snap = bool(cfg.snapshot_stride) and n_points % cfg.snapshot_stride == 0
        reach = (0.5 if final else 0.25) * cfg.dt
        while snap_idx < len(snap_due) and _snapshot_due(t, snap_due[snap_idx], sgn, reach):
            want_snap = True
            snap_idx += 1
        n_points += 1
        virial = virial_monitors(grid, kappa, U, V, weights.values()) if weights else {}
        for j, b in enumerate(rows):
            s = series[b]
            # views of U, V: the loop rebinds the state after a monitor point
            # and never writes into a recorded array
            s.last = (U[j], V[j])
            h = float(H[j])
            s.append(t, h, float(P[j]), float(E[j]), float(mass[j]),
                     abs(h - refs[b]) if refs[b] is not None else math.nan,
                     float(l4[j]))
            for R, values in virial.items():
                for name, x in zip(("I_R", "F_R", "V_R"), values):
                    s.virial[name][R].append(float(x[j]))
            if want_snap:
                s.snapshots.append((t, pair_from_arrays(grid, U[j], V[j], kappa)))
        return H

    def end(mask, termination, diagnostic, steps, min_dt):
        """Close the records of the running members in mask; drop them from the batch.

        A non-finite member ("instability") keeps as its final state the one
        at its latest monitor point, the time its record ends at.
        """
        nonlocal U, V, rows, H_ref
        for j in np.flatnonzero(mask):
            s = series[rows[j]]
            u, v = s.last if termination == "instability" else (U[j], V[j])
            records[rows[j]] = s.finish(pair_from_arrays(grid, u, v, kappa), termination,
                                        diagnostic, steps, min_dt)
        if np.any(mask):
            keep = ~mask
            U, V, rows, H_ref = U[keep], V[keep], rows[keep], H_ref[keep]

    # members are the C-order rows of U and V; rows[j] is row j's member
    U = np.array([p.u for p in u0s])
    V = np.array([p.v for p in u0s])
    rows = np.arange(len(u0s))
    H0 = record(t0, U, V)
    H_ref = np.array([abs(h) if ref is None else float(ref) for h, ref in zip(H0, refs)])
    blowup = f"H exceeded {cfg.blowup_H_factor} x reference"

    # One loop for both schemes and both step rules.  The state carried from
    # step to step is the one after the nonlinear substep and the sponge, and
    # ``owed`` is the linear step it still lacks: a Strang step of size h
    # applies L(owed + h/2), N(h) and the sponge and then owes h/2, and a
    # monitor point pays what is owed.  Fixed steps thus run L(dt/2)
    # [N L(dt)]^* N L(dt/2), re-split at each monitor point.  Crank-Nicolson
    # owes nothing.  An adaptive step whose max-norm grows by more than
    # GROWTH_LIMIT is retried from the carried state at h/2, owing the same;
    # the last adaptive step is cut to end at t_end.
    # With a fixed point T the maps are balanced (T -> Y* -> Y* -> T): the
    # step after a payment owes nothing and maps T to Y* unchanged, and a
    # carried step or a payment subtracts its defect at T.  x - (s - y) is
    # written (x - s) + y, which is y bit for bit when x = s.
    def pay(U, V, owed):
        U, V = prop.apply_linear(U, V, owed)
        if fixed_point is not None:
            U -= paid[0]; U += fixed_point.u
            V -= paid[1]; V += fixed_point.v
        return U, V

    nsteps = max(1, int(round(abs(duration) / cfg.dt)))     # fixed steps
    h, t, k, owed, min_dt = dt, t0, 0, 0.0, abs(dt)
    # np.maximum, unlike max, returns NaN when either component holds one
    peak = np.maximum(np.max(np.abs(U)), np.max(np.abs(V)))
    outcome = ("completed", "")
    while rows.size:
        if cfg.adapt and abs(cfg.t_end - t) < abs(h):
            h = cfg.t_end - t
        # a member that overflows ends as "instability" at its next monitor point
        with np.errstate(over="ignore", invalid="ignore"):
            if cn is None:
                Un, Vn = _rk4(*prop.apply_linear(U, V, owed + h / 2), h, c1)
                if fixed_point is not None and owed:
                    Un -= stepped[0]; Un += carried[0]
                    Vn -= stepped[1]; Vn += carried[1]
            else:
                Un, Vn = cn(U, V, h)
        if sponge is not None:
            damp = damping(h)
            Un *= damp; Vn *= damp
        if cfg.adapt:
            peak_n = np.maximum(np.max(np.abs(Un)), np.max(np.abs(Vn)))
            if not np.isfinite(peak_n) or peak_n > GROWTH_LIMIT * peak:
                h = 0.5 * h
                min_dt = min(min_dt, abs(h))
                if abs(h) < DT_MIN:
                    outcome = ("blowup", "step collapse")
                    break
                continue
            peak = peak_n
        U, V, owed = Un, Vn, (h / 2 if cn is None else 0.0)
        k += 1
        t = t + h if cfg.adapt else t0 + k * dt
        last = (cfg.t_end - t) * sgn <= 0.25 * cfg.dt if cfg.adapt else k == nsteps
        if k % cfg.monitor_stride and not last:
            continue
        if owed:
            U, V = pay(U, V, owed)
            owed = 0.0
        finite = np.all(np.isfinite(U), axis=1) & np.all(np.isfinite(V), axis=1)
        end(~finite, "instability", "non-finite state", k, min_dt)
        if rows.size:
            H = record(t, U, V, last)
            end(H > cfg.blowup_H_factor * H_ref, "blowup", blowup, k, min_dt)
        if last:
            break
    if owed:
        U, V = pay(U, V, owed)
    end(np.ones(rows.size, bool), *outcome, k, min_dt)
    return records


def _make_cn_stepper(prop: RadialPropagator, c1: float):
    """Crank-Nicolson with fixed-point nonlinear midpoint.

    (1 - i s Delta_h / 2) x = b is M x = -b / 2 with M = (i s Delta_h - 2) / 4,
    the cached factors of pole 2 (the Cayley transform (2 + z) / (2 - z)).
    """
    grid = prop.grid

    def solve(s, b):
        return _shifted_solve(grid, s, 2.0, -0.5 * b)

    def stepper(u, v, dt):
        rhs_u0 = u + 0.5j * dt * grid.apply_laplacian(u)
        rhs_v0 = v + 0.5j * dt * prop.kappa * grid.apply_laplacian(v)
        un, vn = u, v
        for _ in range(3):
            um = 0.5 * (u + un)
            vm = 0.5 * (v + vn)
            fu = 1j * c1 * np.conj(um) * vm
            fv = 1j * um * um
            un = solve(dt, rhs_u0 + dt * fu)
            vn = solve(prop.kappa * dt, rhs_v0 + dt * fv)
        return un, vn

    return stepper


def check_virial_identity(record: TrajectoryRecord, R) -> float:
    """max_t |d/dt I_R - F_R| / max_t |F_R| (centered differences; NaN under 5 points)."""
    if R not in record.I_R:
        raise KeyError(f"record has no virial series at R={R}")
    return _rate_defect(record.times, record.I_R[R], record.F_R[R])


def vr_identity_defect(record: TrajectoryRecord, R) -> float:
    """max_t |d/dt V_R - I_R| / max_t |I_R| (mass-resonance diagnostic)."""
    return _rate_defect(record.times, record.V_R[R], record.I_R[R])


def _rate_defect(t, X, Y) -> float:
    """max_t |dX/dt - Y| / max_t |Y| by centered differences; NaN for a record
    of fewer than 5 monitor points, too short for the check."""
    if len(t) < 5:
        return math.nan
    dXdt = (X[2:] - X[:-2]) / (t[2:] - t[:-2])
    return float(np.max(np.abs(dXdt - Y[1:-1])) / max(np.max(np.abs(Y)), 1e-300))


def l4_decay_ratio(record: TrajectoryRecord) -> float:
    """Trailing-quarter mean of the local L^4 density over its first-half max.

    NaN when the density vanishes over the first half.
    """
    l4 = record.l4_density
    nt = len(l4)
    early = float(np.max(l4[: max(2, nt // 2)]))
    late = float(np.mean(l4[-max(2, nt // 4):]))
    return late / early if early > 0 else math.nan


def variational_prediction(e_ratio: float, h_ratio: float) -> str | None:
    """Sub-threshold prediction from E(u0)/E(Q) and H(u0)/H(Q).

    E < E(Q) with H < H(Q) predicts "scattering", E < E(Q) with H > H(Q)
    predicts "blowup".  None within THRESHOLD_E_BAND of E(Q) or above it,
    where the rule says nothing.
    """
    if not e_ratio < 1.0 - THRESHOLD_E_BAND:
        return None
    return "scattering" if h_ratio < 1.0 else "blowup"


_PREDICTED_VERDICT = {"scattering": "global-decaying", "blowup": "blowup"}


def dynamical_verdict(record: TrajectoryRecord, delta0: float | None = None,
                      decay_ratio: float = 0.2) -> tuple[str, str]:
    """Verdict from the trajectory alone, with the reason for it.

    blowup on a blow-up termination; undecided on instability; trapped when
    delta stays below delta0 over the second half; global-decaying when
    l4_decay_ratio is below decay_ratio; else undecided.
    """
    if record.termination == "blowup":
        return "blowup", record.diagnostic or "blowup termination"
    if record.termination == "instability":
        return "undecided", f"instability: {record.diagnostic}"
    nt = len(record.times)
    if delta0 is not None and np.all(np.isfinite(record.delta)):
        if np.max(record.delta[nt // 2:]) < delta0:
            return "trapped", f"delta below {delta0:.6g} over the second half"
    ratio = l4_decay_ratio(record)
    if ratio < decay_ratio:
        return "global-decaying", f"local L4 ratio {ratio:.3g} < {decay_ratio:g}"
    return "undecided", f"local L4 ratio {ratio:.3g} not below {decay_ratio:g}"


def reconcile(verdict: str, reason: str, prediction: str | None) -> tuple[str, str]:
    """Undecided, with the reason, when a conclusive verdict contradicts the prediction."""
    if prediction is None or verdict == "undecided" or verdict == _PREDICTED_VERDICT[prediction]:
        return verdict, reason
    return "undecided", (f"variational prediction {prediction} disagrees with "
                         f"dynamical verdict {verdict} ({reason})")


# ---------------------------------------------------------------------------
# checkpoint format: header (magic "QNLS6CK" + version byte, then the grid's
# identity n:u64, r_max:f64, mapping:16 ASCII bytes, stretch:f64, then
# kappa:f64, t:f64), then per component n little-endian (re, im) float64
# pairs, u block first.

_MAGIC = b"QNLS6CK\x01"
_HEADER = struct.Struct("<8sQd16sddd")


def write_checkpoint(path: str, pair: FieldPair, t: float) -> None:
    g = pair.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, g.n, g.r_max, g.mapping.encode("ascii"),
                              g.stretch, pair.kappa, t))
        for comp in (pair.u, pair.v):
            buf = np.empty(2 * g.n)
            buf[0::2] = comp.real
            buf[1::2] = comp.imag
            fh.write(buf.astype("<f8").tobytes())


def read_checkpoint(path: str, grid: RadialGrid) -> tuple[FieldPair, float]:
    """(pair, t) of a checkpoint; GridError if it is truncated, no checkpoint or of another grid."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise GridError(f"checkpoint {path} is truncated")
    magic, n, r_max, mapping, stretch, kappa, t = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise GridError(f"{path} is not a qnls6 checkpoint of format version {_MAGIC[-1]}")
    if len(data) < _HEADER.size + 32 * n:
        raise GridError(f"checkpoint {path} is truncated")
    saved = RadialGrid(n=n, r_max=r_max, mapping=mapping.rstrip(b"\0").decode("ascii"),
                       stretch=stretch)
    if saved != grid:
        raise GridError(f"checkpoint grid {saved} does not match {grid}")
    buf = np.frombuffer(data, dtype="<f8", count=4 * n, offset=_HEADER.size).reshape(2, n, 2)
    return pair_from_arrays(grid, *(buf[..., 0] + 1j * buf[..., 1]), kappa), t
