"""Special solutions converging to the ground state; threshold pair construction.

Approximate solutions of the transformed system near T(bQ) take the form

    U_k^a(t) = sum_{j=1}^k e^{-j lambda1 t} g_j,        g_1 = a e_+,

where each profile solves the shifted linear system

    (script_E - j lambda1) g_j = i * sum_{m+l=j} B_N(g_m, g_l)

with B_N the symmetric polarization of the quadratic remainder N.  The
residual eps_k = d/dt U_k + script_E U_k - i N(U_k) then consists solely of
the orders k+1 .. 2k, so log ||eps_k|| decays with slope -(k+1) lambda1.

For a quadratic nonlinearity the recursion is exact, and the series
converges: on the grids used here ||g_{j+1}|| / ||g_j|| settles near 0.14, so
at x = |a| e^{-lambda1 t} <= 1 the terms fall like 0.14^j (Duyckaerts & Merle,
GAFA 18 (2009) 1787, for U_k and the uniqueness of W^a; Cabre, Fontich &
de la Llave, Indiana Univ. Math. J. 52 (2003), for the parameterization).
``profile_series`` solves it once, for a = 1, to the order K at which the
last term at x = 1 is below roundoff of U; the profile set of any a is
a^j g_j (``ApproxSolution.scaled``), which for a = -1 is ``approx_profiles``
at -1 bit for bit, since negation is exact.  The series omits the constant
defect of the sampled T(bQ), as the balanced step map below does, so
T(bQ) + U^a is W^a of the balanced semi-discrete flow, and the threshold pair
is read from it (``series_pair``), as is W^a(0) for |a| <= 1 (``wa_at_zero``).

Shooting legs check the series: initial data W_k^a(t_far) = T(bQ) +
U_k^a(t_far) at a time where the perturbation has size ``data_eps``,
integrated backward.  The sampled ground state is stationary only up to the
truncation obstruction, and the Strang step adds a defect of its own, which
would grow along e_+ over a leg; the legs step the map balanced at T(bQ)
(``run_batch``'s ``fixed_point``), which keeps T(bQ) fixed exactly, and the
deviations are measured from T(bQ) itself.  A leg can stop at the monitor
point of its last snapshot with x <= ``x_stop``, where its fits end.  What
separates a leg from the series is its time-step error.  Past x = 1 the
series is not summed: W^a with |a| > 1 is shot from x = 1, where it is the
series of sign(a), at t1 = ln|a| / lambda1.

The threshold pair comes out by undoing the componentwise rescaling:
G+- = T^{-1}(W^{+-1}(. + t0)) with t0 chosen so the sign of
H_N(W(t0)) - H_N(T(bQ)) matches the sign of a (the leading deviation is
2 a e^{-lambda1 t} (Re e_+, T(bQ))_{H_N}, positive pairing by convention).
``construct_g`` applies that rule to any sampling of W^a: the series at a
leg's requested times (``series_pair``), or the leg's own snapshots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import FieldPair, h1dot_norm
from .groundstate import GroundStateBundle, transform_T
from .functionals import energy, hamiltonian
from .linops import (bilinear_N, build_block_E, pack_real, stack_pair, unpack_real, unstack_pair,
                     weighted_norm)
from .spectrum import SpectralResult
from .evolution import (EvolutionConfig, RadialPropagator, TrajectoryRecord,
                        fixed_point_images, linear_propagator, nonlinear_substep,
                        run_batch, snapshot_step)


class ShootingError(RuntimeError):
    pass


# The fixed window of x = e^{-lambda1 t} that hn_gap_rate fits |hn_gap| on.
HN_GAP_WINDOW = (0.02, 0.3)
# The most orders profile_series solves; at the term ratio of about 0.14 seen
# on the grids here it stops near K = 19.
SERIES_MAX_ORDER = 60
# Steps between the monitor points (and so the snapshots) of a shooting leg.
LEG_MONITOR_STRIDE = 50


@dataclass(frozen=True)
class ApproxSolution:
    a: float
    k: int
    lambda1: float
    profiles: tuple          # g_1 .. g_k as FieldPair
    shift_residuals: tuple   # solve certificates per order
    kappa: float

    def evaluate(self, t: float) -> FieldPair:
        return self._series(t, 0)

    def time_derivative(self, t: float) -> FieldPair:
        return self._series(t, 1)

    def scaled(self, a: float, k: int | None = None) -> "ApproxSolution":
        """The profile set of amplitude a * self.a to order k (all, when None):
        g_j -> a^j g_j, since the recursion is homogeneous of degree j in a.
        For a = -1 (or a power of two) the scaling is exact, and the result
        equals the recursion solved at that amplitude bit for bit."""
        k = self.k if k is None else k
        if not 1 <= k <= self.k:
            raise ValueError(f"order k = {k} is outside 1 .. {self.k}")
        profiles = tuple(a ** j * g for j, g in enumerate(self.profiles[:k], start=1))
        return ApproxSolution(a=a * self.a, k=k, lambda1=self.lambda1, profiles=profiles,
                              shift_residuals=self.shift_residuals[:k], kappa=self.kappa)

    def _series(self, t: float, order: int) -> FieldPair:
        """d^order/dt^order U_k(t) = sum_j (-j lambda1)^order e^{-j lambda1 t} g_j."""
        out_u = np.zeros_like(self.profiles[0].u)
        out_v = np.zeros_like(self.profiles[0].v)
        for j, g in enumerate(self.profiles, start=1):
            c = (-j * self.lambda1) ** order * math.exp(-j * self.lambda1 * t)
            out_u = out_u + c * g.u
            out_v = out_v + c * g.v
        return self.profiles[0].with_values(out_u, out_v)


def _forcing(profiles, j: int) -> FieldPair:
    """sum_{m+l=j} B_N(g_m, g_l) over the profiles g_1, g_2, ...: B_N is
    symmetric, so each unordered pair m < l enters once as 2 B_N(g_m, g_l), in
    ascending m, and B_N(g_{j/2}, g_{j/2}) last when j is even."""
    k = len(profiles)
    terms = [2.0 * bilinear_N(profiles[m - 1], profiles[j - m - 1])
             for m in range(max(1, j - k), (j + 1) // 2)]
    if j % 2 == 0:
        terms.append(bilinear_N(profiles[j // 2 - 1], profiles[j // 2 - 1]))
    return sum(terms[1:], terms[0])


def _profile_orders(bundle: GroundStateBundle, spectral: SpectralResult, a: float):
    """(g_j, relative residual of its shifted solve) for j = 1, 2, ..., g_1 = a e_+."""
    block = build_block_E(bundle)
    band = block.band()      # built once, factored at each j lambda1
    lam = spectral.lambda1
    profiles = [a * spectral.e_plus]
    yield profiles[0], spectral.residual
    for j in itertools.count(2):
        rhs = 1j * stack_pair(_forcing(profiles, j))
        try:
            z = unpack_real(band.factor(j * lam).matvec(pack_real(rhs)))
        except RuntimeError as exc:
            raise ShootingError(
                f"shifted solve at order {j} is singular: j*lambda1 appears to touch "
                f"the spectrum ({exc})") from exc
        res = np.linalg.norm(block.apply_complex(z) - j * lam * z - rhs)
        res /= max(np.linalg.norm(rhs), 1e-300)
        if res > 1e-8:
            raise ShootingError(f"ill-conditioned shifted solve at order {j}: rel residual {res:.2e}")
        profiles.append(unstack_pair(bundle.grid, z, bundle.kappa))
        yield profiles[-1], float(res)


def _solution(bundle: GroundStateBundle, spectral: SpectralResult, a: float,
              orders) -> ApproxSolution:
    profiles, residuals = zip(*orders)
    return ApproxSolution(a=a, k=len(profiles), lambda1=spectral.lambda1, profiles=profiles,
                          shift_residuals=residuals, kappa=bundle.kappa)


def approx_profiles(bundle: GroundStateBundle, spectral: SpectralResult,
                    a: float, k: int) -> ApproxSolution:
    """Solve the profile recursion up to order k (g_1 = a e_+)."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    return _solution(bundle, spectral, a,
                     itertools.islice(_profile_orders(bundle, spectral, a), k))


def profile_series(bundle: GroundStateBundle, spectral: SpectralResult,
                   min_order: int = 1) -> ApproxSolution:
    """The profiles of a = 1 up to the first order K >= min_order whose term at
    x = 1 is below roundoff of U: ||g_K|| <= eps ||sum_{j<=K} g_j|| (Hdot1).

    Raises ShootingError when SERIES_MAX_ORDER terms do not get there: the
    series then converges too slowly at x = 1 to be summed.
    """
    orders, total = [], None
    for g, res in _profile_orders(bundle, spectral, 1.0):
        orders.append((g, res))
        total = g if total is None else total + g
        last, scale = h1dot_norm(g), h1dot_norm(total)
        if len(orders) >= min_order and last <= np.finfo(float).eps * scale:
            return _solution(bundle, spectral, 1.0, orders)
        if len(orders) >= SERIES_MAX_ORDER:
            raise ShootingError(f"profile series: ||g_{len(orders)}|| = {last:.2e} is not below "
                                f"roundoff of ||U|| = {scale:.3g} at x = 1")


def eps_k_tail_terms(sol: ApproxSolution) -> dict:
    """Coefficients of eps_k = -i sum_{j=k+1}^{2k} e^{-j lam t} C_j.

    Once the profiles satisfy their shifted systems, the orders <= k cancel
    identically and the residual is exactly this quadratic tail, so
    evaluating it term by term avoids the catastrophic cancellation the
    direct formula suffers once e^{-lambda1 t} drops below ~1e-3.
    """
    return {j: _forcing(sol.profiles, j) for j in range(sol.k + 1, 2 * sol.k + 1)}


def residual_eps_k(sol: ApproxSolution, bundle: GroundStateBundle,
                   t_grid: np.ndarray, method: str = "tail") -> dict:
    """Evaluate eps_k(t) and fit the decay slope of log||eps_k||.

    Norms reported in both the weighted L^2 and the Hdot1 sense; the
    governing statement does not pin the norm, so both slopes are returned.
    ``method='direct'`` applies the assembled operator (cross-check, valid
    while the residual stays above the floating-point cancellation floor);
    ``method='tail'`` evaluates the closed-form quadratic tail.
    """
    if method == "tail":
        terms = eps_k_tail_terms(sol)
    elif method == "direct":
        block = build_block_E(bundle)
    else:
        raise ValueError(f"unknown method {method!r}")
    l2, h1 = [], []
    for t in t_grid:
        if method == "tail":
            eps = np.zeros(2 * bundle.grid.n, dtype=complex)
            for j, term in terms.items():
                eps += -1j * math.exp(-j * sol.lambda1 * t) * stack_pair(term)
        else:
            U = sol.evaluate(t)
            eps = (stack_pair(sol.time_derivative(t)) + block.apply_complex(stack_pair(U))
                   - 1j * stack_pair(bilinear_N(U, U)))
        l2.append(weighted_norm(bundle.grid, eps))
        h1.append(h1dot_norm(unstack_pair(bundle.grid, eps, bundle.kappa)))
    l2 = np.array(l2)
    h1 = np.array(h1)
    if sol.a == 0.0 or np.all(l2 == 0.0):
        return {"t": np.array(t_grid), "l2": l2, "h1": h1,
                "slope_l2": 0.0, "slope_h1": 0.0, "target_slope": -(sol.k + 1) * sol.lambda1,
                "identically_zero": True}
    slope_l2 = float(np.polyfit(t_grid, np.log(l2), 1)[0])
    slope_h1 = float(np.polyfit(t_grid, np.log(h1), 1)[0])
    return {"t": np.array(t_grid), "l2": l2, "h1": h1,
            "slope_l2": slope_l2, "slope_h1": slope_h1,
            "target_slope": -(sol.k + 1) * sol.lambda1, "identically_zero": False}


def default_fit_window(lambda1: float, x_lo: float = 1e-4, x_hi: float = 1e-2,
                       points: int = 12) -> np.ndarray:
    """Times with e^{-lambda1 t} in [x_lo, x_hi]."""
    return np.linspace(-math.log(x_hi) / lambda1, -math.log(x_lo) / lambda1, points)


@dataclass
class WSamples:
    """W^a sampled at ``times`` (decreasing toward 0): its H_N gap, and its
    state at a sample time (``state``, transformed frame)."""

    a: float
    lambda1: float
    times: np.ndarray            # sample times, decreasing toward 0
    hn_gap: np.ndarray           # H_N(W) - H_N(T(Q)), discrete H

    def state(self, t: float) -> FieldPair:
        raise NotImplementedError

    def x_of_t(self, t):
        return np.exp(-self.lambda1 * np.asarray(t))

    def window_mask(self, x_lo: float, x_hi: float) -> np.ndarray:
        x = self.x_of_t(self.times)
        return (x >= x_lo) & (x <= x_hi)

    def fitted_slope(self, series: np.ndarray, x_lo: float, x_hi: float) -> float:
        m = self.window_mask(x_lo, x_hi) & (series > 0)
        if np.sum(m) < 3:
            raise ShootingError("fit window too small")
        return float(np.polyfit(self.times[m], np.log(series[m]), 1)[0])

    def hn_gap_rate(self) -> float:
        """Decay rate of |hn_gap|, fitted where e^{-lambda1 t} lies in HN_GAP_WINDOW."""
        return -self.fitted_slope(np.abs(self.hn_gap), *HN_GAP_WINDOW)


@dataclass
class SeriesSamples(WSamples):
    """W^a = T(bQ) + U^a(t) from the profile series; a state is summed when asked for."""

    tq: FieldPair
    series: ApproxSolution

    def state(self, t: float) -> FieldPair:
        return self.tq + self.series.evaluate(t)


@dataclass
class SpecialTrajectory(WSamples):
    """A shooting leg: its snapshots as WSamples, and their deviations."""

    k: int
    t_far: float
    dev_wk: np.ndarray           # ||W - W_k||_Hdot1
    dev_first: np.ndarray        # ||W - T(Q) - a e^{-l t} e_+||_Hdot1
    record: TrajectoryRecord
    state_at: dict               # t -> FieldPair (transformed frame)

    def state(self, t: float) -> FieldPair:
        return self.state_at[round(t, 9)]

    def envelope_margin(self, rate: float, series: np.ndarray,
                        x_lo: float, x_hi: float) -> float:
        """max over the window of series / e^{-rate * lambda1 * t}."""
        m = self.window_mask(x_lo, x_hi)
        if not np.any(m):
            raise ShootingError("empty fit window")
        env = np.exp(-rate * self.lambda1 * self.times[m])
        return float(np.max(series[m] / env))


def leg_snapshot_times(t_far: float, n_snapshots: int) -> tuple:
    """The times a leg from t_far asks for: n_snapshots even times down to 0."""
    return tuple(np.linspace(t_far, 0.0, n_snapshots))


def shoot_legs(bundle: GroundStateBundle, spectral: SpectralResult, sols, t_far: float,
               dt: float, n_snapshots: int, x_stop: float = 1.0):
    """Backward shooting of W^a for the profile set of every a in sols, as one batch.

    Each leg starts from W_k^a(t_far) = T(bQ) + U_k^a(t_far) and runs toward
    0 with the step map balanced at T(bQ): the legs share grid, dt, t_far and
    the snapshot times, and every one is measured against reference_H =
    H_N(T(bQ)).  The legs take the ``leg_snapshot_times`` with
    x = e^{-lambda1 t} <= x_stop and end at the monitor point of the last of
    them, a whole number of LEG_MONITOR_STRIDE strides from t_far, or at 0 if
    that point lies beyond it; every step and snapshot up to there is the
    full-length leg's (x_stop = 1) bit for bit.  Returns the defect that the
    balancing removes (``tq_step_defect``) and one SpecialTrajectory per
    profile set.
    """
    if any(sol.a == 0.0 for sol in sols):
        raise ValueError("a = 0 gives U_k = 0: a leg that stays at T(bQ) has nothing to fit")
    snap_times = tuple(t for t in leg_snapshot_times(t_far, n_snapshots)
                       if math.exp(-spectral.lambda1 * t) <= x_stop)
    if not snap_times:
        raise ValueError(f"x_stop = {x_stop:g} is below every snapshot of the leg")
    steps = snapshot_step(t_far, -dt, LEG_MONITOR_STRIDE, snap_times[-1])
    t_end = t_far - steps * dt if steps < round(t_far / dt) else 0.0
    tq = bundle.t_q
    prop = RadialPropagator(bundle.grid, bundle.kappa)
    h_tq = prop.discrete_H(tq.u, tq.v, "transformed")
    cfg = EvolutionConfig(dt=dt, t_end=t_end, system="transformed",
                          monitor_stride=LEG_MONITOR_STRIDE, snapshot_times=snap_times,
                          blowup_H_factor=1e6)
    recs = run_batch([tq + sol.evaluate(t_far) for sol in sols], cfg, reference_H=h_tq,
                     t0=t_far, fixed_point=tq)
    legs = [_trajectory(bundle, spectral, sol, t_far, rec) for sol, rec in zip(sols, recs)]
    return tq_step_defect(bundle, dt), legs


def tq_step_defect(bundle: GroundStateBundle, dt: float) -> float:
    """||S_h T(bQ) - T(bQ)|| / (dt ||T(bQ)||), cell-mass norm, S_h the legs' Strang step (h = -dt)."""
    tq = bundle.t_q
    prop = RadialPropagator(bundle.grid, bundle.kappa)
    _, _, (su, sv) = fixed_point_images(tq, -dt, "transformed")
    return math.sqrt(prop.discrete_mass(su[0] - tq.u, sv[0] - tq.v)
                     / prop.discrete_mass(tq.u, tq.v)) / dt


def _hn_gaps(bundle: GroundStateBundle, states) -> np.ndarray:
    """H_N(W) - H_N(T(bQ)), discrete H, of each W in ``states``."""
    tq = bundle.t_q
    prop = RadialPropagator(bundle.grid, bundle.kappa)
    h_tq = prop.discrete_H(tq.u, tq.v, "transformed")
    return np.array([prop.discrete_H(w.u, w.v, "transformed") - h_tq for w in states])


def _trajectory(bundle: GroundStateBundle, spectral: SpectralResult, sol: ApproxSolution,
                t_far: float, rec: TrajectoryRecord) -> SpecialTrajectory:
    """Deviation diagnostics of one shooting leg."""
    if rec.termination != "completed":
        raise ShootingError(f"shooting leg terminated early: {rec.termination} ({rec.diagnostic})")
    a, lam, tq, ep = sol.a, spectral.lambda1, bundle.t_q, spectral.e_plus
    dev = [h1dot_norm(w - (tq + sol.evaluate(t))) for t, w in rec.snapshots]
    dev1 = [h1dot_norm(w - (tq + (a * math.exp(-lam * t)) * ep)) for t, w in rec.snapshots]
    return SpecialTrajectory(a=a, lambda1=lam, times=np.array([t for t, _ in rec.snapshots]),
                             hn_gap=_hn_gaps(bundle, (w for _, w in rec.snapshots)), k=sol.k,
                             t_far=t_far, dev_wk=np.array(dev), dev_first=np.array(dev1),
                             record=rec, state_at={round(t, 9): w for t, w in rec.snapshots})


def series_samples(bundle: GroundStateBundle, series: ApproxSolution, times) -> SeriesSamples:
    """W^a = T(bQ) + U^a(t) from the profile series, at ``times``; the states
    are summed one at a time and not kept."""
    tq = bundle.t_q
    return SeriesSamples(a=series.a, lambda1=series.lambda1, times=np.array(times),
                         hn_gap=_hn_gaps(bundle, (tq + series.evaluate(t) for t in times)),
                         tq=tq, series=series)


def leg_vs_series(leg: SpecialTrajectory, series: ApproxSolution,
                  bundle: GroundStateBundle) -> float:
    """max over the leg's snapshots of ||W(t) - T(bQ) - U^a(t)||_Hdot1, U^a the
    series of the leg's amplitude: the leg's time-step error, once the
    series' order makes its own truncation roundoff."""
    tq = bundle.t_q
    return max(h1dot_norm(w - (tq + series.evaluate(t))) for t, w in leg.record.snapshots)


def leg_start(lambda1: float, a: float, data_eps: float) -> float:
    """Start t_far > 0 of a leg of W^a: |a| e^{-lambda1 t_far} = data_eps, else ShootingError."""
    t_far = math.log(abs(a) / data_eps) / lambda1
    if t_far <= 0:
        raise ShootingError(f"amplitude |a| = {abs(a):g} is not above data_eps = {data_eps:g}")
    return t_far


@dataclass(frozen=True)
class ThresholdPair:
    """G+- initial data (original-system frame) with certification numbers."""

    sign: int
    t0: float
    initial: FieldPair
    H_value: float
    E_value: float
    H_Q: float
    E_Q: float
    delta_rate: float


def construct_g(shot: WSamples, bundle: GroundStateBundle) -> ThresholdPair:
    """Pick t0 among the samples of W^a where sign(H_N gap) matches sign(a); map back.

    The earliest (smallest-t) sample with a robust sign margin is used so
    the pair carries the largest computable kinetic separation; an error is
    raised when the sign condition is never achieved.  The samples are the
    series' (``series_samples``) or a shooting leg's snapshots.
    """
    sgn = 1 if shot.a > 0 else -1
    gap_scale = float(np.max(np.abs(shot.hn_gap)))
    order = np.argsort(shot.times)
    t0 = None
    for idx in order:
        gap = shot.hn_gap[idx]
        if np.sign(gap) == sgn and abs(gap) >= 0.5 * gap_scale:
            t0 = shot.times[idx]
            break
    if t0 is None:
        raise ShootingError("sign condition on H_N never achieved within the computed window")
    initial = transform_T(shot.state(float(t0)), inverse=True)
    rate = shot.hn_gap_rate()
    return ThresholdPair(
        sign=sgn, t0=float(t0), initial=initial,
        H_value=hamiltonian(initial), E_value=energy(initial),
        H_Q=hamiltonian(bundle.q_vec), E_Q=energy(bundle.q_vec),
        delta_rate=float(rate))


def series_pair(bundle: GroundStateBundle, series: ApproxSolution, a: float,
                data_eps: float, n_snapshots: int) -> ThresholdPair:
    """G+- of amplitude a = +-1 from the profile series of a = 1: ``construct_g``
    on W^a sampled at the times a leg from ``data_eps`` asks for."""
    t_far = leg_start(series.lambda1, 1.0, data_eps)
    times = leg_snapshot_times(t_far, n_snapshots)
    return construct_g(series_samples(bundle, series.scaled(a), times), bundle)


def wa_at_zero(bundle: GroundStateBundle, spectral: SpectralResult, series: ApproxSolution,
               amplitudes, dt: float, n_snapshots: int) -> dict:
    """{a: W^a(0)} (transformed frame) over the distinct amplitudes, from the
    profile series of a = 1: T(bQ) + U^a(0) for |a| <= 1, where the series'
    last term is below roundoff; for |a| > 1, W^a(t1) = T(bQ) + U^a(t1) at
    x = 1, t1 = ln|a| / lambda1, stepped to 0 by one ``shoot_legs`` batch per t1.
    """
    out, groups = {}, {}
    for a in dict.fromkeys(amplitudes):
        if abs(a) <= 1:
            out[a] = bundle.t_q + series.scaled(a).evaluate(0.0)
        else:
            groups.setdefault(leg_start(series.lambda1, a, 1.0), []).append(series.scaled(a))
    for t1, sols in groups.items():
        _, legs = shoot_legs(bundle, spectral, sols, t1, dt, n_snapshots)
        out.update((sol.a, leg.record.final_state) for sol, leg in zip(sols, legs))
    return out


def time_translation_mismatch(shot_ref: SpecialTrajectory, shot_scaled: SpecialTrajectory,
                               bundle: GroundStateBundle) -> dict:
    """Check W^a(t) = W^{sign(a)}(t - log|a|/lambda1) on the snapshot overlap.

    The shift log|a|/lambda1 is not commensurate with the snapshot lattice,
    so the nearest reference snapshot is advanced by the fractional offset
    with a single Strang micro-step M of the same discrete flow (local error
    O(offset^3), far below the comparison tolerance), balanced at T(bQ) as
    the legs are: (M(x) - M(T(bQ))) + T(bQ).  Returns the max relative Hdot1
    mismatch over the overlap.
    """
    prop = RadialPropagator(bundle.grid, bundle.kappa)
    tq = bundle.t_q

    def micro(state, offset):
        state = linear_propagator(state, offset / 2, prop)
        state = nonlinear_substep(state, offset, "transformed")
        return linear_propagator(state, offset / 2, prop)

    lam = shot_ref.lambda1
    shift = math.log(abs(shot_scaled.a)) / lam
    ref_times = np.array(sorted(shot_ref.state_at.keys()))
    worst = 0.0
    count = 0
    for key, state in shot_scaled.state_at.items():
        t_ref = key - shift
        idx = int(np.argmin(np.abs(ref_times - t_ref)))
        t_near = float(ref_times[idx])
        offset = t_ref - t_near
        if abs(offset) > 0.5:
            continue
        ref_state = shot_ref.state_at[t_near]
        if abs(offset) > 1e-12:
            ref_state = (micro(ref_state, offset) - micro(tq, offset)) + tq
        diff = h1dot_norm(state - ref_state)
        scale = max(h1dot_norm(ref_state), 1e-300)
        worst = max(worst, diff / scale)
        count += 1
    if count == 0:
        raise ShootingError("no overlapping snapshots between the two shots")
    return {"max_rel_mismatch": worst, "overlap_points": count, "shift": shift}
