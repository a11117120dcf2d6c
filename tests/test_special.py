import math

import numpy as np
import pytest

from qnls6.grid import RadialGrid, h1dot_norm
from qnls6.groundstate import build_bundle, transform_T
from qnls6.spectrum import eigenpair_e
from qnls6.evolution import (EvolutionConfig, RadialPropagator, linear_propagator,
                             nonlinear_substep, run_batch)
from qnls6.special import (LEG_MONITOR_STRIDE, ApproxSolution, ShootingError, approx_profiles,
                           construct_g, default_fit_window, leg_snapshot_times, leg_start,
                           leg_vs_series, profile_series, residual_eps_k, series_samples,
                           shoot_legs, tq_step_defect)


@pytest.fixture(scope="module")
def shot_setup():
    grid = RadialGrid(n=256, r_max=200.0, stretch=29.0)
    bundle = build_bundle(grid, kappa=0.5, background="discrete")
    spectral = eigenpair_e(bundle)
    return bundle, spectral


class TestProfiles:
    def test_first_profile_is_amplitude_times_eplus(self, shot_setup):
        bundle, spectral = shot_setup
        sol = approx_profiles(bundle, spectral, a=0.7, k=2)
        assert np.allclose(sol.profiles[0].u, 0.7 * spectral.e_plus.u)

    def test_shift_solve_certificates(self, shot_setup):
        bundle, spectral = shot_setup
        sol = approx_profiles(bundle, spectral, a=1.0, k=3)
        assert all(r < 1e-8 for r in sol.shift_residuals[1:])

    def test_zero_amplitude(self, shot_setup):
        bundle, spectral = shot_setup
        sol = approx_profiles(bundle, spectral, a=0.0, k=3)
        fit = residual_eps_k(sol, bundle, default_fit_window(spectral.lambda1))
        assert fit["identically_zero"]
        assert np.all(fit["l2"] == 0.0)

    def test_homogeneity_in_a(self, shot_setup):
        bundle, spectral = shot_setup
        s1 = approx_profiles(bundle, spectral, a=1.0, k=3)
        s2 = approx_profiles(bundle, spectral, a=2.0, k=3)
        for j in range(3):
            assert np.allclose(s2.profiles[j].u, 2.0 ** (j + 1) * s1.profiles[j].u, rtol=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_residual_slopes(self, shot_setup, k):
        bundle, spectral = shot_setup
        sol = approx_profiles(bundle, spectral, a=1.0, k=k)
        fit = residual_eps_k(sol, bundle, default_fit_window(spectral.lambda1))
        target = -(k + 1) * spectral.lambda1
        assert fit["slope_l2"] == pytest.approx(target, rel=0.1)
        assert fit["slope_h1"] == pytest.approx(target, rel=0.1)

    def test_tail_matches_direct_formula(self, shot_setup):
        # the closed-form tail equals the assembled-operator evaluation in
        # the regime where the direct formula is still above roundoff
        bundle, spectral = shot_setup
        sol = approx_profiles(bundle, spectral, a=1.0, k=3)
        window = default_fit_window(spectral.lambda1, 3e-2, 2e-1, points=5)
        tail = residual_eps_k(sol, bundle, window, method="tail")
        direct = residual_eps_k(sol, bundle, window, method="direct")
        assert np.allclose(tail["l2"], direct["l2"], rtol=1e-6)

    def test_evaluate_composes_profiles(self, shot_setup):
        bundle, spectral = shot_setup
        sol = approx_profiles(bundle, spectral, a=1.0, k=2)
        lam = spectral.lambda1
        t = 3.0
        manual = (np.exp(-lam * t) * sol.profiles[0].u
                  + np.exp(-2 * lam * t) * sol.profiles[1].u)
        assert np.allclose(sol.evaluate(t).u, manual)


class TestShooting:
    @pytest.fixture(scope="class")
    def shots(self, shot_setup):
        bundle, spectral = shot_setup
        lam = spectral.lambda1
        t_far = math.log(1.0 / 2e-2) / lam
        sols = [approx_profiles(bundle, spectral, a, 3) for a in (1.0, -1.0)]
        _, (plus, minus) = shoot_legs(bundle, spectral, sols, t_far, 2e-3, 40)
        return bundle, spectral, plus, minus

    def test_leg_completes(self, shots):
        _, _, plus, minus = shots
        assert plus.record.termination == "completed"
        assert minus.record.termination == "completed"

    def test_envelope_bound(self, shots):
        _, _, plus, _ = shots
        margin = plus.envelope_margin(3.5, plus.dev_wk, 0.07, 0.3)
        assert margin < 1.5  # coarse-step module check; acceptance is stricter

    def test_first_order_envelope(self, shots):
        _, _, plus, _ = shots
        margin = plus.envelope_margin(1.5, plus.dev_first, 0.02, 0.12)
        assert margin < 1.5

    def test_hn_gap_sign_tracks_amplitude(self, shots):
        _, _, plus, minus = shots
        assert plus.hn_gap[-1] > 0      # smallest time, a = +1
        assert minus.hn_gap[-1] < 0

    def test_hn_gap_rate_near_lambda1(self, shots):
        _, spectral, plus, minus = shots
        for shot in (plus, minus):
            rate = shot.hn_gap_rate()
            assert rate == pytest.approx(spectral.lambda1, rel=0.15)

    def test_balanced_map_keeps_tq_fixed(self, shot_setup):
        # the balanced step map returns T(bQ) bit for bit; the raw map drifts
        bundle, _ = shot_setup
        tq = bundle.t_q
        cfg = EvolutionConfig(dt=4e-3, t_end=0.0, system="transformed", monitor_stride=50)
        balanced, = run_batch([tq], cfg, t0=2.0, fixed_point=tq)
        raw, = run_batch([tq], cfg, t0=2.0)
        assert np.array_equal(balanced.final_state.u, tq.u)
        assert np.array_equal(balanced.final_state.v, tq.v)
        assert h1dot_norm(raw.final_state - tq) / h1dot_norm(tq) > 1e-7

    def test_threshold_pair_properties(self, shots):
        bundle, _, plus, minus = shots
        gp = construct_g(plus, bundle)
        gm = construct_g(minus, bundle)
        assert gp.H_value > gp.H_Q
        assert gm.H_value < gm.H_Q
        assert abs(gp.E_value - gp.E_Q) / gp.E_Q < 5e-3
        assert abs(gm.E_value - gm.E_Q) / gm.E_Q < 5e-3

    def test_rejects_oversized_data(self, shot_setup):
        _, spectral = shot_setup
        with pytest.raises(ShootingError):
            leg_start(spectral.lambda1, 0.5, 2.0)


class TestBatchedLegs:
    def test_batch_equals_legs_run_one_at_a_time(self, shot_setup):
        # one-leg batches against one two-leg batch: every leg agrees bit for bit
        bundle, spectral = shot_setup
        t_far = math.log(1.0 / 5e-2) / spectral.lambda1
        sols = [approx_profiles(bundle, spectral, a, 2) for a in (1.0, -1.0)]
        alone = [shoot_legs(bundle, spectral, [s], t_far, 4e-3, 12) for s in sols]
        _, batched = shoot_legs(bundle, spectral, sols, t_far, 4e-3, 12)
        for (_, [one]), many in zip(alone, batched):
            for name in ("times", "dev_wk", "dev_first", "hn_gap"):
                assert np.array_equal(getattr(one, name), getattr(many, name)), name
            assert np.array_equal(one.record.final_state.u, many.record.final_state.u)
            assert np.array_equal(one.record.final_state.v, many.record.final_state.v)
            assert one.state_at.keys() == many.state_at.keys()

    def test_rejects_zero_amplitude(self, shot_setup):
        bundle, spectral = shot_setup
        sol = approx_profiles(bundle, spectral, a=0.0, k=2)
        with pytest.raises(ValueError, match="nothing to fit"):
            shoot_legs(bundle, spectral, [sol], 1.0, 1e-3, 10)

    def test_legs_report_the_balancing_defect(self, shot_setup):
        # the first element of shoot_legs is ||S_h T(bQ) - T(bQ)|| / (dt ||T(bQ)||),
        # S_h one Strang step of the legs (h = -dt; at dt = 1e-3 the public
        # substeps take one Pade step per half, as run_batch does)
        bundle, spectral = shot_setup
        t_far = math.log(1.0 / 5e-2) / spectral.lambda1
        sol = approx_profiles(bundle, spectral, 1.0, 2)
        defect, _ = shoot_legs(bundle, spectral, [sol], t_far, 4e-3, 12)
        assert defect == tq_step_defect(bundle, 4e-3)
        tq, h = bundle.t_q, -1e-3
        step = linear_propagator(nonlinear_substep(linear_propagator(tq, h / 2), h,
                                                   "transformed"), h / 2) - tq
        prop = RadialPropagator(bundle.grid, bundle.kappa)
        expected = math.sqrt(prop.discrete_mass(step.u, step.v)
                             / prop.discrete_mass(tq.u, tq.v)) / abs(h)
        assert expected > 0
        assert tq_step_defect(bundle, abs(h)) == pytest.approx(expected, rel=1e-4)


class TestSeries:
    @pytest.fixture(scope="class")
    def series(self, shot_setup):
        bundle, spectral = shot_setup
        return profile_series(bundle, spectral)

    def test_order_stops_at_roundoff_of_u(self, shot_setup, series):
        # the last term at x = 1 is below roundoff of U, the one before is not
        total = series.evaluate(0.0)
        eps = np.finfo(float).eps
        assert h1dot_norm(series.profiles[-1]) <= eps * h1dot_norm(total)
        assert h1dot_norm(series.profiles[-2]) > eps * h1dot_norm(total)
        bundle, spectral = shot_setup
        assert profile_series(bundle, spectral, series.k + 2).k == series.k + 2

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_minus_one_profiles_are_the_recursion_at_minus_one(self, shot_setup, series, k):
        # negation is exact, so (-1)^j g_j of the one a = 1 recursion is the
        # recursion solved at a = -1 bit for bit
        bundle, spectral = shot_setup
        read = series.scaled(-1.0, k)
        solved = approx_profiles(bundle, spectral, -1.0, k)
        assert read.a == solved.a and read.k == solved.k
        for g, h in zip(read.profiles, solved.profiles):
            assert np.array_equal(g.u, h.u) and np.array_equal(g.v, h.v)
        assert read.shift_residuals == solved.shift_residuals

    def test_series_g_pm_meet_the_legs_at_strang_order(self):
        # the legs and the series aim at one W^a of the balanced semi-discrete
        # flow: the G+- of full-length legs differ from the series at the
        # legs' t0 by their time-step error, which falls 4x per halving of dt
        grid = RadialGrid(n=128, r_max=200.0, stretch=29.0)
        bundle = build_bundle(grid, kappa=0.5, background="discrete")
        spectral = eigenpair_e(bundle)
        series = profile_series(bundle, spectral)
        t_far = math.log(1.0 / 0.1) / spectral.lambda1
        sols = [series.scaled(a, 3) for a in (1.0, -1.0)]
        diffs = []
        for dt in (8e-3, 4e-3, 2e-3):
            _, legs = shoot_legs(bundle, spectral, sols, t_far, dt, 40)
            row = []
            for leg in legs:
                pair = construct_g(leg, bundle)
                initial = transform_T(bundle.t_q + series.scaled(leg.a).evaluate(pair.t0),
                                      inverse=True)
                row.append(h1dot_norm(pair.initial - initial))
            diffs.append(row)
        ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
        assert np.all(np.abs(ratios - 4.0) <= 1.0), ratios

    def test_series_samples_give_the_threshold_pair(self, shot_setup, series):
        bundle, spectral = shot_setup
        times = leg_snapshot_times(math.log(1.0 / 2e-2) / spectral.lambda1, 40)
        gp = construct_g(series_samples(bundle, series, times), bundle)
        gm = construct_g(series_samples(bundle, series.scaled(-1.0), times), bundle)
        assert gm.H_value < gp.H_Q < gp.H_value
        assert abs(gp.E_value - gp.E_Q) / gp.E_Q < 5e-3
        assert abs(gm.E_value - gm.E_Q) / gm.E_Q < 5e-3
        for pair in (gp, gm):
            assert pair.delta_rate == pytest.approx(spectral.lambda1, rel=0.15)


class TestStoppedLegs:
    @pytest.fixture(scope="class")
    def pair_of_runs(self, shot_setup):
        bundle, spectral = shot_setup
        t_far = math.log(1.0 / 5e-2) / spectral.lambda1
        sols = [approx_profiles(bundle, spectral, a, 3) for a in (1.0, -1.0)]
        _, full = shoot_legs(bundle, spectral, sols, t_far, 4e-3, 40)
        _, stopped = shoot_legs(bundle, spectral, sols, t_far, 4e-3, 40, x_stop=0.3)
        return spectral, t_far, full, stopped

    def test_stopped_leg_is_the_full_leg_cut_short(self, pair_of_runs):
        _, _, full, stopped = pair_of_runs
        for long, short in zip(full, stopped):
            m = len(short.times)
            assert 3 <= m < len(long.times)
            for name in ("times", "dev_wk", "dev_first", "hn_gap"):
                assert np.array_equal(getattr(short, name), getattr(long, name)[:m]), name
            for (t, w), (s, y) in zip(short.record.snapshots, long.record.snapshots):
                assert t == s and np.array_equal(w.u, y.u) and np.array_equal(w.v, y.v)
            # the run ends on the monitor point of its last snapshot
            final = short.record.final_state
            assert short.record.final_time == short.times[-1]
            assert np.array_equal(final.u, long.state_at[round(short.times[-1], 9)].u)
            assert np.array_equal(final.v, long.state_at[round(short.times[-1], 9)].v)

    def test_stop_is_at_the_last_snapshot_in_reach(self, pair_of_runs):
        # no step past the first monitor point within dt/4 of the last
        # requested time with x <= x_stop, a whole number of strides from t_far
        spectral, t_far, full, stopped = pair_of_runs
        requested = np.array(leg_snapshot_times(t_far, 40))
        last = requested[np.exp(-spectral.lambda1 * requested) <= 0.3][-1]
        reach, stride = 1e-3, LEG_MONITOR_STRIDE * 4e-3
        for long, short in zip(full, stopped):
            steps, t_end = short.record.steps, short.record.final_time
            assert steps % LEG_MONITOR_STRIDE == 0
            assert steps == round((t_far - t_end) / 4e-3)
            assert t_end <= last + reach < t_end + stride
            assert steps < long.record.steps

    def test_leg_keys_are_bit_identical(self, pair_of_runs):
        _, _, full, stopped = pair_of_runs
        for long, short in zip(full, stopped):
            assert short.hn_gap_rate() == long.hn_gap_rate()
            for rate, series, lo, hi in ((3.5, "dev_wk", 0.05, 0.3),
                                         (1.5, "dev_first", 0.02, 0.12)):
                assert short.envelope_margin(rate, getattr(short, series), lo, hi) == \
                    long.envelope_margin(rate, getattr(long, series), lo, hi)
                assert short.fitted_slope(getattr(short, series), lo, hi) == \
                    long.fitted_slope(getattr(long, series), lo, hi)

    def test_leg_vs_series_is_the_time_step_error(self, shot_setup, pair_of_runs):
        bundle, spectral = shot_setup
        _, _, _, stopped = pair_of_runs
        series = profile_series(bundle, spectral)
        for leg in stopped:
            dev = leg_vs_series(leg, series.scaled(leg.a), bundle)
            assert 0 < dev < 1e-3

    def test_x_stop_below_every_snapshot_is_refused(self, shot_setup):
        bundle, spectral = shot_setup
        sol = approx_profiles(bundle, spectral, 1.0, 2)
        with pytest.raises(ValueError, match="x_stop"):
            shoot_legs(bundle, spectral, [sol], 10.0, 4e-3, 12, x_stop=1e-3)


class TestForcing:
    @pytest.fixture(scope="class")
    def profiles(self, shot_setup):
        bundle, spectral = shot_setup
        return approx_profiles(bundle, spectral, 1.0, 8).profiles

    def test_unordered_pairs_match_the_ordered_sum(self, profiles):
        # the orders of the recursion (j <= k) and of the eps_k tail (k < j <= 2k)
        from qnls6.linops import bilinear_N
        from qnls6.special import _forcing
        k = len(profiles)
        for j in range(2, 2 * k + 1):
            ordered = [bilinear_N(profiles[m - 1], profiles[j - m - 1])
                       for m in range(max(1, j - k), min(k, j - 1) + 1)]
            want = sum(ordered[1:], ordered[0])
            got = _forcing(profiles, j)
            for a, b in ((got.u, want.u), (got.v, want.v)):
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), j

    def test_each_unordered_pair_costs_one_bilinear_call(self, profiles, monkeypatch):
        import qnls6.special as special
        calls = []
        bilinear = special.bilinear_N
        monkeypatch.setattr(special, "bilinear_N", lambda a, b: calls.append(1) or bilinear(a, b))
        k = len(profiles)
        for j in range(2, 2 * k + 1):
            calls.clear()
            special._forcing(profiles, j)
            assert len(calls) == (min(k, j - 1) - max(1, j - k)) // 2 + 1, j
