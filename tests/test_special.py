import math

import numpy as np
import pytest

from qnls6.grid import RadialGrid, h1dot_norm
from qnls6.groundstate import build_bundle
from qnls6.spectrum import eigenpair_e
from qnls6.evolution import (EvolutionConfig, RadialPropagator, linear_propagator,
                             nonlinear_substep, run_batch)
from qnls6.special import (ApproxSolution, ShootingError, approx_profiles,
                           construct_g, default_fit_window, residual_eps_k,
                           shoot_amplitudes, shoot_legs, tq_step_defect)


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
        bundle, spectral = shot_setup
        with pytest.raises(ShootingError):
            shoot_amplitudes(bundle, spectral, [0.5], 3, 1e-3, 60, data_eps=2.0, t_far=None)


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
