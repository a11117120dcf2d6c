import numpy as np
import pytest

from qnls6.functionals import hamiltonian
from qnls6.groundstate import apply_symmetry
from qnls6.grid import h1dot_inner
from qnls6.linops import quad_form
from qnls6.modulation import (ModulationError, ModulationFrame, comparability_band,
                              decompose, track, verify_rate_bound)
from conftest import random_pair


@pytest.fixture(scope="module")
def frame(bundle_mid):
    return ModulationFrame(bundle_mid)


class TestDecompose:
    def test_ground_state_itself(self, bundle_mid, frame):
        pt, h = decompose(bundle_mid.q_vec, frame=frame)
        assert pt.converged
        assert pt.theta == pytest.approx(0.0, abs=1e-8)
        # lambda sits off 1 by the discrete (Q, Lambda Q) defect scale
        assert pt.lam == pytest.approx(1.0, rel=5e-4)
        assert abs(pt.alpha) < 1e-6
        assert pt.h_norm < 5e-2

    @pytest.mark.parametrize("theta0,lam0", [(0.35, 1.18), (5.9, 0.86)])
    def test_recovers_orbit_parameters(self, bundle_mid, frame, theta0, lam0):
        u = apply_symmetry(bundle_mid.q_vec, theta0, lam0)
        pt, h = decompose(u, frame=frame)
        assert pt.converged
        assert pt.theta == pytest.approx(theta0 % (2 * np.pi), abs=5e-4)
        assert pt.lam == pytest.approx(lam0, rel=5e-4)
        assert abs(pt.alpha) < 1e-3
        # resampling error floor; ~2e-4 of ||Q||_Hdot1 at this resolution
        assert pt.h_norm < 5e-2

    def test_amplitude_ray(self, bundle_mid, frame):
        a = 0.02
        u = (1.0 + a) * bundle_mid.q_vec
        pt, h = decompose(u, frame=frame)
        assert pt.converged
        assert pt.alpha == pytest.approx(a, abs=1e-3)
        # the discrete (Q, Lambda Q) defect nudges lambda off 1 slightly
        assert pt.h_norm < 5e-2

    def test_orthogonality_residuals(self, bundle_mid, frame):
        rng = np.random.default_rng(301)
        u = bundle_mid.q_vec + 0.01 * random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        pt, h = decompose(u, frame=frame)
        assert pt.converged
        scale = hamiltonian(bundle_mid.q_vec)
        # the lambda direction inherits the discrete (Q, Lambda Q) defect
        defect = abs(h1dot_inner(bundle_mid.q_vec, bundle_mid.lambda_q))
        assert abs(h1dot_inner(h, frame.dirs["i_q1"])) < 1e-8 * scale
        assert abs(h1dot_inner(h, frame.dirs["lambda_q"])) < 3 * defect + 1e-8 * scale
        assert abs(quad_form(bundle_mid.q_vec, h, frame.ops)) < 1e-9 * scale

    def test_equivariance(self, bundle_mid, frame):
        rng = np.random.default_rng(303)
        u = bundle_mid.q_vec + 0.01 * random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        p0, h0 = decompose(u, frame=frame)
        moved = apply_symmetry(u, 0.4, 1.1)
        p1, h1 = decompose(moved, frame=frame)
        assert p1.theta == pytest.approx((p0.theta + 0.4) % (2 * np.pi), abs=5e-4)
        assert p1.lam == pytest.approx(1.1 * p0.lam, rel=5e-4)
        assert p1.alpha == pytest.approx(p0.alpha, abs=5e-4)
        assert p1.h_norm == pytest.approx(p0.h_norm, rel=0.05, abs=1e-4)

    def test_refusal_outside_gate(self, bundle_mid, frame):
        with pytest.raises(ModulationError):
            decompose(2.0 * bundle_mid.q_vec, frame=frame)


class TestTrack:
    def test_stationary_sequence(self, bundle_mid, frame):
        states = [(0.1 * j, bundle_mid.q_vec) for j in range(6)]
        trk = track(states, frame)
        assert np.all(trk.converged)
        d = trk.derivatives()
        assert np.max(np.abs(d["theta_dot"])) < 1e-7
        assert np.max(np.abs(d["lam_dot"])) < 1e-7
        # stationary track: delta = 0 exactly, excluded by the floor
        assert verify_rate_bound(trk)["samples"] == 0

    def test_band_on_amplitude_ray(self, bundle_mid, frame):
        amps = 0.015 + 0.005 * np.sin(np.linspace(0, 2, 7))
        states = [(0.2 * j, (1.0 + a) * bundle_mid.q_vec) for j, a in enumerate(amps)]
        trk = track(states, frame)
        assert np.all(trk.converged)
        band = comparability_band(trk, hamiltonian(bundle_mid.q_vec))
        assert band < 10.0

    def test_jitter_negative_control(self, bundle_mid, frame):
        # same deltas, violently jittered phase: the rate-bound ratio explodes
        rng = np.random.default_rng(307)
        smooth, jitter = [], []
        for j in range(8):
            base = (1.0 + 0.02) * bundle_mid.q_vec
            smooth.append((0.2 * j, apply_symmetry(base, 0.001 * j, 1.0)))
            jitter.append((0.2 * j, apply_symmetry(base, 0.5 * rng.standard_normal(), 1.0)))
        r_smooth = verify_rate_bound(track(smooth, frame))
        r_jitter = verify_rate_bound(track(jitter, frame))
        assert r_jitter["max_ratio"] > 50 * r_smooth["max_ratio"]

    def test_gap_flagged_not_fatal(self, bundle_mid, frame):
        states = [(0.0, bundle_mid.q_vec), (0.5, 2.0 * bundle_mid.q_vec),
                  (1.0, bundle_mid.q_vec)]
        trk = track(states, frame)
        assert list(trk.converged) == [True, False, True]
