import math
import os

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qnls6.evolution import (FACTOR_CACHE_SIZE, L4_BALL_RADIUS, PADE_POLES,
                             THRESHOLD_E_BAND, EvolutionConfig, TrajectoryRecord,
                             _shifted_factors, check_virial_identity, discrete_H,
                             discrete_mass, discrete_P, dynamical_verdict, l4_decay_ratio,
                             linear_step, read_checkpoint, reconcile, run, run_batch,
                             side_by_side, variational_prediction, vr_identity_defect,
                             write_checkpoint)
from qnls6.evolution import _make_cn_stepper, _rk4
from qnls6.grid import FieldPair, GridError, RadialGrid, h1dot_norm
from qnls6.groundstate import apply_symmetry, build_bundle
from conftest import linear_propagator, nonlinear_substep, random_pair


@pytest.fixture(scope="module")
def evo_grid():
    return RadialGrid(n=192, r_max=120.0, stretch=19.0)


@pytest.fixture(scope="module")
def evo_bundle(evo_grid):
    return build_bundle(evo_grid, kappa=0.5, background="discrete")


def gaussian_pair(grid, kappa=0.5, amp=0.8):
    r = grid.nodes
    return FieldPair(grid, amp * np.exp(-r * r), 0.5 * amp * np.exp(-r * r / 2), kappa)


class TestLinearPropagator:
    def test_zero_time_identity(self, evo_grid):
        u = gaussian_pair(evo_grid)
        out = linear_propagator(u, 0.0)
        assert np.allclose(out.u, u.u) and np.allclose(out.v, u.v)

    def test_discrete_mass_unitary(self, evo_grid):
        u = gaussian_pair(evo_grid)
        m0 = discrete_mass(evo_grid, u.u, u.v)
        out = linear_propagator(u, 0.37)
        assert discrete_mass(evo_grid, out.u, out.v) == pytest.approx(m0, rel=1e-13)

    def test_gaussian_free_evolution(self, evo_grid):
        # closed form on R^6: e^{it Lap} e^{-a r^2} = (1+4iat)^{-3} exp(-a r^2/(1+4iat))
        a, t = 1.0, 0.05
        kappa = 0.5
        r = evo_grid.nodes
        u = FieldPair(evo_grid, np.exp(-a * r * r), np.exp(-a * r * r), kappa)
        out = linear_propagator(u, t)
        for comp, tau in ((out.u, t), (out.v, kappa * t)):
            z = 1.0 + 4j * a * tau
            exact = z ** -3 * np.exp(-a * r * r / z)
            core = r < 30.0
            # discrete-vs-continuum propagator gap is O(h^2) ~ 1e-3 here
            assert np.max(np.abs(comp[core] - exact[core])) < 5e-3

    @pytest.mark.parametrize("t", [5e-4, 0.05, 0.37])
    def test_matches_eigenbasis_exponential(self, evo_grid, t):
        # independent oracle: exp(i c t A) from the eigenpairs of the
        # symmetrized Delta_h, mapped back through the cell-mass scaling
        lam, vecs = eigh_tridiagonal(*evo_grid.symmetrized_tridiag())
        sm = np.sqrt(evo_grid.cell_masses)
        u = gaussian_pair(evo_grid)
        out = linear_propagator(u, t)
        for comp, x, c in ((out.u, u.u, 1.0), (out.v, u.v, u.kappa)):
            exact = vecs @ (np.exp(1j * c * t * lam) * (vecs.T @ (sm * x))) / sm
            err = np.linalg.norm(sm * (comp - exact)) / np.linalg.norm(sm * exact)
            assert err <= 1e-7


class TestFactorCache:
    def test_bounded_through_step_halving(self, evo_grid, evo_bundle):
        from qnls6.functionals import hamiltonian
        _shifted_factors.cache_clear()
        cfg = EvolutionConfig(dt=1e-3, t_end=40.0, adapt=True, monitor_stride=20)
        rec = run(1.1 * evo_bundle.q_vec, cfg, reference_H=hamiltonian(evo_bundle.q_vec))
        assert rec.termination == "blowup" and rec.min_dt < cfg.dt
        assert 0 < _shifted_factors.cache_info().currsize <= FACTOR_CACHE_SIZE
        # more step sizes than the bound: the oldest factors are evicted
        u = gaussian_pair(evo_grid)
        for k in range(FACTOR_CACHE_SIZE):
            linear_propagator(u, (k + 1) * 1.01e-4)
        assert _shifted_factors.cache_info().currsize == FACTOR_CACHE_SIZE
        # an entry is O(n): the LU factors of one tridiagonal matrix
        entry = _shifted_factors(evo_grid, 5e-4, PADE_POLES[0])
        assert sum(a.nbytes for a in entry) <= 5 * 16 * evo_grid.n


class TestLeanerStep:
    """The Strang step's factor form against the forms it replaced."""

    @staticmethod
    def textbook_rk4(u, v, dt, c1):
        def f(a, b):
            return 1j * c1 * np.conj(a) * b, 1j * a * a
        k1u, k1v = f(u, v)
        k2u, k2v = f(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = f(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = f(u + dt * k3u, v + dt * k3v)
        return (u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u),
                v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))

    @pytest.mark.parametrize("c1", [1.0, 2.0])
    @pytest.mark.parametrize("shape", [(96,), (3, 96)])
    def test_rk4_matches_textbook(self, c1, shape):
        rng = np.random.default_rng(211)
        u, v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        u0, v0 = u.copy(), v.copy()
        for dt in (1e-3, -0.05):
            got, want = _rk4(u, v, dt, c1), self.textbook_rk4(u, v, dt, c1)
            for g, w in zip(got, want):
                assert g.shape == shape
                np.testing.assert_allclose(g, w, rtol=1e-14, atol=0)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)   # inputs untouched

    @pytest.mark.parametrize("dt", [5e-4, -1e-3])
    def test_pade_step_matches_symmetrized_form(self, evo_grid, dt):
        # the form this step replaced: R(i s A) on D^{1/2} x, A the
        # symmetrized Delta_h, y <- y + 2 p (i s A - p)^{-1} y per pole
        from scipy.linalg import solve_banded
        diag, off = evo_grid.symmetrized_tridiag()
        sm = np.sqrt(evo_grid.cell_masses)

        def symmetrized_pade(x, s):
            y = sm * x
            for p in PADE_POLES:
                band = np.zeros((3, len(diag)), complex)
                band[0, 1:] = band[2, :-1] = 1j * s * off
                band[1] = 1j * s * diag - p
                y = y + 2.0 * p * solve_banded((1, 1), band, y)
            return y / sm

        rng = np.random.default_rng(212)
        u = random_pair(evo_grid, 0.5, rng)
        got = linear_step(evo_grid, u.kappa, u.u, u.v, dt)
        for comp, x, c in zip(got, (u.u, u.v), (1.0, u.kappa)):
            want = symmetrized_pade(x, c * dt)
            assert np.linalg.norm(sm * (comp - want)) <= 1e-13 * np.linalg.norm(sm * want)

    def test_crank_nicolson_step_matches_dense_solve(self):
        grid = RadialGrid(n=64, r_max=20.0, stretch=5.0)
        kappa, c1, dt = 0.5, 2.0, 2e-3
        rng = np.random.default_rng(213)
        u = random_pair(grid, kappa, rng)
        lap = grid.laplacian_matrix().toarray()
        eye = np.eye(grid.n)
        un, vn = u.u, u.v
        for _ in range(3):       # the stepper's fixed-point midpoint, densely
            um, vm = 0.5 * (u.u + un), 0.5 * (u.v + vn)
            un = np.linalg.solve(eye - 0.5j * dt * lap,
                                 u.u + 0.5j * dt * lap @ u.u + dt * 1j * c1 * np.conj(um) * vm)
            vn = np.linalg.solve(eye - 0.5j * kappa * dt * lap,
                                 u.v + 0.5j * kappa * dt * lap @ u.v + dt * 1j * um * um)
        got = _make_cn_stepper(grid, kappa, c1)(u.u, u.v, dt)
        for g, w in zip(got, (un, vn)):
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


class TestNonlinearSubstep:
    def test_zero(self, evo_grid):
        z = FieldPair(evo_grid, np.zeros(evo_grid.n), np.zeros(evo_grid.n), 0.5)
        out = nonlinear_substep(z, 0.1)
        assert np.all(out.u == 0)

    def test_pointwise_invariant_original(self, evo_grid):
        rng = np.random.default_rng(201)
        u = random_pair(evo_grid, 0.5, rng)
        inv0 = np.abs(u.u) ** 2 + np.abs(u.v) ** 2
        out = nonlinear_substep(u, 1e-2, "original")
        inv1 = np.abs(out.u) ** 2 + np.abs(out.v) ** 2
        assert np.max(np.abs(inv1 - inv0)) < 1e-8 * np.max(inv0)

    def test_transformed_invariant(self, evo_grid):
        rng = np.random.default_rng(202)
        u = random_pair(evo_grid, 0.5, rng)
        inv0 = np.abs(u.u) ** 2 + 2.0 * np.abs(u.v) ** 2
        out = nonlinear_substep(u, 1e-2, "transformed")
        inv1 = np.abs(out.u) ** 2 + 2.0 * np.abs(out.v) ** 2
        assert np.max(np.abs(inv1 - inv0)) < 1e-9 * np.max(inv0)

    def test_fourth_order(self, evo_grid):
        rng = np.random.default_rng(203)
        u = random_pair(evo_grid, 0.5, rng)
        fine = nonlinear_substep(nonlinear_substep(u, 0.05), 0.05)
        coarse = nonlinear_substep(u, 0.1)
        finer = nonlinear_substep(nonlinear_substep(
            nonlinear_substep(nonlinear_substep(u, 0.025), 0.025), 0.025), 0.025)
        e1 = np.max(np.abs(coarse.u - finer.u))
        e2 = np.max(np.abs(fine.u - finer.u))
        assert e1 / e2 > 8.0  # ~16 for a 4th-order step


class TestRun:
    def test_conservation(self, evo_grid):
        u = gaussian_pair(evo_grid)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, monitor_stride=100)
        rec = run(u, cfg)
        d = rec.drift()
        assert d["energy"] < 1e-6
        assert d["mass"] < 1e-10
        assert rec.termination == "completed"

    def test_strang_second_order(self, evo_grid):
        u = gaussian_pair(evo_grid)
        ref = run(u, EvolutionConfig(dt=1.25e-4, t_end=0.5, monitor_stride=4000)).final_state
        errs = []
        for dt in (1e-3, 5e-4):
            out = run(u, EvolutionConfig(dt=dt, t_end=0.5, monitor_stride=4000)).final_state
            errs.append(h1dot_norm(out - ref))
        assert errs[0] / errs[1] > 3.0

    def test_cn_matches_strang(self, evo_grid):
        u = gaussian_pair(evo_grid, amp=0.4)
        a = run(u, EvolutionConfig(dt=5e-4, t_end=0.2, monitor_stride=400)).final_state
        b = run(u, EvolutionConfig(dt=5e-4, t_end=0.2, scheme="crank-nicolson",
                                   monitor_stride=400)).final_state
        assert h1dot_norm(a - b) / h1dot_norm(a) < 5e-3

    def test_time_reversal(self, evo_grid):
        u = gaussian_pair(evo_grid)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.5, monitor_stride=500)
        fwd = run(u, cfg).final_state
        back = run(fwd.conj(), cfg).final_state.conj()
        drift = run(u, cfg).drift()["energy"] + 1e-12
        assert h1dot_norm(back - u) / h1dot_norm(u) < 1e-5

    def test_scaling_symmetry(self, evo_grid):
        lam = 1.25
        u = gaussian_pair(evo_grid, amp=0.5)
        t_end = 0.4
        direct = run(apply_symmetry(u, 0.0, lam),
                     EvolutionConfig(dt=5e-4, t_end=t_end, monitor_stride=800)).final_state
        base = run(u, EvolutionConfig(dt=5e-4 / lam ** 2, t_end=t_end / lam ** 2,
                                      monitor_stride=1600)).final_state
        mapped = apply_symmetry(base, 0.0, lam)
        assert h1dot_norm(direct - mapped) / h1dot_norm(mapped) < 5e-3

    def test_stationary_ground_state(self, evo_bundle):
        q = evo_bundle.q_vec
        prop_ref = h1dot_norm(q)
        cfg = EvolutionConfig(dt=1e-3, t_end=2.0, monitor_stride=200)
        rec = run(q, cfg, reference_H=None)
        assert h1dot_norm(rec.final_state - q) / prop_ref < 1e-4

    def test_blowup_detected(self, evo_bundle):
        from qnls6.functionals import hamiltonian
        u = 1.3 * evo_bundle.q_vec
        cfg = EvolutionConfig(dt=1e-3, t_end=40.0, adapt=True, monitor_stride=20,
                              blowup_H_factor=50.0)
        rec = run(u, cfg, reference_H=hamiltonian(evo_bundle.q_vec))
        assert rec.termination == "blowup"
        assert dynamical_verdict(rec)[0] == "blowup"

    def test_subthreshold_decays(self, evo_bundle):
        from qnls6.functionals import hamiltonian
        u = 0.7 * evo_bundle.q_vec
        cfg = EvolutionConfig(dt=1e-3, t_end=18.0, monitor_stride=50, sponge=True)
        rec = run(u, cfg, reference_H=hamiltonian(evo_bundle.q_vec))
        assert rec.termination == "completed"
        assert dynamical_verdict(rec)[0] == "global-decaying"


class TestLocalL4Density:
    def _density(self, u):
        cfg = EvolutionConfig(dt=1e-3, t_end=1e-3, monitor_stride=1)
        return run(u, cfg).l4_density[0]

    def _cell_l4(self, grid, u):
        return np.pi ** 3 * grid.cell_masses * (np.abs(u.u) ** 4 + np.abs(u.v) ** 4)

    def test_ball_radius_is_q_scale(self):
        assert L4_BALL_RADIUS == pytest.approx(math.sqrt(24.0), rel=1e-15)

    def test_counts_state_inside_ball(self, evo_grid):
        u = gaussian_pair(evo_grid)
        cell = self._cell_l4(evo_grid, u)
        got = self._density(u)
        assert got == pytest.approx(np.sum(cell[evo_grid.nodes < L4_BALL_RADIUS]), rel=1e-13)
        # a core-concentrated Gaussian has all of its L^4 inside the ball
        assert got == pytest.approx(np.sum(cell), rel=1e-10)

    def test_ignores_state_far_outside_ball(self, evo_grid):
        r = evo_grid.nodes
        shell = np.exp(-(r - 40.0) ** 2 / 4.0)
        u = FieldPair(evo_grid, shell, 0.5 * shell, 0.5)
        box = np.sum(self._cell_l4(evo_grid, u))
        assert box > 1.0
        assert self._density(u) < 1e-12 * box


def synthetic_record(grid, l4, termination="completed", delta=None, diagnostic=""):
    nt = len(l4)
    z = np.zeros(nt)
    zero = FieldPair(grid, np.zeros(grid.n), np.zeros(grid.n), 0.5)
    return TrajectoryRecord(
        times=np.arange(nt, dtype=float), H=z, P=z, E=z, mass=z,
        delta=np.full(nt, math.nan) if delta is None else np.asarray(delta, float),
        l4_density=np.asarray(l4, float), I_R={}, F_R={}, V_R={},
        termination=termination, final_state=zero, final_time=float(nt - 1),
        diagnostic=diagnostic)


class TestDetect:
    DECAYING = [1.0] * 8 + [0.5] * 4 + [0.05] * 4   # ratio 0.05
    FLAT = [1.0] * 16                               # ratio 1

    def test_blowup(self, evo_grid):
        rec = synthetic_record(evo_grid, self.FLAT, termination="blowup",
                               diagnostic="step collapse")
        assert dynamical_verdict(rec) == ("blowup", "step collapse")

    def test_instability_is_undecided(self, evo_grid):
        rec = synthetic_record(evo_grid, self.DECAYING, termination="instability",
                               diagnostic="non-finite state")
        assert dynamical_verdict(rec)[0] == "undecided"
        assert "non-finite state" in dynamical_verdict(rec)[1]

    def test_trapped(self, evo_grid):
        delta = [1.0] * 8 + [0.01] * 8
        rec = synthetic_record(evo_grid, self.FLAT, delta=delta)
        assert dynamical_verdict(rec, delta0=0.1)[0] == "trapped"
        # without delta0 the run is not trapped
        assert dynamical_verdict(rec)[0] == "undecided"

    def test_global_decaying(self, evo_grid):
        rec = synthetic_record(evo_grid, self.DECAYING)
        assert l4_decay_ratio(rec) == pytest.approx(0.05)
        assert dynamical_verdict(rec)[0] == "global-decaying"
        assert dynamical_verdict(rec, delta0=0.1)[0] == "global-decaying"

    def test_undecided(self, evo_grid):
        rec = synthetic_record(evo_grid, self.FLAT)
        assert dynamical_verdict(rec)[0] == "undecided"
        assert dynamical_verdict(synthetic_record(evo_grid, [0.0] * 16))[0] == "undecided"

    def test_decay_ratio_cut(self, evo_grid):
        rec = synthetic_record(evo_grid, [1.0] * 12 + [0.3] * 4)
        assert dynamical_verdict(rec)[0] == "undecided"
        assert dynamical_verdict(rec, decay_ratio=0.5)[0] == "global-decaying"

    def test_prediction_agreement(self, evo_grid):
        decaying = dynamical_verdict(synthetic_record(evo_grid, self.DECAYING))
        blowup = dynamical_verdict(synthetic_record(evo_grid, self.FLAT, termination="blowup"))
        assert reconcile(*decaying, "scattering") == decaying
        assert reconcile(*blowup, "blowup") == blowup
        assert reconcile(*decaying, None) == decaying

    def test_prediction_disagreement(self, evo_grid):
        decaying = dynamical_verdict(synthetic_record(evo_grid, self.DECAYING))
        blowup = dynamical_verdict(synthetic_record(evo_grid, self.FLAT, termination="blowup"))
        trapped = dynamical_verdict(synthetic_record(evo_grid, self.FLAT, delta=[0.01] * 16),
                                    delta0=0.1)
        assert trapped[0] == "trapped"
        assert reconcile(*blowup, "scattering")[0] == "undecided"
        assert reconcile(*trapped, "scattering")[0] == "undecided"
        verdict, reason = reconcile(*decaying, "blowup")
        assert verdict == "undecided"
        assert "blowup disagrees with dynamical verdict global-decaying" in reason
        # inconclusive evidence stays undecided whatever the prediction
        flat = dynamical_verdict(synthetic_record(evo_grid, self.FLAT))
        assert reconcile(*flat, "scattering") == flat

    def test_run_summary_carries_evidence(self, tmp_path):
        import json
        from qnls6.cli import main
        cfg = tmp_path / "evo.ini"
        cfg.write_text("scenario = evolve\n[grid]\nn = 128\nr_max = 60\nstretch = 9\n"
                       "[physics]\nkappa = 0.5\n[evolution]\ndt = 0.002\nt_end = 0.2\n"
                       "monitor_stride = 20\n[sweep]\nrecipe = qscale:0.5\n")
        out = tmp_path / "evo"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        run0 = json.loads((out / "evolve.summary.json").read_text())["runs"][0]
        # H is quadratic in the data; E(Q/2)/E(Q) = 1/2 by the Pohozaev identity
        assert run0["H_ratio"] == pytest.approx(0.25, rel=1e-12)
        assert run0["E_ratio"] == pytest.approx(0.5, rel=1e-2)
        assert run0["variational_prediction"] == "scattering"
        # a 0.2-unit run is too short for the core to empty
        assert run0["dynamical_verdict"] == "undecided"
        assert run0["classification"] == "undecided"
        assert run0["reason"] == f"local L4 ratio {run0['l4_ratio']:.3g} not below 0.2"

    def test_threshold_recipe_has_no_prediction(self, tmp_path):
        # G- is built on the discrete-background Q and E(G-) = E(Q) holds for
        # that Q; against it E_ratio is 0.99951 here, inside the threshold band
        import json
        from qnls6.cli import main
        cfg = tmp_path / "gm.ini"
        cfg.write_text("scenario = evolve\n[grid]\nn = 128\nr_max = 60\nstretch = 9\n"
                       "[physics]\nkappa = 0.5\n[evolution]\ndt = 0.002\nt_end = 0.2\n"
                       "monitor_stride = 20\n[special]\norder = 2\ndt = 0.004\n"
                       "data_eps = 0.05\nn_snapshots = 24\n[sweep]\nrecipe = gminus\n")
        out = tmp_path / "gm"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        run0 = json.loads((out / "evolve.summary.json").read_text())["runs"][0]
        assert abs(run0["E_ratio"] - 1.0) < THRESHOLD_E_BAND
        assert run0["H_ratio"] < 1.0
        assert run0["variational_prediction"] == "none"

    def test_variational_prediction(self):
        assert variational_prediction(0.84375, 0.5625) == "scattering"   # 0.75 Q
        assert variational_prediction(0.676, 1.69) == "blowup"           # 1.3 Q
        assert variational_prediction(-0.5, 2.0) == "blowup"
        # at the threshold energy (within its certified band) or above it
        assert variational_prediction(0.9995, 0.9) is None
        assert variational_prediction(1.2, 0.5) is None


class TestVirialMonitors:
    # identity deviation is purely spatial (O(h^2)): 2.6e-3 at n=384 on this
    # box, 6.4e-4 at n=768; the acceptance suite enforces 1e-3 at production
    # resolution, the module test certifies the machinery at 5e-3.

    @pytest.fixture(scope="class")
    def virial_grid(self):
        return RadialGrid(n=384, r_max=120.0, stretch=9.0)

    @pytest.fixture(scope="class")
    def record(self, virial_grid):
        u = gaussian_pair(virial_grid)
        cfg = EvolutionConfig(dt=5e-4, t_end=0.6, monitor_stride=10,
                              virial_radii=(5.0, math.inf))
        return run(u, cfg)

    def test_identity_finite_R(self, record):
        assert check_virial_identity(record, 5.0) < 5e-3

    def test_identity_infinite_R(self, record):
        assert check_virial_identity(record, math.inf) < 5e-3

    def test_identity_all_kappa(self, virial_grid):
        # the virial identity holds for every kappa (not only mass resonance)
        u = gaussian_pair(virial_grid, kappa=1.0)
        cfg = EvolutionConfig(dt=5e-4, t_end=0.6, monitor_stride=10,
                              virial_radii=(math.inf,))
        rec = run(u, cfg)
        assert check_virial_identity(rec, math.inf) < 5e-3

    def test_vr_resonance_distinction(self, virial_grid):
        # d/dt V_R = I_R + 2(2k-1) Im int w_R u^2 conj(v): closes at k = 1/2,
        # fails off resonance once Im(u^2 conj v) is switched on by a phase
        r = virial_grid.nodes
        devs = {}
        for kappa in (0.5, 1.0):
            u = FieldPair(virial_grid, 0.8 * np.exp(-r * r),
                          0.5 * np.exp(1j * np.pi / 3) * np.exp(-r * r / 2), kappa)
            cfg = EvolutionConfig(dt=5e-4, t_end=0.6, monitor_stride=10, virial_radii=(5.0,))
            devs[kappa] = vr_identity_defect(run(u, cfg), 5.0)
        assert devs[0.5] < 8e-3
        assert devs[1.0] > 3 * devs[0.5]

    def test_static_q_both_sides_vanish(self, evo_bundle):
        cfg = EvolutionConfig(dt=1e-3, t_end=0.5, monitor_stride=10, virial_radii=(math.inf,))
        rec = run(evo_bundle.q_vec, cfg)
        scale = abs(rec.H[0]) * 8 * 0.5
        assert np.max(np.abs(rec.F_R[math.inf])) < 2e-2 * scale
        assert np.max(np.abs(rec.I_R[math.inf])) < 1e-4 * scale


class TestCheckpoint:
    def test_roundtrip(self, evo_grid, tmp_path):
        rng = np.random.default_rng(204)
        u = random_pair(evo_grid, 0.5, rng)
        p = tmp_path / "state.chk"
        write_checkpoint(str(p), u, 1.25)
        loaded, t = read_checkpoint(str(p), evo_grid)
        assert t == 1.25
        assert np.array_equal(loaded.u, u.u)
        assert np.array_equal(loaded.v, u.v)
        # byte-identical rewrite
        p2 = tmp_path / "state2.chk"
        write_checkpoint(str(p2), loaded, t)
        assert p.read_bytes() == p2.read_bytes()

    def test_grid_mismatch(self, evo_grid, tmp_path):
        u = gaussian_pair(evo_grid)
        p = tmp_path / "state.chk"
        write_checkpoint(str(p), u, 0.0)
        other = RadialGrid(n=64, r_max=120.0, stretch=19.0)
        with pytest.raises(GridError):
            read_checkpoint(str(p), other)

    def test_stretch_mismatch(self, tmp_path):
        # same n and r_max: only the stretch in the header tells them apart
        g3 = RadialGrid(n=64, r_max=60.0, stretch=3.0)
        g9 = RadialGrid(n=64, r_max=60.0, stretch=9.0)
        p = tmp_path / "state.chk"
        write_checkpoint(str(p), gaussian_pair(g3), 0.0)
        with pytest.raises(GridError, match="does not match"):
            read_checkpoint(str(p), g9)
        loaded, _ = read_checkpoint(str(p), RadialGrid(n=64, r_max=60.0, stretch=3.0))
        assert loaded.grid == g3

    @pytest.mark.parametrize("keep", [10, -3, -16])
    def test_truncated(self, evo_grid, tmp_path, keep):
        p = tmp_path / "state.chk"
        write_checkpoint(str(p), gaussian_pair(evo_grid), 0.0)
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(GridError, match="truncated"):
            read_checkpoint(str(p), evo_grid)


def assert_same_record(a: TrajectoryRecord, b: TrajectoryRecord):
    for name in ("times", "H", "P", "E", "mass", "delta", "l4_density"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    for name in ("I_R", "F_R", "V_R"):
        sa, sb = getattr(a, name), getattr(b, name)
        assert sa.keys() == sb.keys()
        assert all(np.array_equal(sa[R], sb[R]) for R in sa), name
    assert (a.termination, a.diagnostic, a.steps, a.min_dt, a.final_time) == \
        (b.termination, b.diagnostic, b.steps, b.min_dt, b.final_time)
    assert np.array_equal(a.final_state.u, b.final_state.u)
    assert np.array_equal(a.final_state.v, b.final_state.v)
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    for (_, pa), (_, pb) in zip(a.snapshots, b.snapshots):
        assert np.array_equal(pa.u, pb.u) and np.array_equal(pa.v, pb.v)


class TestBatch:
    @pytest.mark.parametrize("reference, scale", [("own", 2.0), ("Q", 1.5)])
    def test_fused_members_equal_solo_runs(self, evo_grid, evo_bundle, reference, scale):
        # member 1 crosses blowup_H_factor and leaves the batch mid-run; the
        # members on either side of it go on to t_end
        from qnls6.functionals import hamiltonian
        members = [0.7 * evo_bundle.q_vec, scale * evo_bundle.q_vec, gaussian_pair(evo_grid)]
        h_ref = None if reference == "own" else hamiltonian(evo_bundle.q_vec)
        cfg = EvolutionConfig(dt=2e-3, t_end=4.0, monitor_stride=7, blowup_H_factor=3.0,
                              snapshot_stride=9, snapshot_times=(0.5, 1.0, 3.3),
                              virial_radii=(5.0, math.inf), sponge=True)
        batch = run_batch(members, cfg, reference_H=h_ref)
        assert [rec.termination for rec in batch] == ["completed", "blowup", "completed"]
        assert batch[1].steps < batch[0].steps
        for u0, rec in zip(members, batch):
            assert_same_record(rec, run(u0, cfg, reference_H=h_ref))

    def test_backward_members_equal_solo_runs(self, evo_grid, evo_bundle):
        # 200 steps back from 0.6 at stride 5, with all 7 requested snapshots;
        # each member is measured against its own H
        rng = np.random.default_rng(205)
        tq = evo_bundle.t_q
        members = [tq, tq + random_pair(evo_grid, 0.5, rng, scale=1e-2)]
        cfg = EvolutionConfig(dt=3e-3, t_end=0.0, system="transformed", monitor_stride=5,
                              snapshot_times=tuple(np.linspace(0.6, 0.0, 7)))
        batch = run_batch(members, cfg, reference_H=None, t0=0.6)
        for u0, rec in zip(members, batch):
            assert (rec.termination, rec.steps, len(rec.snapshots)) == ("completed", 200, 7)
            assert_same_record(rec, run(u0, cfg, reference_H=None, t0=0.6))

    @pytest.mark.parametrize("scheme", ["strang-split", "crank-nicolson"])
    def test_unfused_members_equal_solo_runs(self, evo_grid, evo_bundle, scheme):
        members = [gaussian_pair(evo_grid), 1.3 * evo_bundle.q_vec]
        cfg = EvolutionConfig(dt=2e-3, t_end=0.6, adapt=True, scheme=scheme,
                              monitor_stride=10, snapshot_stride=4)
        batch = run_batch(members, cfg)
        for u0, rec in zip(members, batch):
            assert_same_record(rec, run(u0, cfg))

    @pytest.mark.parametrize("adapt", [False, True])
    def test_per_member_reference_H(self, evo_grid, evo_bundle, adapt):
        # threshold data are measured against another Q than the rest of a sweep
        from qnls6.functionals import hamiltonian
        members = [0.7 * evo_bundle.q_vec, 1.5 * evo_bundle.q_vec, gaussian_pair(evo_grid)]
        refs = [None, hamiltonian(evo_bundle.q_vec), 2.0]
        cfg = EvolutionConfig(dt=2e-3, t_end=0.5, monitor_stride=7, blowup_H_factor=3.0,
                              adapt=adapt)
        batch = run_batch(members, cfg, reference_H=refs)
        assert np.all(np.isnan(batch[0].delta)) and np.all(np.isfinite(batch[1].delta))
        for u0, ref, rec in zip(members, refs, batch):
            assert_same_record(rec, run(u0, cfg, reference_H=ref))
        with pytest.raises(ValueError, match="reference_H"):
            run_batch(members, cfg, reference_H=refs[:2])

    def test_overflowing_member_warns_nothing(self):
        # the n = 96 8 Q run of the next test, without np.errstate: the RK4
        # overflow of a member that ends as "instability" raises no
        # RuntimeWarning (which pytest turns into an error)
        grid = RadialGrid(n=96, r_max=60.0, stretch=9.0)
        q = build_bundle(grid, 0.5).q_vec
        cfg = EvolutionConfig(dt=0.05, t_end=50, blowup_H_factor=1e300)
        batch = run_batch([0.5 * q, 8.0 * q], cfg)
        assert [rec.termination for rec in batch] == ["completed", "instability"]
        assert run(8.0 * q, cfg).termination == "instability"

    def test_non_finite_member_ends_in_instability(self):
        # 8 Q overflows to inf/nan within 20 steps of dt = 0.05, long before
        # any H bound; the overflow warnings are the point of the test
        grid = RadialGrid(n=96, r_max=60.0, stretch=9.0)
        q = build_bundle(grid, 0.5).q_vec
        members = [0.5 * q, 8.0 * q, gaussian_pair(grid)]
        cfg = EvolutionConfig(dt=0.05, t_end=50, blowup_H_factor=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = run_batch(members, cfg)
            solo = [run(u0, cfg) for u0 in members]
        bad = batch[1]
        assert (bad.termination, bad.diagnostic) == ("instability", "non-finite state")
        assert bad.final_time == bad.times[-1]
        assert np.all(np.isfinite(bad.final_state.u)) and np.all(np.isfinite(bad.final_state.v))
        assert [rec.termination for rec in batch] == ["completed", "instability", "completed"]
        for a, b in zip(batch, solo):
            assert_same_record(a, b)

    def test_members_share_grid_and_kappa(self, evo_grid):
        other = RadialGrid(n=64, r_max=120.0, stretch=19.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=1e-2)
        with pytest.raises(ValueError, match="share"):
            run_batch([gaussian_pair(evo_grid), gaussian_pair(other)], cfg)
        with pytest.raises(ValueError, match="share"):
            run_batch([gaussian_pair(evo_grid), gaussian_pair(evo_grid, kappa=1.0)], cfg)

    def test_batched_functionals_equal_single_ones(self, evo_grid):
        rng = np.random.default_rng(206)
        pairs = [random_pair(evo_grid, 0.5, rng) for _ in range(3)]
        U = np.array([p.u for p in pairs])
        V = np.array([p.v for p in pairs])
        for name, fn in (("discrete_H", lambda u, v: discrete_H(evo_grid, 0.5, u, v, "original")),
                         ("discrete_P", lambda u, v: discrete_P(evo_grid, u, v)),
                         ("discrete_mass", lambda u, v: discrete_mass(evo_grid, u, v))):
            rows = fn(U, V)
            assert np.array_equal(rows, [fn(p.u, p.v) for p in pairs]), name
        Ub, Vb = linear_step(evo_grid, 0.5, U, V, 1e-3)
        for j, p in enumerate(pairs):
            u1, v1 = linear_step(evo_grid, 0.5, p.u, p.v, 1e-3)
            assert np.array_equal(Ub[j], u1) and np.array_equal(Vb[j], v1)


class TestOneLoop:
    """Both schemes and both step rules step through one loop."""

    def test_crank_nicolson_members_equal_solo_runs(self, evo_grid, evo_bundle):
        # as in test_fused_members_equal_solo_runs: member 1 leaves the batch mid-run
        members = [0.7 * evo_bundle.q_vec, 2.0 * evo_bundle.q_vec, gaussian_pair(evo_grid)]
        cfg = EvolutionConfig(dt=2e-3, t_end=3.0, scheme="crank-nicolson", monitor_stride=7,
                              blowup_H_factor=3.0, snapshot_stride=9,
                              snapshot_times=(0.5, 2.9), virial_radii=(5.0,), sponge=True)
        batch = run_batch(members, cfg)
        assert [rec.termination for rec in batch] == ["completed", "blowup", "completed"]
        for u0, rec in zip(members, batch):
            assert_same_record(rec, run(u0, cfg))

    def test_adaptive_run_that_never_halves_matches_fixed_steps(self, evo_grid):
        u = gaussian_pair(evo_grid, amp=0.5)
        cfg = EvolutionConfig(dt=2e-3, t_end=0.5, monitor_stride=25)
        fixed = run(u, cfg)
        adaptive = run(u, EvolutionConfig(dt=2e-3, t_end=0.5, monitor_stride=25, adapt=True))
        assert adaptive.min_dt == cfg.dt
        assert len(adaptive.times) == len(fixed.times) and adaptive.steps == fixed.steps
        w = evo_grid.cell_masses
        a, f = adaptive.final_state, fixed.final_state
        diff = np.sum(w * (np.abs(a.u - f.u) ** 2 + np.abs(a.v - f.v) ** 2))
        assert math.sqrt(diff / np.sum(w * (np.abs(f.u) ** 2 + np.abs(f.v) ** 2))) <= 1e-12

    @pytest.mark.parametrize("adapt", [False, True])
    def test_strang_step_costs_one_solve_per_pole_and_component(self, evo_grid, monkeypatch,
                                                                adapt):
        import qnls6.evolution as evolution
        calls = []
        solve = evolution._shifted_solve
        monkeypatch.setattr(evolution, "_shifted_solve",
                            lambda *args: calls.append(args[1]) or solve(*args))
        u = gaussian_pair(evo_grid, amp=0.5)
        counts = []
        for steps in (10, 20):
            calls.clear()
            run(u, EvolutionConfig(dt=1e-3, t_end=steps * 1e-3, monitor_stride=1000,
                                   adapt=adapt))
            counts.append(len(calls))
        assert counts[1] - counts[0] == 4 * 10

    def test_crank_nicolson_honours_the_sponge(self):
        # a pulse in the sponge layer: both schemes damp it alike
        grid = RadialGrid(n=128, r_max=20.0)
        r = grid.nodes
        pulse = np.exp(-(r - 12.0) ** 2)
        u = FieldPair(grid, 0.1 * pulse, 0.1 * pulse, 0.5)
        m0 = discrete_mass(grid, u.u, u.v)
        loss = {}
        for scheme in ("strang-split", "crank-nicolson"):
            f = run(u, EvolutionConfig(dt=1e-3, t_end=1.0, scheme=scheme, sponge=True,
                                       sponge_strength=5.0)).final_state
            loss[scheme] = (m0 - discrete_mass(grid, f.u, f.v)) / m0
        assert loss["strang-split"] > 1e-6
        assert 1 / 3 < loss["crank-nicolson"] / loss["strang-split"] < 3


class TestSnapshotTimes:
    def test_final_point_takes_snapshot_due_within_half_a_step(self, evo_grid):
        # round(4.35) = 4 steps end 0.35 dt short of t_end, beyond dt/4
        cfg = EvolutionConfig(dt=0.01, t_end=0.0435, monitor_stride=1,
                              snapshot_times=(0.0, 0.02, 0.0435))
        rec = run(gaussian_pair(evo_grid), cfg)
        assert rec.final_time == pytest.approx(0.04)
        assert [t for t, _ in rec.snapshots] == pytest.approx([0.0, 0.02, 0.04])

    def test_interior_points_keep_the_quarter_step_rule(self, evo_grid):
        cfg = EvolutionConfig(dt=0.01, t_end=0.05, monitor_stride=1,
                              snapshot_times=(0.0135, 0.05))
        rec = run(gaussian_pair(evo_grid), cfg)
        assert [t for t, _ in rec.snapshots] == pytest.approx([0.02, 0.05])


class TestFixedPoint:
    """run_batch(..., fixed_point=T): the fixed-step Strang maps balanced at T."""

    CFG = EvolutionConfig(dt=3e-3, t_end=0.0, system="transformed", monitor_stride=7,
                          snapshot_times=tuple(np.linspace(0.6, 0.0, 5)))

    def test_balanced_members_equal_solo_runs(self, evo_grid, evo_bundle):
        # 200 steps at stride 7: payments mid-run and one owed at the end
        rng = np.random.default_rng(207)
        tq = evo_bundle.t_q
        members = [tq + random_pair(evo_grid, 0.5, rng, scale=1e-2), tq]
        batch = run_batch(members, self.CFG, reference_H=None, t0=0.6, fixed_point=tq)
        for u0, rec in zip(members, batch):
            assert (rec.termination, rec.steps, len(rec.snapshots)) == ("completed", 200, 5)
            assert_same_record(rec, run_batch([u0], self.CFG, reference_H=None, t0=0.6,
                                              fixed_point=tq)[0])
        assert np.array_equal(batch[1].final_state.u, tq.u)
        assert np.array_equal(batch[1].final_state.v, tq.v)

    def test_balancing_removes_the_drift_of_the_fixed_point(self, evo_grid, evo_bundle):
        # near T the raw and balanced runs differ by T's own drift, to first order
        rng = np.random.default_rng(208)
        tq = evo_bundle.t_q
        u0 = tq + random_pair(evo_grid, 0.5, rng, scale=1e-3)
        raw_u0, raw_tq = (rec.final_state for rec in run_batch([u0, tq], self.CFG, t0=0.6))
        bal_u0 = run_batch([u0], self.CFG, t0=0.6, fixed_point=tq)[0].final_state
        drift = h1dot_norm(raw_tq - tq)
        assert drift > 1e-6
        assert h1dot_norm((raw_u0 - bal_u0) - (raw_tq - tq)) < 1e-2 * drift

    @pytest.mark.parametrize("change", [dict(adapt=True), dict(scheme="crank-nicolson"),
                                        dict(sponge=True)], ids=["adapt", "cn", "sponge"])
    def test_refuses_maps_it_cannot_balance(self, evo_bundle, change):
        tq = evo_bundle.t_q
        cfg = EvolutionConfig(dt=1e-3, t_end=1e-2, system="transformed", **change)
        with pytest.raises(ValueError, match="fixed_point"):
            run_batch([tq], cfg, fixed_point=tq)

    def test_fixed_point_shares_the_grid(self, evo_grid, evo_bundle):
        other = build_bundle(RadialGrid(n=64, r_max=120.0, stretch=19.0), kappa=0.5).t_q
        cfg = EvolutionConfig(dt=1e-3, t_end=1e-2, system="transformed")
        with pytest.raises(ValueError, match="fixed_point"):
            run_batch([evo_bundle.t_q], cfg, fixed_point=other)


class TestAdaptiveGrowthCheck:
    def test_step_non_finite_only_in_v_is_halved(self, evo_grid, monkeypatch):
        # the fifth RK4 call puts a NaN in v alone; the adaptive run retries
        # that step at h/2 and goes on, as it would for a NaN in u
        import qnls6.evolution as evolution
        rk4, calls = evolution._rk4, []

        def nan_in_v(u, v, dt, c1):
            un, vn = rk4(u, v, dt, c1)
            calls.append(dt)
            if len(calls) == 5:
                vn[..., 0] = math.nan
            return un, vn

        monkeypatch.setattr(evolution, "_rk4", nan_in_v)
        cfg = EvolutionConfig(dt=2e-3, t_end=0.1, monitor_stride=10, adapt=True)
        rec = run(gaussian_pair(evo_grid, amp=0.5), cfg)
        assert (rec.termination, rec.min_dt) == ("completed", cfg.dt / 2)
        assert calls[5] == calls[4] / 2
        assert np.all(np.isfinite(rec.final_state.u)) and np.all(np.isfinite(rec.final_state.v))

    def test_step_collapse_ends_at_a_monitor_point(self, evo_grid, evo_bundle, monkeypatch):
        # 1.1 Q halves its step below the patched DT_MIN near t = 11.17, between
        # two monitor points at stride 20: the record ends on the final state
        import qnls6.evolution as evolution
        monkeypatch.setattr(evolution, "DT_MIN", 1.1e-3)
        recs = [run(1.1 * evo_bundle.q_vec,
                    EvolutionConfig(dt=4e-3, t_end=40.0, adapt=True, blowup_H_factor=1e12,
                                    monitor_stride=stride))
                for stride in (1, 20)]
        for rec in recs:
            assert (rec.termination, rec.diagnostic) == ("blowup", "step collapse")
            f = rec.final_state
            assert rec.H[-1] == discrete_H(evo_grid, evo_bundle.kappa, f.u, f.v, "original")
            assert rec.times[-1] == rec.final_time and np.all(np.diff(rec.times) > 0)
        assert recs[0].final_time == recs[1].final_time
        assert recs[0].steps == recs[1].steps


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestProcessSplit:
    """run_batch with its members stepped in forked processes (two usable CPUs,
    no work floor): the records equal those stepped in one process bit for bit."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids run_batch forks; the split is on, with two usable CPUs."""
        import qnls6.evolution as evolution
        pids, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(evolution, "SPLIT_WORK_FLOOR", 0)
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        return pids

    @staticmethod
    def in_one_process(monkeypatch, call, *args, **kwargs):
        import qnls6.evolution as evolution
        with monkeypatch.context() as m:
            m.setattr(evolution, "_usable_cpus", lambda: 1)
            return call(*args, **kwargs)

    def test_balanced_legs_of_shoot_legs(self, forks, monkeypatch, bundle_mid_discrete,
                                         spectral_mid_discrete):
        from qnls6.special import approx_profiles, leg_snapshot_times, shoot_legs
        bundle, spectral = bundle_mid_discrete, spectral_mid_discrete
        sols = [approx_profiles(bundle, spectral, a, 3) for a in (1.0, -1.0)]
        t_far = math.log(1.0 / 0.1) / spectral.lambda1
        _, split = shoot_legs(bundle, spectral, sols, t_far, 1e-2, leg_snapshot_times(t_far, 12))
        assert len(forks) == 1
        _, alone = self.in_one_process(monkeypatch, shoot_legs, bundle, spectral, sols,
                                       t_far, 1e-2, leg_snapshot_times(t_far, 12))
        assert len(forks) == 1
        for a, b in zip(split, alone):
            assert_same_record(a.record, b.record)
        assert_no_child_left()

    @pytest.mark.parametrize("scheme", ["strang-split", "crank-nicolson"])
    def test_adaptive_members(self, forks, monkeypatch, evo_grid, evo_bundle, scheme):
        members = [gaussian_pair(evo_grid), 1.3 * evo_bundle.q_vec, gaussian_pair(evo_grid, amp=0.5)]
        cfg = EvolutionConfig(dt=2e-3, t_end=0.6, adapt=True, scheme=scheme,
                              monitor_stride=10, snapshot_stride=4)
        split = run_batch(members, cfg)
        assert len(forks) == 1
        for a, b in zip(split, self.in_one_process(monkeypatch, run_batch, members, cfg)):
            assert_same_record(a, b)
        assert_no_child_left()

    def test_member_that_blows_up_in_a_child(self, forks, monkeypatch, evo_grid, evo_bundle):
        # groups [0, 1] here and [2] in the child, whose member leaves mid-run
        members = [0.7 * evo_bundle.q_vec, gaussian_pair(evo_grid), 2.0 * evo_bundle.q_vec]
        cfg = EvolutionConfig(dt=2e-3, t_end=3.0, monitor_stride=7, blowup_H_factor=3.0,
                              snapshot_stride=9, snapshot_times=(0.5, 2.9),
                              virial_radii=(5.0, math.inf), sponge=True)
        split = run_batch(members, cfg)
        assert len(forks) == 1
        assert [rec.termination for rec in split] == ["completed", "completed", "blowup"]
        for a, b in zip(split, self.in_one_process(monkeypatch, run_batch, members, cfg)):
            assert_same_record(a, b)
        assert_no_child_left()

    def test_backward_members_with_snapshot_times(self, forks, monkeypatch, evo_grid,
                                                  evo_bundle):
        rng = np.random.default_rng(209)
        tq = evo_bundle.t_q
        members = [tq, tq + random_pair(evo_grid, 0.5, rng, scale=1e-2)]
        cfg = EvolutionConfig(dt=3e-3, t_end=0.0, system="transformed", monitor_stride=5,
                              snapshot_times=tuple(np.linspace(0.6, 0.0, 7)))
        split = run_batch(members, cfg, t0=0.6)
        assert len(forks) == 1
        alone = self.in_one_process(monkeypatch, run_batch, members, cfg, t0=0.6)
        for a, b in zip(split, alone):
            assert (a.termination, len(a.snapshots)) == ("completed", 7)
            assert_same_record(a, b)
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, count, children", [(1, 3, 0), (3, 2, 1), (3, 5, 2),
                                                       (8, 3, 2)])
    def test_at_most_one_child_per_usable_cpu_but_one(self, forks, monkeypatch, evo_grid,
                                                      cpus, count, children):
        import qnls6.evolution as evolution
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        members = [gaussian_pair(evo_grid, amp=0.3 + 0.1 * j) for j in range(count)]
        cfg = EvolutionConfig(dt=2e-3, t_end=0.1, monitor_stride=10)
        split = run_batch(members, cfg)
        assert len(forks) == children
        for a, b in zip(split, self.in_one_process(monkeypatch, run_batch, members, cfg)):
            assert_same_record(a, b)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [
        "qnls6.spectrum.SpectrumError", "qnls6.special.ShootingError",
        "numpy.linalg.LinAlgError"])
    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_an_error_reaches_the_caller(self, forks, monkeypatch, evo_grid, error, where):
        # raised in the child, it is re-raised here with its type and message;
        # raised here, the child is killed and reaped
        import importlib
        import qnls6.evolution as evolution
        module, name = error.rsplit(".", 1)
        cls = getattr(importlib.import_module(module), name)
        parent, rk4 = os.getpid(), evolution._rk4

        def failing(u, v, dt, c1):
            if (os.getpid() == parent) == (where == "parent"):
                raise cls(f"stage failed in the {where}")
            return rk4(u, v, dt, c1)

        monkeypatch.setattr(evolution, "_rk4", failing)
        members = [gaussian_pair(evo_grid), gaussian_pair(evo_grid, amp=0.5)]
        with pytest.raises(cls, match=f"^stage failed in the {where}$") as info:
            run_batch(members, EvolutionConfig(dt=2e-3, t_end=0.2))
        assert type(info.value) is cls
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_child_that_dies_is_a_numerical_failure(self, forks, monkeypatch, evo_grid):
        # a child killed before it sends its records (say, out of memory)
        import signal
        import qnls6.evolution as evolution
        parent, rk4 = os.getpid(), evolution._rk4

        def killed(u, v, dt, c1):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return rk4(u, v, dt, c1)

        monkeypatch.setattr(evolution, "_rk4", killed)
        members = [gaussian_pair(evo_grid), gaussian_pair(evo_grid, amp=0.5)]
        with pytest.raises(RuntimeError, match=r"failed \(exit status -9\)"):
            run_batch(members, EvolutionConfig(dt=2e-3, t_end=0.2))
        assert_no_child_left()

    def test_validation_comes_before_any_fork(self, forks, evo_grid, evo_bundle):
        members = [gaussian_pair(evo_grid), gaussian_pair(evo_grid, amp=0.5)]
        cfg = EvolutionConfig(dt=1e-3, t_end=1e-2)
        with pytest.raises(ValueError, match="reference_H"):
            run_batch(members, cfg, reference_H=[1.0])
        with pytest.raises(ValueError, match="share"):
            run_batch([members[0], gaussian_pair(evo_grid, kappa=1.0)], cfg)
        with pytest.raises(ValueError, match="fixed_point"):
            run_batch(members, EvolutionConfig(dt=1e-3, t_end=1e-2, adapt=True),
                      fixed_point=evo_bundle.q_vec)
        assert forks == []


class TestSideBySide:
    """side_by_side: the first call here and each other in a forked child, or
    all here in order when the process cannot fork safely or has one CPU."""

    @pytest.fixture
    def forks(self, counted_forks, monkeypatch):
        """The pids side_by_side forks, with three usable CPUs."""
        import qnls6.evolution as evolution
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 3)
        return counted_forks

    @staticmethod
    def calls(count):
        """Calls returning (their index, the pid they ran in, an array)."""
        return [lambda k=k: (k, os.getpid(), np.arange(70000.0) * k) for k in range(count)]

    def test_results_come_back_in_call_order(self, forks):
        results = side_by_side(self.calls(3))
        assert [k for k, _, _ in results] == [0, 1, 2]
        pids = [pid for _, pid, _ in results]
        assert pids[0] == os.getpid() and pids[1:] == forks and len(set(forks)) == 2
        for k, _, values in results:     # more than a pipe buffer each
            assert np.array_equal(values, np.arange(70000.0) * k)
        assert_no_child_left()

    @pytest.mark.parametrize("index", [1, 2])
    @pytest.mark.parametrize("error", [
        "qnls6.spectrum.SpectrumError", "numpy.linalg.LinAlgError", "builtins.ValueError"])
    def test_an_error_of_a_child_is_raised_with_its_type(self, forks, index, error):
        import importlib
        module, name = error.rsplit(".", 1)
        cls = getattr(importlib.import_module(module), name)

        def failing():
            raise cls(f"call {index} failed")
        calls = self.calls(3)
        calls[index] = failing
        with pytest.raises(cls, match=f"^call {index} failed$") as info:
            side_by_side(calls)
        assert type(info.value) is cls
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("why", ["one-cpu", "live-thread", "no-fork"])
    def test_runs_in_order_here_when_it_cannot_fork(self, forks, monkeypatch, why):
        import threading
        import qnls6.evolution as evolution
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        if why == "one-cpu":
            monkeypatch.setattr(evolution, "_usable_cpus", lambda: 1)
        elif why == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            thread.start()
        order = []
        calls = [lambda k=k: order.append(k) or os.getpid() for k in range(3)]
        try:
            assert side_by_side(calls) == [os.getpid()] * 3
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=30)
        assert order == [0, 1, 2] and forks == [] and not thread.is_alive()
        assert_no_child_left()


class TestUsableCpus:
    """_usable_cpus: the CPU affinity, capped by the cgroup's CPU quota."""

    @pytest.fixture
    def cgroup(self, tmp_path, monkeypatch):
        """write(v2, v1): the cgroup v2 cpu.max text and the v1 (quota, period)
        texts, None for a file that cannot be read; four CPUs of affinity."""
        import qnls6.evolution as evolution
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

        def write(v2, v1=None):
            texts = {"cpu.max": v2, "cpu.cfs_quota_us": v1 and v1[0],
                     "cpu.cfs_period_us": v1 and v1[1]}
            for name, text in texts.items():
                if text is not None:
                    (tmp_path / name).write_text(text + "\n")
            monkeypatch.setattr(evolution, "CGROUP_CPU_FILES", (
                (str(tmp_path / "cpu.max"),),
                (str(tmp_path / "cpu.cfs_quota_us"), str(tmp_path / "cpu.cfs_period_us"))))
        return write

    @pytest.mark.parametrize("v2, v1, cpus", [
        ("100000 100000", None, 1), ("250000 100000", None, 2), ("50000 100000", None, 1),
        ("1000000 100000", None, 4), ("max 100000", None, 4),
        (None, ("100000", "100000"), 1), (None, ("-1", "100000"), 4),
        ("garbage", ("300000", "100000"), 3), (None, None, 4), (None, ("100000", None), 4),
    ], ids=["v2-one", "v2-two-and-a-half", "v2-half", "v2-above-affinity", "v2-max",
            "v1-one", "v1-none", "v2-malformed-v1-three", "unreadable", "v1-no-period"])
    def test_quota_caps_the_affinity(self, cgroup, v2, v1, cpus):
        import qnls6.evolution as evolution
        cgroup(v2, v1)
        assert evolution._usable_cpus() == cpus

    def test_one_cpu_of_quota_forks_no_child(self, cgroup, monkeypatch, evo_grid):
        import qnls6.evolution as evolution

        def no_fork():
            raise AssertionError("a member process was forked")
        cgroup("100000 100000")
        monkeypatch.setattr(evolution, "SPLIT_WORK_FLOOR", 0)
        monkeypatch.setattr(os, "fork", no_fork)
        members = [gaussian_pair(evo_grid, amp=0.3), gaussian_pair(evo_grid, amp=0.4)]
        cfg = EvolutionConfig(dt=2e-3, t_end=0.02, monitor_stride=5)
        assert [rec.termination for rec in run_batch(members, cfg)] == ["completed"] * 2
