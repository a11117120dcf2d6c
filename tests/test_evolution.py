import math

import numpy as np
import pytest

from qnls6.evolution import (L4_BALL_RADIUS, THRESHOLD_E_BAND, EvolutionConfig,
                             RadialPropagator, TrajectoryRecord, check_virial_identity, detect,
                             dynamical_verdict, l4_decay_ratio, linear_propagator,
                             nonlinear_substep, read_checkpoint, reconcile, run,
                             variational_prediction, vr_identity_defect,
                             write_checkpoint)
from qnls6.grid import GridError, RadialGrid, h1dot_norm, pair_from_arrays
from qnls6.groundstate import apply_symmetry, build_bundle
from conftest import random_pair


@pytest.fixture(scope="module")
def evo_grid():
    return RadialGrid(n=192, r_max=120.0, stretch=19.0)


@pytest.fixture(scope="module")
def evo_bundle(evo_grid):
    return build_bundle(evo_grid, kappa=0.5, background="discrete")


def gaussian_pair(grid, kappa=0.5, amp=0.8):
    r = grid.nodes
    return pair_from_arrays(grid, amp * np.exp(-r * r), 0.5 * amp * np.exp(-r * r / 2), kappa)


class TestLinearPropagator:
    def test_zero_time_identity(self, evo_grid):
        u = gaussian_pair(evo_grid)
        out = linear_propagator(u, 0.0)
        assert np.allclose(out.u, u.u) and np.allclose(out.v, u.v)

    def test_discrete_mass_unitary(self, evo_grid):
        u = gaussian_pair(evo_grid)
        prop = RadialPropagator(evo_grid, u.kappa)
        m0 = prop.discrete_mass(u.u, u.v)
        out = linear_propagator(u, 0.37, prop)
        assert prop.discrete_mass(out.u, out.v) == pytest.approx(m0, rel=1e-13)

    def test_gaussian_free_evolution(self, evo_grid):
        # closed form on R^6: e^{it Lap} e^{-a r^2} = (1+4iat)^{-3} exp(-a r^2/(1+4iat))
        a, t = 1.0, 0.05
        kappa = 0.5
        r = evo_grid.nodes
        u = pair_from_arrays(evo_grid, np.exp(-a * r * r), np.exp(-a * r * r), kappa)
        out = linear_propagator(u, t)
        for comp, tau in ((out.u, t), (out.v, kappa * t)):
            z = 1.0 + 4j * a * tau
            exact = z ** -3 * np.exp(-a * r * r / z)
            core = r < 30.0
            # discrete-vs-continuum propagator gap is O(h^2) ~ 1e-3 here
            assert np.max(np.abs(comp[core] - exact[core])) < 5e-3


class TestNonlinearSubstep:
    def test_zero(self, evo_grid):
        z = pair_from_arrays(evo_grid, np.zeros(evo_grid.n), np.zeros(evo_grid.n), 0.5)
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
        assert detect(rec) == "blowup"

    def test_subthreshold_decays(self, evo_bundle):
        from qnls6.functionals import hamiltonian
        u = 0.7 * evo_bundle.q_vec
        cfg = EvolutionConfig(dt=1e-3, t_end=18.0, monitor_stride=50, sponge=True)
        rec = run(u, cfg, reference_H=hamiltonian(evo_bundle.q_vec))
        assert rec.termination == "completed"
        assert detect(rec) == "global-decaying"


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
        u = pair_from_arrays(evo_grid, shell, 0.5 * shell, 0.5)
        box = np.sum(self._cell_l4(evo_grid, u))
        assert box > 1.0
        assert self._density(u) < 1e-12 * box


def synthetic_record(grid, l4, termination="completed", delta=None, diagnostic=""):
    nt = len(l4)
    z = np.zeros(nt)
    zero = pair_from_arrays(grid, np.zeros(grid.n), np.zeros(grid.n), 0.5)
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
        assert detect(rec) == "blowup"
        assert dynamical_verdict(rec) == ("blowup", "step collapse")

    def test_instability_is_undecided(self, evo_grid):
        rec = synthetic_record(evo_grid, self.DECAYING, termination="instability",
                               diagnostic="non-finite state")
        assert detect(rec) == "undecided"
        assert "non-finite state" in dynamical_verdict(rec)[1]

    def test_trapped(self, evo_grid):
        delta = [1.0] * 8 + [0.01] * 8
        rec = synthetic_record(evo_grid, self.FLAT, delta=delta)
        assert detect(rec, delta0=0.1) == "trapped"
        # without delta0, or with a collapsing scale, the run is not trapped
        assert detect(rec) == "undecided"
        assert detect(rec, delta0=0.1, lambda_series=np.array([1.0, 100.0])) == "undecided"

    def test_global_decaying(self, evo_grid):
        rec = synthetic_record(evo_grid, self.DECAYING)
        assert l4_decay_ratio(rec) == pytest.approx(0.05)
        assert detect(rec) == "global-decaying"
        assert detect(rec, delta0=0.1) == "global-decaying"

    def test_undecided(self, evo_grid):
        rec = synthetic_record(evo_grid, self.FLAT)
        assert detect(rec) == "undecided"
        assert detect(synthetic_record(evo_grid, [0.0] * 16)) == "undecided"

    def test_decay_ratio_cut(self, evo_grid):
        rec = synthetic_record(evo_grid, [1.0] * 12 + [0.3] * 4)
        assert detect(rec) == "undecided"
        assert detect(rec, decay_ratio=0.5) == "global-decaying"

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
            u = pair_from_arrays(virial_grid, 0.8 * np.exp(-r * r),
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
