import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from qnls6.functionals import (VirialWeight, check_inequalities, energy, f_infinity_gap,
                               gap_delta, hamiltonian, hamiltonian_n, interaction,
                               mass_type_vr, phi_profile, variational_constants,
                               virial_F, virial_I)
from qnls6.grid import pair_from_arrays, radial_derivative
from qnls6.groundstate import apply_symmetry, q_closed_form
from conftest import random_pair


def zero_pair(grid, kappa=0.5):
    z = np.zeros(grid.n)
    return pair_from_arrays(grid, z, z, kappa)


class TestConserved:
    def test_zero(self, mid_grid):
        u = zero_pair(mid_grid)
        assert hamiltonian(u) == 0.0
        assert interaction(u) == 0.0
        assert energy(u) == 0.0

    def test_hamiltonian_at_q(self, bundle_mid):
        # H(bQ) = (3k/2) int |grad Q|^2; the gradient integral equals int Q^3
        k = bundle_mid.kappa
        grad2 = np.pi ** 3 * quad(lambda r: (r / 6.0) ** 2 * (1 + r * r / 24) ** -6 * r ** 5,
                                  0, np.inf)[0]
        assert hamiltonian(bundle_mid.q_vec) == pytest.approx(1.5 * k * grad2, rel=2e-3)

    def test_interaction_at_q(self, bundle_mid):
        k = bundle_mid.kappa
        q3 = np.pi ** 3 * 24.0 ** 3 / 60.0
        assert interaction(bundle_mid.q_vec) == pytest.approx(k * q3, rel=1e-5)

    def test_imaginary_second_component(self, mid_grid):
        r = mid_grid.nodes
        u = pair_from_arrays(mid_grid, np.exp(-r * r), 1j * np.exp(-r * r), 0.5)
        assert abs(interaction(u)) < 1e-14

    def test_energy_second_implementation(self, mid_grid):
        rng = np.random.default_rng(11)
        u = random_pair(mid_grid, 0.5, rng)
        # independent recomputation from raw samples
        w = mid_grid.quad_weights
        du = radial_derivative(u.first).values
        dv = radial_derivative(u.second).values
        H = np.sum(w * np.abs(du) ** 2) + 0.25 * np.sum(w * np.abs(dv) ** 2)
        P = np.real(np.sum(w * u.u ** 2 * np.conj(u.v)))
        assert energy(u) == pytest.approx(0.5 * H - 0.5 * P, rel=1e-12)

    def test_hn_relation(self, mid_grid):
        rng = np.random.default_rng(12)
        u = random_pair(mid_grid, 0.5, rng)
        assert hamiltonian_n(u) > hamiltonian(u)  # kappa vs kappa/2 weight


class TestGap:
    def test_zero_at_q(self, bundle_mid):
        assert gap_delta(bundle_mid.q_vec, bundle_mid) == 0.0

    def test_scaling_invariance(self, bundle_mid):
        moved = apply_symmetry(bundle_mid.q_vec, 0.9, 1.4)
        assert gap_delta(moved, bundle_mid) < 5e-4 * hamiltonian(bundle_mid.q_vec)

    def test_amplitude_ray(self, bundle_mid):
        a = 0.03
        u = (1.0 + a) * bundle_mid.q_vec
        expected = abs((1 + a) ** 2 - 1) * hamiltonian(bundle_mid.q_vec)
        assert gap_delta(u, bundle_mid) == pytest.approx(expected, rel=1e-10)


class TestVariational:
    def test_pohozaev_ratio(self, bundle_mid):
        consts = variational_constants(bundle_mid)
        assert consts["pohozaev_ratio"] == pytest.approx(1.5, rel=2e-3)

    def test_c_kappa_at_one(self, mid_grid):
        from qnls6.groundstate import build_bundle
        b = build_bundle(mid_grid, kappa=1.0)
        assert variational_constants(b)["C_kappa"] == pytest.approx(math.sqrt(8.0 / 27.0))

    def test_cgn_definition(self, bundle_mid):
        consts = variational_constants(bundle_mid)
        assert consts["C_GN"] * consts["H_Q"] ** 1.5 == pytest.approx(consts["P_Q"], rel=1e-12)

    def test_equality_at_q(self, bundle_mid):
        rep = check_inequalities([bundle_mid.q_vec], bundle_mid)
        assert abs(rep["worst_margins"]["gn"]) < 1e-10
        assert abs(rep["worst_margins"]["convexity"]) < 1e-10
        assert not rep["violations"]

    def test_random_sweep_holds(self, bundle_mid):
        rng = np.random.default_rng(17)
        samples = [random_pair(bundle_mid.grid, bundle_mid.kappa, rng, scale=0.3)
                   for _ in range(100)]
        rep = check_inequalities(samples, bundle_mid, tol=1e-9)
        assert not rep["violations"]
        assert rep["worst_margins"]["gn"] > -1e-9


class TestVirialWeight:
    def test_core_is_r_squared(self, mid_grid):
        w = VirialWeight.build(mid_grid, 10.0)
        core = mid_grid.nodes <= 10.0
        assert np.allclose(w.w[core], mid_grid.nodes[core] ** 2, rtol=1e-13)
        assert np.allclose(w.lap_w[core], 12.0)

    def test_curvature_bound(self):
        s = np.linspace(0.0, 3.0, 20001)
        _, _, d2, _, _ = phi_profile(s)
        assert np.max(d2) <= 2.0 + 1e-12

    def test_c3_junctions(self):
        eps = 1e-7
        for s0 in (1.0, 2.0):
            left = phi_profile(np.array([s0 - eps]))
            right = phi_profile(np.array([s0 + eps]))
            for der in range(4):  # phi, phi', phi'', phi''' all continuous
                assert left[der][0] == pytest.approx(right[der][0], abs=1e-4)

    def test_support_of_derivatives(self, mid_grid):
        w = VirialWeight.build(mid_grid, 5.0)
        outer = mid_grid.nodes >= 10.0
        for arr in (w.dw, w.d2w, w.lap_w, w.bilap_w):
            assert np.max(np.abs(arr[outer])) == 0.0

    def test_bilaplacian_against_finite_differences(self):
        # independent oracle: second radial derivative of Delta w plus 5/r term
        R = 3.0
        s = np.linspace(1.01, 1.99, 997)
        r = R * s
        h = 1e-3
        def lap_w(rr):
            phi, d1, d2, _, _ = phi_profile(rr / R)
            return d2 + 5.0 * d1 / (rr / R)
        num = ((lap_w(r + h) - 2 * lap_w(r) + lap_w(r - h)) / h ** 2
               + 5.0 / r * (lap_w(r + h) - lap_w(r - h)) / (2 * h))
        phi, d1, d2, d3, d4 = phi_profile(s)
        exact = (d4 + 10.0 * d3 / s + 15.0 * d2 / s ** 2 - 15.0 * d1 / s ** 3) / R ** 2
        assert np.max(np.abs(num - exact)) < 1e-4

    def test_rejects_small_radius(self, mid_grid):
        with pytest.raises(ValueError):
            VirialWeight.build(mid_grid, 0.5)


class TestVirialFunctionals:
    def test_i_vanishes_on_orbit(self, bundle_mid):
        w = VirialWeight.build(bundle_mid.grid, 5.0)
        for theta, lam in ((0.0, 1.0), (0.8, 1.3)):
            moved = apply_symmetry(bundle_mid.q_vec, theta, lam)
            assert abs(virial_I(moved, w)) < 1e-8

    def test_i_vanishes_on_real_pairs(self, mid_grid):
        rng = np.random.default_rng(19)
        u = random_pair(mid_grid, 0.5, rng, real=True)
        w = VirialWeight.build(mid_grid, 5.0)
        assert virial_I(u, w) == 0.0

    def test_i_gaussian_quadratic_phase(self, mid_grid):
        # closed-form oracle for u = e^{-r^2 + i b r^2}, v = 0, w = r^2 branch
        b = 0.35
        r = mid_grid.nodes
        u = pair_from_arrays(mid_grid, np.exp(-(1 - 1j * b) * r * r), np.zeros(mid_grid.n), 0.5)
        w = VirialWeight.build(mid_grid, math.inf)
        # I = 2k Im int 2r * 2 u' conj(u) r^5 dr * pi^3; u'conj(u) = -2r(1-ib)e^{-2r^2}
        oracle = 2 * 0.5 * np.pi ** 3 * quad(
            lambda x: 2 * x * 2 * (2 * x * b) * np.exp(-2 * x * x) * x ** 5, 0, np.inf)[0]
        assert virial_I(u, w) == pytest.approx(oracle, rel=5e-3)

    def test_f_infinity_at_q(self, bundle_mid):
        w = VirialWeight.build(bundle_mid.grid, math.inf)
        HQ = hamiltonian(bundle_mid.q_vec)
        assert abs(virial_F(bundle_mid.q_vec, w)) < 2e-2 * HQ  # 2H = 3P at Q

    def test_f_infinity_definition(self, mid_grid):
        rng = np.random.default_rng(23)
        u = random_pair(mid_grid, 0.5, rng)
        w = VirialWeight.build(mid_grid, math.inf)
        expected = 8 * 0.5 * (2 * hamiltonian(u) - 3 * interaction(u))
        assert virial_F(u, w) == pytest.approx(expected, rel=1e-12)

    def test_f_r_matches_f_infinity_for_localized_data(self, mid_grid):
        rng = np.random.default_rng(29)
        u = random_pair(mid_grid, 0.5, rng)  # gaussian envelope: supported in r <~ 6
        f_inf = virial_F(u, VirialWeight.build(mid_grid, math.inf))
        for R, tol in ((8.0, 1e-8), (20.0, 1e-10)):
            f_r = virial_F(u, VirialWeight.build(mid_grid, R))
            assert abs(f_r - f_inf) <= tol * max(abs(f_inf), 1.0)

    def test_signed_gap_on_threshold_states(self, bundle_mid):
        # scale a random pair so E(su) = E(Q); then F_inf = 8k (H(Q) - H(su)).
        # The ray hits the threshold because the scaled-energy hump
        # max_s E(s u) = (2/27) H^3/P^2 never falls below E(Q) when P > 0.
        rng = np.random.default_rng(31)
        base = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        if interaction(base) < 0:
            base = base.with_values(base.u, -base.v)
        EQ = energy(bundle_mid.q_vec)
        H0, P0 = hamiltonian(base), interaction(base)
        fn = lambda s: 0.5 * (s ** 2 * H0 - s ** 3 * P0) - EQ
        s_peak = 2.0 * H0 / (3.0 * P0)
        assert fn(s_peak) > 0
        s = brentq(fn, 1e-9, s_peak)
        u = s * base
        w = VirialWeight.build(bundle_mid.grid, math.inf)
        # exact algebra: F_inf = 8k (6E - H) and E(u) = E(Q) by construction
        EQ_form = 8 * u.kappa * (6 * EQ - hamiltonian(u))
        assert virial_F(u, w) == pytest.approx(EQ_form, rel=1e-9)
        # the H(Q)-gap form inherits the discrete Pohozaev error (~1e-3 at n=256)
        assert virial_F(u, w) == pytest.approx(f_infinity_gap(u, bundle_mid), rel=1e-2)

    def test_mass_type_weights(self, bundle_mid):
        # at kappa = 1/2 the default weights (2k, 1) coincide with (1, 1)
        w5 = VirialWeight.build(bundle_mid.grid, 5.0)
        v_default = mass_type_vr(bundle_mid.q_vec, w5)
        assert v_default == pytest.approx(mass_type_vr(bundle_mid.q_vec, w5, (1.0, 1.0)))
        v30 = mass_type_vr(bundle_mid.q_vec, w5, (3.0, 0.0))
        v01 = mass_type_vr(bundle_mid.q_vec, w5, (0.0, 1.0))
        v31 = mass_type_vr(bundle_mid.q_vec, w5, (3.0, 1.0))
        assert v31 == pytest.approx(v30 + v01, rel=1e-12)
