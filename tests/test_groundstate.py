import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qnls6.grid import RadialField, RadialGrid, h1dot_inner, h1dot_norm
from qnls6.functionals import energy, energy_n, hamiltonian, interaction
from qnls6.groundstate import (_bordered_tridiag_solve, _interp_component, _pchip,
                               apply_symmetry, build_bundle, build_directions,
                               elliptic_residual, lambda_profile, ode_ground_state,
                               q_closed_form, refine_discrete, transform_T)
from conftest import random_pair


class TestClosedForm:
    def test_center_value(self):
        assert q_closed_form(0.0) == 1.0

    def test_quarter_point(self):
        assert q_closed_form(np.sqrt(24.0)) == pytest.approx(0.25)

    def test_tail_coefficient(self):
        r = 1e5
        assert r ** 4 * q_closed_form(r) == pytest.approx(576.0, rel=1e-3)

    def test_positive_decreasing(self, mid_grid):
        q = q_closed_form(mid_grid.nodes)
        assert np.all(q > 0)
        assert np.all(np.diff(q) < 0)

    def test_ode_cross_check(self):
        r = np.linspace(0.05, 50.0, 400)
        ode = ode_ground_state(r)
        assert np.max(np.abs(ode - q_closed_form(r))) < 1e-8

    def test_ode_scaling_family(self):
        # q0 != 1 integrates the rescaled profile lam^2 Q(lam r), lam = sqrt(q0)
        r = np.linspace(0.05, 20.0, 200)
        ode = ode_ground_state(r, q0=4.0)
        assert np.max(np.abs(ode - 4.0 * q_closed_form(2.0 * r))) < 1e-7


class TestElliptic:
    def test_residual_small(self, bundle_mid):
        assert elliptic_residual(bundle_mid.q) < 1e-5

    def test_zero_field_convention(self, mid_grid):
        z = RadialField(mid_grid, np.zeros(mid_grid.n))
        assert elliptic_residual(z) == 0.0

    def test_perturbation_scaling(self, mid_grid):
        out = []
        for eps in (1e-3, 1e-4):
            q = q_closed_form(mid_grid.nodes) + eps * np.exp(-mid_grid.nodes ** 2)
            out.append(elliptic_residual(RadialField(mid_grid, q)))
        # residual is Theta(eps): one decade apart
        assert 5 < out[0] / out[1] < 20

    def test_refined_profile_beats_sampled(self, mid_grid):
        q, kres = refine_discrete(mid_grid)
        sampled = elliptic_residual(RadialField(mid_grid, q_closed_form(mid_grid.nodes)),
                                    order=2, boundary="dirichlet")
        refined = elliptic_residual(RadialField(mid_grid, q), order=2, boundary="dirichlet")
        assert refined < 0.2 * sampled
        assert kres < 1e-4


class TestBorderedSolve:
    @staticmethod
    def _near_singular(shift_rel):
        # T = Delta_h + 2Q (symmetrized) shifted so that its eigenvalue along
        # the quasi-kernel v0 is shift_rel times the spectral scale
        grid = RadialGrid(n=64, r_max=60.0, stretch=9.0)
        diag, off = grid.symmetrized_tridiag()
        d = diag + 2.0 * q_closed_form(grid.nodes)
        evals, vecs = eigh_tridiagonal(d, off)
        k = int(np.argmin(np.abs(evals)))
        d = d - evals[k] + shift_rel * np.max(np.abs(evals))
        return d, off, vecs[:, k]

    @pytest.mark.parametrize("shift_rel", [1e-6, 1e-10, 1e-13])
    def test_matches_dense_bordered_solve(self, shift_rel):
        d, off, v0 = self._near_singular(shift_rel)
        n = len(d)
        T = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
        M = np.block([[T, v0[:, None]], [v0[None, :], np.zeros((1, 1))]])
        rng = np.random.default_rng(3)
        for _ in range(3):
            # refine_discrete hands over right-hand sides with v0 projected out
            rhs = rng.standard_normal(n)
            rhs -= (v0 @ rhs) * v0
            ref = np.linalg.solve(M, np.concatenate([rhs, [0.0]]))[:n]
            x = _bordered_tridiag_solve(d, off, v0, rhs)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            assert abs(v0 @ x) <= 1e-12 * np.linalg.norm(x)

    # the kernel residual of the splu bordered solve on the default [grid]
    # family (r_max = 200, stretch = 29), to the seven digits quoted
    @pytest.mark.parametrize("n, before", [(256, 1.517766e-05), (512, 5.950637e-06),
                                           (1024, 3.824018e-06), (2048, 3.388832e-06)])
    def test_kernel_residual_does_not_rise(self, n, before):
        _, kres = refine_discrete(RadialGrid(n=n, r_max=200.0, stretch=29.0))
        assert float(f"{kres:.6e}") <= before


class TestBundle:
    def test_invariants(self, bundle_mid):
        q = bundle_mid.q.values.real
        assert q[0] == pytest.approx(1.0, rel=1e-3)
        assert np.all(q > 0)
        H = hamiltonian(bundle_mid.q_vec)
        P = interaction(bundle_mid.q_vec)
        assert H / P == pytest.approx(1.5, rel=2e-3)  # 6e-5 at n >= 1024

    def test_q1_componentwise(self, bundle_mid):
        k = bundle_mid.kappa
        assert np.allclose(bundle_mid.q1_vec.u, np.sqrt(k) * bundle_mid.q.values)
        assert np.allclose(bundle_mid.q1_vec.v, 2.0 * bundle_mid.q.values)

    def test_lambda_q_orthogonal(self, bundle_mid):
        ip = h1dot_inner(bundle_mid.q_vec, bundle_mid.lambda_q)
        scale = h1dot_norm(bundle_mid.q_vec) * h1dot_norm(bundle_mid.lambda_q)
        assert abs(ip) / scale < 2e-3

    def test_scaling_orbit_derivative(self, bundle_mid):
        # d/dlam at 1 of the scaled pair equals -Lambda bQ
        eps = 1e-4
        plus = apply_symmetry(bundle_mid.q_vec, 0.0, 1.0 + eps)
        minus = apply_symmetry(bundle_mid.q_vec, 0.0, 1.0 - eps)
        fd = (1.0 / (2 * eps)) * (plus - minus)
        ref = -1.0 * bundle_mid.lambda_q
        num = h1dot_norm(fd - ref)
        assert num / h1dot_norm(ref) < 5e-3


class TestSymmetry:
    def test_identity(self, bundle_mid):
        out = apply_symmetry(bundle_mid.q_vec, 0.0, 1.0)
        assert np.allclose(out.u, bundle_mid.q_vec.u, atol=1e-12)

    def test_h_invariance(self, bundle_mid):
        rng = np.random.default_rng(5)
        u = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        h0 = hamiltonian(u)
        out = apply_symmetry(u, 0.7, 1.3)
        assert hamiltonian(out) == pytest.approx(h0, rel=2e-4)

    def test_p_invariance(self, bundle_mid):
        rng = np.random.default_rng(6)
        u = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        p0 = interaction(u)
        out = apply_symmetry(u, 0.4, 0.8)
        assert interaction(out) == pytest.approx(p0, rel=5e-4)

    def test_group_action(self, bundle_mid):
        rng = np.random.default_rng(7)
        u = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        a = apply_symmetry(apply_symmetry(u, 0.3, 1.2), 0.5, 0.9)
        b = apply_symmetry(u, 0.8, 1.08)
        assert h1dot_norm(a - b) / h1dot_norm(b) < 1e-3

    def test_rejects_bad_lambda(self, bundle_mid):
        with pytest.raises(ValueError):
            apply_symmetry(bundle_mid.q_vec, 0.0, -1.0)


def _assert_bits_equal(a, b):
    assert np.array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()   # signs of zeros too


class TestPchip:
    """The in-house PCHIP is scipy's PchipInterpolator bit for bit."""

    @staticmethod
    def _check(x, y, xq):
        # imported here only: the package itself stays off scipy.interpolate
        from scipy.interpolate import PchipInterpolator
        _assert_bits_equal(_pchip(x, y, xq), PchipInterpolator(x, y)(xq))

    @staticmethod
    def _queries(x, rng):
        # interior points, every node and the right end r[-1] (closed interval)
        return np.concatenate([rng.uniform(x[0], x[-1], 64), x, [x[-1], x[0]]])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_columns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        x = np.cumsum(rng.uniform(0.01, 3.0, n))
        y = np.column_stack([
            rng.standard_normal(n),                     # sign changes
            np.round(2 * rng.standard_normal(n)),       # zero secants, flat runs
            np.cumsum(rng.uniform(0, 1, n)),            # monotone
            np.exp(-x) * (1 + 0.1 * rng.standard_normal(n)),
            np.full(n, -0.5),                           # constant
        ])
        self._check(x, y, self._queries(x, rng))

    def test_flat_runs_sign_changes_and_signed_zeros(self):
        rng = np.random.default_rng(3)
        x = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 4.2, 7.0])
        y = np.column_stack([[0, 0, 0, 1, 1, 1, 0, 0],
                             [1, -1, 1, -1, 1, -1, 1, -1],
                             [0, 2, 2, 2, -3, -3, 5, 5],
                             [3, 1, 0, 0, 0, -1, -4, -9]]).astype(float)
        self._check(x, y, self._queries(x, rng))
        # a -0.0 node on a falling run: the sum starts from +0.0 as scipy's does
        x = np.array([0.0, 1.5, 2.5, 5.0])
        self._check(x, np.array([[-0.0], [1.0], [-0.0], [-3.0]]), self._queries(x, rng))

    @pytest.mark.parametrize("n", [2, 3])
    def test_few_nodes(self, n):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0, 5, n))
        y = np.column_stack([rng.standard_normal(n), np.zeros(n), np.array([1.0, -2.0, 0.5][:n])])
        self._check(x, y, self._queries(x, rng))

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            _pchip(np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)), np.array([0.5]))

    def test_pair_columns_equal_single_columns(self, bundle_mid):
        rng = np.random.default_rng(8)
        u = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        nodes = bundle_mid.grid.nodes
        rq = np.concatenate([nodes / 1.3, nodes * 1.1])       # inside and in the r^-4 tail
        four = np.column_stack([u.u.real, u.u.imag, u.v.real, u.v.imag])
        together = _interp_component(nodes, four, rq)
        for j in range(4):
            _assert_bits_equal(together[:, j], _interp_component(nodes, four[:, j], rq))
        pair = _interp_component(nodes, np.stack([u.u, u.v], axis=1), rq)
        _assert_bits_equal(pair[:, 0], _interp_component(nodes, u.u, rq))
        _assert_bits_equal(pair[:, 1], _interp_component(nodes, u.v, rq))


class TestTransform:
    def test_roundtrip(self, bundle_mid):
        rng = np.random.default_rng(8)
        u = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        back = transform_T(transform_T(u), inverse=True)
        assert np.allclose(back.u, u.u) and np.allclose(back.v, u.v)

    def test_energy_relation(self, bundle_mid):
        rng = np.random.default_rng(9)
        w = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        assert energy(transform_T(w, inverse=True)) == pytest.approx(2 * energy_n(w), rel=1e-12)

    def test_tq_stationary_in_transformed_system(self, bundle_mid):
        # Delta u + 2 conj(u) v and kappa Delta v + u^2 vanish at T(bQ)
        from qnls6.grid import laplacian6
        tq = bundle_mid.t_q
        g = bundle_mid.grid
        lap_u = laplacian6(RadialField(g, tq.u), boundary="decay4", order=4).values
        lap_v = laplacian6(RadialField(g, tq.v), boundary="decay4", order=4).values
        r1 = lap_u + 2.0 * np.conj(tq.u) * tq.v
        r2 = bundle_mid.kappa * lap_v + tq.u ** 2
        w = g.quad_weights
        scale = np.sqrt(np.sum(w * np.abs(tq.u ** 2) ** 2))
        assert np.sqrt(np.sum(w * np.abs(r1) ** 2)) / scale < 1e-5
        assert np.sqrt(np.sum(w * np.abs(r2) ** 2)) / scale < 1e-5


class TestDirections:
    def test_set_complete(self, bundle_mid):
        dirs = build_directions(bundle_mid)
        assert set(dirs) == {"q", "i_q1", "lambda_q", "t_q", "t_i_q1", "t_lambda_q"}

    def test_i_q1_is_imaginary(self, bundle_mid):
        dirs = build_directions(bundle_mid)
        assert np.allclose(dirs["i_q1"].u.real, 0.0)
        assert np.allclose(dirs["i_q1"].u.imag, bundle_mid.q1_vec.u.real)

    def test_lambda_profile_matches_hand_formula(self, bundle_mid):
        g = bundle_mid.grid
        f = RadialField(g, g.nodes ** 2 * np.exp(-g.nodes ** 2))
        lam = lambda_profile(f).values.real
        r = g.nodes
        exact = 2 * r ** 2 * np.exp(-r ** 2) + r * (2 * r - 2 * r ** 3) * np.exp(-r ** 2)
        assert np.max(np.abs(lam - exact)) < 5e-3


class TestBundleBackground:
    def test_closed_form_bundle_does_not_refine(self):
        grid = RadialGrid(n=97, r_max=50.0, stretch=7.0)     # no other test uses it
        before = refine_discrete.cache_info()
        bundle = build_bundle(grid, 0.5)
        assert refine_discrete.cache_info() == before
        assert bundle.q_bg is bundle.q

    def test_discrete_bundle_holds_the_refined_q(self, bundle_mid_discrete):
        q, _ = refine_discrete(bundle_mid_discrete.grid)
        assert np.array_equal(bundle_mid_discrete.q_bg.values, q)
        assert np.array_equal(bundle_mid_discrete.q_vec.v, q)
