import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from qnls6.grid import (FieldPair, GridError, RadialField, RadialGrid, _tail_ghost_coeffs,
                        h1dot_gradients, h1dot_inner, h1dot_norm, integrate6_samples,
                        laplacian6, pair_from_arrays, pair_gradients, radial_derivative)
from qnls6.groundstate import q_closed_form, q_derivative_closed_form


def field(grid, fn):
    return RadialField(grid, fn(grid.nodes).astype(complex))


class TestLaplacian:
    def test_quadratic_gives_constant_12(self, mid_grid):
        f = field(mid_grid, lambda r: r ** 2)
        out = laplacian6(f).values.real
        interior = slice(2, mid_grid.n - 4)
        assert np.allclose(out[interior], 12.0, rtol=1e-9)

    @pytest.mark.parametrize("order", [2, 4])
    def test_gaussian_reference(self, mid_grid, order):
        f = field(mid_grid, lambda r: np.exp(-r * r))
        out = laplacian6(f, order=order).values.real
        exact = (4 * mid_grid.nodes ** 2 - 12) * np.exp(-mid_grid.nodes ** 2)
        tol = 2e-2 if order == 2 else 2e-5
        assert np.max(np.abs(out - exact)) < tol

    def test_ground_state_equation(self, mid_grid):
        q = field(mid_grid, q_closed_form)
        res = laplacian6(q, boundary="decay4", order=4).values.real + q.values.real ** 2
        w = mid_grid.quad_weights
        rel = np.sqrt(np.sum(w * res ** 2) / np.sum(w * q.values.real ** 4))
        assert rel < 1e-5  # reaches 1e-9 at the production n=2048

    def test_small_grid_rejected(self):
        with pytest.raises(GridError):
            RadialGrid(n=4, r_max=10.0)

    def test_symmetry_wrt_cell_masses(self, mid_grid):
        # flux form self-adjoint in the cell-mass product (dirichlet rule)
        rng = np.random.default_rng(0)
        mat = mid_grid.laplacian_matrix("dirichlet", 2)
        w = mid_grid.cell_masses
        f = np.exp(-mid_grid.nodes ** 2) * rng.standard_normal(mid_grid.n)
        g = np.exp(-0.5 * mid_grid.nodes ** 2)
        a = np.sum(w * (mat @ f) * g)
        b = np.sum(w * f * (mat @ g))
        assert abs(a - b) < 1e-12 * max(abs(a), 1.0)

    def test_integration_by_parts(self, mid_grid):
        f = field(mid_grid, lambda r: np.exp(-r * r))
        lap = laplacian6(f).values
        lhs = np.real(np.sum(mid_grid.quad_weights * (-lap) * np.conj(f.values)))
        df = radial_derivative(f).values
        rhs = np.real(np.sum(mid_grid.quad_weights * np.abs(df) ** 2))
        assert abs(lhs - rhs) / abs(rhs) < 1e-2


class TestDerivative:
    def test_power(self, mid_grid):
        f = field(mid_grid, lambda r: r ** 2)
        out = radial_derivative(f).values.real
        assert np.allclose(out, 2 * mid_grid.nodes, rtol=1e-7)

    def test_constant(self, mid_grid):
        f = field(mid_grid, lambda r: np.ones_like(r))
        assert np.max(np.abs(radial_derivative(f).values)) < 1e-12

    def test_ground_state_derivative(self, mid_grid):
        f = field(mid_grid, q_closed_form)
        out = radial_derivative(f).values.real
        exact = q_derivative_closed_form(mid_grid.nodes)
        assert np.max(np.abs(out - exact)) < 1e-3


class TestQuadrature:
    def test_unit_ball_volume(self, mid_grid):
        ind = RadialField(mid_grid, (mid_grid.nodes <= 1.0).astype(complex))
        got = integrate6_samples(mid_grid, ind.values).real
        assert abs(got - np.pi ** 3 / 6) / (np.pi ** 3 / 6) < 0.05

    def test_gaussian(self, mid_grid):
        f = field(mid_grid, lambda r: np.exp(-r * r))
        assert abs(integrate6_samples(mid_grid, f.values).real - np.pi ** 3) / np.pi ** 3 < 1e-5

    def test_q_cubed_closed_form(self, mid_grid):
        # oracle first: adaptive quadrature of the closed form
        oracle = np.pi ** 3 * quad(lambda r: q_closed_form(r) ** 3 * r ** 5, 0, np.inf)[0]
        assert abs(oracle - np.pi ** 3 * 24.0 ** 3 / 60.0) < 1e-8 * oracle
        f = field(mid_grid, lambda r: q_closed_form(r) ** 3)
        assert abs(integrate6_samples(mid_grid, f.values).real - oracle) / oracle < 1e-5

    def test_refinement_improves(self):
        vals = []
        for n in (128, 256):
            g = RadialGrid(n=n, r_max=60.0, stretch=9.0)
            f = RadialField(g, (g.nodes ** 2 * np.exp(-g.nodes ** 2)).astype(complex))
            exact = np.pi ** 3 * quad(lambda r: r ** 7 * np.exp(-r * r), 0, np.inf)[0]
            vals.append(abs(integrate6_samples(g, f.values).real - exact) / exact)
        assert vals[1] < vals[0]


class TestInnerProducts:
    def test_positive(self, mid_grid):
        rng = np.random.default_rng(3)
        u = pair_from_arrays(mid_grid, rng.standard_normal(mid_grid.n) * np.exp(-mid_grid.nodes ** 2),
                             rng.standard_normal(mid_grid.n) * np.exp(-mid_grid.nodes ** 2), 0.5)
        assert h1dot_inner(u, u) >= 0

    def test_against_fine_quadrature(self, mid_grid):
        # (e^{-r^2}, r^2 e^{-r^2}) pairing against an independent 1-D oracle
        r = mid_grid.nodes
        f = pair_from_arrays(mid_grid, np.exp(-r * r), np.exp(-r * r), 1.0)
        g = pair_from_arrays(mid_grid, r ** 2 * np.exp(-r * r), r ** 2 * np.exp(-r * r), 1.0)
        df = lambda x: -2 * x * np.exp(-x * x)
        dg = lambda x: (2 * x - 2 * x ** 3) * np.exp(-x * x)
        oracle = 2 * np.pi ** 3 * quad(lambda x: df(x) * dg(x) * x ** 5, 0, np.inf)[0]
        assert abs(h1dot_inner(f, g) - oracle) / abs(oracle) < 5e-3


class TestCachedDerivativeWeights:
    """The cached weights reproduce the per-call formula bit for bit."""

    @staticmethod
    def _reference_derivative(grid, v):
        # centered interior rows and a 3x3 Vandermonde solve at each end
        r = grid.nodes
        out = np.empty_like(v)
        hm = r[1:-1] - r[:-2]
        hp = r[2:] - r[1:-1]
        out[1:-1] = (hm / hp * (v[2:] - v[1:-1]) + hp / hm * (v[1:-1] - v[:-2])) / (hm + hp)
        for i, sl in ((0, slice(0, 3)), (-1, slice(-3, None))):
            V = np.vander(r[sl] - r[i], increasing=True).T
            out[i] = np.linalg.solve(V, np.array([0.0, 1.0, 0.0])) @ v[sl]
        return out

    def _reference_inner(self, f, g):
        d = [self._reference_derivative(f.grid, x) for x in (f.u, f.v, g.u, g.v)]
        w = f.grid.quad_weights
        return float(np.real(np.sum(w * (d[0] * np.conj(d[2]) + d[1] * np.conj(d[3])))))

    @pytest.mark.parametrize("n, r_max, stretch", [(64, 60.0, 9.0), (256, 200.0, 29.0),
                                                   (1024, 200.0, 29.0)])
    def test_bit_identical(self, n, r_max, stretch):
        grid = RadialGrid(n=n, r_max=r_max, stretch=stretch)
        rng = np.random.default_rng(n)
        for _ in range(4):
            f, g = (pair_from_arrays(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                     rng.standard_normal(n) + 1j * rng.standard_normal(n), 0.5)
                    for _ in range(2))
            assert np.array_equal(radial_derivative(f.first).values,
                                  self._reference_derivative(grid, f.u))
            assert np.array_equal(h1dot_inner(f, g), self._reference_inner(f, g))
            assert np.array_equal(h1dot_norm(f),
                                  np.sqrt(max(self._reference_inner(f, f), 0.0)))


class TestVectorizedAssembly:
    """``quad_weights`` and ``laplacian_matrix`` reproduce their per-node loop
    forms bit for bit."""

    @staticmethod
    def _loop_quad_weights(grid):
        # one pair of 3x3 Vandermonde solves per segment, accumulated in order
        r = grid.nodes
        n = grid.n
        w = np.zeros(n)

        def moments(a, b):
            return np.array([(b ** (6 + k) - a ** (6 + k)) / (6 + k) for k in range(3)])

        def contrib(x3, a, b):
            v = np.vander(x3, 3, increasing=True)
            return np.linalg.solve(v.T, moments(a, b))

        m6 = r[0] ** 6 / 6.0
        m8 = r[0] ** 8 / 8.0
        t = (m8 - r[0] ** 2 * m6) / (r[1] ** 2 - r[0] ** 2)
        w[0] += m6 - t
        w[1] += t
        for i in range(n - 1):
            a, b = r[i], r[i + 1]
            if i <= 1:
                p6 = (b ** 6 - a ** 6) / 6.0
                p7 = (b ** 7 - a ** 7) / 7.0
                w[i] += (b * p6 - p7) / (b - a)
                w[i + 1] += (p7 - a * p6) / (b - a)
            elif i == n - 2:
                w[n - 3:n] += contrib(r[n - 3:n], a, b)
            else:
                w[i - 1:i + 2] += 0.5 * contrib(r[i - 1:i + 2], a, b)
                w[i:i + 3] += 0.5 * contrib(r[i:i + 3], a, b)
        return w * np.pi ** 3

    @pytest.mark.parametrize("mapping", ["algebraic", "uniform"])
    @pytest.mark.parametrize("n", [5, 6, 7, 64, 2048])
    def test_quad_weights_bit_identical(self, n, mapping):
        # n = 5 has a single segment with both quadratics
        grid = RadialGrid(n=n, r_max=200.0, mapping=mapping, stretch=29.0)
        assert np.array_equal(grid.quad_weights, self._loop_quad_weights(grid))

    @pytest.mark.parametrize("boundary", ["dirichlet", "decay4"])
    @pytest.mark.parametrize("n", [5, 64, 1024])
    def test_laplacian_matrix_bit_identical(self, n, boundary):
        grid = RadialGrid(n=n, r_max=200.0, stretch=29.0)
        sub, diag, sup, corner = grid.laplacian_tridiag(boundary)
        ref = sp.diags([sub, diag, sup], [-1, 0, 1], format="lil")
        if corner:
            ref[-1, -2] += corner
        ref = ref.tocsr()
        mat = grid.laplacian_matrix(boundary)
        assert mat.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mat, attr), getattr(ref, attr))

    @staticmethod
    def _loop_laplacian_o4(grid, boundary):
        # one pair of 5x5 Vandermonde solves per node; reflected and ghost
        # nodes folded through a per-row dict, summed by the COO constructor
        r = grid.nodes
        n = grid.n
        r_g1 = r[-1] + (r[-1] - r[-2])
        r_g2 = r[-1] + 2.0 * (r[-1] - r[-2])
        rows, cols, vals = [], [], []

        def stencil_weights(x0, xs):
            d = np.array(xs) - x0
            V = np.vander(d, increasing=True).T
            b1 = np.zeros(len(xs)); b1[1] = 1.0
            b2 = np.zeros(len(xs)); b2[2] = 2.0
            return np.linalg.solve(V, b2) + (5.0 / x0) * np.linalg.solve(V, b1)

        if boundary == "decay4":
            a1, b1 = _tail_ghost_coeffs(r[-2], r[-1], r_g1)
            a2, b2 = _tail_ghost_coeffs(r[-2], r[-1], r_g2)
        else:
            a1 = b1 = a2 = b2 = 0.0
        for i in range(n):
            xs, fold = [], []
            for j in range(i - 2, i + 3):
                if j < 0:
                    xs.append(-r[-j - 1])
                    fold.append(-j - 1)
                elif j < n:
                    xs.append(r[j])
                    fold.append(j)
                else:
                    xs.append(r_g1 if j == n else r_g2)
                    fold.append((a1, b1) if j == n else (a2, b2))
            acc = {}
            for wgt, tgt in zip(stencil_weights(r[i], xs), fold):
                if isinstance(tgt, tuple):
                    acc[n - 1] = acc.get(n - 1, 0.0) + wgt * tgt[0]
                    acc[n - 2] = acc.get(n - 2, 0.0) + wgt * tgt[1]
                else:
                    acc[tgt] = acc.get(tgt, 0.0) + wgt
            for j_col, wgt in acc.items():
                rows.append(i); cols.append(j_col); vals.append(wgt)
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    @staticmethod
    def _loop_onesided_weights(x0, xs):
        V = np.vander(xs - x0, increasing=True).T
        b = np.zeros(len(xs)); b[1] = 1.0
        return np.linalg.solve(V, b)

    @pytest.mark.parametrize("mapping", ["algebraic", "uniform"])
    @pytest.mark.parametrize("boundary", ["dirichlet", "decay4"])
    @pytest.mark.parametrize("n", [5, 6, 7, 64, 1024])
    def test_laplacian_o4_bit_identical(self, n, boundary, mapping):
        # n = 5 puts both reflected nodes and both ghosts in adjacent rows
        grid = RadialGrid(n=n, r_max=200.0, mapping=mapping, stretch=29.0)
        mat = grid.laplacian_matrix(boundary, order=4)
        ref = self._loop_laplacian_o4(grid, boundary)
        assert mat.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mat, attr), getattr(ref, attr))

    @pytest.mark.parametrize("mapping", ["algebraic", "uniform"])
    @pytest.mark.parametrize("n", [5, 6, 7, 64, 1024])
    def test_derivative_end_rows_bit_identical(self, n, mapping):
        grid = RadialGrid(n=n, r_max=200.0, mapping=mapping, stretch=29.0)
        r = grid.nodes
        first, last = grid.derivative_weights[3:]
        assert np.array_equal(first, self._loop_onesided_weights(r[0], r[:3]))
        assert np.array_equal(last, self._loop_onesided_weights(r[-1], r[-3:]))

    @pytest.mark.parametrize("call", [
        lambda g: g.laplacian_tridiag("neumann"),
        lambda g: g.laplacian_matrix("neumann", order=2),
        lambda g: g.laplacian_matrix("neumann", order=4),
        lambda g: g.laplacian_matrix("dirichlet", order=3),
    ], ids=["tridiag-rule", "order2-rule", "order4-rule", "order-3"])
    def test_unknown_rule_or_order_raises(self, small_grid, call):
        with pytest.raises(GridError):
            call(small_grid)

    def test_derivative_rows_equal_single_fields(self, mid_grid):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 2 * mid_grid.n)) + 1j * rng.standard_normal((3, 2 * mid_grid.n))
        n = mid_grid.n
        du, dv = pair_gradients(mid_grid, z)
        for k in range(3):
            f = pair_from_arrays(mid_grid, z[k, :n], z[k, n:], 0.5)
            assert np.array_equal(du[k], radial_derivative(f.first).values)
            assert np.array_equal(dv[k], radial_derivative(f.second).values)
        for k in range(3):
            f = pair_from_arrays(mid_grid, z[k, :n], z[k, n:], 0.5)
            g = pair_from_arrays(mid_grid, z[2 - k, :n], z[2 - k, n:], 0.5)
            pairing = h1dot_gradients(mid_grid, (du[k], dv[k]), (du[2 - k], dv[2 - k]))
            assert pairing == h1dot_inner(f, g)


class TestTypes:
    def test_field_length_mismatch(self, mid_grid, small_grid):
        with pytest.raises(GridError):
            RadialField(mid_grid, np.zeros(small_grid.n))

    def test_nonfinite_rejected(self, mid_grid):
        vals = np.zeros(mid_grid.n)
        vals[0] = np.inf
        with pytest.raises(GridError):
            RadialField(mid_grid, vals)

    def test_kappa_positive(self, mid_grid):
        with pytest.raises(GridError):
            pair_from_arrays(mid_grid, np.zeros(mid_grid.n), np.zeros(mid_grid.n), -1.0)

    def test_pair_grids_must_match(self, mid_grid, small_grid):
        a = RadialField(mid_grid, np.zeros(mid_grid.n))
        b = RadialField(small_grid, np.zeros(small_grid.n))
        with pytest.raises(GridError):
            FieldPair(a, b, 1.0)

    def test_nodes_increasing_and_pinned(self, mid_grid):
        assert np.all(np.diff(mid_grid.nodes) > 0)
        assert mid_grid.nodes[0] > 0
        assert mid_grid.nodes[-1] == pytest.approx(mid_grid.r_max)
        assert np.all(mid_grid.quad_weights > 0)


class TestMetric:
    def test_op_weights_and_sqrt_masses_are_the_cell_mass_forms(self, mid_grid):
        m = mid_grid.cell_masses
        assert np.array_equal(mid_grid.op_weights, np.pi ** 3 * m)
        assert np.array_equal(mid_grid.sqrt_masses, np.sqrt(m))
        for a in (mid_grid.op_weights, mid_grid.sqrt_masses):
            with pytest.raises(ValueError):
                a[0] = 1.0
