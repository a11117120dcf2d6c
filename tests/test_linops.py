import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qnls6.grid import FieldPair, RadialGrid
from qnls6.functionals import energy, hamiltonian, interaction
from qnls6.groundstate import build_bundle, build_directions, transform_T
from qnls6.linops import (assemble_E, assemble_L, bilinear_N, build_block_E, form_ops,
                          pack_real, quad_form, stack_pair, unpack_real, unstack_pair)
from conftest import random_pair


def stacked(p):
    return np.concatenate([p.u, p.v])


def rel_kernel_residual(op, vec):
    out = op.mat @ stacked(vec).real
    w = op.op_weights()
    kin = op.grid.laplacian_matrix(op.boundary, op.order)
    scale = np.sqrt(np.sum(w[:op.n] * np.abs(kin @ vec.u.real) ** 2)
                    + np.sum(w[op.n:] * np.abs(kin @ vec.v.real) ** 2))
    return np.sqrt(np.sum(w * out ** 2)) / scale


class TestKernels:
    def test_L_R_lambda_q(self, bundle_mid):
        op = assemble_L(bundle_mid, "L_R", boundary="decay4", order=4)
        assert rel_kernel_residual(op, bundle_mid.lambda_q) < 1e-5

    def test_L_I_q1(self, bundle_mid):
        op = assemble_L(bundle_mid, "L_I", boundary="decay4", order=4)
        assert rel_kernel_residual(op, bundle_mid.q1_vec) < 1e-5

    def test_E_R_t_lambda_q(self, bundle_mid):
        op = assemble_E(bundle_mid, "E_R", boundary="decay4", order=4)
        assert rel_kernel_residual(op, bundle_mid.t_lambda_q) < 1e-5

    def test_E_I_t_q1(self, bundle_mid):
        op = assemble_E(bundle_mid, "E_I", boundary="decay4", order=4)
        assert rel_kernel_residual(op, bundle_mid.t_q1) < 1e-5

    def test_block_kernels(self, bundle_mid_discrete):
        block = build_block_E(bundle_mid_discrete)
        res = block.kernel_residuals(bundle_mid_discrete)
        assert res["t_i_q1"] < 1e-5       # exact elliptic identity of the background
        assert res["t_lambda_q"] < 5e-3   # scaling direction: discrete Lambda error


class TestBlocks:
    def test_L_R_on_second_component(self, bundle_mid):
        # L_R (0, g) = (-sqrt(k) Q g, -(k/2) Delta g)
        g = bundle_mid.grid
        gv = np.exp(-g.nodes ** 2)
        vec = FieldPair(g, np.zeros(g.n), gv, bundle_mid.kappa)
        op = assemble_L(bundle_mid, "L_R")
        out = op.mat @ stacked(vec).real
        k = bundle_mid.kappa
        expected_first = -np.sqrt(k) * bundle_mid.q.real * gv
        lap = g.laplacian_matrix("dirichlet", 2)
        expected_second = -(k / 2) * (lap @ gv)
        assert np.max(np.abs(out[:g.n] - expected_first)) < 1e-12
        assert np.max(np.abs(out[g.n:] - expected_second)) < 1e-12

    def test_er_lr_consistency(self, bundle_mid):
        rng = np.random.default_rng(41)
        v = random_pair(bundle_mid.grid, bundle_mid.kappa, rng, real=True)
        er = assemble_E(bundle_mid, "E_R")
        lr = assemble_L(bundle_mid, "L_R")
        lhs = er.quad(stacked(v).real, stacked(v).real)
        tv = transform_T(v, inverse=True)
        rhs = 0.5 * lr.quad(stacked(tv).real, stacked(tv).real)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_symmetry_defect(self, bundle_mid):
        for which, assemble in (("L_R", assemble_L), ("E_I", assemble_E)):
            op = assemble(bundle_mid, which)
            assert op.symmetry_defect() < 1e-14


class TestForms:
    def test_phi_negative_at_q(self, bundle_mid):
        val = quad_form(bundle_mid.q_vec, bundle_mid.q_vec, form_ops(bundle_mid, "phi"))
        assert val < 0

    def test_phi_e_negative_at_tq(self, bundle_mid):
        val = quad_form(bundle_mid.t_q, bundle_mid.t_q, form_ops(bundle_mid, "phi_e"))
        assert val < 0

    @pytest.mark.parametrize("which, labels", [("phi", ("L_R", "L_I")),
                                               ("phi_e", ("E_R", "E_I"))], ids=["phi", "phi_e"])
    def test_form_ops_assembled_once_and_read_only(self, which, labels):
        # a bundle of its own: the pair is assembled on first use, then shared
        bundle = build_bundle(RadialGrid(n=64, r_max=60.0, stretch=9.0), 0.5)
        ops = form_ops(bundle, which)
        assert form_ops(bundle, which) is ops
        assemble = assemble_L if which == "phi" else assemble_E
        for op, label in zip(ops, labels):
            assert op.label == label
            assert (op.mat != assemble(bundle, label).mat).nnz == 0
            with pytest.raises(ValueError):
                op.mat.data[0] = 0.0
        if which == "phi_e":
            block = build_block_E(bundle)
            assert (block.e_r, block.e_i) == ops

    def test_phi_symmetric(self, bundle_mid):
        rng = np.random.default_rng(43)
        a = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        b = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        ops = form_ops(bundle_mid, "phi")
        assert quad_form(a, b, ops) == pytest.approx(quad_form(b, a, ops), rel=1e-12)

    def test_phi_e_anti_selfadjoint_generator(self, bundle_mid_discrete):
        rng = np.random.default_rng(47)
        bundle = bundle_mid_discrete
        block = build_block_E(bundle)
        ops = (block.e_r, block.e_i)
        g = random_pair(bundle.grid, bundle.kappa, rng)
        h = random_pair(bundle.grid, bundle.kappa, rng)
        def apply_E(p):
            out = block.apply_complex(stacked(p))
            return p.with_values(out[:bundle.grid.n], out[bundle.grid.n:])
        lhs = quad_form(apply_E(g), h, ops)
        rhs = -quad_form(g, apply_E(h), ops)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_phi_e_degenerate_directions(self, bundle_mid_discrete):
        rng = np.random.default_rng(53)
        bundle = bundle_mid_discrete
        dirs = build_directions(bundle)
        ops = form_ops(bundle, "phi_e")
        scale = abs(quad_form(bundle.t_q, bundle.t_q, ops))
        for _ in range(5):
            h = random_pair(bundle.grid, bundle.kappa, rng)
            for d in ("t_i_q1", "t_lambda_q"):
                val = quad_form(h, dirs[d], ops)
                assert abs(val) < 5e-3 * scale


class TestNonlinearMaps:
    def test_bilinear_polarization(self, bundle_mid):
        rng = np.random.default_rng(67)
        a = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        b = random_pair(bundle_mid.grid, bundle_mid.kappa, rng)
        # N(a) = B_N(a, a)
        lhs = bilinear_N(a + b, a + b)
        rhs = bilinear_N(a, a) + 2.0 * bilinear_N(a, b) + bilinear_N(b, b)
        assert np.allclose(lhs.u, rhs.u) and np.allclose(lhs.v, rhs.v)

    def test_energy_matched_cubic_identity(self, bundle_mid):
        # with E(Q + s d) = E(Q), Phi(s d) equals half the cubic interaction of s d
        rng = np.random.default_rng(71)
        d = random_pair(bundle_mid.grid, bundle_mid.kappa, rng, scale=0.1)
        EQ = energy(bundle_mid.q_vec)
        fn = lambda s: energy(bundle_mid.q_vec + s * d) - EQ
        lo, hi = 1e-6, 1.0
        while fn(lo) * fn(hi) > 0 and hi < 1e3:
            hi *= 2
        s = brentq(fn, lo, hi)
        h = s * d
        phi = quad_form(h, h, form_ops(bundle_mid, "phi"))
        w = bundle_mid.grid.quad_weights
        cubic = 0.5 * np.real(np.sum(w * h.u ** 2 * np.conj(h.v)))
        assert phi == pytest.approx(cubic, rel=2e-3, abs=1e-10)


class TestDiagonalizationTrick:
    def test_lr_quadratic_form_splits(self, bundle_mid):
        # <L_R v, v> = <L_2 w1, w1> + <L_{-1} w2, w2> with w = P* Gamma^{-1} v,
        # L_g = -Delta - g Q, P = [[sqrt2, 1], [1, -sqrt2]]/sqrt3,
        # Gamma(u, v) = (u, sqrt2 v / sqrt(k))
        bundle = bundle_mid
        g = bundle.grid
        k = bundle.kappa
        rng = np.random.default_rng(73)
        v = random_pair(g, k, rng, real=True)
        lap = g.laplacian_matrix("dirichlet", 2)
        q = bundle.q.real
        w_q = np.pi ** 3 * g.cell_masses  # the operator pairing's weights
        g1 = v.u.real
        g2 = np.sqrt(k) / np.sqrt(2.0) * v.v.real   # Gamma^{-1} second component
        s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
        w1 = (s2 * g1 + g2) / s3
        w2 = (g1 - s2 * g2) / s3
        def scalar_form(f, gamma):
            return np.sum(w_q * (-(lap @ f) - gamma * q * f) * f)
        lhs = assemble_L(bundle, "L_R").quad(stacked(v).real, stacked(v).real)
        rhs = scalar_form(w1, 2.0) + scalar_form(w2, -1.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPairLayouts:
    def test_unstack_inverts_stack(self, bundle_mid):
        p = random_pair(bundle_mid.grid, 0.5, np.random.default_rng(5))
        back = unstack_pair(p.grid, stack_pair(p), p.kappa)
        assert np.array_equal(back.u, p.u) and np.array_equal(back.v, p.v)
        assert back.kappa == p.kappa and back.grid == p.grid

    def test_shifted_solve_matches_dense_real_system(self):
        grid = RadialGrid(n=64, r_max=60.0, stretch=9.0)
        bundle = build_bundle(grid, 0.5)
        block = build_block_E(bundle)
        b = stack_pair(random_pair(grid, 0.5, np.random.default_rng(8)))
        s = 0.37
        z = unpack_real(block.band().factor(s).matvec(pack_real(b)))
        A = block.sparse_real().toarray() - s * np.eye(4 * grid.n)
        x = np.linalg.solve(A, np.concatenate([b.real, b.imag]))
        expect = x[:2 * grid.n] + 1j * x[2 * grid.n:]
        assert np.max(np.abs(z - expect)) <= 1e-12 * np.max(np.abs(expect))
        # and it solves script_E z - s z = b in the complex form
        res = block.apply_complex(z) - s * z - b
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("background", ["closed-form", "discrete"])
    def test_transpose_solve_matches_dense_real_system(self, background):
        # rmatvec, which onenormest calls, solves with the transpose
        grid = RadialGrid(n=64, r_max=60.0, stretch=9.0)
        block = build_block_E(build_bundle(grid, 0.5, background=background))
        b = np.random.default_rng(9).standard_normal(4 * grid.n)
        s = 0.37
        x = block.band().factor(s).rmatvec(b)
        A = block.sparse_real().toarray() - s * np.eye(4 * grid.n)
        expect = np.linalg.solve(A.T, b)
        assert np.max(np.abs(x - expect)) <= 1e-12 * np.max(np.abs(expect))
