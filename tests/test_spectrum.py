import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qnls6.grid import RadialGrid, h1dot_inner, h1dot_norm, pair_from_arrays
from qnls6.groundstate import build_bundle, build_directions, transform_T
from qnls6.linops import (GeneratorBand, assemble_E, assemble_L, build_block_E, form_ops,
                          quad_form)
from qnls6.spectrum import (SEED_N, SpectrumError, coercivity_sample, dense_cross_check,
                            eigenpair_e, lambda1_inverse_iteration,
                            negative_eigenpair_tt,
                            shifted_solve_conditioning, sqrt_ei)
from conftest import random_pair


def _stack(p):
    return np.concatenate([p.u, p.v])


def _root_apply_sym(root, vec):
    # E_I^{1/2} in symmetrized (cell-mass) coordinates
    return root.basis @ (root.sqrt_eigs * (root.basis.T @ vec))


def _root_apply(root, stacked):
    # E_I^{1/2} on nodal values: the symmetrized root in cell-mass coordinates
    d = np.tile(root.op.grid.sqrt_masses, 2)
    return _root_apply_sym(root, d * stacked) / d


def _project_out_kernel(root, stacked):
    # the kernel channel of the square root removed, in symmetrized coordinates
    d = np.tile(root.op.grid.sqrt_masses, 2)
    v0 = root.basis[:, root.kernel_index]
    y = d * stacked
    return (y - (v0 @ y) * v0) / d


class TestSqrtEI:
    def test_square_reproduces_ei(self, bundle_mid_discrete):
        bundle = bundle_mid_discrete
        block = build_block_E(bundle)
        root = sqrt_ei(block.e_i, bundle)
        rng = np.random.default_rng(81)
        v = random_pair(bundle.grid, bundle.kappa, rng, real=True)
        vec = _project_out_kernel(root, _stack(v).real)
        twice = _root_apply(root, _root_apply(root, vec))
        direct = block.e_i.mat @ vec
        err = np.linalg.norm(twice - direct) / np.linalg.norm(direct)
        assert err < 5e-4   # kernel channel carries the truncation obstruction

    def test_kernel_annihilated(self, bundle_mid_discrete):
        bundle = bundle_mid_discrete
        root = sqrt_ei(build_block_E(bundle).e_i, bundle)
        tq1 = transform_T(bundle.q1_vec)
        out = _root_apply(root, _stack(tq1).real)
        assert np.linalg.norm(out) < 1e-2 * np.linalg.norm(_stack(tq1).real)

    def test_positivity(self, bundle_mid_discrete):
        bundle = bundle_mid_discrete
        block = build_block_E(bundle)
        root = sqrt_ei(block.e_i, bundle)
        rng = np.random.default_rng(83)
        for _ in range(5):
            v = _stack(random_pair(bundle.grid, bundle.kappa, rng, real=True)).real
            v = _project_out_kernel(root, v)
            half = _root_apply(root, v)
            m = bundle.grid.cell_masses
            w2 = np.concatenate([m, m])
            lhs = np.sum(w2 * half * half)
            rhs = np.sum(w2 * (block.e_i.mat @ v) * v)
            assert lhs >= -1e-12 * abs(rhs)
            assert lhs == pytest.approx(rhs, rel=5e-4)


class TestEigenpair:
    def test_negative_eigenvalue_exists_and_unique(self, bundle_mid_discrete):
        bundle = bundle_mid_discrete
        block = build_block_E(bundle)
        root = sqrt_ei(block.e_i, bundle)
        mu, g, info = negative_eigenpair_tt(block.e_r, root)
        assert mu < 0
        assert info["n_negative"] == 1
        assert info["tt_residual"] < 1e-8

    def test_polished_pair(self, spectral_mid):
        s = spectral_mid
        assert s.lambda1 > 0
        assert s.residual < 1e-10
        assert abs(s.phi_e_plus) < 1e-12
        assert abs(s.phi_e_minus) < 1e-12
        assert s.normalization == pytest.approx(-1.0, abs=1e-9)

    def test_conjugate_eigenfunction(self, bundle_mid, spectral_mid):
        block = build_block_E(bundle_mid)
        em = spectral_mid.e_minus
        z = _stack(em)
        res = block.apply_complex(z) + spectral_mid.lambda1 * z
        assert np.linalg.norm(res) / np.linalg.norm(z) < 1e-10

    def test_e_minus_is_conjugate(self, spectral_mid):
        assert np.allclose(spectral_mid.e_minus.u, np.conj(spectral_mid.e_plus.u))

    def test_hn_sign_convention(self, bundle_mid, spectral_mid):
        # (Re e+, T(bQ))_{H_N} > 0 pins the amplitude sign convention
        bundle = bundle_mid
        lap = bundle.grid.laplacian_matrix("dirichlet", 2)
        w = np.pi ** 3 * bundle.grid.cell_masses
        e1u = spectral_mid.e_plus.u.real
        e1v = spectral_mid.e_plus.v.real
        val = (np.sum(w * (-(lap @ e1u)) * bundle.t_q.u.real)
               + bundle.kappa * np.sum(w * (-(lap @ e1v)) * bundle.t_q.v.real))
        assert val > 0

    def test_grid_convergence(self, spectral_mid):
        grid2 = RadialGrid(n=512, r_max=200.0, stretch=29.0)
        bundle2 = build_bundle(grid2, 0.5)
        lam2 = lambda1_inverse_iteration(bundle2, spectral_mid.lambda1)
        assert abs(lam2 - spectral_mid.lambda1) / spectral_mid.lambda1 < 1e-3

    def test_kappa_one_has_eigenvalue(self, mid_grid):
        bundle = build_bundle(mid_grid, 1.0)
        s = eigenpair_e(bundle)
        assert s.lambda1 > 0
        assert s.residual < 1e-9


def _dense_oracle(bundle, polish_iterations=3):
    """lambda1 and the sign-fixed e+ from the dense symmetric product on this grid.

    sqrt_ei and negative_eigenpair_tt at full size, the Rayleigh-quotient
    polish on the sparse 4n system, then |Phi_E(e+, e-)| = 1 and the sign
    fixed by (Re e+, T(bQ))_{H_N} > 0.
    """
    grid, n = bundle.grid, bundle.grid.n
    block = build_block_E(bundle)
    root = sqrt_ei(block.e_i, bundle)
    mu, g, _ = negative_eigenpair_tt(block.e_r, root)
    lam = np.sqrt(-mu)
    m = grid.cell_masses
    d = np.sqrt(np.concatenate([m, m]))
    e1 = _root_apply_sym(root, g) / d
    e2 = (block.e_r.mat @ e1) / lam
    D4 = np.concatenate([d, d])
    S = sp.diags(D4) @ block.sparse_real() @ sp.diags(1.0 / D4)
    x = np.concatenate([e1, e2]) * D4
    x /= np.linalg.norm(x)
    for _ in range(polish_iterations):
        x = spla.splu((S - lam * sp.identity(4 * n, format="csc")).tocsc()).solve(x)
        x /= np.linalg.norm(x)
        lam = float(x @ (S @ x))
    e1, e2 = x[:2 * n] / d, x[2 * n:] / d
    ep = pair_from_arrays(grid, e1[:n] + 1j * e2[:n], e1[n:] + 1j * e2[n:], bundle.kappa)
    ep = (1.0 / np.sqrt(abs(quad_form(ep, ep.conj(), form_ops(bundle, "phi_e"))))) * ep
    lap = grid.laplacian_matrix("dirichlet", 2)
    w = np.pi ** 3 * m
    pairing = (np.sum(w * (-(lap @ ep.u.real)) * bundle.t_q.u.real)
               + bundle.kappa * np.sum(w * (-(lap @ ep.v.real)) * bundle.t_q.v.real))
    return lam, (ep if pairing > 0 else -1.0 * ep)


def _weighted_rel(grid, a, b):
    w = np.concatenate([grid.cell_masses, grid.cell_masses])
    za, zb = _stack(a), _stack(b)
    return np.sqrt(np.sum(w * np.abs(za - zb) ** 2) / np.sum(w * np.abs(za) ** 2))


class TestSparseRoute:
    """eigenpair_e forms TT only at the seed size and shift-inverts on the target grid."""

    @pytest.mark.parametrize("background,kappa,r_max,stretch", [
        ("closed-form", 0.5, 200.0, 29.0),
        ("discrete", 0.5, 200.0, 29.0),
        ("closed-form", 0.5, 80.0, 9.0),
        ("closed-form", 2.0, 200.0, 29.0),
    ], ids=["closed-form", "discrete", "r_max-80-stretch-9", "kappa-2"])
    def test_matches_dense_oracle_at_512(self, background, kappa, r_max, stretch):
        bundle = build_bundle(RadialGrid(n=512, r_max=r_max, stretch=stretch), kappa,
                              background=background)
        s = eigenpair_e(bundle)
        assert s.info["seed_n"] == SEED_N
        lam, ep = _dense_oracle(bundle)
        assert abs(s.lambda1 - lam) / lam < 1e-10
        assert _weighted_rel(bundle.grid, ep, s.e_plus) < 1e-10
        assert _weighted_rel(bundle.grid, ep.conj(), s.e_minus) < 1e-10

    def test_fine_grid_2048(self):
        # the dense route rejected mu = -lambda1^2 here: TT's scale grows like n^4
        s = {n: eigenpair_e(build_bundle(RadialGrid(n=n, r_max=200.0, stretch=29.0), 0.5))
             for n in (1024, 2048)}
        fine = s[2048]
        assert abs(fine.lambda1 - s[1024].lambda1) / s[1024].lambda1 < 1e-4
        assert fine.residual <= 1e-10
        assert fine.info["n_negative"] == 1

    def test_discrete_background_on_a_large_box(self):
        # seeded from a Q refined on 96 nodes, lambda_c was 22 % below lambda1
        # at r_max = 400 and inverse iteration wandered off at n = 2048; the
        # seed is the closed-form background's, whatever the bundle's
        s = eigenpair_e(build_bundle(RadialGrid(n=2048, r_max=400.0, stretch=29.0), 0.5,
                                     background="discrete"))
        assert abs(s.lambda1 - s.info["seed_lambda1"]) / s.lambda1 < 0.02
        assert s.residual <= 1e-10
        assert s.info["n_negative"] == 1

    def test_seed_is_the_dense_route_on_coarse_grids(self, bundle_mid, spectral_mid):
        # the seed is the dense route on the SEED_N grid of the same family
        grid = bundle_mid.grid
        seed_bundle = build_bundle(RadialGrid(n=SEED_N, r_max=grid.r_max, mapping=grid.mapping,
                                              stretch=grid.stretch),
                                   bundle_mid.kappa, background=bundle_mid.background)
        seed_block = build_block_E(seed_bundle)
        mu, _, info = negative_eigenpair_tt(seed_block.e_r, sqrt_ei(seed_block.e_i, seed_bundle))
        root = sqrt_ei(build_block_E(bundle_mid).e_i, bundle_mid)
        assert spectral_mid.info["seed_n"] == SEED_N
        assert spectral_mid.info["seed_lambda1"] == pytest.approx(np.sqrt(-mu), rel=1e-14)
        assert spectral_mid.info["tt_residual"] == info["tt_residual"]
        assert spectral_mid.kernel_eig == pytest.approx(root.kernel_eig, abs=1e-9)

    def test_refinement_check_runs_the_same_iteration(self, bundle_mid, spectral_mid):
        # lambda1_inverse_iteration starts from eigenpair_e's start vector
        lam = lambda1_inverse_iteration(bundle_mid, spectral_mid.lambda1)
        assert abs(lam - spectral_mid.lambda1) / spectral_mid.lambda1 < 1e-12

    def test_certificate_counts_by_gap_not_sign(self, spectral_mid, bundle_mid):
        # E_R's near-kernel eigenvalue (the Lambda Q direction) is -2.4e-5 at
        # n = 256 and changes sign with n.  A shift below it leaves E_R + tol
        # two negative eigenvalues and k^T (E_R + tol)^{-1} k < 0, a shift
        # above it one and a positive pairing: the count is 1 either way
        from qnls6.spectrum import _compressed_negative_count
        e_r = build_block_E(bundle_mid).e_r
        sm = np.sqrt(bundle_mid.grid.cell_masses)
        k = np.column_stack([sm * bundle_mid.t_q1.u.real, sm * bundle_mid.t_q1.v.real]).ravel()
        k /= np.linalg.norm(k)
        for tol in (1e-6, 1e-4, 0.5 * abs(spectral_mid.mu)):
            assert _compressed_negative_count(e_r, k, tol) == 1

    def test_oracle_failure_names_cut_scale_and_n(self, bundle_mid):
        block = build_block_E(bundle_mid)
        root = sqrt_ei(block.e_i, bundle_mid)
        with pytest.raises(SpectrumError, match=r"cut .*spectral scale .*n = 256"):
            negative_eigenpair_tt(block.e_r, root, tol_scale=1.0)

    def test_kernel_certificate_at_8192(self):
        # E_I's second eigenvalue is set by the box (3.3e-4 here), while
        # clip_rel x lambda_max(E_I) grows like n^2 and reached 6.9e-4
        s = eigenpair_e(build_bundle(RadialGrid(n=8192, r_max=200.0, stretch=29.0), 0.5))
        assert s.info["n_negative"] == 1
        assert abs(s.kernel_eig) < 2.1e-5
        assert s.residual <= 1e-10

    def test_shift_invert_steps_off_an_exact_eigenvalue(self):
        # S = diag(1, 2, 3, 4): the band LU at the shift 2 is exactly singular,
        # and the iteration re-factors 1e-9 (relative) off it
        from qnls6.spectrum import _shift_invert
        ab = np.zeros((3, 4), order="F")
        ab[1] = [1.0, 2.0, 3.0, 4.0]
        band = GeneratorBand(ab=ab, kl=1, ku=1, perm=np.arange(4), d=np.ones(4))
        with pytest.raises(RuntimeError, match="exactly singular"):
            band.factor(2.0)
        lam, x = _shift_invert(band, 2.0, 2, 1)
        assert lam == pytest.approx(2.0, rel=1e-12)
        assert abs(x[1]) == pytest.approx(1.0, rel=1e-12)   # D = 1, no permutation


def _unit_k(bundle):
    # the unit T(bQ1) in the interleaved, symmetrized layout of the certificates
    sm = bundle.grid.sqrt_masses
    k = np.column_stack([sm * bundle.t_q1.u.real, sm * bundle.t_q1.v.real]).ravel()
    return k / np.linalg.norm(k)


class TestInertia:
    """The LDL^T inertia counts against dense eigenvalues of the same operators."""

    @pytest.fixture(scope="class", params=[
        (n, background, kappa) for n in (64, 128) for background in ("closed-form", "discrete")
        for kappa in (0.5, 2.0)], ids=lambda p: f"n{p[0]}-{p[1]}-kappa{p[2]:g}")
    def case(self, request):
        n, background, kappa = request.param
        bundle = build_bundle(RadialGrid(n=n, r_max=60.0, stretch=9.0), kappa,
                              background=background)
        return bundle, build_block_E(bundle)

    @pytest.mark.parametrize("which", ["e_i", "e_r"])
    def test_counts_equal_eigvalsh_counts(self, case, which):
        from qnls6.spectrum import _interleaved, _ldlt
        op = getattr(case[1], which)
        ev = np.linalg.eigvalsh(op.symmetric_dense())
        # under the lowest eigenvalue, then between each of the lowest six
        shifts = np.r_[ev[0] - 1.0, 0.5 * (ev[:6] + ev[1:7])]
        S = _interleaved(op)
        for shift in shifts:
            assert _ldlt(S, shift)[1] == np.count_nonzero(ev < shift)

    def test_compressed_count_equals_dense_compression(self, case):
        from qnls6.spectrum import _compressed_negative_count
        bundle, block = case
        k = _unit_k(bundle)
        n = bundle.grid.n
        # the dense E_R in the interleaved layout, compressed to k^perp
        perm = np.column_stack([np.arange(n), n + np.arange(n)]).ravel()
        S = block.e_r.symmetric_dense()[np.ix_(perm, perm)]
        basis = sla.null_space(k[None, :])
        ev = np.linalg.eigvalsh(basis.T @ S @ basis)
        # the certificate's tolerances, then cuts under and between the lowest six
        cuts = np.r_[-1e-6, -1e-3, ev[0] - 1.0, 0.5 * (ev[:6] + ev[1:7])]
        for cut in cuts:
            assert _compressed_negative_count(block.e_r, k, -cut) == np.count_nonzero(ev < cut)

    def test_kernel_eig_is_the_lowest_eigenvalue(self, case):
        from qnls6.spectrum import _ei_kernel_eig
        bundle, block = case
        ev = np.linalg.eigvalsh(block.e_i.symmetric_dense())
        assert _ei_kernel_eig(block.e_i, _unit_k(bundle)) == pytest.approx(ev[0], rel=1e-6)

    @pytest.mark.parametrize("n", [48, 64, 96])
    def test_kernel_eig_where_it_is_not_the_smallest_in_size(self, n):
        # at r_max = 200 these grids put the second eigenvalue of E_I nearer
        # 0 than the lowest (1.4e-4 against -2.0e-3 at n = 48)
        from qnls6.spectrum import _ei_kernel_eig
        bundle = build_bundle(RadialGrid(n=n, r_max=200.0, stretch=29.0), 4.0)
        e_i = build_block_E(bundle).e_i
        ev = np.linalg.eigvalsh(e_i.symmetric_dense())
        assert abs(ev[0]) > ev[1]
        assert _ei_kernel_eig(e_i, _unit_k(bundle)) == pytest.approx(ev[0], rel=1e-8)

    def test_second_eigenvalue_under_tau_is_refused(self, case):
        # E_R has its negative eigenvalue and the T(Lambda Q) one under tau
        from qnls6.spectrum import _ei_kernel_eig
        bundle, block = case
        with pytest.raises(SpectrumError, match="unexpected kernel dimension"):
            _ei_kernel_eig(block.e_r, _unit_k(bundle))

    def test_zero_leading_pivot_is_refused(self):
        from qnls6.spectrum import _ldlt
        S = sp.csc_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(SpectrumError, match="pivoted"):
            _ldlt(S, 0.0)


def _full_spectrum_check(bundle):
    # the oracle: all 4n eigenvalues of the cell-mass scaled D script_E D^{-1}
    # from one 4n x 4n eigensolve, counted by the same classification
    from qnls6.spectrum import _dense_counts
    D4 = np.tile(bundle.grid.sqrt_masses, 4)
    M = build_block_E(bundle).sparse_real().toarray(order="F")
    M *= D4[:, None]
    M /= D4[None, :]
    return _dense_counts(sla.eigvals(M, overwrite_a=True))


class TestDenseCrossCheck:
    @pytest.fixture(scope="class")
    def cross(self):
        grid = RadialGrid(n=192, r_max=60.0, stretch=9.0)
        bundle = build_bundle(grid, 0.5)
        return dense_cross_check(bundle)

    def test_exactly_two_real_eigenvalues(self, cross):
        assert cross["n_real"] == 2
        lams = cross["real_eigs"]
        assert lams[0] == pytest.approx(-lams[1], rel=1e-8)

    def test_kernel_dimension_two(self, cross):
        assert cross["n_near_zero"] == 2

    def test_lambda_agrees_with_symmetric_route(self, cross, spectral_mid):
        assert abs(cross["lambda1_dense"] - spectral_mid.lambda1) / spectral_mid.lambda1 < 1e-2

    @pytest.mark.parametrize("n", [192, 96], ids=["class-grid", "ci-cross-grid"])
    def test_squared_route_matches_the_full_eigensolve(self, n):
        bundle = build_bundle(RadialGrid(n=n, r_max=60.0, stretch=9.0), 0.5)
        full = _full_spectrum_check(bundle)
        cross = dense_cross_check(bundle)
        assert cross["n_real"] == full["n_real"]
        assert cross["n_near_zero"] == full["n_near_zero"]
        assert cross["lambda1_dense"] == pytest.approx(full["lambda1_dense"], rel=1e-8)
        assert cross["real_eigs"] == pytest.approx(full["real_eigs"], rel=1e-8)
        assert cross["spectral_scale"] == pytest.approx(full["spectral_scale"], rel=1e-10)
        # squaring makes the +- pairing structural; the full spectrum has to
        # show it on its own
        lams = full["real_eigs"]
        assert lams == pytest.approx([-x for x in reversed(lams)], rel=1e-8)


class TestCoercivity:
    def test_phi_positive_on_complement(self, bundle_mid):
        res = coercivity_sample("phi_G", 30, 101, bundle_mid)
        assert res["min_ratio"] > 0

    def test_phi_e_positive_on_complement(self, bundle_mid, spectral_mid):
        res = coercivity_sample("phi_e_Gtilde", 30, 102, bundle_mid, spectral_mid)
        assert res["min_ratio"] > 0

    def test_l_i_nonnegative(self, bundle_mid):
        res = coercivity_sample("L_I", 30, 103, bundle_mid)
        assert res["min_ratio"] > 0

    def test_e_i_nonnegative(self, bundle_mid):
        res = coercivity_sample("E_I", 30, 104, bundle_mid)
        assert res["min_ratio"] > 0

    def test_deterministic_given_seed(self, bundle_mid):
        a = coercivity_sample("L_I", 10, 105, bundle_mid)
        b = coercivity_sample("L_I", 10, 105, bundle_mid)
        assert a["min_ratio"] == b["min_ratio"]

    def test_degenerate_direction_value(self, bundle_mid, spectral_mid):
        # T(Lambda Q) sits in the kernel sector: Phi_E vanishes there
        bundle = bundle_mid
        ops = form_ops(bundle, "phi_e")
        tlq = bundle.t_lambda_q
        val = quad_form(tlq, tlq, ops)
        scale = abs(quad_form(bundle.t_q, bundle.t_q, ops))
        assert abs(val) < 1e-3 * scale

    def test_sanity_direction_negative(self, bundle_mid):
        bundle = bundle_mid
        val = quad_form(bundle.t_q, bundle.t_q, form_ops(bundle, "phi_e"))
        assert val < 0

    def test_trials_validated(self, bundle_mid):
        with pytest.raises(ValueError):
            coercivity_sample("phi_G", 0, 1, bundle_mid)


class TestBatchedCoercivity:
    """The Gram-matrix sampler against a per-trial loop on the grid."""

    @staticmethod
    def _loop_sample(which, trials, seed, bundle, spectral=None):
        # one trial at a time: scalar draws, closure constraints, projection
        # by FieldPair arithmetic, one form and one Hdot1 norm per trial
        rng = np.random.default_rng(seed)
        dirs = build_directions(bundle)
        grid = bundle.grid
        modes = [grid.nodes ** p * np.exp(-s * grid.nodes ** 2)
                 for p in (0, 1, 2, 3) for s in (0.3, 0.6, 1.2, 2.5)]
        if which == "phi_G":
            ops = form_ops(bundle, "phi")
            constraints = [lambda h: quad_form(bundle.q_vec, h, ops),
                           lambda h: h1dot_inner(dirs["i_q1"], h),
                           lambda h: h1dot_inner(dirs["lambda_q"], h)]
            directions = [dirs["q"], dirs["i_q1"], dirs["lambda_q"]]
            form = lambda h: quad_form(h, h, ops)
        elif which == "phi_e_Gtilde":
            ops = form_ops(bundle, "phi_e")
            ep, em = spectral.e_plus, spectral.e_minus
            constraints = [lambda h: quad_form(h, ep, ops),
                           lambda h: quad_form(h, em, ops),
                           lambda h: h1dot_inner(dirs["t_i_q1"], h),
                           lambda h: h1dot_inner(dirs["t_lambda_q"], h)]
            directions = [ep, em, dirs["t_i_q1"], dirs["t_lambda_q"]]
            form = lambda h: quad_form(h, h, ops)
        else:
            op = assemble_L(bundle, "L_I") if which == "L_I" else assemble_E(bundle, "E_I")
            dvec = bundle.q1_vec if which == "L_I" else transform_T(bundle.q1_vec)
            constraints = [lambda h: h1dot_inner(dvec, h)]
            directions = [dvec]
            form = lambda h: op.quad(_stack(h).real, _stack(h).real)
        real_only = which in ("L_I", "E_I")
        G = np.array([[c(d) for d in directions] for c in constraints])
        ratios = []
        for _ in range(trials):
            u = np.zeros(grid.n, dtype=complex)
            v = np.zeros(grid.n, dtype=complex)
            for base in modes:
                cu = rng.standard_normal() + (0 if real_only else 1j * rng.standard_normal())
                cv = rng.standard_normal() + (0 if real_only else 1j * rng.standard_normal())
                u += cu * base
                v += cv * base
            h = pair_from_arrays(grid, u, v, bundle.kappa)
            coef = np.linalg.solve(G, np.array([c(h) for c in constraints]))
            for cf, d in zip(coef, directions):
                h = h - cf * d
            nrm = h1dot_norm(h)
            if nrm < 1e-12:
                continue
            ratios.append(form(h) / nrm ** 2)
        return len(ratios), np.min(ratios), np.median(ratios), np.max(ratios)

    @pytest.mark.parametrize("which", ["phi_G", "phi_e_Gtilde", "L_I", "E_I"])
    def test_matches_trial_loop(self, which, bundle_mid, spectral_mid):
        spectral = spectral_mid if which == "phi_e_Gtilde" else None
        res = coercivity_sample(which, 30, 211, bundle_mid, spectral)
        kept, lo, med, hi = self._loop_sample(which, 30, 211, bundle_mid, spectral)
        assert res["trials"] == kept
        for key, ref in (("min_ratio", lo), ("median_ratio", med), ("max_ratio", hi)):
            assert abs(res[key] - ref) <= 1e-12 * abs(ref)

    @pytest.fixture(scope="class")
    def small(self, small_grid):
        bundle = build_bundle(small_grid, 0.5)
        return bundle, eigenpair_e(bundle)

    @pytest.mark.parametrize("which", ["phi_G", "phi_e_Gtilde", "L_I", "E_I"])
    def test_matches_trial_loop_at_300_trials(self, which, small):
        # more trials than the 128 rows one batch of the grid sampler held
        bundle, spectral = small
        spectral = spectral if which == "phi_e_Gtilde" else None
        res = coercivity_sample(which, 300, 223, bundle, spectral)
        kept, lo, med, hi = self._loop_sample(which, 300, 223, bundle, spectral)
        assert res["trials"] == kept == 300
        for key, ref in (("min_ratio", lo), ("median_ratio", med), ("max_ratio", hi)):
            assert abs(res[key] - ref) <= 1e-12 * abs(ref)


class TestResolvent:
    def test_shifted_solves_bounded(self, bundle_mid, spectral_mid):
        out = shifted_solve_conditioning(bundle_mid, spectral_mid.lambda1, (2, 3, 4))
        for key, val in out.items():
            assert np.isfinite(val)
            assert val < 1e4 / spectral_mid.lambda1

    def test_independent_of_global_rng(self):
        # onenormest draws from numpy's global RNG; on this grid seeds 1000
        # and 1042 gave two different j = 4 estimates before it was pinned.
        # The estimate must not depend on the RNG state, nor change it.
        bundle = build_bundle(RadialGrid(n=1024, r_max=200.0, stretch=29.0), 0.5)
        lam1 = eigenpair_e(bundle).lambda1
        out = []
        for seed in (1000, 1042):
            np.random.seed(seed)
            before = np.random.get_state()
            out.append(shifted_solve_conditioning(bundle, lam1))
            after = np.random.get_state()
            assert before[0] == after[0] and np.array_equal(before[1], after[1])
            assert before[2:] == after[2:]
        assert out[0] == out[1]
