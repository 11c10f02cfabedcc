import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import siglap
from siglap import (ConvergenceError, IndefiniteOperatorError, KernelBasis,
                    PencilOperator, ShiftConfig, SparseSymMatrix,
                    a_orthonormalize, apply_geometric_mean,
                    dense_geometric_mean, dense_sym_eig, eksm_apply_inv_sqrt,
                    geomean, matrix_smallest_k_eigenpairs, shifted_pair,
                    smallest_eigenpairs, smallest_k_eigenpairs,
                    spectral_cluster)
from siglap.cluster import RESID_TOL
from siglap.densela import ORACLE_CAP, pencil_inv_sqrt_apply, subspace_angle
from siglap.graphs import (SignedGraph, laplacian, pencil_kernels,
                           signed_laplacian, signless_laplacian)
from siglap.sbm import (SbmParams, conditions, expected_graph, indicator_basis,
                        sample, two_cluster_benchmark_graph)

# the tolerances of a `siglap bench` call and of spectral_cluster
SOLVE_MODES = [1e-8, RESID_TOL]


def sbm_graph(n_half, seed, **kw):
    params = SbmParams(k=2, cluster_size=n_half,
                       p_in_plus=kw.get("pip", 0.4), p_out_plus=kw.get("pop", 0.08),
                       p_in_minus=kw.get("pim", 0.08), p_out_minus=kw.get("pom", 0.4))
    return sample(params, seed=seed)


def sbm_pencil(n_half, seed, shift=ShiftConfig(1e-4, 1e-4), **kw):
    return PencilOperator(*shifted_pair(sbm_graph(n_half, seed, **kw), shift))


def dense_solve_pencil(n_half, seed, shift):
    """``sbm_pencil`` with dense, exact solves, whatever ``tol`` asks."""
    pencil = sbm_pencil(n_half, seed, shift)
    a, b = dense_pair(pencil)
    pencil.solve_a = lambda rhs, tol: np.linalg.solve(a, rhs)
    pencil.solve_b = lambda rhs, tol: np.linalg.solve(b, rhs)
    return pencil


def isolate_vertex(g, v, plus=True, minus=False):
    """``g`` with every ``W+`` edge, and with ``minus`` every ``W-`` edge, at
    vertex ``v`` removed."""
    def cut(w, on):
        if not on:
            return w
        d = w.to_dense()
        d[v, :] = 0.0
        d[:, v] = 0.0
        return SparseSymMatrix.from_dense(d)

    return SignedGraph(w_plus=cut(g.w_plus, plus), w_minus=cut(g.w_minus, minus))


def two_cluster(seed=3):
    # W+ has one component per cluster, W- is connected and bipartite
    return two_cluster_benchmark_graph(40, 12, seed)[0]


def bipartite_minus(seed=31):
    return sample(SbmParams(2, 20, 0.4, 0.08, 0.0, 0.4), seed=seed)


def empty_minus(seed=32):
    return sample(SbmParams(2, 20, 0.4, 0.08, 0.0, 0.0), seed=seed)


def dense_basis(kernel):
    cols = [kernel.combine(e) for e in np.eye(kernel.count)]
    return np.array(cols).reshape(kernel.count, kernel.ids.size).T


def dense_pair(pencil):
    return pencil.a.to_dense(), pencil.b.to_dense()


def default_shift_pencil(g):
    """The GM pencil of ``g`` at the default shifts, with its kernels, and the
    eigenvectors of the dense geometric mean."""
    a, b = shifted_pair(g, ShiftConfig())
    pencil = PencilOperator(a, b, kernels=pencil_kernels(g))
    return pencil, dense_sym_eig(dense_geometric_mean(*dense_pair(pencil)))[1]


def mp_inv_sqrt_apply(a, b, ys):
    """``(a^-1 b)^-1/2 y`` for each column ``y`` of ``ys``, in 34-digit
    arithmetic: with ``a = L L'`` and ``L^-1 b L^-T = W diag(w) W'`` it is
    ``L^-T W diag(w)^-1/2 W' L' y``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(34):
        chol = mpmath.cholesky(mpmath.matrix(a.tolist()))
        inv = mpmath.inverse(chol)
        w, v = mpmath.eigsy(inv * mpmath.matrix(b.tolist()) * inv.T)
        scale = mpmath.diag([1 / mpmath.sqrt(x) for x in w])
        out = inv.T * (v * (scale * (v.T * (chol.T * mpmath.matrix(ys.tolist())))))
        return np.array(out.tolist(), dtype=np.float64)


class TestAOrthonormalize:
    def test_plain_normalization(self):
        none = np.empty((2, 0))
        res = a_orthonormalize(none, np.array([3.0, 4.0]), lambda v: v, none)
        np.testing.assert_allclose(res[0], [0.6, 0.8])

    def test_euclidean_gram_schmidt(self):
        basis = np.eye(2)[:, :1]
        q, _ = a_orthonormalize(basis, np.array([1.0, 1.0]), lambda v: v, basis)
        np.testing.assert_allclose(q, [0.0, 1.0], atol=1e-15)

    def test_weighted_norm(self):
        a = np.diag([4.0, 1.0])
        none = np.empty((2, 0))
        q, aq = a_orthonormalize(none, np.array([1.0, 0.0]), lambda v: a @ v, none)
        np.testing.assert_allclose(q, [0.5, 0.0])
        np.testing.assert_allclose(aq, [2.0, 0.0])

    def test_breakdown_signal(self):
        basis = np.eye(3)[:, :2]
        w = np.array([1.0, -2.0, 0.0])
        assert a_orthonormalize(basis, w, lambda v: v, basis) is None

    def test_breakdown_signal_in_the_a_product(self):
        # the reference A-norm comes from the projection coefficients, so a
        # vector in the span (or zero) still reports breakdown
        rng = np.random.default_rng(6)
        m = rng.standard_normal((8, 8))
        a = m @ m.T + 8 * np.eye(8)
        none = np.empty((8, 0))
        basis, a_basis = none, none
        for _ in range(3):
            q, aq = a_orthonormalize(basis, rng.standard_normal(8), lambda v: a @ v,
                                     a_basis)
            basis, a_basis = np.column_stack([basis, q]), np.column_stack([a_basis, aq])
        w = basis @ np.array([2.0, -1.0, 0.5])
        assert a_orthonormalize(basis, w, lambda v: a @ v, a_basis) is None
        assert a_orthonormalize(basis, np.zeros(8), lambda v: a @ v, a_basis) is None
        assert a_orthonormalize(none, np.zeros(8), lambda v: a @ v, none) is None

    def test_result_is_a_orthonormal(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 8))
        a = m @ m.T + 8 * np.eye(8)
        apply_a = lambda v: a @ v
        basis = a_basis = np.empty((8, 0))
        for _ in range(5):
            q, aq = a_orthonormalize(basis, rng.standard_normal(8), apply_a, a_basis)
            basis, a_basis = np.column_stack([basis, q]), np.column_stack([a_basis, aq])
        gram = basis.T @ a @ basis
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)


class TestEksm:
    def test_equal_operands_returns_input(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 12))
        spd = SparseSymMatrix.from_dense(m @ m.T + 12 * np.eye(12))
        pencil = PencilOperator(spd, spd)
        y = rng.standard_normal(12)
        res = eksm_apply_inv_sqrt(pencil, y)
        np.testing.assert_allclose(res.x, y, atol=1e-8 * np.linalg.norm(y))
        assert res.s <= 4

    def test_commuting_diagonal(self):
        pencil = PencilOperator(SparseSymMatrix.from_dense(np.diag([1.0, 4.0])),
                                SparseSymMatrix.from_dense(np.diag([4.0, 1.0])))
        res = eksm_apply_inv_sqrt(pencil, np.array([1.0, 1.0]))
        np.testing.assert_allclose(res.x, [0.5, 2.0], atol=1e-10)

    def test_sbm_pencil_matches_dense_oracle(self):
        pencil = sbm_pencil(75, seed=11)
        rng = np.random.default_rng(11)
        y = rng.standard_normal(150)
        res = eksm_apply_inv_sqrt(pencil, y, tol=1e-12)
        x_dense = pencil_inv_sqrt_apply(*dense_pair(pencil), y)
        rel = np.linalg.norm(res.x - x_dense) / np.linalg.norm(x_dense)
        assert rel <= 1e-8

    def test_error_decays_with_subspace_growth(self, monkeypatch):
        pencil = dense_solve_pencil(60, 3, ShiftConfig(1e-4, 1e-4))
        rng = np.random.default_rng(3)
        y = rng.standard_normal(120)
        # the approximant after s steps is the iterate of a call capped at
        # s steps, up to the first call that stops on its own
        history = []
        for cap in range(1, 61):
            monkeypatch.setattr(geomean, "MAX_EKSM_STEPS", cap)
            try:
                history.append(eksm_apply_inv_sqrt(pencil, y, tol=1e-11).x)
                break
            except ConvergenceError as err:
                history.append(err.iterate)
        else:
            pytest.fail("no call stopped within 60 steps")
        x_dense = pencil_inv_sqrt_apply(*dense_pair(pencil), y)
        errs = np.array([np.linalg.norm(xs - x_dense) for xs in history])
        errs /= np.linalg.norm(x_dense)
        above = errs > 1e-10
        assert errs[-1] <= 1e-8
        # log-linear decrease on the pre-floor stretch
        seg = np.log(errs[above])
        assert seg.size >= 3
        slopes = np.diff(seg)
        assert np.median(slopes) < -0.5

    def test_residual_structure_on_settled_columns(self):
        # M V restricted to all but the two frontier columns reproduces V H
        pencil = dense_solve_pencil(40, 5, ShiftConfig(1e-2, 1e-2))
        rng = np.random.default_rng(5)
        y = rng.standard_normal(80)
        res = eksm_apply_inv_sqrt(pencil, y, tol=1e-10)
        v = res.basis
        h = res.projected
        mv = np.column_stack(
            [pencil.solve_a(pencil.apply_b(v[:, j]), 0.0) for j in range(v.shape[1])]
        )
        mismatch = mv - v @ h
        settled = mismatch[:, : v.shape[1] - 2]
        assert np.abs(settled).max() <= 1e-8
        assert res.projected.shape[0] == v.shape[1]
        np.testing.assert_allclose(h, h.T, atol=1e-12)

    def test_basis_is_a_orthonormal(self):
        pencil = sbm_pencil(30, seed=9)
        y = np.random.default_rng(9).standard_normal(60)
        res = eksm_apply_inv_sqrt(pencil, y)
        v = res.basis
        gram = v.T @ (pencil.a.to_scipy() @ v)
        assert np.abs(gram - np.eye(v.shape[1])).max() <= 1e-8

    def test_grown_basis_stays_a_orthonormal(self):
        # tol = 0 runs until the subspace closes, several times past the
        # buffer's first capacity
        g = two_cluster_benchmark_graph(80, 50, 1)[0]
        a, b = shifted_pair(g, ShiftConfig())
        pencil = PencilOperator(a, b, kernels=pencil_kernels(g))
        y = np.random.default_rng(2).standard_normal(80)
        res = eksm_apply_inv_sqrt(pencil, y, tol=0.0)
        v = res.basis
        assert res.s > 30 and v.shape[1] > 2 * geomean.BASIS_CAPACITY
        assert np.abs(v.T @ (a.to_scipy() @ v) - np.eye(v.shape[1])).max() <= 1e-10
        bvv = v.T @ (b.to_scipy() @ v)
        np.testing.assert_allclose(res.projected, 0.5 * (bvv + bvv.T),
                                   rtol=0, atol=1e-12 * np.abs(bvv).max())

    def test_one_product_with_each_operand_per_basis_vector(self):
        pencil = sbm_pencil(30, seed=9)
        counts = {"a": 0, "b": 0}

        def counting(side, apply):
            def wrapped(x):
                counts[side] += 1
                return apply(x)
            return wrapped

        pencil.apply_a = counting("a", pencil.apply_a)
        pencil.apply_b = counting("b", pencil.apply_b)
        res = eksm_apply_inv_sqrt(pencil, np.random.default_rng(9).standard_normal(60))
        assert res.stop == "tol"
        # the product with A that gives y its A-norm also serves y's basis
        # vector
        assert counts == {"a": res.basis.shape[1], "b": res.basis.shape[1]}

    def test_nonconvergence_carries_iterate(self, monkeypatch):
        pencil = sbm_pencil(40, seed=7, shift=ShiftConfig(1e-6, 1e-6))
        y = np.random.default_rng(7).standard_normal(80)
        monkeypatch.setattr(geomean, "MAX_EKSM_STEPS", 2)
        with pytest.raises(ConvergenceError) as err:
            eksm_apply_inv_sqrt(pencil, y, tol=1e-12)
        assert err.value.iterate.shape == (80,)
        assert err.value.residual > 0

    def test_default_shift_inverse_apply_converges_in_few_steps(self):
        # the projected matrix's eigenvalues span about 4 / eps^2; solved
        # through eigh it held (A#B)^-1 x1 near 1e-7 here, and the iteration
        # ran 27 steps
        pencil, v = default_shift_pencil(two_cluster_benchmark_graph(80, 50, 3)[0])
        res = eksm_apply_inv_sqrt(pencil, pencil.solve_a(v[:, 0], 1e-10))
        assert res.s <= 10
        assert res.stop == "tol"

    def test_stalled_iteration_stops_at_its_floor(self):
        # at shifts of 1e-9 the approximants of (A#B)^-1 x2 stop improving
        # near 1e-9; without the floor rule the iteration runs on until the
        # subspace fills R^80 (41 steps) and returns the same vector
        g = two_cluster_benchmark_graph(80, 50, 1)[0]
        a, b = shifted_pair(g, ShiftConfig(1e-9, 1e-9))
        pencil = PencilOperator(a, b, kernels=pencil_kernels(g))
        v = dense_sym_eig(dense_geometric_mean(a.to_dense(), b.to_dense()))[1]
        y = pencil.solve_a(v[:, 1], 1e-10)
        res = eksm_apply_inv_sqrt(pencil, y)
        assert res.s <= 10
        assert res.stop == "floor"
        assert res.delta > 0.0
        # no tol, no floor rule; the inner solves run at TOL_FLOOR
        full = eksm_apply_inv_sqrt(pencil, y, tol=0.0)
        assert full.stop == "invariant" and full.s > 30
        assert np.linalg.norm(res.x - full.x) <= 1e-9 * np.linalg.norm(full.x)

    def test_closer_to_reference_than_dense_float_evaluation(self):
        # at the default shifts every result must be at least as close to a
        # 34-digit reference as the dense float64 oracle; an eigensolve of
        # the projected matrix left errors of 1e-6 to 1e-5 here, above the
        # oracle's 1.5e-6
        pencil, v = default_shift_pencil(two_cluster())
        rng = np.random.default_rng(0)
        ys = np.column_stack([pencil.solve_a(v[:, 0], 1e-10),
                              pencil.solve_a(v[:, 1], 1e-10),
                              v[:, 0], v[:, 1],
                              rng.standard_normal((pencil.n, 8))])
        refs = mp_inv_sqrt_apply(*dense_pair(pencil), ys)

        def error(x, ref):
            d = x - ref
            return np.sqrt(d @ pencil.apply_a(d) / (ref @ pencil.apply_a(ref)))

        for y, ref in zip(ys.T, refs.T):
            dense = pencil_inv_sqrt_apply(*dense_pair(pencil), y)
            assert error(eksm_apply_inv_sqrt(pencil, y).x, ref) <= error(dense, ref)

    def test_zero_vector_rejected(self):
        pencil = sbm_pencil(10, seed=1)
        with pytest.raises(ValueError, match="nonzero"):
            eksm_apply_inv_sqrt(pencil, np.zeros(20))

    def test_apply_geometric_mean_matches_dense(self):
        pencil = sbm_pencil(30, seed=13)
        x = np.random.default_rng(13).standard_normal(60)
        gm = dense_geometric_mean(*dense_pair(pencil))
        got = apply_geometric_mean(pencil, x)
        np.testing.assert_allclose(got, gm @ x, atol=1e-7 * np.linalg.norm(gm @ x))


@pytest.fixture(scope="module")
def limit_cases():
    """``(pencil, y, limit)`` on default-shift two-cluster pencils (s = 0-3),
    five seeded right-hand sides each, every other one ``A^-1`` of a random
    vector as the GM eigensolver passes it; ``limit`` is the ``tol = 0`` run."""
    cases = []
    for s in range(4):
        g = two_cluster_benchmark_graph(80, 50, s)[0]
        pencil = PencilOperator(*shifted_pair(g, ShiftConfig()),
                                kernels=pencil_kernels(g))
        rng = np.random.default_rng(40 + s)
        for r in range(5):
            y = rng.standard_normal(80)
            if r % 2:
                y = pencil.solve_a(y, 1e-10)
            cases.append((pencil, y, eksm_apply_inv_sqrt(pencil, y, tol=0.0).x))
    return cases


class TestEksmExtrapolatedStop:
    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    def test_error_to_the_limit_is_within_tol(self, limit_cases, tol):
        for pencil, y, limit in limit_cases:
            res = eksm_apply_inv_sqrt(pencil, y, tol=tol)
            assert res.stop == "tol"
            d = res.x - limit
            err = np.sqrt(d @ pencil.apply_a(d) / (limit @ pencil.apply_a(limit)))
            assert err <= tol

    def test_extrapolated_error_stops_before_a_confirming_step(self, limit_cases):
        # successive differences shrink about 200x per step, so a step with
        # delta above tol can already be within tol of the limit
        tol = 1e-6
        runs = [eksm_apply_inv_sqrt(pencil, y, tol=tol) for pencil, y, _ in limit_cases]
        assert any(res.delta > tol for res in runs)


class TestIpm:
    def test_identity_pencil(self):
        pencil = PencilOperator(SparseSymMatrix.from_dense(np.eye(6)),
                                SparseSymMatrix.from_dense(np.eye(6)))
        pair = smallest_k_eigenpairs(pencil, 1)[0]
        assert pair.value == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0)

    def test_commuting_diagonal(self):
        pencil = PencilOperator(SparseSymMatrix.from_dense(np.diag([1.0, 4.0])),
                                SparseSymMatrix.from_dense(np.diag([9.0, 1.0])))
        pair = smallest_k_eigenpairs(pencil, 1, tol=1e-12)[0]
        assert pair.value == pytest.approx(2.0, abs=1e-9)
        assert abs(pair.vector[1]) == pytest.approx(1.0, abs=1e-6)

    def test_expected_sbm_pencil_matches_dense(self):
        params = SbmParams(k=2, cluster_size=30, p_in_plus=0.6, p_out_plus=0.1,
                           p_in_minus=0.1, p_out_minus=0.6)
        wp, wm = expected_graph(params)
        shift = ShiftConfig(1e-3, 1e-3)
        n = params.n
        lsym = np.eye(n) - wp / wp.sum(axis=1)[0]
        qsym = np.eye(n) + wm / wm.sum(axis=1)[0]
        a = SparseSymMatrix.from_dense(lsym + shift.eps1 * np.eye(n))
        b = SparseSymMatrix.from_dense(qsym + shift.eps2 * np.eye(n))
        pencil = PencilOperator(a, b)
        pair = smallest_k_eigenpairs(pencil, 1, tol=1e-10)[0]
        gm = dense_geometric_mean(a.to_dense(), b.to_dense())
        w, v = dense_sym_eig(gm)
        assert abs(pair.value - w[0]) <= 1e-6 * w[0]
        assert subspace_angle(pair.vector[:, None], v[:, :1]) <= 1e-4

    def test_residual_is_small_and_measured(self):
        # the reported residual is an estimate; a caller measures it through
        # A # B, here at 1e-13
        pencil = sbm_pencil(25, seed=2)
        pair = smallest_k_eigenpairs(pencil, 1, tol=1e-9)[0]
        gx = apply_geometric_mean(pencil, pair.vector, tol=1e-13)
        measured = np.linalg.norm(gx - pair.value * pair.vector)
        assert measured <= pair.residual <= 1e-7


class TestSmallestK:
    def test_identity_pencil_degenerate(self):
        pencil = PencilOperator(SparseSymMatrix.from_dense(np.eye(5)),
                                SparseSymMatrix.from_dense(np.eye(5)))
        pairs = smallest_k_eigenpairs(pencil, 3)
        vals = [p.value for p in pairs]
        np.testing.assert_allclose(vals, np.ones(3), atol=1e-9)
        basis = np.column_stack([p.vector for p in pairs])
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-8)

    def test_commuting_diagonal_multiplicity(self):
        pencil = PencilOperator(SparseSymMatrix.from_dense(np.diag([1.0, 4.0, 9.0])),
                                SparseSymMatrix.from_dense(np.diag([9.0, 4.0, 1.0])))
        pairs = smallest_k_eigenpairs(pencil, 2, tol=1e-11)
        np.testing.assert_allclose([p.value for p in pairs], [3.0, 3.0], atol=1e-8)
        span = np.column_stack([p.vector for p in pairs])
        target = np.eye(3)[:, [0, 2]]
        assert subspace_angle(span, target) <= 1e-5

    def test_expected_pencil_recovers_indicator_span(self):
        params = SbmParams(k=2, cluster_size=30, p_in_plus=0.7, p_out_plus=0.1,
                           p_in_minus=0.1, p_out_minus=0.7)
        shift = ShiftConfig(1e-3, 1e-3)
        assert conditions(params, shift).e_g_shifted
        wp, wm = expected_graph(params)
        n = params.n
        lsym = np.eye(n) - wp / wp.sum(axis=1)[0]
        qsym = np.eye(n) + wm / wm.sum(axis=1)[0]
        pencil = PencilOperator(
            SparseSymMatrix.from_dense(lsym + shift.eps1 * np.eye(n)),
            SparseSymMatrix.from_dense(qsym + shift.eps2 * np.eye(n)),
        )
        pairs = smallest_k_eigenpairs(pencil, 2, tol=1e-10)
        span = np.column_stack([p.vector for p in pairs])
        chi = indicator_basis(params)
        assert subspace_angle(span, chi) <= 1e-4

    def test_values_ascending_and_vectors_orthogonal(self):
        pencil = sbm_pencil(40, seed=21)
        pairs = smallest_k_eigenpairs(pencil, 4, tol=1e-8)
        vals = np.array([p.value for p in pairs])
        assert np.all(np.diff(vals) >= -1e-8)
        basis = np.column_stack([p.vector for p in pairs])
        off = basis.T @ basis - np.eye(4)
        assert np.abs(off).max() <= 1e-6

    def test_shared_eigenbasis_pairs_match_dense(self):
        # 50 random commuting SPD pairs: values must be the paired geometric means
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = 8
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            lam = rng.uniform(0.5, 5.0, size=n)
            # spread the geometric means so inverse iteration stays well posed
            geo = np.sort(rng.uniform(0.5, 5.0, size=n))
            while np.min(np.diff(geo) / geo[1:]) < 0.15:
                geo = np.sort(rng.uniform(0.5, 5.0, size=n))
            perm = rng.permutation(n)
            mu = geo[perm] ** 2 / lam

            def spd(vals):
                m = (q * vals) @ q.T
                return SparseSymMatrix.from_dense(0.5 * (m + m.T))

            a, b = spd(lam), spd(mu)
            pairs = smallest_k_eigenpairs(PencilOperator(a, b), 3, tol=1e-9)
            np.testing.assert_allclose([p.value for p in pairs], geo[:3], atol=1e-8)

    def test_k_validation(self):
        pencil = PencilOperator(SparseSymMatrix.from_dense(np.eye(4)),
                                SparseSymMatrix.from_dense(np.eye(4)))
        with pytest.raises(ValueError):
            smallest_k_eigenpairs(pencil, 0)
        with pytest.raises(ValueError):
            smallest_k_eigenpairs(pencil, 5)

    # tol=inf would stop each pair after one inverse step
    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0, 0.0, 1.0])
    @pytest.mark.parametrize("solve", [
        smallest_k_eigenpairs,
        lambda pencil, k, **kw: matrix_smallest_k_eigenpairs(pencil.a, k, **kw),
    ], ids=["pencil", "matrix"])
    def test_tol_validation(self, solve, tol):
        pencil = sbm_pencil(10, seed=1)
        with pytest.raises(ValueError, match="tol"):
            solve(pencil, 1, tol=tol)

    def test_every_pair_when_k_is_n(self):
        # k = n fills the basis with n applications; Lanczos stops there,
        # the Krylov space of the start vector (two eigenvalues, so two
        # dimensions) continued by a random vector from the seed
        pencil = PencilOperator(SparseSymMatrix.from_dense(np.diag([1.0, 4.0, 9.0])),
                                SparseSymMatrix.from_dense(np.diag([9.0, 4.0, 1.0])))
        pairs = smallest_k_eigenpairs(pencil, 3, tol=1e-10)
        np.testing.assert_allclose([p.value for p in pairs], [3.0, 3.0, 4.0],
                                   rtol=1e-9)
        assert [p.iterations for p in pairs] == [3, 3, 3]

    def test_lanczos_nonconvergence_is_typed(self, monkeypatch):
        # one restart cannot converge four pairs of a block model
        g = sample(SbmParams(4, 20, 0.3, 0.05, 0.05, 0.3), 0)
        pencil = PencilOperator(*shifted_pair(g, ShiftConfig()),
                                kernels=pencil_kernels(g))
        monkeypatch.setattr(geomean, "MAX_OUTER", 1)
        with pytest.raises(ConvergenceError, match="Lanczos") as err:
            smallest_k_eigenpairs(pencil, 4)
        assert err.value.iterate.shape[0] == g.n
        assert err.value.iterations > 0

    def test_breakdown_restarts_come_from_the_seed(self):
        # every direction of the identity pencil spans an invariant subspace,
        # so each new basis vector is drawn at random, from the seed
        pencil = PencilOperator(SparseSymMatrix.from_dense(np.eye(6)),
                                SparseSymMatrix.from_dense(np.eye(6)))
        first, again, other = (
            np.column_stack([p.vector for p in smallest_k_eigenpairs(
                pencil, 2, tol=RESID_TOL, seed=seed)])
            for seed in (3, 3, 4))
        np.testing.assert_array_equal(first, again)
        assert not np.allclose(np.abs(first), np.abs(other))
        np.testing.assert_allclose(first.T @ first, np.eye(2), atol=1e-12)

    def test_inner_failure_passes_through(self):
        pencil = PencilOperator(
            SparseSymMatrix.from_dense(np.diag([-1.0, 1.0, 2.0, 3.0])),
            SparseSymMatrix.from_dense(np.eye(4)))
        with pytest.raises(IndefiniteOperatorError, match="curvature"):
            smallest_k_eigenpairs(pencil, 1)


@pytest.fixture
def tolerances(monkeypatch):
    """``(name, tol, inner)`` of every ``eksm_apply_inv_sqrt`` call ("eksm")
    and every ``pcg_solve`` outside one ("cg"), in call order; ``inner``
    lists the tolerances of the solves a Krylov call makes, in order."""
    events, inner = [], []
    eksm, pcg = geomean.eksm_apply_inv_sqrt, geomean.pcg_solve

    def recording_eksm(pencil, y, tol=geomean.DEFAULT_EKSM_TOL, **kw):
        events.append(("eksm", tol, []))
        inner.append(events[-1][2])
        out = eksm(pencil, y, tol=tol, **kw)
        inner.pop()
        return out

    def recording_pcg(*args, tol, **kw):
        if inner:
            inner[-1].append(tol)
        else:
            events.append(("cg", tol, []))
        return pcg(*args, tol=tol, **kw)

    monkeypatch.setattr(geomean, "eksm_apply_inv_sqrt", recording_eksm)
    monkeypatch.setattr(geomean, "pcg_solve", recording_pcg)
    return events


class TestInexactSteps:
    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6, 1e-4])
    def test_step_tolerance_is_a_share_of_the_tolerance(self, tol):
        assert geomean._step_tol(tol) == max(geomean.TOL_FLOOR,
                                             geomean.INNER_RATIO * tol)

    @pytest.mark.parametrize("tol", SOLVE_MODES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gm_inverse_steps_run_at_the_step_tolerance(
            self, tolerances, seed, tol):
        g = two_cluster_benchmark_graph(80, 50, seed)[0]
        pairs = smallest_eigenpairs(g, 2, "GM", tol=tol, seed=seed)
        step = geomean._step_tol(tol)
        # Lanczos applies the inverse, a solve with A and a Krylov call,
        # until every pair has converged, and takes each pair's value and
        # residual from its own images: no Krylov call applies A # B
        applications = pairs[0].iterations
        assert all(p.iterations == applications for p in pairs)
        assert ([event[:2] for event in tolerances]
                == [("cg", step), ("eksm", step)] * applications)
        # a Krylov call's first solves, the three made before two of its
        # approximants exist, run at the step tolerance; once successive
        # approximants differ by delta, a chain vector is solved at
        # step / delta, within [step, sqrt(step)]
        krylov = [inner for name, _, inner in tolerances if name == "eksm"]
        for inner in krylov:
            assert inner[:3] == [step] * 3
            assert all(step <= t <= np.sqrt(step) for t in inner)
        assert any(t > step for inner in krylov for t in inner)

    @pytest.mark.parametrize("tol", SOLVE_MODES)
    def test_explicit_inverse_steps_run_at_the_step_tolerance(
            self, tolerances, tol):
        # SN's second and third eigenvalues on the two-cluster graphs lie
        # within 2% of each other, too close to converge in few steps
        g = empty_minus()
        pairs = smallest_eigenpairs(g, 2, "SN", tol=tol)
        # SN's values and residuals come from products with the matrix, so
        # every solve is an inverse step
        n_steps = sum(p.iterations for p in pairs)
        step = geomean._step_tol(tol)
        assert tolerances == [("cg", step, [])] * n_steps


class TestPencilWithoutKernels:
    @pytest.mark.parametrize("isolated", [False, True])
    def test_smallest_pairs_match_dense_oracle(self, isolated):
        g = sbm_graph(20, seed=23)
        if isolated:
            g = isolate_vertex(g, 0)
        a, b = shifted_pair(g, ShiftConfig(1e-4, 1e-4))
        pairs = smallest_k_eigenpairs(PencilOperator(a, b), 2, tol=1e-10)
        w, v = dense_sym_eig(dense_geometric_mean(a.to_dense(), b.to_dense()))
        vals = np.array([p.value for p in pairs])
        assert np.all(np.abs(vals - w[:2]) <= 1e-6 * np.abs(w[:2]))
        span = np.column_stack([p.vector for p in pairs])
        assert subspace_angle(span, v[:, :2]) <= 1e-5


KERNEL_CASES = {
    "two-cluster": (two_cluster, (2, 1)),
    "isolated-plus": (lambda: isolate_vertex(two_cluster(), 0), (3, 1)),
    "isolated-minus": (lambda: isolate_vertex(two_cluster(), 0, plus=False,
                                              minus=True), (2, 2)),
    "empty-minus": (empty_minus, (1, 40)),
    "non-bipartite-minus": (lambda: sbm_graph(20, seed=33), (1, 0)),
}


def random_sparse(explicit_zeros=False):
    """Sparse enough for many components, bipartite or not, and isolated
    vertices; with ``explicit_zeros``, built from scipy input in which a
    third of the edges have weight 0."""
    rng = np.random.default_rng(7)

    def weights(m):
        i, j = rng.integers(0, 50, size=(2, m))
        keep = i != j
        i, j, w = i[keep], j[keep], rng.uniform(0.5, 2.0, m)[keep]
        if not explicit_zeros:
            return SparseSymMatrix.from_undirected_edges(50, i, j, w)
        w[rng.random(w.size) < 0.3] = 0.0
        return SparseSymMatrix(sp.coo_array((np.r_[w, w], (np.r_[i, j], np.r_[j, i])),
                                            shape=(50, 50)))

    return SignedGraph(weights(30), weights(25))


# the graphs whose kernels are checked against csgraph's components
KERNEL_GRAPHS = {
    **{case: make for case, (make, _) in KERNEL_CASES.items()},
    "sbm-k3": lambda: sample(SbmParams(3, 15, 0.4, 0.25, 0.25, 0.4), 2),
    "random": random_sparse,
    "explicit-zeros": lambda: random_sparse(explicit_zeros=True),
}


@pytest.fixture
def pcg_iterations(monkeypatch):
    """The iteration counts of every ``pcg_solve`` the pencil makes."""
    counts = []
    pcg = geomean.pcg_solve

    def counting(*args, **kw):
        out = pcg(*args, **kw)
        counts.append(out[1])
        return out

    monkeypatch.setattr(geomean, "pcg_solve", counting)
    return counts


def csgraph_kernel_bases(g):
    """Dense orthonormal kernel bases ``(of Lsym+, of Qsym-)`` from scipy's
    csgraph, one column per component of ``W+`` and per bipartite component
    of ``W-``, the latter read off ``W-``'s double cover."""
    n = g.n
    w_plus, w_minus = g.w_plus.to_scipy(), g.w_minus.to_scipy()
    # an explicit zero is no edge, but csgraph reads one as an edge
    w_plus.eliminate_zeros()
    w_minus.eliminate_zeros()
    plus = connected_components(w_plus, directed=False)[1]
    cover = connected_components(sp.bmat([[None, w_minus], [w_minus, None]]),
                                 directed=False)[1]
    lo, hi = cover[:n], cover[n:]
    pairs = {(min(a, b), max(a, b)) for a, b in zip(lo, hi) if a != b}
    supports = ([(plus == c).astype(float) for c in np.unique(plus)],
                [np.where(lo == a, 1.0, 0.0) - np.where(lo == b, 1.0, 0.0)
                 for a, b in sorted(pairs)])
    bases = []
    for w, cols in zip((g.w_plus, g.w_minus), supports):
        d = w.row_sums()
        z = (np.array(cols).reshape(len(cols), n).T
             * np.sqrt(np.where(d > 0.0, d, 1.0))[:, None])
        bases.append(z / np.linalg.norm(z, axis=0))
    return bases


class TestPencilKernels:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_kernels_are_orthonormal_eigenvectors(self, case):
        make, counts = KERNEL_CASES[case]
        g = make()
        shift = ShiftConfig(1e-6, 1e-6)
        a, b = shifted_pair(g, shift)
        ops = (laplacian(g.w_plus, normalized=True),
               signless_laplacian(g.w_minus, normalized=True))
        for kernel, op, m, eps, count in zip(pencil_kernels(g), ops, (a, b),
                                             (shift.eps1, shift.eps2), counts):
            assert kernel.count == count
            assert np.count_nonzero(np.linalg.eigvalsh(op.to_dense()) < 1e-12) == count
            z = dense_basis(kernel)
            assert np.abs(z.T @ z - np.eye(count)).max(initial=0.0) <= 1e-12
            assert np.abs(m.to_scipy() @ z - eps * z).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("case", KERNEL_GRAPHS)
    def test_kernels_match_csgraph_components(self, case):
        g = KERNEL_GRAPHS[case]()
        for kernel, oracle in zip(pencil_kernels(g), csgraph_kernel_bases(g)):
            # vectors are numbered in the order of their smallest vertex
            ids = kernel.ids[kernel.ids >= 0]
            first = np.unique(ids, return_index=True)[1]
            assert np.array_equal(ids[np.sort(first)], np.arange(kernel.count))
            z = dense_basis(kernel)
            assert z.shape == oracle.shape
            assert np.abs(z @ z.T - oracle @ oracle.T).max(initial=0.0) <= 1e-12

    def test_empty_minus_solves_b_without_cg(self, pcg_iterations):
        g = empty_minus()
        a, b = shifted_pair(g, ShiftConfig(1e-4, 1e-4))
        pencil = PencilOperator(a, b, kernels=pencil_kernels(g))
        rhs = np.random.default_rng(32).standard_normal(g.n)
        np.testing.assert_allclose(pencil.solve_b(rhs, 1e-10), rhs / 1e-4,
                                   rtol=1e-12)
        assert pcg_iterations == [0]

    def test_indefinite_kernel_rejected(self):
        kernel = KernelBasis(ids=np.array([0, -1]), entries=np.array([1.0, 0.0]),
                             count=1)
        with pytest.raises(IndefiniteOperatorError, match="Rayleigh"):
            PencilOperator(SparseSymMatrix.from_dense(np.diag([-1.0, 1.0])),
                           SparseSymMatrix.from_dense(np.eye(2)),
                           kernels=(kernel, KernelBasis.empty(2)))

    def test_inner_iterations_do_not_depend_on_the_shift(self, pcg_iterations):
        g = two_cluster()
        rhs = np.random.default_rng(35).standard_normal(g.n)
        for eps in (1e-6, 1e-10):
            a, b = shifted_pair(g, ShiftConfig(eps, eps))
            pencil = PencilOperator(a, b, kernels=pencil_kernels(g))
            pencil.solve_a(rhs, 1e-10)
            pencil.solve_b(rhs, 1e-10)
        assert pcg_iterations[:2] == pcg_iterations[2:]

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_norm_bound_bounds_the_mean(self, case):
        # the residual estimates are only bounds if this one is
        g = KERNEL_CASES[case][0]()
        a, b = shifted_pair(g, ShiftConfig(1e-4, 1e-4))
        gm = dense_geometric_mean(a.to_dense(), b.to_dense())
        assert PencilOperator(a, b).norm_bound >= np.linalg.norm(gm, 2)

    @pytest.mark.parametrize("case", ["two-cluster", "isolated-plus",
                                      "non-bipartite-minus"])
    def test_deflated_solves_match_dense(self, case):
        g = KERNEL_CASES[case][0]()
        a, b = shifted_pair(g, ShiftConfig(1e-6, 1e-6))
        pencil = PencilOperator(a, b, kernels=pencil_kernels(g))
        rhs = np.random.default_rng(34).standard_normal(g.n)
        for solve, m in ((pencil.solve_a, a), (pencil.solve_b, b)):
            x = np.linalg.solve(m.to_dense(), rhs)
            assert np.linalg.norm(solve(rhs, 1e-10) - x) <= 1e-9 * np.linalg.norm(x)


GM_HARD_CASES = {
    "bipartite-minus": bipartite_minus,
    "disconnected-plus": two_cluster,
    "empty-minus": empty_minus,
    "isolated-in-both": lambda: isolate_vertex(bipartite_minus(), 0, minus=True),
}


def assert_residual_estimates_cover(pairs, dense):
    """Each pair's reported residual is at least the dense residual
    ``||G x - (x' G x) x||`` of its returned vector: an estimate, but never
    an underestimate on the graphs tested."""
    for pair in pairs:
        gx = dense @ pair.vector
        assert pair.residual >= np.linalg.norm(gx - (pair.vector @ gx) * pair.vector)


def assert_pairs_match_oracle(pairs, dense, value_rtol, value_atol, angle_tol,
                              residual_bounds):
    """The pairs are the smallest eigenpairs of ``dense``.

    Each value is within ``value_rtol * |w| + value_atol`` of its eigenvalue
    ``w`` and the span within ``angle_tol`` of the oracle's eigenspace.
    Pairs accepted at a loose tolerance are only as good as their reported
    residuals, so with ``residual_bounds`` the bounds those give also pass: a
    value within its residual of its eigenvalue, and the Davis-Kahan angle
    ``||R||_F / gap``.
    """
    k = len(pairs)
    w, v = dense_sym_eig(dense)
    vals = np.array([p.value for p in pairs])
    resid = np.array([p.residual for p in pairs])
    value_tol = value_rtol * np.abs(w[:k]) + value_atol
    span = np.column_stack([p.vector for p in pairs])
    if residual_bounds:
        value_tol = np.maximum(value_tol, resid)
        angle_tol = max(angle_tol, np.linalg.norm(resid) / (w[k] - vals.max()))
    assert np.all(np.abs(vals - w[:k]) <= value_tol)
    assert subspace_angle(span, v[:, :k]) <= angle_tol


# each hard case at a bench call's tolerance and at spectral_cluster's
HARD_CASE_MODES = [pytest.param(case, tol, id=case + suffix)
                   for case in GM_HARD_CASES
                   for tol, suffix in zip(SOLVE_MODES, ("", "-resid-tol"))]


class TestGmHardCases:
    @pytest.mark.parametrize("case, tol", HARD_CASE_MODES)
    def test_smallest_pairs_match_dense_oracle(self, case, tol):
        # Lanczos converges every pair whatever the inner accuracy, so a
        # call at RESID_TOL, which only loosens the inner solves, meets the
        # tight bounds too
        g = GM_HARD_CASES[case]()
        shift = ShiftConfig(1e-4, 1e-4)
        pairs = smallest_eigenpairs(g, 2, "GM", shift=shift, tol=tol)
        a, b = shifted_pair(g, shift)
        dense = dense_geometric_mean(a.to_dense(), b.to_dense())
        assert_pairs_match_oracle(pairs, dense, value_rtol=1e-6, value_atol=0.0,
                                  angle_tol=1e-5, residual_bounds=False)
        assert_residual_estimates_cover(pairs, dense)


class TestGmNearDegenerate:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_block_model_pairs_match_dense_oracle(self, k):
        # the k - 1 planted eigenvalues after the first lie within 2-4% of
        # each other, and a call at RESID_TOL must resolve them as well
        g = sample(SbmParams(k, ORACLE_CAP // k, 0.3, 0.05, 0.05, 0.3), 1)
        a, b = shifted_pair(g, ShiftConfig())
        dense = dense_geometric_mean(a.to_dense(), b.to_dense())
        for tol in SOLVE_MODES:
            pairs = smallest_eigenpairs(g, k, "GM", tol=tol)
            assert_pairs_match_oracle(pairs, dense, value_rtol=1e-6,
                                      value_atol=0.0, angle_tol=1e-5,
                                      residual_bounds=False)
            assert_residual_estimates_cover(pairs, dense)

    @pytest.mark.parametrize("seed", range(3))
    def test_loose_chain_solves_converge_on_a_block_model(self, seed):
        # loosening the first Krylov chain solves, or Lanczos' applications
        # as its pairs converge, raised ConvergenceError on these graphs
        g = sample(SbmParams(4, 40, 0.3, 0.05, 0.05, 0.3), seed)
        a, b = shifted_pair(g, ShiftConfig())
        w = dense_sym_eig(dense_geometric_mean(a.to_dense(), b.to_dense()))[0][:4]
        values = np.array([p.value for p in spectral_cluster(g, 4, "GM").eigenpairs])
        # the benchmark's oracle bound, EIG_RTOL
        assert np.all(np.abs(values - w) <= 1e-6 * w)


def regular_plus(n, hops=(1,), matching_seed=None):
    """A regular connected ``W+`` with an empty ``W-``: the ring joined at
    each of ``hops``, plus, from ``matching_seed``, a random perfect matching
    of non-adjacent vertices (a cubic graph with simple eigenvalues)."""
    rows = np.concatenate([np.arange(n)] * len(hops))
    cols = np.concatenate([(np.arange(n) + h) % n for h in hops])
    if matching_seed is not None:
        rng = np.random.default_rng(matching_seed)
        while True:
            perm = rng.permutation(n)
            if not np.any(np.isin((perm[0::2] - perm[1::2]) % n, [1, n - 1])):
                break
        rows, cols = np.concatenate([rows, perm[0::2]]), np.concatenate([cols, perm[1::2]])
    return SignedGraph(
        w_plus=SparseSymMatrix.from_undirected_edges(n, rows, cols, np.ones(rows.size)),
        w_minus=SparseSymMatrix.from_undirected_edges(n, [], [], []))


class TestKernelStart:
    """Lanczos starts from the sum of the pencil's kernel bases plus a
    little of the seeded Gaussian."""

    @pytest.mark.parametrize("tol", SOLVE_MODES)
    @pytest.mark.parametrize("graph_seed", range(4))
    def test_start_orthogonal_to_the_sought_pairs(self, graph_seed, tol):
        # W+ regular and W- empty: both kernel sums are proportional to the
        # all-ones vector, the first eigenvector, and orthogonal to the other
        # two sought, which only the Gaussian part of the start reaches
        g = regular_plus(60, matching_seed=graph_seed)
        start = sum(kernel.entries / np.linalg.norm(kernel.entries)
                    for kernel in pencil_kernels(g))
        np.testing.assert_allclose(start, start[0])
        a, b = shifted_pair(g, ShiftConfig())
        dense = dense_geometric_mean(a.to_dense(), b.to_dense())
        v = dense_sym_eig(dense)[1]
        assert np.abs(start @ v[:, 1:3]).max() <= 1e-12
        pairs = smallest_eigenpairs(g, 3, "GM", tol=tol)
        # the third and fourth eigenvalues lie 2.4% apart on graph 0, so the
        # angle of a call at RESID_TOL is only as good as its residuals give
        assert_pairs_match_oracle(pairs, dense, value_rtol=1e-6, value_atol=0.0,
                                  angle_tol=1e-5, residual_bounds=tol == RESID_TOL)
        assert_residual_estimates_cover(pairs, dense)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "single-vector Lanczos holds one direction of each eigenspace, so a "
        "call at RESID_TOL stops before rounding grows the second of the "
        "ring's double eigenvalue; a random start misses it too, on seed 0"))
    def test_ring_double_eigenvalue_at_resid_tol(self):
        g = regular_plus(40)
        a, b = shifted_pair(g, ShiftConfig())
        dense = dense_geometric_mean(a.to_dense(), b.to_dense())
        pairs = smallest_eigenpairs(g, 3, "GM", tol=RESID_TOL)
        assert_pairs_match_oracle(pairs, dense, value_rtol=1e-6, value_atol=0.0,
                                  angle_tol=1e-5, residual_bounds=False)

    @pytest.mark.parametrize("hops", [(1,), (1, 2)], ids=["ring", "circulant"])
    def test_ring_double_eigenvalue_at_tight_tol(self, hops):
        # a call at 1e-8 runs long enough for the second direction to grow
        g = regular_plus(40, hops)
        a, b = shifted_pair(g, ShiftConfig())
        dense = dense_geometric_mean(a.to_dense(), b.to_dense())
        pairs = smallest_eigenpairs(g, 3, "GM", tol=1e-8)
        assert_pairs_match_oracle(pairs, dense, value_rtol=1e-6, value_atol=0.0,
                                  angle_tol=1e-5, residual_bounds=False)


class TestExplicitHardCases:
    @pytest.mark.parametrize("case, tol", HARD_CASE_MODES)
    @pytest.mark.parametrize("method", ["SN", "BN", "AM"])
    def test_smallest_pairs_match_dense_oracle(self, case, method, tol):
        # SN/BN/AM have exact zero eigenvalues on these graphs, so their
        # values are checked in absolute terms
        g = GM_HARD_CASES[case]()
        pairs = smallest_eigenpairs(g, 2, method, tol=tol)
        assert_pairs_match_oracle(
            pairs, signed_laplacian(g, method).to_dense(), value_rtol=0.0,
            value_atol=1e-10, angle_tol=1e-5, residual_bounds=tol == RESID_TOL)


class TestMatrixEigensolver:
    def test_two_component_laplacian_kernel(self):
        w = SparseSymMatrix.from_undirected_edges(
            6, [0, 1, 3, 4], [1, 2, 4, 5], np.ones(4)
        )
        from siglap.graphs import laplacian

        lap = laplacian(w)
        pairs = matrix_smallest_k_eigenpairs(lap, 3, tol=1e-10)
        vals = [p.value for p in pairs]
        assert abs(vals[0]) < 1e-8 and abs(vals[1]) < 1e-8
        assert vals[2] > 0.1
        for p in pairs:
            assert p.residual <= 1e-6

    def test_matches_dense_eigendecomposition(self):
        pencil = sbm_pencil(30, seed=17)
        m = pencil.a  # any SPD sparse matrix works here
        # the third pair takes 561 steps of inverse iteration
        pairs = matrix_smallest_k_eigenpairs(m, 3, tol=1e-9)
        w = dense_sym_eig(m.to_dense())[0]
        np.testing.assert_allclose([p.value for p in pairs], w[:3], atol=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_values_in_a_cluster_are_eigenvalues(self, seed):
        # three eigenvalues 0.5% apart: at a backward error of 1e-4 each
        # vector still rotates inside the cluster, and the Rayleigh quotients
        # of the unrotated vectors read 2.6e-6 off
        lam = np.concatenate([[0.1, 0.3866, 0.3885, 0.39],
                              np.linspace(0.6, 1.8, 56)])
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        dense = q @ np.diag(lam) @ q.T
        m = SparseSymMatrix.from_dense(0.5 * (dense + dense.T))
        pairs = matrix_smallest_k_eigenpairs(m, 4, tol=1e-4, seed=seed)
        np.testing.assert_allclose([p.value for p in pairs],
                                   np.linalg.eigvalsh(m.to_dense())[:4],
                                   rtol=1e-6, atol=0.0)

    def test_indefinite_matrix_needs_flag(self):
        # one negative edge: the balance-normalized operator has eigenvalues -1, 1
        wm = SparseSymMatrix.from_undirected_edges(2, [0], [1], [1.0])
        g = SignedGraph(w_plus=SparseSymMatrix.from_undirected_edges(2, [], [], []),
                        w_minus=wm)
        bn = signed_laplacian(g, "BN")
        pair = matrix_smallest_k_eigenpairs(bn, 1, definite=False, tol=1e-12)[0]
        assert pair.value == pytest.approx(-1.0, abs=1e-8)

    def test_gershgorin_shift(self, monkeypatch):
        # the off-diagonal absolute row sums are [1, 1], so the lowest
        # Gershgorin disk reaches -3 and the shift is MATRIX_SHIFT + 3
        factored = []
        factor = geomean.incomplete_cholesky
        monkeypatch.setattr(geomean, "incomplete_cholesky",
                            lambda m: factored.append(m) or factor(m))
        m = SparseSymMatrix.from_dense([[-2.0, -1.0], [-1.0, 3.0]])
        matrix_smallest_k_eigenpairs(m, 1, definite=False, tol=1e-10)
        np.testing.assert_array_equal(factored[0].diagonal_vector(),
                                      np.array([-2.0, 3.0]) + (geomean.MATRIX_SHIFT + 3.0))


class TestCostGuards:
    def test_import_leaves_sparse_linalg_unloaded(self, tmp_path):
        # import scipy.sparse costs a process about 0.2 s and 22 MB, and
        # scipy.sparse.linalg, which scipy.sparse.csgraph loads, 10 MB more;
        # siglap calls only the compiled kernels, so neither the import nor
        # any path short of a scipy matrix going in or out loads them
        src = os.path.dirname(os.path.dirname(siglap.__file__))
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 1\n2 3 1\n0 2 -1\n1 3 -1\n")
        code = (
            "import sys, numpy as np, siglap\n"
            "from siglap import cli, sbm\n"
            "g = sbm.sample(sbm.SbmParams(2, 10, 0.9, 0.1, 0.1, 0.9), 3)\n"
            f"siglap.load_edge_list({str(edges)!r})\n"
            "pts = np.random.default_rng(0).standard_normal((20, 2))\n"
            "siglap.knn_pos_graph(pts, 3), siglap.kfn_neg_graph(pts, 3)\n"
            "for method in ('GM', 'SN', 'BN', 'AM'):\n"
            "    siglap.spectral_cluster(g, 2, method)\n"
            "g.w_plus.to_dense()\n"
            f"cli.main(['cluster', '--edges', {str(edges)!r}, '--k', '2'])\n"
            "print(sorted({'scipy.sparse', 'scipy.sparse.csgraph',"
            " 'scipy.sparse.linalg'} & set(sys.modules)))\n")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "[]"

    def test_two_cluster_takes_few_inverse_applications(self, monkeypatch):
        # Lanczos (ncv = 2k + 1) converges both pairs within one basis and
        # takes values and residuals from it, so every Krylov call is one of
        # at most 2k + 1 applications of (A # B)^-1
        calls = []
        eksm = geomean.eksm_apply_inv_sqrt

        def counting(pencil, y, **kw):
            calls.append(y)
            return eksm(pencil, y, **kw)

        monkeypatch.setattr(geomean, "eksm_apply_inv_sqrt", counting)
        k = 2
        res = spectral_cluster(two_cluster_benchmark_graph(80, 50, 1)[0], k, "GM")
        assert len(calls) <= 2 * k + 1
        assert all(p.iterations == len(calls) for p in res.eigenpairs)

    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_start_saves_an_application(self, seed):
        # from a random start a call took 5 applications on these graphs
        g = two_cluster_benchmark_graph(80, 50, seed)[0]
        pairs = spectral_cluster(g, 2, "GM").eigenpairs
        assert [p.iterations for p in pairs] == [4, 4]
