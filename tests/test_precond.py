import numpy as np
import pytest

from siglap import SparseSymMatrix, incomplete_cholesky, jacobi, pcg_solve


def dense_factor(pc):
    """The IC(0) factor of ``pc`` as a dense lower-triangular array."""
    assert pc.kind == "ic0"
    lower = np.zeros((pc.n, pc.n))
    rows = np.repeat(np.arange(pc.n), np.diff(pc._lp))
    lower[rows, pc._lj] = pc._lx
    return lower


class TestIncompleteCholesky:
    def test_diagonal_matrix(self):
        pc = incomplete_cholesky(SparseSymMatrix.diagonal([4.0, 9.0]))
        assert pc.kind == "ic0"
        np.testing.assert_allclose(dense_factor(pc), np.diag([2.0, 3.0]))

    def test_full_pattern_equals_complete_cholesky(self):
        m = SparseSymMatrix.from_dense([[4.0, 2.0], [2.0, 5.0]])
        pc = incomplete_cholesky(m)
        assert pc.kind == "ic0"
        np.testing.assert_allclose(dense_factor(pc), [[2.0, 0.0], [1.0, 2.0]])

    def test_negative_pivot_falls_back_to_diagonal(self):
        # second pivot: 1 - (2/1)^2 < 0
        m = SparseSymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        pc = incomplete_cholesky(m)
        assert pc.kind == "diagonal"

    def test_nonpositive_diagonal_falls_back(self):
        m = SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 2.0]])
        assert incomplete_cholesky(m).kind == "diagonal"

    def test_matches_dense_cholesky_on_dense_pattern(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((12, 12))
        spd = a @ a.T + 12 * np.eye(12)
        pc = incomplete_cholesky(SparseSymMatrix.from_dense(spd))
        assert pc.kind == "ic0"
        np.testing.assert_allclose(dense_factor(pc), np.linalg.cholesky(spd),
                                   atol=1e-10)

    def test_solve_inverts_the_factor(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((15, 15))
        spd = a @ a.T + 15 * np.eye(15)
        pc = incomplete_cholesky(SparseSymMatrix.from_dense(spd))
        r = rng.standard_normal(15)
        np.testing.assert_allclose(pc.solve(r), np.linalg.solve(spd, r), atol=1e-10)

    def test_application_is_spd(self):
        # z' P^-1 z > 0 for both kinds, on random vectors
        rng = np.random.default_rng(10)
        lap = SparseSymMatrix.from_dense(
            [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
        )
        indef = SparseSymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        for m in (lap, indef):
            pc = incomplete_cholesky(m)
            for _ in range(20):
                z = rng.standard_normal(m.n)
                assert z @ pc.solve(z) > 0.0

    def test_sparsity_pattern_is_preserved(self):
        # IC(0) never fills in: factor pattern == lower pattern of the input
        rng = np.random.default_rng(11)
        n = 40
        i = rng.integers(0, n, size=80)
        j = rng.integers(0, n, size=80)
        keep = i != j
        w = -rng.uniform(0.5, 1.0, size=keep.sum())
        adj = SparseSymMatrix.from_undirected_edges(n, i[keep], j[keep], w)
        # SPD, Laplacian-like
        m = adj.add_diagonal(-adj.row_sums() + 1.0)
        pc = incomplete_cholesky(m)
        assert pc.kind == "ic0"
        np.testing.assert_array_equal(dense_factor(pc) != 0.0,
                                      np.tril(m.to_dense()) != 0.0)

    def test_isolated_vertex_zero_diagonal(self):
        m = SparseSymMatrix.from_dense(
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        )
        pc = incomplete_cholesky(m)
        assert pc.kind == "diagonal"
        assert np.all(np.isfinite(pc.solve(np.ones(3))))


class TestJacobi:
    def test_scales_by_inverse_diagonal(self):
        pc = jacobi(SparseSymMatrix.from_dense([[4.0, 1.0], [1.0, 2.0]]))
        assert pc.kind == "diagonal"
        np.testing.assert_allclose(pc.solve(np.array([2.0, 2.0])), [0.5, 1.0])

    def test_nonpositive_diagonal_left_unscaled(self):
        m = SparseSymMatrix.from_dense(
            [[0.0, 1.0, 0.0], [1.0, -2.0, 0.0], [0.0, 0.0, 5.0]]
        )
        np.testing.assert_allclose(jacobi(m).solve(np.ones(3)), [1.0, 1.0, 0.2])

    def test_exact_on_diagonal_operator(self):
        m = SparseSymMatrix.diagonal([1e-4, 3.0, 250.0])
        b = np.array([1.0, -2.0, 5.0])
        x, iters = pcg_solve(m, b, jacobi(m), tol=1e-14)
        assert iters == 1
        np.testing.assert_allclose(x, b / np.array([1e-4, 3.0, 250.0]), rtol=1e-14)

    def test_breakdown_fallback_is_jacobi(self):
        m = SparseSymMatrix.from_dense([[1.0, 2.0], [2.0, 4.0]])
        r = np.array([3.0, 8.0])
        np.testing.assert_array_equal(incomplete_cholesky(m).solve(r), jacobi(m).solve(r))
