import numpy as np
import pytest

from siglap import (IndefiniteOperatorError, SbmParams, SignedGraph,
                    SparseSymMatrix, geomean, incomplete_cholesky,
                    kfn_neg_graph, knn_pos_graph, pcg_solve, sample,
                    smallest_eigenpairs)


def dense_factor(pc):
    """The IC(0) factor of ``pc`` as a dense lower-triangular array."""
    lower = np.zeros((pc.n, pc.n))
    rows = np.repeat(np.arange(pc.n), np.diff(pc._lp))
    lower[rows, pc._lj] = pc._lx
    return lower


class TestIncompleteCholesky:
    def test_diagonal_matrix(self):
        pc = incomplete_cholesky(SparseSymMatrix.from_dense(np.diag([4.0, 9.0])))
        assert pc.kind == "ic0"
        np.testing.assert_allclose(dense_factor(pc), np.diag([2.0, 3.0]))

    def test_full_pattern_equals_complete_cholesky(self):
        m = SparseSymMatrix.from_dense([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(dense_factor(incomplete_cholesky(m)),
                                   [[2.0, 0.0], [1.0, 2.0]])

    def test_negative_pivot_raises(self):
        # second pivot: 1 - (2/1)^2 < 0
        m = SparseSymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(IndefiniteOperatorError, match="pivot in row 1"):
            incomplete_cholesky(m)

    def test_zero_pivot_raises(self):
        # singular: second pivot 4 - (2/1)^2 = 0
        m = SparseSymMatrix.from_dense([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(IndefiniteOperatorError, match="pivot in row 1"):
            incomplete_cholesky(m)

    def test_nonpositive_diagonal_raises(self):
        m = SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(IndefiniteOperatorError, match="entry 0 is 0"):
            incomplete_cholesky(m)

    def test_matches_dense_cholesky_on_dense_pattern(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((12, 12))
        spd = a @ a.T + 12 * np.eye(12)
        pc = incomplete_cholesky(SparseSymMatrix.from_dense(spd))
        np.testing.assert_allclose(dense_factor(pc), np.linalg.cholesky(spd),
                                   atol=1e-10)

    def test_solve_inverts_the_factor(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((15, 15))
        spd = a @ a.T + 15 * np.eye(15)
        pc = incomplete_cholesky(SparseSymMatrix.from_dense(spd))
        r = rng.standard_normal(15)
        np.testing.assert_allclose(pc.solve(r), np.linalg.solve(spd, r), atol=1e-10)

    def test_exact_on_diagonal_operator(self):
        m = SparseSymMatrix.from_dense(np.diag([1e-4, 3.0, 250.0]))
        b = np.array([1.0, -2.0, 5.0])
        x, iters = pcg_solve(m, b, incomplete_cholesky(m), tol=1e-14)
        assert iters == 1
        np.testing.assert_allclose(x, b / np.array([1e-4, 3.0, 250.0]), rtol=1e-14)

    def test_application_is_spd(self):
        # z' P^-1 z > 0 on random vectors; an indefinite matrix has no factor
        rng = np.random.default_rng(10)
        lap = SparseSymMatrix.from_dense(
            [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
        )
        pc = incomplete_cholesky(lap)
        for _ in range(20):
            z = rng.standard_normal(lap.n)
            assert z @ pc.solve(z) > 0.0
        with pytest.raises(IndefiniteOperatorError):
            incomplete_cholesky(SparseSymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))

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
        np.testing.assert_array_equal(dense_factor(pc) != 0.0,
                                      np.tril(m.to_dense()) != 0.0)

    def test_isolated_vertex_raises(self):
        # an unshifted Laplacian: the isolated vertex's diagonal is missing
        m = SparseSymMatrix.from_dense(
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        )
        with pytest.raises(IndefiniteOperatorError, match="entry 2"):
            incomplete_cholesky(m)


def _edges(n, edges):
    i, j, w = zip(*edges) if edges else ((), (), ())
    return SparseSymMatrix.from_undirected_edges(n, i, j, w)


def _point_cloud():
    rng = np.random.default_rng(0)
    points = np.vstack([rng.normal(0, 0.3, (15, 2)), rng.normal(4, 0.3, (15, 2))])
    return SignedGraph(w_plus=knn_pos_graph(points, 4), w_minus=kfn_neg_graph(points, 4))


def _sbm():
    return sample(SbmParams(k=3, cluster_size=10, p_in_plus=0.6, p_out_plus=0.1,
                            p_in_minus=0.1, p_out_minus=0.6), seed=3)


def _isolated_vertex():
    # the SBM with one more vertex, which has no edge
    g = _sbm()
    return SignedGraph(*(SparseSymMatrix.from_dense(np.pad(w.to_dense(), (0, 1)))
                         for w in (g.w_plus, g.w_minus)))


RING = [(i, (i + 1) % 6, 1.0) for i in range(6)]
OPERATOR_GRAPHS = {
    "knn-kfn-points": _point_cloud,
    "sbm-k3": _sbm,
    "isolated-vertex": _isolated_vertex,
    "empty-minus": lambda: SignedGraph(w_plus=_edges(6, RING), w_minus=_edges(6, [])),
    "empty-plus": lambda: SignedGraph(w_plus=_edges(6, []), w_minus=_edges(6, RING)),
    # pair (0, 1) carries both signs with equal weight, so SN's entry cancels,
    # and pair (0, 3) with unequal weights
    "both-signs": lambda: SignedGraph(
        w_plus=_edges(6, RING + [(0, 3, 2.0)]),
        w_minus=_edges(6, [(0, 1, 1.0), (0, 3, 0.5), (2, 5, 1.0)])),
}


@pytest.mark.parametrize("method", ["SN", "BN", "AM"])
@pytest.mark.parametrize("case", sorted(OPERATOR_GRAPHS))
def test_factors_every_operator_the_solver_builds(monkeypatch, case, method):
    # the shifted SN and AM operators are H-matrices and shifted BN is
    # strictly diagonally dominant, so IC(0) never breaks down on them
    factored = []

    def factor(m):
        factored.append(incomplete_cholesky(m))
        return factored[-1]

    monkeypatch.setattr(geomean, "incomplete_cholesky", factor)
    pairs = smallest_eigenpairs(OPERATOR_GRAPHS[case](), 2, method)
    assert len(pairs) == 2
    assert [pc.kind for pc in factored] == ["ic0"]
