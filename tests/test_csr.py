import numpy as np
import pytest
import scipy.sparse as sp

from siglap import ShiftConfig, SparseSymMatrix, shifted_pair
from siglap.graphs import SIGNED_KINDS, signed_laplacian
from siglap.sbm import two_cluster_benchmark_graph


def random_sym(n, density, rng):
    """Random symmetric matrix built through the undirected-edge constructor."""
    m = max(1, int(density * n * (n - 1) / 2))
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    keep = i != j
    w = rng.uniform(0.1, 2.0, size=m)
    return SparseSymMatrix.from_undirected_edges(n, i[keep], j[keep], w[keep])


class TestConstruction:
    def test_outside_input_requires_symmetry(self):
        asym = sp.csr_array(([1.0], ([0], [1])), shape=(2, 2))
        with pytest.raises(ValueError, match="not exactly symmetric"):
            SparseSymMatrix(asym)

    def test_undirected_edges_sum_duplicates(self):
        m = SparseSymMatrix.from_undirected_edges(2, [0, 0], [1, 1], [1.0, 0.5])
        assert m.to_dense()[0, 1] == m.to_dense()[1, 0] == 1.5

    def test_undirected_edges_mirror_and_sum(self):
        m = SparseSymMatrix.from_undirected_edges(3, [0, 1, 0], [1, 0, 2], [1.0, 1.0, 3.0])
        dense = m.to_dense()
        assert dense[0, 1] == dense[1, 0] == 2.0
        assert dense[0, 2] == dense[2, 0] == 3.0

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loops"):
            SparseSymMatrix.from_undirected_edges(2, [0], [0], [1.0])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseSymMatrix.from_undirected_edges(2, [0], [2], [1.0])

    def test_csr_invariants(self):
        rng = np.random.default_rng(0)
        m = random_sym(30, 0.2, rng)
        assert m.row_ptr[0] == 0
        assert m.row_ptr[-1] == m.nnz
        assert np.all(np.diff(m.row_ptr) >= 0)
        for i in range(m.n):
            cols = m.col_idx[m.row_ptr[i]:m.row_ptr[i + 1]]
            assert np.all(np.diff(cols) > 0)


def int64_csr(m):
    csr = m.to_scipy()
    return sp.csr_array((csr.data, csr.indices.astype(np.int64),
                         csr.indptr.astype(np.int64)), shape=csr.shape)


def by_name(matrices):
    return [pytest.param(m, id=name) for name, m in sorted(matrices.items())]


def construction_routes():
    a = SparseSymMatrix.from_dense([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
    return {
        "from_undirected_edges":
            SparseSymMatrix.from_undirected_edges(3, [0, 1], [1, 2], [1.0, 2.0]),
        "from_dense": a,
        "identity": SparseSymMatrix.identity(3),
        "diagonal": SparseSymMatrix.diagonal([1.0, 2.0, 3.0]),
        "add_diagonal": a.add_diagonal(0.5),
        "int64 csr": SparseSymMatrix(int64_csr(a)),
    }


def graph_operators():
    g = two_cluster_benchmark_graph(60, 20, 2)[0]
    ops = {kind: signed_laplacian(g, kind) for kind in SIGNED_KINDS}
    ops["GM A"], ops["GM B"] = shifted_pair(g, ShiftConfig())
    return ops


class TestIndexDtype:
    @pytest.mark.parametrize("m", by_name(construction_routes()))
    def test_every_route_stores_int32_indices(self, m):
        assert m.row_ptr.dtype == np.int32
        assert m.col_idx.dtype == np.int32

    @pytest.mark.parametrize("m", by_name(graph_operators()))
    def test_every_graph_operator_stores_int32_indices(self, m):
        assert m.row_ptr.dtype == np.int32
        assert m.col_idx.dtype == np.int32

    def test_int64_input_keeps_its_entries(self):
        a = construction_routes()["from_dense"]
        np.testing.assert_array_equal(SparseSymMatrix(int64_csr(a)).to_dense(),
                                      a.to_dense())


class TestSpmv:
    @pytest.mark.parametrize("m", by_name(graph_operators()))
    def test_matches_scipy_bit_for_bit(self, m):
        # matvec calls the kernel that scipy's own product ends in
        x = np.random.default_rng(1).standard_normal((m.n, 3))
        reference = m.to_scipy()
        assert np.array_equal(m.matvec(x[:, 1]), reference @ x[:, 1])
        assert np.array_equal(m.matvec(x[:, 0].copy()), reference @ x[:, 0])

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (1, 3)])
    def test_wrong_shape_rejected(self, shape):
        # the compiled kernel does not check lengths: a short x would be
        # read past its end
        with pytest.raises(ValueError, match="length 3"):
            SparseSymMatrix.identity(3).matvec(np.ones(shape))

    def test_laplacian_kernel(self):
        m = SparseSymMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(m.matvec(np.ones(2)), np.zeros(2))

    def test_identity(self):
        m = SparseSymMatrix.identity(3)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(m.matvec(x), x)

    def test_hand_multiplication(self):
        m = SparseSymMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        x = np.array([1.0, -1.0])
        assert np.array_equal(m.matvec(x), x)

    def test_dimension_mismatch(self):
        m = SparseSymMatrix.identity(3)
        with pytest.raises(ValueError, match="length 3"):
            m.matvec(np.ones(4))

    def test_quadratic_form_matches_transpose_exactly(self):
        # storage is exactly symmetric, so x'Mx and x'M'x agree bit for bit
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            m = random_sym(n, 0.3, rng)
            mt = SparseSymMatrix(m.to_scipy().T.tocsr())
            x = rng.standard_normal(n)
            assert float(x @ m.matvec(x)) == float(x @ mt.matvec(x))


class TestAlgebra:
    def test_add_diagonal_scalar_and_vector(self):
        a = SparseSymMatrix.identity(2)
        np.testing.assert_array_equal(a.add_diagonal(0.5).diagonal_vector(), [1.5, 1.5])
        np.testing.assert_array_equal(
            a.add_diagonal([1.0, 2.0]).diagonal_vector(), [2.0, 3.0]
        )

    def test_row_sums_and_gershgorin(self):
        a = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(a.row_sums(), [1.0, 2.0])
        np.testing.assert_array_equal(a.abs_offdiag_row_sums(), [1.0, 1.0])
