import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import siglap
from siglap import (SbmParams, ShiftConfig, SignedGraph, SparseSymMatrix,
                    kfn_neg_graph, knn_pos_graph, load_edge_list, pencil_kernels,
                    sample, shifted_pair, spectral_cluster)
from siglap.csr import add_canonical, pair_products
from siglap.graphs import SIGNED_KINDS, laplacian, signed_laplacian, signless_laplacian
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

    def test_outside_input_is_copied(self):
        # neither sorted in place nor shared: the caller's later writes do
        # not reach the (immutable) matrix
        m = sp.csr_array((np.array([2.0, 1.0, 2.0]), np.array([1, 0, 0]),
                          np.array([0, 2, 3])), shape=(2, 2))
        s = SparseSymMatrix(m)
        assert np.array_equal(m.indices, [1, 0, 0])
        m.data[:] = 7.0
        assert np.array_equal(s.to_dense(), [[1.0, 2.0], [2.0, 0.0]])

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

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            SparseSymMatrix.from_undirected_edges(3, [0.9], [1.7], [2.0])
        with pytest.raises(ValueError, match="integers"):
            SparseSymMatrix.from_undirected_edges(3, [0], [np.nan], [2.0])
        # integer inputs, whole floats and empty float arrays are indices
        for i, j in (([0], [1]), (np.array([0], np.int32), np.array([1], np.uint8)),
                     ([0.0], [1.0])):
            m = SparseSymMatrix.from_undirected_edges(3, i, j, [2.0])
            assert m.to_dense()[0, 1] == m.to_dense()[1, 0] == 2.0
        assert SparseSymMatrix.from_undirected_edges(3, [], [], []).nnz == 0

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
        "add_diagonal": a.add_diagonal(0.5),
        "int64 csr": SparseSymMatrix(int64_csr(a)),
    }


def graph_operators():
    g = two_cluster_benchmark_graph(60, 20, 2)[0]
    ops = {kind: signed_laplacian(g, kind) for kind in SIGNED_KINDS}
    ops["GM A"], ops["GM B"] = shifted_pair(g, ShiftConfig())
    # the unnormalized assemblies, which no signed kind reaches
    ops["L+"], ops["Q-"] = laplacian(g.w_plus), signless_laplacian(g.w_minus)
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


def blobs(sizes=(16, 32, 48, 64), dim=10, seed=0):
    """Four separated Gaussian blobs of unequal size, as in the kNN workload."""
    truth = np.repeat(np.arange(len(sizes)), sizes)
    centers = 4.0 * np.eye(len(sizes), dim)
    return centers[truth] + np.random.default_rng(seed).standard_normal((truth.size, dim))


def edge_list_graph(tmp_path, text="0 1 1.0\n1 2 -2.0\n0 2 0.5\n2 3 1.0\n"):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    g = load_edge_list(path)
    return {"edge list +": g.w_plus, "edge list -": g.w_minus}


UNIT_GRAPHS = ("knn/kfn", "two-cluster", "sample", "+-1 edge list")


def unit_graph(name, tmp_path):
    """A signed graph whose every weight is 1.0, built by the route ``name``,
    and the number of clusters it holds."""
    if name == "knn/kfn":
        pts = blobs()
        return SignedGraph(knn_pos_graph(pts, 10), kfn_neg_graph(pts, 10)), 4
    if name == "two-cluster":
        return two_cluster_benchmark_graph(60, 20, 2)[0], 2
    if name == "sample":
        return sample(SbmParams(k=3, cluster_size=12, p_in_plus=0.6, p_out_plus=0.1,
                                p_in_minus=0.1, p_out_minus=0.6), seed=4), 3
    # two triangles, held apart by -1 edges and joined by one +1 edge
    path = tmp_path / "edges.txt"
    path.write_text("0 1 1\n0 2 1\n1 2 1\n3 4 1\n3 5 1\n4 5 1\n"
                    "0 3 -1\n1 4 -1\n2 5 -1\n2 3 1\n")
    return load_edge_list(path), 2


class TestExactLength:
    """Every array holds its entries and nothing more: a view into a longer
    buffer (scipy's sums over-allocate theirs) would keep that buffer alive
    as long as the matrix."""

    @staticmethod
    def assert_exact(m):
        assert m.values.nbytes == 8 * m.nnz
        assert m.row_ptr.size == m.n + 1 and m.col_idx.size == m.nnz
        for a in (m.row_ptr, m.col_idx, m.values):
            assert a.base is None or a.base.nbytes <= a.nbytes

    @staticmethod
    def assert_owned(m):
        # weights of their own: one contiguous, writeable float per entry
        assert m.values.strides == (8,) and m.values.flags.c_contiguous
        assert m.values.flags.writeable

    @staticmethod
    def assert_unit(m):
        # every weight is 1.0, so one read-only 8-byte 1.0 stands for them
        assert m.values.strides == (0,) and not m.values.flags.writeable
        assert m.values.base.nbytes == 8
        assert np.all(m.values == 1.0)

    @pytest.mark.parametrize("m", by_name({**construction_routes(), **graph_operators()}))
    def test_constructed_and_assembled(self, m):
        self.assert_exact(m)
        self.assert_owned(m)

    @pytest.mark.parametrize("build", [knn_pos_graph, kfn_neg_graph])
    def test_neighbor_graphs(self, build):
        # on these points the union symmetrization keeps over half of
        # scipy's buffer, which scipy then leaves in place
        self.assert_exact(build(blobs(), 10))

    def test_edge_list(self, tmp_path):
        # weighted lists keep their weights, a list of one weight too
        graphs = [*edge_list_graph(tmp_path).values(),
                  edge_list_graph(tmp_path, "1 2 2.5\n")["edge list +"]]
        for m in graphs:
            self.assert_exact(m)
            self.assert_owned(m)

    @pytest.mark.parametrize("name", UNIT_GRAPHS)
    def test_unit_graphs_store_no_weights(self, name, tmp_path):
        g, _ = unit_graph(name, tmp_path)
        for m in (g.w_plus, g.w_minus):
            self.assert_exact(m)
            self.assert_unit(m)
        # their operators are never all ones, and keep arrays of their own
        for m in (*shifted_pair(g, ShiftConfig()),
                  *(signed_laplacian(g, kind) for kind in SIGNED_KINDS)):
            self.assert_exact(m)
            self.assert_owned(m)


def scipy_triple(m):
    return m.indptr, m.indices, m.data


class TestCanonicalAdd:
    @pytest.mark.parametrize("subtract", [False, True])
    @pytest.mark.parametrize("idx", [np.int32, np.int64])
    def test_matches_scipy_sum(self, subtract, idx):
        # weights on a coarse grid, so many pairs cancel exactly; stored
        # zeros too, which the sum drops
        rng = np.random.default_rng(3)
        n = 40

        def grid_matrix():
            m = 500
            i, j = rng.integers(0, n, size=(2, m))
            w = rng.integers(-2, 3, size=m) / 4.0
            csr = sp.coo_array((w, (i, j)), shape=(n, n)).tocsr()
            csr.sum_duplicates()
            return csr

        a, b = grid_matrix(), grid_matrix()
        assert np.any(a.data == 0.0)
        expect = a - b if subtract else a + b
        arrays = [tuple(x.astype(idx) if x.dtype.kind == "i" else x for x in scipy_triple(m))
                  for m in (a, b)]
        ptr, cols, vals = add_canonical(n, *arrays, subtract=subtract)
        # int32 whenever the sum fits, whatever the operands had
        assert ptr.dtype == cols.dtype == np.int32
        assert np.array_equal(ptr, expect.indptr)
        assert np.array_equal(cols, expect.indices)
        assert np.array_equal(vals, expect.data)
        assert np.all(vals != 0.0)

    def test_pair_products(self):
        m = random_sym(30, 0.3, np.random.default_rng(4))
        s = np.random.default_rng(5).uniform(0.1, 2.0, m.n)
        rows = np.repeat(np.arange(m.n), np.diff(m.row_ptr))
        assert np.array_equal(pair_products(s, m.row_ptr, m.col_idx),
                              s[rows] * s[m.col_idx])


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
            SparseSymMatrix.from_dense(np.eye(3)).matvec(np.ones(shape))

    def test_laplacian_kernel(self):
        m = SparseSymMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(m.matvec(np.ones(2)), np.zeros(2))

    def test_hand_multiplication(self):
        m = SparseSymMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        x = np.array([1.0, -1.0])
        assert np.array_equal(m.matvec(x), x)

    def test_dimension_mismatch(self):
        m = SparseSymMatrix.from_dense(np.eye(3))
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
        a = SparseSymMatrix.from_dense(np.eye(2))
        np.testing.assert_array_equal(a.add_diagonal(0.5).diagonal_vector(), [1.5, 1.5])
        np.testing.assert_array_equal(
            a.add_diagonal([1.0, 2.0]).diagonal_vector(), [2.0, 3.0]
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_row_sums_have_scipy_bits(self, seed):
        # the sum of a row depends on its order of addition: scipy's is a
        # reduceat over the row's entries
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        m = random_sym(n, float(rng.uniform(0.05, 0.5)), rng)
        expect = np.asarray(m.to_scipy().sum(axis=1)).ravel()
        assert np.array_equal(m.row_sums(), expect)

    def test_row_sums_of_empty_rows(self):
        m = SparseSymMatrix.from_undirected_edges(4, [1], [2], [0.5])
        assert np.array_equal(m.row_sums(), [0.0, 0.5, 0.5, 0.0])
        assert np.array_equal(SparseSymMatrix.from_undirected_edges(3, [], [], []).row_sums(),
                              np.zeros(3))

    def test_row_sums_and_abs_row_sums(self):
        a = SparseSymMatrix.from_dense([[2.0, -1.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(a.row_sums(), [1.0, 2.0])
        np.testing.assert_array_equal(a.abs_row_sums(), [3.0, 4.0])


def assert_same_arrays(m, expect):
    """``m`` stores the arrays of ``expect``, entry for entry and in dtype."""
    for got, want in zip((m.row_ptr, m.col_idx, m.values),
                         (expect.row_ptr, expect.col_idx, expect.values)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def scipy_undirected(n, i, j, w):
    # the scipy calls whose arrays from_undirected_edges reproduces
    upper = sp.coo_array((np.asarray(w, dtype=np.float64),
                          (np.minimum(i, j), np.maximum(i, j))), shape=(n, n)).tocsr()
    return SparseSymMatrix._canonical(*scipy_triple(upper + upper.T))


def scipy_neighbor_graph(n, rows, cols):
    # the scipy union whose arrays _neighbor_graph reproduces
    adj = sp.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    sym = adj + adj.T
    return SparseSymMatrix._canonical(sym.indptr, sym.indices, np.ones(sym.nnz))


class TestScipyChain:
    """The kernel chains give the arrays of the scipy calls they replace."""

    @pytest.mark.parametrize("grid", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_undirected_edges_with_duplicates(self, seed, grid):
        # duplicates in both orientations, on rows long enough that the sort
        # is not an insertion sort.  Weights on a grid sum to zero in places
        # and drop out; other weights round differently in another order of
        # addition.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        m = int(rng.integers(1, 40 * n))
        i, j = rng.integers(0, n, size=(2, m))
        keep = i != j
        w = rng.integers(-2, 3, size=m) / 4.0 if grid else rng.standard_normal(m)
        i, j, w = i[keep], j[keep], w[keep]
        expect = scipy_undirected(n, i, j, w)
        assert_same_arrays(SparseSymMatrix.from_undirected_edges(n, i, j, w), expect)

    def test_weights_summing_to_zero_leave_no_entry(self):
        i, j, w = [0, 1, 2, 3], [1, 0, 3, 2], [1.5, -1.5, 0.25, 0.5]
        m = SparseSymMatrix.from_undirected_edges(4, i, j, w)
        assert_same_arrays(m, scipy_undirected(4, np.array(i), np.array(j), w))
        assert m.nnz == 2

    def test_sorted_rows_skip_the_sort(self):
        # already sorted, with triplicates, whose sum depends on their order:
        # scipy sums them without sorting
        i, j = np.zeros(90, int), np.repeat(np.arange(1, 31), 3)
        w = np.random.default_rng(6).uniform(0.1, 2.0, 90)
        assert_same_arrays(SparseSymMatrix.from_undirected_edges(31, i, j, w),
                           scipy_undirected(31, i, j, w))

    @pytest.mark.parametrize("n", [1, 5])
    def test_no_edges(self, n):
        none = np.array([], dtype=np.int64)
        assert_same_arrays(SparseSymMatrix.from_undirected_edges(n, none, none, []),
                           scipy_undirected(n, none, none, []))

    @pytest.mark.parametrize("build", [knn_pos_graph, kfn_neg_graph])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_neighbor_graph_with_ties(self, build, k):
        # duplicate points and points on a grid tie many distances
        pts = np.round(blobs(seed=k))
        pts[1] = pts[0]
        pts[7:12] = pts[20]
        m = build(pts, k)
        farthest = build is kfn_neg_graph
        # the neighbor lists, recomputed as _neighbor_graph does
        n = pts.shape[0]
        sq = np.sum(pts**2, axis=1)
        d2 = np.maximum(sq[:, None] - 2.0 * pts @ pts.T + sq[None, :], 0.0)
        np.fill_diagonal(d2, -np.inf if farthest else np.inf)
        cols = np.argsort(-d2 if farthest else d2, axis=1, kind="stable")[:, :k].ravel()
        assert_same_arrays(m, scipy_neighbor_graph(n, np.repeat(np.arange(n), k), cols))

    @pytest.mark.parametrize("m", by_name({**construction_routes(), **graph_operators()}))
    def test_to_dense(self, m):
        dense = m.to_dense()
        expect = m.to_scipy().toarray()
        assert dense.dtype == expect.dtype and dense.flags.c_contiguous
        assert np.array_equal(dense.view(np.uint64), expect.view(np.uint64))


def with_ones(g):
    """``g`` with an array of ones for the weights of each of its graphs."""
    def ones(m):
        return SparseSymMatrix._canonical(m.row_ptr, m.col_idx, np.ones(m.nnz))
    return SignedGraph(ones(g.w_plus), ones(g.w_minus))


class TestUnitValues:
    """A graph that stores one 1.0 for its weights gives, bit for bit, what
    the same graph with an array of ones gives."""

    @pytest.mark.parametrize("name", UNIT_GRAPHS)
    def test_graph_reads(self, name, tmp_path):
        g, _ = unit_graph(name, tmp_path)
        ones = with_ones(g)
        for m, expect in ((g.w_plus, ones.w_plus), (g.w_minus, ones.w_minus)):
            # what the pinned digests hash
            assert m.values.tobytes() == expect.values.tobytes()
            assert np.array_equal(m.row_sums(), expect.row_sums())
            assert np.array_equal(m.to_dense(), expect.to_dense())
            assert_same_arrays(SparseSymMatrix(m.to_scipy()), expect)
            x = np.random.default_rng(0).standard_normal(m.n)
            assert np.array_equal(m.matvec(x), expect.matvec(x))

    @pytest.mark.parametrize("name", UNIT_GRAPHS)
    def test_operators(self, name, tmp_path):
        g, _ = unit_graph(name, tmp_path)
        ones = with_ones(g)
        for kind in SIGNED_KINDS:
            assert_same_arrays(signed_laplacian(g, kind), signed_laplacian(ones, kind))
        for m, expect in zip(shifted_pair(g, ShiftConfig()),
                             shifted_pair(ones, ShiftConfig())):
            assert_same_arrays(m, expect)
        for basis, expect in zip(pencil_kernels(g), pencil_kernels(ones)):
            assert basis.count == expect.count
            assert np.array_equal(basis.ids, expect.ids)
            assert np.array_equal(basis.entries, expect.entries)

    @pytest.mark.parametrize("method", ["GM", "SN"])
    @pytest.mark.parametrize("name", UNIT_GRAPHS)
    def test_clustering(self, name, method, tmp_path):
        g, k = unit_graph(name, tmp_path)
        got = spectral_cluster(g, k, method=method, seed=3)
        expect = spectral_cluster(with_ones(g), k, method=method, seed=3)
        assert np.array_equal(got.labels.labels, expect.labels.labels)
        assert np.array_equal([p.value for p in got.eigenpairs],
                              [p.value for p in expect.eigenpairs])
        assert np.array_equal(got.embedding, expect.embedding)


def run_fresh(code):
    src = os.path.dirname(os.path.dirname(siglap.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.split()


class TestScipyInterop:
    """The kernels load without scipy.sparse, and scipy.sparse still works
    in the same process, whichever comes first."""

    def test_scipy_sparse_after_siglap(self):
        out = run_fresh(
            "import sys, numpy as np, siglap\n"
            "print('scipy.sparse' in sys.modules)\n"
            "import scipy.sparse as sp, scipy.sparse.csgraph as cg\n"
            "a = sp.csr_array(np.array([[0., 2., 0.], [2., 0., 1.], [0., 1., 3.]]))\n"
            "m = siglap.SparseSymMatrix(a)\n"
            "back = m.to_scipy()\n"
            "print(isinstance(back, sp.csr_array), (back != a).nnz,\n"
            "      np.array_equal(m.matvec(np.ones(3)), a @ np.ones(3)),\n"
            "      np.array_equal((a + a.T).toarray(), 2 * a.toarray()),\n"
            "      cg.connected_components(a)[0])\n")
        assert out == ["False", "True", "0", "True", "True", "1"]

    def test_siglap_after_scipy_sparse(self):
        # the kernels scipy.sparse loaded are reused, and products run on them
        out = run_fresh("import sys, scipy.sparse as sp, siglap.csr as c\n"
                        "print(c._sparsetools is sys.modules['scipy.sparse._sparsetools'])\n"
                        "m = c.SparseSymMatrix.from_undirected_edges(2, [0], [1], [2.0])\n"
                        "print(m.matvec([1.0, 3.0]).tolist() == "
                        "(m.to_scipy() @ [1.0, 3.0]).tolist() == [6.0, 2.0])")
        assert out == ["True", "True"]

    def test_loader_takes_the_imported_kernels(self):
        # the same branch in this process, where scipy.sparse is imported
        kernels = siglap.csr._load_sparsetools()
        assert kernels is sys.modules["scipy.sparse._sparsetools"]
        y = np.zeros(2)
        kernels.csr_matvec(2, 2, np.array([0, 1, 2], np.int32), np.array([1, 0], np.int32),
                           np.array([2.0, 2.0]), np.array([1.0, 3.0]), y)
        assert y.tolist() == [6.0, 2.0]

    def test_missing_file_falls_back_to_the_import(self):
        # with no extension suffix matching, the kernels come from scipy.sparse
        out = run_fresh("import sys, importlib.machinery as m; "
                        "m.EXTENSION_SUFFIXES[:] = ['.missing']; "
                        "import siglap.csr as c; "
                        "print(c._sparsetools.__name__, 'scipy.sparse' in sys.modules, "
                        "c.SparseSymMatrix.from_undirected_edges(2, [0], [1], [1.0])"
                        ".matvec([1.0, 2.0]).tolist() == [2.0, 1.0])")
        assert out == ["scipy.sparse._sparsetools", "True", "True"]
