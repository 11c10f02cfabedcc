import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from siglap import (EdgeListParseError, ShiftConfig, SignedGraph,
                    SparseSymMatrix, dense_sym_eig, laplacian,
                    load_edge_list, shifted_pair, signed_laplacian,
                    signless_laplacian)
from siglap.graphs import (SIGNED_KINDS, _components, _inv_sqrt_degrees,
                           _read_edge_columns, _scan_edge_lines)
from siglap.sbm import SbmParams, sample, two_cluster_benchmark_graph


def empty(n):
    return SparseSymMatrix.from_undirected_edges(n, [], [], [])


def edge_graph(n, pos_edges, neg_edges):
    def build(edges):
        if not edges:
            return empty(n)
        i, j, w = zip(*edges)
        return SparseSymMatrix.from_undirected_edges(n, i, j, w)

    return SignedGraph(w_plus=build(pos_edges), w_minus=build(neg_edges))


def random_signed(n, seed, density=0.1):
    rng = np.random.default_rng(seed)
    def part():
        m = max(1, int(density * n * (n - 1) / 2))
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        keep = i != j
        w = rng.uniform(0.1, 2.0, size=keep.sum())
        return SparseSymMatrix.from_undirected_edges(n, i[keep], j[keep], w)
    return SignedGraph(w_plus=part(), w_minus=part())


class TestSignedGraphValidation:
    def test_rejects_negative_weights(self):
        w = SparseSymMatrix.from_dense([[0.0, -1.0], [-1.0, 0.0]])
        ok = SparseSymMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            SignedGraph(w_plus=w, w_minus=ok)

    def test_rejects_diagonal(self):
        w = SparseSymMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        ok = SparseSymMatrix.from_dense(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="diagonal"):
            SignedGraph(w_plus=w, w_minus=ok)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, weight):
        # NaN fails every ordering test, so a min() < 0 check alone lets it pass
        bad = SparseSymMatrix.from_undirected_edges(3, [0, 1], [1, 2], [1.0, weight])
        ok = empty(3)
        for w_plus, w_minus in ((bad, ok), (ok, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                SignedGraph(w_plus=w_plus, w_minus=w_minus)

    def test_rejects_order_mismatch(self):
        with pytest.raises(ValueError, match="same order"):
            SignedGraph(w_plus=empty(2), w_minus=empty(3))


class TestLaplacian:
    def test_single_edge(self):
        w = SparseSymMatrix.from_undirected_edges(2, [0], [1], [1.0])
        lap = laplacian(w)
        np.testing.assert_array_equal(lap.to_dense(), [[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(dense_sym_eig(lap.to_dense())[0], [0.0, 2.0],
                                   atol=1e-14)

    def test_kernel_counts_components(self):
        for comps in (1, 2, 3):
            # path graphs of length 3 glued side by side
            edges = []
            for c in range(comps):
                base = 3 * c
                edges += [(base, base + 1, 1.0), (base + 1, base + 2, 1.0)]
            i, j, w = zip(*edges)
            lap = laplacian(SparseSymMatrix.from_undirected_edges(3 * comps, i, j, w))
            evals = dense_sym_eig(lap.to_dense())[0]
            assert np.count_nonzero(np.abs(evals) < 1e-12) == comps

    def test_path_normalized_spectrum(self):
        w = SparseSymMatrix.from_undirected_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        lsym = laplacian(w, normalized=True)
        np.testing.assert_allclose(dense_sym_eig(lsym.to_dense())[0], [0.0, 1.0, 2.0],
                                   atol=1e-14)

    def test_isolated_vertex_row_zero(self):
        w = SparseSymMatrix.from_undirected_edges(3, [0], [1], [1.0])
        lsym = laplacian(w, normalized=True).to_dense()
        assert np.all(lsym[2, :] == 0.0) and np.all(lsym[:, 2] == 0.0)
        assert lsym[0, 0] == 1.0


class TestSignlessLaplacian:
    def test_single_edge_bipartite(self):
        w = SparseSymMatrix.from_undirected_edges(2, [0], [1], [1.0])
        q = signless_laplacian(w)
        np.testing.assert_array_equal(q.to_dense(), [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(dense_sym_eig(q.to_dense())[0], [0.0, 2.0],
                                   atol=1e-14)

    def test_odd_cycle_strictly_positive(self):
        w = SparseSymMatrix.from_undirected_edges(
            3, [0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0]
        )
        q = signless_laplacian(w, normalized=True)
        evals = dense_sym_eig(q.to_dense())[0]
        assert evals[0] == pytest.approx(0.5, abs=1e-12)

    def test_even_cycle_has_zero(self):
        w = SparseSymMatrix.from_undirected_edges(
            4, [0, 1, 2, 3], [1, 2, 3, 0], np.ones(4)
        )
        evals = dense_sym_eig(signless_laplacian(w, normalized=True).to_dense())[0]
        assert abs(evals[0]) < 1e-12

    def test_isolated_vertex_row_zero(self):
        w = SparseSymMatrix.from_undirected_edges(3, [0], [1], [1.0])
        q = signless_laplacian(w, normalized=True).to_dense()
        assert np.all(q[2, :] == 0.0)


class TestSignedLaplacians:
    def test_no_negative_part_reduces_to_laplacian(self):
        g = random_signed(30, seed=1)
        g = SignedGraph(w_plus=g.w_plus, w_minus=empty(g.n))
        sn = signed_laplacian(g, "SN").to_dense()
        np.testing.assert_array_equal(sn, laplacian(g.w_plus, normalized=True).to_dense())

    def test_no_positive_part_reduces_to_signless(self):
        g = random_signed(30, seed=2)
        g = SignedGraph(w_plus=empty(g.n), w_minus=g.w_minus)
        sn = signed_laplacian(g, "SN").to_dense()
        np.testing.assert_array_equal(
            sn, signless_laplacian(g.w_minus, normalized=True).to_dense())

    def test_bn_is_similar_to_balance_normalized(self):
        g = random_signed(20, seed=4)
        d_plus = g.w_plus.row_sums()
        bn_sym = signed_laplacian(g, "BN").to_dense()
        br = np.diag(d_plus) - g.w_plus.to_dense() + g.w_minus.to_dense()
        bn = np.diag(1.0 / (d_plus + g.w_minus.row_sums())) @ br
        np.testing.assert_allclose(
            np.sort(dense_sym_eig(bn_sym)[0]),
            np.sort(np.linalg.eigvals(bn).real),
            atol=1e-10,
        )

    def test_am_is_sum_of_normalized_parts(self):
        g = random_signed(25, seed=6)
        am = signed_laplacian(g, "AM").to_dense()
        expect = (laplacian(g.w_plus, normalized=True).to_dense()
                  + signless_laplacian(g.w_minus, normalized=True).to_dense())
        np.testing.assert_array_equal(am, expect)

    @pytest.mark.parametrize("kind", ["XX", "SR", "BR"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=r"kind must be one of \('SN', 'BN', 'AM'\)"):
            signed_laplacian(random_signed(5, seed=0), kind)

    def test_all_kinds_are_symmetric_and_psd_where_expected(self):
        g = random_signed(30, seed=9)
        for kind in ("SN", "AM"):
            m = signed_laplacian(g, kind).to_dense()
            assert dense_sym_eig(m)[0][0] >= -1e-10


class TestShiftedPair:
    def test_empty_negative_part(self):
        g = edge_graph(3, [(0, 1, 1.0)], [])
        _, b = shifted_pair(g, ShiftConfig(1e-2, 1e-6))
        np.testing.assert_array_equal(b.to_dense(), 1e-6 * np.eye(3))

    def test_single_edge_spectrum_shifts(self):
        g = edge_graph(2, [(0, 1, 1.0)], [])
        a, _ = shifted_pair(g, ShiftConfig(0.01, 0.01))
        np.testing.assert_allclose(dense_sym_eig(a.to_dense())[0], [0.01, 2.01],
                                   atol=1e-12)

    def test_sbm_pair_is_spd(self):
        params = SbmParams(k=3, cluster_size=20, p_in_plus=0.5, p_out_plus=0.1,
                           p_in_minus=0.1, p_out_minus=0.5)
        g = sample(params, seed=11)
        shift = ShiftConfig(1e-6, 1e-6)
        a, b = shifted_pair(g, shift)
        assert dense_sym_eig(a.to_dense())[0][0] >= shift.eps1 - 1e-12
        assert dense_sym_eig(b.to_dense())[0][0] >= shift.eps2 - 1e-12

    def test_requires_positive_shifts(self):
        # a zero shift leaves Lsym+ or Qsym- singular
        for eps in ((0.0, 1e-6), (1e-6, 0.0)):
            with pytest.raises(ValueError, match="shifts must be positive"):
                ShiftConfig(*eps)

    def test_shift_config_validation(self):
        with pytest.raises(ValueError, match="below 1"):
            ShiftConfig(0.5, 0.5)
        for eps in ((-0.1, 0.1), (np.nan, 1e-6), (1e-6, np.nan)):
            with pytest.raises(ValueError, match="shifts must be positive"):
                ShiftConfig(*eps)


class TestEdgeList:
    def write(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        return path

    def test_single_positive_edge(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "0 1 1.0\n"))
        assert g.n == 2
        assert g.w_plus.to_dense()[0, 1] == 1.0
        assert g.w_minus.nnz == 0

    def test_sign_routing(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "0 1 -2.0\n"))
        assert g.w_minus.to_dense()[0, 1] == 2.0
        assert g.w_plus.nnz == 0

    def test_duplicates_sum(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "0 1 1\n1 0 1\n"))
        assert g.w_plus.to_dense()[0, 1] == 2.0

    def test_comments_and_blank_lines(self, tmp_path):
        g = load_edge_list(self.write(tmp_path, "# header\n\n0 1 1.0 # trailing\n"))
        assert g.w_plus.to_dense()[0, 1] == 1.0

    def test_self_loops_dropped_with_warning(self, tmp_path):
        path = self.write(tmp_path, "0 0 1.0\n0 1 1.0\n1 1 -3.0\n")
        with pytest.warns(UserWarning, match="2 self loop"):
            g = load_edge_list(path)
        assert g.w_plus.nnz == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = self.write(tmp_path, "0 1 1.0\nnot an edge\n")
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-nan"])
    def test_non_finite_weight_reports_line(self, tmp_path, weight):
        path = self.write(tmp_path, f"0 1 1.0\n1 2 {weight}\n")
        with pytest.raises(EdgeListParseError, match="line 2: non-finite"):
            load_edge_list(path)

    def test_negative_index_rejected(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="negative"):
            load_edge_list(self.write(tmp_path, "-1 0 1.0\n"))

    def test_index_beyond_int64_reports_line(self, tmp_path):
        path = self.write(tmp_path, "0 1 1.0\n0 99999999999999999999 -1\n")
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(path)

    def test_index_written_as_float_reports_line(self, tmp_path):
        # numpy's reader rejects it (older numpy only warns); the line
        # scanner names the line
        path = self.write(tmp_path, "0 1 1.0\n1.0 2 1.0\n")
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(path)

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_no_edges(self, tmp_path, text):
        with pytest.raises(ValueError, match="empty"):
            load_edge_list(self.write(tmp_path, text))

    def test_python_number_syntax_is_read_by_the_line_scanner(self, tmp_path):
        # underscores and lone carriage returns: numpy's reader rejects
        # them, Python's int() and float() and its line splitting do not
        path = tmp_path / "edges.txt"
        path.write_bytes(b"1_0 2 1.5\r0 1 -2_0.5\r")
        g = load_edge_list(path)
        assert g.n == 11
        assert g.w_plus.to_dense()[2, 10] == 1.5
        assert g.w_minus.to_dense()[0, 1] == 20.5

    def test_numpy_read_matches_line_scanner(self, tmp_path):
        rng = np.random.default_rng(8)
        i, j = rng.integers(0, 40, size=(2, 2000))
        w = np.round(rng.normal(size=2000), 3)
        w[::17] = 0.0
        lines = [f"{a} {b} {float(c)!r}  # edge {k}"
                 for k, (a, b, c) in enumerate(zip(i, j, w))]
        path = self.write(tmp_path, "# header\n\n" + "\n".join(lines) + "\n")
        fast, scanned = _read_edge_columns(path), _scan_edge_lines(path)
        assert fast.dtype == scanned.dtype
        for name in ("i", "j", "w"):
            assert np.array_equal(fast[name], scanned[name])
        with pytest.warns(UserWarning, match="self loop"):
            g = load_edge_list(path)
        keep = i != j
        expect = SparseSymMatrix.from_undirected_edges(
            int(max(i[keep].max(), j[keep].max())) + 1,
            i[keep & (w > 0)], j[keep & (w > 0)], w[keep & (w > 0)])
        assert np.array_equal(g.w_plus.to_dense(), expect.to_dense())


def operators(g):
    """Every operator built from ``g``, in a fixed order."""
    ops = [signed_laplacian(g, kind) for kind in SIGNED_KINDS]
    for normalized in (False, True):
        ops += [laplacian(g.w_plus, normalized), signless_laplacian(g.w_minus, normalized)]
    return ops + list(shifted_pair(g, ShiftConfig()))


def operators_digest(g):
    # indices are hashed as int64 whatever their storage type, as in
    # test_sbm.graph_digest
    h = hashlib.sha256()
    for m in operators(g):
        for a in (m.row_ptr.astype(np.int64), m.col_idx.astype(np.int64), m.values):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    return h.hexdigest()


class TestOperatorsArePinned:
    """The exact CSR arrays of every operator on the graphs that
    ``test_sbm.TestSampledGraphsArePinned`` pins, so that a change to how the
    operators are assembled cannot silently move a bit."""

    @pytest.mark.parametrize("seed, digest", [
        (0, "7214801e073ec26ebf3b674fe9146c94d972577c8ad950f2b1006d9c26fc5a63"),
        (1, "50605b94fa3cf203c39bf3628a52666145e1de82f1fa9f1f2c5dfd4686ad85be"),
        (2, "70b2333e59b0084c81c7be11d9b2d7af2e8444a03ae83f1a23d5311e69f860e8"),
    ])
    def test_two_cluster_benchmark_graph(self, seed, digest):
        g, _ = two_cluster_benchmark_graph(80, 50, seed)
        assert operators_digest(g) == digest

    def test_four_cluster_sample(self):
        g = sample(SbmParams(4, 20, 0.3, 0.05, 0.05, 0.3), seed=5)
        assert operators_digest(g) == (
            "0b57532756ab15cc18aeb4d3fad5e60df22d211248fb3628095aa0335171890d")


class TestExactSymmetry:
    def test_weighted_graph_with_two_sign_pairs(self):
        g = random_signed(60, seed=7, density=0.3)
        both = (g.w_plus.to_dense() > 0.0) & (g.w_minus.to_dense() > 0.0)
        assert both.sum() > 10
        for m in operators(g):
            # outside input: the constructor checks symmetry bit for bit
            SparseSymMatrix(m.to_scipy())


def scipy_row_sums(w):
    return np.asarray(w.to_scipy().sum(axis=1)).ravel()


def coo_recipe(diag, terms, scale=None):
    """``S (diag(diag) + sum_k sign_k S_k W_k S_k) S`` the long way: every
    entry listed in COO, summed by ``tocsr``, zeros eliminated, then scaled."""
    n = diag.size
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diag]
    for w, sign, s in terms:
        m = w.to_scipy().tocoo()
        v = m.data * sign
        if s is not None:
            v *= s[m.row] * s[m.col]
        rows.append(m.row)
        cols.append(m.col)
        vals.append(v)
    m = sp.coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(n, n)).tocsr()
    m.eliminate_zeros()
    if scale is not None:
        m.data *= scale[np.repeat(np.arange(n), np.diff(m.indptr))] * scale[m.indices]
    return m


def recipes(g):
    """Each operator of ``operators(g)`` as ``(name, built, coo_recipe(...))``."""
    d_plus, d_minus = scipy_row_sums(g.w_plus), scipy_row_sums(g.w_minus)
    d_bar = d_plus + d_minus
    s_plus, s_minus, s_bar = (_inv_sqrt_degrees(d) for d in (d_plus, d_minus, d_bar))
    both = [(g.w_plus, -1.0, None), (g.w_minus, 1.0, None)]
    shift = ShiftConfig()
    a, b = shifted_pair(g, shift)
    out = [
        ("SN", signed_laplacian(g, "SN"), coo_recipe(d_bar, both, s_bar)),
        ("BN", signed_laplacian(g, "BN"), coo_recipe(d_plus, both, s_bar)),
        ("AM", signed_laplacian(g, "AM"),
         coo_recipe(d_plus * s_plus**2 + d_minus * s_minus**2,
                    [(g.w_plus, -1.0, s_plus), (g.w_minus, 1.0, s_minus)])),
        ("GM A", a, coo_recipe(d_plus * s_plus**2 + shift.eps1, [(g.w_plus, -1.0, s_plus)])),
        ("GM B", b, coo_recipe(d_minus * s_minus**2 + shift.eps2, [(g.w_minus, 1.0, s_minus)])),
    ]
    for name, w, d, s in (("+", g.w_plus, d_plus, s_plus), ("-", g.w_minus, d_minus, s_minus)):
        for sign, build in ((-1.0, laplacian), (1.0, signless_laplacian)):
            out.append((f"{build.__name__}({name})", build(w), coo_recipe(d, [(w, sign, None)])))
            out.append((f"{build.__name__}({name}, normalized)", build(w, normalized=True),
                        coo_recipe(d, [(w, sign, None)], s)))
    return out


def explicit_zeros_inputs(int64=False):
    """Two scipy weight matrices as outside input may hold them, with
    explicit zeros."""
    rng = np.random.default_rng(11)
    n, m = 40, 300
    parts = []
    for _ in range(2):
        i, j = rng.integers(0, n, size=(2, m))
        keep = i < j
        i, j, w = i[keep], j[keep], rng.uniform(0.1, 2.0, size=m)[keep]
        w[rng.random(w.size) < 0.3] = 0.0
        csr = sp.coo_array((np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n)).tocsr()
        csr.sum_duplicates()
        if int64:
            csr = sp.csr_array((csr.data, csr.indices.astype(np.int64),
                                csr.indptr.astype(np.int64)), shape=csr.shape)
        parts.append(csr)
    return parts


def stored_zeros_graph(int64=False):
    return SignedGraph(*map(SparseSymMatrix, explicit_zeros_inputs(int64)))


def isolated_graph():
    # vertices 0-4 have no edge at all, vertices 5-9 none of one sign
    g = random_signed(30, seed=12, density=0.2)

    def from_vertex(w, first):
        on = np.arange(w.n) >= first
        return SparseSymMatrix.from_dense(w.to_dense() * on[:, None] * on)

    return SignedGraph(from_vertex(g.w_plus, 5), from_vertex(g.w_minus, 10))


def cancelling_graph():
    # equal weights of both signs on the same pairs: SN and BN cancel them
    rng = np.random.default_rng(13)
    n = 30
    i, j = rng.integers(0, n, size=(2, 200))
    keep = i < j
    i, j = i[keep], j[keep]
    w = rng.integers(1, 4, size=i.size) / 2.0
    extra = rng.random(i.size) < 0.5
    return SignedGraph(SparseSymMatrix.from_undirected_edges(n, i, j, w),
                       SparseSymMatrix.from_undirected_edges(n, i[extra], j[extra], w[extra]))


EDGE_CASES = {
    "stored zeros": stored_zeros_graph,
    "isolated vertices": isolated_graph,
    "cancelling pairs": cancelling_graph,
    "int64 input": lambda: stored_zeros_graph(int64=True),
    "empty W-": lambda: SignedGraph(random_signed(30, seed=14).w_plus, empty(30)),
    "weighted": lambda: random_signed(60, seed=7, density=0.3),
}


class TestAssemblyMatchesCooRecipe:
    """Operators against the COO recipe the spliced assembly replaced, bit
    for bit and dtype for dtype, on inputs the pinned digests do not cover."""

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_every_operator(self, case):
        g = EDGE_CASES[case]()
        for name, built, expect in recipes(g):
            assert built.row_ptr.dtype == built.col_idx.dtype == np.int32, name
            assert built.values.dtype == np.float64, name
            assert np.array_equal(built.row_ptr, expect.indptr), name
            assert np.array_equal(built.col_idx, expect.indices), name
            assert np.array_equal(built.values, expect.data), name

    def test_cases_have_what_they_are_named_for(self):
        inputs = explicit_zeros_inputs()
        assert all(np.any(m.data == 0.0) for m in inputs)
        # the boundary dropped them
        g = stored_zeros_graph()
        for w, m in zip((g.w_plus, g.w_minus), inputs):
            assert np.all(w.values != 0.0)
            assert w.nnz == np.count_nonzero(m.data)
        # int64 input is stored with int32 indices, as every other input
        assert stored_zeros_graph(int64=True).w_plus.col_idx.dtype == np.int32
        g = isolated_graph()
        assert np.all(g.w_plus.row_sums()[:5] == 0.0)
        assert np.all(laplacian(g.w_plus).row_ptr[1:6] == 0)  # zero diagonal dropped
        g = cancelling_graph()
        assert signed_laplacian(g, "SN").nnz < (laplacian(g.w_plus).nnz
                                                + g.w_minus.nnz)


def oracle_components(m):
    """Each vertex's smallest component member, from scipy's csgraph."""
    m = m.copy()
    m.eliminate_zeros()
    labels = connected_components(m, directed=False)[1]
    smallest = np.full(labels.max(initial=-1) + 1, m.shape[0])
    np.minimum.at(smallest, labels, np.arange(m.shape[0]))
    return smallest[labels]


def components(m):
    return _components(m.indptr.astype(np.int32), m.indices.astype(np.int32))


class TestComponents:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs_with_isolated_vertices_and_stored_zeros(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 80))
        # two vertices, at random places, get no edge
        i, j = rng.permutation(n)[2:][rng.integers(0, n - 2, size=(2, 2 * n))]
        # both orientations of each edge; weights 0 are explicit zeros, which
        # the boundary drops, so they are no edges
        w = rng.integers(0, 3, size=i.size).astype(float)
        m = sp.coo_array((np.tile(w, 2), (np.r_[i, j], np.r_[j, i])),
                         shape=(n, n)).tocsr()
        assert np.any(m.data == 0.0)
        s = SparseSymMatrix(m)
        assert np.all(s.values != 0.0)
        labels = _components(s.row_ptr, s.col_idx)
        assert labels.dtype == np.int32
        np.testing.assert_array_equal(labels, oracle_components(m))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_empty_graph(self, n):
        m = sp.csr_array((n, n))
        np.testing.assert_array_equal(components(m), np.arange(n))

    def test_long_path(self):
        # a path visiting 5000 vertices in random order, one component
        n = 5000
        order = np.random.default_rng(5).permutation(n)
        upper = sp.coo_array((np.ones(n - 1), (order[:-1], order[1:])),
                             shape=(n, n))
        m = sp.csr_array(upper + upper.T)
        m.sort_indices()
        np.testing.assert_array_equal(components(m), np.zeros(n))
