import hashlib

import numpy as np
import pytest

from siglap import (ClusterLabels, PencilOperator, ShiftConfig, SignedGraph,
                    SparseSymMatrix, cluster, clustering_error,
                    dense_geometric_mean, dense_sym_eig, eksm_apply_inv_sqrt,
                    geomean, kfn_neg_graph, kmeans, knn_pos_graph,
                    pencil_kernels, shifted_pair, signed_laplacian,
                    smallest_eigenpairs, spectral_cluster)
from siglap.cluster import METHODS, RESID_TOL, load_labels, load_points
from siglap.densela import subspace_angle
from siglap.sbm import (SbmParams, indicator_basis, sample,
                        two_cluster_benchmark_graph)


def labels_of(seq, k=None):
    seq = np.asarray(seq)
    return ClusterLabels(labels=seq, k=k or int(seq.max()) + 1)


def plus_plus_seed(points, k, rng):
    """Reference k-means++ seeding of one restart, by ``Generator.choice``."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i:] = points[rng.integers(n, size=k - i)]
            break
        centers[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def sequential_kmeans(points, k, restarts, seed):
    """Reference: the restarts one after another, each center a masked mean.

    Returns ``(labels, centers, inertia)`` of the first best restart.
    """
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        centers = plus_plus_seed(points, k, np.random.default_rng(child))
        prev = np.inf
        for step in range(cluster.KMEANS_MAX_ITER):
            d2 = (np.sum(points**2, axis=1)[:, None]
                  - 2.0 * points @ centers.T
                  + np.sum(centers**2, axis=1)[None, :])
            labels = np.argmin(d2, axis=1)
            inertia = float(np.sum(np.take_along_axis(d2, labels[:, None], axis=1)))
            inertia = max(inertia, 0.0)
            if inertia > prev + 1e-9 * max(1.0, abs(prev)):
                raise AssertionError("objective increased")
            for c in range(k):
                mask = labels == c
                if np.any(mask):
                    centers[c] = points[mask].mean(axis=0)
            stop = inertia == 0.0 or (
                step > 0
                and prev - inertia <= cluster.KMEANS_RTOL * max(prev, 1e-300))
            prev = inertia
            if stop:
                break
        if best is None or prev < best[2]:
            best = (labels, centers, prev)
    return best


def kmeans_cases():
    """Seeded ``(name, points, k, restarts, seed)``; the ``dup`` sets hold
    fewer than ``k`` distinct points, so clusters come back empty."""
    rng = np.random.default_rng(20261019)
    out = []
    for k in (2, 3, 4):
        blobs = np.concatenate([rng.normal(c, 0.4, size=(15, k)) for c in range(k)])
        out.append((f"blobs-k{k}", blobs, k, 10, k))
        dup = np.repeat(rng.standard_normal((k - 1, 2)), 4, axis=0)
        out.append((f"dup-k{k}", dup, k, 5, 100 + k))
        mixed = np.concatenate([np.repeat(rng.standard_normal((2, 3)), 6, axis=0),
                                rng.standard_normal((5, 3))])
        out.append((f"mixed-k{k}", mixed, k, 7, 200 + k))
    return out


def kmeans_digest(labels, centers, inertia):
    h = hashlib.sha256()
    h.update(np.asarray(labels, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(centers).tobytes())
    h.update(np.float64(inertia).tobytes())
    return h.hexdigest()[:16]


# kmeans_digest of each kmeans_cases() result, from the restarts run one
# after another (sequential_kmeans at the default constants); every restart
# runs Lloyd's iteration to convergence
KMEANS_DIGESTS = {
    "blobs-k2": "d56909126b3e8ba7", "dup-k2": "53094783700b7230",
    "mixed-k2": "cf63a80e46d4afda", "blobs-k3": "937a3f3e83b36d38",
    "dup-k3": "d5af7881517fca09", "mixed-k3": "e3c94d40487df844",
    "blobs-k4": "451670a9a1c44747", "dup-k4": "1d6075d6bc24560f",
    "mixed-k4": "d566e779195389f6",
}


class TestKmeans:
    @pytest.mark.parametrize("case", range(40))
    def test_batched_seeding_matches_each_restart_drawn_alone(self, case):
        # random sizes and scales; every fourth case holds fewer distinct
        # points than k, so some restarts fall back to uniform draws
        rng = np.random.default_rng(case)
        n, d = int(rng.integers(1, 120)), int(rng.integers(1, 12))
        k = int(rng.integers(1, min(n, 8) + 1))
        if case % 4 == 0:
            distinct = rng.standard_normal((max(1, k - 1), d))
            points = distinct[rng.integers(distinct.shape[0], size=n)]
        else:
            points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7)
        children = np.random.SeedSequence(case).spawn(int(rng.integers(1, 12)))
        batched = cluster._plus_plus_seeds(
            points, k, [np.random.default_rng(child) for child in children])
        alone = [plus_plus_seed(points, k, np.random.default_rng(child))
                 for child in children]
        np.testing.assert_array_equal(batched, np.stack(alone))

    @pytest.mark.parametrize("name, points, k, restarts, seed", kmeans_cases(),
                             ids=[case[0] for case in kmeans_cases()])
    def test_batched_restarts_reproduce_pinned_digests(self, name, points, k,
                                                       restarts, seed):
        res = kmeans(points, k, restarts=restarts, seed=seed)
        digest = kmeans_digest(res.labels.labels, res.centers, res.inertia)
        assert digest == KMEANS_DIGESTS[name]
        assert digest == kmeans_digest(*sequential_kmeans(points, k, restarts, seed))
        if name.startswith("dup"):
            assert res.labels.empty_clusters

    @pytest.mark.parametrize("max_iter", [3, 300])
    def test_restarts_stop_at_their_own_step(self, monkeypatch, max_iter):
        # at KMEANS_RTOL = 0 a restart runs until its objective stops
        # falling, so the restarts stop at different steps, some at the cap
        monkeypatch.setattr(cluster, "KMEANS_RTOL", 0.0)
        monkeypatch.setattr(cluster, "KMEANS_MAX_ITER", max_iter)
        for _, points, k, restarts, seed in kmeans_cases():
            res = kmeans(points, k, restarts=restarts, seed=seed)
            assert (kmeans_digest(res.labels.labels, res.centers, res.inertia)
                    == kmeans_digest(*sequential_kmeans(points, k, restarts, seed)))

    @pytest.mark.parametrize("name, points, k, restarts, seed", kmeans_cases(),
                             ids=[case[0] for case in kmeans_cases()])
    def test_labels_are_the_nearest_center_assignment(self, name, points, k,
                                                      restarts, seed):
        # Lloyd's iteration has converged: updating the centers from the
        # labels returned leaves every point nearest its own center
        res = kmeans(points, k, restarts=restarts, seed=seed)
        d2 = np.sum((points[:, None, :] - res.centers[None, :, :]) ** 2, axis=2)
        np.testing.assert_array_equal(res.labels.labels, np.argmin(d2, axis=1))

    def test_well_separated_1d(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        res = kmeans(pts, 2, seed=0)
        lab = res.labels.labels
        assert lab[0] == lab[1] and lab[2] == lab[3] and lab[0] != lab[2]
        assert res.labels.empty_clusters == ()

    def test_empty_clusters_follow_the_labels(self):
        assert ClusterLabels([0, 0, 2, 2], k=3).empty_clusters == (1,)
        assert ClusterLabels([1, 0], k=2).empty_clusters == ()

    def test_identical_points_flag_empty_cluster(self):
        pts = np.zeros((4, 2))
        res = kmeans(pts, 2, seed=0)
        assert len(res.labels.empty_clusters) == 1
        assert res.inertia == 0.0

    def test_exact_indicator_embedding_recovers_groups(self):
        params = SbmParams(k=3, cluster_size=5, p_in_plus=0, p_out_plus=0,
                           p_in_minus=0, p_out_minus=0)
        chi = np.linalg.qr(indicator_basis(params))[0]  # orthonormalized columns
        res = kmeans(chi, 3, seed=1)
        truth = labels_of(np.repeat([0, 1, 2], 5))
        assert clustering_error(res.labels, truth) == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((40, 3))
        a = kmeans(pts, 4, seed=5)
        b = kmeans(pts, 4, seed=5)
        assert np.array_equal(a.labels.labels, b.labels.labels)
        assert a.inertia == b.inertia

    def test_more_clusters_than_points_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans(np.zeros((2, 1)), 3)

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            kmeans(np.zeros((4, 1)), 2, restarts=restarts)

    def test_restarts_never_hurt(self):
        rng = np.random.default_rng(11)
        pts = np.concatenate([rng.normal(c, 0.3, size=(20, 2)) for c in (0, 3, 6)])
        one = kmeans(pts, 3, restarts=1, seed=2).inertia
        many = kmeans(pts, 3, restarts=10, seed=2).inertia
        assert many <= one + 1e-12


class TestClusteringError:
    def test_exact_match(self):
        t = labels_of([0, 0, 1, 1])
        assert clustering_error(t, t) == 0.0

    def test_permutation_invariance(self):
        truth = labels_of([0, 0, 1, 1])
        flipped = labels_of([1, 1, 0, 0])
        assert clustering_error(flipped, truth) == 0.0

    def test_tie_goes_to_smallest_class(self):
        truth = labels_of([0, 0, 1, 1])
        pred = labels_of([0, 1, 0, 1])
        # both predicted clusters tie between classes 0 and 1 -> both labeled 0
        assert clustering_error(pred, truth) == 0.5

    def test_random_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        truth = labels_of(rng.integers(0, 4, size=50), k=4)
        pred = rng.integers(0, 4, size=50)
        base = clustering_error(labels_of(pred, k=4), truth)
        perm = rng.permutation(4)
        assert clustering_error(labels_of(perm[pred], k=4), truth) == base

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            clustering_error(labels_of([0, 1]), labels_of([0, 1, 1]))

    def test_plain_arrays_accepted(self):
        assert clustering_error([0, 0, 1], [1, 1, 0]) == 0.0


class TestNeighborGraphs:
    def test_collinear_nearest(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        w = knn_pos_graph(pts, 1).to_dense()
        expect = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(w, expect)

    def test_collinear_farthest(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        w = kfn_neg_graph(pts, 1).to_dense()
        expect = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)
        np.testing.assert_array_equal(w, expect)

    def test_two_points(self):
        pts = np.array([[0.0], [1.0]])
        assert knn_pos_graph(pts, 1).nnz == 2
        assert kfn_neg_graph(pts, 1).nnz == 2

    def test_union_symmetrization_only_adds(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((100, 2))
        w = knn_pos_graph(pts, 3)
        degrees = (w.to_dense() > 0).sum(axis=1)
        assert degrees.min() >= 3

    def test_distance_ties_break_to_smaller_index(self):
        # three corners of a unit square: 1 and 2 are equidistant from 0
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = knn_pos_graph(pts, 1).to_dense()
        assert w[0, 1] == 1.0  # vertex 0 picked index 1, not 2

    def test_duplicate_points_allowed(self):
        pts = np.zeros((5, 2))
        w = knn_pos_graph(pts, 2)
        assert w.nnz > 0

    @pytest.mark.parametrize("build", [knn_pos_graph, kfn_neg_graph])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coordinates_rejected(self, build, value):
        pts = np.arange(12.0).reshape(6, 2)
        pts[3, 1] = value
        with pytest.raises(ValueError, match="finite coordinates"):
            build(pts, 2)

    def test_farthest_hub_concentration(self):
        # two distant blobs: each blob's farthest neighbors live in the other,
        # and the extreme points soak up most of the edges
        rng = np.random.default_rng(9)
        blob1 = rng.normal(0.0, 0.5, size=(60, 2))
        blob2 = rng.normal(8.0, 0.5, size=(60, 2))
        w = kfn_neg_graph(np.vstack([blob1, blob2]), 3)
        deg = (w.to_dense() > 0).sum(axis=1)
        top = np.sort(deg)[-12:]
        assert top.sum() >= 0.5 * deg.sum()

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            knn_pos_graph(np.zeros((3, 1)), 3)

    @pytest.mark.parametrize("build", [knn_pos_graph, kfn_neg_graph],
                             ids=["knn", "kfn"])
    @pytest.mark.parametrize("line, scale", [
        *(([0.0, 1.0, 2.0, 3.0], 2.0**p) for p in (-1000, 511, 512, 1000)),
        ([0.0, 1.0, 3.0, 7.0], 1e300), ([0.0, 1.0, 3.0, 7.0], 1e-300)],
        ids=["2^-1000", "2^511", "2^512", "2^1000", "1e300", "1e-300"])
    def test_any_unit_gives_the_unit_graph(self, build, line, scale):
        # squares overflow from about 2**511 and underflow to zero below
        # about 2**-537; the first line's equal distances must keep the
        # smaller-index tie rule, and the second line has no ties
        line = np.array(line)[:, None]
        one, scaled = build(line, 1), build(line * scale, 1)
        for name in ("row_ptr", "col_idx", "values"):
            np.testing.assert_array_equal(getattr(scaled, name), getattr(one, name))

    @pytest.mark.parametrize("farthest", [False, True], ids=["knn", "kfn"])
    @pytest.mark.parametrize("block_rows", [1, 7], ids=["row", "seven-rows"])
    @pytest.mark.parametrize("cloud, k", [("integers", 6), ("integers", 1),
                                          ("lattice", 6), ("lattice", 1)])
    def test_row_blocks_give_the_one_block_graph(self, monkeypatch, farthest,
                                                 block_rows, cloud, k):
        # integer coordinates make every distance exact and many tie, so the
        # blocks must pick the same neighbors, smaller index first
        if cloud == "integers":
            pts = np.random.default_rng(4).integers(0, 4, size=(50, 3)).astype(float)
        else:
            pts = np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0)),
                           axis=-1).reshape(-1, 2)
        n = pts.shape[0]
        build = kfn_neg_graph if farthest else knn_pos_graph
        one = build(pts, k)
        expect = np.zeros((n, n))
        for i in range(n):
            d2 = np.sum((pts - pts[i]) ** 2, axis=1)
            picked = sorted((j for j in range(n) if j != i),
                            key=lambda j: (-d2[j] if farthest else d2[j], j))[:k]
            expect[i, picked] = expect[picked, i] = 1.0
        np.testing.assert_array_equal(one.to_dense(), expect)
        monkeypatch.setattr(cluster, "NEIGHBOR_BLOCK", block_rows * n)
        blocked = build(pts, k)
        for name in ("row_ptr", "col_idx", "values"):
            np.testing.assert_array_equal(getattr(blocked, name), getattr(one, name))


def two_clique_graph(m=8):
    """Two positive m-cliques joined by all negative cross edges."""
    n = 2 * m
    ip, jp = [], []
    for base in (0, m):
        for i in range(m):
            for j in range(i + 1, m):
                ip.append(base + i)
                jp.append(base + j)
    im, jm = np.meshgrid(np.arange(m), np.arange(m, n))
    w_plus = SparseSymMatrix.from_undirected_edges(n, ip, jp, np.ones(len(ip)))
    w_minus = SparseSymMatrix.from_undirected_edges(
        n, im.ravel(), jm.ravel(), np.ones(m * m)
    )
    return SignedGraph(w_plus=w_plus, w_minus=w_minus), labels_of(
        np.repeat([0, 1], m)
    )


# graphs, and their cluster counts, for spectral_cluster at RESID_TOL;
# "stalled-k3-1" holds a cluster of nearly equal eigenvalues
RESID_TOL_CASES = {
    "two-cluster-0": lambda: (two_cluster_benchmark_graph(80, 50, 0)[0], 2),
    "two-cluster-1": lambda: (two_cluster_benchmark_graph(80, 50, 1)[0], 2),
    "noisy-k2-0": lambda: (sample(SbmParams(2, 40, 0.3, 0.1, 0.1, 0.3), 0), 2),
    "noisy-k2-3": lambda: (sample(SbmParams(2, 40, 0.3, 0.1, 0.1, 0.3), 3), 2),
    "sbm-k4-0": lambda: (sample(SbmParams(4, 20, 0.3, 0.05, 0.05, 0.3), 0), 4),
    "stalled-k3-1": lambda: (sample(SbmParams(3, 15, 0.4, 0.25, 0.25, 0.4), 1), 3),
}


class TestSpectralCluster:
    @pytest.mark.parametrize("method", ["AM", "GM"])
    def test_perfectly_balanced_two_cliques(self, method):
        g, truth = two_clique_graph()
        res = spectral_cluster(g, 2, method=method, seed=0)
        assert clustering_error(res.labels, truth) == 0.0
        assert res.embedding.shape == (g.n, 2)
        np.testing.assert_allclose(np.linalg.norm(res.embedding, axis=0),
                                   np.ones(2), atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 9, 17])
    @pytest.mark.parametrize("method", ["SN", "BN"])
    def test_two_cliques_first_vector_and_values(self, method, seed):
        # the second eigenvalue of SN and BN has multiplicity 15 here, so the
        # second vector, and the labels k-means draws from the embedding,
        # depend on the seed; the first vector and both values do not
        g, truth = two_clique_graph()
        res = spectral_cluster(g, 2, method=method, seed=seed)
        side = np.sign(res.embedding[:, 0]) * np.sign(res.embedding[0, 0])
        np.testing.assert_array_equal(side, np.where(truth.labels == 0, 1.0, -1.0))
        w = dense_sym_eig(signed_laplacian(g, method).to_dense())[0]
        np.testing.assert_allclose([p.value for p in res.eigenpairs], w[:2],
                                   atol=1e-8)

    def test_balanced_sbm_sample_gm(self):
        params = SbmParams(k=2, cluster_size=50, p_in_plus=1.0, p_out_plus=0.0,
                           p_in_minus=0.0, p_out_minus=1.0)
        g = sample(params, seed=4)
        truth = labels_of(np.repeat([0, 1], 50))
        res = spectral_cluster(g, 2, method="GM", seed=1)
        assert clustering_error(res.labels, truth) == 0.0

    def test_eigen_residuals_recorded(self):
        # SN measures each residual with a product
        g, _ = two_clique_graph(6)
        for pair in spectral_cluster(g, 2, method="SN", seed=3).eigenpairs:
            assert pair.residual <= 1e-6
        # a GM pair's vector meets the same cap against the dense
        # mean.  It reports the estimate norm_bound (||r|| + e) / theta,
        # where e = step ||Y c|| is about step theta and norm_bound is
        # 2 + eps on these cliques, so about (2 + eps) step once Lanczos'
        # own residual r is small
        a, b = shifted_pair(g, ShiftConfig())
        dense = dense_geometric_mean(a.to_dense(), b.to_dense())
        step = geomean._step_tol(RESID_TOL)
        for pair in spectral_cluster(g, 2, method="GM", seed=3).eigenpairs:
            gx = dense @ pair.vector
            assert np.linalg.norm(gx - (pair.vector @ gx) * pair.vector) <= 1e-6
            assert pair.residual <= 5.0 * step

    def test_embedding_is_smallest_eigenpairs(self):
        # one method-to-operator map: the embedding is exactly its vectors
        g, _ = two_clique_graph()
        for seed, method in enumerate(METHODS):
            res = spectral_cluster(g, 2, method=method, seed=seed)
            eig_seed, _ = np.random.SeedSequence(seed).spawn(2)
            pairs = smallest_eigenpairs(g, 2, method, tol=RESID_TOL,
                                        seed=eig_seed)
            np.testing.assert_array_equal(
                np.column_stack([p.vector for p in pairs]), res.embedding)

    @pytest.mark.parametrize("case", RESID_TOL_CASES)
    def test_acceptance_holds_at_full_accuracy(self, case):
        # Lanczos applies (A # B)^-1 inexactly, to INNER_RATIO * RESID_TOL,
        # and stops at that tolerance.  Every pair must still be an
        # eigenvector of the deflated (A # B)^-1 to within ten times it,
        # measured at full accuracy, that of a call at 1e-8 (the worst case,
        # the third pair of "stalled-k3-1", is at 1e-6).
        g, k = RESID_TOL_CASES[case]()
        res = spectral_cluster(g, k, "GM")
        a, b = shifted_pair(g, ShiftConfig())
        full = geomean._step_tol(geomean.DEFAULT_IPM_TOL)
        step = geomean._step_tol(RESID_TOL)
        pencil = PencilOperator(a, b, kernels=pencil_kernels(g))
        deflate = np.empty((g.n, 0))
        for pair in res.eigenpairs:
            x = pair.vector
            y = eksm_apply_inv_sqrt(pencil, pencil.solve_a(x, full), tol=full).x
            y -= deflate @ (deflate.T @ y)
            backward = np.linalg.norm(y - (x @ y) * x) / np.linalg.norm(y)
            assert backward <= 10.0 * step
            deflate = np.column_stack([deflate, x])

    @pytest.mark.parametrize("case", RESID_TOL_CASES)
    def test_gm_values_and_residuals_match_dense_oracle(self, case):
        # a call takes each value and residual from Lanczos' own
        # images, found at the step tolerance; the values must still match
        # the oracle's, and each reported residual, a bound, must not
        # understate the dense residual of the vector returned
        g, k = RESID_TOL_CASES[case]()
        res = spectral_cluster(g, k, "GM")
        a, b = shifted_pair(g, ShiftConfig())
        dense = dense_geometric_mean(a.to_dense(), b.to_dense())
        values = dense_sym_eig(dense)[0][:k]
        for pair, value in zip(res.eigenpairs, values):
            assert abs(pair.value - value) <= 1e-6 * abs(value)
            gx = dense @ pair.vector
            residual = np.linalg.norm(gx - (pair.vector @ gx) * pair.vector)
            assert pair.residual >= residual

    @pytest.mark.parametrize("run", [0, 1])
    def test_sn_waits_out_a_stalled_backward_error(self, run):
        # the graphs and seeds `siglap sbm-cluster --seed 9` clusters.  The
        # backward error of SN's second or third pair stalls above
        # RESID_TOL for 30 steps; accepting it there (a stall exit) returned
        # embeddings 0.48 and 1.23 rad from the oracle's eigenspace and a
        # third value 1.5e-2 off.  Waited out, the pairs take up to 283 and
        # 453 steps, which a cap of 500 steps would leave little margin
        # (MAX_INVERSE_STEPS is 5000)
        run_seed = np.random.SeedSequence(9).spawn(2)[run]
        graph_seed, cluster_seed = run_seed.spawn(2)
        g = sample(SbmParams(3, 15, 0.4, 0.25, 0.25, 0.4), graph_seed)
        res = spectral_cluster(g, 3, "SN", seed=cluster_seed)
        w, v = dense_sym_eig(signed_laplacian(g, "SN").to_dense())
        values = np.array([p.value for p in res.eigenpairs])
        assert np.all(np.abs(values - w[:3]) <= 1e-6 * np.abs(w[:3]))
        assert subspace_angle(res.embedding, v[:, :3]) <= 1e-2

    def test_one_seed_sequence_gives_one_answer(self):
        # spawning from the caller's SeedSequence would advance it, so a
        # second call with the same object would draw different seeds
        g = sample(SbmParams(3, 15, 0.4, 0.25, 0.25, 0.4), seed=0)
        seed = np.random.SeedSequence(7)
        first = spectral_cluster(g, 3, seed=seed).labels.labels
        second = spectral_cluster(g, 3, seed=seed).labels.labels
        np.testing.assert_array_equal(first, second)

    def test_unknown_method_rejected(self):
        g, _ = two_clique_graph(3)
        with pytest.raises(ValueError, match="method"):
            smallest_eigenpairs(g, 2, "XX")

    def test_validation(self):
        g, _ = two_clique_graph(3)
        with pytest.raises(ValueError, match="method"):
            spectral_cluster(g, 2, method="XX")
        with pytest.raises(ValueError, match="k"):
            spectral_cluster(g, g.n + 1)


class TestLoaders:
    def test_points_whitespace_and_csv(self, tmp_path):
        p1 = tmp_path / "a.txt"
        p1.write_text("0.0 1.0\n2.0 3.0\n")
        p2 = tmp_path / "b.csv"
        p2.write_text("0.0,1.0\n2.0,3.0\n")
        np.testing.assert_array_equal(load_points(p1), load_points(p2))

    def test_labels(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("0\n1\n1\n")
        lab = load_labels(p)
        assert lab.k == 2
        np.testing.assert_array_equal(lab.labels, [0, 1, 1])

    def test_labels_missing_a_cluster(self, tmp_path):
        # k counts up to the largest label, so a label no vertex holds is an
        # empty cluster of the truth
        p = tmp_path / "labels.txt"
        p.write_text("0\n0\n2\n2\n")
        lab = load_labels(p)
        assert lab.k == 3
        np.testing.assert_array_equal(lab.sizes(), [2, 0, 2])
        assert lab.empty_clusters == (1,)

    def test_negative_labels_rejected(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("0\n-1\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_labels(p)
