import hashlib
import itertools

import numpy as np
import pytest

from siglap import (ShiftConfig, conditions, corollary_bound,
                    dense_geometric_mean, dense_sym_eig, expected_graph,
                    expected_spectrum, indicator_basis, region_fractions,
                    sample, two_cluster_benchmark_graph)
from siglap.densela import subspace_angle
from siglap.sbm import (CONDITIONINGS, TARGETS, SbmParams, _decode_triangular,
                        _distinct_indices, expected_operator_dense)


def params_of(k, c, pip, pop, pim, pom):
    return SbmParams(k=k, cluster_size=c, p_in_plus=pip, p_out_plus=pop,
                     p_in_minus=pim, p_out_minus=pom)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="two clusters"):
            params_of(1, 5, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="probability"):
            params_of(2, 5, 1.5, 0.5, 0.5, 0.5)
        assert params_of(3, 4, 0, 0, 0, 0).n == 12


class TestSample:
    def test_degenerate_probabilities_give_cliques(self):
        g = sample(params_of(2, 3, 1.0, 0.0, 0.0, 0.0), seed=0)
        dense = g.w_plus.to_dense()
        block = np.ones((3, 3)) - np.eye(3)
        expect = np.block([[block, np.zeros((3, 3))], [np.zeros((3, 3)), block]])
        np.testing.assert_array_equal(dense, expect)
        assert g.w_minus.nnz == 0

    def test_all_zero_probabilities(self):
        g = sample(params_of(2, 4, 0.0, 0.0, 0.0, 0.0), seed=1)
        assert g.w_plus.nnz == 0 and g.w_minus.nnz == 0

    def test_intra_density_concentrates(self):
        g = sample(params_of(2, 200, 0.5, 0.0, 0.0, 0.0), seed=5)
        block = g.w_plus.to_dense()[:200, :200]
        density = block.sum() / (200 * 199)
        assert abs(density - 0.5) <= 0.02

    def test_deterministic_given_seed(self):
        p = params_of(3, 30, 0.3, 0.1, 0.1, 0.3)
        g1, g2 = sample(p, seed=9), sample(p, seed=9)
        assert np.array_equal(g1.w_plus.values, g2.w_plus.values)
        assert np.array_equal(g1.w_plus.col_idx, g2.w_plus.col_idx)
        assert np.array_equal(g1.w_minus.values, g2.w_minus.values)

    def test_pair_can_carry_both_signs(self):
        g = sample(params_of(2, 3, 1.0, 1.0, 1.0, 1.0), seed=2)
        both = (g.w_plus.to_dense() > 0) & (g.w_minus.to_dense() > 0)
        assert both.any()

    def test_unbiased_block_densities(self):
        # observed densities stay within 3 sigma of the probabilities
        c = 300
        p = params_of(2, c, 0.3, 0.05, 0.1, 0.4)
        g = sample(p, seed=42)
        wp, wm = g.w_plus.to_dense(), g.w_minus.to_dense()
        checks = [
            (wp[:c, :c].sum() / 2, c * (c - 1) / 2, 0.3),
            (wp[:c, c:].sum(), c * c, 0.05),
            (wm[:c, :c].sum() / 2, c * (c - 1) / 2, 0.1),
            (wm[:c, c:].sum(), c * c, 0.4),
        ]
        for count, n_pairs, prob in checks:
            sigma = np.sqrt(n_pairs * prob * (1 - prob))
            assert abs(count - n_pairs * prob) <= 3 * sigma

    def test_zero_diagonal(self):
        g = sample(params_of(2, 10, 1.0, 1.0, 1.0, 1.0), seed=3)
        assert np.all(g.w_plus.diagonal_vector() == 0.0)

    @pytest.mark.parametrize("degree", [np.nan, np.inf])
    def test_benchmark_graph_rejects_non_finite_degree(self, degree):
        # min(1.0, nan) is 1.0: a NaN degree used to sample complete graphs
        with pytest.raises(ValueError, match="avg_degree must be finite"):
            two_cluster_benchmark_graph(10, degree, seed=0)

    def test_benchmark_graph_degrees(self):
        g, p = two_cluster_benchmark_graph(400, 30.0, seed=0)
        d = g.w_plus.row_sums() + g.w_minus.row_sums()
        assert abs(d.mean() - 30.0) <= 2.0
        # positive edges intra only, negative inter only
        assert g.w_plus.to_dense()[:200, 200:].sum() == 0.0
        assert g.w_minus.to_dense()[:200, :200].sum() == 0.0


def graph_digest(g):
    # indices are hashed as int64 whatever their storage type, so the pins
    # track the graph, not its index width
    h = hashlib.sha256()
    for m in (g.w_plus, g.w_minus):
        for a in (m.row_ptr.astype(np.int64), m.col_idx.astype(np.int64), m.values):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    return h.hexdigest()


class TestSampledGraphsArePinned:
    """The exact CSR arrays of seeded graphs, so that a change to the sampler
    or to the sparse builder cannot silently redraw the benchmark's inputs."""

    @pytest.mark.parametrize("seed, digest", [
        (0, "04675c549406af0ea82787c50d578ee1f9de3c200483b6832a6b46f5332ff25c"),
        (1, "5357668c7dca26b302d06a92fddcb9640a566e76a8d3fe3b18696a9df3e0986b"),
        (2, "8656d3bab16071a9a2f3d2d9a72a04cad0ef0d93208f76226c779dcc07398570"),
    ])
    def test_two_cluster_benchmark_graph(self, seed, digest):
        g, _ = two_cluster_benchmark_graph(80, 50, seed)
        assert graph_digest(g) == digest

    def test_four_cluster_sample(self):
        g = sample(params_of(4, 20, 0.3, 0.05, 0.05, 0.3), seed=5)
        assert graph_digest(g) == (
            "17861aa79b1eda8a9a4ceb952e923500dfc1965c23e2abcd484bbe7716803c65")


class TestDistinctIndices:
    def test_large_range_without_building_it(self):
        rng = np.random.default_rng(0)
        t = _distinct_indices(rng, 2_500_000_000, 1000)
        assert t.dtype == np.int64
        assert t.shape == (1000,)
        assert np.unique(t).size == 1000
        assert t.min() >= 0 and t.max() < 2_500_000_000


class TestDecodeTriangular:
    @pytest.mark.parametrize("c", [1, 2, 3, 40, 41, 999, 2000])
    def test_matches_triu_indices(self, c):
        i, j = _decode_triangular(np.arange(c * (c - 1) // 2), c)
        expect_i, expect_j = np.triu_indices(c, 1)
        np.testing.assert_array_equal(i, expect_i)
        np.testing.assert_array_equal(j, expect_j)

    def test_exact_at_row_starts_of_a_large_block(self):
        # a row's first pair (i, i + 1) and the pair before it (i - 1, c - 1)
        # are where a closed-form square root rounds across rows
        c = 200_001
        rows = np.random.default_rng(3).choice(np.arange(1, c - 1), 5000, replace=False)
        rows = np.concatenate([[1, 2, c - 3, c - 2], rows])
        starts = np.array([r * (2 * c - r - 1) // 2 for r in rows.tolist()])
        i, j = _decode_triangular(np.concatenate([starts, starts - 1]), c)
        np.testing.assert_array_equal(i, np.concatenate([rows, rows - 1]))
        np.testing.assert_array_equal(
            j, np.concatenate([rows + 1, np.full(rows.size, c - 1)]))


class TestExpectedGraph:
    def test_two_blocks_rank_two(self):
        wp, _ = expected_graph(params_of(2, 2, 1.0, 0.0, 0.0, 0.0))
        expect = np.block([[np.ones((2, 2)), np.zeros((2, 2))],
                           [np.zeros((2, 2)), np.ones((2, 2))]])
        np.testing.assert_array_equal(wp, expect)
        assert np.linalg.matrix_rank(wp) == 2

    def test_uniform_probability_rank_one(self):
        wp, _ = expected_graph(params_of(3, 4, 0.4, 0.4, 0.0, 0.0))
        assert np.linalg.matrix_rank(wp) == 1

    def test_spectrum_matches_formulas(self):
        p = params_of(3, 10, 0.8, 0.1, 0.0, 0.0)
        wp, _ = expected_graph(p)
        evals = np.sort(dense_sym_eig(wp)[0])
        # c (p_in + (k - 1) p_out) once, c (p_in - p_out) k - 1 times
        expect = np.concatenate([np.zeros(27), [10 * 0.7] * 2, [10 * (0.8 + 2 * 0.1)]])
        np.testing.assert_allclose(evals, expect, atol=1e-9)

    def test_indicators_are_eigenvectors(self):
        p = params_of(4, 5, 0.6, 0.2, 0.1, 0.5)
        wp, wm = expected_graph(p)
        chi = indicator_basis(p)
        for i in range(p.k):
            for w, p_in, p_out in ((wp, p.p_in_plus, p.p_out_plus),
                                   (wm, p.p_in_minus, p.p_out_minus)):
                lam = p.cluster_size * (p_in + (p.k - 1) * p_out if i == 0
                                        else p_in - p_out)
                np.testing.assert_allclose(w @ chi[:, i], lam * chi[:, i], atol=1e-9)


class TestIndicatorBasis:
    def test_two_singleton_clusters(self):
        chi = indicator_basis(params_of(2, 1, 0, 0, 0, 0))
        np.testing.assert_array_equal(chi, [[1.0, 1.0], [1.0, -1.0]])

    def test_three_clusters(self):
        chi = indicator_basis(params_of(3, 1, 0, 0, 0, 0))
        np.testing.assert_array_equal(chi[:, 1], [2.0, -1.0, -1.0])

    def test_constant_vector_orthogonal_to_rest(self):
        chi = indicator_basis(params_of(5, 7, 0, 0, 0, 0))
        gram = chi.T @ chi
        assert np.array_equal(gram[0, 1:], np.zeros(4))
        # pairwise the highlight vectors overlap by exactly -k|C|
        off = gram[1:, 1:] - np.diag(np.diag(gram[1:, 1:]))
        assert np.all(off[off != 0] == -5 * 7)

    def test_gram_diagonal_for_two_clusters(self):
        chi = indicator_basis(params_of(2, 4, 0, 0, 0, 0))
        gram = chi.T @ chi
        assert np.array_equal(gram, np.diag(np.diag(gram)))

    def test_full_rank_span(self):
        chi = indicator_basis(params_of(4, 3, 0, 0, 0, 0))
        assert np.linalg.matrix_rank(chi) == 4


class TestConditions:
    def test_perfectly_balanced(self):
        c = conditions(params_of(2, 10, 1.0, 0.0, 0.0, 1.0))
        assert c.e_plus and c.e_minus and c.e_bal and c.e_conf and c.e_g
        assert c.margins["e_g"] == pytest.approx(1.0)

    def test_hand_evaluated_margins(self):
        c = conditions(params_of(2, 10, 0.8, 0.2, 0.2, 0.8))
        assert c.e_g and c.margins["e_g"] == pytest.approx(1.0 - 0.16)
        assert not c.e_vol  # 1.0 < 1.0 is false under strict comparison
        assert c.margins["e_vol"] == pytest.approx(0.0)

    def test_degenerate_denominator_flagged(self):
        c = conditions(params_of(2, 10, 0.5, 0.2, 0.0, 0.0))
        assert c.e_minus is False
        assert c.e_g is None and "e_g" in c.degenerate
        assert np.isnan(c.margins["e_g"])

    def test_shifted_condition_tracks_unshifted_away_from_margin(self):
        rng = np.random.default_rng(0)
        shift = ShiftConfig(1e-6, 1e-6)
        for _ in range(200):
            p = params_of(int(rng.integers(2, 6)), 10, *rng.uniform(0, 1, size=4))
            c = conditions(p, shift)
            if c.e_g is None or abs(c.margins["e_g"]) < 1e-4:
                continue
            assert c.e_g_shifted == c.e_g

    def test_sufficient_shifted_condition_implies_exact(self):
        # lhs + eps1 + eps2 < 1 (with eps sum < 1) must imply the ordering
        rng = np.random.default_rng(1)
        shift = ShiftConfig(0.05, 0.1)
        hits = 0
        for _ in range(500):
            p = params_of(int(rng.integers(2, 6)), 10, *rng.uniform(0, 1, size=4))
            c = conditions(p, shift)
            if c.e_g is None:
                continue
            lhs = 1.0 - c.margins["e_g"]
            if lhs + shift.eps1 + shift.eps2 < 1.0:
                hits += 1
                assert c.e_g_shifted
        assert hits > 20

    def test_e_g_matches_gm_spectrum_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = params_of(int(rng.integers(2, 6)), 10, *rng.uniform(0.01, 1, size=4))
            c = conditions(p)
            spec = expected_spectrum(p)["GM"]
            predicted = bool(np.max(spec.chi_values[1:]) < spec.bulk)
            assert c.e_g == predicted


class TestExpectedSpectrum:
    def test_adjacency_values(self):
        # W+ has values 60 (the degree) and 40, W- none
        spec = expected_spectrum(params_of(2, 100, 0.5, 0.1, 0.0, 0.0))
        for kind in ("SN", "BN"):
            np.testing.assert_allclose(spec[kind].chi_values, [0.0, 20.0 / 60.0])
            assert spec[kind].bulk == pytest.approx(1.0)

    def test_balanced_gm_constant_indicator_value_zero(self):
        spec = expected_spectrum(params_of(2, 10, 1.0, 0.0, 0.0, 1.0))
        assert spec["GM"].chi_values[0] == 0.0

    def test_degenerate_access_raises(self):
        spec = expected_spectrum(params_of(2, 10, 0.0, 0.0, 0.5, 0.5))
        with pytest.raises(ValueError, match="degenerate"):
            spec["GM"]
        # SN and BN survive a vanishing positive part
        assert spec["SN"].bulk == 1.0

    def test_closed_forms_match_dense_operators(self):
        rng = np.random.default_rng(4)
        shift = ShiftConfig(1e-3, 1e-3)
        for _ in range(10):
            p = params_of(4, 6, *rng.uniform(0.05, 0.95, size=4))
            spec = expected_spectrum(p, shift)
            chi = indicator_basis(p)
            n = p.n
            for kind in ("SN", "BN", "AM", "GM"):
                dense = expected_operator_dense(
                    p, kind, shift if kind == "GM" else None
                )
                key = "GM_shifted" if kind == "GM" else kind
                cf = spec[key]
                # eigenvalue multiset: k indicator values + (n-k) bulk copies
                expect = np.sort(np.concatenate(
                    [cf.chi_values, np.full(n - p.k, cf.bulk)]
                ))
                np.testing.assert_allclose(
                    np.sort(dense_sym_eig(dense)[0]), expect, atol=1e-8
                )
                # indicators are eigenvectors with the predicted values
                for i in range(p.k):
                    v = chi[:, i] / np.linalg.norm(chi[:, i])
                    np.testing.assert_allclose(
                        dense @ v, cf.chi_values[i] * v, atol=1e-8
                    )


class TestOrderingEquivalence:
    """Bottom-k eigenspace = indicator span exactly when the conditions say so."""

    def run_trials(self, n_trials, seed):
        rng = np.random.default_rng(seed)
        shift = ShiftConfig(1e-6, 1e-6)
        checked = 0
        while checked < n_trials:
            k = int(rng.integers(2, 6))
            p = params_of(k, 20, *rng.uniform(0, 1, size=4))
            spec = expected_spectrum(p, shift)
            cond = conditions(p, shift)
            if spec.operators["SN"] is None or spec.operators["GM_shifted"] is None:
                continue
            margin_arith = spec["SN"].bulk - max(spec["SN"].chi_values)
            margin_gm = cond.margins["e_g_shifted"]
            if min(abs(margin_arith), abs(margin_gm)) <= 1e-6:
                continue
            chi = indicator_basis(p)
            for kind, predicted in (
                ("SN", cond.e_bal and cond.e_vol),
                ("BN", cond.e_bal and cond.e_vol),
                ("GM", cond.e_g_shifted),
            ):
                dense = expected_operator_dense(
                    p, kind, shift if kind == "GM" else None
                )
                _, vecs = dense_sym_eig(dense)
                angle = subspace_angle(vecs[:, :k], chi)
                assert (angle <= 1e-6) == predicted, (
                    f"{kind}: predicted {predicted}, angle {angle:.2e}, params {p}"
                )
            checked += 1

    def test_small_batch(self):
        self.run_trials(60, seed=123)


class TestRegionFraction:
    def test_informative_pair_always_satisfies_gm_condition(self):
        for k in (2, 5, 20):
            res = region_fractions(k, 10)[("e_plus_and_e_minus", "e_g")]
            assert res.fraction == 1.0

    @pytest.mark.parametrize("steps", [2, 3])
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("conditioning", CONDITIONINGS)
    def test_exhaustive_two_step_grid(self, conditioning, target, k, steps):
        # steps^4 grid points (16 or 81); count by direct enumeration
        events = {
            "all": lambda c: True,
            "e_bal": lambda c: c.e_bal,
            "e_plus_or_e_minus": lambda c: c.e_plus or c.e_minus,
            "e_plus_and_e_minus": lambda c: c.e_plus and c.e_minus,
            "e_g": lambda c: c.e_g,
            "e_bal_and_e_vol": lambda c: c.e_bal and c.e_vol,
        }
        centers = (np.arange(steps) + 0.5) / steps
        num = den = 0
        for pip, pop, pim, pom in itertools.product(centers, repeat=4):
            c = conditions(params_of(k, 5, pip, pop, pim, pom))
            if not events[conditioning](c):
                continue
            den += 1
            num += bool(events[target](c))
        res = region_fractions(k, steps)[(conditioning, target)]
        assert res.denominator == den
        assert res.numerator == num

    @pytest.mark.parametrize("k, counts", [
        (2, [(89532, 160000), (38004, 160000), (75547, 77904), (38004, 77904),
             (89532, 115900), (38004, 115900), (36100, 36100), (17566, 36100)]),
        (5, [(84426, 160000), (25059, 160000), (74051, 77904), (25059, 77904),
             (84426, 115900), (25059, 115900), (36100, 36100), (8599, 36100)]),
    ])
    def test_counts_pinned_at_twenty_steps(self, k, counts):
        # the exhaustive test stops at steps 3; these pairs were counted by
        # the earlier code, which swept the grid once per pair
        res = region_fractions(k, 20)
        assert list(res) == list(itertools.product(CONDITIONINGS, TARGETS))
        assert [(r.numerator, r.denominator) for r in res.values()] == counts
        assert all(r.fraction == num / den
                   for r, (num, den) in zip(res.values(), counts))

    def test_conditioning_nestedness(self):
        res = region_fractions(4, 20)
        full = res[("all", "e_g")]
        cond = res[("e_plus_or_e_minus", "e_g")]
        assert 0.0 <= full.fraction <= cond.fraction <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="steps"):
            region_fractions(2, 1)
        for k in (0, 1):
            with pytest.raises(ValueError, match="k >= 2"):
                region_fractions(k, 4)


class TestCorollaryBound:
    def test_values(self):
        assert corollary_bound(2) == pytest.approx(11.0 / 6.0)
        assert corollary_bound(5) == pytest.approx(1 / 6 + 1 / 6 + 1 / 16)

    def test_limit(self):
        assert corollary_bound(10**6) == pytest.approx(1.0 / 6.0, abs=1e-5)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            corollary_bound(1)

    def test_bounds_measured_fraction(self):
        for k in (3, 10):
            res = region_fractions(k, 30)[("e_plus_and_e_minus", "e_bal_and_e_vol")]
            assert res.fraction <= corollary_bound(k)
