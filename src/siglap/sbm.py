"""Signed stochastic block model: sampling, expectations, and the condition
calculus that predicts which operators put the cluster indicators at the
bottom of the spectrum.

The model has ``k`` equally sized clusters.  Within a cluster each unordered
vertex pair independently receives a positive edge with probability
``p_in_plus`` and a negative edge with probability ``p_in_minus``; across
clusters the probabilities are ``p_out_plus`` and ``p_out_minus``.  A pair may
carry both a positive and a negative edge.  Expectation matrices are
block-constant including the diagonal (rank ``k``), while samples have zero
diagonal.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .csr import SparseSymMatrix
from .densela import dense_geometric_mean
from .graphs import SignedGraph


@dataclass(frozen=True)
class SbmParams:
    k: int
    cluster_size: int
    p_in_plus: float
    p_out_plus: float
    p_in_minus: float
    p_out_minus: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least two clusters")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be positive")
        for name in ("p_in_plus", "p_out_plus", "p_in_minus", "p_out_minus"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} is not a probability")

    @property
    def n(self):
        return self.k * self.cluster_size


# -- sampling ------------------------------------------------------------


def _distinct_indices(rng, n_pairs, m):
    """m distinct integers from range(n_pairs), uniformly, memory-bounded.

    Up to 1e6 pairs this takes a prefix of a full permutation, the draw that
    ``tests/test_sbm.py`` pins by digest; beyond, ``rng.choice`` samples
    without building the whole range.
    """
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if m >= n_pairs:
        return np.arange(n_pairs, dtype=np.int64)
    if n_pairs <= 1_000_000:
        return rng.permutation(n_pairs)[:m].astype(np.int64)
    return rng.choice(n_pairs, size=m, replace=False).astype(np.int64)


def _decode_triangular(t, c):
    """Map flat indices of the strict upper triangle of a c x c block to (i, j).

    Row ``i`` holds the ``c - i - 1`` pairs ``(i, i + 1) .. (i, c - 1)`` and
    starts at flat index ``i (2c - i - 1) / 2``; those starts are exact
    integers, so a binary search among them finds each row without the
    rounding a closed-form square root suffers at large ``c``.
    """
    rows = np.arange(c - 1, dtype=np.int64)
    starts = rows * (2 * c - rows - 1) // 2
    i = np.searchsorted(starts, t, side="right") - 1
    j = t - starts[i] + i + 1
    return i, j


def _sample_sign(rng, params, p_in, p_out):
    k, c = params.k, params.cluster_size
    rows, cols = [], []
    n_intra = c * (c - 1) // 2
    for a in range(k):
        m = rng.binomial(n_intra, p_in) if n_intra else 0
        t = _distinct_indices(rng, n_intra, int(m))
        i, j = _decode_triangular(t, c)
        rows.append(i + a * c)
        cols.append(j + a * c)
    for a in range(k):
        for b in range(a + 1, k):
            m = rng.binomial(c * c, p_out)
            t = _distinct_indices(rng, c * c, int(m))
            rows.append(t // c + a * c)
            cols.append(t % c + b * c)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return SparseSymMatrix.from_undirected_edges(
        params.n, rows, cols, np.ones(rows.size)
    )


def sample(params, seed):
    """Draw a signed graph from the block model; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    w_plus = _sample_sign(rng, params, params.p_in_plus, params.p_out_plus)
    w_minus = _sample_sign(rng, params, params.p_in_minus, params.p_out_minus)
    return SignedGraph(w_plus=w_plus, w_minus=w_minus)


def two_cluster_benchmark_graph(n, avg_degree, seed):
    """Two perfect clusters at a target average degree.

    Positive edges only inside the two clusters, negative only across, with
    probabilities chosen so the expected positive and negative degrees are
    each ``avg_degree / 2``.  Returns ``(graph, params)``.
    """
    if n % 2:
        raise ValueError("n must be even")
    if not math.isfinite(avg_degree):
        raise ValueError(f"avg_degree must be finite, got {avg_degree}")
    c = n // 2
    params = SbmParams(
        k=2,
        cluster_size=c,
        p_in_plus=min(1.0, (avg_degree / 2.0) / max(c - 1, 1)),
        p_out_plus=0.0,
        p_in_minus=0.0,
        p_out_minus=min(1.0, (avg_degree / 2.0) / c),
    )
    return sample(params, seed), params


# -- expectations --------------------------------------------------------


def expected_graph(params):
    """Dense block-constant expectation matrices ``(W+, W-)`` (diagonal included)."""
    from .densela import ORACLE_CAP

    if params.n > ORACLE_CAP:
        raise ValueError(f"expected matrices limited to order {ORACLE_CAP}")
    block = np.repeat(np.arange(params.k), params.cluster_size)
    same = block[:, None] == block[None, :]
    w_plus = np.where(same, params.p_in_plus, params.p_out_plus)
    w_minus = np.where(same, params.p_in_minus, params.p_out_minus)
    return w_plus, w_minus


def indicator_basis(params):
    """The k cluster indicator vectors: the all-ones vector, then for each of
    the first ``k - 1`` clusters the vector with ``k - 1`` on that cluster and
    ``-1`` elsewhere.

    Together they span the space of block-constant vectors (the planted
    eigenvectors of every expected operator).  The all-ones vector is
    orthogonal to the rest; the remaining vectors are mutually orthogonal
    only for ``k = 2`` (their pairwise inner product is ``-k |C|``), so
    subspace comparisons should orthonormalize first.
    """
    n, k, c = params.n, params.k, params.cluster_size
    chi = np.full((n, k), -1.0)
    chi[:, 0] = 1.0
    for i in range(1, k):
        chi[(i - 1) * c:i * c, i] = k - 1.0
    return chi


@dataclass(frozen=True)
class OperatorSpectrum:
    """Closed-form expected spectrum: one eigenvalue per indicator vector and
    the common value on the orthogonal complement."""

    chi_values: np.ndarray
    bulk: float


@dataclass(frozen=True)
class ExpectedSpectrum:
    operators: dict

    def __getitem__(self, kind):
        spec = self.operators[kind]
        if spec is None:
            raise ValueError(f"operator {kind!r} is degenerate for these parameters")
        return spec


def expected_spectrum(params, shift=None):
    """Closed-form eigenvalues of every expected operator.

    Normalized operators are ``None`` (degenerate) when the degree they
    normalize by vanishes.  With a shift configuration, ``"GM_shifted"``
    carries the spectrum of the geometric mean of the shifted pair.
    """
    k, c = params.k, params.cluster_size
    lam1p = c * (params.p_in_plus + (k - 1) * params.p_out_plus)
    lamip = c * (params.p_in_plus - params.p_out_plus)
    lam1m = c * (params.p_in_minus + (k - 1) * params.p_out_minus)
    lamim = c * (params.p_in_minus - params.p_out_minus)
    dp, dm = lam1p, lam1m
    dbar = dp + dm

    lam_p = np.array([lam1p] + [lamip] * (k - 1))
    lam_m = np.array([lam1m] + [lamim] * (k - 1))

    ops = {
        "BN": None,
        "SN": None,
        "AM": None,
        "GM": None,
        "GM_shifted": None,
    }
    if dbar > 0.0:
        ops["BN"] = OperatorSpectrum((dp - lam_p + lam_m) / dbar, dp / dbar)
        ops["SN"] = OperatorSpectrum((dbar - lam_p + lam_m) / dbar, 1.0)
    if dp > 0.0 and dm > 0.0:
        g_plus = 1.0 - lam_p / dp
        g_minus = 1.0 + lam_m / dm
        ops["AM"] = OperatorSpectrum(g_plus + g_minus, 2.0)
        ops["GM"] = OperatorSpectrum(np.sqrt(g_plus * g_minus), 1.0)
        if shift is not None:
            ops["GM_shifted"] = OperatorSpectrum(
                np.sqrt((g_plus + shift.eps1) * (g_minus + shift.eps2)),
                math.sqrt((1.0 + shift.eps1) * (1.0 + shift.eps2)),
            )
    return ExpectedSpectrum(operators=ops)


def expected_operator_dense(params, kind, shift=None):
    """Dense expected operator, built from the expectation matrices themselves.

    This path is independent of the closed-form spectrum and of the sparse
    builders, which makes it the oracle side of the ordering checks.
    """
    w_plus, w_minus = expected_graph(params)
    n = params.n
    dp = w_plus.sum(axis=1)
    dm = w_minus.sum(axis=1)
    dbar = dp + dm

    def inv_sqrt(d):
        pos = d > 0.0
        return np.where(pos, 1.0 / np.sqrt(np.where(pos, d, 1.0)), 0.0)

    if kind == "SN":
        s = inv_sqrt(dbar)
        return s[:, None] * (np.diag(dbar) - w_plus + w_minus) * s[None, :]
    if kind == "BN":
        s = inv_sqrt(dbar)
        return s[:, None] * (np.diag(dp) - w_plus + w_minus) * s[None, :]
    lsym = np.eye(n) - inv_sqrt(dp)[:, None] * w_plus * inv_sqrt(dp)[None, :]
    lsym[dp == 0.0, :] = 0.0
    lsym[:, dp == 0.0] = 0.0
    qsym = np.eye(n) + inv_sqrt(dm)[:, None] * w_minus * inv_sqrt(dm)[None, :]
    qsym[dm == 0.0, :] = 0.0
    qsym[:, dm == 0.0] = 0.0
    if kind == "AM":
        return lsym + qsym
    if kind == "GM":
        if shift is None:
            raise ValueError("the dense geometric mean needs a shift configuration")
        a = lsym + shift.eps1 * np.eye(n)
        b = qsym + shift.eps2 * np.eye(n)
        return dense_geometric_mean(a, b)
    raise ValueError(f"unknown operator kind {kind!r}")


# -- conditions ----------------------------------------------------------


@dataclass(frozen=True)
class ConditionSet:
    """Strict-inequality conditions with their margins (right minus left side).

    A condition whose defining ratios are undefined (zero expected degree) is
    ``None`` and listed in ``degenerate``.
    """

    e_plus: bool
    e_minus: bool
    e_bal: bool
    e_vol: bool
    e_conf: bool
    e_g: bool
    e_g_shifted: bool
    margins: dict
    degenerate: frozenset


def _margins(k, pip, pop, pim, pom):
    """Right minus left side of each block-model inequality but
    ``e_g_shifted``, from scalar probabilities or arrays that broadcast.

    Each margin is a function of no argument, so a caller computes only the
    margins it reads; ``e_conf`` and ``e_g`` give ``nan`` unless both
    expected degree sums (their denominators) are nonzero everywhere.
    """
    den_p = pip + (k - 1) * pop
    den_m = pim + (k - 1) * pom
    margins = {
        "e_plus": lambda: pip - pop,
        "e_minus": lambda: pom - pim,
        "e_bal": lambda: (pip + pom) - (pim + pop),
        "e_vol": lambda: den_p - den_m,
        "e_conf": lambda: math.nan,
        "e_g": lambda: math.nan,
    }
    if np.all(den_p != 0.0) and np.all(den_m != 0.0):
        g_plus = k * pop / den_p
        margins["e_conf"] = lambda: 1.0 - g_plus * (k * pim / den_m)
        margins["e_g"] = lambda: 1.0 - g_plus * (1.0 + (pim - pom) / den_m)
    return margins


def conditions(params, shift=None):
    """Evaluate the block-model inequalities governing eigenvalue ordering.

    ``e_bal and e_vol`` predicts the indicator vectors at the bottom of the
    arithmetic-mean style operators; ``e_g`` does the same for the geometric
    mean, and ``e_g_shifted`` for the geometric mean of the pair shifted by
    ``shift`` (whose ``eps1 + eps2 < 1`` :class:`~siglap.graphs.ShiftConfig`
    guarantees); without a shift, ``e_g_shifted`` is degenerate.
    """
    margins = {name: margin() for name, margin in _margins(
        params.k, params.p_in_plus, params.p_out_plus, params.p_in_minus,
        params.p_out_minus).items()}
    degenerate = set()
    if math.isnan(margins["e_g"]):
        degenerate.update(("e_conf", "e_g"))
    if degenerate or shift is None:
        degenerate.add("e_g_shifted")
        margins["e_g_shifted"] = math.nan
    else:
        spec = expected_spectrum(params, shift)["GM_shifted"]
        # margin kept in product (squared-eigenvalue) units: same sign
        margins["e_g_shifted"] = float(
            spec.bulk ** 2 - np.max(spec.chi_values ** 2)
        )

    return ConditionSet(
        **{name: None if name in degenerate else bool(margin > 0.0)
           for name, margin in margins.items()},
        margins=margins,
        degenerate=frozenset(degenerate),
    )


def corollary_bound(k):
    """Upper bound on how often the arithmetic-mean ordering survives when
    both graphs are informative: ``1/6 + 2/(3(k-1)) + 1/(k-1)^2``."""
    if k < 2:
        raise ValueError("the bound needs k >= 2")
    return 1.0 / 6.0 + 2.0 / (3.0 * (k - 1)) + 1.0 / (k - 1) ** 2


CONDITIONINGS = ("all", "e_bal", "e_plus_or_e_minus", "e_plus_and_e_minus")
TARGETS = ("e_g", "e_bal_and_e_vol")


@dataclass(frozen=True)
class RegionFraction:
    fraction: float
    numerator: int
    denominator: int


def _slice_counts(k, pip, pop, pim, pom):
    """(numerator, denominator) of every ``CONDITIONINGS`` x ``TARGETS`` pair
    on the grid slice ``p_in_plus = pip``.

    Each margin is evaluated once, ``e_g`` first, so that no other mask is
    alive beside its float grid; the masks are freed on return.
    """
    margins = _margins(k, pip, pop, pim, pom)
    hits = [margins["e_g"]() > 0.0]
    e_bal = margins["e_bal"]() > 0.0
    hits.append(e_bal & (margins["e_vol"]() > 0.0))
    e_plus, e_minus = margins["e_plus"]() > 0.0, margins["e_minus"]() > 0.0
    counts = [(np.count_nonzero(hit), hit.size) for hit in hits]
    for cond in (e_bal, e_plus | e_minus, e_plus & e_minus):
        den = np.count_nonzero(cond)
        counts.extend((np.count_nonzero(cond & hit), den) for hit in hits)
    return counts


def region_fractions(k, steps):
    """Fraction of the probability cube where each target holds given each
    conditioning, on a ``steps^4`` grid of cell centers, as a dict keyed by
    ``(conditioning, target)`` in ``CONDITIONINGS`` x ``TARGETS`` order.

    All inequalities are strict, evaluated as :func:`conditions` does.  The
    cell centers are positive, so every ratio condition is defined on the
    grid, and every conditioning event holds at ``(p_in_plus, p_out_plus,
    p_in_minus, p_out_minus) = (last, first, first, last)``, so no
    denominator is 0.  The grid is walked once, one ``p_in_plus`` slice at a
    time.  ``_margins`` stays lazy so that a slice holds one ``steps^3``
    float grid at a time: evaluating all its margins up front raised the
    peak of ``siglap sbm-region --k 2 --k 5`` from 46 to 69 MB at steps 100
    and from 160 to 343 MB at steps 200.
    """
    if k < 2:
        raise ValueError("the block model needs k >= 2")
    if steps < 2:
        raise ValueError("steps must be at least 2")

    centers = (np.arange(steps) + 0.5) / steps
    pop = centers[:, None, None]
    pim = centers[None, :, None]
    pom = centers[None, None, :]
    totals = sum(np.array(_slice_counts(k, pip, pop, pim, pom)) for pip in centers)
    return {pair: RegionFraction(fraction=num / den, numerator=num,
                                 denominator=den)
            for pair, (num, den) in zip(itertools.product(CONDITIONINGS, TARGETS),
                                        totals.tolist())}
