"""Spectral clustering pipelines: embeddings, k-means, the majority-vote
error, and the neighborhood graph constructions for point-cloud input.

The positive graph joins each point to its nearest neighbors, the negative
graph to its *farthest*; both are unweighted and symmetrized by union, so
an edge needs only one endpoint to pick the other.
"""

from dataclasses import dataclass

import numpy as np

from ._util import as_seed_sequence
from .csr import SparseSymMatrix, _unit_values
from .errors import ConvergenceError
from .geomean import (DEFAULT_IPM_TOL, PencilOperator,
                      matrix_smallest_k_eigenpairs, smallest_k_eigenpairs)
from .graphs import (SIGNED_KINDS, ShiftConfig, pencil_kernels, shifted_pair,
                     signed_laplacian)

METHODS = SIGNED_KINDS + ("GM",)
# Lloyd's iteration stops when the objective falls by at most a fraction
# KMEANS_RTOL in one step, or after KMEANS_MAX_ITER steps
KMEANS_MAX_ITER = 300
KMEANS_RTOL = 1e-9
# k-means runs from fresh seeds, the best kept: kmeans' default and the
# count spectral_cluster uses
KMEANS_RESTARTS = 10
# a neighbor graph's distance keys are built in blocks of whole rows,
# NEIGHBOR_BLOCK entries (32 MB of float64) at most, not n x n;
# up to 2048 points one block holds every row
NEIGHBOR_BLOCK = 2**22


@dataclass(frozen=True)
class ClusterLabels:
    """Vertex-to-cluster assignment over ``k`` clusters.  A cluster no
    vertex holds is allowed; :attr:`empty_clusters` lists them."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError("labels out of range")

    @property
    def n(self):
        return self.labels.shape[0]

    def sizes(self):
        return np.bincount(self.labels, minlength=self.k)

    @property
    def empty_clusters(self):
        """The clusters no vertex holds, ascending."""
        return tuple(int(c) for c in np.flatnonzero(self.sizes() == 0))


@dataclass
class KmeansResult:
    labels: ClusterLabels
    centers: np.ndarray
    inertia: float


def _plus_plus_seeds(points, k, rngs):
    """k-means++ centers for each generator of ``rngs``, as an ``r x k x d``
    array.

    Each restart draws from its own generator what a run of its own would:
    ``integers(n)`` for the first center, then one ``random()`` per center,
    looked up in the cumulative sum of ``d2 / total`` as
    ``Generator.choice(n, p=d2 / total)`` does, or, once its distances all
    vanish, ``integers(n, size=...)`` for the centers left.  The distances,
    cumulative sums and lookups run for all restarts at once.
    """
    n = points.shape[0]
    centers = np.empty((len(rngs), k, points.shape[1]))
    centers[:, 0] = points[[rng.integers(n) for rng in rngs]]
    d2 = np.sum((points - centers[:, :1]) ** 2, axis=2)
    live = np.arange(len(rngs))  # the restarts still drawing by distance
    for i in range(1, k):
        total = d2.sum(axis=1)
        keep = total > 0.0
        for j in live[~keep]:
            centers[j, i:] = points[rngs[j].integers(n, size=k - i)]
        live, d2 = live[keep], d2[keep]
        if live.size == 0:
            break
        cdf = np.cumsum(d2 / total[keep, None], axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rngs[j].random() for j in live])
        # searchsorted(cdf, u, side="right") in each row: cdf is sorted, so
        # that is the number of its entries at most u
        centers[live, i] = points[np.count_nonzero(cdf <= u[:, None], axis=1)]
        d2 = np.minimum(d2, np.sum((points - centers[live, i:i + 1]) ** 2, axis=2))
    return centers


def _lloyd(points, centers):
    """Lloyd's iteration on the ``r x k x d`` center sets ``centers`` at once.

    Each set stops at its own step, by the rule a run of its own would
    apply, and arrives at the same bits: one matrix product per set, and
    each center the in-order sum of its points divided by their number, as
    ``points[mask].mean(axis=0)`` computes it.  ``centers`` is updated in
    place; returns the ``r x n`` labels and the ``r`` objectives.
    """
    r, k, d = centers.shape
    sq = np.sum(points**2, axis=1)[:, None]
    labels = np.empty((r, points.shape[0]), dtype=np.intp)
    inertia = np.empty(r)
    prev = np.full(r, np.inf)
    run = np.arange(r)  # the sets still iterating
    for step in range(KMEANS_MAX_ITER):
        c = centers[run]
        d2 = (sq - 2.0 * points @ c.transpose(0, 2, 1)
              + np.sum(c**2, axis=2)[:, None, :])
        lab = np.argmin(d2, axis=2)  # ties go to the lowest centroid index
        obj = np.sum(np.take_along_axis(d2, lab[:, :, None], axis=2)[:, :, 0],
                     axis=1)
        obj = np.maximum(obj, 0.0)
        p = prev[run]
        if np.any(obj > p + 1e-9 * np.maximum(1.0, np.abs(p))):
            raise ConvergenceError("k-means objective increased")
        # set j's cluster c is bin j * k + c; bincount adds each bin's points
        # in index order
        bins = (np.arange(run.size)[:, None] * k + lab).ravel()
        counts = np.bincount(bins, minlength=run.size * k)
        sums = np.empty((run.size * k, d))
        for j in range(d):
            sums[:, j] = np.bincount(bins, weights=np.tile(points[:, j], run.size),
                                     minlength=run.size * k)
        c = c.reshape(run.size * k, d)
        filled = counts > 0
        c[filled] = sums[filled] / counts[filled, None]
        centers[run] = c.reshape(run.size, k, d)
        labels[run] = lab
        inertia[run] = prev[run] = obj
        done = obj == 0.0
        if step:  # the first step has no previous objective to fall from
            done |= p - obj <= KMEANS_RTOL * np.maximum(p, 1e-300)
        run = run[~done]
        if run.size == 0:
            break
    return labels, inertia


def kmeans(points, k, restarts=KMEANS_RESTARTS, seed=0):
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` runs.

    Each run is seeded from its own child of ``seed``, and all runs iterate
    together; the first run with the lowest objective wins.  Deterministic
    given the seed.  If fewer than ``k`` distinct points exist, some
    clusters come back empty (``labels.empty_clusters``).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.ndim != 2:
        raise ValueError("points must be an n x d array")
    n = points.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    centers = _plus_plus_seeds(points, k, [
        np.random.default_rng(child) for child in as_seed_sequence(seed).spawn(restarts)])
    labels, inertia = _lloyd(points, centers)
    best = int(np.argmin(inertia))
    # copies, so the result does not hold every restart's arrays
    return KmeansResult(
        labels=ClusterLabels(labels=labels[best].copy(), k=k),
        centers=centers[best].copy(),
        inertia=float(inertia[best]),
    )


def clustering_error(pred, truth):
    """Fraction of mislabeled vertices after majority-vote cluster labeling.

    Each predicted cluster adopts the most frequent ground-truth class among
    its vertices (ties to the smallest class id); the error is invariant
    under permutations of the predicted cluster ids.
    """
    pred_labels = pred.labels if isinstance(pred, ClusterLabels) else np.asarray(pred)
    true_labels = truth.labels if isinstance(truth, ClusterLabels) else np.asarray(truth)
    if pred_labels.shape != true_labels.shape:
        raise ValueError("prediction and ground truth differ in length")
    n = pred_labels.shape[0]
    wrong = 0
    for c in np.unique(pred_labels):
        members = true_labels[pred_labels == c]
        counts = np.bincount(members)
        majority = int(np.argmax(counts))  # ties resolve to the smallest class
        wrong += int(members.size - counts[majority])
    return wrong / n


def _block_neighbors(data, sq, lo, hi, k_neigh, farthest):
    # the k nearest or farthest neighbors of the points lo:hi, smaller
    # indices first among equal distances; the block's arrays die on return
    key = np.maximum(sq[lo:hi, None] - 2.0 * data[lo:hi] @ data.T + sq[None, :],
                     0.0)
    if farthest:
        np.negative(key, out=key)
    key[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
    # each row keeps its keys up to its k-th smallest (indexing with a list
    # copies those out, so the partitioned array is freed at once) ...
    kth = np.partition(key, k_neigh - 1, axis=1)[:, [k_neigh - 1]]
    keep = key <= kth
    # ... and where more keys equal the k-th than fit, the smaller indices
    # among them: the set a stable sort would keep
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k_neigh)
    row_keys, row_kth = key[over], kth[over]
    tie = row_keys == row_kth
    room = k_neigh - np.count_nonzero(row_keys < row_kth, axis=1)
    keep[over] &= ~tie | (np.cumsum(tie, axis=1) <= room[:, None])
    return np.nonzero(keep)[1].reshape(hi - lo, k_neigh)


def _neighbor_graph(data, k_neigh, farthest):
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    if k_neigh < 1 or k_neigh >= n:
        raise ValueError(f"need 1 <= k < n, got k={k_neigh}, n={n}")
    if not np.isfinite(data).all():
        raise ValueError("points must have finite coordinates")
    # the largest coordinate scaled into [0.5, 1) by a power of two, which
    # is exact: every key is the unscaled one times 4**-e, so the neighbors
    # and their ties stay, no square overflows, and a cloud of tiny
    # coordinates keeps its squares from underflowing to zero
    _, e = np.frexp(np.max(np.abs(data), initial=0.0))
    data = np.ldexp(data, -e)
    sq = np.sum(data**2, axis=1)
    step = max(1, NEIGHBOR_BLOCK // n)
    cols = np.empty((n, k_neigh), dtype=np.intp)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        cols[lo:hi] = _block_neighbors(data, sq, lo, hi, k_neigh, farthest)
    cols = cols.ravel()
    rows = np.repeat(np.arange(n), k_neigh)
    # union symmetrization: a pair listed in both orientations sums to 2,
    # so the structure is the union and every value is then reset to 1
    sym = SparseSymMatrix.from_undirected_edges(n, rows, cols, np.ones(rows.size))
    return SparseSymMatrix._canonical(sym.row_ptr, sym.col_idx, _unit_values(sym.nnz))


def knn_pos_graph(data, k_plus):
    """Symmetric (union) k-nearest-neighbor graph, unit weights, Euclidean metric."""
    return _neighbor_graph(data, k_plus, farthest=False)


def kfn_neg_graph(data, k_minus):
    """Symmetric (union) k-farthest-neighbor graph, unit weights."""
    return _neighbor_graph(data, k_minus, farthest=True)


@dataclass
class SpectralClusteringResult:
    """The ``k`` smallest eigenpairs of ``method``'s operator and the labels
    k-means drew from their vectors."""

    labels: ClusterLabels
    eigenpairs: list

    @property
    def embedding(self):
        """The ``n x k`` matrix of the eigenvectors, one column per pair,
        built anew on each read."""
        return np.column_stack([p.vector for p in self.eigenpairs])


# spectral_cluster's tolerance.  GM runs Lanczos' applications of the
# inverse at 1% of it and takes each pair's value and residual estimate from
# them, with no application of A # B.  The explicit methods accept a vector
# at a backward error of it even while it still rotates inside a cluster of
# nearly equal eigenvalues, a wander k-means does not see, which would take
# thousands of iterations to settle.
RESID_TOL = 1e-4


def smallest_eigenpairs(g, k, method, shift=None, tol=DEFAULT_IPM_TOL,
                        seed=0):
    """The ``k`` smallest eigenpairs of the operator ``method`` names for ``g``.

    ``GM`` is the geometric mean of the shifted normalized pair (``shift``,
    default :class:`ShiftConfig`), solved matrix-free with inner solves
    deflated by the pair's kernels; ``SN``/``BN``/``AM``
    are explicit matrices (``shift`` is ignored).  Every pair is accepted
    at ``tol``, with inner solves at ``INNER_RATIO`` of it (see
    :mod:`siglap.geomean`).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if method == "GM":
        a, b = shifted_pair(g, shift if shift is not None else ShiftConfig())
        pencil = PencilOperator(a, b, kernels=pencil_kernels(g))
        return smallest_k_eigenpairs(pencil, k, tol=tol, seed=seed)
    return matrix_smallest_k_eigenpairs(
        signed_laplacian(g, method), k, definite=method != "BN", tol=tol,
        seed=seed)


def spectral_cluster(g, k, method="GM", shift=None, seed=0):
    """Cluster a signed graph from the k smallest eigenvectors of an operator.

    ``method`` selects the operator (see :func:`smallest_eigenpairs`), solved
    with ``tol=RESID_TOL``; the embedding rows are then clustered with
    k-means, best of ``KMEANS_RESTARTS`` runs.
    """
    if g.n == 0:
        raise ValueError("graph is empty")
    if not 2 <= k <= g.n:
        raise ValueError(f"k must be in [2, {g.n}], got {k}")
    eig_seed, km_seed = as_seed_sequence(seed).spawn(2)
    pairs = smallest_eigenpairs(g, k, method, shift=shift, tol=RESID_TOL,
                                seed=eig_seed)
    km = kmeans(np.column_stack([p.vector for p in pairs]), k,
                restarts=KMEANS_RESTARTS, seed=km_seed)
    return SpectralClusteringResult(labels=km.labels, eigenpairs=pairs)


def _first_data_line(path, what):
    # the first line that is neither blank nor a comment; a file without one
    # is refused here, before loadtxt warns and returns an empty array
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                return stripped
    raise ValueError(f"{path} holds no {what}")


def load_points(path):
    """Numeric point matrix, one point per row, comma- or whitespace-separated."""
    delim = "," if "," in _first_data_line(path, "points") else None
    pts = np.loadtxt(path, delimiter=delim, comments="#", ndmin=2)
    return pts.astype(np.float64)


def load_labels(path):
    """Ground-truth labels, one integer per row."""
    _first_data_line(path, "labels")
    labels = np.loadtxt(path, comments="#", dtype=np.int64, ndmin=1)
    if labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    return ClusterLabels(labels=labels, k=int(labels.max()) + 1)
