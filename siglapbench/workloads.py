"""Benchmark workloads: seeded inputs, the call under test, and its checks.

A workload turns ``--seed`` into ``instances`` independent inputs, one per
child of a ``numpy.random.SeedSequence``; the program sees only those inputs.
A run measures several small instances instead of one large one because the
work one instance needs (PCG iterations, outer steps) varies between seeds,
and the median over several instances repeats far better from run to run.

Importing this module imports ``siglap``; the benchmark times that import as
part of its set-up.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from siglap import cluster, densela, graphs, sbm
from siglap.errors import ConvergenceError, IndefiniteOperatorError

# A call raising one of these is counted as failed and the run carries on.
FAILURES = (ConvergenceError, IndefiniteOperatorError, np.linalg.LinAlgError)

# Oracle thresholds: an eigenpair fails when its eigenvalue's relative error
# exceeds EIG_RTOL or when the embedding's largest principal angle to the
# oracle's k-dimensional eigenspace exceeds ANGLE_TOL.
EIG_RTOL = 1e-6
ANGLE_TOL = 1e-2
# A run is ``correct`` only if every embedding is within this angle of the
# oracle eigenspace.  It catches wrong or missing eigenvectors (angles near
# pi/2), not the accuracy that ANGLE_TOL asks for: spectral_cluster's default
# acceptance rule already misses ANGLE_TOL on about 1% of sn-knn-mixture
# instances (0.029 rad seen), and oracle_fail_frac reports that.
GROSS_ANGLE = 0.5

ORDER_WARNING = "eigenvalues returned out of order"


@dataclass
class Instance:
    """One input: a signed graph, or a point matrix whose graphs the call builds."""

    truth: np.ndarray
    graph: object = None
    points: np.ndarray = None


@dataclass
class Outcome:
    graph: object
    result: object  # siglap.cluster.SpectralClusteringResult
    order_warnings: int


@dataclass
class Check:
    """Oracle and label verdict on one outcome; never timed."""

    eig_rel_err: np.ndarray
    angle: float
    resid_max: float
    clustering_error: float

    @property
    def failed_pairs(self):
        if self.angle > ANGLE_TOL:
            return int(self.eig_rel_err.size)
        return int(np.count_nonzero(self.eig_rel_err > EIG_RTOL))

    @property
    def correct(self):
        """The embedding spans roughly the oracle's eigenspace (GROSS_ANGLE)."""
        return self.angle <= GROSS_ANGLE


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    k: int
    instances: int
    make: object  # (SeedSequence) -> Instance

    def inputs(self, seed):
        children = np.random.SeedSequence(seed).spawn(self.instances)
        return [self.make(child) for child in children]

    def solve(self, inst):
        """Input to labels; for point clouds this includes the kNN/kFN build."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = inst.graph
            if g is None:
                g = graphs.SignedGraph(
                    w_plus=cluster.knn_pos_graph(inst.points, MIXTURE_NEIGHBORS),
                    w_minus=cluster.kfn_neg_graph(inst.points, MIXTURE_NEIGHBORS),
                )
            result = cluster.spectral_cluster(g, self.k, method=self.method)
        warned = sum(str(w.message).startswith(ORDER_WARNING) for w in caught)
        return Outcome(graph=g, result=result, order_warnings=warned)

    def check(self, inst, outcome):
        """Compare one outcome with the dense oracle and the planted labels."""
        g, res = outcome.graph, outcome.result
        values = np.array([p.value for p in res.eigenpairs])
        labels = res.labels.labels
        if values.size != self.k or labels.shape != inst.truth.shape:
            raise ValueError(f"malformed result: {values.size} eigenpairs, "
                             f"labels of shape {labels.shape}")
        if self.method == "GM":
            a, b = graphs.shifted_pair(g, graphs.ShiftConfig())
            dense = densela.dense_geometric_mean(a.to_dense(), b.to_dense())
        else:
            dense = graphs.signed_laplacian(g, self.method).to_dense()
        w, v = densela.dense_sym_eig(dense)
        return Check(
            eig_rel_err=np.abs(values - w[:self.k]) / np.abs(w[:self.k]),
            angle=densela.subspace_angle(res.embedding, v[:, :self.k]),
            resid_max=max(p.residual for p in res.eigenpairs),
            clustering_error=cluster.clustering_error(labels, inst.truth),
        )


# -- gm-two-cluster --------------------------------------------------------

TWO_CLUSTER_N = 80
TWO_CLUSTER_DEGREE = 50


def _two_cluster(seed):
    g, params = sbm.two_cluster_benchmark_graph(TWO_CLUSTER_N, TWO_CLUSTER_DEGREE, seed)
    return Instance(truth=np.repeat(np.arange(2), params.cluster_size), graph=g)


# -- sn-knn-mixture --------------------------------------------------------

# Unequal blob sizes keep the four smallest eigenvalues of SN apart.  With
# equal blobs they nearly coincide, and the number of inverse-iteration steps
# then varies two- to threefold between seeds, too much for a run's median to
# repeat within the benchmark's bounds.
MIXTURE_SIZES = (16, 32, 48, 64)
MIXTURE_DIM = 10
MIXTURE_SEPARATION = 4.0
MIXTURE_NEIGHBORS = 10


def _mixture(seed):
    rng = np.random.default_rng(seed)
    truth = np.repeat(np.arange(len(MIXTURE_SIZES)), MIXTURE_SIZES)
    centers = MIXTURE_SEPARATION * np.eye(len(MIXTURE_SIZES), MIXTURE_DIM)
    points = centers[truth] + rng.standard_normal((truth.size, MIXTURE_DIM))
    return Instance(truth=truth, points=points)


WORKLOADS = {
    w.name: w
    for w in (
        # GM on two perfect clusters: few outer steps, so the IC(0)-
        # preconditioned inner solves of the pencil dominate the call.
        Workload("gm-two-cluster", method="GM", k=2, instances=6, make=_two_cluster),
        # SN on the kNN/kFN graphs of a point cloud: the same pcg/precond
        # layers on one explicit matrix, and the only neighbour-graph build.
        Workload("sn-knn-mixture", method="SN", k=4, instances=9, make=_mixture),
    )
}
