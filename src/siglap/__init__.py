"""Spectral clustering of signed graphs with the geometric mean of Laplacians.

The package splits into a small stack of layers:

* :mod:`siglap.csr`, :mod:`siglap.pcg`, :mod:`siglap.precond`,
  :mod:`siglap.densela` -- sparse/dense linear algebra primitives;
* :mod:`siglap.graphs` -- signed graphs and their Laplacian operators;
* :mod:`siglap.geomean` -- matrix-free eigensolver for the geometric mean of
  an SPD pair (extended Krylov inverse square root + Lanczos);
* :mod:`siglap.sbm` -- signed stochastic block model, expected spectra, and
  the eigenvalue-ordering condition calculus;
* :mod:`siglap.cluster` -- embeddings, k-means, error metrics, neighborhood
  graphs;
* :mod:`siglap.cli` -- command-line front end (``siglap`` entry point).
"""

from .cluster import (ClusterLabels, clustering_error, kfn_neg_graph, kmeans,
                      knn_pos_graph, smallest_eigenpairs, spectral_cluster)
from .csr import SparseSymMatrix
from .densela import (dense_geometric_mean, dense_inv_sqrt, dense_sym_eig,
                      ORACLE_CAP)
from .errors import ConvergenceError, EdgeListParseError, IndefiniteOperatorError
from .geomean import (EigenPair, PencilOperator, a_orthonormalize,
                      apply_geometric_mean, eksm_apply_inv_sqrt,
                      matrix_smallest_k_eigenpairs, smallest_k_eigenpairs)
from .graphs import (KernelBasis, ShiftConfig, SignedGraph, laplacian,
                     load_edge_list, pencil_kernels, shifted_pair,
                     signed_laplacian, signless_laplacian)
from .pcg import pcg_solve
from .precond import IcPreconditioner, incomplete_cholesky
from .sbm import (SbmParams, conditions, corollary_bound, expected_graph,
                  expected_spectrum, indicator_basis, region_fractions, sample,
                  two_cluster_benchmark_graph)

__version__ = "0.1.0"

__all__ = [
    "ClusterLabels", "ConvergenceError", "EdgeListParseError", "EigenPair",
    "IcPreconditioner", "IndefiniteOperatorError", "KernelBasis", "ORACLE_CAP",
    "PencilOperator", "SbmParams", "ShiftConfig", "SignedGraph",
    "SparseSymMatrix", "a_orthonormalize", "apply_geometric_mean",
    "clustering_error", "conditions", "corollary_bound",
    "dense_geometric_mean", "dense_inv_sqrt", "dense_sym_eig",
    "eksm_apply_inv_sqrt", "expected_graph", "expected_spectrum",
    "incomplete_cholesky", "indicator_basis", "kfn_neg_graph",
    "kmeans", "knn_pos_graph", "laplacian", "load_edge_list",
    "matrix_smallest_k_eigenpairs", "pcg_solve", "pencil_kernels",
    "region_fractions", "sample", "shifted_pair", "signed_laplacian",
    "signless_laplacian", "smallest_eigenpairs", "smallest_k_eigenpairs",
    "spectral_cluster", "two_cluster_benchmark_graph",
]
