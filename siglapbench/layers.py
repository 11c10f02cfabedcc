"""Where each siglap layer is probed, and the per-layer metrics read off a trace.

Every probe replaces a name where its caller looks it up: ``spectral_cluster``
calls the names bound in ``siglap.cluster``; ``PencilOperator`` and
``matrix_smallest_k_eigenpairs`` call ``pcg_solve`` and
``incomplete_cholesky`` as bound in ``siglap.geomean``; class methods are
looked up on the class by every caller.  The dense oracle (``densela``) is
never probed: it only verifies results, outside every timed call.
"""

import collections

from siglap import cluster, csr, geomean, precond, sbm

CALL = "bench.call"  # root span the benchmark opens around each timed call
LAYERS = ("cluster", "graphs", "csr", "precond", "pcg", "geomean")

_PCG_SIDE = {"pcg.solve_a": "pcg.iters_a", "pcg.solve_b": "pcg.iters_b"}


def _pcg_iterations(tracer, args, result):
    # the innermost open span is the caller: PencilOperator.solve_a/solve_b
    # for the GM pencil, anything else for one explicit matrix
    tracer.counts[_PCG_SIDE.get(tracer.current_name(), "pcg.iters_m")] += result[1]


def _matvec_bytes(tracer, args, result):
    m = args[0]
    # 8-byte values + 4-byte indices per nonzero, read x and write y: computed,
    # not measured, and blind to cache reuse
    tracer.counts["csr.matvec_bytes_computed"] += 12 * m.nnz + 16 * m.n


def _fallback(tracer, args, result):
    if result.kind == "diagonal":
        tracer.counts["precond.fallback_count"] += 1


def _eksm_steps(tracer, args, result):
    tracer.counts["geomean.eksm_steps"] += result.s


def _outer_steps(tracer, args, result):
    tracer.counts["geomean.outer_steps"] += sum(p.iterations for p in result)


def install(tracer):
    """Wrap every probed name; ``tracer.restore()`` undoes it."""
    tracer.wrap(sbm, "sample", "sbm")
    tracer.wrap(cluster, "knn_pos_graph", "cluster", name="cluster.neighbor_graph")
    tracer.wrap(cluster, "kfn_neg_graph", "cluster", name="cluster.neighbor_graph")
    tracer.wrap(cluster, "kmeans", "cluster")
    tracer.wrap(cluster, "shifted_pair", "graphs", name="graphs.operator_build")
    tracer.wrap(cluster, "signed_laplacian", "graphs", name="graphs.operator_build")
    tracer.wrap(cluster, "smallest_k_eigenpairs", "geomean", name="geomean.eig",
                after=_outer_steps)
    tracer.wrap(cluster, "matrix_smallest_k_eigenpairs", "geomean",
                name="geomean.eig", after=_outer_steps)
    tracer.wrap(geomean, "eksm_apply_inv_sqrt", "geomean", name="geomean.eksm",
                after=_eksm_steps)
    tracer.wrap(geomean, "incomplete_cholesky", "precond", name="precond.factor",
                after=_fallback)
    tracer.wrap(precond.IcPreconditioner, "solve", "precond", name="precond.apply")
    tracer.wrap(geomean.PencilOperator, "solve_a", "pcg")
    tracer.wrap(geomean.PencilOperator, "solve_b", "pcg")
    tracer.wrap(geomean, "pcg_solve", "pcg", name="pcg.solve", after=_pcg_iterations)
    tracer.wrap(csr.SparseSymMatrix, "matvec", "csr", after=_matvec_bytes)


def metrics(tracer, calls, inputs):
    """Per-layer metrics, per traced call (``sbm.sample_s`` per generated input).

    The ``*.self_s`` values and ``trace.unattributed_s`` (self time of the
    benchmark's own call span) add up to ``trace.cluster_s``.
    """
    spans = collections.Counter(s.name for s in tracer.spans)
    selfs = collections.defaultdict(float, tracer.layer_self_seconds(under=CALL))
    counts = tracer.counts

    def per_call(value):
        return value / calls

    out = {
        "sbm.sample_s": (tracer.total_seconds("sbm.sample") / inputs, "s"),
        "cluster.neighbor_graph_s": (per_call(tracer.total_seconds("cluster.neighbor_graph")), "s"),
        "cluster.kmeans_s": (per_call(tracer.total_seconds("cluster.kmeans")), "s"),
        "graphs.operator_build_s": (per_call(tracer.total_seconds("graphs.operator_build")), "s"),
        "csr.matvec_calls": (per_call(spans["csr.matvec"]), "count"),
        "csr.matvec_s": (per_call(tracer.total_seconds("csr.matvec")), "s"),
        "csr.matvec_bytes_computed": (per_call(counts["csr.matvec_bytes_computed"]), "bytes"),
        "precond.factor_s": (per_call(tracer.total_seconds("precond.factor")), "s"),
        "precond.apply_s": (per_call(tracer.total_seconds("precond.apply")), "s"),
        "precond.apply_calls": (per_call(spans["precond.apply"]), "count"),
        "precond.fallback_count": (per_call(counts["precond.fallback_count"]), "count"),
        "pcg.solves": (per_call(spans["pcg.solve"]), "count"),
        "pcg.iters_a": (per_call(counts["pcg.iters_a"]), "count"),
        "pcg.iters_b": (per_call(counts["pcg.iters_b"]), "count"),
        "pcg.iters_m": (per_call(counts["pcg.iters_m"]), "count"),
        "geomean.eksm_calls": (per_call(spans["geomean.eksm"]), "count"),
        "geomean.eksm_steps": (per_call(counts["geomean.eksm_steps"]), "count"),
        "geomean.outer_steps": (per_call(counts["geomean.outer_steps"]), "count"),
        "geomean.eig_s": (per_call(tracer.total_seconds("geomean.eig")), "s"),
        "geomean.order_warnings": (per_call(counts["geomean.order_warnings"]), "count"),
        "trace.cluster_s": (per_call(tracer.total_seconds(CALL)), "s"),
        "trace.unattributed_s": (per_call(selfs["bench"]), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_call(selfs[layer]), "s")
    return out
