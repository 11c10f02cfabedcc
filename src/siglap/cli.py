"""Command-line front end.

Subcommands
-----------
``sbm-region``   fractions of the block-model probability cube where the
                 eigenvalue-ordering conditions hold, on a discretized grid.
``sbm-cluster``  Monte-Carlo clustering error of the spectral methods on
                 sampled block-model graphs; each run's graph is sampled
                 once and clustered by every method.
``cluster``      cluster one signed graph, given as an edge list or as a
                 point cloud (nearest/farthest neighbor construction), and
                 write one ``metric,index,value`` CSV: a ``cluster_size``
                 row per cluster (0 for an empty one), the
                 ``majority_vote_error`` against ``--truth`` if given, and
                 a ``label`` row per vertex.
``bench``        timing of the smallest-eigenvector computation on
                 two-perfect-cluster graphs of growing size, through the
                 same method-to-operator map as ``cluster``
                 (:func:`siglap.cluster.smallest_eigenpairs`) but at its
                 default tolerance; a cell that runs out of memory or fails
                 numerically gets an ``NA`` row, and so does every method
                 at a size whose graph does not fit.

Each subcommand takes only the options it reads: ``--out`` everywhere,
``--seed`` wherever eigenvectors are computed (all but ``sbm-region``).  A
list takes each value once: a repeated method in ``--methods``, a repeated
``sbm-region --k`` or ``bench --n`` is a usage error.  No option sets a
tolerance or a shift: ``cluster`` and ``sbm-cluster`` accept each pair at
:data:`siglap.cluster.RESID_TOL`, ``bench`` at
:data:`siglap.geomean.DEFAULT_IPM_TOL`, and GM runs at
:class:`siglap.graphs.ShiftConfig`'s default shifts.

Each subcommand writes one CSV, to ``--out`` or else to stdout, and it
starts with a ``#``-prefixed JSON line holding the full run configuration;
rerunning with the same configuration reproduces the numeric columns byte
for byte (wall-clock columns excepted).  Exit codes: 0 on success, 1 on
numerical failure, 2 on usage or I/O errors, including input the library
rejects with a ``ValueError`` (too many clusters for the graph, a truth
file of the wrong length, a probability above 1, ...).
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from ._util import as_seed_sequence
from .cluster import (METHODS, clustering_error, kfn_neg_graph, knn_pos_graph,
                      load_labels, load_points, smallest_eigenpairs,
                      spectral_cluster)
from .errors import ConvergenceError, IndefiniteOperatorError
from .graphs import SignedGraph, load_edge_list
from .sbm import SbmParams, region_fractions, sample, two_cluster_benchmark_graph

NUMERIC_FAILURES = (ConvergenceError, IndefiniteOperatorError, np.linalg.LinAlgError)


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, config, header, rows):
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config(args, exclude=("func",)):
    return {k: v for k, v in vars(args).items() if k not in exclude}


def _add_out(parser):
    parser.add_argument("--out", type=str, default=None,
                        help="output CSV path (default: stdout)")


def _add_solver(parser):
    """Options of the commands that compute eigenvectors."""
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    _add_out(parser)


def _sbm_params(args):
    return SbmParams(k=args.k, cluster_size=args.cluster_size,
                     p_in_plus=args.p_in_plus, p_out_plus=args.p_out_plus,
                     p_in_minus=args.p_in_minus, p_out_minus=args.p_out_minus)


def cmd_sbm_region(args):
    if len(set(args.k)) < len(args.k):
        raise UsageError("--k values must not repeat")
    rows = [(k, args.steps, conditioning, target, res.fraction, res.denominator)
            for k in args.k
            for (conditioning, target), res in region_fractions(k, args.steps).items()]
    _write_csv(args.out, _config(args),
               ("k", "steps", "conditioning", "target", "fraction",
                "denominator_count"), rows)
    return 0


def cmd_sbm_cluster(args):
    params = _sbm_params(args)
    truth = np.repeat(np.arange(params.k), params.cluster_size)
    # each run's graph is sampled once and clustered by every method; the
    # rows are kept per method, so the CSV stays method-major
    rows = [[] for _ in args.methods]
    for r, run_seed in enumerate(as_seed_sequence(args.seed).spawn(args.runs)):
        graph_seed, cluster_seed = run_seed.spawn(2)
        g = sample(params, graph_seed)
        for method, method_rows in zip(args.methods, rows):
            start = time.perf_counter()
            try:
                res = spectral_cluster(g, params.k, method=method,
                                       seed=cluster_seed)
            except NUMERIC_FAILURES as exc:
                method_rows.append((method, r, args.seed, "NA", "NA",
                                    f"failed: {type(exc).__name__}"))
                continue
            seconds = time.perf_counter() - start
            method_rows.append((method, r, args.seed,
                                clustering_error(res.labels, truth), seconds, "ok"))
        del g  # so the next run's graph is not sampled while this one lives
    table = []
    for method, method_rows in zip(args.methods, rows):
        errors = [row[3] for row in method_rows if row[5] == "ok"]
        median = statistics.median(errors) if errors else "NA"
        table += method_rows + [(method, "median", args.seed, median, "", "")]
    _write_csv(args.out, _config(args),
               ("method", "run", "seed", "error", "seconds", "status"), table)
    return 0


def cmd_cluster(args):
    if (args.edges is None) == (args.points is None):
        raise UsageError("give exactly one of --edges or --points")
    if args.edges is not None:
        g = load_edge_list(args.edges)
    else:
        pts = load_points(args.points)
        g = SignedGraph(w_plus=knn_pos_graph(pts, args.k_plus),
                        w_minus=kfn_neg_graph(pts, args.k_minus))
    truth = None
    if args.truth is not None:
        truth = load_labels(args.truth)
        if truth.labels.shape != (g.n,):
            raise ValueError(f"--truth and the graph differ in length "
                             f"({truth.labels.size} labels, {g.n} vertices)")
    res = spectral_cluster(g, args.k, method=args.method, seed=args.seed)
    rows = [("cluster_size", c, s) for c, s in enumerate(res.labels.sizes().tolist())]
    if truth is not None:
        rows.append(("majority_vote_error", "", clustering_error(res.labels, truth)))
    rows += [("label", v, c) for v, c in enumerate(res.labels.labels.tolist())]
    _write_csv(args.out, _config(args), ("metric", "index", "value"), rows)
    return 0


def _time_smallest_eigenvector(g, method):
    start = time.perf_counter()
    pair = smallest_eigenpairs(g, 1, method)[0]
    return time.perf_counter() - start, pair.iterations


def cmd_bench(args):
    if any(a >= b for a, b in zip(args.n, args.n[1:])):
        raise UsageError("--n values must be ascending")
    rows = []
    for n in args.n:
        try:
            g, _ = two_cluster_benchmark_graph(n, args.avg_degree, seed=args.seed)
        except MemoryError:  # the smaller sizes' rows are kept
            rows += [(n, method, "NA", "NA") for method in args.methods]
            continue
        for method in args.methods:
            try:
                samples = [_time_smallest_eigenvector(g, method)
                           for _ in range(args.repetitions)]
                med = statistics.median(s for s, _ in samples)
                rows.append((n, method, med, samples[0][1]))
            except (MemoryError, *NUMERIC_FAILURES):
                rows.append((n, method, "NA", "NA"))
    _write_csv(args.out, _config(args),
               ("n", "method", "median_seconds", "iterations"), rows)
    return 0


class UsageError(Exception):
    pass


def _method(text):
    method = text.strip().upper()
    if method not in METHODS:
        raise argparse.ArgumentTypeError(
            f"unknown method {method!r}, expected one of {','.join(METHODS)}")
    return method


def _methods_list(text):
    methods = tuple(_method(m) for m in text.split(","))
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise argparse.ArgumentTypeError(f"method {method!r} given twice")
    return methods


def _positive_int(minimum):
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="siglap",
        description="Spectral clustering of signed graphs with the geometric "
                    "mean of Laplacians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sbm-region",
                       help="condition-region fractions on a probability grid")
    p.add_argument("--k", type=_positive_int(2), action="append", required=True,
                   help="cluster count; repeat for several")
    p.add_argument("--steps", type=_positive_int(2), default=100,
                   help="grid points per parameter axis (cell centers)")
    _add_out(p)
    p.set_defaults(func=cmd_sbm_region)

    p = sub.add_parser("sbm-cluster",
                       help="median clustering error on sampled block models")
    p.add_argument("--k", type=_positive_int(2), required=True)
    p.add_argument("--cluster-size", type=_positive_int(1), required=True)
    p.add_argument("--p-in-plus", type=float, required=True)
    p.add_argument("--p-out-plus", type=float, required=True)
    p.add_argument("--p-in-minus", type=float, required=True)
    p.add_argument("--p-out-minus", type=float, required=True)
    p.add_argument("--methods", type=_methods_list, default=METHODS,
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--runs", type=_positive_int(1), default=50,
                   help="sampled graphs, each clustered by every method")
    _add_solver(p)
    p.set_defaults(func=cmd_sbm_cluster)

    p = sub.add_parser("cluster", help="cluster one signed graph")
    p.add_argument("--edges", type=str, default=None,
                   help="edge list: 'i j w' per line, sign routes the edge")
    p.add_argument("--points", type=str, default=None,
                   help="numeric point matrix; neighbor graphs are built from it")
    p.add_argument("--k-plus", type=_positive_int(1), default=10,
                   help="nearest neighbors for the positive graph (points input)")
    p.add_argument("--k-minus", type=_positive_int(1), default=10,
                   help="farthest neighbors for the negative graph (points input)")
    p.add_argument("--method", type=_method, default="GM",
                   help=f"one of {','.join(METHODS)}")
    p.add_argument("--k", type=_positive_int(2), required=True,
                   help="number of clusters")
    p.add_argument("--truth", type=str, default=None,
                   help="ground-truth labels file, one integer per row")
    _add_solver(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "bench",
        help="time the smallest-eigenvector computation on two-perfect-cluster "
             "graphs (edge probabilities chosen for a target average degree "
             "rather than a fixed edge percentage, which would be infeasible "
             "at large n)",
    )
    p.add_argument("--n", type=_positive_int(2), action="append", required=True,
                   help="graph size; repeat for several, ascending")
    p.add_argument("--avg-degree", type=float, default=50.0,
                   help="expected vertex degree, half positive, half negative")
    p.add_argument("--methods", type=_methods_list, default=("SN", "GM"),
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--repetitions", type=_positive_int(1), default=10,
                   help="timed solves per cell; the median is reported")
    _add_solver(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError is a ValueError, so numerical failures are caught first
    except NUMERIC_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    # input too large to allocate, such as a huge vertex index or point
    # count, is an input error too
    except (UsageError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
