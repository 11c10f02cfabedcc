"""Tests of the benchmark harness itself, on tiny inputs.

Run from the repository root: ``python3 -m pytest -q siglapbench/tests``.
"""

import json

import numpy as np
import pytest

import layers
import run
import spans
import workloads
from siglap import cluster, csr, geomean, precond, sbm
from siglap.errors import ConvergenceError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def tiny_two_cluster():
    g, params = sbm.two_cluster_benchmark_graph(20, 8, seed=3)
    return workloads.Instance(truth=np.repeat(np.arange(2), params.cluster_size), graph=g)


GM_TINY = workloads.Workload("gm-tiny", method="GM", k=2, instances=1,
                             make=lambda seed: tiny_two_cluster())


class TestSelfTime:
    def test_self_time_is_span_minus_direct_children(self):
        clock = FakeClock()
        t = spans.Tracer(clock=clock)
        root = t.open("bench.call", "bench")        # 0 .. 10
        clock.now = 1.0
        a = t.open("outer", "geomean")              # 1 .. 8
        clock.now = 2.0
        b = t.open("inner", "pcg")                  # 2 .. 5
        clock.now = 3.0
        c = t.open("leaf", "precond")               # 3 .. 4
        clock.now = 4.0
        t.close(c)
        clock.now = 5.0
        t.close(b)
        clock.now = 6.0
        d = t.open("leaf", "precond")               # 6 .. 7.5
        clock.now = 7.5
        t.close(d)
        clock.now = 8.0
        t.close(a)
        clock.now = 10.0
        t.close(root)
        outside = t.open("sample", "sbm")           # 10 .. 12, not under the call
        clock.now = 12.0
        t.close(outside)

        assert t.self_times() == [3.0, 2.5, 2.0, 1.0, 1.5, 2.0]
        under = t.layer_self_seconds(under="bench.call")
        assert under == {"bench": 3.0, "geomean": 2.5, "pcg": 2.0, "precond": 2.5}
        assert sum(under.values()) == t.total_seconds("bench.call")
        assert t.layer_self_seconds()["sbm"] == 2.0
        assert t.total_seconds("leaf") == 2.5

    def test_out_of_order_close_rejected(self):
        t = spans.Tracer()
        outer = t.open("a", "x")
        t.open("b", "x")
        with pytest.raises(RuntimeError):
            t.close(outer)


class TestProbes:
    def test_restore_puts_every_original_back(self):
        probed = [
            (sbm, "sample"), (cluster, "knn_pos_graph"), (cluster, "kfn_neg_graph"),
            (cluster, "kmeans"), (cluster, "shifted_pair"), (cluster, "signed_laplacian"),
            (cluster, "smallest_k_eigenpairs"), (cluster, "matrix_smallest_k_eigenpairs"),
            (geomean, "eksm_apply_inv_sqrt"), (geomean, "incomplete_cholesky"),
            (geomean, "pcg_solve"),
        ]
        methods = [(precond.IcPreconditioner, "solve"), (geomean.PencilOperator, "solve_a"),
                   (geomean.PencilOperator, "solve_b"), (csr.SparseSymMatrix, "matvec")]
        before = [getattr(o, a) for o, a in probed] + [o.__dict__[a] for o, a in methods]
        t = spans.Tracer()
        layers.install(t)
        during = [getattr(o, a) for o, a in probed] + [o.__dict__[a] for o, a in methods]
        t.restore()
        after = [getattr(o, a) for o, a in probed] + [o.__dict__[a] for o, a in methods]
        assert all(x is not y for x, y in zip(before, during))
        assert all(x is y for x, y in zip(before, after))

    def test_traced_call_that_fails_restores_the_originals(self):
        wl = FlakyWorkload()
        plain, traced = run.measure(wl, [None], seconds=0.0,
                                    failures=workloads.FAILURES, tracer=spans.Tracer())
        assert [c.error for c in plain + traced] == ["ConvergenceError"] * 2
        assert not hasattr(cluster.kmeans, "__wrapped__")
        assert not hasattr(geomean.pcg_solve, "__wrapped__")

    def test_gm_call_reaches_every_gm_layer(self):
        inst = tiny_two_cluster()
        t = spans.Tracer()
        layers.install(t)
        try:
            root = t.open(layers.CALL, "bench")
            GM_TINY.solve(inst)
            t.close(root)
        finally:
            t.restore()
        m = layers.metrics(t, calls=1, inputs=1)
        for name in ("precond.apply_calls", "pcg.solves", "pcg.iters_a", "pcg.iters_b",
                     "geomean.eksm_calls", "geomean.eksm_steps", "geomean.outer_steps",
                     "csr.matvec_calls"):
            assert m[name][0] > 0, name
        assert m["pcg.iters_m"][0] == 0
        assert m["precond.factor_s"][0] > 0
        selfs = sum(m[f"{layer}.self_s"][0] for layer in layers.LAYERS)
        assert selfs + m["trace.unattributed_s"][0] == pytest.approx(m["trace.cluster_s"][0])

    def test_explicit_path_counts_matrix_iterations(self):
        rng = np.random.default_rng(0)
        truth = np.repeat(np.arange(2), 10)
        points = 6.0 * np.eye(2, 3)[truth] + rng.standard_normal((20, 3))
        wl = workloads.Workload("sn-tiny", method="SN", k=2, instances=1, make=None)
        t = spans.Tracer()
        layers.install(t)
        try:
            out = wl.solve(workloads.Instance(truth=truth, points=points))
        finally:
            t.restore()
        assert t.counts["pcg.iters_m"] > 0
        assert t.counts["pcg.iters_a"] == t.counts["pcg.iters_b"] == 0
        assert t.total_seconds("cluster.neighbor_graph") > 0
        assert out.result.labels.n == 20


class FlakyWorkload:
    """Raises ConvergenceError on input 0, solves the rest for real."""

    k = 2

    def __init__(self):
        self.calls = 0

    def solve(self, inst):
        self.calls += 1
        if inst is None:
            raise ConvergenceError("injected")
        return GM_TINY.solve(inst)

    def check(self, inst, outcome):
        return GM_TINY.check(inst, outcome)


class TestFailures:
    def test_injected_convergence_error_is_counted_not_fatal(self):
        wl = FlakyWorkload()
        inputs = [None, tiny_two_cluster()]
        plain, traced = run.measure(wl, inputs, seconds=0.0,
                                    failures=workloads.FAILURES)
        assert traced == []
        assert [c.error for c in plain] == ["ConvergenceError", ""]
        assert wl.calls == 2
        correct, checks = run.verify(wl, inputs, plain)
        assert correct and len(checks) == 1
        q = run.quality_metrics(wl, checks, plain)
        assert q["failed_frac"][0] == 0.5
        assert run.median_seconds(plain) == plain[1].seconds

    def test_other_exceptions_propagate(self):
        class Broken:
            def solve(self, inst):
                raise KeyError("bug")

        with pytest.raises(KeyError):
            run.measure(Broken(), [None], seconds=0.0, failures=workloads.FAILURES)


class TestChecks:
    def test_oracle_check_on_a_tiny_gm_solve(self):
        inst = tiny_two_cluster()
        check = GM_TINY.check(inst, GM_TINY.solve(inst))
        assert check.correct
        assert check.angle < workloads.ANGLE_TOL
        assert check.clustering_error == 0.0

    def test_inaccurate_subspace_fails_every_pair_but_stays_correct(self):
        check = workloads.Check(eig_rel_err=np.zeros(3), angle=0.03, resid_max=0.0,
                                clustering_error=0.0)
        assert check.failed_pairs == 3 and check.correct

    def test_wrong_subspace_is_incorrect(self):
        check = workloads.Check(eig_rel_err=np.zeros(3), angle=1.2, resid_max=0.0,
                                clustering_error=0.0)
        assert check.failed_pairs == 3 and not check.correct

    def test_eigenvalue_error_fails_its_pair_only(self):
        check = workloads.Check(eig_rel_err=np.array([1e-9, 2e-6]), angle=1e-4,
                                resid_max=0.0, clustering_error=0.0)
        assert check.failed_pairs == 1 and check.correct

    def test_inputs_depend_only_on_the_seed(self):
        wl = workloads.WORKLOADS["sn-knn-mixture"]
        a, b, c = wl.inputs(5), wl.inputs(5), wl.inputs(6)
        assert len(a) == wl.instances
        assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
        assert not np.array_equal(a[0].points, c[0].points)


class TestRun:
    @pytest.mark.parametrize("trace", [0, 1])
    def test_result_carries_exactly_the_declared_metrics(self, monkeypatch, trace):
        monkeypatch.setitem(workloads.WORKLOADS, "gm-tiny", GM_TINY)
        monkeypatch.setattr(run, "SETUP_REPEATS", 1)
        args = run.parse_args(["--workload", "gm-tiny", "--seed", "1",
                               "--seconds", "0", "--trace", str(trace)])
        env, result, report = run.run(args)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
        kind = "per_layer" if trace else "end_to_end"
        assert set(result["metrics"]) == {m["name"] for m in declared[kind]}
        for m in declared[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert {"numpy", "scipy", "numba_importable", "nproc", "blas_threads",
                "seed"} <= set(env)
