import json
import warnings

import numpy as np
import pytest

import siglap.cli
from siglap import ClusterLabels, load_edge_list, spectral_cluster
from siglap.cli import main
from siglap.errors import ConvergenceError
from siglap.sbm import CONDITIONINGS, TARGETS, region_fractions, sample


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# ")
    config = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows


class TestSbmRegion:
    def test_matches_library_fractions(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["sbm-region", "--k", "3", "--steps", "10", "--out", str(out)])
        assert code == 0
        config, header, rows = read_csv(out)
        assert config["steps"] == 10
        assert header == ["k", "steps", "conditioning", "target", "fraction",
                          "denominator_count"]
        assert [r[2:4] for r in rows] == [
            [c, t] for c in CONDITIONINGS for t in TARGETS]
        row = next(r for r in rows
                   if r[2:4] == ["e_plus_and_e_minus", "e_bal_and_e_vol"])
        expect = region_fractions(3, 10)[("e_plus_and_e_minus", "e_bal_and_e_vol")]
        assert float(row[4]) == expect.fraction
        assert int(row[5]) == expect.denominator

    def test_informative_conditioning_fraction_is_one(self, tmp_path):
        out = tmp_path / "region.csv"
        main(["sbm-region", "--k", "2", "--k", "4", "--steps", "8",
              "--out", str(out)])
        _, _, rows = read_csv(out)
        rows = [r for r in rows if r[2:4] == ["e_plus_and_e_minus", "e_g"]]
        assert [r[0] for r in rows] == ["2", "4"]
        assert all(float(r[4]) == 1.0 for r in rows)

    def test_config_line_holds_only_its_own_keys(self, capsys):
        main(["sbm-region", "--k", "2", "--steps", "4"])
        config = json.loads(capsys.readouterr().out.split("\n")[0][2:])
        assert set(config) == {"command", "k", "steps", "out"}

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_fewer_than_two_clusters_is_usage_error(self, k):
        with pytest.raises(SystemExit) as exc:
            main(["sbm-region", "--k", k, "--steps", "4"])
        assert exc.value.code == 2

    def test_invalid_steps_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sbm-region", "--k", "2", "--steps", "1"])
        assert exc.value.code == 2


class TestSbmCluster:
    def test_perfectly_balanced_errors_are_zero(self, tmp_path):
        out = tmp_path / "runs.csv"
        code = main(["sbm-cluster", "--k", "2", "--cluster-size", "20",
                     "--p-in-plus", "1.0", "--p-out-plus", "0.0",
                     "--p-in-minus", "0.0", "--p-out-minus", "1.0",
                     "--methods", "GM", "--runs", "3", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        data = [r for r in rows if r[1] != "median"]
        assert len(data) == 3
        assert all(float(r[3]) == 0.0 for r in data)
        median = [r for r in rows if r[1] == "median"][0]
        assert float(median[3]) == 0.0

    def test_methods_cluster_the_same_graphs(self, tmp_path):
        # a method's rows do not depend on which other methods run
        def gm_errors(methods):
            out = tmp_path / f"{methods}.csv"
            code = main(["sbm-cluster", "--k", "3", "--cluster-size", "15",
                         "--p-in-plus", "0.4", "--p-out-plus", "0.25",
                         "--p-in-minus", "0.25", "--p-out-minus", "0.4",
                         "--runs", "2", "--seed", "9", "--methods", methods,
                         "--out", str(out)])
            assert code == 0
            _, _, rows = read_csv(out)
            return [(r[1], r[3]) for r in rows if r[0] == "GM"]

        assert gm_errors("GM") == gm_errors("SN,GM")

    def test_each_run_is_sampled_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_sample(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(siglap.cli, "sample", counting_sample)
        assert main(["sbm-cluster", *SBM_ARGS, "--methods", "GM,AM,SN",
                     "--runs", "3", "--out", str(tmp_path / "runs.csv")]) == 0
        assert len(calls) == 3

    def test_rows_are_pinned(self, tmp_path):
        # the rows as written when each (method, run) sampled its own graph,
        # the seconds column left out
        out = tmp_path / "runs.csv"
        assert main(["sbm-cluster", "--k", "3", "--cluster-size", "15",
                     "--p-in-plus", "0.4", "--p-out-plus", "0.25",
                     "--p-in-minus", "0.25", "--p-out-minus", "0.4",
                     "--runs", "2", "--seed", "9", "--methods", "GM,BN",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [r[:4] + r[5:] for r in rows] == [
            ["GM", "0", "9", "0.28888888888888886", "ok"],
            ["GM", "1", "9", "0.46666666666666667", "ok"],
            ["GM", "median", "9", "0.37777777777777777", ""],
            ["BN", "0", "9", "0.42222222222222222", "ok"],
            ["BN", "1", "9", "0.35555555555555557", "ok"],
            ["BN", "median", "9", "0.3888888888888889", ""],
        ]


    def test_failed_method_writes_na_rows(self, tmp_path, monkeypatch):
        # GM fails on every run; BN's rows are those of the pinned run
        def gm_fails(g, k, method, **kwargs):
            if method == "GM":
                raise ConvergenceError("no convergence")
            return spectral_cluster(g, k, method=method, **kwargs)

        monkeypatch.setattr(siglap.cli, "spectral_cluster", gm_fails)
        out = tmp_path / "runs.csv"
        assert main(["sbm-cluster", "--k", "3", "--cluster-size", "15",
                     "--p-in-plus", "0.4", "--p-out-plus", "0.25",
                     "--p-in-minus", "0.25", "--p-out-minus", "0.4",
                     "--runs", "2", "--seed", "9", "--methods", "GM,BN",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[:3] == [
            ["GM", "0", "9", "NA", "NA", "failed: ConvergenceError"],
            ["GM", "1", "9", "NA", "NA", "failed: ConvergenceError"],
            ["GM", "median", "9", "NA", "", ""],
        ]
        assert [r[:4] + r[5:] for r in rows[3:]] == [
            ["BN", "0", "9", "0.42222222222222222", "ok"],
            ["BN", "1", "9", "0.35555555555555557", "ok"],
            ["BN", "median", "9", "0.3888888888888889", ""],
        ]


class TestClusterCommand:
    def write_two_cliques(self, tmp_path):
        lines = []
        for base in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    lines.append(f"{base + i} {base + j} 1.0")
        for i in range(4):
            for j in range(4, 8):
                lines.append(f"{i} {j} -1.0")
        path = tmp_path / "edges.txt"
        path.write_text("\n".join(lines) + "\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("\n".join(["0"] * 4 + ["1"] * 4) + "\n")
        return path, truth

    def test_edge_list_clustering(self, tmp_path):
        edges, truth = self.write_two_cliques(tmp_path)
        out = tmp_path / "metrics.csv"
        code = main(["cluster", "--edges", str(edges), "--truth", str(truth),
                     "--k", "2", "--method", "GM", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["metric", "index", "value"]
        assert [r[:2] for r in rows[:3]] == [
            ["cluster_size", "0"], ["cluster_size", "1"], ["majority_vote_error", ""]]
        assert sorted(int(r[2]) for r in rows[:2]) == [4, 4]
        assert float(rows[2][2]) == 0.0
        # one label row per vertex, in vertex order: the library's labels
        assert [r[:2] for r in rows[3:]] == [["label", str(v)] for v in range(8)]
        res = spectral_cluster(load_edge_list(edges), 2, "GM", seed=3)
        assert [int(r[2]) for r in rows[3:]] == res.labels.labels.tolist()

    def test_point_cloud_clustering(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 0.2, (20, 2)), rng.normal(5, 0.2, (20, 2))])
        pfile = tmp_path / "points.txt"
        np.savetxt(pfile, pts)
        truth = tmp_path / "truth.txt"
        truth.write_text("\n".join(["0"] * 20 + ["1"] * 20) + "\n")
        out = tmp_path / "metrics.csv"
        code = main(["cluster", "--points", str(pfile), "--k-plus", "5",
                     "--k-minus", "5", "--k", "2", "--truth", str(truth),
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        err_row = [r for r in rows if r[0] == "majority_vote_error"][0]
        assert float(err_row[2]) <= 0.1
        assert len([r for r in rows if r[0] == "label"]) == 40

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_point_cloud_in_any_unit(self, tmp_path, scale):
        # squared coordinates of 1e200 overflow, and of 1e-200 underflow to
        # zero
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 0.3, (15, 2)), rng.normal(4, 0.3, (15, 2))])
        points, truth, out = (tmp_path / "points.txt", tmp_path / "truth.txt",
                              tmp_path / "error.csv")
        np.savetxt(points, pts * scale)
        truth.write_text("\n".join(["0"] * 15 + ["1"] * 15) + "\n")
        code = main(["cluster", "--points", str(points), "--k", "2",
                     "--k-plus", "4", "--k-minus", "4", "--method", "GM",
                     "--truth", str(truth), "--out", str(out)])
        assert code == 0
        assert "majority_vote_error,,0\n" in out.read_text()

    def test_method_name_is_case_folded(self, tmp_path):
        # as --methods is for sbm-cluster and bench
        edges, _ = self.write_two_cliques(tmp_path)
        outputs = []
        for method in ("gm", "GM"):
            out = tmp_path / f"{method}.csv"
            code = main(["cluster", "--edges", str(edges), "--k", "2",
                         "--method", method, "--out", str(out)])
            assert code == 0
            config, _, rows = read_csv(out)
            assert config["method"] == "GM"
            outputs.append(rows)
        assert outputs[0] == outputs[1]
        assert len([r for r in outputs[0] if r[0] == "label"]) == 8

    def test_empty_cluster_is_a_zero_size_row(self, tmp_path, monkeypatch):
        edges, _ = self.write_two_cliques(tmp_path)
        real = siglap.cli.spectral_cluster

        def one_cluster(*args, **kwargs):
            res = real(*args, **kwargs)
            res.labels = ClusterLabels(np.zeros(8, dtype=np.int64), k=2)
            return res

        monkeypatch.setattr(siglap.cli, "spectral_cluster", one_cluster)
        out = tmp_path / "metrics.csv"
        assert main(["cluster", "--edges", str(edges), "--k", "2",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[:2] == [["cluster_size", "0", "8"], ["cluster_size", "1", "0"]]

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["cluster", "--edges", str(tmp_path / "nope.txt"), "--k", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_both_inputs_rejected(self, tmp_path, capsys):
        edges, _ = self.write_two_cliques(tmp_path)
        code = main(["cluster", "--edges", str(edges), "--points", str(edges),
                     "--k", "2"])
        assert code == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n")
        code = main(["cluster", "--edges", str(bad), "--k", "2"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_index_beyond_int64_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 99999999999999999999 -1\n")
        code = main(["cluster", "--edges", str(bad), "--k", "2"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_input_too_large_to_allocate(self, tmp_path, capsys):
        # n = 10**15 + 1 vertices: the first n-long array (8 PB) fails at
        # once, before anything is written
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1000000000000000 -1\n")
        code = main(["cluster", "--edges", str(bad), "--k", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBench:
    def test_single_row(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n", "200", "--avg-degree", "12",
                     "--methods", "SN", "--repetitions", "1",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["n", "method", "median_seconds", "iterations"]
        assert len(rows) == 1
        assert float(rows[0][2]) > 0.0

    @pytest.mark.parametrize("sizes", [["400", "200"], ["1000", "1000"]],
                             ids=["descending", "repeated"])
    def test_sizes_not_ascending_rejected(self, capsys, sizes):
        code = main(["bench", "--n", sizes[0], "--n", sizes[1],
                     "--repetitions", "1"])
        assert code == 2
        assert "must be ascending" in capsys.readouterr().err

    def test_numerical_failure_writes_na_row(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("injected")

        monkeypatch.setattr(siglap.cluster, "smallest_k_eigenpairs", fail)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n", "100", "--n", "200", "--avg-degree", "10",
                     "--methods", "SN,GM", "--repetitions", "1",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert [r[:2] for r in rows] == [["100", "SN"], ["100", "GM"],
                                         ["200", "SN"], ["200", "GM"]]
        for r in rows:
            if r[1] == "SN":
                assert float(r[2]) > 0.0
            else:
                assert r[2:] == ["NA", "NA"]

    def test_graph_out_of_memory_writes_na_rows(self, tmp_path, monkeypatch):
        build = siglap.cli.two_cluster_benchmark_graph

        def build_or_fail(n, *args, **kwargs):
            if n == 200:
                raise MemoryError
            return build(n, *args, **kwargs)

        monkeypatch.setattr(siglap.cli, "two_cluster_benchmark_graph",
                            build_or_fail)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n", "100", "--n", "200", "--avg-degree", "10",
                     "--methods", "SN,GM", "--repetitions", "1",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert [r[:2] for r in rows] == [["100", "SN"], ["100", "GM"],
                                         ["200", "SN"], ["200", "GM"]]
        assert all(float(r[2]) > 0.0 for r in rows[:2])
        assert [r[2:] for r in rows[2:]] == [["NA", "NA"], ["NA", "NA"]]

    def test_median_of_repetitions(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--n", "200", "--avg-degree", "10", "--methods", "SN",
              "--repetitions", "3", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert len(rows) == 1


class TestDeterminism:
    def test_rerun_reproduces_numeric_columns(self, tmp_path):
        argv = ["sbm-cluster", "--k", "2", "--cluster-size", "15",
                "--p-in-plus", "0.9", "--p-out-plus", "0.05",
                "--p-in-minus", "0.05", "--p-out-minus", "0.9",
                "--methods", "GM", "--runs", "2", "--seed", "11"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        _, _, rows1 = read_csv(out1)
        _, _, rows2 = read_csv(out2)
        strip = lambda rows: [r[:4] + r[5:] for r in rows]
        assert strip(rows1) == strip(rows2)


SBM_ARGS = ["--k", "2", "--cluster-size", "5", "--p-in-plus", "1.0",
            "--p-out-plus", "0.0", "--p-in-minus", "0.0", "--p-out-minus", "1.0"]
REQUIRED = {
    "sbm-region": ["--k", "2", "--steps", "4"],
    "sbm-cluster": SBM_ARGS,
    "cluster": ["--edges", "edges.txt", "--k", "2"],
    "bench": ["--n", "10"],
}


class TestStdout:
    @pytest.mark.parametrize("command, argv", [
        ("sbm-region", REQUIRED["sbm-region"]),
        ("sbm-cluster", [*SBM_ARGS, "--runs", "1", "--methods", "GM"]),
        ("cluster", ["--edges", "edges.txt", "--k", "2"]),
        ("cluster", ["--points", "points.txt", "--k", "2", "--k-plus", "3",
                     "--k-minus", "3"]),
        ("bench", ["--n", "20", "--avg-degree", "6", "--methods", "SN",
                   "--repetitions", "1"]),
    ], ids=["sbm-region", "sbm-cluster", "cluster-edges", "cluster-points",
            "bench"])
    def test_stdout_is_one_csv(self, tmp_path, monkeypatch, capsys, command,
                               argv):
        # without --out the CSV goes to stdout, config line first, and
        # nothing else does
        monkeypatch.chdir(tmp_path)
        (tmp_path / "edges.txt").write_text("0 1 1\n2 3 1\n0 2 -1\n1 3 -1\n")
        np.savetxt(tmp_path / "points.txt",
                   np.vstack([np.zeros((5, 2)), np.full((5, 2), 4.0)])
                   + np.arange(20.0).reshape(10, 2) * 1e-2)
        assert main([command, *argv]) == 0
        stdout = tmp_path / "stdout.csv"
        stdout.write_text(capsys.readouterr().out)
        config, header, rows = read_csv(stdout)
        assert config["command"] == command
        assert rows and all(len(r) == len(header) for r in rows)


class TestOptions:
    @pytest.mark.parametrize("command, option", [
        ("sbm-region", ["--seed", "1"]),
        ("sbm-region", ["--tol", "1e-6"]),
        ("sbm-region", ["--shift-eps1", "1e-3"]),
        ("sbm-region", ["--shift-eps2", "1e-3"]),
        ("sbm-region", ["--kmeans-restarts", "2"]),
        ("bench", ["--kmeans-restarts", "2"]),
        ("cluster", ["--tol", "1e-6"]),
        ("sbm-cluster", ["--tol", "1e-6"]),
        ("sbm-region", ["--threads", "2"]),
        ("sbm-cluster", ["--threads", "2"]),
        ("cluster", ["--threads", "2"]),
        ("bench", ["--threads", "2"]),
        ("sbm-region", ["--conditioning", "all"]),
        ("cluster", ["--labels-out", "labels.json"]),
        ("sbm-cluster", ["--kmeans-restarts", "2"]),
        ("cluster", ["--kmeans-restarts", "2"]),
        ("bench", ["--tol", "1e-6"]),
        ("sbm-cluster", ["--shift-eps1", "1e-3"]),
        ("sbm-cluster", ["--shift-eps2", "1e-3"]),
        ("cluster", ["--shift-eps1", "1e-3"]),
        ("cluster", ["--shift-eps2", "1e-3"]),
        ("bench", ["--shift-eps1", "1e-3"]),
        ("bench", ["--shift-eps2", "1e-3"]),
    ])
    def test_option_the_command_does_not_read_is_rejected(self, command, option,
                                                          capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, methods", [
        ("sbm-cluster", "GM,GM"), ("sbm-cluster", "SN,gm,BN,GM"),
        ("bench", "SN,SN")])
    def test_repeated_method_is_rejected(self, command, methods, capsys):
        # it would cluster or time every graph twice and repeat its rows
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], "--methods", methods])
        assert exc.value.code == 2
        repeated = methods.split(",")[-1]
        assert f"method {repeated!r} given twice" in capsys.readouterr().err


def write_clique(path, n):
    path.write_text("".join(f"{i} {j} 1.0\n" for i in range(n)
                            for j in range(i + 1, n)))
    return str(path)


class TestInputErrors:
    """Input the library rejects is a usage error: exit 2, no traceback."""

    def run(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        return err

    def test_more_clusters_than_vertices(self, tmp_path, capsys):
        edges = write_clique(tmp_path / "edges.txt", 4)
        err = self.run(["cluster", "--edges", edges, "--k", "9"], capsys)
        assert "k must be in [2, 4]" in err

    def test_truth_of_wrong_length(self, tmp_path, capsys):
        edges = write_clique(tmp_path / "edges.txt", 4)
        truth = tmp_path / "truth.txt"
        truth.write_text("0\n1\n0\n")
        err = self.run(["cluster", "--edges", edges, "--k", "2", "--truth",
                        str(truth)], capsys)
        assert "differ in length" in err

    def test_truth_checked_before_clustering(self, tmp_path, capsys,
                                            monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("clustered before checking --truth")

        monkeypatch.setattr(siglap.cli, "spectral_cluster", fail)
        edges = write_clique(tmp_path / "edges.txt", 4)
        truth = tmp_path / "truth.txt"
        truth.write_text("0\n1\n0\n")
        err = self.run(["cluster", "--edges", edges, "--k", "2", "--truth",
                        str(truth)], capsys)
        assert "differ in length" in err

    def test_too_few_points_for_the_neighbor_count(self, tmp_path, capsys):
        points = tmp_path / "points.txt"
        np.savetxt(points, np.arange(10.0).reshape(5, 2))
        err = self.run(["cluster", "--points", str(points), "--k", "2",
                        "--k-plus", "5"], capsys)
        assert "need 1 <= k < n" in err

    @pytest.mark.parametrize("content", ["", "# header only\n\n"],
                             ids=["empty", "comments"])
    def test_truth_without_labels(self, tmp_path, capsys, content):
        # numpy's loadtxt would warn and return an empty array, whose minimum
        # then failed with a numpy message
        edges = write_clique(tmp_path / "edges.txt", 4)
        truth = tmp_path / "truth.txt"
        truth.write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.run(["cluster", "--edges", edges, "--k", "2",
                            "--truth", str(truth)], capsys)
        assert f"{truth} holds no labels" in err

    @pytest.mark.parametrize("content", ["", "# header only\n\n"],
                             ids=["empty", "comments"])
    def test_points_file_without_points(self, tmp_path, capsys, content):
        points = tmp_path / "points.txt"
        points.write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.run(["cluster", "--points", str(points), "--k", "2"],
                           capsys)
        assert f"{points} holds no points" in err

    def test_repeated_region_k(self, capsys):
        err = self.run(["sbm-region", "--k", "2", "--k", "3", "--k", "2",
                        "--steps", "4"], capsys)
        assert "--k values must not repeat" in err

    def test_odd_bench_size(self, capsys):
        err = self.run(["bench", "--n", "11", "--repetitions", "1"], capsys)
        assert "n must be even" in err

    @pytest.mark.parametrize("degree", ["nan", "inf"])
    def test_non_finite_bench_degree(self, capsys, degree):
        err = self.run(["bench", "--n", "10", "--avg-degree", degree,
                        "--repetitions", "1"], capsys)
        assert "avg_degree must be finite" in err

    def test_non_finite_edge_weight(self, tmp_path, capsys):
        # it used to reach CG and exit 1 with a NaN residual
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 1.0\n1 2 -1.0\n2 3 nan\n")
        err = self.run(["cluster", "--edges", str(edges), "--k", "2"], capsys)
        assert "line 3: non-finite weight" in err

    def test_non_finite_point_coordinate(self, tmp_path, capsys):
        # it used to be reported as self loops in w_plus
        pts = np.arange(20.0).reshape(10, 2)
        pts[4, 0] = np.nan
        points = tmp_path / "points.txt"
        np.savetxt(points, pts)
        err = self.run(["cluster", "--points", str(points), "--k", "2",
                        "--k-plus", "3", "--k-minus", "3"], capsys)
        assert "finite coordinates" in err

    def test_probability_above_one(self, capsys):
        argv = ["sbm-cluster", *SBM_ARGS, "--runs", "1"]
        argv[argv.index("--p-in-plus") + 1] = "1.5"
        err = self.run(argv, capsys)
        assert "not a probability" in err

    def test_linalg_error_is_still_a_numerical_failure(self, tmp_path, capsys,
                                                       monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(siglap.cli, "spectral_cluster", fail)
        edges = write_clique(tmp_path / "edges.txt", 4)
        assert main(["cluster", "--edges", edges, "--k", "2"]) == 1
        assert capsys.readouterr().err.startswith("numerical failure: ")
