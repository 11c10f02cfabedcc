import numpy as np
import pytest

from siglap import (ConvergenceError, IndefiniteOperatorError, ShiftConfig,
                    SparseSymMatrix, incomplete_cholesky, laplacian, pcg, pcg_solve)
from siglap.sbm import SbmParams, sample


class TestPcgBasics:
    def test_identity_one_iteration(self):
        x, iters = pcg_solve(SparseSymMatrix.from_dense(np.eye(2)),
                             np.array([3.0, 4.0]))
        np.testing.assert_array_equal(x, [3.0, 4.0])
        assert iters == 1

    def test_diagonal_solve(self):
        m = SparseSymMatrix.from_dense(np.diag([1.0, 2.0, 4.0]))
        x, _ = pcg_solve(m, np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(x, np.ones(3), atol=1e-12)

    def test_zero_rhs(self):
        x, iters = pcg_solve(SparseSymMatrix.from_dense(np.eye(3)), np.zeros(3))
        assert iters == 0
        np.testing.assert_array_equal(x, np.zeros(3))

    def test_indefinite_breakdown(self):
        m = SparseSymMatrix.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(IndefiniteOperatorError, match="curvature"):
            pcg_solve(m, np.array([0.0, 1.0]))

    def test_nonconvergence_reports_residual(self, monkeypatch):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((30, 30))
        spd = SparseSymMatrix.from_dense(a @ a.T + 0.05 * np.eye(30))
        # n steps would solve the system in exact arithmetic; in floating
        # point this one still has a relative residual of 4e-2 after them
        monkeypatch.setattr(pcg, "MAX_ITER_PER_UNKNOWN", 1)
        with pytest.raises(ConvergenceError) as err:
            pcg_solve(spd, rng.standard_normal(30), tol=1e-14)
        assert err.value.iterations == 30
        assert err.value.residual > 0
        assert err.value.iterate.shape == (30,)

    def test_invalid_tol(self):
        for tol in (0.0, np.nan):
            with pytest.raises(ValueError):
                pcg_solve(SparseSymMatrix.from_dense(np.eye(2)), np.ones(2), tol=tol)


class TestPcgAgainstDenseSolves:
    def test_sbm_laplacian_against_dense(self):
        params = SbmParams(k=2, cluster_size=25, p_in_plus=0.5, p_out_plus=0.1,
                           p_in_minus=0.1, p_out_minus=0.5)
        g = sample(params, seed=7)
        m = laplacian(g.w_plus, normalized=True).add_diagonal(1e-6)
        pc = incomplete_cholesky(m)
        b = np.zeros(50)
        b[0] = 1.0
        x, _ = pcg_solve(m, b, pc, tol=1e-12)
        x_dense = np.linalg.solve(m.to_dense(), b)
        assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)

    def test_hundred_random_spd_systems(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(5, 200))
            a = rng.standard_normal((n, n))
            spd = a @ a.T + n * np.eye(n)
            m = SparseSymMatrix.from_dense(spd)
            b = rng.standard_normal(n)
            tol = 10.0 ** rng.uniform(-12, -8)
            pc = incomplete_cholesky(m) if rng.random() < 0.5 else None
            x, _ = pcg_solve(m, b, pc, tol=tol)
            assert np.linalg.norm(spd @ x - b) <= tol * np.linalg.norm(b)
            x_dense = np.linalg.solve(spd, b)
            assert np.linalg.norm(x - x_dense) <= 1e-6 * np.linalg.norm(x_dense)

    def test_preconditioning_reduces_iterations(self):
        params = SbmParams(k=2, cluster_size=60, p_in_plus=0.4, p_out_plus=0.05,
                           p_in_minus=0.05, p_out_minus=0.4)
        g = sample(params, seed=3)
        a, _ = (laplacian(g.w_plus, normalized=True).add_diagonal(1e-2), None)
        b = np.random.default_rng(0).standard_normal(120)
        _, plain = pcg_solve(a, b, None, tol=1e-10)
        _, pre = pcg_solve(a, b, incomplete_cholesky(a), tol=1e-10)
        assert pre < plain
