import numpy as np
import pytest
import scipy.linalg

from siglap import dense_geometric_mean, dense_inv_sqrt, dense_sym_eig
from siglap.densela import ORACLE_CAP, pencil_inv_sqrt_apply, subspace_angle
from siglap.errors import IndefiniteOperatorError


def random_spd(n, rng, lo=0.5, hi=5.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


def geometric_mean_representations(a, b):
    """The four product forms ``a (a^-1 b)^(1/2)``, ``(b a^-1)^(1/2) a``,
    ``b (b^-1 a)^(1/2)`` and ``(a b^-1)^(1/2) b`` of the geometric mean, from
    Schur-based square roots of the quotients: a path independent of
    :func:`dense_geometric_mean`."""
    def rootm(m):
        r = scipy.linalg.sqrtm(m)
        assert np.abs(np.imag(r)).max() <= 1e-8 * max(np.abs(np.real(r)).max(), 1.0)
        return np.real(r)

    return [
        a @ rootm(np.linalg.solve(a, b)),
        rootm(b @ np.linalg.inv(a)) @ a,
        b @ rootm(np.linalg.solve(b, a)),
        rootm(a @ np.linalg.inv(b)) @ b,
    ]


class TestDenseSymEig:
    def test_diagonal(self):
        w, v = dense_sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0])
        assert abs(v[:, 0] @ [0, 1]) == pytest.approx(1.0)

    def test_exchange_matrix(self):
        w, v = dense_sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-15)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((20, 20))
        h = h + h.T
        w, v = dense_sym_eig(h)
        resid = np.linalg.norm(h @ v - v * w, "fro")
        assert resid <= 1e-10 * np.linalg.norm(h, "fro")
        np.testing.assert_allclose(v.T @ v, np.eye(20), atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            dense_sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestInvSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(
            dense_inv_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1 / 3.0])
        )

    def test_identity(self):
        np.testing.assert_allclose(dense_inv_sqrt(np.eye(3)), np.eye(3))

    def test_squaring_recovers_inverse(self):
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = dense_inv_sqrt(h)
        np.testing.assert_allclose(np.linalg.inv(r @ r), h, atol=1e-10)

    def test_composed_with_itself_gives_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_spd(12, rng)
            r = dense_inv_sqrt(h)
            np.testing.assert_allclose(r @ r, np.linalg.inv(h), atol=1e-9)

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteOperatorError):
            dense_inv_sqrt(np.diag([1.0, -1.0]))
        with pytest.raises(IndefiniteOperatorError):
            dense_inv_sqrt(np.diag([1.0, 0.0]))


class TestGeometricMean:
    def test_commuting_diagonal(self):
        g = dense_geometric_mean(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]))
        np.testing.assert_allclose(g, np.diag([3.0, 2.0]), atol=1e-12)

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        m = random_spd(8, rng)
        np.testing.assert_allclose(dense_geometric_mean(m, m), m, atol=1e-10)

    def test_shared_eigenvectors(self):
        # both operands diagonalized by (1,1)/(1,-1); eigenvalues multiply
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([[3.0, 1.0], [1.0, 3.0]])
        g = dense_geometric_mean(a, b)
        w, v = dense_sym_eig(g)
        np.testing.assert_allclose(w, [np.sqrt(2.0), np.sqrt(12.0)])
        np.testing.assert_allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)))

    def test_commutativity_and_representations(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = random_spd(10, rng)
            b = random_spd(10, rng)
            g = dense_geometric_mean(a, b)
            scale = np.linalg.norm(g)
            assert np.linalg.norm(dense_geometric_mean(b, a) - g) <= 1e-10 * scale
            for rep in geometric_mean_representations(a, b):
                assert np.linalg.norm(rep - g) <= 1e-10 * scale
            assert np.linalg.eigvalsh(g)[0] > 0

    def test_solves_riccati_equation(self):
        # the geometric mean is the unique SPD solution of X A^-1 X = B
        rng = np.random.default_rng(9)
        a = random_spd(6, rng)
        b = random_spd(6, rng)
        g = dense_geometric_mean(a, b)
        np.testing.assert_allclose(g @ np.linalg.solve(a, g), b, atol=1e-9)

    def test_rejects_indefinite_and_mismatched(self):
        with pytest.raises(IndefiniteOperatorError):
            dense_geometric_mean(np.diag([1.0, -2.0]), np.eye(2))
        with pytest.raises(ValueError, match="equal order"):
            dense_geometric_mean(np.eye(2), np.eye(3))

    def test_oracle_cap(self):
        n = ORACLE_CAP + 1
        with pytest.raises(ValueError, match="oracle"):
            dense_geometric_mean(np.eye(n), np.eye(n))


class TestPencilInvSqrtApply:
    def test_commuting_diagonal(self):
        a = np.diag([1.0, 4.0])
        b = np.diag([4.0, 1.0])
        np.testing.assert_allclose(
            pencil_inv_sqrt_apply(a, b, np.ones(2)), [0.5, 2.0], atol=1e-12
        )

    def test_consistency_with_geometric_mean(self):
        # (A#B) x = B (A^-1 B)^-1/2 x
        rng = np.random.default_rng(13)
        a = random_spd(9, rng)
        b = random_spd(9, rng)
        x = rng.standard_normal(9)
        lhs = dense_geometric_mean(a, b) @ x
        rhs = b @ pencil_inv_sqrt_apply(a, b, x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestSubspaceAngle:
    def test_identical_spans(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((10, 3))
        mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert subspace_angle(u, u @ mix) < 1e-12

    def test_orthogonal_spans(self):
        u = np.eye(6)[:, :2]
        v = np.eye(6)[:, 2:4]
        assert subspace_angle(u, v) == pytest.approx(np.pi / 2)
