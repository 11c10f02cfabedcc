"""Small dense symmetric linear algebra: eigensolves, matrix roots, and the
dense geometric-mean oracle.

The eigensolves and matrix roots are O(n^3).  Only the geometric-mean
oracles, :func:`dense_geometric_mean` and :func:`pencil_inv_sqrt_apply`,
check :data:`ORACLE_CAP`; :func:`dense_sym_eig`, :func:`dense_inv_sqrt` and
:func:`subspace_angle` take any order, and the benchmark's oracle check calls
:func:`dense_sym_eig` directly.  No sparse solver imports this module: their
small projected matrices go straight to numpy.  It serves the tests and the
dense expected-matrix operators of :mod:`siglap.sbm`.
"""

import numpy as np

from .errors import IndefiniteOperatorError

# Largest order the geometric-mean oracles accept.  Big enough for every
# verification task in the test suite, small enough that O(n^3) is instant.
ORACLE_CAP = 500

_SYM_RTOL = 1e-12


def check_symmetric(h):
    """Return ``h`` as a float array, rejecting asymmetric input."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = np.abs(h).max() if h.size else 0.0
    if scale and np.abs(h - h.T).max() > _SYM_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    return h


def _check_cap(h):
    if h.shape[0] > ORACLE_CAP:
        raise ValueError(
            f"dense oracle limited to order {ORACLE_CAP}, got {h.shape[0]}"
        )


def dense_sym_eig(h):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``.
    """
    h = check_symmetric(h)
    return np.linalg.eigh(h)


def _spd_eig(h, what):
    w, v = dense_sym_eig(h)
    if w.size and w[0] <= 0.0:
        raise IndefiniteOperatorError(
            f"{what}: smallest eigenvalue {w[0]:.3e} is not positive"
        )
    return w, v


def dense_inv_sqrt(h):
    """Inverse principal square root of a symmetric positive definite matrix."""
    w, v = _spd_eig(h, "inverse matrix square root")
    r = (v / np.sqrt(w)) @ v.T
    return 0.5 * (r + r.T)


def _congruence(a, b, what):
    """``(a^(1/2), a^(-1/2), c)`` with ``c = a^(-1/2) b a^(-1/2)``, for a
    symmetric ``a`` that must be positive definite; ``what`` names the
    caller in errors."""
    _check_cap(a)
    wa, va = _spd_eig(a, f"{what} (first operand)")
    a_half = (va * np.sqrt(wa)) @ va.T
    a_inv_half = (va / np.sqrt(wa)) @ va.T
    c = a_inv_half @ b @ a_inv_half
    return a_half, a_inv_half, 0.5 * (c + c.T)


def dense_geometric_mean(a, b):
    """Geometric mean of two SPD matrices: ``a^(1/2) (a^(-1/2) b a^(-1/2))^(1/2) a^(1/2)``.

    The result is the unique SPD solution of ``X a^(-1) X = b``; it is
    symmetric in its arguments, which the test suite verifies numerically.
    """
    a = check_symmetric(a)
    b = check_symmetric(b)
    if a.shape != b.shape:
        raise ValueError("operands must have equal order")
    a_half, _, c = _congruence(a, b, "geometric mean")
    wc, vc = _spd_eig(c, "geometric mean (second operand)")
    g = a_half @ ((vc * np.sqrt(wc)) @ vc.T) @ a_half
    return 0.5 * (g + g.T)


def pencil_inv_sqrt_apply(a, b, y):
    """Dense evaluation of ``(a^-1 b)^(-1/2) y`` for SPD ``a``, ``b``.

    With ``c = a^(-1/2) b a^(-1/2)`` the quotient satisfies
    ``a^-1 b = a^(-1/2) c a^(1/2)``, so the inverse square root is
    ``a^(-1/2) c^(-1/2) a^(1/2)``.  Serves as the oracle for the iterative
    Krylov solver.
    """
    a_half, a_inv_half, c = _congruence(check_symmetric(a), b, "pencil")
    return a_inv_half @ (dense_inv_sqrt(c) @ (a_half @ np.asarray(y, dtype=np.float64)))


def subspace_angle(u, v):
    """Largest principal angle (radians) between the column spans of u and v."""
    qu = np.linalg.qr(np.atleast_2d(u.T).T)[0]
    qv = np.linalg.qr(np.atleast_2d(v.T).T)[0]
    if qu.shape[1] != qv.shape[1]:
        raise ValueError("subspaces must have equal dimension")
    s = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))
