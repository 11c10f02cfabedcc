"""Preconditioned conjugate gradients for symmetric positive definite systems."""

import numpy as np

from .errors import ConvergenceError, IndefiniteOperatorError

# pcg_solve gives up after this many iterations per unknown
MAX_ITER_PER_UNKNOWN = 10


def pcg_solve(m, b, preconditioner=None, tol=1e-10):
    """Solve ``M x = b`` for an SPD matrix ``m`` (anything with ``matvec``).

    Starts from ``x = 0`` and iterates until ``||M x - b|| <= tol * ||b||``.
    Returns ``(x, iterations)``.

    Raises
    ------
    IndefiniteOperatorError
        On a non-positive curvature direction (the operator or the
        preconditioner is not positive definite).
    ConvergenceError
        After ``MAX_ITER_PER_UNKNOWN * n`` iterations; carries the last
        iterate and the relative residual reached.
    """
    b = np.asarray(b, dtype=np.float64)
    max_iter = MAX_ITER_PER_UNKNOWN * b.shape[0]
    if not tol > 0.0:  # NaN fails too
        raise ValueError("tol must be positive")

    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    # one stop test, on r.r; plain CG reuses r.r as its next r.z
    stop_sq = (tol * b_norm) ** 2

    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner.solve(r) if preconditioner is not None else r
    p = z.copy()
    rz = float(r.dot(z))
    if rz <= 0.0:
        raise IndefiniteOperatorError("preconditioner produced a non-positive inner product")

    # updates run in place: at a few hundred unknowns, temporaries and the
    # dispatch of ``@`` cost more than the arithmetic; ``p *= beta; p += z``
    # rounds exactly like ``z + beta * p``
    for k in range(1, max_iter + 1):
        mp = m.matvec(p)
        p_mp = float(p.dot(mp))
        if p_mp <= 0.0:
            raise IndefiniteOperatorError(
                f"non-positive curvature {p_mp:.3e} at iteration {k}; operator is not SPD"
            )
        alpha = rz / p_mp
        x += alpha * p
        mp *= alpha
        r -= mp
        rr = float(r.dot(r))
        if rr <= stop_sq:
            return x, k
        if preconditioner is None:
            z, rz_new = r, rr
        else:
            z = preconditioner.solve(r)
            rz_new = float(r.dot(z))
            if rz_new <= 0.0:
                raise IndefiniteOperatorError(
                    "preconditioner produced a non-positive inner product")
        p *= rz_new / rz
        p += z
        rz = rz_new

    raise ConvergenceError(
        f"pcg did not reach tol={tol:g} within {max_iter} iterations "
        f"(relative residual {np.linalg.norm(r) / b_norm:.3e})",
        iterate=x,
        residual=float(np.linalg.norm(r) / b_norm),
        iterations=max_iter,
    )
