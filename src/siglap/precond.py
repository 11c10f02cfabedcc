"""Jacobi and zero-fill incomplete Cholesky preconditioning.

:func:`jacobi` scales by the inverse diagonal.  :func:`incomplete_cholesky`
keeps exactly the lower-triangular sparsity pattern of the input (IC(0)).  If
a pivot becomes non-positive the factorization falls back to :func:`jacobi`
instead of failing or shifting; the chosen kind is recorded on the result.
Factorization and the two triangular solves are plain Python loops.

IC(0)'s only caller is the explicit-matrix eigensolver
(:func:`siglap.geomean.matrix_smallest_k_eigenpairs`), and :func:`jacobi` is
left only as its fallback.  The geometric-mean pencil needs neither: its
inner solves are deflated by the kernels of ``Lsym+`` and ``Qsym-`` and run
unpreconditioned (see :mod:`siglap.geomean`).
"""

import numpy as np


def _ic0_factor(n, lp, lj, lx):
    """In-place IC(0) on lower-triangular CSR arrays; returns False on breakdown.

    Assumes each row's entries are sorted and end with the diagonal.
    """
    for i in range(n):
        row_start = lp[i]
        row_end = lp[i + 1]
        for ii in range(row_start, row_end - 1):
            j = lj[ii]
            # two-pointer dot of rows i and j over shared columns below j
            s = lx[ii]
            pa = row_start
            pb = lp[j]
            pb_end = lp[j + 1] - 1  # skip the diagonal of row j
            while pa < ii and pb < pb_end:
                ca = lj[pa]
                cb = lj[pb]
                if ca == cb:
                    s -= lx[pa] * lx[pb]
                    pa += 1
                    pb += 1
                elif ca < cb:
                    pa += 1
                else:
                    pb += 1
            djj = lx[lp[j + 1] - 1]
            lx[ii] = s / djj
        d = lx[row_end - 1]
        for ii in range(row_start, row_end - 1):
            d -= lx[ii] * lx[ii]
        if d <= 0.0:
            return False
        lx[row_end - 1] = np.sqrt(d)
    return True


def _lower_solve(n, lp, lj, lx, b, out):
    """Forward substitution L out = b (rows end with the diagonal)."""
    for i in range(n):
        s = b[i]
        for ii in range(lp[i], lp[i + 1] - 1):
            s -= lx[ii] * out[lj[ii]]
        out[i] = s / lx[lp[i + 1] - 1]


def _lower_t_solve(n, lp, lj, lx, x):
    """Backward substitution L^T x = x, in place."""
    for i in range(n - 1, -1, -1):
        xi = x[i] / lx[lp[i + 1] - 1]
        x[i] = xi
        for ii in range(lp[i], lp[i + 1] - 1):
            x[lj[ii]] -= lx[ii] * xi


class IcPreconditioner:
    """SPD preconditioner: either an IC(0) factor or the Jacobi diagonal.

    ``kind`` is ``"ic0"`` when the factorization succeeded and ``"diagonal"``
    when it fell back.  Applying it (`solve`) is always a symmetric positive
    definite operation.
    """

    __slots__ = ("kind", "n", "_lp", "_lj", "_lx", "_inv_diag")

    def __init__(self, kind, n, lower=None, inv_diag=None):
        self.kind = kind
        self.n = n
        if kind == "ic0":
            # the factor's CSR arrays (row_ptr, col_idx, values)
            self._lp, self._lj, self._lx = lower
            self._inv_diag = None
        elif kind == "diagonal":
            self._lp = self._lj = self._lx = None
            self._inv_diag = inv_diag
        else:
            raise ValueError(f"unknown preconditioner kind {kind!r}")

    def solve(self, r):
        """Return ``P^{-1} r``."""
        if self.kind == "diagonal":
            return r * self._inv_diag
        out = np.empty_like(r)
        _lower_solve(self.n, self._lp, self._lj, self._lx, r, out)
        _lower_t_solve(self.n, self._lp, self._lj, self._lx, out)
        return out


def jacobi(m):
    """Jacobi (diagonal) preconditioner of a symmetric matrix.

    Scales by the inverse of each positive diagonal entry; rows whose
    diagonal is zero or negative are left unscaled, so the application stays
    symmetric positive definite for any input.
    """
    diag = m.diagonal_vector()
    inv = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 1.0)
    return IcPreconditioner("diagonal", m.n, inv_diag=inv)


def incomplete_cholesky(m):
    """IC(0) factorization of a symmetric matrix with positive diagonal.

    On any pivot breakdown (including a non-positive or structurally missing
    diagonal) this silently returns the Jacobi preconditioner; the ``kind``
    flag on the result records which one you got.
    """
    diag = m.diagonal_vector()
    if diag.size == 0 or np.any(diag <= 0.0):
        return jacobi(m)
    # the lower triangle of the canonical arrays: each row's columns are
    # sorted, so its kept entries end with the diagonal
    rows = np.repeat(np.arange(m.n, dtype=m.row_ptr.dtype), np.diff(m.row_ptr))
    keep = m.col_idx <= rows
    lp = np.zeros_like(m.row_ptr)
    np.cumsum(np.bincount(rows[keep], minlength=m.n), out=lp[1:])
    lj, lx = m.col_idx[keep], m.values[keep]
    if not _ic0_factor(m.n, lp, lj, lx):
        return jacobi(m)
    return IcPreconditioner("ic0", m.n, lower=(lp, lj, lx))
