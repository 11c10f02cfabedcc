"""Zero-fill incomplete Cholesky (IC(0)) preconditioning.

:func:`incomplete_cholesky` keeps exactly the lower-triangular sparsity
pattern of the input.  It is the one preconditioner, and its only caller,
:func:`siglap.geomean.matrix_smallest_k_eigenpairs`, factors ``m + sigma I``
for the explicit operators of the clustering front end.  IC(0) exists for
every symmetric H-matrix with a positive diagonal (Meijerink & van der
Vorst, Math. Comp. 31, 1977, for M-matrices; Manteuffel, Math. Comp. 34,
1980), and each of those shifted operators is one:

* ``SN + sigma I``: its comparison matrix (absolute diagonal, minus the
  absolute off-diagonal) dominates ``Lsym(W+ + W-) + sigma I``, an SPD
  M-matrix, even where a vertex pair carries both signs;
* ``AM + sigma I``: likewise over ``Lsym(W+) + Lsym(W-) + sigma I``;
* ``BN`` shifted past its lowest Gershgorin disk: strictly diagonally
  dominant.

A vertex with no edge has a zero row, and the shift alone is its pivot.
Outside these classes IC(0) may break down, and a breakdown raises
:class:`~siglap.errors.IndefiniteOperatorError`: a non-positive or
structurally missing diagonal entry, or a non-positive pivot.  Factorization
and the two triangular solves are plain Python loops.

The geometric-mean pencil needs no preconditioner: its inner solves are
deflated by the kernels of ``Lsym+`` and ``Qsym-`` and run unpreconditioned
(see :mod:`siglap.geomean`).
"""

import numpy as np

from .errors import IndefiniteOperatorError


def _ic0_factor(n, lp, lj, lx):
    """In-place IC(0) on lower-triangular CSR arrays; returns the row of the
    first non-positive pivot, or -1 when the factor is complete.

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
        if not d > 0.0:  # NaN fails too
            return i
        lx[row_end - 1] = np.sqrt(d)
    return -1


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
    """An IC(0) factor ``L``; applying it (`solve`) is ``(L L')^-1``, a
    symmetric positive definite operation."""

    __slots__ = ("n", "_lp", "_lj", "_lx")
    kind = "ic0"

    def __init__(self, n, lower):
        self.n = n
        # the factor's CSR arrays (row_ptr, col_idx, values)
        self._lp, self._lj, self._lx = lower

    def solve(self, r):
        """Return ``P^{-1} r``."""
        out = np.empty_like(r)
        _lower_solve(self.n, self._lp, self._lj, self._lx, r, out)
        _lower_t_solve(self.n, self._lp, self._lj, self._lx, out)
        return out


def incomplete_cholesky(m):
    """IC(0) factorization of a symmetric matrix with positive diagonal.

    Raises
    ------
    IndefiniteOperatorError
        On a non-positive or structurally missing diagonal entry, or a
        non-positive pivot (see the module docstring for why the shifted
        operators of the pipeline have neither).
    """
    diag = m.diagonal_vector()
    bad = np.flatnonzero(~(diag > 0.0))
    if bad.size:
        raise IndefiniteOperatorError(
            f"IC(0) needs a positive diagonal; entry {bad[0]} is "
            f"{diag[bad[0]]:g} (non-positive or structurally missing)")
    # the lower triangle of the canonical arrays: each row's columns are
    # sorted, so its kept entries end with the diagonal
    rows = np.repeat(np.arange(m.n, dtype=m.row_ptr.dtype), np.diff(m.row_ptr))
    keep = m.col_idx <= rows
    lp = np.zeros_like(m.row_ptr)
    np.cumsum(np.bincount(rows[keep], minlength=m.n), out=lp[1:])
    lj, lx = m.col_idx[keep], m.values[keep]
    row = _ic0_factor(m.n, lp, lj, lx)
    if row >= 0:
        raise IndefiniteOperatorError(
            f"IC(0) broke down: non-positive pivot in row {row}; the matrix "
            "is not a symmetric H-matrix with positive diagonal")
    return IcPreconditioner(m.n, (lp, lj, lx))
