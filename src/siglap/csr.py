"""Symmetric sparse matrices in compressed-sparse-row form.

A :class:`SparseSymMatrix` stores both triangles of a symmetric matrix so
that matrix-vector products are branch-free row sums.  Construction always
canonicalizes (sorted column indices, duplicates summed).  Outside input
(a scipy matrix or a dense array) is verified to be exactly symmetric, both
structurally and numerically; edge lists and graph operators are symmetric by
construction, so they skip the check.  Everything downstream may rely on it.

Row pointers and column indices are stored as int32 whenever the order and
the number of stored entries fit (below ``2**31``), whatever index type the
input had: an entry then takes 12 bytes instead of 16, and a product reads
less memory.  :meth:`SparseSymMatrix.matvec` calls scipy's compiled CSR
kernel (``csr_matvec`` in ``scipy.sparse._sparsetools``) directly.  That is
the kernel ``csr @ x`` ends in, so the result has the same bits; the call
only skips the Python dispatch around it, which costs more than the
arithmetic at a few hundred vertices.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


class SparseSymMatrix:
    """Immutable symmetric sparse matrix (CSR, both triangles stored).

    Attributes
    ----------
    n : int
        Matrix order.
    row_ptr, col_idx, values : ndarray
        The raw CSR arrays (``row_ptr`` has length ``n + 1``); the two index
        arrays are int32 whenever they fit.
    """

    __slots__ = ("_csr", "_arrays", "n")

    def __init__(self, csr, _skip_checks=False):
        if not sp.issparse(csr):
            raise TypeError("expected a scipy sparse matrix")
        csr = sp.csr_array(csr, dtype=np.float64)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        csr.sum_duplicates()
        csr.sort_indices()
        if max(csr.nnz, csr.shape[0]) <= np.iinfo(np.int32).max:
            csr.indptr = csr.indptr.astype(np.int32, copy=False)
            csr.indices = csr.indices.astype(np.int32, copy=False)
        self._csr = csr
        # the kernel's arguments, looked up once: scipy's attribute access
        # costs a fifth of a product at n = 80
        self._arrays = (csr.indptr, csr.indices, csr.data)
        self.n = csr.shape[0]
        if not _skip_checks:
            self._check_symmetry()

    def _check_symmetry(self):
        diff = (self._csr - self._csr.T.tocsr()).tocoo()
        if diff.nnz and np.any(diff.data != 0.0):
            i = int(np.argmax(diff.data != 0.0))
            raise ValueError(
                "matrix is not exactly symmetric, e.g. entry "
                f"({diff.row[i]}, {diff.col[i]}) differs by {diff.data[i]:g}"
            )

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_undirected_edges(cls, n, i, j, w):
        """Build from undirected edges: each (i, j, w) also inserts (j, i, w).

        Duplicate edges (in either orientation) are summed once, into the
        upper triangle; the lower triangle is its transpose, so the result is
        symmetric by construction and needs no check.  Edges whose weights
        sum to zero leave no stored entry.  Self loops are rejected; drop
        them before calling.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if i.shape != j.shape or i.shape != w.shape:
            raise ValueError("i, j, w must have equal length")
        if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
            raise ValueError("index out of range")
        if np.any(i == j):
            raise ValueError("self loops are not allowed here")
        upper = sp.coo_array(
            (w, (np.minimum(i, j), np.maximum(i, j))), shape=(n, n)
        ).tocsr()
        return cls(upper + upper.T, _skip_checks=True)

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        return cls(sp.csr_array(a))

    @classmethod
    def identity(cls, n):
        return cls(sp.identity(n, format="csr"), _skip_checks=True)

    @classmethod
    def diagonal(cls, d):
        d = np.asarray(d, dtype=np.float64)
        return cls(sp.diags_array(d, format="csr"), _skip_checks=True)

    # -- CSR views -------------------------------------------------------

    @property
    def row_ptr(self):
        return self._csr.indptr

    @property
    def col_idx(self):
        return self._csr.indices

    @property
    def values(self):
        return self._csr.data

    @property
    def nnz(self):
        return self._csr.nnz

    # -- algebra ---------------------------------------------------------

    def matvec(self, x):
        """Return ``M @ x`` as the deterministic row-major CSR sum."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        y = np.zeros(self.n)
        # the kernel adds M @ x into y, which is why y starts at zero
        _sparsetools.csr_matvec(self.n, self.n, *self._arrays, x, y)
        return y

    def add_diagonal(self, shift):
        """Return ``M + diag(shift)``; ``shift`` may be a scalar or a vector."""
        shift = np.broadcast_to(np.asarray(shift, dtype=np.float64), (self.n,))
        return SparseSymMatrix(self._csr + sp.diags_array(shift), _skip_checks=True)

    def diagonal_vector(self):
        return self._csr.diagonal()

    def row_sums(self):
        return np.asarray(self._csr.sum(axis=1)).ravel()

    def abs_row_sums(self):
        """Row sums of absolute entries, by the product kernel; their
        maximum, ``||M||_inf``, bounds the spectral norm."""
        ptr, idx, values = self._arrays
        y = np.zeros(self.n)
        _sparsetools.csr_matvec(self.n, self.n, ptr, idx, np.abs(values),
                                np.ones(self.n), y)
        return y

    def abs_offdiag_row_sums(self):
        """Row sums of absolute off-diagonal entries (Gershgorin radii)."""
        return self.abs_row_sums() - np.abs(self.diagonal_vector())

    def to_dense(self):
        return self._csr.toarray()

    def to_scipy(self):
        return self._csr.copy()

    def __repr__(self):
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"
