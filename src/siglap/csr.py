"""Symmetric sparse matrices in compressed-sparse-row form.

A :class:`SparseSymMatrix` stores both triangles of a symmetric matrix as
three canonical CSR arrays (column indices sorted within each row, no
duplicates), so that matrix-vector products are branch-free row sums.  No
stored entry is zero: outside input drops its explicit zeros, and every other
constructor drops the entries that come out zero, so the stored structure of a
weight matrix is its graph's edge set.  Each array is exactly as long as its
content: a view into a longer buffer, such as the ones scipy's sums
over-allocate, is copied to its own length.  There is one public constructor
per kind of input: a scipy matrix (``SparseSymMatrix(m)``), a dense array
(:meth:`SparseSymMatrix.from_dense`) and an edge list
(:meth:`SparseSymMatrix.from_undirected_edges`).  The first two are
canonicalized by scipy and verified to be exactly symmetric, both structurally
and numerically.  Edge lists, neighbor graphs and graph operators are
symmetric by construction and hand their canonical arrays to the private
``SparseSymMatrix._canonical``, which checks nothing.  Everything downstream
may rely on symmetry.

Row pointers and column indices are stored as int32 whenever the order and
the number of stored entries fit (below ``2**31``), whatever index type the
input had: an entry then takes 12 bytes instead of 16, and a product reads
less memory.  An unweighted graph, every stored value exactly 1.0 (a sampled
block model, a kNN/kFN graph, a +-1 edge list), stores no weights at all: its
``values`` is one read-only 1.0 of stride 0, ``np.broadcast_to(1.0, (nnz,))``,
so an entry takes 4 bytes.  :meth:`SparseSymMatrix.from_undirected_edges`
tests its result for it, and the neighbor graphs of :mod:`siglap.cluster`,
unit by construction, take it from ``_unit_values``; assembled operators and
weighted inputs keep an array of their own.  Every reader sees the same
numbers, bit for bit, but a kernel that needs a contiguous array copies it on
each call, so a unit graph is best kept out of hot products.

The scipy boundary: a matrix holds no scipy object, and only the boundary
operations import the ``scipy.sparse`` package.  That import costs a process
0.14-0.2 s and 22 MB of resident memory (numpy 2.4, scipy 1.17, 2-vCPU
x86-64), mostly in scipy's array-API layer, which pulls in ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``; siglap calls none of it.  The compiled
kernels it needs, ``scipy.sparse._sparsetools``, load on their own in under a
millisecond.  So this module loads that extension by itself from scipy's
install directory (or takes the one already imported) and calls its kernels
on the arrays directly: the kernels scipy's own methods end in, so the
results have scipy's bits, without the Python dispatch around them, which
costs more than the arithmetic at a few hundred vertices.
:meth:`SparseSymMatrix.matvec` calls ``csr_matvec`` (``csr @ x``),
:meth:`SparseSymMatrix.diagonal_vector` ``csr_diagonal``,
:meth:`SparseSymMatrix.to_dense` ``csr_todense`` (``toarray()``), and
:func:`add_canonical` ``csr_plus_csr`` / ``csr_minus_csr``, scipy's
linear-time sum of two canonical matrices, which drops the entries that come
out zero.  :meth:`SparseSymMatrix.from_undirected_edges` runs the kernel
chain of ``coo_array(...).tocsr()`` and ``upper + upper.T``.
:meth:`SparseSymMatrix.row_sums` is the ``np.add.reduceat`` over non-empty
rows that ``csr.sum(axis=1)`` runs.  Only a scipy matrix handed in
(``SparseSymMatrix(csr)``, :meth:`SparseSymMatrix.from_dense`, and the
symmetry check they run) and :meth:`SparseSymMatrix.to_scipy` import
``scipy.sparse``.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load_sparsetools():
    """``scipy.sparse._sparsetools``, loaded without its package.

    The file sits at scipy's private path, not its API, so where it is
    missing the module comes from the ordinary (and slower) import.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")  # finds, does not import, scipy
    dirs = spec.submodule_search_locations if spec is not None else []
    files = (os.path.join(d, "sparse", "_sparsetools" + suffix) for d in dirs
             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next((f for f in files if os.path.isfile(f)), None)
    if path is None:
        return importlib.import_module(name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(n, nnz):
    return np.int32 if max(n, nnz) <= _INT32_MAX else np.int64


def _exact(a):
    # a view keeps its whole base buffer alive, so a view into a longer one
    # gets its own copy
    return a.copy() if a.base is not None and a.base.nbytes > a.nbytes else a


def _unit_values(nnz):
    # the values of a graph whose every weight is 1.0: one read-only 8-byte
    # 1.0 with stride 0, which every reader takes as an array of nnz ones
    return np.broadcast_to(1.0, (nnz,))


def diagonal_arrays(d):
    """Canonical CSR arrays ``(row_ptr, col_idx, values)`` of ``diag(d)``,
    without its zero entries."""
    d = np.asarray(d, dtype=np.float64)
    on = d != 0.0
    idx = _index_dtype(d.size, d.size)
    ptr = np.zeros(d.size + 1, idx)
    np.cumsum(on, dtype=idx, out=ptr[1:])
    return ptr, np.flatnonzero(on).astype(idx), d[on]


def add_canonical(n, a, b, subtract=False):
    """``A + B``, or ``A - B``, of two ``n x n`` matrices given as canonical
    CSR arrays ``(row_ptr, col_idx, values)``, as canonical CSR arrays.

    This is scipy's sum of the two matrices, bit for bit: an entry of one
    operand alone is kept as it is, two entries that meet are added (or
    subtracted) once, and an entry that comes out zero is dropped.
    """
    nnz = a[2].size + b[2].size
    idx = _index_dtype(n, nnz)
    ptr = np.empty(n + 1, idx)
    cols = np.empty(nnz, idx)
    vals = np.empty(nnz)
    kernel = _sparsetools.csr_minus_csr if subtract else _sparsetools.csr_plus_csr
    kernel(n, n, a[0].astype(idx, copy=False), a[1].astype(idx, copy=False), a[2],
           b[0].astype(idx, copy=False), b[1].astype(idx, copy=False), b[2],
           ptr, cols, vals)
    end = int(ptr[-1])
    if end < nnz:
        cols, vals = cols[:end], vals[:end]
    return ptr, cols, vals


def pair_products(s, row_ptr, col_idx):
    """``s_i * s_j`` for each stored entry ``(i, j)`` of the CSR arrays.

    ``s_i`` is repeated over row ``i`` and then scaled in place by ``s_j`` in
    scipy's column-scaling kernel, so the only array of the entries' length
    is the result.
    """
    p = np.repeat(s, np.diff(row_ptr))
    _sparsetools.csr_scale_columns(s.size, s.size, row_ptr, col_idx, p, s)
    return p


class SparseSymMatrix:
    """Immutable symmetric sparse matrix (CSR, both triangles stored).

    Attributes
    ----------
    n : int
        Matrix order.
    row_ptr, col_idx, values : ndarray
        The raw CSR arrays (``row_ptr`` has length ``n + 1``); the two index
        arrays are int32 whenever they fit.  ``values`` may be a read-only
        zero-stride 1.0 (see the module docstring): read it, and copy it
        where a contiguous array is needed.
    """

    __slots__ = ("_arrays", "n")

    def __init__(self, csr):
        import scipy.sparse as sp

        if not sp.issparse(csr):
            raise TypeError("expected a scipy sparse matrix")
        csr = sp.csr_array(csr, dtype=np.float64, copy=True)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        csr.sum_duplicates()
        csr.eliminate_zeros()
        self._set(csr.indptr, csr.indices, csr.data)
        self._check_symmetry()

    def _set(self, row_ptr, col_idx, values):
        n = row_ptr.size - 1
        idx = _index_dtype(n, values.size)
        # the kernel's arguments, in the order it takes them
        self._arrays = (_exact(row_ptr.astype(idx, copy=False)),
                        _exact(col_idx.astype(idx, copy=False)),
                        _exact(np.asarray(values, dtype=np.float64)))
        self.n = n

    @classmethod
    def _canonical(cls, row_ptr, col_idx, values):
        """Wrap the canonical CSR arrays of a matrix that is symmetric by
        construction, unchecked."""
        self = cls.__new__(cls)
        self._set(row_ptr, col_idx, values)
        return self

    def _scipy(self):
        # a scipy wrapper of the arrays, built per call and never kept
        import scipy.sparse as sp

        ptr, idx, values = self._arrays
        return sp.csr_array((values, idx, ptr), shape=(self.n, self.n))

    def _check_symmetry(self):
        m = self._scipy()
        diff = (m - m.T.tocsr()).tocoo()
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
        them before calling, and so are indices that are not integers.
        """
        i, j = np.asarray(i), np.asarray(j)
        w = np.asarray(w, dtype=np.float64)
        if i.shape != j.shape or i.shape != w.shape:
            raise ValueError("i, j, w must have equal length")
        # a NaN or an out-of-range float casts to garbage, which then differs
        with np.errstate(invalid="ignore"):
            i64, j64 = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
        if np.any(i64 != i) or np.any(j64 != j):
            raise ValueError("vertex indices must be integers")
        i, j = i64, j64
        if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n):
            raise ValueError("index out of range")
        if np.any(i == j):
            raise ValueError("self loops are not allowed here")
        # coo_array((w, (min(i, j), max(i, j)))).tocsr(): a stable bucket
        # by row, then, unless already canonical, scipy's sort (skipped on
        # sorted rows, as scipy skips it) and in-order sum of duplicates
        m = w.size
        idx = _index_dtype(n, m)
        rows = np.minimum(i, j, out=np.empty(m, idx), casting="unsafe")
        cols = np.maximum(i, j, out=np.empty(m, idx), casting="unsafe")
        ptr, ucols, uvals = np.empty(n + 1, idx), np.empty(m, idx), np.empty(m)
        _sparsetools.coo_tocsr(n, n, m, rows, cols, w, ptr, ucols, uvals)
        del rows, cols
        if not _sparsetools.csr_has_canonical_format(n, ptr, ucols):
            if not _sparsetools.csr_has_sorted_indices(n, ptr, ucols):
                _sparsetools.csr_sort_indices(n, ptr, ucols, uvals)
            _sparsetools.csr_sum_duplicates(n, n, ptr, ucols, uvals)
        nnz = int(ptr[-1])
        upper = (ptr, ucols[:nnz], uvals[:nnz])
        # upper.T in CSR (csc.tocsr()), then upper + upper.T
        lower = (np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz))
        _sparsetools.csr_tocsc(n, n, *upper, *lower)
        ptr, cols, vals = add_canonical(n, upper, lower)
        # an unweighted graph (every weight 1.0) stores no weights
        if vals.size and vals.min() == 1.0 == vals.max():
            vals = _unit_values(vals.size)
        return cls._canonical(ptr, cols, vals)

    @classmethod
    def from_dense(cls, a):
        import scipy.sparse as sp

        a = np.asarray(a, dtype=np.float64)
        return cls(sp.csr_array(a))

    # -- CSR views -------------------------------------------------------

    @property
    def row_ptr(self):
        return self._arrays[0]

    @property
    def col_idx(self):
        return self._arrays[1]

    @property
    def values(self):
        return self._arrays[2]

    @property
    def nnz(self):
        return self._arrays[2].size

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
        return SparseSymMatrix._canonical(
            *add_canonical(self.n, self._arrays, diagonal_arrays(shift)))

    def diagonal_vector(self):
        d = np.empty(self.n)
        # the kernel behind scipy's csr.diagonal()
        _sparsetools.csr_diagonal(0, self.n, self.n, *self._arrays, d)
        return d

    def row_sums(self):
        """Row sums, with the bits of scipy's ``csr.sum(axis=1)``."""
        ptr, _, values = self._arrays
        sums = np.zeros(self.n)
        rows = np.flatnonzero(np.diff(ptr))
        if rows.size:
            sums[rows] = np.add.reduceat(values, ptr[rows])
        return sums

    def abs_row_sums(self):
        """Row sums of absolute entries, by the product kernel; their
        maximum, ``||M||_inf``, bounds the spectral norm."""
        ptr, idx, values = self._arrays
        y = np.zeros(self.n)
        _sparsetools.csr_matvec(self.n, self.n, ptr, idx, np.abs(values),
                                np.ones(self.n), y)
        return y

    def to_dense(self):
        out = np.zeros((self.n, self.n))
        # the kernel behind scipy's csr.toarray(), which adds into zeros
        _sparsetools.csr_todense(self.n, self.n, *self._arrays, out)
        return out

    def to_scipy(self):
        return self._scipy().copy()

    def __repr__(self):
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"
