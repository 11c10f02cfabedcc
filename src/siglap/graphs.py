"""Signed graphs and their Laplacian operators.

A signed graph is a pair of nonnegative symmetric weight matrices on a shared
vertex set: attractive relations in ``w_plus``, repulsive ones in ``w_minus``.
This module builds every Laplacian the clustering pipelines consume:

======  ==============================================================
kind    operator
======  ==============================================================
``SN``  signed normalized Laplacian
        ``Dbar^-1/2 (Dbar - W+ + W-) Dbar^-1/2``
``BN``  symmetrized balance normalized form
        ``Dbar^-1/2 (D+ - W+ + W-) Dbar^-1/2`` (similar to
        ``Dbar^-1 (D+ - W+ + W-)``, hence the same spectrum)
``AM``  arithmetic mean of normalizations  ``Lsym+ + Qsym-``
======  ==============================================================

Each operator, like the :func:`shifted_pair` pair, is spliced straight into
canonical CSR arrays, with no COO array and no scipy object on the way.  The
diagonal and then each term ``sign * W``, taken from ``W``'s own canonical
arrays (its entries first scaled by ``s_i * s_j`` where the formula scales
inside), are merged by :func:`siglap.csr.add_canonical`, scipy's linear-time
canonical sum: it needs no sort and drops the entries that come out zero, as
the scipy sums the formula spells out would.  The outer scaling then
multiplies each entry by the one product ``s_i * s_j``, so the result is
exactly symmetric and is wrapped unchecked.  Degree-zero vertices get a zero
row in every normalized operator (their ``D^-1/2`` entry is defined as 0).

:func:`pencil_kernels` gives the kernels of the two normalized operators in
closed form: ``Lsym+`` vanishes on ``D+^1/2 1_C`` for each connected component
``C`` of ``W+``, and ``Qsym-`` on ``D-^1/2 s`` for each bipartite component of
``W-``, where ``s = +-1`` marks its two sides.  A vertex isolated in ``W+`` or
``W-`` has a zero row there and is its own component, with kernel vector
``e_i``.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .csr import (SparseSymMatrix, _index_dtype, add_canonical, diagonal_arrays,
                  pair_products)
from .errors import EdgeListParseError

SIGNED_KINDS = ("SN", "BN", "AM")


@dataclass(frozen=True)
class SignedGraph:
    """Pair of nonnegative symmetric weight matrices on one vertex set."""

    w_plus: SparseSymMatrix
    w_minus: SparseSymMatrix

    def __post_init__(self):
        if self.w_plus.n != self.w_minus.n:
            raise ValueError("w_plus and w_minus must have the same order")
        for name, w in (("w_plus", self.w_plus), ("w_minus", self.w_minus)):
            if not (np.isfinite(w.values) & (w.values >= 0.0)).all():
                raise ValueError(f"{name} has negative or non-finite weights")
            if np.any(w.diagonal_vector() != 0.0):
                raise ValueError(f"{name} has nonzero diagonal entries (self loops)")

    @property
    def n(self):
        return self.w_plus.n


@dataclass(frozen=True)
class ShiftConfig:
    """Diagonal shifts making the normalized Laplacian pair positive definite."""

    eps1: float = 1e-6
    eps2: float = 1e-6

    def __post_init__(self):
        # written so that NaN fails each test
        if not (self.eps1 > 0.0 and self.eps2 > 0.0):
            raise ValueError("shifts must be positive")
        if not self.eps1 + self.eps2 < 1.0:
            raise ValueError("eps1 + eps2 must be below 1")


def _inv_sqrt_degrees(d):
    # degree-0 convention: the scaling entry is 0, zeroing the operator row
    pos = d > 0.0
    return np.where(pos, 1.0 / np.sqrt(np.where(pos, d, 1.0)), 0.0)


def _assemble(diag, terms, scale=None):
    """``S (diag(diag) + sum_k sign_k S_k W_k S_k) S``, where ``terms`` holds
    ``(W_k, sign_k, s_k)`` and ``S_k = diag(s_k)``; ``None`` stands for ``I``.

    The diagonal and then each term are merged by :func:`add_canonical`, so
    entries that cancel are dropped before ``S`` applies, as scipy's sums drop
    them, and each operator has the bits of the chain of sums it spells out.
    """
    n = diag.size
    arrays = diagonal_arrays(diag)
    for w, sign, s in terms:
        vals = w.values
        if s is not None:
            vals = pair_products(s, w.row_ptr, w.col_idx)
            vals *= w.values
        # a negative sign subtracts: d - x is d + (-1 * x), bit for bit
        arrays = add_canonical(n, arrays, (w.row_ptr, w.col_idx, vals),
                               subtract=sign < 0.0)
    ptr, cols, vals = arrays
    if scale is not None:
        vals *= pair_products(scale, ptr, cols)
    return SparseSymMatrix._canonical(ptr, cols, vals)


def laplacian(w, normalized=False):
    """Graph Laplacian ``D - W`` or its symmetric normalization."""
    d = w.row_sums()
    return _assemble(d, [(w, -1.0, None)], _inv_sqrt_degrees(d) if normalized else None)


def signless_laplacian(w, normalized=False):
    """Signless Laplacian ``D + W``; its smallest eigenvalue vanishes exactly
    on bipartite components."""
    d = w.row_sums()
    return _assemble(d, [(w, 1.0, None)], _inv_sqrt_degrees(d) if normalized else None)


def _normalized_part(w, sign):
    # diagonal and term of D^-1/2 (D + sign W) D^-1/2, for _assemble
    d = w.row_sums()
    s = _inv_sqrt_degrees(d)
    return d * (s * s), (w, sign, s)


def signed_laplacian(g, kind):
    """One of the signed operators listed in the module docstring."""
    if kind not in SIGNED_KINDS:
        raise ValueError(f"kind must be one of {SIGNED_KINDS}, got {kind!r}")
    if kind == "AM":
        diag_p, term_p = _normalized_part(g.w_plus, -1.0)
        diag_m, term_m = _normalized_part(g.w_minus, 1.0)
        return _assemble(diag_p + diag_m, [term_p, term_m])
    d_plus = g.w_plus.row_sums()
    d_bar = d_plus + g.w_minus.row_sums()
    # W- - W+ is summed before the Dbar^-1/2 scaling, as in the formula
    return _assemble(d_bar if kind == "SN" else d_plus,
                     [(g.w_plus, -1.0, None), (g.w_minus, 1.0, None)],
                     _inv_sqrt_degrees(d_bar))


def shifted_pair(g, shift):
    """The SPD operator pair ``(Lsym+ + eps1 I, Qsym- + eps2 I)``."""
    diag_p, term_p = _normalized_part(g.w_plus, -1.0)
    diag_m, term_m = _normalized_part(g.w_minus, 1.0)
    return (_assemble(diag_p + shift.eps1, [term_p]),
            _assemble(diag_m + shift.eps2, [term_m]))


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal vectors with disjoint supports, stored per vertex.

    Vertex ``i`` lies in the support of vector ``ids[i]`` with entry
    ``entries[i]``, or in none when ``ids[i] == -1`` (its entry is then 0).
    So ``Z' v`` is one ``bincount`` and ``Z c`` one gather, both O(n) however
    many vectors there are; the dense ``n x count`` matrix is never built.
    """

    ids: np.ndarray
    entries: np.ndarray
    count: int

    @cached_property
    def _bins(self):
        # computed once per basis: bin 0 collects the vertices in no support
        return self.ids + 1

    @classmethod
    def empty(cls, n):
        return cls(ids=np.full(n, -1), entries=np.zeros(n), count=0)

    def coefficients(self, v):
        """``Z' v``."""
        return np.bincount(self._bins, weights=self.entries * v,
                           minlength=self.count + 1)[1:]

    def combine(self, c):
        """``Z c``."""
        # bin 0 picks the leading 0; its entry is 0 anyway
        padded = np.zeros(self.count + 1)
        padded[1:] = c
        return self.entries * padded[self._bins]


def _kernel_basis(labels, signs, d):
    # one unit vector per label >= 0, proportional to signs * D^1/2 on its
    # support; a degree-0 vertex is a singleton, so its vector is e_i.  A
    # label is the smallest vertex of its support, which carries its own
    # label, so these roots, ranked in index order, number the vectors
    on = labels >= 0
    roots = labels == np.arange(labels.size)
    ids = np.full(labels.shape, -1)
    ids[on] = (np.cumsum(roots) - 1)[labels[on]]
    count = int(np.count_nonzero(roots))
    entries = np.where(on, signs * np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    norms = np.sqrt(np.bincount(ids[on], weights=entries[on] ** 2, minlength=count))
    entries[on] /= norms[ids[on]]
    return KernelBasis(ids=ids, entries=entries, count=count)


def _components(row_ptr, col_idx):
    """Connected components of the symmetric graph with these CSR arrays, each
    vertex labeled by the smallest vertex of its component.

    Min-label hook and shortcut (FastSV: Zhang, Azad & Hu, SIAM PP 2020), in
    vectorized rounds over a parent array ``f``, with ``f[u] <= u``.  A round
    takes, for each vertex, the smallest grandparent ``f[f]`` over itself and
    its neighbors, and lowers both the vertex's parent and the vertex to it;
    as ``f[f] <= f``, that also shortcuts the vertex to its grandparent.  The
    labels are final once a round leaves ``f[f]`` unchanged.
    """
    heads = np.flatnonzero(np.diff(row_ptr))
    starts = row_ptr[heads]
    f = grand = np.arange(row_ptr.size - 1, dtype=row_ptr.dtype)
    while True:
        near = grand.copy()
        if heads.size:
            near[heads] = np.minimum(near[heads],
                                     np.minimum.reduceat(grand[col_idx], starts))
        parent, f = f, near.copy()
        np.minimum.at(f, parent, near)
        grand, old = f[f], grand
        if np.array_equal(grand, old):
            return grand


def pencil_kernels(g):
    """Kernel bases ``(of Lsym+, of Qsym-)``, as :class:`KernelBasis`.

    These are the eigenvectors of the :func:`shifted_pair` with eigenvalues
    ``eps1`` and ``eps2`` (see the module docstring).  The components of
    ``W+`` are labeled by :func:`_components` on ``W+``'s own arrays, and
    every bipartite component of ``W-`` on ``W-``'s double cover, the graph
    on ``2n`` vertices with edges ``(u, v + n)`` and ``(u + n, v)``: a
    component is bipartite exactly when ``u`` and ``u + n`` get different
    labels, and which of the two labels is smaller gives ``u``'s side.
    """
    n = g.n
    plus, minus = g.w_plus, g.w_minus
    kernel_a = _kernel_basis(_components(plus.row_ptr, plus.col_idx), 1.0,
                             plus.row_sums())
    idx = _index_dtype(2 * n, 2 * minus.nnz)
    ptr = minus.row_ptr.astype(idx, copy=False)
    cols = minus.col_idx.astype(idx, copy=False)
    # cover row u holds W-'s row u shifted to cover columns n..2n-1, cover
    # row u + n holds it unshifted
    lab = _components(np.concatenate([ptr, ptr[1:] + minus.nnz]),
                      np.concatenate([cols + n, cols]))
    lo, hi = lab[:n], lab[n:]
    kernel_b = _kernel_basis(np.where(lo != hi, np.minimum(lo, hi), -1),
                             np.where(lo < hi, 1.0, -1.0), minus.row_sums())
    return kernel_a, kernel_b


_EDGE_COLUMNS = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _scan_edge_lines(path):
    # the line-by-line reader: slow, but it names the first bad line, and it
    # parses as Python does (underscores in numbers, Unicode digits, lone
    # carriage returns), which numpy's reader rejects
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise EdgeListParseError(
                    f"expected 'i j w', got {len(parts)} fields", line_no
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2])
            except ValueError as exc:
                raise EdgeListParseError(str(exc), line_no) from None
            if not np.isfinite(w):
                raise EdgeListParseError(f"non-finite weight {parts[2]!r}", line_no)
            if i < 0 or j < 0:
                raise EdgeListParseError("negative vertex index", line_no)
            if max(i, j) > np.iinfo(np.int64).max:
                raise EdgeListParseError("vertex index above 2**63 - 1", line_no)
            edges.append((i, j, w))
    return np.array(edges, dtype=_EDGE_COLUMNS, ndmin=1)


def _read_edge_columns(path):
    """The edge list's three columns, from one numpy parse; a file that parse
    rejects, or whose arrays fail a check, is re-read by the line scanner,
    which raises :class:`EdgeListParseError` at the first bad line."""
    try:
        with warnings.catch_warnings():
            # an empty file, or an index numpy would read through a float
            # (older numpy warns), goes to the line scanner too
            warnings.simplefilter("error")
            edges = np.loadtxt(path, dtype=_EDGE_COLUMNS, comments="#",
                               ndmin=1, encoding="utf-8")
    except (ValueError, Warning):
        return _scan_edge_lines(path)
    if not (np.isfinite(edges["w"]).all() and (edges["i"] >= 0).all()
            and (edges["j"] >= 0).all()):
        return _scan_edge_lines(path)
    return edges


def load_edge_list(path):
    """Read a signed graph from a text edge list.

    Each non-comment line is ``i j w`` with 0-based vertex indices and a
    finite weight; positive weights go to the positive graph, negative ones
    (by magnitude) to the negative graph.  Duplicate undirected edges are
    summed, in file order; self loops are dropped (a single warning reports
    how many).  The vertex count is one more than the largest index of an
    edge that is not a self loop.
    """
    edges = _read_edge_columns(path)
    i, j, w = edges["i"], edges["j"], edges["w"]
    loops = i == j
    dropped = int(np.count_nonzero(loops))
    if dropped:
        warnings.warn(f"dropped {dropped} self loop(s) from {path}", stacklevel=2)
        i, j, w = i[~loops], j[~loops], w[~loops]
    n = int(max(i.max(initial=-1), j.max(initial=-1))) + 1
    if n == 0:
        raise ValueError("edge list is empty")
    pos, neg = w > 0.0, w < 0.0
    return SignedGraph(
        w_plus=SparseSymMatrix.from_undirected_edges(n, i[pos], j[pos], w[pos]),
        w_minus=SparseSymMatrix.from_undirected_edges(n, i[neg], j[neg], -w[neg]),
    )
