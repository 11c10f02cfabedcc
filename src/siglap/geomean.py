"""Matrix-free eigensolver for the geometric mean of two sparse SPD matrices.

For SPD ``A`` and ``B``, the geometric mean ``A # B`` is dense even when both
operands are sparse, so it is never formed.  Instead:

* ``(A # B)^-1 x`` factors as ``(A^-1 B)^-1/2 (A^-1 x)``, an inner sparse
  solve followed by an inverse-square-root application;
* ``(A^-1 B)^-1/2 y`` is approximated in an extended Krylov subspace
  ``span{y, My, M^-1 y, M^2 y, ...}`` of ``M = A^-1 B``, built with the inner
  product ``<u, v> = u' A v`` so the projected matrix is simply ``V' B V``.
  It grows until the distance of its approximant to the limit, extrapolated
  from the last two differences of successive approximants, meets the
  tolerance or, at small shifts, until the approximants stop improving at the
  floor that rounding sets;
* the smallest eigenpairs of ``A # B``, the largest of ``(A # B)^-1``, come
  from thick-restart Lanczos (Wu & Simon, SIMAX 22(2), 2000) on that inexact
  inverse (Simoncini, SINUM 43(3), 2005).  It keeps each basis vector's
  image next to it, so every Ritz pair's residual comes without a product.
  It starts from the pencil's kernels, for a signed graph those of
  ``Lsym+`` (one vector per component of ``W+``) and ``Qsym-`` (one per
  bipartite component of ``W-``), plus ``KERNEL_START_NOISE`` of a seeded
  Gaussian.  On them ``A # B`` has eigenvalues of order ``sqrt(eps)``, far
  below the rest of its spectrum, so in the paper's noise-free regimes the
  smallest eigenvectors lie near them, and a random start would spend its
  first applications finding them.  The Gaussian part reaches the sought
  eigenvectors the kernels miss: where ``W+`` is regular and ``W-`` empty,
  the kernel sum is the first eigenvector and orthogonal to all others.

Every eigensolve takes one tolerance ``tol``, at which it accepts its
pairs, and every solve it makes runs at ``_step_tol(tol)``:
``INNER_RATIO * tol``, never tighter than ``TOL_FLOOR`` (inexact inverse
iteration, Golub & Ye, BIT 40(4), 2000; Berns-Müller, Graham & Spence,
LAA 416, 2006).  On the pencil that is every ``inv_apply(x, rtol)`` and
Lanczos' own stop test; ``rtol`` holds for the solve with ``A`` and the
Krylov inverse square root.  That method solves its first chain vectors at
``rtol`` too and the later ones, which only widen its space, at
``rtol / delta`` for the last difference ``delta`` of its approximants, up
to ``sqrt(rtol)`` (see :func:`eksm_apply_inv_sqrt`).  Each pair's value is
Lanczos' Ritz value, and its residual an estimate built from the Ritz
residual Lanczos already holds and the step tolerance, with no application
of ``A # B``; :func:`apply_geometric_mean` measures a pair where a caller
needs it.  The Ritz value carries the applications' error to first order:
at a step tolerance of 1e-6 it stayed within 6e-7 relative of the dense
oracle on every graph measured.  On a single matrix ``rtol`` is the CG
tolerance, and the pairs come from one Rayleigh-Ritz step on the span of
the inverse iteration's vectors, their values and residuals measured with
products.

Every inner system of the pencil is solved exactly on known eigenvectors,
for a signed graph the kernels of ``Lsym+`` and ``Qsym-`` whose shifts
``eps1`` and ``eps2`` make ``A`` and ``B`` ill conditioned, and by deflated,
unpreconditioned CG (Saad, Yeung, Erhel & Guyomarc'h, SISC 21(5), 2000) on
their complement, in as many iterations whatever the shifts.  Jacobi would
only scale by ``1 / (1 + eps)``; IC(0)'s pure-Python solves cost more than
they save.

:func:`smallest_k_eigenpairs` (the pencil) runs Lanczos;
:func:`matrix_smallest_k_eigenpairs` (one sparse symmetric matrix, the
explicit operators of the clustering front end) still runs sequential
deflated inverse iteration with IC(0) preconditioned inner solves, then
that Rayleigh-Ritz step.
"""

from dataclasses import dataclass

import numpy as np

from ._util import as_seed_sequence
from .errors import ConvergenceError, IndefiniteOperatorError
from .graphs import KernelBasis
from .pcg import pcg_solve
from .precond import incomplete_cholesky

DEFAULT_EKSM_TOL = 1e-10
# no solve is asked for more than this relative accuracy, which float64
# rounding can still deliver
TOL_FLOOR = 1e-14
DEFAULT_IPM_TOL = 1e-8
# Lanczos restarts of one eigensolve before a ConvergenceError
MAX_OUTER = 500
# steps of one pair's inverse iteration before a ConvergenceError: inside a
# cluster of relative spread d a pair needs about ln(d / tol) / d,
# at most 1 / (e tol) = 3.7e3 at tol = 1e-4 (767 at d = 5e-3 on a kNN graph)
MAX_INVERSE_STEPS = 5000
# extended Krylov steps of one application before a ConvergenceError
MAX_EKSM_STEPS = 60
# a_orthonormalize reports breakdown once a vector keeps less than this
# fraction of its A-norm after projection
BREAKDOWN_RTOL = 1e-12
# basis vectors eksm_apply_inv_sqrt makes room for before its buffer first
# doubles
BASIS_CAPACITY = 16
# diagonal shift that makes a positive semidefinite matrix definite for the
# inner solves of matrix_smallest_k_eigenpairs
MATRIX_SHIFT = 1e-6
# every solve of an eigensolve runs at this share of its tolerance: the
# outer iteration cannot settle below its inner solves' accuracy
INNER_RATIO = 1e-2
# eksm_apply_inv_sqrt stops once MARGIN times the extrapolated error of its
# approximant meets the tolerance; the margin covers the contraction ratio
# growing between steps (up to 2.5x before a stop on n = 80 two-cluster
# pencils, where a margin of 2 let one error in 120 reach 1.2 tol)
MARGIN = 4.0
# weight of the seeded Gaussian, relative to the kernel sum, in the start
# vector smallest_k_eigenpairs gives Lanczos: on 60 n = 80 two-cluster graphs
# the last application's largest relative Lanczos residual read up to 9.2e-8
# at 1e-2, 11x under the 1e-6 stop, but 9.2e-7 at 1e-1
KERNEL_START_NOISE = 1e-2


class PencilOperator:
    """Immutable SPD operator pair whose inner solves are deflated.

    ``kernels`` is a pair of :class:`~siglap.graphs.KernelBasis`, eigenvectors
    of ``A`` and of ``B`` (default: none).  ``solve_a`` splits the right-hand
    side ``r`` into ``Z Z' r``, solved exactly as ``Z diag(lambda)^-1 Z' r``,
    and the rest, solved by unpreconditioned CG; likewise ``solve_b``.  The
    eigenvalues ``lambda`` are the Rayleigh quotients of the basis vectors,
    so the same code serves any shifts, and an empty basis is plain CG.
    ``tol`` is the relative CG tolerance of each solve.

    ``norm_bound`` is an upper bound on ``||A # B||``, which
    :func:`smallest_k_eigenpairs` turns into residual estimates.  ``A # B``
    is monotone in each operand, so it is ``sqrt(||A|| ||B||)``, with each
    norm bounded by the operand's largest absolute row sum.  On two-cluster
    graphs that reads 2.14 at n = 80 and 2.36 at n = 1e4, against the
    ``2 + eps`` that ``||Lsym+||, ||Qsym-|| <= 2`` give; where ``W-`` is
    empty it is far below.
    """

    def __init__(self, a, b, kernels=None):
        if a.n != b.n:
            raise ValueError("operator pair must share the vertex set")
        self.a = a
        self.b = b
        self.norm_bound = float(np.sqrt(np.max(a.abs_row_sums(), initial=0.0)
                                        * np.max(b.abs_row_sums(), initial=0.0)))
        self.kernel_a, self.kernel_b = kernels or (KernelBasis.empty(a.n),
                                                   KernelBasis.empty(a.n))
        self._values_a = _kernel_values(a, self.kernel_a)
        self._values_b = _kernel_values(b, self.kernel_b)

    @property
    def n(self):
        return self.a.n

    def apply_a(self, x):
        return self.a.matvec(x)

    def apply_b(self, x):
        return self.b.matvec(x)

    def solve_a(self, rhs, tol):
        return _deflated_solve(self.a, self.kernel_a, self._values_a, rhs, tol)

    def solve_b(self, rhs, tol):
        return _deflated_solve(self.b, self.kernel_b, self._values_b, rhs, tol)


def _kernel_values(m, kernel):
    # the supports are disjoint, so one product with the sum of the basis
    # vectors gives every Rayleigh quotient
    values = kernel.coefficients(m.matvec(kernel.entries))
    if np.any(values <= 0.0):
        raise IndefiniteOperatorError("kernel basis has a non-positive Rayleigh quotient")
    return values


def _deflated_solve(m, kernel, values, rhs, tol):
    # m maps the complement of the basis's span to itself, so CG there never
    # meets the small eigenvalues, and the span is solved exactly
    c = kernel.coefficients(rhs)
    x = pcg_solve(m, rhs - kernel.combine(c), tol=tol)[0]
    x += kernel.combine(c / values)
    return x


def a_orthonormalize(basis, w, apply_a, a_basis):
    """Orthonormalize ``w`` against ``basis`` in the ``<u, v> = u' A v`` product.

    ``basis`` (``n x m``, ``m`` may be 0) must already be A-orthonormal, and
    ``a_basis`` is ``A @ basis``.
    Uses two Gram-Schmidt passes (full reorthogonalization) and one product
    with ``A``, of the projected vector ``p``.  Returns ``(q, A @ q)`` with
    ``q' A q = 1``, or ``None`` when ``p`` keeps less than a fraction
    ``BREAKDOWN_RTOL`` of the A-norm of ``w``, i.e. ``w`` lies in the span and
    an invariant subspace has been found.  That A-norm is
    ``sqrt(||c||^2 + p' A p)`` for the projection coefficients ``c``, so it
    needs no product of its own.
    """
    w = np.array(w, dtype=np.float64)
    c = np.zeros(basis.shape[1])
    for _ in range(2):
        proj = a_basis.T @ w
        w -= basis @ proj
        c += proj
    removed_sq = float(c @ c)

    aw = apply_a(w)
    s = float(w @ aw)
    if s < 0.0:
        raise IndefiniteOperatorError("inner-product operator is not positive definite")
    nrm = np.sqrt(s)
    full = np.sqrt(removed_sq + s)
    if full == 0.0 or nrm < BREAKDOWN_RTOL * full:
        return None
    return w / nrm, aw / nrm


@dataclass
class EksmResult:
    """Converged extended Krylov approximant and the rule that stopped it.

    ``stop`` is ``"tol"`` (the successive difference, or the error
    extrapolated from it, reached ``tol``), ``"floor"`` (it stalled at the
    rounding floor, see :func:`eksm_apply_inv_sqrt`) or ``"invariant"`` (both
    chains closed on an invariant subspace).  ``delta`` is the last measured
    relative A-norm difference of successive approximants, ``nan`` if the
    subspace closed before a second approximant existed; it exceeds ``tol``
    when the extrapolated error stopped the run.  ``basis`` holds the
    A-orthonormal basis the iteration built, as columns, and ``projected``
    its projected matrix ``basis' B basis``.
    """

    x: np.ndarray
    s: int
    delta: float
    stop: str
    basis: np.ndarray
    projected: np.ndarray


def _projected_inv_sqrt_e1(h, scale):
    # The eigenvalues of h spread like those of M, over about
    # 4 / (eps1 eps2) for a signed graph's shifted pair, and the small ones
    # dominate h^-1/2.  An eigensolve of h gets an eigenvalue lam to about
    # u ||h||; the singular values sigma of its Cholesky factor
    # (h = L L' = U diag(sigma)^2 U') get it to about u sqrt(||h|| lam),
    # sqrt(cond(h)) times closer for the smallest.
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise IndefiniteOperatorError(
            "projected matrix is not positive definite in floating point "
            f"(Cholesky fails; smallest eigenvalue {np.linalg.eigvalsh(h)[0]:.3e}): "
            "the operator pair is indefinite or too ill conditioned"
        ) from None
    u, sigma, _ = np.linalg.svd(chol)
    return u @ ((u[0, :] / sigma) * scale)


def eksm_apply_inv_sqrt(pencil, y, tol=DEFAULT_EKSM_TOL):
    """Approximate ``(A^-1 B)^-1/2 y`` in an extended Krylov subspace.

    Each iteration appends (up to) two A-orthonormal basis vectors, one from
    the ``M``-power chain and one from the ``M^-1`` chain, then evaluates the
    inverse square root of the projected matrix.  Three rules stop it, and
    :attr:`EksmResult.stop` names the one that did:

    * ``"tol"``: the relative A-norm difference ``delta`` of successive
      approximants drops to ``tol``, or the current approximant's distance
      to the limit, extrapolated, does.  Extended Krylov converges
      superlinearly (Knizhnerman & Simoncini, NLAA 17(4), 2010), by about
      200x per step on signed-graph pencils, so with ``rho = delta / last``
      for the previous step's ``last``, the geometric tail
      ``delta rho / (1 - rho)`` bounds that distance, and the step that
      would confirm ``delta <= tol`` is skipped once
      ``MARGIN * delta rho / (1 - rho) <= tol`` with ``rho < 1``.
      ``MARGIN`` covers the ratio growing from one step to the next;
    * ``"floor"``: ``delta`` has been at most ``sqrt(tol)`` for two steps and
      then fails to halve.  The approximant before that step is returned.
      Rounding, amplified by the spread of the spectrum of ``M`` (about
      ``4 / (eps1 eps2)`` for the shifted pair of a signed graph), stops the
      approximants improving at a floor that can lie above ``tol`` at small
      shifts (on n = 80 two-cluster graphs, 2e-8 relative in
      ``x' (A # B) x`` at shifts of 1e-6).  Past it, steps only add noise;
    * ``"invariant"``: both chains close on an invariant subspace, where the
      approximant is exact.

    Each step solves one new vector per chain with ``B`` (the ``M^-1``
    chain) or ``A`` (the ``M`` chain).  The solves made before two
    approximants exist, ``y``'s and the first step's, run at ``tol`` too,
    but never below ``TOL_FLOOR``.  A chain vector only widens the subspace,
    and the approximant is projected onto whatever subspace it gets with
    exact products, so once successive approximants differ by ``delta`` the
    next solves run at ``max(tol, TOL_FLOOR, min(sqrt(tol), tol / delta))``:
    looser the more the approximants have settled (Simoncini & Szyld, SISC
    25(2), 2003).  On n = 80 two-cluster graphs that cut the CG iterations
    of a GM call from 312 to 260.  ``tol = 0`` turns off the first two rules
    only, and solves at ``TOL_FLOOR`` throughout.

    The basis, ``A`` times it and ``B`` times it share one ``3 x cap x n``
    buffer, whose capacity starts at ``BASIS_CAPACITY`` and doubles (up to
    ``n``) when full; :attr:`EksmResult.basis` is an ``n x m`` view of it.
    Each basis vector costs one product with ``A`` (``y``'s is the one its
    A-norm takes) and one with ``B``.

    Raises :class:`ConvergenceError` after ``MAX_EKSM_STEPS`` iterations
    (the last iterate and gap travel with the exception) and
    :class:`IndefiniteOperatorError` if the projected matrix loses positive
    definiteness.
    """
    y = np.asarray(y, dtype=np.float64)
    n = pencil.n
    if y.shape != (n,):
        raise ValueError(f"expected vector of length {n}")
    ay = pencil.apply_a(y)
    y_anorm = float(y @ ay)
    if y_anorm <= 0.0:
        raise ValueError("y must be nonzero")
    y_anorm = np.sqrt(y_anorm)
    solve_tol = max(tol, TOL_FLOOR)

    # rows of buf[0], buf[1], buf[2]: basis, A basis, B basis.  The first is
    # y, normalized as a_orthonormalize would, without its product with A
    buf = np.empty((3, min(n, BASIS_CAPACITY), n))
    buf[0, 0] = y / y_anorm
    buf[1, 0] = ay / y_anorm
    buf[2, 0] = pencil.apply_b(buf[0, 0])
    m = 1
    u = None  # y is in already; each step then sets the next M-chain vector
    v = pencil.solve_b(ay, solve_tol)
    u_idx = 0
    u_alive = v_alive = True
    prev_coef = None
    coef = None
    last = delta = np.nan
    floor_level = np.sqrt(tol)
    stop = None

    def append(w):
        nonlocal buf, m
        if m >= n:
            return None
        res = a_orthonormalize(buf[0, :m].T, w, pencil.apply_a, buf[1, :m].T)
        if res is None:
            return None
        if m == buf.shape[1]:
            grown = np.empty((3, min(n, 2 * m), n))
            grown[:, :m] = buf[:, :m]
            buf = grown
        buf[0, m], buf[1, m] = res
        buf[2, m] = pencil.apply_b(res[0])
        m += 1
        return m - 1

    s = 0
    for s in range(1, MAX_EKSM_STEPS + 1):
        if u_alive and u is not None:
            u_idx = append(u)
            u_alive = u_idx is not None
        if v_alive:
            v_idx = append(v)
            v_alive = v_idx is not None

        if not u_alive and not v_alive:
            # nothing was appended: the last approximant is final
            stop = "invariant"
            break
        h = buf[0, :m] @ buf[2, :m].T
        h = 0.5 * (h + h.T)
        coef = _projected_inv_sqrt_e1(h, y_anorm)
        if prev_coef is not None:
            diff = coef.copy()
            diff[: prev_coef.shape[0]] -= prev_coef
            older, last = last, delta
            delta = float(np.linalg.norm(diff) / np.linalg.norm(prev_coef))
            # MARGIN * delta * rho / (1 - rho) <= tol with rho = delta / last,
            # multiplied out so that a first step (last = nan) or growth
            # (rho >= 1) fails it
            if delta <= tol or MARGIN * delta * delta <= tol * (last - delta):
                stop = "tol"
            elif (older <= floor_level and last <= floor_level
                  and delta > 0.5 * last):
                # the previous approximant had settled; this step only
                # added rounding noise, so that approximant is kept
                stop = "floor"
                coef = prev_coef
        if stop is not None:
            break
        prev_coef = coef
        # a chain vector only widens the space, so it need not be accurate
        # once the approximants settle (Simoncini & Szyld, SISC 25(2), 2003)
        chain_tol = (solve_tol if np.isnan(delta)
                     else max(solve_tol, min(floor_level, tol / delta)))
        if u_alive:
            u = pencil.solve_a(buf[2, u_idx], chain_tol)
        if v_alive:
            v = pencil.solve_b(buf[1, v_idx], chain_tol)

    x = coef @ buf[0, :coef.shape[0]]
    if stop is None:
        raise ConvergenceError(
            f"extended Krylov iteration did not reach tol={tol:g} or its "
            f"floor within {MAX_EKSM_STEPS} iterations (last gap {delta:.3e})",
            iterate=x, residual=delta, iterations=s)
    return EksmResult(x=x, s=s, delta=delta, stop=stop, basis=buf[0, :m].T,
                      projected=h)


def apply_geometric_mean(pencil, x, tol=DEFAULT_EKSM_TOL):
    """Matrix-free application ``(A # B) x = B (A^-1 B)^-1/2 x``."""
    return pencil.apply_b(eksm_apply_inv_sqrt(pencil, x, tol=tol).x)


@dataclass
class EigenPair:
    """Computed eigenpair with its achieved residual, measured or
    estimated, never assumed.

    For a single matrix, the pair is a Ritz pair of the span of the ``k``
    inverse-iteration vectors: ``value`` is its Ritz value, which is an
    eigenvalue to second order in the vectors' error even where they still
    rotate inside a cluster, and ``residual`` is measured from the products
    of that span.  For the pencil, ``value`` is ``1 / theta`` for Lanczos'
    Ritz value ``theta`` of ``(A # B)^-1``, and ``residual`` is the estimate
    ``norm_bound (||r|| + e) / theta`` of ``||(A # B) x - value x||``.  Here
    ``r = y - theta x`` is the Ritz residual Lanczos holds for the image
    ``y`` of ``x``; it already holds the asymmetry that application errors
    leave inside the basis.  ``e = step_tol ||y||`` stands for the error
    ``d`` of ``y``, and ``norm_bound`` bounds ``||A # B||``
    (:class:`PencilOperator`).  As ``(A # B)^-1 x = theta x + r - d``, the
    estimate is a bound whenever ``||d|| <= e``, which nothing guarantees:
    ``y`` combines several applications, restarts carry their errors, and a
    CG residual tolerance bounds an error only up to the condition number.
    Tracking each application's ``step_tol ||y_i||`` through the restarts
    would make it a bound under that tolerance alone, but read 3.6e-4 for a
    pair of a 12-vertex two-clique graph whose residual is 2e-12.  On every
    graph measured, the estimate was at least 4 times the dense residual.
    ``iterations`` counts applications of the inverse: for the pencil, all
    those of the call; for a single matrix, those of the i-th inverse
    iteration for the i-th pair, so their sum is the call's.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


def _inverse_iteration(inv_apply, deflate, tol, seed):
    """Inverse power iteration orthogonal to the Euclidean-orthonormal columns
    of ``deflate``; returns the unit iterate and the number of steps.

    Each step applies ``inv_apply`` at ``_step_tol(tol)``, and the iteration
    stops once the backward error ``||y - (x.y) x|| / ||y||`` of the
    deflated inverse is at most ``tol``: ``sin phi`` for the angle ``phi``
    between ``x`` and its successor ``y / ||y||``, whose sign is aligned
    with ``x``.  Inside a cluster of nearly equal eigenvalues that error
    falls slowly (see ``MAX_INVERSE_STEPS``); a vector accepted before it
    fell held eigenvalues up to 1e-1 off.
    """
    step_tol = _step_tol(tol)

    x = np.random.default_rng(seed).standard_normal(deflate.shape[0])
    if deflate.shape[1]:
        x -= deflate @ (deflate.T @ x)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ValueError("start vector lies in the deflation space")
    x /= nx

    for k in range(1, MAX_INVERSE_STEPS + 1):
        y = inv_apply(x, step_tol)
        if deflate.shape[1]:
            y -= deflate @ (deflate.T @ y)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise IndefiniteOperatorError(
                "inverse application vanished on the deflated subspace"
            )
        backward = float(np.linalg.norm(y - float(y @ x) * x) / ny)
        x_new = y / ny
        if float(x_new @ x) < 0.0:
            x_new = -x_new
        x = x_new
        if backward <= tol:
            return x, k

    raise ConvergenceError(
        f"inverse power iteration did not converge in {MAX_INVERSE_STEPS} "
        f"steps (last backward error {backward:.3e})",
        iterate=x,
        residual=backward,
        iterations=MAX_INVERSE_STEPS,
    )


def _step_tol(tol):
    # a step of a call that accepts at tol need only be solved to a small
    # share of it
    return max(TOL_FLOOR, INNER_RATIO * tol)


def _check_request(n, k, tol):
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not 0.0 < tol < 1.0:  # NaN fails too
        raise ValueError(f"tol must be in (0, 1), got {tol}")


def _measured_pair(x, ax, iterations):
    # the value is the Rayleigh quotient x' ax, the residual
    # ||ax - value x|| is measured from the same product
    value = float(x @ ax)
    residual = float(np.linalg.norm(ax - value * x))
    return EigenPair(value=value, vector=x, residual=residual,
                     iterations=iterations)


def _project_out(basis, w):
    # w without its components along the orthonormal rows of basis, in two
    # passes (full reorthogonalization), and whether w lay in their span
    nw = np.linalg.norm(w)
    for _ in range(2):
        w = w - (basis @ w) @ basis
    return w, bool(np.linalg.norm(w) <= BREAKDOWN_RTOL * nw)


def _lanczos_smallest(inv_apply, n, k, tol, seed, start=None):
    """The ``k`` largest Ritz pairs of ``inv_apply``, an inexactly applied
    symmetric operator, by thick-restart Lanczos (Wu & Simon, SIMAX 22(2),
    2000).

    The basis ``V`` (orthonormal rows, fully reorthogonalized) and its
    images ``Y = inv_apply(V)`` at ``step_tol = _step_tol(tol)`` are kept
    side by side, ``ncv = min(n, 2k + 1)`` rows each.  After every
    application the Ritz pairs ``(theta, x = V' c)`` of ``sym(V Y')`` give
    each pair's residual ``r = Y' c - theta x`` without a product.  The run
    stops once the part of ``r`` outside the basis, the Lanczos residual, is
    at most ``step_tol theta`` for all ``k`` pairs, or once the basis spans
    the space; the part inside it comes from the applications' errors, which
    further steps do not reduce.  A full basis restarts on its
    ``k + (ncv - k) // 2`` leading Ritz vectors and their images ``Y' c``,
    and goes on from the direction the Lanczos recurrence would add next.
    Where that direction lies in the basis (an invariant subspace, which may
    hide a multiple eigenvalue) a random one replaces it, and the test waits
    for a full basis.  Those random ones come from ``seed``, and so does the
    start vector: a Gaussian ``g``, or ``start + KERNEL_START_NOISE g / ||g||``
    when a ``start`` is given.  The Gaussian part gives the start a
    component along every eigenvector, also where ``start`` is orthogonal to
    all sought eigenvectors but one.

    Returns ``(theta, x, r_norm, yc_norm, applications)``: the ``k`` largest
    Ritz values in descending order, their vectors as rows, the norms
    ``||r||`` and ``||Y' c||`` of each, and the number of applications.
    What they mean for the operator ``inv_apply`` inverts is the caller's
    to say.  ``MAX_OUTER`` restarts without convergence raise
    :class:`ConvergenceError` with the Ritz vectors, as columns, as
    ``iterate``; errors of ``inv_apply`` pass through.
    """
    _check_request(n, k, tol)
    step_tol = _step_tol(tol)
    rng = np.random.default_rng(as_seed_sequence(seed))
    ncv = min(n, 2 * k + 1)
    basis = np.empty((ncv, n))
    images = np.empty((ncv, n))
    m = applications = restarts = 0
    w, invariant = rng.standard_normal(n), False
    if start is not None:
        w = start + KERNEL_START_NOISE * w / np.linalg.norm(w)
    while True:
        basis[m] = w / np.linalg.norm(w)
        images[m] = inv_apply(basis[m], step_tol)
        applications += 1
        m += 1
        w, invariant = _project_out(basis[:m], images[m - 1])
        if m >= k:
            h = basis[:m] @ images[:m].T
            ritz, c = np.linalg.eigh(0.5 * (h + h.T))
            # Ritz pairs in descending order; the first k are the ones sought
            theta, c = ritz[::-1][:k], c[:, ::-1]
            x, yc = c[:, :k].T @ basis[:m], c[:, :k].T @ images[:m]
            r = yc - theta[:, None] * x
            beyond = np.linalg.norm(r - (r @ basis[:m].T) @ basis[:m], axis=1)
            if m == n or (np.all(beyond <= step_tol * theta)
                          and (m == ncv or not invariant)):
                break
        if m == ncv:
            if restarts == MAX_OUTER:
                raise ConvergenceError(
                    f"Lanczos did not converge {k} pairs within {MAX_OUTER} "
                    f"restarts (largest relative residual "
                    f"{np.max(beyond / theta):.3e})",
                    iterate=x.T, residual=float(np.max(beyond)),
                    iterations=applications)
            # Wu & Simon keep more Ritz pairs than are sought: on 30 random
            # block models, keeping k + (ncv - k) // 2 rather than k took
            # 546 applications instead of 639, and 64 instead of 141 where
            # the k-th and next eigenvalues lay 0.2% apart
            m = k + (ncv - k) // 2
            basis[:m], images[:m] = c[:, :m].T @ basis, c[:, :m].T @ images
            restarts += 1
        while invariant:
            w, invariant = _project_out(basis[:m], rng.standard_normal(n))
    return (theta, x, np.linalg.norm(r, axis=1), np.linalg.norm(yc, axis=1),
            applications)


def smallest_k_eigenpairs(pencil, k, tol=DEFAULT_IPM_TOL, seed=0):
    """The ``k`` smallest eigenpairs of ``A # B``, by Lanczos on its inverse.

    ``(A # B)^-1`` is a solve with ``A``, then the Krylov inverse square
    root; ``MAX_OUTER`` caps Lanczos restarts.  Each pair is ``1 / theta``
    for a Ritz value ``theta`` of the inverse, with the residual estimate
    ``pencil.norm_bound (||r|| + step_tol ||Y' c||) / theta`` (see
    :class:`EigenPair`), smallest first.

    Lanczos starts from the sum of the pencil's kernel bases, each scaled to
    unit norm, plus a little of the seeded Gaussian (see
    :func:`_lanczos_smallest`).  On those kernels ``A # B`` has eigenvalues
    of order ``sqrt(eps)``, and for a signed graph the smallest eigenvectors
    lie near them, so a random start spends its first applications finding
    them again: on n = 80 two-cluster graphs a call at ``tol = 1e-4`` takes
    4 applications from this start and 5 from a random one.
    """
    def inv_apply(x, rtol):
        return eksm_apply_inv_sqrt(pencil, pencil.solve_a(x, rtol), tol=rtol).x

    # each basis's entries are the sum of its unit vectors, which have
    # disjoint supports
    bases = [kernel.entries / np.linalg.norm(kernel.entries)
             for kernel in (pencil.kernel_a, pencil.kernel_b) if kernel.count]
    theta, x, r_norm, yc_norm, applications = _lanczos_smallest(
        inv_apply, pencil.n, k, tol, seed, start=sum(bases) if bases else None)
    bound = pencil.norm_bound * (r_norm + _step_tol(tol) * yc_norm) / theta
    return [EigenPair(value=float(1.0 / t), vector=v, residual=float(b),
                      iterations=applications)
            for t, v, b in zip(theta, x, bound)]


def matrix_smallest_k_eigenpairs(m, k, definite=True, tol=DEFAULT_IPM_TOL,
                                 seed=0):
    """The ``k`` smallest eigenpairs of one sparse symmetric matrix.

    Sequential deflated inverse iteration on ``m + sigma I`` with IC(0)
    preconditioned inner solves, each vector started from one child of
    ``seed``, then one Rayleigh-Ritz step: the ``k`` products ``m X`` of
    the vectors ``X``, the eigenpairs ``(theta, c)`` of ``sym(X' m X)``,
    and the pairs ``(theta, X c)``, ascending.  ``definite=True`` asserts
    ``m`` is positive semidefinite and uses ``sigma = MATRIX_SHIFT``;
    otherwise a Gershgorin bound raises the shift until the iteration
    matrix is strictly diagonally dominant.  IC(0) exists for the shifted
    SN, BN and AM operators (see :mod:`siglap.precond`); where it breaks
    down, this raises :class:`~siglap.errors.IndefiniteOperatorError`.
    Values and residuals refer to ``m`` itself, measured from the rotated
    products; each inverse-iteration vector is accepted at a backward error
    of ``tol`` (see :func:`_inverse_iteration`).
    """
    _check_request(m.n, k, tol)
    sigma = MATRIX_SHIFT
    if not definite:
        d = m.diagonal_vector()
        gersh = float(np.min(d - (m.abs_row_sums() - np.abs(d))))
        sigma += max(0.0, -gersh)
    shifted = m.add_diagonal(sigma)
    pc = incomplete_cholesky(shifted)

    def inv_apply(x, rtol):
        return pcg_solve(shifted, x, pc, tol=rtol)[0]

    basis = np.empty((m.n, 0))
    steps = []
    for child in as_seed_sequence(seed).spawn(k):
        x, iters = _inverse_iteration(inv_apply, basis, tol, child)
        basis = np.column_stack([basis, x])
        steps.append(iters)
    # one Rayleigh-Ritz step on the span of the k vectors: the Ritz values
    # come out ascending, and eigenvalues even where a vector still rotates
    # inside a cluster
    images = np.column_stack([m.matvec(x) for x in basis.T])
    h = basis.T @ images
    _, c = np.linalg.eigh(0.5 * (h + h.T))
    basis, images = basis @ c, images @ c
    return [_measured_pair(basis[:, i].copy(), images[:, i], iters)
            for i, iters in enumerate(steps)]
