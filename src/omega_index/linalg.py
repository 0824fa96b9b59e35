"""Dense matrix algebra over the complex or the real field.

Thin wrappers around numpy: adjoints, Hermitian eigendecomposition, the
inverse of a shifted Gram ``shift I + X* X`` through its Cholesky factor
(:func:`hpd_inverse`), a blocked triangular inverse, the blocks of a Hermitian
product on and below its diagonal (:func:`lower_product`), the operator norm,
Lanczos steps on a Hermitian operator with the extreme Ritz pair they give
(:func:`lanczos`, :func:`extreme_ritz`), a proved upper bound on a Hermitian
matrix's norm that takes no eigensolve, the norm of a Hermitian tridiagonal by
Sturm-count bisection, an O(n^2) hermiticity gate, the memory probe that
every dense path consults before it allocates (:func:`require_memory`), and a
scope that runs a block on one BLAS thread (:func:`serial_blas`).
Matrices are plain ``numpy.ndarray`` objects.  :func:`adjoint`,
:func:`operator_norm`, :func:`hermitian_eigen`, :func:`is_hermitian` and
:func:`hermiticity_defect` also take a stack ``(..., n, n)`` of matrices and
solve it in one numpy call per step, with every gate applied to each matrix on
its own; a norm, verdict or defect is then an array with one entry per matrix.
For a single matrix they keep its two-dimensional arithmetic and give it a
float or a bool, because the full-array Frobenius norm of their pre-tests
allocates nothing, where the per-matrix one allocates two n-by-n temporaries.
:func:`hpd_inverse` takes a stack too, with one shift or one per matrix.
Input from outside the program is coerced to ``complex128`` (:func:`as_matrix`),
while a real C and its factor stay ``float64``; :func:`adjoint`,
:func:`hermitian_eigenvalues` and :func:`hermitian_norm` work in the dtype they
are given.  Functions that take
matrices from outside the program validate the shape and hermiticity assumptions
the rest of the package relies on; :func:`hermitian_eigenvalues` and
:func:`hermitian_norm` take matrices that are Hermitian by construction, such as
the Gram products the certifier forms itself, and check nothing; so does
:func:`hermitian_norm_bound`.  :func:`hpd_inverse` forms a matrix that is
positive definite by construction and checks only that it is finite.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, InsufficientMemory, NonHermitianInput

#: relative tolerance for "is this matrix Hermitian" gates
HERMITIAN_TOL = 1e-10

#: relative margin on the thresholds of the Frobenius pre-test in
#: :func:`is_hermitian`; it is far above the rounding error of either norm, so
#: the pre-test never decides a case that rounding could flip
FROBENIUS_MARGIN = 1e-9

#: order below which :func:`lower_triangular_inverse` hands a block to ``np.linalg.inv``
TRIANGULAR_BASE = 128

#: order of the blocks of :func:`product_blocks`, in which the dense factor forms
#: its products: a multiple of the blocks in which OpenBLAS's real and complex
#: matrix products on AVX-512 x86 split their inner dimension (384 and 128
#: terms), so that a product that skips a zero block of a triangular factor adds
#: the same partial sums in the same order as the whole product
PRODUCT_BLOCK = 384

#: Lanczos steps behind the estimate that :func:`hermitian_norm_bound` proves
NORM_BOUND_STEPS = 40

#: largest relative slack that :func:`hermitian_norm_bound` puts on its estimate,
#: so the bound it returns is at most ``1 + NORM_BOUND_MAX_SLACK`` times the norm
NORM_BOUND_MAX_SLACK = 2.0**-4

#: (set, get) pairs of the thread-count functions that OpenBLAS builds export,
#: in the order :func:`serial_blas` looks for them: numpy's own wheel first
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a finite, two-dimensional complex128 array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DimensionMismatch("matrix entries must be finite")
    return m


def require_square(m: np.ndarray) -> np.ndarray:
    """``m``, once it is checked to be a square matrix or a stack of them."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class HermitianEigen:
    """Full spectrum of a Hermitian matrix.

    Attributes
    ----------
    values : ndarray
        Real eigenvalues, sorted ascending (along the last axis, for a stack).
    vectors : ndarray
        Unitary matrix whose columns are the matching orthonormal eigenvectors
        (one per matrix, for a stack).
        No phase convention is guaranteed; consumers should use counts and
        subspaces only.
    """

    values: np.ndarray
    vectors: np.ndarray


def _frobenius(m: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(m, axis=None if m.ndim == 2 else (-2, -1))


def hermiticity_defect(m: np.ndarray):
    """Return ``norm(m - adjoint(m))`` relative to ``norm(m)`` (0 for the zero matrix),
    for each matrix of a stack."""
    require_square(m)
    nm = operator_norm(m)
    skew = operator_norm(m - adjoint(m))
    defect = np.divide(skew, nm, out=np.zeros(np.shape(nm)), where=nm != 0.0)
    return float(defect) if m.ndim == 2 else defect


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL):
    """Decide ``hermiticity_defect(m) <= tol``, for most inputs in O(n^2); for a
    stack, one verdict per matrix.

    With s = ``norm(m - adjoint(m), 'fro')``, F = ``norm(m, 'fro')`` and n the
    order, the operator norms obey ``s/sqrt(n) <= norm(m - adjoint(m)) <= s`` and
    ``F/sqrt(n) <= norm(m) <= F``.  So ``s*sqrt(n) <= tol*F`` proves the defect is
    within ``tol`` and ``s > tol*F*sqrt(n)`` proves it is not; only inputs between
    the two thresholds pay for :func:`hermiticity_defect`.
    """
    require_square(m)
    skew = _frobenius(m - adjoint(m))
    frob = _frobenius(m)
    root_n = float(np.sqrt(m.shape[-1]))
    proven = skew * root_n <= tol * frob * (1.0 - FROBENIUS_MARGIN)
    refuted = skew > tol * frob * root_n * (1.0 + FROBENIUS_MARGIN)
    verdict = np.where(skew == 0.0, 0.0 <= tol, proven)
    undecided = (skew != 0.0) & ~proven & ~refuted
    if np.any(undecided):
        verdict[undecided] = hermiticity_defect(m[undecided]) <= tol
    return bool(verdict) if m.ndim == 2 else verdict


def hermitian_eigen(m: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a (numerically) Hermitian matrix, or of each matrix
    of a stack.

    The input is symmetrized via ``(m + adjoint(m)) / 2`` before decomposition;
    inputs whose asymmetry exceeds ``HERMITIAN_TOL`` relative to their norm are
    rejected rather than silently symmetrized.

    Raises
    ------
    NonHermitianInput
        If ``norm(m - adjoint(m)) > HERMITIAN_TOL * norm(m)`` for any matrix; the
        message gives the largest relative asymmetry.
    ConvergenceFailure
        If the underlying eigensolver does not converge.
    """
    require_square(m)
    if not np.all(is_hermitian(m)):
        raise NonHermitianInput(
            f"matrix is not Hermitian: relative asymmetry {np.max(hermiticity_defect(m)):.3e} "
            f"exceeds {HERMITIAN_TOL:.1e}"
        )
    try:
        values, vectors = np.linalg.eigh((m + adjoint(m)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    return HermitianEigen(values=values, vectors=vectors)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted ascending.

    Reads only the lower triangle and does not check hermiticity or symmetrize;
    callers pass matrices that are Hermitian by construction, such as a product
    ``x @ adjoint(x)``.  Input from outside the program goes through
    :func:`hermitian_eigen`, which gates it.

    Raises
    ------
    ConvergenceFailure
        If the underlying eigensolver does not converge.
    """
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(f"eigenvalue computation failed: {exc}") from exc


def operator_norm(m: np.ndarray):
    """Largest singular value, as the square root of the top eigenvalue of ``mᴴm``:
    a float for a matrix, an array with one per matrix for a stack.

    For Hermitian input this equals the largest absolute eigenvalue.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2:
        raise DimensionMismatch(f"expected a 2-d matrix or a stack of them, got ndim={m.ndim}")
    if m.size == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    try:
        top = np.linalg.eigvalsh(adjoint(m) @ m)[..., -1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(f"singular value computation failed: {exc}") from exc
    # where, not maximum: this keeps max(top, 0.0) for a -0.0 and a nan top too
    norms = np.sqrt(np.where(top < 0.0, 0.0, top))
    return float(norms) if m.ndim == 2 else norms


def hermitian_norm(m: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: the larger absolute value of its two
    extreme eigenvalues, with the contract of :func:`hermitian_eigenvalues`."""
    if m.size == 0:
        return 0.0
    values = hermitian_eigenvalues(m)
    # abs, not negation: the zero matrix must give 0.0, never -0.0
    return float(max(abs(values[0]), abs(values[-1])))


def _cholesky_rounding(lower: np.ndarray):
    """A bound on ``norm(L L* - h)`` for the computed Cholesky factor L of h, of each
    matrix of a stack: 2(n + 1) eps ``|L|^2``, n the order and ``|.|`` the
    Frobenius norm.

    Higham (*Accuracy and Stability of Numerical Algorithms*, Thm 10.3) gives
    ``|L L* - h| <= gamma_(n+1) |L| |L*|`` entrywise, with gamma_k = k u / (1 - k u)
    and u = eps / 2, and ``norm(|L| |L*|) <= |L|^2``.  Complex arithmetic raises
    the constant to about sqrt(2) gamma_(n+2), and one more rounding of each
    diagonal entry of h, as when h is formed by a shift, adds at most u of it; the
    bound stated, 4(n + 1) u, covers all of that.
    """
    n = lower.shape[-1]
    return 2.0 * (n + 1) * np.finfo(np.float64).eps * _frobenius(lower) ** 2


def hermitian_norm_bound(m: np.ndarray) -> float:
    """A proved upper bound on the operator norm of the Hermitian matrix ``m``, at
    most ``1 + NORM_BOUND_MAX_SLACK`` times that norm, with no eigensolve of ``m``.

    Write n for the order, eps for the machine epsilon and ``|.|`` for the
    Frobenius norm.  :data:`NORM_BOUND_STEPS` Lanczos steps with full
    reorthogonalization, from a fixed pseudo-random start vector, give theta, the
    largest modulus of a Ritz value, and r, the residual of its Ritz pair.  Ritz
    values lie in the numerical range, so theta does not exceed the norm (up to
    rounding), and some eigenvalue lies within r of that Ritz value.  For each
    sign s the Cholesky factor L of ``x I - s m`` at x = theta (1 + delta) then
    proves ``s m <= (x + c) I`` with c = :func:`_cholesky_rounding` of L =
    2(n + 1) eps ``|L|^2``: L L* equals ``x I - s m`` up to an error of norm at
    most c, the shift's rounding included.  So the norm is at most the larger of
    the two values x + c, each rounded up by one ulp, and that is returned.

    delta starts at the larger of r / theta and 4 n (n + 1) eps, the bound c at
    ``|L|^2 = 2 n theta``, enough for the factor to exist when theta is the
    norm.  For a side whose factor LAPACK refuses, delta grows eightfold, up to
    :data:`NORM_BOUND_MAX_SLACK`; a refusal means ``x I - s m`` is not safely
    positive definite, so x was below the norm to rounding and the next x stays
    within ``1 + NORM_BOUND_MAX_SLACK`` of it.  When n is at most the step count,
    the Krylov space is the whole space, or an invariant subspace that meets every
    eigenspace, since the start vector has a component along each; then theta is
    the norm to rounding, r is rounding too, and the bound exceeds the norm by
    about 8 n (n + 1) eps relatively.

    The Lanczos steps read all of ``m``, the factorizations only its lower
    triangle, so ``m`` must be Hermitian (as :func:`hermitian_norm` assumes); the
    zero matrix gives 0.0.  ``m`` must also be writable: each shifted matrix is
    formed in ``m`` itself, by an exact negation and a new diagonal, and ``m`` is
    restored bit for bit (its diagonal from a copy) before the function returns or
    raises.  So beside ``m`` only LAPACK's copy and one factor are alive at once.

    Raises
    ------
    ConvergenceFailure
        If a factor is still refused at delta = :data:`NORM_BOUND_MAX_SLACK`
        (or theta is 0 for a nonzero ``m``).
    """
    if not np.any(m):
        return 0.0
    n = m.shape[-1]
    theta, residual = _lanczos_estimate(m, NORM_BOUND_STEPS)
    # delta times theta, so that theta = 0 divides nothing
    floor = 4.0 * n * (n + 1) * np.finfo(np.float64).eps * theta
    cap = NORM_BOUND_MAX_SLACK * theta
    diagonal = m.diagonal().copy()
    index = np.diag_indices(n)
    negated = False
    bound = 0.0
    try:
        for sign in (1.0, -1.0):
            # off the diagonal, m now holds -sign times its entries
            np.negative(m, out=m)
            negated = not negated
            slack = min(max(residual, floor), cap)
            while True:
                x = theta + slack
                m[index] = x - sign * diagonal
                try:
                    lower = np.linalg.cholesky(m)
                    break
                except np.linalg.LinAlgError:
                    if slack >= cap:
                        raise ConvergenceFailure(
                            f"no norm bound within {NORM_BOUND_MAX_SLACK:g} of the Lanczos "
                            f"estimate {theta:.6g}: x I {'-' if sign > 0 else '+'} m is "
                            f"not positive definite at x = {x:.6g}"
                        ) from None
                    slack = min(8.0 * slack, cap)
            bound = max(bound, float(np.nextafter(x + _cholesky_rounding(lower), np.inf)))
            del lower
    finally:
        if negated:
            np.negative(m, out=m)
        m[index] = diagonal
    return bound


def lanczos(apply, n: int, dtype, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(basis, alpha, beta)`` of ``min(steps, n)`` Lanczos steps on the Hermitian
    operator ``apply``, which maps a vector of length n and the given dtype to its
    image.

    The start vector is a fixed draw of independent normals.  Each new vector is
    orthogonalized against all earlier ones twice (classical Gram-Schmidt), so the
    rows of ``basis`` stay orthonormal to rounding, and the tridiagonal T with
    diagonal ``alpha`` and off-diagonal ``beta[:-1]`` holds the operator's
    Rayleigh quotient on them; ``beta[-1]`` is the norm of the last step's
    residual.  An exact breakdown ends the steps early, with fewer rows.
    ``apply`` is called once for each row of ``basis``, in order.
    """
    k = min(steps, n)
    start = np.random.Generator(np.random.Philox([0])).standard_normal(n)
    basis = np.zeros((k, n), dtype=dtype)
    basis[0] = start / np.linalg.norm(start)
    alpha = np.zeros(k)
    beta = np.zeros(k)
    for j in range(k):
        w = apply(basis[j])
        alpha[j] = np.vdot(basis[j], w).real
        for _ in range(2):
            # the coefficients basis* w, conjugated twice so no copy of the basis is made
            w -= basis[: j + 1].T @ np.conj(basis[: j + 1] @ np.conj(w))
        beta[j] = np.linalg.norm(w)
        if j + 1 == k or beta[j] == 0.0:
            break
        basis[j + 1] = w / beta[j]
    return basis[: j + 1], alpha[: j + 1], beta[: j + 1]


def _lanczos_estimate(m: np.ndarray, steps: int) -> tuple[float, float]:
    """The norm of the tridiagonal T of :func:`lanczos` on ``m``, the largest
    modulus of a Ritz value, and the residual norm of that Ritz pair: the last
    coefficient beta times the last entry of its vector (:func:`extreme_ritz`)."""
    _, alpha, beta = lanczos(lambda x: m @ x, m.shape[-1], m.dtype, steps)
    theta, vector = extreme_ritz(alpha, beta)
    if theta == 0.0:
        return 0.0, float(beta[-1])
    return theta, float(beta[-1]) * float(abs(vector[-1]))


def extreme_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray | None]:
    """theta, the largest modulus of an eigenvalue of the real symmetric tridiagonal
    T with diagonal ``alpha`` and off-diagonal ``beta[:-1]`` (as :func:`lanczos`
    returns them), which is its norm, and the unit eigenvector of T for it
    (None when theta is 0).

    Three steps of inverse iteration from the first unit vector run at each shift
    +-theta (1 + 2^-40), just outside the spectrum, where ``T - shift I`` is
    nonsingular; the vector whose Rayleigh quotient is the larger in modulus is
    that eigenvalue's.  Each step gains the ratio of the spectral gap to the
    shift's distance, about 2^40 times the gap over theta, so even a last entry
    near 1e-20 is resolved.  LU solves, not an eigensolver: LAPACK's symmetric
    eigensolvers leave workspace resident for the rest of the process.
    """
    theta = tridiagonal_norm(alpha, beta[:-1] ** 2)
    if theta == 0.0:
        return 0.0, None
    t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    nearest = (-1.0, 0.0, None)
    for shift in (theta, -theta):
        shifted = t - shift * (1.0 + 2.0**-40) * np.eye(len(t))
        v = np.eye(len(t))[0]
        for _ in range(3):
            v = np.linalg.solve(shifted, v)
            v /= np.linalg.norm(v)
        nearest = max(nearest, (abs(v @ t @ v), float(abs(v[-1])), v), key=lambda c: c[:2])
    return theta, nearest[2]


def tridiagonal_norm(diagonal: np.ndarray, off2: np.ndarray) -> float:
    """The operator norm of the Hermitian tridiagonal T with real ``diagonal`` and
    squared off-diagonal moduli ``off2``, as the upper end of a bisection bracket.

    The bracket [lo, hi] on the largest absolute eigenvalue starts at [0, r], r
    the largest Gershgorin row sum, and halves until no float lies inside it.
    The test at x is Sturm's, by Sylvester's law of inertia: every eigenvalue
    lies in (-x, x) exactly when T + xI has only positive LDL* pivots and T - xI
    only negative ones.  The computed pivots are the exact pivots of a T' whose
    off-diagonal differs from T's by a few ulps relatively (Kahan 1966), so hi
    bounds the norm of T' and is within a few ulps of it.
    """
    off = np.sqrt(off2)
    lo, hi = 0.0, float(np.max(np.abs(diagonal) + np.append(off, 0.0) + np.append(0.0, off)))
    # row i carries a[i - 1]; the first row's 0 leaves its pivots at t[0] +- x
    rows = list(zip(diagonal.tolist(), [0.0] + off2.tolist()))
    mid = 0.5 * hi
    while lo < mid < hi:
        if _definite_on_both_sides(rows, mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _definite_on_both_sides(rows: list[tuple[float, float]], x: float) -> bool:
    """Whether the LDL* pivots of T + xI are all positive and those of T - xI all
    negative, for the tridiagonal T of :func:`tridiagonal_norm`'s ``rows``."""
    p, q = 1.0, -1.0
    for t, a in rows:
        p = t + x - a / p
        q = t - x - a / q
        if not (p > 0.0 and q < 0.0):
            return False
    return True


def product_blocks(n: int) -> list[tuple[int, int]]:
    """The (start, end) bounds of n rows or columns cut into blocks of
    :data:`PRODUCT_BLOCK`, the last one also taking the rest; so no block is
    thinner than that unless n is, and a single block is the whole."""
    starts = list(range(0, n - PRODUCT_BLOCK + 1, PRODUCT_BLOCK)) or [0]
    return list(zip(starts, starts[1:] + [n]))


def lower_product(a: np.ndarray, b: np.ndarray, out=None, lower: bool = False):
    """Yield ``(start, end, block)`` for each row block of ``adjoint(a) @ b`` that
    lies on or below its diagonal, in order: rows ``start:end`` and columns
    ``:end``, written into ``out[start:end, :end]`` when ``out`` is given.

    The blocks are those of :func:`product_blocks` over the columns of ``a``, so
    this forms about half of a Hermitian product such as a Gram ``adjoint(d) @ d``,
    whose consumers read one triangle; the rest of ``out`` is left as it was.
    Only a block of ``a``, conjugated, is copied at a time.  With ``lower``, the
    top rows of ``a`` form a lower triangular matrix, so rows above ``start`` of
    its columns ``start:end`` are exactly zero and are skipped.  Each block has
    the bits of the same block of the whole product ``adjoint(a) @ b`` with
    OpenBLAS 0.3.31 on AVX-512 x86, for complex operands and for real ones on one
    BLAS thread; its threaded real products, like any BLAS in general, may add an
    entry's terms in an order that depends on the shape of the output.  For a
    real ``a`` that is ``b`` numpy forms the whole product by a symmetric rank-k
    update instead, with other bits.  Checks nothing.
    """
    for start, end in product_blocks(a.shape[-1]):
        skip = start if lower else 0
        target = None if out is None else out[start:end, :end]
        yield start, end, np.matmul(adjoint(a[skip:, start:end]), b[skip:, :end], out=target)


def lower_triangular_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower triangular matrix, by blocked recursion.

    Split in halves, L = [[L11, 0], [L21, L22]] has the inverse
    X = [[X11, 0], [X21, X22]] with X11 = L11^-1, X22 = L22^-1 and
    X21 = -X22 (L21 X11), the recursive scheme whose stability Du Croz and
    Higham analyse (IMA J. Numer. Anal. 12, 1992).  That is two half-order
    matrix products per level, about a third of the multiply-adds of an LU-based
    inverse.  Blocks below order :data:`TRIANGULAR_BASE` go to ``np.linalg.inv``,
    whose pivoting may leave rounding-level values above their diagonals; every
    other entry of the strict upper triangle is exactly zero.  Checks nothing.
    """
    inverse = np.zeros_like(lower)
    _invert_lower_into(lower, inverse)
    return inverse


def _invert_lower_into(lower: np.ndarray, out: np.ndarray) -> None:
    n = lower.shape[0]
    if n < TRIANGULAR_BASE:
        out[...] = np.linalg.inv(lower)
        return
    h = n // 2
    _invert_lower_into(lower[:h, :h], out[:h, :h])
    _invert_lower_into(lower[h:, h:], out[h:, h:])
    # the zero block above the diagonal holds (L21 X11)^T meanwhile, so no
    # temporary is allocated
    scratch = out[:h, h:]
    np.matmul(out[:h, :h].T, lower[h:, :h].T, out=scratch)
    np.matmul(out[h:, h:], scratch.T, out=out[h:, :h])
    np.negative(out[h:, :h], out=out[h:, :h])
    scratch[...] = 0


def hpd_inverse(x: np.ndarray, shift) -> np.ndarray:
    """``(shift I + X* X)^-1``, or that inverse for each matrix of a stack, with
    ``shift`` one positive value or one per matrix.

    The matrix ``m = shift I + X* X`` is positive definite by construction: X* X
    is positive semidefinite, so by Weyl's inequality every eigenvalue of m is at
    least ``shift``, and its condition number is at most
    ``(shift + norm(X)^2) / shift``.  So no hermiticity, floor or residual is
    checked, only that m is finite.  m is formed in ``complex128``, symmetrized
    as ``(m + adjoint(m)) / 2``, factored as L L* by Cholesky, and the inverse is
    returned as ``Y* Y`` with Y = ``np.linalg.inv(L)``, in one numpy call per
    step.  Cholesky is backward stable (:func:`_cholesky_rounding`), so the
    residual ``norm(m @ inv - I)`` is of the order of n eps times that condition
    number.  The result is Hermitian only up to rounding.

    Raises
    ------
    ConvergenceFailure
        If m is not finite, because X* X overflows: LAPACK factors such an m
        without complaint, into non-finite entries.  Or if LAPACK refuses the
        factor, which the floor rules out for a finite m unless its condition
        bound nears 1/(n eps) (Demmel, *Applied Numerical Linear Algebra*,
        ch. 2).
    """
    eye = np.eye(x.shape[-1], dtype=np.complex128)
    m = np.asarray(shift)[..., np.newaxis, np.newaxis] * eye + adjoint(x) @ x
    if not np.all(np.isfinite(m)):
        raise ConvergenceFailure("shift I + X* X overflows")
    try:
        y = np.linalg.inv(np.linalg.cholesky((m + adjoint(m)) / 2.0))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"no Cholesky factor of shift I + X* X: {exc}") from exc
    return adjoint(y) @ y


def memory_headroom() -> float:
    """Bytes this process may still allocate: the smaller of the headroom under its
    address-space limit (``RLIMIT_AS`` less the current virtual size) and the
    machine's ``MemAvailable``; infinite where neither can be read."""
    headroom = np.inf
    try:
        import resource

        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit != resource.RLIM_INFINITY:
            with open("/proc/self/statm") as handle:
                pages = int(handle.read().split()[0])
            headroom = limit - pages * resource.getpagesize()
    except (ImportError, OSError, ValueError):
        pass
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    headroom = min(headroom, int(line.split()[1]) * 1024)
    except (OSError, ValueError):
        pass
    return headroom


def require_memory(nbytes: float, what: str) -> None:
    """Raise :class:`InsufficientMemory` unless ``nbytes`` fit in
    :func:`memory_headroom`; called with a dense path's footprint before that
    path allocates anything."""
    available = memory_headroom()
    if nbytes > available:
        raise InsufficientMemory(
            f"{what} needs about {nbytes / 2**20:.0f} MiB, but only "
            f"{available / 2**20:.0f} MiB can be allocated",
            needed_bytes=int(nbytes),
            available_bytes=int(available),
        )


@functools.cache
def _openblas_threads():
    """The (set, get) thread-count functions of an OpenBLAS this process has
    already mapped, or None where there is none to find (another BLAS, or no
    ``/proc``).  Each library is opened with ``RTLD_NOLOAD``, so none is loaded
    twice."""
    if not hasattr(os, "RTLD_NOLOAD"):  # not a POSIX dynamic loader
        return None
    try:
        with open("/proc/self/maps") as handle:
            paths = [line.split()[-1] for line in handle]
    except OSError:
        return None
    # dict, not set: the libraries keep the order of their mappings
    for path in dict.fromkeys(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for names in OPENBLAS_THREAD_SYMBOLS:
            if all(hasattr(library, name) for name in names):
                return tuple(getattr(library, name) for name in names)
    return None


#: the thread count that the outermost :func:`serial_blas` scope found, and how
#: many scopes are open; the lock keeps the save, the set and the restore of
#: overlapping scopes in order
_serial_lock = threading.Lock()
_serial_saved = 0
_serial_depth = 0


@contextlib.contextmanager
def serial_blas():
    """Run the block with the loaded OpenBLAS at one thread, and restore the
    previous count on exit, also when the block raises.

    The count belongs to the whole process: any BLAS work that runs alongside
    the block, in another Python thread, runs on one thread too.  Scopes may
    overlap; the first to open saves the count and the last to close restores
    it.  Where no OpenBLAS is found the block runs unchanged.
    """
    global _serial_saved, _serial_depth
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    with _serial_lock:
        if _serial_depth == 0:
            _serial_saved = get_threads()
            set_threads(1)
        _serial_depth += 1
    try:
        yield
    finally:
        with _serial_lock:
            _serial_depth -= 1
            if _serial_depth == 0:
                set_threads(_serial_saved)
