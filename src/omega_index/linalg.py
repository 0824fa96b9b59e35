"""Dense matrix algebra over the complex or the real field.

Thin wrappers around numpy: adjoints, Hermitian eigendecomposition,
positive-definite inversion, a blocked triangular inverse, the operator norm,
an O(n^2) hermiticity gate, and the memory probe that every dense path consults
before it allocates (:func:`require_memory`).
Matrices are plain ``numpy.ndarray`` objects.  Input from outside the program is
coerced to ``complex128`` (:func:`as_matrix`), while a real C and its factor stay
``float64``; :func:`adjoint`, :func:`hermitian_eigenvalues` and
:func:`hermitian_norm` work in the dtype they are given.  Functions that take
matrices from outside the program validate the shape and hermiticity assumptions
the rest of the package relies on; :func:`hermitian_eigenvalues` and
:func:`hermitian_norm` take matrices that are Hermitian by construction, such as
the Gram products the certifier forms itself, and check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InsufficientMemory,
    NonHermitianInput,
    NotPositiveDefinite,
)

#: relative tolerance for "is this matrix Hermitian" gates
HERMITIAN_TOL = 1e-10

#: relative margin on the thresholds of the Frobenius pre-test in
#: :func:`is_hermitian`; it is far above the rounding error of either norm, so
#: the pre-test never decides a case that rounding could flip
FROBENIUS_MARGIN = 1e-9

#: relative floor on the smallest eigenvalue for positive-definite inversion
PD_FLOOR = 1e-12

#: relative residual allowed on ``m @ hpd_inverse(m) - I``
INV_TOL = 1e-9

#: order below which :func:`lower_triangular_inverse` hands a block to ``np.linalg.inv``
TRIANGULAR_BASE = 128


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a finite, two-dimensional complex128 array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DimensionMismatch("matrix entries must be finite")
    return m


def require_square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


@dataclass(frozen=True)
class HermitianEigen:
    """Full spectrum of a Hermitian matrix.

    Attributes
    ----------
    values : ndarray
        Real eigenvalues, sorted ascending.
    vectors : ndarray
        Unitary matrix whose columns are the matching orthonormal eigenvectors.
        No phase convention is guaranteed; consumers should use counts and
        subspaces only.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermiticity_defect(m: np.ndarray) -> float:
    """Return ``norm(m - adjoint(m))`` relative to ``norm(m)`` (0 for the zero matrix)."""
    require_square(m)
    nm = operator_norm(m)
    if nm == 0.0:
        return 0.0
    return operator_norm(m - adjoint(m)) / nm


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Decide ``hermiticity_defect(m) <= tol``, for most inputs in O(n^2).

    With s = ``norm(m - adjoint(m), 'fro')``, F = ``norm(m, 'fro')`` and n the
    order, the operator norms obey ``s/sqrt(n) <= norm(m - adjoint(m)) <= s`` and
    ``F/sqrt(n) <= norm(m) <= F``.  So ``s*sqrt(n) <= tol*F`` proves the defect is
    within ``tol`` and ``s > tol*F*sqrt(n)`` proves it is not; only inputs between
    the two thresholds pay for :func:`hermiticity_defect`.
    """
    require_square(m)
    skew = float(np.linalg.norm(m - adjoint(m)))
    if skew == 0.0:
        return 0.0 <= tol
    frob = float(np.linalg.norm(m))
    root_n = float(np.sqrt(m.shape[0]))
    if skew * root_n <= tol * frob * (1.0 - FROBENIUS_MARGIN):
        return True
    if skew > tol * frob * root_n * (1.0 + FROBENIUS_MARGIN):
        return False
    return hermiticity_defect(m) <= tol


def hermitian_eigen(m: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized via ``(m + adjoint(m)) / 2`` before decomposition;
    inputs whose asymmetry exceeds ``HERMITIAN_TOL`` relative to their norm are
    rejected rather than silently symmetrized.

    Raises
    ------
    NonHermitianInput
        If ``norm(m - adjoint(m)) > HERMITIAN_TOL * norm(m)``.
    ConvergenceFailure
        If the underlying eigensolver does not converge.
    """
    require_square(m)
    if not is_hermitian(m):
        raise NonHermitianInput(
            f"matrix is not Hermitian: relative asymmetry {hermiticity_defect(m):.3e} "
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


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value, as the square root of the top eigenvalue of ``mᴴm``.

    For Hermitian input this equals the largest absolute eigenvalue.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size == 0:
        return 0.0
    try:
        top = float(np.linalg.eigvalsh(adjoint(m) @ m)[-1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(f"singular value computation failed: {exc}") from exc
    return float(np.sqrt(max(top, 0.0)))


def hermitian_norm(m: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: the larger absolute value of its two
    extreme eigenvalues, with the contract of :func:`hermitian_eigenvalues`."""
    if m.size == 0:
        return 0.0
    values = hermitian_eigenvalues(m)
    # abs, not negation: the zero matrix must give 0.0, never -0.0
    return float(max(abs(values[0]), abs(values[-1])))


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


def hpd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix.

    Computed through the eigendecomposition so the result is Hermitian by
    construction.  The smallest eigenvalue must exceed ``PD_FLOOR * norm(m)``.

    Raises
    ------
    NonHermitianInput
        If the input fails the Hermiticity gate.
    NotPositiveDefinite
        If the smallest eigenvalue is at or below the floor.
    ConvergenceFailure
        If the residual ``norm(m @ inv - I)`` misses the accuracy contract.  Its
        Frobenius norm, an upper bound, decides a clear pass; only the rest pay
        for the operator norm.
    """
    eig = hermitian_eigen(m)
    w, v = eig.values, eig.vectors
    largest = max(abs(float(w[0])), abs(float(w[-1])))
    floor = PD_FLOOR * largest
    if float(w[0]) <= floor:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {float(w[0]):.3e} is not above the floor {floor:.3e}"
        )
    inv = (v / w) @ adjoint(v)
    # allow the residual to grow with the condition number, as any backward-stable
    # inverse does
    cond = float(w[-1]) / float(w[0])
    tol = INV_TOL * max(1.0, cond)
    error = m @ inv - np.eye(m.shape[0])
    # the Frobenius norm bounds the operator norm, so a small one decides the
    # contract without an eigensolve, as in is_hermitian
    if float(np.linalg.norm(error)) <= tol * (1.0 - FROBENIUS_MARGIN):
        return inv
    residual = operator_norm(error)
    if residual > tol:
        raise ConvergenceFailure(
            f"inverse residual {residual:.3e} exceeds tolerance for condition {cond:.3e}"
        )
    return inv


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
