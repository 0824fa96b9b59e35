"""Dense complex matrix algebra.

Thin, contract-checked wrappers around numpy: adjoints, Hermitian
eigendecomposition, positive-definite inversion, the operator norm (with a cheaper
form for Hermitian arguments) and an O(n^2) hermiticity gate.  Matrices are
plain ``numpy.ndarray`` objects with dtype ``complex128``; every function validates the
shapes/finiteness assumptions that the rest of the package relies on.

All operations are pure functions on immutable inputs and are safe to call from
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
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


def hermitian_eigen(m: np.ndarray, hermitian_tol: float = HERMITIAN_TOL) -> HermitianEigen:
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized via ``(m + adjoint(m)) / 2`` before decomposition;
    inputs whose asymmetry exceeds ``hermitian_tol`` relative to their norm are
    rejected rather than silently symmetrized.

    Raises
    ------
    NonHermitianInput
        If ``norm(m - adjoint(m)) > hermitian_tol * norm(m)``.
    ConvergenceFailure
        If the underlying eigensolver does not converge.
    """
    require_square(m)
    if not is_hermitian(m, hermitian_tol):
        raise NonHermitianInput(
            f"matrix is not Hermitian: relative asymmetry {hermiticity_defect(m):.3e} "
            f"exceeds {hermitian_tol:.1e}"
        )
    sym = (m + adjoint(m)) / 2.0
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    return HermitianEigen(values=values, vectors=vectors)


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
    """Operator norm of a Hermitian matrix: its largest absolute eigenvalue.

    Reads only the lower triangle and does not check hermiticity; callers pass
    matrices that are Hermitian by construction.
    """
    if m.size == 0:
        return 0.0
    try:
        values = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(f"eigenvalue computation failed: {exc}") from exc
    return float(max(-values[0], values[-1]))


def hpd_inverse(m: np.ndarray, pd_floor: float = PD_FLOOR, inv_tol: float = INV_TOL) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix.

    Computed through the eigendecomposition so the result is Hermitian by
    construction.  The smallest eigenvalue must exceed ``pd_floor * norm(m)``.

    Raises
    ------
    NonHermitianInput
        If the input fails the Hermiticity gate.
    NotPositiveDefinite
        If the smallest eigenvalue is at or below the floor.
    ConvergenceFailure
        If the residual ``norm(m @ inv - I)`` misses the accuracy contract.
    """
    eig = hermitian_eigen(m)
    w, v = eig.values, eig.vectors
    largest = max(abs(float(w[0])), abs(float(w[-1])))
    floor = pd_floor * largest
    if float(w[0]) <= floor:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {float(w[0]):.3e} is not above the floor {floor:.3e}"
        )
    inv = (v / w) @ adjoint(v)
    residual = operator_norm(m @ inv - np.eye(m.shape[0]))
    # allow the residual to grow with the condition number, as any backward-stable
    # inverse does
    cond = float(w[-1]) / float(w[0])
    if residual > inv_tol * max(1.0, cond):
        raise ConvergenceFailure(
            f"inverse residual {residual:.3e} exceeds tolerance for condition {cond:.3e}"
        )
    return inv
