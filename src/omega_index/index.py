"""The integer index of an almost-commuting Hermitian pair.

Given a pair (A, B) with small commutator, form C = A + iB and the 2M-by-2M
Hermitian matrix

    Q = [[ D^-1,      C G^-1 ],
         [ G^-1 C*,   I - G^-1 ]],      G = I + C*C,  D = I + CC*,

the orthogonal projection onto the graph of C*.  With the singular value
decomposition C = U S V*, f = 1/(1 + S^2) and h = S/(1 + S^2), the identity
f(1 - f) = h^2 gives Q = Y Y* with the 2M-by-M factor Y = [U sqrt(f); V S sqrt(f)].
:func:`build_q` therefore takes one SVD of C and keeps only Y; the 2M-by-2M Q is
never formed on the counting path (:func:`q_blocks_from_c` assembles it directly,
as the reference formula).

Compress Q to the corner spanned by the first N basis vectors of both copies,
count the eigenvalues of that corner block above 1/2 (call the count M_N), and
report the cut-independent integer ``omega = M_N - N``.  The counting is
meaningful only while the idempotency-defect bound (4e - 2e^2)/(1 - e)^2 at the
measured commutator size e stays below 1/4; outside that regime the pair must be
rescaled first (:func:`scale_admissible`).

Two orientations are supported: ``literal`` substitutes C, ``conjugate``
substitutes C* (equivalently, the pair (A, -B)); reversal negates the index.  The
``default`` orientation is pinned by the generated calibration record (see
:mod:`omega_index.calibration`).
"""

from __future__ import annotations

# imported only for perfbench/test_perfbench.py::test_tracer_patches_every_binding
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ConvergenceFailure,
    CutTooLarge,
    GapViolation,
    InadmissibleCommutator,
    InvalidParameter,
    UnstableCount,
)
from .operators import OperatorPair

ORIENTATIONS = ("literal", "conjugate")

#: admissibility threshold: counting requires theorem_bound(epsilon) < 1/4
ADMISSIBLE_BOUND = 0.25

DEFAULT_GAP_FLOOR = 0.05
DEFAULT_SCALE_TARGET = 0.02
SCALE_MARGIN = 0.05


@dataclass(frozen=True)
class QBuild:
    """The factor ``y`` of the projection Q = y y* and its measured quality numbers.

    ``y`` is 2M-by-M: rows ``0..M-1`` belong to the top copy, rows ``M..2M-1`` to
    the bottom copy.  ``epsilon`` is ``norm(C*C - CC*)`` with the boundary collar
    masked (or the exact value ``2 * known_commutator_norm`` when the builder
    supplies one).  ``defect`` is ``(1 + e) * e`` with ``e = norm(y* y - I)``: since
    ``Q^2 - Q = y (y* y - I) y*`` and ``norm(y)^2 <= 1 + e``, it bounds
    ``norm(Q^2 - Q)``, and so every masked block of it, for the Q actually counted.
    """

    y: np.ndarray
    orientation: str
    epsilon: float
    defect: float
    dim: int
    boundary_window: int

    @property
    def q(self) -> np.ndarray:
        """The full 2M-by-2M matrix ``y y*``, formed on each access."""
        return self.y @ linalg.adjoint(self.y)


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue census of one corner block."""

    cut: int
    eigenvalues: np.ndarray
    m_n: int
    gap: float


@dataclass(frozen=True)
class OmegaResult:
    """The integer index with its per-cut evidence."""

    omega: int
    reports: tuple[SpectralReport, ...]
    epsilon: float
    defect: float
    orientation: str
    scaling: tuple[float, float]
    warnings: tuple[str, ...]


def _factor_defect(y: np.ndarray) -> float:
    """``(1 + e) * e`` with ``e = norm(y* y - I)``, a bound on ``norm(Q^2 - Q)`` for Q = y y*."""
    e = linalg.hermitian_norm(linalg.adjoint(y) @ y - np.eye(y.shape[1]))
    return (1.0 + e) * e


def masked_commutator_norm(pair: OperatorPair) -> float:
    """``norm(AB - BA)`` with the boundary collar rows/columns removed."""
    k = pair.a @ pair.b - pair.b @ pair.a
    return linalg.operator_norm(k[: pair.interior, : pair.interior])


def q_blocks_from_c(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble (Q, gamma, delta) from a square matrix C."""
    c = linalg.require_square(c)
    m = c.shape[0]
    eye = np.eye(m, dtype=np.complex128)
    cs = linalg.adjoint(c)
    gamma = eye + cs @ c
    delta = eye + c @ cs
    gamma_inv = linalg.hpd_inverse(gamma)
    delta_inv = linalg.hpd_inverse(delta)
    q = np.block([[delta_inv, c @ gamma_inv], [gamma_inv @ cs, eye - gamma_inv]])
    return q, gamma, delta


def resolve_orientation(orientation: str) -> str:
    """Map ``literal``/``conjugate``/``default`` to a concrete orientation."""
    if orientation in ORIENTATIONS:
        return orientation
    if orientation == "default":
        from .calibration import pinned_orientation

        return pinned_orientation()
    raise InvalidParameter(
        f"orientation must be one of {ORIENTATIONS + ('default',)}, got {orientation!r}"
    )


def build_q(pair: OperatorPair, orientation: str = "default") -> QBuild:
    """Factor the almost-projection for a pair in the requested orientation.

    ``conjugate`` builds Q from C* = A - iB, which is the same as building the
    literal Q of the pair (A, -B); it swaps the roles of U and V.

    Raises
    ------
    ConvergenceFailure
        If the SVD of C does not converge.
    """
    resolved = resolve_orientation(orientation)
    c = pair.a + 1j * pair.b
    try:
        u, s, vh = np.linalg.svd(c)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(f"singular value decomposition failed: {exc}") from exc
    top, bottom = u, linalg.adjoint(vh)
    if resolved == "conjugate":
        top, bottom = bottom, top
    root = np.hypot(1.0, s)  # 1/sqrt(f)
    y = np.concatenate([top / root, bottom * (s / root)])

    if pair.known_commutator_norm is not None:
        epsilon = 2.0 * pair.known_commutator_norm
    else:
        # interior block of C*C - CC*; its norm is the same in both orientations
        k = pair.interior
        head, rows = c[:, :k], c[:k]
        epsilon = linalg.hermitian_norm(
            linalg.adjoint(head) @ head - rows @ linalg.adjoint(rows)
        )
    return QBuild(
        y=y,
        orientation=resolved,
        epsilon=float(epsilon),
        defect=_factor_defect(y),
        dim=pair.dim,
        boundary_window=pair.boundary_window,
    )


def theorem_bound(epsilon: float) -> float:
    """The defect bound (4e - 2e^2)/(1 - e)^2, finite only for e < 1."""
    if not np.isfinite(epsilon) or epsilon < 0 or epsilon >= 1:
        raise InvalidParameter(f"epsilon must lie in [0, 1), got {epsilon}")
    return (4.0 * epsilon - 2.0 * epsilon**2) / (1.0 - epsilon) ** 2


def extract_q11(qb: QBuild, cut: int) -> np.ndarray:
    """Corner block of Q on rows/columns {top 0..cut-1} + {bottom 0..cut-1}."""
    if cut < 1:
        raise InvalidParameter(f"cut must be at least 1, got {cut}")
    if cut > qb.dim - qb.boundary_window:
        raise CutTooLarge(
            f"cut {cut} reaches into the boundary collar "
            f"(dim {qb.dim}, window {qb.boundary_window})"
        )
    yc = np.concatenate([qb.y[:cut], qb.y[qb.dim : qb.dim + cut]])
    return yc @ linalg.adjoint(yc)


def count_upper(eigenvalues) -> tuple[int, float, int, int]:
    """Partition a corner spectrum at the exact threshold 1/2.

    Returns ``(m_n, gap, s0_count, s1_count)`` where ``m_n = #{mu > 1/2}``
    (no tolerance band) and ``gap = min |mu - 1/2|``.
    """
    values = np.asarray(eigenvalues, dtype=np.float64)
    if values.size == 0:
        raise InvalidParameter("cannot count an empty spectrum")
    s1 = int(np.count_nonzero(values > 0.5))
    s0 = int(values.size - s1)
    gap = float(np.min(np.abs(values - 0.5)))
    return s1, gap, s0, s1


def _spectral_report(qb: QBuild, cut: int) -> SpectralReport:
    values = linalg.hermitian_eigen(extract_q11(qb, cut)).values
    m_n, gap, _, _ = count_upper(values)
    return SpectralReport(cut=cut, eigenvalues=values, m_n=m_n, gap=gap)


def default_cuts(dim: int) -> list[int]:
    """Five equispaced cuts in the deep interior [dim/8, 3*dim/8]."""
    lo, hi = dim // 8, (3 * dim) // 8
    cuts = sorted({int(round(c)) for c in np.linspace(lo, hi, 5)})
    return [max(1, c) for c in cuts]


def omega(
    pair: OperatorPair,
    cuts=None,
    orientation: str = "default",
    gap_floor: float = DEFAULT_GAP_FLOOR,
    scaling: tuple[float, float] = (1.0, 1.0),
) -> OmegaResult:
    """Count the index over a sweep of cuts and require a stable answer.

    For each cut N the corner block is eigendecomposed, eigenvalues above 1/2 are
    counted, and ``omega_N = M_N - N``.  The result is accepted only if every cut
    agrees and every corner eigenvalue keeps at least ``gap_floor`` distance from
    1/2.  Cuts are counted one after another in the calling thread; only the
    BLAS/LAPACK calls inside each eigensolve may run threaded.

    Raises
    ------
    InvalidParameter
        If the cut sweep is empty or ``gap_floor`` is negative or not finite.
    InadmissibleCommutator
        If epsilon >= 1 or the defect bound at epsilon is >= 1/4; rescale with
        :func:`scale_admissible` first.
    GapViolation
        If some corner eigenvalue sits within ``gap_floor`` of 1/2.
    UnstableCount
        If different cuts disagree on ``M_N - N``.
    """
    if cuts is None:
        cuts = default_cuts(pair.dim)
    cuts = [int(c) for c in cuts]
    if not cuts:
        raise InvalidParameter("cut sweep must be non-empty")
    if not (np.isfinite(gap_floor) and gap_floor >= 0):
        raise InvalidParameter(f"gap_floor must be finite and >= 0, got {gap_floor}")

    qb = build_q(pair, orientation)
    if qb.epsilon >= 1.0:
        raise InadmissibleCommutator(
            f"epsilon = {qb.epsilon:.6g} >= 1: counting undefined; "
            "rescale the pair with scale_admissible",
            epsilon=qb.epsilon,
        )
    bound = theorem_bound(qb.epsilon)
    if bound >= ADMISSIBLE_BOUND:
        raise InadmissibleCommutator(
            f"defect bound {bound:.6g} at epsilon = {qb.epsilon:.6g} is >= 1/4: "
            "rescale the pair with scale_admissible",
            epsilon=qb.epsilon,
            bound=bound,
        )

    for cut in cuts:
        if cut > qb.dim - qb.boundary_window:
            raise CutTooLarge(
                f"cut {cut} reaches into the boundary collar "
                f"(dim {qb.dim}, window {qb.boundary_window})"
            )

    reports = [_spectral_report(qb, c) for c in cuts]

    violating = [(r.cut, r.gap) for r in reports if r.gap < gap_floor]
    if violating:
        detail = ", ".join(f"cut {c}: gap {g:.6g}" for c, g in violating)
        raise GapViolation(
            f"corner eigenvalues within gap_floor {gap_floor:g} of 1/2 ({detail})",
            cuts=[c for c, _ in violating],
            gap_floor=gap_floor,
        )
    per_cut = [r.m_n - r.cut for r in reports]
    if len(set(per_cut)) != 1:
        detail = ", ".join(f"cut {r.cut}: {v}" for r, v in zip(reports, per_cut))
        raise UnstableCount(f"cut sweep disagrees ({detail})", counts=per_cut)

    warnings = []
    if pair.known_commutator_norm is None:
        warnings.append("epsilon measured with boundary masking (no analytic value)")
    return OmegaResult(
        omega=per_cut[0],
        reports=tuple(reports),
        epsilon=qb.epsilon,
        defect=qb.defect,
        orientation=qb.orientation,
        scaling=scaling,
        warnings=tuple(warnings),
    )


def scale_admissible(
    pair: OperatorPair, target: float = DEFAULT_SCALE_TARGET
) -> tuple[OperatorPair, float, float]:
    """Rescale a pair so its masked commutator norm is at most ``target``.

    Scaling A and B by s scales the commutator by s^2, and the index is invariant
    under positive rescaling, so an inadmissible pair can always be brought into
    the counting regime.  Already-small pairs are returned unchanged (s = 1);
    otherwise ``s = (1 - margin) * sqrt(target / kappa)`` with a 5% margin, where
    kappa is the known commutator norm or, failing that, the masked measurement.

    Returns ``(scaled_pair, s_a, s_b)``; both factors are equal.
    """
    if not (np.isfinite(target) and target > 0):
        raise InvalidParameter(f"target must be positive, got {target}")
    kappa = pair.known_commutator_norm
    if kappa is None:
        kappa = masked_commutator_norm(pair)
    if kappa <= target:
        return pair, 1.0, 1.0
    s = (1.0 - SCALE_MARGIN) * float(np.sqrt(target / kappa))
    known = None
    if pair.known_commutator_norm is not None:
        known = pair.known_commutator_norm * s * s
    scaled = OperatorPair(
        a=s * pair.a,
        b=s * pair.b,
        dim=pair.dim,
        basis_label=pair.basis_label,
        known_commutator_norm=known,
        boundary_window=pair.boundary_window,
    )
    return scaled, s, s
