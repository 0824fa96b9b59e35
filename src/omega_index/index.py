"""The integer index of an almost-commuting Hermitian pair.

Given a pair (A, B) with small commutator, stored as C = A + iB (see
:class:`~omega_index.operators.OperatorPair`), form the 2M-by-2M Hermitian matrix

    Q = [[ D^-1,      C G^-1 ],
         [ G^-1 C*,   I - G^-1 ]],      G = I + C*C,  D = I + CC*,

the orthogonal projection onto the graph of C*: onto range([I; d]) with d = C* in
the ``literal`` orientation and d = C in the ``conjugate`` one (below).  Any
orthonormal basis Y of that range gives Q = Y Y*, and :func:`build_q` takes a
triangular one: with the reverse (UL) Cholesky factor I + d*d = U U*, U upper
triangular, the matrix W = U^-* is lower triangular, and Y = [W; d W] is 2M-by-M
with orthonormal columns.  The 2M-by-2M Q is never formed on the counting path
(:func:`q_blocks_from_c` assembles it directly, as the reference formula).  A
pair stores a real C, as the oscillator's, in float64; then so are d, U, W and Y,
and the whole counting path runs in float64; a complex C runs in complex128.

Compress Q to the corner spanned by the first N basis vectors of both copies,
count the eigenvalues of that corner block above 1/2 (call the count M_N), and
report the cut-independent integer ``omega = M_N - N``.  Only the eigenvalues
that the structure does not fix are found.  The corner at cut N is ``y_c y_c*``,
where the 2N-by-M matrix ``y_c`` holds the top N and bottom N rows of Y, so the
corner has rank at most M: its nonzero eigenvalues are those of the M-by-M Gram
``y_c* y_c`` and the other 2N - M are exactly zero.  The smaller of the two is
formed (the corner itself when 2N <= M; M alone fixes the choice) and counted
with those zeros.  For an almost-commuting pair all but a few of its
eigenvalues lie near 0 or 1, so :func:`_census` counts it from one short
Lanczos pass: Ritz values give the eigenvalues near 1/2, and a trace identity
proves where the others lie and how many lie near 1; the full eigensolve runs
only where that certificate fails.  A count is certified only in the regime
where the defect bound (4e - 2e^2)/(1 - e)^2 at the measured commutator size e
stays below 1/4; outside it the pair must be rescaled first
(:func:`scale_admissible`).  That gate is on the pair: Q itself is a projection
for every C, and the measured ``defect`` bounds how far the Q actually counted
is from one.

A pair whose d is bidiagonal (nonzeros on the main diagonal and at most one
adjacent diagonal, as for the oscillator, its shifts and diagonal perturbations,
and the commuting grid) needs none of that: :func:`factor` keeps only O(M)
numbers (:class:`BandQ`): the squared moduli of the off-diagonal of the
tridiagonal G = I + d*d, its pivots in both directions and the diagonal and
superdiagonal of d, padded once so that a cut reads them with no boundary case.
d is bidiagonal exactly when C is, which is exactly when the pair stores C by
its diagonals, so the path is read from the pair's storage.  A measured epsilon
is the norm of a Hermitian tridiagonal, found by Sturm-count bisection, so no
M-by-M array is formed.  With k = N + 1 the corner's nonzero spectrum is that of
the pencil (P_N, S_k), P_N = diag(I_N, 0) + d[:N, :k]* d[:N, :k] and
S_k = W_kk^-* W_kk^-1; for a bidiagonal d both equal G on rows 0..N-2 and on
their coupling to row N-1, so one Schur complement leaves a 2-by-2 pencil on
rows N-1 and N.  One of its eigenvalues is exactly 0 or 1, so the 2N corner
eigenvalues are N exact zeros and N - 1 exact ones, or N - 1 and N, beside one
free eigenvalue, which :func:`_band_spectra` gives in closed form with no
LAPACK call; :func:`build_q` is the dense path.

A pair made by one ``random_hermitian`` perturbation of a pair stored by its
diagonals is dense, but :func:`omega` certifies it without :func:`build_q`
(:func:`_split`): as C = C_b + E, with C_b that band pair, counted on the band
path, and E the remainder, whose norm follows from the perturbation's proved
normalization.  The graph projection is 1-Lipschitz in C (Kato, Thm IV.2.14),
so by Weyl's inequality every corner eigenvalue of C lies within norm(E) of
C_b's: each cut reports C_b's count, and C_b's gap less norm(E), a proved lower
bound on C's.  epsilon is a proved upper bound, C_b's plus a bound on the
norm of the cross terms, formed in O(M^2) from C_b's diagonals.  Where some
gap so reduced is below the floor, or the bound fails the admissibility gate,
:func:`omega` falls back to :func:`build_q`, so the split changes no count and
no refusal.

Two orientations are supported: ``literal`` substitutes C, ``conjugate``
substitutes C* (equivalently, the pair (A, -B)); reversal negates the index.  The
``default`` orientation is :data:`DEFAULT_ORIENTATION`, the one that gives the
oscillator reference pair the index +1 as in the paper; the calibration run of
:mod:`omega_index.calibration` checks that constant, it does not set it.
"""

from __future__ import annotations

import operator

from collections.abc import Iterator

# imported only for perfbench/test_perfbench.py::test_tracer_patches_every_binding
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import (
    ConvergenceFailure,
    CutTooLarge,
    GapViolation,
    InadmissibleCommutator,
    InvalidParameter,
    OmegaIndexError,
    UnstableCount,
)
from .operators import BLAS_RESERVE_BYTES, COMPLEX_BYTES, OperatorPair

ORIENTATIONS = ("literal", "conjugate")
#: the orientation that gives the oscillator reference pair omega = +1, checked by
#: :func:`omega_index.calibration.run_calibration`
DEFAULT_ORIENTATION = "conjugate"

#: admissibility threshold: counting requires theorem_bound(epsilon) < 1/4
ADMISSIBLE_BOUND = 0.25

DEFAULT_GAP_FLOOR = 0.05
DEFAULT_SCALE_TARGET = 0.02
SCALE_MARGIN = 0.05

#: the constant c of the band path's factor bound: the pivots of I + d*d are exact
#: for a G' with ||G' - G||_inf <= c * u * ||G||_inf, u the unit roundoff (see BandQ)
PIVOT_ROUNDING = 8.0

#: bytes per row that :func:`factor` takes on the band path: its O(M) arrays and
#: the float lists of both :func:`_pivots` passes (virtual-memory peaks, which an
#: address-space limit counts, of 114.1 bytes per row above the size before the
#: factor at M = 10^6 and 113.3 at 4*10^6; tracemalloc sees 96.0-96.2 from M = 10^4
#: to 10^6; each in both orientations, with a real or a complex C)
BAND_FACTOR_ROW_BYTES = 120

#: bytes per row that measuring a band pair's commutator norm takes: the arrays of
#: :func:`_band_self_commutator_norm` and the row tuples of
#: :func:`~omega_index.linalg.tridiagonal_norm` (virtual-memory peaks of 166 bytes
#: per row for the whole factor at M = 10^6 and 4*10^6; tracemalloc sees 140-151
#: from M = 10^4 to 10^6)
STURM_ROW_BYTES = 176

#: bytes per cut that :func:`certify` takes: the band path's per-cut arrays, the
#: kept reports, and a refusal's message and detail (virtual-memory growth from the
#: charge to the end of :func:`certify`, which an address-space limit counts, on
#: the dim-10^6 oscillator: 264-268 bytes a cut reported and 341-366 refused from
#: 3*10^4 to 8.1*10^5 cuts; below that the growth is in steps of one 1 MiB arena
#: of small objects, 1073 bytes a cut at 10^3 cuts and 24 KiB in all up to 100)
CERTIFY_CUT_BYTES = 640

#: cuts that :func:`default_cuts` spreads over the interior
DEFAULT_CUT_COUNT = 5

#: complex arrays of order k + 2, k the pair's interior, alive at once while
#: :func:`_split` bounds epsilon: the padded remainder F, the cross term X and one
#: product of them while X is formed, then X with LAPACK's copy of a shift of it
#: and its Cholesky factor while :func:`~omega_index.linalg.hermitian_norm_bound`
#: proves its norm
SPLIT_ARRAYS = 3

#: M-by-M arrays of C's dtype alive at once in :func:`build_q` and the corner
#: counts that follow it: d, the Gram with the epsilon measurement's products or
#: the Cholesky factor with LAPACK's copy, then W's inverse, the 2M-by-M basis y
#: and a corner, with an eigensolve copy only where :func:`_census` falls back
BUILD_Q_ARRAYS = 6

#: Lanczos steps of a dense cut's :func:`_census`.  On the dense-index pairs
#: (dim 1200, ``a:random_hermitian:0.002``, seeds 0-2, cuts 160, 280 and 400)
#: the residual of the census's Ritz pair was 1.2e-6 to 7.9e-6 after 2 steps,
#: 1.5e-13 to 1.3e-12 after 3, and at rounding (below 4.5e-16) from 4 on; 8
#: leaves that margin for pairs whose other eigenvalues lie farther from 0 and
#: 1, at two products with the corner a step
CENSUS_STEPS = 8

#: residual norm below which the census's Ritz pair counts as converged: four
#: decades below the residuals after 2 steps and two above those after 3, on
#: the same pairs; a certified gap is then within this (plus rounding) of the
#: true one, and within its square over the spectral gap in practice
CENSUS_RESIDUAL = 1e-10


@dataclass(frozen=True)
class FactorHeader:
    """What every factor of Q carries besides its numbers, on either path.

    ``orientation`` is the resolved orientation, ``literal`` or ``conjugate``.
    ``epsilon`` is ``norm(C*C - CC*)`` with the boundary collar masked, or the
    exact value ``2 * known_commutator_norm`` when the builder supplies one; both
    paths find it the same way, so it is the same number on each.  ``defect`` is
    ``(1 + e) * e`` for a bound e on ``norm(Y* Y - I)``, where Y = [W; d W] is the
    basis of the graph the path factors: since ``Q^2 - Q = Y (Y* Y - I) Y*`` and
    ``norm(Y)^2 <= 1 + e``, it bounds ``norm(Q^2 - Q)``, and so every corner block
    of it, for the Q actually counted.  Each path says how it bounds e, and e is
    infinite when the path cannot bound it.  ``dim`` and ``boundary_window`` are
    the pair's.  ``epsilon_measured`` is true when the pair carried no analytic
    commutator norm.  ``epsilon_rounding`` bounds how far rounding can have moved
    ``epsilon`` below the true norm: the a-priori bound of
    :func:`_interior_self_commutator` on the dense path's measured epsilon, and 0
    for an analytic epsilon or the band path's bisection, whose value is already
    an upper end.  :func:`certify` gates on ``epsilon + epsilon_rounding``.

    ``remainder`` is 0 when the factor is the pair's own.  :func:`_split` sets it
    to a proved bound on ``norm(C - C_b)`` when it factors a band pair C_b in place
    of C; then ``epsilon`` and ``epsilon_rounding`` bound C's epsilon, ``defect``
    is C_b's, and :func:`certify` reports each of C_b's gaps less ``remainder``.
    """

    orientation: str
    epsilon: float
    epsilon_rounding: float
    defect: float
    dim: int
    boundary_window: int
    epsilon_measured: bool
    remainder: float = field(default=0.0, kw_only=True)


@dataclass(frozen=True)
class QBuild(FactorHeader):
    """The dense factor of Q: the basis ``y`` itself, with Q = y y* (see :func:`build_q`).

    ``y`` is 2M-by-M: rows ``0..M-1`` belong to the top copy, rows ``M..2M-1`` to
    the bottom copy; it is float64 when C is real and complex128 otherwise.  Its
    e is measured: the largest row sum of ``|y* y - I|``, a norm of that Hermitian
    matrix which bounds its spectral norm.
    """

    y: np.ndarray


@dataclass(frozen=True)
class BandQ(FactorHeader):
    """The factor of Q for a bidiagonal d, in O(M) numbers (see :func:`factor`).

    With g the diagonal of the tridiagonal G = I + d*d, f_i = G[i, i+1] its
    off-diagonal, t_i its top-down pivots ``t_i = g[i] - |f_(i-1)|^2 / t_(i-1)`` and
    b_i its bottom-up pivots ``b_i = g[i] - |f_i|^2 / b_(i+1)``, G = U U* with U
    upper bidiagonal, ``U[i, i] = sqrt(b_i)`` and ``U[i, i+1] = f_i / sqrt(b_(i+1))``.
    ``main`` is the diagonal m_i of d and u_i = d[i, i+1] its superdiagonal (zero
    when d is lower bidiagonal); the corners read them besides G, whose values
    alone do not fix the spectrum (the oscillator and a diagonal pair can share
    one G).  The other arrays have length M + 1, padded once with what a cut
    past either end reads, so the cut N reads every array at N - 1 and N:
    ``f2[i + 1] = |f_i|^2`` and ``upper[i + 1] = u_i`` with 0 at both ends,
    ``top[i + 1] = t_i`` after a leading 1 and ``bottom[i] = b_i`` before a
    trailing 1.  In the ``literal`` orientation ``main`` and ``upper`` hold the
    conjugates of d's entries, C's own diagonals, which have the same moduli and
    zeros: nothing else of them is read.

    Y is never formed, so its e is an a-priori spectral bound.  Forming G from d
    rounds each entry by at most 4u relatively (u the unit roundoff), and each
    pivot step rounds |f|^2, a division and a subtraction, at most 3u relative to
    the diagonal of U U*.  Since the LDL* factors of a Hermitian positive definite
    tridiagonal satisfy |L||D||L*| = |G|, the U above, built from the computed
    pivots, has U U* = G + E with ``|E| <= 7u |G|`` entrywise, up to O(u^2).
    Hence ``norm(E) <= c u norm(G, inf)`` with c = :data:`PIVOT_ROUNDING`, and
    with Y = [U^-*; d U^-*] and G >= I, ``norm(Y* Y - I) = norm(U^-1 E U^-*) <= x
    / (1 - x) = e`` for ``x = c u norm(G, inf)`` (e is infinite once x >= 1).  The
    same bound holds for the top-down pivots.
    """

    f2: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    main: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue census of one corner block: ``m_n`` of its 2*cut eigenvalues lie
    above 1/2, and ``nearest`` is the smallest of those ``gap`` from it."""

    cut: int
    m_n: int
    gap: float
    nearest: float


@dataclass(frozen=True)
class OmegaResult:
    """The integer index with its per-cut evidence."""

    omega: int
    reports: tuple[SpectralReport, ...]
    epsilon: float
    defect: float
    orientation: str
    warnings: tuple[str, ...]


def _factor_defect(y: np.ndarray) -> float:
    """``(1 + e) * e``, a bound on ``norm(Q^2 - Q)`` for Q = y y*, with ``e`` the largest
    row sum of ``|y* y - I|``.

    That is the infinity-norm (for a Hermitian matrix also the 1-norm) of
    E = y* y - I, which bounds its spectral norm, the largest absolute
    eigenvalue, and equals it when E is diagonal; after the Gram it costs O(M^2),
    where the spectral norm needs an eigensolve.  ``y`` is a :attr:`QBuild.y`,
    whose top M rows W are lower triangular.  Only the row blocks of E on and
    below its diagonal are formed, :data:`~omega_index.linalg.PRODUCT_BLOCK` rows
    at a time by :func:`~omega_index.linalg.lower_product`, and the block of rows
    ``s..`` reads only rows ``s..`` of ``y``: the rows of W above them are exactly
    zero in its columns.  Each row's sum is completed from the column sums of the
    blocks below it, since E is Hermitian; so each entry has the bits of the whole
    Gram's and only the order in which a row's terms are added differs.
    """
    sums = np.zeros(y.shape[1])
    for start, end, block in linalg.lower_product(y, y, lower=True):
        block[np.arange(end - start), np.arange(start, end)] -= 1.0
        moduli = np.abs(block)
        sums[start:end] += np.sum(moduli, axis=1)
        sums[:start] += np.sum(moduli[:, :start], axis=0)
        del block, moduli  # so neither is alive while the next block is formed
    e = float(np.max(sums))
    return (1.0 + e) * e


def _lower_outer(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, with its blocks on and below the diagonal set to those of
    ``x @ adjoint(x)``: the conjugates of the blocks
    :func:`~omega_index.linalg.lower_product` forms of ``adjoint(x.T) @ x.T``, so
    that only a block of rows of ``x`` is copied at a time.  Its entries have
    the whole product's bits where those of
    :func:`~omega_index.linalg.lower_product` do."""
    for _ in linalg.lower_product(x.T, x.T, out):
        pass
    return np.conjugate(out, out=out)


def _interior_self_commutator(gram: np.ndarray, rows: np.ndarray) -> tuple[float, float]:
    """Norm of the interior k-by-k block of d*d - dd*, given ``gram`` = (d*d)[:k, :k]
    and ``rows`` = d[:k], and an a-priori bound on how far rounding moved it.

    Both products have inner dimension M, the row length of d.  Each entry of a
    computed product X*Y is off by at most sqrt(2) gamma_(M+2) times the same entry
    of ``|X|* |Y|`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 3.6, for complex arithmetic; gamma_j = j u / (1 - j u), u = eps / 2),
    so in norm by at most that times ``|d[:, :k]|^2`` and ``|d[:k]|^2``, the
    squared Frobenius norms, which are the traces of the two Grams.  The
    subtraction rounds each entry by at most u of the result.  The bound
    2 gamma_(M+3) (``|d[:, :k]|^2 + |d[:k]|^2``) covers the three, and by Weyl's
    inequality the norm of the exact block is at most the computed one plus it.
    """
    block = _lower_outer(rows, np.zeros((rows.shape[0],) * 2, dtype=rows.dtype))
    scale = float(np.trace(gram).real + np.trace(block).real)
    # in place, so that beside the eigensolve's copy no second k-by-k array is alive
    np.subtract(gram, block, out=block)
    return linalg.hermitian_norm(block), 2.0 * _gamma(rows.shape[1] + 3) * scale


def _gamma(terms: int) -> float:
    """Higham's gamma_j = j u / (1 - j u) for j = ``terms``, u the unit roundoff."""
    unit = np.finfo(np.float64).eps / 2.0
    return terms * unit / (1.0 - terms * unit)


def _band_self_commutator_norm(
    lower: np.ndarray, main: np.ndarray, upper: np.ndarray, k: int
) -> float:
    """Norm of the interior k-by-k block of C*C - CC* for a bidiagonal C with the
    given diagonals -1, 0 and 1 (one of ``lower`` and ``upper`` zero), in O(M).

    That block is the Hermitian tridiagonal with diagonal
    ``|u[i-1]|^2 + |l[i]|^2 - |u[i]|^2 - |l[i-1]|^2`` and off-diagonal moduli
    ``(|u[i]| + |l[i]|) |m[i+1] - m[i]|``, where l, m, u are ``lower``, ``main``
    and ``upper`` and entries past either end are 0; rows up to k, so up to M,
    enter through row k - 1.  It is the same for d = C and d = C*.  Its
    :data:`STURM_ROW_BYTES` a row are charged against
    :func:`~omega_index.linalg.require_memory` first; then the diagonal of C*C and
    the squared off-diagonal moduli are checked for overflow, before any
    bisection runs.
    """
    linalg.require_memory(
        STURM_ROW_BYTES * main.size, f"the commutator norm of a dim-{main.size} band pair"
    )
    with np.errstate(over="ignore"):
        u2 = _abs2(np.concatenate([[0.0], upper, [0.0]]))  # u2[i + 1] is |u[i]|^2
        l2 = _abs2(np.concatenate([[0.0], lower, [0.0]]))
        _refuse_overflow(u2[:-1] + _abs2(main) + l2[1:])
        off2 = ((u2[1:-1] + l2[1:-1]) * _abs2(np.diff(main)))[: k - 1]
    if not np.all(np.isfinite(off2)):
        # an infinite norm would rescale the pair to zero in scale_admissible
        raise ConvergenceFailure("C*C - CC* overflows: the pair is too large to measure")
    diagonal = (u2[:-1] + l2[1:] - u2[1:] - l2[:-1])[:k]
    return linalg.tridiagonal_norm(diagonal, off2)


def masked_commutator_norm(pair: OperatorPair) -> float:
    """``norm(AB - BA)`` off the boundary collar: half that of C*C - CC* = 2i(AB - BA).

    For a pair stored by its diagonals this is the O(M) bisection of
    :func:`factor`'s measured epsilon, already the upper end of a bracket;
    otherwise the interior block is formed and solved densely, and its a-priori
    rounding bound (:func:`_interior_self_commutator`) is added to its norm, so
    a norm that cancellation decided is not taken for a small one.  Either way
    the diagonal of C*C is checked for overflow first.

    Raises
    ------
    ConvergenceFailure
        If I + C*C overflows, or for a pair stored by its diagonals the
        commutator's squared entries do.
    """
    k = pair.interior
    if pair.diagonals is not None:
        return 0.5 * _band_self_commutator_norm(*pair.diagonals, k)
    c = pair.c
    gram = _overflowing_gram(c[:, :k])
    _refuse_overflow(gram.diagonal())
    return 0.5 * sum(_interior_self_commutator(gram, c[:k]))


def q_blocks_from_c(c: np.ndarray) -> np.ndarray:
    """Assemble Q from a square matrix C, or from each of a stack."""
    c = linalg.require_square(c)
    cs = linalg.adjoint(c)
    gamma_inv = linalg.hpd_inverse(c, 1.0)
    delta_inv = linalg.hpd_inverse(cs, 1.0)
    eye = np.eye(c.shape[-1], dtype=np.complex128)
    return np.block([[delta_inv, c @ gamma_inv], [gamma_inv @ cs, eye - gamma_inv]])


def resolve_orientation(orientation: str) -> str:
    """Map ``literal``/``conjugate``/``default`` to a concrete orientation."""
    if orientation in ORIENTATIONS:
        return orientation
    if orientation == "default":
        return DEFAULT_ORIENTATION
    raise InvalidParameter(
        f"orientation must be one of {ORIENTATIONS + ('default',)}, got {orientation!r}"
    )


def _graph_map(c: np.ndarray, orientation: str) -> np.ndarray:
    """d for a resolved orientation: C itself (``conjugate``) or C* (``literal``)."""
    return c if orientation == "conjugate" else linalg.adjoint(c)


def _header(pair: OperatorPair, orientation: str) -> dict:
    """The :class:`FactorHeader` fields that need no factor, for a resolved orientation."""
    return dict(
        orientation=orientation,
        dim=pair.dim,
        boundary_window=pair.boundary_window,
        epsilon_measured=pair.known_commutator_norm is None,
    )


def _refuse_overflow(g: np.ndarray) -> None:
    """Raise :class:`ConvergenceFailure` unless the diagonal ``g`` of d*d, or of
    I + d*d, is finite.

    An infinite diagonal does not make a Cholesky factorization fail; it would
    zero columns of W.  Checked before epsilon is measured, so no eigensolve or
    bisection runs on an overflowed block.
    """
    if not np.all(np.isfinite(g)):
        raise ConvergenceFailure("I + d*d overflows: the pair is too large to factor")


def _overflowing_gram(d: np.ndarray) -> np.ndarray:
    """``d* d``, with an overflow left in it as inf or nan for :func:`_refuse_overflow`
    to refuse, and no warning printed.

    Its blocks on and below the diagonal come from
    :func:`~omega_index.linalg.lower_product`, with the bits of the whole product;
    each is mirrored above the diagonal as it is formed.  Where the BLAS gives
    the whole product exactly Hermitian (OpenBLAS 0.3.31 does at dim 1200, not
    at 1050), the mirrored triangle has its bits too.
    """
    gram = np.empty((d.shape[1], d.shape[1]), dtype=d.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, end, block in linalg.lower_product(d, d, gram):
            gram[:start, start:end] = linalg.adjoint(block[:, :start])
    return gram


def build_q(pair: OperatorPair, orientation: str = "default") -> QBuild:
    """Factor the almost-projection densely for a pair in the requested orientation.

    This is the path :func:`factor` takes for every pair whose d is not
    bidiagonal, and the reference its band path is checked against: it factors
    every pair, banded or not, the same way.

    Q projects onto range([I; d]), with d = C* (``literal``) or d = C
    (``conjugate``, which is the literal Q of the pair (A, -B)).  The factor is
    ``y = [W; d W]`` with W = U^-* lower triangular, where I + d*d = U U* is the
    reverse (UL) Cholesky factorization, so ``y* y = I`` and Q = y y*.  W is found
    by :func:`~omega_index.linalg.lower_triangular_inverse` of the Cholesky factor,
    and its strict upper triangle is written as exact zeros, which the corner
    solves and the Gram behind ``defect`` rely on.  Each product forms only
    what is read: the Gram d*d its blocks on and below the diagonal, mirrored
    above it for the reverse Cholesky, which reads the upper triangle
    (:func:`_overflowing_gram`); d W one column block at a time over only the
    rows of W at or below it.  Each entry sums the same terms in the same order
    as the whole product (see :data:`~omega_index.linalg.PRODUCT_BLOCK`), so
    ``y``, ``epsilon`` and the corners keep the whole products' bits wherever the
    BLAS gives its whole Gram exactly Hermitian.  ``epsilon`` takes one
    eigensolve of the interior block when the pair has no analytic value, for
    every pair: this is the dense reference for the band path's bisection too.
    Its ``epsilon_rounding`` is then the a-priori bound of
    :func:`_interior_self_commutator`.  The diagonal of d*d is checked for
    overflow before epsilon is measured.  A pair stored by its diagonals is read
    through its dense view ``c``.

    ``y`` has the dtype of the stored C: float64 for a real C, so that every
    product, factorization and eigensolve runs in float64, and complex128
    otherwise.

    Raises
    ------
    InsufficientMemory
        If :data:`BUILD_Q_ARRAYS` M-by-M arrays, the dense view of a pair stored
        by its diagonals and :data:`~omega_index.operators.BLAS_RESERVE_BYTES`,
        which the first BLAS and LAPACK calls of a process reserve, would not fit
        in memory; checked first.
    ConvergenceFailure
        If I + d*d overflows or its Cholesky factorization fails.
    """
    resolved = resolve_orientation(orientation)
    header = _header(pair, resolved)
    m = pair.dim
    linalg.require_memory(
        pair.c_bytes + BUILD_Q_ARRAYS * pair.dtype.itemsize * m**2 + BLAS_RESERVE_BYTES,
        f"the dense factor of a dim-{m} pair",
    )
    d = _graph_map(pair.c, resolved)
    gram = _overflowing_gram(d)
    _refuse_overflow(gram.diagonal())
    if pair.known_commutator_norm is None:
        k = pair.interior
        epsilon, rounding = _interior_self_commutator(gram[:k, :k], d[:k])
    else:
        epsilon, rounding = 2.0 * pair.known_commutator_norm, 0.0
    gram[np.diag_indices(m)] += 1.0
    try:
        # reverse Cholesky: with J the flip, J G J = L L* gives G = U U*, U = J L J
        chol = np.linalg.cholesky(gram[::-1, ::-1])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Cholesky factorization of I + d*d failed: {exc}") from exc
    del gram
    inverse = linalg.lower_triangular_inverse(chol)
    del chol
    # W = U^-* = J L^-* J; only its lower triangle is written, the rest stays exact 0
    y = np.zeros((2 * m, m), dtype=d.dtype)
    np.conjugate(inverse.T[::-1, ::-1], out=y[:m], where=np.tri(m, dtype=bool))
    del inverse
    for start, end in linalg.product_blocks(m):
        # the rows of W above start are exactly zero in these columns
        np.matmul(d[:, start:], y[start:m, start:end], out=y[m:, start:end])
    return QBuild(
        y=y, epsilon=epsilon, epsilon_rounding=rounding, defect=_factor_defect(y), **header
    )


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 entrywise, as re^2 + im^2."""
    return x.real * x.real + x.imag * x.imag


def _pivots(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The LDL* pivots p[0] = g[0], p[i] = g[i] - a[i-1] / p[i-1] of the tridiagonal
    with diagonal g and squared off-diagonal moduli a."""
    p = g.tolist()
    for i, ai in enumerate(a.tolist()):
        p[i + 1] -= ai / p[i]
    return np.array(p)


def factor(pair: OperatorPair, orientation: str = "default") -> QBuild | BandQ:
    """Factor Q for counting: a :class:`BandQ` when d is bidiagonal, else :func:`build_q`.

    d (C or C*, as in :func:`build_q`) is bidiagonal when its nonzeros lie on the main
    diagonal and at most one adjacent diagonal: the oscillator in both
    orientations, its ``scalar_shift`` and ``diagonal_decay`` perturbations, the
    commuting grid and the zero pair.  Then G = I + d*d is tridiagonal and only O(M)
    numbers are kept.  d is bidiagonal exactly when C is, and C is bidiagonal
    exactly when the pair stores its diagonals (see
    :class:`~omega_index.operators.OperatorPair`), so the path is read from the
    storage and a pair for the dense path reaches :func:`build_q` with no d formed.
    On the band path d's diagonals are C's (``conjugate``) or C's conjugated with
    lower and upper swapped (``literal``); the factor reads them only through
    squared moduli and zero tests, which conjugation leaves exact, so ``literal``
    swaps C's stored diagonals and copies none.  ``epsilon`` is twice the analytic
    commutator norm or else measured on the interior block of d*d - dd*, which is
    tridiagonal here; its norm is the upper end of a bisection bracket one ulp wide
    (:func:`~omega_index.linalg.tridiagonal_norm`), not the eigensolve
    :func:`build_q` uses.  No M-by-M array is formed, and the O(M) ones are charged
    :data:`BAND_FACTOR_ROW_BYTES` a row against
    :func:`~omega_index.linalg.require_memory` before any is made.

    Raises
    ------
    ConvergenceFailure
        If I + d*d overflows (on the band path, its diagonal or the squared moduli
        of its off-diagonal), or a pivot is not positive (a Cholesky failure on the
        dense path).
    InsufficientMemory
        As raised by :func:`build_q`, or before a band factor or measured epsilon
        that would not fit is begun.
    """
    resolved = resolve_orientation(orientation)
    if pair.diagonals is None:
        return build_q(pair, resolved)
    linalg.require_memory(
        BAND_FACTOR_ROW_BYTES * pair.dim, f"the band factor of a dim-{pair.dim} pair"
    )
    if pair.known_commutator_norm is None:
        epsilon = _band_self_commutator_norm(*pair.diagonals, pair.interior)
    else:
        epsilon = 2.0 * pair.known_commutator_norm
    lower, main, upper = pair.diagonals
    if resolved == "literal":
        lower, upper = upper, lower
    # column j of d holds upper[j-1], main[j] and lower[j]; f is one product
    with np.errstate(over="ignore"):
        g = 1.0 + _abs2(np.append(0.0, upper)) + _abs2(main) + _abs2(np.append(lower, 0.0))
    _refuse_overflow(g)
    f = np.conj(lower) * main[1:] if np.any(lower) else np.conj(main[:-1]) * upper
    with np.errstate(over="ignore"):
        f2 = _abs2(f)
    if not np.all(np.isfinite(f2)):
        # an infinite |f|^2 would reach the pivots as -inf
        raise ConvergenceFailure(
            "I + d*d overflows: its squared off-diagonal is not finite, so a pivot of "
            "I + d*d is not positive; the pair is too large to factor"
        )
    moduli = np.abs(f)
    del f  # complex for a complex C, so not kept through the pivot passes
    top = _pivots(g, f2)
    bottom = _pivots(g[::-1], f2[::-1])[::-1]
    if not (np.all(top > 0) and np.all(bottom > 0)):
        raise ConvergenceFailure("a pivot of I + d*d is not positive")
    rows = g + np.append(0.0, moduli) + np.append(moduli, 0.0)
    x = PIVOT_ROUNDING * (np.finfo(np.float64).eps / 2) * float(np.max(rows))
    e = x / (1.0 - x) if x < 1.0 else np.inf
    return BandQ(
        f2=np.pad(f2, 1),
        top=np.append(1.0, top),
        bottom=np.append(bottom, 1.0),
        main=main,
        upper=np.pad(upper, 1),
        epsilon=epsilon,
        epsilon_rounding=0.0,
        defect=(1.0 + e) * e,
        **_header(pair, resolved),
    )


def _split(pair: OperatorPair, orientation: str) -> BandQ:
    """The band factor of ``pair.base``'s pair C_b, made a factor of the dense C
    of ``pair`` itself by proved bounds on ``norm(C - C_b)`` and on C's epsilon.

    ``pair`` is C = C_b + D rounded: :func:`~omega_index.operators.perturb` added
    the stored perturbation D = delta R (target ``a``, exactly Hermitian) or
    i delta R (``b``, exactly skew-Hermitian) to C_b's dense view.  Write u for
    the unit roundoff, gamma_j = j u / (1 - j u) (:func:`_gamma`), M for the
    dimension and k for the interior.

    **The remainder.**  R is the draw's Hermitian part H divided by a proved
    bound on its norm, and D is that times delta: at most three roundings of
    each component (numpy divides by a real as a product with its reciprocal),
    so ``|D - delta H / bound| <= gamma_3 delta |H / bound|`` entrywise, and in
    norm at most ``gamma_3 delta sqrt(M)``, as the Frobenius norm of H / bound is
    at most sqrt(M) times its norm, which is at most 1.  So ``norm(D) <= nu =
    delta (1 + gamma_3 sqrt(M))``.  Each entry of C is the rounded sum of C_b's
    and D's, exact where C_b's is 0, so E = C - C_b is D + rho, where rho lies on
    C_b's diagonals with ``|rho_ij| <= u |C_ij|``: ``norm(rho) <= kappa``, u times
    the largest modulus of C on C_b's main diagonal plus that on its stored
    off-diagonal.  The remainder r = (nu + kappa)(1 + 8u), the last factor for
    the roundings of evaluating it, bounds ``norm(E)``: delta + 5.7e-16 for the
    dim-1200 oscillator at lambda = 0.01 and delta = 0.002.

    **Counts and gaps.**  The graph projection is 1-Lipschitz in C (Kato,
    *Perturbation Theory for Linear Operators*, Thm IV.2.14), in either
    orientation, and a corner is a compression of it, so by Weyl's inequality
    no corner eigenvalue of C lies further than r from C_b's.  A cut whose C_b
    gap exceeds r therefore has C_b's count, and no eigenvalue of C's corner
    within that gap less r of 1/2.  r is the factor's ``remainder``, which
    :func:`certify` takes off each gap as it counts the cut.  A corner's
    eigenvalues lie in [0, 1], so no gap exceeds 1/2: where r does, every cut's
    gap less r is negative, and the split raises :class:`GapViolation` before it
    bounds epsilon, whose terms would overflow for a large enough r.

    **Epsilon.**  C*C - CC* is C_b's self-commutator plus X = C_b*E + E*C_b -
    C_b E* - E C_b* + E*E - EE*, so C's epsilon is at most C_b's (the analytic
    value or the band bisection, as :func:`factor` finds it) plus the norm of
    X's interior block.  F is E with its entries on C_b's diagonals made those
    of a normal matrix: off C_b's diagonals C is D exactly; C_b's stored
    off-diagonal is set to the mirror of the other one (conjugated, and negated
    for ``b``), which is D's own entry there; the main diagonal is C's less
    C_b's, whose dropped part (imaginary for ``a``, real for ``b``) is exactly 0.
    So F is exactly Hermitian or skew-Hermitian, F*F - FF* = 0, and
    ``norm(F - E) <= eta = u (r + `` the largest modulus of C on C_b's stored
    off-diagonal ``)``.  For such an F the cross terms are the commutator
    [T, F] with the tridiagonal T = C_b* - C_b (``a``) or C_b* + C_b (``b``), so
    X is [T, F] plus terms of norm at most ``4 (norm(C_b) + norm(F)) eta +
    eta^2``, norm(F) <= r + eta.  [T, F] on rows and columns 0..k-1 reads F on
    0..k only; it is formed from T's diagonals, six scaled shifts of F, in
    O(k^2), and its norm is bounded by
    :func:`~omega_index.linalg.hermitian_norm_bound`, whose factors read only
    its lower triangle.  Each entry sums six products, so rounding moves the
    Hermitian matrix that triangle defines by at most 2 gamma_9 times
    ``|T| |F| + |F| |T|``, in norm at most ``4 gamma_9 norm(|T|) sqrt(k + 1)
    norm(F)``.  ``epsilon`` is C_b's plus the proved bound, and
    ``epsilon_rounding`` the sum of these a-priori terms.  norm(C_b) and
    norm(|T|) are bounded by the sums of their diagonals' largest moduli.

    :data:`SPLIT_ARRAYS` arrays of order k + 2 and
    :data:`~omega_index.operators.BLAS_RESERVE_BYTES` are charged against
    :func:`~omega_index.linalg.require_memory` once C_b is factored, before F is
    made.  Raises as :func:`factor` and
    :func:`~omega_index.linalg.hermitian_norm_bound` do, and as above; :func:`omega`
    counts such a pair densely then.
    """
    band, spec = pair.base
    base = factor(band, orientation)
    lower, main, upper = band.diagonals
    c, m, k = pair.stored, pair.dim, pair.interior
    unit = np.finfo(np.float64).eps / 2.0
    # the diagonal of C_b stored beside its main one, if any: 1 upper, -1 lower
    side = 1 if np.any(upper) else -1 if np.any(lower) else 0
    c_side = float(np.max(np.abs(np.diagonal(c, side)))) if side else 0.0
    nu = spec.magnitude * (1.0 + _gamma(3) * np.sqrt(m))
    kappa = unit * (float(np.max(np.abs(np.diagonal(c)))) + c_side)
    remainder = (nu + kappa) * (1.0 + 8.0 * unit)
    if remainder > 0.5:
        raise GapViolation(f"a remainder of {remainder:.6g} leaves no corner gap")
    linalg.require_memory(
        SPLIT_ARRAYS * COMPLEX_BYTES * (k + 2) ** 2 + BLAS_RESERVE_BYTES,
        f"the remainder of a dim-{m} perturbed band pair",
    )
    hermitian = spec.target == "a"
    # T = C_b* - C_b for a, C_b* + C_b for b, by its diagonals, each of length M:
    # T[M-1, M] and T[M, M-1] are 0, for an interior that is all of C
    t_sign = -1.0 if hermitian else 1.0
    t = (np.append(np.conj(upper) + t_sign * lower, 0.0), np.conj(main) + t_sign * main,
         np.append(np.conj(lower) + t_sign * upper, 0.0))
    # F is freed when X is formed, so the norm bound's two arrays are X's only company
    x = _tridiagonal_commutator(t, _normal_remainder(c, main, side, hermitian, k))
    eta = unit * (remainder + c_side)
    norm_f = remainder + eta
    norm_t = sum(float(np.max(np.abs(d), initial=0.0)) for d in t)
    norm_base = sum(float(np.max(np.abs(d), initial=0.0)) for d in band.diagonals)
    rounding = (
        4.0 * _gamma(9) * norm_t * np.sqrt(k + 1.0) * norm_f
        + 4.0 * (norm_base + norm_f) * eta
        + eta * eta
    )
    return replace(
        base,
        epsilon=base.epsilon + linalg.hermitian_norm_bound(x),
        epsilon_rounding=base.epsilon_rounding + rounding,
        remainder=remainder,
        **_header(pair, base.orientation),
    )


def _normal_remainder(
    c: np.ndarray, main: np.ndarray, side: int, hermitian: bool, k: int
) -> np.ndarray:
    """The F of :func:`_split` on rows and columns 0..k, padded with a zero row and
    column in front, so that F[i, j] is ``f[i+1, j+1]``: C there, less C_b's
    ``main`` diagonal, with the diagonal ``side`` (1 upper, -1 lower, 0 none) set
    to the mirror of the other, conjugated for a Hermitian F and negated too for
    a skew-Hermitian one; the main diagonal keeps only its real or its imaginary
    part, which for :func:`_split`'s pairs drops an exact 0."""
    f = np.zeros((k + 2, k + 2), dtype=np.complex128)
    n = min(k + 1, len(c))  # C has no row k when the interior is all of it: F's is 0
    f[1 : n + 1, 1 : n + 1] = c[:n, :n]
    i = np.arange(1, n + 1)
    diagonal = f[i, i] - main[:n]
    f[i, i] = diagonal.real if hermitian else 1j * diagonal.imag
    if side:
        rows, cols = (i[:-1], i[1:]) if side == 1 else (i[1:], i[:-1])
        f[rows, cols] = (1.0 if hermitian else -1.0) * np.conj(f[cols, rows])
    return f


def _tridiagonal_commutator(t: tuple[np.ndarray, np.ndarray, np.ndarray], f: np.ndarray):
    """TF - FT on rows and columns 0..k-1, for the tridiagonal T with diagonals
    ``t`` = (lower, main, upper) and F as :func:`_normal_remainder` pads it.

    Entry (i, j) is the sum over s = -1, 0, 1 of T[i, i+s] F[i+s, j] less
    F[i, j+s] T[j+s, j]: six scaled shifts of F, the terms with a zero scale
    left out, each added in place as it is formed, so that beside the result one
    k-by-k product is alive."""
    lower, main, upper = t
    k = len(f) - 2
    zero = np.zeros(1, dtype=main.dtype)
    inner = f[1:-1, 1:-1]
    terms = (
        (np.concatenate([zero, lower[: k - 1]])[:, None], f[:-2, 1:-1]),
        (main[:k, None], inner),
        (upper[:k, None], f[2:, 1:-1]),
        (-np.concatenate([zero, upper[: k - 1]]), f[1:-1, :-2]),
        (-main[:k], inner),
        (-lower[:k], f[1:-1, 2:]),
    )
    x = np.zeros((k, k), dtype=np.complex128)
    product = np.empty_like(x)
    for scale, shifted in terms:
        if np.any(scale):
            x += np.multiply(scale, shifted, out=product)
    return x


def _band_spectra(bq: BandQ, cuts: list[int]) -> Iterator[tuple[np.ndarray, int, int]]:
    """:func:`_spectra` of a :class:`BandQ`: each cut's free eigenvalue in closed form.

    In the notation of :class:`BandQ`, with the head rows 0..N-2 eliminated
    (X = |f_(N-2)|^2 / t_(N-2)), the pencil (P_N, S_{N+1}) leaves on rows N-1 and N

        P = [[p,  conj(m_(N-1)) u],      p = 1 + |u_(N-2)|^2 + |m_(N-1)|^2 - X,
             [.,  |u|^2          ]],     u = u_(N-1),
        S = [[t,  f],                    t = t_(N-1), f = f_(N-1), b = b_N.
             [.,  b]],

    The factor carries the entries past either end (0, and 1 for a pivot, so X = 0
    at N = 1): u, |f|^2, t and b are its arrays at N, and p reads them and
    ``main`` at N - 1.  When the entry u is not 0, d has no lower diagonal, so
    :func:`factor` formed t = p by the same operations and f as the product
    conj(m_(N-1)) u: with that f read into P, P - S is zero but for its last
    entry, so 1 is an exact eigenvalue and the other is (|u|^2 - |f|^2/t) /
    (b - |f|^2/t).  When u is 0, P = diag(p, 0): 0 is exact and the other is
    p / (t - |f|^2/b).  u is tested as an entry, since |u|^2 can underflow.  Both
    denominators are Schur complements of S, itself one of G >= I, so at least 1
    in exact arithmetic; S is refused unless t, b and the denominator are all
    positive, which is when it is positive definite; a hand-built factor can
    carry one that is not.  No LAPACK routine is called.
    """
    n = np.asarray(cuts)
    u, a, t, b = bq.upper[n], bq.f2[n], bq.top[n], bq.bottom[n]
    p = 1.0 + _abs2(bq.upper[n - 1]) + _abs2(bq.main[n - 1]) - bq.f2[n - 1] / bq.top[n - 1]
    exact_one = u != 0
    denominator = np.where(exact_one, b - a / t, t - a / b)
    if not np.all((t > 0) & (b > 0) & (denominator > 0)):
        raise ConvergenceFailure("a pivot or Schur complement of a cut's pencil is not positive")
    free = np.where(exact_one, _abs2(u) - a / t, p) / denominator
    return ((v, c - k, c - 1 + k) for c, v, k in zip(cuts, free[:, None], exact_one.tolist()))


def theorem_bound(epsilon: float) -> float:
    """The defect bound (4e - 2e^2)/(1 - e)^2, finite only for e < 1."""
    if not np.isfinite(epsilon) or epsilon < 0 or epsilon >= 1:
        raise InvalidParameter(f"epsilon must lie in [0, 1), got {epsilon}")
    return (4.0 * epsilon - 2.0 * epsilon**2) / (1.0 - epsilon) ** 2


def extract_q11(qb: QBuild, cut: int) -> np.ndarray:
    """Corner block of Q on rows/columns {top 0..cut-1} + {bottom 0..cut-1}."""
    check_cuts([cut], qb.dim, qb.boundary_window)
    yc = np.concatenate([qb.y[:cut], qb.y[qb.dim : qb.dim + cut]])
    return yc @ linalg.adjoint(yc)


def corner_eigenvalues(qb: QBuild | BandQ, cut: int) -> np.ndarray:
    """All 2*cut eigenvalues of the corner block at ``cut``, sorted ascending; the cut
    is checked by :func:`check_cuts`.

    Those the structure does not fix are solved in full, and its exact zeros and
    ones put beside them: the one place the whole spectrum is formed, as
    :func:`certify` counts without it.  On the band path that is one free value
    beside N exact zeros and N - 1 exact ones, or N - 1 and N; on the dense path
    :func:`_dense_spectrum`, never the census of :func:`_spectra`, whose zeros
    and ones stand for eigenvalues near them.
    """
    (cut,) = check_cuts([cut], qb.dim, qb.boundary_window)
    if isinstance(qb, BandQ):
        values, zeros, ones = next(_band_spectra(qb, [cut]))
    else:
        values, zeros, ones = _dense_spectrum(qb, cut)
    return np.sort(np.concatenate([np.zeros(zeros), np.ones(ones), values]))


def _spectra(qb: QBuild | BandQ, cuts: list[int]) -> Iterator[tuple[np.ndarray, int, int]]:
    """``(values, zeros, ones)`` at each checked cut N, one cut at a time, for
    :func:`certify` to count: corner eigenvalues, ascending, beside counts of
    zeros and ones that complete them to 2N and count as eigenvalues 1/2 from
    1/2; the one place that tells the two factors apart.

    For a :class:`BandQ` the value is the one free eigenvalue of a 2-by-2 pencil,
    in closed form, beside N - 1 + [u = 0] exact zeros and N - 1 + [u != 0] exact
    ones, u the entry ``upper[N-1]`` of d (see :func:`_band_spectra`).  For a
    :class:`QBuild` the corner formed by :func:`_dense_corner` is counted by
    :func:`_census`: the certified Ritz values beside the eigenvalues it proves
    to lie near 0 and 1, or all of its eigenvalues where the certificate fails.
    """
    if isinstance(qb, BandQ):
        return _band_spectra(qb, cuts)
    return (_census(qb, *_dense_corner(qb, cut)) for cut in cuts)


def _dense_corner(qb: QBuild, cut: int) -> tuple[np.ndarray, int]:
    """The lower triangle of a :class:`QBuild`'s corner at ``cut``, or of its Gram,
    and the number of exact zeros beside its eigenvalues.

    The corner is ``yc yc*`` with ``yc`` the 2N corner rows of ``y``.  The top rows
    are ``[w, 0]`` with w = W[:N, :N], as W is lower triangular; call the bottom
    rows ``v``.  Its rank side is fixed by M: when 2N <= M the corner itself is
    formed, and only the blocks ``w w*``, ``v[:, :N] w*`` and ``v v*`` of its
    lower triangle: those of ``w w*`` and ``v v*`` on and below their diagonals
    (:func:`_lower_outer`), and ``v[:, :N] w*`` one column block at a time over
    only the columns of ``w`` left of the block's end, the rest being exactly
    zero.  Otherwise the M-by-M ``yc* yc = v* v + diag(w* w, 0)``, which has the
    same nonzero eigenvalues beside 2N - M zeros, by
    :func:`~omega_index.linalg.lower_product`, skipping the rows of ``w`` above
    each block.
    """
    m = qb.dim
    w = qb.y[:cut, :cut]
    v = qb.y[m : m + cut]
    if 2 * cut <= m:
        corner = np.zeros((2 * cut, 2 * cut), dtype=qb.y.dtype)
        _lower_outer(w, corner[:cut, :cut])
        _lower_outer(v, corner[cut:, cut:])
        for start, end in linalg.product_blocks(cut):
            # the columns of w past end are exactly zero in these rows
            np.matmul(v[:, :end], linalg.adjoint(w[start:end, :end]), out=corner[cut:, start:end])
        return corner, 0
    gram = np.zeros((m, m), dtype=qb.y.dtype)
    for _ in linalg.lower_product(v, v, gram):
        pass
    for start, end, block in linalg.lower_product(w, w, lower=True):
        gram[start:end, :end] += block
    return gram, 2 * cut - m


def _dense_spectrum(qb: QBuild, cut: int) -> tuple[np.ndarray, int, int]:
    """Every eigenvalue of the :func:`_dense_corner` at ``cut``, beside its exact
    zeros, from one eigensolve, which reads the lower triangle alone."""
    corner, zeros = _dense_corner(qb, cut)
    return linalg.hermitian_eigenvalues(corner), zeros, 0


def _census(qb: QBuild, k: np.ndarray, zeros: int) -> tuple[np.ndarray, int, int]:
    """One dense cut of :func:`_spectra`: the lower triangle ``k`` of a
    :func:`_dense_corner`, beside ``zeros`` exact zeros, counted from one
    certified Lanczos pass, or solved in full where the certificate fails.

    Write n for the order of k, M for the pair's dimension, u for the unit
    roundoff and gamma_j = j u / (1 - j u) (:func:`_gamma`).  The lower
    triangle is mirrored in place, so k is the Hermitian matrix an eigensolver
    reads.  At most
    :data:`CENSUS_STEPS` steps of :func:`~omega_index.linalg.lanczos` run on
    B = k - k^2, whose largest eigenvalue 1/4 - (mu - 1/2)^2 belongs to the
    eigenvalue mu of k nearest 1/2, so its Ritz vector x
    (:func:`~omega_index.linalg.extreme_ritz`) converges first.  Each step's
    product k v is kept, so k x costs no further product with k; mu = x* k x
    and r = |k x - mu x|.  Let

        rho = 2 gamma_(n^2) (n + |k|_F^2),    e = r + rho.

    rho bounds the rounding of each sum below, of which |k|_F^2 with its n^2
    terms is the longest, and exceeds by far the O(CENSUS_STEPS u) by which x
    misses being a unit vector.  In a basis [x, R], k = [[mu, E*], [E, k_R]]
    with |E| <= e, so t = tr k - mu is the trace of k_R and
    q = |k|_F^2 - mu^2 - 2 e^2 is at most |k_R|_F^2: s = t - q bounds
    sum_j nu_j (1 - nu_j) over the eigenvalues nu_j of k_R, up to 2 rho.  Each
    nu_j lies in [-eta, 1 + eta], eta = ``defect`` + 2 gamma_(M+3) tr k: Q is
    within ``defect`` of a projection, and forming k from y rounds it by at most
    the second term (as in :func:`_interior_self_commutator`).  Since
    min(nu, 1 - nu) <= 2 nu (1 - nu) on [0, 1], and by at most 4 eta more
    outside it,

        tau = 2 s + 4 (n - 1) eta + 2 rho

    bounds the sum of the nu_j's distances to {0, 1}, so |t - n_up| <= tau + rho
    for the number n_up of nu_j above 1/2.  The count is certified when
    r < :data:`CENSUS_RESIDUAL`, tau < 1/4 (so n_up = round(t)), and
    e < |mu - 1/2| < 1/2 - tau - 2 e.  Then by Weyl's inequality no eigenvalue
    of diag(mu, k_R) crosses 1/2 on the way to k's, so k has [mu > 1/2] + n_up
    eigenvalues above 1/2, and the one nearest it lies within e of mu (within
    r^2 over the distance to the next, by Kato-Temple, in practice).  mu is
    returned beside n - 1 - n_up + ``zeros`` zeros and n_up ones, which stand
    for the nu_j, each at least 1/2 - tau from 1/2 and so farther than mu.

    Otherwise (a pair far from a band pair, or with two eigenvalues far from 0
    and 1, an eigenvalue at 1/2, a k that is not finite, or steps that end
    before the certificate holds) k is solved in full, as
    :func:`_dense_spectrum` does.  One Ritz pair, from the Lanczos tridiagonal
    by LU solves, needs no eigensolver: a LAPACK eigensolve of even a small
    matrix leaves workspace resident for the rest of the process.
    """
    n = len(k)
    for i in range(1, n):
        k[:i, i] = np.conj(k[i, :i])
    frobenius2 = np.vdot(k, k).real
    if np.isfinite(frobenius2):
        products = []

        def apply(x):
            products.append(k @ x)
            return products[-1] - k @ products[-1]

        basis, alpha, beta = linalg.lanczos(apply, n, k.dtype, CENSUS_STEPS)
        theta, ritz = linalg.extreme_ritz(alpha, beta)
        if theta > 0.0:
            x, kx = ritz @ basis, ritz @ np.array(products)
            mu = np.vdot(x, kx).real
            r = float(np.linalg.norm(kx - mu * x))
            trace = np.trace(k).real
            rho = 2.0 * _gamma(n * n) * (n + frobenius2)
            e = r + rho
            eta = qb.defect + 2.0 * _gamma(qb.dim + 3) * trace
            t = trace - mu
            q = frobenius2 - mu * mu - 2.0 * e * e
            tau = 2.0 * (t - q) + 4.0 * (n - 1) * eta + 2.0 * rho
            distance = abs(mu - 0.5)
            if r < CENSUS_RESIDUAL and tau < 0.25 and e < distance < 0.5 - tau - 2.0 * e:
                ones = round(float(t))
                return np.array([mu]), n - 1 - ones + zeros, ones
    return linalg.hermitian_eigenvalues(k), zeros, 0


def count_upper(eigenvalues) -> tuple[int, float, int, int]:
    """Partition a corner spectrum at the exact threshold 1/2.

    Returns ``(m_n, gap, s0_count, s1_count)`` where ``m_n = #{mu > 1/2}``
    (no tolerance band) and ``gap = min |mu - 1/2|``.  A non-finite eigenvalue
    would make the gap NaN and slip past every gap gate, so it is refused with
    :class:`ConvergenceFailure`.
    """
    values = np.asarray(eigenvalues, dtype=np.float64)
    if values.size == 0:
        raise InvalidParameter("cannot count an empty spectrum")
    if not np.all(np.isfinite(values)):
        raise ConvergenceFailure("corner spectrum holds a non-finite eigenvalue")
    s1 = int(np.count_nonzero(values > 0.5))
    s0 = int(values.size - s1)
    gap = float(np.min(np.abs(values - 0.5)))
    return s1, gap, s0, s1


def _spectral_report(
    cut: int, values: np.ndarray, zeros: int, ones: int, remainder: float = 0.0
) -> SpectralReport:
    """The census of ``values`` beside ``zeros`` exact zeros and ``ones`` exact ones,
    with one of each standing for all: each lies 1/2 from 1/2.  Its gap is less
    ``remainder``, the bound by which a corner eigenvalue of the counted pair may
    lie closer to 1/2 (see :attr:`FactorHeader.remainder`)."""
    some = np.sort(np.concatenate([values, np.zeros(min(zeros, 1)), np.ones(min(ones, 1))]))
    m_n, gap, _, _ = count_upper(some)
    nearest = float(some[np.argmin(np.abs(some - 0.5))])
    return SpectralReport(
        cut=cut, m_n=m_n + ones - min(ones, 1), gap=gap - remainder, nearest=nearest
    )


def default_cuts(dim: int) -> list[int]:
    """Five equispaced cuts in the deep interior [dim/8, 3*dim/8]."""
    lo, hi = dim // 8, (3 * dim) // 8
    return sorted({max(1, int(round(c))) for c in np.linspace(lo, hi, DEFAULT_CUT_COUNT)})


def check_gap_floor(gap_floor: float) -> None:
    """Raise :class:`InvalidParameter` unless ``gap_floor`` is finite and >= 0."""
    if not (np.isfinite(gap_floor) and gap_floor >= 0):
        raise InvalidParameter(f"gap_floor must be finite and >= 0, got {gap_floor}")


def check_cuts(cuts, dim: int, boundary_window: int) -> list[int]:
    """The cuts as a list of ints, each checked to lie in [1, dim - boundary_window].

    ``cuts`` may be any iterable; each cut is checked as it is read, so a long
    range is refused at its first bad cut without being built in full.  A cut
    must be an integer (``operator.index``; a ``bool`` is not a cut), never
    truncated or parsed.  Raises :class:`InvalidParameter` for an empty sweep, a
    cut that is not an integer or a cut below 1 and :class:`CutTooLarge` for a
    cut that reaches into the boundary collar.
    """
    checked = []
    for value in cuts:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise InvalidParameter(f"cut must be an integer, got {value!r}")
        cut = operator.index(value)
        if cut < 1:
            raise InvalidParameter(f"cut must be at least 1, got {cut}")
        if cut > dim - boundary_window:
            raise CutTooLarge(
                f"cut {cut} reaches into the boundary collar "
                f"(dim {dim}, window {boundary_window})",
                cut=cut, dim=dim, boundary_window=boundary_window,
            )
        checked.append(cut)
    if not checked:
        raise InvalidParameter("cut sweep must be non-empty")
    return checked


def omega(
    pair: OperatorPair,
    cuts=None,
    orientation: str = "default",
    gap_floor: float = DEFAULT_GAP_FLOOR,
) -> OmegaResult:
    """Count the index over a sweep of cuts and require a stable answer.

    Checks the arguments before anything is factored, then returns :func:`certify`
    of :func:`factor`, which takes the O(M) band path when d is bidiagonal and
    :func:`build_q` otherwise; ``cuts`` defaults to :func:`default_cuts`.  To count
    many cut lists of one pair, factor it once and call :func:`certify` for each.

    A pair with a :attr:`~omega_index.operators.OperatorPair.base`, one
    ``random_hermitian`` perturbation of a band pair, is first certified from
    that band pair's factor and a proved bound on the remainder
    (:func:`_split`): each cut's ``m_n`` is the band pair's, its ``gap`` a proved
    lower bound, ``epsilon`` a proved upper bound and ``defect`` the band
    factor's.  That path never refuses: where the bound fails the admissibility
    gate, a gap so reduced is below ``gap_floor``, or any other step of the split
    or of :func:`certify` raises, the pair is counted through :func:`factor` as
    any dense pair is.

    Raises
    ------
    InvalidParameter, CutTooLarge
        As raised by :func:`check_cuts`, or if ``gap_floor`` is negative or not finite.
    ConvergenceFailure
        If I + d*d overflows or cannot be factored (see :func:`factor`), or as
        raised by :func:`certify`.
    InadmissibleCommutator, GapViolation, UnstableCount
        As raised by :func:`certify`.
    InsufficientMemory
        As raised by :func:`factor` or :func:`certify`.
    """
    cuts = check_cuts(
        default_cuts(pair.dim) if cuts is None else cuts, pair.dim, pair.boundary_window
    )
    check_gap_floor(gap_floor)
    if pair.base is not None:
        try:
            return certify(_split(pair, orientation), cuts, gap_floor)
        except OmegaIndexError:
            pass  # the split never refuses: the dense factor decides
    return certify(factor(pair, orientation), cuts, gap_floor)


def certify(qb: QBuild | BandQ, cuts, gap_floor: float = DEFAULT_GAP_FLOOR) -> OmegaResult:
    """Count the index of a factored Q over a sweep of cuts and require a stable answer.

    For each cut N the corner eigenvalues the structure does not fix are found
    (see :func:`_spectra`), those above 1/2 are counted with the ones beside
    them, and ``omega_N = M_N - N``.  The result is accepted only if every cut agrees and
    every corner eigenvalue keeps at least ``gap_floor`` distance from 1/2.  Cuts
    are counted one after another in the calling thread, each kept as its counts
    alone; only the BLAS/LAPACK calls inside each dense census or eigensolve
    may run threaded, and the band path makes none.
    The arguments are checked first, so a malformed request is refused as such
    whatever the pair; then the pair's admissibility and the factor's ``defect``,
    and only then are :data:`CERTIFY_CUT_BYTES` a cut charged against
    :func:`~omega_index.linalg.require_memory` and the first cut solved.  Each
    reported gap is the corner's less the factor's ``remainder`` (0 but for a
    factor of :func:`_split`), and the gap floor is checked on that.

    Raises
    ------
    InvalidParameter, CutTooLarge
        As raised by :func:`check_cuts`, or if ``gap_floor`` is negative or not
        finite, or if the factor's ``epsilon`` is negative.
    InadmissibleCommutator
        Unless ``upper = epsilon + epsilon_rounding`` is below 1 and the defect
        bound there, :func:`theorem_bound`, is below 1/4: the pair's commutator,
        as large as rounding lets it be, lies outside the regime the count is
        certified in (a nan epsilon is refused too).  The detail names
        ``epsilon``, ``rounding`` and ``bound``, the last None where upper is not
        below 1.  This gates the pair, not the idempotency of the Q counted,
        which ``defect`` measures.  Rescale with :func:`scale_admissible` first.
    GapViolation
        If some corner eigenvalue sits within ``gap_floor`` of 1/2.
    UnstableCount
        If different cuts disagree on ``M_N - N``.
    ConvergenceFailure
        If ``defect`` is not finite: a count whose Q has no bound on its
        idempotency certifies nothing.  Also if a corner eigensolve fails, a band
        cut's pencil has a pivot or Schur complement that is not positive, or a
        corner eigenvalue is not finite.
    InsufficientMemory
        If the cuts would not fit, at :data:`CERTIFY_CUT_BYTES` a cut.
    """
    cuts = check_cuts(cuts, qb.dim, qb.boundary_window)
    check_gap_floor(gap_floor)
    if qb.epsilon < 0:
        raise InvalidParameter(f"epsilon must lie in [0, 1), got {qb.epsilon}")
    upper = qb.epsilon + qb.epsilon_rounding
    bound = theorem_bound(upper) if upper < 1.0 else None
    if bound is None or bound >= ADMISSIBLE_BOUND:
        where = "is not below 1" if bound is None else f"gives the defect bound {bound:.6g} >= 1/4"
        raise InadmissibleCommutator(
            f"epsilon = {qb.epsilon:.6g} plus its rounding bound {qb.epsilon_rounding:.6g} "
            f"is {upper:.6g}, which {where}: the count is not certified; rescale the pair "
            "with scale_admissible",
            epsilon=qb.epsilon,
            rounding=qb.epsilon_rounding,
            bound=bound,
        )
    if not np.isfinite(qb.defect):
        raise ConvergenceFailure(
            f"the defect bound is not finite ({qb.defect}): the pair is too large "
            "for the factor's rounding bound; rescale the pair"
        )
    linalg.require_memory(CERTIFY_CUT_BYTES * len(cuts), f"certifying {len(cuts)} cuts")

    reports = [
        _spectral_report(c, *solved, qb.remainder) for c, solved in zip(cuts, _spectra(qb, cuts))
    ]

    violating = [r for r in reports if r.gap < gap_floor]
    if violating:
        detail = ", ".join(f"cut {r.cut}: gap {r.gap:.6g}" for r in violating)
        raise GapViolation(
            f"corner eigenvalues within gap_floor {gap_floor:g} of 1/2 ({detail})",
            cuts=[r.cut for r in violating],
            gaps=[r.gap for r in violating],
            gap_floor=gap_floor,
            nearest=[r.nearest for r in violating],
        )
    per_cut = [r.m_n - r.cut for r in reports]
    if len(set(per_cut)) != 1:
        detail = ", ".join(f"cut {r.cut}: {v}" for r, v in zip(reports, per_cut))
        raise UnstableCount(
            f"cut sweep disagrees ({detail})",
            cuts=[r.cut for r in reports],
            counts=per_cut,
        )

    warnings = []
    if qb.epsilon_measured:
        warnings.append("epsilon measured with boundary masking (no analytic value)")
    return OmegaResult(
        omega=per_cut[0],
        reports=tuple(reports),
        epsilon=qb.epsilon,
        defect=qb.defect,
        orientation=qb.orientation,
        warnings=tuple(warnings),
    )


def scale_admissible(
    pair: OperatorPair, target: float = DEFAULT_SCALE_TARGET
) -> tuple[OperatorPair, float]:
    """Rescale a pair so its masked commutator norm is at most ``target``.

    Scaling C by s scales the commutator by s^2, and the index is invariant
    under positive rescaling, so an inadmissible pair can always be brought into
    the counting regime.  Already-small pairs are returned unchanged (s = 1);
    otherwise ``s = (1 - margin) * sqrt(target / kappa)`` with a 5% margin, where
    kappa is the known commutator norm or, failing that, the masked measurement.

    Returns ``(scaled_pair, s)``: C, and so both A and B, is scaled by s.  The
    scaled pair is stored as the given one is, so a pair stored by its diagonals
    is scaled in O(M).
    """
    if not (np.isfinite(target) and target > 0):
        raise InvalidParameter(f"target must be positive, got {target}")
    kappa = pair.known_commutator_norm
    if kappa is None:
        kappa = masked_commutator_norm(pair)
    if kappa <= target:
        return pair, 1.0
    s = (1.0 - SCALE_MARGIN) * float(np.sqrt(target / kappa))
    known = None
    if pair.known_commutator_norm is not None:
        known = pair.known_commutator_norm * s * s
    stored = s * pair.stored if pair.diagonals is None else tuple(s * x for x in pair.diagonals)
    return replace(pair, stored=stored, known_commutator_norm=known), s
