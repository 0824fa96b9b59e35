"""Builders for the operator pairs under study.

A pair is two Hermitian M-by-M matrices (A, B), truncations of selfadjoint operators
to the span of the first M basis vectors, stored as C = A + iB: only its three central
diagonals when C is bidiagonal, else the M-by-M array (see :class:`OperatorPair`).
Truncation corrupts a boundary collar of the basis; every pair therefore carries a
``boundary_window`` marking the trailing indices that norm measurements must mask.

Available builders, each of which forms C directly:

* :func:`build_harmonic` -- position/momentum in the oscillator (Hermite) basis,
  scaled so the interior commutator is exactly ``i * lam``.
* :func:`build_commuting_grid` -- commuting multiplication operators on a square
  lattice, ordered radially.
* :func:`load_pair` -- user-supplied matrices from ``dense-complex-v1`` JSON files.

plus the analytic corner matrix :func:`build_oscillator_analytic_q` used for
cross-checks and :func:`perturb` for stability experiments.  There is no
declarative pair description: the command line calls a builder and then
:func:`perturb` once per perturbation, and a perturbation sweep perturbs one
built pair at each value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import linalg
from .errors import (
    ConfigParse,
    DimensionMismatch,
    InvalidParameter,
    NonHermitianInput,
)

MATRIX_FORMAT = "dense-complex-v1"

PERTURB_KINDS = ("scalar_shift", "diagonal_decay", "random_hermitian")
PERTURB_TARGETS = ("a", "b")


#: complex M-by-M arrays that :func:`perturb` is charged for a ``random_hermitian``
#: delta, beside the pair's own C and :data:`BLAS_RESERVE_BYTES`: at most three are
#: alive at once (the Hermitian part H, LAPACK's copy of a shift of H and its
#: Cholesky factor, while the norm bound is proved; G and H while H is formed), and
#: the allocator keeps up to half an array more resident (VmHWM growth over the
#: whole call of 3.46 arrays at dim 1200 and 3.10 at dim 3000, the dense view of a
#: band C included)
RANDOM_HERMITIAN_ARRAYS = 4

#: bytes of address space that the first BLAS and LAPACK calls of a process
#: reserve and keep, whatever the order: OpenBLAS's 32 MiB buffer and about 8 MiB
#: more.  VmPeak grew over a ``random_hermitian`` :func:`perturb` of the oscillator,
#: in a fresh process, by 40.7 MiB at dim 100, 44.6 at 300, 106.4 at 1200 and
#: 452.4 at 3000: about three complex M-by-M arrays and 40.5 MiB.
BLAS_RESERVE_BYTES = 44 * 2**20

#: bytes that parsing a ``dense-complex-v1`` file takes per ``[`` in its text,
#: beyond the text itself: the list of each entry, its two floats and the arrays
#: made from them (tracemalloc peaks of 144-204 bytes at dims 50-400, whether the
#: entries are dense, zero, integer or indented; per byte of the file the same
#: peaks span 4.4 to 24 times, so a file's size alone cannot bound them)
PARSE_LIST_BYTES = 208

#: bytes that :func:`build_commuting_grid` takes per lattice point while it sorts
#: the points: a list slot, a tuple and an int for the point and for its sort
#: key (tracemalloc peaks of 180-192 bytes at radii 100-500, where some ints are
#: cached small ones, and 202 bytes on a lattice shifted so that none are)
GRID_POINT_BYTES = 208

#: bytes per row that :func:`build_harmonic` takes: the index range, the upper
#: diagonal's temporaries and the three stored diagonals (peaks of 31.7-32.0 bytes
#: per row of virtual memory at dims 10^6 and 4*10^6; tracemalloc sees 32.0-33.1
#: from 10^4 to 10^6)
HARMONIC_ROW_BYTES = 40

#: bytes of one complex128 entry, the widest entry any dense path allocates
COMPLEX_BYTES = np.dtype(np.complex128).itemsize


@dataclass(frozen=True, init=False)
class OperatorPair:
    """A Hermitian pair, stored as the one matrix C = A + iB, plus truncation metadata.

    C is stored by its diagonals -1, 0 and 1, O(M) numbers, exactly when it is
    bidiagonal: every nonzero on the main diagonal and at most one adjacent
    diagonal, as for :func:`build_harmonic`, :func:`build_commuting_grid` and the
    diagonal perturbations of :func:`perturb`.  Any other C is stored as the M-by-M
    array.  The constructor alone makes that choice: an array C is scanned once
    and replaced by copies of its diagonals when it is bidiagonal, and diagonals
    whose lower and upper are both nonzero are refused.  ``OperatorPair(a=A, b=B,
    ...)`` gates Hermitian A and B from outside the program and forms C, as float64
    when its imaginary part is exactly zero; ``OperatorPair(stored=S, ...)`` takes
    C, as an array or as diagonals, from the program itself, ungated, as
    :func:`dataclasses.replace` passes it.  Every stored array is a read-only view,
    so no pair, nor any copy made by ``replace``, can be changed in place.

    Attributes
    ----------
    stored : ndarray or tuple of ndarray
        C as stored, read-only: the M-by-M array (float64 or complex128), or the
        diagonals ``(lower, main, upper)`` of lengths M - 1, M and M - 1 and one
        dtype, at most one of ``lower`` and ``upper`` nonzero, every other entry of
        C being zero.
    dim : int
        M.
    basis_label : str
        Human-readable name of the basis the truncation was taken in.
    known_commutator_norm : float or None
        Analytic interior value of ``norm(AB - BA)`` when the builder knows it;
        ``None`` means downstream code must measure it (with boundary masking).
    boundary_window : int
        Number of trailing truncation-corrupted indices; all norm measurements
        mask indices ``>= dim - boundary_window``.
    base : tuple of (OperatorPair, PerturbationSpec) or None
        For a pair that :func:`perturb` made by one ``random_hermitian``
        perturbation of a pair stored by its diagonals, that pair and the
        perturbation; else None.  It is not an argument of
        :func:`dataclasses.replace`, so every replaced pair, and so every scaled
        or further perturbed one, has None.
    """

    stored: np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]
    dim: int
    basis_label: str
    known_commutator_norm: float | None
    boundary_window: int
    base: tuple[OperatorPair, PerturbationSpec] | None = field(
        init=False, repr=False, compare=False
    )

    def __init__(self, a=None, b=None, *, dim, basis_label, known_commutator_norm,
                 boundary_window, stored=None, base=None):
        if (a is None) != (b is None) or (a is None) == (stored is None):
            raise InvalidParameter("a pair takes either stored or both a and b")
        if a is not None:
            a, b = (linalg.as_matrix(m) for m in (a, b))
            if a.shape != b.shape:
                raise DimensionMismatch(f"pair shapes {a.shape} and {b.shape} differ")
            for name, m in (("a", a), ("b", b)):
                if not linalg.is_hermitian(m, linalg.HERMITIAN_TOL):
                    raise NonHermitianInput(f"matrix {name} is not Hermitian to tolerance")
            stored = a + 1j * b
            if not np.any(stored.imag):
                # exact zeros only: a real C keeps every later kernel in float64
                stored = np.ascontiguousarray(stored.real)
        if not isinstance(stored, tuple):
            if stored.shape != (dim, dim):
                raise DimensionMismatch(f"pair shape {stored.shape} does not match dim {dim}")
            stored = _bidiagonal(stored) or _read_only(stored)
        if isinstance(stored, tuple):
            dtype = np.result_type(*stored)
            stored = tuple(_read_only(np.asarray(x, dtype=dtype)) for x in stored)
            shapes = tuple(x.shape for x in stored)
            if shapes != ((dim - 1,), (dim,), (dim - 1,)):
                raise DimensionMismatch(f"pair diagonals {shapes} do not match dim {dim}")
            if np.any(stored[0]) and np.any(stored[2]):
                raise InvalidParameter("stored diagonals -1 and 1 are both nonzero")
        if not 0 <= boundary_window < dim / 2:
            raise InvalidParameter(f"boundary_window {boundary_window} must satisfy 0 <= W < dim/2")
        if known_commutator_norm is not None and not 0 <= known_commutator_norm < np.inf:
            raise InvalidParameter("known_commutator_norm must be finite and >= 0")
        # a frozen dataclass: its fields are written here only
        vars(self).update(stored=stored, dim=dim, basis_label=basis_label,
                          boundary_window=boundary_window,
                          known_commutator_norm=known_commutator_norm, base=base)

    @property
    def diagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The stored diagonals ``(lower, main, upper)`` of C, or None for a dense pair."""
        return self.stored if isinstance(self.stored, tuple) else None

    @property
    def dtype(self) -> np.dtype:
        """The dtype of C, float64 or complex128, in either storage."""
        diagonals = self.diagonals
        return self.stored.dtype if diagonals is None else diagonals[1].dtype

    @property
    def c_bytes(self) -> int:
        """Bytes that reading :attr:`c` allocates: none for a dense pair, M^2 entries
        for a pair stored by its diagonals."""
        return 0 if self.diagonals is None else self.dtype.itemsize * self.dim**2

    @property
    def c(self) -> np.ndarray:
        """C = A + iB as an M-by-M array: the stored one, or for a pair stored by its
        diagonals a new read-only array on every access."""
        return self._dense(0)

    @property
    def a(self) -> np.ndarray:
        """A = (C + C*)/2, exactly Hermitian; a new read-only array on every access."""
        c = self._dense(2)
        return _read_only((c + linalg.adjoint(c)) / 2.0)

    @property
    def b(self) -> np.ndarray:
        """B = -i(C - C*)/2, exactly Hermitian; a new read-only array on every access."""
        c = self._dense(2)
        return _read_only((c - linalg.adjoint(c)) * -0.5j)

    @property
    def interior(self) -> int:
        """Number of trustworthy leading indices, ``dim - boundary_window``."""
        return self.dim - self.boundary_window

    def _dense(self, temporaries: int) -> np.ndarray:
        """:attr:`c`, once it is known to fit in memory beside ``temporaries`` more
        M-by-M arrays (see :func:`~omega_index.linalg.require_memory`)."""
        footprint = self.c_bytes + temporaries * COMPLEX_BYTES * self.dim**2
        if footprint:
            linalg.require_memory(footprint, f"a dense view of the dim-{self.dim} pair")
        diagonals = self.diagonals
        if diagonals is None:
            return self.stored
        lower, main, upper = diagonals
        c = np.diag(main)
        i = np.arange(self.dim - 1)
        c[i + 1, i] = lower
        c[i, i + 1] = upper
        return _read_only(c)


def _read_only(m: np.ndarray) -> np.ndarray:
    """A read-only view of ``m``, which itself stays as writable as it was."""
    m = m.view()
    m.flags.writeable = False
    return m


def _bidiagonal(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Copies of the diagonals -1, 0 and 1 of ``c`` when ``c`` is bidiagonal, else
    None; one pass over ``c``."""
    near = tuple(np.diagonal(c, k).copy() for k in (-1, 0, 1))
    lower, main, upper = (np.count_nonzero(x) for x in near)
    bidiagonal = np.count_nonzero(c) == lower + main + upper and not (lower and upper)
    return near if bidiagonal else None


@dataclass(frozen=True)
class PerturbationSpec:
    target: str
    kind: str
    magnitude: float
    seed: int = 0

    def __post_init__(self):
        if self.target not in PERTURB_TARGETS:
            raise InvalidParameter(f"perturbation target must be one of {PERTURB_TARGETS}")
        if self.kind not in PERTURB_KINDS:
            raise InvalidParameter(f"perturbation kind must be one of {PERTURB_KINDS}")
        if not (np.isfinite(self.magnitude) and self.magnitude >= 0):
            raise InvalidParameter("perturbation magnitude must be finite and >= 0")
        if self.seed < 0:
            raise InvalidParameter(f"perturbation seed must be >= 0, got {self.seed}")


def build_harmonic(lam: float, dim: int) -> OperatorPair:
    """Oscillator pair A = sqrt(lam) * X, B = sqrt(lam) * P.

    X = (a + a*)/sqrt(2) and P = i(a* - a)/sqrt(2) are the standard tridiagonal
    position/momentum truncations with [X, P] = iI away from the last basis state,
    so the interior commutator is [A, B] = i*lam*I exactly and
    ``known_commutator_norm = lam``.  C = sqrt(2*lam) * a is real, rounded as the sum
    sqrt(lam)*X + i*sqrt(lam)*P rounds.  The truncation artifact lives entirely in
    the final row/column; ``boundary_window = max(1, dim // 8)``.  C is stored by
    its diagonals, so the pair takes O(M) memory, charged
    :data:`HARMONIC_ROW_BYTES` a row against
    :func:`~omega_index.linalg.require_memory` before any is allocated.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise InvalidParameter(f"lam must be positive, got {lam}")
    if dim < 8:
        raise InvalidParameter(f"dim must be at least 8, got {dim}")
    linalg.require_memory(HARMONIC_ROW_BYTES * dim, f"the oscillator pair at dim {dim}")
    n = np.arange(dim - 1)
    upper = 2.0 * (np.sqrt(lam) * (np.sqrt(n + 1.0) * (1.0 / np.sqrt(2.0))))
    return OperatorPair(
        stored=(np.zeros(dim - 1), np.zeros(dim), upper),
        dim=dim,
        basis_label="oscillator",
        known_commutator_norm=float(lam),
        boundary_window=max(1, dim // 8),
    )


def grid_points(radius: int) -> list[tuple[int, int]]:
    """Lattice points of the (2r+1)^2 square, sorted by radius then lexicographically."""
    pts = [
        (n, m)
        for n in range(-radius, radius + 1)
        for m in range(-radius, radius + 1)
    ]
    pts.sort(key=lambda nm: (nm[0] ** 2 + nm[1] ** 2, nm))
    return pts


def build_commuting_grid(radius: int, scale: float = 1.0) -> OperatorPair:
    """Commuting diagonal pair A = diag(scale*n), B = diag(scale*m) over grid points.

    Points are ordered by n^2 + m^2 ascending (lexicographic tie-break) so that a
    leading cut is radially monotone.  Shells with n^2 + m^2 > radius^2 are clipped
    by the square and form the boundary collar; every complete shell is interior.
    C is diagonal and stored by its diagonals.  Its (2r+1)^2 points are charged
    :data:`GRID_POINT_BYTES` each against
    :func:`~omega_index.linalg.require_memory` before any is made.
    """
    if radius < 1:
        raise InvalidParameter(f"radius must be at least 1, got {radius}")
    if not np.isfinite(scale):
        raise InvalidParameter("scale must be finite")
    linalg.require_memory(
        GRID_POINT_BYTES * (2 * radius + 1) ** 2, f"the commuting grid of radius {radius}"
    )
    pts = grid_points(radius)
    dim = len(pts)
    main = np.array([complex(scale * n, scale * m) for n, m in pts])
    off = np.zeros(dim - 1, dtype=main.dtype)
    r2 = radius * radius
    window = sum(1 for n, m in pts if n * n + m * m > r2)
    return OperatorPair(
        stored=(off, main, off),
        dim=dim,
        basis_label=f"grid-radius-{radius}",
        known_commutator_norm=0.0,
        boundary_window=window,
    )


def build_oscillator_analytic_q(lam: float, cut: int) -> np.ndarray:
    """Closed-form corner matrix for the oscillator pair, for cross-checks.

    Returns the (2*cut)-by-(2*cut) leading principal block of the analytic
    two-by-two block decomposition: a leading scalar 1, blocks with off-diagonal
    ``sqrt(n*lam) / (2*n*lam + 1)`` and diagonals
    ``{2*(n-1)*lam / (2*(n-1)*lam + 1), 1 / (2*n*lam + 1)}`` for n = 1..cut-1, and a
    trailing scalar ``2*cut*lam / (2*cut*lam + 1)``.

    The entries follow a coupling convention that differs from
    :func:`build_harmonic`'s by a factor of 2 in ``lam``; the eigenvalue *counts*
    are convention-independent and that is what this matrix is used to cross-check.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise InvalidParameter(f"lam must be positive, got {lam}")
    if cut < 2:
        raise InvalidParameter(f"cut must be at least 2, got {cut}")
    size = 2 * cut
    q = np.zeros((size, size), dtype=np.complex128)
    q[0, 0] = 1.0
    for n in range(1, cut):
        i, j = 2 * n - 1, 2 * n
        q[i, i] = 2 * (n - 1) * lam / (2 * (n - 1) * lam + 1)
        q[j, j] = 1.0 / (2 * n * lam + 1)
        coupling = np.sqrt(n * lam) / (2 * n * lam + 1)
        q[i, j] = coupling
        q[j, i] = coupling
    q[size - 1, size - 1] = 2 * cut * lam / (2 * cut * lam + 1)
    return q


def _random_unit_hermitian(dim: int, seed: int) -> np.ndarray:
    """Seeded Hermitian matrix R of operator norm in [1/(1 + delta), 1], delta at most
    :data:`~omega_index.linalg.NORM_BOUND_MAX_SLACK` (counter-based generator).

    The Hermitian part H = (G + G*)/2 of a complex Gaussian draw G is divided by
    :func:`~omega_index.linalg.hermitian_norm_bound` of H, a proved upper bound on
    its norm, so ``norm(R) <= 1`` is proved, not measured.  Each part of G is drawn
    into one real buffer, G is freed before the bound runs, and the shifted
    matrices the bound factors, and then R, are formed in H's own array.
    """
    rng = np.random.Generator(np.random.Philox([seed]))
    part = rng.standard_normal((dim, dim))
    g = part.astype(np.complex128)
    g.imag = rng.standard_normal(out=part)
    del part
    r = np.conjugate(g.T, order="C")
    np.add(g, r, out=r)
    del g
    r *= 0.5
    bound = linalg.hermitian_norm_bound(r)
    if bound == 0.0:  # pragma: no cover - measure-zero event
        return np.eye(dim, dtype=np.complex128)
    r /= bound
    return r


def perturb(
    pair: OperatorPair,
    target: str,
    kind: str,
    magnitude: float,
    seed: int = 0,
) -> OperatorPair:
    """Additively perturb one matrix of the pair by a Hermitian delta.

    ``scalar_shift`` adds ``magnitude * I`` (commutes with everything, so the known
    commutator norm survives); ``diagonal_decay`` adds ``magnitude * diag(1/(k+1))``;
    ``random_hermitian`` adds ``magnitude * R``, to C for target ``a`` and times i
    for ``b``, with R a seeded random Hermitian matrix scaled by a proved upper
    bound on its norm, so ``norm(R)`` lies in [1/(1 + delta), 1] with delta at most
    :data:`~omega_index.linalg.NORM_BOUND_MAX_SLACK`.  Randomness uses
    a counter-based generator keyed only by ``seed``, so results do not depend on
    thread scheduling.  For the two non-scalar kinds the analytic commutator value
    no longer applies and ``known_commutator_norm`` is dropped.

    The two diagonal kinds add to C's main diagonal, in O(M) for a pair stored by
    its diagonals, which the result is too.  ``random_hermitian`` makes the pair
    dense; its footprint is checked against
    :func:`~omega_index.linalg.require_memory` before anything is drawn.  When the
    given pair is stored by its diagonals, the result keeps it and the spec as
    :attr:`OperatorPair.base`, from which :func:`~omega_index.index.omega`
    certifies it as that band pair plus a remainder of proved norm.  The stored
    perturbation is exactly Hermitian (target ``a``) or exactly skew-Hermitian
    (``b``): every step from the draw's Hermitian part on rounds an entry and its
    mirror alike.
    """
    spec = PerturbationSpec(target=target, kind=kind, magnitude=magnitude, seed=seed)
    if spec.magnitude == 0.0:
        return pair
    dim = pair.dim
    if spec.kind == "random_hermitian":
        linalg.require_memory(
            pair.c_bytes + RANDOM_HERMITIAN_ARRAYS * COMPLEX_BYTES * dim**2 + BLAS_RESERVE_BYTES,
            f"a random_hermitian perturbation at dim {dim}",
        )
        delta = _random_unit_hermitian(dim, spec.seed)
        delta *= spec.magnitude
        if spec.target == "b":
            delta *= 1j
        # in place: the sum is the one new M-by-M array
        return OperatorPair(
            stored=np.add(pair.c, delta, out=delta),
            dim=dim,
            basis_label=pair.basis_label,
            known_commutator_norm=None,
            boundary_window=pair.boundary_window,
            base=None if pair.diagonals is None else (pair, spec),
        )
    if spec.kind == "scalar_shift":
        values = spec.magnitude * np.ones(dim)
        known = pair.known_commutator_norm
    else:
        values = spec.magnitude * (1.0 / (np.arange(dim) + 1.0))
        known = None
    if spec.target == "b":
        values = 1j * values
    if pair.diagonals is None:
        stored = pair.c + np.diag(values)
    else:
        lower, main, upper = pair.diagonals
        stored = (lower, main + values, upper)
    return replace(pair, stored=stored, known_commutator_norm=known)


def matrix_to_payload(m: np.ndarray) -> dict:
    """JSON-serializable document for a matrix in ``dense-complex-v1`` form."""
    m = linalg.as_matrix(m)
    entries = [
        [[float(v.real), float(v.imag)] for v in row]
        for row in m
    ]
    return {"format": MATRIX_FORMAT, "entries": entries}


def save_matrix(m: np.ndarray, path) -> None:
    """Write a matrix as ``dense-complex-v1`` JSON with round-trip precision."""
    Path(path).write_text(json.dumps(matrix_to_payload(m)) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a ``dense-complex-v1`` JSON matrix file.

    Raises :class:`~omega_index.errors.InsufficientMemory` before the file is read
    whole when parsing it would not fit: its ``[`` are counted in one streamed pass
    and each is charged :data:`PARSE_LIST_BYTES` beside the file's own bytes.
    """
    try:
        with open(path, "rb") as handle:
            lists = sum(block.count(b"[") for block in iter(lambda: handle.read(2**20), b""))
            linalg.require_memory(handle.tell() + PARSE_LIST_BYTES * lists,
                                  f"parsing matrix file {path}")
            handle.seek(0)
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigParse(f"cannot read matrix file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigParse(f"matrix file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MATRIX_FORMAT:
        raise ConfigParse(
            f"matrix file {path} must be a JSON object with format={MATRIX_FORMAT!r}"
        )
    entries = doc.get("entries")
    try:
        raw = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"matrix file {path} has malformed entries: {exc}") from exc
    if raw.ndim != 3 or raw.shape[2] != 2:
        raise ConfigParse(
            f"matrix file {path} entries must be a nested [rows][cols][re, im] array"
        )
    m = raw[..., 0] + 1j * raw[..., 1]
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix in {path} is not square: shape {m.shape}")
    return m


def load_pair(path_a, path_b) -> OperatorPair:
    """Load a pair of Hermitian matrices from two ``dense-complex-v1`` files.

    The analytic commutator norm is unknown for user-supplied pairs and is left
    unset; the boundary window is ``dim // 8``.
    """
    a = load_matrix(path_a)
    dim = a.shape[0]
    return OperatorPair(
        a=a,
        b=load_matrix(path_b),
        dim=dim,
        basis_label="file",
        known_commutator_norm=None,
        boundary_window=dim // 8,
    )
