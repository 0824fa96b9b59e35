import builtins
import contextlib
import json
import pathlib
import re
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import omega_index.calibration as calibration
import omega_index.cli as cli_module
import omega_index.index as index_module
import omega_index.linalg as linalg_module
import omega_index.operators as operators_module
from omega_index import (
    BandQ,
    ConvergenceFailure,
    CutTooLarge,
    GapViolation,
    InadmissibleCommutator,
    InsufficientMemory,
    InvalidParameter,
    OmegaIndexError,
    OperatorPair,
    QBuild,
    UnstableCount,
    build_commuting_grid,
    build_harmonic,
    build_q,
    certify,
    corner_eigenvalues,
    count_upper,
    default_cuts,
    extract_q11,
    factor,
    grid_points,
    hermitian_eigen,
    load_pair,
    masked_commutator_norm,
    omega,
    operator_norm,
    perturb,
    q_blocks_from_c,
    resolve_orientation,
    save_matrix,
    scale_admissible,
    theorem_bound,
)
from omega_index.index import (
    ADMISSIBLE_BOUND,
    DEFAULT_ORIENTATION,
    ORIENTATIONS,
    PIVOT_ROUNDING,
    _abs2,
    _factor_defect,
)
from omega_index.linalg import PRODUCT_BLOCK


def full_q(qb):
    """The full 2M-by-2M projection ``y y*`` of a factored Q."""
    return qb.y @ qb.y.conj().T


def zero_pair(dim=1):
    z = np.zeros((dim, dim), dtype=complex)
    return OperatorPair(
        a=z,
        b=z,
        dim=dim,
        basis_label="zero",
        known_commutator_norm=0.0,
        boundary_window=0,
    )


@pytest.fixture(scope="module")
def harmonic200():
    return build_harmonic(0.01, 200)


@pytest.fixture(scope="module")
def harmonic200_q_literal(harmonic200):
    return build_q(harmonic200, "literal")


# ---------------------------------------------------------------- assembly


def test_q_blocks_hand_example():
    c = np.array([[0, 1], [0, 0]], dtype=complex)
    q = q_blocks_from_c(c)
    expected = np.array(
        [
            [0.5, 0, 0, 0.5],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [0.5, 0, 0, 0.5],
        ],
        dtype=complex,
    )
    assert np.allclose(q, expected, atol=1e-15)
    assert np.allclose(q @ q, q, atol=1e-14)


def test_build_q_zero_pair():
    qb = build_q(zero_pair(), "literal")
    assert np.allclose(full_q(qb), np.array([[1, 0], [0, 0]]), atol=1e-15)
    assert qb.epsilon == 0.0
    assert qb.defect <= 1e-15


def test_build_q_epsilon_uses_known_value(harmonic400_q):
    assert harmonic400_q.epsilon == 0.02
    assert harmonic400_q.orientation == "conjugate"


def test_build_q_epsilon_measured_when_unknown(harmonic200):
    anon = OperatorPair(
        a=harmonic200.a,
        b=harmonic200.b,
        dim=harmonic200.dim,
        basis_label="anon",
        known_commutator_norm=None,
        boundary_window=harmonic200.boundary_window,
    )
    qb = build_q(anon, "literal")
    assert abs(qb.epsilon - 0.02) <= 1e-9


def test_build_q_defect_is_tiny(harmonic400_q, grid10_q):
    assert harmonic400_q.defect <= 1e-12
    assert grid10_q.defect <= 1e-12


def test_build_q_is_hermitian(harmonic400_q, grid10_q):
    for qb in (harmonic400_q, grid10_q):
        q = full_q(qb)
        assert np.max(np.abs(q - q.conj().T)) <= 1e-12


def test_build_q_orientations_differ(harmonic200, harmonic200_q_literal):
    conj = build_q(harmonic200, "conjugate")
    assert not np.allclose(full_q(conj), full_q(harmonic200_q_literal), atol=1e-6)


def test_resolve_orientation():
    assert resolve_orientation("literal") == "literal"
    assert resolve_orientation("conjugate") == "conjugate"
    assert resolve_orientation("default") in ("literal", "conjugate")
    with pytest.raises(InvalidParameter):
        resolve_orientation("upside_down")


def test_default_orientation_is_the_calibrated_one():
    """The constant default is the orientation the calibration run pins: a change to
    the construction that flips the reference pair's sign fails here."""
    record = calibration.run_calibration()
    assert record["pinned"] == DEFAULT_ORIENTATION
    assert record["omega_by_orientation"] == {"conjugate": 1, "literal": -1}


def test_default_orientation_reads_no_file(monkeypatch):
    """The sign of a default report comes from code, not from a file on disk."""

    def refuse(*args, **kwargs):
        raise OSError("no file may be read")

    monkeypatch.setattr(pathlib.Path, "read_text", refuse)
    monkeypatch.setattr(builtins, "open", refuse)
    assert resolve_orientation("default") == "conjugate"
    assert omega(build_harmonic(0.01, 120), cuts=[70, 85, 100]).omega == 1


# ---------------------------------------------------------------- factored Q


@pytest.fixture(scope="module")
def dense200():
    return perturb(build_harmonic(0.01, 200), "a", "random_hermitian", 0.002, 7)


def _dual_corner(m, dim, cut):
    idx = np.concatenate([np.arange(cut), dim + np.arange(cut)])
    return m[np.ix_(idx, idx)]


@pytest.mark.parametrize("orientation", ["literal", "conjugate"])
def test_corners_match_assembled_q_dense(dense200, orientation):
    c = dense200.a + 1j * dense200.b
    if orientation == "conjugate":
        c = c.conj().T
    q = q_blocks_from_c(c)
    qb = build_q(dense200, orientation)
    for cut in (1, 40, 100, dense200.interior):
        err = np.max(np.abs(extract_q11(qb, cut) - _dual_corner(q, 200, cut)))
        assert err <= 1e-13, (cut, err)


def test_corners_match_assembled_q_grid(grid10, grid10_q):
    q = q_blocks_from_c(grid10.a - 1j * grid10.b)  # default is conjugate
    assert grid10_q.orientation == "conjugate"
    for cut in (40, 80, grid10.interior):
        err = np.max(np.abs(extract_q11(grid10_q, cut) - _dual_corner(q, grid10.dim, cut)))
        assert err <= 1e-13, (cut, err)


@pytest.mark.parametrize("orientation", ["literal", "conjugate"])
def test_defect_bounds_masked_idempotency(dense200, grid10, orientation):
    """Both sides are rounding-level here; the allowance is the typical rounding
    of the length-2M inner products that form q and q @ q in float64."""
    for pair in (dense200, grid10):
        qb = build_q(pair, orientation)
        q = full_q(qb)
        masked = operator_norm(_dual_corner(q @ q - q, pair.dim, pair.interior))
        allowance = np.sqrt(2 * pair.dim) * np.finfo(float).eps
        assert masked <= qb.defect + allowance
        assert qb.defect <= 1e-12


def test_factor_defect_bounds_a_real_defect():
    """Away from round-off the certificate (1 + e) e is a true upper bound."""
    rng = np.random.default_rng(41)

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    for trial in range(20):
        dim = int(rng.integers(2, 30))
        noise = gaussian(2 * dim, dim)
        y = np.linalg.qr(gaussian(2 * dim, dim))[0]
        y = y + 10.0 ** rng.uniform(-6, -1) * noise / np.linalg.norm(noise, 2)
        q = y @ y.conj().T
        # 64 ulps of absolute allowance for forming q and q @ q in float64
        assert operator_norm(q @ q - q) <= _factor_defect(y) + 64 * np.finfo(float).eps
    y = 1.01 * np.linalg.qr(gaussian(20, 10))[0]  # uniform scaling: the bound is tight
    q = y @ y.conj().T
    assert operator_norm(q @ q - q) == pytest.approx(_factor_defect(y), rel=1e-9)


@pytest.mark.parametrize("cols", [1, 2, 17, PRODUCT_BLOCK, PRODUCT_BLOCK + 45])
@pytest.mark.parametrize("complex_", [False, True])
def test_factor_defect_bounds_the_spectral_certificate(cols, complex_):
    """On a random y = [W; V], W lower triangular as in QBuild, e is the largest row
    sum of |y* y - I| over the whole Gram, and never below its spectral norm."""
    rng = np.random.default_rng(cols)
    y = rng.standard_normal((2 * cols, cols))
    if complex_:
        y = y + 1j * rng.standard_normal((2 * cols, cols))
    y[:cols] = np.tril(y[:cols])
    y /= 10.0 ** rng.uniform(-1, 1) * np.sqrt(cols)
    gram = y.conj().T @ y - np.eye(cols)
    row_sum = float(np.max(np.sum(np.abs(gram), axis=1)))
    assert _factor_defect(y) == pytest.approx((1.0 + row_sum) * row_sum, rel=1e-12)
    e = float(np.max(np.abs(np.linalg.eigvalsh(gram))))
    # a relative 1e-12 for the eigensolver's own rounding when the two coincide
    assert _factor_defect(y) >= (1.0 + e) * e * (1.0 - 1e-12)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("complex_", [False, True])
def test_the_bottom_of_y_has_the_bits_of_the_whole_product(orientation, complex_):
    """build_q forms d W one column block at a time, over only the rows of W at or
    below the block; at a dim of two blocks and a remainder that is d @ W bit for
    bit, with W's strict upper triangle exactly zero.  The real case runs on one
    BLAS thread, as in test_linalg's kernel test."""
    dim = 2 * linalg_module.PRODUCT_BLOCK + 45
    pair = perturb(build_harmonic(0.01, dim), "a", "random_hermitian", 0.002, 5)
    if not complex_:
        pair = OperatorPair(stored=pair.c.real.copy(), dim=dim, basis_label="real",
                            known_commutator_norm=None, boundary_window=pair.boundary_window)
    with contextlib.nullcontext() if complex_ else linalg_module.serial_blas():
        qb = build_q(pair, orientation)
        d = pair.c if orientation == "conjugate" else pair.c.conj().T
        w = qb.y[:dim]
        assert qb.y.dtype == pair.c.dtype and not np.any(np.triu(w, 1))
        assert qb.y[dim:].tobytes() == np.ascontiguousarray(d @ w).tobytes()


def test_build_q_takes_no_order_m_eigensolve_or_general_inverse(dense200, monkeypatch):
    """The dense factor of a pair without an analytic epsilon solves one eigenproblem,
    the interior (M - window) block of epsilon, and inverts only base blocks."""
    seen = {"eigvalsh": [], "inv": []}

    def recording(name, fn):
        def wrapper(m, *args, **kwargs):
            seen[name].append(m.shape[-1])
            return fn(m, *args, **kwargs)
        return wrapper

    for name in seen:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    qb = build_q(dense200, "conjugate")
    assert qb.epsilon_measured
    assert seen["eigvalsh"] == [dense200.interior]
    assert seen["inv"] and max(seen["inv"]) < linalg_module.TRIANGULAR_BASE


def test_build_q_factor_failure_is_convergence_failure(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(ConvergenceFailure):
        build_q(zero_pair(), "literal")


def test_build_q_refuses_an_overflowing_gram():
    """A commuting pair near the float range: C*C overflows, and cholesky would not say so."""
    pair = build_commuting_grid(4, 1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceFailure, match="overflows"):
            build_q(pair, "literal")
    # the gate is not over-eager: just inside the range the dense factor is formed and
    # bounded, and only the band path's a-priori bound, which omega takes, is infinite
    pair = build_commuting_grid(4, 1e150)
    assert np.isfinite(build_q(pair, "literal").defect)
    with pytest.raises(ConvergenceFailure, match="defect bound is not finite"):
        omega(pair, cuts=[20])


def _svd_factor(c):
    """The factor of the literal Q from one SVD, C = U S V*: y = [U; V S] / sqrt(1 + S^2)."""
    u, s, vh = np.linalg.svd(c)
    root = np.hypot(1.0, s)
    return np.concatenate([u / root, vh.conj().T * (s / root)])


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
def test_corners_match_the_svd_factor(dense200, scale):
    """The triangular basis spans the same graph as the singular vectors, so the corners agree."""
    pair = OperatorPair(
        a=scale * dense200.a,
        b=scale * dense200.b,
        dim=200,
        basis_label="scaled",
        known_commutator_norm=None,
        boundary_window=dense200.boundary_window,
    )
    qb = build_q(pair, "literal")
    y = _svd_factor(pair.a + 1j * pair.b)
    for cut in (1, 40, 100, 101, pair.interior):
        yc = np.concatenate([y[:cut], y[200 : 200 + cut]])
        err = np.max(np.abs(extract_q11(qb, cut) - yc @ yc.conj().T))
        assert err <= 1e-12, (scale, cut, err)


def test_a_dense_masked_norm_carries_its_rounding_bound(dense200):
    """On the dense path the masked norm is half the factor's epsilon plus its
    rounding bound: an upper end, as the band path's bisection gives.  The two
    Grams differ in shape, so their last bits may differ too; the bound is ~1e-9 of
    epsilon here, far above the tolerance."""
    qb = build_q(dense200, "conjugate")
    assert qb.epsilon_rounding > 1e-9 * qb.epsilon
    expected = 0.5 * (qb.epsilon + qb.epsilon_rounding)
    assert masked_commutator_norm(dense200) == pytest.approx(expected, rel=1e-13)


def test_masked_commutator_norm_harmonic(harmonic200):
    assert masked_commutator_norm(harmonic200) == pytest.approx(0.01, abs=1e-9)


# ---------------------------------------------------------------- grid structure


def test_grid_q_couples_conjugate_points_only(grid10, grid10_q):
    m = grid10.dim
    y = grid10_q.y
    top_bottom = y[:m] @ y[m:].conj().T
    off = top_bottom - np.diag(np.diag(top_bottom))
    assert np.max(np.abs(off)) <= 1e-15


def test_grid_q_diagonal_value_at_known_point(grid10_q):
    idx = grid_points(10).index((1, 2))
    row = grid10_q.y[idx]
    assert (row @ row.conj()).real == pytest.approx(1 / 6, rel=1e-12)


# ---------------------------------------------------------------- bound


def test_theorem_bound_values():
    assert theorem_bound(0.0) == 0.0
    assert theorem_bound(0.02) == pytest.approx(0.08246563931695128, rel=1e-13)
    assert theorem_bound(0.04) == pytest.approx(0.1701388888888889, rel=1e-13)
    assert theorem_bound(0.2) == pytest.approx(1.1249999999999998, rel=1e-13)


def test_theorem_bound_monotone():
    grid = np.linspace(0, 0.9, 50)
    vals = [theorem_bound(e) for e in grid]
    assert np.all(np.diff(vals) > 0)


def test_theorem_bound_quarter_crossing():
    # The admissibility threshold sits at the root of 9e^2 - 18e + 1.
    root = (18 - np.sqrt(288)) / 18
    assert theorem_bound(root * (1 - 1e-9)) < 0.25
    assert theorem_bound(root * (1 + 1e-9)) > 0.25


def test_theorem_bound_domain():
    with pytest.raises(InvalidParameter):
        theorem_bound(1.0)
    with pytest.raises(InvalidParameter):
        theorem_bound(-0.1)
    with pytest.raises(InvalidParameter):
        theorem_bound(float("nan"))


# ---------------------------------------------------------------- corners


def test_extract_q11_full_cut_for_windowless_pair():
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = np.diag([0.5, 0.0, -1.0]).astype(complex)
    pair = OperatorPair(
        a=a, b=b, dim=3, basis_label="diag", known_commutator_norm=0.0, boundary_window=0
    )
    qb = build_q(pair, "literal")
    assert np.array_equal(extract_q11(qb, 3), full_q(qb))


def test_extract_q11_shape(harmonic400_q):
    assert extract_q11(harmonic400_q, 100).shape == (200, 200)


def test_extract_q11_respects_boundary_collar(harmonic400_q):
    extract_q11(harmonic400_q, 350)
    with pytest.raises(CutTooLarge):
        extract_q11(harmonic400_q, 351)
    with pytest.raises(InvalidParameter):
        extract_q11(harmonic400_q, 0)


def test_extract_q11_interleaved_bookkeeping():
    """The corner selects top and bottom copies of the same leading vectors."""
    pair = build_harmonic(0.01, 16)
    qb = build_q(pair, "literal")
    cut = 5
    q11 = extract_q11(qb, cut)
    full_perm = np.arange(32).reshape(2, 16).T.reshape(-1)  # 0,16,1,17,...
    interleaved = full_q(qb)[np.ix_(full_perm, full_perm)][: 2 * cut, : 2 * cut]
    corner_perm = np.arange(2 * cut).reshape(2, cut).T.reshape(-1)
    assert np.array_equal(q11[np.ix_(corner_perm, corner_perm)], interleaved)


# ---------------------------------------------------------------- corner spectra


@pytest.fixture(scope="module")
def dense200_q(dense200):
    return {o: build_q(dense200, o) for o in ("literal", "conjugate")}


def _check_corner_spectrum(qb, cut):
    """corner_eigenvalues against the eigendecomposition of the formed corner."""
    values = corner_eigenvalues(qb, cut)
    reference = hermitian_eigen(extract_q11(qb, cut)).values
    assert values.shape == (2 * cut,)
    assert np.all(np.diff(values) >= 0)
    assert np.max(np.abs(values - reference)) <= 1e-13
    (m_n, gap, s0, s1), (ref_m_n, ref_gap, ref_s0, ref_s1) = (
        count_upper(values),
        count_upper(reference),
    )
    assert (m_n, s0, s1) == (ref_m_n, ref_s0, ref_s1)
    assert abs(gap - ref_gap) <= 1e-13
    return values


@pytest.mark.parametrize("orientation", ["literal", "conjugate"])
@settings(max_examples=15, deadline=None)
@given(cut=st.integers(1, 175))
@example(cut=1)
@example(cut=99)
@example(cut=100)  # 2N = M
@example(cut=101)
@example(cut=175)  # the last cut before the collar
def test_corner_eigenvalues_match_full_corner(dense200_q, orientation, cut):
    """Both sides of 2N <= M give the corner's spectrum; 2N - M of it are padded zeros."""
    values = _check_corner_spectrum(dense200_q[orientation], cut)
    assert np.count_nonzero(values == 0.0) == max(0, 2 * cut - 200)


@pytest.mark.parametrize("orientation", ["literal", "conjugate"])
@pytest.mark.parametrize("cut", [60, 100, 140])  # 2N < M, 2N = M and 2N > M, M = 200
def test_dense_corner_blocks_match_the_formed_corner(dense200_q, orientation, cut):
    """The corner from its three lower blocks, or from the rank-side Gram, has the
    spectrum of the formed corner block and the same count."""
    qb = dense200_q[orientation]
    values = corner_eigenvalues(qb, cut)
    reference = np.linalg.eigvalsh(extract_q11(qb, cut))
    assert np.max(np.abs(values - reference)) <= 1e-13
    assert count_upper(values)[0] == count_upper(reference)[0]


def test_corner_eigenvalues_windowless_grid_at_full_cut():
    """At cut = dim the corner is all of Q: M eigenvalues 1 and exactly M zeros."""
    pair = replace(build_commuting_grid(4), boundary_window=0)
    qb = build_q(pair, "literal")
    values = _check_corner_spectrum(qb, pair.dim)
    assert np.count_nonzero(values == 0.0) == pair.dim
    assert np.max(np.abs(values[pair.dim :] - 1.0)) <= 1e-13
    assert certify(qb, [pair.dim]).omega == 0


def _commuting64():
    """The leading 64-by-64 block of ``build_commuting_grid(4)``: diagonal, so b = 0."""
    grid = build_commuting_grid(4)
    return OperatorPair(
        a=grid.a[:64, :64],
        b=grid.b[:64, :64],
        dim=64,
        basis_label="grid-block",
        known_commutator_norm=0.0,
        boundary_window=0,
    )


def _banded64(harmonic, offsets, unit):
    """The oscillator's C plus ``unit`` * 0.01 on the diagonals +-offsets: a real
    symmetric perturbation of A (unit 1) or of B (unit 1j), not bidiagonal."""
    delta = sum(np.diag(np.full(64 - k, 0.01), k) + np.diag(np.full(64 - k, 0.01), -k)
                for k in offsets)
    return OperatorPair(stored=harmonic.c + unit * delta, dim=64, basis_label="banded",
                        known_commutator_norm=None, boundary_window=0)


def _pairs64():
    """Windowless dim-64 pairs of every band: cuts may then run up to N + b >= M."""
    harmonic = replace(build_harmonic(0.01, 64), boundary_window=0)
    return {
        "harmonic": harmonic,
        "commuting": _commuting64(),
        "diagonal_decay": perturb(harmonic, "a", "diagonal_decay", 0.05),
        "random_hermitian": perturb(harmonic, "b", "random_hermitian", 0.002, 3),
        "tridiagonal": _banded64(harmonic, (1,), 1.0),
        "pentadiagonal": _banded64(harmonic, (1, 2), 1j),
    }


BANDS64 = {"harmonic": 1, "commuting": 0, "diagonal_decay": 1, "random_hermitian": 63,
           "tridiagonal": 1, "pentadiagonal": 2}


@pytest.fixture(scope="module")
def pairs64_q():
    return {
        (kind, o): build_q(pair, o)
        for kind, pair in _pairs64().items()
        for o in ("literal", "conjugate")
    }


@pytest.mark.parametrize("orientation", ["literal", "conjugate"])
@pytest.mark.parametrize("kind", sorted(BANDS64))
def test_basis_is_exactly_triangular_and_banded(pairs64_q, kind, orientation):
    """W has exact zeros above its diagonal, so the corner rows vanish beyond N + b."""
    qb = pairs64_q[kind, orientation]
    b, m = BANDS64[kind], qb.dim
    assert np.all(np.triu(qb.y[:m], 1) == 0)
    for cut in range(1, m + 1):
        assert np.all(qb.y[:cut, cut + b :] == 0)
        assert np.all(qb.y[m : m + cut, cut + b :] == 0)


@pytest.mark.parametrize("orientation", ["literal", "conjugate"])
@pytest.mark.parametrize("kind", sorted(BANDS64))
def test_rank_side_matches_full_corner(pairs64_q, kind, orientation):
    """At every cut, solving the smaller of the corner and the M-by-M Gram changes no
    eigenvalue; past 2N = M the Gram side pads 2N - M exact zeros."""
    qb = pairs64_q[kind, orientation]
    for cut in range(1, qb.dim + 1):
        values = _check_corner_spectrum(qb, cut)
        assert np.count_nonzero(values == 0.0) >= 2 * cut - qb.dim


def test_corner_eigenvalues_validate_cut(harmonic400_q):
    with pytest.raises(CutTooLarge):
        corner_eigenvalues(harmonic400_q, 351)
    with pytest.raises(InvalidParameter):
        corner_eigenvalues(harmonic400_q, 0)


@pytest.mark.parametrize(
    "cuts, error", [([100, 0], InvalidParameter), ([100, 351], CutTooLarge)]
)
def test_certify_refuses_a_bad_cut_before_any_solve(harmonic400, monkeypatch, cuts, error):
    """Checked on a dense QBuild and on a BandQ."""
    solved = []
    monkeypatch.setattr(index_module, "_spectra", lambda qb, cuts: solved.extend(cuts))
    for path in (build_q, factor):
        qb = path(harmonic400, "conjugate")
        with pytest.raises(error):
            certify(qb, cuts)
    assert solved == []


@pytest.mark.parametrize("path", [build_q, factor])
@pytest.mark.parametrize("defect", [np.inf, np.nan])
def test_certify_refuses_a_defect_bound_that_is_not_finite(harmonic400, path, defect):
    """The same factor with its own finite bound passes every gate, so only the bound
    is refused."""
    qb = path(harmonic400, "conjugate")
    assert certify(qb, [100]).omega == 1
    with pytest.raises(ConvergenceFailure, match=re.escape(f"not finite ({defect})")):
        certify(replace(qb, defect=defect), [100])


def test_omega_refuses_an_infinite_defect_bound():
    """At scale 1e7 the band path's rounding bound x = 8u norm(G, inf) reaches 1."""
    with pytest.raises(ConvergenceFailure) as caught:
        omega(build_commuting_grid(4, 1e7), cuts=[20])
    assert caught.value.message == (
        "the defect bound is not finite (inf): the pair is too large for the factor's "
        "rounding bound; rescale the pair"
    )


def _refuse_to_factor(*args, **kwargs):
    raise AssertionError("factor reached")


def _patch_every_factor(monkeypatch):
    """Make both factor paths, the band one and the dense one, fail if reached."""
    for name in ("factor", "build_q"):
        monkeypatch.setattr(index_module, name, _refuse_to_factor)


@pytest.mark.parametrize("cut, error", [(0, InvalidParameter), (400, CutTooLarge)])
def test_omega_refuses_a_bad_cut_before_the_factor(harmonic400, monkeypatch, cut, error):
    _patch_every_factor(monkeypatch)
    with pytest.raises(error):
        omega(harmonic400, cuts=[cut])


@pytest.mark.parametrize("cuts", [[70.9, 90.2], [70, 90.2], ["7"], [True], [np.float64(70)]])
def test_omega_refuses_a_cut_that_is_not_an_integer(harmonic400, monkeypatch, cuts):
    _patch_every_factor(monkeypatch)
    bad = next(c for c in cuts if type(c) is not int)
    with pytest.raises(InvalidParameter, match=re.escape(repr(bad))):
        omega(harmonic400, cuts=cuts)


def test_certify_accepts_a_numpy_integer_cut(harmonic400_q):
    (report,) = certify(harmonic400_q, [np.int64(70)]).reports
    assert report.cut == 70
    assert type(report.cut) is int


def test_certify_checks_cuts_before_admissibility():
    inadmissible = build_q(build_harmonic(0.1, 64))
    with pytest.raises(InadmissibleCommutator):
        certify(inadmissible, [20])
    with pytest.raises(CutTooLarge):
        certify(inadmissible, [20, 60])


def test_count_upper_example():
    m_n, gap, s0, s1 = count_upper([0.01, 0.49, 0.51, 0.99])
    assert (m_n, s0, s1) == (2, 2, 2)
    assert gap == pytest.approx(0.01, abs=1e-15)


def test_count_upper_zeros():
    m_n, gap, s0, s1 = count_upper(np.zeros(6))
    assert (m_n, gap, s0, s1) == (0, 0.5, 6, 0)


def test_count_upper_threshold_is_strict():
    m_n, gap, s0, s1 = count_upper([0.5])
    assert (m_n, gap, s0) == (0, 0.0, 1)


def test_count_upper_empty():
    with pytest.raises(InvalidParameter):
        count_upper([])


def test_count_upper_refuses_a_non_finite_eigenvalue():
    # a NaN gap would compare false against every gap floor
    for bad in (np.nan, np.inf):
        with pytest.raises(ConvergenceFailure):
            count_upper([bad, 0.9])


def test_certify_refuses_a_nan_in_the_factor(harmonic400_q):
    y = harmonic400_q.y.copy()
    y[0, 0] = np.nan
    with pytest.raises(ConvergenceFailure):
        certify(replace(harmonic400_q, y=y), [100])


def test_certify_never_gates_its_own_corners(harmonic400_q, dense200_q, monkeypatch):
    # the corners are Gram products x x*, Hermitian by construction
    def refuse(*args, **kwargs):
        raise AssertionError("is_hermitian called")

    monkeypatch.setattr(linalg_module, "is_hermitian", refuse)
    assert certify(harmonic400_q, [70, 100, 130]).omega == 1
    assert certify(dense200_q["conjugate"], [80, 120]).omega == 1


def test_default_cuts():
    assert default_cuts(400) == [50, 75, 100, 125, 150]
    assert default_cuts(16)[-1] <= 6
    assert (default_cuts(4), default_cuts(7)) == ([1], [1, 2])
    for dim in range(1, 65):
        cuts = default_cuts(dim)
        assert cuts and cuts[0] >= 1
        assert all(a < b for a, b in zip(cuts, cuts[1:])), (dim, cuts)


# ---------------------------------------------------------------- real C


def test_factor_is_real_exactly_when_c_is(grid10, tmp_path):
    harmonic = build_harmonic(0.01, 120)
    save_matrix(harmonic.a, tmp_path / "a.json")
    save_matrix(harmonic.b, tmp_path / "b.json")
    real = {
        "harmonic": harmonic,
        "a:scalar_shift": perturb(harmonic, "a", "scalar_shift", 0.1),
        "a:diagonal_decay": perturb(harmonic, "a", "diagonal_decay", 0.1),
        "file": load_pair(tmp_path / "a.json", tmp_path / "b.json"),
    }
    complex_ = {
        "commuting": grid10,
        "a:random_hermitian": perturb(harmonic, "a", "random_hermitian", 0.002, 5),
        "b:random_hermitian": perturb(harmonic, "b", "random_hermitian", 0.002, 5),
        "b:scalar_shift": perturb(harmonic, "b", "scalar_shift", 0.1),
        "b:diagonal_decay": perturb(harmonic, "b", "diagonal_decay", 0.1),
    }
    for orientation in ORIENTATIONS:
        for name, pair in real.items():
            assert build_q(pair, orientation).y.dtype == np.float64, (name, orientation)
        for name, pair in complex_.items():
            assert build_q(pair, orientation).y.dtype == np.complex128, (name, orientation)


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 24), band=st.integers(0, 23), seed=st.integers(0, 2**32 - 1))
@example(dim=16, band=15, seed=0)  # dense: 2N < k = M below cut 8, 2N = k at 8, 2N > k above
@example(dim=16, band=3, seed=1)  # banded: 2N < k = N + 3 below cut 3, 2N = k at 3, 2N > k above
def test_real_c_counts_as_the_complex_reference(dim, band, seed):
    """A real C is factored in float64; every corner matches the complex assembled Q."""
    rng = np.random.default_rng(seed)
    band = min(band, dim - 1)
    c = np.triu(np.tril(rng.standard_normal((dim, dim)), band), -band) / np.sqrt(dim)
    pair = OperatorPair(
        a=(c + c.T) / 2,
        b=-0.5j * (c - c.T),
        dim=dim,
        basis_label="real",
        known_commutator_norm=None,
        boundary_window=0,
    )
    for orientation, d in (("literal", c), ("conjugate", c.T)):
        qb = build_q(pair, orientation)
        assert qb.y.dtype == np.float64
        q = q_blocks_from_c(d.astype(np.complex128))
        for cut in range(1, dim + 1):
            values = corner_eigenvalues(qb, cut)
            reference = np.linalg.eigvalsh(_dual_corner(q, dim, cut))
            assert np.max(np.abs(values - reference)) <= 1e-13, (orientation, cut)
            assert count_upper(values)[0] == count_upper(reference)[0], (orientation, cut)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_measured_epsilon_of_a_real_pair(orientation):
    pair = perturb(build_harmonic(0.01, 200), "a", "diagonal_decay", 0.05)
    qb = build_q(pair, orientation)
    assert qb.y.dtype == np.float64
    assert qb.epsilon_measured
    # an independent reference: the commutator of the derived A and B, in complex128
    k = pair.interior
    commutator = (pair.a @ pair.b - pair.b @ pair.a)[:k, :k]
    assert qb.epsilon == pytest.approx(2 * operator_norm(commutator), rel=1e-13)


# ---------------------------------------------------------------- band path


def _bidiagonal_pair(dim, seed, complex_, lower, scale=1.0):
    """A windowless pair whose C has random entries on its diagonal and one neighbour."""
    rng = np.random.default_rng(seed)

    def entries(n):
        x = rng.standard_normal(n)
        return x + 1j * rng.standard_normal(n) if complex_ else x

    c = np.diag(entries(dim)) + np.diag(entries(dim - 1), -1 if lower else 1)
    return OperatorPair(stored=scale * c, dim=dim, basis_label="bidiagonal",
                        known_commutator_norm=None, boundary_window=0)


def _band_pairs():
    harmonic = build_harmonic(0.01, 48)
    pairs = {
        "harmonic": harmonic,
        "harmonic-windowless": replace(harmonic, boundary_window=0),
        "grid": build_commuting_grid(3),
        "grid-windowless": replace(build_commuting_grid(3), boundary_window=0),
        "zero": zero_pair(5),
    }
    for target in ("a", "b"):
        for kind in ("scalar_shift", "diagonal_decay"):
            pairs[f"{target}:{kind}"] = perturb(harmonic, target, kind, 0.1)
    return pairs


BAND_PAIRS = _band_pairs()


def _outcome(qb, cuts):
    """The integer and every m_n, or the refusal with its per-cut counts, with the
    admissibility gate set aside (a random C is rarely almost normal)."""
    try:
        result = certify(replace(qb, epsilon=0.0), cuts, gap_floor=0.0)
    except UnstableCount as exc:
        return "unstable", exc.detail["counts"]
    return result.omega, [r.m_n for r in result.reports]


#: how far factor's bisection epsilon may lie from build_q's eigensolve of the same
#: interior block, relative to the larger of that epsilon and the largest |C|^2:
#: each is within rounding of the norm of a block formed from entries of that size
EPSILON_AGREEMENT = 1e-13


def _assert_epsilon_agrees(band, dense, pair):
    if not dense.epsilon_measured:
        assert band.epsilon == dense.epsilon
        return
    scale = float(np.max(np.abs(pair.c), initial=0.0)) ** 2
    assert abs(band.epsilon - dense.epsilon) <= EPSILON_AGREEMENT * max(dense.epsilon, scale)


def _assert_paths_agree(pair, orientation):
    """factor and build_q agree at every cut: counts, spectra to 1e-13 and omega;
    epsilon is the same number when it is analytic and agrees to
    EPSILON_AGREEMENT when it is measured."""
    band, dense = factor(pair, orientation), build_q(pair, orientation)
    assert isinstance(band, BandQ) and isinstance(dense, QBuild)
    for field in ("orientation", "dim", "boundary_window", "epsilon_measured"):
        assert getattr(band, field) == getattr(dense, field), field
    _assert_epsilon_agrees(band, dense, pair)
    cuts = list(range(1, pair.interior + 1))
    for cut in cuts:
        values, reference = corner_eigenvalues(band, cut), corner_eigenvalues(dense, cut)
        assert values.shape == (2 * cut,) and np.all(np.diff(values) >= 0)
        assert np.max(np.abs(values - reference)) <= 1e-13, (orientation, cut)
        assert count_upper(values)[0] == count_upper(reference)[0], (orientation, cut)
    assert _outcome(band, cuts) == _outcome(dense, cuts)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("name", sorted(BAND_PAIRS))
def test_band_path_matches_build_q_on_every_builder(name, orientation):
    """Every cut from 1 up: 2N <= k = N + 1 at cut 1, 2N > k beyond, and k = M at
    cut = dim for the windowless copies."""
    _assert_paths_agree(BAND_PAIRS[name], orientation)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), complex_=st.booleans(),
       lower=st.booleans(), exponent=st.floats(-2, 1))
@example(dim=1, seed=0, complex_=False, lower=False, exponent=0.0)
@example(dim=2, seed=1, complex_=True, lower=True, exponent=1.0)
def test_band_path_matches_build_q_on_random_bidiagonal_c(
    orientation, dim, seed, complex_, lower, exponent
):
    _assert_paths_agree(_bidiagonal_pair(dim, seed, complex_, lower, 10.0**exponent), orientation)


def test_factor_keeps_the_dense_path_for_every_other_c(dense200):
    tridiagonal = np.diag(np.ones(7), 1) + np.diag(np.full(7, 0.5), -1)
    pair = OperatorPair(stored=tridiagonal, dim=8, basis_label="tridiagonal",
                        known_commutator_norm=None, boundary_window=0)
    for orientation in ORIENTATIONS:
        assert isinstance(factor(pair, orientation), QBuild)
        assert isinstance(factor(dense200, orientation), QBuild)
        assert isinstance(build_q(BAND_PAIRS["harmonic"], orientation), QBuild)


def _no_linalg(monkeypatch):
    """Make every function of ``np.linalg`` fail if called."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg reached")

    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("name", ["harmonic", "a:diagonal_decay", "grid"])
def test_the_band_path_calls_no_linalg_routine(name, orientation, monkeypatch):
    """omega, certify and corner_eigenvalues give the same results with every
    np.linalg function (cholesky, inv, eigh, eigvalsh, ...) made to fail."""
    pair = BAND_PAIRS[name]
    cuts = list(range(1, pair.interior + 1, 5))

    def run():
        band = factor(pair, orientation)
        counted = certify(band, cuts, gap_floor=0.0)
        spectra = [corner_eigenvalues(band, cut).tobytes() for cut in cuts]
        return omega(pair, cuts, orientation, gap_floor=0.0), counted, spectra

    expected = run()
    _no_linalg(monkeypatch)
    assert run() == expected


def _float_pencil(band, cut):
    """The 2-by-2 pencil (P, S) on rows N - 1 and N at cut N, assembled in float64
    from the factor's stored floats (see index._band_spectra), whose padding
    carries the entries past either end: ((p, r, u), (t, a, b)) for
    P = [[p, r], [r*, |u|^2]] and S = [[t, f], [f*, b]] with |f|^2 = a.  r is
    taken from one array product, as factor forms f: numpy's scalar product can
    round differently."""
    p = (1.0 + _abs2(band.upper[cut - 1]) + _abs2(band.main[cut - 1])
         - band.f2[cut - 1] / band.top[cut - 1])
    r = (np.conj(band.main) * band.upper[1:])[cut - 1]
    return (p, r, band.upper[cut]), (band.top[cut], band.f2[cut], band.bottom[cut])


def _square(z):
    """|z|^2 exactly, for a stored float or complex."""
    z = complex(z)
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


#: unit roundoff of float64
UNIT = Fraction(1, 2**53)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), complex_=st.booleans(),
       lower=st.booleans(), exponent=st.floats(-2, 1))
@example(dim=1, seed=0, complex_=False, lower=False, exponent=0.0)
@example(dim=2, seed=1, complex_=True, lower=True, exponent=1.0)
def test_each_band_cut_has_one_free_eigenvalue_in_closed_form(
    orientation, dim, seed, complex_, lower, exponent
):
    """At every cut N up to M the band corner is N - 1 + [u = 0] exact zeros,
    N - 1 + [u != 0] exact ones and one free value, u = upper[N-1] of d.  When u
    is not 0 the pencil's P, with its off-diagonal read as f, agrees with S but in
    its last entry, so 1 is an exact eigenvalue; the free value is within the
    closed form's rounding bound of the pencil's other eigenvalue, found exactly
    with Fraction: a few units of roundoff times the magnitudes that its numerator
    and denominator cancel, over the denominator."""
    band = factor(_bidiagonal_pair(dim, seed, complex_, lower, 10.0**exponent), orientation)
    for cut in range(1, dim + 1):
        (p, r, u), (t, f2, b) = _float_pencil(band, cut)
        values, zeros, ones = next(index_module._spectra(band, [cut]))
        exact_one = u != 0
        assert values.shape == (1,)
        assert (zeros, ones) == (cut - 1 + (not exact_one), cut - 1 + exact_one)
        spectrum = corner_eigenvalues(band, cut)
        assert np.count_nonzero(spectrum == 0.0) >= zeros
        assert np.count_nonzero(spectrum == 1.0) >= ones
        t, b, a = Fraction(t), Fraction(b), Fraction(f2)
        if exact_one:
            # p is t_(N-1) bit for bit, and r is the product factor squared into f2
            assert p == t and _abs2(r) == f2
            schur = b - a / t
            mu = (_square(u) - a / t) / schur
            cancelled = _square(u) + a / t + mu * (b + a / t)
        else:
            assert r == 0
            schur = t - a / b
            mu = Fraction(p) / schur
            cancelled = mu * (t + a / b)
        bound = 6 * UNIT / (1 - 6 * UNIT) * cancelled / schur + 2 * UNIT * mu
        assert abs(Fraction(values[0]) - mu) <= bound, (cut, float(mu), values[0])


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("lam, dim", [(0.01, 600), (0.003, 2000)])
def test_the_oscillator_free_eigenvalue_is_within_two_ulps(lam, dim, orientation):
    """With main = 0 the oscillator's f is 0 and its pencil cancels nothing: at
    every cut the free value lies within 2 ulps of the pencil's exact eigenvalue,
    found with Fraction from the factor's stored floats."""
    band = factor(replace(build_harmonic(lam, dim), boundary_window=0), orientation)
    cuts = list(range(1, dim + 1))
    for cut, (values, _, _) in zip(cuts, index_module._spectra(band, cuts)):
        (p, _, u), (t, f2, b) = _float_pencil(band, cut)
        assert f2 == 0
        mu = _square(u) / Fraction(b) if u != 0 else Fraction(p) / Fraction(t)
        assert abs(Fraction(values[0]) - mu) <= 2 * Fraction(np.spacing(float(mu))), cut


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("scale", [1e-30, -1.0])
def test_a_band_pencil_that_is_not_definite_is_refused(scale, orientation):
    """A BandQ whose bottom pivots are scaled by 1e-30 makes a Schur complement of
    some cut's S negative: b - |f|^2/t when u is not 0, t - |f|^2/b when it is.
    Negated, they make b negative, where t - |f|^2/b stays positive."""
    band = factor(BAND_PAIRS["a:diagonal_decay"], orientation)
    broken = replace(band, bottom=scale * band.bottom)
    with pytest.raises(ConvergenceFailure, match="not positive"):
        certify(broken, [10, 20], gap_floor=0.0)
    with pytest.raises(ConvergenceFailure, match="not positive"):
        corner_eigenvalues(broken, 10)


def test_band_corner_eigenvalues_validate_cut(harmonic400):
    band = factor(harmonic400, "conjugate")
    with pytest.raises(CutTooLarge):
        corner_eigenvalues(band, 351)
    with pytest.raises(InvalidParameter):
        corner_eigenvalues(band, 0)


def test_factor_refuses_an_overflowing_gram():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceFailure, match="overflows"):
            factor(build_commuting_grid(4, 1e160), "literal")


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_factor_refuses_a_pivot_that_overflows(orientation):
    """Main and upper diagonals of 1e100 keep I + d*d finite, about 2e200, but
    |f|^2 overflows, so a pivot of I + d*d is -inf and the band factor refuses it."""
    pair = OperatorPair(
        stored=(np.zeros(15), np.full(16, 1e100), np.full(15, 1e100)),
        dim=16,
        basis_label="overflow",
        known_commutator_norm=0.0,
        boundary_window=2,
    )
    with np.errstate(over="ignore"):
        with pytest.raises(ConvergenceFailure, match=r"a pivot of I \+ d\*d is not positive"):
            factor(pair, orientation)


def test_reference_pair_at_dim_3000_never_takes_the_dense_path(monkeypatch):
    """The oscillator at lam = 0.002, dim 3000, default cuts: omega = 1 and every gap is
    2N lam / (2N lam + 1) - 1/2, counted from O(M) numbers."""
    monkeypatch.setattr(index_module, "build_q", _refuse_to_factor)
    lam = 0.002
    result = omega(build_harmonic(lam, 3000))
    assert result.omega == 1
    assert [r.cut for r in result.reports] == default_cuts(3000)
    for report in result.reports:
        x = 2 * report.cut * lam
        assert abs(report.gap - (x / (x + 1) - 0.5)) <= 1e-12, report.cut
    assert result.defect <= 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-6, 6),
       diagonal=st.booleans(), sparse=st.booleans())
@example(n=1, seed=0, exponent=0.0, diagonal=False, sparse=False)  # the zero matrix
@example(n=5, seed=1, exponent=0.0, diagonal=False, sparse=True)
def test_tridiagonal_norm_bisects_to_the_eigensolver_norm(n, seed, exponent, diagonal, sparse):
    """The Sturm bisection of a random Hermitian tridiagonal, with or without a
    diagonal and with some off-diagonal entries zero, agrees with eigvalsh to
    1e-13 relatively: each is within rounding of the norm."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    t = rng.standard_normal(n) * scale * diagonal
    e = (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)) * scale
    if sparse:
        e[rng.random(n - 1) < 0.5] = 0
    dense = np.diag(t).astype(complex) + np.diag(e, 1) + np.diag(e.conj(), -1)
    reference = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
    norm = linalg_module.tridiagonal_norm(t, _abs2(e))
    assert abs(norm - reference) <= 1e-13 * reference


def _report(pair, orientation, cuts):
    """The omega report as the CLI prints it, or the refusal with its detail."""
    try:
        result = omega(pair, cuts, orientation, gap_floor=0.0)
    except OmegaIndexError as exc:
        return type(exc).__name__, exc.message, repr(exc.detail)
    return json.dumps(cli_module._omega_doc(result), indent=2)


@settings(max_examples=40, deadline=None)
@given(builder=st.sampled_from(["harmonic", "commuting_grid"]), lam=st.floats(0.002, 0.05),
       dim=st.integers(16, 120), radius=st.integers(2, 5), scale=st.floats(0.05, 2.0),
       target=st.sampled_from(["a", "b"]),
       kind=st.sampled_from([None, "scalar_shift", "diagonal_decay"]),
       magnitude=st.floats(0.0, 0.3), orientation=st.sampled_from(ORIENTATIONS))
def test_band_storage_counts_as_its_dense_view(
    builder, lam, dim, radius, scale, target, kind, magnitude, orientation
):
    """Every builder, bare or with a diagonal perturbation of A or B, in both
    orientations: the pair entered as its dense C stores the same diagonals bit for
    bit and gives the byte-identical report, and a measured epsilon agrees with
    build_q's eigensolve to EPSILON_AGREEMENT."""
    if builder == "harmonic":
        pair = build_harmonic(lam, dim)
    else:
        pair = build_commuting_grid(radius, scale)
    if kind is not None:
        pair = perturb(pair, target, kind, magnitude)
    dense = OperatorPair(stored=pair.c, dim=pair.dim, basis_label=pair.basis_label,
                         known_commutator_norm=pair.known_commutator_norm,
                         boundary_window=pair.boundary_window)
    for x, y in zip(dense.diagonals, pair.diagonals):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    cuts = sorted({max(1, pair.interior // 4), pair.interior // 2, pair.interior})
    assert _report(pair, orientation, cuts) == _report(dense, orientation, cuts)
    band = factor(pair, orientation)
    assert isinstance(band, BandQ)
    _assert_epsilon_agrees(band, build_q(pair, orientation), pair)
    if band.epsilon_measured:
        assert band.epsilon == 2 * masked_commutator_norm(pair)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       offsets=st.sets(st.sampled_from([-1, 0, 1])), far=st.booleans(),
       complex_=st.booleans(), orientation=st.sampled_from(ORIENTATIONS))
def test_a_pair_stores_its_diagonals_exactly_when_c_is_bidiagonal(
    dim, seed, offsets, far, complex_, orientation
):
    """C with its nonzeros on a random subset of the diagonals -1, 0 and 1, and
    sometimes one entry further out, entered through ``stored`` and through the
    a/b gate: the pair stores its diagonals exactly when C is bidiagonal, and its c
    is the input bit for bit.  A bidiagonal C factors to a BandQ with no dense
    view formed and reports as the pair built from its diagonals; diagonals with
    both neighbours of the main one nonzero are refused."""
    rng = np.random.default_rng(seed)

    def entries(n):
        # quarter-integers, so that A = (C + C*)/2, B and A + iB are exact
        x = rng.integers(-4, 5, n) / 4
        return x + 1j * rng.integers(-4, 5, n) / 4 if complex_ else x

    c = sum((np.diag(entries(dim - abs(k)), k) for k in offsets), np.zeros((dim, dim)))
    if far and dim >= 3:
        i = int(rng.integers(dim - 2))
        j = int(rng.integers(i + 2, dim))
        c[(i, j) if rng.integers(2) else (j, i)] = 0.5
    rows, cols = np.nonzero(c)
    bidiagonal = bool(np.all(np.abs(rows - cols) <= 1)) and not (
        np.any(rows - cols == 1) and np.any(cols - rows == 1))
    meta = dict(dim=dim, basis_label="random", known_commutator_norm=None, boundary_window=0)
    a, b = (c + c.conj().T) / 2, (c - c.conj().T) * -0.5j
    gated_c = a + 1j * b
    if not np.any(gated_c.imag):
        gated_c = gated_c.real
    near = tuple(np.diagonal(c, k) for k in (-1, 0, 1))
    cuts = sorted({1, max(1, dim // 2), dim})
    for pair, expected in ((OperatorPair(stored=c, **meta), c),
                           (OperatorPair(a=a, b=b, **meta), gated_c)):
        assert (pair.diagonals is not None) == bidiagonal
        assert pair.dtype == expected.dtype and pair.c.tobytes() == expected.tobytes()
        assert np.array_equal(pair.c, c)
        if not bidiagonal:
            assert isinstance(factor(pair, orientation), QBuild)
            continue
        # the gate stores a C with no imaginary part as real
        real = pair.dtype.kind == "f"
        reference = OperatorPair(stored=tuple(x.real if real else x for x in near), **meta)
        with mock.patch.object(OperatorPair, "_dense", _refuse_to_factor):
            assert isinstance(factor(pair, orientation), BandQ)
            assert _report(pair, orientation, cuts) == _report(reference, orientation, cuts)
    if np.any(near[0]) and np.any(near[2]):
        with pytest.raises(InvalidParameter, match="both nonzero"):
            OperatorPair(stored=near, **meta)


def test_oscillator_at_dim_20000_certifies_from_o_m_numbers(monkeypatch):
    """lam = 1e-3, M = 2e4 with default cuts, where a dense C would take 3.2 GB:
    omega = 1 in well under a second, with a tracemalloc peak under 20 MiB and no
    M-by-M array formed; likewise with a measured epsilon."""
    monkeypatch.setattr(index_module, "build_q", _refuse_to_factor)
    monkeypatch.setattr(OperatorPair, "_dense", _refuse_to_factor)
    lam, dim = 1e-3, 20000
    start = time.perf_counter()
    result = omega(build_harmonic(lam, dim))
    assert time.perf_counter() - start < 1.0
    assert result.omega == 1 and [r.cut for r in result.reports] == default_cuts(dim)
    for report in result.reports:
        x = 2 * report.cut * lam
        assert abs(report.gap - (x / (x + 1) - 0.5)) <= 1e-12, report.cut
    assert _traced_peak(lambda: omega(build_harmonic(lam, dim))) < 20 * 2**20
    decayed = perturb(build_harmonic(lam, dim), "a", "diagonal_decay", 0.001)
    start = time.perf_counter()
    result = omega(decayed)
    assert time.perf_counter() - start < 1.0
    assert result.omega == 1 and result.warnings
    assert 2 * lam < result.epsilon < 2.1 * lam
    assert _traced_peak(lambda: omega(decayed)) < 20 * 2**20


def test_build_q_refuses_what_will_not_fit_before_it_allocates(monkeypatch):
    """With the memory probe patched below the dense factor's footprint, build_q and
    a factor that needs it are refused before d is formed or anything is
    allocated; the band path needs no such memory."""
    pair = perturb(build_harmonic(0.01, 300), "a", "random_hermitian", 0.002, 7)
    footprint = index_module.BUILD_Q_ARRAYS * 16 * 300**2 + operators_module.BLAS_RESERVE_BYTES
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    monkeypatch.setattr(index_module, "_graph_map", _refuse_to_factor)
    for run in (build_q, factor):
        with pytest.raises(InsufficientMemory, match="dense factor of a dim-300 pair") as info:
            run(pair, "conjugate")
        assert info.value.detail["needed_bytes"] == footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(2**20))
    band = build_harmonic(0.01, 300)
    with pytest.raises(InsufficientMemory):
        build_q(band)
    assert omega(band, cuts=[100]).omega == 1


def test_a_band_factor_is_charged_by_its_rows(monkeypatch):
    """A dim-1000 band factor is refused one byte below its charge, before any of
    its arrays or pivot lists is made, and counted at it."""
    pair = build_harmonic(0.01, 1000)
    footprint = index_module.BAND_FACTOR_ROW_BYTES * 1000
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(index_module, "_abs2", _refuse_to_factor)
        with pytest.raises(InsufficientMemory, match="the band factor of a dim-1000 pair") as info:
            factor(pair)
    assert info.value.detail["needed_bytes"] == footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    assert omega(pair, cuts=[300]).omega == 1


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_a_band_factor_peaks_within_its_charge(complex_, orientation):
    """At M = 10^5 the factor's tracemalloc peak stays within BAND_FACTOR_ROW_BYTES
    a row, for the oscillator's real C and its b:scalar_shift perturbation's complex
    one; literal, which swaps C's diagonals and copies none, peaks no higher than
    conjugate."""
    dim = 100000
    pair = build_harmonic(1e-4, dim)
    if complex_:
        pair = perturb(pair, "b", "scalar_shift", 0.01)
    assert pair.diagonals[1].dtype == (np.complex128 if complex_ else np.float64)
    for warm_up in ORIENTATIONS:  # so that no first-call allocation is traced
        factor(pair, warm_up)
    peak = _traced_peak(factor, pair, orientation)
    assert peak <= index_module.BAND_FACTOR_ROW_BYTES * dim
    assert peak <= _traced_peak(factor, pair, "conjugate")


@pytest.mark.parametrize("name", ["harmonic", "b:scalar_shift"])
def test_a_literal_band_factor_copies_no_diagonal(name):
    """literal keeps C's stored diagonal as it is, for a real and a complex C: d's
    diagonal is its conjugate, which has the same moduli."""
    pair = BAND_PAIRS[name]
    assert np.shares_memory(factor(pair, "literal").main, pair.diagonals[1])


def test_a_measured_band_epsilon_is_charged_by_its_rows(monkeypatch):
    """Measuring the commutator of a dim-1000 band pair, for its factor or alone, is
    refused one byte below its charge, before its arrays or Sturm rows are made."""
    pair = perturb(build_harmonic(0.01, 1000), "a", "diagonal_decay", 0.01)
    footprint = index_module.STURM_ROW_BYTES * 1000
    assert index_module.BAND_FACTOR_ROW_BYTES * 1000 < footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(index_module, "_abs2", _refuse_to_factor)
        for run in (factor, masked_commutator_norm):
            with pytest.raises(InsufficientMemory, match="commutator norm of a dim-1000 band"):
                run(pair)
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    assert factor(pair).epsilon == 2 * masked_commutator_norm(pair) > 0


def test_a_long_sweep_holds_counts_not_spectra(monkeypatch):
    """3301 cuts of a dim-4000 band pair have 11.6 million corner eigenvalues;
    certify keeps three numbers a cut, so the sweep fits in 8 MiB and traces
    under 4 MiB."""
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: 8.0 * 2**20)
    qb = factor(build_harmonic(0.01, 4000))
    result = certify(qb, range(100, 3401))
    assert result.omega == 1 and len(result.reports) == 3301
    assert _traced_peak(certify, qb, range(100, 3401)) < 4 * 2**20


@pytest.mark.parametrize("make, cuts", [
    (lambda: build_harmonic(0.01, 400), range(60, 151)),
    (lambda: perturb(build_harmonic(0.01, 200), "a", "random_hermitian", 0.002, 7),
     [60, 100, 150]),
], ids=["band", "dense"])
def test_certify_charges_its_cuts_before_the_first_solve(make, cuts, monkeypatch):
    """Refused one byte below CERTIFY_CUT_BYTES a cut, before any cut is solved,
    and certified at that charge."""
    qb = factor(make())
    charge = index_module.CERTIFY_CUT_BYTES * len(cuts)

    def solve(*args):
        raise AssertionError("a cut was solved before the charge")

    with monkeypatch.context() as patch:
        patch.setattr(index_module, "_band_spectra", solve)
        patch.setattr(index_module, "_dense_spectrum", solve)
        patch.setattr(linalg_module, "memory_headroom", lambda: charge - 1.0)
        with pytest.raises(InsufficientMemory, match=f"certifying {len(cuts)} cuts") as info:
            certify(qb, cuts, gap_floor=0.0)
    assert info.value.detail["needed_bytes"] == charge
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(charge))
    result = certify(qb, cuts, gap_floor=0.0)
    assert result.omega == 1 and len(result.reports) == len(cuts)


@pytest.mark.parametrize("make, cuts", [
    (lambda: build_harmonic(0.01, 400), [1, 60, 130, 350]),
    (lambda: build_commuting_grid(10), [40, 80, 120]),
    (lambda: perturb(build_harmonic(0.01, 200), "a", "random_hermitian", 0.002, 7),
     [1, 60, 100, 101, 150, 175]),
], ids=["band", "band-diagonal", "dense"])
@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_counting_the_solved_values_matches_counting_the_full_spectrum(
    make, cuts, orientation
):
    """Each cut's (m_n, gap, nearest), counted from the solved values and the
    exact zeros and ones beside them, is count_upper and the first argmin of
    |mu - 1/2| over all 2N sorted values, bit for bit; the dense cuts lie on
    both rank sides of 2N = M = 200.  On the dense path that holds for the full
    solve; certify counts the census, which keeps each m_n and puts the gap and
    nearest value within 1e-13, as a Ritz value's."""
    qb = factor(make(), orientation)
    for cut in cuts:
        (report,) = certify(qb, [cut], gap_floor=0.0).reports
        values = corner_eigenvalues(qb, cut)
        m_n, gap, _, _ = count_upper(values)
        nearest = float(values[np.argmin(np.abs(values - 0.5))])
        if isinstance(qb, QBuild):
            assert report.m_n == m_n
            assert abs(report.gap - gap) <= 1e-13 and abs(report.nearest - nearest) <= 1e-13
            report = index_module._spectral_report(cut, *index_module._dense_spectrum(qb, cut))
        assert (report.m_n, report.gap, report.nearest) == (m_n, gap, nearest)
        assert np.signbit(report.nearest) == np.signbit(nearest)


def test_a_gap_of_one_half_names_the_exact_zero():
    """On the commuting grid every corner eigenvalue is 0 or 1, all 1/2 from 1/2;
    the nearest named is the smallest of them."""
    with pytest.raises(GapViolation) as info:
        omega(build_commuting_grid(10), cuts=[40, 80, 120], gap_floor=0.6)
    assert info.value.detail["gaps"] == [0.5, 0.5, 0.5]
    assert info.value.detail["nearest"] == [0.0, 0.0, 0.0]


def _census_matches_the_full_solve(qb, cut):
    """Whether the census certified the dense corner at ``cut`` with no eigensolve,
    after checking that what certify counts there has the m_n of the full solve
    (:func:`index._dense_spectrum`) and its gap within 1e-13, either way."""
    with mock.patch.object(
        linalg_module, "hermitian_eigenvalues", wraps=linalg_module.hermitian_eigenvalues
    ) as solve:
        counted = index_module._spectral_report(cut, *next(index_module._spectra(qb, [cut])))
    full = index_module._spectral_report(cut, *index_module._dense_spectrum(qb, cut))
    assert counted.m_n == full.m_n
    assert abs(counted.gap - full.gap) <= 1e-13
    return solve.call_count == 0


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(60, 300),
    magnitude=st.floats(0.0, 0.01),
    target=st.sampled_from(["a", "b"]),
    orientation=st.sampled_from(ORIENTATIONS),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_census_counts_perturbed_oscillators_as_the_full_solve(
    dim, magnitude, target, orientation, seed, data
):
    """On random_hermitian perturbations of the oscillator, at drawn cuts on both
    rank sides, the census and its fallback count as the full solve does."""
    pair = perturb(build_harmonic(0.01, dim), target, "random_hermitian", magnitude, seed)
    qb = build_q(pair, orientation)
    cuts = data.draw(st.lists(st.integers(1, dim - pair.boundary_window), min_size=1, max_size=4))
    for cut in cuts:
        event("census" if _census_matches_the_full_solve(qb, cut) else "fallback")


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("kind", sorted(BANDS64))
def test_census_counts_every_cut_of_the_pairs64_as_the_full_solve(pairs64_q, kind, orientation):
    """Every cut of every dim-64 pair, with no collar: the harmonic pair's cut 50,
    where the free eigenvalue is exactly 1/2, falls back; a perturbed pair's
    interior cuts are certified."""
    qb = pairs64_q[kind, orientation]
    certified = [cut for cut in range(1, 65) if _census_matches_the_full_solve(qb, cut)]
    if kind == "harmonic":
        assert 50 not in certified
    if kind in ("random_hermitian", "pentadiagonal"):
        assert set(range(8, 60)) <= set(certified)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_a_dense_index_pair_is_counted_with_no_corner_eigensolve(orientation, monkeypatch):
    """The benchmark's dense pair at a fifth of its size: dim 240 and five corners
    of order at most M, as at dim 1200 with cuts 160:400:60, from cut 64, where
    the gap first clears its floor.  certify solves no corner, and counts as the
    full solve does."""
    qb = factor(perturb(build_harmonic(0.01, 240), "a", "random_hermitian", 0.002, 3), orientation)
    cuts = list(range(64, 113, 12))
    full = [index_module._spectral_report(c, *index_module._dense_spectrum(qb, c)) for c in cuts]

    def solve(m):
        raise AssertionError(f"an eigensolve of order {len(m)}")

    monkeypatch.setattr(linalg_module, "hermitian_eigenvalues", solve)
    result = certify(qb, cuts)
    assert result.omega == (1 if orientation == "conjugate" else -1)
    assert [r.m_n for r in result.reports] == [r.m_n for r in full]
    assert max(abs(r.gap - f.gap) for r, f in zip(result.reports, full)) <= 1e-13


def test_the_census_allocates_less_than_a_copy_of_its_corner(monkeypatch):
    """The census mirrors the corner in place and keeps O(n) vectors a step, where
    the eigensolve it replaces copies the whole corner."""
    qb = factor(perturb(build_harmonic(0.01, 400), "a", "random_hermitian", 0.002, 3))
    corner, zeros = index_module._dense_corner(qb, 130)
    monkeypatch.setattr(linalg_module, "hermitian_eigenvalues", None)
    assert _traced_peak(index_module._census, qb, corner, zeros) < corner.nbytes / 4


def test_the_census_falls_back_where_its_certificate_fails(harmonic400_q, monkeypatch):
    """At cut 50 of the dim-400 oscillator the free eigenvalue is exactly 1/2,
    closer than the census's residual bound, so the corner is solved in full and
    the report is the full solve's; a y with a NaN is solved in full too, and
    refused."""
    solved = []
    solve = linalg_module.hermitian_eigenvalues
    monkeypatch.setattr(
        linalg_module, "hermitian_eigenvalues", lambda m: solved.append(len(m)) or solve(m)
    )
    (report,) = certify(harmonic400_q, [50], gap_floor=0.0).reports
    assert solved == [100]
    assert report == index_module._spectral_report(
        50, *index_module._dense_spectrum(harmonic400_q, 50)
    )
    assert report.m_n == 50 and report.gap < 1e-15
    y = harmonic400_q.y.copy()
    y[410, 20] = np.nan
    solved.clear()
    with pytest.raises(ConvergenceFailure):
        certify(replace(harmonic400_q, y=y), [50], gap_floor=0.0)
    assert solved == [100]


def localized_index(c, cut, threshold):
    """ind_N = |P_N V_c|_F^2 - |P_N V_c*|_F^2, the Fredholm index of ``c``
    localized at the cut, from one SVD of c: V_c holds the right and V_c* the
    left singular vectors whose singular value lies below ``threshold``, and P_N
    keeps the first ``cut`` rows.  It never forms Q."""
    left, sigma, right = np.linalg.svd(c)
    near = sigma < threshold
    return float(np.sum(np.abs(right[near, :cut]) ** 2) - np.sum(np.abs(left[:cut, near]) ** 2))


@settings(max_examples=30, deadline=None)
@given(
    builder=st.sampled_from(["harmonic", "commuting"]),
    kind=st.sampled_from([None, *operators_module.PERTURB_KINDS]),
    target=st.sampled_from(["a", "b"]),
    magnitude=st.floats(1e-4, 1e-3),
    orientation=st.sampled_from(ORIENTATIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_localized_fredholm_index_is_the_certified_omega(
    builder, kind, target, magnitude, orientation, seed
):
    """A second oracle for the integer: the index of d (C in ``conjugate``, C* in
    ``literal``) localized at each cut is within 1e-6 of an integer, and that
    integer is the certified omega.  The threshold is half the base pair's
    smallest nonzero singular value: sqrt(2 lam) for the oscillator, 1 for the
    grid.  A random_hermitian perturbation moves ind_N from the integer by
    about (magnitude)^2 / 4 (1.1e-6 at 0.002, dim 240), hence the magnitudes."""
    if builder == "harmonic":
        base, threshold = build_harmonic(0.01, 240), np.sqrt(0.02) / 2
    else:
        base, threshold = build_commuting_grid(8), 0.5
    pair = base if kind is None else perturb(base, target, kind, magnitude, seed)
    cuts = [80, 120]
    certified = omega(pair, cuts=cuts, orientation=orientation).omega
    d = index_module._graph_map(pair.c, orientation)
    for cut in cuts:
        ind = localized_index(d, cut, threshold)
        assert abs(ind - round(ind)) <= 1e-6
        assert round(ind) == certified


def _traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_factor_forms_nothing_that_build_q_forms_again(orientation, monkeypatch):
    """A dense pair reaches build_q with no d formed, so factor peaks where build_q
    does.  An array C is scanned once, when a pair is built from it; the diagonals
    a builder stores are never scanned, and neither factor nor build_q scans."""
    pair = perturb(build_harmonic(0.01, 300), "a", "random_hermitian", 0.002, 7)
    assert _traced_peak(factor, pair, orientation) <= 1.01 * _traced_peak(
        build_q, pair, orientation
    )
    calls = []
    scan = operators_module._bidiagonal

    def counted(c):
        calls.append(c.shape)
        return scan(c)

    monkeypatch.setattr(operators_module, "_bidiagonal", counted)
    harmonic = build_harmonic(0.01, 300)
    assert calls == []
    noisy = perturb(harmonic, "a", "random_hermitian", 0.002, 7)
    assert len(calls) == 1 and noisy.diagonals is None
    dense_view = replace(harmonic, stored=harmonic.c)
    assert len(calls) == 2 and dense_view.diagonals is not None
    assert isinstance(factor(noisy, orientation), QBuild)
    assert isinstance(factor(dense_view, orientation), BandQ)
    build_q(noisy, orientation)
    build_q(dense_view, orientation)
    assert len(calls) == 2


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("complex_", [False, True])
@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), lower=st.booleans(),
       exponent=st.floats(-3, 6))
def test_band_pivots_are_backward_stable(complex_, dim, seed, lower, exponent):
    """U U* - G of the computed pivots, in long double against the exact G = I + d*d,
    stays within PIVOT_ROUNDING * u * norm(G, inf), in both directions."""
    pair = _bidiagonal_pair(dim, seed, complex_, lower, 10.0**exponent)
    band = factor(pair, "conjugate")
    d = pair.c.astype(np.clongdouble)
    exact = np.eye(dim, dtype=np.clongdouble) + d.conj().T @ d
    # the off-diagonal of G as factor forms it from d = C
    lower, main, upper = pair.diagonals
    f_band = np.conj(lower) * main[1:] if np.any(lower) else np.conj(main[:-1]) * upper
    f = f_band.astype(np.clongdouble)
    a = (f * f.conj()).real
    top, bottom = band.top[1:].astype(np.longdouble), band.bottom[:-1].astype(np.longdouble)
    for diagonal in (bottom + np.append(a / bottom[1:], 0.0), top + np.append(0.0, a / top[:-1])):
        factored = np.diag(diagonal).astype(np.clongdouble) + np.diag(f, 1) + np.diag(f.conj(), -1)
        residual = np.max(np.sum(np.abs(factored - exact), axis=1))
        norm = np.max(np.sum(np.abs(exact), axis=1))
        assert residual <= PIVOT_ROUNDING * np.finfo(np.float64).eps / 2 * norm
    # the diagonal of G as factor forms it from d = C, so the bound below is bit-exact
    c = pair.c
    g = (1.0 + _abs2(np.append(0.0, np.diagonal(c, 1))) + _abs2(np.diagonal(c))
         + _abs2(np.append(np.diagonal(c, -1), 0.0)))
    x = PIVOT_ROUNDING * np.finfo(np.float64).eps / 2 * float(
        np.max(g + np.append(0.0, np.abs(f_band)) + np.append(np.abs(f_band), 0.0)))
    assert band.defect == (1 + x / (1 - x)) * (x / (1 - x))


# ---------------------------------------------------------------- omega


def test_omega_harmonic_deep_cuts(harmonic400):
    res = omega(harmonic400, cuts=range(70, 151, 10))
    assert res.omega == 1
    assert res.orientation == "conjugate"
    assert res.epsilon == 0.02
    assert res.warnings == ()
    for rep in res.reports:
        assert rep.m_n == rep.cut + 1
        assert rep.gap >= 0.05


def test_omega_orientation_reversal(harmonic400):
    assert omega(harmonic400, cuts=[100, 120], orientation="literal").omega == -1
    flipped = OperatorPair(
        a=harmonic400.a,
        b=-harmonic400.b,
        dim=harmonic400.dim,
        basis_label="oscillator-reversed",
        known_commutator_norm=harmonic400.known_commutator_norm,
        boundary_window=harmonic400.boundary_window,
    )
    assert omega(flipped, cuts=[100, 120]).omega == -1


def test_omega_commuting_grid(grid10):
    res = omega(grid10, cuts=[40, 80, 120])
    assert res.omega == 0
    qb = factor(grid10)
    for rep in res.reports:
        assert rep.m_n == rep.cut
        assert rep.gap == pytest.approx(0.5, abs=1e-10)
        values = corner_eigenvalues(qb, rep.cut)
        assert values.shape == (2 * rep.cut,)
        dist = np.minimum(np.abs(values), np.abs(values - 1))
        assert np.max(dist) <= 1e-10


def test_omega_shift_invariance(harmonic200):
    for tau in (0.05, 0.2):
        shifted = perturb(harmonic200, "a", "scalar_shift", tau)
        assert omega(shifted, cuts=[70, 110, 150]).omega == 1


def test_omega_coupling_consistency():
    for lam in (0.005, 0.0075):
        pair = build_harmonic(lam, 400)
        assert omega(pair, cuts=[130, 150]).omega == 1


def test_omega_boundary_eigenvalue_closed_form(harmonic400_q, harmonic200_q_literal):
    """The cut-edge eigenvalue is 2Nl/(2Nl+1) (conjugate) or 1/(2Nl+1) (literal)."""
    vals = hermitian_eigen(extract_q11(harmonic400_q, 100)).values
    inside = vals[(vals > 0.3) & (vals < 0.7)]
    assert inside.size == 1
    assert inside[0] == pytest.approx(2 / 3, abs=1e-10)

    vals = hermitian_eigen(extract_q11(harmonic200_q_literal, 100)).values
    inside = vals[(vals > 0.3) & (vals < 0.7)]
    assert inside.size == 1
    assert inside[0] == pytest.approx(1 / 3, abs=1e-10)


def test_omega_interior_permutation_invariance(harmonic200):
    rng = np.random.default_rng(31)
    p = np.arange(200)
    p[:70] = rng.permutation(70)
    permuted = OperatorPair(
        a=harmonic200.a[np.ix_(p, p)],
        b=harmonic200.b[np.ix_(p, p)],
        dim=200,
        basis_label="oscillator-permuted",
        known_commutator_norm=0.01,
        boundary_window=25,
    )
    base = omega(harmonic200, cuts=[70])
    moved = omega(permuted, cuts=[70])
    assert base.omega == moved.omega == 1
    assert np.allclose(
        corner_eigenvalues(factor(harmonic200), 70),
        corner_eigenvalues(factor(permuted), 70),
        atol=1e-12,
    )


def test_omega_result_bookkeeping(harmonic200):
    res = omega(harmonic200, cuts=[80, 120])
    for rep in res.reports:
        assert res.omega == rep.m_n - rep.cut


def test_omega_warns_on_measured_epsilon(harmonic200):
    anon = OperatorPair(
        a=harmonic200.a,
        b=harmonic200.b,
        dim=200,
        basis_label="anon",
        known_commutator_norm=None,
        boundary_window=25,
    )
    res = omega(anon, cuts=[100, 120])
    assert res.omega == 1
    assert any("masking" in w for w in res.warnings)


@pytest.mark.parametrize("seed", range(5))
def test_a_random_hermitian_perturbation_moves_each_gap_by_at_most_its_magnitude(seed):
    """The graph projection is 1-Lipschitz in C (Kato, Thm IV.2.14) and the
    perturbation's norm is proved to be at most its magnitude, so by Weyl's
    inequality every gap stays within that magnitude of the oscillator's closed
    form 2N lam / (2N lam + 1) - 1/2, and the counts do not move."""
    lam, magnitude = 0.01, 0.002
    pair = perturb(build_harmonic(lam, 300), "a", "random_hermitian", magnitude, seed)
    result = omega(pair, cuts=[100, 150, 200])
    assert result.omega == 1
    for report in result.reports:
        assert report.m_n == report.cut + 1
        x = 2.0 * report.cut * lam
        assert abs(report.gap - (x / (x + 1.0) - 0.5)) <= magnitude + 1e-9


# ---------------------------------------------------------------- omega failures


def test_omega_gap_violation_near_crossover(harmonic200):
    with pytest.raises(GapViolation) as exc:
        omega(harmonic200, cuts=[60])
    assert exc.value.detail["cuts"] == [60]
    with pytest.raises(GapViolation):
        omega(harmonic200, cuts=[50])


def test_omega_unstable_count_across_crossover(harmonic200):
    with pytest.raises(UnstableCount) as exc:
        omega(harmonic200, cuts=[40, 100])
    assert exc.value.detail["counts"] == [0, 1]


def test_omega_inadmissible_commutator():
    pair = build_harmonic(0.1, 64)
    with pytest.raises(InadmissibleCommutator) as exc:
        omega(pair, cuts=[20])
    assert exc.value.detail["bound"] == pytest.approx(1.1249999999999998, rel=1e-12)
    assert "scale_admissible" in exc.value.message


def test_a_dense_epsilon_that_rounding_decided_is_refused():
    """At magnitude 1e100 the interior block of d*d - dd* cancels to rounding:
    epsilon reads as good as 0 while its a-priori rounding bound is ~1e187, so
    the count is refused and names the bound; epsilon stays the eigensolve's."""
    pair = perturb(build_harmonic(0.01, 64), "a", "random_hermitian", 1e100, 0)
    qb = factor(pair)
    assert qb.epsilon < 1.0 and theorem_bound(qb.epsilon) < 0.25
    assert qb.epsilon_rounding > 1e180
    with pytest.raises(InadmissibleCommutator, match="rounding bound") as exc:
        certify(qb, [20])
    assert exc.value.detail == {
        "epsilon": qb.epsilon, "rounding": qb.epsilon_rounding, "bound": None
    }


def _three_gates(epsilon, rounding):
    """The admissibility gates as three checks, as they stood before they were made
    one: epsilon >= 1, then the defect bound at epsilon, then both at epsilon plus
    its rounding bound.  The type of the error they raise, or None where they admit."""
    if epsilon >= 1.0:
        return InadmissibleCommutator
    try:
        if theorem_bound(epsilon) >= ADMISSIBLE_BOUND:
            return InadmissibleCommutator
        upper = epsilon + rounding
        if upper >= 1.0 or theorem_bound(upper) >= ADMISSIBLE_BOUND:
            return InadmissibleCommutator
    except InvalidParameter:
        return InvalidParameter
    return None


#: where the defect bound crosses 1/4
_CROSSING = 0.0571909584179366


@settings(max_examples=300, deadline=None)
@given(
    epsilon=st.floats(-1.0, 1.5) | st.just(float("nan")),
    rounding=st.just(0.0) | st.floats(-17.0, 3.0).map(lambda x: 10.0**x),
)
@example(epsilon=float("nan"), rounding=0.0)
@example(epsilon=-np.inf, rounding=0.0)
@example(epsilon=-0.01, rounding=0.02)
@example(epsilon=-0.01, rounding=1.0)
@example(epsilon=-5e-324, rounding=0.0)
@example(epsilon=_CROSSING, rounding=0.0)
@example(epsilon=np.nextafter(_CROSSING, 0.0), rounding=0.0)
@example(epsilon=np.nextafter(_CROSSING, 0.0), rounding=1e-17)
@example(epsilon=0.05, rounding=0.01)
@example(epsilon=0.0, rounding=1.0)
def test_one_gate_refuses_where_the_three_did(harmonic200, epsilon, rounding):
    """The gate at epsilon + epsilon_rounding alone refuses exactly where the three
    checks did (the defect bound rises on [0, 1), and rounding is never negative),
    a negative epsilon is a bad argument whatever its rounding bound, and a nan
    epsilon, which theorem_bound refused as a bad argument, is refused as
    inadmissible; every other factor is counted."""
    expected = InadmissibleCommutator if np.isnan(epsilon) else _three_gates(epsilon, rounding)
    qb = replace(factor(harmonic200), epsilon=epsilon, epsilon_rounding=rounding)
    try:
        assert certify(qb, [80]).omega == 1
        raised = None
    except (InadmissibleCommutator, InvalidParameter) as exc:
        raised = type(exc)
        if raised is InadmissibleCommutator:
            assert set(exc.detail) == {"epsilon", "rounding", "bound"}
    assert raised is expected


def test_a_defect_that_is_not_finite_is_refused_before_any_cut(harmonic200, monkeypatch):
    """Cut 60 is a gap violation, but with no bound on the idempotency of Q nothing
    is certified, so the factor is refused before any cut is solved."""
    with pytest.raises(GapViolation):
        certify(factor(harmonic200), [60])
    solved = []
    spectra = index_module._spectra

    def record(qb, cuts):
        solved.append(list(cuts))
        return spectra(qb, cuts)

    monkeypatch.setattr(index_module, "_spectra", record)
    with pytest.raises(ConvergenceFailure, match=re.escape("not finite (inf)")):
        certify(replace(factor(harmonic200), defect=np.inf), [60])
    assert solved == []


def test_the_epsilon_rounding_bound_is_small_where_epsilon_is_trusted(harmonic200):
    """A dense pair of the benchmark's family carries a rounding bound far below
    its epsilon; an analytic or band epsilon carries none."""
    dense = factor(perturb(harmonic200, "a", "random_hermitian", 0.002, 3))
    assert 0.0 < dense.epsilon_rounding < 1e-9 < dense.epsilon
    assert factor(harmonic200).epsilon_rounding == 0.0
    assert build_q(harmonic200).epsilon_rounding == 0.0
    band = factor(perturb(harmonic200, "a", "diagonal_decay", 0.01))
    assert band.epsilon_measured and band.epsilon_rounding == 0.0


def test_omega_epsilon_at_least_one():
    pair = build_harmonic(0.6, 16)
    with pytest.raises(InadmissibleCommutator):
        omega(pair, cuts=[4])


def test_omega_cut_too_large():
    pair = build_harmonic(0.01, 16)
    with pytest.raises(CutTooLarge):
        omega(pair, cuts=[15])


def test_omega_argument_validation(harmonic200):
    with pytest.raises(InvalidParameter):
        omega(harmonic200, cuts=[])
    for gap_floor in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            omega(harmonic200, cuts=[80], gap_floor=gap_floor)
    with pytest.raises(InvalidParameter):
        omega(harmonic200, cuts=[80], orientation="sideways")


# ---------------------------------------------------------------- rescaling


def test_scale_admissible_leaves_small_pairs_alone(harmonic200, grid10):
    pair, s = scale_admissible(harmonic200)
    assert pair is harmonic200
    assert s == 1.0
    pair, s = scale_admissible(grid10)
    assert pair is grid10


def test_scale_admissible_known_commutator():
    pair = build_harmonic(1.0, 64)
    scaled, s = scale_admissible(pair, target=0.02)
    assert s == pytest.approx(0.13435028842544403, rel=1e-12)
    assert scaled.known_commutator_norm == pytest.approx(0.01805, rel=1e-12)
    assert masked_commutator_norm(scaled) <= 0.02
    assert omega(scaled, cuts=[40, 50]).omega == 1


def test_scale_admissible_measured_commutator():
    base = build_harmonic(1.0, 64)
    anon = OperatorPair(
        a=base.a,
        b=base.b,
        dim=64,
        basis_label="anon",
        known_commutator_norm=None,
        boundary_window=8,
    )
    scaled, s = scale_admissible(anon, target=0.02)
    assert 0 < s < 1
    assert scaled.known_commutator_norm is None
    assert masked_commutator_norm(scaled) <= 0.02


def test_scale_admissible_rejects_bad_target(harmonic200):
    with pytest.raises(InvalidParameter):
        scale_admissible(harmonic200, target=0.0)
