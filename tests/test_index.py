import numpy as np
import pytest

import omega_index.calibration as calibration
from omega_index import (
    CalibrationMissing,
    ConvergenceFailure,
    CutTooLarge,
    GapViolation,
    InadmissibleCommutator,
    InvalidParameter,
    OperatorPair,
    UnstableCount,
    build_harmonic,
    build_q,
    count_upper,
    default_cuts,
    extract_q11,
    grid_points,
    hermitian_eigen,
    masked_commutator_norm,
    omega,
    operator_norm,
    perturb,
    q_blocks_from_c,
    resolve_orientation,
    scale_admissible,
    theorem_bound,
)
from omega_index.index import _factor_defect


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
    q, gamma, delta = q_blocks_from_c(c)
    assert np.allclose(gamma, np.diag([1.0, 2.0]), atol=1e-15)
    assert np.allclose(delta, np.diag([2.0, 1.0]), atol=1e-15)
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
    assert np.allclose(qb.q, np.array([[1, 0], [0, 0]]), atol=1e-15)
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
        assert np.max(np.abs(qb.q - qb.q.conj().T)) <= 1e-12


def test_build_q_orientations_differ(harmonic200, harmonic200_q_literal):
    conj = build_q(harmonic200, "conjugate")
    assert not np.allclose(conj.q, harmonic200_q_literal.q, atol=1e-6)


def test_resolve_orientation():
    assert resolve_orientation("literal") == "literal"
    assert resolve_orientation("conjugate") == "conjugate"
    assert resolve_orientation("default") in ("literal", "conjugate")
    with pytest.raises(InvalidParameter):
        resolve_orientation("upside_down")


def test_default_orientation_needs_calibration_record(monkeypatch, tmp_path):
    monkeypatch.setattr(calibration, "record_path", lambda: tmp_path / "absent.json")
    with pytest.raises(CalibrationMissing):
        build_q(zero_pair(), "default")


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
    q, _, _ = q_blocks_from_c(c)
    qb = build_q(dense200, orientation)
    for cut in (1, 40, 100, dense200.interior):
        err = np.max(np.abs(extract_q11(qb, cut) - _dual_corner(q, 200, cut)))
        assert err <= 1e-13, (cut, err)


def test_corners_match_assembled_q_grid(grid10, grid10_q):
    q, _, _ = q_blocks_from_c(grid10.a - 1j * grid10.b)  # default is conjugate
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
        q = qb.q
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


def test_build_q_svd_failure_is_convergence_failure(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceFailure):
        build_q(zero_pair(), "literal")
    with pytest.raises(ConvergenceFailure):
        omega(build_harmonic(0.01, 16), cuts=[4])


def test_masked_commutator_norm_harmonic(harmonic200):
    assert masked_commutator_norm(harmonic200) == pytest.approx(0.01, abs=1e-9)


# ---------------------------------------------------------------- grid structure


def test_grid_q_couples_conjugate_points_only(grid10, grid10_q):
    m = grid10.dim
    top_bottom = grid10_q.q[:m, m:]
    off = top_bottom - np.diag(np.diag(top_bottom))
    assert np.max(np.abs(off)) <= 1e-15


def test_grid_q_diagonal_value_at_known_point(grid10_q):
    idx = grid_points(10).index((1, 2))
    assert grid10_q.q[idx, idx].real == pytest.approx(1 / 6, rel=1e-12)


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
    assert np.array_equal(extract_q11(qb, 3), qb.q)


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
    interleaved = qb.q[np.ix_(full_perm, full_perm)][: 2 * cut, : 2 * cut]
    corner_perm = np.arange(2 * cut).reshape(2, cut).T.reshape(-1)
    assert np.array_equal(q11[np.ix_(corner_perm, corner_perm)], interleaved)


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


def test_default_cuts():
    assert default_cuts(400) == [50, 75, 100, 125, 150]
    cuts = default_cuts(16)
    assert cuts[0] >= 1
    assert cuts == sorted(set(cuts))
    assert cuts[-1] <= 6


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
    for rep in res.reports:
        assert rep.m_n == rep.cut
        assert rep.gap == pytest.approx(0.5, abs=1e-10)
        dist = np.minimum(np.abs(rep.eigenvalues), np.abs(rep.eigenvalues - 1))
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
        base.reports[0].eigenvalues, moved.reports[0].eigenvalues, atol=1e-12
    )


def test_omega_result_bookkeeping(harmonic200):
    res = omega(harmonic200, cuts=[80, 120], scaling=(0.5, 0.5))
    assert res.scaling == (0.5, 0.5)
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
    pair, sa, sb = scale_admissible(harmonic200)
    assert pair is harmonic200
    assert (sa, sb) == (1.0, 1.0)
    pair, sa, sb = scale_admissible(grid10)
    assert pair is grid10


def test_scale_admissible_known_commutator():
    pair = build_harmonic(1.0, 64)
    scaled, sa, sb = scale_admissible(pair, target=0.02)
    assert sa == sb == pytest.approx(0.13435028842544403, rel=1e-12)
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
    scaled, sa, sb = scale_admissible(anon, target=0.02)
    assert 0 < sa < 1
    assert scaled.known_commutator_norm is None
    assert masked_commutator_norm(scaled) <= 0.02


def test_scale_admissible_rejects_bad_target(harmonic200):
    with pytest.raises(InvalidParameter):
        scale_admissible(harmonic200, target=0.0)
