import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omega_index.linalg as linalg_module
from omega_index import (
    ConvergenceFailure,
    NonHermitianInput,
    NotPositiveDefinite,
    adjoint,
    as_matrix,
    hermitian_eigen,
    hermitian_norm,
    hermiticity_defect,
    hpd_inverse,
    is_hermitian,
    operator_norm,
)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_as_matrix_accepts_real_input():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(Exception):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_as_matrix_rejects_vector():
    with pytest.raises(Exception):
        as_matrix([1.0, 2.0, 3.0])


def test_adjoint_example():
    m = as_matrix([[0, 1j], [0, 0]])
    expected = as_matrix([[0, 0], [-1j, 0]])
    assert np.array_equal(adjoint(m), expected)


def test_adjoint_is_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.array_equal(adjoint(adjoint(m)), as_matrix(m))


def test_hermiticity_defect_zero_matrix():
    assert hermiticity_defect(np.zeros((3, 3))) == 0.0


def test_hermiticity_defect_scales_out():
    m = as_matrix([[0, 1], [0, 0]])
    assert hermiticity_defect(m) == hermiticity_defect(10 * m)


def _ginibre(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 12),
    log_tol=st.floats(-14.0, 1.0),
)
def test_is_hermitian_matches_defect_on_random_matrices(seed, dim, log_tol):
    m = _ginibre(np.random.default_rng(seed), dim)
    tol = 10.0**log_tol
    assert is_hermitian(m, tol) == (hermiticity_defect(m) <= tol)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 12),
    log_tol=st.floats(-13.0, -2.0),
    spread=st.floats(-1.5, 1.5),
)
def test_is_hermitian_matches_defect_near_the_tolerance(seed, dim, log_tol, spread):
    """H + t*K with the defect at tol * dim**(spread/2): within a factor sqrt(dim)
    of tol for |spread| <= 1, where the Frobenius pre-test must fall back, and
    beyond it on both sides, where the pre-test decides."""
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, dim)
    h = (g + g.conj().T) / 2.0
    k = _ginibre(rng, dim)
    k = (k - k.conj().T) / 2.0
    tol = 10.0**log_tol
    target = tol * dim ** (spread / 2.0)
    t = target * operator_norm(h) / (2.0 * operator_norm(k))
    m = h + t * k
    assert is_hermitian(m, tol) == (hermiticity_defect(m) <= tol)


def test_is_hermitian_zero_and_scalar_inputs():
    assert is_hermitian(np.zeros((3, 3)))
    assert is_hermitian(np.zeros((3, 3)), tol=0.0)
    assert is_hermitian(np.zeros((1, 1)))
    assert is_hermitian(np.array([[2.5]]))
    assert not is_hermitian(np.array([[1j]]))
    assert is_hermitian(np.array([[1 + 1e-12j]]))
    assert not is_hermitian(np.array([[1 + 1e-9j]]))


def test_is_hermitian_decides_clear_cases_without_the_defect(monkeypatch):
    def refuse(m):
        raise AssertionError("hermiticity_defect called")

    monkeypatch.setattr(linalg_module, "hermiticity_defect", refuse)
    rng = np.random.default_rng(11)
    assert is_hermitian(random_hermitian(rng, 50))
    assert not is_hermitian(_ginibre(rng, 50))


def test_hermitian_eigen_reports_exact_defect():
    with pytest.raises(NonHermitianInput) as exc:
        hermitian_eigen(as_matrix([[0, 1], [0, 0]]))
    assert f"{hermiticity_defect(as_matrix([[0, 1], [0, 0]])):.3e}" in exc.value.message


def test_hermitian_norm_matches_operator_norm():
    rng = np.random.default_rng(12)
    for dim in (1, 2, 7, 30):
        h = random_hermitian(rng, dim)
        assert hermitian_norm(h) == pytest.approx(operator_norm(h), rel=1e-12)
    assert hermitian_norm(-np.diag([1.0, 3.0, 2.0])) == 3.0
    assert hermitian_norm(np.zeros((0, 0))) == 0.0


def test_hermitian_eigen_identity():
    res = hermitian_eigen(np.eye(3))
    assert res.values == pytest.approx([1.0, 1.0, 1.0])


def test_hermitian_eigen_pauli_x():
    res = hermitian_eigen(as_matrix([[0, 1], [1, 0]]))
    assert res.values == pytest.approx([-1.0, 1.0])


def test_hermitian_eigen_sorted_ascending():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 12)
    res = hermitian_eigen(m)
    assert np.all(np.diff(res.values) >= 0)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eigen(as_matrix([[0, 1], [0, 0]]))


def test_hermitian_eigen_tolerates_roundoff_asymmetry():
    m = np.eye(4, dtype=complex)
    m[0, 1] += 1e-12
    res = hermitian_eigen(m)
    assert res.values == pytest.approx([1.0] * 4)


def test_eigen_reconstruction_property():
    """Eigendecomposition reproduces the input across random sizes."""
    rng = np.random.default_rng(100)
    for _ in range(100):
        dim = int(rng.integers(2, 65))
        m = random_hermitian(rng, dim)
        res = hermitian_eigen(m)
        back = (res.vectors * res.values) @ adjoint(res.vectors)
        scale = max(1.0, operator_norm(m))
        assert operator_norm(back - m) <= 1e-9 * scale


def test_operator_norm_zero():
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_nilpotent():
    assert operator_norm(as_matrix([[0, 2], [0, 0]])) == pytest.approx(2.0)


def test_operator_norm_unitary_is_one():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    assert operator_norm(q) == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_adjoint_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a, b = operator_norm(m), operator_norm(adjoint(m))
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_hpd_inverse_identity():
    inv = hpd_inverse(np.eye(5))
    assert np.allclose(inv, np.eye(5), atol=1e-14)


def test_hpd_inverse_diagonal():
    inv = hpd_inverse(np.diag([2.0, 4.0]).astype(complex))
    assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-14)


def test_hpd_inverse_roundtrip():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        m = g @ g.conj().T + np.eye(9)
        back = hpd_inverse(hpd_inverse(m))
        assert operator_norm(back - m) <= 1e-8 * operator_norm(m)


def test_hpd_inverse_gram_spectrum_in_unit_interval():
    # (I + C^H C)^{-1} has eigenvalues in (0, 1] for any C.
    rng = np.random.default_rng(5)
    c = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    gamma = np.eye(7) + c.conj().T @ c
    vals = hermitian_eigen(hpd_inverse(gamma)).values
    assert np.all(vals > 0)
    assert np.all(vals <= 1 + 1e-12)


def test_hpd_inverse_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        hpd_inverse(np.diag([1.0, -1.0]).astype(complex))


def test_hpd_inverse_rejects_near_singular():
    with pytest.raises((NotPositiveDefinite, ConvergenceFailure)):
        hpd_inverse(np.diag([2.0, 1e-13]).astype(complex))


def test_hpd_inverse_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hpd_inverse(as_matrix([[1, 1], [0, 1]]))
