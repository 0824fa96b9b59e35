import contextlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omega_index.linalg as linalg_module
from omega_index import (
    ConvergenceFailure,
    InsufficientMemory,
    NonHermitianInput,
    adjoint,
    as_matrix,
    hermitian_eigen,
    hermitian_eigenvalues,
    hermitian_norm,
    hermiticity_defect,
    hpd_inverse,
    is_hermitian,
    operator_norm,
)
from omega_index.bounds import SUITE_LAMBDAS, run_suite
from omega_index.linalg import (
    NORM_BOUND_MAX_SLACK,
    NORM_BOUND_STEPS,
    PRODUCT_BLOCK,
    TRIANGULAR_BASE,
    hermitian_norm_bound,
    lower_product,
    lower_triangular_inverse,
    memory_headroom,
    require_memory,
    serial_blas,
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


def test_hermitian_eigenvalues_read_only_the_lower_triangle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("is_hermitian called")

    monkeypatch.setattr(linalg_module, "is_hermitian", refuse)
    # no gate: the upper triangle is never read, so this is the zero matrix
    assert hermitian_eigenvalues(as_matrix([[0, 1], [0, 0]])).tolist() == [0.0, 0.0]
    assert hermitian_norm(as_matrix([[0, 1], [0, 0]])) == 0.0


def test_hermitian_eigenvalues_match_hermitian_eigen():
    rng = np.random.default_rng(13)
    for dim in (1, 2, 9, 40):
        m = random_hermitian(rng, dim)
        m[0, -1] += 1e-13  # hermitian_eigen symmetrizes it; hermitian_eigenvalues ignores it
        values = hermitian_eigenvalues(m)
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(values - hermitian_eigen(m).values)) <= 1e-12


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
    inv = hpd_inverse(np.zeros((5, 5)), 1.0)
    assert np.allclose(inv, np.eye(5), atol=1e-14)


def test_hpd_inverse_diagonal():
    inv = hpd_inverse(np.diag([1.0, np.sqrt(3.0)]), 1.0)
    assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-14)


def test_hpd_inverse_roundtrip():
    rng = np.random.default_rng(41)
    for _ in range(25):
        x = _ginibre(rng, 9)
        m = 2.0 * np.eye(9) + adjoint(x) @ x
        assert operator_norm(np.linalg.inv(hpd_inverse(x, 2.0)) - m) <= 1e-8 * operator_norm(m)


def test_hpd_inverse_gram_spectrum_in_unit_interval():
    # (I + C^H C)^{-1} has eigenvalues in (0, 1] for any C.
    rng = np.random.default_rng(5)
    c = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    vals = hermitian_eigen(hpd_inverse(c, 1.0)).values
    assert np.all(vals > 0)
    assert np.all(vals <= 1 + 1e-12)


_SHIFTS = st.one_of(st.sampled_from(SUITE_LAMBDAS), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 32),
    matrices=st.lists(st.tuples(_SHIFTS, st.floats(-3.0, 3.0)), min_size=1, max_size=4),
)
@example(seed=0, dim=32, matrices=[(1e-3, 3.0)])  # the largest condition bound drawn
@example(seed=1, dim=1, matrices=[(0.1, -3.0), (10.0, 0.0)])
def test_hpd_inverse_meets_the_residual_its_floor_proves(seed, dim, matrices):
    """Every eigenvalue of s I + X* X is at least s, so its condition number is at
    most (s + norm(X)^2) / s; each inverse has a residual within 1e-9 times that
    condition, and a stack gives each matrix the bits it gets alone, with one
    shift per matrix or, for its first matrix, one shift for all."""
    rng = np.random.default_rng(seed)
    shifts = np.array([s for s, _ in matrices])
    stack = np.stack([10.0**log_scale * _ginibre(rng, dim) for _, log_scale in matrices])
    inverse = hpd_inverse(stack, shifts)
    assert np.array_equal(hpd_inverse(stack, shifts[0])[0], inverse[0])
    for x, s, inv in zip(stack, shifts, inverse):
        assert np.array_equal(inv, hpd_inverse(x, s))
        m = s * np.eye(dim) + x.conj().T @ x
        residual = np.linalg.norm(m @ inv - np.eye(dim), 2)
        assert residual <= 1e-9 * (s + np.linalg.norm(x, 2) ** 2) / s


def test_the_suite_inverts_without_an_eigensolve(monkeypatch):
    """A 40-trial suite at max_dim 32 takes every inverse by Cholesky: the only
    eigendecompositions are f_lipschitz's."""
    callers = []
    decompose = linalg_module.hermitian_eigen

    def recording(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return decompose(m)

    monkeypatch.setattr(linalg_module, "hermitian_eigen", recording)
    assert all(r.passed for r in run_suite(seed=5, trials=40, max_dim=32))
    assert callers and set(callers) <= {"check_f_lipschitz", "_check_lipschitz"}


# ---------------------------------------------------------------- triangular inverse


@pytest.mark.parametrize("complex_", [False, True])
@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=TRIANGULAR_BASE - 1, seed=1)  # one base block
@example(n=TRIANGULAR_BASE, seed=2)  # one split into two base blocks
@example(n=2 * TRIANGULAR_BASE + 1, seed=3)  # odd, two levels
@example(n=300, seed=4)
def test_lower_triangular_inverse_matches_the_lu_inverse(complex_, n, seed):
    """A Cholesky factor of I + d*d, as build_q inverts: the residual stays within
    c n u cond(L), and so does the distance to np.linalg.inv."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n))
    if complex_:
        d = d + 1j * rng.standard_normal((n, n))
    lower = np.linalg.cholesky(np.eye(n) + d.conj().T @ d / n)
    inverse = lower_triangular_inverse(lower)
    assert inverse.dtype == lower.dtype and inverse.shape == (n, n)
    tol = 4 * n * np.finfo(float).eps / 2 * np.linalg.cond(lower)
    assert np.linalg.norm(inverse @ lower - np.eye(n), 2) <= tol
    reference = np.linalg.inv(lower)
    assert np.linalg.norm(inverse - reference, 2) <= tol * np.linalg.norm(reference, 2)


# ---------------------------------------------------------------- blocked products


def _bits(x):
    """The bytes of an array, so that equality is bit for bit (-0.0 is not 0.0)."""
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("complex_", [False, True])
@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([1, 2, PRODUCT_BLOCK - 1, PRODUCT_BLOCK, PRODUCT_BLOCK + 1,
                       2 * PRODUCT_BLOCK + 45]),
    extra=st.integers(0, 40),
    lower=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2 * PRODUCT_BLOCK + 45, extra=3, lower=True, seed=0)
@example(n=2 * PRODUCT_BLOCK + 45, extra=0, lower=False, seed=1)
def test_lower_product_has_the_bits_of_the_whole_product(complex_, n, extra, lower, seed):
    """On every row block it writes, on or below the diagonal, the kernel equals
    ``adjoint(a) @ b`` bit for bit, also where it skips the zero rows of an ``a``
    whose top is lower triangular; the rest of ``out`` is left alone, and the blocks
    it yields without ``out`` are the same.  ``a`` and ``b`` are separate arrays,
    so numpy forms the whole product by the general matrix product, as the kernel's
    blocks are formed.  The real case runs on one BLAS thread: OpenBLAS's threaded
    double product sums an entry in an order that depends on how its threads split
    the output, which differs between a block and the whole."""
    with contextlib.nullcontext() if complex_ else serial_blas():
        _check_lower_product(complex_, n, extra, lower, seed)


def _check_lower_product(complex_, n, extra, lower, seed):
    rng = np.random.default_rng(seed)

    def draw(rows, cols):
        x = rng.standard_normal((rows, cols))
        return x + 1j * rng.standard_normal((rows, cols)) if complex_ else x

    a, b = draw(n + extra, n), draw(n + extra, n)
    if lower:
        a[:n] = np.tril(a[:n])
    whole = adjoint(a) @ b
    out = np.full((n, n), np.nan, dtype=whole.dtype)
    written = np.zeros((n, n), dtype=bool)
    for (start, end, block), (s, e, alone) in zip(
        lower_product(a, b, out, lower), lower_product(a, b, lower=lower)
    ):
        assert (s, e) == (start, end) and block.shape == (end - start, end)
        assert _bits(block) == _bits(whole[start:end, :end]) == _bits(alone)
        written[start:end, :end] = True
    assert written[np.tril_indices(n)].all()
    assert np.isnan(out[~written]).all()
    assert _bits(out[written]) == _bits(whole[written])


# ---------------------------------------------------------------- norm bound


def _norm_bound_case(rng, n, complex_, kind, log_scale):
    """A Hermitian matrix of order n: zero, rank one, diagonal with tied extremes,
    with a spectrum dominated by its negative end, or the Hermitian part of a
    Gaussian draw; real or complex, scaled by 10**log_scale."""
    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    if kind == "zero":
        m = np.zeros((n, n), dtype=complex if complex_ else float)
    elif kind == "rank_one":
        u = draw(n)
        m = np.outer(u, u.conj())
    elif kind == "tied":
        w = rng.uniform(-1.0, 1.0, n)
        w[rng.integers(n)] = 1.0
        w[rng.integers(n)] = -1.0
        m = np.diag(w).astype(complex if complex_ else float)
    else:
        if kind == "negative":
            u = np.linalg.qr(draw(n, n))[0]
            w = rng.uniform(-0.5, 0.1, n)
            w[0] = -1.0
            m = (u * w) @ u.conj().T
        else:
            g = draw(n, n)
            m = g + g.conj().T
        m = (m + m.conj().T) / 2.0
    return m * 10.0**log_scale


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 80),
    complex_=st.booleans(),
    kind=st.sampled_from(["zero", "rank_one", "tied", "negative", "random"]),
    log_scale=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=NORM_BOUND_STEPS, complex_=True, kind="random", log_scale=0.0, seed=0)
@example(n=NORM_BOUND_STEPS + 1, complex_=False, kind="tied", log_scale=8.0, seed=1)
@example(n=80, complex_=True, kind="negative", log_scale=-8.0, seed=2)
def test_hermitian_norm_bound_is_a_tight_upper_bound(n, complex_, kind, log_scale, seed):
    """The bound lies between the eigvalsh norm and 1 + NORM_BOUND_MAX_SLACK times
    it, within rounding of it when the order is at most the Lanczos step count,
    and m comes back bit for bit."""
    m = _norm_bound_case(np.random.default_rng(seed), n, complex_, kind, log_scale)
    before = m.copy()
    bound = hermitian_norm_bound(m)
    assert m.tobytes() == before.tobytes()
    norm = hermitian_norm(m)
    assert norm <= bound <= (1.0 + NORM_BOUND_MAX_SLACK) * norm
    if n <= NORM_BOUND_STEPS:
        assert bound <= norm * (1.0 + 16 * n * (n + 1) * np.finfo(float).eps)


def _unshared_lanczos_estimate(m, steps):
    """``linalg._lanczos_estimate`` with its own Lanczos loop and inverse
    iteration, as it was before they moved into ``linalg.lanczos`` and
    ``linalg.extreme_ritz``: the reference for its bits."""
    n = m.shape[-1]
    k = min(steps, n)
    start = np.random.Generator(np.random.Philox([0])).standard_normal(n)
    basis = np.zeros((k, n), dtype=m.dtype)
    basis[0] = start / np.linalg.norm(start)
    alpha = np.zeros(k)
    beta = np.zeros(k)
    for j in range(k):
        w = m @ basis[j]
        alpha[j] = np.vdot(basis[j], w).real
        for _ in range(2):
            w -= basis[: j + 1].T @ np.conj(basis[: j + 1] @ np.conj(w))
        beta[j] = np.linalg.norm(w)
        if j + 1 == k or beta[j] == 0.0:
            break
        basis[j + 1] = w / beta[j]
    theta = linalg_module.tridiagonal_norm(alpha[: j + 1], beta[:j] ** 2)
    if theta == 0.0:
        return 0.0, float(beta[j])
    t = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
    nearest = (-1.0, 0.0)
    for shift in (theta, -theta):
        shifted = t - shift * (1.0 + 2.0**-40) * np.eye(len(t))
        v = np.eye(len(t))[0]
        for _ in range(3):
            v = np.linalg.solve(shifted, v)
            v /= np.linalg.norm(v)
        nearest = max(nearest, (abs(v @ t @ v), float(abs(v[-1]))))
    return theta, float(beta[j]) * nearest[1]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 80),
    complex_=st.booleans(),
    kind=st.sampled_from(["zero", "rank_one", "tied", "negative", "random"]),
    log_scale=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermitian_norm_bound_keeps_its_bits_on_the_shared_lanczos_kernel(
    n, complex_, kind, log_scale, seed
):
    """The estimate, and so the bound, has the bits of its own loop's."""
    m = _norm_bound_case(np.random.default_rng(seed), n, complex_, kind, log_scale)
    shared = linalg_module._lanczos_estimate(m, NORM_BOUND_STEPS)
    unshared = _unshared_lanczos_estimate(m, NORM_BOUND_STEPS)
    assert [float(x).hex() for x in shared] == [float(x).hex() for x in unshared]
    bound = hermitian_norm_bound(m)
    with mock.patch.object(linalg_module, "_lanczos_estimate", _unshared_lanczos_estimate):
        assert hermitian_norm_bound(m).hex() == bound.hex()


def test_hermitian_norm_bound_restores_m_when_it_refuses(monkeypatch):
    """With every factorization refused, the bound raises ConvergenceFailure once
    its slack reaches the cap, and m is left as it was."""
    def refuse(m):
        raise np.linalg.LinAlgError("refused")

    m = random_hermitian(np.random.default_rng(4), 12)
    before = m.copy()
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    with pytest.raises(ConvergenceFailure, match="no norm bound within 0.0625"):
        hermitian_norm_bound(m)
    assert m.tobytes() == before.tobytes()


# ---------------------------------------------------------------- memory probe


def test_memory_headroom_is_positive_here():
    assert memory_headroom() > 0


def test_memory_headroom_reads_the_address_space_limit(monkeypatch):
    """A limit just above the current virtual size leaves about that much headroom;
    the limit is patched, never set, and nothing is allocated."""
    import resource

    with open("/proc/self/statm") as handle:
        size = int(handle.read().split()[0]) * resource.getpagesize()
    monkeypatch.setattr(resource, "getrlimit", lambda which: (size + 2**20, resource.RLIM_INFINITY))
    assert memory_headroom() <= 2**20
    with pytest.raises(InsufficientMemory, match="a test array needs about 2 MiB") as info:
        require_memory(2 * 2**20, "a test array")
    assert info.value.detail["needed_bytes"] == 2 * 2**20
    assert info.value.detail["available_bytes"] <= 2**20


def test_require_memory_passes_what_fits(monkeypatch):
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: 1000.0)
    require_memory(1000, "a test array")
    with pytest.raises(InsufficientMemory):
        require_memory(1001, "a test array")


# ---------------------------------------------------------------- BLAS threads

OPENBLAS = linalg_module._openblas_threads()
needs_openblas = pytest.mark.skipif(
    OPENBLAS is None,
    reason="no OpenBLAS thread-count functions in this process: serial_blas has no count to set or read",
)


def blas_thread_count() -> int:
    return OPENBLAS[1]()


def _mapped_openblas() -> list[str]:
    with open("/proc/self/maps") as handle:
        return sorted({line.split()[-1] for line in handle if "openblas" in line.split()[-1]})


@needs_openblas
def test_serial_blas_sets_one_thread_and_restores_the_count():
    before = blas_thread_count()
    with serial_blas():
        assert blas_thread_count() == 1
        assert operator_norm(np.eye(40)) == 1.0
    assert blas_thread_count() == before


@needs_openblas
def test_serial_blas_restores_the_count_when_the_block_raises():
    before = blas_thread_count()
    with pytest.raises(ZeroDivisionError):
        with serial_blas():
            1 / 0
    assert blas_thread_count() == before


@needs_openblas
def test_overlapping_serial_blas_scopes_restore_the_count():
    """Two scopes that open and close out of order, as two Python threads may:
    the count stays at one until the last closes, which restores it."""
    before = blas_thread_count()
    first, second = serial_blas(), serial_blas()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert blas_thread_count() == 1
    second.__exit__(None, None, None)
    assert blas_thread_count() == before


@needs_openblas
def test_the_lookup_loads_no_second_copy_and_is_cached():
    """The library is opened with RTLD_NOLOAD: a fresh lookup maps nothing new."""
    mapped = _mapped_openblas()
    linalg_module._openblas_threads.cache_clear()
    try:
        found = linalg_module._openblas_threads()
        assert found is not None and found is linalg_module._openblas_threads()
        assert found[1]() == blas_thread_count()
        assert _mapped_openblas() == mapped
    finally:
        linalg_module._openblas_threads.cache_clear()


def test_serial_blas_is_a_no_op_where_no_openblas_is_found(monkeypatch):
    before = None if OPENBLAS is None else blas_thread_count()
    monkeypatch.setattr(linalg_module, "_openblas_threads", lambda: None)
    with serial_blas():
        assert operator_norm(np.eye(3)) == 1.0
        if OPENBLAS is not None:
            assert blas_thread_count() == before
    with pytest.raises(ZeroDivisionError):
        with serial_blas():
            1 / 0


def test_the_lookup_finds_nothing_without_proc(monkeypatch):
    """Where /proc/self/maps cannot be read, as on macOS, nothing is found and
    nothing raises."""
    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(linalg_module, "open", no_proc, raising=False)
    linalg_module._openblas_threads.cache_clear()
    try:
        assert linalg_module._openblas_threads() is None
        with serial_blas():
            pass
    finally:
        monkeypatch.undo()
        linalg_module._openblas_threads.cache_clear()
    assert (linalg_module._openblas_threads() is None) == (OPENBLAS is None)


# ---------------------------------------------------------------- stacks


def _stack(make, k=4, dim=5, seed=21):
    rng = np.random.default_rng(seed)
    return np.stack([make(rng, dim) for _ in range(k)])


def _hpd(rng, dim):
    g = _ginibre(rng, dim)
    return g @ g.conj().T + np.eye(dim)


def test_a_stack_gets_the_bits_of_its_matrices():
    """Every kernel on a stack returns, matrix by matrix, what it returns for
    that matrix alone."""
    ginibre = _stack(_ginibre)
    hermitian = _stack(random_hermitian)
    assert operator_norm(ginibre).tolist() == [operator_norm(m) for m in ginibre]
    assert hermiticity_defect(ginibre).tolist() == [hermiticity_defect(m) for m in ginibre]
    mixed = np.stack([hermitian[0], ginibre[1], hermitian[2] + 1e-11 * ginibre[2]])
    assert is_hermitian(mixed).tolist() == [is_hermitian(m) for m in mixed] == [True, False, True]
    eig = hermitian_eigen(hermitian)
    for i, m in enumerate(hermitian):
        alone = hermitian_eigen(m)
        assert np.array_equal(eig.values[i], alone.values)
        assert np.array_equal(eig.vectors[i], alone.vectors)
    assert np.array_equal(adjoint(ginibre)[2], adjoint(ginibre[2]))
    assert hermiticity_defect(np.zeros((2, 3, 3))).tolist() == [0.0, 0.0]


def test_a_stack_is_gated_matrix_by_matrix():
    """One matrix that fails a gate refuses the stack, with its own numbers."""
    hpd = _stack(_hpd)
    skew = hpd.copy()
    skew[1] = as_matrix([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                         [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    with pytest.raises(NonHermitianInput, match=f"{hermiticity_defect(skew[1]):.3e}"):
        hermitian_eigen(skew)
