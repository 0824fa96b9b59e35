import contextlib
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omega_index.bounds as bounds_module
import omega_index.linalg as linalg_module
from omega_index import (
    BoundCheckResult,
    ConvergenceFailure,
    DimensionMismatch,
    InsufficientMemory,
    InvalidParameter,
    check_f_lipschitz,
    check_intertwine,
    check_resolvent_bound,
    check_resolvent_difference,
    check_theorem_defect,
    operator_norm,
    q_blocks_from_c,
    random_near_normal,
    run_suite,
)
from omega_index.bounds import SUITE_LAMBDAS, TARGET_BAND, _merge, _rng, suite_bytes
from omega_index.cli import main


def nilpotent(c):
    return np.array([[0, c], [0, 0]], dtype=complex)


def test_result_passed_property():
    ok = BoundCheckResult("x", 1, 0.0, 1.0, 0)
    bad = BoundCheckResult("x", 1, 2.0, -1.0, 3)
    assert ok.passed and not bad.passed


# ---------------------------------------------------------------- resolvent


def test_resolvent_bound_zero_matrix():
    res = check_resolvent_bound(np.zeros((3, 3)), 1.0)
    assert res.max_lhs == 0.0
    assert res.passed


def test_resolvent_bound_scalar_half_saturation():
    # For normal inputs the supremum of the left side is half the bound.
    res = check_resolvent_bound(np.array([[1.0]]), 1.0)
    assert res.max_lhs == pytest.approx(0.5, rel=1e-12)
    assert res.extras["lhs_times_sqrt_lam"] == pytest.approx(0.5, rel=1e-12)
    res = check_resolvent_bound(np.array([[0.5]]), 0.25)
    assert res.max_lhs == pytest.approx(1.0, rel=1e-12)
    assert res.passed


def test_resolvent_bound_rejects_bad_lambda():
    with pytest.raises(InvalidParameter):
        check_resolvent_bound(np.eye(2), 0.0)


def test_resolvent_bound_randomized():
    rng = np.random.default_rng(19)
    for trial in range(50):
        dim = int(rng.integers(2, 17))
        c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lam = (0.1, 1.0, 10.0)[trial % 3]
        assert check_resolvent_bound(c, lam).passed


# ---------------------------------------------------------------- intertwine


def test_intertwine_nilpotent_exact():
    res = check_intertwine(nilpotent(1.0))
    assert res.max_lhs <= 1e-14
    assert res.passed


def test_intertwine_randomized():
    rng = np.random.default_rng(29)
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        res = check_intertwine(c)
        assert res.passed, res.max_lhs


# ---------------------------------------------------------------- resolvent difference


def test_resolvent_difference_small_commutator():
    res = check_resolvent_difference(nilpotent(0.2))
    assert res.extras["epsilon"] == pytest.approx(0.04, rel=1e-12)
    assert res.passed
    assert res.extras["stated_violations"] == 0


def test_resolvent_difference_records_stated_bound_excess():
    """The tighter recorded constant can be exceeded while the enforced
    bound still holds; the excess is reported as data, not a failure."""
    c = 0.8
    res = check_resolvent_difference(nilpotent(c))
    eps = c * c
    lhs = c**3 / (1 + c * c)
    assert res.max_lhs == pytest.approx(lhs, rel=1e-12)
    assert res.passed  # enforced bound eps/(1-eps) holds
    assert res.extras["stated_violations"] == 1
    assert res.extras["stated_max_excess"] == pytest.approx(
        lhs - eps / (2 * (1 + eps)), rel=1e-9
    )


def test_resolvent_difference_rejects_large_epsilon():
    with pytest.raises(InvalidParameter):
        check_resolvent_difference(nilpotent(2.0))


@pytest.mark.parametrize(
    "c", [np.full((3, 3), 1e160, dtype=complex), np.diag([1e160, 1.0, 1.0]).astype(complex)]
)
@pytest.mark.parametrize(
    "check",
    [check_intertwine, functools.partial(check_resolvent_bound, lam=1.0),
     check_resolvent_difference, q_blocks_from_c],
)
def test_a_gram_that_overflows_is_refused(c, check):
    """A finite C whose C*C overflows has no finite resolvent; each family, and
    the reference Q, refuses it rather than passing or returning nan."""
    with np.errstate(all="ignore"), pytest.raises(ConvergenceFailure):
        check(c)


def test_resolvent_difference_near_normal_ensemble():
    for trial in range(30):
        rng = np.random.default_rng(1000 + trial)
        dim = int(rng.integers(4, 17))
        target = float(rng.uniform(0.01, 0.1))
        c = random_near_normal(rng, dim, target)
        res = check_resolvent_difference(c)
        assert res.passed
        assert 0.0 < res.extras["epsilon"] < 0.2


def _epsilon(c):
    return operator_norm(c.conj().T @ c - c @ c.conj().T)


def test_random_near_normal_lands_in_target_band():
    for trial in range(200):
        rng = np.random.default_rng(2000 + trial)
        dim = int(rng.integers(2, 33))
        target = float(rng.uniform(0.01, 0.1))
        c = random_near_normal(rng, dim, target)
        assert abs(_epsilon(c) - target) < TARGET_BAND * target, trial


def test_random_near_normal_seed_303_trial_386():
    """Replays the suite draw (seed 303, family 2, trial 386) whose three
    fix-point steps once overshot to epsilon 2.384 and made run_suite raise."""
    rng = np.random.Generator(np.random.Philox([303, 2, 386]))
    dim = int(rng.integers(2, 33))
    target = float(rng.uniform(0.01, 0.1))
    assert dim == 2
    assert target == pytest.approx(0.0936, abs=5e-5)
    c = random_near_normal(rng, dim, target)
    assert abs(_epsilon(c) - target) < TARGET_BAND * target
    assert check_resolvent_difference(c).passed


# ---------------------------------------------------------------- lipschitz


def test_f_lipschitz_equal_inputs():
    e = np.diag([0.5, 1.5]).astype(complex)
    res = check_f_lipschitz(e, e)
    assert res.max_lhs == 0.0
    assert res.passed


def test_f_lipschitz_scalar_example():
    res = check_f_lipschitz(np.array([[1.0]]), np.array([[1.05]]))
    assert res.max_lhs == pytest.approx(0.00014872099940511837, rel=1e-9)
    assert res.min_slack == pytest.approx(0.16343490304709143 - res.max_lhs, rel=1e-9)
    assert res.passed


def test_f_lipschitz_argument_validation():
    with pytest.raises(InvalidParameter):
        check_f_lipschitz(np.diag([-1.0]).astype(complex), np.zeros((1, 1)))
    with pytest.raises(InvalidParameter):
        check_f_lipschitz(np.zeros((2, 2)), 2 * np.eye(2))
    with pytest.raises(InvalidParameter):
        check_f_lipschitz(np.zeros((2, 2)), np.zeros((3, 3)))


def test_f_lipschitz_randomized():
    rng = np.random.default_rng(77)
    for _ in range(50):
        dim = int(rng.integers(2, 13))
        w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        e = w @ w.conj().T / dim
        s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = (s + s.conj().T) / 2
        s /= np.linalg.norm(s, 2)
        f = e + 0.05 * s
        low = float(np.linalg.eigvalsh(f)[0])
        if low < 0:
            f = f - low * np.eye(dim)
        assert check_f_lipschitz(e, f).passed


# ---------------------------------------------------------------- projection defect


def test_theorem_defect_commuting_pair_has_zero_bound():
    c = np.diag([1.0 + 0.5j, -0.3 + 2j, 0.7]).astype(complex)
    res = check_theorem_defect(c)
    assert res.extras["epsilon"] == pytest.approx(0.0, abs=1e-14)
    assert res.max_lhs <= 1e-12
    assert res.passed  # round-off allowance absorbs the float dust


def test_theorem_defect_raw_matrix_ensemble():
    for trial in range(30):
        rng = np.random.default_rng(500 + trial)
        dim = int(rng.integers(2, 25))
        c = random_near_normal(rng, dim, float(rng.uniform(0.01, 0.1)))
        res = check_theorem_defect(c)
        assert res.passed, (res.max_lhs, res.min_slack)


# ---------------------------------------------------------------- suite


def test_run_suite_names_and_passes():
    results = run_suite(seed=7, trials=6, max_dim=8)
    assert [r.name for r in results] == [
        "resolvent_bound",
        "intertwine_identity",
        "resolvent_difference",
        "f_lipschitz",
        "projection_defect",
    ]
    for r in results:
        assert r.trials == 6
        assert r.passed, r.name


def test_run_suite_is_deterministic():
    one = run_suite(seed=123, trials=5, max_dim=10)
    two = run_suite(seed=123, trials=5, max_dim=10)
    assert one == two
    other = run_suite(seed=124, trials=5, max_dim=10)
    assert any(a.max_lhs != b.max_lhs for a, b in zip(one, other))


def test_run_suite_argument_validation():
    with pytest.raises(InvalidParameter):
        run_suite(seed=0, trials=0, max_dim=8)
    with pytest.raises(InvalidParameter):
        run_suite(seed=0, trials=5, max_dim=1)


def test_f_lipschitz_decomposes_each_input_once(monkeypatch):
    """The PSD gate's eigendecompositions are the ones the matrix functions use."""
    calls = []
    decompose = linalg_module.hermitian_eigen

    def counting(m):
        calls.append(m.shape)
        return decompose(m)

    monkeypatch.setattr(linalg_module, "hermitian_eigen", counting)
    rng = np.random.default_rng(2)
    e = np.diag(rng.uniform(0.0, 1.0, 6)).astype(complex)
    assert check_f_lipschitz(e, e + 0.01 * np.eye(6)).passed
    assert len(calls) == 2


def _f_of_fresh(m):
    eig = linalg_module.hermitian_eigen(m)
    w = eig.values / (1.0 + eig.values) ** 2
    return (eig.vectors * w[..., np.newaxis, :]) @ linalg_module.adjoint(eig.vectors)


def _check_f_lipschitz_fresh(e, f):
    """check_f_lipschitz on a stack, with each matrix function taken from a fresh
    eigendecomposition."""
    e, f = bounds_module._stack(e), bounds_module._stack(f)
    d = linalg_module.operator_norm(e - f)
    lhs = linalg_module.operator_norm(_f_of_fresh(e) - _f_of_fresh(f))
    bound = np.array([(3.0 * x - x * x) / (1.0 - x) ** 2 for x in d.tolist()])
    return bounds_module._result(
        "f_lipschitz", lhs, bound - lhs, bounds_module._violates(lhs, bound, 1.0), distance=d
    )


@pytest.mark.parametrize("seed", [4, 9])
def test_verify_report_is_that_of_fresh_decompositions(capsys, monkeypatch, seed):
    """Reusing the gate's decompositions leaves the verify report byte-identical."""
    argv = ["verify", "--seed", str(seed), "--trials", "25", "--max-dim", "12"]
    assert main(argv) == 0
    reused = capsys.readouterr().out
    monkeypatch.setattr(bounds_module, "check_f_lipschitz", _check_f_lipschitz_fresh)
    assert main(argv) == 0
    assert capsys.readouterr().out == reused


# ---------------------------------------------------------------- stacks


def _ginibre(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _hermitian_part(m):
    return (m + linalg_module.adjoint(m)) / 2.0


def _reference_suite(seed, trials, max_dim):
    """run_suite as one check_* per trial, merged with _merge: the suite's loop
    before trials were stacked, with the same draws in the same order."""
    resolvent, intertwine, difference, lipschitz, defect = [], [], [], [], []
    for t in range(trials):
        rng = _rng(seed, 0, t)
        dim = int(rng.integers(2, max_dim + 1))
        resolvent.append(check_resolvent_bound(_ginibre(rng, dim), SUITE_LAMBDAS[t % 3]))
    for t in range(trials):
        rng = _rng(seed, 1, t)
        dim = int(rng.integers(2, max_dim + 1))
        intertwine.append(check_intertwine(_ginibre(rng, dim)))
    for t in range(trials):
        rng = _rng(seed, 2, t)
        dim = int(rng.integers(2, max_dim + 1))
        target = float(rng.uniform(0.01, 0.1))
        difference.append(check_resolvent_difference(random_near_normal(rng, dim, target)))
    for t in range(trials):
        rng = _rng(seed, 3, t)
        dim = int(rng.integers(2, max_dim + 1))
        w = _ginibre(rng, dim) / np.sqrt(dim)
        e = w @ linalg_module.adjoint(w)
        s = _hermitian_part(_ginibre(rng, dim))
        s /= operator_norm(s)
        f = e + float(rng.uniform(0.01, 0.12)) * s
        low = float(linalg_module.hermitian_eigen(f).values[0])
        if low < 0:
            f = f - low * np.eye(dim)
        lipschitz.append(check_f_lipschitz(e, f))
    for t in range(trials):
        rng = _rng(seed, 4, t)
        dim = int(rng.integers(2, max_dim + 1))
        target = float(rng.uniform(0.01, 0.1))
        a = _hermitian_part(_ginibre(rng, dim))
        b = _hermitian_part(_ginibre(rng, dim))
        c = a + 1j * b
        eps = operator_norm(linalg_module.adjoint(c) @ c - c @ linalg_module.adjoint(c))
        if eps > 0:
            scale = np.sqrt(target / eps)
            a, b = scale * a, scale * b
        defect.append(check_theorem_defect(a + 1j * b))
    return [
        functools.reduce(_merge, resolvent),
        functools.reduce(_merge, intertwine),
        functools.reduce(_merge, difference),
        functools.reduce(_merge, lipschitz),
        functools.reduce(_merge, defect),
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 12),
    max_dim=st.integers(2, 12),
)
@example(seed=303, trials=12, max_dim=2)
def test_stacking_changes_no_bit_of_the_suite(seed, trials, max_dim):
    """run_suite equals the per-trial loop field by field, whether each stack
    holds one matrix or every trial of its order (at max_dim 2, all of them)."""
    reference = _reference_suite(seed, trials, max_dim)
    for budget in (1, trials * 16 * max_dim**2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds_module, "STACK_BYTES", budget)
            assert run_suite(seed, trials, max_dim) == reference


def _stack_of(dim, k, make, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([make(rng, dim) for _ in range(k)])


def _near_normal(rng, dim):
    return random_near_normal(rng, dim, float(rng.uniform(0.01, 0.1)))


def _psd(rng, dim):
    w = _ginibre(rng, dim) / np.sqrt(dim)
    return w @ linalg_module.adjoint(w)


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_each_check_on_a_stack_is_the_merge_of_its_matrices(dim):
    k = 5
    ginibre = _stack_of(dim, k, _ginibre)
    near = _stack_of(dim, k, _near_normal)
    e = _stack_of(dim, k, _psd)
    f = e + 0.05 * np.eye(dim)
    lam = np.array([0.1, 1.0, 10.0, 0.1, 1.0])
    cases = [
        (check_resolvent_bound(ginibre, lam),
         [check_resolvent_bound(c, x) for c, x in zip(ginibre, lam.tolist())]),
        (check_resolvent_bound(ginibre, 2.0),
         [check_resolvent_bound(c, 2.0) for c in ginibre]),
        (check_intertwine(ginibre), [check_intertwine(c) for c in ginibre]),
        (check_resolvent_difference(near), [check_resolvent_difference(c) for c in near]),
        (check_f_lipschitz(e, f), [check_f_lipschitz(x, y) for x, y in zip(e, f)]),
        (check_theorem_defect(near), [check_theorem_defect(c) for c in near]),
    ]
    for stacked, single in cases:
        assert stacked.trials == k
        assert stacked == functools.reduce(_merge, single)


def test_a_stack_is_gated_matrix_by_matrix():
    """One bad matrix in a stack refuses the whole check, as it refuses alone."""
    near = _stack_of(3, 4, _near_normal)
    bad = near.copy()
    bad[2] = 0.0
    bad[2, 0, 1] = 2.0  # epsilon 4, as nilpotent(2.0)
    with pytest.raises(InvalidParameter, match="epsilon must be < 1, got 4"):
        check_resolvent_difference(bad)
    with pytest.raises(InvalidParameter, match="lam must be positive, got 0.0"):
        check_resolvent_bound(near, np.array([1.0, 1.0, 0.0, 1.0]))
    e = _stack_of(3, 4, _psd)
    e[1] = -np.eye(3)
    with pytest.raises(InvalidParameter, match="E must be positive semidefinite"):
        check_f_lipschitz(e, e)
    bad = near.copy()
    bad[3, 1, 1] = np.nan
    with pytest.raises(DimensionMismatch, match="finite"):
        check_intertwine(bad)


def test_run_suite_refuses_what_will_not_fit_before_it_draws(monkeypatch):
    """With the memory probe patched just below the suite's footprint, its stacks
    and its trials' keys and orders, nothing is drawn; at the footprint itself the
    suite runs."""
    assert suite_bytes(8) == bounds_module.DEFECT_ARRAYS * 4 * bounds_module.STACK_BYTES
    assert suite_bytes(10**5) == bounds_module.DEFECT_ARRAYS * 4 * 16 * 10**10
    footprint = suite_bytes(8) + 2 * bounds_module.TRIAL_BYTES
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(bounds_module, "_key", None)
        with pytest.raises(InsufficientMemory, match="the verify suite at max_dim 8") as info:
            run_suite(seed=0, trials=2, max_dim=8)
    assert info.value.detail["needed_bytes"] == footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    assert all(r.passed for r in run_suite(seed=0, trials=2, max_dim=8))


# ---------------------------------------------------------------- BLAS threads

OPENBLAS = linalg_module._openblas_threads()


def _counting_families(monkeypatch, counts):
    """Patch run_suite's family loop to record the BLAS thread count and check
    nothing, so a suite costs nothing."""
    def family(seed, family, trials, max_dim, draw, check):
        counts.append(OPENBLAS[1]())
        return BoundCheckResult("family", trials, 0.0, 0.0, 0)

    monkeypatch.setattr(bounds_module, "_run_family", family)


@pytest.mark.skipif(
    OPENBLAS is None,
    reason="no OpenBLAS thread-count functions in this process: no count to read",
)
def test_run_suite_runs_on_one_thread_and_restores_the_count(monkeypatch):
    before = OPENBLAS[1]()
    counts = []
    _counting_families(monkeypatch, counts)
    run_suite(seed=0, trials=2, max_dim=8)
    assert counts == [1] * 5 and OPENBLAS[1]() == before

    def fail(*args):
        raise ZeroDivisionError

    monkeypatch.setattr(bounds_module, "_run_family", fail)
    with pytest.raises(ZeroDivisionError):
        run_suite(seed=0, trials=2, max_dim=8)
    assert OPENBLAS[1]() == before
    monkeypatch.undo()
    run_suite(seed=0, trials=2, max_dim=8)
    assert OPENBLAS[1]() == before


def test_run_suite_has_the_same_bits_at_the_default_thread_count(monkeypatch):
    """With serial_blas patched to a no-op the suite runs at the threads it finds;
    every field of every result matches the one-thread run."""
    serial = run_suite(seed=5, trials=12, max_dim=32)
    monkeypatch.setattr(linalg_module, "serial_blas", contextlib.nullcontext)
    assert run_suite(seed=5, trials=12, max_dim=32) == serial
