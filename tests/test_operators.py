import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import omega_index.linalg as linalg_module
import omega_index.operators as operators_module
from omega_index import (
    ConfigParse,
    DimensionMismatch,
    InsufficientMemory,
    InvalidParameter,
    NonHermitianInput,
    OperatorPair,
    build_commuting_grid,
    build_harmonic,
    build_oscillator_analytic_q,
    grid_points,
    hermitian_norm,
    load_matrix,
    load_pair,
    operator_norm,
    perturb,
    save_matrix,
    scale_admissible,
)


def ladder(dim):
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        a[n, n + 1] = np.sqrt(n + 1)
    return a


# ---------------------------------------------------------------- harmonic


def test_harmonic_matches_ladder_construction():
    lam, dim = 0.01, 16
    pair = build_harmonic(lam, dim)
    a = ladder(dim)
    x = (a + a.conj().T) / np.sqrt(2)
    p = 1j * (a.conj().T - a) / np.sqrt(2)
    assert np.allclose(pair.a, np.sqrt(lam) * x, atol=1e-15)
    assert np.allclose(pair.b, np.sqrt(lam) * p, atol=1e-15)


@pytest.mark.parametrize(
    "lam,dim", [(0.01, 8), (0.0075, 120), (0.002, 400), (0.025, 600), (1.0, 1200)]
)
def test_harmonic_c_is_the_ladder_sum_bit_for_bit(lam, dim):
    """C is stored real, and equal to sqrt(lam)*X + i*sqrt(lam)*P in every bit."""
    a = ladder(dim)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = 1j * (a.conj().T - a) / np.sqrt(2.0)
    s = np.sqrt(lam)
    reference = s * x + 1j * (s * p)
    c = build_harmonic(lam, dim).c
    assert c.dtype == np.float64
    assert not np.any(reference.imag)
    assert np.array_equal(c, reference.real)


def test_harmonic_superdiagonal_entry():
    pair = build_harmonic(0.01, 8)
    assert pair.a[0, 1] == pytest.approx(0.1 * np.sqrt(0.5), abs=1e-15)
    assert pair.b[0, 1] == pytest.approx(-0.1j * np.sqrt(0.5), abs=1e-15)


def test_harmonic_is_exactly_hermitian():
    pair = build_harmonic(0.03, 24)
    assert np.array_equal(pair.a, pair.a.conj().T)
    assert np.array_equal(pair.b, pair.b.conj().T)


@pytest.mark.parametrize("dim", [8, 33, 120])
def test_harmonic_interior_commutator_is_scalar(dim):
    """i[A, B] equals -lam * I away from the last basis row."""
    lam = 0.01
    pair = build_harmonic(lam, dim)
    comm = 1j * (pair.a @ pair.b - pair.b @ pair.a)
    interior = comm[: dim - 1, : dim - 1]
    assert np.max(np.abs(interior + lam * np.eye(dim - 1))) <= 1e-14


def test_harmonic_metadata():
    pair = build_harmonic(0.01, 400)
    assert pair.known_commutator_norm == 0.01
    assert pair.boundary_window == 50
    assert pair.dim == 400
    assert pair.basis_label == "oscillator"
    assert pair.interior == 350


def test_harmonic_small_dim_window_floor():
    assert build_harmonic(0.01, 8).boundary_window == 1


@pytest.mark.parametrize("lam,dim", [(0.0, 64), (-0.1, 64), (0.01, 7), (0.01, 0)])
def test_harmonic_rejects_bad_parameters(lam, dim):
    with pytest.raises(InvalidParameter):
        build_harmonic(lam, dim)


# ---------------------------------------------------------------- grid


def test_grid_points_origin_first():
    pts = grid_points(3)
    assert pts[0] == (0, 0)
    assert pts[1:5] == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_grid_points_sorted_by_shell():
    pts = grid_points(6)
    shells = [n * n + m * m for n, m in pts]
    assert shells == sorted(shells)


def test_grid_diagonals_follow_point_order():
    pair = build_commuting_grid(2)
    assert np.array_equal(pair.a, np.diag(np.diag(pair.a)))
    assert np.diag(pair.a)[:5].tolist() == [0, -1, 0, 0, 1]
    assert np.diag(pair.b)[:5].tolist() == [0, 0, -1, 1, 0]


def test_grid_scale_multiplies_entries():
    pair = build_commuting_grid(2, scale=0.5)
    assert np.diag(pair.a)[1] == -0.5
    assert np.diag(pair.b)[2] == -0.5


def test_grid_commutes_exactly():
    pair = build_commuting_grid(5)
    comm = pair.a @ pair.b - pair.b @ pair.a
    assert np.count_nonzero(comm) == 0
    assert pair.known_commutator_norm == 0.0


def test_grid_dimensions_and_window():
    pair = build_commuting_grid(10)
    assert pair.dim == 21 * 21
    outside = sum(1 for n, m in grid_points(10) if n * n + m * m > 100)
    assert pair.boundary_window == outside == 124
    assert pair.interior == 441 - 124


def test_grid_rejects_radius_zero():
    with pytest.raises(InvalidParameter):
        build_commuting_grid(0)


def test_grid_rejects_a_nan_scale():
    with pytest.raises(InvalidParameter, match="scale must be finite"):
        build_commuting_grid(4, float("nan"))


# ---------------------------------------------------------------- analytic q


def test_analytic_q_shape_and_scalar_entries():
    lam, cut = 0.01, 100
    q = build_oscillator_analytic_q(lam, cut)
    assert q.shape == (200, 200)
    assert q[0, 0] == 1.0
    assert q[-1, -1] == pytest.approx(2 * cut * lam / (2 * cut * lam + 1), rel=1e-12)


def test_analytic_q_first_coupling_entry():
    q = build_oscillator_analytic_q(0.01, 10)
    assert q[1, 2] == pytest.approx(np.sqrt(0.01) / 1.02, rel=1e-12)


def test_analytic_q_is_hermitian_and_sparse():
    q = build_oscillator_analytic_q(0.05, 40)
    assert np.array_equal(q, q.conj().T)
    assert np.max(np.count_nonzero(q, axis=1)) <= 2


def test_analytic_q_block_determinant_identity():
    """Each 2x2 block has det p(1-p) style structure: 1 - trace matches the
    closed form 2*lam / ((2n lam + 1)(2(n-1) lam + 1))."""
    lam, cut = 0.01, 30
    q = build_oscillator_analytic_q(lam, cut)
    for n in range(1, cut):
        i, j = 2 * n - 1, 2 * n
        trace = q[i, i].real + q[j, j].real
        expected = 2 * lam / ((2 * n * lam + 1) * (2 * (n - 1) * lam + 1))
        assert 1 - trace == pytest.approx(expected, rel=1e-12)


def test_analytic_q_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        build_oscillator_analytic_q(0.01, 1)
    with pytest.raises(InvalidParameter):
        build_oscillator_analytic_q(0.0, 10)


# ---------------------------------------------------------------- pair container


def test_operator_pair_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        OperatorPair(
            a=np.array([[0, 1], [0, 0]], dtype=complex),
            b=np.zeros((2, 2), dtype=complex),
            dim=2,
            basis_label="bad",
            known_commutator_norm=None,
            boundary_window=0,
        )


@st.composite
def hermitian_pairs(draw):
    """Random Hermitian A and B; half of them a real symmetric A with B = 0."""
    dim = draw(st.integers(1, 6))
    part = hnp.arrays(np.float64, (dim, dim), elements=st.floats(-1e3, 1e3))

    def hermitian(g):
        return (g + g.conj().T) / 2

    if draw(st.booleans()):
        return hermitian(draw(part)), np.zeros((dim, dim))
    return tuple(hermitian(draw(part) + 1j * draw(part)) for _ in "ab")


@settings(max_examples=60, deadline=None)
@given(hermitian_pairs())
def test_operator_pair_round_trips_outside_input(ab):
    """A and B from outside come back exactly Hermitian and within rounding of the input."""
    a, b = ab
    dim = a.shape[0]
    pair = OperatorPair(
        a=a, b=b, dim=dim, basis_label="outside", known_commutator_norm=None,
        boundary_window=0,
    )
    scale = operator_norm(a) + operator_norm(b)
    for derived, given_ in ((pair.a, a), (pair.b, b)):
        assert np.array_equal(derived, derived.conj().T)
        assert np.max(np.abs(derived - given_)) <= 1e-15 * scale
    if not np.any(b) and not np.any(a.imag):
        assert pair.c.dtype == np.float64
        assert np.array_equal(pair.a, a)


def test_builders_neither_gate_nor_form_a_and_b(monkeypatch):
    """Builders, perturbations and rescaling form C directly; only outside input is gated."""

    def refuse(*args, **kwargs):
        raise AssertionError("a built pair was gated")

    monkeypatch.setattr(linalg_module, "is_hermitian", refuse)
    monkeypatch.setattr(OperatorPair, "a", property(refuse))
    monkeypatch.setattr(OperatorPair, "b", property(refuse))
    pair = build_harmonic(0.5, 32)
    for target in ("a", "b"):
        for kind in ("scalar_shift", "diagonal_decay", "random_hermitian"):
            pair = perturb(pair, target, kind, 0.01, 3)
    scaled, s = scale_admissible(pair, 0.02)
    assert s < 1 and np.array_equal(scaled.c, s * pair.c)
    assert build_commuting_grid(3, 0.5).c.dtype == np.complex128


def test_derived_a_and_b_are_read_only():
    pair = build_harmonic(0.01, 8)
    with pytest.raises(ValueError):
        pair.a[0, 1] = 1.0
    with pytest.raises(ValueError):
        pair.b[0, 1] = 1.0


def test_operator_pair_takes_stored_or_a_and_b():
    c = np.zeros((2, 2))
    meta = dict(dim=2, basis_label="x", known_commutator_norm=None, boundary_window=0)
    with pytest.raises(InvalidParameter):
        OperatorPair(a=c, b=c, stored=c, **meta)
    with pytest.raises(InvalidParameter):
        OperatorPair(a=c, **meta)
    with pytest.raises(InvalidParameter):
        OperatorPair(**meta)
    with pytest.raises(DimensionMismatch):
        OperatorPair(stored=np.zeros((3, 3)), **meta)


def test_pair_arrays_are_read_only_in_every_copy():
    """A pair's stored arrays, and those of a replace() copy, cannot be written in
    place; the array a pair was built from stays writable to its owner."""
    c = np.array(perturb(build_harmonic(0.01, 40), "a", "random_hermitian", 0.01, 3).c)
    pair = OperatorPair(stored=c, dim=40, basis_label="noisy", known_commutator_norm=None,
                        boundary_window=5)
    copy = replace(pair, basis_label="copy")
    for p in (pair, copy):
        with pytest.raises(ValueError):
            p.c[0, 0] = 5.0
    assert c.flags.writeable
    band = build_harmonic(0.01, 120)
    before = band.c
    for x in band.diagonals:
        with pytest.raises(ValueError):
            x[0] = 99.0
    assert np.array_equal(band.c, before)
    gated = OperatorPair(a=pair.a, b=pair.b, dim=40, basis_label="gated",
                         known_commutator_norm=None, boundary_window=5)
    with pytest.raises(ValueError):
        gated.c[0, 0] = 5.0


def _dense_from_diagonals(pair):
    """C with the stored diagonals -1, 0 and 1 written into a zero matrix."""
    lower, main, upper = pair.diagonals
    c = np.zeros((pair.dim, pair.dim), dtype=main.dtype)
    i = np.arange(pair.dim - 1)
    c[np.diag_indices(pair.dim)] = main
    c[i + 1, i] = lower
    c[i, i + 1] = upper
    return c


def test_builders_store_diagonals():
    for pair in (build_harmonic(0.01, 40), build_commuting_grid(3, 0.5)):
        lower, main, upper = pair.diagonals
        assert lower.shape == upper.shape == (pair.dim - 1,) and main.shape == (pair.dim,)
        assert lower.dtype == main.dtype == upper.dtype == pair.dtype == pair.c.dtype
        assert pair.c_bytes == pair.dtype.itemsize * pair.dim**2
        assert np.array_equal(pair.c, _dense_from_diagonals(pair))
        with pytest.raises(ValueError):
            pair.c[0, 1] = 1.0
    assert not np.any(build_harmonic(0.01, 40).diagonals[0])


def test_diagonal_perturbations_keep_diagonal_storage_and_match_the_dense_sum():
    """scalar_shift and diagonal_decay add to the stored main diagonal, and the C
    they give is harmonic.c + diag(values) bit for bit; a dense pair stays dense
    and gets the same sum."""
    harmonic = build_harmonic(0.02, 30)
    noisy = perturb(harmonic, "b", "random_hermitian", 0.01, 4)
    assert noisy.diagonals is None and noisy.c_bytes == 0
    for target in ("a", "b"):
        for kind in ("scalar_shift", "diagonal_decay"):
            values = 0.3 * (np.ones(30) if kind == "scalar_shift" else 1.0 / (np.arange(30) + 1.0))
            if target == "b":
                values = 1j * values
            band = perturb(harmonic, target, kind, 0.3)
            expected = harmonic.c + np.diag(values)
            assert band.diagonals is not None and band.dtype == expected.dtype
            assert band.c.tobytes() == expected.tobytes()
            known = harmonic.known_commutator_norm if kind == "scalar_shift" else None
            assert band.known_commutator_norm == known
            dense = perturb(noisy, target, kind, 0.3)
            assert dense.diagonals is None
            assert np.array_equal(dense.c, noisy.c + np.diag(values))


def test_scale_admissible_keeps_diagonal_storage():
    """Rescaling multiplies the stored diagonals, with an analytic or a measured
    commutator norm alike, and never forms C."""
    for pair in (build_harmonic(0.5, 64), perturb(build_harmonic(0.5, 64), "a", "diagonal_decay", 0.2)):
        dense = pair.c
        scaled, s = scale_admissible(pair, 0.02)
        assert s < 1 and scaled.diagonals is not None
        for x, y in zip(scaled.diagonals, pair.diagonals):
            assert np.array_equal(x, s * y)
        assert np.array_equal(scaled.c, s * dense)


def test_operator_pair_checks_stored_diagonals():
    meta = dict(dim=3, basis_label="x", known_commutator_norm=None, boundary_window=0)
    with pytest.raises(DimensionMismatch):
        OperatorPair(stored=(np.zeros(2), np.zeros(2), np.zeros(2)), **meta)
    with pytest.raises(InvalidParameter):
        OperatorPair(a=np.zeros((3, 3)), b=np.zeros((3, 3)),
                     stored=(np.zeros(2), np.zeros(3), np.zeros(2)), **meta)
    with pytest.raises(InvalidParameter, match="both nonzero"):
        OperatorPair(stored=(np.ones(2), np.zeros(3), np.ones(2)), **meta)
    pair = OperatorPair(stored=(np.zeros(2), np.zeros(3), np.ones(2, dtype=complex)), **meta)
    assert {x.dtype for x in pair.diagonals} == {np.dtype(complex)}


def _refuse(*args, **kwargs):
    raise AssertionError("allocated")


def test_the_oscillator_pair_is_charged_by_its_rows(monkeypatch):
    """A dim-1000 oscillator pair is refused one byte below its charge, before any
    of its arrays is made, and built at it."""
    footprint = operators_module.HARMONIC_ROW_BYTES * 1000
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(np, "arange", _refuse)
        with pytest.raises(InsufficientMemory, match="the oscillator pair at dim 1000") as info:
            build_harmonic(0.01, 1000)
    assert info.value.detail["needed_bytes"] == footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    assert build_harmonic(0.01, 1000).dim == 1000


def test_a_commuting_grid_is_charged_by_its_points(monkeypatch):
    """The 121 points of radius 5 are refused one byte below their charge, before
    any is made, and built at it."""
    footprint = operators_module.GRID_POINT_BYTES * 11**2
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(operators_module, "grid_points", _refuse)
        with pytest.raises(InsufficientMemory, match="the commuting grid of radius 5") as info:
            build_commuting_grid(5)
    assert info.value.detail["needed_bytes"] == footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    assert build_commuting_grid(5).dim == 121


def test_dense_views_of_a_band_pair_are_refused_before_they_are_formed(monkeypatch):
    """With the memory probe patched to 1 MiB, C, A and B of a dim-1000 band pair
    (8 MB each) are refused, and so is a random_hermitian perturbation, before
    anything is drawn; the diagonal perturbations and rescaling need no M-by-M array."""
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(2**20))
    monkeypatch.setattr(np, "diag", _refuse)
    monkeypatch.setattr(operators_module, "_random_unit_hermitian", _refuse)
    pair = build_harmonic(0.01, 1000)
    for view in ("c", "a", "b"):
        with pytest.raises(InsufficientMemory, match="dense view of the dim-1000 pair"):
            getattr(pair, view)
    with pytest.raises(InsufficientMemory, match="random_hermitian perturbation at dim 1000"):
        perturb(pair, "a", "random_hermitian", 0.01)
    shifted = perturb(perturb(pair, "b", "scalar_shift", 0.1), "a", "diagonal_decay", 0.1)
    assert scale_admissible(shifted, 0.001)[0].diagonals is not None


def test_operator_pair_rejects_wide_window():
    with pytest.raises(InvalidParameter):
        OperatorPair(
            a=np.zeros((4, 4), dtype=complex),
            b=np.zeros((4, 4), dtype=complex),
            dim=4,
            basis_label="bad",
            known_commutator_norm=None,
            boundary_window=2,
        )


def test_operator_pair_rejects_a_negative_commutator_norm():
    with pytest.raises(InvalidParameter, match="known_commutator_norm must be finite and >= 0"):
        OperatorPair(
            a=np.zeros((4, 4), dtype=complex),
            b=np.zeros((4, 4), dtype=complex),
            dim=4,
            basis_label="bad",
            known_commutator_norm=-1.0,
            boundary_window=0,
        )


# ---------------------------------------------------------------- perturbations


def test_perturb_zero_magnitude_is_identity():
    pair = build_harmonic(0.01, 16)
    out = perturb(pair, "a", "scalar_shift", 0.0)
    assert out is pair


def test_scalar_shift_preserves_commutator():
    pair = build_harmonic(0.01, 32)
    shifted = perturb(pair, "a", "scalar_shift", 0.2)
    assert np.allclose(shifted.a, pair.a + 0.2 * np.eye(32), atol=1e-15)
    orig = pair.a @ pair.b - pair.b @ pair.a
    new = shifted.a @ shifted.b - shifted.b @ shifted.a
    assert np.max(np.abs(new - orig)) <= 1e-13
    assert shifted.known_commutator_norm == pair.known_commutator_norm


def test_diagonal_decay_entries():
    pair = build_harmonic(0.01, 8)
    out = perturb(pair, "b", "diagonal_decay", 0.1)
    added = np.diag(out.b - pair.b)
    expected = 0.1 / (np.arange(8) + 1)
    assert np.allclose(added, expected, atol=1e-15)
    assert out.known_commutator_norm is None


def test_random_hermitian_is_seeded_and_normalized():
    pair = build_harmonic(0.01, 24)
    one = perturb(pair, "a", "random_hermitian", 0.05, seed=9)
    two = perturb(pair, "a", "random_hermitian", 0.05, seed=9)
    assert np.array_equal(one.a, two.a)
    delta = (one.a - pair.a) / 0.05
    assert operator_norm(delta) == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(delta, delta.conj().T, atol=1e-14)
    other = perturb(pair, "a", "random_hermitian", 0.05, seed=10)
    assert not np.array_equal(one.a, other.a)


@pytest.mark.parametrize("dim", [24, 200, 1200])
def test_random_hermitian_norm_is_proved_at_most_the_magnitude(dim, monkeypatch):
    """On a zero pair the perturbation is A itself, bit for bit: its norm lies in
    [magnitude / (1 + NORM_BOUND_MAX_SLACK), magnitude], and it is drawn without
    an eigensolve of the M-by-M matrix."""
    zero = OperatorPair(stored=(np.zeros(dim - 1), np.zeros(dim), np.zeros(dim - 1)),
                        dim=dim, basis_label="zero", known_commutator_norm=0.0,
                        boundary_window=0)
    magnitude = 0.002
    with monkeypatch.context() as patch:
        for name in ("hermitian_norm", "hermitian_eigenvalues", "hermitian_eigen"):
            patch.setattr(linalg_module, name, _refuse)
        perturbed = perturb(zero, "a", "random_hermitian", magnitude, seed=dim)
    assert not np.any(perturbed.b)
    norm = hermitian_norm(perturbed.a)
    assert magnitude / (1.0 + linalg_module.NORM_BOUND_MAX_SLACK) <= norm <= magnitude


def test_perturb_target_b_only_touches_b():
    pair = build_harmonic(0.01, 16)
    out = perturb(pair, "b", "scalar_shift", 0.3)
    assert np.array_equal(out.a, pair.a)
    assert not np.array_equal(out.b, pair.b)


def test_perturb_rejects_bad_arguments():
    pair = build_harmonic(0.01, 16)
    with pytest.raises(InvalidParameter):
        perturb(pair, "c", "scalar_shift", 0.1)
    with pytest.raises(InvalidParameter):
        perturb(pair, "a", "unknown_kind", 0.1)
    with pytest.raises(InvalidParameter):
        perturb(pair, "a", "scalar_shift", -0.5)


# ---------------------------------------------------------------- file io


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = (g + g.conj().T) / 2
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


def test_save_writes_format_tag(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(np.eye(2, dtype=complex), path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "dense-complex-v1"
    assert doc["entries"][0][0] == [1.0, 0.0]


def test_load_pair_from_literal_files(tmp_path):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text('{"format": "dense-complex-v1", "entries": [[[2, 0]]]}')
    pb.write_text('{"format": "dense-complex-v1", "entries": [[[3, 0]]]}')
    pair = load_pair(pa, pb)
    assert pair.a[0, 0] == 2.0
    assert pair.b[0, 0] == 3.0
    assert pair.dim == 1
    assert pair.known_commutator_norm is None
    assert pair.boundary_window == 0


def test_load_pair_default_window(tmp_path):
    m = np.zeros((16, 16), dtype=complex)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(m, pa)
    save_matrix(m, pb)
    assert load_pair(pa, pb).boundary_window == 2


def test_load_matrix_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigParse):
        load_matrix(path)
    path.write_text('{"format": "other", "entries": [[[1, 0]]]}')
    with pytest.raises(ConfigParse):
        load_matrix(path)
    path.write_text('{"format": "dense-complex-v1", "entries": [[1, 2]]}')
    with pytest.raises(ConfigParse, match=r"must be a nested \[rows\]\[cols\]\[re, im\] array"):
        load_matrix(path)
    path.write_text('{"format": "dense-complex-v1", "entries": [[["a", 0]]]}')
    with pytest.raises(ConfigParse, match="has malformed entries"):
        load_matrix(path)
    path.write_text('{"format": "dense-complex-v1", "entries": [[[1, 0], [0, 0]]]}')
    with pytest.raises(DimensionMismatch):
        load_matrix(path)
    with pytest.raises(ConfigParse):
        load_matrix(tmp_path / "missing.json")


def test_load_matrix_refuses_a_file_it_cannot_parse_before_it_reads_it(tmp_path, monkeypatch):
    """With the memory probe patched just below the footprint, a dim-40 file is
    refused before it is read whole or parsed; the footprint is the file's bytes
    plus PARSE_LIST_BYTES for each of its 40 * 41 + 1 lists."""
    path = tmp_path / "m.json"
    save_matrix(np.eye(40), path)
    footprint = path.stat().st_size + operators_module.PARSE_LIST_BYTES * (40 * 41 + 1)
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    monkeypatch.setattr(operators_module.json, "loads", _refuse)
    with pytest.raises(InsufficientMemory, match="parsing matrix file") as info:
        load_matrix(path)
    assert info.value.detail["needed_bytes"] == footprint
    monkeypatch.undo()
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    assert np.array_equal(load_matrix(path), np.eye(40))


def test_load_pair_rejects_non_hermitian(tmp_path):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text('{"format": "dense-complex-v1", "entries": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}')
    pb.write_text('{"format": "dense-complex-v1", "entries": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}')
    with pytest.raises(NonHermitianInput):
        load_pair(pa, pb)


def test_load_pair_rejects_shape_mismatch(tmp_path):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(np.zeros((2, 2), dtype=complex), pa)
    save_matrix(np.zeros((3, 3), dtype=complex), pb)
    with pytest.raises(DimensionMismatch):
        load_pair(pa, pb)
