import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import omega_index.bounds as bounds_module
import omega_index.cli as cli_module
import omega_index.index as index_module
import omega_index.linalg as linalg_module
import omega_index.operators as operators_module
from omega_index import (
    GapViolation,
    InadmissibleCommutator,
    InsufficientMemory,
    build_harmonic,
    certify,
    corner_eigenvalues,
    count_upper,
    factor,
    omega,
    perturb,
    save_matrix,
)
from omega_index.cli import main


SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def zero_pair_files(tmp_path, dim=1):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(np.zeros((dim, dim), dtype=complex), pa)
    save_matrix(np.zeros((dim, dim), dtype=complex), pb)
    return str(pa), str(pb)


# ---------------------------------------------------------------- omega


def test_omega_commuting_json(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--pair", "commuting", "--grid-radius", "6", "--cuts", "30,60"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "omega-report-v1"
    assert doc["omega"] == 0
    assert [c["n"] for c in doc["cuts"]] == [30, 60]
    for c in doc["cuts"]:
        assert c["m_n"] == c["n"]
        assert c["gap"] == pytest.approx(0.5, abs=1e-10)
    assert doc["epsilon"] == 0.0
    assert doc["orientation"] == "conjugate"
    assert doc["scaling"] == {"lambda_a": 1.0, "mu_b": 1.0}
    assert doc["warnings"] == []


def test_omega_harmonic_json(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--dim", "240", "--cuts", "70:110:20"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["omega"] == 1
    assert [c["n"] for c in doc["cuts"]] == [70, 90, 110]
    for c in doc["cuts"]:
        assert c["m_n"] == c["n"] + 1
    assert doc["epsilon"] == 0.02
    assert doc["theorem_bound"] == pytest.approx(0.08246563931695128, rel=1e-12)


def test_omega_report_is_byte_stable(capsys):
    args = ("omega", "--dim", "240", "--cuts", "70,90")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("omega", "--dim", "64", "--cuts", "20"),
    ("verify", "--trials", "1", "--max-dim", "2"),
    ("spectrum", "--dim", "64", "--cut", "20"),
    ("sweep", "--axis", "cut", "--values", "20", "--dim", "64"),
])
def test_threads_flag_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--threads", "4")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --threads 4" in err


def test_perturb_seed_flag_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "perturbation", "--values", "0.001", "--dim", "64",
        "--cuts", "20", "--perturb-seed", "5"
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --perturb-seed 5" in err


def test_sweep_perturbation_axis_draws_from_seed(capsys):
    """--seed is the one seed: the axis perturbation moves with it."""
    argv = ("sweep", "--axis", "perturbation", "--perturb-kind", "random_hermitian",
            "--values", "0.001", "--dim", "64", "--cuts", "20")
    epsilons = []
    for seed in ("0", "5"):
        code, out, _ = run_cli(capsys, *argv, "--seed", seed)
        assert code == 0
        epsilons.append(json.loads(out)["points"][0]["report"]["epsilon"])
    assert epsilons[0] != epsilons[1]


def test_counting_starts_no_threads(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    omega_args = ("omega", "--dim", "240", "--cuts", "70,90,110")
    assert run_cli(capsys, *omega_args)[0] == 0
    sweep_args = ("sweep", "--axis", "cut", "--values", "70,90", "--dim", "240")
    assert run_cli(capsys, *sweep_args)[0] == 0


def test_omega_default_cuts(capsys):
    code, out, _ = run_cli(capsys, "omega", "--pair", "commuting", "--grid-radius", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["omega"] == 0
    assert len(doc["cuts"]) == 5


def test_omega_default_cuts_are_distinct_on_a_small_file_pair(capsys, tmp_path):
    pa, pb = zero_pair_files(tmp_path, dim=4)
    code, out, _ = run_cli(capsys, "omega", "--pair", "file", "--file-a", pa, "--file-b", pb)
    assert code == 0
    assert [c["n"] for c in json.loads(out)["cuts"]] == [1]


def test_omega_orientation_flag(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--dim", "240", "--cuts", "70,90", "--orientation", "literal"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["omega"] == -1
    assert doc["orientation"] == "literal"


def test_omega_default_orientation_matches_pinned(capsys):
    _, explicit, _ = run_cli(
        capsys, "omega", "--dim", "240", "--cuts", "70", "--orientation", "conjugate"
    )
    _, default, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "70")
    assert explicit == default


def test_omega_csv(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--dim", "240", "--cuts", "70,90", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m_n,gap,omega"
    assert lines[1].startswith("70,71,") and lines[1].endswith(",1")
    assert lines[2].startswith("90,91,")


def test_omega_text(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--dim", "240", "--cuts", "70", "--format", "text"
    )
    assert code == 0
    assert "omega = 1" in out
    assert "orientation conjugate" in out


def test_omega_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "omega", "--dim", "240", "--cuts", "70", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["omega"] == 1


def test_an_unwritable_output_exits_1_with_the_os_error_on_stderr(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(
        capsys, "omega", "--dim", "200", "--cuts", "40", "--output", str(target)
    )
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert not target.parent.exists()


def test_omega_measured_epsilon_warning(capsys, tmp_path):
    from omega_index import build_harmonic

    pair = build_harmonic(0.01, 200)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(pair.a, pa)
    save_matrix(pair.b, pb)
    code, out, _ = run_cli(
        capsys, "omega", "--pair", "file", "--file-a", str(pa), "--file-b", str(pb),
        "--cuts", "70,100"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["omega"] == 1
    assert any("masking" in w for w in doc["warnings"])


def test_omega_commuting_file_pair_prints_positive_zero(capsys, tmp_path):
    """A measured zero commutator is reported as 0.0, never -0.0."""
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(np.diag(np.arange(8.0)).astype(complex), pa)
    save_matrix(np.diag(np.arange(7.0, -1.0, -1.0)).astype(complex), pb)
    code, out, _ = run_cli(
        capsys, "omega", "--pair", "file", "--file-a", str(pa), "--file-b", str(pb),
        "--format", "json",
    )
    assert code == 0
    assert '"epsilon": 0.0,' in out
    assert '"theorem_bound": 0.0,' in out
    assert "-0.0" not in out


def test_omega_auto_scale(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--lambda", "0.1", "--dim", "240", "--cuts", "70,90",
        "--auto-scale", "--target-commutator", "0.02"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["omega"] == 1
    assert doc["scaling"]["lambda_a"] == pytest.approx(0.42485291572496003, rel=1e-12)
    assert doc["scaling"]["lambda_a"] == doc["scaling"]["mu_b"]
    assert doc["epsilon"] == pytest.approx(2 * 0.1 * 0.42485291572496003**2, rel=1e-12)


# ---------------------------------------------------------------- exit code 2


def test_omega_inadmissible_exits_2(capsys):
    code, out, _ = run_cli(capsys, "omega", "--lambda", "0.1", "--dim", "64", "--cuts", "20")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "InadmissibleCommutator"
    assert err["detail"]["bound"] > 0.25
    assert "scale_admissible" in err["message"]


def test_omega_gap_violation_exits_2(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "60")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "GapViolation"
    assert err["detail"]["cuts"] == [60]


def test_gap_violation_names_its_gaps(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "60,100,50")
    assert code == 2
    detail = json.loads(out)["error"]["detail"]
    assert detail["cuts"] == [60, 50]
    # cut-edge eigenvalue 2Nl/(2Nl + 1) at l = 0.01
    assert detail["gaps"] == pytest.approx([1.2 / 2.2 - 0.5, 0.0], abs=1e-12)
    assert detail["gap_floor"] == 0.05


def test_gap_violation_names_the_eigenvalue_nearest_one_half(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "60,100,50")
    assert code == 2
    detail = json.loads(out)["error"]["detail"]
    # per offending cut, in the order of "cuts": 2Nl/(2Nl + 1) at l = 0.01
    assert detail["nearest"] == pytest.approx([1.2 / 2.2, 0.5], abs=1e-12)


def test_omega_unstable_count_exits_2(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "40,100")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "UnstableCount"
    assert err["detail"]["counts"] == [0, 1]


def test_unstable_count_names_its_cuts(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "40,100,30")
    assert code == 2
    detail = json.loads(out)["error"]["detail"]
    assert detail["cuts"] == [40, 100, 30]
    assert detail["counts"] == [0, 1, 0]


# ---------------------------------------------------------------- exit code 1


def test_usage_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "omega", "--bogus")
    assert code == 1
    assert "usage" in err


def test_non_finite_gap_floor_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--dim", "240", "--cuts", "70", "--gap-floor", "nan"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidParameter"


@pytest.mark.parametrize("axis, values", [("cut", "40,50"), ("lambda", "0.005,0.01")])
def test_sweep_non_finite_gap_floor_exits_1(capsys, axis, values):
    """A gap floor that no point can pass fails the whole sweep once, as for omega."""
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", axis, "--values", values, "--dim", "400",
        "--gap-floor", "nan"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidParameter"


def _strict_json(text):
    """json.loads that refuses the non-standard Infinity and NaN constants."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("kind", ["random_hermitian", "diagonal_decay"])
@pytest.mark.parametrize("auto_scale", [(), ("--auto-scale",)])
def test_an_overflowing_pair_is_refused_before_epsilon_is_measured(capsys, kind, auto_scale):
    """At magnitude 1e200, I + d*d overflows on the dense and the band path alike:
    both refuse with the band path's message before any eigensolve or bisection
    runs on inf or nan, with or without --auto-scale, and no numpy warning is
    printed (nor raised: every warning is recorded here)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "omega", "--dim", "64", "--perturb", f"a:{kind}:1e200", "--cuts", "20",
            *auto_scale,
        )
    assert code == 1 and err == "" and caught == []
    error = _strict_json(out)["error"]
    assert error["type"] == "ConvergenceFailure"
    assert error["message"] == "I + d*d overflows: the pair is too large to factor"


@pytest.mark.parametrize("auto_scale", [(), ("--auto-scale",)])
def test_a_band_commutator_that_overflows_is_refused_not_rescaled_to_zero(capsys, auto_scale):
    """At lambda 3 and magnitude 1.3e154 the diagonal of C*C is finite but the
    commutator's squared off-diagonal is not: the measurement refuses, where an
    infinite norm used to rescale the pair to zero and certify omega = 0."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "omega", "--lambda", "3", "--dim", "64", "--perturb",
            "a:diagonal_decay:1.3e154", "--cuts", "20", *auto_scale,
        )
    assert code == 1 and err == "" and caught == []
    error = _strict_json(out)["error"]
    assert error["type"] == "ConvergenceFailure"
    assert error["message"] == "C*C - CC* overflows: the pair is too large to measure"


def test_a_dense_epsilon_that_rounding_decided_exits_2(capsys):
    """At magnitude 1e100 the measured epsilon cancels to 0 while the pair's
    commutator is ~1e99; the count is refused with the rounding bound named, and
    the reported epsilon is the eigensolve's."""
    code, out, err = run_cli(
        capsys, "omega", "--dim", "64", "--perturb", "a:random_hermitian:1e100", "--cuts", "20"
    )
    assert code == 2 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InadmissibleCommutator"
    assert "rounding bound" in error["message"]
    assert error["detail"]["epsilon"] < 1e-6 < 1e180 < error["detail"]["rounding"]


@pytest.mark.parametrize(
    "pair, argv, bound",
    [
        # epsilon = 1.2 >= 1
        (lambda: build_harmonic(0.6, 16), ("--lambda", "0.6", "--dim", "16", "--cuts", "4"),
         None),
        # epsilon = 0.2, where the defect bound is 1.125 >= 1/4
        (lambda: build_harmonic(0.1, 64), ("--lambda", "0.1", "--dim", "64", "--cuts", "20"),
         1.125),
        # epsilon cancels to rounding, its rounding bound is ~4.5e187
        (lambda: perturb(build_harmonic(0.01, 64), "a", "random_hermitian", 1e100, 0),
         ("--dim", "64", "--perturb", "a:random_hermitian:1e100", "--cuts", "20"), None),
    ],
    ids=["epsilon-at-least-one", "bound-at-least-a-quarter", "rounding-decided"],
)
def test_every_inadmissible_pair_gets_one_refusal(capsys, pair, argv, bound):
    """An epsilon >= 1, a defect bound >= 1/4 and an epsilon that only its rounding
    bound makes inadmissible are refused by one gate, with one detail shape:
    epsilon, rounding and bound, the last null where epsilon plus its rounding
    bound is not below 1.  The command line prints that detail as strict JSON."""
    with pytest.raises(InadmissibleCommutator) as caught:
        certify(factor(pair()), [int(argv[-1])])
    detail = caught.value.detail
    assert set(detail) == {"epsilon", "rounding", "bound"}
    if bound is None:
        assert detail["bound"] is None and detail["epsilon"] + detail["rounding"] >= 1.0
    else:
        assert detail["bound"] == pytest.approx(bound, rel=1e-12)
    code, out, err = run_cli(capsys, "omega", *argv)
    assert code == 2 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InadmissibleCommutator"
    assert error["detail"] == {k: None if v is None else float(v) for k, v in detail.items()}
    assert "rounding bound" in error["message"] and "scale_admissible" in error["message"]


def test_auto_scale_rescales_by_the_rounding_bound_too(capsys):
    """The same pair with --auto-scale: its measured epsilon cancels to 0, but the
    masked norm that scale_admissible reads carries the rounding bound, so the pair
    is rescaled into the regime and certified, not refused again."""
    code, out, err = run_cli(
        capsys, "omega", "--dim", "64", "--perturb", "a:random_hermitian:1e100", "--cuts",
        "20", "--auto-scale",
    )
    assert code == 0 and err == ""
    doc = _strict_json(out)
    assert doc["omega"] == 0 and [c["m_n"] for c in doc["cuts"]] == [20]
    assert doc["scaling"]["lambda_a"] == doc["scaling"]["mu_b"] < 1e-90


def test_a_band_off_diagonal_that_overflows_is_refused_as_an_overflow(capsys):
    """At lambda 3 and a shift of 1.3e154 the diagonal of I + d*d is finite but its
    squared off-diagonal |f|^2 is not: the band factor refuses it as an overflow,
    with no numpy warning, not as a pivot that is not positive."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "omega", "--lambda", "3", "--dim", "64", "--perturb",
            "a:scalar_shift:1.3e154", "--cuts", "20",
        )
    assert code == 1 and err == "" and caught == []
    error = _strict_json(out)["error"]
    assert error["type"] == "ConvergenceFailure"
    assert error["message"] == (
        "I + d*d overflows: its squared off-diagonal is not finite, so a pivot of "
        "I + d*d is not positive; the pair is too large to factor"
    )


@pytest.mark.parametrize("argv", [
    ("omega", "--dim", "64", "--perturb", "a:random_hermitian:0.01", "--cuts", "20"),
    ("verify", "--trials", "2"),
])
def test_the_cli_imports_no_scipy(argv):
    """The runtime is numpy-only: a dense omega run and a verify run, each in a
    fresh interpreter, import no module of scipy (``-X importtime`` lists every
    module a run imports)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "omega_index.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_an_infinite_defect_bound_exits_1_with_one_error_object(capsys):
    """At scale 1e7 the band path's rounding bound x = 8u norm(G, inf) reaches 1."""
    code, out, _ = run_cli(
        capsys, "omega", "--pair", "commuting", "--grid-radius", "4", "--scale", "1e7",
        "--cuts", "20"
    )
    assert code == 1
    err = _strict_json(out)["error"]
    assert err["type"] == "ConvergenceFailure"
    assert "defect" in err["message"] and "rescale" in err["message"]
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--pair", "commuting", "--grid-radius", "4",
        "--scale", "1e7", "--values", "20,30"
    )
    assert code == 0
    points = _strict_json(out)["points"]
    assert [p["error"]["type"] for p in points] == ["ConvergenceFailure"] * 2


@pytest.mark.parametrize("argv", [
    ("omega", "--dim", "25000", "--lambda", "0.0002", "--perturb", "a:random_hermitian:0.001"),
    ("omega", "--dim", "400", "--perturb", "a:random_hermitian:0.001"),
    ("spectrum", "--dim", "3000", "--cut", "400", "--perturb", "a:random_hermitian:0.001"),
])
def test_a_dense_request_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch, argv):
    """The memory probe is patched to 1 MiB: a random_hermitian pair at dim 25000
    would need 40 GB, and even dim 400 needs 10 MB, so each is refused before the
    perturbation is drawn, with no traceback."""
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(2**20))
    monkeypatch.setattr(operators_module, "_random_unit_hermitian", None)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InsufficientMemory"
    assert "random_hermitian perturbation" in error["message"]
    assert error["detail"]["available_bytes"] == 2**20
    assert error["detail"]["needed_bytes"] > 2**20


def test_a_file_pair_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch, tmp_path):
    """The memory probe is patched to 1 MiB: parsing a dim-100 file needs about
    2 MiB, so --pair file is refused before the file is parsed, with no traceback."""
    pa, pb = zero_pair_files(tmp_path, dim=100)
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(2**20))
    monkeypatch.setattr(operators_module.json, "loads", None)
    code, out, err = run_cli(capsys, "omega", "--pair", "file", "--file-a", pa, "--file-b", pb)
    monkeypatch.undo()
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InsufficientMemory"
    assert error["message"].startswith(f"parsing matrix file {pa} needs about")
    assert error["detail"]["needed_bytes"] > error["detail"]["available_bytes"] == 2**20


def test_an_undecodable_matrix_file_exits_1_with_one_config_parse_object(capsys, tmp_path):
    """A file that is not valid Unicode is a ConfigParse error, not a traceback:
    here a UTF-16 byte-order mark before an odd number of bytes, which the
    detected utf-16-le codec cannot decode."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"format": 1}')
    code, out, err = run_cli(
        capsys, "omega", "--pair", "file", "--file-a", str(bad), "--file-b", str(bad)
    )
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "ConfigParse"
    assert error["message"].startswith(f"matrix file {bad} is not valid JSON")


def test_a_float_range_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch):
    """The memory probe is patched to 1 MiB: the 10^12 values of the range would
    need 40 TB, so the list is refused before it is built, with no traceback."""
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(2**20))
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "lambda", "--dim", "400", "--values", "0.001:1e9:1e-3"
    )
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InsufficientMemory"
    assert error["message"].startswith("the value list '0.001:1e9:1e-3' needs about")
    assert error["detail"]["needed_bytes"] >= cli_module.RANGE_VALUE_BYTES * 10**12 - 100


def test_a_float_range_is_charged_by_its_length(monkeypatch):
    """The 2001 values of 0:1000:0.5 are refused one byte below their charge and
    built at it."""
    footprint = cli_module.RANGE_VALUE_BYTES * 2001
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    with pytest.raises(InsufficientMemory) as info:
        cli_module._parse_values("0:1000:0.5", float)
    assert info.value.detail["needed_bytes"] == footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    values = cli_module._parse_values("0:1000:0.5", float)
    assert len(values) == 2001 and values[-1] == 1000.0


def test_a_commuting_grid_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch):
    """The memory probe is patched to 1 MiB: the 60001^2 points of radius 30000
    would need 750 GB, so the pair is refused before any point is made."""
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(2**20))
    monkeypatch.setattr(operators_module, "grid_points", None)
    code, out, err = run_cli(capsys, "omega", "--pair", "commuting", "--grid-radius", "30000")
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InsufficientMemory"
    assert error["message"].startswith("the commuting grid of radius 30000 needs about")
    assert error["detail"]["needed_bytes"] == operators_module.GRID_POINT_BYTES * 60001**2


def test_a_verify_order_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch):
    """With the memory probe patched just below the suite's footprint at max_dim
    100000, verify is refused before any trial is drawn, with no traceback."""
    footprint = bounds_module.suite_bytes(100000) + bounds_module.TRIAL_BYTES
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    monkeypatch.setattr(bounds_module, "_key", None)
    code, out, err = run_cli(
        capsys, "verify", "--max-dim", "100000", "--trials", "1", "--seed", "0"
    )
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InsufficientMemory"
    assert error["message"].startswith(
        "the verify suite at max_dim 100000 with 1 trials needs about"
    )
    assert error["detail"]["needed_bytes"] == footprint


def test_a_trial_count_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch):
    """The trials' keys and orders are charged with the suite's stacks: a billion
    trials at the default max_dim would need about 45 GiB of them, so with the
    memory probe patched to 1 GiB verify is refused before any trial is drawn."""
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(2**30))
    monkeypatch.setattr(bounds_module, "_key", None)
    code, out, err = run_cli(capsys, "verify", "--trials", "1000000000", "--seed", "0")
    assert code == 1 and err == ""
    document = _strict_json(out)
    assert list(document) == ["error"]
    error = document["error"]
    assert error["type"] == "InsufficientMemory"
    assert error["message"].startswith(
        "the verify suite at max_dim 32 with 1000000000 trials needs about"
    )
    assert error["detail"]["needed_bytes"] == (
        bounds_module.suite_bytes(32) + bounds_module.TRIAL_BYTES * 10**9
    )


@pytest.mark.parametrize("argv, probe, message, needed", [
    (("--lambda", "1e-7", "--dim", "200000000"), 2**20, "the oscillator pair at dim 200000000",
     operators_module.HARMONIC_ROW_BYTES * 200000000),
    (("--lambda", "1e-4", "--dim", "100000"), 8 * 2**20, "the band factor of a dim-100000 pair",
     index_module.BAND_FACTOR_ROW_BYTES * 100000),
    (("--lambda", "1e-4", "--dim", "100000", "--perturb", "a:diagonal_decay:0.01"), 16 * 2**20,
     "the commutator norm of a dim-100000 band pair", index_module.STURM_ROW_BYTES * 100000),
])
def test_a_band_pair_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch, argv,
                                                                 probe, message, needed):
    """The band path's O(M) arrays are charged: the oscillator's diagonals, then the
    factor's arrays and pivot lists, then a measured epsilon's Sturm rows, each
    refused before it is begun, with no traceback."""
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(probe))
    monkeypatch.setattr(index_module, "_pivots", _refuse_to_factor)
    monkeypatch.setattr(linalg_module, "tridiagonal_norm", _refuse_to_factor)
    code, out, err = run_cli(capsys, "omega", *argv)
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InsufficientMemory"
    assert error["message"].startswith(f"{message} needs about")
    assert error["detail"]["needed_bytes"] == needed


def test_the_oscillator_at_dim_50000_certifies_with_default_cuts(capsys, monkeypatch):
    """lam = 1e-4 needs N >= 0.61/lam to certify, so default cuts need M >= 4.9/lam;
    at M = 5e4 no dense array (20 GB) could be afforded under an 8 MiB probe, which
    holds the band path's O(M) charges (6 MB for the factor), and none is asked
    for.  Every gap is 2N lam/(2N lam + 1) - 1/2 to 1e-12."""
    assert index_module.BAND_FACTOR_ROW_BYTES * 50000 < 8 * 2**20
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(8 * 2**20))
    code, out, _ = run_cli(capsys, "omega", "--lambda", "1e-4", "--dim", "50000")
    assert code == 0
    doc = _strict_json(out)
    assert doc["omega"] == 1 and len(doc["cuts"]) == 5
    for entry in doc["cuts"]:
        x = 2 * entry["n"] * 1e-4
        assert entry["m_n"] == entry["n"] + 1
        assert abs(entry["gap"] - (x / (x + 1) - 0.5)) <= 1e-12


def test_missing_subcommand_exits_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_cut_too_large_exits_1(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "64", "--cuts", "60")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CutTooLarge"


def test_cut_too_large_names_cut_and_collar(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "64", "--cuts", "20,60")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "CutTooLarge"
    assert err["detail"] == {"cut": 60, "dim": 64, "boundary_window": 8}


def _traced_refusal(capsys, *argv):
    """The error object of a refused invocation and its traced peak allocation."""
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    return json.loads(out)["error"], peak


def test_a_long_cut_range_is_refused_at_its_first_bad_cut(capsys):
    err, peak = _traced_refusal(capsys, "omega", "--dim", "240", "--cuts", "1:2000000:1")
    assert (err["type"], err["detail"]["cut"]) == ("CutTooLarge", 211)
    _, short_peak = _traced_refusal(capsys, "omega", "--dim", "240", "--cuts", "230,231")
    assert peak <= short_peak + 2 * 2**20


def test_bad_cut_spec_exits_1(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "90:70")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ConfigParse"


def _refuse_to_factor(*args, **kwargs):
    raise AssertionError("factor reached")


def _patch_every_factor(monkeypatch):
    """Make both factor paths, the band one and the dense one, fail if reached."""
    for module in (index_module, cli_module):
        for name in ("factor", "build_q"):
            monkeypatch.setattr(module, name, _refuse_to_factor)


#: one value-list grammar serves omega --cuts and sweep --values on every axis
VALUE_LIST_COMMANDS = {
    "omega": ("omega", "--dim", "240", "--cuts"),
    "sweep-cut": ("sweep", "--axis", "cut", "--dim", "240", "--values"),
    "sweep-lambda": ("sweep", "--axis", "lambda", "--dim", "240", "--cuts", "130",
                     "--values"),
}


@pytest.mark.parametrize("spec, cuts", [
    ("70,90", [70, 90]),
    (" 90 ,70, ", [90, 70]),
    ("70:110:20", [70, 90, 110]),
    ("70:100:20", [70, 90]),
    ("70:70:5", [70]),
])
@pytest.mark.parametrize("command", ["omega", "sweep-cut"])
def test_value_list_grammar_reads_cuts(capsys, command, spec, cuts):
    code, out, err = run_cli(capsys, *VALUE_LIST_COMMANDS[command], spec)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if command == "omega":
        assert [c["n"] for c in doc["cuts"]] == cuts
    else:
        assert [p["value"] for p in doc["points"]] == cuts


@pytest.mark.parametrize("spec, values", [
    ("0.01,0.005", [0.01, 0.005]),
    ("0.005:0.01:0.0025", [0.005, 0.0075, 0.01]),
    ("0.005:0.012:0.005", [0.005, 0.01]),
])
def test_value_list_grammar_reads_floats(capsys, spec, values):
    code, out, err = run_cli(capsys, *VALUE_LIST_COMMANDS["sweep-lambda"], spec)
    assert (code, err) == (0, "")
    assert [p["value"] for p in json.loads(out)["points"]] == values


@pytest.mark.parametrize(
    "spec",
    ["", ",", "90:70", "70:90", "1:2:0", "0:inf:1", "0:nan:1", "nan:1:0.5",
     "1:2:3:4", "x"],
)
@pytest.mark.parametrize("command", sorted(VALUE_LIST_COMMANDS))
def test_malformed_value_list_exits_1_before_the_factor(capsys, monkeypatch, command, spec):
    _patch_every_factor(monkeypatch)
    code, out, err = run_cli(capsys, *VALUE_LIST_COMMANDS[command], spec)
    assert (code, err) == (1, "")
    assert json.loads(out)["error"]["type"] == "ConfigParse"


def test_spectrum_refuses_a_collar_cut_before_the_factor(capsys, monkeypatch):
    _patch_every_factor(monkeypatch)
    code, out, _ = run_cli(capsys, "spectrum", "--dim", "240", "--cut", "211")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "CutTooLarge"
    assert err["detail"] == {"cut": 211, "dim": 240, "boundary_window": 30}


@pytest.mark.parametrize("argv", [
    ("omega", "--dim", "64", "--cuts", "20", "--perturb", "a:random_hermitian:0.001:-1"),
    ("omega", "--dim", "64", "--cuts", "20", "--seed", "-1",
     "--perturb", "a:random_hermitian:0.001"),
    ("sweep", "--axis", "perturbation", "--perturb-kind", "random_hermitian",
     "--seed", "-3", "--values", "0:0.002:0.001", "--dim", "64", "--cuts", "20"),
    ("verify", "--seed", "-1", "--trials", "2", "--max-dim", "4"),
    ("omega", "--dim", "120", "--cuts", "70", "--seed", "-3"),
    ("spectrum", "--dim", "120", "--cut", "70", "--seed", "-3"),
])
def test_negative_seed_exits_1_without_a_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    assert "usage" in err or json.loads(out)["error"]["type"] in (
        "ConfigParse", "InvalidParameter"
    )


def test_sweep_has_no_csv_format(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "cut", "--values", "70", "--dim", "240",
        "--format", "csv"
    )
    assert (code, out) == (1, "")
    assert "invalid choice: 'csv'" in err


def test_missing_matrix_file_exits_1(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "omega", "--pair", "file",
        "--file-a", str(tmp_path / "nope.json"), "--file-b", str(tmp_path / "nope.json")
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ConfigParse"


def test_file_builder_requires_paths(capsys):
    code, out, _ = run_cli(capsys, "omega", "--pair", "file")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidParameter"


def test_bad_perturbation_spec_exits_1(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--perturb", "a:wat")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ConfigParse"


def test_omega_applies_perturbations_in_order(capsys, monkeypatch):
    """Repeated --perturb flags are applied one after another in the order given:
    the pair counted is, bit for bit, two perturb calls, not one shift by 0.3."""
    counted = []
    count = cli_module.omega
    monkeypatch.setattr(
        cli_module, "omega", lambda pair, **kwargs: counted.append(pair) or count(pair, **kwargs)
    )
    code, _, _ = run_cli(
        capsys, "omega", "--dim", "240", "--cuts", "70,90",
        "--perturb", "a:scalar_shift:0.1", "--perturb", "a:scalar_shift:0.2"
    )
    assert code == 0
    base = build_harmonic(0.01, 240)
    twice = perturb(perturb(base, "a", "scalar_shift", 0.1), "a", "scalar_shift", 0.2)
    assert [x.tobytes() for x in counted[0].diagonals] == [x.tobytes() for x in twice.diagonals]
    once = perturb(base, "a", "scalar_shift", 0.3)
    assert counted[0].diagonals[1].tobytes() != once.diagonals[1].tobytes()


# ---------------------------------------------------------------- spectrum


def test_spectrum_zero_pair_exact(capsys, tmp_path):
    pa, pb = zero_pair_files(tmp_path)
    code, out, _ = run_cli(
        capsys, "spectrum", "--pair", "file", "--file-a", pa, "--file-b", pb, "--cut", "1"
    )
    assert code == 0
    assert out == "index,eigenvalue\n0,0.0\n1,1.0\n"


@pytest.mark.parametrize("cut", [70, 130])  # 2N <= M and 2N > M at dim 240
def test_spectrum_prints_what_omega_counts(capsys, cut):
    code, out, _ = run_cli(capsys, "spectrum", "--dim", "240", "--cut", str(cut))
    assert code == 0
    printed = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    pair = build_harmonic(0.01, 240)
    assert printed == corner_eigenvalues(factor(pair), cut).tolist()
    report = omega(pair, cuts=[cut]).reports[0]
    assert (report.m_n, report.gap) == count_upper(printed)[:2]


def test_spectrum_commuting_values(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--pair", "commuting", "--grid-radius", "4", "--cut", "20"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert values.size == 40
    assert np.all(np.minimum(np.abs(values), np.abs(values - 1)) <= 1e-10)


# ---------------------------------------------------------------- sweep


def test_sweep_lambda_constant(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "lambda", "--values", "0.005,0.0075,0.01",
        "--dim", "240", "--cuts", "130:150:10"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "omega-sweep-v1"
    assert doc["omega_constant"] is True
    assert doc["omega"] == 1
    assert [p["value"] for p in doc["points"]] == [0.005, 0.0075, 0.01]


def test_sweep_records_failed_points(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "lambda", "--values", "0.005,0.1",
        "--dim", "240", "--cuts", "130,150"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["omega_constant"] is False
    assert doc["omega"] is None
    assert "report" in doc["points"][0]
    assert doc["points"][1]["error"]["type"] == "InadmissibleCommutator"


@pytest.mark.parametrize("pair", [
    ("--pair", "commuting", "--grid-radius", "6"),
    ("--pair", "file", "--file-a", "a.json", "--file-b", "b.json"),
])
def test_sweep_lambda_axis_refuses_a_pair_without_a_coupling(capsys, monkeypatch, pair):
    """Only the harmonic pair reads lambda, so a sweep of it elsewhere would sweep nothing."""

    def unexpected(*args, **kwargs):
        raise AssertionError("no pair may be built")

    monkeypatch.setattr(cli_module, "_build_pair", unexpected)
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "lambda", *pair, "--values", "0.005,0.5,50"
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigParse"
    assert "lambda" in error["message"]


def test_sweep_cut_axis_refuses_cuts(capsys, monkeypatch):
    """The cut axis takes its cuts from --values, so a --cuts it would ignore is refused."""

    def unexpected(*args, **kwargs):
        raise AssertionError("no pair may be built")

    monkeypatch.setattr(cli_module, "_build_pair", unexpected)
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--dim", "240", "--values", "70,90", "--cuts", "5000"
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigParse"
    assert "--cuts" in error["message"]


def test_sweep_cut_axis(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--values", "70:110:20", "--dim", "240"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["omega_constant"] is True
    assert doc["omega"] == 1
    assert [p["value"] for p in doc["points"]] == [70, 90, 110]


def test_sweep_cut_axis_builds_pair_and_q_once(capsys, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name, modules in (
        ("_build_pair", (cli_module,)),
        ("build_q", (index_module, cli_module)),
        ("factor", (index_module, cli_module)),
    ):
        wrapped = counting(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapped)
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--values", "70,90,130", "--dim", "240"
    )
    assert code == 0
    assert json.loads(out)["omega"] == 1
    # the oscillator's d is bidiagonal, so its one factor never takes the dense path
    assert sorted(calls) == ["_build_pair", "factor"]


def test_sweep_cut_axis_points_match_omega(capsys):
    """Each point reports or refuses exactly as ``omega --cuts value`` does."""
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--values", "50,70,130,230", "--dim", "240"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["omega_constant"], doc["omega"]) == (False, None)
    points = doc["points"]
    assert [p.get("error", {}).get("type") for p in points] == [
        "GapViolation", None, None, "CutTooLarge"
    ]
    for point in points:
        code, out, _ = run_cli(
            capsys, "omega", "--dim", "240", "--cuts", str(point["value"])
        )
        alone = json.loads(out)
        if "report" in point:
            assert code == 0
            assert point["report"] == alone
        else:
            assert point["error"] == {k: alone["error"][k] for k in ("type", "message")}


def test_sweep_cut_axis_shared_build_failure_fails_every_point(capsys, tmp_path):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(np.array([[0, 1], [0, 0]], dtype=complex), pa)
    save_matrix(np.zeros((2, 2), dtype=complex), pb)
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--values", "1,2", "--pair", "file",
        "--file-a", str(pa), "--file-b", str(pb)
    )
    assert code == 0
    points = json.loads(out)["points"]
    assert [p["error"]["type"] for p in points] == ["NonHermitianInput"] * 2


def test_sweep_perturbation_axis(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "perturbation", "--perturb-target", "a",
        "--perturb-kind", "scalar_shift", "--values", "0:0.2:0.1",
        "--dim", "240", "--cuts", "70,90"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["omega_constant"] is True
    assert doc["omega"] == 1


def test_sweep_perturbation_axis_reads_a_file_pair_once(capsys, monkeypatch, tmp_path):
    """Every point perturbs one base pair, so its two files are read once per
    sweep, not once per value."""
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    oscillator = build_harmonic(0.025, 120)
    save_matrix(oscillator.a, pa)
    save_matrix(oscillator.b, pb)
    reads = []
    load_matrix = operators_module.load_matrix
    monkeypatch.setattr(
        operators_module, "load_matrix", lambda path: reads.append(path) or load_matrix(path)
    )
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "perturbation", "--pair", "file", "--file-a", str(pa),
        "--file-b", str(pb), "--values", "0,0.01,0.02", "--cuts", "30,40"
    )
    assert code == 0
    assert [p["report"]["omega"] for p in json.loads(out)["points"]] == [1, 1, 1]
    assert reads == [str(pa), str(pb)]


def test_sweep_lambda_axis_builds_one_pair_per_point(capsys, monkeypatch):
    couplings = []
    build = cli_module.build_harmonic
    monkeypatch.setattr(
        cli_module, "build_harmonic", lambda lam, dim: couplings.append(lam) or build(lam, dim)
    )
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "lambda", "--values", "0.005,0.0075,0.01",
        "--dim", "240", "--cuts", "130,150"
    )
    assert code == 0
    assert json.loads(out)["omega"] == 1
    assert couplings == [0.005, 0.0075, 0.01]


@pytest.mark.parametrize("base, target, kind, values", [
    ("b:random_hermitian:0.002", "a", "diagonal_decay", "0,0.01,0.5"),
    ("a:diagonal_decay:0.01", "b", "random_hermitian", "0,0.002,0.2"),
])
def test_sweep_perturbation_axis_points_match_omega(capsys, base, target, kind, values):
    """Each point reports or refuses exactly as ``omega`` does with the axis
    perturbation appended as one more --perturb, on a dense base and a band base."""
    pair = ("--dim", "120", "--lambda", "0.025", "--cuts", "30,40", "--seed", "3",
            "--perturb", base)
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "perturbation", *pair, "--perturb-target", target,
        "--perturb-kind", kind, "--values", values
    )
    assert code == 0
    points = json.loads(out)["points"]
    assert [p.get("error", {}).get("type") for p in points] == [
        None, None, "InadmissibleCommutator"
    ]
    for point in points:
        code, out, _ = run_cli(
            capsys, "omega", *pair, "--perturb", f"{target}:{kind}:{point['value']!r}"
        )
        alone = json.loads(out)
        if "report" in point:
            assert code == 0
            assert point["report"] == alone
        else:
            assert code == 2
            assert point["error"] == {k: alone["error"][k] for k in ("type", "message")}


def test_a_sweep_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch):
    """With the memory probe patched one byte below the charge of 200000 cut points,
    the sweep is refused before its first point, with no traceback."""
    footprint = 200000 * (cli_module.SWEEP_POINT_BYTES + cli_module.SWEEP_CUT_BYTES)
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    monkeypatch.setattr(cli_module, "certify", _refuse_to_factor)
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "cut", "--dim", "400", "--values", "1:200000:1"
    )
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InsufficientMemory"
    assert error["message"].startswith("a sweep of 200000 points needs about")
    assert error["detail"]["needed_bytes"] == footprint


def test_an_omega_report_beyond_memory_exits_1_with_one_error_object(capsys, monkeypatch):
    """The report of 91 cuts is charged as one sweep point after the cuts are
    certified: refused one byte below that charge, with no traceback, and printed
    at it."""
    argv = ("omega", "--dim", "400", "--lambda", "0.01", "--cuts", "70:160:1")
    footprint = cli_module.SWEEP_POINT_BYTES + cli_module.SWEEP_CUT_BYTES * 91
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err == ""
    error = _strict_json(out)["error"]
    assert error["type"] == "InsufficientMemory"
    assert error["message"].startswith("a report of 91 cuts needs about")
    assert error["detail"]["needed_bytes"] == footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(json.loads(out)["cuts"]) == 91


def test_a_refusal_listing_many_cuts_is_streamed(monkeypatch, tmp_path):
    """A GapViolation that lists 10^5 cuts prints exactly json.dumps of its error
    object, streamed: tracemalloc saw 2.6 MiB where the whole text held as one
    string took 33 MiB."""
    count = 10**5
    gaps = np.linspace(0.0, 0.04, count).tolist()
    refusal = GapViolation(
        "corner eigenvalues within gap_floor 0.05 of 1/2 (...)",
        cuts=list(range(100, 100 + count)),
        gaps=gaps,
        gap_floor=0.05,
        nearest=[0.5 + g for g in gaps],
    )

    def refuse(*args, **kwargs):
        raise refusal

    monkeypatch.setattr(cli_module, "omega", refuse)
    target = tmp_path / "out.json"
    with open(target, "w") as handle:
        monkeypatch.setattr(sys, "stdout", handle)
        tracemalloc.start()
        try:
            code = main(["omega", "--dim", "400", "--cuts", "60"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    doc = {"error": {"type": "GapViolation", "message": refusal.message,
                     "detail": refusal.detail}}
    assert code == 2
    assert target.read_text() == json.dumps(doc, indent=2) + "\n"
    assert peak < 8 * 2**20


@pytest.mark.parametrize("argv, points, entries", [
    (("--axis", "cut", "--values", "70:109:1"), 40, 1),
    (("--axis", "lambda", "--values", "0.01:0.019:0.001"), 10, index_module.DEFAULT_CUT_COUNT),
    (("--axis", "lambda", "--cuts", "100,130", "--values", "0.01:0.019:0.001"), 10, 2),
    # a cut range beyond the pair: each point refuses, and is charged for at most dim cuts
    (("--axis", "perturbation", "--cuts", "1:2000000:1", "--values", "0,0.1,0.2"), 3, 240),
])
def test_a_sweep_is_charged_by_its_points_and_their_cuts(capsys, monkeypatch, argv, points,
                                                         entries):
    """Refused one byte below the charge of its points, each with its cut entries,
    and run at it."""
    footprint = points * (cli_module.SWEEP_POINT_BYTES + cli_module.SWEEP_CUT_BYTES * entries)
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: footprint - 1.0)
    code, out, _ = run_cli(capsys, "sweep", "--dim", "240", *argv)
    assert code == 1
    assert _strict_json(out)["error"]["detail"]["needed_bytes"] == footprint
    monkeypatch.setattr(linalg_module, "memory_headroom", lambda: float(footprint))
    code, out, _ = run_cli(capsys, "sweep", "--dim", "240", *argv)
    assert code == 0
    assert len(json.loads(out)["points"]) == points


def test_sweep_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--values", "70,90", "--dim", "240",
        "--format", "text"
    )
    assert code == 0
    assert "omega_constant = True" in out


def test_sweep_empty_values_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--values", " ", "--dim", "240"
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ConfigParse"


# ---------------------------------------------------------------- verify


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "42", "--trials", "8", "--max-dim", "10"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "verify-report-v1"
    assert doc["all_passed"] is True
    names = [r["name"] for r in doc["results"]]
    assert names == [
        "resolvent_bound",
        "intertwine_identity",
        "resolvent_difference",
        "f_lipschitz",
        "projection_defect",
    ]
    diff = doc["results"][2]
    assert "stated_bound" in diff["extras"]
    assert "stated_violations" in diff["extras"]


def test_verify_is_deterministic(capsys):
    args = ("verify", "--seed", "11", "--trials", "6", "--max-dim", "8")
    _, one, _ = run_cli(capsys, *args)
    _, two, _ = run_cli(capsys, *args)
    assert one == two


def test_verify_text(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "1", "--trials", "4", "--max-dim", "6",
        "--format", "text"
    )
    assert code == 0
    assert out.count("pass") == 5


def test_verify_rejects_bad_trials(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidParameter"
