import json
import threading

import numpy as np
import pytest

from omega_index import save_matrix
from omega_index.cli import main


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


def test_omega_threads_do_not_change_output(capsys):
    base = ("omega", "--dim", "240", "--cuts", "70,90,110")
    _, serial, _ = run_cli(capsys, *base, "--threads", "1")
    _, threaded, _ = run_cli(capsys, *base, "--threads", "4")
    assert serial == threaded


def test_omega_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("OMEGA_INDEX_THREADS", "3")
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "70,90")
    assert code == 0
    assert json.loads(out)["omega"] == 1


def test_counting_starts_no_threads(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    omega_args = ("omega", "--dim", "240", "--cuts", "70,90,110", "--threads", "4")
    assert run_cli(capsys, *omega_args)[0] == 0
    sweep_args = ("sweep", "--axis", "cut", "--values", "70,90", "--dim", "240",
                  "--threads", "4")
    assert run_cli(capsys, *sweep_args)[0] == 0


def test_omega_default_cuts(capsys):
    code, out, _ = run_cli(capsys, "omega", "--pair", "commuting", "--grid-radius", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["omega"] == 0
    assert len(doc["cuts"]) == 5


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


def test_omega_unstable_count_exits_2(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "40,100")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "UnstableCount"
    assert err["detail"]["counts"] == [0, 1]


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


def test_missing_subcommand_exits_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_cut_too_large_exits_1(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "64", "--cuts", "60")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CutTooLarge"


def test_bad_cut_spec_exits_1(capsys):
    code, out, _ = run_cli(capsys, "omega", "--dim", "240", "--cuts", "90:70")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ConfigParse"


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


# ---------------------------------------------------------------- spectrum


def test_spectrum_zero_pair_exact(capsys, tmp_path):
    pa, pb = zero_pair_files(tmp_path)
    code, out, _ = run_cli(
        capsys, "spectrum", "--pair", "file", "--file-a", pa, "--file-b", pb, "--cut", "1"
    )
    assert code == 0
    assert out == "index,eigenvalue\n0,0.0\n1,1.0\n"


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


def test_sweep_cut_axis(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cut", "--values", "70:110:20", "--dim", "240"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["omega_constant"] is True
    assert doc["omega"] == 1
    assert [p["value"] for p in doc["points"]] == [70, 90, 110]


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


# ---------------------------------------------------------------- sphere


def test_sphere_zero_pair(capsys, tmp_path):
    pa, pb = zero_pair_files(tmp_path)
    code, out, _ = run_cli(
        capsys, "sphere", "--pair", "file", "--file-a", pa, "--file-b", pb
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "sphere-report-v1"
    assert doc["dim"] == 1
    assert doc["relation_defect"] == pytest.approx(0.25, abs=1e-12)
    assert doc["nonhermitian_defect"] == 0.0


def test_sphere_harmonic_text(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--dim", "100", "--format", "text")
    assert code == 0
    assert "relation_defect" in out


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
