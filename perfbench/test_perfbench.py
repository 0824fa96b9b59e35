"""Self-tests for the benchmark.

Run from the repository root with ``python -m pytest perfbench``. They cover a
tiny pass over every workload in both modes, the checker's rejection of
tampered reports, the tracer's patching, and the refusal to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads
from tracer import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd=run.ROOT, script=run.ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pass(name, trace):
    proc = _bench("--workload", name, "--seed", "13", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


@pytest.fixture(scope="module")
def good_run():
    inv = workloads.make("cut-sweep", 4, tiny=True)
    sample = run.spawn(["-m", "omega_index.cli", *inv.argv])
    assert workloads.check(inv, sample.returncode, sample.stdout) == []
    return inv, sample


def _flip_omega(doc):
    doc["omega"] = -doc["omega"]


def _shift_gap(doc):
    doc["cuts"][-1]["gap"] += 1e-6


def _drop_cut(doc):
    del doc["cuts"][0]


def _raise_defect(doc):
    doc["defect"] = doc["theorem_bound"] * 1.01


@pytest.mark.parametrize("tamper", [_flip_omega, _shift_gap, _drop_cut, _raise_defect])
def test_checker_rejects_tampered_report(good_run, tamper):
    inv, sample = good_run
    doc = json.loads(sample.stdout)
    tamper(doc)
    assert workloads.check(inv, 0, json.dumps(doc))


def test_checker_allows_dense_gap_within_perturbation():
    inv = workloads.make("dense-index", 0, tiny=True)
    doc = {
        "schema_version": "omega-report-v1", "omega": 1,
        "cuts": [{"n": n, "m_n": n + 1,
                  "gap": workloads.closed_form_gap(n, inv.lam) + 0.0019}
                 for n in inv.cuts],
        "epsilon": 0.05, "theorem_bound": 0.2, "defect": 1e-14,
    }
    assert workloads.check(inv, 0, json.dumps(doc)) == []
    doc["cuts"][1]["gap"] += 0.0002
    assert workloads.check(inv, 0, json.dumps(doc))


def test_failures_count_in_error_rate(good_run, capsys):
    inv, sample = good_run
    doc = json.loads(sample.stdout)
    _flip_omega(doc)
    samples = [
        sample,
        replace(sample, stdout=json.dumps(doc)),
        replace(sample, returncode=2),
    ]
    result = run.summarize(inv, samples, setup=[sample])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)
    assert "2 of 3 failed" in capsys.readouterr().out


def test_tracer_patches_every_binding():
    sys.path.insert(0, str(run.SRC))
    from omega_index import bounds, cli, index

    original = index.build_q
    with Tracer():
        assert cli.build_q is index.build_q is not original
        assert bounds.q_blocks_from_c is index.q_blocks_from_c
        assert cli.ThreadPoolExecutor is index.ThreadPoolExecutor
    assert cli.build_q is index.build_q is original


def test_traced_pool_threads_keep_their_ancestry():
    inv = workloads.make("cut-sweep", 0, tiny=True)
    problems, metrics = run.traced_pair(inv)
    assert problems == []
    assert metrics["index.cuts"] == len(inv.cuts)
    assert metrics["index.count_s"] > 0 and metrics["cli.self_s"] >= 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "dense-index", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
