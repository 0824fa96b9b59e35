"""Benchmark workloads: the CLI invocations, generated from a seed, and the
checks that prove each report correct.

Every workload is one ``python -m omega_index.cli ...`` invocation. The seed
chooses the inputs (a perturbation seed, a cut offset, a suite seed); the work
done is nearly the same for every seed, so runs with different seeds can be
compared.

The checks do not trust the program's own verdict. On the harmonic pair at
coupling lam the corner block at cut N has exactly one eigenvalue near 1/2 that
matters, 2*N*lam/(2*N*lam + 1), so every certified cut must have
``m_n == n + 1`` and ``gap`` equal to that value minus 1/2. For the perturbed
(dense) pair the gap may move by at most the perturbation size: the graph
projection is 1-Lipschitz in C (Kato, Thm IV.2.14) and Weyl's inequality moves
no corner eigenvalue further than that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

NAMES = ("dense-index", "cut-sweep", "axis-sweep", "verify-suite")

#: round-off allowance on the closed-form gap
GAP_TOL = 1e-9
#: norm of the random Hermitian perturbation in dense-index
DENSE_PERTURBATION = 0.002
VERIFY_FAMILIES = 5


@dataclass(frozen=True)
class Invocation:
    """One CLI run and what its report must say."""

    workload: str
    argv: tuple[str, ...]
    lam: float = 0.0
    cuts: tuple[int, ...] = ()
    gap_slack: float = 0.0
    seed: int = 0
    trials: int = 0
    max_dim: int = 0


def make(name: str, seed: int, tiny: bool = False) -> Invocation:
    """The invocation of workload ``name`` for ``seed``.

    ``tiny`` shrinks every size so a self-test can run all workloads in seconds;
    it keeps the same command paths and the same checks.
    """
    offset = seed % 10
    lam = 0.025 if tiny else 0.01
    lam_args = ("--lambda", repr(lam))
    if name == "dense-index":
        dim, cuts = (120, range(30, 71, 20)) if tiny else (1200, range(160, 401, 60))
        perturbation = f"a:random_hermitian:{DENSE_PERTURBATION!r}:{seed % 2**32}"
        return Invocation(
            name,
            ("omega", "--dim", str(dim), *lam_args, "--perturb", perturbation,
             "--cuts", f"{cuts.start}:{cuts.stop - 1}:{cuts.step}"),
            lam=lam, cuts=tuple(cuts), gap_slack=DENSE_PERTURBATION,
        )
    if name == "cut-sweep":
        dim, cuts = (120, _staggered(30, 10, 7, offset)) if tiny else (
            600, _staggered(70, 15, 30, offset))
        return Invocation(
            name,
            ("omega", "--dim", str(dim), *lam_args,
             "--cuts", ",".join(map(str, cuts))),
            lam=lam, cuts=tuple(cuts),
        )
    if name == "axis-sweep":
        dim, values = (120, _staggered(30, 10, 4, offset)) if tiny else (
            400, _staggered(70, 20, 14, offset))
        return Invocation(
            name,
            ("sweep", "--axis", "cut", "--dim", str(dim), *lam_args,
             "--values", ",".join(map(str, values))),
            lam=lam, cuts=tuple(values),
        )
    if name == "verify-suite":
        trials, max_dim = (20, 8) if tiny else (1500, 32)
        return Invocation(
            name,
            ("verify", "--trials", str(trials), "--max-dim", str(max_dim),
             "--seed", str(seed)),
            seed=seed, trials=trials, max_dim=max_dim,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def _staggered(start: int, step: int, count: int, offset: int) -> tuple[int, ...]:
    """Cuts ``start + step*i``, moved up by ``offset`` at even i and down at odd i.

    Every seed moves every cut, but the summed cube of the cuts (the corner
    eigensolve work) stays within 0.2% of the unshifted grid. Shifting all cuts
    up instead would add 0.8% of the work per unit of offset, and the seeds'
    run times would spread by that much.
    """
    return tuple(
        start + step * i + (offset if i % 2 == 0 else -offset) for i in range(count)
    )


def closed_form_gap(cut: int, lam: float) -> float:
    """Distance from 1/2 of the harmonic corner's edge eigenvalue at ``cut``."""
    x = 2.0 * cut * lam
    return x / (x + 1.0) - 0.5


def check(inv: Invocation, returncode: int, stdout: str) -> list[str]:
    """Every way the invocation's result is wrong; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}, expected 0"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    try:
        if inv.workload == "verify-suite":
            return _check_verify(inv, doc)
        if inv.workload == "axis-sweep":
            return _check_sweep(inv, doc)
        return _check_omega(inv, doc, inv.cuts)
    except (KeyError, TypeError) as exc:
        return [f"report is malformed: {type(exc).__name__}: {exc}"]


def _check_omega(inv: Invocation, doc: dict, cuts) -> list[str]:
    problems = []
    if doc.get("schema_version") != "omega-report-v1":
        return [f"schema {doc.get('schema_version')!r}, expected omega-report-v1"]
    if doc["omega"] != 1:
        problems.append(f"omega {doc['omega']}, expected 1")
    reported = [entry["n"] for entry in doc["cuts"]]
    if reported != list(cuts):
        problems.append(f"cuts {reported}, expected {list(cuts)}")
    for entry in doc["cuts"]:
        n = entry["n"]
        if entry["m_n"] != n + 1:
            problems.append(f"cut {n}: m_n {entry['m_n']}, expected {n + 1}")
        expected = closed_form_gap(n, inv.lam)
        if not abs(entry["gap"] - expected) <= inv.gap_slack + GAP_TOL:
            problems.append(
                f"cut {n}: gap {entry['gap']!r} is more than "
                f"{inv.gap_slack + GAP_TOL:g} from {expected!r}"
            )
    eps, bound, defect = doc["epsilon"], doc["theorem_bound"], doc["defect"]
    if not eps < 1.0:
        problems.append(f"epsilon {eps!r} is not below 1")
    if not bound < 0.25:
        problems.append(f"theorem_bound {bound!r} is not below 1/4")
    if not defect <= bound:
        problems.append(f"defect {defect!r} exceeds theorem_bound {bound!r}")
    return problems


def _check_sweep(inv: Invocation, doc: dict) -> list[str]:
    if doc.get("schema_version") != "omega-sweep-v1":
        return [f"schema {doc.get('schema_version')!r}, expected omega-sweep-v1"]
    problems = []
    if doc["axis"] != "cut" or doc["omega_constant"] is not True or doc["omega"] != 1:
        problems.append(
            f"axis {doc['axis']!r}, omega_constant {doc['omega_constant']!r}, "
            f"omega {doc['omega']!r}; expected cut, true, 1"
        )
    values = [p["value"] for p in doc["points"]]
    if values != list(inv.cuts):
        problems.append(f"values {values}, expected {list(inv.cuts)}")
    for point in doc["points"]:
        if "report" not in point:
            problems.append(f"value {point['value']}: refused: {point.get('error')}")
            continue
        problems += [
            f"value {point['value']}: {p}"
            for p in _check_omega(inv, point["report"], [point["value"]])
        ]
    return problems


def _check_verify(inv: Invocation, doc: dict) -> list[str]:
    if doc.get("schema_version") != "verify-report-v1":
        return [f"schema {doc.get('schema_version')!r}, expected verify-report-v1"]
    problems = []
    echo = (doc["seed"], doc["trials"], doc["max_dim"])
    if echo != (inv.seed, inv.trials, inv.max_dim):
        problems.append(f"seed/trials/max_dim {echo}, expected "
                        f"{(inv.seed, inv.trials, inv.max_dim)}")
    if doc["all_passed"] is not True:
        problems.append("all_passed is not true")
    names = {r["name"] for r in doc["results"]}
    if len(doc["results"]) != VERIFY_FAMILIES or len(names) != VERIFY_FAMILIES:
        problems.append(f"{len(doc['results'])} results over families {sorted(names)}, "
                        f"expected {VERIFY_FAMILIES} distinct families")
    for r in doc["results"]:
        if r["violations"] != 0 or r["trials"] != inv.trials:
            problems.append(f"{r['name']}: {r['violations']} violations in "
                            f"{r['trials']} trials")
    return problems
