"""Command-line front end.

Subcommands
-----------
``omega``
    Build a pair from flags, compute the integer index over a cut sweep, and
    emit an ``omega-report-v1`` document (JSON/CSV/text).
``verify``
    Run the randomized inequality suites with a fixed seed.
``spectrum``
    Dump the corner-block eigenvalues at one cut as CSV (``index,eigenvalue``).
``sweep``
    Re-run the index across a parameter axis (lambda, cut, or perturbation
    magnitude) and report whether it stayed constant.
``sphere``
    Map a pair to sphere coordinates and report the measured relation defects.

Exit codes: 0 on success; 2 when the computation refuses to certify an index
(inadmissible commutator, unstable count, gap violation), with a machine-readable
error object on stdout; 1 on usage, configuration, or I/O errors.

Reports contain no timestamps and all floats are serialized in round-trip form,
so identical invocations (including ``--seed``) produce byte-identical output.
Counting is serial; ``--threads`` is accepted for compatibility and ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
# imported only for perfbench/test_perfbench.py::test_tracer_patches_every_binding
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace

import numpy as np

from .bounds import run_suite
from .errors import STABILITY_ERRORS, ConfigParse, OmegaIndexError
from .index import (
    DEFAULT_GAP_FLOOR,
    DEFAULT_SCALE_TARGET,
    default_cuts,
    extract_q11,
    build_q,
    omega,
    scale_admissible,
    theorem_bound,
)
from . import linalg
from .operators import PairSpec, PerturbationSpec, build_pair, perturb
from .errors import InvalidParameter

OMEGA_SCHEMA = "omega-report-v1"
SWEEP_SCHEMA = "omega-sweep-v1"
VERIFY_SCHEMA = "verify-report-v1"
SPHERE_SCHEMA = "sphere-report-v1"

_BUILDER_NAMES = {"harmonic": "harmonic", "commuting": "commuting_grid", "file": "file"}


def _parse_int_list(text: str) -> list[int]:
    """Parse ``a:b:step`` (end-inclusive when the stride lands on it) or ``a,b,c``."""
    text = text.strip()
    if not text:
        raise ConfigParse("empty value list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ConfigParse(f"range spec must be a:b[:step], got {text!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as exc:
            raise ConfigParse(f"bad range spec {text!r}: {exc}") from exc
        if step <= 0 or b < a:
            raise ConfigParse(f"range spec {text!r} must ascend with positive step")
        return list(range(a, b + 1, step))
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigParse(f"bad integer list {text!r}: {exc}") from exc


def _parse_float_list(text: str) -> list[float]:
    text = text.strip()
    if not text:
        raise ConfigParse("empty value list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigParse(f"float range spec must be a:b:step, got {text!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigParse(f"bad range spec {text!r}: {exc}") from exc
        if step <= 0 or b < a:
            raise ConfigParse(f"range spec {text!r} must ascend with positive step")
        count = int(np.floor((b - a) / step + 1e-9)) + 1
        return [a + k * step for k in range(count)]
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigParse(f"bad float list {text!r}: {exc}") from exc
    if not values:
        raise ConfigParse("empty value list")
    return values


def _parse_perturbation(text: str, default_seed: int) -> PerturbationSpec:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigParse(
            f"perturbation must be target:kind:magnitude[:seed], got {text!r}"
        )
    target, kind = parts[0], parts[1]
    try:
        magnitude = float(parts[2])
        seed = int(parts[3]) if len(parts) == 4 else default_seed
    except ValueError as exc:
        raise ConfigParse(f"bad perturbation spec {text!r}: {exc}") from exc
    try:
        return PerturbationSpec(target=target, kind=kind, magnitude=magnitude, seed=seed)
    except InvalidParameter as exc:
        raise ConfigParse(str(exc)) from exc


def _pair_spec_from_args(args) -> PairSpec:
    perturbations = tuple(
        _parse_perturbation(p, args.seed) for p in (args.perturb or [])
    )
    return PairSpec(
        builder=_BUILDER_NAMES[args.pair],
        lam=args.lam,
        dim=args.dim,
        grid_radius=args.grid_radius,
        scale=args.scale,
        path_a=args.file_a,
        path_b=args.file_b,
        perturbations=perturbations,
    )


def _omega_doc(result) -> dict:
    return {
        "schema_version": OMEGA_SCHEMA,
        "omega": int(result.omega),
        "cuts": [
            {"n": int(r.cut), "m_n": int(r.m_n), "gap": float(r.gap)}
            for r in result.reports
        ],
        "epsilon": float(result.epsilon),
        "defect": float(result.defect),
        "theorem_bound": float(theorem_bound(result.epsilon)),
        "orientation": result.orientation,
        "scaling": {
            "lambda_a": float(result.scaling[0]),
            "mu_b": float(result.scaling[1]),
        },
        "warnings": list(result.warnings),
    }


def _omega_csv(doc: dict) -> str:
    lines = ["n,m_n,gap,omega"]
    for entry in doc["cuts"]:
        lines.append(
            f"{entry['n']},{entry['m_n']},{entry['gap']!r},{doc['omega']}"
        )
    return "\n".join(lines) + "\n"


def _omega_text(doc: dict) -> str:
    lines = [
        f"omega = {doc['omega']}  (orientation {doc['orientation']})",
        f"epsilon = {doc['epsilon']!r}  defect = {doc['defect']!r}  "
        f"theorem_bound = {doc['theorem_bound']!r}",
        f"scaling: lambda_a = {doc['scaling']['lambda_a']!r}  "
        f"mu_b = {doc['scaling']['mu_b']!r}",
        "cuts:",
    ]
    for entry in doc["cuts"]:
        lines.append(f"  n={entry['n']}  m_n={entry['m_n']}  gap={entry['gap']!r}")
    for w in doc["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(exc: OmegaIndexError) -> None:
    doc = {
        "error": {
            "type": type(exc).__name__,
            "message": exc.message,
            "detail": {k: _plain(v) for k, v in exc.detail.items()},
        }
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _plain(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def cmd_omega(args) -> int:
    spec = _pair_spec_from_args(args)
    pair = build_pair(spec)
    scaling = (1.0, 1.0)
    if args.auto_scale:
        pair, sa, sb = scale_admissible(pair, args.target_commutator)
        scaling = (sa, sb)
    cuts = _parse_int_list(args.cuts) if args.cuts else default_cuts(pair.dim)
    result = omega(
        pair,
        cuts=cuts,
        orientation=args.orientation,
        gap_floor=args.gap_floor,
        scaling=scaling,
    )
    doc = _omega_doc(result)
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2) + "\n")
    elif args.format == "csv":
        _emit(args, _omega_csv(doc))
    else:
        _emit(args, _omega_text(doc))
    return 0


def cmd_verify(args) -> int:
    results = run_suite(seed=args.seed, trials=args.trials, max_dim=args.max_dim)
    all_passed = all(r.passed for r in results)
    doc = {
        "schema_version": VERIFY_SCHEMA,
        "seed": int(args.seed),
        "trials": int(args.trials),
        "max_dim": int(args.max_dim),
        "all_passed": all_passed,
        "results": [
            {
                "name": r.name,
                "trials": int(r.trials),
                "max_lhs": float(r.max_lhs),
                "min_slack": float(r.min_slack),
                "violations": int(r.violations),
                "extras": {k: _plain(v) for k, v in sorted(r.extras.items())},
            }
            for r in results
        ],
    }
    if args.format == "text":
        lines = [
            f"seed {doc['seed']}  trials {doc['trials']}  max_dim {doc['max_dim']}"
        ]
        for r in doc["results"]:
            status = "pass" if r["violations"] == 0 else "FAIL"
            lines.append(
                f"{status}  {r['name']}: max_lhs={r['max_lhs']!r} "
                f"min_slack={r['min_slack']!r} violations={r['violations']}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0 if all_passed else 1


def cmd_spectrum(args) -> int:
    spec = _pair_spec_from_args(args)
    pair = build_pair(spec)
    qb = build_q(pair, args.orientation)
    values = linalg.hermitian_eigen(extract_q11(qb, args.cut)).values
    lines = ["index,eigenvalue"]
    for i, v in enumerate(values):
        lines.append(f"{i},{float(v)!r}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _sweep_point(args, base_spec: PairSpec, value):
    if args.axis == "lambda":
        spec = replace(base_spec, lam=float(value))
        pair = build_pair(spec)
        cuts = _parse_int_list(args.cuts) if args.cuts else default_cuts(pair.dim)
    elif args.axis == "cut":
        pair = build_pair(base_spec)
        cuts = [int(value)]
    else:
        pair = build_pair(base_spec)
        pair = perturb(
            pair, args.perturb_target, args.perturb_kind, float(value), args.perturb_seed
        )
        cuts = _parse_int_list(args.cuts) if args.cuts else default_cuts(pair.dim)
    result = omega(
        pair, cuts=cuts, orientation=args.orientation, gap_floor=args.gap_floor
    )
    return _omega_doc(result)


def cmd_sweep(args) -> int:
    base_spec = _pair_spec_from_args(args)
    if args.axis == "cut":
        values = _parse_int_list(args.values)
    else:
        values = _parse_float_list(args.values)
    points = []
    for value in values:
        try:
            point = {"value": _plain(value), "report": _sweep_point(args, base_spec, value)}
        except OmegaIndexError as exc:
            point = {
                "value": _plain(value),
                "error": {"type": type(exc).__name__, "message": exc.message},
            }
        points.append(point)

    omegas = [p["report"]["omega"] for p in points if "report" in p]
    constant = len(omegas) == len(points) and len(set(omegas)) == 1
    doc = {
        "schema_version": SWEEP_SCHEMA,
        "axis": args.axis,
        "points": points,
        "omega_constant": constant,
        "omega": omegas[0] if constant else None,
    }
    if args.format == "text":
        lines = [f"axis {doc['axis']}: omega_constant = {doc['omega_constant']}"]
        for p in points:
            if "report" in p:
                lines.append(f"  value {p['value']!r}: omega = {p['report']['omega']}")
            else:
                lines.append(
                    f"  value {p['value']!r}: {p['error']['type']}: {p['error']['message']}"
                )
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_sphere(args) -> int:
    from .operators import sphere_map

    spec = _pair_spec_from_args(args)
    pair = build_pair(spec)
    sm = sphere_map(pair)
    doc = {
        "schema_version": SPHERE_SCHEMA,
        "dim": int(pair.dim),
        "relation_defect": float(sm.relation_defect),
        "nonhermitian_defect": float(sm.nonhermitian_defect),
    }
    if args.format == "text":
        _emit(
            args,
            f"dim {doc['dim']}  relation_defect = {doc['relation_defect']!r}  "
            f"nonhermitian_defect = {doc['nonhermitian_defect']!r}\n",
        )
    else:
        _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pair")
    group.add_argument(
        "--pair",
        choices=sorted(_BUILDER_NAMES),
        default="harmonic",
        help="pair builder (default: harmonic)",
    )
    group.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=0.01,
        metavar="LAM",
        help="oscillator coupling for the harmonic builder (default: 0.01)",
    )
    group.add_argument("--dim", type=int, default=400, help="truncation dimension")
    group.add_argument(
        "--grid-radius", type=int, default=10, help="radius for the commuting grid"
    )
    group.add_argument(
        "--scale", type=float, default=1.0, help="diagonal scale for the commuting grid"
    )
    group.add_argument("--file-a", help="dense-complex-v1 JSON file for matrix A")
    group.add_argument("--file-b", help="dense-complex-v1 JSON file for matrix B")
    group.add_argument(
        "--perturb",
        action="append",
        metavar="TARGET:KIND:MAG[:SEED]",
        help="apply a perturbation (kinds: scalar_shift, diagonal_decay, "
        "random_hermitian); repeatable",
    )


def _add_output_arguments(parser, formats=("json", "csv", "text")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="kept for compatibility; has no effect (counting is serial)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="omega-index", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_omega = sub.add_parser("omega", help="compute the integer index of a pair")
    _add_pair_arguments(p_omega)
    p_omega.add_argument(
        "--cuts",
        help="cut sweep, as a:b:step (end-inclusive) or a comma list "
        "(default: 5 cuts in [dim/8, 3*dim/8])",
    )
    p_omega.add_argument(
        "--orientation", choices=("literal", "conjugate", "default"), default="default"
    )
    p_omega.add_argument("--gap-floor", type=float, default=DEFAULT_GAP_FLOOR)
    p_omega.add_argument(
        "--auto-scale",
        action="store_true",
        help="rescale an inadmissible pair before counting",
    )
    p_omega.add_argument(
        "--target-commutator",
        type=float,
        default=DEFAULT_SCALE_TARGET,
        help="commutator-norm target for --auto-scale (default: 0.02)",
    )
    _add_output_arguments(p_omega)
    p_omega.set_defaults(func=cmd_omega)

    p_verify = sub.add_parser("verify", help="run the randomized inequality suites")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--max-dim", type=int, default=32)
    _add_output_arguments(p_verify, formats=("json", "text"))
    p_verify.set_defaults(func=cmd_verify)

    p_spec = sub.add_parser("spectrum", help="dump corner eigenvalues as CSV")
    _add_pair_arguments(p_spec)
    p_spec.add_argument("--cut", type=int, required=True)
    p_spec.add_argument(
        "--orientation", choices=("literal", "conjugate", "default"), default="default"
    )
    _add_output_arguments(p_spec, formats=("csv",))
    p_spec.set_defaults(func=cmd_spectrum)

    p_sweep = sub.add_parser("sweep", help="run the index across a parameter axis")
    _add_pair_arguments(p_sweep)
    p_sweep.add_argument(
        "--axis", choices=("lambda", "cut", "perturbation"), required=True
    )
    p_sweep.add_argument(
        "--values",
        required=True,
        help="sweep values: comma list or a:b:step (end-inclusive)",
    )
    p_sweep.add_argument(
        "--cuts", help="cut sweep used at every point (lambda/perturbation axes)"
    )
    p_sweep.add_argument(
        "--orientation", choices=("literal", "conjugate", "default"), default="default"
    )
    p_sweep.add_argument("--gap-floor", type=float, default=DEFAULT_GAP_FLOOR)
    p_sweep.add_argument("--perturb-target", choices=("a", "b"), default="a")
    p_sweep.add_argument(
        "--perturb-kind",
        choices=("scalar_shift", "diagonal_decay", "random_hermitian"),
        default="scalar_shift",
    )
    p_sweep.add_argument("--perturb-seed", type=int, default=0)
    _add_output_arguments(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_sphere = sub.add_parser(
        "sphere", help="map a pair to sphere coordinates and report defects"
    )
    _add_pair_arguments(p_sphere)
    _add_output_arguments(p_sphere, formats=("json", "text"))
    p_sphere.set_defaults(func=cmd_sphere)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except STABILITY_ERRORS as exc:
        _emit_error(exc)
        return 2
    except OmegaIndexError as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
