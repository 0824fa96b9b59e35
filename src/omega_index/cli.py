"""Command-line front end.

Subcommands
-----------
``omega``
    Build a pair from flags, compute the integer index over a cut sweep, and
    emit an ``omega-report-v1`` document (JSON/CSV/text).  A report that would
    not fit in memory is refused once its cuts are counted.
``verify``
    Run the randomized inequality suites with a fixed seed.
``spectrum``
    Dump all corner-block eigenvalues of the pair's own factor at one cut as CSV
    (``index,eigenvalue``), exact zeros and ones included.  On the band path
    they are the values ``omega`` counts; on the dense path they are the
    corner's full eigensolve, where ``omega`` counts a Ritz value beside zeros
    and ones that stand for eigenvalues near them; for a pair ``omega``
    certifies by the band split they are C's dense corner, where ``omega``
    counts the band pair's closed form less the remainder.
``sweep``
    Re-run the index across a parameter axis (lambda, cut, or perturbation
    magnitude) and report whether it stayed constant.  The cut and perturbation
    axes build the pair once: the cut axis factors it once and certifies every
    value from that factor, the perturbation axis adds the axis perturbation to
    it at each value.  The lambda axis builds one pair per value.  A sweep whose
    points would not fit in memory is refused before its first point.

Value lists (``--cuts``, ``--values``) are ``a,b,c`` or the ascending, end-inclusive
range ``a:b:step``; a malformed list, cut or seed is refused before anything is factored.

Exit codes: 0 on success; 2 when the computation refuses to certify an index
(inadmissible commutator, unstable count, gap violation), with a machine-readable
error object on stdout; 1 on usage, configuration, or I/O errors, on a
``ConvergenceFailure`` (a pair too large to factor or to bound the factor's
rounding) and on an ``InsufficientMemory`` (a computation refused before it
allocates more than the machine can hold), with an error object too.

Reports contain no timestamps and all floats are serialized in round-trip form,
so identical invocations (including ``--seed``) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
# imported only for perfbench/test_perfbench.py::test_tracer_patches_every_binding
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from . import linalg
from .bounds import run_suite
from .errors import (
    STABILITY_ERRORS,
    ConfigParse,
    InvalidParameter,
    OmegaIndexError,
)
from .index import (
    DEFAULT_CUT_COUNT,
    DEFAULT_GAP_FLOOR,
    DEFAULT_SCALE_TARGET,
    ORIENTATIONS,
    # bound here only for perfbench/test_perfbench.py::test_tracer_patches_every_binding
    build_q,  # noqa: F401
    certify,
    check_cuts,
    check_gap_floor,
    corner_eigenvalues,
    factor,
    omega,
    scale_admissible,
    theorem_bound,
)
from .operators import (
    PERTURB_KINDS,
    PERTURB_TARGETS,
    OperatorPair,
    PerturbationSpec,
    build_commuting_grid,
    build_harmonic,
    load_pair,
    perturb,
)

OMEGA_SCHEMA = "omega-report-v1"
SWEEP_SCHEMA = "omega-sweep-v1"
VERIFY_SCHEMA = "verify-report-v1"

_VALUE_LIST = "a comma list or a:b:step (end-inclusive)"

#: bytes of one value of a float range's list: a float object and its slot in
#: the list, over-allocated by up to an eighth (tracemalloc peaks of 31.4-32.5
#: bytes per value from 10^3 to 10^6 values)
RANGE_VALUE_BYTES = 40

#: bytes of one sweep point beside its cut entries, and of each cut entry: the
#: point's dict and its share of the JSON text, of the encoder's chunk list and of
#: the encoded output (virtual-memory peaks, which an address-space limit counts,
#: of 5.0 KiB for a report point with one cut, 1.1 KiB more per further cut and
#: 1.8 KiB for an error point; tracemalloc sees 4.5-4.75, 0.99 and 1.67 KiB, and
#: the text format takes less).  ``omega`` charges its report as one point: from
#: its charge, a JSON report of 2*10^5 or 8*10^5 cuts grew virtual memory by
#: 1017-1019 bytes a cut, a text or CSV one by at most 440
SWEEP_POINT_BYTES = 4608
SWEEP_CUT_BYTES = 1152


def _parse_values(text: str, kind) -> list | range:
    """Parse ``a,b,c`` or the ascending, end-inclusive range ``a:b:step`` as ``kind``.

    An integer range comes back as a ``range``, so it is never built in full.  An
    empty, non-numeric, non-finite or descending spec, or a step <= 0, raises
    :class:`ConfigParse`; a float range whose list would not fit, at
    :data:`RANGE_VALUE_BYTES` a value, raises :class:`InsufficientMemory` before
    it is built.
    """

    def number(token: str):
        try:
            value = kind(token)
        except ValueError as exc:
            raise ConfigParse(f"bad value list {text!r}: {exc}") from exc
        if kind is float and not np.isfinite(value):
            raise ConfigParse(f"value list {text!r} holds a non-finite value")
        return value

    if ":" not in text:
        values = [number(v) for v in text.split(",") if v.strip()]
        if not values:
            raise ConfigParse("empty value list")
        return values
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigParse(f"range spec must be a:b:step, got {text!r}")
    a, b, step = (number(p) for p in parts)
    if step <= 0 or b < a:
        raise ConfigParse(f"range spec {text!r} must ascend with positive step")
    if kind is int:
        return range(a, b + 1, step)
    count = (b - a) / step
    if not np.isfinite(count):
        raise ConfigParse(f"range spec {text!r} has too many values")
    length = int(np.floor(count + 1e-9)) + 1
    linalg.require_memory(RANGE_VALUE_BYTES * length, f"the value list {text!r}")
    return [a + k * step for k in range(length)]


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
        return PerturbationSpec(target=target, kind=kind, magnitude=magnitude, seed=seed)
    except (ValueError, InvalidParameter) as exc:
        raise ConfigParse(f"bad perturbation spec {text!r}: {exc}") from exc


def _perturbations(args) -> list[PerturbationSpec]:
    """The ``--perturb`` specs in order, once the pair flags and ``--seed`` are checked."""
    perturbations = [_parse_perturbation(p, args.seed) for p in args.perturb or []]
    if args.pair == "file" and (args.file_a is None or args.file_b is None):
        raise InvalidParameter("file builder requires both matrix paths")
    # checked last: a bad perturbation or file pair is reported as such, not as a bad seed
    if args.seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {args.seed}")
    return perturbations


def _build_pair(args, perturbations, lam=None) -> OperatorPair:
    """The pair the flags name, at coupling ``lam`` (default ``--lambda``), with
    ``perturbations`` applied in order."""
    if args.pair == "harmonic":
        pair = build_harmonic(args.lam if lam is None else lam, args.dim)
    elif args.pair == "commuting":
        pair = build_commuting_grid(args.grid_radius, args.scale)
    else:
        pair = load_pair(args.file_a, args.file_b)
    for p in perturbations:
        pair = perturb(pair, p.target, p.kind, p.magnitude, p.seed)
    return pair


def _omega_doc(result, scale=1.0) -> dict:
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
            "lambda_a": float(scale),
            "mu_b": float(scale),
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
    # streamed: a refusal that lists every cut of a long sweep is never held as
    # one string
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _plain(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def cmd_omega(args) -> int:
    perturbations = _perturbations(args)
    cuts = None if args.cuts is None else _parse_values(args.cuts, int)
    pair = _build_pair(args, perturbations)
    scale = 1.0
    if args.auto_scale:
        pair, scale = scale_admissible(pair, args.target_commutator)
    result = omega(pair, cuts=cuts, orientation=args.orientation, gap_floor=args.gap_floor)
    # charged only now: before omega() the band factor is not yet allocated, so a
    # charge there passes where the report then fails
    linalg.require_memory(
        SWEEP_POINT_BYTES + SWEEP_CUT_BYTES * len(result.reports),
        f"a report of {len(result.reports)} cuts",
    )
    doc = _omega_doc(result, scale)
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
    pair = _build_pair(args, _perturbations(args))
    check_cuts([args.cut], pair.dim, pair.boundary_window)
    values = corner_eigenvalues(factor(pair, args.orientation), args.cut)
    lines = ["index,eigenvalue"]
    for i, v in enumerate(values):
        lines.append(f"{i},{float(v)!r}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args) -> int:
    perturbations = _perturbations(args)
    if args.axis == "lambda" and args.pair != "harmonic":
        raise ConfigParse(f"--axis lambda needs the harmonic pair, not {args.pair}")
    if args.axis == "cut" and args.cuts is not None:
        raise ConfigParse("--axis cut takes its cuts from --values, not --cuts")
    check_gap_floor(args.gap_floor)
    cuts = None if args.cuts is None else _parse_values(args.cuts, int)
    values = _parse_values(args.values, int if args.axis == "cut" else float)
    base = build_error = None
    if args.axis != "lambda":
        # the cut and perturbation axes share one pair, the cut axis one factor
        # too; if building them fails, every point fails with that error
        try:
            base = _build_pair(args, perturbations)
            if args.axis == "cut":
                base = factor(base, args.orientation)
        except OmegaIndexError as exc:
            build_error = exc
    entries = 1
    if args.axis != "cut":
        # a report's cuts lie in [1, dim], so a cut range gives it at most dim entries
        dim = args.dim if base is None else base.dim
        entries = DEFAULT_CUT_COUNT if cuts is None else min(len(cuts), dim)
    linalg.require_memory(
        len(values) * (SWEEP_POINT_BYTES + SWEEP_CUT_BYTES * entries),
        f"a sweep of {len(values)} points",
    )
    points = []
    for value in values:
        try:
            if build_error is not None:
                raise build_error
            if args.axis == "cut":
                result = certify(base, [value], args.gap_floor)
            else:
                # the axis perturbation draws from --seed, checked with the pair's
                pair = (
                    _build_pair(args, perturbations, lam=value) if args.axis == "lambda"
                    else perturb(base, args.perturb_target, args.perturb_kind, value, args.seed)
                )
                result = omega(
                    pair, cuts=cuts, orientation=args.orientation, gap_floor=args.gap_floor
                )
            point = {"value": _plain(value), "report": _omega_doc(result)}
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
        choices=("commuting", "file", "harmonic"),
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
        help=(
            f"apply a perturbation (kinds: {', '.join(PERTURB_KINDS)}); random_hermitian "
            "adds MAG times a seeded Hermitian R scaled by a proved upper bound on its "
            "norm, so norm(R) lies in [1/(1 + delta), 1], "
            f"delta <= {linalg.NORM_BOUND_MAX_SLACK:g}; repeatable"
        ),
    )
    group.add_argument(
        "--orientation", choices=(*ORIENTATIONS, "default"), default="default"
    )


def _add_output_arguments(parser, formats=("json", "csv", "text")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="omega-index", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_omega = sub.add_parser("omega", help="compute the integer index of a pair")
    _add_pair_arguments(p_omega)
    p_omega.add_argument(
        "--cuts", help=f"cut sweep, {_VALUE_LIST} (default: 5 cuts in [dim/8, 3*dim/8])"
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
    _add_output_arguments(p_spec, formats=("csv",))
    p_spec.set_defaults(func=cmd_spectrum)

    p_sweep = sub.add_parser("sweep", help="run the index across a parameter axis")
    _add_pair_arguments(p_sweep)
    p_sweep.add_argument(
        "--axis", choices=("lambda", "cut", "perturbation"), required=True
    )
    p_sweep.add_argument("--values", required=True, help=f"sweep values, {_VALUE_LIST}")
    p_sweep.add_argument(
        "--cuts", help=f"cut sweep at every lambda/perturbation point, {_VALUE_LIST}"
    )
    p_sweep.add_argument("--gap-floor", type=float, default=DEFAULT_GAP_FLOOR)
    p_sweep.add_argument("--perturb-target", choices=PERTURB_TARGETS, default="a")
    p_sweep.add_argument("--perturb-kind", choices=PERTURB_KINDS, default="scalar_shift")
    _add_output_arguments(p_sweep, formats=("json", "text"))
    p_sweep.set_defaults(func=cmd_sweep)

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
