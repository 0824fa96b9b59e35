"""Orientation calibration.

The corner-counting construction admits two orientations (substitute C or C*),
and only one of them assigns the oscillator reference pair the index +1.  Rather
than hard-coding that choice, it is *calibrated*: both orientations are run on a
small reference pair and the one that yields +1 is pinned as the default in a
generated constants file shipped with the package.  The computation is fully
deterministic, so regenerating the record is bit-identical.

Regenerate with ``python -m omega_index.calibration`` (see ``main``).
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import CalibrationMissing
from .operators import build_harmonic

RECORD_SCHEMA = "orientation-calibration-v1"

#: reference pair and cut sweep used to pin the default orientation.  The cuts sit
#: deep enough that the corner's lone boundary eigenvalue is safely past 1/2
#: (2*N*lam > 1.2 for every cut), so both orientations produce a clean, stable
#: count with gaps >= 0.08.
CALIBRATION_DIM = 120
CALIBRATION_LAMBDA = 0.01
CALIBRATION_CUTS = (70, 85, 100)
CALIBRATION_GAP_FLOOR = 0.05

_RECORD_FILENAME = "_pinned_orientation.json"


def record_path() -> Path:
    """Location of the generated constants file inside the installed package."""
    return Path(__file__).resolve().parent / _RECORD_FILENAME


def run_calibration() -> dict:
    """Run both orientations on the reference pair and pin the one yielding +1.

    Returns the record document.  Raises :class:`CalibrationMissing` if neither
    orientation yields +1 on the reference pair (which would mean the reference
    parameters no longer discriminate and must be revisited).
    """
    from .index import ORIENTATIONS, omega

    pair = build_harmonic(CALIBRATION_LAMBDA, CALIBRATION_DIM)
    results = {}
    for orientation in ORIENTATIONS:
        result = omega(
            pair,
            cuts=list(CALIBRATION_CUTS),
            orientation=orientation,
            gap_floor=CALIBRATION_GAP_FLOOR,
        )
        results[orientation] = result.omega
    winners = [o for o, w in results.items() if w == 1]
    if len(winners) != 1:
        raise CalibrationMissing(
            f"calibration cannot pin an orientation: reference indices {results}"
        )
    return {
        "schema_version": RECORD_SCHEMA,
        "reference": {
            "builder": "harmonic",
            "lambda": CALIBRATION_LAMBDA,
            "dim": CALIBRATION_DIM,
            "cuts": list(CALIBRATION_CUTS),
            "gap_floor": CALIBRATION_GAP_FLOOR,
        },
        "omega_by_orientation": results,
        "pinned": winners[0],
    }


def render_record(record: dict) -> str:
    """Canonical byte representation of a record (stable across reruns)."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def write_record(record: dict) -> Path:
    path = record_path()
    path.write_text(render_record(record))
    return path


def load_record() -> dict:
    path = record_path()
    if not path.exists():
        raise CalibrationMissing(
            f"no pinned-orientation record at {path}; "
            "run `python -m omega_index.calibration`"
        )
    try:
        record = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CalibrationMissing(f"pinned-orientation record is corrupt: {exc}") from exc
    if record.get("schema_version") != RECORD_SCHEMA or "pinned" not in record:
        raise CalibrationMissing("pinned-orientation record has an unexpected schema")
    return record


def pinned_orientation() -> str:
    """The calibrated default orientation, read from the generated record."""
    return load_record()["pinned"]


def main() -> int:
    record = run_calibration()
    path = write_record(record)
    print(f"pinned orientation: {record['pinned']} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
