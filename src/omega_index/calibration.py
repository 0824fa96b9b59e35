"""Orientation calibration.

The corner-counting construction admits two orientations (substitute C or C*),
and only one of them assigns the oscillator reference pair the index +1, the sign
the paper fixes.  That orientation is :data:`~omega_index.index.DEFAULT_ORIENTATION`,
a constant in code.  This module is the check on it: :func:`run_calibration` runs
both orientations on a small reference pair and pins the one that yields +1, and
the test suite requires the pin to equal the constant, so a change to the
construction that flips the sign cannot go unnoticed.  The run is fully
deterministic, so :func:`render_record` of it is bit-identical on every rerun.
"""

from __future__ import annotations

import json

from .errors import CalibrationMissing
from .index import DEFAULT_ORIENTATION, ORIENTATIONS, omega
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


def run_calibration() -> dict:
    """Run both orientations on the reference pair and pin the one yielding +1.

    Returns the record document.  Raises :class:`CalibrationMissing` if neither
    orientation yields +1 on the reference pair (which would mean the reference
    parameters no longer discriminate and must be revisited).
    """
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


def pinned_orientation() -> str:
    """The default orientation, :data:`~omega_index.index.DEFAULT_ORIENTATION`."""
    return DEFAULT_ORIENTATION
