"""Exception types shared across the package.

Stability-related errors (:class:`InadmissibleCommutator`, :class:`UnstableCount`,
:class:`GapViolation`) map to CLI exit code 2; everything else maps to exit code 1.
"""


class OmegaIndexError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message, **detail):
        super().__init__(message)
        self.message = message
        #: optional machine-readable context, serialized into CLI error objects
        self.detail = detail


class DimensionMismatch(OmegaIndexError):
    """Operands have incompatible shapes, or a matrix is not square."""


class NonHermitianInput(OmegaIndexError):
    """A matrix required to be Hermitian exceeds the Hermiticity tolerance."""


class ConvergenceFailure(OmegaIndexError):
    """An eigensolver or inverse failed to meet its accuracy contract."""


class InvalidParameter(OmegaIndexError):
    """A scalar argument is outside its documented domain."""


class InsufficientMemory(OmegaIndexError):
    """A dense computation would need more memory than this process can still
    allocate; it is refused before anything is allocated."""


class CutTooLarge(OmegaIndexError):
    """A requested corner cut reaches into the truncation boundary collar."""


class InadmissibleCommutator(OmegaIndexError):
    """The pair's commutator is too large for the count to be certified.

    Raised unless upper = epsilon + epsilon_rounding, the measured epsilon as
    large as rounding lets it be, is below 1 and the defect bound
    (4e-2e^2)/(1-e)^2 at e = upper is below 1/4: the gate keeps the count in the
    regime where that bound is below 1/4.  Its detail is always ``epsilon``,
    ``rounding`` and ``bound``, the last None where upper is not below 1.  It
    gates the pair, not the idempotency of the Q counted, which is a projection
    for every pair and whose measured ``defect`` bounds how far it is from one.
    Rescale the pair (see ``scale_admissible``).
    """


class UnstableCount(OmegaIndexError):
    """Different cuts disagree on the counted index."""


class GapViolation(OmegaIndexError):
    """Some corner-block eigenvalue sits within ``gap_floor`` of 1/2."""


class ConfigParse(OmegaIndexError):
    """Malformed configuration, file format, or value list."""


class CalibrationMissing(OmegaIndexError):
    """The calibration run cannot tell the orientations apart: not exactly one
    of them gives the reference pair the index +1."""


#: errors that signal an admissibility/stability condition rather than misuse
STABILITY_ERRORS = (InadmissibleCommutator, UnstableCount, GapViolation)
