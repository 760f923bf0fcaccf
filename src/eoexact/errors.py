"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class EOError(Exception):
    """Base class for all domain errors raised by this package."""


# -- field / algebra -------------------------------------------------------

class FieldMismatch(EOError):
    """Arithmetic between values of incompatible field modes."""


class LiteralSyntaxError(EOError):
    """A value literal could not be parsed."""


class EmptyInput(EOError):
    pass


class ZeroValue(EOError):
    pass


# -- signatures ------------------------------------------------------------

class ArityMismatch(EOError):
    pass


class PortError(EOError):
    pass


class CapExceeded(EOError):
    """A configured enumeration or size cap was exceeded."""


class ZeroSignature(EOError):
    pass


class NotEO(EOError):
    """Operation requires a signature supported on balanced strings only."""


# -- grids -----------------------------------------------------------------

class GridFormatError(EOError):
    pass


class InvalidGrid(EOError):
    pass


class OpenGridError(EOError):
    """Operation requires a closed grid (no dangling ports)."""


class ClosedGridError(EOError):
    """Operation requires an open grid (at least one dangling port)."""


class BruteForceCapExceeded(EOError):
    pass


# -- classification --------------------------------------------------------

class EmptySet(EOError):
    pass


class ModeViolation(EOError):
    """Input signatures do not satisfy the requested extension mode."""


# -- tractable evaluators --------------------------------------------------

class NonAffineVertex(EOError):
    pass


class NonProductVertex(EOError):
    pass


class PreconditionViolated(EOError):
    """A guaranteed-by-theory condition failed; this is a soundness alarm."""


class NotInterpolatable(EOError):
    pass


class OracleProtocolError(EOError):
    pass


# -- transforms ------------------------------------------------------------

class MixedWeights(EOError):
    pass


# -- cli -------------------------------------------------------------------

class UsageError(EOError):
    pass
