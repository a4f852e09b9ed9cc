"""Exception types and the code length cap."""

from __future__ import annotations

# Longest code length accepted.  The oracle holds one byte per coordinate
# subset (16 MB at n = 24) and the circuit-ideal Betti table four more; the
# Hochster sweep is bounded on its own by resolution.MASK_BUDGET.
SIZE_CAP = 24


class GhwError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(GhwError):
    """An operation would enumerate past the size cap."""


class LengthCapExceeded(CapExceeded):
    """Ambient length n exceeds the cap."""


class ZeroCode(GhwError):
    """Generator matrix has rank 0."""


class EmptyAmbient(GhwError):
    """Monomial ideal requested in a ring with no variables."""


class TooFewGenerators(GhwError):
    """Operation needs at least two generators / test-set elements."""


class DimensionTooSmall(GhwError):
    """Operation needs code dimension k >= 2."""


class MatrixParseError(GhwError):
    """Malformed matrix file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TheoremViolation(GhwError):
    """A proven statement failed on concrete data: an implementation bug."""
