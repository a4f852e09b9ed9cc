"""Exception types and the global enumeration size cap."""

from __future__ import annotations

import os

DEFAULT_SIZE_CAP = 24

# Environment override for experimentation only; anything above 24 is
# unsupported and can exhaust memory: the oracle holds one byte per
# coordinate subset (16 MB at n = 24) and the circuit-ideal Betti table four
# more.  The Hochster sweep of test-set ideals is bounded on its own: the sum
# of 2^(|W|-1) over its lcm lattice, a size bound rather than a count of its
# work, must stay under resolution.MASK_BUDGET.
SIZE_CAP_ENV = "GHW_SIZE_CAP"


def size_cap() -> int:
    """Current length cap (default 24, overridable via GHW_SIZE_CAP).

    A value that is not a positive integer raises GhwError.
    """
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise GhwError(f"{SIZE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


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
