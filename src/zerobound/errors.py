"""Exception hierarchy and warnings shared across the package."""

from collections.abc import Callable


class ZeroboundError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ZeroboundError, ValueError):
    """Input data violates a structural invariant (bad functional-equation datum)."""


class DomainError(ZeroboundError, ValueError):
    """Arguments lie outside the mathematical domain of a formula."""


class AdmissibilityError(DomainError):
    """A height parameter is below the admissible threshold of a bound."""


class InvalidStripError(ValidationError):
    """A user-supplied strip abscissa fails its defining tail-sum inequality."""


class ZeroFileError(ZeroboundError, ValueError):
    """A zero-ordinate file could not be parsed."""


class BoundaryWarning(UserWarning):
    """A pre-ceiling value sits suspiciously close to an integer boundary."""


def _value_text(value: object, convert: Callable[[object], str] = str) -> str:
    """convert(value) for an error message, or the bit length of an integer too long for it.

    Python refuses to write an int of more than sys.get_int_max_str_digits()
    decimal digits (4300 by default), so such a value is described instead.
    """
    try:
        return convert(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
