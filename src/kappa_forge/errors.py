"""Exception types and size limits shared across the package."""

import sys

# Decimal printing is quadratic in the bit length: 1.8 s at 2**20 bits on CPython
# 3.11 (2-vCPU VM).  The largest value a test or benchmark job prints has 41k bits,
# the largest adams vector 423k bits in all.
MAX_VALUE_BITS = 2**20

# The longest list built from a size the caller gives: the planes of a torus
# restriction, the entries of a Betti table, a data file's fiber half-dimension.
MAX_RESULT_ENTRIES = 2**20


class KappaForgeError(ValueError):
    """Base class for every error this package raises on bad input."""


class DomainError(KappaForgeError):
    """An operation was invoked outside its mathematical domain."""


class ParseError(KappaForgeError):
    """Malformed textual input: class monomials, weight lists, data files."""


# a decimal exponent, which Fraction would raise 10 to before any size check
_EXPONENT = r"([^/\s]*)[eE]([-+]?\d[\d_]*)\Z"


def bounded_fraction(text: str):
    """``Fraction(text)``, refusing a numerator or denominator over the digit limit.

    Malformed text raises ValueError or ZeroDivisionError, as Fraction does;
    a number over the int-string digit limit raises ParseError.  The exponent
    is bounded before Fraction takes 10 to its power: past the limit plus the
    mantissa's length, only a zero mantissa stays within it.
    """
    import re
    from fractions import Fraction

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    m = re.match(_EXPONENT, text)
    if m and abs(int(m.group(2))) > limit + len(m.group(1)):
        value = Fraction(m.group(1))
        over = value != 0
    else:
        value = Fraction(text)
        over = max(abs(value.numerator), value.denominator) >= 10**limit
    if over:
        raise ParseError(
            f"rational '{text[:20]}...' has a numerator or denominator over the "
            f"{limit}-digit limit"
        )
    return value
