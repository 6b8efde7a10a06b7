"""Exception types, size limits, integer and rational arguments and the frozen record types of the package."""

import operator
import sys

# Decimal printing is quadratic in the bit length: 1.8 s at 2**20 bits on CPython
# 3.11 (2-vCPU VM).  The largest value a test or benchmark job prints has 41k bits,
# the largest adams vector 423k bits in all.
MAX_VALUE_BITS = 2**20

# The longest list built from a size the caller gives: the planes of a torus
# restriction, the entries of a Betti table, a data file's fiber half-dimension.
MAX_RESULT_ENTRIES = 2**20


class Record:
    """A slotted, frozen value: what ``@dataclass(frozen=True)`` gave, without its import.

    ``dataclasses`` loads ``inspect`` and ``ast``, which cost a CLI call more
    than its arithmetic.  A subclass lists its fields in ``__slots__`` and the
    defaults of its trailing fields in ``_defaults``; ``__post_init__`` runs
    after the fields are set and may normalize them with
    ``object.__setattr__``.  A slot whose name starts with ``_`` is private
    state, not a field: it takes no constructor argument and is never
    compared, hashed, printed, copied or pickled.  ``_fields`` names the
    fields in order; a subclass that derives a field from private slots
    lists its fields in ``_fields`` itself and makes that field a property
    whose setter fills the slots.  Instances compare equal only to the same
    class with equal fields, hash and print like the dataclass did, refuse
    assignment and deletion, and copy and pickle through the constructor.
    """

    __slots__ = ()
    _defaults: tuple = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # the slots' member descriptors store a value with no __setattr__ lookup
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._slot_setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _trusted(cls, *values):
        """An instance of already normalized values in ``__slots__`` order, without ``__post_init__``.

        For a caller that has just checked every value the way the
        constructor would; anything else goes through the constructor.
        Slots past the values given stay unset.  Without private slots,
        ``__slots__`` order is field order.
        """
        obj = object.__new__(cls)
        for set_slot, value in zip(cls._slot_setters, values):
            set_slot(obj, value)
        return obj

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        for set_field, value in zip(cls._setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that is not one positional argument per field."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(names)} arguments "
                f"but {len(args)} were given"
            )
        values = list(args)
        first_default = len(names) - len(cls._defaults)
        for i in range(len(args), len(names)):
            if names[i] in kwargs:
                values.append(kwargs.pop(names[i]))
            elif i >= first_default:
                values.append(cls._defaults[i - first_default])
            else:
                raise TypeError(
                    f"{cls.__qualname__}() missing required argument: '{names[i]}'"
                )
        if kwargs:
            name = next(iter(kwargs))
            if name in names:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument '{name}'")
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument '{name}'")
        return values

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}' of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}' of a frozen record")

    def __reduce__(self):
        # the default slot-state restore goes through the refused __setattr__,
        # and the constructor leaves private state behind
        return type(self), self._values()


class SequenceRecord(Record):
    """A record of one tuple field that reads as that tuple.

    ``of`` passes an instance through and builds one from any other
    iterable; ``len``, iteration and the comma-joined text go over the field.
    """

    __slots__ = ()

    @classmethod
    def of(cls, values):
        return values if isinstance(values, cls) else cls(tuple(values))

    def __len__(self) -> int:
        return len(getattr(self, self._fields[0]))

    def __iter__(self):
        return iter(getattr(self, self._fields[0]))

    def __str__(self) -> str:
        return ",".join(map(str, getattr(self, self._fields[0])))


def strict_index(value) -> int:
    """``operator.index(value)``, refusing ``bool``: True and False are no integer arguments."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


class KappaForgeError(ValueError):
    """Base class for every error this package raises on bad input."""


class DomainError(KappaForgeError):
    """An operation was invoked outside its mathematical domain."""


class ParseError(KappaForgeError):
    """Malformed textual input: class monomials, weight lists, data files."""


def over_limit(what: str, limit: int, unit: str) -> DomainError:
    """The refusal of a result ``what`` past ``limit`` ``unit``, once the caller has compared."""
    return DomainError(f"{what} would exceed the limit of {limit} {unit}")


def int_digit_limit():
    """The int-string digit limit, which only ``cli.main`` sets; 4300 if lifted (0) or absent (before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def over_digit_limit(what: str) -> ParseError:
    """The refusal of input ``what`` (its quoted text and a verb) over the digit limit."""
    return ParseError(f"{what} over the {int_digit_limit()}-digit limit")


def _digits_over(text: str) -> bool:
    """Whether int() would refuse ``text`` under :func:`int_digit_limit` for its length.

    It counts as int() does, without a leading sign and ``_``; text that is no
    integer literal may count over too, which int() refuses anyway.
    """
    return len(text) - text.count("_") - (text[:1] in ("+", "-")) > int_digit_limit()


def _ints_over(values) -> bool:
    """Whether an int of ``values`` has more decimal digits than :func:`int_digit_limit`."""
    limit = int_digit_limit()
    # 2**(3*limit) < 10**limit: only a longer value needs that power built
    return any(v.bit_length() > 3 * limit and abs(v) >= 10**limit for v in values)


def _json_loads(text: str):
    """``json.loads(text)``, refusing an integer over :func:`int_digit_limit` as int() does under it.

    Only text with a longer run of ASCII digits, which may lie in a string,
    goes through a ``parse_int`` hook that counts each integer's digits.
    Such a run covers an index congruent to ``limit`` modulo limit + 1, and a
    digit there is in one iff the limit + 1 characters ending its run are all
    digits: probing only those indices decides as a scan of every one would.
    """
    import json  # loaded already by every module that reads a file
    import re  # loaded by json

    limit = int_digit_limit()
    run = re.compile("[0-9]*").match
    for i in range(limit, len(text), limit + 1):
        end = run(text, i).end()
        if end > i and run(text, end - limit - 1).end() == end:
            break
    else:
        return json.loads(text)

    def parse_int(digits: str) -> int:
        if _digits_over(digits):
            raise ValueError(
                f"Exceeds the limit ({limit} digits) for integer string conversion: value has "
                f"{len(digits.lstrip('-'))} digits; use sys.set_int_max_str_digits() to increase the limit"
            )
        return int(digits)

    return json.loads(text, parse_int=parse_int)


def clip(token: str) -> str:
    """``token`` as an error message quotes it: its first 20 characters, then ``...`` if cut."""
    return token if len(token) <= 20 else f"{token[:20]}..."


# a decimal exponent, which Fraction would raise 10 to before any size check
_EXPONENT = r"([^/\s]*)[eE]([-+]?\d[\d_]*)\Z"


def bounded_fraction(text: str):
    """``Fraction(text)``, refusing a numerator or denominator over :func:`int_digit_limit`.

    Malformed text raises ValueError or ZeroDivisionError, as Fraction does;
    a number over the limit, or written with more digits than it, raises
    ParseError.  Digits are counted before any is converted, and the
    exponent is bounded before Fraction takes 10 to its power: past the
    limit plus the mantissa's length, only a zero mantissa stays within it.
    """
    import re
    from fractions import Fraction

    # Fraction converts each run of digits, '_' included, with int(); no run is
    # longer than the whole text, so a short text is not searched
    if _digits_over(text) and any(map(_digits_over, re.findall(r"[\d_]+", text))):
        # well formed if Fraction takes it with each digit run cut to one digit
        try:
            Fraction(re.sub(r"\d+", "1", text))
        except ValueError:
            Fraction(text)  # raises: malformed text fails Fraction's pattern before a digit converts
        over = True
    else:
        limit = int_digit_limit()
        m = re.match(_EXPONENT, text.strip())  # Fraction ignores surrounding whitespace
        huge_exponent = m and abs(int(m.group(2))) > limit + len(m.group(1))
        value = Fraction(m.group(1) if huge_exponent else text)
        over = value != 0 if huge_exponent else _ints_over((value.numerator, value.denominator))
    if over:  # a short exponent form stands for a long number too, so '...' always follows
        raise over_digit_limit(f"rational '{text[:20]}...' has a numerator or denominator")
    return value


def exact_rational(value):
    """An int as it is, else ``Fraction(value)`` of a Fraction or a string under the digit limit.

    A string goes through :func:`bounded_fraction`.  A ``bool`` or a
    ``float`` raises TypeError: True is no 1, and 0.1 is no 1/10.  An
    ``int`` has the equality, the hash and the text of the equal Fraction,
    so keeping it builds none.
    """
    if type(value) is int:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an exact rational, got {value!r}")
    if isinstance(value, str):
        return bounded_fraction(value)
    from fractions import Fraction  # here: fractions loads decimal, which betti never needs

    return Fraction(value)


def rational_literal(token: str):
    """``token`` as an int if it is an integer literal, else as :func:`bounded_fraction` reads it.

    An integer literal is an optional sign and decimal digits, no more of
    them than :func:`int_digit_limit`; it needs neither ``fractions`` nor
    ``re``.  A token with ``_`` is none, since Fraction refuses it before
    Python 3.11, nor is one with surrounding space.  Other text raises as
    :func:`bounded_fraction` does.  The one copy of this rule: ``--b``
    entries and the string coefficients of data files both go through it.
    """
    digits = token[1:] if token[:1] in "+-" else token
    # isdecimal() takes the digits of Fraction's \d and int(); a longer run is
    # left to bounded_fraction, which words the refusal
    if digits.isdecimal() and not _digits_over(digits):
        return int(token)
    return bounded_fraction(token)


def parse_weight_list(text: str) -> list[int]:
    """The integers of a comma-separated weight list, as ``sigma`` and ``su2-realize`` take it.

    A weight of more digits than :func:`int_digit_limit` is refused before int() converts it.
    """
    if not text.strip():
        raise ParseError("empty weight list")
    out = []
    for token in text.split(","):
        token = token.strip()
        if _digits_over(token):
            digits = token[1:] if token[:1] in "+-" else token
            if digits.isdecimal():  # an integer literal, only too long
                raise over_digit_limit(f"bad weight '{clip(token)}' is")
            raise ParseError(f"bad weight '{clip(token)}'")
        try:
            out.append(int(token))
        except ValueError:
            raise ParseError(f"bad weight '{clip(token)}'") from None
    return out
