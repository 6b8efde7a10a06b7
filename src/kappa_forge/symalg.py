"""Characteristic-class monomials and their exact weight evaluation.

For an oriented fiber of dimension 2n the relevant characteristic classes
are the Pontryagin classes p_1, ..., p_n (degree 4i) and the Euler class e
(degree 2n), subject to the single ring relation e^2 = p_n.  A linear
circle action on R^{2n} splits into n rotation planes with integer weights
a_1, ..., a_n, and a class monomial evaluates against those weights to an
integer:

    sigma_{p_i}(a_1, ..., a_n) = sigma_i(a_1^2, ..., a_n^2)
    sigma_e(a_1, ..., a_n)     = a_1 * a_2 * ... * a_n

extended multiplicatively over monomial factors.  This is consistent with
e^2 = p_n because sigma_e^2 equals sigma_n of the squares.

The sigma_i a set of monomials needs, for i from their lowest p-index to
their highest, come from one pass over the squares: forward from sigma_0,
as prod(1 + v*t), or from sigma_n down, as the low-degree coefficients of
prod(v + s), whichever takes fewer multiply-adds.  A list of monomials is
analysed once (its fiber check, that index range, whether the Euler
product is needed and which monomials are a single p_i) and the analysis
is applied to each weight row, so a caller with many rows pays for it once.
Runs of exponent-1 factors multiply largest with smallest, so that the
operands of each product are of about one size.

All arithmetic is exact (arbitrary-precision integers).  The divisibility
tests built on these numbers downstream would be meaningless with floats,
and sigma_i of squared weights overflows 64 bits already for modest input.
"""

from __future__ import annotations

import re
from math import prod

from . import _MODULE_EXPORTS
from .errors import (
    MAX_VALUE_BITS, DomainError, ParseError, Record, SequenceRecord, _digits_over, clip,
    over_digit_limit, over_limit, strict_index,
)

TYPE_CHECKING = False  # true for type checkers only: typing stays unloaded at run time
if TYPE_CHECKING:
    from typing import Iterable, Sequence, Union

    WeightsLike = Union["WeightVector", Sequence[int]]

__all__ = [*_MODULE_EXPORTS["symalg"]]


class WeightVector(SequenceRecord):
    """The n integer rotation weights of a real 2n-dimensional circle representation."""

    __slots__ = ("weights",)
    weights: tuple[int, ...]

    def __post_init__(self):
        ws = tuple(map(strict_index, self.weights))
        if not ws:
            raise DomainError("empty weight vector: a 2n-dimensional fiber needs n >= 1")
        object.__setattr__(self, "weights", ws)


def _half_dim(n) -> int:
    n = strict_index(n)
    if n < 1:
        raise DomainError(f"fiber half-dimension must be >= 1, got {n}")
    return n


def _analysed(n: int, exps: tuple[int, ...], e_exp: int) -> tuple:
    """The slot values of a monomial, in ``__slots__`` order, from checked exponents."""
    factors = tuple((i, k) for i, k in enumerate(exps, start=1) if k)
    degree = 4 * sum(i * k for i, k in factors) + 2 * n * e_exp
    return n, exps, e_exp, (factors[-1][0] if factors else 0, factors), degree


class CharClassMonomial(Record):
    """A monomial p_1^{k_1} * ... * p_n^{k_n} * e^{m} for fiber dimension 2n.

    ``p_exponents[i-1]`` is the exponent of p_i.  Canonical form keeps the
    e-exponent in {0, 1}; :func:`reduce_monomial` folds each e^2 into p_n.
    Instances are immutable and compare structurally.

    Each instance is analysed once, when it is built: the private slot
    ``_factors`` holds its top p-index (0 if none) and its non-zero factors
    as ``(i, k)`` pairs in increasing i, which is all the evaluation reads,
    and ``_degree`` its degree.  The slots are no fields, so equality,
    hashing, ``repr``, copies and pickles never see them; copies and
    pickles rebuild them.  The constructor checks every argument.
    :meth:`one`, :meth:`euler`, :meth:`pontryagin`, ``*`` and
    :func:`reduce_monomial` make their exponents from checked values and
    build through :meth:`_checked`, which checks no exponent again.
    """

    __slots__ = ("fiber_half_dim", "p_exponents", "e_exponent", "_factors", "_degree")
    _defaults = (0,)
    fiber_half_dim: int
    p_exponents: tuple[int, ...]
    e_exponent: int

    def __post_init__(self):
        n = _half_dim(self.fiber_half_dim)
        exps = tuple(map(strict_index, self.p_exponents))
        if len(exps) != n:
            raise DomainError(
                f"expected {n} Pontryagin exponents, got {len(exps)}"
            )
        e_exp = strict_index(self.e_exponent)
        if any(k < 0 for k in exps) or e_exp < 0:
            raise DomainError("class-monomial exponents must be non-negative")
        for set_slot, value in zip(self._slot_setters, _analysed(n, exps, e_exp)):
            set_slot(self, value)

    @classmethod
    def _checked(cls, n: int, exps: tuple[int, ...], e_exp: int) -> "CharClassMonomial":
        """An instance of n non-negative plain-int exponents and ``e_exp``, without re-checking them."""
        return cls._trusted(*_analysed(n, exps, e_exp))

    @classmethod
    def one(cls, n: int) -> "CharClassMonomial":
        n = _half_dim(n)
        return cls._checked(n, (0,) * n, 0)

    @classmethod
    def pontryagin(cls, i: int, n: int) -> "CharClassMonomial":
        i = strict_index(i)
        if not 1 <= i <= n:
            raise DomainError(f"p{i} does not exist for fiber half-dimension {n}")
        n = _half_dim(n)
        return cls._checked(n, (0,) * (i - 1) + (1,) + (0,) * (n - i), 0)

    @classmethod
    def euler(cls, n: int) -> "CharClassMonomial":
        n = _half_dim(n)
        return cls._checked(n, (0,) * n, 1)

    @property
    def degree(self) -> int:
        """Cohomological degree: deg p_i = 4i, deg e = 2n."""
        return self._degree

    @property
    def is_canonical(self) -> bool:
        return self.e_exponent <= 1

    def __mul__(self, other: "CharClassMonomial") -> "CharClassMonomial":
        if not isinstance(other, CharClassMonomial):
            return NotImplemented
        if other.fiber_half_dim != self.fiber_half_dim:
            raise DomainError(
                "cannot multiply monomials for fiber half-dimensions "
                f"{self.fiber_half_dim} and {other.fiber_half_dim}"
            )
        return CharClassMonomial._checked(
            self.fiber_half_dim,
            tuple(a + b for a, b in zip(self.p_exponents, other.p_exponents)),
            self.e_exponent + other.e_exponent,
        )

    def __str__(self) -> str:
        parts = []
        if self.e_exponent == 1:
            parts.append("e")
        elif self.e_exponent > 1:
            parts.append(f"e^{self.e_exponent}")
        for i, k in enumerate(self.p_exponents, start=1):
            if k == 1:
                parts.append(f"p{i}")
            elif k > 1:
                parts.append(f"p{i}^{k}")
        return "*".join(parts) if parts else "1"


def reduce_monomial(m: CharClassMonomial) -> CharClassMonomial:
    """Canonical representative under e^2 = p_n: e-exponent drops to 0 or 1."""
    if m.is_canonical:
        return m
    pairs, rest = divmod(m.e_exponent, 2)
    exps = list(m.p_exponents)
    exps[-1] += pairs
    return CharClassMonomial._checked(m.fiber_half_dim, tuple(exps), rest)


def _elementary_upto(top: int, values: Sequence[int]) -> list[int]:
    """[sigma_0, ..., sigma_top] of ``values``: prod(1 + v*t) truncated at degree top.

    Before the m-th value (from 1) only sigma_0..sigma_{m-1} can be non-zero,
    so that value updates only sigma_1..sigma_m: up to top*(top-1)/2
    multiply-adds of zeros fewer than a pass over the full range.  The
    update runs upwards and carries each coefficient's old value in a local
    to the next one, so every coefficient is read from the list once.
    """
    coeffs = [1] + [0] * top
    for reach, v in enumerate(values, start=1):
        if reach > top:
            reach = top
        prev = 1
        for j in range(1, reach + 1):
            cur = coeffs[j]
            coeffs[j] = cur + v * prev
            prev = cur
    return coeffs


def _elementary_down(low: int, values: Sequence[int]) -> list[int]:
    """[sigma_low, ..., sigma_n] of the n ``values``, from the low-degree end of prod(v + s).

    The coefficient of s^j in prod(v + s) is sigma_{n-j}, so the
    coefficients of degree 0..n-low are the top sigmas: each value updates
    them by c_0 <- v*c_0, then c_j <- v*c_j + c_{j-1} with the old c_{j-1},
    carried upwards in a local as in :func:`_elementary_upto`.  Before the
    m-th value (from 1) only c_0..c_{m-1} can be non-zero, so the update
    stops at c_m.  sigma_n alone (low = n) takes one product per value.
    """
    depth = len(values) - low
    coeffs = [1] + [0] * depth
    for reach, v in enumerate(values, start=1):
        if reach > depth:
            reach = depth
        prev = coeffs[0]
        coeffs[0] = prev * v
        for j in range(1, reach + 1):
            cur = coeffs[j]
            coeffs[j] = v * cur + prev
            prev = cur
    return coeffs[::-1]


def _elementary_range(low: int, top: int, values: Sequence[int]) -> list[int]:
    """e with e[i] = sigma_i of ``values`` for i = 0 and low <= i <= top, from the shorter pass.

    Forward from sigma_0 up to ``top`` (:func:`_elementary_upto`) takes
    about n*top big-integer multiply-adds, and from sigma_n down to ``low``
    (:func:`_elementary_down`) about n*(n-low+1); a tie goes forward.  So
    sigma_n alone costs n products.  The down pass leaves e[1..low-1] at 0.
    A ``top`` above n takes the forward pass, whose e[n+1..top] are 0.
    """
    if len(values) - low + 1 < top <= len(values):
        return [1] + [0] * (low - 1) + _elementary_down(low, values)
    return _elementary_upto(top, values)


def elementary_symmetric(i: int, values: Iterable[int]) -> int:
    """The i-th elementary symmetric polynomial of the given integers, exactly.

    sigma_0 is 1 by the empty-product convention.  One truncated pass over
    the n values, forward or from sigma_n down (:func:`_elementary_range`):
    O(n*min(i, n-i+1)) big-integer multiply-adds.
    """
    vals = list(map(strict_index, values))
    if i < 0 or i > len(vals):
        raise DomainError(
            f"elementary symmetric index {i} outside 0..{len(vals)}"
        )
    return _elementary_range(i, i, vals)[i]


def _check_power(c: CharClassMonomial, total: int, base: int, k: int) -> None:
    # a lower bound on the bit length of total * base**k: no value within the
    # limit is refused, and bases +-1 never count against it
    if total.bit_length() + k * (abs(base).bit_length() - 1) > MAX_VALUE_BITS:
        raise over_limit(f"the value of {c}", MAX_VALUE_BITS, "bits")


def _times_run(c: CharClassMonomial, total: int, run: list[int], bits: int) -> int:
    """``total`` times the product of ``run``, folded so that factors of like size meet.

    Each round sorts the run and multiplies its largest factor by its
    smallest, the second largest by the second smallest, and so on, with a
    middle factor left over; for e_1..e_n, whose sizes grow about evenly
    with i, the products of a round are of about one size, and CPython's
    Karatsuba multiplication pays best on operands of equal size.  The
    factors are positive: a zero e_i returns before any run is built.
    ``bits``, the bit length of ``total`` plus that of each factor less one,
    is a lower bound on the result's bit length; past the limit the value is
    refused before any factor is multiplied.
    """
    if bits > MAX_VALUE_BITS:
        raise over_limit(f"the value of {c}", MAX_VALUE_BITS, "bits")
    while len(run) > 1:
        run = sorted(run)
        half = len(run) // 2
        run = [a * b for a, b in zip(run[:half], run[:-half - 1:-1])] + run[half:len(run) - half]
    return total * run[0]


def _eval_from(c: CharClassMonomial, e: Sequence[int], euler: int) -> int:
    """The monomial's value from sigma_i of the squares (``e``) and the weight product.

    A factor 0 makes the value 0, which no check refuses; e_i is 0 from some
    index on, so ``e[top]`` tells.  Only the non-zero factors are read.  Each
    run of exponent-1 factors is checked and multiplied as one balanced
    product and folded into ``total`` before the next power, so every size
    check sees the product of all factors before it.
    """
    top, factors = c._factors
    if not e[top] or (c.e_exponent and not euler):
        return 0
    total, run, bits = 1, [], 1
    for i, k in factors:
        if k == 1:
            run.append(e[i])
            bits += e[i].bit_length() - 1
            continue
        if run:
            total, run = _times_run(c, total, run, bits), []
        _check_power(c, total, e[i], k)
        total *= e[i] ** k
        bits = total.bit_length()
    if run:
        total = _times_run(c, total, run, bits)
    if c.e_exponent:
        _check_power(c, total, euler, c.e_exponent)
        total *= euler ** c.e_exponent
    return total


def sigma_eval(c: CharClassMonomial, w: WeightsLike) -> int:
    """Evaluate the monomial against circle weights.

    Multiplicative over factors, with sigma_{p_i} the i-th elementary
    symmetric polynomial of the squared weights and sigma_e the plain
    product of the weights.  The result depends only on the canonical
    class of ``c``, so reduction beforehand is optional.  A value past
    2**20 bits raises DomainError before its power is taken.  The
    one-monomial case of :func:`sigma_eval_many`.
    """
    return sigma_eval_many((c,), w)[0]


def sigma_eval_many(monomials: Sequence[CharClassMonomial], w: WeightsLike) -> list[int]:
    """:func:`sigma_eval` of every monomial against the same weights, from one shared pass.

    Every monomial's fiber dimension is checked against ``w`` first; then
    one truncated pass gives every factor, for all monomials at once
    (:func:`_analyse`, :func:`_evaluate`).
    """
    w = WeightVector.of(w)
    return _evaluate(_analyse(monomials, len(w.weights)), w.weights)


def _analyse(monomials: Sequence[CharClassMonomial], n: int) -> tuple:
    """What :func:`_evaluate` needs to evaluate ``monomials`` against any row of n weights.

    Checks each monomial's fiber dimension against n, then returns ``(low,
    top, needs_euler, plan)``: the p-indices low..top the monomials use,
    whether any has an e-factor, and per monomial ``(c, i)``, where i > 0
    when ``c`` is the single p_i, whose value is e_i itself, and 0 otherwise.
    Each monomial's top index and non-zero factors come from the analysis
    made when it was built (:class:`CharClassMonomial`), so no call scans
    its n exponents.  A caller with many rows analyses once and evaluates
    each row.
    """
    top, low, needs_euler, plan = 0, n, False, []
    for c in monomials:
        if c.fiber_half_dim != n:
            raise DomainError(
                f"weight vector has {n} entries, monomial expects {c.fiber_half_dim}"
            )
        c_top, factors = c._factors
        if c_top > top:
            top = c_top
        if factors and factors[0][0] < low:
            low = factors[0][0]
        needs_euler = needs_euler or c.e_exponent > 0
        plan.append((c, c_top if factors == ((c_top, 1),) and not c.e_exponent else 0))
    return low, top, needs_euler, plan


def _evaluate(analysis: tuple, weights: Sequence[int]) -> list[int]:
    """Every analysed monomial's value against ``weights``, in order, from one pass.

    The pass covers the p-indices low..top in the direction that needs
    fewer multiply-adds (:func:`_elementary_range`), so p_n alone costs n
    products.  A single p_i reads e_i from it, refused past the value limit
    as :func:`_eval_from` would refuse it; every other monomial goes
    through :func:`_eval_from`.
    """
    low, top, needs_euler, plan = analysis
    # e[1..low-1] is no factor of any monomial and is never read
    e = _elementary_range(low, top, [a * a for a in weights])
    euler = prod(weights) if needs_euler else 1
    values = []
    for c, i in plan:
        if i:
            value = e[i]
            if value.bit_length() > MAX_VALUE_BITS:
                raise over_limit(f"the value of {c}", MAX_VALUE_BITS, "bits")
        else:
            value = _eval_from(c, e, euler)
        values.append(value)
    return values


_FACTOR_RE = re.compile(r"(e|p([0-9]+))(?:\^(-?[0-9]+))?\Z")


def parse_class_monomial(text: str, n: int) -> CharClassMonomial:
    """Parse the monomial syntax ``e``, ``p1``, ``p2^3``, ``e*p1^2``.

    Whitespace-insensitive and case-insensitive; ``1`` names the empty
    monomial.  Indices above n and negative exponents are rejected.  ``n``
    is checked first, so a bad ``n`` raises before bad text does; the
    exponents are parsed non-negative ints and are not checked again.
    """
    n = _half_dim(n)
    s = re.sub(r"\s+", "", text).lower()
    if not s:
        raise ParseError("empty class monomial")
    if s == "1":
        return CharClassMonomial.one(n)
    p_exp = [0] * n
    e_exp = 0
    for factor in s.split("*"):
        m = _FACTOR_RE.match(factor)
        if m is None:
            raise ParseError(f"bad class factor '{clip(factor)}'")
        idx_text, exp_text = m.group(2) or "", m.group(3) or "1"
        if _digits_over(idx_text) or _digits_over(exp_text):
            raise over_digit_limit(f"class factor '{clip(factor)}' has a number")
        idx, exp = int(idx_text) if idx_text else None, int(exp_text)
        if exp < 0:
            raise ParseError(f"negative exponent in '{clip(factor)}'")
        if idx is None:
            e_exp += exp
        elif 1 <= idx <= n:
            p_exp[idx - 1] += exp
        else:
            raise ParseError(
                f"class index p{idx} outside 1..{n} for fiber half-dimension {n}"
            )
    return CharClassMonomial._checked(n, tuple(p_exp), e_exp)
