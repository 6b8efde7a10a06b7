"""Fixed-point localization of tautological classes for circle actions.

A smooth circle action on a closed oriented 2n-manifold W is summarized,
for our purposes, by its fixed-point data: the connected components of the
fixed set together with their Euler characteristics and the n signed
weights of the tangential circle representation along each component.
The pullback of the tautological class kappa_{e*c} to the circle
classifying space is then

    sum_i  chi(M_i) * sigma_c(weights of M_i)

times the appropriate power of the degree-2 generator gamma.  When the
action extends to SU(2), restriction to a maximal torus is injective on
rational cohomology and sends the second Chern class c2 to gamma^2, so
even gamma-powers promote to c2-powers and b_i = coefficient / chi(W)
is defined whenever chi(W) is known and non-zero.

The JSON file format read and written here is the interchange unit for the
command-line tool and the example catalog.
"""

from __future__ import annotations

import json
from itertools import chain
from math import prod

from . import _MODULE_EXPORTS
from .errors import (
    MAX_RESULT_ENTRIES, DomainError, ParseError, Record, _ints_over, _json_loads, clip,
    exact_rational, int_digit_limit, rational_literal, strict_index,
)
from .symalg import (
    CharClassMonomial,
    WeightVector,
    _analyse,
    _evaluate,
    _half_dim,
    parse_class_monomial,
    reduce_monomial,
    sigma_eval,
)

TYPE_CHECKING = False  # true for type checkers only: typing stays unloaded at run time
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Iterator, Optional, Sequence, Union

__all__ = [*_MODULE_EXPORTS["localization"], "kappa_class_label"]

GAMMA = "gamma"
C2 = "c2"


class FixedComponent(Record):
    """One connected component of the fixed set: name, chi, signed weights."""

    __slots__ = ("name", "euler_char", "weights")
    name: str
    euler_char: int
    weights: WeightVector

    def __post_init__(self):
        object.__setattr__(self, "euler_char", strict_index(self.euler_char))
        object.__setattr__(self, "weights", WeightVector.of(self.weights))


class FixedPointData(Record):
    """Fixed-point data of a circle action on a 2n-dimensional fiber.

    The components are kept as three columns in private slots: names, Euler
    characteristics and weight rows (tuples of plain ints).  The field
    ``components`` is a view of them, built anew on each access: equal
    records every time, not the same objects.  The constructor takes
    :class:`FixedComponent` records and splits them into the columns.

    Construction is deliberately lenient about cross-field consistency;
    :func:`validate_fixed_data` reports problems instead of repairing them.
    Its diagnostics are computed once per object and kept in the private
    slot ``_diagnostics``, which is no field: equality, hashing, ``repr``,
    copies and pickles never see it.
    """

    # the parser passes the first five, in this order, to _trusted
    __slots__ = ("fiber_half_dim", "_names", "_chis", "_rows", "fiber_euler_char", "_diagnostics")
    _fields = ("fiber_half_dim", "components", "fiber_euler_char")
    _defaults = (None,)
    fiber_half_dim: int
    fiber_euler_char: Optional[int]

    def _split(self, components) -> None:
        # the setter the constructor stores the field ``components`` with
        components = tuple(components)
        object.__setattr__(self, "_names", tuple(comp.name for comp in components))
        object.__setattr__(self, "_chis", tuple(comp.euler_char for comp in components))
        object.__setattr__(self, "_rows", tuple(comp.weights.weights for comp in components))

    def _view(self) -> tuple[FixedComponent, ...]:
        return tuple(
            map(FixedComponent._trusted, self._names, self._chis, map(WeightVector._trusted, self._rows))
        )

    components = property(_view, _split)

    def __post_init__(self):
        object.__setattr__(self, "fiber_half_dim", _half_dim(self.fiber_half_dim))
        if self.fiber_euler_char is not None:
            object.__setattr__(self, "fiber_euler_char", strict_index(self.fiber_euler_char))


class Diagnostic(Record):
    __slots__ = ("severity", "message")
    severity: str  # "error" or "info"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


class KappaValue(Record):
    """Exact coefficient of a kappa-class pullback on a generator power.

    ``class_monomial`` is the c in kappa_{e*c}.  Over the circle the
    generator is gamma with power degree(c)/2; over SU(2) it is c2 with
    power degree(c)/4.  A file's ``expected`` annotations are KappaValues too.
    The coefficient is taken as :func:`errors.exact_rational` takes it: an
    ``int`` stays an ``int``, with the equality, hash and text of the equal
    Fraction, so a localized value builds no Fraction.
    """

    __slots__ = ("class_monomial", "coefficient", "generator", "generator_power")
    class_monomial: CharClassMonomial
    coefficient: Union[int, Fraction]
    generator: str
    generator_power: int

    def __post_init__(self):
        object.__setattr__(self, "coefficient", exact_rational(self.coefficient))
        deg = self.class_monomial.degree
        if self.generator == GAMMA:
            expected = deg // 2
        elif self.generator == C2:
            if deg % 4:
                raise DomainError(
                    f"degree {deg} is not divisible by 4: no c2-power carries it"
                )
            expected = deg // 4
        else:
            raise DomainError(f"unknown generator '{self.generator}'")
        if strict_index(self.generator_power) != expected:
            raise DomainError(
                f"generator power {self.generator_power} does not match "
                f"degree {deg} of {self.class_monomial} on {self.generator}"
            )
        object.__setattr__(self, "generator_power", expected)

    def to_json_dict(self) -> dict:
        return {
            "class": str(self.class_monomial),
            "coefficient": str(self.coefficient),
            "generator": self.generator,
            "power": self.generator_power,
        }


def validate_fixed_data(d: FixedPointData) -> list[Diagnostic]:
    """Structural checks; errors make the data unusable, infos are advisory.

    The checks run once per object: later calls, and the localization
    functions, reuse the diagnostics kept on ``d``.
    """
    stored = getattr(d, "_diagnostics", None)
    if stored is None:
        stored = tuple(_diagnose(d))
        object.__setattr__(d, "_diagnostics", stored)
    return list(stored)


def _diagnose(d: FixedPointData) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    n = d.fiber_half_dim
    for name, weights in zip(d._names, d._rows):
        if len(weights) != n:
            out.append(
                Diagnostic(
                    "error",
                    f"component '{name}': expected {n} weights, "
                    f"got {len(weights)}",
                )
            )
        elif 0 in weights:
            out.append(
                Diagnostic(
                    "info",
                    f"component '{name}': zero weight present, so the "
                    "component is not isolated in that tangent plane",
                )
            )
    if d.fiber_euler_char is not None:
        total = sum(d._chis)
        if total != d.fiber_euler_char:
            out.append(
                Diagnostic(
                    "error",
                    f"Euler characteristic mismatch: components sum to {total}, "
                    f"fiber_euler_char is {d.fiber_euler_char}",
                )
            )
    return out


def _require_usable(d: FixedPointData) -> None:
    diagnostics = getattr(d, "_diagnostics", None)
    if diagnostics is None:
        diagnostics = validate_fixed_data(d)
    errors = [diag for diag in diagnostics if diag.severity == "error"]
    if errors:
        raise DomainError("; ".join(diag.message for diag in errors))


def _require_same_fiber(d: FixedPointData, c: CharClassMonomial) -> None:
    if c.fiber_half_dim != d.fiber_half_dim:
        raise DomainError(
            f"monomial is for fiber half-dimension {c.fiber_half_dim}, "
            f"data has {d.fiber_half_dim}"
        )


def _weight_rows(d: FixedPointData, signed: bool) -> Iterator[tuple[WeightVector, int, int]]:
    """``(row, chi_sum, signed_chi_sum)`` per distinct row of sorted absolute weights.

    A p-class sees only the absolute weights, the Euler class also the sign
    of their product: ``signed_chi_sum`` sums chi * sign(prod w), sign 0 for a
    zero weight, and stays 0 unless ``signed``.  Rows come in order of first
    appearance, and a row whose sums cancel still comes: its value may raise.
    Chi is first summed per raw row, which hashes as it is, so the sorted
    key and the sign are made once per distinct raw row, not per component.
    """
    raw_sums: dict[tuple[int, ...], int] = {}
    for w, chi in zip(d._rows, d._chis):
        raw_sums[w] = raw_sums.get(w, 0) + chi
    chi_sums: dict[tuple[int, ...], int] = {}
    signed_sums: dict[tuple[int, ...], int] = {}
    for w, chi in raw_sums.items():
        row = tuple(sorted(map(abs, w)))
        chi_sums[row] = chi_sums.get(row, 0) + chi
        product = prod(w) if signed else 0
        if product:
            signed_sums[row] = signed_sums.get(row, 0) + (chi if product > 0 else -chi)
    for row, chi in chi_sums.items():
        yield WeightVector._trusted(row), chi, signed_sums.get(row, 0)


def localize_circle(d: FixedPointData, c: CharClassMonomial) -> KappaValue:
    """Coefficient of the kappa_{e*c} pullback on gamma^(deg(c)/2).

    Sum over fixed components of chi times the weight evaluation of c, with
    one evaluation per distinct row of absolute weights, carrying the Euler
    sign in a signed chi sum (:func:`_weight_rows`).
    """
    _require_usable(d)
    _require_same_fiber(d, c)
    odd = c.e_exponent % 2 == 1
    coeff = sum(
        sigma_eval(c, row) * (signed_chi if odd else chi)
        for row, chi, signed_chi in _weight_rows(d, odd)
    )
    return KappaValue(c, coeff, GAMMA, c.degree // 2)


def gamma_to_c2(kv: KappaValue) -> KappaValue:
    """Rewrite gamma^(2j) as c2^j; odd gamma-powers have no preimage."""
    if kv.generator != GAMMA:
        raise DomainError(f"expected a gamma-value, got generator '{kv.generator}'")
    if kv.generator_power % 2:
        raise DomainError(
            f"gamma^{kv.generator_power} has odd exponent and is not the "
            "restriction of any class from the SU(2) classifying space"
        )
    return KappaValue(kv.class_monomial, kv.coefficient, C2, kv.generator_power // 2)


def pullback_su2(d: FixedPointData, i: int) -> tuple[KappaValue, Union[int, Fraction]]:
    """Kappa_{e*p_i} on c2^i together with b_i = coefficient / chi(W).

    b_i is an ``int`` when chi(W) divides the coefficient, else a Fraction.
    """
    n = d.fiber_half_dim
    i = strict_index(i)
    if not 1 <= i <= n:
        raise DomainError(f"index {i} outside 1..{n}")
    if d.fiber_euler_char is None:
        raise DomainError(
            "fiber Euler characteristic is required to normalize b_i"
        )
    if d.fiber_euler_char == 0:
        raise DomainError("fiber Euler characteristic 0 leaves b_i undefined")
    kv = gamma_to_c2(localize_circle(d, CharClassMonomial.pontryagin(i, n)))
    b_i, rest = divmod(kv.coefficient, d.fiber_euler_char)
    if rest:
        from fractions import Fraction  # here: an integral b_i needs no fractions

        b_i = Fraction(kv.coefficient, d.fiber_euler_char)
    return kv, b_i


# ---------------------------------------------------------------------------
# JSON interchange format
# ---------------------------------------------------------------------------

class ExpectedComparison(Record):
    __slots__ = ("expected", "computed")
    expected: KappaValue
    computed: KappaValue

    @property
    def matches(self) -> bool:
        return self.computed == self.expected


class FixedPointFile(Record):
    """Parsed contents of a fixed-point data file, annotations included."""

    __slots__ = ("data", "expected", "provenance")
    _defaults = (None, None)
    data: FixedPointData
    expected: Optional[tuple[KappaValue, ...]]
    provenance: Optional[str]


def compare_expected(
    data: FixedPointData, expected: Sequence[KappaValue]
) -> list[ExpectedComparison]:
    """Localize every annotated class and pair it with its expectation.

    The data is validated once and the annotated classes are analysed once
    (:func:`symalg._analyse`); then each distinct row of absolute weights
    is evaluated against all of them from one shared pass, weighted by its
    chi sum, or by its signed chi sum for a class with an odd e-exponent.
    Values and errors are those of :func:`localize_circle` per annotation.
    """
    if not expected:  # nothing is localized, so nothing is validated
        return []
    _require_usable(data)
    monomials = [ev.class_monomial for ev in expected]
    for c in monomials:
        _require_same_fiber(data, c)
    odd = [c.e_exponent % 2 for c in monomials]
    analysis = _analyse(monomials, data.fiber_half_dim)
    coeffs = [0] * len(monomials)
    for row, chi, signed_chi in _weight_rows(data, any(odd)):
        for j, value in enumerate(_evaluate(analysis, row.weights)):
            coeffs[j] += value * (signed_chi if odd[j] else chi)
    out = []
    for ev, coeff in zip(expected, coeffs):
        c = ev.class_monomial
        kv = KappaValue(c, coeff, GAMMA, c.degree // 2)
        if ev.generator == C2:
            kv = gamma_to_c2(kv)
        out.append(ExpectedComparison(ev, kv))
    return out


_TOP_KEYS = {"fiber_half_dim", "fiber_euler_char", "components", "expected", "provenance"}
_COMPONENT_KEYS = {"name", "euler_char", "weights"}
_EXPECTED_KEYS = {"class", "coefficient", "generator", "power"}


def _plain_int(value, where: str) -> int:
    # bool is an int subclass; JSON true/false must not sneak in as 1/0
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed, key=str)  # a library caller's keys need not be strings
    if unknown:
        raise ParseError(f"unknown key '{clip(str(unknown[0]))}' in {where}")


def _checked_component(raw, idx: int) -> tuple:
    """Name, chi and weights of a component not of exact JSON shape, or ParseError.

    The checks run in the order of the reference parser, so the first to
    fail names the problem; an int subclass comes back as a plain int.
    """
    where = f"components[{idx}]"
    if not isinstance(raw, dict):
        raise ParseError(f"{where} must be an object")
    _reject_unknown(raw, _COMPONENT_KEYS, where)
    name, euler_char, weights = raw.get("name"), raw.get("euler_char"), raw.get("weights")
    if not isinstance(name, str):
        raise ParseError(f"{where}: 'name' must be a string")
    euler_char = strict_index(_plain_int(euler_char, f"{where}: 'euler_char'"))
    if not isinstance(weights, list) or not weights:
        raise ParseError(f"{where}: 'weights' must be a non-empty array")
    return name, euler_char, [strict_index(_plain_int(a, f"{where}: weight")) for a in weights]


def parse_fixed_point_payload(obj) -> FixedPointFile:
    """Validate a decoded JSON object against the fixed-point file schema."""
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    _reject_unknown(obj, _TOP_KEYS, "fixed-point data")
    if "fiber_half_dim" not in obj:
        raise ParseError("missing key 'fiber_half_dim'")
    n = _plain_int(obj["fiber_half_dim"], "'fiber_half_dim'")
    if n < 1:
        raise ParseError(f"'fiber_half_dim' must be >= 1, got {n}")
    if n > MAX_RESULT_ENTRIES:  # every class monomial of the file has n exponents
        raise ParseError(f"'fiber_half_dim' must be <= {MAX_RESULT_ENTRIES}, got {n}")
    chi = None
    if "fiber_euler_char" in obj:
        chi = _plain_int(obj["fiber_euler_char"], "'fiber_euler_char'")
    raw_components = obj.get("components")
    if not isinstance(raw_components, list):
        raise ParseError("'components' must be an array")
    names, chis, rows = [], [], []
    for idx, raw in enumerate(raw_components):
        # exact JSON shape passes one test: a dict of three keys whose values
        # have the schema's types has exactly the schema's keys
        if (
            type(raw) is dict
            and len(raw) == 3
            and type(name := raw.get("name")) is str
            and type(euler_char := raw.get("euler_char")) is int
            and type(weights := raw.get("weights")) is list
            and weights
        ):
            for a in weights:
                if type(a) is not int:
                    name, euler_char, weights = _checked_component(raw, idx)
                    break
        else:
            name, euler_char, weights = _checked_component(raw, idx)
        names.append(name)
        chis.append(euler_char)
        rows.append(tuple(weights))
    data = FixedPointData._trusted(n, tuple(names), tuple(chis), tuple(rows), chi)

    expected = None
    if "expected" in obj:
        raw_expected = obj["expected"]
        if not isinstance(raw_expected, list):
            raise ParseError("'expected' must be an array")
        parsed = []
        for idx, raw in enumerate(raw_expected):
            where = f"expected[{idx}]"
            if not isinstance(raw, dict):
                raise ParseError(f"{where} must be an object")
            _reject_unknown(raw, _EXPECTED_KEYS, where)
            cls_text = raw.get("class")
            if not isinstance(cls_text, str):
                raise ParseError(f"{where}: 'class' must be a string")
            monomial = parse_class_monomial(cls_text, n)
            coeff_raw = raw.get("coefficient")
            if isinstance(coeff_raw, bool) or not isinstance(coeff_raw, (int, str)):
                raise ParseError(
                    f"{where}: 'coefficient' must be an integer or a 'p/q' string"
                )
            coefficient = coeff_raw  # an int, which KappaValue takes as exact_rational does
            try:
                if isinstance(coeff_raw, str):
                    coefficient = rational_literal(coeff_raw)
            except ParseError as exc:  # over the digit limit
                raise ParseError(f"{where}: {exc}") from None
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"{where}: bad coefficient {coeff_raw!r}") from None
            generator = raw.get("generator")
            if generator not in (GAMMA, C2):
                raise ParseError(f"{where}: 'generator' must be 'gamma' or 'c2'")
            power = _plain_int(raw.get("power"), f"{where}: 'power'")
            try:
                parsed.append(KappaValue(monomial, coefficient, generator, power))
            except DomainError as exc:
                raise ParseError(f"{where}: {exc}") from None
        expected = tuple(parsed)

    provenance = None
    if "provenance" in obj:
        provenance = obj["provenance"]
        if not isinstance(provenance, str):
            raise ParseError("'provenance' must be a string")
    return FixedPointFile(data, expected, provenance)


def read_fixed_point_file(path) -> FixedPointFile:
    """Read and parse a fixed-point data file; the int-string limit and the collector stay as set.

    An integer of more digits than :func:`int_digit_limit` is refused as
    int() refuses it under that limit, also where the caller lifted it.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = _json_loads(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read '{path}': {exc}") from None
    except (ValueError, RecursionError) as exc:
        # bad JSON, non-UTF-8 bytes and over-long integers raise ValueError,
        # deep nesting RecursionError
        raise ParseError(f"'{path}' is not valid JSON: {exc}") from None
    try:
        return parse_fixed_point_payload(obj)
    except ParseError as exc:
        raise ParseError(f"'{path}': {exc}") from None


def fixed_point_payload(
    data: FixedPointData,
    expected: Optional[Sequence[KappaValue]] = None,
    provenance: Optional[str] = None,
) -> dict:
    """Build the JSON-serializable payload for a fixed-point data file."""
    payload: dict = {
        "fiber_half_dim": data.fiber_half_dim,
        "components": [
            {"name": name, "euler_char": chi, "weights": list(weights)}
            for name, chi, weights in zip(data._names, data._chis, data._rows)
        ],
    }
    if data.fiber_euler_char is not None:
        payload["fiber_euler_char"] = data.fiber_euler_char
    if expected:
        payload["expected"] = [ev.to_json_dict() for ev in expected]
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def write_fixed_point_file(
    path,
    data: FixedPointData,
    expected: Optional[Sequence[KappaValue]] = None,
    provenance: Optional[str] = None,
) -> None:
    """Write the data file, or raise DomainError and write nothing.

    A number of more digits than :func:`int_digit_limit`, which
    :func:`read_fixed_point_file` would refuse, is refused before any is
    formatted.  A path that cannot be opened for writing raises ParseError,
    as one that cannot be read does.
    """
    numbers = [data.fiber_half_dim, data.fiber_euler_char or 0, *data._chis, *chain(*data._rows)]
    for ev in expected or ():  # the class text formats its exponents too
        m, c = ev.class_monomial, ev.coefficient
        numbers += (*m.p_exponents, m.e_exponent, ev.generator_power, c.numerator, c.denominator)
    if _ints_over(numbers):
        raise DomainError(
            f"{path}: not written: a number in it would exceed the "
            f"{int_digit_limit()}-digit limit that reading the file enforces"
        )
    text = json.dumps(fixed_point_payload(data, expected, provenance), indent=2, sort_keys=True)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise ParseError(f"cannot write '{path}': {exc}") from None


def kappa_class_label(c: CharClassMonomial) -> str:
    """Display name of kappa_{e*c}, with the implicit Euler factor folded in."""
    return str(reduce_monomial(CharClassMonomial.euler(c.fiber_half_dim) * c))
