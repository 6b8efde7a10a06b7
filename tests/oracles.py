"""Reference implementations the tests compare the package against.

Each one computes its answer the slow, direct way and has no caller in
the package itself.  One shared check holds the frozen-record result
types to the frozen-dataclass behaviour they replaced.
"""

import copy
import itertools
import math
import pickle
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

import pytest

from kappa_forge import symalg
from kappa_forge.errors import (
    _EXPONENT,
    MAX_RESULT_ENTRIES,
    DomainError,
    ParseError,
    Record,
    bounded_fraction,
    clip,
    int_digit_limit,
    over_digit_limit,
)
from kappa_forge.localization import (
    C2,
    GAMMA,
    ExpectedComparison,
    FixedComponent,
    FixedPointData,
    FixedPointFile,
    KappaValue,
    _require_same_fiber,
    _require_usable,
    gamma_to_c2,
)
from kappa_forge.su2rep import RealRep, WeightMultiset
from kappa_forge.symalg import CharClassMonomial, WeightVector, parse_class_monomial

if TYPE_CHECKING:
    from kappa_forge.symalg import WeightsLike


def check_frozen_record(value: Record, text: str) -> None:
    """Check ``value`` behaves as the ``@dataclass(frozen=True)`` it replaced did.

    ``text`` is the repr that dataclass printed for the same value.  Python's
    own exceptions are the reference: a missing or unknown argument is a
    TypeError, assignment and deletion an AttributeError.
    """
    cls = type(value)
    names = cls._fields
    values = tuple(getattr(value, name) for name in names)
    assert repr(value) == text
    for same in (cls(*values), cls(**dict(zip(names, values)))):
        assert same == value and not same != value
        assert hash(same) == hash(value)
    # the same name, fields and values in another class: never equal
    twin = type(cls.__name__, (Record,), {"__slots__": names})(*values)
    assert repr(twin) == text
    assert twin != value and value != twin
    assert value != values
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert tuple(getattr(value, name) for name in names) == values
    for restored in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(restored) is cls
        assert restored == value and hash(restored) == hash(value)
        assert repr(restored) == text
    required = len(names) - len(cls._defaults)
    with pytest.raises(TypeError):
        cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(*values, unknown_field=1)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def signed_doubling_sigma(i: int, w: "WeightsLike") -> int:
    """(-1)^i sigma_{2i} of the doubled signed list (a_1, -a_1, ..., a_n, -a_n).

    Expanded term by term over all 2i-element subsets, deliberately without
    the symmetric-function shortcut: mixed terms cancel in pairs, so this
    serves as the independent cross-check that the p_i evaluation rule in
    :func:`kappa_forge.symalg.sigma_eval` equals sigma_i of the squares.
    """
    w = WeightVector.of(w)
    n = len(w)
    if i < 0 or i > n:
        raise DomainError(f"index {i} outside 0..{n}")
    doubled = []
    for a in w.weights:
        doubled.append(a)
        doubled.append(-a)
    total = sum(math.prod(combo) for combo in itertools.combinations(doubled, 2 * i))
    return (-1) ** i * total


# ---------------------------------------------------------------------------
# monomial evaluation that scans every exponent on every call
# ---------------------------------------------------------------------------
# The evaluation the package used before each monomial was analysed once when
# built: the top index and the factors are found anew per weight row, every
# value runs over the full truncated range, and factors multiply one at a
# time.  Kept as the reference the analysed evaluation must agree with,
# value for value and refusal for refusal.  It applies the value limit by
# its rule, read from ``symalg.MAX_VALUE_BITS`` but with no check of the
# package, so a wrong check there shows as a difference.

def top_index(c: CharClassMonomial) -> int:
    """Highest i with a non-zero exponent of p_i in ``c`` (0 if none)."""
    exps = c.p_exponents
    top = len(exps)
    while top and not exps[top - 1]:
        top -= 1
    return top


def elementary_upto(top: int, values) -> list:
    """[sigma_0, ..., sigma_top] of ``values``, every coefficient updated for every value."""
    coeffs = [1] + [0] * top
    for v in values:
        for j in range(top, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs


def eval_from(c: CharClassMonomial, e, euler: int) -> int:
    """The monomial's value, scanning all n exponents and multiplying one factor at a time.

    The value limit's rule: a factor 0 gives 0, never refused.  Otherwise
    the value is refused when, for a power p_i^k with k > 1 or e^k with
    k >= 1, the bit length of the product before it plus k*(bits(base) - 1)
    passes the limit, or, for a run of exponent-1 p-factors (exponents 0
    between them do not end it), the bit length of the product before the
    run plus bits(e_i) - 1 for each of its factors does.
    """
    exps = c.p_exponents
    if any(k and not e[i] for i, k in enumerate(exps, start=1)) or (c.e_exponent and not euler):
        return 0
    limit = symalg.MAX_VALUE_BITS

    def check(bits):
        if bits > limit:
            raise DomainError(f"the value of {c} would exceed the limit of {limit} bits")

    total, run_bits = 1, None  # run_bits: the bound of the open run of exponent-1 factors
    for i, k in enumerate(exps, start=1):
        if not k:
            continue
        if k == 1:
            run_bits = (total.bit_length() if run_bits is None else run_bits) + e[i].bit_length() - 1
        else:
            if run_bits is not None:
                check(run_bits)
                run_bits = None
            check(total.bit_length() + k * (e[i].bit_length() - 1))
        total *= e[i] ** k
    if run_bits is not None:
        check(run_bits)
    if c.e_exponent:
        check(total.bit_length() + c.e_exponent * (abs(euler).bit_length() - 1))
        total *= euler ** c.e_exponent
    return total


def sigma_eval_many(monomials, w: "WeightsLike") -> list:
    """Every monomial's value against ``w``, each analysed anew."""
    w = WeightVector.of(w)
    n = len(w.weights)
    top, needs_euler = 0, False
    for c in monomials:
        if c.fiber_half_dim != n:
            raise DomainError(
                f"weight vector has {n} entries, monomial expects {c.fiber_half_dim}"
            )
        top = max(top, top_index(c))
        needs_euler = needs_euler or c.e_exponent > 0
    e = elementary_upto(top, [a * a for a in w.weights])
    euler = math.prod(w.weights) if needs_euler else 1
    return [eval_from(c, e, euler) for c in monomials]


def sigma_eval(c: CharClassMonomial, w: "WeightsLike") -> int:
    return sigma_eval_many((c,), w)[0]


def gcd_power_of_two(values: Iterable[int]) -> bool:
    """True iff the gcd of the absolute values is 1, 2, 4, 8, ...

    The gcd of an all-zero list is 0, which is not a power of 2.
    """
    vals = [abs(int(v)) for v in values]
    if not vals:
        raise DomainError("gcd of an empty list is undefined")
    g = 0
    for v in vals:
        g = math.gcd(g, v)
    return g > 0 and g & (g - 1) == 0


def self_map_degree_realizable(d: int) -> bool:
    """True iff d occurs as the loop-degree of a self-map: 0 or an odd square."""
    d = int(d)
    if d == 0:
        return True
    if d < 0 or d % 2 == 0:
        return False
    root = math.isqrt(d)
    return root * root == d


@dataclass(frozen=True)
class ComplexIrrep:
    """Irreducible complex representation, labelled by twice its spin."""

    two_lambda: int

    def __post_init__(self):
        if int(self.two_lambda) < 0:
            raise DomainError(f"twice-spin must be >= 0, got {self.two_lambda}")
        object.__setattr__(self, "two_lambda", int(self.two_lambda))

    @property
    def dim(self) -> int:
        return self.two_lambda + 1


def complex_irrep_weights(v: ComplexIrrep) -> tuple[int, ...]:
    """Torus weights -2l, -2l+2, ..., 2l of the complex irreducible."""
    return tuple(range(-v.two_lambda, v.two_lambda + 1, 2))


def rep_of_dims(dims: Iterable[int]) -> RealRep:
    """The direct sum of one real irreducible per entry of ``dims``."""
    return RealRep(tuple((d, 1) for d in dims))


def real_irrep_complexification(d: int) -> tuple[ComplexIrrep, ...]:
    """Complexify the real irreducible of dimension ``d``.

    Odd dimension d gives the complex irreducible of twice-spin d - 1;
    dimension 4q gives two copies of the one with twice-spin 2q - 1.
    """
    if d % 2 == 1:
        return (ComplexIrrep(d - 1),)
    return (ComplexIrrep(d // 2 - 1),) * 2


def restrict_via_complexification(rep: RealRep) -> WeightMultiset:
    """Torus restriction from the full signed complex weight list.

    Expands every summand's complexification and folds the weights into
    planes: the positive ones each give a plane, the zeros pair up.
    """
    complex_weights: list[int] = []
    for d, mult in rep.terms:
        for irr in real_irrep_complexification(d):
            complex_weights.extend(complex_irrep_weights(irr) * mult)
    positive = sorted((x for x in complex_weights if x > 0), reverse=True)
    zeros = sum(1 for x in complex_weights if x == 0)
    return WeightMultiset(tuple(positive) + (0,) * (zeros // 2))


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of the tangential-weight constraints, with failure reasons."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_weight_constraints(w: WeightMultiset, d: int) -> ConstraintCheck:
    """Constraints satisfied by every non-trivial d-dimensional real representation.

    The folded weights must stay below d in absolute value and at least one
    must be 1 or 2.
    """
    w = WeightMultiset.of(w)
    if d <= 0 or d % 2:
        raise DomainError(f"real dimension must be positive and even, got {d}")
    if len(w) != d // 2:
        raise DomainError(
            f"weight multiset has {len(w)} entries, dimension {d} needs {d // 2}"
        )
    failures = []
    top = max(w.entries)
    if top > d - 1:
        failures.append(f"largest weight {top} exceeds the bound {d - 1}")
    if not any(a in (1, 2) for a in w.entries):
        failures.append("no weight of absolute value 1 or 2")
    return ConstraintCheck(not failures, tuple(failures))


# The fixed-point file parser as it was before its component loop got a lean
# path: every entry goes through the checks and the public constructors.
# Kept as the reference the lean parser must agree with, value for value and
# error for error; only its unknown-key message changed with the package's
# (keys sorted as text, quoted by their first 20 characters).

_TOP_KEYS = {"fiber_half_dim", "fiber_euler_char", "components", "expected", "provenance"}
_COMPONENT_KEYS = {"name", "euler_char", "weights"}
_EXPECTED_KEYS = {"class", "coefficient", "generator", "power"}


def _plain_int(value, where: str) -> int:
    # bool is an int subclass; JSON true/false must not sneak in as 1/0
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed, key=str)
    if unknown:
        raise ParseError(f"unknown key '{clip(str(unknown[0]))}' in {where}")


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
    components = []
    for idx, raw in enumerate(raw_components):
        where = f"components[{idx}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where} must be an object")
        _reject_unknown(raw, _COMPONENT_KEYS, where)
        name = raw.get("name")
        if not isinstance(name, str):
            raise ParseError(f"{where}: 'name' must be a string")
        euler_char = _plain_int(raw.get("euler_char"), f"{where}: 'euler_char'")
        raw_weights = raw.get("weights")
        if not isinstance(raw_weights, list) or not raw_weights:
            raise ParseError(f"{where}: 'weights' must be a non-empty array")
        weights = [_plain_int(a, f"{where}: weight") for a in raw_weights]
        components.append(FixedComponent(name, euler_char, WeightVector(tuple(weights))))
    data = FixedPointData(n, tuple(components), chi)

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
            try:
                if isinstance(coeff_raw, int):
                    coefficient = Fraction(coeff_raw)
                else:
                    coefficient = bounded_fraction(coeff_raw)
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


# ---------------------------------------------------------------------------
# localization one fixed component at a time
# ---------------------------------------------------------------------------
# The per-component loops the package used before it grouped components by
# their row of absolute weights; kept as the reference the grouped sums must
# agree with, value for value and error for error.  They evaluate with the
# reference above, so they check the analysed evaluation as well.

def localize_circle(d: FixedPointData, c: CharClassMonomial) -> KappaValue:
    """Sum over fixed components of chi times the weight evaluation of c."""
    _require_usable(d)
    _require_same_fiber(d, c)
    coeff = sum(
        comp.euler_char * sigma_eval(c, comp.weights) for comp in d.components
    )
    return KappaValue(c, Fraction(coeff), GAMMA, c.degree // 2)


def compare_expected(data: FixedPointData, expected) -> list:
    """Every annotated class localized by one shared pass per component."""
    if not expected:
        return []
    _require_usable(data)
    monomials = [ev.class_monomial for ev in expected]
    for c in monomials:
        _require_same_fiber(data, c)
    coeffs = [0] * len(monomials)
    for comp in data.components:
        chi = comp.euler_char
        for j, value in enumerate(sigma_eval_many(monomials, comp.weights)):
            coeffs[j] += chi * value
    out = []
    for ev, coeff in zip(expected, coeffs):
        c = ev.class_monomial
        kv = KappaValue(c, Fraction(coeff), GAMMA, c.degree // 2)
        if ev.generator == C2:
            kv = gamma_to_c2(kv)
        out.append(ExpectedComparison(ev, kv))
    return out


# The rational and weight-list readers as they were while they held the digit
# bound by setting the interpreter's int-string limit around int() and
# Fraction(), and the file reader's digit scan before it probed only every
# (limit + 1)-th character; a test owns its process, so these may set the limit.


@contextmanager
def int_digit_scope(limit: int):
    """Hold the interpreter's int-string digit limit at ``limit`` (0 lifts it) in a ``with`` block.

    The previous limit comes back on exit, exception or not; a no-op before Python 3.10.7.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    previous = get and get()
    if previous is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def has_digit_run_over(text: str, limit: int) -> bool:
    """Whether ``text`` has a run of more than ``limit`` ASCII digits, by a pass over every byte."""
    # each ASCII digit as a NUL byte, so that a run of digits is a run of NULs
    nul_digits = text.encode().translate(bytes.maketrans(b"0123456789", bytes(10)))
    return nul_digits.find(bytes(limit + 1)) >= 0


def bounded_fraction_in_scope(text: str):
    """``Fraction(text)`` under the limit, refusing a numerator or denominator over it."""
    import re

    limit = int_digit_limit()
    m = re.match(_EXPONENT, text.strip())
    try:
        with int_digit_scope(limit):
            huge_exponent = m and abs(int(m.group(2))) > limit + len(m.group(1))
            value = Fraction(m.group(1) if huge_exponent else text)
    except ValueError as exc:
        try:
            Fraction(re.sub(r"\d+", "1", text))
        except ValueError:
            raise exc from None
        over = True
    else:
        top = max(abs(value.numerator), value.denominator)
        over = value != 0 if huge_exponent else top.bit_length() > 3 * limit and top >= 10**limit
    if over:
        raise over_digit_limit(f"rational '{text[:20]}...' has a numerator or denominator")
    return value


def parse_weight_list_in_scope(text: str) -> list[int]:
    """The integers of a comma-separated weight list, each read by int() under the limit."""
    if not text.strip():
        raise ParseError("empty weight list")
    out = []
    with int_digit_scope(int_digit_limit()):
        for token in text.split(","):
            token = token.strip()
            try:
                out.append(int(token))
            except ValueError:
                digits = token[1:] if token[:1] in "+-" else token
                if digits.isdecimal():
                    raise over_digit_limit(f"bad weight '{clip(token)}' is") from None
                raise ParseError(f"bad weight '{clip(token)}'") from None
    return out
