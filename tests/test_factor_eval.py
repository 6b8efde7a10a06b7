"""The evaluation from each monomial's one-time analysis, against the full scan.

A ``CharClassMonomial`` keeps its top p-index and its non-zero factors in
a private slot, and its degree in another, filled when it is built (also by
the builders that skip the per-exponent checks); ``sigma_eval_many`` reads that
slot, the truncated pass skips coefficients that are still zero, and runs
of exponent-1 factors multiply as balanced products.  The reference in
``oracles`` finds the factors anew on every call and multiplies one at a
time.  The value limit is lowered to 256 bits here, so that refusals are
common: a refused value must be refused with the same text, for the same
first row and the same first monomial.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kappa_forge import symalg
from kappa_forge.errors import DomainError, ParseError
from kappa_forge.localization import (
    C2, GAMMA, FixedComponent, FixedPointData, KappaValue, compare_expected, localize_circle,
    pullback_su2,
)
from kappa_forge.symalg import (
    CharClassMonomial,
    parse_class_monomial,
    reduce_monomial,
    sigma_eval,
    sigma_eval_many,
)

import oracles
from test_one_pass import outcome
from test_weight_rows import grouped_data

SMALL_LIMIT = 256

# 0 and +-1 leave bit lengths alone; 1000 and 2**40 push past the small limit
WEIGHT = st.integers(-3, 3) | st.sampled_from([1000, -1000, 2**40])


def weights(n):
    return st.lists(WEIGHT, min_size=n, max_size=n)


def monomials(n):
    return st.builds(
        CharClassMonomial,
        st.just(n),
        st.tuples(*[st.integers(0, 3)] * n),
        st.integers(0, 3),
    )


@st.composite
def annotations(draw, n):
    """0 to 4 classes, each on a generator its degree allows."""
    out = []
    for c in draw(st.lists(monomials(n), max_size=4)):
        generator = C2 if c.degree % 4 == 0 and draw(st.booleans()) else GAMMA
        power = c.degree // 4 if generator == C2 else c.degree // 2
        out.append(KappaValue(c, Fraction(0), generator, power))
    return out


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_sigma_eval_many_matches_the_full_scan(n, data):
    w = data.draw(weights(n))
    cs = data.draw(st.lists(monomials(n), max_size=5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symalg, "MAX_VALUE_BITS", SMALL_LIMIT)
        assert outcome(sigma_eval_many, cs, w) == outcome(oracles.sigma_eval_many, cs, w)
        for c in cs:
            assert outcome(sigma_eval, c, w) == outcome(oracles.sigma_eval, c, w)


def late_single_overflow(rows, texts):
    """Data of one component per row and a c2 or gamma annotation per class text, n = 3.

    Under the small limit p3 fits on (1, 2, 3) and (2**100, 1, 1) but not on
    (2**43,) * 3, where e_3 has 259 bits; p1*e fits there, e_1 having 88
    bits and the Euler product 130, but not on (2**100, 1, 1).  So the
    order of the rows and of the classes decides which refusal comes first.
    """
    comps = tuple(FixedComponent(f"m{j}", 1, row) for j, row in enumerate(rows))
    expected = []
    for text in texts:
        c = parse_class_monomial(text, 3)
        generator = C2 if c.degree % 4 == 0 else GAMMA
        expected.append(KappaValue(c, 0, generator, c.degree // (4 if generator == C2 else 2)))
    return FixedPointData(3, comps, len(comps)), expected


SMALL, P3_OVER, P1E_OVER = (1, 2, 3), (2**43,) * 3, (2**100, 1, 1)


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 8).flatmap(lambda n: st.tuples(grouped_data(n), annotations(n))))
# the single p3 overflows on a later row, next to a product class that fits there
@example(case=late_single_overflow([SMALL, P3_OVER, P1E_OVER], ["p1*e", "p3"]))
@example(case=late_single_overflow([SMALL, P3_OVER, P1E_OVER], ["p3", "p1*e"]))
# the product class overflows on an earlier row than the single p3
@example(case=late_single_overflow([SMALL, P1E_OVER, P3_OVER], ["p3", "p1*e"]))
# a second component of the first row, re-signed and reordered, is no new row
@example(case=late_single_overflow([SMALL, (3, -2, 1), P3_OVER], ["p1*e", "p2", "p3"]))
def test_localization_matches_the_full_scan(case):
    d, expected = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symalg, "MAX_VALUE_BITS", SMALL_LIMIT)
        for ev in expected:
            c = ev.class_monomial
            assert outcome(localize_circle, d, c) == outcome(oracles.localize_circle, d, c)
        assert outcome(compare_expected, d, expected) == outcome(
            oracles.compare_expected, d, expected
        )


@pytest.mark.parametrize(
    "text, w, refused",
    [
        # eight exponent-1 factors, 751 bits in all: a run counts like a power
        ("p1*p2*p3*p4*p5*p6*p7*p8", (1000,) * 8, True),
        # p4^3 alone has 240 bits; the run p1*p2*p3 before it tips it over
        ("p4^3", (1000,) * 4, False),
        ("p1*p2*p3*p4^3", (1000,) * 4, True),
        # e1 has 62 bits, e2 121 and the Euler product 61
        ("p2^2", (2**30, 2**30), False),
        ("p1*p2^2", (2**30, 2**30), True),
        ("p1*e^3", (2**30, 2**30), False),
        ("p1*p2*e^3", (2**30, 2**30), True),
        # e^1 counts like any power: e1 has 201 bits, the Euler product 101
        ("p1", (2**100,), False),
        ("p1*e", (2**100,), True),
        # a factor 0 makes the value 0, which is never refused
        ("p1^300*p2", (5, 0), False),
        ("e^300*p1", (5, 0), False),
    ],
)
def test_runs_fold_in_before_each_checked_power(text, w, refused):
    c = parse_class_monomial(text, len(w))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symalg, "MAX_VALUE_BITS", SMALL_LIMIT)
        got = outcome(sigma_eval, c, w)
        assert got == outcome(oracles.sigma_eval, c, w)
    assert isinstance(got, tuple) == refused


@st.composite
def deep_monomials(draw, n):
    """A monomial of high p-indices, where the pass from sigma_n down is the cheaper one.

    A single p_i with i > n/2, p_n, or every p_i with i in {j..n}, each to a
    power from 1 to 3; e, e^2 and the empty monomial come along.
    """
    exps, e_exp = [0] * n, 0
    kind = draw(st.sampled_from(["single", "top", "tail", "one", "euler"]))
    if kind == "single":
        exps[draw(st.integers(n // 2 + 1, n)) - 1] = draw(st.integers(1, 3))
    elif kind == "top":
        exps[-1] = draw(st.integers(1, 3))
    elif kind == "tail":
        for i in range(draw(st.integers(1, n)) - 1, n):
            exps[i] = draw(st.integers(1, 3))
    elif kind == "euler":
        e_exp = draw(st.integers(1, 2))
    if kind != "one" and draw(st.booleans()):
        e_exp = draw(st.integers(0, 2))
    return CharClassMonomial(n, tuple(exps), e_exp)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10), data=st.data(), small=st.booleans())
def test_sigma_eval_many_of_high_indices_matches_the_full_scan(n, data, small):
    w = data.draw(weights(n))  # zero weights included
    cs = data.draw(st.lists(deep_monomials(n), min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        if small:
            mp.setattr(symalg, "MAX_VALUE_BITS", SMALL_LIMIT)
        assert outcome(sigma_eval_many, cs, w) == outcome(oracles.sigma_eval_many, cs, w)


def passes_taken(call):
    """The result of ``call()`` and the names of the sigma passes it ran, in order."""
    calls = []

    def spy(name):
        real = getattr(symalg, name)
        return lambda *args: calls.append(name) or real(*args)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_elementary_upto", "_elementary_down"):
            mp.setattr(symalg, name, spy(name))
        return call(), calls


UP, DOWN = "_elementary_upto", "_elementary_down"


@pytest.mark.parametrize(
    "n, texts, pass_taken",
    [
        (4, ["p4"], DOWN),  # n*1 against n*4
        (4, ["p3", "e", "1"], DOWN),  # n*2 against n*3
        (4, ["p2*p3"], UP),  # n*3 against n*3: a tie goes forward
        (4, ["p4", "p2"], DOWN),  # p2..p4: n*3 against n*4
        (4, ["p4", "p1"], UP),
        (1, ["p1"], UP),
        (4, ["e^2", "1"], UP),  # no p-factor: the forward pass stops at sigma_0
    ],
    ids=["p4", "p3,e,1", "p2*p3-tie", "p4,p2", "p4,p1", "n1-p1", "e^2,1"],
)
def test_the_pass_with_fewer_multiply_adds_is_taken(n, texts, pass_taken):
    cs = [parse_class_monomial(text, n) for text in texts]
    w = (3, -1, 0, 2)[:n]
    values, calls = passes_taken(lambda: sigma_eval_many(cs, w))
    assert calls == [pass_taken]
    assert values == oracles.sigma_eval_many(cs, w)


def test_pullback_of_p_n_skips_the_forward_pass_and_of_p1_the_top_down_one():
    rows = [(1, 2, 3, 4), (0, 5, -6, 7), (2, 2, 2, 2), (1000, -1, 3, 2**40)]
    components = tuple(FixedComponent(f"m{j}", j - 1, w) for j, w in enumerate(rows))
    d = FixedPointData(4, components, fiber_euler_char=2)
    for i, pass_taken in ((4, DOWN), (1, UP)):
        (kv, b_i), calls = passes_taken(lambda: pullback_su2(d, i))
        assert calls == [pass_taken] * len(rows)
        expected = oracles.localize_circle(d, CharClassMonomial.pontryagin(i, 4)).coefficient
        assert kv.coefficient == expected and b_i == Fraction(expected, 2)


def test_analysis_slot_stays_out_of_sight():
    c = CharClassMonomial(3, (2, 0, 1), 1)
    assert c._factors == (3, ((1, 2), (3, 1)))
    assert CharClassMonomial.one(4)._factors == (0, ())
    assert CharClassMonomial.euler(4)._factors == (0, ())
    oracles.check_frozen_record(
        c, "CharClassMonomial(fiber_half_dim=3, p_exponents=(2, 0, 1), e_exponent=1)"
    )
    assert "_factors" not in CharClassMonomial._fields
    for restored in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert restored._factors == c._factors
        assert sigma_eval(restored, (1, 2, 3)) == sigma_eval(c, (1, 2, 3))


def reference_degree(c):
    return 4 * sum(i * k for i, k in enumerate(c.p_exponents, start=1)) + 2 * c.fiber_half_dim * c.e_exponent


def assert_as_constructed(c):
    """``c`` equals the constructor's monomial of its fields, private slots included."""
    built = CharClassMonomial(c.fiber_half_dim, c.p_exponents, c.e_exponent)
    assert type(c) is CharClassMonomial
    assert c == built and hash(c) == hash(built) and repr(c) == repr(built)
    assert type(c.fiber_half_dim) is int and type(c.e_exponent) is int
    assert type(c.p_exponents) is tuple and all(type(k) is int for k in c.p_exponents)
    assert c._factors == built._factors
    assert c.degree == built.degree == reference_degree(c)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_builders_give_the_constructors_monomial(n, data):
    a, b = data.draw(monomials(n)), data.draw(monomials(n))
    i = data.draw(st.integers(1, n))
    assert_as_constructed(a)
    for c in (a * b, reduce_monomial(a), reduce_monomial(a * b),
              CharClassMonomial.one(n), CharClassMonomial.euler(n),
              CharClassMonomial.pontryagin(i, n)):
        assert_as_constructed(c)
    assert (a * b).degree == a.degree + b.degree
    assert CharClassMonomial.pontryagin(i, n).degree == 4 * i


@st.composite
def monomial_texts(draw, n):
    """The text of a drawn monomial, its exponents split into factors, shuffled, spaced and cased."""
    exps = draw(st.tuples(*[st.integers(0, 3)] * n))
    e_exp = draw(st.integers(0, 3))
    factors = []
    for name, k in [("e", e_exp), *((f"p{i}", k) for i, k in enumerate(exps, start=1))]:
        while k:
            part = draw(st.integers(1, k))
            factors.append(name if part == 1 and draw(st.booleans()) else f"{name}^{part}")
            k -= part
        if draw(st.integers(0, 4)) == 0:
            factors.append(f"{name}^0")
    text = draw(st.sampled_from(["*", " * ", "*\t"])).join(draw(st.permutations(factors))) or "1"
    return (text.upper() if draw(st.booleans()) else text), exps, e_exp


BAD_FACTORS = st.sampled_from(["q1", "p0", "p1^-1", "", "p", "e^", "p1^2^2", "pp1", "١"])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_parsed_monomial_is_the_constructors(n, data):
    text, exps, e_exp = data.draw(monomial_texts(n))
    parsed = parse_class_monomial(text, n)
    assert parsed == CharClassMonomial(n, exps, e_exp)
    assert_as_constructed(parsed)
    assert parsed._degree == reference_degree(parsed)
    bad = data.draw(BAD_FACTORS | st.just(f"p{n + 1}"))
    factors = text.split("*")
    factors.insert(data.draw(st.integers(0, len(factors))), bad)
    with pytest.raises(ParseError):
        parse_class_monomial("*".join(factors), n)


@pytest.mark.parametrize("text", ["p1", "1", "e*p1", "q1", "", "p1^-1", "p3"])
@pytest.mark.parametrize(
    "n, error", [(0, DomainError), (-2, DomainError), (True, TypeError), (2.0, TypeError), ("2", TypeError)]
)
def test_parse_checks_the_half_dimension_before_the_text(text, n, error):
    with pytest.raises(error):
        parse_class_monomial(text, n)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CharClassMonomial.one(True),
        lambda: CharClassMonomial.euler(True),
        lambda: CharClassMonomial.pontryagin(1, True),
        lambda: CharClassMonomial.one(2.0),
    ],
)
def test_builders_check_the_half_dimension(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build", [CharClassMonomial.one, CharClassMonomial.euler, lambda n: FixedPointData(n, ())]
)
def test_builders_refuse_a_half_dimension_below_one(build):
    with pytest.raises(DomainError, match="fiber half-dimension must be >= 1, got 0"):
        build(0)
