"""Integer and rational arguments are taken exactly or refused, never truncated.

A float, a Fraction, a string or a bool where an integer belongs raises
TypeError (``errors.strict_index``); ``int()`` would silently turn 2.9 into
2, and ``operator.index`` takes True as 1.  A rational argument (a b-vector
entry, a kappa coefficient) is an int, a Fraction or a string; a float or a
bool raises TypeError (``errors.exact_rational``), and a string over the
digit limit raises ParseError, an exponent form before Fraction builds the
number.
"""

import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_forge.catalog import (
    connected_sum_euler,
    rationally_odd_check,
    s2xs2_family,
    wg_hypothesis_report,
)
from kappa_forge._verdict_handlers import _parse_fraction_list
from kappa_forge import localization
from kappa_forge.errors import (
    DomainError, ParseError, bounded_fraction, clip, int_digit_limit, int_digit_scope,
    parse_weight_list, rational_literal,
)
from kappa_forge.localization import (
    GAMMA,
    FixedComponent,
    FixedPointData,
    KappaValue,
    parse_fixed_point_payload,
    pullback_su2,
    read_fixed_point_file,
    write_fixed_point_file,
)
from kappa_forge.obstruction import (
    BVector,
    HypothesisFlags,
    adams_transform,
    betti_feasible,
    nonkinetic_certificate,
)
from kappa_forge.su2rep import RealRep, WeightMultiset
from kappa_forge.symalg import CharClassMonomial, WeightVector, elementary_symmetric

import oracles

P1 = CharClassMonomial(2, (1, 0))
S2XS2 = s2xs2_family(2).data

NOT_INTEGERS = {
    "WeightVector": lambda: WeightVector((1.7, 2.2)),
    "CharClassMonomial-n": lambda: CharClassMonomial(Fraction(2), (1, 0)),
    "CharClassMonomial-p": lambda: CharClassMonomial(2, (1.5, 0)),
    "CharClassMonomial-e": lambda: CharClassMonomial(1, (1,), 1.5),
    "pontryagin-fraction": lambda: CharClassMonomial.pontryagin(1.5, 2),
    "pontryagin-float": lambda: CharClassMonomial.pontryagin(1.0, 2),
    "elementary_symmetric": lambda: elementary_symmetric(1, [1.5, 2]),
    "FixedComponent": lambda: FixedComponent("m", -2.9, WeightVector((1, 2))),
    "FixedPointData-n": lambda: FixedPointData(2.5, ()),
    "FixedPointData-chi": lambda: FixedPointData(2, (), 4.5),
    "KappaValue": lambda: KappaValue(P1, 1, GAMMA, 2.0),
    "pullback_su2-fraction": lambda: pullback_su2(S2XS2, 1.5),
    "pullback_su2-float": lambda: pullback_su2(S2XS2, 1.0),
    "RealRep": lambda: RealRep((("3", 1),)),
    "WeightMultiset": lambda: WeightMultiset((1.5, 0)),
    "adams_transform": lambda: adams_transform(3.9, [1, 2]),
    "nonkinetic_certificate": lambda: nonkinetic_certificate(
        [1, 2], 3.5, HypothesisFlags.all_true()
    ),
    "betti_feasible": lambda: betti_feasible(2.5, 0, 2, 0),
    "s2xs2_family": lambda: s2xs2_family(2.5),
    "connected_sum_euler-chi": lambda: connected_sum_euler(1.5, 2, 4),
    "connected_sum_euler-g": lambda: connected_sum_euler(2, 2.5, 4),
    "connected_sum_euler-dim": lambda: connected_sum_euler(2, 2, "4"),
    "rationally_odd_check": lambda: rationally_odd_check([1, 0, 0.5, 0, 1]),
    "wg_hypothesis_report-n": lambda: wg_hypothesis_report(3.5, 2),
    "wg_hypothesis_report-g": lambda: wg_hypothesis_report(3, Fraction(5, 2)),
    "BVector-float": lambda: BVector((1, 0.1)),
    "BVector-inf": lambda: BVector((float("inf"),)),
    "BVector-nan": lambda: BVector((float("nan"),)),
    "KappaValue-coefficient-float": lambda: KappaValue(P1, 0.5, GAMMA, 2),
    "KappaValue-coefficient-inf": lambda: KappaValue(P1, float("-inf"), GAMMA, 2),
}


@pytest.mark.parametrize("call", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_non_integer_argument_is_type_error(call):
    with pytest.raises(TypeError):
        call()


BOOLS = {
    "WeightVector": lambda: WeightVector((True, 2)),
    "CharClassMonomial-n": lambda: CharClassMonomial(True, (1,)),
    "CharClassMonomial-p": lambda: CharClassMonomial(2, (True, 0)),
    "CharClassMonomial-e": lambda: CharClassMonomial(1, (1,), True),
    "pontryagin": lambda: CharClassMonomial.pontryagin(True, 2),
    "elementary_symmetric": lambda: elementary_symmetric(1, [False, 2]),
    "FixedComponent": lambda: FixedComponent("m", True, (1, 2)),
    "FixedComponent-weights": lambda: FixedComponent("m", 1, (True, 2)),
    "FixedPointData-n": lambda: FixedPointData(True, ()),
    "FixedPointData-chi": lambda: FixedPointData(2, (), False),
    "KappaValue": lambda: KappaValue(CharClassMonomial(1, (0,)), 1, GAMMA, False),
    "pullback_su2": lambda: pullback_su2(S2XS2, True),
    "RealRep": lambda: RealRep(((3, True),)),
    "WeightMultiset": lambda: WeightMultiset((True, 0)),
    "adams_transform": lambda: adams_transform(True, [1, 2]),
    "nonkinetic_certificate": lambda: nonkinetic_certificate(
        [1, 2], True, HypothesisFlags.all_true()
    ),
    "betti_feasible": lambda: betti_feasible(True, 0, 2, 0),
    "s2xs2_family": lambda: s2xs2_family(False),
    "connected_sum_euler": lambda: connected_sum_euler(2, True, 4),
    "rationally_odd_check": lambda: rationally_odd_check([True, 0, 2, 0, 1]),
    "wg_hypothesis_report": lambda: wg_hypothesis_report(3, True),
    "BVector": lambda: BVector((1, True)),
    "KappaValue-coefficient": lambda: KappaValue(P1, False, GAMMA, 2),
}


@pytest.mark.parametrize("call", BOOLS.values(), ids=BOOLS.keys())
def test_bool_argument_is_type_error(call):
    with pytest.raises(TypeError):
        call()


OVER_DIGIT_LIMIT = {
    "BVector-exponent": lambda: BVector(("1e10000000",)),
    "BVector-huge-exponent": lambda: BVector(("1", "1e1000000000")),
    "KappaValue-coefficient-exponent": lambda: KappaValue(P1, "-1e10000000", GAMMA, 2),
    "KappaValue-coefficient-padded": lambda: KappaValue(P1, " 5E+99999 ", GAMMA, 2),
    "BVector-literal": lambda: BVector(("9" * 5000,)),
    "BVector-long-exponent": lambda: BVector(("1e" + "0" * 5000 + "1",)),
}


@pytest.mark.parametrize("call", OVER_DIGIT_LIMIT.values(), ids=OVER_DIGIT_LIMIT.keys())
def test_rational_string_over_the_digit_limit_is_parse_error(call):
    # the exponent is bounded before Fraction takes 10 to its power
    with pytest.raises(ParseError, match="4300-digit limit"):
        call()


def test_rational_string_of_too_many_digits_is_value_error():
    # refused as ParseError, which is a ValueError as the interpreter's own refusal was
    with pytest.raises(ValueError, match="4300-digit limit"):
        BVector(("1/" + "9" * 5000,))
    with pytest.raises(ValueError, match="4300-digit limit"):
        KappaValue(P1, "9" * 5000, GAMMA, 2)


LIMIT = 4300  # the interpreter's default int-string digit limit
NINES = "9" * LIMIT  # 10**LIMIT - 1, the largest numerator or denominator taken
TEN_TO_LIMIT = "1" + "0" * LIMIT


@pytest.mark.parametrize(
    "text, value",
    [
        (NINES, Fraction(10**LIMIT - 1)),
        ("1/" + NINES, Fraction(1, 10**LIMIT - 1)),
        ("9" * (LIMIT - 1) + ".9e1", Fraction(10**LIMIT - 1)),
        # an exponent form's denominator divides a power of 10
        ("1e-4299", Fraction(1, 10**(LIMIT - 1))),
    ],
    ids=["numerator", "denominator", "numerator-exponent", "denominator-exponent"],
)
def test_rational_just_under_the_digit_limit_is_taken(text, value):
    assert bounded_fraction(text) == value


@pytest.mark.parametrize(
    "text",
    [TEN_TO_LIMIT, "1/" + TEN_TO_LIMIT, "1e4300", "1e-4300"],
    ids=["numerator", "denominator", "numerator-exponent", "denominator-exponent"],
)
def test_rational_at_the_digit_limit_is_parse_error(text):
    with pytest.raises(ParseError, match="over the 4300-digit limit"):
        bounded_fraction(text)


@pytest.mark.parametrize("text", ["x" + "9" * 5000, "1/2/" + "9" * 5000, "9" * 5000 + "_"])
def test_malformed_long_rational_stays_a_bad_literal(text):
    with pytest.raises(ValueError, match="Invalid literal for Fraction") as exc:
        bounded_fraction(text)
    assert not isinstance(exc.value, ParseError)


def test_exact_rationals_are_taken_as_before():
    assert BVector((3, Fraction(1, 2), "-7/4", " 2.5E1 ")).entries == (
        3, Fraction(1, 2), Fraction(-7, 4), 25,
    )
    assert KappaValue(P1, "1/3", GAMMA, 2).coefficient == Fraction(1, 3)
    assert KappaValue(P1, 4, GAMMA, 2) == KappaValue(P1, Fraction(4), GAMMA, 2)


def test_bool_is_refused_before_the_value_is_used():
    with pytest.raises(TypeError, match="expected an integer, got True"):
        CharClassMonomial.pontryagin(True, 2)
    assert CharClassMonomial.pontryagin(1, 2) == P1


def one_component_file(path, euler_char, provenance=None):
    """A data file of one component with ``euler_char``, written as digits whatever the limit."""
    extra = "" if provenance is None else f', "provenance": "{provenance}"'
    path.write_text(
        f'{{"fiber_half_dim": 1, "components": [{{"name": "a", "euler_char": {euler_char}, '
        f'"weights": [1]}}]{extra}}}'
    )
    return path


def test_interpreter_without_the_digit_limit_keeps_the_4300_digit_bound(tmp_path):
    # before CPython 3.10.7: int() takes any length, and sys has no limit to read or set
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(sys, "get_int_max_str_digits")
            mp.delattr(sys, "set_int_max_str_digits")
            assert int_digit_limit() == 4300
            with int_digit_scope(0):
                assert int_digit_limit() == 4300
            assert bounded_fraction("9" * 4300) == 10**4300 - 1
            with pytest.raises(ParseError, match="numerator or denominator over the 4300-digit"):
                bounded_fraction("9" * 4301)
            path = one_component_file(tmp_path / "big.json", "9" * 4301)
            with pytest.raises(ParseError, match="is not valid JSON: Exceeds the limit .4300 digits"):
                read_fixed_point_file(path)
            out = tmp_path / "out.json"
            data = FixedPointData(1, (FixedComponent("a", 10**4300, (1,)),))
            with pytest.raises(DomainError, match="not written: .* the 4300-digit limit"):
                write_fixed_point_file(out, data)
            assert not out.exists()
    finally:
        sys.set_int_max_str_digits(previous)


def test_lifted_digit_limit_comes_back_when_an_exception_leaves_the_block():
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with pytest.raises(RuntimeError), int_digit_scope(0):
            assert sys.get_int_max_str_digits() == 0
            raise RuntimeError
        assert sys.get_int_max_str_digits() == int_digit_limit() == 5000
    finally:
        sys.set_int_max_str_digits(previous)


def test_data_files_keep_the_4300_digit_bound_under_a_lifted_limit(tmp_path):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        big = 10**4300  # 4,301 digits
        path = tmp_path / "big.json"
        path.write_text(
            f'{{"fiber_half_dim": 1, "components": [{{"name": "a", "euler_char": {big}, "weights": [1]}}]}}'
        )
        with pytest.raises(ParseError, match="is not valid JSON: Exceeds the limit"):
            read_fixed_point_file(path)
        out = tmp_path / "out.json"
        data = FixedPointData(1, (FixedComponent("a", big, (1,)),))
        with pytest.raises(DomainError, match="not written: .* the 4300-digit limit"):
            write_fixed_point_file(out, data)
        assert not out.exists()
        assert sys.get_int_max_str_digits() == 0
        data = FixedPointData(1, (FixedComponent("a", big - 1, (1,)),))
        write_fixed_point_file(out, data)  # 4,300 digits: written and read back
        assert read_fixed_point_file(out).data == data
    finally:
        sys.set_int_max_str_digits(previous)


def test_data_file_reader_counts_digits_as_int_does_under_a_lifted_limit(tmp_path):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as refusal:
            int("-" + "9" * 4301)
        sys.set_int_max_str_digits(0)
        path = one_component_file(tmp_path / "at.json", "9" * 4300)
        assert read_fixed_point_file(path).data.components[0].euler_char == 10**4300 - 1
        path = one_component_file(tmp_path / "over.json", "-" + "9" * 4301)
        with pytest.raises(ParseError) as exc:
            read_fixed_point_file(path)
        assert str(exc.value) == f"'{path}' is not valid JSON: {refusal.value}"
        # a long run of digits in a string is no number
        path = one_component_file(tmp_path / "note.json", 2, provenance="7" * 5000)
        assert read_fixed_point_file(path).provenance == "7" * 5000
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"provenance": "\xe9' + b"7" * 5000 + b'"}')
        with pytest.raises(ParseError, match="is not valid JSON: 'utf-8' codec can't decode"):
            read_fixed_point_file(path)
        path = tmp_path / "utf16.json"  # json.loads would take these bytes
        path.write_text('{"fiber_half_dim": 1, "components": []}', encoding="utf-16")
        with pytest.raises(ParseError, match="is not valid JSON"):
            read_fixed_point_file(path)
        assert sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(previous)


def test_a_limit_set_while_a_file_is_read_stays_in_force(tmp_path, monkeypatch):
    # another thread sets the process-wide limit while the reader decodes
    decode = json.loads

    def loads(text, **kwargs):
        sys.set_int_max_str_digits(777)
        return decode(text, **kwargs)

    path = one_component_file(tmp_path / "data.json", 2)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(10_000)
    try:
        monkeypatch.setattr(localization.json, "loads", loads)
        assert read_fixed_point_file(path).data.components[0].euler_char == 2
        assert sys.get_int_max_str_digits() == 777
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("limit", [0, 4300, 777])
def test_no_library_call_sets_the_digit_limit(tmp_path, monkeypatch, limit):
    calls = []
    set_limit = sys.set_int_max_str_digits
    previous = sys.get_int_max_str_digits()
    data = FixedPointData(1, (FixedComponent("a", 2, (1,)),), 2)
    annotations = [KappaValue(CharClassMonomial(1, (1,)), 2, GAMMA, 2)]
    payload = {
        "fiber_half_dim": 1,
        "components": [{"name": "a", "euler_char": 2, "weights": [1]}],
        "expected": [{"class": "p1", "coefficient": "4/2", "generator": "gamma", "power": 2}],
    }
    set_limit(limit)
    try:
        monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: calls.append(n) or set_limit(n))
        write_fixed_point_file(tmp_path / "data.json", data, annotations, "9" * 5000)
        assert read_fixed_point_file(tmp_path / "data.json").data == data  # through the hook
        with pytest.raises(ParseError, match="Exceeds the limit"):
            read_fixed_point_file(one_component_file(tmp_path / "big.json", "9" * 5000))
        with pytest.raises(DomainError, match="not written"):
            write_fixed_point_file(tmp_path / "no.json", FixedPointData(1, (), 10**5000))
        assert bounded_fraction("1/3") == Fraction(1, 3)
        assert rational_literal("-7") == -7
        assert rational_literal("1e3") == 1000
        assert parse_weight_list("1, -2") == [1, -2]
        for refused in [lambda: bounded_fraction("9" * 5000), lambda: parse_weight_list("9" * 5000)]:
            with pytest.raises(ParseError, match="-digit limit"):
                refused()
        assert parse_fixed_point_payload(payload).expected == tuple(annotations)
    finally:
        monkeypatch.undo()
        set_limit(previous)
    assert calls == []


def is_integer_literal(token):
    """An optional sign and decimal digits, no more of them than the digit limit."""
    digits = token.lstrip("+-")
    return re.fullmatch(r"[+-]?\d+", token) is not None and len(digits) <= int_digit_limit()


def parse_every_token_as_a_fraction(text):
    """The ``--b`` reader before integer literals stayed ints: every token through bounded_fraction."""
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(bounded_fraction(token))
        except ParseError:
            raise
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational '{clip(token)}'") from None
    return out


def outcome(parse, text):
    try:
        return [(x, str(x)) for x in parse(text)]
    except ParseError as exc:
        return str(exc)


DIGITS = st.one_of(
    st.text(st.sampled_from("0123456789"), min_size=1, max_size=30),
    # non-ASCII decimal digits (Arabic-Indic, Devanagari, fullwidth), mixed with ASCII ones
    st.text(st.sampled_from("0123456789\u0663\u0969\uff17"), min_size=1, max_size=12),
    st.text(st.sampled_from("0123456789_"), min_size=1, max_size=12),  # 1_0 is no int literal here
    st.builds(lambda n, d: d * n, st.sampled_from([4299, 4300, 4301]), st.sampled_from("019")),
    st.builds(lambda n: "1" + "0" * (n - 1), st.sampled_from([4300, 4301])),
)
TOKENS = st.one_of(
    st.builds(
        lambda lead, sign, digits, trail: lead + sign + digits + trail,
        st.sampled_from(["", " ", "\t", "\u2003"]),
        st.sampled_from(["", "+", "-", "--", "+-"]),
        DIGITS,
        st.sampled_from(["", " ", "\n", "\u00a0"]),
    ),
    st.sampled_from(["", "-", "1/2", "-3/6", "1/0", "2.5", "1e3", "1 0", "x", "\u00b2", "1_", "_1"]),
    # int() counts digits, not '_': the first is over 4,300 of them, the second under
    st.sampled_from(["9" * 4300 + "_9", "1_" * 2200 + "1", "1e" + "0" * 4300 + "1"]),
)
# the interpreter's int-string limit a caller may have set; 0 lifts it, as cli.main does
LIMITS = st.sampled_from([0, 4300, 5000, 777])


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(TOKENS, min_size=1, max_size=3), limit=LIMITS)
def test_integer_literals_read_as_the_fraction_reader_read_them(tokens, limit):
    text = ",".join(tokens)
    with int_digit_scope(limit):
        expected = outcome(parse_every_token_as_a_fraction, text)
        got = outcome(_parse_fraction_list, text)
        assert got == expected
        if not isinstance(got, str):
            assert [type(x) is int for x, _ in got] == [is_integer_literal(t.strip()) for t in tokens]


def coefficient_outcome(parse, token):
    """The ``expected`` coefficient ``parse`` reads from the string ``token``, or its refusal's text."""
    payload = {
        "fiber_half_dim": 1,
        "components": [],
        "expected": [{"class": "p1", "coefficient": token, "generator": "gamma", "power": 2}],
    }
    try:
        return parse(payload).expected[0].coefficient
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(token=TOKENS, limit=LIMITS)
def test_file_coefficients_read_as_the_fraction_reader_read_them(token, limit):
    # the reference parser reads every string coefficient through bounded_fraction
    with int_digit_scope(limit):
        expected = coefficient_outcome(oracles.parse_fixed_point_payload, token)
        got = coefficient_outcome(parse_fixed_point_payload, token)
        assert got == expected
        if not isinstance(got, str):
            assert (type(got) is int) == is_integer_literal(token)


def any_outcome(parse, text):
    """What ``parse(text)`` returns, or the type and text of what it raises."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(TOKENS, min_size=1, max_size=3), limit=LIMITS)
def test_digit_counting_readers_read_as_the_limit_setting_ones_did(tokens, limit):
    # the references set the interpreter's limit around int() and Fraction()
    text = ",".join(tokens)
    with int_digit_scope(limit):
        assert any_outcome(parse_weight_list, text) == any_outcome(oracles.parse_weight_list_in_scope, text)
        for token in tokens:
            expected = any_outcome(oracles.bounded_fraction_in_scope, token)
            assert any_outcome(bounded_fraction, token) == expected
