import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_forge.errors import DomainError, ParseError
from kappa_forge.localization import (
    C2,
    GAMMA,
    Diagnostic,
    ExpectedComparison,
    FixedComponent,
    FixedPointData,
    FixedPointFile,
    KappaValue,
    compare_expected,
    fixed_point_payload,
    gamma_to_c2,
    kappa_class_label,
    localize_circle,
    parse_fixed_point_payload,
    pullback_su2,
    read_fixed_point_file,
    validate_fixed_data,
    write_fixed_point_file,
)
from kappa_forge.symalg import CharClassMonomial, WeightVector, sigma_eval
from oracles import check_frozen_record
from oracles import parse_fixed_point_payload as reference_parse


def four_point_data(k, chi=4):
    comps = tuple(
        FixedComponent(f"x{i}", 1, WeightVector(w))
        for i, w in enumerate([(k, 1), (k, -1), (-k, 1), (-k, -1)])
    )
    return FixedPointData(2, comps, fiber_euler_char=chi)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_clean_data():
    assert validate_fixed_data(four_point_data(2)) == []


def test_validate_euler_char_mismatch():
    diags = validate_fixed_data(four_point_data(2, chi=2))
    assert len(diags) == 1
    assert diags[0].severity == "error"
    assert "Euler characteristic mismatch" in diags[0].message


def test_validate_weight_length():
    data = FixedPointData(
        2, (FixedComponent("bad", 1, WeightVector((1, 2, 3))),), fiber_euler_char=1
    )
    diags = validate_fixed_data(data)
    assert any(d.severity == "error" and "expected 2 weights" in d.message for d in diags)


def test_validate_zero_weight_is_informational():
    data = FixedPointData(2, (FixedComponent("c", 2, WeightVector((0, 3))),))
    diags = validate_fixed_data(data)
    assert [d.severity for d in diags] == ["info"]


# ---------------------------------------------------------------------------
# localize_circle
# ---------------------------------------------------------------------------

def test_localize_four_points_p1():
    kv = localize_circle(four_point_data(2), CharClassMonomial.pontryagin(1, 2))
    assert kv.coefficient == 20
    assert kv.generator == GAMMA
    assert kv.generator_power == 2


def test_localize_negative_euler_characteristic():
    data = FixedPointData(3, (FixedComponent("m", -2, WeightVector((1, 1, 1))),))
    kv = localize_circle(data, CharClassMonomial.pontryagin(1, 3))
    assert kv.coefficient == -6
    assert kv.generator_power == 2


def test_localize_euler_class_with_zero_weights():
    data = FixedPointData(2, (FixedComponent("m", 7, WeightVector((0, 0))),))
    kv = localize_circle(data, CharClassMonomial.euler(2))
    assert kv.coefficient == 0


def test_localize_rejects_bad_data():
    with pytest.raises(DomainError):
        localize_circle(four_point_data(2, chi=2), CharClassMonomial.pontryagin(1, 2))
    with pytest.raises(DomainError):
        localize_circle(four_point_data(2), CharClassMonomial.pontryagin(1, 3))


def test_localize_linear_over_disjoint_union():
    a = FixedPointData(2, four_point_data(2).components)
    b = FixedPointData(
        2,
        (
            FixedComponent("y0", -3, WeightVector((1, 2))),
            FixedComponent("y1", 2, WeightVector((5, 1))),
        ),
    )
    union = FixedPointData(2, a.components + b.components)
    c = CharClassMonomial(2, (1, 1), 0)
    assert (
        localize_circle(union, c).coefficient
        == localize_circle(a, c).coefficient + localize_circle(b, c).coefficient
    )


@given(
    chi=st.integers(-4, 4),
    weights=st.lists(st.integers(-6, 6), min_size=2, max_size=2),
    flip=st.integers(0, 1),
)
def test_localize_sign_flip_behaviour(chi, weights, flip):
    base = FixedPointData(2, (FixedComponent("m", chi, WeightVector(tuple(weights))),))
    flipped_weights = list(weights)
    flipped_weights[flip] = -flipped_weights[flip]
    flipped = FixedPointData(
        2, (FixedComponent("m", chi, WeightVector(tuple(flipped_weights))),)
    )
    p_mono = CharClassMonomial(2, (2, 1), 0)
    assert (
        localize_circle(base, p_mono).coefficient
        == localize_circle(flipped, p_mono).coefficient
    )
    e = CharClassMonomial.euler(2)
    assert (
        localize_circle(base, e).coefficient
        == -localize_circle(flipped, e).coefficient
    )


@given(t=st.integers(-5, 5), weights=st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_localize_weight_scaling(t, weights):
    c = CharClassMonomial(3, (1, 0, 0), 1)  # degree 4 + 6 = 10
    base = FixedPointData(3, (FixedComponent("m", 2, WeightVector(tuple(weights))),))
    scaled = FixedPointData(
        3, (FixedComponent("m", 2, WeightVector(tuple(t * a for a in weights))),)
    )
    expected = t ** (c.degree // 2) * localize_circle(base, c).coefficient
    assert localize_circle(scaled, c).coefficient == expected


# ---------------------------------------------------------------------------
# promotion to SU(2)
# ---------------------------------------------------------------------------

def test_pullback_su2_four_points():
    for k in (0, 2, 4):
        kv, b1 = pullback_su2(four_point_data(k), 1)
        assert kv.coefficient == 4 * (k * k + 1)
        assert kv.generator == C2
        assert kv.generator_power == 1
        assert b1 == Fraction(k * k + 1)


def test_pullback_su2_single_component_gives_sigma():
    weights = (1, 2, 3)
    data = FixedPointData(
        3, (FixedComponent("m", -2, WeightVector(weights)),), fiber_euler_char=-2
    )
    squares = [a * a for a in weights]
    for i in (1, 2, 3):
        _, b_i = pullback_su2(data, i)
        assert b_i == sigma_eval(CharClassMonomial.pontryagin(i, 3), weights)


def test_pullback_su2_requires_euler_char():
    data = FixedPointData(2, four_point_data(2).components)
    with pytest.raises(DomainError, match="Euler characteristic"):
        pullback_su2(data, 1)


def test_pullback_su2_rejects_zero_euler_char():
    data = FixedPointData(
        2,
        (
            FixedComponent("a", 1, WeightVector((1, 1))),
            FixedComponent("b", -1, WeightVector((1, 1))),
        ),
        fiber_euler_char=0,
    )
    with pytest.raises(DomainError, match="0"):
        pullback_su2(data, 1)


def test_pullback_su2_index_range():
    with pytest.raises(DomainError):
        pullback_su2(four_point_data(2), 3)
    with pytest.raises(DomainError):
        pullback_su2(four_point_data(2), 0)


def test_gamma_to_c2_rejects_odd_power():
    kv = KappaValue(CharClassMonomial.euler(1), Fraction(3), GAMMA, 1)
    with pytest.raises(DomainError, match="odd"):
        gamma_to_c2(kv)


def test_kappa_value_power_consistency():
    p1 = CharClassMonomial.pontryagin(1, 2)
    with pytest.raises(DomainError):
        KappaValue(p1, Fraction(1), GAMMA, 3)
    with pytest.raises(DomainError):
        KappaValue(CharClassMonomial.euler(1), Fraction(1), C2, 1)


def test_kappa_class_label_folds_euler_factor():
    assert kappa_class_label(CharClassMonomial.pontryagin(1, 2)) == "e*p1"
    assert kappa_class_label(CharClassMonomial.euler(2)) == "p2"


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def payload_round_trip(data, expected=None, provenance=None):
    payload = fixed_point_payload(data, expected, provenance)
    return parse_fixed_point_payload(json.loads(json.dumps(payload)))


def test_payload_round_trip():
    data = four_point_data(2)
    loaded = payload_round_trip(data)
    assert loaded.data == data
    assert loaded.expected is None
    assert loaded.provenance is None


def test_payload_round_trip_with_annotations():
    data = four_point_data(2)
    expected = (
        KappaValue(CharClassMonomial.pontryagin(1, 2), Fraction(20), C2, 1),
    )
    loaded = payload_round_trip(data, expected, "four fixed points")
    assert loaded.expected == expected
    assert loaded.provenance == "four fixed points"
    comparisons = compare_expected(loaded.data, loaded.expected)
    assert all(c.matches for c in comparisons)


def test_file_round_trip(tmp_path):
    path = tmp_path / "data.json"
    data = four_point_data(4)
    write_fixed_point_file(path, data, provenance="round trip")
    loaded = read_fixed_point_file(path)
    assert loaded.data == data
    assert loaded.provenance == "round trip"


def test_parse_rejects_unknown_top_level_key():
    payload = fixed_point_payload(four_point_data(2))
    payload["extra"] = 1
    with pytest.raises(ParseError, match="extra"):
        parse_fixed_point_payload(payload)


def test_parse_rejects_unknown_component_key():
    payload = fixed_point_payload(four_point_data(2))
    payload["components"][0]["orientation"] = "up"
    with pytest.raises(ParseError, match="orientation"):
        parse_fixed_point_payload(payload)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"fiber_half_dim": 2, 1: 2, "x": 3, "components": []},
         "unknown key '1' in fixed-point data"),
        ({"fiber_half_dim": 1, "components": [{"name": "m", "euler_char": 1, "weights": [1],
                                               (1, 2): 0, "z": 0}]},
         "unknown key '(1, 2)' in components[0]"),
        ({"fiber_half_dim": 1, "components": [], "k" * 5000: 0},
         f"unknown key '{'k' * 20}...' in fixed-point data"),
    ],
    ids=["int-key", "tuple-key", "long-key"],
)
def test_unknown_keys_of_any_type_are_quoted_clipped(payload, message):
    # a library caller may pass keys JSON never yields; both parsers sort them as text
    for parse in (parse_fixed_point_payload, reference_parse):
        with pytest.raises(ParseError) as exc:
            parse(payload)
        assert str(exc.value) == message


def test_parse_rejects_wrong_types():
    with pytest.raises(ParseError):
        parse_fixed_point_payload([])
    with pytest.raises(ParseError, match="fiber_half_dim"):
        parse_fixed_point_payload({"fiber_half_dim": "2", "components": []})
    with pytest.raises(ParseError, match="fiber_half_dim"):
        parse_fixed_point_payload({"fiber_half_dim": True, "components": []})
    payload = fixed_point_payload(four_point_data(2))
    payload["components"][0]["weights"] = [1.5, 2]
    with pytest.raises(ParseError, match="weight"):
        parse_fixed_point_payload(payload)


def test_parse_rejects_inconsistent_expected_power():
    payload = fixed_point_payload(four_point_data(2))
    payload["expected"] = [
        {"class": "p1", "coefficient": "20", "generator": "c2", "power": 2}
    ]
    with pytest.raises(ParseError, match="power"):
        parse_fixed_point_payload(payload)


def test_parse_refuses_fiber_half_dim_past_the_entry_limit():
    payload = {"fiber_half_dim": 2**20, "components": [], "expected": [
        {"class": "p1", "coefficient": 0, "generator": "gamma", "power": 2}
    ]}
    assert parse_fixed_point_payload(payload).data.fiber_half_dim == 2**20
    payload["fiber_half_dim"] = 2**20 + 1  # every class monomial would list 2^20 + 1 exponents
    with pytest.raises(ParseError, match="'fiber_half_dim' must be <= 1048576, got 1048577"):
        parse_fixed_point_payload(payload)


def test_parse_refuses_coefficients_past_the_digit_limit():
    payload = fixed_point_payload(four_point_data(2))
    for coefficient in ("1e99999", "1e-4300", "1." + "1" * 4300):
        payload["expected"] = [
            {"class": "p1", "coefficient": coefficient, "generator": "gamma", "power": 2}
        ]
        with pytest.raises(ParseError, match=r"^expected\[0\]: rational .* over the 4300-digit"):
            parse_fixed_point_payload(payload)
    payload["expected"][0]["coefficient"] = "2e1"
    assert parse_fixed_point_payload(payload).expected[0].coefficient == 20


SCHEMA_KEYS = sorted(
    {"fiber_half_dim", "fiber_euler_char", "components", "expected", "provenance",
     "name", "euler_char", "weights", "class", "coefficient", "generator", "power"}
)
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["p1", "e*p2^2", "p1^99999999999", "p3", "1", "gamma", "c2",
                       "1/2", "1/0", "2.5e1", "1e99999", "-0e-5000", "7e-4300"])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=8,
)


def near(valid):
    """Four times in five a value of the right shape, so parsing gets past the first check."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else JSON_VALUES)


COMPONENTS = near(st.fixed_dictionaries({
    "name": near(st.text(max_size=3)),
    "euler_char": near(st.integers(-3, 3)),
    "weights": near(st.lists(st.integers(-5, 5), max_size=4)),
}))
EXPECTED = near(st.fixed_dictionaries({
    "class": near(st.sampled_from(["p1", "p2", "e", "e*p1", "p1^2", "p1*p2", "x", ""])),
    "coefficient": near(st.integers(-50, 50) | st.sampled_from(["20", "5/2", "1e2", "1/0"])),
    "generator": near(st.sampled_from(["gamma", "c2"])),
    "power": near(st.integers(0, 4)),
}))
PAYLOADS = near(st.fixed_dictionaries({
    "fiber_half_dim": near(st.integers(-1, 3) | st.sampled_from([2**20 + 1, 10**12])),
    "components": near(st.lists(COMPONENTS, max_size=4)),
}, optional={
    "fiber_euler_char": near(st.integers(-4, 4)),
    "expected": near(st.lists(EXPECTED, max_size=3)),
    "provenance": near(st.text(max_size=4)),
}))


@settings(max_examples=300, deadline=None)
@given(payload=PAYLOADS)
def test_parse_raises_only_package_errors_on_json_values(payload):
    try:
        parsed = parse_fixed_point_payload(payload)
    except (ParseError, DomainError):
        return
    assert parsed.data.fiber_half_dim >= 1


def test_read_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        read_fixed_point_file("/nonexistent/nope.json")


def test_value_limit_is_the_same_error_on_every_path():
    # p1 on weights (2, 1) is 5, so p1^3000000 has about 7 million bits
    c = CharClassMonomial(2, (3000000, 0), 0)
    data = FixedPointData(2, (FixedComponent("x", 1, WeightVector((2, 1))),))
    messages = []
    for call in (
        lambda: sigma_eval(c, (2, 1)),
        lambda: localize_circle(data, c),
        lambda: compare_expected(data, [KappaValue(c, 0, GAMMA, c.degree // 2)]),
    ):
        with pytest.raises(DomainError) as exc:
            call()
        messages.append(str(exc.value))
    assert messages == ["the value of p1^3000000 would exceed the limit of 1048576 bits"] * 3


# ---------------------------------------------------------------------------
# value types: frozen records with the dataclass behaviour
# ---------------------------------------------------------------------------

P1_TEXT = "CharClassMonomial(fiber_half_dim=2, p_exponents=(1, 0), e_exponent=0)"
COMPONENT_TEXT = "FixedComponent(name='x0', euler_char=1, weights=WeightVector(weights=(2, -1)))"
DATA_TEXT = (
    f"FixedPointData(fiber_half_dim=2, components=({COMPONENT_TEXT},), fiber_euler_char=4)"
)
HALF_TEXT = (
    f"KappaValue(class_monomial={P1_TEXT}, coefficient=Fraction(5, 2), generator='gamma', "
    "generator_power=2)"
)
C2_TEXT = (
    f"KappaValue(class_monomial={P1_TEXT}, coefficient=20, generator='c2', "
    "generator_power=1)"
)


def record_values():
    p1 = CharClassMonomial(2, (1, 0))
    component = FixedComponent("x0", 1, WeightVector((2, -1)))
    data = FixedPointData(2, (component,), 4)
    validated = FixedPointData(2, (component,), 4)
    validate_fixed_data(validated)  # keeps its diagnostics privately
    half = KappaValue(p1, Fraction(5, 2), GAMMA, 2)
    c2 = KappaValue(p1, 20, C2, 1)
    # the lean parse path builds its component and weights without their constructors
    parsed = parse_fixed_point_payload(
        {"fiber_half_dim": 1, "components": [{"name": "a", "euler_char": 2, "weights": [3]}]}
    )
    parsed_component = "FixedComponent(name='a', euler_char=2, weights=WeightVector(weights=(3,)))"
    return [
        (component, COMPONENT_TEXT),
        (parsed.data.components[0], parsed_component),
        (data, DATA_TEXT),
        (validated, DATA_TEXT),
        (
            FixedPointData(1, ()),
            "FixedPointData(fiber_half_dim=1, components=(), fiber_euler_char=None)",
        ),
        (Diagnostic("info", "zero weight"), "Diagnostic(severity='info', message='zero weight')"),
        (half, HALF_TEXT),
        (c2, C2_TEXT),
        (
            ExpectedComparison(c2, c2),
            f"ExpectedComparison(expected={C2_TEXT}, computed={C2_TEXT})",
        ),
        (
            parsed,
            "FixedPointFile(data=FixedPointData(fiber_half_dim=1, "
            f"components=({parsed_component},), fiber_euler_char=None), expected=None, "
            "provenance=None)",
        ),
        (
            FixedPointFile(data, (half,), "note"),
            f"FixedPointFile(data={DATA_TEXT}, expected=({HALF_TEXT},), provenance='note')",
        ),
    ]


@pytest.mark.parametrize(
    "value, text",
    record_values(),
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
)
def test_value_types_keep_the_frozen_dataclass_behaviour(value, text):
    check_frozen_record(value, text)
