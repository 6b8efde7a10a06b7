"""The lean fixed-point parser against its reference, and validation once per object."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_forge import cli, localization
from kappa_forge.errors import DomainError, ParseError
from kappa_forge.localization import (
    GAMMA,
    FixedComponent,
    FixedPointData,
    KappaValue,
    compare_expected,
    fixed_point_payload,
    localize_circle,
    parse_fixed_point_payload,
    pullback_su2,
    validate_fixed_data,
    write_fixed_point_file,
)
from kappa_forge.symalg import CharClassMonomial, WeightVector

from oracles import parse_fixed_point_payload as reference_parse


class IntSub(int):
    """An int subclass that is not bool: accepted, and stored as a plain int."""


class StrSub(str):
    pass


class ListSub(list):
    pass


class DictSub(dict):
    pass


# ---------------------------------------------------------------------------
# differential test: lean parser against the reference copy
# ---------------------------------------------------------------------------

WEIGHTS = st.integers(-5, 5) | st.sampled_from([2**70, -(2**70), 0])
CLASSES = st.sampled_from(["p1", "p2", "e", "e*p1", "p1^2", "p1*p2", "1", "x", ""])
COEFFICIENTS = st.integers(-50, 50) | st.sampled_from(["20", "5/2", "1e2", "-0", "7/14"])


@st.composite
def valid_payloads(draw):
    n = draw(st.integers(1, 3))
    # the parser leaves the weight count to validation, so n +- 1 entries are valid here
    components = draw(st.lists(
        st.fixed_dictionaries({
            "name": st.text(max_size=3),
            "euler_char": st.integers(-3, 3),
            "weights": st.lists(WEIGHTS, min_size=max(1, n - 1), max_size=n + 1),
        }),
        max_size=6,
    ))
    payload = {"fiber_half_dim": n, "components": components}
    if draw(st.booleans()):
        payload["fiber_euler_char"] = draw(st.integers(-6, 6))
    if draw(st.booleans()):
        payload["expected"] = draw(st.lists(
            st.fixed_dictionaries({
                "class": CLASSES,
                "coefficient": COEFFICIENTS,
                "generator": st.sampled_from(["gamma", "c2"]),
                "power": st.integers(0, 4),
            }),
            max_size=3,
        ))
    if draw(st.booleans()):
        payload["provenance"] = draw(st.text(max_size=4))
    return payload


BAD_INTS = st.sampled_from([True, False, 1.0, -2.5, "1", None]) | st.builds(IntSub, st.integers(-5, 5))
BAD_WEIGHT_LISTS = st.sampled_from([[], "1,2", {"a": 1}, 3, None, (1, 2)])
BAD_NAMES = st.sampled_from([None, 7, True, ["m"], {"n": 1}])
BAD_ENTRIES = st.sampled_from([None, 3, "m", [1, 2]])
BAD_EXPECTED = st.sampled_from([
    None, "p1", [1],
    {"class": "p1", "coefficient": 1, "generator": "gamma", "power": 2, "x": 0},
    {"class": 1, "coefficient": 1, "generator": "gamma", "power": 2},
    {"class": "p9", "coefficient": 1, "generator": "gamma", "power": 2},
    {"class": "p1", "coefficient": True, "generator": "gamma", "power": 2},
    {"class": "p1", "coefficient": 1.5, "generator": "gamma", "power": 2},
    {"class": "p1", "coefficient": "1/0", "generator": "gamma", "power": 2},
    {"class": "p1", "coefficient": 1, "generator": "theta", "power": 2},
    {"class": "p1", "coefficient": 1, "generator": "c2", "power": 2},
    {"class": "p1", "coefficient": 1, "generator": "gamma", "power": False},
    {"class": "p1", "coefficient": 1, "generator": "gamma"},
])


@st.composite
def mutated_payloads(draw):
    """A valid payload with one or two entries broken in one of the ways the schema refuses."""
    payload = draw(valid_payloads())
    comps = payload["components"]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from([
            "weight", "euler_char", "unknown key", "missing name", "bad name",
            "weights", "entry", "expected", "extra component",
        ]))
        if kind == "expected":
            entries = payload.setdefault("expected", [])
            entries.insert(draw(st.integers(0, len(entries))), draw(BAD_EXPECTED))
            continue
        if kind == "extra component" or not comps:
            comps.insert(draw(st.integers(0, len(comps))),
                         {"name": "z", "euler_char": 1, "weights": [1] * payload["fiber_half_dim"]})
        raw = comps[draw(st.integers(0, len(comps) - 1))]
        if not isinstance(raw, dict):  # broken whole by an earlier round
            continue
        if kind == "weight":
            weights = raw.get("weights")
            if isinstance(weights, list) and weights:
                weights[draw(st.integers(0, len(weights) - 1))] = draw(BAD_INTS)
        elif kind == "euler_char":
            raw["euler_char"] = draw(BAD_INTS)
        elif kind == "unknown key":
            raw[draw(st.sampled_from(["chi", "Name", "weight", ""]))] = 0
        elif kind == "missing name":
            raw.pop("name", None)
        elif kind == "bad name":
            raw["name"] = draw(BAD_NAMES)
        elif kind == "weights":
            raw["weights"] = draw(BAD_WEIGHT_LISTS)
        elif kind == "entry":
            comps[comps.index(raw)] = draw(BAD_ENTRIES)
    return payload


def outcome(parse, payload):
    try:
        return parse(payload)
    except Exception as exc:  # the reference decides which types are expected
        return (type(exc), str(exc))


def assert_same_parse(payload):
    lean = outcome(parse_fixed_point_payload, copy.deepcopy(payload))
    reference = outcome(reference_parse, copy.deepcopy(payload))
    assert lean == reference
    if isinstance(reference, tuple):
        return
    # equal values could still hide an int subclass or a list kept in place of a tuple
    for mine, theirs in zip(lean.data.components, reference.data.components):
        assert type(mine.name) is type(theirs.name)
        assert type(mine.euler_char) is type(theirs.euler_char) is int
        assert type(mine.weights) is WeightVector
        assert type(mine.weights.weights) is tuple
        assert [type(a) for a in mine.weights.weights] == [type(a) for a in theirs.weights.weights]


@settings(max_examples=300, deadline=None)
@given(payload=valid_payloads())
def test_lean_parser_matches_reference_on_valid_payloads(payload):
    assert not isinstance(outcome(reference_parse, payload), tuple) or "expected" in payload
    assert_same_parse(payload)


@settings(max_examples=500, deadline=None)
@given(payload=mutated_payloads())
def test_lean_parser_matches_reference_on_mutated_payloads(payload):
    assert_same_parse(payload)


@pytest.mark.parametrize("broken", [
    {"name": "a", "euler_char": 1, "weights": [1, True]},
    {"name": "a", "euler_char": 1.0, "weights": [1, 2]},
    {"name": "a", "euler_char": 1, "weights": [1, 2], "extra": 0},
    {"euler_char": 1, "weights": [1, 2]},
    {"name": 5, "euler_char": 1, "weights": [1, 2]},
    {"name": "a", "euler_char": 1, "weights": []},
    {"name": "a", "euler_char": 1, "weights": "1,2"},
    {"name": "a", "euler_char": IntSub(1), "weights": [IntSub(1), 2]},
    {"name": "a", "euler_char": IntSub(1), "weights": [1, 2]},
    {"name": StrSub("a"), "euler_char": 1, "weights": [1, 2]},
    {"name": "a", "euler_char": 1, "weights": ListSub([1, 2])},
    DictSub(name="a", euler_char=1, weights=[1, 2]),
    [1, 2],
])
def test_lean_parser_matches_reference_after_good_components(broken):
    good = {"name": "g", "euler_char": 1, "weights": [1, 2]}
    assert_same_parse({"fiber_half_dim": 2, "components": [good, good, broken, good]})


GOOD = {"name": "g", "euler_char": 1, "weights": [1, 2]}

# every way a component can miss the one-test exact JSON shape and still reach
# the full checks: the valid ones must come out as the reference stores them,
# the invalid ones with its message and index
EXACT_SHAPE_MISSES = {
    "dict subclass": DictSub(name="a", euler_char=1, weights=[1, 2]),
    "three keys, one unknown": {"name": "a", "euler_char": 1, "chi": [1, 2]},
    "three keys, weights missing": {"name": "a", "euler_char": 1, "Weights": [1, 2]},
    "four keys": {"name": "a", "euler_char": 1, "weights": [1, 2], "extra": 0},
    "bool euler_char": {"name": "a", "euler_char": True, "weights": [1, 2]},
    "IntSub euler_char": {"name": "a", "euler_char": IntSub(-2), "weights": [1, 2]},
    "StrSub name": {"name": StrSub("a"), "euler_char": 1, "weights": [1, 2]},
    "ListSub weights": {"name": "a", "euler_char": 1, "weights": ListSub([1, 2])},
    "IntSub weight": {"name": "a", "euler_char": 1, "weights": [1, IntSub(2)]},
    "bool weight after ints": {"name": "a", "euler_char": 1, "weights": [1, 2, False]},
    "empty weights": {"name": "a", "euler_char": 1, "weights": []},
    "two keys": {"name": "a", "weights": [1, 2]},
}


@pytest.mark.parametrize("broken", EXACT_SHAPE_MISSES.values(), ids=EXACT_SHAPE_MISSES.keys())
def test_exact_shape_misses_take_the_full_checks_after_many_good(broken):
    payload = {"fiber_half_dim": 2, "components": [GOOD] * 1000 + [broken, GOOD]}
    assert_same_parse(payload)
    result = outcome(parse_fixed_point_payload, copy.deepcopy(payload))
    if isinstance(result, tuple):
        assert result[0] is ParseError and "components[1000]" in result[1]
    else:
        assert len(result.data._rows) == 1002
        assert result.data._rows[1000] == tuple(broken["weights"])


# ---------------------------------------------------------------------------
# parsed columns against constructed records
# ---------------------------------------------------------------------------

def round_trips(d):
    return [copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))]


@settings(max_examples=200, deadline=None)
@given(payload=valid_payloads())
def test_parsed_columns_behave_as_constructed_records(payload):
    payload.pop("expected", None)  # a bad annotation makes both parsers raise
    parsed = parse_fixed_point_payload(copy.deepcopy(payload)).data
    records = reference_parse(copy.deepcopy(payload)).data.components
    built = FixedPointData(payload["fiber_half_dim"], records, payload.get("fiber_euler_char"))
    assert parsed == built and hash(parsed) == hash(built)
    assert repr(parsed) == repr(built) == (
        f"FixedPointData(fiber_half_dim={payload['fiber_half_dim']}, components={records!r}, "
        f"fiber_euler_char={payload.get('fiber_euler_char')!r})"
    )
    assert fixed_point_payload(parsed) == fixed_point_payload(built)
    assert validate_fixed_data(parsed) == validate_fixed_data(built)
    for restored, rebuilt in zip(round_trips(parsed), round_trips(built)):
        assert restored == rebuilt == parsed
        assert hash(restored) == hash(rebuilt) and repr(restored) == repr(rebuilt)
    # the view: equal records on every access, not the same objects
    assert parsed.components == records
    assert all(a is not b for a, b in zip(parsed.components, parsed.components))
    for comp in parsed.components:
        assert type(comp) is FixedComponent and type(comp.weights) is WeightVector
        assert type(comp.weights.weights) is tuple
        assert {type(a) for a in comp.weights.weights} == {int}
        assert type(comp.euler_char) is int


# ---------------------------------------------------------------------------
# validation once per object
# ---------------------------------------------------------------------------

def four_points(chi=4):
    comps = tuple(
        FixedComponent(f"x{i}", 1, WeightVector(w))
        for i, w in enumerate([(2, 1), (2, -1), (-2, 1), (-2, -1)])
    )
    return FixedPointData(2, comps, fiber_euler_char=chi)


@pytest.fixture
def validations(monkeypatch):
    """Counts calls of the public validate_fixed_data, through every binding of it."""
    calls = []
    real = localization.validate_fixed_data

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(localization, "validate_fixed_data", counting)
    return calls


@pytest.mark.parametrize("files", [1, 3])
@pytest.mark.parametrize("argv", [
    ["localize"],
    ["localize", "--class", "p1"],
    ["pullback-su2", "--i", "1"],
])
def test_cli_validates_each_file_once(tmp_path, capsys, validations, files, argv):
    p1 = CharClassMonomial.pontryagin(1, 2)
    paths = []
    for j in range(files):
        path = tmp_path / f"d{j}.json"
        write_fixed_point_file(path, four_points(), [KappaValue(p1, 20, GAMMA, 2)])
        paths.append(str(path))
    assert cli.main([*argv, "--input", *paths]) == 0
    assert capsys.readouterr().out
    assert len(validations) == files


def test_localization_runs_the_checks_once_per_object(validations):
    d = four_points()
    p1 = CharClassMonomial.pontryagin(1, 2)
    first = localize_circle(d, p1)
    assert localize_circle(d, p1) == first
    pullback_su2(d, 1)
    compare_expected(d, [KappaValue(p1, 20, GAMMA, 2)])
    assert len(validations) == 1
    # an equal but distinct object is checked on its own
    localize_circle(four_points(), p1)
    assert len(validations) == 2


def test_validate_reuses_its_diagnostics_and_hands_out_copies():
    d = FixedPointData(2, (FixedComponent("z", 1, WeightVector((0, 1))),))
    first = validate_fixed_data(d)
    assert [diag.severity for diag in first] == ["info"]
    first.clear()
    second = validate_fixed_data(d)
    assert len(second) == 1
    assert validate_fixed_data(d)[0] is second[0]


def test_invalid_data_raises_the_same_error_on_every_call():
    bad = FixedPointData(
        2,
        (FixedComponent("a", 1, WeightVector((1,))), FixedComponent("b", 1, WeightVector((1, 2)))),
        fiber_euler_char=5,
    )
    p1 = CharClassMonomial.pontryagin(1, 2)
    message = (
        "component 'a': expected 2 weights, got 1; "
        "Euler characteristic mismatch: components sum to 2, fiber_euler_char is 5"
    )
    for call in (
        lambda: localize_circle(bad, p1),
        lambda: localize_circle(bad, p1),
        lambda: pullback_su2(bad, 1),
        lambda: compare_expected(bad, [KappaValue(p1, 0, GAMMA, 2)]),
        lambda: localize_circle(bad, p1),
    ):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message
    assert [diag.severity for diag in validate_fixed_data(bad)] == ["error", "error"]


def test_stored_diagnostics_stay_out_of_sight():
    checked, fresh = four_points(), four_points()
    validate_fixed_data(checked)
    localize_circle(checked, CharClassMonomial.pontryagin(1, 2))
    assert checked == fresh
    assert hash(checked) == hash(fresh)
    assert repr(checked) == repr(fresh)
    assert "diagnos" not in repr(checked)
    assert checked._values() == fresh._values()
    assert FixedPointData._fields == ("fiber_half_dim", "components", "fiber_euler_char")
    assert fixed_point_payload(checked) == fixed_point_payload(fresh)
    assert checked._diagnostics == ()
    # copies and pickles go through the constructor and leave the diagnostics behind
    for restored in (
        copy.copy(checked), copy.deepcopy(checked), pickle.loads(pickle.dumps(checked))
    ):
        assert restored == checked
        assert getattr(restored, "_diagnostics", None) is None
    # an instance rebuilt with a changed field is a new object and is checked afresh
    changed = FixedPointData(checked.fiber_half_dim, checked.components, fiber_euler_char=3)
    assert [diag.severity for diag in validate_fixed_data(changed)] == ["error"]
