import json
from fractions import Fraction

import pytest

from kappa_forge.catalog import (
    CatalogEntry,
    connected_sum_euler,
    rationally_odd_check,
    s2xs2_family,
    wg_hypothesis_report,
)
from kappa_forge.errors import DomainError
from kappa_forge.localization import (
    GAMMA,
    FixedComponent,
    FixedPointData,
    KappaValue,
    compare_expected,
    parse_fixed_point_payload,
    pullback_su2,
    read_fixed_point_file,
)
from kappa_forge.symalg import CharClassMonomial, WeightVector
from oracles import check_frozen_record


# ---------------------------------------------------------------------------
# s2xs2 family
# ---------------------------------------------------------------------------

def test_family_values():
    for k, coeff, b1 in [(0, 4, 1), (2, 20, 5), (4, 68, 17), (10, 404, 101)]:
        entry = s2xs2_family(k)
        kv, b = pullback_su2(entry.data, 1)
        assert kv.coefficient == coeff
        assert b == b1


def test_family_rejects_odd_k():
    with pytest.raises(DomainError, match="even"):
        s2xs2_family(3)
    with pytest.raises(DomainError):
        s2xs2_family(-2)


def test_family_structure():
    entry = s2xs2_family(6)
    assert entry.data.fiber_half_dim == 2
    assert entry.data.fiber_euler_char == 4
    assert len(entry.data.components) == 4
    assert all(c.euler_char == 1 for c in entry.data.components)
    signs = sorted(tuple(a // abs(a) for a in c.weights) for c in entry.data.components)
    assert signs == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_family_coefficients_are_ints_as_the_file_reads_them_back(tmp_path):
    entry = s2xs2_family(2)
    entry.write(tmp_path / "k2.json")
    loaded = read_fixed_point_file(tmp_path / "k2.json")
    assert [type(ev.coefficient) for ev in entry.expected] == [int, int]
    assert list(map(repr, entry.expected)) == list(map(repr, loaded.expected))


def test_family_self_verifies():
    for k in (0, 2, 8, 40):
        entry = s2xs2_family(k)
        assert all(c.matches for c in compare_expected(entry.data, entry.expected))


def test_family_b1_differences_are_squares():
    base = pullback_su2(s2xs2_family(0).data, 1)[1]
    for k in range(0, 30, 2):
        b1 = pullback_su2(s2xs2_family(k).data, 1)[1]
        assert b1 - base == k * k


def test_entry_serialization_round_trip(tmp_path):
    entry = s2xs2_family(4)
    path = tmp_path / "entry.json"
    entry.write(path)
    loaded = read_fixed_point_file(path)
    assert loaded.data == entry.data
    assert loaded.expected == entry.expected
    assert loaded.provenance == entry.provenance_note
    # and the payload is exactly what parse gets back
    payload = entry.to_payload()
    reparsed = parse_fixed_point_payload(json.loads(json.dumps(payload)))
    assert reparsed.data == entry.data


# ---------------------------------------------------------------------------
# connected sums
# ---------------------------------------------------------------------------

def test_connected_sum_euler_examples():
    assert connected_sum_euler(0, 2, 6) == -2
    assert connected_sum_euler(4, 1, 4) == 4
    assert connected_sum_euler(0, 5, 6) == -8


def test_connected_sum_euler_rejects_bad_input():
    with pytest.raises(DomainError):
        connected_sum_euler(0, 2, 3)
    with pytest.raises(DomainError):
        connected_sum_euler(0, 0, 6)


# ---------------------------------------------------------------------------
# rationally odd check
# ---------------------------------------------------------------------------

def test_rationally_odd_examples():
    assert rationally_odd_check([1, 0, 0, 4, 0, 0, 1]).rationally_odd
    assert not rationally_odd_check([1, 0, 2, 0, 1]).rationally_odd
    assert rationally_odd_check([1, 0, 0, 0, 0, 0, 0, 0, 1]).rationally_odd


def test_rationally_odd_arithmetic_identity():
    result = rationally_odd_check([1, 0, 0, 4, 0, 0, 1])
    assert result.b_even == 2
    assert result.b_odd == 4
    assert result.euler_char == -2
    assert result.euler_char == 2 - result.b_odd


def test_rationally_odd_notes_deviations():
    result = rationally_odd_check([2, 0, 0, 0, 1])
    assert any("b_0" in note for note in result.notes)


def test_rationally_odd_implies_even_sum_two():
    # with unit b_0 and b_2n, a rationally odd table has b_even = 2 and chi <= 2
    import random

    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 5)
        table = [0] * (2 * n + 1)
        table[0] = table[2 * n] = 1
        for j in range(1, 2 * n, 2):
            table[j] = rng.randint(0, 5)
        result = rationally_odd_check(table)
        assert result.rationally_odd
        assert result.b_even == 2
        assert result.euler_char == 2 - result.b_odd
        assert result.euler_char <= 2
        assert result.euler_char == sum(
            (-1) ** j * x for j, x in enumerate(table)
        )


def test_rationally_odd_rejects_bad_tables():
    with pytest.raises(DomainError):
        rationally_odd_check([1, 0, 1, 0])  # even length: no top degree 2n
    with pytest.raises(DomainError):
        rationally_odd_check([1])
    with pytest.raises(DomainError):
        rationally_odd_check([1, -1, 1])


# ---------------------------------------------------------------------------
# wg hypothesis reports
# ---------------------------------------------------------------------------

def test_wg_examples():
    report = wg_hypothesis_report(3, 2)
    assert report.euler_char == -2
    assert report.theorems_apply
    assert report.rationally_odd
    assert report.fixed_set == "S^0 x S^3"

    report = wg_hypothesis_report(3, 1)
    assert report.euler_char == 0
    assert not report.theorems_apply
    assert not report.hypotheses.negative_euler_char

    report = wg_hypothesis_report(5, 3)
    assert report.euler_char == -4
    assert report.theorems_apply


def test_wg_betti_table():
    report = wg_hypothesis_report(3, 2)
    assert report.betti == (1, 0, 0, 4, 0, 0, 1)
    assert rationally_odd_check(report.betti).euler_char == report.euler_char


def test_wg_emits_no_weight_data():
    report = wg_hypothesis_report(3, 2)
    assert not hasattr(report, "components")
    assert not hasattr(report, "weights")


def test_wg_refuses_betti_tables_past_the_entry_limit():
    # the table has 2n + 1 entries; the limit is 2^20
    report = wg_hypothesis_report(524287, 2)
    assert len(report.betti) == 1048575
    assert report.betti[524287] == 4
    with pytest.raises(DomainError, match="exceed the limit of 1048576 entries"):
        wg_hypothesis_report(524289, 2)


def test_wg_rejects_bad_n_and_g():
    with pytest.raises(DomainError, match="odd"):
        wg_hypothesis_report(4, 2)
    with pytest.raises(DomainError):
        wg_hypothesis_report(1, 2)
    with pytest.raises(DomainError):
        wg_hypothesis_report(3, 0)


# ---------------------------------------------------------------------------
# value types: frozen records with the dataclass behaviour
# ---------------------------------------------------------------------------

def catalog_entry():
    data = FixedPointData(2, (FixedComponent("x0", 1, WeightVector((2, -1))),), 4)
    value = KappaValue(CharClassMonomial(2, (1, 0)), Fraction(5, 2), GAMMA, 2)
    return CatalogEntry("x", data, (value,), "note")


@pytest.mark.parametrize(
    "value, text",
    [
        (
            catalog_entry(),
            "CatalogEntry(label='x', data=FixedPointData(fiber_half_dim=2, "
            "components=(FixedComponent(name='x0', euler_char=1, "
            "weights=WeightVector(weights=(2, -1))),), fiber_euler_char=4), "
            "expected=(KappaValue(class_monomial=CharClassMonomial(fiber_half_dim=2, "
            "p_exponents=(1, 0), e_exponent=0), coefficient=Fraction(5, 2), "
            "generator='gamma', generator_power=2),), provenance_note='note')",
        ),
        (
            rationally_odd_check([2, 0, 0, 0, 1]),
            "RationalOddity(rationally_odd=True, b_even=3, b_odd=0, euler_char=3, "
            "notes=('b_0 = 2, expected 1 for a connected manifold',))",
        ),
        (
            wg_hypothesis_report(3, 2),
            "WgHypothesisReport(n=3, g=2, manifold='connected sum of 2 copies of S^3 x S^3', "
            "euler_char=-2, betti=(1, 0, 0, 4, 0, 0, 1), rationally_odd=True, "
            "fixed_set='S^0 x S^3', fixed_set_nonempty=True, "
            "hypotheses=HypothesisFlags(rationally_odd=True, negative_euler_char=True, "
            "nontrivial_action_assumed=True), theorems_apply=True)",
        ),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
)
def test_value_types_keep_the_frozen_dataclass_behaviour(value, text):
    check_frozen_record(value, text)
