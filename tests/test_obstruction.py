import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kappa_forge.errors import DomainError
from kappa_forge.obstruction import (
    CONSISTENT,
    RULED_OUT,
    BVector,
    Certificate,
    BettiFeasibility,
    HypothesisFlags,
    NotApplicable,
    Reason,
    Verdict,
    adams_transform,
    betti_feasible,
    nonkinetic_certificate,
    theorem_a_check,
    weights_to_b,
)
from oracles import check_frozen_record, gcd_power_of_two, self_map_degree_realizable

ALL_FLAGS = HypothesisFlags.all_true()


def betti_feasible_brute(w_even, w_odd, m_even, m_odd):
    """Oracle: scan every candidate decrement directly."""
    for k in range(0, w_even + w_odd + 1):
        if m_even == w_even - k and m_odd == w_odd - k:
            return True, k
    return False, None


# ---------------------------------------------------------------------------
# gcd_power_of_two
# ---------------------------------------------------------------------------

def test_gcd_power_of_two_examples():
    assert not gcd_power_of_two([3, 6, 9])
    assert gcd_power_of_two([2, 4])
    assert not gcd_power_of_two([0, 0])
    assert gcd_power_of_two([1])
    assert gcd_power_of_two([-8, 12])  # gcd of absolute values is 4
    assert gcd_power_of_two([0, 16])


def test_gcd_power_of_two_rejects_empty():
    with pytest.raises(DomainError):
        gcd_power_of_two([])


# ---------------------------------------------------------------------------
# theorem_a_check
# ---------------------------------------------------------------------------

def test_check_gcd_with_odd_prime():
    verdict = theorem_a_check(BVector.of([9, 18]), ALL_FLAGS)
    assert verdict.status == RULED_OUT
    assert verdict.applicable
    assert [(r.kind, r.detail) for r in verdict.reasons] == [("gcd_has_odd_prime", 3)]


def test_check_consistent():
    verdict = theorem_a_check(BVector.of([1, 5]), ALL_FLAGS)
    assert verdict.status == CONSISTENT
    assert verdict.reasons == ()


def test_check_non_integer():
    verdict = theorem_a_check(BVector.of([Fraction(1, 2)]), ALL_FLAGS)
    assert verdict.status == RULED_OUT
    assert [(r.kind, r.detail) for r in verdict.reasons] == [("non_integer", 1)]


def test_check_all_zero():
    verdict = theorem_a_check(BVector.of([0, 0, 0]), ALL_FLAGS)
    assert verdict.status == RULED_OUT
    assert verdict.reasons[0].kind == "all_zero"


def test_check_records_inapplicability():
    flags = HypothesisFlags(True, False, True)
    verdict = theorem_a_check(BVector.of([3, 6]), flags)
    assert verdict.status == RULED_OUT
    assert not verdict.applicable


def test_check_multiple_non_integer_indices():
    verdict = theorem_a_check(
        BVector.of([1, Fraction(1, 3), Fraction(2, 5)]), ALL_FLAGS
    )
    assert [(r.kind, r.detail) for r in verdict.reasons] == [
        ("non_integer", 2),
        ("non_integer", 3),
    ]


@given(b=st.lists(st.integers(-50, 50), min_size=1, max_size=6), shift=st.integers(0, 6))
def test_check_invariant_under_powers_of_two(b, shift):
    base = theorem_a_check(BVector.of(b), ALL_FLAGS)
    scaled = theorem_a_check(BVector.of([x << shift for x in b]), ALL_FLAGS)
    assert base.status == scaled.status


@given(
    b=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
    p=st.sampled_from([3, 5, 7, 11, 13]),
)
def test_check_odd_prime_scaling_rules_out(b, p):
    base = theorem_a_check(BVector.of(b), ALL_FLAGS)
    if base.status == CONSISTENT:
        scaled = theorem_a_check(BVector.of([p * x for x in b]), ALL_FLAGS)
        assert scaled.status == RULED_OUT


# ---------------------------------------------------------------------------
# weights_to_b
# ---------------------------------------------------------------------------

def test_weights_to_b_examples():
    assert [int(x) for x in weights_to_b((1, 2))] == [5, 4]
    assert [int(x) for x in weights_to_b((1, 1, 1))] == [3, 3, 1]
    assert [int(x) for x in weights_to_b((0, 3))] == [9, 0]


def test_weights_to_b_without_unit_weight_can_fail_gcd():
    b = weights_to_b((0, 3))
    assert not gcd_power_of_two([int(x) for x in b])


def test_weights_with_unit_entry_have_power_of_two_gcd_small():
    # exhaustive over n <= 3, entries 0..8 with a 1 or 2 present
    import itertools

    for n in (1, 2, 3):
        for w in itertools.combinations_with_replacement(range(9), n):
            if 1 not in w and 2 not in w:
                continue
            assert gcd_power_of_two([int(x) for x in weights_to_b(w)]), w


def test_weights_with_unit_entry_gcd_sampled_larger_n():
    import random

    rng = random.Random(55)
    for _ in range(400):
        n = rng.choice([5, 6])
        w = [rng.randint(-12, 12) for _ in range(n)]
        w[rng.randrange(n)] = rng.choice([1, -1, 2, -2])
        assert gcd_power_of_two([int(x) for x in weights_to_b(tuple(w))]), w


# ---------------------------------------------------------------------------
# adams_transform / self-map degrees
# ---------------------------------------------------------------------------

def test_adams_examples():
    assert [str(x) for x in adams_transform(3, BVector.of([1, 2]))] == ["9", "162"]
    b = BVector.of([Fraction(1, 2), 7])
    assert adams_transform(1, b) == b


def test_adams_rejects_even_and_nonpositive_k():
    for k in (2, 4, 0, -3):
        with pytest.raises(DomainError):
            adams_transform(k, BVector.of([1]))


def test_adams_value_limit_is_a_lower_bound():
    # k = 2^m + 1 gives each entry b_i at least 2im bits, less the denominator's
    m = 2**19
    k = 2**m + 1
    assert adams_transform(k, BVector.of([1])).entries == (k * k,)  # 2^20 bits: kept
    with pytest.raises(DomainError, match="exceed the limit of 1048576 bits"):
        adams_transform(2 ** (m + 1) + 1, BVector.of([1]))
    small = Fraction(1, 2**10)  # an 11-bit denominator lowers the bound by 11
    assert adams_transform(2 ** (m + 5) + 1, BVector.of([small])).entries[0] > 0
    with pytest.raises(DomainError):
        adams_transform(2 ** (m + 6) + 1, BVector.of([small]))
    # zero entries and k = 1 never count against the limit
    assert adams_transform(10**999 + 1, BVector.of([1] + [0] * 500)).entries[1:] == (0,) * 500
    assert adams_transform(1, BVector.of([7] * 5000)).entries == (7,) * 5000


@given(
    k1=st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]),
    k2=st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]),
    b=st.lists(st.fractions(), min_size=1, max_size=4),
)
def test_adams_composition(k1, k2, b):
    bv = BVector.of(b)
    assert adams_transform(k1, adams_transform(k2, bv)) == adams_transform(k1 * k2, bv)


@given(
    p=st.sampled_from([3, 5, 7, 11, 13]),
    b=st.lists(st.integers(-40, 40), min_size=1, max_size=5),
)
def test_odd_prime_twist_always_ruled_out(p, b):
    bv = BVector.of(b)
    base = theorem_a_check(bv, ALL_FLAGS)
    if base.status != CONSISTENT:
        return  # only action-realizable vectors feed the pipeline
    verdict = theorem_a_check(adams_transform(p, bv), ALL_FLAGS)
    assert verdict.status == RULED_OUT
    assert any(r.kind == "gcd_has_odd_prime" and r.detail == p for r in verdict.reasons)


def test_self_map_degree_realizable():
    assert self_map_degree_realizable(0)
    assert self_map_degree_realizable(1)
    assert self_map_degree_realizable(9)
    assert self_map_degree_realizable(225)
    assert not self_map_degree_realizable(4)
    assert not self_map_degree_realizable(15)
    assert not self_map_degree_realizable(-9)
    assert not self_map_degree_realizable(2)


# ---------------------------------------------------------------------------
# nonkinetic_certificate
# ---------------------------------------------------------------------------

def test_certificate_basic():
    cert = nonkinetic_certificate(BVector.of([1, 2]), 3, ALL_FLAGS)
    assert isinstance(cert, Certificate)
    assert cert.witness_prime == 3
    assert cert.gcd == 9
    assert [str(x) for x in cert.b_transformed] == ["9", "162"]
    assert cert.conclusion == "non-kinetic"


def test_certificate_from_weights():
    cert = nonkinetic_certificate(weights_to_b((1, 2)), 5, ALL_FLAGS)
    assert isinstance(cert, Certificate)
    assert cert.witness_prime == 5
    assert cert.gcd == 125
    assert [str(x) for x in cert.b_transformed] == ["125", "2500"]


def test_certificate_composite_k_reports_smallest_prime():
    cert = nonkinetic_certificate(BVector.of([1, 1]), 15, ALL_FLAGS)
    assert isinstance(cert, Certificate)
    assert cert.witness_prime == 3
    assert cert.gcd % 225 == 0


def test_certificate_all_zero_base_not_applicable():
    result = nonkinetic_certificate(BVector.of([0, 0]), 3, ALL_FLAGS)
    assert isinstance(result, NotApplicable)
    assert "base values" in result.reason


def test_certificate_needs_flags():
    result = nonkinetic_certificate(
        BVector.of([1, 2]), 3, HypothesisFlags(True, True, False)
    )
    assert isinstance(result, NotApplicable)
    assert "nontrivial_action_assumed" in result.reason


def test_certificate_rejects_bad_k():
    with pytest.raises(DomainError):
        nonkinetic_certificate(BVector.of([1, 2]), 1, ALL_FLAGS)
    with pytest.raises(DomainError):
        nonkinetic_certificate(BVector.of([1, 2]), 4, ALL_FLAGS)


def test_certificate_json_schema():
    cert = nonkinetic_certificate(BVector.of([1, 2]), 3, ALL_FLAGS)
    payload = cert.to_json_dict()
    assert set(payload) == {
        "k",
        "b_base",
        "b_transformed",
        "gcd",
        "witness_prime",
        "hypotheses",
        "conclusion",
    }
    assert payload["b_base"] == ["1", "2"]
    assert payload["conclusion"] == "non-kinetic"
    assert payload["hypotheses"] == {
        "rationally_odd": True,
        "negative_euler_char": True,
        "nontrivial_action_assumed": True,
    }


# ---------------------------------------------------------------------------
# betti_feasible
# ---------------------------------------------------------------------------

def test_betti_examples():
    assert betti_feasible(2, 6, 2, 6).k == 0
    assert betti_feasible(2, 6, 1, 5).k == 1
    assert not betti_feasible(2, 6, 2, 0).feasible


def test_betti_identity_case():
    for x in range(5):
        for y in range(5):
            result = betti_feasible(x, y, x, y)
            assert result.feasible and result.k == 0


def test_betti_rejects_negative():
    with pytest.raises(DomainError):
        betti_feasible(-1, 0, 0, 0)


def test_betti_matches_brute_force_sample():
    for quad in [(2, 6, 1, 5), (2, 6, 2, 0), (5, 5, 0, 0), (3, 1, 2, 0), (0, 0, 0, 0)]:
        got = betti_feasible(*quad)
        want_ok, want_k = betti_feasible_brute(*quad)
        assert got.feasible == want_ok
        assert got.k == want_k


# ---------------------------------------------------------------------------
# BVector plumbing
# ---------------------------------------------------------------------------

def test_bvector_rejects_empty():
    with pytest.raises(DomainError):
        BVector(())


def test_bvector_parsing_and_formatting():
    b = BVector.of(["1/2", 3, Fraction(-7, 4)])
    assert str(b) == "1/2,3,-7/4"
    assert len(b) == 3


def test_int_entries_stay_int_and_read_as_the_same_fractions():
    ints, fractions = BVector((1, 2)), BVector((Fraction(1), Fraction(2)))
    assert [type(x) for x in ints] == [int, int]
    assert [type(x) for x in fractions] == [Fraction, Fraction]
    assert ints == fractions and hash(ints) == hash(fractions)
    assert str(ints) == str(fractions) == "1,2"
    certificates = [nonkinetic_certificate(b, 3, ALL_FLAGS) for b in (ints, fractions)]
    verdicts = [theorem_a_check(b, ALL_FLAGS) for b in (ints, fractions)]
    for results in (certificates, verdicts):
        first, second = (json.dumps(r.to_json_dict(), indent=2, sort_keys=True) for r in results)
        assert first == second
    assert [type(x) for x in certificates[0].b_transformed] == [int, int]
    # bool and float are still refused, and any other entry still becomes a Fraction
    for bad in (True, 1.0):
        with pytest.raises(TypeError):
            BVector((1, bad))
    assert type(BVector(("2",)).entries[0]) is Fraction


# ---------------------------------------------------------------------------
# result types: frozen records with the dataclass behaviour
# ---------------------------------------------------------------------------

FLAGS_TEXT = (
    "HypothesisFlags(rationally_odd=True, negative_euler_char=True, "
    "nontrivial_action_assumed=True)"
)


@pytest.mark.parametrize(
    "value, text",
    [
        (
            BVector((1, Fraction(1, 2))),
            "BVector(entries=(1, Fraction(1, 2)))",
        ),
        (
            HypothesisFlags(True, False, True),
            "HypothesisFlags(rationally_odd=True, negative_euler_char=False, "
            "nontrivial_action_assumed=True)",
        ),
        (Reason("all_zero"), "Reason(kind='all_zero', detail=None)"),
        (Reason("gcd_has_odd_prime", 3), "Reason(kind='gcd_has_odd_prime', detail=3)"),
        (
            theorem_a_check(BVector((0, 0)), ALL_FLAGS),
            "Verdict(status='ruled_out', reasons=(Reason(kind='all_zero', detail=None),), "
            "applicable=True)",
        ),
        (
            nonkinetic_certificate(BVector((1, 2)), 3, ALL_FLAGS),
            "Certificate(k=3, b_base=BVector(entries=(1, 2)), "
            "b_transformed=BVector(entries=(9, 162)), gcd=9, "
            f"witness_prime=3, hypotheses={FLAGS_TEXT}, conclusion='non-kinetic')",
        ),
        (NotApplicable("no flags"), "NotApplicable(reason='no flags')"),
        (BettiFeasibility(True, 1), "BettiFeasibility(feasible=True, k=1)"),
        (BettiFeasibility(False, None), "BettiFeasibility(feasible=False, k=None)"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
)
def test_result_types_keep_the_frozen_dataclass_behaviour(value, text):
    check_frozen_record(value, text)


def test_record_defaults_and_normalization():
    assert Reason(kind="all_zero") == Reason("all_zero", None)
    cert = nonkinetic_certificate(BVector((1, 2)), 3, ALL_FLAGS)
    assert cert.conclusion == "non-kinetic"
    assert Certificate(*[getattr(cert, f) for f in Certificate.__slots__[:-1]]) == cert
    # __post_init__ still runs: an integer entry stays int, the rest become Fractions,
    # and a bad verdict is refused
    entries = BVector(entries=(1, "1/2")).entries
    assert entries == (Fraction(1), Fraction(1, 2))
    assert [type(x) for x in entries] == [int, Fraction]
    with pytest.raises(DomainError):
        Verdict(RULED_OUT, (), True)
    assert HypothesisFlags(True, False, True).to_json_dict() == {
        "rationally_odd": True,
        "negative_euler_char": False,
        "nontrivial_action_assumed": True,
    }
