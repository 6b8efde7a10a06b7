import itertools
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_forge.errors import DomainError, ParseError
from kappa_forge.symalg import (
    CharClassMonomial,
    WeightVector,
    elementary_symmetric,
    parse_class_monomial,
    reduce_monomial,
    sigma_eval,
)
from kappa_forge import symalg
from oracles import check_frozen_record, elementary_upto, signed_doubling_sigma


def esp_by_enumeration(i, values):
    """Independent oracle: sum of products over all i-element subsets."""
    return sum(prod(combo) for combo in itertools.combinations(values, i))


# ---------------------------------------------------------------------------
# reduce_monomial / degree
# ---------------------------------------------------------------------------

def test_reduce_single_euler_pair():
    m = CharClassMonomial(2, (0, 0), 2)
    assert reduce_monomial(m) == CharClassMonomial(2, (0, 1), 0)


def test_reduce_already_canonical():
    m = CharClassMonomial(2, (1, 0), 1)
    assert reduce_monomial(m) == m


def test_reduce_repeated_substitution():
    m = CharClassMonomial(3, (0, 0, 1), 5)
    assert reduce_monomial(m) == CharClassMonomial(3, (0, 0, 3), 1)


def test_degree_examples():
    assert CharClassMonomial.pontryagin(1, 2).degree == 4
    assert CharClassMonomial.euler(3).degree == 6
    assert CharClassMonomial(2, (2, 0), 1).degree == 12


@given(
    n=st.integers(1, 5),
    e_exp=st.integers(0, 8),
    data=st.data(),
)
def test_degree_invariant_under_reduction(n, e_exp, data):
    exps = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    m = CharClassMonomial(n, exps, e_exp)
    assert reduce_monomial(m).degree == m.degree
    assert reduce_monomial(m).is_canonical


def test_monomial_rejects_bad_shapes():
    with pytest.raises(DomainError):
        CharClassMonomial(0, (), 0)
    with pytest.raises(DomainError):
        CharClassMonomial(2, (1,), 0)
    with pytest.raises(DomainError):
        CharClassMonomial(2, (1, -1), 0)
    with pytest.raises(DomainError):
        CharClassMonomial(2, (0, 0), -1)


# ---------------------------------------------------------------------------
# elementary_symmetric
# ---------------------------------------------------------------------------

def test_elementary_symmetric_examples():
    assert elementary_symmetric(1, [2, 3]) == 5
    assert elementary_symmetric(2, [1, 2, 3]) == 11
    assert elementary_symmetric(0, []) == 1
    assert elementary_symmetric(0, [7, 8, 9]) == 1


def test_elementary_symmetric_rejects_out_of_range():
    with pytest.raises(DomainError):
        elementary_symmetric(3, [1, 2])
    with pytest.raises(DomainError):
        elementary_symmetric(-1, [1, 2])


def test_elementary_symmetric_against_enumeration():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(0, 7)
        values = [rng.randint(-9, 9) for _ in range(n)]
        for i in range(n + 1):
            assert elementary_symmetric(i, values) == esp_by_enumeration(i, values)


def test_elementary_symmetric_big_integers():
    values = [10**6 + j for j in range(8)]
    assert elementary_symmetric(8, values) == prod(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=16), st.data())
def test_elementary_symmetric_matches_the_forward_oracle(values, data):
    # the ends take different passes: 0 and 1 forward, n - 1 and n (n > 2) from sigma_n down
    n = len(values)
    expected = elementary_upto(n, values)
    for i in {0, 1, n - 1, n, data.draw(st.integers(0, n))}:
        if 0 <= i <= n:
            assert elementary_symmetric(i, values) == expected[i], i


@pytest.mark.parametrize("i, forward", [(1, True), (32, True), (33, False), (64, False)])
def test_elementary_symmetric_takes_the_shorter_pass(monkeypatch, i, forward):
    # 64 values: forward to sigma_i costs about 64*i, down to sigma_i about 64*(65 - i)
    calls = []
    for name in ("_elementary_upto", "_elementary_down"):
        kernel = getattr(symalg, name)
        spy = lambda *a, k=kernel, name=name: calls.append(name) or k(*a)  # noqa: E731
        monkeypatch.setattr(symalg, name, spy)
    values = [j * j for j in range(1, 65)]
    assert elementary_symmetric(i, values) == elementary_upto(i, values)[i]
    assert calls == ["_elementary_upto" if forward else "_elementary_down"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=70), st.data())
def test_elementary_range_matches_the_forward_oracle_at_deep_n(values, data):
    # slot 0 and slots low..top, whichever pass is taken; low = n, top 0 and
    # a top above n (only the forward pass reaches past sigma_n) come often
    n = len(values)
    low = data.draw(st.integers(1, n) | st.just(n))
    top = data.draw(st.integers(0, n) | st.sampled_from([0, n + 1, n + 3]))
    got = symalg._elementary_range(low, top, values)
    expected = elementary_upto(top, values)
    assert len(got) > top
    assert got[0] == expected[0] == 1
    assert got[low:top + 1] == expected[low:top + 1]


# factors of 1 to about 1,100 bits, the sizes of e_1..e_64 of the deep-classes rows
FACTOR = st.builds(lambda bits, low: (1 << bits) + low, st.integers(0, 1100), st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.lists(FACTOR, min_size=1, max_size=70))
def test_times_run_is_total_times_the_product(total, run):
    c = CharClassMonomial.one(1)
    bits = total.bit_length() + sum(v.bit_length() - 1 for v in run)
    for order in (run, sorted(run), sorted(run, reverse=True)):
        assert symalg._times_run(c, total, list(order), bits) == total * prod(run)


# ---------------------------------------------------------------------------
# sigma_eval
# ---------------------------------------------------------------------------

def test_sigma_p1_is_sum_of_squares():
    p1 = CharClassMonomial.pontryagin(1, 2)
    for k in (0, 1, 2, 5, 10):
        assert sigma_eval(p1, (k, 1)) == k * k + 1


def test_sigma_euler_vanishes_on_zero_weight():
    for n in (1, 2, 4):
        e = CharClassMonomial.euler(n)
        w = [3] * n
        w[n // 2] = 0
        assert sigma_eval(e, w) == 0


def test_sigma_euler_squared_equals_top_pontryagin():
    e2 = CharClassMonomial(3, (0, 0, 0), 2)
    p3 = CharClassMonomial.pontryagin(3, 3)
    assert sigma_eval(e2, (1, 2, 3)) == sigma_eval(p3, (1, 2, 3)) == 36


def test_sigma_dimension_mismatch():
    with pytest.raises(DomainError):
        sigma_eval(CharClassMonomial.pontryagin(1, 2), (1, 2, 3))


def test_sigma_value_limit_is_exact_for_powers_of_two():
    # p1 on weights (1, 1) is 2, so p1^k is 2^k with k + 1 bits
    limit = 2**20
    assert sigma_eval(parse_class_monomial(f"p1^{limit - 1}", 2), (1, 1)) == 2 ** (limit - 1)
    with pytest.raises(DomainError) as exc:
        sigma_eval(parse_class_monomial(f"p1^{limit}", 2), (1, 1))
    assert str(exc.value) == (
        f"the value of p1^{limit} would exceed the limit of {limit} bits"
    )


def test_sigma_value_limit_never_refuses_bases_zero_and_one():
    huge = 10**11
    assert sigma_eval(parse_class_monomial(f"p1^{huge}", 2), (1, 0)) == 1
    assert sigma_eval(parse_class_monomial(f"e^{huge}*p2^{huge}", 2), (1, -1)) == 1
    assert sigma_eval(parse_class_monomial(f"p2^{huge}", 2), (5, 0)) == 0


@given(
    n=st.integers(1, 4),
    data=st.data(),
)
def test_sigma_multiplicative(n, data):
    def monomial():
        exps = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
        return CharClassMonomial(n, exps, data.draw(st.integers(0, 2)))

    c1, c2 = monomial(), monomial()
    w = tuple(data.draw(st.integers(-6, 6)) for _ in range(n))
    assert sigma_eval(c1 * c2, w) == sigma_eval(c1, w) * sigma_eval(c2, w)


@given(n=st.integers(1, 5), data=st.data())
def test_sigma_euler_squared_identity(n, data):
    w = tuple(data.draw(st.integers(-8, 8)) for _ in range(n))
    e = CharClassMonomial.euler(n)
    pn = CharClassMonomial.pontryagin(n, n)
    assert sigma_eval(e, w) ** 2 == sigma_eval(pn, w)


@given(n=st.integers(1, 4), data=st.data())
def test_sigma_permutation_and_sign_invariance(n, data):
    exps = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    c = CharClassMonomial(n, exps, 0)  # pure p-monomial
    w = [data.draw(st.integers(-6, 6)) for _ in range(n)]
    base = sigma_eval(c, w)
    shuffled = list(w)
    data.draw(st.randoms(use_true_random=False)).shuffle(shuffled)
    assert sigma_eval(c, shuffled) == base
    flipped = [-a if data.draw(st.booleans()) else a for a in w]
    assert sigma_eval(c, flipped) == base


def test_sigma_euler_sign_flip_negates():
    e = CharClassMonomial.euler(3)
    assert sigma_eval(e, (1, 2, 3)) == -sigma_eval(e, (-1, 2, 3))
    # an even number of flips restores the value
    assert sigma_eval(e, (1, 2, 3)) == sigma_eval(e, (-1, -2, 3))


# ---------------------------------------------------------------------------
# signed_doubling_sigma: the cancellation oracle
# ---------------------------------------------------------------------------

def test_signed_doubling_examples():
    assert signed_doubling_sigma(1, (1, 2)) == 5 == elementary_symmetric(1, [1, 4])
    assert signed_doubling_sigma(0, (3, 7)) == 1
    assert signed_doubling_sigma(2, (1, 2)) == (1 * 2) ** 2
    assert signed_doubling_sigma(3, (2, 3, 4)) == (2 * 3 * 4) ** 2


def test_signed_doubling_matches_squares_exhaustive_n2():
    for a1 in range(-10, 11):
        for a2 in range(-10, 11):
            squares = [a1 * a1, a2 * a2]
            for i in range(3):
                assert signed_doubling_sigma(i, (a1, a2)) == elementary_symmetric(
                    i, squares
                )


@settings(max_examples=60)
@given(n=st.integers(1, 6), data=st.data())
def test_signed_doubling_matches_squares(n, data):
    w = tuple(data.draw(st.integers(-10, 10)) for _ in range(n))
    squares = [a * a for a in w]
    for i in range(n + 1):
        assert signed_doubling_sigma(i, w) == elementary_symmetric(i, squares)


def test_signed_doubling_rejects_out_of_range():
    with pytest.raises(DomainError):
        signed_doubling_sigma(3, (1, 2))


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def test_parse_basic_forms():
    assert parse_class_monomial("e", 2) == CharClassMonomial.euler(2)
    assert parse_class_monomial("p1", 2) == CharClassMonomial.pontryagin(1, 2)
    assert parse_class_monomial("p2^3", 2) == CharClassMonomial(2, (0, 3), 0)
    assert parse_class_monomial("e*p1^2", 2) == CharClassMonomial(2, (2, 0), 1)
    assert parse_class_monomial(" E * P1 ^ 2 ", 2) == parse_class_monomial("e*p1^2", 2)
    assert parse_class_monomial("1", 3) == CharClassMonomial.one(3)


def test_parse_is_whitespace_and_case_insensitive():
    assert parse_class_monomial("  E *  p2  ", 2) == CharClassMonomial(2, (0, 1), 1)


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_class_monomial("p3", 2)
    with pytest.raises(ParseError):
        parse_class_monomial("p0", 2)
    with pytest.raises(ParseError):
        parse_class_monomial("p1^-2", 2)
    with pytest.raises(ParseError):
        parse_class_monomial("q1", 2)
    with pytest.raises(ParseError):
        parse_class_monomial("", 2)
    with pytest.raises(ParseError):
        parse_class_monomial("p1**2", 2)


def test_parse_accumulates_repeated_factors():
    assert parse_class_monomial("e*e", 2) == CharClassMonomial(2, (0, 0), 2)
    assert parse_class_monomial("p1*p1", 2) == CharClassMonomial(2, (2, 0), 0)


@given(n=st.integers(1, 5), data=st.data())
def test_format_parse_round_trip(n, data):
    exps = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    m = CharClassMonomial(n, exps, data.draw(st.integers(0, 1)))
    assert parse_class_monomial(str(m), n) == m


# ---------------------------------------------------------------------------
# WeightVector
# ---------------------------------------------------------------------------

def test_weight_vector_rejects_empty():
    with pytest.raises(DomainError):
        WeightVector(())


def test_weight_vector_coercion():
    assert WeightVector.of([1, 2]).weights == (1, 2)
    w = WeightVector((3, 4))
    assert WeightVector.of(w) is w


@pytest.mark.parametrize(
    "value, text",
    [
        (WeightVector((2, -1)), "WeightVector(weights=(2, -1))"),
        (
            CharClassMonomial(2, (1, 0)),
            "CharClassMonomial(fiber_half_dim=2, p_exponents=(1, 0), e_exponent=0)",
        ),
        (
            CharClassMonomial(2, (0, 1), 1),
            "CharClassMonomial(fiber_half_dim=2, p_exponents=(0, 1), e_exponent=1)",
        ),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
)
def test_value_types_keep_the_frozen_dataclass_behaviour(value, text):
    check_frozen_record(value, text)
