"""Localization grouped by rows of absolute weights, against the per-component sums.

``localize_circle`` and ``compare_expected`` evaluate once per distinct row
of sorted absolute weights and weight that value by the row's chi sum, or
by its signed chi sum for an odd e-exponent.  The per-component loops in
``oracles`` are the reference; call counts guard the grouping itself.
Each differential runs on constructed data and again on that data parsed
back from its file payload, whose parser fills the columns directly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_forge import cli, localization, symalg
from kappa_forge.errors import MAX_VALUE_BITS, DomainError
from kappa_forge.localization import (
    C2,
    GAMMA,
    FixedComponent,
    FixedPointData,
    KappaValue,
    compare_expected,
    fixed_point_payload,
    localize_circle,
    parse_fixed_point_payload,
    pullback_su2,
    read_fixed_point_file,
    write_fixed_point_file,
)
from kappa_forge.symalg import CharClassMonomial, WeightVector

import oracles
from test_one_pass import count_calls, outcome

BIG = 2**20  # an exponent that takes any base of two or more bits past the value limit


def reparsed(d):
    """``d`` written to its file payload and parsed back: the same data, read into columns."""
    return parse_fixed_point_payload(fixed_point_payload(d)).data


def distinct_rows(d):
    return {tuple(sorted(map(abs, comp.weights))) for comp in d.components}


@st.composite
def grouped_data(draw, n):
    """Components drawn from a few rows, each re-signed and reordered.

    Rows repeat, zero weights occur, and one component in three is followed
    by a twin of opposite chi, so many rows' chi sums cancel to 0.
    """
    pool = draw(
        st.lists(
            st.lists(st.integers(0, 4) | st.sampled_from([7, 2**40]), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
    components = []
    for idx in range(draw(st.integers(0, 12))):
        row = draw(st.sampled_from(pool))
        chi = draw(st.integers(-3, 3))
        for twin in range(1 + (draw(st.integers(0, 2)) == 0)):
            signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
            weights = draw(st.permutations([s * a for s, a in zip(signs, row)]))
            components.append(FixedComponent(f"x{idx}.{twin}", -chi if twin else chi, weights))
    chi_w = sum(c.euler_char for c in components)
    return FixedPointData(n, tuple(components), draw(st.just(chi_w) | st.none()))


def monomials(n):
    """e^0 to e^3 with mixed p-exponents, now and then one past the value limit."""
    return st.builds(
        CharClassMonomial,
        st.just(n),
        st.tuples(*[st.integers(0, 2) | st.just(BIG)] * n),
        st.integers(0, 3),
    )


@st.composite
def annotations(draw, n):
    """KappaValues whose classes mix odd and even e-exponents."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        c = draw(monomials(n))
        generator = C2 if c.degree % 4 == 0 and draw(st.booleans()) else GAMMA
        power = c.degree // 4 if generator == C2 else c.degree // 2
        out.append(KappaValue(c, Fraction(draw(st.integers(-5, 5))), generator, power))
    return out


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_localize_circle_matches_per_component_sum(n, data):
    d = data.draw(grouped_data(n))
    c = data.draw(monomials(n))
    reference = outcome(oracles.localize_circle, d, c)
    assert outcome(localize_circle, d, c) == reference
    assert outcome(localize_circle, reparsed(d), c) == reference


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_compare_expected_matches_per_component_sum(n, data):
    d = data.draw(grouped_data(n))
    expected = data.draw(annotations(n))
    reference = outcome(oracles.compare_expected, d, expected)
    assert outcome(compare_expected, d, expected) == reference
    assert outcome(compare_expected, reparsed(d), expected) == reference


def test_rows_that_differ_by_sign_or_order_are_one_row():
    comps = (
        FixedComponent("a", 2, (1, -2)),
        FixedComponent("b", 3, (-2, 1)),
        FixedComponent("c", 6, (2, 1)),
        FixedComponent("d", 7, (0, 3)),
        FixedComponent("e", -7, (-3, 0)),
    )
    d = FixedPointData(2, comps)
    rows = list(localization._weight_rows(d, True))
    assert rows == [(WeightVector((1, 2)), 11, -2 - 3 + 6), (WeightVector((0, 3)), 0, 0)]
    assert [row[2] for row in localization._weight_rows(d, False)] == [0, 0]
    euler = CharClassMonomial.euler(2)
    assert localize_circle(d, euler).coefficient == 2 * -2 + 3 * -2 + 6 * 2


# ---------------------------------------------------------------------------
# the grouping itself: call counts
# ---------------------------------------------------------------------------

def repeated_rows_data():
    """Twelve components over three rows of absolute weights, one row summing to chi 0."""
    weights = [(1, 2), (-2, 1), (2, -1), (3, 3), (-3, 3), (3, -3), (0, 5), (5, 0), (-5, 0)]
    weights += [(1, -2), (-3, -3), (0, -5)]
    chis = [1, 2, -3, 1, 1, 1, 4, -2, -2, 1, 1, 0]
    comps = tuple(FixedComponent(f"x{j}", chi, w) for j, (chi, w) in enumerate(zip(chis, weights)))
    return FixedPointData(2, comps, sum(chis))


def test_one_sigma_eval_per_distinct_row(monkeypatch):
    d = repeated_rows_data()
    assert len(distinct_rows(d)) == 3
    single = count_calls(monkeypatch, localization, "sigma_eval")
    passes = count_calls(monkeypatch, symalg, "_elementary_range")
    for c in (CharClassMonomial.pontryagin(1, 2), CharClassMonomial.euler(2)):
        single.clear()
        localize_circle(d, c)
        assert len(single) == 3
    single.clear()
    pullback_su2(d, 2)
    assert len(single) == 3
    expected = [
        KappaValue(CharClassMonomial.pontryagin(1, 2), 0, C2, 1),
        KappaValue(CharClassMonomial.euler(2), 0, GAMMA, 2),
        KappaValue(CharClassMonomial(2, (1, 0), 2), 0, C2, 3),
    ]
    passes.clear()
    compare_expected(d, expected)
    assert len(passes) == 3


def test_one_component_file_still_reaches_the_evaluators(monkeypatch, tmp_path, capsys):
    path = tmp_path / "one.json"
    data = FixedPointData(2, (FixedComponent("m", 2, (3, -1)),), 2)
    annotation = KappaValue(CharClassMonomial.pontryagin(1, 2), 20, C2, 1)
    write_fixed_point_file(path, data, [annotation])
    loaded = read_fixed_point_file(path)
    single = count_calls(monkeypatch, localization, "sigma_eval")
    passes = count_calls(monkeypatch, symalg, "_elementary_range")
    assert pullback_su2(loaded.data, 1)[1] == 10
    assert len(single) == 1
    passes.clear()
    assert [c.matches for c in compare_expected(loaded.data, loaded.expected)] == [True]
    assert len(passes) == 1
    single.clear()
    assert cli.main(["pullback-su2", "--input", str(path), "--i", "2"]) == 0
    assert capsys.readouterr().out
    assert len(single) == 1


def raw_repeats_data():
    """Raw rows that repeat: (1, 2) sums to chi 0 on its own, while (-2, 1) and
    (2, 1) share its row of absolute weights with the opposite and the same sign."""
    weights = [(1, 2), (-2, 1), (1, 2), (0, 3), (2, 1), (1, 2), (-2, 1), (3, 0), (0, 3), (-3, 0)]
    chis = [2, 3, -1, 1, -3, -1, 1, 2, -1, -2]
    comps = tuple(FixedComponent(f"x{j}", chi, w) for j, (chi, w) in enumerate(zip(chis, weights)))
    return FixedPointData(2, comps, sum(chis))


def test_sorted_key_is_built_once_per_distinct_raw_row(monkeypatch):
    calls = []

    def counting_sorted(values, **kwargs):
        calls.append(1)
        return sorted(values, **kwargs)

    monkeypatch.setattr(localization, "sorted", counting_sorted, raising=False)
    for d in (raw_repeats_data(), reparsed(raw_repeats_data())):
        assert len(d.components) == 10 and len(set(d._rows)) == 6 and len(distinct_rows(d)) == 2
        for signed in (False, True):
            calls.clear()
            rows = list(localization._weight_rows(d, signed))
            assert len(calls) == 6
            assert [row for row, _, _ in rows] == [WeightVector((1, 2)), WeightVector((0, 3))]


@pytest.mark.parametrize(
    "c",
    [
        CharClassMonomial.pontryagin(1, 2),
        CharClassMonomial.pontryagin(2, 2),
        CharClassMonomial.euler(2),
        CharClassMonomial(2, (1, 0), 1),
        CharClassMonomial(2, (0, 0), 3),
        CharClassMonomial(2, (BIG, 0), 0),
        CharClassMonomial(2, (0, 0), BIG + 1),
    ],
    ids=str,
)
def test_raw_rows_that_cancel_or_differ_in_sign_match_the_per_component_sum(c):
    d = raw_repeats_data()
    reference = outcome(oracles.localize_circle, d, c)
    assert outcome(localize_circle, d, c) == outcome(localize_circle, reparsed(d), c) == reference
    generator = C2 if c.degree % 4 == 0 else GAMMA
    expected = [KappaValue(c, 0, generator, c.degree // (4 if generator == C2 else 2))]
    reference = outcome(oracles.compare_expected, d, expected)
    assert outcome(compare_expected, d, expected) == reference
    assert outcome(compare_expected, reparsed(d), expected) == reference


@pytest.mark.parametrize("e_exponent", [0, 1])
def test_oversized_row_raises_though_its_chi_sums_cancel(e_exponent):
    # chi sum 1 - 1 = 0 and signed chi sum 1*(+1) + (-1)*(+1) = 0 on the row (1, 2)
    d = FixedPointData(2, (FixedComponent("a", 1, (2, 1)), FixedComponent("b", -1, (-1, -2))), 0)
    c = CharClassMonomial(2, (BIG, 0), e_exponent)
    with pytest.raises(DomainError) as single:
        oracles.localize_circle(FixedPointData(2, d.components[:1]), c)
    assert f"limit of {MAX_VALUE_BITS} bits" in str(single.value)
    for fn in (localize_circle, oracles.localize_circle):
        with pytest.raises(DomainError) as grouped:
            fn(d, c)
        assert str(grouped.value) == str(single.value)
    expected = [KappaValue(c, 0, GAMMA, c.degree // 2)]
    with pytest.raises(DomainError) as compared:
        compare_expected(d, expected)
    assert str(compared.value) == str(single.value)
