"""Independent checks of the one-pass evaluation paths.

``sigma_eval`` and ``sigma_eval_many`` build each weight vector's
elementary symmetric values of the squares in a single truncated pass, and
``compare_expected`` shares that pass across all annotations of a
component.  Each fast path is checked here against a separate computation,
and call counts guard the sharing itself.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_forge import localization, symalg
from kappa_forge.errors import DomainError
from kappa_forge.localization import (
    C2,
    GAMMA,
    ExpectedComparison,
    FixedComponent,
    FixedPointData,
    KappaValue,
    compare_expected,
    gamma_to_c2,
    localize_circle,
)
from kappa_forge.obstruction import weights_to_b
from kappa_forge.symalg import (
    CharClassMonomial,
    elementary_symmetric,
    sigma_eval,
    sigma_eval_many,
)

WEIGHT = st.integers(-10**6, 10**6) | st.just(0)


def weight_vectors(n):
    return st.lists(WEIGHT, min_size=n, max_size=n)


def monomials(n):
    """Monomials with small exponents, the e-exponent reaching non-canonical 2 and 3."""
    return st.builds(
        CharClassMonomial,
        st.just(n),
        st.tuples(*[st.integers(0, 2)] * n),
        st.integers(0, 3),
    )


# ---------------------------------------------------------------------------
# sigma_eval against sympy's expansion of prod(1 + a_j^2 t)
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_sigma_eval_matches_sympy_expansion(n, data):
    sympy = pytest.importorskip("sympy")
    weights = data.draw(weight_vectors(n))
    c = data.draw(monomials(n))
    t = sympy.Symbol("t")
    poly = sympy.Poly(sympy.prod([1 + a * a * t for a in weights]), t)
    e = [int(poly.coeff_monomial(t**i)) for i in range(n + 1)]
    expected = prod(e[i] ** k for i, k in enumerate(c.p_exponents, start=1))
    expected *= prod(weights) ** c.e_exponent
    assert sigma_eval(c, weights) == expected


# ---------------------------------------------------------------------------
# sigma_eval_many against sigma_eval, one monomial at a time
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_sigma_eval_many_matches_sigma_eval(n, data):
    weights = data.draw(weight_vectors(n))
    cs = data.draw(st.lists(monomials(n), max_size=6))
    assert sigma_eval_many(cs, weights) == [sigma_eval(c, weights) for c in cs]


def test_sigma_eval_many_dimension_mismatch_message():
    good = CharClassMonomial.pontryagin(1, 2)
    bad = CharClassMonomial.pontryagin(1, 3)
    with pytest.raises(DomainError) as single:
        sigma_eval(bad, (1, 2))
    with pytest.raises(DomainError) as many:
        sigma_eval_many([good, bad], (1, 2))
    assert str(many.value) == str(single.value)


def test_sigma_eval_many_of_no_monomials():
    assert sigma_eval_many([], (3, 4)) == []


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_weights_to_b_matches_elementary_symmetric(n, data):
    weights = data.draw(weight_vectors(n))
    squares = [a * a for a in weights]
    assert [int(x) for x in weights_to_b(weights)] == [
        elementary_symmetric(i, squares) for i in range(1, n + 1)
    ]


# ---------------------------------------------------------------------------
# compare_expected against localize_circle, one annotation at a time
# ---------------------------------------------------------------------------

def compare_one_by_one(data, expected):
    out = []
    for ev in expected:
        kv = localize_circle(data, ev.class_monomial)
        if ev.generator == C2:
            kv = gamma_to_c2(kv)
        out.append(ExpectedComparison(ev, kv))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


@st.composite
def fixed_point_data(draw, n):
    """Random data, sometimes unusable: a short weight vector or a wrong chi(W)."""
    components = []
    for idx in range(draw(st.integers(0, 5))):
        size = n - 1 if n > 1 and draw(st.integers(0, 19)) == 0 else n
        components.append(
            FixedComponent(f"x{idx}", draw(st.integers(-3, 3)), draw(weight_vectors(size)))
        )
    chi = draw(st.none() | st.just(sum(c.euler_char for c in components)) | st.integers(-3, 3))
    return FixedPointData(n, tuple(components), chi)


@st.composite
def annotations(draw, n):
    """KappaValues for random monomials, sometimes of another fiber dimension."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        m = n + 1 if draw(st.integers(0, 19)) == 0 else n
        c = draw(monomials(m))
        generator = C2 if c.degree % 4 == 0 and draw(st.booleans()) else GAMMA
        power = c.degree // 4 if generator == C2 else c.degree // 2
        out.append(KappaValue(c, Fraction(draw(st.integers(-5, 5))), generator, power))
    return out


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_compare_expected_matches_localize_circle(n, data):
    d = data.draw(fixed_point_data(n))
    expected = data.draw(annotations(n))
    assert outcome(compare_expected, d, expected) == outcome(compare_one_by_one, d, expected)


# ---------------------------------------------------------------------------
# the sharing itself: call counts
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_compare_expected_shares_one_pass_per_component(monkeypatch):
    n, k = 6, 5
    comps = tuple(
        FixedComponent(f"x{j}", 1 + j, tuple(range(j + 1, j + 1 + n))) for j in range(k)
    )
    data = FixedPointData(n, comps, sum(c.euler_char for c in comps))
    expected = [
        KappaValue(CharClassMonomial.pontryagin(i, n), 0, C2, i) for i in range(1, n + 1)
    ] + [KappaValue(CharClassMonomial.euler(n), 0, GAMMA, n)]
    passes = count_calls(monkeypatch, symalg, "_elementary_range")
    validations = count_calls(monkeypatch, localization, "validate_fixed_data")
    kernel = count_calls(monkeypatch, symalg, "_elementary_upto")
    compare_expected(data, expected)
    assert len(passes) == k
    assert len(validations) == 1
    assert len(kernel) == k


def test_sigma_eval_runs_one_pass_for_all_factors(monkeypatch):
    kernel = count_calls(monkeypatch, symalg, "_elementary_upto")
    c = symalg.parse_class_monomial("e*p1^2*p3*p5", 5)
    sigma_eval(c, (1, 2, 3, 4, 5))
    assert [args[0] for args in kernel] == [5]
