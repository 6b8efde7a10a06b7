import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_forge.errors import DomainError, ParseError
from kappa_forge.su2rep import (
    RealRep,
    WeightMultiset,
    parse_real_rep,
    parse_weight_multiset,
    realize_weights,
    restrict_to_torus,
)
from oracles import (
    ComplexIrrep,
    check_frozen_record,
    check_weight_constraints,
    complex_irrep_weights,
    real_irrep_complexification,
    rep_of_dims,
    restrict_via_complexification,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def all_real_reps(max_total, require_even=True):
    """Enumerate every direct sum of real irreducibles with total dim <= max_total."""
    dims = [d for d in range(1, max_total + 1) if d % 2 == 1 or d % 4 == 0]

    def rec(budget, max_part):
        yield ()
        for d in dims:
            if d > min(budget, max_part):
                break
            for rest in rec(budget - d, d):
                yield (d,) + rest

    for combo in rec(max_total, max_total):
        if combo and (not require_even or sum(combo) % 2 == 0):
            yield rep_of_dims(combo)


# ---------------------------------------------------------------------------
# complex irreducibles
# ---------------------------------------------------------------------------

def test_complex_weights_examples():
    assert complex_irrep_weights(ComplexIrrep(1)) == (-1, 1)
    assert complex_irrep_weights(ComplexIrrep(0)) == (0,)
    assert complex_irrep_weights(ComplexIrrep(4)) == (-4, -2, 0, 2, 4)


@given(two_lambda=st.integers(0, 40))
def test_complex_weights_symmetric_and_balanced(two_lambda):
    ws = complex_irrep_weights(ComplexIrrep(two_lambda))
    assert len(ws) == two_lambda + 1
    assert sum(ws) == 0
    assert tuple(sorted(-w for w in ws)) == tuple(sorted(ws))


def test_complex_irrep_rejects_negative():
    with pytest.raises(DomainError):
        ComplexIrrep(-1)


# ---------------------------------------------------------------------------
# real irreducibles
# ---------------------------------------------------------------------------

def test_complexification_odd_dimension():
    (c,) = real_irrep_complexification(3)
    assert c == ComplexIrrep(2)


def test_complexification_dimension_four():
    assert real_irrep_complexification(4) == (
        ComplexIrrep(1),
        ComplexIrrep(1),
    )


def test_no_real_irrep_in_dimension_two_mod_four():
    for d in (2, 6, 10, 14):
        with pytest.raises(DomainError, match="dimensions 2 mod 4 do not occur"):
            RealRep(((d, 1),))


def test_complexification_preserves_dimension():
    for d in (1, 3, 4, 5, 7, 8, 9, 11, 12, 16, 21, 24):
        parts = real_irrep_complexification(d)
        assert sum(c.dim for c in parts) == d


# ---------------------------------------------------------------------------
# restriction to the torus
# ---------------------------------------------------------------------------

def test_restrict_regular_representation():
    assert restrict_to_torus(rep_of_dims([4])).entries == (1, 1)


def test_restrict_v3_plus_trivial():
    assert restrict_to_torus(rep_of_dims([3, 1])).entries == (2, 0)


def test_restrict_rejects_odd_total():
    with pytest.raises(DomainError, match="odd"):
        restrict_to_torus(rep_of_dims([1]))
    with pytest.raises(DomainError, match="odd"):
        restrict_to_torus(rep_of_dims([3, 4]))


def test_restrict_rejects_odd_total_before_expanding(monkeypatch):
    import kappa_forge.su2rep as su2rep

    expanded = []
    monkeypatch.setattr(su2rep, "_planes", expanded.append)
    for text, total in (("V2000001", 2000001), ("1000*V3+V4+V1", 3005)):
        with pytest.raises(DomainError) as exc:
            restrict_to_torus(parse_real_rep(text))
        assert str(exc.value) == (
            f"total dimension {total} is odd: one trivial line is left over "
            "and cannot be paired into a plane"
        )
    assert expanded == []


def test_parse_refuses_restrictions_past_the_plane_limit():
    # V^d restricts to d // 2 planes; the limit is 2^20 planes
    assert parse_real_rep("V2097152").terms == ((2097152, 1),)
    assert parse_real_rep("699050*V3+2*V1").total_dim == 2097152
    for text in ("V2097152+V3", "699052*V3", "V2097156"):
        with pytest.raises(DomainError, match="exceed the limit of 1048576 planes"):
            restrict_to_torus(parse_real_rep(text))
    # an odd total at the limit still meets the odd-total check
    with pytest.raises(DomainError, match="total dimension 2097153 is odd"):
        restrict_to_torus(parse_real_rep("V2097153"))


def test_parse_stores_one_pair_per_term():
    assert parse_real_rep("3*V4+2*V1").terms == ((4, 3), (1, 2))


def test_real_rep_merges_repeated_dimensions():
    assert parse_real_rep("V1+V4+2*V1+V4").terms == ((4, 2), (1, 3))
    assert RealRep(((1, 2), (3, 1), (1, 5))) == RealRep(((3, 1), (1, 7)))
    assert RealRep(()).terms == ()


def test_real_rep_rejects_bad_terms():
    with pytest.raises(DomainError, match="dimension must be >= 1, got 0"):
        RealRep(((0, 1),))
    with pytest.raises(DomainError, match="multiplicity must be >= 1, got 0"):
        RealRep(((3, 0),))
    with pytest.raises(DomainError, match="multiplicity must be >= 1, got -2"):
        RealRep(((3, 1), (3, -2)))


def test_parse_keeps_huge_multiplicities_as_one_term():
    rep = parse_real_rep(f"{10**40}*V1")
    assert rep.terms == ((1, 10**40),)
    with pytest.raises(DomainError, match="exceed the limit of 1048576 planes"):
        restrict_to_torus(rep)


# the child caps its address space at 1 GB, so listing the planes of a huge
# summand ends in MemoryError there instead of taking the machine's memory
HUGE_SUMMAND = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from kappa_forge.errors import DomainError
from kappa_forge.su2rep import RealRep, restrict_to_torus
rep = RealRep(((2**33 + 1, 1),) + ((1, 1),) * int(sys.argv[1]))
start = time.perf_counter()
try:
    restrict_to_torus(rep)
except DomainError as exc:
    print(f"{time.perf_counter() - start:.6f} {exc}")
"""


@pytest.mark.parametrize("trivial_lines", [0, 1])  # V(2^33 + 1) alone has an odd total
def test_restrict_refuses_a_huge_summand_at_once(trivial_lines):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_SUMMAND, str(trivial_lines)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    elapsed, message = proc.stdout.strip().split(" ", 1)
    assert float(elapsed) < 1
    assert message == "the torus restriction would exceed the limit of 1048576 planes"


def test_restrict_matches_complexification_exhaustive():
    for rep in all_real_reps(24):
        assert restrict_to_torus(rep) == restrict_via_complexification(rep), rep


REAL_IRREP_DIMS = [d for d in range(1, 101) if d % 4 != 2]


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.sampled_from(REAL_IRREP_DIMS), min_size=1, max_size=200))
def test_restrict_matches_complexification_and_round_trips(dims):
    rep = rep_of_dims(dims + [1] * (sum(dims) % 2))
    w = restrict_to_torus(rep)
    assert w == restrict_via_complexification(rep)
    assert realize_weights(w) == rep


def test_restrict_cardinality_is_half_dimension():
    for rep in all_real_reps(14):
        assert len(restrict_to_torus(rep)) == rep.total_dim // 2


# ---------------------------------------------------------------------------
# weight constraints
# ---------------------------------------------------------------------------

def test_constraints_examples():
    assert check_weight_constraints(WeightMultiset((1, 1)), 4).ok
    bad = check_weight_constraints(WeightMultiset((3, 3)), 4)
    assert not bad.ok
    assert bad.failures == ("no weight of absolute value 1 or 2",)
    assert check_weight_constraints(WeightMultiset((2, 0)), 4).ok


def test_constraints_bound_failure():
    result = check_weight_constraints(WeightMultiset((5, 1)), 4)
    assert not result.ok
    assert any("exceeds the bound 3" in msg for msg in result.failures)


def test_constraints_rejects_bad_shapes():
    with pytest.raises(DomainError):
        check_weight_constraints(WeightMultiset((1,)), 4)
    with pytest.raises(DomainError):
        check_weight_constraints(WeightMultiset((1, 2)), 5)


def test_nontrivial_reps_satisfy_constraints_small():
    for rep in all_real_reps(16):
        if all(d == 1 for d, _ in rep.terms):
            continue
        w = restrict_to_torus(rep)
        assert check_weight_constraints(w, rep.total_dim).ok, rep


# ---------------------------------------------------------------------------
# realize_weights
# ---------------------------------------------------------------------------

def test_realize_examples():
    assert realize_weights(WeightMultiset((1, 1))) == rep_of_dims([4])
    assert realize_weights(WeightMultiset((2, 0))) == rep_of_dims([3, 1])
    assert realize_weights(WeightMultiset((4,))) is None


def test_realize_infeasible_cases():
    # a lone weight-2 plane forces the trivial line of V3, which needs a partner
    assert realize_weights(WeightMultiset((2,))) is None
    # odd weights come in doubled staircases
    assert realize_weights(WeightMultiset((1,))) is None
    assert realize_weights(WeightMultiset((3, 1))) is None


def test_realize_pure_zeros():
    rep = realize_weights(WeightMultiset((0, 0)))
    assert rep == rep_of_dims([1, 1, 1, 1])


def test_realize_round_trip_small():
    for rep in all_real_reps(16):
        w = restrict_to_torus(rep)
        witness = realize_weights(w)
        assert witness is not None, rep
        assert restrict_to_torus(witness) == w


def test_realize_matches_exhaustive_search():
    # every multiset of m weights in 0..2m, against every representation of
    # dimension 2m: realize_weights answers exactly for their restrictions
    for m in range(1, 7):
        restrictions = {}
        for rep in all_real_reps(2 * m):
            if rep.total_dim == 2 * m:
                w = restrict_via_complexification(rep)
                assert w not in restrictions, (rep, restrictions.get(w))
                restrictions[w] = rep
        for entries in itertools.combinations_with_replacement(range(2 * m + 1), m):
            w = WeightMultiset(entries)
            assert realize_weights(w) == restrictions.get(w), w


def test_realize_round_trip_many_summands():
    # deep enough to overflow a recursive search
    rep = rep_of_dims([3] * 1500)
    assert realize_weights(restrict_to_torus(rep)) == rep


def test_realize_huge_weight_fails_at_once():
    # the peel stops at the first missing weight instead of listing the block
    assert realize_weights(WeightMultiset((10**18, 0))) is None
    assert realize_weights(WeightMultiset((10**18 + 1, 10**18 + 1))) is None


def test_realize_rejects_nothing_and_is_pure():
    w = WeightMultiset((3, 3, 1, 1))
    first = realize_weights(w)
    second = realize_weights(w)
    assert first == second == rep_of_dims([8])


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def test_parse_real_rep():
    rep = parse_real_rep("V3+V4+2*V1")
    assert rep.terms == ((4, 1), (3, 1), (1, 2))
    assert parse_real_rep("v4") == rep_of_dims([4])
    assert parse_real_rep(" 2 * V1 + V3 ") == rep_of_dims([3, 1, 1])


def test_parse_real_rep_rejects_garbage():
    with pytest.raises(ParseError):
        parse_real_rep("")
    with pytest.raises(ParseError):
        parse_real_rep("W3")
    with pytest.raises(ParseError):
        parse_real_rep("V3+")
    with pytest.raises(ParseError):
        parse_real_rep("0*V3")
    with pytest.raises(DomainError):
        parse_real_rep("V6")


def test_real_rep_formatting():
    assert str(rep_of_dims([4, 3, 1, 1])) == "V4+V3+2*V1"
    assert str(rep_of_dims([5])) == "V5"


def test_parse_weight_multiset_folds_signs():
    assert parse_weight_multiset("-2,1,0").entries == (2, 1, 0)
    with pytest.raises(ParseError):
        parse_weight_multiset("1,x")
    with pytest.raises(ParseError):
        parse_weight_multiset("")
    with pytest.raises(ParseError, match=r"^bad weight '-9{19}\.\.\.' is over the 4300-digit limit$"):
        parse_weight_multiset("1,-" + "9" * 5000)


@pytest.mark.parametrize(
    "value, text",
    [
        (RealRep(((3, 1), (4, 2))), "RealRep(terms=((4, 2), (3, 1)))"),
        (WeightMultiset((2, -1, 0)), "WeightMultiset(entries=(2, 1, 0))"),
        (restrict_to_torus(parse_real_rep("V3+V4+V1")), "WeightMultiset(entries=(2, 1, 1, 0))"),
        (realize_weights(WeightMultiset((2, 0))), "RealRep(terms=((3, 1), (1, 1)))"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
)
def test_result_types_keep_the_frozen_dataclass_behaviour(value, text):
    check_frozen_record(value, text)
