"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines on a green run; on a failure
pytest shows the captured line together with the assertion.
"""

import itertools
import random
from fractions import Fraction

import pytest

from kappa_forge.catalog import s2xs2_family, wg_hypothesis_report
from kappa_forge.errors import DomainError
from kappa_forge.localization import pullback_su2
from kappa_forge.obstruction import (
    BVector,
    Certificate,
    HypothesisFlags,
    adams_transform,
    betti_feasible,
    nonkinetic_certificate,
    weights_to_b,
)
from kappa_forge.su2rep import realize_weights, restrict_to_torus
from kappa_forge.symalg import (
    CharClassMonomial,
    elementary_symmetric,
    reduce_monomial,
    sigma_eval,
)
from oracles import (
    check_weight_constraints,
    gcd_power_of_two,
    rep_of_dims,
    signed_doubling_sigma,
)

ALL_FLAGS = HypothesisFlags.all_true()


def report(number, name, ok):
    print(f"acceptance {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_s2xs2_family_reproduction():
    ok = True
    for k in range(0, 101, 2):
        entry = s2xs2_family(k)
        kv, b1 = pullback_su2(entry.data, 1)
        ok = ok and kv.generator == "c2" and kv.generator_power == 1
        ok = ok and kv.coefficient == 4 * (k * k + 1)
        ok = ok and b1 == Fraction(k * k + 1)
    report(1, "s2xs2 family: 4(k^2+1) on c2 and b1 = k^2+1", ok)


def test_criterion_2_cancellation_identity_oracle():
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 6)
        w = tuple(rng.randint(-10, 10) for _ in range(n))
        squares = [a * a for a in w]
        for i in range(n + 1):
            ok = ok and signed_doubling_sigma(i, w) == elementary_symmetric(i, squares)
    report(2, "signed doubling equals elementary symmetric of squares", ok)


def test_criterion_3_power_of_two_gcd_exhaustive():
    ok = True
    for n in range(1, 5):
        for w in itertools.product(range(13), repeat=n):
            if 1 not in w and 2 not in w:
                continue
            b = [int(x) for x in weights_to_b(w)]
            ok = ok and gcd_power_of_two(b)
    report(3, "gcd of b-values is a power of 2 when a weight is 1 or 2", ok)


def test_criterion_4_certificate_pipeline():
    rng = random.Random(20260811)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 5)
        w = [rng.randint(-12, 12) for _ in range(n)]
        w[rng.randrange(n)] = rng.choice([1, -1, 2, -2])
        b = weights_to_b(tuple(w))
        for p in (3, 5, 7, 11):
            cert = nonkinetic_certificate(b, p, ALL_FLAGS)
            ok = ok and isinstance(cert, Certificate) and cert.witness_prime == p
    report(4, "non-kinetic certificates carry the twisting prime as witness", ok)


def test_criterion_5_adams_composition_law():
    rng = random.Random(20260812)
    ok = True
    odd = [1, 3, 5, 7, 9, 11, 13, 15]
    for k1 in odd:
        for k2 in odd:
            for _ in range(3):
                n = rng.randint(1, 4)
                b = BVector.of(
                    [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(n)]
                )
                lhs = adams_transform(k1, adams_transform(k2, b))
                ok = ok and lhs == adams_transform(k1 * k2, b)
                ok = ok and adams_transform(1, b) == b
    for k in (2, 4, 6):
        with pytest.raises(DomainError):
            adams_transform(k, BVector.of([1]))
    report(5, "adams(k1) o adams(k2) = adams(k1*k2), identity at 1, even k rejected", ok)


def _all_real_reps_even_total(max_total):
    dims = [d for d in range(1, max_total + 1) if d % 2 == 1 or d % 4 == 0]

    def rec(budget, max_part):
        yield ()
        for d in dims:
            if d > min(budget, max_part):
                break
            for rest in rec(budget - d, d):
                yield (d,) + rest

    for combo in rec(max_total, max_total):
        if combo and sum(combo) % 2 == 0:
            yield rep_of_dims(combo)


def test_criterion_6_representation_round_trip():
    ok = True
    count = 0
    for rep in _all_real_reps_even_total(24):
        count += 1
        w = restrict_to_torus(rep)
        witness = realize_weights(w)
        ok = ok and witness is not None and restrict_to_torus(witness) == w
        if any(d > 1 for d, _ in rep.terms):  # the constraints hold for non-trivial reps
            ok = ok and check_weight_constraints(w, rep.total_dim).ok
    ok = ok and count > 1000  # the enumeration really is exhaustive, not a stub
    report(6, f"round-trip and weight constraints over {count} representations", ok)


def test_criterion_7_euler_squared_coherence():
    rng = random.Random(20260813)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 4)
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        c = CharClassMonomial(n, exps, rng.randint(0, 1))
        w = tuple(rng.randint(-6, 6) for _ in range(n))
        with_e2 = CharClassMonomial(n, c.p_exponents, c.e_exponent + 2)
        pn_exps = list(c.p_exponents)
        pn_exps[-1] += 1
        with_pn = CharClassMonomial(n, tuple(pn_exps), c.e_exponent)
        ok = ok and reduce_monomial(with_e2) == with_pn
        ok = ok and sigma_eval(reduce_monomial(with_e2), w) == sigma_eval(with_pn, w)
    report(7, "sigma(e*e*c) = sigma(p_n*c) after reduction", ok)


def test_criterion_8_betti_feasibility_brute_force():
    def brute(w_even, w_odd, m_even, m_odd):
        for k in range(0, w_even + w_odd + 1):
            if m_even == w_even - k and m_odd == w_odd - k:
                return True, k
        return False, None

    ok = True
    for w_even in range(21):
        for w_odd in range(21):
            for m_even in range(21):
                for m_odd in range(21):
                    got = betti_feasible(w_even, w_odd, m_even, m_odd)
                    want_ok, want_k = brute(w_even, w_odd, m_even, m_odd)
                    ok = ok and got.feasible == want_ok and got.k == want_k
    report(8, "betti feasibility matches brute force on all inputs <= 20", ok)


def test_criterion_9_wg_hypothesis_table():
    ok = True
    for n in (3, 5, 7):
        for g in range(1, 11):
            r = wg_hypothesis_report(n, g)
            ok = ok and r.euler_char == 2 - 2 * g
            ok = ok and r.theorems_apply == (g > 1)
            ok = ok and r.rationally_odd
    report(9, "wg reports: chi = 2-2g, obstruction applies exactly for g > 1", ok)
