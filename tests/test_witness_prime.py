"""The gcd's witness prime against sympy's factorization.

``_smallest_odd_prime_factor`` trial-divides only up to 2^12 and then
relies on Miller-Rabin, BPSW, a perfect-power check and Pollard-Brent;
``sympy.factorint`` is the independent reference.  Inputs keep at most one
prime factor above 2^30, so both sides factor them quickly.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.ntheory.primetest import is_strong_lucas_prp  # noqa: E402

from kappa_forge.obstruction import (  # noqa: E402
    HypothesisFlags,
    _smallest_odd_prime_factor,
    nonkinetic_certificate,
)
from kappa_forge.primes import _is_prime, _strong_lucas_probable_prime  # noqa: E402

SRC = str(Path(__file__).resolve().parent.parent / "src")

# below this bound Miller-Rabin to the prime bases 2..41 is a proof
MR_PROOF_BOUND = 3_317_044_064_679_887_385_961_981

# strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2..23
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051)

# the smallest Carmichael numbers with 3, 4, ..., 16 prime factors
CARMICHAEL = (
    561,
    41041,
    825265,
    321197185,
    5394826801,
    232250619601,
    9746347772161,
    1436697831295441,
    60977817398996785,
    7156857700403137441,
    1791562810662585767521,
    87674969936234821377601,
    6553130926752006031481761,
    1590231231043178376951698401,
)


def reference(g):
    odd = g >> ((g & -g).bit_length() - 1)
    return None if odd == 1 else min(sympy.factorint(odd))


def chernick_carmichael(count):
    """(6k+1)(12k+1)(18k+1) with all three factors prime and above 2^12."""
    out = []
    k = 700
    while len(out) < count:
        factors = [6 * k + 1, 12 * k + 1, 18 * k + 1]
        if all(sympy.isprime(f) for f in factors):
            out.append(math.prod(factors))
        k += 1
    return out


def is_carmichael(n):
    factors = sympy.factorint(n)
    return len(factors) >= 3 and all(
        e == 1 and (n - 1) % (p - 1) == 0 for p, e in factors.items()
    )


def prime_at_least(x):
    return int(sympy.nextprime(x - 1))


@settings(max_examples=120, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.integers(3, 2**30), st.integers(1, 3)), min_size=1, max_size=4
    ),
    large=st.one_of(st.none(), st.integers(2**30, 2**90)),
    twos=st.integers(0, 8),
)
def test_matches_sympy_on_prime_products(factors, large, twos):
    g = 1 << twos
    for x, e in factors:
        g *= prime_at_least(x) ** e
    if large is not None:
        g *= prime_at_least(large)
    assert _smallest_odd_prime_factor(g) == reference(g)


def test_powers_of_two_have_no_witness():
    for a in range(0, 70):
        assert _smallest_odd_prime_factor(1 << a) is None


@pytest.mark.parametrize(
    "n", STRONG_PSEUDOPRIMES + CARMICHAEL + tuple(chernick_carmichael(6))
)
def test_matches_sympy_on_pseudoprimes(n):
    if n not in STRONG_PSEUDOPRIMES:
        assert is_carmichael(n)
    # alone, times a power of 2, and times a prime above all of its factors
    for g in (n, n << 5, n * prime_at_least(n)):
        assert _smallest_odd_prime_factor(g) == reference(g)


def test_primes_around_the_proof_bound():
    below = int(sympy.prevprime(MR_PROOF_BOUND))
    above = int(sympy.nextprime(MR_PROOF_BOUND))
    assert below < MR_PROOF_BOUND < above
    q = prime_at_least(10**9)
    for p in (below, above):
        assert _smallest_odd_prime_factor(p) == p
        assert _smallest_odd_prime_factor(p << 3) == p
        assert _smallest_odd_prime_factor(p * p) == p
        assert _smallest_odd_prime_factor(p * q) == q == reference(p * q)


def test_primality_matches_sympy_across_the_proof_bound():
    small = math.prod(range(3, 1 << 12, 2))
    verdicts = set()
    for n in range(MR_PROOF_BOUND - 3000, MR_PROOF_BOUND + 3000, 2):
        if math.gcd(n, small) == 1:  # _is_prime's precondition
            verdict = _is_prime(n)
            assert verdict == sympy.isprime(n), n
            verdicts.add((n > MR_PROOF_BOUND, verdict))
    assert len(verdicts) == 4  # primes and composites on both sides


def test_strong_lucas_matches_sympy():
    # the first strong Lucas pseudoprimes, then odd non-squares on both
    # sides of the proof bound
    values = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    values += range(4097, 6001, 2)
    values += range(MR_PROOF_BOUND - 1000, MR_PROOF_BOUND + 1000, 2)
    for n in values:
        if math.isqrt(n) ** 2 != n:
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


@settings(max_examples=20, deadline=None)
@given(offset=st.integers(0, 10**9), twos=st.integers(0, 6))
def test_squares_of_primes_near_1e12(offset, twos):
    p = prime_at_least(10**12 + offset)
    g = (p * p) << twos
    assert _smallest_odd_prime_factor(g) == p == reference(g)


def base_vector(entries):
    """``entries`` divided by the odd part of their gcd, so that it passes Theorem A."""
    g = math.gcd(*entries)
    return [x // (g >> ((g & -g).bit_length() - 1)) for x in entries]


@settings(max_examples=120, deadline=None)
@given(
    entries=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).filter(any),
    primes=st.lists(st.integers(3, 2**40), min_size=1, max_size=3),
)
def test_certificate_witness_is_the_smallest_prime_of_k(entries, primes):
    # the base gcd is a power of 2, so the odd primes of the rescaled gcd are those of k
    k = math.prod(prime_at_least(x) for x in primes)
    cert = nonkinetic_certificate(base_vector(entries), k, HypothesisFlags.all_true())
    assert cert.witness_prime == min(sympy.factorint(k))
    assert cert.gcd % cert.witness_prime == 0
    assert cert.witness_prime == reference(cert.gcd)


def test_importing_obstruction_loads_no_prime_search():
    # a certificate check must be able to import obstruction without the factoring code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, kappa_forge.obstruction as o; "
        "print('kappa_forge.primes' in sys.modules, o._smallest_odd_prime_factor(9 * 4093), "
        "'kappa_forge.primes' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.split() == ["False", "3", "False"]
