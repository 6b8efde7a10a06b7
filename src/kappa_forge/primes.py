"""The prime search past trial division: the witness of a gcd with no small odd prime.

:func:`obstruction._smallest_odd_prime_factor` trial-divides up to 2^12 and
answers every gcd with a small odd prime and every odd part below 2^24.
Only an odd part beyond that reaches :func:`_smallest_prime`, which splits it
with primality tests (Miller-Rabin, BPSW), a perfect-power check and
Pollard-Brent rho.  So a verdict on such a gcd is the only call that
compiles and loads this module, and ``import kappa_forge.obstruction`` alone
never does.  It has no public names.
"""

from __future__ import annotations

import itertools
import math

from .obstruction import _TRIAL_LIMIT

TYPE_CHECKING = False  # true for type checkers only: typing stays unloaded at run time
if TYPE_CHECKING:
    from typing import Optional

# Miller-Rabin with the primes 2..41 as bases is a proof of primality below
# this bound (Sorenson and Webster, 2015); above it the test is BPSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_BOUND = 3_317_044_064_679_887_385_961_981
# A rho iteration costs about four trial divisions of the same number; rho
# on a composite that trial division could settle gets one iteration per
# this many of those divisions, so giving up adds about a quarter to them.
_TRIAL_DIVISIONS_PER_RHO_STEP = 16
_RHO_BATCH = 128  # rho steps per gcd


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of the odd n > a to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of the odd non-square n with Selfridge's parameters."""
    d_param = 5
    while True:
        j = _jacobi(d_param, n)
        if j == -1:
            break
        if j == 0 and abs(d_param) != n:
            return False
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    p, q = 1, (1 - d_param) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_d, V_d and Q^d mod n by the binary ladder over the bits of d
    u, v, qk = 1, p, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = p * u + v, d_param * u + p * v
            u = (u + n if u & 1 else u) // 2 % n
            v = (v + n if v & 1 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Primality of an odd n with no factor below 2^12.

    Proven below ``_MR_PROOF_BOUND``; above it a BPSW probable prime, for
    which no counterexample is known.
    """
    if n < _MR_PROOF_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    root = math.isqrt(n)
    return (
        root * root != n
        and _strong_probable_prime(n, 2)
        and _strong_lucas_probable_prime(n)
    )


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power_root(n: int) -> Optional[int]:
    """r with n = r^k for some k >= 2, if any; n has no factor below 2^12."""
    k = 2
    while _TRIAL_LIMIT**k <= n:
        r = _integer_root(n, k)
        if r**k == n:
            return r
        k = 3 if k == 2 else k + 2
    return None


def _pollard_brent(n: int, budget: Optional[int]) -> Optional[int]:
    """A proper factor of the odd composite n, not a perfect power.

    Pollard's rho with Brent's cycle search and batched gcds, retried with a
    new constant when a round yields only n.  Returns None rather than run
    past ``budget`` iterations (never, when ``budget`` is None).
    """
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget is not None and steps + 2 * r > budget:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _smallest_prime(g: int) -> int:
    """The smallest prime dividing the odd g, which has no prime factor up to 2^12.

    The odd part is split with a perfect-power check and Pollard-Brent, and
    pieces are classified by ``_is_prime``, with each prime found divided
    out of every piece.  Once a prime is known, a composite piece only
    matters if it has a factor below the smallest prime so far, which trial
    division up to that prime (or the piece's square root) would settle:
    rho gets one iteration per ``_TRIAL_DIVISIONS_PER_RHO_STEP`` of those
    divisions, and the trial division runs if rho gives up.  So the answer
    never costs much more than the plain trial division up to it did.
    """
    primes: list[int] = []
    pieces, composites = [g], []
    while True:
        while pieces:
            n = pieces.pop()
            for p in primes:
                while n % p == 0:
                    n //= p
            if n == 1:
                continue
            if not _is_prime(n):
                composites.append(n)
                continue
            primes.append(n)
            # divide the new prime out of every composite before rho meets it again
            pieces += composites
            composites = []
        if not composites:
            return min(primes)
        # smallest first: it splits fastest and may lower the bound for the rest
        composites.sort(reverse=True)
        n = composites.pop()
        root = _perfect_power_root(n)
        if root is not None:
            pieces = [root]
            continue
        budget = limit = None
        if primes:
            # n only matters if it has a factor below the best prime so far
            limit = min(min(primes) - 1, math.isqrt(n))
            budget = (limit - _TRIAL_LIMIT) // (2 * _TRIAL_DIVISIONS_PER_RHO_STEP)
        d = _pollard_brent(n, budget)
        if d is not None:
            pieces = [d, n // d]
            continue
        f = _TRIAL_LIMIT + 1
        while f <= limit:
            if n % f == 0:
                pieces = [f]
                break
            f += 2
