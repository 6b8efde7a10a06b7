"""The arithmetic obstruction for action-induced bundles over BSU(2).

For a non-trivial smooth SU(2)-action on a closed oriented 2n-manifold W
that is rationally odd and has chi(W) < 0, the normalized kappa-values
b_i defined by  kappa_{e*p_i} = b_i * chi(W) * c2^i  are forced to be
integers whose greatest common divisor is a power of 2.  The reason is
that the circle-fixed set is a single connected component whose tangential
weights include a 1 or a 2, making b_i = sigma_i of the squared weights,
and a monic integer polynomial with 1 or 4 among its roots cannot reduce
to t^n modulo an odd prime.

Composing the classifying map of an action with the degree-k^2 self-map of
BSU(2) (k odd) multiplies b_i by k^{2i}.  For k an odd prime this plants
an odd prime in the gcd, so the resulting bundle cannot come from any
action: that computation, packaged with its witness prime, is the
certificate this module emits.

The checks run on plain b-vectors; whether the topological hypotheses
actually hold for a given manifold is asserted by the caller through
:class:`HypothesisFlags`, never inferred.
"""

from __future__ import annotations

import math

from . import _MODULE_EXPORTS
from .errors import MAX_VALUE_BITS, DomainError, Record, SequenceRecord, exact_rational, over_limit, strict_index

TYPE_CHECKING = False  # true for type checkers only: typing stays unloaded at run time
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Optional, Union

    from .symalg import WeightsLike

__all__ = [*_MODULE_EXPORTS["obstruction"], "CONSISTENT", "RULED_OUT"]

CONSISTENT = "consistent"
RULED_OUT = "ruled_out"


class BVector(SequenceRecord):
    """Exact rational coefficients b_1..b_n of the normalized kappa-values.

    Each entry is taken as :func:`errors.exact_rational` takes it: an
    ``int`` entry stays an ``int``, so an integral vector (what an action
    yields) builds no ``Fraction``; an ``int`` has the ``denominator``, the
    equality, the hash and the text of the equal ``Fraction``.
    """

    __slots__ = ("entries",)
    entries: tuple[Union[int, Fraction], ...]

    def __post_init__(self):
        entries = tuple(map(exact_rational, self.entries))
        if not entries:
            raise DomainError("b-vector must have at least one entry")
        object.__setattr__(self, "entries", entries)


class HypothesisFlags(Record):
    """Caller-asserted topological hypotheses under which the test obstructs.

    Each field is a bool; the methods read them in slot order.
    """

    __slots__ = ("rationally_odd", "negative_euler_char", "nontrivial_action_assumed")

    def all_set(self) -> bool:
        return all(self._values())

    def missing(self) -> tuple[str, ...]:
        return tuple(name for name, value in zip(self._fields, self._values()) if not value)

    @classmethod
    def all_true(cls) -> "HypothesisFlags":
        return cls(True, True, True)

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


class Reason(Record):
    """Why a b-vector is ruled out.

    kind is one of 'non_integer' (detail: 1-based index),
    'gcd_has_odd_prime' (detail: the prime) or 'all_zero'.
    """

    __slots__ = ("kind", "detail")
    _defaults = (None,)
    kind: str
    detail: Optional[int]

    def __str__(self) -> str:
        if self.kind == "non_integer":
            return f"b_{self.detail} is not an integer"
        if self.kind == "gcd_has_odd_prime":
            return f"gcd is divisible by the odd prime {self.detail}"
        return "all entries are zero, but some kappa value must be non-zero"

    def to_json_dict(self) -> dict:
        payload: dict = {"kind": self.kind}
        if self.kind == "non_integer":
            payload["index"] = self.detail
        elif self.kind == "gcd_has_odd_prime":
            payload["prime"] = self.detail
        return payload


class Verdict(Record):
    """Outcome of the obstruction test on one b-vector.

    ``applicable`` records whether all hypothesis flags were asserted; the
    arithmetic is computed either way, but only an applicable ruled_out
    verdict obstructs anything.
    """

    __slots__ = ("status", "reasons", "applicable")
    status: str
    reasons: tuple[Reason, ...]
    applicable: bool

    def __post_init__(self):
        if self.status == RULED_OUT and not self.reasons:
            raise DomainError("a ruled_out verdict needs at least one reason")

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "reasons": [r.to_json_dict() for r in self.reasons],
            "status": self.status,
        }


_TRIAL_LIMIT = 1 << 12


def _smallest_odd_prime_factor(g: int) -> Optional[int]:
    """The smallest odd prime dividing g, or None when g is a power of 2.

    Trial division up to 2^12 answers every g with a small odd prime and
    every odd part below 2^24.  Only an odd part beyond that loads the
    prime search of :mod:`kappa_forge.primes`, which splits it.
    """
    g >>= (g & -g).bit_length() - 1
    if g == 1:
        return None
    f = 3
    while f <= _TRIAL_LIMIT and f * f <= g:
        if g % f == 0:
            return f
        f += 2
    if f * f > g:
        return g
    from .primes import _smallest_prime  # here: no short verdict compiles the search

    return _smallest_prime(g)


def theorem_a_check(b: BVector, flags: HypothesisFlags) -> Verdict:
    """Rule out b-vectors no action can produce.

    Ruled out iff some entry is non-integral, or all entries are integers
    whose gcd (0 included) is not a power of 2.
    """
    b = BVector.of(b)
    reasons = [
        Reason("non_integer", idx)
        for idx, value in enumerate(b.entries, start=1)
        if value.denominator != 1
    ]
    if not reasons:
        g = math.gcd(*(int(v) for v in b.entries))
        if g == 0:
            reasons.append(Reason("all_zero"))
        elif g & (g - 1):
            reasons.append(Reason("gcd_has_odd_prime", _smallest_odd_prime_factor(g)))
    status = RULED_OUT if reasons else CONSISTENT
    return Verdict(status, tuple(reasons), flags.all_set())


def weights_to_b(w: WeightsLike) -> BVector:
    """b_i = sigma_i of the squared weights; the values a connected fixed set yields.

    All n values come from one truncated pass: O(n^2) multiply-adds.
    """
    # imported here so that the verdict and certificate paths never load symalg
    from .symalg import CharClassMonomial, WeightVector, sigma_eval_many

    w = WeightVector.of(w)
    n = len(w)
    p = [CharClassMonomial.pontryagin(i, n) for i in range(1, n + 1)]
    return BVector(tuple(sigma_eval_many(p, w)))


def adams_transform(k: int, b: BVector) -> BVector:
    """Rescale b_i by k^{2i}, the effect of the degree-k^2 self-map (k odd).

    A result past 2**20 bits in all raises DomainError before any power is
    taken.
    """
    k = strict_index(k)
    if k < 1 or k % 2 == 0:
        raise DomainError(
            f"k must be a positive odd integer, got {k}: self-maps of the "
            "SU(2) classifying space realize only loop-degree 0 and odd squares"
        )
    b = BVector.of(b)
    # a lower bound on the numerator bits of k^{2i} b_i, which exceeds
    # 2^(2i(bits(k) - 1)) / denominator: no vector within the limit is
    # refused, and k = 1 and zero entries never count against it
    bits = sum(
        max(0, 2 * i * (k.bit_length() - 1) - x.denominator.bit_length())
        for i, x in enumerate(b.entries, start=1)
        if x
    )
    if bits > MAX_VALUE_BITS:
        raise over_limit("the k^(2i)-rescaled b-vector", MAX_VALUE_BITS, "bits")
    return BVector(
        tuple(x * k ** (2 * i) if x else x for i, x in enumerate(b.entries, start=1))
    )


class Certificate(Record):
    """Arithmetic witness that the k-twisted bundle is not action-induced."""

    __slots__ = (
        "k", "b_base", "b_transformed", "gcd", "witness_prime", "hypotheses", "conclusion"
    )
    _defaults = ("non-kinetic",)
    k: int
    b_base: BVector
    b_transformed: BVector
    gcd: int
    witness_prime: int
    hypotheses: HypothesisFlags
    conclusion: str

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "b_base": [str(x) for x in self.b_base],
            "b_transformed": [str(x) for x in self.b_transformed],
            "gcd": self.gcd,
            "witness_prime": self.witness_prime,
            "hypotheses": self.hypotheses.to_json_dict(),
            "conclusion": self.conclusion,
        }


class NotApplicable(Record):
    """The certificate pipeline declined; the reason says why."""

    __slots__ = ("reason",)
    reason: str

    def to_json_dict(self) -> dict:
        return {"not_applicable": self.reason}


def nonkinetic_certificate(
    b_base: BVector, k: int, flags: HypothesisFlags
) -> Union[Certificate, NotApplicable]:
    """Certify the k-twist of an action-realized b-vector as non-kinetic.

    Requires all hypothesis flags and a base vector that itself passes the
    obstruction test (it is supposed to come from an action).  The twisted
    vector k^{2i} b_i then has a gcd divisible by k^2, and the certificate
    carries the smallest odd prime dividing that gcd.  The base gcd is a
    power of 2, so an odd prime divides the twisted gcd iff it divides k:
    the witness is k's smallest prime, found by factoring k, not the gcd.
    """
    b_base = BVector.of(b_base)
    if not flags.all_set():
        return NotApplicable(
            "hypotheses not all asserted: missing " + ", ".join(flags.missing())
        )
    k = strict_index(k)
    if k <= 1 or k % 2 == 0:
        raise DomainError(f"k must be an odd integer > 1, got {k}")
    base_verdict = theorem_a_check(b_base, flags)
    if base_verdict.status != CONSISTENT:
        return NotApplicable(
            "base values already fail the action constraint: "
            + "; ".join(str(r) for r in base_verdict.reasons)
        )
    transformed = adams_transform(k, b_base)
    g = math.gcd(*(int(x) for x in transformed))
    return Certificate(k, b_base, transformed, g, _smallest_odd_prime_factor(k), flags)


class BettiFeasibility(Record):
    __slots__ = ("feasible", "k")
    feasible: bool
    k: Optional[int]

    def __bool__(self) -> bool:
        return self.feasible


def betti_feasible(
    w_even: int, w_odd: int, m_even: int, m_odd: int
) -> BettiFeasibility:
    """Can a fixed set with Betti sums (m_even, m_odd) sit inside W?

    Feasible iff both sums drop by the same k >= 0, which in particular
    forces chi(M) = chi(W).  Returns the witness k.
    """
    for label, v in (
        ("w_even", w_even),
        ("w_odd", w_odd),
        ("m_even", m_even),
        ("m_odd", m_odd),
    ):
        if strict_index(v) < 0:
            raise DomainError(f"Betti sums are non-negative, got {label}={v}")
    k = w_even - m_even
    if k >= 0 and w_odd - m_odd == k:
        return BettiFeasibility(True, k)
    return BettiFeasibility(False, None)
