"""Real representations of SU(2) and their maximal-torus weights.

The complex irreducibles V with twice-spin 2l = 0, 1, 2, ... have complex
dimension 2l + 1 and torus weights -2l, -2l + 2, ..., 2l.  Over the reals
the picture is rigid: one irreducible in every odd dimension d (its
complexification stays irreducible), one in every dimension divisible by
four (complexifying to a doubled irreducible), and none at all in
dimensions 2 mod 4.  A real representation is therefore stored as
(dimension, multiplicity) pairs, whose size is the number of distinct
dimensions, however large the multiplicities.

Restricting a real representation to a maximal circle folds the complex
weights into rotation planes: each pair {+w, -w} with w > 0 becomes one
plane of weight w, and zero weights pair up two at a time into trivial
planes.  Complexifications are self-dual, so the non-negative half of the
weights says everything; :func:`_planes` is the one table of it, and both
:func:`restrict_to_torus` and :func:`realize_weights` read it.  Only
:func:`restrict_to_torus` lists planes, so it alone holds the limit on
their number, for library callers and the CLI alike.  Weights
are stored as non-negative representatives, since a plane of weight a and
one of weight -a are isomorphic unoriented and every Pontryagin-class
evaluation depends only on the squares.  Sign conventions for Euler-class
evaluations live with the fixed-point input data, where orientations
actually matter.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter

from . import _MODULE_EXPORTS
from .errors import (
    MAX_RESULT_ENTRIES, DomainError, ParseError, Record, SequenceRecord, _digits_over, clip,
    over_digit_limit, over_limit, parse_weight_list, strict_index,
)

TYPE_CHECKING = False  # true for type checkers only: typing stays unloaded at run time
if TYPE_CHECKING:
    from typing import Iterable, Optional

__all__ = [*_MODULE_EXPORTS["su2rep"]]


class RealRep(Record):
    """Finite direct sum of real irreducibles as (dimension, multiplicity) pairs.

    Valid dimensions are the odd ones and the multiples of four; nothing
    irreducible exists in dimensions 2 mod 4.  Repeated dimensions are
    merged, and the terms are stored largest dimension first.
    """

    __slots__ = ("terms",)
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        merged: dict[int, int] = {}
        for dim, mult in self.terms:
            d, m = strict_index(dim), strict_index(mult)
            if d < 1:
                raise DomainError(f"dimension must be >= 1, got {d}")
            if d % 4 == 2:
                raise DomainError(
                    f"no irreducible real representation has dimension {d}: "
                    "dimensions 2 mod 4 do not occur"
                )
            if m < 1:
                raise DomainError(f"multiplicity must be >= 1, got {m}")
            merged[d] = merged.get(d, 0) + m
        object.__setattr__(self, "terms", tuple(sorted(merged.items(), reverse=True)))

    @property
    def total_dim(self) -> int:
        return sum(d * m for d, m in self.terms)

    def __str__(self) -> str:
        parts = (f"V{d}" if m == 1 else f"{m}*V{d}" for d, m in self.terms)
        return "+".join(parts) or "0"


class WeightMultiset(SequenceRecord):
    """Multiset of non-negative circle weights, one entry per rotation plane."""

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __post_init__(self):
        folded = tuple(sorted(map(abs, map(strict_index, self.entries)), reverse=True))
        object.__setattr__(self, "entries", folded)


def _planes(d: int) -> Iterable[int]:
    """Non-negative torus weights of the real irreducible of dimension ``d``.

    The one table of how a real irreducible meets the torus: the non-negative
    half of its complexified weights, a 0 being a trivial line.  Odd d = 2m + 1
    gives 0, 2, ..., 2m; d = 4q gives 1, 3, ..., 2q - 1 twice.  Lazy, so a peel
    that stops at a missing weight never lists the rest of a huge block.
    """
    if d % 2:
        return range(0, d, 2)
    odd = range(1, d // 2, 2)
    return itertools.chain(odd, odd)


def restrict_to_torus(rep: RealRep) -> WeightMultiset:
    """Fold the torus weights of ``rep`` into real rotation planes.

    The result has total_dim // 2 planes.  More than the result limit, or an
    odd total dimension, is refused before any irreducible is expanded.
    """
    total = rep.total_dim
    if total // 2 > MAX_RESULT_ENTRIES:
        raise over_limit("the torus restriction", MAX_RESULT_ENTRIES, "planes")
    if total % 2:
        raise DomainError(
            f"total dimension {total} is odd: one trivial "
            "line is left over and cannot be paired into a plane"
        )
    half: list[int] = []
    for d, m in rep.terms:
        half += list(_planes(d)) * m
    # the even total leaves an even number of trivial lines, sorted last:
    # every two of them make one weight-0 plane
    half.sort(reverse=True)
    del half[len(half) - half.count(0) // 2 :]
    # already folded and sorted: skip the constructor's second pass over it
    return WeightMultiset._trusted(tuple(half))


def realize_weights(w: WeightMultiset) -> Optional[RealRep]:
    """Find a real representation whose torus restriction is ``w``, if any.

    Greedy peel of :func:`_planes` entries, largest first; a weight-0 plane
    is two trivial lines.  Only V^{top+1} (even ``top``; V1 for a line) or
    V^{2top+2} (odd ``top``, carried twice) has largest entry ``top``, so the
    decomposition is forced whenever it exists; ``None`` means infeasible.
    """
    w = WeightMultiset.of(w)
    residual = Counter(w.entries)
    residual[0] *= 2
    blocks: list[tuple[int, int]] = []
    for top in sorted(residual, reverse=True):
        count = residual[top]
        if count == 0:  # all taken by larger blocks
            continue
        d, per_block = (2 * top + 2, 2) if top % 2 else (top + 1, 1)
        copies, left = divmod(count, per_block)
        if left:
            return None
        for weight in _planes(d):
            residual[weight] -= copies
            if residual[weight] < 0:
                return None
        blocks.append((d, copies))
    return RealRep(tuple(blocks))


_TERM_RE = re.compile(r"(?:([0-9]+)\*)?v([0-9]+)\Z")


def parse_real_rep(text: str) -> RealRep:
    """Parse the sum syntax ``V3+V4+2*V1`` (multiplicity prefix optional)."""
    s = re.sub(r"\s+", "", text).lower()
    if not s:
        raise ParseError("empty representation")
    terms: list[tuple[int, int]] = []
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"bad representation term '{clip(term)}'")
        if any(map(_digits_over, m.groups(""))):
            raise over_digit_limit(f"representation term '{clip(term)}' has a number")
        mult, dim = int(m.group(1) or 1), int(m.group(2))
        if mult < 1:
            raise ParseError(f"multiplicity must be >= 1 in '{clip(term)}'")
        terms.append((dim, mult))
    return RealRep(tuple(terms))


def parse_weight_multiset(text: str) -> WeightMultiset:
    """Parse a comma-separated weight list; signs are folded away."""
    return WeightMultiset(tuple(parse_weight_list(text)))
