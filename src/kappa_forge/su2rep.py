"""Real representations of SU(2) and their maximal-torus weights.

The complex irreducibles V with twice-spin 2l = 0, 1, 2, ... have complex
dimension 2l + 1 and torus weights -2l, -2l + 2, ..., 2l.  Over the reals
the picture is rigid: one irreducible in every odd dimension d (its
complexification stays irreducible), one in every dimension divisible by
four (complexifying to a doubled irreducible), and none at all in
dimensions 2 mod 4.

Restricting a real representation to a maximal circle folds the complex
weights into rotation planes: each pair {+w, -w} with w > 0 becomes one
plane of weight w, and zero weights pair up two at a time into trivial
planes.  Weights are stored as non-negative representatives, since a plane
of weight a and one of weight -a are isomorphic unoriented and every
Pontryagin-class evaluation depends only on the squares.  Sign conventions
for Euler-class evaluations live with the fixed-point input data, where
orientations actually matter.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DomainError, ParseError

__all__ = [
    "ComplexIrrep",
    "ConstraintCheck",
    "RealIrrep",
    "RealRep",
    "WeightMultiset",
    "check_weight_constraints",
    "complex_irrep_weights",
    "parse_real_rep",
    "parse_weight_multiset",
    "real_irrep_complexification",
    "realize_weights",
    "restrict_to_torus",
]


@dataclass(frozen=True)
class ComplexIrrep:
    """Irreducible complex representation, labelled by twice its spin."""

    two_lambda: int

    def __post_init__(self):
        if int(self.two_lambda) < 0:
            raise DomainError(f"twice-spin must be >= 0, got {self.two_lambda}")
        object.__setattr__(self, "two_lambda", int(self.two_lambda))

    @property
    def dim(self) -> int:
        return self.two_lambda + 1


@dataclass(frozen=True)
class RealIrrep:
    """Irreducible real representation, labelled by its dimension.

    Valid dimensions are the odd ones and the multiples of four; nothing
    irreducible exists in dimensions 2 mod 4.
    """

    dim: int

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        if d % 4 == 2:
            raise DomainError(
                f"no irreducible real representation has dimension {d}: "
                "dimensions 2 mod 4 do not occur"
            )
        object.__setattr__(self, "dim", d)


@dataclass(frozen=True)
class RealRep:
    """Finite direct sum of real irreducibles, stored sorted by dimension."""

    summands: tuple[RealIrrep, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.summands, key=lambda r: r.dim, reverse=True))
        object.__setattr__(self, "summands", ordered)

    @classmethod
    def from_dims(cls, dims: Iterable[int]) -> "RealRep":
        return cls(tuple(RealIrrep(d) for d in dims))

    @property
    def total_dim(self) -> int:
        return sum(r.dim for r in self.summands)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.summands)

    def __str__(self) -> str:
        if not self.summands:
            return "0"
        counts = Counter(self.dims)
        parts = []
        for d in sorted(counts, reverse=True):
            mult = counts[d]
            parts.append(f"V{d}" if mult == 1 else f"{mult}*V{d}")
        return "+".join(parts)


@dataclass(frozen=True)
class WeightMultiset:
    """Multiset of non-negative circle weights, one entry per rotation plane."""

    entries: tuple[int, ...]

    def __post_init__(self):
        folded = tuple(sorted((abs(int(a)) for a in self.entries), reverse=True))
        object.__setattr__(self, "entries", folded)

    @classmethod
    def of(cls, entries: Iterable[int]) -> "WeightMultiset":
        return entries if isinstance(entries, WeightMultiset) else cls(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)


def complex_irrep_weights(v: ComplexIrrep) -> tuple[int, ...]:
    """Torus weights -2l, -2l+2, ..., 2l of the complex irreducible."""
    return tuple(range(-v.two_lambda, v.two_lambda + 1, 2))


def real_irrep_complexification(r: RealIrrep) -> tuple[ComplexIrrep, ...]:
    """Complexify a real irreducible.

    Odd dimension d gives the complex irreducible of twice-spin d - 1;
    dimension 4q gives two copies of the one with twice-spin 2q - 1.
    """
    d = r.dim
    if d % 2 == 1:
        return (ComplexIrrep(d - 1),)
    return (ComplexIrrep(d // 2 - 1),) * 2


def restrict_to_torus(rep: RealRep) -> WeightMultiset:
    """Fold the complex torus weights of ``rep`` into real rotation planes.

    An odd total dimension is rejected before any irreducible is expanded.
    """
    # complexification keeps the dimension, so the real total counts the weights
    total = rep.total_dim
    if total % 2:
        raise DomainError(
            f"total dimension {total} is odd: one trivial "
            "line is left over and cannot be paired into a plane"
        )
    complex_weights: list[int] = []
    for summand in rep.summands:
        for irr in real_irrep_complexification(summand):
            complex_weights.extend(complex_irrep_weights(irr))
    positive = sorted((x for x in complex_weights if x > 0), reverse=True)
    zeros = sum(1 for x in complex_weights if x == 0)
    # complexifications are self-dual, so negatives mirror positives exactly
    return WeightMultiset(tuple(positive) + (0,) * (zeros // 2))


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of the tangential-weight constraints, with failure reasons."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_weight_constraints(w: WeightMultiset, d: int) -> ConstraintCheck:
    """Constraints satisfied by every non-trivial d-dimensional real representation.

    The folded weights must stay below d in absolute value and at least one
    must be 1 or 2.
    """
    w = WeightMultiset.of(w)
    if d <= 0 or d % 2:
        raise DomainError(f"real dimension must be positive and even, got {d}")
    if len(w) != d // 2:
        raise DomainError(
            f"weight multiset has {len(w)} entries, dimension {d} needs {d // 2}"
        )
    failures = []
    top = max(w.entries)
    if top > d - 1:
        failures.append(f"largest weight {top} exceeds the bound {d - 1}")
    if not any(a in (1, 2) for a in w.entries):
        failures.append("no weight of absolute value 1 or 2")
    return ConstraintCheck(not failures, tuple(failures))


def realize_weights(w: WeightMultiset) -> Optional[RealRep]:
    """Find a real representation whose torus restriction is ``w``, if any.

    Greedy peel of the positive weights, largest first.  The available
    blocks are the trivial line V1 (lines must pair into weight-0 planes),
    the odd irreducible V^{2m+1} contributing weights {2, 4, ..., 2m} plus
    one trivial line, and V^{4q} contributing {1, 3, ..., 2q-1} twice.
    Since each block's largest weight must match the largest residual
    weight, the decomposition is forced whenever it exists; ``None`` means
    infeasible.
    """
    w = WeightMultiset.of(w)
    residual = Counter(a for a in w.entries if a > 0)
    lines_budget = 2 * (len(w) - sum(residual.values()))
    blocks: list[int] = []
    for top in sorted(residual, reverse=True):
        count = residual[top]
        if count == 0:  # all taken by larger blocks
            continue
        if top % 2:
            if count % 2:  # V^{4q} carries its top weight twice
                return None
            blocks.extend([2 * (top + 1)] * (count // 2))
        else:
            blocks.extend([top + 1] * count)
        # each block also takes one (even top) or two (odd top) of every
        # smaller weight of the same parity, so count copies in all
        for weight in range(top, 0, -2):
            if residual[weight] < count:
                return None
            residual[weight] -= count
    lines_used = sum(1 for d in blocks if d % 2)
    if lines_used > lines_budget:
        return None
    return RealRep.from_dims(blocks + [1] * (lines_budget - lines_used))


_TERM_RE = re.compile(r"(?:([0-9]+)\*)?v([0-9]+)\Z")


def parse_real_rep(text: str) -> RealRep:
    """Parse the sum syntax ``V3+V4+2*V1`` (multiplicity prefix optional)."""
    s = re.sub(r"\s+", "", text).lower()
    if not s:
        raise ParseError("empty representation")
    dims: list[int] = []
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"bad representation term '{term}'")
        mult = int(m.group(1)) if m.group(1) else 1
        if mult < 1:
            raise ParseError(f"multiplicity must be >= 1 in '{term}'")
        dims.extend([int(m.group(2))] * mult)
    return RealRep.from_dims(dims)


def parse_weight_multiset(text: str) -> WeightMultiset:
    """Parse a comma-separated weight list; signs are folded away."""
    s = text.strip()
    if not s:
        raise ParseError("empty weight list")
    entries = []
    for token in s.split(","):
        token = token.strip()
        try:
            entries.append(int(token))
        except ValueError:
            raise ParseError(f"bad weight '{token}'") from None
    return WeightMultiset(tuple(entries))
