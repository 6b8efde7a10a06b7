"""Reference implementations the tests compare the package against.

Each one computes its answer the slow, direct way and has no caller in
the package itself.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from kappa_forge.errors import DomainError
from kappa_forge.su2rep import RealRep, WeightMultiset
from kappa_forge.symalg import WeightsLike, WeightVector


def signed_doubling_sigma(i: int, w: WeightsLike) -> int:
    """(-1)^i sigma_{2i} of the doubled signed list (a_1, -a_1, ..., a_n, -a_n).

    Expanded term by term over all 2i-element subsets, deliberately without
    the symmetric-function shortcut: mixed terms cancel in pairs, so this
    serves as the independent cross-check that the p_i evaluation rule in
    :func:`kappa_forge.symalg.sigma_eval` equals sigma_i of the squares.
    """
    w = WeightVector.of(w)
    n = len(w)
    if i < 0 or i > n:
        raise DomainError(f"index {i} outside 0..{n}")
    doubled = []
    for a in w.weights:
        doubled.append(a)
        doubled.append(-a)
    total = sum(math.prod(combo) for combo in itertools.combinations(doubled, 2 * i))
    return (-1) ** i * total


def gcd_power_of_two(values: Iterable[int]) -> bool:
    """True iff the gcd of the absolute values is 1, 2, 4, 8, ...

    The gcd of an all-zero list is 0, which is not a power of 2.
    """
    vals = [abs(int(v)) for v in values]
    if not vals:
        raise DomainError("gcd of an empty list is undefined")
    g = 0
    for v in vals:
        g = math.gcd(g, v)
    return g > 0 and g & (g - 1) == 0


def self_map_degree_realizable(d: int) -> bool:
    """True iff d occurs as the loop-degree of a self-map: 0 or an odd square."""
    d = int(d)
    if d == 0:
        return True
    if d < 0 or d % 2 == 0:
        return False
    root = math.isqrt(d)
    return root * root == d


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


def complex_irrep_weights(v: ComplexIrrep) -> tuple[int, ...]:
    """Torus weights -2l, -2l+2, ..., 2l of the complex irreducible."""
    return tuple(range(-v.two_lambda, v.two_lambda + 1, 2))


def rep_of_dims(dims: Iterable[int]) -> RealRep:
    """The direct sum of one real irreducible per entry of ``dims``."""
    return RealRep(tuple((d, 1) for d in dims))


def real_irrep_complexification(d: int) -> tuple[ComplexIrrep, ...]:
    """Complexify the real irreducible of dimension ``d``.

    Odd dimension d gives the complex irreducible of twice-spin d - 1;
    dimension 4q gives two copies of the one with twice-spin 2q - 1.
    """
    if d % 2 == 1:
        return (ComplexIrrep(d - 1),)
    return (ComplexIrrep(d // 2 - 1),) * 2


def restrict_via_complexification(rep: RealRep) -> WeightMultiset:
    """Torus restriction from the full signed complex weight list.

    Expands every summand's complexification and folds the weights into
    planes: the positive ones each give a plane, the zeros pair up.
    """
    complex_weights: list[int] = []
    for d, mult in rep.terms:
        for irr in real_irrep_complexification(d):
            complex_weights.extend(complex_irrep_weights(irr) * mult)
    positive = sorted((x for x in complex_weights if x > 0), reverse=True)
    zeros = sum(1 for x in complex_weights if x == 0)
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
