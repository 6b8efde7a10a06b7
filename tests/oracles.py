"""Reference implementations the tests compare the package against.

Each one computes its answer the slow, direct way and has no caller in
the package itself.
"""

import itertools
import math
from typing import Iterable

from kappa_forge.errors import DomainError
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
