"""Generators for the worked example families.

Two families are covered.  The S^2 x S^2 family arises from doubling the
unit-disk bundle of the oriented plane bundle of even Euler number k over
the sphere: a maximal torus fixes four points whose tangential weights are
(+-k, +-1), and localization gives kappa_{e*p_1} = 4(k^2+1) c2 exactly.
Every generated entry is re-checked against the localization module before
it is returned.

The connected sums W_g of g copies of S^n x S^n (n odd) carry an SU(2)
action glued from rotation actions on the summands.  Only the hypothesis
bookkeeping is generated for them: Euler characteristic, Betti table,
rational oddness and whether the obstruction machinery applies.  No
fixed-point weight data is emitted because the glued action determines
none that could be written down honestly.

Each function imports the localization, symalg and obstruction names it
uses in its body, so the W_g report loads neither localization nor symalg,
and the S^2 x S^2 family no obstruction.
"""

from __future__ import annotations

from . import _MODULE_EXPORTS
from .errors import MAX_RESULT_ENTRIES, DomainError, Record, over_limit, strict_index

TYPE_CHECKING = False  # true for type checkers only: typing stays unloaded at run time
if TYPE_CHECKING:
    from typing import Iterable

    from .localization import FixedPointData, KappaValue
    from .obstruction import HypothesisFlags

__all__ = [*_MODULE_EXPORTS["catalog"]]


class CatalogEntry(Record):
    """A generated example: fixed-point data plus verified expected values."""

    __slots__ = ("label", "data", "expected", "provenance_note")
    label: str
    data: FixedPointData
    expected: tuple[KappaValue, ...]
    provenance_note: str

    def to_payload(self) -> dict:
        from .localization import fixed_point_payload

        return fixed_point_payload(self.data, self.expected, self.provenance_note)

    def write(self, path) -> None:
        from .localization import write_fixed_point_file

        write_fixed_point_file(path, self.data, self.expected, self.provenance_note)


def s2xs2_family(k: int) -> CatalogEntry:
    """Fixed-point data of the sphere-bundle double with even Euler number k.

    Four fixed points of chi = 1 with weights (+-k, +-1), one sign pattern
    per point; chi(W) = 4.  Expected values: kappa_{e*p_1} equals
    4(k^2+1) gamma^2 over the circle and 4(k^2+1) c2 over SU(2).
    """
    from .localization import (
        C2, GAMMA, FixedComponent, FixedPointData, KappaValue, compare_expected,
    )
    from .symalg import CharClassMonomial, WeightVector

    k = strict_index(k)
    if k < 0 or k % 2:
        raise DomainError(
            f"k must be even and >= 0, got {k}: the doubled disk bundle is "
            "trivial (hence a product of spheres) only for even Euler numbers"
        )
    components = tuple(
        FixedComponent(
            f"fixed point ({'+' if s1 > 0 else '-'}k,{s2:+d})",
            1,
            WeightVector((s1 * k, s2)),
        )
        for s1 in (1, -1)
        for s2 in (1, -1)
    )
    data = FixedPointData(2, components, fiber_euler_char=4)
    p1 = CharClassMonomial.pontryagin(1, 2)
    coefficient = 4 * (k * k + 1)
    expected = (
        KappaValue(p1, coefficient, GAMMA, 2),
        KappaValue(p1, coefficient, C2, 1),
    )
    entry = CatalogEntry(
        label=f"s2xs2-k{k}",
        data=data,
        expected=expected,
        provenance_note=(
            "S^2 x S^2 as the doubled unit-disk bundle of the oriented plane "
            f"bundle of Euler number {k} over S^2; the maximal torus fixes "
            "four points with rotation weights (+-k, +-1)"
        ),
    )
    mismatched = [c for c in compare_expected(entry.data, entry.expected) if not c.matches]
    if mismatched:  # generation-time self-check, unreachable by construction
        raise RuntimeError(f"catalog entry {entry.label} failed self-verification")
    return entry


def connected_sum_euler(chi_x: int, g: int, dim: int) -> int:
    """Euler characteristic of the g-fold connected sum of a manifold with chi_x.

    Each gluing removes two disks, so the count is g*chi_x - 2(g - 1);
    valid only in even dimensions, where the sphere has chi = 2.
    """
    if strict_index(dim) <= 0 or dim % 2:
        raise DomainError(f"dimension must be a positive even integer, got {dim}")
    if strict_index(g) < 1:
        raise DomainError(f"number of summands must be >= 1, got {g}")
    return g * strict_index(chi_x) - 2 * (g - 1)


class RationalOddity(Record):
    """Result of the interior-cohomology parity check on a Betti table."""

    __slots__ = ("rationally_odd", "b_even", "b_odd", "euler_char", "notes")
    rationally_odd: bool
    b_even: int
    b_odd: int
    euler_char: int
    notes: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.rationally_odd


def rationally_odd_check(betti: Iterable[int]) -> RationalOddity:
    """True iff all even-degree cohomology strictly between 0 and 2n vanishes.

    Expects the full table b_0..b_2n of a closed connected oriented
    manifold; b_0 or b_2n different from 1 is noted but does not decide
    the verdict.
    """
    table = list(map(strict_index, betti))
    if len(table) < 3 or len(table) % 2 == 0:
        raise DomainError(
            f"Betti table must cover degrees 0..2n for some n >= 1, got "
            f"{len(table)} entries"
        )
    if any(x < 0 for x in table):
        raise DomainError("Betti numbers are non-negative")
    notes = []
    if table[0] != 1:
        notes.append(f"b_0 = {table[0]}, expected 1 for a connected manifold")
    if table[-1] != 1:
        notes.append(
            f"b_{len(table) - 1} = {table[-1]}, expected 1 for a closed oriented manifold"
        )
    odd_ok = all(table[j] == 0 for j in range(2, len(table) - 1, 2))
    b_even = sum(table[0::2])
    b_odd = sum(table[1::2])
    return RationalOddity(odd_ok, b_even, b_odd, b_even - b_odd, tuple(notes))


class WgHypothesisReport(Record):
    """Hypothesis bookkeeping for the g-fold connected sum of S^n x S^n."""

    __slots__ = (
        "n", "g", "manifold", "euler_char", "betti", "rationally_odd", "fixed_set",
        "fixed_set_nonempty", "hypotheses", "theorems_apply",
    )
    n: int
    g: int
    manifold: str
    euler_char: int
    betti: tuple[int, ...]
    rationally_odd: bool
    fixed_set: str
    fixed_set_nonempty: bool
    hypotheses: HypothesisFlags
    theorems_apply: bool


def wg_hypothesis_report(n: int, g: int) -> WgHypothesisReport:
    """Check the obstruction hypotheses for the connected sums W_g (n odd, >= 3).

    chi(W_g) = 2 - 2g, the cohomology is concentrated in degrees 0, n, 2n,
    and the building-block action fixes S^{n-3} x S^n, so the machinery
    applies exactly when g > 1 pushes chi below zero.  No weight data is
    produced; the glued action does not come with coordinates.
    """
    from .obstruction import HypothesisFlags

    n = strict_index(n)
    g = strict_index(g)
    if n < 3 or n % 2 == 0:
        raise DomainError(
            f"n must be odd and >= 3, got {n}: for even n the middle "
            "cohomology sits in even degree and the sum is not rationally odd"
        )
    if g < 1:
        raise DomainError(f"g must be >= 1, got {g}")
    if 2 * n + 1 > MAX_RESULT_ENTRIES:
        raise over_limit("the Betti table", MAX_RESULT_ENTRIES, "entries")
    chi = connected_sum_euler(0, g, 2 * n)
    betti = [0] * (2 * n + 1)
    betti[0] = betti[2 * n] = 1
    betti[n] = 2 * g
    oddity = rationally_odd_check(betti)
    flags = HypothesisFlags(
        rationally_odd=oddity.rationally_odd,
        negative_euler_char=chi < 0,
        nontrivial_action_assumed=True,
    )
    return WgHypothesisReport(
        n=n,
        g=g,
        manifold=f"connected sum of {g} copies of S^{n} x S^{n}",
        euler_char=chi,
        betti=tuple(betti),
        rationally_odd=oddity.rationally_odd,
        fixed_set=f"S^{n - 3} x S^{n}",
        fixed_set_nonempty=True,
        hypotheses=flags,
        theorems_apply=flags.all_set(),
    )
