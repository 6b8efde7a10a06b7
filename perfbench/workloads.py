"""Seeded inputs and independent reference answers for the benchmark workloads.

Every reference is computed here, once per run and outside every timed
region, without importing kappa_forge:

* elementary symmetric functions of squared weights come from closed forms
  for n = 2 and from sympy's dense polynomial product otherwise;
* smallest odd primes and witness primes come from the construction of the
  input and are cross-checked with ``sympy.factorint``;
* SU(2) realizations come from the representation that generated the
  weights, folded to torus weights by this module's own ``fold_weights``.

Each workload is a fixed list of CLI jobs.  The inputs known to crash or
hang the current code are part of the lists at a fixed share and are never
resized away; the ``defect`` field names them for the report only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional

from sympy import factorint, nextprime
from sympy.polys.densearith import dup_mul
from sympy.polys.domains import ZZ

ALL_FLAGS = "rationally-odd,neg-euler,nontrivial-action"
PARTIAL_FLAGS = "rationally-odd"

# flag argv and whether the verdict counts as applicable
FLAG_VARIANTS = (
    ([f"--flags={ALL_FLAGS}"], True),
    ([], True),  # defaults to all three, with a warning on stderr
    ([f"--flags={PARTIAL_FLAGS}"], False),
)


@dataclass
class Job:
    """One CLI invocation: argv after ``python -m kappa_forge.cli``.

    ``check`` takes the decoded JSON output and returns None when it matches
    the reference, else a message saying what differs.
    """

    name: str
    argv: list[str]
    limit_s: float
    check: Callable[[object], Optional[str]]
    defect: Optional[str] = None


@dataclass
class Workload:
    jobs: list[Job]
    inputs: dict[str, str]  # relative path -> sha256 of the generated file


# ---------------------------------------------------------------------------
# reference arithmetic
# ---------------------------------------------------------------------------

def elementary_of_squares(weights: list[int]) -> list[int]:
    """[e_0, e_1, ..., e_n] of the squared weights."""
    squares = [a * a for a in weights]
    if len(squares) == 2:
        return [1, squares[0] + squares[1], squares[0] * squares[1]]
    poly = [1]
    for s in squares:
        poly = dup_mul(poly, [ZZ(s), ZZ(1)], ZZ)  # prod(s*t + 1), highest power first
    return [int(c) for c in reversed(poly)]


def smallest_odd_prime(g: int) -> Optional[int]:
    odd = g >> ((g & -g).bit_length() - 1)
    return min(factorint(odd)) if odd > 1 else None


def reference_reasons(b: list[Fraction]) -> list[dict]:
    """The obstruction reasons for a b-vector, as the CLI's JSON spells them."""
    reasons = [
        {"index": idx, "kind": "non_integer"}
        for idx, x in enumerate(b, start=1)
        if x.denominator != 1
    ]
    if reasons:
        return reasons
    g = 0
    for x in b:
        g = math.gcd(g, abs(int(x)))
    if g == 0:
        return [{"kind": "all_zero"}]
    prime = smallest_odd_prime(g)
    return [] if prime is None else [{"kind": "gcd_has_odd_prime", "prime": prime}]


def fold_weights(dims: list[int]) -> list[int]:
    """Torus rotation weights of a real SU(2)-representation, by summand dimension.

    An odd summand V_d complexifies to the irreducible with weights
    -(d-1), ..., d-1 in steps of 2; V_4q complexifies to two copies of the one
    with weights -(2q-1), ..., 2q-1.  Positive weights become planes and the
    zero weights pair up into trivial planes.
    """
    planes: list[int] = []
    zeros = 0
    for d in dims:
        if d % 2:
            planes.extend(range(2, d, 2))
            zeros += 1
        elif d % 4 == 0:
            planes.extend(2 * list(range(1, d // 2, 2)))
        else:
            raise ValueError(f"no real irreducible of dimension {d}")
    if zeros % 2:
        raise ValueError("odd total dimension")
    return planes + [0] * (zeros // 2)


def parse_rep(text: str) -> Counter:
    """Summand dimensions of a ``2*V3+V1`` string."""
    dims: Counter = Counter()
    for term in text.split("+"):
        mult, _, dim = term.rpartition("*")
        dims[int(dim.lstrip("Vv"))] += int(mult) if mult else 1
    return dims


def _fraction_list(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _expect(pairs) -> Optional[str]:
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {str(got)[:80]}, expected {str(want)[:80]}"
    return None


def check_annotations(values: list[tuple[int, int]]):
    """localize without --class: every annotation verified, in file order."""
    def check(out):
        checks = out["checks"]
        return _expect(
            [("checks", len(checks), len(values))]
            + [
                (f"checks[{j}]", (Fraction(c["computed"]), c["power"], c["matches"]),
                 (Fraction(v), p, True))
                for j, (c, (v, p)) in enumerate(zip(checks, values))
            ]
            + [("ok", out["ok"], True)]
        )
    return check


def check_coefficient(value: int, power: int):
    def check(out):
        return _expect([
            ("coefficient", Fraction(out["coefficient"]), value),
            ("power", out["power"], power),
        ])
    return check


def _pullback_pairs(out, i: int, coefficient: int, chi: int, where: str = ""):
    return [
        (f"{where}coefficient", Fraction(out["coefficient"]), coefficient),
        (f"{where}b_i", Fraction(out["b_i"]), Fraction(coefficient, chi)),
        (f"{where}power", (out["i"], out["power"]), (i, i)),
    ]


def check_pullback(i: int, coefficient: int, chi: int):
    return lambda out: _expect(_pullback_pairs(out, i, coefficient, chi))


def check_pullback_many(i: int, refs: list[tuple[int, int]]):
    def check(out):
        if not isinstance(out, list) or len(out) != len(refs):
            return f"expected a list of {len(refs)} results"
        return _expect([
            pair
            for j, (o, (coefficient, chi)) in enumerate(zip(out, refs))
            for pair in _pullback_pairs(o, i, coefficient, chi, f"[{j}].")
        ])
    return check


def check_verdict(b: list[Fraction], applicable: bool):
    reasons = reference_reasons(b)
    status = "ruled_out" if reasons else "consistent"
    return lambda out: _expect([
        ("status", out["status"], status),
        ("reasons", out["reasons"], reasons),
        ("applicable", out["applicable"], applicable),
    ])


def check_certificate(b: list[int], k: int, witness: int):
    transformed = [k ** (2 * i) * x for i, x in enumerate(b, start=1)]
    g = 0
    for x in transformed:
        g = math.gcd(g, abs(x))
    if smallest_odd_prime(g) != witness:  # generation-time self-check
        raise AssertionError(f"witness {witness} does not divide gcd {g}")

    def check(out):
        if "witness_prime" not in out:
            return f"no certificate: {out}"
        return _expect([
            ("k", out["k"], k),
            ("witness_prime", out["witness_prime"], witness),
            ("gcd", out["gcd"], g),
            ("b_transformed", _fraction_list(out["b_transformed"]), transformed),
            ("conclusion", out["conclusion"], "non-kinetic"),
        ])
    return check


def check_not_applicable(out) -> Optional[str]:
    if "not_applicable" not in out or "witness_prime" in out:
        return f"expected not_applicable, got {str(out)[:80]}"
    return None


def check_realization(dims: Optional[list[int]]):
    """dims of the generating representation, or None for an infeasible input."""
    def check(out):
        if dims is None:
            return _expect([("feasible", out["feasible"], False)])
        got = parse_rep(out["rep"]) if out.get("rep") else Counter()
        return _expect([
            ("feasible", out["feasible"], True),
            ("rep", dict(got), dict(Counter(dims))),
        ])
    return check


# ---------------------------------------------------------------------------
# input construction
# ---------------------------------------------------------------------------

def _nonzero(rng: Random, bound: int) -> int:
    a = rng.randint(1, bound)
    return a if rng.random() < 0.5 else -a


class _Files:
    """Writes fixed-point files into the work directory and remembers their hashes."""

    def __init__(self, work: str, rel_work: str):
        self.work = work
        self.rel_work = rel_work
        self.hashes: dict[str, str] = {}

    def write(self, name: str, payload: dict) -> str:
        blob = json.dumps(payload, separators=(",", ":")).encode()
        with open(os.path.join(self.work, name), "wb") as handle:
            handle.write(blob)
        rel = f"{self.rel_work}/{name}"
        self.hashes[rel] = hashlib.sha256(blob).hexdigest()
        return rel


def _fixed_point_file(rng: Random, n: int, count: int, bound: int):
    """Random components; returns payload, chi(W) and each component's (chi, e-vector)."""
    comps = [(rng.randint(-3, 3), [_nonzero(rng, bound) for _ in range(n)]) for _ in range(count)]
    if sum(chi for chi, _ in comps) == 0:
        chi0, w0 = comps[0]
        comps[0] = (chi0 - 1 if chi0 > -3 else chi0 + 1, w0)
    chi_w = sum(chi for chi, _ in comps)
    payload = {
        "fiber_half_dim": n,
        "fiber_euler_char": chi_w,
        "components": [
            {"name": f"m{j}", "euler_char": chi, "weights": w}
            for j, (chi, w) in enumerate(comps)
        ],
    }
    evs = [(chi, elementary_of_squares(w)) for chi, w in comps]
    return payload, chi_w, evs


def _localized(evs, exponents: dict[int, int]) -> int:
    """sum over components of chi * prod_i e_i^k_i."""
    total = 0
    for chi, e in evs:
        term = chi
        for i, k in exponents.items():
            term *= e[i] ** k
        total += term
    return total


def _annotate(payload: dict, evs, annotations):
    """annotations: (class text, {i: exponent}, generator, power); returns (value, power) refs."""
    refs, expected = [], []
    for cls, exponents, generator, power in annotations:
        value = _localized(evs, exponents)
        refs.append((value, power))
        expected.append(
            {"class": cls, "coefficient": str(value), "generator": generator, "power": power}
        )
    payload["expected"] = expected
    return refs


def _random_rep(rng: Random, summands: int) -> list[int]:
    """Summand dimensions; at most 800 non-trivial ones keeps realization recursion shallow."""
    nontrivial = min(800, summands * 7 // 8)
    dims = [rng.choice((3, 3, 4, 5, 5, 7, 8, 9, 11, 12, 13)) for _ in range(nontrivial)]
    dims += [1] * (summands - nontrivial)
    if sum(d % 2 for d in dims) % 2:
        dims.append(1)
    return dims


def _weights_argv(rng: Random, weights: list[int]) -> str:
    signed = [a if rng.random() < 0.5 else -a for a in weights]
    rng.shuffle(signed)
    return f"--weights={_csv(signed)}"


def _realize_job(rng: Random, name: str, dims: list[int], limit: float, infeasible=False,
                 defect=None) -> Job:
    weights = fold_weights(dims)
    if infeasible:
        # odd weights of a real representation come in pairs (from V_4q),
        # so one extra odd weight makes the multiset unrealizable
        weights = weights + [2 * rng.randint(0, 6) + 1]
    return Job(name, ["su2-realize", _weights_argv(rng, weights)], limit,
               check_realization(None if infeasible else dims), defect)


def _connected_b(rng: Random, n: int, bound: int) -> list[int]:
    """b_i = e_i of squared weights of one fixed component with a weight 1.

    A weight of absolute value 1 keeps the gcd a power of 2, so the vector
    passes the obstruction test and its k-twist yields a certificate.
    """
    while True:
        w = [1] + [_nonzero(rng, bound) for _ in range(n - 1)]
        b = elementary_of_squares(w)[1:]
        if not reference_reasons(_fraction_list(b)):
            return b


def _pipeline_tail(rng: Random, prefix: str, b_data: list[Fraction], n: int, bound: int,
                   limit: float) -> list[Job]:
    """The verdict stages after localization: theorem-a, certificate, realization."""
    b = _connected_b(rng, n, bound)
    k = int(nextprime(rng.randint(3, 60)))
    return [
        Job(f"{prefix}theorem-a", ["theorem-a", f"--b={_csv(b_data)}", f"--flags={ALL_FLAGS}"],
            limit, check_verdict(b_data, True)),
        Job(f"{prefix}adams-certify",
            ["adams", "--certify", f"--k={k}", f"--b={_csv(b)}", f"--flags={ALL_FLAGS}"],
            limit, check_certificate(b, k, k)),
        _realize_job(rng, f"{prefix}su2-realize", _random_rep(rng, rng.randint(20, 40)), limit),
    ]


def _log_strata(rng: Random, lo: float, hi: float, count: int, jitter: float) -> list[float]:
    """count exponents spread evenly over [lo, hi], each pulled down by a random jitter."""
    return [max(lo, lo + (hi - lo) * (j + 1) / count - jitter * rng.random()) for j in range(count)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def wide_fixed_set(rng: Random, files: _Files) -> list[Job]:
    limit = 20.0
    payload, chi, evs = _fixed_point_file(rng, 2, 30_000, 50)
    refs = _annotate(payload, evs, [
        ("p1", {1: 1}, "gamma", 2),
        ("p1", {1: 1}, "c2", 1),
        ("p2", {2: 1}, "c2", 2),
        ("p1^2", {1: 2}, "c2", 2),
    ])
    big = files.write("wide.json", payload)
    quarter_paths, quarter_refs = [], []
    for q in range(4):
        qp, qchi, qevs = _fixed_point_file(rng, 2, 7_500, 50)
        quarter_paths.append(files.write(f"quarter{q}.json", qp))
        quarter_refs.append((_localized(qevs, {2: 1}), qchi))
    coeffs = [_localized(evs, {i: 1}) for i in (1, 2)]
    b_data = [Fraction(c, chi) for c in coeffs]
    return [
        Job("localize", ["localize", "--input", big, "--format", "json"], limit,
            check_annotations(refs)),
        Job("pullback-i1", ["pullback-su2", "--input", big, "--i", "1"], limit,
            check_pullback(1, coeffs[0], chi)),
        Job("pullback-i2", ["pullback-su2", "--input", big, "--i", "2"], limit,
            check_pullback(2, coeffs[1], chi)),
        Job("pullback-4files", ["pullback-su2", "--input", *quarter_paths, "--i", "2"], limit,
            check_pullback_many(2, quarter_refs)),
    ] + _pipeline_tail(rng, "", b_data, 2, 50, limit)


def deep_classes(rng: Random, files: _Files) -> list[Job]:
    limit = 20.0
    p64, chi64, ev64 = _fixed_point_file(rng, 64, 60, 1000)
    refs64 = _annotate(p64, ev64, [(f"p{i}", {i: 1}, "c2", i) for i in range(1, 65)])
    f64 = files.write("n64.json", p64)
    p16, chi16, ev16 = _fixed_point_file(rng, 16, 600, 1000)
    refs16 = _annotate(p16, ev16, [(f"p{i}", {i: 1}, "c2", i) for i in range(1, 17)])
    f16 = files.write("n16.json", p16)
    all_p = {i: 1 for i in range(1, 65)}
    b16 = [Fraction(value, chi16) for value, _ in refs16]
    return [
        Job("localize-n64", ["localize", "--input", f64], limit, check_annotations(refs64)),
        Job("localize-n16", ["localize", "--input", f16], limit, check_annotations(refs16)),
        Job("localize-all-p", ["localize", "--input", f64, "--class", "*".join(f"p{i}" for i in all_p)],
            limit, check_coefficient(_localized(ev64, all_p), 2 * sum(all_p)),
            defect="coefficient exceeds the int-to-str digit limit"),
        Job("pullback-i64", ["pullback-su2", "--input", f64, "--i", "64"], limit,
            check_pullback(64, refs64[63][0], chi64)),
        Job("pullback-i1", ["pullback-su2", "--input", f64, "--i", "1"], limit,
            check_pullback(1, refs64[0][0], chi64)),
    ] + _pipeline_tail(rng, "", b16, 64, 1000, limit)


def _gcd_vector(rng: Random, odd: int) -> list[int]:
    """Integers whose gcd is exactly 2^a * odd."""
    length = rng.randint(2, 6)
    twos = [rng.randint(0, 5) for _ in range(length)]
    multipliers = [1] + [2 * rng.randint(0, 499) + 1 for _ in range(length - 1)]
    rng.shuffle(multipliers)
    return [
        (1 if rng.random() < 0.7 else -1) * (odd << t) * m
        for t, m in zip(twos, multipliers)
    ]


def verdict_sweep(rng: Random, files: _Files) -> list[Job]:
    limit = 2.0
    jobs: list[Job] = []

    # a small fixed-point file, so the localization stages feed the verdicts here too
    payload, chi, evs = _fixed_point_file(rng, 2, 8, 9)
    refs = _annotate(payload, evs, [("p1", {1: 1}, "c2", 1), ("p2", {2: 1}, "c2", 2)])
    small = files.write("small.json", payload)
    jobs.append(Job("localize-small", ["localize", "--input", small], limit,
                    check_annotations(refs)))
    jobs.append(Job("pullback-small", ["pullback-su2", "--input", small, "--i", "1"], limit,
                    check_pullback(1, refs[0][0], chi)))

    # theorem-a: smallest odd prime of the gcd on a log scale from 3 to 1e13
    vectors: list[list] = []
    for x in _log_strata(rng, math.log10(3), 13.0, 6, 0.02):
        p = int(nextprime(int(10 ** x) - 1))
        # below 1e6 a larger cofactor keeps p the smallest prime without
        # making trial division past p the dominant cost
        odd = p * int(nextprime(p * rng.randint(2, 50))) if p < 10**6 else p
        if smallest_odd_prime(odd) != p:
            raise AssertionError(f"construction lost the smallest prime {p}")
        vectors.append(_gcd_vector(rng, odd))
    vectors.append(_gcd_vector(rng, 1))
    vectors.append([Fraction(rng.randint(1, 99), 2 * rng.randint(1, 9) + 1) + rng.randint(0, 9)
                    for _ in range(3)])
    vectors.append([0] * rng.randint(2, 4))
    for j, b in enumerate(vectors):
        flag_argv, applicable = FLAG_VARIANTS[j % len(FLAG_VARIANTS)]
        bf = _fraction_list(b)
        jobs.append(Job(f"theorem-a-{j}", ["theorem-a", f"--b={_csv(b)}", *flag_argv], limit,
                        check_verdict(bf, applicable)))
    prime19 = int(nextprime(10**18 + rng.randint(0, 10**17)))
    hard = [prime19, -3 * prime19]
    jobs.append(Job("theorem-a-prime19", ["theorem-a", f"--b={_csv(hard)}"], limit,
                    check_verdict(_fraction_list(hard), True),
                    defect="trial division of a 19-digit prime gcd"))

    # adams --certify: the witness search runs up to k, k prime up to about 1e7
    for j, x in enumerate(_log_strata(rng, math.log10(3), 7.0, 5, 0.02)):
        k = int(nextprime(int(10 ** x) - 1))
        b = _connected_b(rng, rng.randint(2, 4), 30)
        argv = ["adams", "--certify", f"--k={k}", f"--b={_csv(b)}"]
        jobs.append(Job(f"adams-{j}", argv + [f"--flags={ALL_FLAGS}"], limit,
                        check_certificate(b, k, k)))
    jobs.append(Job("adams-partial-flags", argv + [f"--flags={PARTIAL_FLAGS}"], limit,
                    check_not_applicable))
    big_k = int(nextprime(10**12 + rng.randint(0, 10**9)))
    jobs.append(Job("adams-k1e12", ["adams", "--certify", f"--k={big_k}", "--b=1,2"], limit,
                    check_certificate([1, 2], big_k, big_k),
                    defect="witness search by trial division up to k"))

    # su2-realize: random real representations of 50..900 summands
    for j, x in enumerate(_log_strata(rng, math.log10(50), math.log10(900), 4, 0.05)):
        jobs.append(_realize_job(rng, f"su2-realize-{j}", _random_rep(rng, int(10 ** x)), limit))
    for j, size in enumerate((250, 500)):
        jobs.append(_realize_job(rng, f"su2-infeasible-{j}", _random_rep(rng, size), limit,
                                 infeasible=True))
    jobs.append(_realize_job(rng, "su2-realize-1500xV3", [3] * 1500, limit,
                             defect="recursion depth of the memoized peel"))
    return jobs


WORKLOADS: dict[str, Callable[[Random, _Files], list[Job]]] = {
    "wide-fixed-set": wide_fixed_set,
    "deep-classes": deep_classes,
    "verdict-sweep": verdict_sweep,
}


def build(name: str, seed: int, work: str, rel_work: str) -> Workload:
    """Generate the inputs of one workload into ``work`` and its job list."""
    files = _Files(work, rel_work)
    jobs = WORKLOADS[name](Random(f"{name}:{seed}"), files)
    return Workload(jobs, files.hashes)
