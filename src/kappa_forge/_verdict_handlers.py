"""The CLI handlers of the short calls: theorem-a, adams, betti, su2-restrict and su2-realize.

``cli.main`` imports this module only for those subcommands, so a call
compiles none of the file and catalog handlers.  Each handler imports the
library functions it calls in its body, where a tracer that rebinds them
in their module sees every call, and returns (payload, text lines, ok) as
``cli.main`` expects; ``adams`` without ``--certify`` makes its line
only when it is iterated, so ``--format json`` never formats the
rescaled entries.
"""

from __future__ import annotations

import sys

from .errors import ParseError, clip, rational_literal

_FLAG_TOKENS = {
    "rationally-odd": "rationally_odd",
    "neg-euler": "negative_euler_char",
    "nontrivial-action": "nontrivial_action_assumed",
}


def _parse_fraction_list(text: str) -> list:
    """The rationals of a comma-separated ``--b``, each read by :func:`errors.rational_literal`."""
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(rational_literal(token))
        except ParseError:  # bounded_fraction's own refusal
            raise
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational '{clip(token)}'") from None
    return out


def _parse_flags(text):
    from .obstruction import HypothesisFlags

    if text is None:
        print(
            "warning: hypothesis flags not given; defaulting to "
            "rationally-odd,neg-euler,nontrivial-action. The verdict "
            "obstructs an action only when these actually hold.",
            file=sys.stderr,
        )
        return HypothesisFlags.all_true()
    values = {name: False for name in _FLAG_TOKENS.values()}
    for token in text.split(","):
        token = token.strip()
        if token not in _FLAG_TOKENS:
            raise ParseError(
                f"unknown hypothesis flag '{clip(token)}' (expected "
                + ", ".join(sorted(_FLAG_TOKENS))
                + ")"
            )
        values[_FLAG_TOKENS[token]] = True
    return HypothesisFlags(**values)


def cmd_theorem_a(args):
    from .obstruction import BVector, theorem_a_check

    b = BVector.of(_parse_fraction_list(args.b))
    flags = _parse_flags(args.flags)
    verdict = theorem_a_check(b, flags)
    payload = {"b": [str(x) for x in b], **verdict.to_json_dict()}
    lines = [f"verdict: {verdict.status}"]
    lines.extend(f"reason: {r}" for r in verdict.reasons)
    if not verdict.applicable:
        lines.append(
            "note: hypothesis flags incomplete; this is arithmetic only, "
            "not an obstruction"
        )
    return payload, lines, True


def cmd_adams(args):
    from .obstruction import BVector, Certificate, adams_transform, nonkinetic_certificate

    b = BVector.of(_parse_fraction_list(args.b))
    if not args.certify:
        transformed = adams_transform(args.k, b)
        payload = {
            "b": [str(x) for x in b],
            "b_transformed": [str(x) for x in transformed],
            "k": args.k,
        }

        def text():
            yield str(transformed)

        return payload, text(), True
    flags = _parse_flags(args.flags)
    result = nonkinetic_certificate(b, args.k, flags)
    if isinstance(result, Certificate):
        lines = [
            "certificate: non-kinetic",
            f"k = {result.k}",
            f"witness prime = {result.witness_prime}",
            f"gcd = {result.gcd}",
            f"b_base = {result.b_base}",
            f"b_transformed = {result.b_transformed}",
        ]
    else:
        lines = [f"not applicable: {result.reason}"]
    return result.to_json_dict(), lines, True


def cmd_su2_restrict(args):
    from .su2rep import parse_real_rep, restrict_to_torus

    rep = parse_real_rep(args.rep)
    weights = restrict_to_torus(rep)
    payload = {"rep": str(rep), "weights": list(weights.entries)}
    return payload, [str(weights)], True


def cmd_su2_realize(args):
    from .su2rep import parse_weight_multiset, realize_weights

    weights = parse_weight_multiset(args.weights)
    rep = realize_weights(weights)
    payload = {
        "feasible": rep is not None,
        "rep": None if rep is None else str(rep),
        "weights": list(weights.entries),
    }
    return payload, [str(rep) if rep is not None else "infeasible"], True


def cmd_betti(args):
    from .obstruction import betti_feasible

    result = betti_feasible(args.w_even, args.w_odd, args.m_even, args.m_odd)
    payload = {
        "feasible": result.feasible,
        "k": result.k,
        "m_even": args.m_even,
        "m_odd": args.m_odd,
        "w_even": args.w_even,
        "w_odd": args.w_odd,
    }
    if result.feasible:
        lines = [f"feasible: k = {result.k}"]
    else:
        lines = [
            "infeasible: the even and odd Betti sums must drop by the same "
            "non-negative amount"
        ]
    return payload, lines, True
