"""Command-line front end.

Subcommands map one-to-one onto module operations (adams --certify runs
the short certificate composition):

  sigma          evaluate a class monomial against circle weights
  localize       fixed-point localization over the circle, from data files
  pullback-su2   localization promoted to SU(2), with the normalized b_i
  theorem-a      integrality / gcd-power-of-2 verdict on a b-vector
  adams          rescale a b-vector by k^(2i); --certify emits the
                 non-kinetic certificate
  su2-restrict   restrict a real SU(2)-representation to the maximal torus
  su2-realize    find a representation with the given torus weights
  betti          feasibility of fixed-set Betti sums
  catalog        generate the worked example families

Exit status: 0 for every computed verdict (ruled_out, infeasible and
not-applicable included), 1 for domain errors, 2 for parse or validation
errors.  --format json|text selects the encoding; the environment variable
KAPPA_FORGE_FORMAT supplies the default.

Each handler imports the modules it calls, so a run loads only those:
theorem-a, adams and betti never import localization or symalg.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import DomainError, ParseError, bounded_fraction, clip, parse_weight_list

FORMAT_ENV = "KAPPA_FORGE_FORMAT"

_FLAG_TOKENS = {
    "rationally-odd": "rationally_odd",
    "neg-euler": "negative_euler_char",
    "nontrivial-action": "nontrivial_action_assumed",
}


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int-to-str digit limit while a computed result is formatted and printed.

    Exact answers can run past the interpreter's default of 4,300 digits.
    Input is never parsed inside this block, so an over-long number on the
    command line or in a file stays a parse error.  A no-op on interpreters
    without the limit (before Python 3.10.7).
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _emit(args, payload, lines) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_fraction_list(text: str) -> list:
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(bounded_fraction(token))
        except ParseError:  # over the digit limit
            raise
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational '{clip(token)}'") from None
    return out


def _kappa_text(label: str, kv) -> str:
    """``kappa[label] = coefficient * generator^power``, the text form of a KappaValue."""
    return f"kappa[{label}] = {kv.coefficient} * {kv.generator}^{kv.generator_power}"


def _parse_flags(text):
    from .obstruction import HypothesisFlags

    if text is None:
        _warn(
            "hypothesis flags not given; defaulting to "
            "rationally-odd,neg-euler,nontrivial-action. The verdict "
            "obstructs an action only when these actually hold."
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


def _load_file(path):
    from .localization import read_fixed_point_file, validate_fixed_data

    loaded = read_fixed_point_file(path)
    diagnostics = validate_fixed_data(loaded.data)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise ParseError(f"'{path}': " + "; ".join(d.message for d in errors))
    notes = [f"{path}: {d.message}" for d in diagnostics if d.severity == "info"]
    return loaded, notes


def _run_inputs(args, per_file) -> int:
    """Run ``per_file(path, loaded, prefix)`` on each --input file, in order.

    ``per_file`` returns (payload, text lines, ok), formatting its numbers
    under :func:`_unlimited_int_digits`; ``prefix`` is "path: " when there
    are several files.  Validation notes go to stderr, one file
    emits its payload and several emit a list; any file not ok exits 1.
    """
    prefix_paths = len(args.input) > 1
    notes, payloads, lines, ok = [], [], [], True
    for path in args.input:
        loaded, file_notes = _load_file(path)
        payload, file_lines, file_ok = per_file(
            path, loaded, f"{path}: " if prefix_paths else ""
        )
        notes.extend(file_notes)
        payloads.append(payload)
        lines.extend(file_lines)
        ok = ok and file_ok
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    _emit(args, payloads if prefix_paths else payloads[0], lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_sigma(args) -> int:
    from .symalg import parse_class_monomial, sigma_eval

    weights = parse_weight_list(args.weights)
    monomial = parse_class_monomial(args.cls, len(weights))
    value = sigma_eval(monomial, weights)
    payload = {
        "class": str(monomial),
        "fiber_half_dim": len(weights),
        "sigma": value,
        "weights": weights,
    }
    with _unlimited_int_digits():
        _emit(args, payload, [str(value)])
    return 0


def cmd_localize(args) -> int:
    from .localization import compare_expected, kappa_class_label, localize_circle
    from .symalg import parse_class_monomial

    def per_file(path, loaded, prefix):
        n = loaded.data.fiber_half_dim
        if args.cls is not None:
            monomial = parse_class_monomial(args.cls, n)
            kv = localize_circle(loaded.data, monomial)
            label = kappa_class_label(monomial)
            with _unlimited_int_digits():
                payload = {**kv.to_json_dict(), "input": str(path), "kappa_class": label}
                lines = [prefix + _kappa_text(label, kv)]
            return payload, lines, True
        if loaded.expected is None:
            raise ParseError(
                f"'{path}': no --class given and the file carries no "
                "expected annotations"
            )
        comparisons = compare_expected(loaded.data, loaded.expected)
        results = []
        lines = []
        with _unlimited_int_digits():
            for comp in comparisons:
                label = kappa_class_label(comp.expected.class_monomial)
                status = "ok" if comp.matches else "MISMATCH"
                lines.append(
                    f"{prefix}{_kappa_text(label, comp.computed)} "
                    f"(expected {comp.expected.coefficient}: {status})"
                )
                results.append(
                    {
                        "class": str(comp.expected.class_monomial),
                        "computed": str(comp.computed.coefficient),
                        "expected": str(comp.expected.coefficient),
                        "generator": comp.expected.generator,
                        "kappa_class": label,
                        "matches": comp.matches,
                        "power": comp.computed.generator_power,
                    }
                )
        ok = all(comp.matches for comp in comparisons)
        payload = {"checks": results, "input": str(path), "ok": ok}
        return payload, lines, ok

    return _run_inputs(args, per_file)


def cmd_pullback_su2(args) -> int:
    from .localization import kappa_class_label, pullback_su2

    def per_file(path, loaded, prefix):
        kv, b_i = pullback_su2(loaded.data, args.i)
        label = kappa_class_label(kv.class_monomial)
        with _unlimited_int_digits():
            payload = {
                **kv.to_json_dict(),
                "b_i": str(b_i),
                "i": args.i,
                "input": str(path),
                "kappa_class": label,
            }
            lines = [
                prefix + _kappa_text(label, kv),
                f"{prefix}b_{args.i} = {b_i}",
            ]
        return payload, lines, True

    return _run_inputs(args, per_file)


def cmd_theorem_a(args) -> int:
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
    _emit(args, payload, lines)
    return 0


def cmd_adams(args) -> int:
    from .obstruction import BVector, Certificate, adams_transform, nonkinetic_certificate

    b = BVector.of(_parse_fraction_list(args.b))
    if not args.certify:
        transformed = adams_transform(args.k, b)
        with _unlimited_int_digits():
            payload = {
                "b": [str(x) for x in b],
                "b_transformed": [str(x) for x in transformed],
                "k": args.k,
            }
            _emit(args, payload, [str(transformed)])
        return 0
    flags = _parse_flags(args.flags)
    result = nonkinetic_certificate(b, args.k, flags)
    with _unlimited_int_digits():
        if isinstance(result, Certificate):
            lines = [
                "certificate: non-kinetic",
                f"k = {result.k}",
                f"witness prime = {result.witness_prime}",
                f"gcd = {result.gcd}",
                f"b_base = {result.b_base}",
                f"b_transformed = {result.b_transformed}",
            ]
            _emit(args, result.to_json_dict(), lines)
        else:
            _emit(args, result.to_json_dict(), [f"not applicable: {result.reason}"])
    return 0


def cmd_su2_restrict(args) -> int:
    from .su2rep import parse_real_rep, restrict_to_torus

    rep = parse_real_rep(args.rep)
    weights = restrict_to_torus(rep)
    payload = {"rep": str(rep), "weights": list(weights.entries)}
    _emit(args, payload, [str(weights)])
    return 0


def cmd_su2_realize(args) -> int:
    from .su2rep import parse_weight_multiset, realize_weights

    weights = parse_weight_multiset(args.weights)
    rep = realize_weights(weights)
    payload = {
        "feasible": rep is not None,
        "rep": None if rep is None else str(rep),
        "weights": list(weights.entries),
    }
    _emit(args, payload, [str(rep) if rep is not None else "infeasible"])
    return 0


def cmd_betti(args) -> int:
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
    _emit(args, payload, lines)
    return 0


def cmd_catalog_s2xs2(args) -> int:
    import json

    from .catalog import s2xs2_family
    from .localization import kappa_class_label

    entry = s2xs2_family(args.k)
    if args.out is None:
        with _unlimited_int_digits():
            print(json.dumps(entry.to_payload(), indent=2, sort_keys=True))
        return 0
    # written under the digit limit, so localize --input reads it back and
    # every number printed below fits the limit too
    entry.write(args.out)
    expected_lines = [
        "expected " + _kappa_text(kappa_class_label(ev.class_monomial), ev)
        for ev in entry.expected
    ]
    payload = {
        "expected": [ev.to_json_dict() for ev in entry.expected],
        "label": entry.label,
        "out": str(args.out),
    }
    _emit(args, payload, [f"wrote {args.out}"] + expected_lines)
    return 0


def cmd_catalog_wg(args) -> int:
    from .catalog import wg_hypothesis_report

    report = wg_hypothesis_report(args.n, args.g)
    payload = {name: getattr(report, name) for name in report._fields}
    payload["hypotheses"] = report.hypotheses.to_json_dict()
    # 2g and 2 - 2g have one digit more than g
    with _unlimited_int_digits():
        betti_text = ",".join(str(x) for x in report.betti)
        lines = [
            f"{report.manifold} (dimension {2 * report.n})",
            f"euler characteristic: {report.euler_char}",
            f"rationally odd: {'yes' if report.rationally_odd else 'no'} (betti {betti_text})",
            f"building-block fixed set: {report.fixed_set} (non-empty)",
        ]
        if report.theorems_apply:
            lines.append("obstruction hypotheses: satisfied")
        else:
            lines.append(
                "obstruction hypotheses: not satisfied "
                f"(euler characteristic {report.euler_char} is not negative)"
            )
        _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help=f"output encoding (default from ${FORMAT_ENV}, else text)",
    )

    parser = argparse.ArgumentParser(
        prog="kappa-forge",
        description="Exact kappa-class localization and the action obstruction test.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "sigma", parents=[fmt_parent], help="evaluate a class monomial on weights"
    )
    p.add_argument("--class", dest="cls", required=True, help="e.g. p1, e*p1^2")
    p.add_argument("--weights", required=True, help="comma-separated integers")
    p.set_defaults(handler=cmd_sigma)

    p = sub.add_parser(
        "localize",
        parents=[fmt_parent],
        help="localize kappa classes over the circle from fixed-point files",
    )
    p.add_argument("--input", required=True, nargs="+", help="fixed-point data file(s)")
    p.add_argument(
        "--class",
        dest="cls",
        default=None,
        help="class monomial; omit to verify the file's expected annotations",
    )
    p.set_defaults(handler=cmd_localize)

    p = sub.add_parser(
        "pullback-su2",
        parents=[fmt_parent],
        help="kappa[e*p_i] over SU(2) with the normalized b_i",
    )
    p.add_argument("--input", required=True, nargs="+", help="fixed-point data file(s)")
    p.add_argument("--i", type=int, required=True, help="Pontryagin index")
    p.set_defaults(handler=cmd_pullback_su2)

    p = sub.add_parser(
        "theorem-a", parents=[fmt_parent], help="obstruction verdict on a b-vector"
    )
    p.add_argument("--b", required=True, help="comma-separated rationals, e.g. 9,18")
    p.add_argument(
        "--flags",
        default=None,
        help="comma list from rationally-odd,neg-euler,nontrivial-action "
        "(default: all, with a warning)",
    )
    p.set_defaults(handler=cmd_theorem_a)

    p = sub.add_parser(
        "adams",
        parents=[fmt_parent],
        help="rescale a b-vector by k^(2i); --certify emits the non-kinetic certificate",
    )
    p.add_argument("--k", type=int, required=True, help="odd integer")
    p.add_argument("--b", required=True, help="comma-separated rationals")
    p.add_argument("--certify", action="store_true", help="run the certificate pipeline")
    p.add_argument(
        "--flags",
        default=None,
        help="hypothesis flags for --certify (default: all, with a warning)",
    )
    p.set_defaults(handler=cmd_adams)

    p = sub.add_parser(
        "su2-restrict",
        parents=[fmt_parent],
        help="torus weights of a real SU(2)-representation",
    )
    p.add_argument("--rep", required=True, help="e.g. V3+V4+2*V1")
    p.set_defaults(handler=cmd_su2_restrict)

    p = sub.add_parser(
        "su2-realize",
        parents=[fmt_parent],
        help="find a real representation with the given torus weights",
    )
    p.add_argument("--weights", required=True, help="comma-separated integers")
    p.set_defaults(handler=cmd_su2_realize)

    p = sub.add_parser(
        "betti", parents=[fmt_parent], help="fixed-set Betti sum feasibility"
    )
    p.add_argument("--w-even", type=int, required=True)
    p.add_argument("--w-odd", type=int, required=True)
    p.add_argument("--m-even", type=int, required=True)
    p.add_argument("--m-odd", type=int, required=True)
    p.set_defaults(handler=cmd_betti)

    p = sub.add_parser("catalog", help="generate the worked example families")
    catalog_sub = p.add_subparsers(dest="family", required=True)

    q = catalog_sub.add_parser(
        "s2xs2", parents=[fmt_parent], help="sphere-bundle double family"
    )
    q.add_argument("--k", type=int, required=True, help="even Euler number")
    q.add_argument("--out", default=None, help="write the data file here")
    q.set_defaults(handler=cmd_catalog_s2xs2)

    q = catalog_sub.add_parser(
        "wg", parents=[fmt_parent], help="connected-sum hypothesis report"
    )
    q.add_argument("--n", type=int, required=True, help="odd integer >= 3")
    q.add_argument("--g", type=int, required=True, help="number of summands")
    q.set_defaults(handler=cmd_catalog_wg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # resolved before any work, so a bad value computes and writes nothing
        args.format = args.format or os.environ.get(FORMAT_ENV) or "text"
        if args.format not in ("text", "json"):
            raise ParseError(f"bad output format '{args.format}' (expected 'text' or 'json')")
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
