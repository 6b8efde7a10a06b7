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
theorem-a, adams and betti never import localization or symalg.  A
well-formed argv is read straight from the option table (COMMANDS);
argparse, with the gettext and locale it loads, is imported only to print
help or a usage error.

A process enters through :func:`run` (the ``kappa-forge`` script and
``python -m kappa_forge.cli``), which alone sets the garbage collector;
:func:`main` is the call for tests and library callers.  Each handler
returns (payload, text lines, ok), and ``main`` alone writes it and maps
ok to exit 0, else 1.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .errors import (
    DomainError, ParseError, clip, int_digit_limit, int_digit_scope, parse_weight_list, rational_literal,
)

FORMAT_ENV = "KAPPA_FORGE_FORMAT"

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


def _kappa_text(label: str, kv) -> str:
    """``kappa[label] = coefficient * generator^power``, the text form of a KappaValue."""
    return f"kappa[{label}] = {kv.coefficient} * {kv.generator}^{kv.generator_power}"


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


def _run_inputs(args, per_file):
    """Run ``per_file(path, loaded, prefix)`` on each --input file, in order.

    ``per_file`` returns (payload, text lines, ok); ``prefix`` is "path: "
    when there are several files.  Validation notes go to stderr.  The
    result is one file's payload or a list of several, every file's lines,
    and ok when every file is; an unusable file raises ParseError.
    """
    from .localization import _require_usable, read_fixed_point_file, validate_fixed_data

    prefix_paths = len(args.input) > 1
    notes, payloads, lines, ok = [], [], [], True
    for path in args.input:
        loaded = read_fixed_point_file(path)
        # validated first, so _require_usable reads the diagnostics kept on the data
        diagnostics = validate_fixed_data(loaded.data)
        try:
            _require_usable(loaded.data)
        except DomainError as exc:
            raise ParseError(f"'{path}': {exc}") from None
        payload, file_lines, file_ok = per_file(
            path, loaded, f"{path}: " if prefix_paths else ""
        )
        notes.extend(f"{path}: {d.message}" for d in diagnostics if d.severity == "info")
        payloads.append(payload)
        lines.extend(file_lines)
        ok = ok and file_ok
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return payloads if prefix_paths else payloads[0], lines, ok


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_sigma(args):
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
    return payload, [str(value)], True


def cmd_localize(args):
    from .localization import compare_expected, kappa_class_label, localize_circle
    from .symalg import parse_class_monomial

    def per_file(path, loaded, prefix):
        n = loaded.data.fiber_half_dim
        if args.cls is not None:
            monomial = parse_class_monomial(args.cls, n)
            kv = localize_circle(loaded.data, monomial)
            label = kappa_class_label(monomial)
            payload = {**kv.to_json_dict(), "input": str(path), "kappa_class": label}
            return payload, [prefix + _kappa_text(label, kv)], True
        if not loaded.expected:
            raise ParseError(
                f"'{path}': no --class given and the file carries no "
                "expected annotations"
            )
        comparisons = compare_expected(loaded.data, loaded.expected)
        results = []
        lines = []
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


def cmd_pullback_su2(args):
    from .localization import kappa_class_label, pullback_su2

    def per_file(path, loaded, prefix):
        kv, b_i = pullback_su2(loaded.data, args.i)
        label = kappa_class_label(kv.class_monomial)
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
        return payload, [str(transformed)], True
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


def cmd_catalog_s2xs2(args):
    import json

    from .catalog import s2xs2_family
    from .localization import kappa_class_label

    entry = s2xs2_family(args.k)
    if args.out is None:  # the data file itself, in either format
        payload = entry.to_payload()
        lines = [json.dumps(payload, indent=2, sort_keys=True)] if args.format == "text" else []
        return payload, lines, True
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
    return payload, [f"wrote {args.out}"] + expected_lines, True


def cmd_catalog_wg(args):
    from .catalog import wg_hypothesis_report

    report = wg_hypothesis_report(args.n, args.g)
    payload = {name: getattr(report, name) for name in report._fields}
    payload["hypotheses"] = report.hypotheses.to_json_dict()
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
    return payload, lines, True


# ---------------------------------------------------------------------------
# option table and parser
# ---------------------------------------------------------------------------

FORMATS = ("text", "json")

# One row per option: (option string, dest, type, required, nargs, help).  The
# type is int, str, a tuple of the str values allowed, or bool for a flag;
# nargs is None for one value, "+" for one or more and 0 for a flag.
_FORMAT_OPTION = (
    "--format", "format", FORMATS, False, None,
    f"output encoding (default from ${FORMAT_ENV}, else text)",
)
_INPUT_OPTION = ("--input", "input", str, True, "+", "fixed-point data file(s)")

# subcommand -> (help, handler, options), each taking --format first; a
# subcommand with families (catalog) maps to (help, {family: the same})
COMMANDS = {
    "sigma": ("evaluate a class monomial on weights", cmd_sigma, (
        ("--class", "cls", str, True, None, "e.g. p1, e*p1^2"),
        ("--weights", "weights", str, True, None, "comma-separated integers"),
    )),
    "localize": ("localize kappa classes over the circle from fixed-point files", cmd_localize, (
        _INPUT_OPTION,
        ("--class", "cls", str, False, None,
         "class monomial; omit to verify the file's expected annotations"),
    )),
    "pullback-su2": ("kappa[e*p_i] over SU(2) with the normalized b_i", cmd_pullback_su2, (
        _INPUT_OPTION,
        ("--i", "i", int, True, None, "Pontryagin index"),
    )),
    "theorem-a": ("obstruction verdict on a b-vector", cmd_theorem_a, (
        ("--b", "b", str, True, None, "comma-separated rationals, e.g. 9,18"),
        ("--flags", "flags", str, False, None,
         "comma list from rationally-odd,neg-euler,nontrivial-action "
         "(default: all, with a warning)"),
    )),
    "adams": (
        "rescale a b-vector by k^(2i); --certify emits the non-kinetic certificate", cmd_adams, (
            ("--k", "k", int, True, None, "odd integer"),
            ("--b", "b", str, True, None, "comma-separated rationals"),
            ("--certify", "certify", bool, False, 0, "run the certificate pipeline"),
            ("--flags", "flags", str, False, None,
             "hypothesis flags for --certify (default: all, with a warning)"),
        ),
    ),
    "su2-restrict": ("torus weights of a real SU(2)-representation", cmd_su2_restrict, (
        ("--rep", "rep", str, True, None, "e.g. V3+V4+2*V1"),
    )),
    "su2-realize": ("find a real representation with the given torus weights", cmd_su2_realize, (
        ("--weights", "weights", str, True, None, "comma-separated integers"),
    )),
    "betti": ("fixed-set Betti sum feasibility", cmd_betti, (
        ("--w-even", "w_even", int, True, None, None),
        ("--w-odd", "w_odd", int, True, None, None),
        ("--m-even", "m_even", int, True, None, None),
        ("--m-odd", "m_odd", int, True, None, None),
    )),
    "catalog": ("generate the worked example families", {
        "s2xs2": ("sphere-bundle double family", cmd_catalog_s2xs2, (
            ("--k", "k", int, True, None, "even Euler number"),
            ("--out", "out", str, False, None, "write the data file here"),
        )),
        "wg": ("connected-sum hypothesis report", cmd_catalog_wg, (
            ("--n", "n", int, True, None, "odd integer >= 3"),
            ("--g", "g", int, True, None, "number of summands"),
        )),
    }),
}


def read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, or None unless argv is plain.

    Plain means: the exact subcommand, family and option names; each value
    as ``--opt value`` or ``--opt=value``, with no space-separated value
    starting with ``-``; int values that int() takes, a listed ``--format``
    and every required option.  ``--opt=--`` gives the value ``--``, as
    argparse reads it from Python 3.13 on.  Help, abbreviations, ``--`` and
    every usage error are left to argparse, which this reading never imports.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    values = {"subcommand": argv[0]}
    entry, rest = COMMANDS[argv[0]], list(argv[1:])
    if len(entry) == 2:  # the family comes next
        if not rest or rest[0] not in entry[1]:
            return None
        values["family"] = rest[0]
        entry, rest = entry[1][rest[0]], rest[1:]
    _, handler, options = entry
    table = {option[0]: option for option in (_FORMAT_OPTION, *options)}
    for _, dest, _, _, nargs, _ in table.values():
        values[dest] = False if nargs == 0 else None
    i = 0
    while i < len(rest):
        name, eq, value = rest[i].partition("=")
        option = table.get(name)
        if option is None:
            return None
        _, dest, kind, _, nargs, _ = option
        i += 1
        if nargs == 0:
            if eq:
                return None
            given = [True]
        elif eq:
            given = [value]
        else:
            end = i
            while end < len(rest) and not rest[end].startswith("-"):
                end += 1
            if end == i:
                return None
            if nargs is None:
                end = i + 1
            given, i = rest[i:end], end
        if kind is int:
            try:
                given = [int(v) for v in given]
            except ValueError:
                return None
        elif isinstance(kind, tuple) and given[0] not in kind:
            return None
        values[dest] = given if nargs == "+" else given[0]
    if any(required and values[dest] is None for _, dest, _, required, _, _ in table.values()):
        return None
    return SimpleNamespace(**values, handler=handler)


def build_parser():
    """The argparse parser of :data:`COMMANDS`, for help and usage errors."""
    import argparse

    class Store(argparse.Action):
        """Store the value, reading ``--opt=--`` as Python 3.13 does.

        Before 3.13 argparse drops the explicit value ``--`` and hands the
        action ``[]``.  3.13 refuses ``--`` as an int or a choice, with the
        messages below, and stores it otherwise.
        """

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                if self.type is int:
                    raise argparse.ArgumentError(self, "invalid int value: '--'")
                if self.choices:
                    choices = ", ".join(map(repr, self.choices))
                    message = f"invalid choice: '--' (choose from {choices})"
                    raise argparse.ArgumentError(self, message)
                values = ["--"] if self.nargs == "+" else "--"
            setattr(namespace, self.dest, values)

    class Parser(argparse.ArgumentParser):
        # argparse drops a failed write from Python 3.11 on, so help into a closed pipe
        # would exit 0 unsaid: a write to stdout lets its error go on to run, and one to
        # stderr keeps a usage error's exit 2.  A stream closed at start is None and takes
        # no write, which Python 3.10 would end in exit 1.  Subparsers take this class too.
        def _print_message(self, message, file=None):
            file = sys.stderr if file is None else file
            if message and file is not None and file is sys.stdout:
                file.write(message)
            elif file is not None:
                super()._print_message(message, file)

    parser = Parser(
        prog="kappa-forge",
        description="Exact kappa-class localization and the action obstruction test.",
    )
    _add_commands(parser, "subcommand", COMMANDS, Store)
    return parser


def _add_commands(parser, dest, commands, store) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, entry in commands.items():
        p = sub.add_parser(name, help=entry[0])
        if len(entry) == 2:
            _add_commands(p, "family", entry[1], store)
            continue
        _, handler, options = entry
        for flag, dest, kind, required, nargs, help_text in (_FORMAT_OPTION, *options):
            if nargs == 0:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"action": store, "required": required, "nargs": nargs}
            if kind is int:
                kwargs["type"] = int
            elif isinstance(kind, tuple):
                kwargs["choices"] = kind
            p.add_argument(flag, dest=dest, help=help_text, **kwargs)
        p.set_defaults(handler=handler)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # results and messages print in full; each parser holds int_digit_limit() (4300 here) itself
    with int_digit_scope(0):
        with int_digit_scope(int_digit_limit()):  # and so do the integer options
            args = read_argv(argv) or build_parser().parse_args(argv)
        try:
            # resolved before any work, so a bad value computes and writes nothing
            args.format = args.format or os.environ.get(FORMAT_ENV) or "text"
            if args.format not in FORMATS:
                raise ParseError(f"bad output format '{args.format}' (expected 'text' or 'json')")
            payload, lines, ok = args.handler(args)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.format == "json":
            import json

            lines = [json.dumps(payload, indent=2, sort_keys=True)]
        for line in lines:
            print(line)
        return 0 if ok else 1


def run() -> None:
    """The process entry: :func:`main` on ``sys.argv``, a flush of stdout, then exit.

    The process's cyclic garbage collector policy lives here alone.  The
    collector is disabled before :func:`main` runs: what a call builds (a
    decoded file, its columns, the results) holds no reference cycles, so
    reference counting frees it, and a collection pass would free nothing
    yet walk every row.  On every way out (a return, argparse's
    ``SystemExit``, a traceback) ``gc.freeze()`` moves every tracked object
    into the collector's permanent generation just before the interpreter
    finalizes, so the collections that finalization runs, even with the
    collector disabled, skip them; the operating system takes the memory
    back at exit.  What this gives up: garbage in reference cycles made
    during the call is held until exit and never collected, so its
    ``__del__`` methods do not run.  Every file a handler writes is closed
    by its ``with`` block, and stdout is flushed before the freeze.
    :func:`main` and the library never touch the collector, so tests and
    library callers keep their own setting.

    The handlers turn the ``OSError`` of every file they open into a
    ``ParseError``, so one that reaches here comes from writing the output
    (a closed pipe, a full disk): it ends in one ``error: cannot write
    output`` line on stderr and exit 1, with stdout pointed at the null
    device so that the interpreter's last flush stays silent.
    """
    gc.disable()
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse, after help or a usage error
            code = exc.code
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()
    except OSError as exc:
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        except OSError:
            pass
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        code = 1
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
