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

The option table (COMMANDS) declares every subcommand and option and names
each handler by its module and function: the file and catalog handlers
live in ``_file_handlers``, the verdict and SU(2) handlers in
``_verdict_handlers``.  ``main`` imports only the module of the command it
runs, and each handler imports the library modules it calls, so a run
compiles and loads only those: theorem-a, adams and betti never import
localization, symalg or the file handlers.  A well-formed argv is read
straight from the table; the argparse parser of the table
(``_argparser``), with the argparse, gettext and locale it loads, is
imported only to print help or a usage error.  No module of the package
imports this one, which under ``python -m`` runs as ``__main__``.

A process enters through :func:`run` (the ``kappa-forge`` script and
``python -m kappa_forge.cli``), which alone sets the garbage collector;
:func:`main` is the call for tests and library callers.  Each handler
returns (payload, text lines, ok), and ``main`` alone writes it and maps
ok to exit 0, else 1; the lines are an iterable that ``main`` reads only
for ``--format text``.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .errors import DomainError, ParseError

FORMAT_ENV = "KAPPA_FORGE_FORMAT"
FORMATS = ("text", "json")

# One row per option: (option string, dest, type, required, nargs, help).  The
# type is int, str, a tuple of the str values allowed, or bool for a flag;
# nargs is None for one value, "+" for one or more and 0 for a flag.
_FORMAT_OPTION = (
    "--format", "format", FORMATS, False, None,
    f"output encoding (default from ${FORMAT_ENV}, else text)",
)
_INPUT_OPTION = ("--input", "input", str, True, "+", "fixed-point data file(s)")

# the private modules that hold the handlers, each imported by the calls it serves
_FILES, _VERDICTS = "_file_handlers", "_verdict_handlers"

# subcommand -> (help, (handler module, handler function), options), each taking
# --format first; a subcommand with families (catalog) maps to (help, {family: the same})
COMMANDS = {
    "sigma": ("evaluate a class monomial on weights", (_FILES, "cmd_sigma"), (
        ("--class", "cls", str, True, None, "e.g. p1, e*p1^2"),
        ("--weights", "weights", str, True, None, "comma-separated integers"),
    )),
    "localize": (
        "localize kappa classes over the circle from fixed-point files",
        (_FILES, "cmd_localize"), (
            _INPUT_OPTION,
            ("--class", "cls", str, False, None,
             "class monomial; omit to verify the file's expected annotations"),
        ),
    ),
    "pullback-su2": (
        "kappa[e*p_i] over SU(2) with the normalized b_i", (_FILES, "cmd_pullback_su2"), (
            _INPUT_OPTION,
            ("--i", "i", int, True, None, "Pontryagin index"),
        ),
    ),
    "theorem-a": ("obstruction verdict on a b-vector", (_VERDICTS, "cmd_theorem_a"), (
        ("--b", "b", str, True, None, "comma-separated rationals, e.g. 9,18"),
        ("--flags", "flags", str, False, None,
         "comma list from rationally-odd,neg-euler,nontrivial-action "
         "(default: all, with a warning)"),
    )),
    "adams": (
        "rescale a b-vector by k^(2i); --certify emits the non-kinetic certificate",
        (_VERDICTS, "cmd_adams"), (
            ("--k", "k", int, True, None, "odd integer"),
            ("--b", "b", str, True, None, "comma-separated rationals"),
            ("--certify", "certify", bool, False, 0, "run the certificate pipeline"),
            ("--flags", "flags", str, False, None,
             "hypothesis flags for --certify (default: all, with a warning)"),
        ),
    ),
    "su2-restrict": (
        "torus weights of a real SU(2)-representation", (_VERDICTS, "cmd_su2_restrict"), (
            ("--rep", "rep", str, True, None, "e.g. V3+V4+2*V1"),
        ),
    ),
    "su2-realize": (
        "find a real representation with the given torus weights",
        (_VERDICTS, "cmd_su2_realize"), (
            ("--weights", "weights", str, True, None, "comma-separated integers"),
        ),
    ),
    "betti": ("fixed-set Betti sum feasibility", (_VERDICTS, "cmd_betti"), (
        ("--w-even", "w_even", int, True, None, None),
        ("--w-odd", "w_odd", int, True, None, None),
        ("--m-even", "m_even", int, True, None, None),
        ("--m-odd", "m_odd", int, True, None, None),
    )),
    "catalog": ("generate the worked example families", {
        "s2xs2": ("sphere-bundle double family", (_FILES, "cmd_catalog_s2xs2"), (
            ("--k", "k", int, True, None, "even Euler number"),
            ("--out", "out", str, False, None, "write the data file here"),
        )),
        "wg": ("connected-sum hypothesis report", (_FILES, "cmd_catalog_wg"), (
            ("--n", "n", int, True, None, "odd integer >= 3"),
            ("--g", "g", int, True, None, "number of summands"),
        )),
    }),
}


def read_argv(argv):
    """The namespace the argparse parser of :data:`COMMANDS` gives, or None unless argv is plain.

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argv is read under 4300 digits, then results print in full (each parser holds int_digit_limit()
    # itself); the caller's limit comes back on every way out.  A no-op before Python 3.10.7.
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_limit = sys.set_int_max_str_digits if previous is not None else lambda digits: None
    set_limit(4300)
    try:
        args = read_argv(argv)
        if args is None:  # help, a usage error or a spelling the table does not read
            from ._argparser import build_parser

            args = build_parser(COMMANDS, _FORMAT_OPTION).parse_args(argv)
        set_limit(0)
        try:
            # resolved before any work, so a bad value computes and writes nothing
            args.format = args.format or os.environ.get(FORMAT_ENV) or "text"
            if args.format not in FORMATS:
                raise ParseError(f"bad output format '{args.format}' (expected 'text' or 'json')")
            module, function = args.handler
            # what ``from .<module> import <function>`` runs, so -X importtime lists the module
            handler = getattr(__import__(module, globals(), None, (function,), 1), function)
            payload, lines, ok = handler(args)
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
    finally:
        set_limit(previous)


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
