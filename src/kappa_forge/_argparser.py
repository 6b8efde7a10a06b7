"""The argparse parser of the CLI's option table, for help and usage errors only.

``cli.main`` imports this module only when ``cli.read_argv`` cannot read
argv straight from the table, so a well-formed call never compiles it, nor
loads argparse with the gettext and locale it pulls in.  The table is
passed in: this module never imports ``kappa_forge.cli``, which under
``python -m`` is ``__main__`` and would be compiled a second time.
"""

from __future__ import annotations

import argparse
import sys


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


def build_parser(commands, format_option) -> Parser:
    """The parser of ``commands`` (``cli.COMMANDS``), each leaf taking ``format_option`` first."""
    parser = Parser(
        prog="kappa-forge",
        description="Exact kappa-class localization and the action obstruction test.",
    )
    _add_commands(parser, "subcommand", commands, format_option)
    return parser


def _add_commands(parser, dest, commands, format_option) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, entry in commands.items():
        p = sub.add_parser(name, help=entry[0])
        if len(entry) == 2:
            _add_commands(p, "family", entry[1], format_option)
            continue
        _, handler, options = entry
        for flag, dest, kind, required, nargs, help_text in (format_option, *options):
            if nargs == 0:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"action": Store, "required": required, "nargs": nargs}
            if kind is int:
                kwargs["type"] = int
            elif isinstance(kind, tuple):
                kwargs["choices"] = kind
            p.add_argument(flag, dest=dest, help=help_text, **kwargs)
        p.set_defaults(handler=handler)
