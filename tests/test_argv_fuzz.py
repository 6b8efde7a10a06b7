"""No argv ends ``cli.main`` in a traceback.

Argv is drawn from the option table ``cli.COMMANDS``: a well-formed call,
values written as ``--opt value`` or ``--opt=value`` and paths to small
data files, good and bad, in a fresh working directory; then up to three
disturbances: ``--``, ``-`` and empty values, near-miss names, dropped,
repeated and extra tokens.  ``main`` must return 0, 1 or 2, or exit 0 or 2
through argparse; any other exception is a fault.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kappa_forge.cli import FORMAT_ENV, _FORMAT_OPTION, main

from test_read_argv import LEAVES

# data files written to a new working directory for every call, so that an
# --out overwriting one changes nothing; "." names that directory itself
FILES = {
    "good.json": json.dumps({
        "fiber_half_dim": 2,
        "fiber_euler_char": 4,
        "components": [
            {"name": "a", "euler_char": 2, "weights": [1, 2]},
            {"name": "b", "euler_char": 2, "weights": [-1, 3]},
        ],
        "expected": [{"class": "p1", "coefficient": 30, "generator": "c2", "power": 1}],
    }),
    "zero.json": json.dumps({
        "fiber_half_dim": 1,
        "fiber_euler_char": 0,
        "components": [{"name": "m", "euler_char": 1, "weights": [0]}],
    }),
    "bad.json": '{"fiber_half_dim": 2, "components": [',
    "list.json": "[]",
}
SPECIAL = ["--", "-", "", "-h", "x", "missing.json", "."]
# plausible values per option dest; a new option needs an entry here
VALUES = {
    "format": ["text", "json"],
    "cls": ["p1", "e*p1", "p1^2", "e", "1"],
    "weights": ["1,2", "3,-1", "1", "2,0", "1,1"],
    "input": list(FILES),
    "i": ["1", "2", "3"],
    "b": ["9,18", "1/2,3", "-6,12", "0,0", "1,5"],
    "flags": ["rationally-odd", "neg-euler,nontrivial-action",
              "rationally-odd,neg-euler,nontrivial-action"],
    "k": ["3", "5", "1", "2", "0", "1_0"],
    "rep": ["V3+V1", "2*V1", "V6", "V4+V1"],
    "w_even": ["2", "6", "0"],
    "w_odd": ["6", "5", "-1"],
    "m_even": ["1", "2"],
    "m_odd": ["5", "0"],
    "out": ["out.json", "good.json", "sub/out.json"],
    "n": ["3", "5", "4"],
    "g": ["2", "1", "0"],
}


@st.composite
def _well_formed(draw):
    """A subcommand with every required option and some optional ones, each value plausible."""
    head, (_, _, options) = draw(st.sampled_from(LEAVES))
    pieces = []
    for name, dest, _, required, nargs, _ in draw(st.permutations([_FORMAT_OPTION, *options])):
        if not (required or draw(st.booleans())):
            continue
        if nargs == 0:
            pieces.append([name])
        else:
            value = draw(st.sampled_from(VALUES[dest]))
            pieces.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    return head, pieces


@st.composite
def argvs(draw):
    """A well-formed argv with up to three disturbances: odd values, names or counts."""
    head, pieces = draw(_well_formed())
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["value"] * 4 + ["drop", "twice", "name", "extra", "head"]))
        special = draw(st.sampled_from(SPECIAL))
        if how == "head" or not pieces:
            head = head[:-1] if how == "head" else head
            pieces.append([special])
            continue
        j = draw(st.integers(0, len(pieces) - 1))
        piece = pieces[j]
        name = piece[0].partition("=")[0]
        variant = draw(st.sampled_from([name[:-1], name + "x"]))
        pieces[j] = {
            "value": [f"{name}={special}"] if len(piece) == 1 else [name, special],
            "drop": [],
            "twice": piece + piece,
            "name": [piece[0].replace(name, variant, 1), *piece[1:]],
            "extra": piece + [special],
        }[how]
        pieces = [piece for piece in pieces if piece]
    return head + [token for piece in pieces for token in piece]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            return exc.code


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(["theorem-a", "--b=--"])
@example(["localize", "--input=--", "--format", "json"])
@example(["catalog", "s2xs2", "--k=--"])
def test_no_argv_ends_in_a_traceback(argv):
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.delenv(FORMAT_ENV, raising=False)
        mp.chdir(root)
        for name, text in FILES.items():
            (Path(root) / name).write_text(text, encoding="utf-8")
        assert _run(argv) in (0, 1, 2), argv
