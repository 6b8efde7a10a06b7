"""Golden-output test: every subcommand's stdout, stderr and exit status, byte for byte.

``golden_cli.json`` holds the recorded result of each call in ``CALLS``, in
both output formats, then of each call in ``PARSER_CALLS`` (help and usage
errors, which the format does not change) as given.  A call that ends in
``SystemExit`` records its code as the exit status.  Paths under the
temporary input directory are written as ``<tmp>``; help is formatted for
80 columns.  Regenerate the fixture (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json

The script needs no pytest, so the fixture can be checked under any
interpreter with

    PYTHONPATH=src python tests/test_golden.py | cmp - tests/golden_cli.json

It is byte-identical under CPython 3.10.13, 3.11.7 and 3.12.1.  Help and
usage-error entries differ under 3.13, 12 of them under 3.13.0 and 14
under 3.13.13, because argparse there wraps and words them differently;
that is why the CI matrix stays at 3.10-3.12.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from kappa_forge.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")
TMP = "<tmp>"

ALL_FLAGS = "rationally-odd,neg-euler,nontrivial-action"

# input files written before the calls run; the s2xs2 files come from the
# catalog calls themselves
INPUTS = {
    "rich.json": {
        "fiber_half_dim": 3,
        "fiber_euler_char": -2,
        "components": [
            {"name": "a", "euler_char": 2, "weights": [1, 2, 3]},
            {"name": "b", "euler_char": -4, "weights": [1, -1, 2]},
        ],
        "expected": [
            {"class": "p1", "coefficient": 4, "generator": "gamma", "power": 2},
            {"class": "p2", "coefficient": "62", "generator": "c2", "power": 2},
            {"class": "e", "coefficient": 20, "generator": "gamma", "power": 3},
            {"class": "p1*p2", "coefficient": 1156, "generator": "c2", "power": 3},
            {"class": "e*p1", "coefficient": "216", "generator": "gamma", "power": 5},
        ],
        "provenance": "hand-written test data",
    },
    "tampered.json": {
        "fiber_half_dim": 2,
        "fiber_euler_char": 4,
        "components": [
            {"name": "p", "euler_char": 1, "weights": [2, 1]},
            {"name": "q", "euler_char": 1, "weights": [2, -1]},
            {"name": "r", "euler_char": 1, "weights": [-2, 1]},
            {"name": "s", "euler_char": 1, "weights": [-2, -1]},
        ],
        "expected": [
            {"class": "p1", "coefficient": "21", "generator": "gamma", "power": 2},
            {"class": "p1", "coefficient": "20", "generator": "c2", "power": 1},
            {"class": "e", "coefficient": "7/3", "generator": "gamma", "power": 2},
        ],
    },
    "zero.json": {
        "fiber_half_dim": 2,
        "fiber_euler_char": 2,
        "components": [{"name": "m", "euler_char": 2, "weights": [0, 3]}],
    },
    "nochi.json": {
        "fiber_half_dim": 2,
        "components": [{"name": "m", "euler_char": 1, "weights": [1, 1]}],
    },
    "chi0.json": {
        "fiber_half_dim": 2,
        "fiber_euler_char": 0,
        "components": [
            {"name": "m", "euler_char": 1, "weights": [1, 1]},
            {"name": "n", "euler_char": -1, "weights": [1, 2]},
        ],
    },
    "unknown_key.json": {"fiber_half_dim": 2, "components": [], "spin": 1},
    "short_weights.json": {
        "fiber_half_dim": 2,
        "components": [{"name": "m", "euler_char": 1, "weights": [1]}],
    },
    "chi_mismatch.json": {
        "fiber_half_dim": 1,
        "fiber_euler_char": 3,
        "components": [{"name": "m", "euler_char": 2, "weights": [1]}],
    },
    "bad_power.json": {
        "fiber_half_dim": 2,
        "components": [{"name": "m", "euler_char": 1, "weights": [1, 1]}],
        "expected": [{"class": "p1", "coefficient": 2, "generator": "gamma", "power": 1}],
    },
    "bad_c2_degree.json": {
        "fiber_half_dim": 3,
        "components": [{"name": "m", "euler_char": 1, "weights": [1, 1, 1]}],
        "expected": [{"class": "e", "coefficient": 1, "generator": "c2", "power": 1}],
    },
    "bad_generator.json": {
        "fiber_half_dim": 2,
        "components": [{"name": "m", "euler_char": 1, "weights": [1, 1]}],
        "expected": [{"class": "p1", "coefficient": 2, "generator": "c3", "power": 1}],
    },
}
RAW_INPUTS = {"not_json.json": "{\"fiber_half_dim\": 2,"}


def _f(name):
    return f"{TMP}/{name}"


S2 = [_f(f"k{k}.json") for k in (0, 2, 4)]

CALLS = [
    # catalog first: later calls read the files it writes
    ["catalog", "s2xs2", "--k", "0", "--out", S2[0]],
    ["catalog", "s2xs2", "--k", "2", "--out", S2[1]],
    ["catalog", "s2xs2", "--k", "4", "--out", S2[2]],
    ["catalog", "s2xs2", "--k", "6"],
    ["catalog", "s2xs2", "--k", "3"],
    ["catalog", "wg", "--n", "3", "--g", "2"],
    ["catalog", "wg", "--n", "5", "--g", "1"],
    ["catalog", "wg", "--n", "4", "--g", "2"],
    ["catalog", "wg", "--n", "3", "--g", "0"],
    ["sigma", "--class", "e*p1", "--weights", "1,2"],
    ["sigma", "--class", "p1^2", "--weights", "3,-1,2"],
    ["sigma", "--class", "p3", "--weights", "2,1"],
    ["sigma", "--class", "p1", "--weights", "2,x"],
    ["localize", "--input", S2[1]],
    ["localize", "--input", S2[1], "--class", "p1"],
    ["localize", "--input", S2[2], "--class", "p1^2"],
    ["localize", "--input", *S2],
    ["localize", "--input", *S2, "--class", "e"],
    ["localize", "--input", _f("rich.json")],
    ["localize", "--input", _f("rich.json"), "--class", "e*p1"],
    ["localize", "--input", _f("tampered.json")],
    ["localize", "--input", S2[0], _f("tampered.json"), _f("rich.json")],
    ["localize", "--input", _f("zero.json"), "--class", "p1"],
    ["localize", "--input", _f("zero.json"), _f("rich.json"), "--class", "p1"],
    ["localize", "--input", _f("nochi.json")],
    ["localize", "--input", _f("unknown_key.json"), "--class", "p1"],
    ["localize", "--input", _f("short_weights.json"), "--class", "p1"],
    ["localize", "--input", _f("chi_mismatch.json"), "--class", "p1"],
    ["localize", "--input", _f("bad_power.json")],
    ["localize", "--input", _f("bad_c2_degree.json")],
    ["localize", "--input", _f("bad_generator.json")],
    ["localize", "--input", _f("not_json.json"), "--class", "p1"],
    ["localize", "--input", _f("missing.json"), "--class", "p1"],
    ["localize", "--input", S2[1], "--class", "p2"],
    ["pullback-su2", "--input", S2[2], "--i", "1"],
    ["pullback-su2", "--input", *S2, "--i", "1"],
    ["pullback-su2", "--input", S2[2], "--i", "2"],
    ["pullback-su2", "--input", _f("rich.json"), S2[1], "--i", "2"],
    ["pullback-su2", "--input", _f("zero.json"), _f("rich.json"), "--i", "1"],
    ["pullback-su2", "--input", S2[2], "--i", "3"],
    ["pullback-su2", "--input", _f("nochi.json"), "--i", "1"],
    ["pullback-su2", "--input", _f("chi0.json"), "--i", "1"],
    ["theorem-a", "--b", "9,18"],
    ["theorem-a", "--b", "1/2,3", "--flags", ALL_FLAGS],
    ["theorem-a", "--b", "1/2,2/3,4", "--flags", ALL_FLAGS],
    ["theorem-a", "--b", "0,0", "--flags", ALL_FLAGS],
    ["theorem-a", "--b", "1,5", "--flags", ALL_FLAGS],
    ["theorem-a", "--b=-6,12,0", "--flags", ALL_FLAGS],
    ["theorem-a", "--b", "3,6", "--flags", "rationally-odd"],
    ["theorem-a", "--b", "1", "--flags", "odd-euler"],
    ["theorem-a", "--b", "1,x"],
    ["theorem-a", "--b", "1/0"],
    ["adams", "--k", "3", "--b", "1,2"],
    ["adams", "--k", "7", "--b", "1/2,-3,0"],
    ["adams", "--k", "2", "--b", "1,2"],
    ["adams", "--k", "5", "--b", "5,4", "--certify", "--flags", ALL_FLAGS],
    ["adams", "--k", "3", "--b", "1,2", "--certify"],
    ["adams", "--k", "15", "--b", "3,2,-1", "--certify", "--flags", ALL_FLAGS],
    ["adams", "--k", "3", "--b", "1,2", "--certify", "--flags", "rationally-odd"],
    ["adams", "--k", "3", "--b", "1,2", "--certify", "--flags", "neg-euler,nontrivial-action"],
    ["adams", "--k", "3", "--b", "1/2,1", "--certify", "--flags", ALL_FLAGS],
    ["adams", "--k", "3", "--b", "0,0", "--certify", "--flags", ALL_FLAGS],
    ["adams", "--k", "3", "--b", "9,18", "--certify", "--flags", ALL_FLAGS],
    ["adams", "--k", "1", "--b", "1,2", "--certify", "--flags", ALL_FLAGS],
    ["adams", "--k", "4", "--b", "1,2", "--certify", "--flags", ALL_FLAGS],
    ["su2-restrict", "--rep", "V3+V4+V1"],
    ["su2-restrict", "--rep", "2*V5+V8"],
    ["su2-restrict", "--rep", "V1"],
    ["su2-restrict", "--rep", "V6"],
    ["su2-restrict", "--rep", "W3"],
    ["su2-restrict", "--rep", "V1+V1"],
    ["su2-restrict", "--rep", "3*V1+V1+V4"],
    ["su2-restrict", "--rep", "V4+2*V4"],
    ["su2-restrict", "--rep", "V6+W3"],
    ["su2-restrict", "--rep", "V6+0*V1"],
    ["su2-restrict", "--rep", "V2097155"],
    ["su2-realize", "--weights", "1,1"],
    ["su2-realize", "--weights", "4"],
    ["su2-realize", "--weights", "2,0"],
    ["su2-realize", "--weights", "2,1,1,0"],
    ["su2-realize", "--weights", "3,-3,1,1,4,2,0,0"],
    ["su2-realize", "--weights", "3,1"],
    ["su2-realize", "--weights", "2,2"],
    ["su2-realize", "--weights", ""],
    ["su2-realize", "--weights", "1,y"],
    ["su2-realize", "--weights", "0,0,0,0"],
    ["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "1", "--m-odd", "5"],
    ["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "2", "--m-odd", "0"],
    ["betti", "--w-even", "2", "--w-odd", "-6", "--m-even", "1", "--m-odd", "5"],
]

BETTI = ["--w-even", "2", "--w-odd", "6", "--m-even", "1", "--m-odd", "5"]

# argv that argparse answers itself: help, and every usage error
PARSER_CALLS = [
    ["-h"],
    *([name, "-h"] for name in (
        "sigma", "localize", "pullback-su2", "theorem-a", "adams", "su2-restrict",
        "su2-realize", "betti", "catalog",
    )),
    ["catalog", "s2xs2", "-h"],
    ["catalog", "wg", "-h"],
    [],
    ["frobnicate"],
    ["catalog"],
    ["--format", "json", "betti", *BETTI],
    ["betti", "--w-even", "2"],
    ["sigma", "--class", "p1", "--weights", "1", "--verbose"],
    ["theorem-a", "--b", "9,18", "--fl", "x"],  # the abbreviation is taken, the value is not
    ["pullback-su2", "--input", _f("rich.json"), "--i", "x"],
    ["theorem-a", "--b", "9,18", "--format", "xml"],
    ["adams", "--k", "3", "--b", "1,2", "--certify=1"],
    ["theorem-a", "--b", "-6,12"],
    ["localize", "--input=" + _f("rich.json"), _f("rich.json")],
    # --opt=-- gives the value --, as argparse reads it from Python 3.13 on
    ["theorem-a", "--b=--"],
    ["theorem-a", "--b=--", "--fl=x"],  # argparse reads this one
    ["theorem-a", "--b=1", "--format=--"],
    ["su2-restrict", "--rep=--"],
    ["localize", "--input=--"],
    ["sigma", "--class=--", "--weights=1"],
    ["catalog", "s2xs2", "--k=--"],
    ["adams", "--k=3", "--b=1", "--certify", "--flags=--"],
    ["catalog", "s2xs2", "--k", "2", "--out", _f("nodir/k2.json")],
]


def _write_inputs(root: Path) -> None:
    for name, payload in INPUTS.items():
        (root / name).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    for name, text in RAW_INPUTS.items():
        (root / name).write_text(text, encoding="utf-8")


def _call(root: str, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace(TMP, root) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().replace(root, TMP), err.getvalue().replace(root, TMP)


def record(root: Path) -> list[dict]:
    """Run every call in both formats; the list the fixture stores."""
    _write_inputs(root)
    results = []
    for argv in CALLS:
        for fmt in ("text", "json"):
            full = [*argv, "--format", fmt]
            code, out, err = _call(str(root), full)
            entry = {"argv": full, "exit": code, "stdout": out, "stderr": err}
            if "--out" in argv:
                written = Path(argv[argv.index("--out") + 1].replace(TMP, str(root)))
                entry["file"] = written.read_text(encoding="utf-8")
            results.append(entry)
    for argv in PARSER_CALLS:
        code, out, err = _call(str(root), argv)
        results.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    return results


def test_cli_output_matches_golden_fixture(tmp_path, monkeypatch):
    monkeypatch.delenv("KAPPA_FORGE_FORMAT", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = record(tmp_path)
    assert [e["argv"] for e in actual] == [e["argv"] for e in golden]
    for got, want in zip(actual, golden):
        call = " ".join(want["argv"])
        assert got["exit"] == want["exit"], call
        assert got["stdout"] == want["stdout"], call
        assert got.get("file") == want.get("file"), call
        assert got["stderr"] == want["stderr"], call


if __name__ == "__main__":
    os.environ.pop("KAPPA_FORGE_FORMAT", None)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(record(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
