"""The option-table reading of argv (``cli.read_argv``) against argparse.

``main`` takes the namespace of ``read_argv`` when it gives one and asks
the parser ``_argparser.build_parser`` makes of the same table otherwise.
Wherever ``read_argv`` answers, argparse must accept the same argv and give
the same namespace; the golden calls and the benchmark's jobs must all be
answered without argparse.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from kappa_forge._argparser import build_parser
from kappa_forge.cli import _FORMAT_OPTION, COMMANDS, read_argv

ROOT = Path(__file__).resolve().parent.parent
PARSER = build_parser(COMMANDS, _FORMAT_OPTION)


def argparse_namespace(argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return PARSER.parse_args(argv)
    except SystemExit:
        raise AssertionError(f"argparse refuses {argv}: {err.getvalue()}") from None


def assert_same_as_argparse(argv):
    ns = read_argv(argv)
    assert ns is not None, argv
    assert vars(ns) == vars(argparse_namespace(argv)), argv


def _leaves():
    for name, entry in COMMANDS.items():
        if len(entry) == 2:
            for family, leaf in entry[1].items():
                yield [name, family], leaf
        else:
            yield [name], entry


LEAVES = list(_leaves())
ALL_OPTIONS = sorted({option[0] for _, (_, _, options) in LEAVES for option in options})
# Hypothesis draws the ends of a list and of a range most often, so the plain
# choices sit there and the odd ones in the middle
VALUES = [
    "x", "", "-", "-1", "-6,12", "--", "-x", "3", "0", "+5", " 7 ", "1_0", "1,2", "9,18",
    "a b", "a=b", "json", "text", "xml", "rationally-odd", "--b", "-h", "p1",
]


def _variants(word):
    """Mostly the word, else a prefix of it or a near miss."""
    return st.sampled_from([word] * 5 + [word[: max(1, len(word) - 2)], word + "x"] + [word] * 5)


def _rarely(strategy, empty):
    """``strategy`` about one time in eight, else ``empty``."""
    return st.integers(0, 7).flatmap(lambda roll: strategy if roll == 4 else st.just(empty))


def _value(kind):
    if kind is int:
        return st.one_of(st.integers(-10**6, 10**6).map(str), _rarely(st.sampled_from(VALUES), "7"))
    if isinstance(kind, tuple):
        return st.sampled_from([*kind] * 2 + ["xml", "", "JSON"] + [*kind] * 2)
    return st.one_of(_rarely(st.sampled_from(VALUES), "p1"), st.text(max_size=4))


@st.composite
def _option(draw, option):
    name, _, kind, _, nargs, _ = option
    name = draw(_variants(name))
    if nargs == 0:
        return draw(st.sampled_from([[name]] * 2 + [[name + "=1"], [name + "="]] + [[name]] * 2))
    count = draw(st.sampled_from([1] * 4 + [0, 2, 3 if nargs else 1] + [1] * 4))
    values = draw(st.lists(_value(kind), min_size=count, max_size=count))
    if values and draw(st.booleans()):
        return [f"{name}={values[0]}", *values[1:]]
    return [name, *values]


@st.composite
def argvs(draw):
    head, (_, _, options) = draw(st.sampled_from(LEAVES))
    head = [draw(_variants(word)) for word in head]
    if draw(st.integers(0, 19)) == 10:
        head = head[:-1]
    table = [("--format", "format", ("text", "json"), False, None, None), *options]
    chosen = [o for o in draw(st.permutations(table)) if draw(st.integers(0, 11)) != 6]
    stray = st.one_of(
        st.sampled_from(ALL_OPTIONS).map(lambda name: (name, "", str, False, None, None)),
        st.sampled_from(table),  # a repeated option
    )
    chosen += draw(_rarely(st.lists(stray, min_size=1, max_size=2), []))
    pieces = [draw(_option(option)) for option in chosen]
    extra = draw(_rarely(st.sampled_from(["--", "-h", "--help", "stray", "-1"]), None))
    if extra is not None:
        pieces.insert(draw(st.integers(0, len(pieces))), [extra])
    before = draw(_rarely(st.sampled_from([["--format", "json"], ["-h"]]), []))
    return before + head + [token for piece in pieces for token in piece]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_table_reading_agrees_with_argparse(argv):
    ns = read_argv(argv)
    event("read from the table" if ns is not None else "left to argparse")
    if ns is not None:
        assert vars(ns) == vars(argparse_namespace(argv)), argv


def test_table_reading_answers_the_golden_calls():
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text(encoding="utf-8"))
    answered = [e["argv"] for e in golden if e["exit"] == 0 and "-h" not in e["argv"]]
    assert len(answered) > 100
    for argv in answered:
        assert_same_as_argparse(argv)


def test_table_reading_answers_every_benchmark_job(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            work = tmp_path / name
            work.mkdir()
            for job in workloads.build(name, 1, str(work), str(work)).jobs:
                assert_same_as_argparse([*job.argv, "--format", "json"])
    finally:
        del sys.modules[spec.name]
    # the trivial call the benchmark times as its setup probe
    assert_same_as_argparse(["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "1",
                             "--m-odd", "5"])


def test_format_choices_and_flags_follow_argparse():
    assert read_argv(["theorem-a", "--b", "1", "--format", "xml"]) is None
    assert read_argv(["adams", "--k", "3", "--b", "1", "--certify=1"]) is None
    assert read_argv(["theorem-a", "--b", "-6,12"]) is None
    assert read_argv(["theorem-a", "--b=-6,12"]).b == "-6,12"
    assert read_argv(["localize", "--input=a", "b"]) is None
    assert read_argv(["su2-restrict", "--rep=--"]).rep == "--"  # as argparse from 3.13 on
    assert read_argv(["catalog", "s2xs2", "--k=--"]) is None
    assert read_argv(["localize", "--input", "a", "b"]).input == ["a", "b"]
    assert read_argv(["theorem-a", "--b", "1", "--fl", "x"]) is None
    assert read_argv([]) is None
