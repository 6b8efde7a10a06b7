"""The library and ``cli.main`` leave the cyclic garbage collector to their caller.

Only the process entry ``cli.run`` sets the collector (see
``test_process_entry.py``).  A read of a fixed-point file, good, failing or
interrupted, leaves the caller's setting as it found it, and a setting
changed while a read runs, as another thread may change it, is still in
force when the read ends.
"""

import contextlib
import gc
import io
import json

import pytest

from kappa_forge import cli, localization
from kappa_forge.errors import ParseError
from kappa_forge.localization import read_fixed_point_file

COMPONENTS = 30_000  # enough for collections inside one CLI call with the collector on


class Interrupt(BaseException):
    """Stands in for an alarm-raised timeout: no ``except Exception`` in the package catches it."""


def payload(count: int) -> dict:
    comps = [
        {"name": f"m{j}", "euler_char": j % 7 - 3 or 1, "weights": [j % 50 + 1, -(j % 37) - 1]}
        for j in range(count)
    ]
    p1 = sum(c["euler_char"] * (a * a + b * b) for c in comps for a, b in [c["weights"]])
    return {
        "fiber_half_dim": 2,
        "fiber_euler_char": sum(c["euler_char"] for c in comps),
        "components": comps,
        "expected": [{"class": "p1", "coefficient": p1, "generator": "gamma", "power": 2}],
    }


@pytest.fixture(scope="module")
def big_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gc") / "big.json"
    path.write_text(json.dumps(payload(COMPONENTS)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def quarter_files(tmp_path_factory):
    paths = []
    for q in range(2):
        path = tmp_path_factory.mktemp("gc") / f"quarter{q}.json"
        path.write_text(json.dumps(payload(COMPONENTS // 2)), encoding="utf-8")
        paths.append(path)
    return paths


@contextlib.contextmanager
def watched_collections():
    """Record the generation of each collection that starts in the block."""
    seen = []

    def callback(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        yield seen
    finally:
        gc.callbacks.remove(callback)


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the block with the collector in the given state, then put back the test's own."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"fiber_half_dim": 2, "components": [', encoding="utf-8")
    return path, ParseError, "is not valid JSON"


def bad_schema(tmp_path):
    path = tmp_path / "schema.json"
    data = payload(100)
    data["components"][60]["weights"] = []
    path.write_text(json.dumps(data), encoding="utf-8")
    return path, ParseError, r"components\[60\]: 'weights' must be a non-empty array"


def missing(tmp_path):
    return tmp_path / "missing.json", ParseError, "cannot read"


FAILURES = [bad_json, bad_schema, missing]


@pytest.mark.parametrize("enabled", [True, False])
def test_a_good_read_restores_the_callers_setting(big_file, enabled):
    with collector(enabled):
        read_fixed_point_file(big_file)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("failure", FAILURES, ids=lambda f: f.__name__)
def test_a_failed_read_restores_the_callers_setting(tmp_path, failure, enabled):
    path, error, match = failure(tmp_path)
    with collector(enabled):
        with pytest.raises(error, match=match):
            read_fixed_point_file(path)
        assert gc.isenabled() is enabled


def interrupt_decoding(monkeypatch):
    def loads(text, **kwargs):
        raise Interrupt

    monkeypatch.setattr(localization.json, "loads", loads)


def interrupt_parsing(monkeypatch):
    # raised after every component is parsed, at the first annotation
    def parse_class_monomial(text, n):
        raise Interrupt

    monkeypatch.setattr(localization, "parse_class_monomial", parse_class_monomial)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("interrupt", [interrupt_decoding, interrupt_parsing],
                         ids=lambda f: f.__name__)
def test_an_interrupted_read_restores_the_callers_setting(big_file, monkeypatch, interrupt, enabled):
    interrupt(monkeypatch)
    with collector(enabled):
        with pytest.raises(Interrupt):
            read_fixed_point_file(big_file)
        assert gc.isenabled() is enabled


def disable_while_decoding(monkeypatch):
    """Make the reader's ``json.loads`` disable the collector, as another thread could meanwhile."""
    decode = json.loads

    def loads(text, **kwargs):
        gc.disable()
        return decode(text, **kwargs)

    monkeypatch.setattr(localization.json, "loads", loads)


def test_a_disable_made_during_a_read_stays_in_force(big_file, monkeypatch):
    disable_while_decoding(monkeypatch)
    with collector(True):
        read_fixed_point_file(big_file)
        assert not gc.isenabled()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_calls(big_file, quarter_files):
    return {
        "localize": ["localize", "--input", str(big_file), "--format", "json"],
        "pullback-2files": ["pullback-su2", "--input", *map(str, quarter_files), "--i", "2"],
    }


@pytest.mark.parametrize("name", ["localize", "pullback-2files"])
def test_a_disable_made_during_a_cli_call_stays_in_force(big_file, quarter_files, monkeypatch, name):
    disable_while_decoding(monkeypatch)
    with collector(True):
        code, out, _ = run_cli(cli_calls(big_file, quarter_files)[name])
        assert not gc.isenabled()
    assert code == 0 and out


@pytest.mark.parametrize("name", ["localize", "pullback-2files"])
def test_cli_leaves_a_disabled_collector_disabled(big_file, quarter_files, name):
    argv = cli_calls(big_file, quarter_files)[name]
    with collector(False), watched_collections() as seen:
        code, _, _ = run_cli(argv)
        assert not gc.isenabled()
    assert code == 0 and seen == []


def test_cli_restores_the_collector_after_a_failing_file(big_file, tmp_path):
    bad, _, _ = bad_schema(tmp_path)
    with collector(True):
        code, _, err = run_cli(["pullback-su2", "--input", str(big_file), str(bad), "--i", "1"])
        assert gc.isenabled()
    assert code == 2 and "components[60]" in err
