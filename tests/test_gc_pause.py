"""Reading fixed-point files with the cyclic garbage collector paused.

A decoded JSON tree and the columns parsed from it hold no reference
cycles, so ``read_fixed_point_file`` pauses the collector while it decodes
and parses, and the CLI pauses it for each file's whole step and drops the
file's data before it resumes.  These tests watch the collector through
``gc.callbacks``: how many collections start, in which generation, and how
many young objects each one would walk.  Whatever happens inside, the
caller's setting comes back: enabled stays enabled, disabled stays
disabled, also when the read fails or is interrupted.
"""

import contextlib
import gc
import io
import json
import sys
import threading

import pytest

from kappa_forge import cli, localization
from kappa_forge.errors import ParseError
from kappa_forge.localization import read_fixed_point_file

COMPONENTS = 30_000  # enough for a full collection inside one unpaused CLI call


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
def watched_collections(inside=None):
    """Record ``(generation, young objects)`` of each collection that starts in the block.

    With ``inside`` (a function), only collections that start while that
    function runs count.  The young-object count is taken before the
    collection walks them.
    """
    seen = []
    code = inside.__code__ if inside is not None else None

    def callback(phase, info):
        if phase != "start":
            return
        if code is not None:
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            if frame is None:
                return
        seen.append((info["generation"], len(gc.get_objects(generation=0))))

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


def test_reading_a_large_file_starts_no_collection(big_file):
    with collector(True), watched_collections(inside=read_fixed_point_file) as seen:
        loaded = read_fixed_point_file(big_file)
        assert gc.isenabled()
    assert len(loaded.data._rows) == COMPONENTS
    assert seen == []


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
    def load(handle):
        assert not gc.isenabled()
        raise Interrupt

    monkeypatch.setattr(localization.json, "load", load)


def interrupt_parsing(monkeypatch):
    # raised after every component is parsed, at the first annotation
    def parse_class_monomial(text, n):
        assert not gc.isenabled()
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


def test_nested_pauses_resume_only_at_the_outermost():
    with collector(True):
        with localization._gc_paused():
            with localization._gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_concurrent_reads_leave_the_collector_as_they_found_it(tmp_path, enabled):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(payload(2_000)), encoding="utf-8")
    failures = []

    def reader():
        try:
            for _ in range(10):
                read_fixed_point_file(path)
        except BaseException as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch inside every pause and resume
    try:
        with collector(enabled):
            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert gc.isenabled() is enabled
    finally:
        sys.setswitchinterval(interval)


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
def test_cli_runs_no_full_collection_and_never_walks_the_rows(big_file, quarter_files, name):
    argv = cli_calls(big_file, quarter_files)[name]
    with collector(True), watched_collections() as seen:
        code, out, _ = run_cli(argv)
        assert gc.isenabled()
    assert code == 0 and out
    # the file's rows are freed before the collector resumes: no collection
    # finds them among the young objects, and none reaches the oldest generation
    assert all(generation < 2 for generation, _ in seen), seen
    assert all(young < COMPONENTS // 4 for _, young in seen), seen


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
