"""The process entry ``cli.run``: golden bytes, the collector policy, and output failures.

Every test here but the first starts a fresh interpreter, since ``run``
freezes the collector and ends the process.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kappa_forge.cli import main
from test_gc_pause import COMPONENTS, payload
from test_golden import ALL_FLAGS, FIXTURE, TMP, _write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
BETTI = ["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "1", "--m-odd", "5"]


def cli_env(**changes):
    env = dict(os.environ)
    env.pop("KAPPA_FORGE_FORMAT", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(changes)
    return env


def spawn(args, env=None, **kwargs):
    return subprocess.run([sys.executable, *args], env=env or cli_env(), timeout=60, **kwargs)


# ---------------------------------------------------------------------------
# the collector policy lives in run, never in main
# ---------------------------------------------------------------------------

def test_main_never_freezes_the_collector(capsys):
    before = gc.get_freeze_count()
    assert main(BETTI) == 0
    assert main(["theorem-a", "--b", "1,x"]) == 2  # ParseError
    assert main(["adams", "--k", "2", "--b", "1,2"]) == 1  # DomainError
    with pytest.raises(SystemExit):  # argparse usage error
        main(["betti", "--w-even", "2"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


# calls run() as the script does and reports, on stderr's last line, how it
# ended and how many objects the collector then held frozen
FREEZE_PROBE = """
import gc, sys
from kappa_forge import cli
if sys.argv[1] == "raise":
    cli.main = lambda: 1 // 0
try:
    cli.run()
except SystemExit as exc:
    ended = exc.code
except ZeroDivisionError:
    ended = "traceback"
print(ended, gc.get_freeze_count(), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, ended",
    [(BETTI, "0"), (["adams", "--k", "2", "--b", "1,2"], "1"),
     (["betti", "--w-even", "2"], "2"), (["raise"], "traceback")],
    ids=["success", "domain-error", "usage-error", "traceback"],
)
def test_run_freezes_the_collector_on_every_way_out(argv, ended):
    proc = spawn(["-c", FREEZE_PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, frozen = proc.stderr.splitlines()[-1].split()
    assert code == ended
    assert int(frozen) > 0


# runs run() as the script does with gc.callbacks watching, and at exit reports
# on stderr's last line the phase ("import", "run" or "after") of each collection
# that started; the one collect() at exit shows that the callback still listens
COLLECTION_PROBE = """
import atexit, gc, json, sys
phase = "import"
seen = []
gc.callbacks.append(lambda stage, info: stage == "start" and seen.append(phase))
def report():
    gc.collect()
    print(json.dumps(seen), file=sys.stderr)
atexit.register(report)
from kappa_forge import cli
phase = "run"
try:
    cli.run()
finally:
    phase = "after"
"""


@pytest.fixture(scope="module")
def big_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("entry") / "big.json"
    path.write_text(json.dumps(payload(COMPONENTS)), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", ["localize", "pullback-2files", "theorem-a"])
def test_run_starts_no_collection(big_file, name):
    argv = {
        "localize": ["localize", "--input", str(big_file)],
        "pullback-2files": ["pullback-su2", "--input", str(big_file), str(big_file), "--i", "2",
                            "--format", "json"],
        "theorem-a": ["theorem-a", "--b", "9,18"],
    }[name]
    proc = spawn(["-c", COLLECTION_PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stderr.splitlines()[-1])
    assert "run" not in seen, seen
    assert seen[-1] == "after"


# ---------------------------------------------------------------------------
# golden bytes through python -m kappa_forge.cli
# ---------------------------------------------------------------------------

# one call per subcommand, the two formats taken in turn, then an exit-1 and
# an exit-2 call, a usage error and the top-level help
GOLDEN_SAMPLE = [
    ["sigma", "--class", "e*p1", "--weights", "1,2", "--format", "text"],
    ["localize", "--input", f"{TMP}/rich.json", "--format", "json"],
    ["pullback-su2", "--input", f"{TMP}/zero.json", f"{TMP}/rich.json", "--i", "1",
     "--format", "text"],
    ["theorem-a", "--b", "9,18", "--format", "json"],
    ["adams", "--k", "5", "--b", "5,4", "--certify", "--flags", ALL_FLAGS, "--format", "text"],
    ["su2-restrict", "--rep", "V3+V4+V1", "--format", "json"],
    ["su2-realize", "--weights", "3,1", "--format", "text"],
    [*BETTI, "--format", "json"],
    ["catalog", "wg", "--n", "3", "--g", "2", "--format", "text"],
    ["adams", "--k", "2", "--b", "1,2", "--format", "json"],
    ["theorem-a", "--b", "1,x", "--format", "text"],
    ["betti", "--w-even", "2"],
    ["-h"],
]


def test_module_entry_matches_golden_fixture(tmp_path):
    golden = {tuple(e["argv"]): e for e in json.loads(FIXTURE.read_text(encoding="utf-8"))}
    _write_inputs(tmp_path)
    root = str(tmp_path)
    env = cli_env(COLUMNS="80")
    for argv in GOLDEN_SAMPLE:
        want = golden[tuple(argv)]
        proc = spawn(["-m", "kappa_forge.cli", *(a.replace(TMP, root) for a in argv)], env,
                     capture_output=True)
        call = " ".join(argv)
        assert proc.returncode == want["exit"], call
        assert proc.stdout.replace(root.encode(), TMP.encode()) == want["stdout"].encode(), call
        assert proc.stderr.replace(root.encode(), TMP.encode()) == want["stderr"].encode(), call
    assert {golden[tuple(argv)]["exit"] for argv in GOLDEN_SAMPLE} == {0, 1, 2}


def test_console_script_target_runs_like_the_module_entry():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^kappa-forge = "([\w.]+):(\w+)"$', text, re.M).groups()
    assert (module, function) == ("kappa_forge.cli", "run")
    # what the installed script does with that target
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    argv = [*BETTI, "--format", "json"]
    by_script = spawn(["-c", script, *argv], capture_output=True)
    by_module = spawn(["-m", "kappa_forge.cli", *argv], capture_output=True)
    assert by_script.returncode == by_module.returncode == 0
    assert by_script.stdout == by_module.stdout
    assert by_script.stderr == by_module.stderr == b""


# ---------------------------------------------------------------------------
# stdout closed or full
# ---------------------------------------------------------------------------

OUTPUT_CALLS = {
    "small": BETTI,
    # about 200 KB, past the io buffer and a pipe's capacity alike
    "large": ["su2-restrict", "--rep", "V40000", "--format", "json"],
}
# buffered, the small output fails in run's flush; unbuffered, in the print itself
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


def buffering_env(unbuffered):
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def into_closed_pipe(argv, env):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so every write fails
    try:
        return spawn(["-m", "kappa_forge.cli", *argv], env, stdout=write_end,
                     stderr=subprocess.PIPE)
    finally:
        os.close(write_end)


BROKEN_PIPE = b"error: cannot write output: [Errno 32] Broken pipe\n"


@BUFFERING
@pytest.mark.parametrize("size", OUTPUT_CALLS)
def test_closed_pipe_is_one_error_line(size, unbuffered):
    proc = into_closed_pipe(OUTPUT_CALLS[size], buffering_env(unbuffered))
    assert (proc.returncode, proc.stderr) == (1, BROKEN_PIPE)


@BUFFERING
def test_help_into_closed_pipe_is_one_error_line(unbuffered):
    # buffered, the help waits in stdout's buffer and run's flush meets the closed pipe;
    # unbuffered, argparse's write meets it, and the parser lets that error reach run
    proc = into_closed_pipe(["-h"], buffering_env(unbuffered))
    assert (proc.returncode, proc.stderr) == (1, BROKEN_PIPE)


def test_stdout_closed_from_the_start_stays_silent():
    # the interpreter then sets sys.stdout to None, and print writes nothing
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
                           "kappa_forge.cli", *BETTI],
                          env=cli_env(), stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_help_with_stdout_closed_from_the_start_goes_to_stderr():
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
                           "kappa_forge.cli", "-h"],
                          env=cli_env(), stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr.startswith(b"usage: kappa-forge [-h]")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@BUFFERING
@pytest.mark.parametrize("size", OUTPUT_CALLS)
def test_full_device_is_one_error_line(size, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = spawn(["-m", "kappa_forge.cli", *OUTPUT_CALLS[size]], buffering_env(unbuffered),
                     stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write output: [Errno 28] No space left on device\n"


# ---------------------------------------------------------------------------
# stderr closed, and the digit limit of the process
# ---------------------------------------------------------------------------

def test_usage_error_with_stderr_closed_from_the_start_exits_2():
    # Python 3.10's argparse would write the message to sys.stderr, which is None here
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" 2>&-', sys.executable, "-m",
                           "kappa_forge.cli", "theorem-a"],
                          env=cli_env(), stdout=subprocess.PIPE, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout.startswith(b"usage: kappa-forge theorem-a [-h]")


def test_message_past_the_digit_limit_prints_through_run():
    factors = "*".join(["p1^" + "9" * 4299] * 20)  # each factor parses
    exponent = "1" + "9" * 4298 + "80"  # their sum 20 * (10^4299 - 1), of 4,301 digits
    proc = spawn(["-m", "kappa_forge.cli", "sigma", "--class", factors, "--weights", "2"],
                 capture_output=True, text=True)
    message = f"error: the value of p1^{exponent} would exceed the limit of 1048576 bits\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


@pytest.mark.parametrize(
    "setting, digits, code", [("0", 4301, 2), ("1000", 4300, 0), ("5000", 4301, 2)],
    ids=["lifted", "lowered", "raised"],
)
def test_input_bound_is_4300_digits_whatever_the_process_limit(setting, digits, code):
    proc = spawn(["-m", "kappa_forge.cli", "sigma", "--class", "p1", "--weights", "9" * digits],
                 cli_env(PYTHONINTMAXSTRDIGITS=setting), capture_output=True, text=True)
    assert proc.returncode == code
    if code:
        assert proc.stderr == f"error: bad weight '{'9' * 20}...' is over the 4300-digit limit\n"
    else:
        assert len(proc.stdout) == 2 * digits + 1  # (10^d - 1)^2 and a newline
