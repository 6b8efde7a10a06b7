"""Running jobs: as a CLI subprocess, or in-process under the layer tracer.

Both runners enforce the job's time limit with SIGALRM.  A subprocess that
hits it is killed with SIGKILL and reaped; an in-process call is
interrupted by an exception raised from the signal handler, which pure
Python loops notice between bytecodes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import signal
import sys
import time
from dataclasses import dataclass

TRACEBACK_MARK = "Traceback (most recent call last)"


class JobTimeout(BaseException):
    """Raised by the alarm handler; BaseException so no handler in the package swallows it."""


@contextlib.contextmanager
def alarm(seconds: float):
    def fire(signum, frame):
        raise JobTimeout()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion limit for the benchmark's own reference arithmetic."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@dataclass
class Result:
    """Outcome of one job: 'ok', 'wrong', 'timeout', 'traceback' or 'exit:<code>'."""

    outcome: str
    wall_s: float
    max_rss_mb: float = 0.0
    stdout_bytes: int = 0
    detail: str = ""


def classify(job, code: int, stdout: str, stderr: str) -> tuple[str, str]:
    """A printed answer that differs from the reference is 'wrong' whatever the exit code.

    ``localize`` without ``--class`` prints its checks and exits 1 when an
    annotation does not match, so a non-zero exit with a JSON answer is
    checked too.  A non-zero exit with a matching answer or with no answer
    at all (an error message) is 'exit:<code>'.
    """
    if code != 0 and TRACEBACK_MARK in stderr:
        return "traceback", stderr.strip().splitlines()[-1]
    with unlimited_int_digits():
        try:
            mismatch = job.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            if code != 0:
                return f"exit:{code}", stderr.strip()[-200:]
            mismatch = f"unreadable output ({type(exc).__name__}: {exc})"
    if mismatch:
        return "wrong", mismatch if code == 0 else f"exit {code}, {mismatch}"
    return ("ok", "") if code == 0 else (f"exit:{code}", stderr.strip()[-200:])


class SubprocessRunner:
    """Runs ``python -m kappa_forge.cli`` from the working tree, one child at a time."""

    def __init__(self, root: str, work: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("KAPPA_FORGE_FORMAT", None)
        self.out_path = os.path.join(work, "stdout.txt")
        self.err_path = os.path.join(work, "stderr.txt")

    def spawn(self, argv: list[str], limit_s: float):
        """Returns (exit code or None on timeout, wall seconds, max RSS in MB)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, self.out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err_path, flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        status = None
        try:
            with alarm(limit_s):
                _, status, usage = os.wait4(pid, 0)
        except JobTimeout:
            if status is None:  # the alarm may fire just after the child was reaped
                os.kill(pid, signal.SIGKILL)
                _, _, usage = os.wait4(pid, 0)
                return None, limit_s, usage.ru_maxrss / 1024
        wall = time.perf_counter() - start
        return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024

    def output(self) -> tuple[str, str]:
        """stdout and stderr of the last spawned child."""
        texts = []
        for path in (self.out_path, self.err_path):
            with open(path, encoding="utf-8", errors="replace") as handle:
                texts.append(handle.read())
        return texts[0], texts[1]

    def run(self, job) -> Result:
        code, wall, rss = self.spawn(["-m", "kappa_forge.cli", *job.argv, "--format", "json"],
                                     job.limit_s)
        # a job that hits its limit counts at the limit
        if code is None:
            return Result("timeout", job.limit_s, rss)
        stdout, stderr = self.output()
        outcome, detail = classify(job, code, stdout, stderr)
        return Result(outcome, wall, rss, len(stdout.encode()), detail)


class InProcessRunner:
    """Calls ``kappa_forge.cli.main`` in this interpreter, output captured.

    ``main`` is looked up on the module at each call, so an installed
    tracer's wrapper is used.
    """

    def __init__(self, cli):
        self.cli = cli

    def run(self, job) -> Result:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), alarm(job.limit_s):
                code = self.cli.main([*job.argv, "--format", "json"])
        except JobTimeout:
            return Result("timeout", job.limit_s)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # what the interpreter would print as a traceback
            return Result("traceback", time.perf_counter() - start,
                          detail=f"{type(exc).__name__}: {str(exc)[:160]}")
        wall = time.perf_counter() - start
        stdout = out.getvalue()
        outcome, detail = classify(job, code, stdout, err.getvalue())
        return Result(outcome, wall, 0.0, len(stdout.encode()), detail)


# ---------------------------------------------------------------------------
# layer tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Wraps public functions at runtime and aggregates spans per (parent, function).

    Hot leaves are called up to a million times per pass, so no per-call span
    is kept: each completed span adds its count, total and self time (its
    duration minus the time its traced children took) to the aggregate of its
    caller, and is then dropped.
    """

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child time in ns]
        self.stats: dict[tuple[str, str], list[int]] = {}  # -> [calls, total ns, self ns]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, stats, clock = self.stack, self.stats, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else "", name)
                agg = stats.get(key)
                if agg is None:
                    agg = stats[key] = [0, 0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration

        return traced

    def install(self, targets: dict[str, object], modules: list) -> None:
        """Replace every binding of each target function, in every module that holds one.

        ``targets`` maps a metric name such as ``symalg.sigma_eval`` to the
        function object; a function imported by name into another module (for
        example ``localization.sigma_eval``) is the same object and is replaced
        there too, so calls through either binding are traced.
        """
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        self.stack.clear()
        self.stats.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per function: (calls, self seconds), summed over callers."""
        out: dict[str, list] = {}
        for (_, name), (calls, _, self_ns) in self.stats.items():
            agg = out.setdefault(name, [0, 0])
            agg[0] += calls
            agg[1] += self_ns
        return {name: (calls, self_ns / 1e9) for name, (calls, self_ns) in out.items()}

    def by_parent(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": calls,
             "total_s": total / 1e9, "self_s": self_ns / 1e9}
            for (parent, name), (calls, total, self_ns) in sorted(self.stats.items())
        ]


def public_functions(module) -> dict[str, object]:
    """Module-level functions a module exports, keyed ``<module>.<function>``."""
    short = module.__name__.rpartition(".")[2]
    out = {}
    for attr in module.__all__:
        value = getattr(module, attr)
        if callable(value) and not isinstance(value, type) and value.__module__ == module.__name__:
            out[f"{short}.{attr}"] = value
    return out
