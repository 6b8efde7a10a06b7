"""Benchmark of the kappa-forge CLI: end to end, and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package runs from the working tree (``src/`` on PYTHONPATH); nothing is
installed.  The inputs of a workload are generated from the seed into
``perfbench/_work/`` together with reference answers computed without
kappa_forge, then deleted at exit.

``--trace 0`` drives the real CLI as a subprocess in a closed loop with one
client: one job at a time, the next one after the previous has exited.  It
runs whole passes over the workload's fixed job list, at least two and
more while the next pass still fits into ``--seconds``, and reports

* ``wall_s``: time to run the job list once, as the sum over jobs of each
  job's median wall time at the reference speed (below); a job that hits
  its time limit is killed and counts at the limit;
* ``peak_rss_mb``: the largest max-RSS of any child, from ``os.wait4``;
* ``ok_frac``: the share of job runs that exit 0 with an answer equal to
  the reference (``failed_frac`` is 1 - ``ok_frac``: timeouts, tracebacks, unexpected
  exit codes and wrong answers);
* ``setup_s``: median cold start of a trivial CLI call (interpreter start,
  ``import kappa_forge``, parser build), which every invocation pays, at
  the reference speed.

The speed of a shared virtual machine drifts by a third and more within
seconds to minutes, and every job slows with it.  So the run also times the
fixed work of ``reference.py`` in a child between the jobs, at least every
``REFERENCE_EVERY_S``, and divides each measured time by the local speed:
the median of the ``REFERENCE_NEIGHBOURS`` reference times on each side of
it, over ``REFERENCE_NOMINAL_S``.  The unscaled times and the median
reference time go to the provenance line.

``--trace 1`` runs the job list once more as subprocesses, then in this
interpreter through ``kappa_forge.cli.main``: one pass untraced and at least
one with the public functions of ``localization``, ``symalg``,
``obstruction`` and ``su2rep`` and ``cli.main`` wrapped at runtime.  It
reports per-function call counts and self times, the import time of the
CLI, the stdout byte count and the tracing overhead.  The per-job outcomes
of the subprocess and in-process runs must agree.

A job that prints an answer differing from the reference is a wrong answer,
whatever its exit code: the job is named on stderr and the command exits 1.
A timeout, traceback or unexpected exit code is counted as failed instead.
Provenance (seed, cores, Python, commit, each job's argv, input hashes and
sample counts) goes to stderr as one JSON line.  The last line of stdout is
the result object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import harness
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = "_work"
DEFAULT_INT_DIGITS = sys.get_int_max_str_digits()

SETUP_SAMPLES = 5  # at start; more are taken between jobs during the passes
SETUP_PER_PASS = 3
MIN_PASSES = 2
IMPORT_SAMPLES = 5
TRIVIAL_CALL = ["-m", "kappa_forge.cli", "betti", "--w-even", "2", "--w-odd", "6",
                "--m-even", "1", "--m-odd", "5"]
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kappa_forge.cli; "
                "print(time.perf_counter() - t)")
PROBE_LIMIT_S = 30.0
REFERENCE_CALL = [os.path.join(HERE, "reference.py")]
REFERENCE_NOMINAL_S = 0.13  # the reference child's typical time on a 2-vCPU cloud VM, Python 3.11
REFERENCE_EVERY_S = 0.5
REFERENCE_NEIGHBOURS = 2

# functions reported as per-layer metrics; every other public function of the
# traced modules is wrapped too, so its time is not charged to its caller
LAYER_FUNCTIONS = (
    "cli.main",
    "localization.read_fixed_point_file",
    "localization.parse_fixed_point_payload",
    "localization.validate_fixed_data",
    "localization.localize_circle",
    "localization.compare_expected",
    "localization.pullback_su2",
    "symalg.sigma_eval",
    "symalg.elementary_symmetric",
    "obstruction.theorem_a_check",
    "obstruction.nonkinetic_certificate",
    "obstruction.adams_transform",
    "su2rep.realize_weights",
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result; the message says why."""


def git_commit() -> str:
    try:
        # the ceiling keeps git from taking the commit of a repository above ROOT
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=PROBE_LIMIT_S,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def closed_loop(run_job, jobs, seconds: float, between) -> list[list[harness.Result]]:
    """Whole passes over the job list; returns the results of each job, in job order.

    After MIN_PASSES passes, a further pass starts only while the last one's
    duration still fits into ``seconds``.  Every job thus runs equally often,
    so the share of failed runs does not depend on where the time ran out.
    ``between`` is called after every ``len(jobs) / SETUP_PER_PASS``-th job.
    """
    stride = -(-len(jobs) // SETUP_PER_PASS)
    runs: list[list[harness.Result]] = [[] for _ in jobs]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for j, job in enumerate(jobs):
            runs[j].append(run_job(job))
            if j % stride == 0:
                between()
        took = time.perf_counter() - pass_start
        if len(runs[0]) >= MIN_PASSES and time.perf_counter() - start + took > seconds:
            return runs


def list_wall(runs, seconds=lambda result: result.wall_s) -> float:
    """Sum over jobs of the job's median time."""
    return sum(statistics.median(seconds(r) for r in results) for results in runs)


def local_speed(reference: list[tuple[float, float]]):
    """speed(t): the host's slowness at time t, from (end time, seconds) reference samples."""
    ends = [end for end, _ in reference]
    times = [seconds for _, seconds in reference]

    def speed(t: float) -> float:
        i = bisect.bisect_left(ends, t)
        near = times[max(0, i - REFERENCE_NEIGHBOURS):i + REFERENCE_NEIGHBOURS]
        return statistics.median(near) / REFERENCE_NOMINAL_S

    return speed


def ok_share(runs) -> float:
    """Share of the job runs that succeed."""
    results = [r for job_results in runs for r in job_results]
    return sum(r.outcome == "ok" for r in results) / len(results)


def wrong_answers(jobs, runs) -> list[str]:
    return [
        f"{job.name}: {result.detail}"
        for job, results in zip(jobs, runs)
        for result in results
        if result.outcome == "wrong"
    ]


def cold_starts(runner, argv, samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        code, wall, _ = runner.spawn(argv, PROBE_LIMIT_S)
        if code != 0:
            raise BenchmarkError(f"probe {' '.join(argv)[:60]!r} failed (exit {code}): "
                                 f"{runner.output()[1][-300:]}")
        times.append(wall)
    return times


def end_to_end(jobs, runner, seconds: float, provenance: dict):
    # (end time, seconds) of each cold start, reference run and job run
    setup, reference, timed = [], [], []

    def probe(samples, argv):
        wall = cold_starts(runner, argv, 1)[0]
        samples.append((time.perf_counter(), wall))

    def run_job(job):
        result = runner.run(job)
        timed.append((time.perf_counter(), result))
        if timed[-1][0] - reference[-1][0] >= REFERENCE_EVERY_S:
            probe(reference, REFERENCE_CALL)
        return result

    for _ in range(SETUP_SAMPLES):
        probe(setup, TRIVIAL_CALL)
        probe(reference, REFERENCE_CALL)
    runs = closed_loop(run_job, jobs, seconds, lambda: probe(setup, TRIVIAL_CALL))
    probe(reference, REFERENCE_CALL)  # so the last jobs have neighbours on both sides

    speed = local_speed(reference)
    # a job that hits its limit counts at the limit, whatever the speed
    scaled = {id(r): r.wall_s if r.outcome == "timeout" else r.wall_s / speed(end)
              for end, r in timed}
    results = [r for job_results in runs for r in job_results]
    failed = sum(r.outcome != "ok" for r in results)
    provenance["samples"] = {"passes": len(runs[0]), "setup_samples": len(setup),
                             "reference_samples": len(reference)}
    provenance["unscaled"] = {"wall_s": list_wall(runs),
                              "setup_s": statistics.median(s for _, s in setup),
                              "reference_s": statistics.median(s for _, s in reference)}
    metrics = {
        "wall_s": (list_wall(runs, lambda r: scaled[id(r)]), "s"),
        "peak_rss_mb": (max(r.max_rss_mb for r in results), "MB"),
        "ok_frac": (ok_share(runs), "ratio"),
        "setup_s": (statistics.median(s / speed(end) for end, s in setup), "s"),
    }
    return runs, metrics, len(results), failed


def import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kappa_forge.cli as cli  # noqa: E402  (the working tree, never installed)
    from kappa_forge import localization, obstruction, su2rep, symalg

    return cli, [localization, symalg, obstruction, su2rep]


def traced(jobs, runner, seconds: float, provenance: dict):
    start = time.perf_counter()
    sub_pass = [runner.run(job) for job in jobs]
    import_times = []
    for _ in range(IMPORT_SAMPLES):
        code, _, _ = runner.spawn(["-c", IMPORT_PROBE], PROBE_LIMIT_S)
        if code != 0:
            raise BenchmarkError("importing kappa_forge.cli failed")
        import_times.append(float(runner.output()[0]))

    if sys.get_int_max_str_digits() != DEFAULT_INT_DIGITS:
        raise BenchmarkError("int digit limit was not restored before the in-process run")
    cli, modules = import_package()
    inproc = harness.InProcessRunner(cli)
    untraced_pass = [inproc.run(job) for job in jobs]

    targets = {"cli.main": cli.main}
    for module in modules:
        targets.update(harness.public_functions(module))
    tracer = harness.Tracer()
    tracer.install(targets, [cli, sys.modules["kappa_forge"], *modules])
    traced_passes, totals, parents = [], [], None
    try:
        remaining = seconds - (time.perf_counter() - start)
        while True:
            tracer.reset()
            pass_start = time.perf_counter()
            traced_passes.append([inproc.run(job) for job in jobs])
            tracer.stack.clear()  # a timed-out job may leave spans open
            totals.append(tracer.totals())
            parents = parents or tracer.by_parent()
            took = time.perf_counter() - pass_start
            remaining -= took
            if remaining < took:
                break
    finally:
        tracer.uninstall()

    runs = {"subprocess": [sub_pass], "in-process": [untraced_pass],
            "in-process traced": traced_passes}
    for j, job in enumerate(jobs):
        seen = {name: {p[j].outcome for p in passes} for name, passes in runs.items()}
        if len({o for outcomes in seen.values() for o in outcomes}) > 1:
            raise BenchmarkError(f"job {job.name}: outcomes differ between runs: {seen}")

    calls = {name: totals[0].get(name, (0, 0.0))[0] for name in targets}
    for later in totals[1:]:
        if any(later.get(name, (0, 0.0))[0] != count for name, count in calls.items()):
            raise BenchmarkError("call counts differ between traced passes")
    self_s = {name: statistics.median(t.get(name, (0, 0.0))[1] for t in totals) for name in targets}

    untraced_wall = sum(r.wall_s for r in untraced_pass)
    traced_wall = statistics.median(sum(r.wall_s for r in p) for p in traced_passes)
    metrics = {"cli.import_s": (statistics.median(import_times), "s"),
               "cli.stdout_bytes": (sum(r.stdout_bytes for r in traced_passes[0]), "bytes")}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics["localization.validate_fixed_data.calls_per_file"] = (
        calls["localization.validate_fixed_data"] / calls["localization.read_fixed_point_file"],
        "ratio")
    metrics["symalg.elementary_symmetric.calls_per_sigma_eval"] = (
        calls["symalg.elementary_symmetric"] / calls["symalg.sigma_eval"], "ratio")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")

    provenance["pass_wall_s"] = {"subprocess": sum(r.wall_s for r in sub_pass),
                                 "in-process": untraced_wall, "in-process traced": traced_wall}
    provenance["samples"] = {"subprocess_passes": 1, "untraced_in_process_passes": 1,
                             "traced_passes": len(traced_passes), "jobs_per_pass": len(jobs),
                             "import_samples": len(import_times)}
    provenance["spans_by_parent"] = parents
    results = [r for p in (sub_pass, untraced_pass, *traced_passes) for r in p]
    ranking = sorted(((self_s[n], calls[n], n) for n in targets if calls[n]), reverse=True)
    return ([list(job_results) for job_results in zip(*traced_passes)], metrics, len(results),
            sum(r.outcome != "ok" for r in results), ranking)


def print_summary(workload: str, seed: int, jobs, runs, metrics, attempted, failed, ranking):
    kind = "traced in-process" if ranking else "subprocess"
    print(f"workload {workload}, seed {seed}: {len(jobs)} jobs, {attempted} {kind} runs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<52} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    defects = [job.name for job in jobs if job.defect]
    print(f"  known-defect share {len(defects) / len(jobs):.6g}: {', '.join(defects) or 'none'}")
    for job, results in zip(jobs, runs):
        outcomes = "/".join(sorted({r.outcome for r in results}))
        detail = next((r.detail for r in results if r.detail), "")
        wall = statistics.median(r.wall_s for r in results)
        print(f"  job {job.name:<24} {wall:>9.4f} s unscaled x{len(results)}  {outcomes} "
              f"{detail[:100]}")
    if ranking:
        print("  self time per traced pass, by function:")
        for seconds, calls, name in ranking:
            print(f"    {name:<48} {seconds:>10.4f} s {calls:>9} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kappa_forge", "cli.py")):
        print(f"error: no kappa_forge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work_root = os.path.join(HERE, WORK_DIR)
    work = os.path.join(work_root, args.workload)
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work)
    try:
        gen_start = time.perf_counter()
        with harness.unlimited_int_digits():
            workload = workloads.build(args.workload, args.seed, work,
                                       os.path.relpath(work, ROOT))
        jobs = workload.jobs
        provenance = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "platform": platform.platform(), "commit": git_commit(),
            "generation_s": time.perf_counter() - gen_start,
            "inputs_sha256": workload.inputs,
            "jobs": [{"name": j.name, "argv": j.argv, "limit_s": j.limit_s, "defect": j.defect}
                     for j in jobs],
        }
        runner = harness.SubprocessRunner(ROOT, work)
        cold_starts(runner, TRIVIAL_CALL, 1)  # warm the bytecode cache before timing
        if args.trace:
            runs, metrics, attempted, failed, ranking = traced(jobs, runner, args.seconds,
                                                               provenance)
        else:
            runs, metrics, attempted, failed = end_to_end(jobs, runner, args.seconds, provenance)
            ranking = []
        wrong = wrong_answers(jobs, runs)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    print(json.dumps(provenance, sort_keys=True), file=sys.stderr)
    print_summary(args.workload, args.seed, jobs, runs, metrics, attempted, failed, ranking)
    for line in wrong:
        print(f"WRONG ANSWER {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
