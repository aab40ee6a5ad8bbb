"""Pipeline benchmark of the ``sparseca`` command line.

One round runs the six subcommands of a workload one after another,
dtm -> ca -> tune -> sca -> paths -> cluster, each on the table that
dtm wrote, and checks every step's outputs. Rounds repeat in a closed
loop for about ``--seconds`` seconds; the printed figures are medians
over the rounds. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload music --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` runs every step in a fresh interpreter through the entry
point of the ``sparseca`` script, with no wrappers installed, and
reports the end-to-end metrics. ``--trace 1`` calls the entry point
in-process with the same argument lists, alternating untraced and
traced rounds, and reports per-layer metrics from the traced rounds
plus the tracing overhead. ``--workload all`` does both for every
workload. See README.md in this directory.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tomllib
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402

END_TO_END_UNITS = {
    **{f"{step}_s": "s" for step in workloads.STEPS},
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 3


class SourceMissing(Exception):
    """The checkout holds no program to benchmark."""


def entry_point():
    """``module:function`` of the ``sparseca`` script, read from pyproject.toml."""
    pyproject = ROOT / "pyproject.toml"
    if not pyproject.is_file() or not (SRC / "sparseca" / "cli.py").is_file():
        raise SourceMissing(f"no sparseca sources under {ROOT}")
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle).get("project", {}).get("scripts", {})
    if "sparseca" not in scripts:
        raise SourceMissing("pyproject.toml declares no sparseca script")
    module, _, function = scripts["sparseca"].partition(":")
    return module, function


def child_env():
    """The caller's environment without the program's thread cap, with src/ importable."""
    env = dict(os.environ)
    env.pop("SPARSE_CA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment_note():
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    return f"# nproc={len(os.sched_getaffinity(0))} {threads} SPARSE_CA_THREADS=removed"


def spawn(argv, env, log_stem):
    """Run ``argv`` to completion: (wall seconds, exit code, stdout, stderr)."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            rc = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - start
    return seconds, rc, out_path.read_text(), err_path.read_text()


def check_step(workload, step, rc, stdout):
    """None when the step exited 0 and its outputs pass the check, else why not."""
    if rc != 0:
        return f"{step}: exit code {rc}"
    try:
        checks.CHECKS[step](workload, stdout)
    except checks.CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return f"{step}: unreadable output ({type(exc).__name__}: {exc})"
    return None


def closed_loop(seconds, one_round):
    """Whole rounds, one after another, while the next one is expected
    to end within ``seconds`` of the start; at least one round."""
    results, durations = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        results.append(one_round())
        durations.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return results


def import_seconds(env):
    """Time of ``import sparseca`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import sparseca; "
            "print(repr(time.perf_counter() - t))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# The kernel carries the parent's peak RSS over into a child's getrusage
# figure across exec, so the child reports its own high-water mark,
# VmHWM, on its last stderr line as it exits.
RSS_MARK = "perfbench-peak-rss-kb"
_REPORT_RSS = (
    "import atexit, sys\n"
    "def _report_rss():\n"
    "    with open('/proc/self/status') as status:\n"
    "        kb = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    f"    sys.stderr.write('{RSS_MARK} ' + kb + '\\n')\n"
    "atexit.register(_report_rss)\n"
)


def launcher():
    """``python -c`` code that does what the installed ``sparseca`` script
    does, plus the peak-RSS report."""
    module, function = entry_point()
    return _REPORT_RSS + f"from {module} import {function}\nsys.exit({function}())\n"


def run_step(workload, step, env, code):
    """One subcommand in a fresh interpreter: (seconds, peak RSS MB, exit code, stdout)."""
    logs = workload.out_dir("logs")
    logs.mkdir(exist_ok=True)
    seconds, rc, stdout, stderr = spawn([sys.executable, "-c", code, *workload.argv(step)],
                                        env, logs / step)
    marks = [line.split()[1] for line in stderr.splitlines() if line.startswith(RSS_MARK)]
    return seconds, int(marks[-1]) / 1024.0 if marks else 0.0, rc, stdout


def run_timed(workload, seconds, say):
    env = child_env()
    code = launcher()
    # the first import may compile bytecode into the checkout; it is not
    # timed. Imports are then timed before and between rounds, so the
    # samples spread over the run like the steps' own.
    import_seconds(env)
    imports = [import_seconds(env) for _ in range(SETUP_SAMPLES)]

    def one_round():
        times, rss, failures = {}, 0.0, []
        for step in workloads.STEPS:
            t, mb, rc, stdout = run_step(workload, step, env, code)
            times[step] = t
            rss = max(rss, mb)
            problem = check_step(workload, step, rc, stdout)
            if problem:
                failures.append(problem)
        imports.extend(import_seconds(env) for _ in range(SETUP_SAMPLES))
        workload.next_round()
        return times, rss, failures

    rounds = closed_loop(seconds, one_round)
    metrics = {f"{step}_s": statistics.median(r[0][step] for r in rounds) for step in workloads.STEPS}
    metrics["pipeline_s"] = statistics.median(sum(r[0].values()) for r in rounds)
    metrics["peak_rss_mb"] = max(r[1] for r in rounds)
    metrics["setup_s"] = statistics.median(imports)
    failures = [f for r in rounds for f in r[2]]
    for problem in failures:
        say(f"# FAILED {problem}")
    say(f"# {len(rounds)} rounds")
    return result(metrics, END_TO_END_UNITS, 6 * len(rounds), len(failures))


def run_traced(workload, seconds, say):
    """Untraced and traced in-process rounds, alternating."""
    module, function = entry_point()
    os.environ.pop("SPARSE_CA_THREADS", None)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module(module)
    tracer = Tracer()

    def in_process(traced):
        if traced:
            tracer.install()
        wall, failures = 0.0, []
        try:
            for step in workloads.STEPS:
                captured = io.StringIO()
                start = perf_counter()
                with contextlib.redirect_stdout(captured):
                    rc = getattr(cli, function)(workload.argv(step))
                wall += perf_counter() - start
                problem = check_step(workload, step, rc, captured.getvalue())
                if problem:
                    failures.append(problem)
        finally:
            if traced:
                tracer.uninstall()
            workload.next_round()
        spans, counts = tracer.take()
        return wall, failures, spans, counts

    pairs = closed_loop(seconds, lambda: (in_process(False), in_process(True)))
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    per_round = [layer_metrics(r[2], r[3]) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    overhead = statistics.median(r[0] for r in traced) / statistics.median(r[0] for r in plain) - 1
    say(f"# tracing overhead {100 * overhead:+.1f}% of in-process wall time "
        f"({len(pairs)} untraced/traced round pairs)")
    selfs = [self_times(r[2]) for r in traced]
    for layer in LAYERS:
        say(f"# self time {layer}: {statistics.median(s.get(layer, 0.0) for s in selfs):.4f} s")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    with open(trace_path, "w") as handle:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "fields": ["id", "name", "start", "end", "parent", "thread"],
                   "rounds": [r[2] for r in traced]}, handle)
    say(f"# spans written to {trace_path.relative_to(ROOT)}")
    failures = [f for p in pairs for r in p for f in r[1]]
    for problem in failures:
        say(f"# FAILED {problem}")
    units = {name: per_layer_unit(name) for name in metrics}
    return result(metrics, units, 12 * len(pairs), len(failures))


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("pool_efficiency"):
        return "ratio"
    return "count"


def result(metrics, units, attempted, failed):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def print_result(name, mode, res, say):
    say(f"## {name} ({mode}): attempted {res['attempted']}, failed {res['failed']}")
    for metric, entry in res["metrics"].items():
        say(f"{name}.{metric} = {entry['value']:.6g} {entry['unit']}")


def run_workload(name, seed, seconds, traced, say):
    work_dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    try:
        workload = workloads.prepare(name, seed, work_dir)
        runner = run_traced if traced else run_timed
        return runner(workload, seconds, say)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def say(line):
        print(line, flush=True)

    try:
        entry_point()
        sys.path.insert(0, str(SRC))
        say(environment_note())
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), say)
            print_result(args.workload, "traced" if args.trace else "timed", res, say)
            say(json.dumps(res))
            return 0
        summary = {}
        for name in workloads.WORKLOADS:
            summary[name] = {}
            for mode, traced in (("timed", False), ("traced", True)):
                res = run_workload(name, args.seed, args.seconds, traced, say)
                print_result(name, mode, res, say)
                summary[name][mode] = res
        say(json.dumps(summary))
        return 0
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
