"""The cuederiv benchmark: run one workload of CLI commands and print its metrics.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload exact-zeta --seed 1 --seconds 58 --trace 0

Each workload is a closed loop with one client in this process: tasks (see
workloads.py) run back to back through ``cuederiv.cli.main`` and every
output is checked.

``--trace 0`` prints the end-to-end metrics.  The whole task list runs once
in order, then tasks keep running, each step taking the next task of the
part that has had the least time so far, until the next would end after
``--seconds``; set-up samples are spread over the same time.  Every task run
is bracketed by runs of a fixed reference work, and a task's time is given
in units of it (see README.md for why); a part's time is the sum over its
tasks.

``--trace 1`` alternates untraced and traced passes over the task list and
prints the per-layer metrics of the traced passes (see tracing.py) with the
tracing overhead.

The last line of stdout is the JSON result; a detailed report (machine
facts, provenance, per-task times and SHA-256 digests of every deterministic
task's JSON) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# Read by numpy when it loads, so set first (the environment may override).
# One client in one single-threaded process, pinned as the test suite pins it:
# BLAS threads do not speed up these matrix sizes, and they would make the
# timings depend on what else runs on the other cores.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
for _name, _value in PINNED_ENV.items():
    os.environ.setdefault(_name, _value)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
PARTS = ("a", "b", "c", "d", "e")
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "part_a_ref": "ref",
    "part_b_ref": "ref",
    "part_c_ref": "ref",
    "part_d_ref": "ref",
    "part_e_ref": "ref",
}
SETUP_SAMPLES = 9
SETUP_ARGV = ("asympt", "--regime", "global", "--s", "1", "--r", "0.5")
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


PER_LAYER = {name: layer_unit(name) for name in tracing.PER_LAYER + ("trace.overhead_frac",)}


# ---------------------------------------------------------------------------
# Running tasks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    failure: str | None = None
    known: bool = False  # the failure is the task's known defect
    digest: str | None = None
    # Mean time of the reference work just before and just after this run.
    reference: float | None = None


@dataclass
class Pass:
    wall: float
    outcomes: dict[str, Outcome]
    traced: bool
    layers: dict[str, float] = field(default_factory=dict)
    baseline: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return False


def run_task(cli, task: workloads.Task, done: dict) -> Outcome:
    """Run one command, check its output, and store its report in `done`."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(task.argv))
    except Exception as exc:  # an escaped exception fails the task; the loop goes on
        known = task.known_defect is not None and isinstance(exc, task.known_defect)
        return Outcome(time.perf_counter() - start, f"{type(exc).__name__}: {exc}", known)
    seconds = time.perf_counter() - start
    if code not in task.exits:
        return Outcome(seconds, f"exit {code}: {err.getvalue().strip()[-300:]}")
    if code != 0:
        return Outcome(seconds)
    text = out.getvalue()
    digest = None
    if task.deterministic:
        digest = hashlib.sha256(_TIMESTAMP.sub('"timestamp": ""', text).encode()).hexdigest()
    try:
        report = json.loads(text)
        if _non_finite(report["results"]):
            raise workloads.CheckFailed("inf or nan in the results")
        if task.check is not None:
            task.check(report, done)
    except Exception as exc:  # a malformed report fails its check like a wrong value
        return Outcome(seconds, f"{type(exc).__name__}: {exc}", digest=digest)
    done[task.key] = report
    return Outcome(seconds, digest=digest)


def run_pass(cli, tasks, traced: bool) -> Pass:
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    done: dict = {}
    start = time.perf_counter()
    try:
        outcomes = {task.key: run_task(cli, task, done) for task in tasks}
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result = Pass(wall, outcomes, traced)
    if tracer is not None:
        result.layers = tracing.layer_metrics(tracer.spans, tracer.warnings)
        result.baseline = tracing.baseline_table(tracer.spans)
        result.spans = tracer.spans
    return result


def measure_traced(cli, tasks, seconds: float) -> list[Pass]:
    """Whole passes, alternating untraced and traced, until the next would end
    after `seconds` (at least one of each)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, tasks, traced=len(passes) % 2 == 1))
        longest = max(p.wall for p in passes)
        if len(passes) >= 2 and time.perf_counter() - start + longest > seconds:
            return passes


def setup_sample(src: Path) -> float:
    """Time for a fresh interpreter to import cuederiv and run one trivial
    CLI command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "cuederiv.cli", *SETUP_ARGV], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms; a blocking wait
    # returns when the child ends, and the timer only guards against a hang.
    guard = threading.Timer(120, child.kill)
    guard.start()
    try:
        code = child.wait()
    finally:
        guard.cancel()
    seconds = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, child.args)
    return seconds


_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((40, 40))


def reference_seconds() -> float:
    """Time of a fixed piece of work that stands for the host's speed.

    It does the two kinds of work the tasks do, interpreted Python and small
    LAPACK calls: an integer loop and the eigenvalues of a fixed 40x40
    matrix, about 20 ms in all on a 2 GHz Xeon core.  It creates no objects
    the garbage collector tracks, so the size of the program's heap does not
    change its time.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i & 7
    for _ in range(16):
        np.linalg.eigvals(_REFERENCE_MATRIX)
    return time.perf_counter() - start


def measure_interleaved(cli, tasks, seconds: float, src: Path):
    """Run the task list once in order, then keep running tasks, each step
    taking the next task (cyclically) of the part with the least time so far,
    until the next would end after `seconds`.  Every task run is bracketed
    by runs of the reference work, and set-up samples are spread over the
    same time.  Returns every task's outcomes and the set-up samples.
    """
    parts = {p: [t for t in tasks if t.part == p] for p in PARTS}
    parts = {p: ts for p, ts in parts.items() if ts}
    spent = dict.fromkeys(parts, 0.0)
    cursor = dict.fromkeys(parts, 0)
    runs: dict[str, list[Outcome]] = {t.key: [] for t in tasks}
    setup: list[float] = []
    done: dict = {}
    first_pass = list(tasks)  # in order: checks read the reports of earlier tasks
    before = None  # the reference run that ended just now
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_SAMPLES and elapsed >= seconds * len(setup) / SETUP_SAMPLES:
            setup.append(setup_sample(src))
            before = None
            continue
        if first_pass:
            task = first_pass.pop(0)
        else:
            part = min(parts, key=spent.__getitem__)
            task = parts[part][cursor[part] % len(parts[part])]
            if elapsed + max(o.seconds for o in runs[task.key]) > seconds:
                return runs, setup
            cursor[part] += 1
        if before is None:
            before = reference_seconds()
        outcome = run_task(cli, task, done)
        after = reference_seconds()
        outcome.reference = (before + after) / 2
        before = after
        runs[task.key].append(outcome)
        spent[task.part] += outcome.seconds


# ---------------------------------------------------------------------------
# Machine facts and provenance
# ---------------------------------------------------------------------------


def _llc_bytes() -> int | None:
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        caches[level] = int(size.rstrip("KM")) * scale
    return caches[max(caches)] if caches else None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the copy numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({p for p in maps.split() if "openblas" in p and p.startswith("/")})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(load_at_start) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "loadavg_at_start": list(load_at_start),
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def task_refs(runs: dict[str, list[Outcome]]) -> dict[str, float]:
    """Each task's time in units of the reference work done around it: the
    sum of its run times over the sum of their reference times."""
    return {key: sum(o.seconds for o in outcomes) / sum(o.reference for o in outcomes)
            for key, outcomes in runs.items()}


def part_refs(tasks, runs: dict[str, list[Outcome]]) -> dict[str, float]:
    refs = task_refs(runs)
    return {part: sum(refs[t.key] for t in tasks if t.part == part) for part in PARTS}


def part_seconds(tasks, runs: dict[str, list[Outcome]]) -> dict[str, float]:
    """Each part's tasks once, each task at the mean of its runs."""
    return {part: sum(statistics.fmean(o.seconds for o in runs[t.key]) for t in tasks if t.part == part)
            for part in PARTS}


def end_to_end(tasks, runs: dict[str, list[Outcome]], setup: list[float]) -> dict:
    parts = part_refs(tasks, runs)
    passed = sum(1 for outcomes in runs.values() if not any(o.failure for o in outcomes))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_ref": sum(parts.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_frac": passed / len(runs),
    }
    metrics.update({f"part_{part}_ref": value for part, value in parts.items()})
    return metrics


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    metrics = {name: statistics.median([p.layers[name] for p in traced]) for name in tracing.PER_LAYER}
    untraced_wall = statistics.median([p.wall for p in passes if not p.traced])
    metrics["trace.overhead_frac"] = statistics.median([p.wall for p in traced]) / untraced_wall - 1
    return metrics


def detail_report(args, tasks, runs, passes, facts, provenance, metrics) -> dict:
    outcomes = [(key, o) for key, os_ in runs.items() for o in os_]
    seconds = part_seconds(tasks, runs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "provenance": provenance,
        "task_runs": len(outcomes),
        "metrics": metrics,
        "part_seconds": seconds,
        "named_metrics": workloads.named_metrics(args.workload, tasks, seconds),
        "tasks": {
            t.key: {
                "part": t.part,
                "argv": list(t.argv),
                "times_s": [o.seconds for o in runs[t.key]],
                "reference_s": [o.reference for o in runs[t.key]],
                "digest": runs[t.key][0].digest,
            }
            for t in tasks
        },
        "failures": sorted({f"{k}: {o.failure}" for k, o in outcomes if o.failure and not o.known}),
        "known_failures": sorted({f"{k}: {o.failure}" for k, o in outcomes if o.known}),
    }
    traced = [p for p in passes if p.traced]
    if traced:
        report["passes"] = len(passes)
        report["baseline"] = traced[0].baseline
    return report


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny shrinks draw counts and tables, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cuederiv" / "cli.py").is_file():
        print(f"perfbench: no cuederiv sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from cuederiv import __version__, cli

    if Path(cli.__file__).resolve() != (src / "cuederiv" / "cli.py").resolve():
        print(f"perfbench: imported cuederiv from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tasks = workloads.tasks_for(args.workload, args.seed, args.size)
    if args.trace:
        passes = measure_traced(cli, tasks, args.seconds)
        runs = {t.key: [p.outcomes[t.key] for p in passes] for t in tasks}
        metrics, units = per_layer(passes), PER_LAYER
    else:
        passes = []
        runs, setup = measure_interleaved(cli, tasks, args.seconds, src)
        metrics, units = end_to_end(tasks, runs, setup), END_TO_END

    outcomes = [o for os_ in runs.values() for o in os_]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failure and not o.known)

    provenance = {"cuederiv_version": __version__, "git_commit": _git_commit(root),
                  "src_sha256": _tree_digest(src)}
    report = detail_report(args, tasks, runs, passes, machine_facts(load_at_start), provenance, metrics)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    traced = [p for p in passes if p.traced]
    if traced:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracing.span_records(traced[0].spans)) + "\n")
    for line in report["failures"] + report["known_failures"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"report": os.path.relpath(OUT / f"{stem}.json", root),
                      "named_metrics": report["named_metrics"],
                      "known_failures": len(report["known_failures"])}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
