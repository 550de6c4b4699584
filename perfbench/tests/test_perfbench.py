"""Tests of the benchmark itself: run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from cuederiv import cli

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


class _Raising:
    def __init__(self, exc):
        self.exc = exc

    def main(self, argv):
        raise self.exc


def test_only_the_known_exception_is_a_known_failure():
    task = workloads.Task("overflow", "c", ("exact",), known_defect=OverflowError)
    known = run.run_task(_Raising(OverflowError("math range error")), task, {})
    other = run.run_task(_Raising(ValueError("bad")), task, {})
    assert known.failure and known.known
    assert other.failure and not other.known


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "exact", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced_spans(*commands):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in commands:
            assert cli.main(list(argv)) == 0
    finally:
        tracer.uninstall()
    return tracer.spans


def test_spans_nest_and_self_time_is_not_negative(capsys):
    original = cli.moment_exact
    spans = _traced_spans(
        ("exact", "--N", "6", "--s", "3", "--u", "1/2"),
        ("mc", "--N", "6", "--s", "1", "--z", "0.5", "--samples", "500", "--seed", "1"),
        ("zeta", "--what", "arithmetic-factor", "--s", "2", "--p-max", "1000"),
    )
    capsys.readouterr()
    assert cli.moment_exact is original  # uninstall restored every name
    names = {s.name for s in spans}
    assert {"cli.main", "exact_moments.moment_exact", "linalg.det_exact",
            "exact_moments.structure_b_expansion", "rmt_mc.haar_phases",
            "numpy.linalg.eigvals", "zeta.primes_up_to"} <= names
    for i, span in enumerate(spans):
        assert span.end >= span.start
        if span.parent is None:
            assert span.name == "cli.main"
            continue
        parent = spans[span.parent]
        assert span.parent < i
        assert parent.start <= span.start and span.end <= parent.end
    index = tracing.SpanIndex(spans)
    assert min(index.self_time) >= -1e-9
    metrics = tracing.layer_metrics(spans, warnings=0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["rmt_mc.haar_phases.draws"] == 500
    assert metrics["rmt_mc.estimate.useful_ratio"] == 1.0
    assert metrics["exact_moments.moment_exact.calls"] == 1


def test_busy_counts_nested_spans_once():
    spans = [
        tracing.Span("specfun.a", 0.0, 10.0),
        tracing.Span("specfun.b", 1.0, 4.0, parent=0),
        tracing.Span("linalg.det_float", 5.0, 6.0, parent=0),
        tracing.Span("specfun.b", 20.0, 21.0),
    ]
    index = tracing.SpanIndex(spans)
    assert index.self_time == [6.0, 3.0, 1.0, 1.0]
    assert index.busy(lambda name: name.startswith("specfun.")) == 11.0


def _report_without(text, *keys):
    report = json.loads(re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text))
    for key in keys:
        report["config"].pop(key)
    return report


def test_mc_task_is_identical_at_one_and_two_threads(capsys):
    # 50k draws at N=10 span two sampling chunks, so two threads share the work.
    argv = ["mc", "--N", "10", "--s", "1", "--z", "0.5", "--samples", "50000", "--seed", "7"]
    outputs = []
    for threads in ("1", "2"):
        assert cli.main(argv + ["--threads", threads]) == 0
        outputs.append(_report_without(capsys.readouterr().out, "threads"))
    assert outputs[0] == outputs[1]
