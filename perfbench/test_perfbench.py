"""Tests of the benchmark itself: oracle, tracer and a smoke run of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_oracle_sharp_limit_optima():
    c0, V = oracle.invariants(5, 1.0, 0.0, 0.0)
    assert (c0, V) == (0.0, 1.0)
    assert oracle.optimum("bell", 2, c0, V) == 2.0 * math.sqrt(2.0)
    assert oracle.optimum("steering", 4, c0, V) == 2.0


def test_oracle_kernel_is_normalized_and_symmetric():
    w_n, a_n = oracle.kernel_masses(3, 2.5)
    k = range(-40, 41)
    g = [math.exp(-x * x / (2 * 2.5**2)) for x in k]
    z = math.fsum(g)
    assert w_n == pytest.approx(g[40 + 3] / z, abs=1e-15)
    below = math.fsum(gk for x, gk in zip(k, g) if x < 3) / z
    above = math.fsum(gk for x, gk in zip(k, g) if x > 3) / z
    assert a_n == pytest.approx(below - above, abs=1e-15)


@pytest.mark.parametrize("p", [0.85, 0.8, 0.75])
def test_oracle_reference_coarsening_root(p):
    # At delta = 0 the CHSH Delta^2 transition is ln(sqrt(2) p) / 4.
    search = oracle.Search("bell", 2, 5, "Delta_sq", {"p": p, "delta": 0.0, "Delta": None})
    assert search.root() == pytest.approx(math.log(math.sqrt(2.0) * p) / 4.0, abs=1e-12)


def test_tracer_counts_present_names_and_skips_missing_ones():
    layer = types.ModuleType("perfbench_fake_layer")
    layer.evaluate = lambda x: x + 1
    caller = types.ModuleType("perfbench_fake_layer.optimizer")
    caller.evaluate = layer.evaluate
    sys.modules[layer.__name__] = layer
    sys.modules[caller.__name__] = caller
    try:
        tracer = Tracer().install([
            (layer.__name__, "evaluate", "evaluate", "witness", None),
            (layer.__name__, "maximize", "maximize", "optimizer", "iterations"),
            ("perfbench_no_such_module", "main", "cli_run", "cli", None),
        ])
        with tracer.op():
            assert layer.evaluate(1) == 2
            assert caller.evaluate(2) == 3
    finally:
        del sys.modules[layer.__name__], sys.modules[caller.__name__]
    assert tracer.missing == ["perfbench_fake_layer.maximize", "perfbench_no_such_module.main"]
    metrics = tracer.metrics(ops=1)
    assert metrics["witness.evaluations"][0] == 2
    assert metrics["optimizer.maximize_calls"][0] == 0
    assert metrics["cli.runs"][0] == 0
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(metrics) | {
        "traced.ops_per_s", "traced.op_p50_ms"}


def test_tracer_flags_probes_it_could_not_see():
    # A search that never constructs a Correlator: its probes are not measured.
    search = types.ModuleType("perfbench_fake_search")
    search.find_critical_delta = lambda: 0.5
    sys.modules[search.__name__] = search
    try:
        tracer = Tracer().install([(search.__name__, "find_critical_delta", "delta_sq",
                                    "transition", None)])
        with tracer.op():
            search.find_critical_delta()
    finally:
        del sys.modules[search.__name__]
    assert tracer.metrics(ops=1)["transition.searches"][0] == 1
    assert tracer.unmeasured() == ["transition.probes", "transition.probes_per_search"]


@pytest.mark.parametrize("seconds,ran", [(0.1, 3), (10.0, 9), (11.0, 12)])
def test_run_ends_at_the_round_boundary_nearest_to_seconds(monkeypatch, seconds, ran):
    # Every operation takes one second of a fake clock; rounds of three.
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def tick():
        clock[0] += 1.0

    ops = (types.SimpleNamespace(label="op", run=tick, check=lambda _: None) for _ in range(100))
    latencies, _, failures = run.run_ops(ops, 3, seconds, None, None)
    assert len(latencies) == ran and not failures


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("evaluate", 0), ("evaluate", 1), ("profile", 1), ("transitions", 0)])
def test_smoke_run_is_correct_and_leaves_no_files(workload, trace):
    before = sorted(p.name for p in ROOT.iterdir())
    out = _run(["--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert sorted(p.name for p in ROOT.iterdir()) == before


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "evaluate", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
