"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fairdyn import _kernels, _loops_py, core, dynamics, scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    # --seconds 0 measures exactly one round
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.E2E
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "1":
        spans = json.loads((run.OUT / f"TRACE_{workload}_seed7.json").read_text())
        assert spans["spans"] and spans["self_s"]


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    for name in workloads.WORKLOADS:
        first = next(workloads.build(name, 1, ROOT, tmp_path / f"{name}-1").rounds())
        again = next(workloads.build(name, 1, ROOT, tmp_path / f"{name}-1b").rounds())
        other = next(workloads.build(name, 2, ROOT, tmp_path / f"{name}-2").rounds())
        assert first == again
        assert first != other
    generated = sorted((tmp_path / "cli-1" / "scenarios").iterdir())
    assert generated
    assert any(
        p.read_text() != (tmp_path / "cli-2" / "scenarios" / p.name).read_text() for p in generated
    )
    names = [
        set(last_json(bench("--workload", "sweep", "--seed", seed, "--seconds", "0"))["metrics"])
        for seed in ("1", "2")
    ]
    assert names[0] == names[1] == set(run.E2E)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_computed_rhs_evals_match_the_counted_ones():
    """The affine-inline count formula agrees with counting f0/f1 calls on
    the callback path of the same dynamics, with and without merge/stop."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inline = dynamics.affine_dynamics(0.1, 0.05, 0.2, 0.6, -0.1, 0.3)
        callback = dataclasses.replace(inline, affine=None)
        u = core.UtilitySpec(-1.0, 1.0)
        for pa, pb, stop in ((0.9, 0.2, 0.0), (0.5, 0.5, 0.0), (0.9, 0.2, 1e-6), (0.4, 0.4, 1e-6)):
            state = core.PopulationState.of(pa, pb, 0.5)
            for dyn in (inline, callback):
                dynamics.ct_integrate(state, "AA", u, dyn, t_end=100.0, h=0.05, stop_tol=stop)
    finally:
        tracer.uninstall()
    loops = [r for r in tracer.spans if r[tracing.NAME] == "dynamics.ct_loop"]
    assert len(loops) == 8
    assert any(r[tracing.ATTRS]["taken"] < r[tracing.ATTRS]["n_steps"] for r in loops)
    assert any(r[tracing.ATTRS]["merged"] > 0 for r in loops)
    for a, b in zip(loops[::2], loops[1::2]):
        assert a[tracing.ATTRS]["path"] == "affine" and b[tracing.ATTRS]["path"] == "callback"
        assert a[tracing.ATTRS]["taken"] == b[tracing.ATTRS]["taken"]
        assert a[tracing.ATTRS]["rhs"] == b[tracing.RHS] > 0


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    parent = tracer.open("parent")
    child = tracer.open("child")
    tracer.close(child)
    tracer.close(parent)
    durations = [r[tracing.END] - r[tracing.START] for r in tracer.spans]
    assert tracer.self_ns() == [durations[0] - durations[1], durations[1]]
    assert tracer.spans[1][tracing.PARENT] == 0


def test_post_s_is_integrate_time_outside_ct_loop():
    """With check_step_halving one ct_integrate nests another; post_s counts
    the outer span once, minus both ct_loop spans."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dyn = dynamics.affine_dynamics(0.1, 0.05, 0.2, 0.6, -0.1, 0.3)
        state = core.PopulationState.of(0.9, 0.2, 0.5)
        dynamics.ct_integrate(state, "AA", core.UtilitySpec(-1.0, 1.0), dyn, t_end=5.0, h=0.05,
                              check_step_halving=True)
    finally:
        tracer.uninstall()
    integrate = [r for r in tracer.spans if r[tracing.NAME] == "dynamics.ct_integrate"]
    loops = [r for r in tracer.spans if r[tracing.NAME] == "dynamics.ct_loop"]
    assert len(integrate) == len(loops) == 2
    assert integrate[1][tracing.PARENT] == tracer.spans.index(integrate[0])
    expected = integrate[0][tracing.END] - integrate[0][tracing.START]
    expected -= sum(r[tracing.END] - r[tracing.START] for r in loops)
    expected /= 1e9
    assert tracing.layer_metrics(tracer)["dynamics.ct_integrate.post_s"] == pytest.approx(expected)


def test_uninstall_restores_every_attribute():
    originals = (
        dynamics.ct_integrate,
        _kernels.ct_loop,
        vars(scenario.Scenario)["from_text"],
        dynamics.DynamicsSpec.validate_declared,
        scenario.ct_gradient,
    )
    tracer = tracing.Tracer()
    tracer.install()
    assert dynamics.ct_integrate is not originals[0]
    tracer.uninstall()
    assert originals == (
        dynamics.ct_integrate,
        _kernels.ct_loop,
        vars(scenario.Scenario)["from_text"],
        dynamics.DynamicsSpec.validate_declared,
        scenario.ct_gradient,
    )
    assert _kernels.ct_loop is _loops_py.ct_loop or _kernels.BACKEND != "python"


def test_checks_report_failures(tmp_path):
    workload = workloads.build("cli", 1, ROOT, tmp_path)
    ctx = workload.ctx
    verify = workloads.Job("cli.verify", "none", {"cmd": "verify", "args": []})
    assert workloads.check(verify, (1, "boom"), ctx)
    job = workloads.Job("cli.simulate", "dt", {"cmd": "simulate", "scenario": "constant_dt", "args": []})
    result = workloads.execute(job, ctx)
    assert workloads.check(job, result, ctx) == []
    csv = ctx.out / "constant_dt_trajectory.csv"
    csv.write_bytes(csv.read_bytes() + b"\n")
    assert "sha256" in workloads.check(job, result, ctx)[0]


def test_backend_line_names_a_missing_extension():
    problems: list[str] = []
    line = probe.check_backends(100, problems)
    assert problems == []
    if probe._loops_c is None:
        assert line == "compiled: not built"
    else:
        assert "bit-identical" in line
