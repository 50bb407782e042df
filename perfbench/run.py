"""fairdyn benchmark: one command, three seeded workloads, every metric.

Run from the root of a checkout (no install step; ``src`` is put on the
path):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one thread: the next job
starts when the previous one has finished. Jobs come in rounds drawn from the
seed (see workloads.py), and a run measures whole rounds until ``--seconds``
have passed and at least MIN_JOBS jobs ran. Every job's output is checked;
a failed check counts into ``failed`` and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics (E2E), measured untraced:

* ``setup_s``: median seconds a fresh interpreter takes to import fairdyn
  (and fairdyn.cli for the cli workload) and build the workload's inputs,
  timed SETUP_REPEATS times, one after each round;
* ``job_ref.p50``/``job_ref.p90``/``jobs_per_kref``: job latency and
  throughput in reference units. Each job's wall time is divided by the time
  of `reference_loop`, a fixed pure-Python loop timed right before and after
  it. On a shared machine whose speed drifts by a third over seconds, this
  keeps the figures of the same code within a few percent from run to run;
  the wall-clock equivalents are printed and saved as well;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` reports the per-layer metrics (PER_LAYER): it runs the rounds
untraced, then the same rounds again under the tracer (tracing.py), then a
fixed probe (probe.py) that fills rates for layers the workload never calls,
and reports the tracing overhead as the ratio of the two runs' median job
time. Spans and counts go to ``.bench_out/TRACE_<workload>_seed<n>.json``.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(run record, per-job times and paths, metrics) is written to
``.bench_out/BENCH_<workload>_trace<t>_seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Every BLAS/OpenMP pool is pinned to one thread (set before numpy loads).
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_JOBS = 100  # so the 90th percentile has at least 10 samples beyond it
SETUP_REPEATS = 11  # fresh interpreters timed per run, one after each round
IMPORT_REPEATS = 3
MAX_RUN_FACTOR = 3  # stop at 3 x --seconds even short of MIN_JOBS

E2E = {
    "setup_s": "s",
    "job_ref.p50": "ref",
    "job_ref.p90": "ref",
    "jobs_per_kref": "1/kref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dynamics.ct_loop.ns_per_step.affine": "ns",
    "dynamics.ct_loop.ns_per_step.callback": "ns",
    "dynamics.ct_loop.ns_per_step.expr": "ns",
    "dynamics.ct_loop.steps": "count",
    "dynamics.ct_loop.rhs_evals": "count",
    "dynamics.ct_loop.merged_step_frac": "frac",
    "dynamics.ct_loop.stop_saved_frac": "frac",
    "dynamics.ct_loop.clamps": "count",
    "dynamics.ct_integrate.post_s": "s",
    "dynamics.ct_integrate.self_s": "s",
    "dynamics.dt_trajectory.us_per_step": "us",
    "dynamics.ct_gradient.us_per_call": "us",
    "dynamics.validate_declared.self_s": "s",
    "expr.compile_expression.us_per_call": "us",
    "expr.eval.ns_per_call": "ns",
    "expr.native.ns_per_call": "ns",
    "expr.eval_over_native.ratio": "ratio",
    "analysis.estimate_contraction.self_s": "s",
    "analysis.estimate_contraction.ns_per_point": "ns",
    "analysis.estimate_contraction.fn_evals": "count",
    "analysis.estimate_contraction.evals_per_point": "count",
    "analysis.check_status_quo_bias.self_s": "s",
    "analysis.check_status_quo_bias.points_checked": "count",
    "analysis.find_equilibria.self_s": "s",
    "analysis.find_equilibria.map_evals": "count",
    "analysis.theorem4_limits.self_s": "s",
    "analysis.theorem4_limits.trajectories": "count",
    "policy.policy_entries.ns_per_call": "ns",
    "policy.aa_policy.us_per_call": "us",
    "policy.lp_oracle.us_per_call": "us",
    "core.utility.ns_per_call": "ns",
    "stereotype.stereotype_trajectory.us_per_step": "us",
    "stereotype.effective_policy.us_per_call": "us",
    "scenario.from_text.us_per_call": "us",
    "scenario.export_field.self_s": "s",
    "scenario.export_field.ns_per_point": "ns",
    "scenario.write_trajectory_csv.self_s": "s",
    "scenario.write_trajectory_csv.bytes": "bytes",
    "scenario.write_field_csv.self_s": "s",
    "scenario.write_field_csv.bytes": "bytes",
    "scenario.write_compare_csv.self_s": "s",
    "scenario.write_compare_csv.bytes": "bytes",
    "scenario.write_analysis_report.self_s": "s",
    "cli.import_s": "s",
    "cli.simulate.job_s": "s",
    "cli.analyze.job_s": "s",
    "cli.compare.job_s": "s",
    "cli.field.job_s": "s",
    "cli.verify.job_s": "s",
    "cli.exit_nonzero": "count",
    "trace.overhead_frac": "frac",
}

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
from pathlib import Path
import fairdyn
import workloads
workloads.build({workload!r}, {seed!r}, Path({root!r}), Path({work!r}))
print(time.perf_counter() - t0)
"""

IMPORT_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}]
import fairdyn.cli
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_fairdyn():
    if not (SRC / "fairdyn" / "__init__.py").is_file():
        fail(f"no fairdyn sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import fairdyn

    if not Path(fairdyn.__file__).resolve().is_relative_to(SRC):
        fail(f"imported fairdyn from {fairdyn.__file__}, not from {SRC}")
    return fairdyn


def time_child(code: str) -> float:
    """Seconds a fresh interpreter reports for running `code`."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False
    )
    if done.returncode != 0:
        fail(f"set-up child failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


@dataclass
class JobResult:
    kind: str
    path: str  # kernel path the job exercises
    seconds: float  # wall time of the job
    problems: list[str]  # failed checks; empty when the output was correct
    ref: float  # seconds of reference_loop around the job


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now (machine speed probe)."""
    t0 = perf_counter()
    x = 0.0
    for i in range(3000):
        x = x * 0.5 + math.sin(i * 0.001) + i / 7.0
    return perf_counter() - t0


def run_job(job, ctx, tracer=None) -> JobResult:
    import workloads

    ref_before = reference_loop()
    span = tracer.open(f"job.{job.kind}") if tracer else None
    t0 = perf_counter()
    try:
        result, problems = workloads.execute(job, ctx), None
    except Exception as exc:  # a job must not end the run; it counts as failed
        result, problems = None, [f"{job.kind}: {type(exc).__name__}: {exc}"]
    seconds = perf_counter() - t0
    if tracer:
        tracer.close(span)
        tracer.active = False  # checks are not part of the traced work
    ref = 0.5 * (ref_before + reference_loop())
    if problems is None:
        problems = workloads.check(job, result, ctx)
    if tracer:
        tracer.active = True
    return JobResult(job.kind, job.path, seconds, problems, ref)


def run_rounds(rounds, ctx, seconds: float, after_round=None):
    """Run whole rounds until `seconds` of rounds passed and MIN_JOBS ran,
    calling `after_round` (untimed) after each. With `seconds` 0 exactly one
    round runs. Returns (job results, rounds run)."""
    results, done = [], []
    t_start = perf_counter()
    for rnd in rounds:
        results += [run_job(job, ctx) for job in rnd]
        done.append(rnd)
        if after_round is not None:
            t0 = perf_counter()
            after_round()
            t_start += perf_counter() - t0
        elapsed = perf_counter() - t_start
        if (elapsed >= seconds and len(results) >= MIN_JOBS) or elapsed >= MAX_RUN_FACTOR * seconds:
            break
    return results, done


def quantiles(values) -> tuple[float, float]:
    """(median, 90th percentile) of at least one value."""
    values = list(values)
    p90 = statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]
    return statistics.median(values), p90


def job_stats(results) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end job metrics in reference units, and the same in seconds.

    A job's time in reference units is its wall time divided by the time of
    `reference_loop` measured right before and after it, so the machine's
    speed at that moment cancels out. jobs_per_kref is throughput per 1000
    reference-loop times of job work (one client, so job time adds up).
    """
    seconds = [r.seconds for r in results]
    refs = [r.seconds / r.ref for r in results]
    ref_p50, ref_p90 = quantiles(refs)
    s_p50, s_p90 = quantiles(seconds)
    normalized = {
        "job_ref.p50": ref_p50,
        "job_ref.p90": ref_p90,
        "jobs_per_kref": 1000.0 * len(refs) / sum(refs),
    }
    wall = {"job_s.p50": s_p50, "job_s.p90": s_p90, "jobs_per_s": len(seconds) / sum(seconds)}
    return normalized, wall


def traced_metrics(ctx, rounds_run, untraced, args, checks):
    import probe
    import tracing

    tracer = tracing.Tracer()
    traced = []
    tracer.install()
    try:
        for rnd in rounds_run:
            for job in rnd:
                tracer.job = len(traced)
                traced.append(run_job(job, ctx, tracer))
    finally:
        tracer.uninstall()
    probe_tracer = tracing.Tracer()
    probe_tracer.install()
    try:
        probe.layer_probe(ctx)
    finally:
        probe_tracer.uninstall()

    metrics = tracing.layer_metrics(tracer)
    from_probe = tracing.layer_metrics(probe_tracer)
    for name, value in metrics.items():
        if value is None:
            metrics[name] = from_probe[name]
    kernel, lines, kernel_problems = probe.kernel_rows(n_steps=20_000, repeats=3)
    expr_metrics, expr_problems = probe.expr_rows(n_points=5_000, repeats=5)
    checks += [kernel_problems, expr_problems]
    for path, ns in kernel.items():
        metrics[f"dynamics.ct_loop.ns_per_step.{path}"] = ns
    metrics.update(expr_metrics)
    # Subcommand latency is taken untraced: from the cli workload's own jobs,
    # and from the probe's five cli calls on the other workloads.
    cli_seconds: dict[str, list[float]] = {}
    for r in untraced:
        if r.kind.startswith("cli."):
            cli_seconds.setdefault(r.kind[4:], []).append(r.seconds)
    for cmd, seconds in probe.cli_job_seconds(ctx).items():
        metrics[f"cli.{cmd}.job_s"] = statistics.median(cli_seconds.get(cmd) or [seconds])
    metrics["cli.import_s"] = statistics.median(
        time_child(IMPORT_CHILD.format(src=str(SRC))) for _ in range(IMPORT_REPEATS)
    )
    metrics["trace.overhead_frac"] = (
        job_stats(traced)[0]["job_ref.p50"] / job_stats(untraced)[0]["job_ref.p50"] - 1.0
    )
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"TRACE_{args.workload}_seed{args.seed}.json"
    tracer.dump(trace_file)
    lines.append(f"spans and counts: {trace_file} ({len(tracer.spans)} spans)")
    lines.append("self time by layer (traced rounds):")
    lines += [f"  {name:40s} {s:10.4f} s" for name, s in tracer.self_seconds_by_layer().items()]
    return metrics, traced, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "analysis", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(PINNED_THREADS)
    fairdyn = load_fairdyn()
    import numpy

    import probe
    import workloads

    warnings.simplefilter("ignore", RuntimeWarning)  # AA case-switch notices
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    lines: list[str] = []
    checks: list[list[str]] = []  # problems of each check made outside a job
    metrics: dict[str, float] = {}
    setup_code = SETUP_CHILD.format(
        src=str(SRC), bench=str(BENCH_DIR), workload=args.workload, seed=args.seed,
        root=str(ROOT), work=str(work / "setup"),
    )
    setup_times: list[float] = []

    def time_setup() -> None:
        # Spread over the run, so the median sees the machine as the jobs do.
        if not args.trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_child(setup_code))

    try:
        workload = workloads.build(args.workload, args.seed, ROOT, work / "run")
        ctx = workload.ctx
        backend_problems: list[str] = []
        lines.append(probe.check_backends(2_000, backend_problems))
        checks.append(backend_problems)
        rounds = workload.rounds()
        warm, _ = run_rounds(rounds, ctx, 0.0)
        measure_s = args.seconds / 2 if args.trace else args.seconds
        results, rounds_run = run_rounds(rounds, ctx, measure_s, after_round=time_setup)
        normalized, wall = job_stats(results)
        if args.trace:
            layer, traced, trace_lines = traced_metrics(ctx, rounds_run, results, args, checks)
            lines += trace_lines
            metrics.update(layer)
            all_results = warm + results + traced
        else:
            while len(setup_times) < SETUP_REPEATS:
                time_setup()
            metrics["setup_s"] = statistics.median(setup_times)
            metrics.update(normalized)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            all_results = warm + results
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [r.problems for r in all_results] + checks
    problems = [p for found in outcomes for p in found]
    failed = sum(1 for found in outcomes if found)
    attempted = len(outcomes)
    units = PER_LAYER if args.trace else E2E
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail(f"metrics not produced: {missing}")

    paths: dict[str, int] = {}
    for r in results:
        paths[r.path] = paths.get(r.path, 0) + 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "backend": fairdyn.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "thread_pinning": PINNED_THREADS,
        "client": "closed loop, 1 client, 1 thread",
        "jobs_measured": len(results),
        "rounds_measured": len(rounds_run),
        "jobs_per_path": paths,
        "reference_loop_s.median": statistics.median(r.ref for r in results),
        "wall_clock": wall,
    }
    for key, value in record.items():
        print(f"{key}: {value}")
    print(*lines, sep="\n")
    print(f"failed_frac: {failed / attempted!r} ({failed}/{attempted}: jobs and backend/parser checks)")
    for p in problems[:20]:
        print(f"FAILED CHECK: {p}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")

    OUT.mkdir(exist_ok=True)
    bench_file = OUT / f"BENCH_{args.workload}_trace{args.trace}_seed{args.seed}.json"
    bench_file.write_text(
        json.dumps(
            {
                "record": record,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
                "failed": failed,
                "attempted": attempted,
                "problems": problems,
                "job_fields": ["kind", "path", "seconds", "reference_loop_s", "ok"],
                "jobs": [[r.kind, r.path, r.seconds, r.ref, not r.problems] for r in results],
            },
            indent=1,
        )
    )
    print(f"results: {bench_file}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
