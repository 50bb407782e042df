"""Fixed-input layer measurements that do not depend on the workload.

`kernel_rows` is the trajectory-kernel comparison that used to live in
``benchmarks/bench_kernels.py``: RK4 cost per step of the active backend on
each kernel path (affine inline, native callback, parsed expression), plus
the bit-for-bit agreement of the pure-Python and compiled kernels whenever
the compiled extension imports.

`expr_rows` times the parsed Appendix C formulas against the native maps.

`layer_probe` makes a few small calls into every layer, so that a traced run
can report a per-call rate even for a layer its workload never calls;
`cli_job_seconds` times its cli calls untraced.
"""

from __future__ import annotations

import io
import statistics
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

from fairdyn import _kernels, _loops_py, analysis, core, dynamics, expr, policy, scenario, stereotype

import workloads
from workloads import APPENDIX_C_F0, APPENDIX_C_F1, SHIPPED

try:
    from fairdyn import _loops_c
except ImportError:
    _loops_c = None


def _kernel_cases():
    """(path, ct_loop arguments without n_steps) for each kernel path."""
    affine = dynamics.affine_dynamics(0.1, 0.05, 0.2, 0.6, -0.1, 0.3)
    native = dynamics.appendix_c_dynamics()
    parsed = dynamics.parse_dynamics(APPENDIX_C_F0, APPENDIX_C_F1)
    head = (0.9, 0.2, 0.5, -1.0, 1.0, 1)  # pa, pb, ga, u0, u1, AA mode
    return [
        ("affine", head + (affine.f0, affine.f1, affine.affine)),
        ("callback", head + (native.f0, native.f1, None)),
        ("expr", head + (parsed.f0, parsed.f1, None)),
    ]


def _loop_args(args, n_steps):
    return args + (1e-3, n_steps, 50, 1e-10, 0.0)  # h, n_steps, sample_every, merge/stop tol


def kernel_rows(n_steps: int, repeats: int) -> tuple[dict[str, float], list[str], list[str]]:
    """ns per RK4 step of the active backend per path (median of `repeats`),
    report lines, and problems (a compiled/pure-Python mismatch)."""
    ns_per_step, lines, problems = {}, [], []
    for path, args in _kernel_cases():
        full = _loop_args(args, n_steps)
        times = []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            _kernels.ct_loop(*full)
            times.append(perf_counter_ns() - t0)
        ns_per_step[path] = statistics.median(times) / n_steps
        lines.append(f"kernel {path:8s} {_kernels.BACKEND}: {ns_per_step[path]:10.1f} ns/step")
    lines.append(check_backends(n_steps, problems))
    return ns_per_step, lines, problems


def check_backends(n_steps: int, problems: list[str]) -> str:
    """Compare the compiled kernel with the pure-Python twin on every path."""
    if _loops_c is None:
        return "compiled: not built"
    for path, args in _kernel_cases():
        full = _loop_args(args, n_steps)
        if _loops_py.ct_loop(*full) != _loops_c.ct_loop(*full):
            problems.append(f"compiled and pure-Python kernels differ on the {path} path")
    return f"compiled: built; {'MISMATCH' if problems else 'bit-identical to pure Python'} on {n_steps} steps"


def expr_rows(n_points: int, repeats: int) -> tuple[dict[str, float], list[str]]:
    """ns per call of the parsed Appendix C maps and of the native maps (the
    base of the ratio), on a fixed low-discrepancy point set."""
    native = dynamics.appendix_c_dynamics()
    parsed = (expr.compile_expression(APPENDIX_C_F0), expr.compile_expression(APPENDIX_C_F1))
    points = [((i * 0.7548776662466927) % 1.0, (i * 0.5698402909980532) % 1.0) for i in range(n_points)]
    problems: list[str] = []
    workloads._check_parsed_appendix_c(points[:200], problems)

    def ns_per_call(f0, f1):
        times = []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for b0, b1 in points:
                f0(b0, b1)
                f1(b0, b1)
            times.append(perf_counter_ns() - t0)
        return statistics.median(times) / (2 * n_points)

    expr_ns = ns_per_call(*parsed)
    native_ns = ns_per_call(native.f0, native.f1)
    return {
        "expr.eval.ns_per_call": expr_ns,
        "expr.native.ns_per_call": native_ns,
        "expr.eval_over_native.ratio": expr_ns / native_ns,
    }, problems


def layer_probe(ctx) -> None:
    """A few small calls into every layer (made while a tracer is installed)."""
    from fairdyn import cli

    u = core.UtilitySpec(-1.0, 1.0)
    state = core.PopulationState.of(0.8, 0.3, 0.5)
    families = (
        dynamics.affine_dynamics(0.1, 0.05, 0.2, 0.6, -0.1, 0.3),
        dynamics.appendix_c_dynamics(),
        dynamics.parse_dynamics(APPENDIX_C_F0, APPENDIX_C_F1),
    )
    for dyn in families:
        dynamics.ct_integrate(state, "AA", u, dyn, t_end=2.0, h=0.01)
    const = dynamics.constant_dynamics(0.2, 0.8)
    dynamics.dt_trajectory(state, "AA", u, const, 50)
    stereotype.stereotype_trajectory(state, "AA1", u, const, stereotype.StereotypeSpec(0.02, 0.02), 50)
    scenario.export_field(families[1], "AA2", u, resolution=11)
    analysis.estimate_contraction(families[1], resolution=64)
    analysis.check_status_quo_bias(families[0], resolution=64)
    analysis.find_equilibria(families[1])
    analysis.theorem4_limits(families[0], state, u, h=0.05)
    families[0].validate_declared(resolution=64)
    for i in range(20):
        s = core.PopulationState.of(0.05 + 0.045 * i, 0.95 - 0.045 * i, 0.5)
        policy.aa_policy(s, u)
        policy.lp_oracle(s, u, parity_constrained=True)
    for name in SHIPPED:
        scenario.Scenario.from_text(ctx.scenario_file(name).read_text())
    for argv in _cli_calls(ctx):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(argv)


def _cli_calls(ctx):
    """argv of one small call of each cli subcommand."""
    for cmd, name, args in (
        ("simulate", "constant_dt", []),
        ("compare", "constant_dt", []),
        ("field", "three_equilibria_ct", ["--resolution", "11"]),
        ("analyze", "constant_dt", ["--resolution", "64"]),
        ("verify", None, ["--resolution", "20"]),
    ):
        yield [cmd] + ([str(ctx.scenario_file(name)), "--out", str(ctx.out)] if name else []) + args


def cli_job_seconds(ctx) -> dict[str, float]:
    """Untraced seconds of each `_cli_calls` call (median of 3), by subcommand."""
    from fairdyn import cli

    out = {}
    for argv in _cli_calls(ctx):
        times = []
        for _ in range(3):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                t0 = perf_counter_ns()
                cli.main(argv)
                times.append(perf_counter_ns() - t0)
        out[argv[0]] = statistics.median(times) / 1e9
    return out
