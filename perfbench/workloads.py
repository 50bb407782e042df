"""Seeded inputs, job runners and output checks of the three workloads.

A job is plain data (`Job`): its kind, the kernel path it exercises and its
parameters. `Workload.rounds()` yields rounds of jobs forever; each round
holds every job template of the workload once, with parameters and order
drawn from the seed, so a run made of whole rounds always has the same mix.

`execute` runs one job through fairdyn's public functions and returns its
result; `check` then tests the result and returns the problems it found
(empty when every check held). Only `execute` is timed. Every call goes
through a module attribute (``dynamics.ct_integrate``, ``cli.main``, ...) so
the tracer can rebind it.

Workloads:

* ``sweep``: Theorem-4 limit/basin runs and UN/AA/AA1/AA2 ``ct_integrate``
  comparisons on the three kernel paths (affine inline, native callback,
  parsed expression);
* ``analysis``: contraction constants, status-quo check, equilibria,
  theorem verdicts, gradient field and declared-constant validation;
* ``cli``: one in-process ``fairdyn.cli.main`` call per job, on the shipped
  scenarios and on generated scenario files.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from fairdyn import analysis, core, dynamics, expr, policy, scenario

WORKLOADS = ("sweep", "analysis", "cli")

# The paper's Appendix C dynamics written as expressions (input data here,
# so the parsed-vs-native check does not lean on fairdyn's own copy).
APPENDIX_C_F0 = "(b1 + b1/5)/1.2 + 0.01"
APPENDIX_C_F1 = "0.5*(b1 + b1/5)/1.4 + exp(-0.000000001*(b0+b1))*sin(18*(b0+b1)) + 0.1"

SHIPPED = ("constant_dt", "expression_ct", "three_equilibria_ct")
OUTPUT_SUFFIX = {
    "simulate": "trajectory.csv",
    "compare": "compare.csv",
    "field": "field.csv",
    "analyze": "analysis.txt",
}
DIGESTS_FILE = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Job:
    kind: str  # "theorem4", "compare", "analysis" or "cli.<subcommand>"
    path: str  # kernel path: "affine", "callback", "expr", "dt" or "none"
    params: dict


@dataclass
class Context:
    """Where a run reads its inputs and writes its outputs."""

    root: Path  # checkout root (holds scenarios/)
    work: Path  # scratch directory of this run, inside the checkout
    digests: dict = field(default_factory=dict)

    @property
    def out(self) -> Path:
        return self.work / "out"

    def scenario_file(self, name: str) -> Path:
        if name in SHIPPED:
            return self.root / "scenarios" / f"{name}.scn"
        return self.work / "scenarios" / f"{name}.scn"


# -- seeded inputs ----------------------------------------------------------


def _state_utility(rng: random.Random) -> dict:
    return {
        "pi_a": rng.uniform(0.02, 0.98),
        "pi_b": rng.uniform(0.02, 0.98),
        "g_a": rng.uniform(0.1, 0.9),
        "u0": -rng.uniform(0.1, 2.0),
        "u1": rng.uniform(0.1, 2.0),
    }


def _contractive_affine(rng: random.Random, gap: float | None = None) -> list[float]:
    """(a0, c0, d0, a1, c1, d1) with slopes below 0.05 and a gap a1 - a0 of at
    most 0.5 (drawn unless given), so every equalization constant stays
    below 1."""
    slope = 0.05
    a0 = rng.uniform(0.05, 0.4)
    a1 = rng.uniform(a0, min(a0 + 0.5, 0.95)) if gap is None else a0 + gap
    return [
        a0,
        rng.uniform(-slope, slope),
        rng.uniform(-slope, slope),
        a1,
        rng.uniform(-slope, slope),
        rng.uniform(-slope, slope),
    ]


def _affine_exprs(coef: list[float]) -> tuple[str, str]:
    a0, c0, d0, a1, c1, d1 = coef
    return f"{a0!r} + {c0!r}*b0 + {d0!r}*b1", f"{a1!r} + {c1!r}*b0 + {d1!r}*b1"


def _smooth_exprs(rng: random.Random) -> tuple[str, str]:
    k = rng.uniform(2.0, 12.0)
    f0 = f"{rng.uniform(0.05, 0.3)!r} + {rng.uniform(-0.1, 0.1)!r}*b0 + {rng.uniform(0.0, 0.2)!r}*b1*b1"
    f1 = (
        f"{rng.uniform(0.4, 0.7)!r} + {rng.uniform(0.0, 0.2)!r}*sin({k!r}*(b0 + b1))"
        f" + {rng.uniform(0.0, 0.1)!r}*exp(-b1)"
    )
    return f0, f1


def _dynamics_spec(rng: random.Random, family: str, gap: float | None = None) -> dict:
    """Seeded dynamics of one family; `gap` fixes f1 - f0 at zero selection
    for the affine and constant families (drawn when None)."""
    if family == "affine":
        coef = _contractive_affine(rng, gap)
        return {"family": family, "coef": coef}
    if family == "constant":
        f0 = rng.uniform(0.05, 0.4)
        return {"family": family, "values": [f0, rng.uniform(f0, f0 + 0.5) if gap is None else f0 + gap]}
    if family == "appendixC":
        return {"family": family}
    if family == "expr-appendixC":
        return {"family": family, "f0": APPENDIX_C_F0, "f1": APPENDIX_C_F1}
    if family in ("expr-affine", "expr-affine-declared"):
        coef = _contractive_affine(rng, gap)
        f0, f1 = _affine_exprs(coef)
        spec = {"family": family, "f0": f0, "f1": f1, "coef": coef}
        if family == "expr-affine-declared":
            spec["l0"] = max(abs(coef[1]), abs(coef[2]))
            spec["l1"] = max(abs(coef[4]), abs(coef[5]))
        return spec
    if family == "expr-smooth":
        f0, f1 = _smooth_exprs(rng)
        return {"family": family, "f0": f0, "f1": f1}
    raise ValueError(f"unknown dynamics family {family!r}")


PATHS = {
    "affine": "affine",
    "constant": "affine",
    "appendixC": "callback",
    "expr-appendixC": "expr",
    "expr-affine": "expr",
    "expr-affine-declared": "expr",
    "expr-smooth": "expr",
}


def make_dynamics(spec: dict) -> dynamics.DynamicsSpec:
    family = spec["family"]
    if family == "affine":
        return dynamics.affine_dynamics(*spec["coef"])
    if family == "constant":
        return dynamics.constant_dynamics(*spec["values"])
    if family == "appendixC":
        return dynamics.appendix_c_dynamics()
    return dynamics.parse_dynamics(
        spec["f0"], spec["f1"], declared_l0=spec.get("l0"), declared_l1=spec.get("l1")
    )


# Five families of three jobs: 15 jobs a round puts both the median and the
# 90th percentile inside a cluster of like jobs rather than between two.
SWEEP_FAMILIES = ("affine", "constant", "appendixC", "expr-appendixC", "expr-affine")


BASIN_GRID = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
# f1 - f0 at zero selection for the affine families; it sets how fast the
# groups converge, so it rotates with the round index instead of being drawn.
GAPS = (0.1, 0.2, 0.3, 0.4)


def _swept_state(rng: random.Random, index: int, slot: int) -> dict:
    """A seeded state whose (piA, piB) sweeps BASIN_GRID with the round index
    (plus a small seeded offset), so a run covers every basin evenly."""
    params = _state_utility(rng)
    n = len(BASIN_GRID)
    params["pi_a"] = BASIN_GRID[(index + slot) % n] + rng.uniform(-0.02, 0.02)
    params["pi_b"] = BASIN_GRID[(3 * index + 2 * slot + 1) % n] + rng.uniform(-0.02, 0.02)
    return params


def _sweep_round(rng: random.Random, index: int) -> list[Job]:
    """Per dynamics family: one Theorem-4 run and two UN/AA1/AA2(/AA)
    comparisons, one over the full horizon and one with a stationary stop.

    Choices that change a job's cost (initial states, affine gap, horizon,
    step, stop, merged start, step halving) follow the round index, so every
    run of whole rounds has nearly the same mix; the seed draws the rest of
    the dynamics, the utilities and the offsets of the states.
    """
    jobs = []
    for k, family in enumerate(SWEEP_FAMILIES):
        path = PATHS[family]

        def dyn(slot):
            return _dynamics_spec(rng, family, GAPS[(index + slot) % len(GAPS)])

        jobs.append(Job("theorem4", path, {"dyn": dyn(0), **_swept_state(rng, index, 3 * k)}))
        horizon = {"dyn": dyn(1), **_swept_state(rng, index, 3 * k + 1)}
        horizon.update(
            modes=["UN", "AA1", "AA2", "AA"],
            t_end=10.0,
            h=0.01,
            stop_tol=0.0,
            halving=index % len(SWEEP_FAMILIES) == k,
        )
        stop = {"dyn": dyn(2), **_swept_state(rng, index, 3 * k + 2)}
        if index % 2 == 0:
            stop["pi_b"] = stop["pi_a"]  # merged from the first step
        stop.update(modes=["UN", "AA1", "AA2"], t_end=30.0, h=0.02, stop_tol=1e-9, halving=False)
        jobs += [Job("compare", path, horizon), Job("compare", path, stop)]
    rng.shuffle(jobs)
    return jobs


ANALYSIS_FAMILIES = ("affine", "appendixC", "expr-appendixC", "expr-affine-declared", "expr-smooth")


def _analysis_round(rng: random.Random, index: int) -> list[Job]:
    """Per dynamics family: one job at grid resolution 64, 96 and 128 each
    (15 jobs, like the other workloads)."""
    jobs = []
    for family in ANALYSIS_FAMILIES:
        for resolution, field_resolution in ((64, 21), (96, 31), (128, 41)):
            params = {
                "dyn": _dynamics_spec(rng, family),
                **_state_utility(rng),
                "resolution": resolution,
                "eq_mode": rng.choice(("CT", "DT")),
                "mode": rng.choice(("AA", "AA1", "AA2")),
                "field_resolution": field_resolution,
            }
            jobs.append(Job("analysis", PATHS[family], params))
    rng.shuffle(jobs)
    return jobs


def _scenario_text(name, mode, time_lines, dyn_lines, state, u, extra="") -> str:
    return (
        f"[scenario]\nname = {name}\nmode = {mode}\n{time_lines}outputs = trajectory\n\n"
        f"[dynamics]\n{dyn_lines}\n"
        f"[state]\npiA = {state[0]!r}\npiB = {state[1]!r}\ngA = {state[2]!r}\n\n"
        f"[utility]\nu0 = {u[0]!r}\nu1 = {u[1]!r}\n{extra}"
    )


GENERATED_MODES = ("UN", "AA", "AA1", "AA2")


def _write_generated(rng: random.Random, directory: Path) -> dict[str, list[str]]:
    """Seeded scenario files, one per policy mode for each kind: DT with a
    stereotype (200 steps), CT affine (t_end 10, h 0.01) and CT expression
    (t_end 5, h 0.01). The seed draws dynamics, states and utilities.

    DT runs keep both profiles inside [0.1, 0.9] (affine maps with
    f0 <= 0.33 and f1 >= 0.67) and give both groups the same estimation error
    of at most 0.05, so the stereotype stays valid at every step.
    """
    directory.mkdir(parents=True, exist_ok=True)
    names: dict[str, list[str]] = {"dt": [], "ct_affine": [], "ct_expr": []}
    for mode in GENERATED_MODES:
        u = (-rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        a0, a1 = rng.uniform(0.15, 0.3), rng.uniform(0.7, 0.85)
        slopes = [rng.uniform(-0.015, 0.015) for _ in range(4)]
        eps = rng.uniform(-0.05, 0.05)
        name = f"gen_dt_{mode}"
        text = _scenario_text(
            name,
            mode,
            "time = DT\nsteps = 200\n",
            f"builtin = affine\na0 = {a0!r}\nc0 = {slopes[0]!r}\nd0 = {slopes[1]!r}\n"
            f"a1 = {a1!r}\nc1 = {slopes[2]!r}\nd1 = {slopes[3]!r}\n",
            (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)),
            u,
            f"\n[stereotype]\nepsA = {eps!r}\nepsB = {eps!r}\n",
        )
        (directory / f"{name}.scn").write_text(text)
        names["dt"].append(name)

        a0, c0, d0, a1, c1, d1 = _contractive_affine(rng)
        name = f"gen_ct_affine_{mode}"
        text = _scenario_text(
            name,
            mode,
            "time = CT\nt_end = 10\nh = 0.01\n",
            f"builtin = affine\na0 = {a0!r}\nc0 = {c0!r}\nd0 = {d0!r}\n"
            f"a1 = {a1!r}\nc1 = {c1!r}\nd1 = {d1!r}\n",
            (rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98), rng.uniform(0.1, 0.9)),
            u,
        )
        (directory / f"{name}.scn").write_text(text)
        names["ct_affine"].append(name)

        f0, f1 = _smooth_exprs(rng)
        name = f"gen_ct_expr_{mode}"
        text = _scenario_text(
            name,
            mode,
            "time = CT\nt_end = 5\nh = 0.01\n",
            f"f0 = {f0}\nf1 = {f1}\n",
            (rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98), rng.uniform(0.1, 0.9)),
            u,
        )
        (directory / f"{name}.scn").write_text(text)
        names["ct_expr"].append(name)
    return names


SHIPPED_PATHS = {"constant_dt": "dt", "expression_ct": "expr", "three_equilibria_ct": "callback"}


def _cli_round(rng: random.Random, index: int, generated: dict[str, list[str]]) -> list[Job]:
    """Every subcommand on every shipped scenario, one verify, and two jobs
    on generated scenario files."""
    jobs = [
        Job(
            f"cli.{cmd}",
            SHIPPED_PATHS[name] if cmd in ("simulate", "compare") else "none",
            {"cmd": cmd, "scenario": name, "args": []},
        )
        for cmd in ("simulate", "compare", "field", "analyze")
        for name in SHIPPED
    ]
    jobs.append(
        Job(
            "cli.verify",
            "none",
            {"cmd": "verify", "args": ["--resolution", "200", "--seed", str(rng.randrange(10**6))]},
        )
    )
    # Two jobs on generated files; kind, subcommand and policy mode rotate
    # with the round index (15 jobs a round, like the other workloads).
    kind, path = (("dt", "dt"), ("ct_affine", "affine"), ("ct_expr", "expr"))[index % 3]
    name = generated[kind][index % len(GENERATED_MODES)]
    jobs.append(Job("cli.simulate", path, {"cmd": "simulate", "scenario": name, "args": []}))
    cmd, kind, path, args = (
        ("compare", "dt", "dt", []),
        ("field", "ct_affine", "none", ["--resolution", "31"]),
        ("analyze", "ct_expr", "none", ["--resolution", "96"]),
    )[index % 3]
    name = generated[kind][(index // 3) % len(GENERATED_MODES)]
    jobs.append(Job(f"cli.{cmd}", path, {"cmd": cmd, "scenario": name, "args": args}))
    rng.shuffle(jobs)
    return jobs


class Workload:
    def __init__(self, name: str, seed: int, ctx: Context):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.ctx = name, seed, ctx
        self.generated: dict[str, list[str]] = {}

    def rounds(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        index = 0
        while True:
            if self.name == "sweep":
                yield _sweep_round(rng, index)
            elif self.name == "analysis":
                yield _analysis_round(rng, index)
            else:
                yield _cli_round(rng, index, self.generated)
            index += 1


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Set up a workload: its scratch directory, generated scenario files and
    the shipped-scenario digests its checks compare against."""
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=root, work=work)
    workload = Workload(name, seed, ctx)
    if name == "cli":
        import fairdyn.cli  # noqa: F401  (part of the cli workload's set-up)

        ctx.out.mkdir(parents=True, exist_ok=True)
        ctx.digests = json.loads(DIGESTS_FILE.read_text())
        workload.generated = _write_generated(
            random.Random(f"cli-inputs:{seed}"), work / "scenarios"
        )
    return workload


# -- execution --------------------------------------------------------------


def _state(p: dict) -> core.PopulationState:
    return core.PopulationState.of(p["pi_a"], p["pi_b"], p["g_a"])


def _utility(p: dict) -> core.UtilitySpec:
    return core.UtilitySpec(u0=p["u0"], u1=p["u1"])


def execute(job: Job, ctx: Context):
    p = job.params
    if job.kind == "theorem4":
        return analysis.theorem4_limits(make_dynamics(p["dyn"]), _state(p), _utility(p))
    if job.kind == "compare":
        dyn = make_dynamics(p["dyn"])
        return [
            dynamics.ct_integrate(
                _state(p),
                mode,
                _utility(p),
                dyn,
                t_end=p["t_end"],
                h=p["h"],
                stop_tol=p["stop_tol"],
                check_step_halving=p["halving"],
            )
            for mode in p["modes"]
        ]
    if job.kind == "analysis":
        return _execute_analysis(p)
    return _execute_cli(p, ctx)


def _execute_analysis(p: dict) -> dict:
    dyn = make_dynamics(p["dyn"])
    u = _utility(p)
    report = analysis.estimate_contraction(dyn, resolution=p["resolution"])
    if dyn.declared_l0 is not None or dyn.declared_l1 is not None:
        dyn.validate_declared(resolution=p["resolution"])
    return {
        "dyn": dyn,
        "report": report,
        "status_quo": analysis.check_status_quo_bias(dyn, resolution=p["resolution"]),
        "atlas": analysis.find_equilibria(dyn, mode=p["eq_mode"]),
        "verdict": analysis.theorem2_verdict(report.l_un, report.l_aa2, p["g_a"], u),
        "persistence": analysis.prop3_case_persistence(p["g_a"], u),
        "field": scenario.export_field(
            dyn, p["mode"], u, resolution=p["field_resolution"], g_a=p["g_a"]
        ),
    }


def _execute_cli(p: dict, ctx: Context) -> tuple[int, str]:
    from fairdyn import cli

    argv = [p["cmd"]]
    if p["cmd"] != "verify":
        argv += [str(ctx.scenario_file(p["scenario"])), "--out", str(ctx.out)]
    argv += p["args"]
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


# -- checks -----------------------------------------------------------------


def _check_record(rec, problems: list[str], label: str) -> None:
    for name in ("pi_a", "pi_b"):
        values = getattr(rec, name)
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"{label}: {name} leaves [0, 1] or is not finite")


def _check_oracle(state: core.PopulationState, u: core.UtilitySpec, problems, label) -> None:
    closed = policy.aa_policy(state, u).achieved_utility
    oracle = policy.lp_oracle(state, u, parity_constrained=True).achieved_utility
    if abs(closed - oracle) > 1e-9:
        problems.append(f"{label}: closed form {closed!r} vs LP oracle {oracle!r}")


def _check_parsed_appendix_c(points, problems: list[str]) -> None:
    """The parsed Appendix C formulas match the native maps within 1e-12."""
    f0 = expr.compile_expression(APPENDIX_C_F0)
    f1 = expr.compile_expression(APPENDIX_C_F1)
    native = dynamics.appendix_c_dynamics()
    for b0, b1 in points:
        if abs(f0(b0, b1) - native.f0(b0, b1)) > 1e-12 or abs(f1(b0, b1) - native.f1(b0, b1)) > 1e-12:
            problems.append(f"parsed appendixC differs from native at ({b0!r}, {b1!r})")
            return


def _check_theorem4(p: dict, rec) -> list[str]:
    problems: list[str] = []
    aa2 = rec.limits["AA2"]
    if not (aa2.converged and rec.aa2_equalized):
        problems.append(f"theorem4: AA2 limits not equalized: {aa2.limit}")
    for mode, limit in rec.limits.items():
        _check_record(limit.record, problems, f"theorem4 {mode}")
    return problems


def _check_compare(p: dict, records) -> list[str]:
    problems: list[str] = []
    u = _utility(p)
    affine_family = p["dyn"]["family"] in ("affine", "constant", "expr-affine")
    for mode, rec in zip(p["modes"], records):
        label = f"compare {mode}"
        _check_record(rec, problems, label)
        final = core.PopulationState.of(float(rec.pi_a[-1]), float(rec.pi_b[-1]), p["g_a"])
        _check_oracle(final, u, problems, label)
        if p["halving"]:
            # The size of the step-halving difference depends on the dynamics
            # (kinks where the advantaged group changes make it large); what
            # must hold is that it is finite and that its flag matches it.
            diff = rec.extras["step_halving_diff"]
            if not math.isfinite(diff) or rec.extras["step_halving_ok"] != (diff <= 1e-6):
                problems.append(f"{label}: step-halving record inconsistent: {rec.extras}")
        if affine_family and mode != "UN" and abs(rec.delta[-1]) > abs(rec.delta[0]) + 1e-12:
            problems.append(f"{label}: gap grew under contractive dynamics")
        if p["dyn"]["family"] == "expr-appendixC":
            step = max(1, len(rec.times) // 16)
            _check_parsed_appendix_c(
                [
                    (float(rec.tau0_a[i] * (1.0 - rec.pi_a[i])), float(rec.tau1_a[i] * rec.pi_a[i]))
                    for i in range(0, len(rec.times), step)
                ],
                problems,
            )
    return problems


def _check_analysis(p: dict, out: dict) -> list[str]:
    problems: list[str] = []
    rep = out["report"]
    values = (rep.l_un, rep.l_aa1, rep.l_aa2, rep.l0, rep.l1)
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        problems.append(f"contraction constants not finite and >= 0: {values}")
    if rep.l_aa2 < rep.l_aa1 - 1e-12 or rep.l_un < rep.l_aa1 - 1e-12:
        problems.append(f"contraction ordering broken: {values}")
    dyn = out["dyn"]
    sq = out["status_quo"]
    if not sq.holds:
        x, y = sq.counterexample
        if not dyn.f1_clamped(x, y) < dyn.f0_clamped(x, y) - 1e-12:
            problems.append(f"status-quo counterexample {sq.counterexample} does not violate")
    atlas = out["atlas"]
    f = analysis.un_map(dyn)
    for r in [eq.position for eq in atlas.attracting] + atlas.unstable:
        if abs(f(r) - r) > 1e-9:
            problems.append(f"equilibrium {r!r} has residual {f(r) - r!r}")
    if not 0.0 <= out["verdict"].alpha <= 1.0:
        problems.append(f"theorem2 alpha {out['verdict'].alpha!r} outside [0, 1]")
    rows = out["field"]
    if len(rows) != p["field_resolution"] ** 2 or not all(
        math.isfinite(v) for row in rows for v in row
    ):
        problems.append("field rows missing or not finite")
    if p["dyn"]["family"] == "expr-appendixC":
        xs = [i / 7.0 for i in range(8)]
        _check_parsed_appendix_c([(x, y) for x in xs for y in xs], problems)
    return problems


def _numeric_csv_ok(text: str, numeric_columns: range) -> bool:
    lines = text.splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        for i in numeric_columns:
            if not math.isfinite(float(cells[i])):
                return False
    return bool(lines)


NUMERIC_COLUMNS = {"simulate": range(12), "compare": range(1, 5), "field": range(6)}


def _check_cli(p: dict, out: tuple[int, str], ctx: Context) -> list[str]:
    code, stderr = out
    cmd = p["cmd"]
    if code != 0:
        return [f"cli {cmd} {p.get('scenario', '')} exited {code}: {stderr.strip()}"]
    if cmd == "verify":
        return []
    path = ctx.out / f"{p['scenario']}_{OUTPUT_SUFFIX[cmd]}"  # file stem == scenario name
    data = path.read_bytes()
    if cmd == "analyze":
        return [] if data.startswith(b"[contraction]") else [f"{path.name}: malformed report"]
    key = f"{cmd}/{p['scenario']}"
    if key in ctx.digests:
        digest = hashlib.sha256(data).hexdigest()
        if digest != ctx.digests[key]:
            return [f"{path.name}: sha256 {digest} differs from the recorded {ctx.digests[key]}"]
        return []
    if not _numeric_csv_ok(data.decode(), NUMERIC_COLUMNS[cmd]):
        return [f"{path.name}: empty or non-finite rows"]
    return []


def check(job: Job, result, ctx: Context) -> list[str]:
    if job.kind == "theorem4":
        return _check_theorem4(job.params, result)
    if job.kind == "compare":
        return _check_compare(job.params, result)
    if job.kind == "analysis":
        return _check_analysis(job.params, result)
    return _check_cli(job.params, result, ctx)


def record_digests(root: Path, work: Path) -> dict[str, str]:
    """sha256 of every shipped-scenario CSV the cli workload writes.

    digests.json holds the output of this function at the commit that added
    the benchmark; regenerate it only when a change is meant to alter the
    CSV bytes:

        PYTHONPATH=src:perfbench python3 -c "import json, pathlib, workloads; \\
            print(json.dumps(workloads.record_digests(pathlib.Path('.'), \\
            pathlib.Path('.bench_out/digests')), indent=1, sort_keys=True))"
    """
    ctx = Context(root=root, work=work)
    digests = {}
    for cmd in ("simulate", "compare", "field"):
        for name in SHIPPED:
            code, stderr = _execute_cli({"cmd": cmd, "scenario": name, "args": []}, ctx)
            if code != 0:
                raise RuntimeError(f"{cmd} {name} exited {code}: {stderr}")
            data = (ctx.out / f"{name}_{OUTPUT_SUFFIX[cmd]}").read_bytes()
            digests[f"{cmd}/{name}"] = hashlib.sha256(data).hexdigest()
    return digests
