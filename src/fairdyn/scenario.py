"""Scenario files, batch execution and bit-stable serialization.

Scenario files are flat key=value text with sections, read by configparser.
All numeric CSV output is formatted with 17 significant digits so identical
runs produce byte-identical files on the same platform.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    check_status_quo_bias,
    estimate_contraction,
    find_equilibria,
    prop3_case_persistence,
    theorem2_verdict,
)
from .core import PopulationState, UtilitySpec
from .dynamics import (
    BUILTIN_NAMES,
    DynamicsSpec,
    TrajectoryRecord,
    ct_gradient,
    ct_integrate,
    dt_trajectory,
    make_builtin,
    parse_dynamics,
)
from .stereotype import StereotypeSpec, stereotype_trajectory

TRAJECTORY_COLUMNS = (
    "t,piA,piB,delta,tau1A,tau0A,tau1B,tau0B,betaA,betaB,"
    "stepUtility,cumUtility,caseTag,eventFlags"
)
FIELD_COLUMNS = "piB,piA,dA,dB,diffA,diffB"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_STRICT = 3
EXIT_STEREOTYPE = 4


class ScenarioError(ValueError):
    pass


# Keys each section accepts. [dynamics] keys depend on its form: a builtin
# name, or None for expression dynamics; every form also takes l0 and l1.
_DYNAMICS_KEYS = {
    None: ("f0", "f1", "l0", "l1"),
    "constant": ("builtin", "f0", "f1", "l0", "l1"),
    "affine": ("builtin", "a0", "c0", "d0", "a1", "c1", "d1", "l0", "l1"),
    "appendixC": ("builtin", "l0", "l1"),
}
_SECTION_KEYS = {
    "scenario": ("name", "mode", "time", "steps", "t_end", "h", "sample_every", "outputs"),
    "dynamics": _DYNAMICS_KEYS[None],
    "state": ("piA", "piB", "gA"),
    "utility": ("u0", "u1"),
    "stereotype": ("epsA", "epsB"),
}


def _check_keys(cp: configparser.ConfigParser) -> None:
    """Reject sections and keys the scenario format does not define."""
    if cp.defaults():
        raise ScenarioError(f"unknown section [{cp.default_section}]")
    for name in cp.sections():
        if name not in _SECTION_KEYS:
            raise ScenarioError(f"unknown section [{name}]")
        allowed, where = _SECTION_KEYS[name], f"[{name}]"
        if name == "dynamics":
            builtin = cp[name].get("builtin")
            if builtin not in _DYNAMICS_KEYS:
                continue  # validate() names the unknown builtin
            allowed = _DYNAMICS_KEYS[builtin]
            if builtin is not None:
                where += f" for builtin = {builtin}"
        for key in cp[name]:
            if key not in allowed:
                raise ScenarioError(
                    f"unknown key {key!r} in {where}; allowed: {', '.join(allowed)}"
                )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class Scenario:
    name: str
    mode: str = "UN"
    time_mode: str = "DT"
    steps: int = 50
    t_end: float = 10.0
    h: float = 1e-3
    sample_every: int | None = None
    dynamics_builtin: str | None = None
    dynamics_params: dict[str, float] = field(default_factory=dict)
    expr_f0: str | None = None
    expr_f1: str | None = None
    declared_l0: float | None = None
    declared_l1: float | None = None
    pi_a: float = 0.5
    pi_b: float = 0.5
    g_a: float = 0.5
    u0: float = -1.0
    u1: float = 1.0
    eps_a: float | list[float] | None = None
    eps_b: float | list[float] | None = None
    outputs: list[str] = field(default_factory=lambda: ["trajectory"])

    def validate(self) -> None:
        if self.mode not in ("UN", "AA", "AA1", "AA2"):
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if self.time_mode not in ("DT", "CT"):
            raise ScenarioError(f"unknown time mode {self.time_mode!r}")
        if self.steps < 0:
            raise ScenarioError("steps must be >= 0")
        if self.t_end < 0 or self.h <= 0:
            raise ScenarioError("need t_end >= 0 and h > 0")
        if (self.dynamics_builtin is None) == (self.expr_f0 is None):
            raise ScenarioError("specify exactly one of builtin dynamics or expressions")
        if self.dynamics_builtin is not None and self.dynamics_builtin not in BUILTIN_NAMES:
            raise ScenarioError(f"unknown builtin dynamics {self.dynamics_builtin!r}")
        if self.expr_f0 is not None and self.expr_f1 is None:
            raise ScenarioError("expression dynamics need both f0 and f1")
        try:
            self.initial_state()
            self.utility_spec()
            self.make_dynamics()
        except (ValueError, KeyError) as exc:
            raise ScenarioError(str(exc)) from exc
        unknown = set(self.outputs) - {"trajectory", "analysis", "compare", "field"}
        if unknown:
            raise ScenarioError(f"unknown outputs: {sorted(unknown)}")

    def make_dynamics(self) -> DynamicsSpec:
        if self.dynamics_builtin is not None:
            return make_builtin(self.dynamics_builtin, self.dynamics_params)
        return parse_dynamics(
            self.expr_f0,
            self.expr_f1,
            name=f"{self.name}-expr",
            declared_l0=self.declared_l0,
            declared_l1=self.declared_l1,
        )

    def initial_state(self) -> PopulationState:
        return PopulationState.of(self.pi_a, self.pi_b, self.g_a)

    def utility_spec(self) -> UtilitySpec:
        return UtilitySpec(u0=self.u0, u1=self.u1)

    def stereotype_spec(self) -> StereotypeSpec | None:
        if self.eps_a is None and self.eps_b is None:
            return None
        return StereotypeSpec(eps_a=self.eps_a or 0.0, eps_b=self.eps_b or 0.0)

    def run_trajectory(self, strict: bool = False) -> TrajectoryRecord:
        dyn = self.make_dynamics()
        state0 = self.initial_state()
        u = self.utility_spec()
        eps = self.stereotype_spec()
        if eps is not None:
            if self.time_mode != "DT":
                raise ScenarioError("stereotype schedules are supported in DT only")
            return stereotype_trajectory(
                state0, self.mode, u, dyn, eps, self.steps, strict=strict
            )
        if self.time_mode == "DT":
            return dt_trajectory(state0, self.mode, u, dyn, self.steps, strict=strict)
        return ct_integrate(
            state0,
            self.mode,
            u,
            dyn,
            t_end=self.t_end,
            h=self.h,
            sample_every=self.sample_every,
            strict=strict,
        )

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        out = io.StringIO()
        out.write("[scenario]\n")
        out.write(f"name = {self.name}\n")
        out.write(f"mode = {self.mode}\n")
        out.write(f"time = {self.time_mode}\n")
        if self.time_mode == "DT":
            out.write(f"steps = {self.steps}\n")
        else:
            out.write(f"t_end = {_fmt(self.t_end)}\n")
            out.write(f"h = {_fmt(self.h)}\n")
            if self.sample_every is not None:
                out.write(f"sample_every = {self.sample_every}\n")
        out.write(f"outputs = {','.join(self.outputs)}\n")
        out.write("\n[dynamics]\n")
        if self.dynamics_builtin is not None:
            out.write(f"builtin = {self.dynamics_builtin}\n")
            for key in sorted(self.dynamics_params):
                out.write(f"{key} = {_fmt(self.dynamics_params[key])}\n")
        else:
            out.write(f"f0 = {self.expr_f0}\n")
            out.write(f"f1 = {self.expr_f1}\n")
        if self.declared_l0 is not None:
            out.write(f"l0 = {_fmt(self.declared_l0)}\n")
        if self.declared_l1 is not None:
            out.write(f"l1 = {_fmt(self.declared_l1)}\n")
        out.write("\n[state]\n")
        out.write(f"piA = {_fmt(self.pi_a)}\n")
        out.write(f"piB = {_fmt(self.pi_b)}\n")
        out.write(f"gA = {_fmt(self.g_a)}\n")
        out.write("\n[utility]\n")
        out.write(f"u0 = {_fmt(self.u0)}\n")
        out.write(f"u1 = {_fmt(self.u1)}\n")
        if self.eps_a is not None or self.eps_b is not None:
            out.write("\n[stereotype]\n")
            for key, val in (("epsA", self.eps_a), ("epsB", self.eps_b)):
                if val is None:
                    continue
                if isinstance(val, (list, tuple)):
                    out.write(f"{key} = {','.join(_fmt(v) for v in val)}\n")
                else:
                    out.write(f"{key} = {_fmt(val)}\n")
        return out.getvalue()

    @staticmethod
    def from_text(text: str) -> "Scenario":
        cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
        cp.optionxform = str  # keep key case (piA vs pia)
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ScenarioError(f"malformed scenario file: {exc}") from exc
        if "scenario" not in cp:
            raise ScenarioError("missing [scenario] section")
        _check_keys(cp)
        sc = cp["scenario"]
        scenario = Scenario(name=sc.get("name", "unnamed"))
        scenario.mode = sc.get("mode", "UN")
        scenario.time_mode = sc.get("time", "DT")
        if "steps" in sc:
            scenario.steps = sc.getint("steps")
        if "t_end" in sc:
            scenario.t_end = sc.getfloat("t_end")
        if "h" in sc:
            scenario.h = sc.getfloat("h")
        if "sample_every" in sc:
            scenario.sample_every = sc.getint("sample_every")
        if "outputs" in sc:
            scenario.outputs = [s.strip() for s in sc.get("outputs").split(",") if s.strip()]
        dyn = cp["dynamics"] if "dynamics" in cp else {}
        if "builtin" in dyn:
            scenario.dynamics_builtin = dyn["builtin"]
            scenario.dynamics_params = {
                k: float(v) for k, v in dyn.items() if k not in ("builtin", "l0", "l1")
            }
        else:
            scenario.expr_f0 = dyn.get("f0")
            scenario.expr_f1 = dyn.get("f1")
        if "l0" in dyn:
            scenario.declared_l0 = float(dyn["l0"])
        if "l1" in dyn:
            scenario.declared_l1 = float(dyn["l1"])
        if "state" in cp:
            st = cp["state"]
            scenario.pi_a = st.getfloat("piA", scenario.pi_a)
            scenario.pi_b = st.getfloat("piB", scenario.pi_b)
            scenario.g_a = st.getfloat("gA", scenario.g_a)
        if "utility" in cp:
            ut = cp["utility"]
            scenario.u0 = ut.getfloat("u0", scenario.u0)
            scenario.u1 = ut.getfloat("u1", scenario.u1)
        if "stereotype" in cp:
            ster = cp["stereotype"]

            def parse_eps(raw: str):
                parts = [p.strip() for p in raw.split(",") if p.strip()]
                if len(parts) == 1:
                    return float(parts[0])
                return [float(p) for p in parts]

            if "epsA" in ster:
                scenario.eps_a = parse_eps(ster["epsA"])
            if "epsB" in ster:
                scenario.eps_b = parse_eps(ster["epsB"])
        scenario.validate()
        return scenario

    @staticmethod
    def from_file(path: str | Path) -> "Scenario":
        return Scenario.from_text(Path(path).read_text())


# -- artifact writers -----------------------------------------------------


def write_trajectory_csv(record: TrajectoryRecord, path: str | Path) -> None:
    lines = [TRAJECTORY_COLUMNS]
    for i in range(len(record.times)):
        lines.append(
            ",".join(
                [
                    _fmt(record.times[i]),
                    _fmt(record.pi_a[i]),
                    _fmt(record.pi_b[i]),
                    _fmt(record.pi_a[i] - record.pi_b[i]),
                    _fmt(record.tau1_a[i]),
                    _fmt(record.tau0_a[i]),
                    _fmt(record.tau1_b[i]),
                    _fmt(record.tau0_b[i]),
                    _fmt(record.beta_a[i]),
                    _fmt(record.beta_b[i]),
                    _fmt(record.step_utility[i]),
                    _fmt(record.running_utility[i]),
                    record.case_tags[i],
                    record.flags[i],
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def export_field(
    dyn: DynamicsSpec,
    mode: str,
    u: UtilitySpec,
    resolution: int = 41,
    g_a: float = 0.5,
) -> list[tuple[float, float, float, float, float, float]]:
    """CT gradient grid over (piB, piA), plus the difference against UN for
    the constrained modes (zero for UN itself)."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    grid = np.linspace(0.0, 1.0, resolution)
    rows = []
    for pb in grid:
        for pa in grid:
            da, db = ct_gradient(pa, pb, g_a, mode, u, dyn)
            if mode == "UN":
                diff_a = diff_b = 0.0
            else:
                ua, ub = ct_gradient(pa, pb, g_a, "UN", u, dyn)
                diff_a, diff_b = da - ua, db - ub
            rows.append((float(pb), float(pa), da, db, diff_a, diff_b))
    return rows


def write_field_csv(rows, path: str | Path) -> None:
    lines = [FIELD_COLUMNS]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_analysis_report(scenario: Scenario, path: str | Path, resolution: int = 256) -> None:
    dyn = scenario.make_dynamics()
    u = scenario.utility_spec()
    report = estimate_contraction(dyn, resolution=resolution)
    sq = check_status_quo_bias(dyn, resolution=min(resolution, 256))
    atlas = find_equilibria(dyn, mode=scenario.time_mode)
    persistence = prop3_case_persistence(scenario.g_a, u)

    lines = [
        "[contraction]",
        f"method = {report.method}",
        f"resolution = {report.grid_resolution}",
        f"L0 = {_fmt(report.l0)}",
        f"L1 = {_fmt(report.l1)}",
        f"L_UN = {_fmt(report.l_un)}",
        f"L_AA1 = {_fmt(report.l_aa1)}",
        f"L_AA2 = {_fmt(report.l_aa2)}",
        f"contractive_UN = {report.is_contractive_un}",
        f"contractive_AA1 = {report.is_contractive_aa1}",
        f"contractive_AA2 = {report.is_contractive_aa2}",
    ]
    if report.l_un_upper is not None:
        lines.append(f"L_UN_upper = {_fmt(report.l_un_upper)}")
        lines.append(f"L_AA2_upper = {_fmt(report.l_aa2_upper)}")
    lines += [
        "",
        "[status_quo_bias]",
        f"holds = {sq.holds}",
    ]
    if sq.counterexample is not None:
        lines.append(
            f"counterexample = {_fmt(sq.counterexample[0])},{_fmt(sq.counterexample[1])}"
        )
    lines += [
        "",
        "[equilibria]",
        f"mode = {atlas.mode}",
        f"degenerate = {atlas.degenerate}",
        f"k = {atlas.k}",
        f"k_valid = {atlas.k_valid}",
    ]
    for i, eq in enumerate(atlas.attracting):
        lines.append(
            f"attracting_{i} = {_fmt(eq.position)} rate={_fmt(eq.rate)} radius={_fmt(eq.radius)}"
        )
    for i, d in enumerate(atlas.unstable):
        lines.append(f"unstable_{i} = {_fmt(d)}")
    lines += ["", "[theorem2]"]
    denom = (1.0 - scenario.g_a) * u.u1 + abs(u.u0)
    if denom > 0.0:
        verdict = theorem2_verdict(report.l_un, report.l_aa2, scenario.g_a, u)
        lines += [
            f"alpha = {_fmt(verdict.alpha)}",
            f"lower_ok = {verdict.lower_ok}",
            f"upper_ok = {verdict.upper_ok}",
            f"applies = {verdict.applies}",
        ]
    else:
        lines.append("alpha = undefined")
    lines += [
        "",
        "[case_persistence]",
        f"always_AA1 = {persistence.always_aa1}",
        f"always_AA2 = {persistence.always_aa2}",
        f"persistent_case = {persistence.persistent_case}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def write_compare_csv(scenario: Scenario, path: str | Path, strict: bool = False) -> None:
    lines = ["mode,cumulativeUtility,finalPiA,finalPiB,finalDelta"]
    for mode in ("UN", "AA1", "AA2"):
        sub = Scenario(**{**scenario.__dict__, "name": scenario.name, "mode": mode})
        sub.eps_a = sub.eps_b = None
        rec = sub.run_trajectory(strict=strict)
        lines.append(
            ",".join(
                [
                    mode,
                    _fmt(rec.cumulative_utility),
                    _fmt(rec.pi_a[-1]),
                    _fmt(rec.pi_b[-1]),
                    _fmt(rec.pi_a[-1] - rec.pi_b[-1]),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def run_scenario(
    scenario: Scenario,
    out_dir: str | Path,
    strict: bool = False,
    resolution: int | None = None,
) -> list[Path]:
    """Produce every artifact the scenario requests; returns written paths."""
    scenario.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for kind in scenario.outputs:
        if kind == "trajectory":
            path = out / f"{scenario.name}_trajectory.csv"
            write_trajectory_csv(scenario.run_trajectory(strict=strict), path)
        elif kind == "analysis":
            path = out / f"{scenario.name}_analysis.txt"
            write_analysis_report(scenario, path, resolution=resolution or 256)
        elif kind == "compare":
            path = out / f"{scenario.name}_compare.csv"
            write_compare_csv(scenario, path, strict=strict)
        elif kind == "field":
            path = out / f"{scenario.name}_field.csv"
            rows = export_field(
                scenario.make_dynamics(),
                scenario.mode,
                scenario.utility_spec(),
                resolution=resolution or 41,
                g_a=scenario.g_a,
            )
            write_field_csv(rows, path)
        else:  # pragma: no cover - validate() rejects these
            raise ScenarioError(f"unknown output {kind!r}")
        written.append(path)
    return written
