"""Scenario files, batch execution and bit-stable serialization.

Scenario files are flat key=value text with sections, read by configparser.
All numeric CSV output is formatted with 17 significant digits so identical
runs produce byte-identical files on the same platform.
"""

from __future__ import annotations

import configparser
import math
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
    BUILTIN_PARAMS,
    DynamicsSpec,
    TrajectoryRecord,
    ct_gradient,
    ct_integrate,
    ct_steps,
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


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _names(raw: str) -> list[str]:
    return [s.strip() for s in raw.split(",") if s.strip()]


def _schedule(raw: str) -> float | list[float]:
    """One float, or a comma-separated per-step schedule of floats."""
    parts = _names(raw)
    if len(parts) == 1:
        return float(parts[0])
    return [float(p) for p in parts]


def _fmt_schedule(value: float | list[float]) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value)


# Value types of the format table: (read from text, write as text).
_STR = (str, str)
_INT = (int, str)
_FLOAT = (float, _fmt)
_NAMES = (_names, ",".join)
_SCHEDULE = (_schedule, _fmt_schedule)


def scenario_format(builtin: str | None = None) -> list[tuple]:
    """The scenario file format, one row per key in file order: (section,
    key, Scenario attribute, value type).

    [dynamics] holds either the expressions f0, f1 (builtin None) or
    `builtin = <name>` and that builtin's parameters (dynamics.BUILTIN_PARAMS),
    which are kept in Scenario.dynamics_params.
    """
    if builtin is None:
        dynamics = [("dynamics", "f0", "expr_f0", _STR), ("dynamics", "f1", "expr_f1", _STR)]
    elif builtin in BUILTIN_PARAMS:
        dynamics = [("dynamics", "builtin", "dynamics_builtin", _STR)] + [
            ("dynamics", key, "dynamics_params", _FLOAT) for key in BUILTIN_PARAMS[builtin]
        ]
    else:
        raise ScenarioError(
            f"unknown builtin dynamics {builtin!r} in [dynamics]; "
            f"allowed: {', '.join(BUILTIN_PARAMS)}"
        )
    return [
        ("scenario", "name", "name", _STR),
        ("scenario", "mode", "mode", _STR),
        ("scenario", "time", "time_mode", _STR),
        ("scenario", "steps", "steps", _INT),
        ("scenario", "t_end", "t_end", _FLOAT),
        ("scenario", "h", "h", _FLOAT),
        ("scenario", "sample_every", "sample_every", _INT),
        ("scenario", "outputs", "outputs", _NAMES),
        *dynamics,
        ("dynamics", "l0", "declared_l0", _FLOAT),
        ("dynamics", "l1", "declared_l1", _FLOAT),
        ("state", "piA", "pi_a", _FLOAT),
        ("state", "piB", "pi_b", _FLOAT),
        ("state", "gA", "g_a", _FLOAT),
        ("utility", "u0", "u0", _FLOAT),
        ("utility", "u1", "u1", _FLOAT),
        ("stereotype", "epsA", "eps_a", _SCHEDULE),
        ("stereotype", "epsB", "eps_b", _SCHEDULE),
    ]


def _read(section: str, key: str, kind: tuple, raw: str):
    try:
        return kind[0](raw)
    except ValueError as exc:
        raise ScenarioError(f"bad value {raw!r} for {key!r} in [{section}]: {exc}") from None


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
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ScenarioError(f"name {self.name!r} in [scenario] must be a plain file name")
        if self.mode not in ("UN", "AA", "AA1", "AA2"):
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if self.time_mode not in ("DT", "CT"):
            raise ScenarioError(f"unknown time mode {self.time_mode!r}")
        if self.steps < 0:
            raise ScenarioError("steps must be >= 0")
        try:
            ct_steps(self.t_end, self.h, self.sample_every)
        except ValueError as exc:
            raise ScenarioError(f"[scenario] {exc}") from exc
        if (self.dynamics_builtin is None) == (self.expr_f0 is None):
            raise ScenarioError("specify exactly one of builtin dynamics or expressions")
        scenario_format(self.dynamics_builtin)  # rejects an unknown builtin
        if self.expr_f0 is not None and self.expr_f1 is None:
            raise ScenarioError("expression dynamics need both f0 and f1")
        for key, declared in (("l0", self.declared_l0), ("l1", self.declared_l1)):
            if declared is not None and not (math.isfinite(declared) and declared >= 0.0):
                raise ScenarioError(f"{key} in [dynamics] must be finite and >= 0, got {declared!r}")
        try:
            self.initial_state()
            self.utility_spec()
            self.make_dynamics()
        except KeyError as exc:  # the builtin is known, so a parameter is missing
            raise ScenarioError(
                f"missing key {exc.args[0]!r} in [dynamics] for builtin = {self.dynamics_builtin}"
            ) from exc
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        unknown = set(self.outputs) - set(OUTPUT_FILES)
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
        """Every set field in scenario_format order; from_text reads it back."""
        sections: dict[str, list[str]] = {}
        for section, key, attr, kind in scenario_format(self.dynamics_builtin):
            if attr == "dynamics_params":
                value = self.dynamics_params.get(key)
            else:
                value = getattr(self, attr)
            if value is not None:
                sections.setdefault(section, [f"[{section}]"]).append(f"{key} = {kind[1](value)}")
        return "\n".join("\n".join(lines) + "\n" for lines in sections.values())

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
        if cp.defaults():
            raise ScenarioError(f"unknown section [{cp.default_section}]")
        builtin = cp["dynamics"].get("builtin") if cp.has_section("dynamics") else None
        rows = scenario_format(builtin)
        scenario = Scenario(name="unnamed")
        for section in cp.sections():
            keys = {row[1]: row for row in rows if row[0] == section}
            if not keys:
                raise ScenarioError(f"unknown section [{section}]")
            for key, raw in cp[section].items():
                if key not in keys:
                    where = f"[{section}]"
                    if section == "dynamics" and builtin is not None:
                        where += f" for builtin = {builtin}"
                    raise ScenarioError(
                        f"unknown key {key!r} in {where}; allowed: {', '.join(keys)}"
                    )
                _, _, attr, kind = keys[key]
                value = _read(section, key, kind, raw)
                if attr == "dynamics_params":
                    scenario.dynamics_params[key] = value
                else:
                    setattr(scenario, attr, value)
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
    try:
        verdict = theorem2_verdict(report.l_un, report.l_aa2, scenario.g_a, u)
    except ValueError:  # alpha undefined
        lines.append("alpha = undefined")
    else:
        lines += [
            f"alpha = {_fmt(verdict.alpha)}",
            f"lower_ok = {verdict.lower_ok}",
            f"upper_ok = {verdict.upper_ok}",
            f"applies = {verdict.applies}",
        ]
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


# Artifact kind -> file-name suffix; the file is {scenario name}_{suffix}.
OUTPUT_FILES = {
    "trajectory": "trajectory.csv",
    "analysis": "analysis.txt",
    "compare": "compare.csv",
    "field": "field.csv",
}


def write_output(
    scenario: Scenario,
    kind: str,
    out_dir: str | Path,
    strict: bool = False,
    resolution: int | None = None,
) -> Path:
    """Write one artifact of a validated scenario into out_dir (created if
    missing) and return its path. resolution overrides the grid of
    `analysis` (default 256) and `field` (default 41)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{scenario.name}_{OUTPUT_FILES[kind]}"
    if kind == "trajectory":
        write_trajectory_csv(scenario.run_trajectory(strict=strict), path)
    elif kind == "analysis":
        write_analysis_report(scenario, path, resolution=resolution or 256)
    elif kind == "compare":
        write_compare_csv(scenario, path, strict=strict)
    else:
        rows = export_field(
            scenario.make_dynamics(),
            scenario.mode,
            scenario.utility_spec(),
            resolution=resolution or 41,
            g_a=scenario.g_a,
        )
        write_field_csv(rows, path)
    return path


def run_scenario(
    scenario: Scenario,
    out_dir: str | Path,
    strict: bool = False,
    resolution: int | None = None,
) -> list[Path]:
    """Produce every artifact the scenario requests; returns written paths."""
    scenario.validate()
    return [write_output(scenario, kind, out_dir, strict, resolution) for kind in scenario.outputs]
