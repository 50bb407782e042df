"""Scenario files, batch execution and bit-stable serialization.

Scenario files are flat key=value text with sections, read by configparser.
All numeric CSV output is formatted with 17 significant digits so identical
runs produce byte-identical files on the same platform.
"""

from __future__ import annotations

import configparser
import math
import numbers
import struct
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import (
    check_status_quo_bias,
    estimate_contraction,
    find_equilibria,
    prop3_case_persistence,
)
from .core import PopulationState, UtilitySpec
from .dynamics import (
    BUILTIN_PARAMS,
    DynamicsSpec,
    TrajectoryRecord,
    ct_field,
    ct_gradient,
    ct_integrate,
    ct_steps,
    dt_trajectory,
    grid_axis,
    make_builtin,
    parse_dynamics,
    step_count,
)
from .expr import ExpressionError, compile_expression
from .policy import MODE_CODES
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


# Every number in an artifact: 17 significant digits give back the double.
_FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT_FORMAT % float(x)


def _value(v) -> str:
    """One value of a text artifact (scenario file, analysis report, compare
    row): a list or tuple as its items joined by ',', an integer (a bool
    too) by str, any other real number by _fmt, anything else by str."""
    if isinstance(v, (list, tuple)):
        return ",".join(map(_value, v))
    if isinstance(v, numbers.Real) and not isinstance(v, numbers.Integral):
        return _fmt(v)
    return str(v)


def _sections(sections: dict[str, list[tuple[str, object]]]) -> str:
    """Each section as its [name] line and then one `key = value` line per
    pair, values by _value; a blank line between sections, a newline at the
    end. Scenario.from_text reads this format."""
    return "\n".join(
        "".join([f"[{name}]\n", *(f"{key} = {_value(value)}\n" for key, value in pairs)])
        for name, pairs in sections.items()
    )


# One CSV row as one %-template: the numbers as _fmt writes them, then the
# trajectory's case tag and event flags as they are.
_TRAJECTORY_ROW = ",".join([_FLOAT_FORMAT] * 12 + ["%s"] * 2)
_FIELD_ROW = ",".join([_FLOAT_FORMAT] * 6)


def _names(raw: str) -> list[str]:
    return [s.strip() for s in raw.split(",") if s.strip()]


def _schedule(raw: str) -> float | list[float]:
    """One finite float, or a comma-separated per-step schedule of them; an
    empty entry does not parse."""
    values = [float(p) for p in raw.split(",")]
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"schedule entries must be finite, got {value!r}")
    return values[0] if len(values) == 1 else values


def scenario_format(builtin: str | None = None) -> list[tuple]:
    """The scenario file format, one row per key in file order: (section,
    key, Scenario attribute, reader). The reader parses the value's text;
    to_text writes every value by _value, whose text each reader reads back.

    [dynamics] holds either the expressions f0, f1 and their declared
    Lipschitz bounds l0, l1 (builtin None) or `builtin = <name>` and that
    builtin's parameters (dynamics.BUILTIN_PARAMS), which are kept in
    Scenario.dynamics_params.
    """
    if builtin is None:
        dynamics = [
            ("dynamics", "f0", "expr_f0", str),
            ("dynamics", "f1", "expr_f1", str),
            ("dynamics", "l0", "declared_l0", float),
            ("dynamics", "l1", "declared_l1", float),
        ]
    elif builtin in BUILTIN_PARAMS:
        dynamics = [("dynamics", "builtin", "dynamics_builtin", str)] + [
            ("dynamics", key, "dynamics_params", float) for key in BUILTIN_PARAMS[builtin]
        ]
    else:
        raise ScenarioError(
            f"unknown builtin dynamics {builtin!r} in [dynamics]; "
            f"allowed: {', '.join(BUILTIN_PARAMS)}"
        )
    return [
        ("scenario", "name", "name", str),
        ("scenario", "mode", "mode", str),
        ("scenario", "time", "time_mode", str),
        ("scenario", "steps", "steps", int),
        ("scenario", "t_end", "t_end", float),
        ("scenario", "h", "h", float),
        ("scenario", "sample_every", "sample_every", int),
        ("scenario", "outputs", "outputs", _names),
        *dynamics,
        ("state", "piA", "pi_a", float),
        ("state", "piB", "pi_b", float),
        ("state", "gA", "g_a", float),
        ("utility", "u0", "u0", float),
        ("utility", "u1", "u1", float),
        ("stereotype", "epsA", "eps_a", _schedule),
        ("stereotype", "epsB", "eps_b", _schedule),
    ]


def _invalid(source: str) -> bool:
    """Whether compile_expression rejects source."""
    try:
        compile_expression(source)
    except ExpressionError:
        return True
    return False


def _read(section: str, key: str, reader, raw: str):
    try:
        return reader(raw)
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
    # make_dynamics' last spec and the dynamics fields it was built from
    _built: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def validate(self) -> None:
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ScenarioError(f"name {self.name!r} in [scenario] must be a plain file name")
        if self.mode not in MODE_CODES:
            raise ScenarioError(
                f"unknown mode {self.mode!r} in [scenario]; allowed: {', '.join(MODE_CODES)}"
            )
        if self.time_mode not in ("DT", "CT"):
            raise ScenarioError(f"unknown time {self.time_mode!r} in [scenario]; allowed: DT, CT")
        try:
            step_count("steps", self.steps, 0)
            ct_steps(self.t_end, self.h, self.sample_every)
        except ValueError as exc:
            raise ScenarioError(f"[scenario] {exc}") from exc
        expressions = self.expr_f0 is not None or self.expr_f1 is not None
        if (self.dynamics_builtin is not None) == expressions:
            raise ScenarioError("specify exactly one of builtin dynamics or expressions")
        for section, key, attr, reader in scenario_format(self.dynamics_builtin):  # rejects an unknown builtin
            value = getattr(self, attr) if reader is str else None
            if isinstance(value, str) and (value != value.strip() or any(c in value for c in "\n\r;")):
                # to_text could not write it back: from_text strips a value and ends it at ';'
                raise ScenarioError(
                    f"{key} {value!r} in [{section}] has surrounding whitespace, a line break or ';'"
                )
        if (self.expr_f0 is None) != (self.expr_f1 is None):
            raise ScenarioError("expression dynamics need both f0 and f1")
        if self.dynamics_builtin is not None and (
            self.declared_l0 is not None or self.declared_l1 is not None
        ):
            raise ScenarioError("l0 and l1 in [dynamics] apply to expression dynamics only")
        for key, declared in (("l0", self.declared_l0), ("l1", self.declared_l1)):
            if declared is not None and not (math.isfinite(declared) and declared >= 0.0):
                raise ScenarioError(f"{key} in [dynamics] must be finite and >= 0, got {declared!r}")
        for key, value, inside, bounds in (
            ("piA", self.pi_a, 0.0 <= self.pi_a <= 1.0, "[0, 1]"),
            ("piB", self.pi_b, 0.0 <= self.pi_b <= 1.0, "[0, 1]"),
            ("gA", self.g_a, 0.0 < self.g_a < 1.0, "(0, 1)"),
        ):
            if not inside:  # NaN is in no range
                raise ScenarioError(f"{key} = {value!r} in [state] must lie in {bounds}")
        try:
            self.initial_state()
            self.utility_spec()
            self.make_dynamics()
            self.stereotype_spec()
        except KeyError as exc:  # the builtin is known, so a parameter is missing
            raise ScenarioError(
                f"missing key {exc.args[0]!r} in [dynamics] for builtin = {self.dynamics_builtin}"
            ) from exc
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        unknown = set(self.outputs) - set(OUTPUT_FILES)
        if unknown:
            raise ScenarioError(
                f"unknown outputs {sorted(unknown)} in [scenario]; allowed: {', '.join(OUTPUT_FILES)}"
            )

    def make_dynamics(self) -> DynamicsSpec:
        """The scenario's dynamics, built once per set of dynamics fields: a
        validated scenario hands its writers the spec validate() built, and
        a field changed since builds a new one."""
        key = repr((  # repr tells -0.0 from 0.0
            self.name, self.dynamics_builtin, self.dynamics_params,
            self.expr_f0, self.expr_f1, self.declared_l0, self.declared_l1,
        ))
        if self._built is not None and self._built[0] == key:
            return self._built[1]
        if self.dynamics_builtin is not None:
            dyn = make_builtin(self.dynamics_builtin, self.dynamics_params)
        else:
            try:
                dyn = parse_dynamics(
                    self.expr_f0,
                    self.expr_f1,
                    name=f"{self.name}-expr",
                    declared_l0=self.declared_l0,
                    declared_l1=self.declared_l1,
                )
            except ExpressionError as exc:  # parse_dynamics compiles f0 first
                f0_bad = _invalid(self.expr_f0)
                name, source = ("f0", self.expr_f0) if f0_bad else ("f1", self.expr_f1)
                raise ScenarioError(
                    f"bad expression {source!r} for {name!r} in [dynamics]: {exc}"
                ) from exc
        self._built = key, dyn
        return dyn

    def initial_state(self) -> PopulationState:
        return PopulationState.of(self.pi_a, self.pi_b, self.g_a)

    def utility_spec(self) -> UtilitySpec:
        return UtilitySpec(u0=self.u0, u1=self.u1)

    def stereotype_spec(self) -> StereotypeSpec | None:
        """The [stereotype] schedules, or None where there are none. They
        apply to DT runs only (else ScenarioError), and a per-step schedule
        needs an entry for each of the steps + 1 samples (else ValueError)."""
        if self.eps_a is None and self.eps_b is None:
            return None
        if self.time_mode != "DT":
            raise ScenarioError("stereotype schedules are supported in DT only")
        spec = StereotypeSpec(
            eps_a=0.0 if self.eps_a is None else self.eps_a,
            eps_b=0.0 if self.eps_b is None else self.eps_b,
        )
        spec.check_steps(self.steps)
        return spec

    def run_trajectory(self, strict: bool = False) -> TrajectoryRecord:
        return self._trajectory(self.mode, self.make_dynamics(), self.stereotype_spec(), strict)

    def _trajectory(
        self, mode: str, dyn: DynamicsSpec, eps: StereotypeSpec | None, strict: bool
    ) -> TrajectoryRecord:
        state0 = self.initial_state()
        u = self.utility_spec()
        if eps is not None:  # a DT run (stereotype_spec)
            return stereotype_trajectory(state0, mode, u, dyn, eps, self.steps, strict=strict)
        if self.time_mode == "DT":
            return dt_trajectory(state0, mode, u, dyn, self.steps, strict=strict)
        return ct_integrate(
            state0,
            mode,
            u,
            dyn,
            t_end=self.t_end,
            h=self.h,
            sample_every=self.sample_every,
            strict=strict,
        )

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Every set field in scenario_format order, written by _sections;
        from_text reads it back. A float field's value, or each entry of a
        schedule, goes through float() first, so an int writes as it reads back."""
        sections: dict[str, list[tuple[str, object]]] = {}
        for section, key, attr, reader in scenario_format(self.dynamics_builtin):
            value = self.dynamics_params.get(key) if attr == "dynamics_params" else getattr(self, attr)
            if reader in (float, _schedule) and value is not None:
                value = list(map(float, value)) if isinstance(value, (list, tuple)) else float(value)
            if value is not None:
                sections.setdefault(section, []).append((key, value))
        return _sections(sections)

    @staticmethod
    def from_text(text: str) -> "Scenario":
        cp = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)  # '%' is a character
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
                _, _, attr, reader = keys[key]
                value = _read(section, key, reader, raw)
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
    columns = [
        column.tolist()
        for column in (
            record.times, record.pi_a, record.pi_b, record.delta,
            record.tau1_a, record.tau0_a, record.tau1_b, record.tau0_b,
            record.beta_a, record.beta_b, record.step_utility, record.running_utility,
        )
    ]
    lines = [TRAJECTORY_COLUMNS]
    lines += [_TRAJECTORY_ROW % row for row in zip(*columns, record.case_tags, record.flags)]
    Path(path).write_text("\n".join(lines) + "\n")


def export_field(
    dyn: DynamicsSpec,
    mode: str,
    u: UtilitySpec,
    resolution: int = 41,
    g_a: float = 0.5,
) -> list[tuple[float, float, float, float, float, float]]:
    """CT gradient grid over (piB, piA), plus the difference against UN for
    the constrained modes (zero for UN itself), at resolution points per
    axis: grid_axis(resolution - 1). The grid is evaluated as arrays by
    dynamics.ct_field when it can vouch for every point, else point by point
    through ct_gradient, with the same bits either way."""
    step_count("resolution", resolution, 2)
    if not 0.0 < g_a < 1.0:
        raise ValueError(f"g_a must lie in (0, 1), got {g_a!r}")
    axis = grid_axis(resolution - 1)
    pa, pb = np.tile(axis, resolution), np.repeat(axis, resolution)
    field = ct_field(pa, pb, g_a, mode, u, dyn)
    un = field if mode == "UN" or field is None else ct_field(pa, pb, g_a, "UN", u, dyn)
    if un is not None:
        (da, db), (ua, ub) = field, un
        diffs = [np.zeros(pa.size)] * 2 if mode == "UN" else [da - ua, db - ub]
        return list(zip(*(c.tolist() for c in [pb, pa, da, db, *diffs])))
    # one point at a time: the first point that fails raises its error
    grid = axis.tolist()
    rows = []
    for pb in grid:
        for pa in grid:
            da, db = ct_gradient(pa, pb, g_a, mode, u, dyn)
            if mode == "UN":
                diff_a = diff_b = 0.0
            else:
                ua, ub = ct_gradient(pa, pb, g_a, "UN", u, dyn)
                diff_a, diff_b = da - ua, db - ub
            rows.append((pb, pa, da, db, diff_a, diff_b))
    return rows


def _field_values(rows: list[tuple]) -> np.ndarray:
    """The rows' values as an (n, 6) float array, each read as _FIELD_ROW
    reads it: struct's "d" and the %-format both convert through
    PyFloat_AsDouble, so both accept the same values. A row the template
    rejects raises its error, the first such row first."""
    if set(map(len, rows)) <= {6}:
        try:
            packed = struct.pack(f"{6 * len(rows)}d", *chain.from_iterable(rows))
            return np.frombuffer(packed).reshape(-1, 6)
        except struct.error:
            pass
    for row in rows:
        _FIELD_ROW % row  # raises: a value that is not a real number, or a row of other than six
    raise AssertionError("rows that _FIELD_ROW formats pack as doubles")


def write_field_csv(rows, path: str | Path) -> None:
    """The rows as _FIELD_ROW writes them, each column's distinct bit
    patterns formatted once (a field repeats its axis values on every row);
    -0.0 and 0.0 differ in bits, so they stay apart."""
    columns = []
    for bits in _field_values([tuple(row) for row in rows]).view(np.int64).T:
        distinct, index = np.unique(bits, return_inverse=True)
        texts = np.array([_FLOAT_FORMAT % x for x in distinct.view(float).tolist()], dtype=object)
        columns.append(texts[index].tolist())
    lines = [FIELD_COLUMNS]
    lines += map(",".join, zip(*columns))
    Path(path).write_text("\n".join(lines) + "\n")


def write_analysis_report(scenario: Scenario, path: str | Path, resolution: int = 256) -> None:
    """The analysis report: the contraction estimate, the status-quo bias
    check, the equilibrium atlas, theorem 2's verdict and the AA case
    persistence, one section each, written by _sections."""
    dyn = scenario.make_dynamics()
    u = scenario.utility_spec()
    report = estimate_contraction(dyn, resolution)
    sq = check_status_quo_bias(dyn, resolution)
    atlas = find_equilibria(dyn, mode=scenario.time_mode)
    persistence = prop3_case_persistence(scenario.g_a, u)

    contraction = [
        ("method", report.method),
        ("resolution", report.grid_resolution),
        ("L0", report.l0),
        ("L1", report.l1),
        ("L_UN", report.l_un),
        ("L_AA1", report.l_aa1),
        ("L_AA2", report.l_aa2),
        ("contractive_UN", report.is_contractive_un),
        ("contractive_AA1", report.is_contractive_aa1),
        ("contractive_AA2", report.is_contractive_aa2),
    ]
    if report.l_un_upper is not None:
        contraction += [("L_UN_upper", report.l_un_upper), ("L_AA2_upper", report.l_aa2_upper)]
    status_quo = [("holds", sq.holds)]
    if sq.counterexample is not None:
        status_quo.append(("counterexample", sq.counterexample))
    equilibria = [
        ("mode", atlas.mode),
        ("degenerate", atlas.degenerate),
        ("k", atlas.k),
        ("k_valid", atlas.k_valid),
    ]
    equilibria += [
        (f"attracting_{i}", f"{_fmt(eq.position)} rate={_fmt(eq.rate)} radius={_fmt(eq.radius)}")
        for i, eq in enumerate(atlas.attracting)
    ]
    equilibria += [(f"unstable_{i}", d) for i, d in enumerate(atlas.unstable)]
    try:
        verdict = report.theorem2(scenario.g_a, u)
    except ValueError:  # alpha undefined
        theorem2 = [("alpha", "undefined")]
    else:
        theorem2 = [
            ("alpha", verdict.alpha),
            ("lower_ok", verdict.lower_ok),
            ("upper_ok", verdict.upper_ok),
            ("applies", verdict.applies),
        ]
    case_persistence = [
        ("always_AA1", persistence.always_aa1),
        ("always_AA2", persistence.always_aa2),
        ("persistent_case", persistence.persistent_case),
    ]
    Path(path).write_text(_sections({
        "contraction": contraction,
        "status_quo_bias": status_quo,
        "equilibria": equilibria,
        "theorem2": theorem2,
        "case_persistence": case_persistence,
    }))


def write_compare_csv(scenario: Scenario, path: str | Path, strict: bool = False) -> None:
    """One row per mode, its cells written by _value."""
    lines = ["mode,cumulativeUtility,finalPiA,finalPiB,finalDelta"]
    dyn = scenario.make_dynamics()
    for mode in ("UN", "AA1", "AA2"):
        rec = scenario._trajectory(mode, dyn, None, strict)  # without a stereotype
        pa, pb = rec.pi_a[-1], rec.pi_b[-1]
        lines.append(_value([mode, rec.cumulative_utility, pa, pb, pa - pb]))
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
    missing) and return its path. resolution, when not None, overrides the
    number of grid intervals per axis, grid_axis(resolution), of `analysis`
    (default 256) and `field` (default 40)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{scenario.name}_{OUTPUT_FILES[kind]}"
    if kind == "trajectory":
        write_trajectory_csv(scenario.run_trajectory(strict=strict), path)
    elif kind == "analysis":
        write_analysis_report(scenario, path, resolution=256 if resolution is None else resolution)
    elif kind == "compare":
        write_compare_csv(scenario, path, strict=strict)
    else:
        intervals = 40 if resolution is None else step_count("resolution", resolution, 1)
        rows = export_field(
            scenario.make_dynamics(),
            scenario.mode,
            scenario.utility_spec(),
            resolution=intervals + 1,  # export_field counts points
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
