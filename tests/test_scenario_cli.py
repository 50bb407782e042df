import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairdyn import DynamicsSpec, PopulationState, UtilitySpec, appendix_c_dynamics, find_equilibria
from fairdyn import cli
from fairdyn.cli import SCENARIO_COMMANDS, main
from fairdyn.scenario import Scenario, ScenarioError, export_field, write_output
from conftest import appendix_c_callbacks
import goldens

DEMO = """\
[scenario]
name = demo
mode = AA
time = DT
steps = 20
outputs = trajectory

[dynamics]
builtin = constant
f0 = 0.2
f1 = 0.8

[state]
piA = 0.8
piB = 0.3
gA = 0.5

[utility]
u0 = -1
u1 = 1
"""
CONSTANT_DYNAMICS = "builtin = constant\nf0 = 0.2\nf1 = 0.8"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_round_trip_is_identity():
    scenario = Scenario.from_text(DEMO)
    text = scenario.to_text()
    again = Scenario.from_text(text)
    assert again.to_text() == text
    assert again.name == "demo" and again.steps == 20 and again.pi_a == 0.8


def test_round_trip_ct_with_expressions_and_stereotype():
    scenario = Scenario(
        name="x",
        mode="UN",
        time_mode="CT",
        t_end=3.0,
        h=1e-2,
        expr_f0="0.2 + 0.1*b0",
        expr_f1="0.8",
        eps_a=0.0,
        eps_b=-0.05,
    )
    scenario.time_mode = "DT"  # stereotype schedules are DT-only
    text = scenario.to_text()
    again = Scenario.from_text(text)
    assert again.to_text() == text
    assert again.eps_b == -0.05


def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# The three builtins (with their parameters) and expression dynamics.
_DYNAMICS_FORMS = st.one_of(
    st.fixed_dictionaries({
        "dynamics_builtin": st.just("constant"),
        "dynamics_params": st.fixed_dictionaries({"f0": _finite(0, 1), "f1": _finite(0, 1)}),
    }),
    st.fixed_dictionaries({
        "dynamics_builtin": st.just("affine"),
        "dynamics_params": st.dictionaries(
            st.sampled_from(["a0", "c0", "d0", "a1", "c1", "d1"]), _finite(-2, 2)
        ),
    }),
    st.fixed_dictionaries({"dynamics_builtin": st.just("appendixC")}),
    st.fixed_dictionaries({
        # with surrounding whitespace or a line break, which to_text cannot write back
        "expr_f0": st.sampled_from(
            ["0.2 + 0.05*b0", "(b1 + b1/5)/1.2 + 0.01", "min(b0, 0.3)", " 0.5 + 0.1*b0", "0.5\n+0.1*b0"]
        ),
        "expr_f1": st.sampled_from(["0.8 - 0.02*b1", "exp(-b0)*sin(b1) + 0.5", "0.7", "0.7 ", "0.7\n"]),
        "declared_l0": st.none() | _finite(0, 100),
        "declared_l1": st.none() | _finite(0, 100),
    }),
)
# A per-step stereotype schedule has two or more entries: one entry is a scalar.
_EPS = st.one_of(
    st.none(), _finite(-0.5, 0.5), st.lists(_finite(-0.5, 0.5), min_size=2, max_size=5)
)
_SCENARIOS = st.builds(
    # t_end is a whole number of steps h, as validate requires
    lambda dynamics, n_steps, **fields: Scenario(**fields, t_end=n_steps * fields["h"], **dynamics),
    dynamics=_DYNAMICS_FORMS,
    n_steps=st.integers(0, 10_000),
    name=st.text("abcXYZ019_-. %;\n", min_size=1, max_size=12).filter(lambda n: n not in (".", "..")),
    mode=st.sampled_from(["UN", "AA", "AA1", "AA2"]),
    time_mode=st.sampled_from(["DT", "CT"]),
    steps=st.integers(0, 10_000),
    h=_finite(1e-6, 1),
    sample_every=st.none() | st.integers(1, 10_000),
    pi_a=_finite(0, 1),
    pi_b=_finite(0, 1),
    g_a=_finite(0.01, 0.99),
    u0=_finite(-10, 0),
    u1=_finite(0, 10),
    eps_a=_EPS,
    eps_b=_EPS,
    outputs=st.lists(st.sampled_from(["trajectory", "analysis", "compare", "field"]), unique=True),
)


@settings(max_examples=150, deadline=None)
@given(_SCENARIOS)
@example(  # a per-step schedule: steps + 1 entries, one of them -0.0
    Scenario(
        name="x", time_mode="DT", steps=2, dynamics_builtin="constant",
        dynamics_params={"f0": 0.2, "f1": 0.8}, eps_a=[0.01, -0.0, 0.02],
    )
)
@example(  # an int of 17 digits in a float field writes as the float read back
    Scenario(name="x", dynamics_builtin="constant", dynamics_params={"f0": 0.2, "f1": 0.8}, u0=-10**17)
)
@example(  # and so does an int schedule entry
    Scenario(
        name="x", time_mode="DT", steps=2, dynamics_builtin="constant",
        dynamics_params={"f0": 0.2, "f1": 0.8}, eps_a=[0.01, 10**17, 0.02],
    )
)
def test_to_text_round_trip_property(scenario):
    """A drawn scenario is rejected only for a name or an expression that
    to_text could not write back, or for a stereotype schedule that a CT
    run, or a DT run of its steps, cannot take; otherwise it reads back as
    itself."""
    try:
        scenario.validate()
    except ScenarioError as exc:
        message = str(exc)
        written = [(key, value) for key, value in (("f0", scenario.expr_f0), ("f1", scenario.expr_f1)) if value]
        assert (
            any(message.startswith(f"{key} {value!r} in [") for key, value in [("name", scenario.name), *written])
            or message == "stereotype schedules are supported in DT only"
            or re.match(r"the eps_[ab] \(eps[AB]\) schedule has", message)
        ), message
        return
    text = scenario.to_text()
    again = Scenario.from_text(text)
    assert again == scenario
    assert again.to_text() == text


# Every key the format defines, in any section or [dynamics] form.
FORMAT_KEYS = {
    "name", "mode", "time", "steps", "t_end", "h", "sample_every", "outputs",
    "builtin", "f0", "f1", "a0", "c0", "d0", "a1", "c1", "d1", "l0", "l1",
    "piA", "piB", "gA", "u0", "u1", "epsA", "epsB",
}


@settings(max_examples=150, deadline=None)
@given(
    section=st.sampled_from(["scenario", "dynamics", "state", "utility", "stereotype"]),
    key=st.text("abcdefxyzAB01_", min_size=1, max_size=8).filter(lambda k: k not in FORMAT_KEYS),
    dynamics=st.sampled_from([
        "builtin = constant\nf0 = 0.2\nf1 = 0.8",
        "builtin = affine\na0 = 0.2\na1 = 0.8",
        "builtin = appendixC",
        "f0 = 0.2\nf1 = 0.8",
    ]),
)
def test_unknown_key_property(section, key, dynamics):
    text = DEMO.replace("builtin = constant\nf0 = 0.2\nf1 = 0.8", dynamics)
    text += "\n[stereotype]\nepsA = 0\n"
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    with pytest.raises(ScenarioError, match=re.escape(f"unknown key {key!r} in [{section}]")):
        Scenario.from_text(text)


# (text replaced in DEMO, replacement, what the error message names)
UNKNOWN_KEYS = [
    ("outputs = trajectory", "outptus = trajectory", "'outptus' in [scenario]"),
    ("piA = 0.8", "piAA = 0.8", "'piAA' in [state]"),
    ("u1 = 1", "u2 = 1", "'u2' in [utility]"),
    ("f1 = 0.8", "f1 = 0.8\na0 = 0.1", "'a0' in [dynamics] for builtin = constant"),
    (
        "builtin = constant\nf0 = 0.2\nf1 = 0.8",
        "builtin = affine\na0 = 0.2\na9 = 0.8",
        "'a9' in [dynamics] for builtin = affine",
    ),
    (
        "builtin = constant\nf0 = 0.2\nf1 = 0.8",
        "builtin = appendixC\nf0 = 0.2",
        "'f0' in [dynamics] for builtin = appendixC",
    ),
    ("builtin = constant\n", "c0 = 0.1\n", "'c0' in [dynamics]; allowed: f0, f1, l0, l1"),
    ("[utility]", "[stereotype]\nepsC = 0.1\n\n[utility]", "'epsC' in [stereotype]"),
    ("[utility]", "[utilty]", "unknown section [utilty]"),
    ("[scenario]", "[DEFAULT]\nseed = 1\n\n[scenario]", "unknown section [DEFAULT]"),
]

# (text replaced in DEMO, replacement, what the error message names): values
# that do not convert, run lengths with no finite step count, names that are
# not a plain file name, declared bounds that are negative or not finite, and
# utilities and builtin parameters that are not finite.
BAD_VALUES = [
    ("steps = 20", "steps = x1", "'steps' in [scenario]"),
    ("piA = 0.8", "piA = abc", "'piA' in [state]"),
    ("f0 = 0.2", "f0 = 0.2x", "'f0' in [dynamics]"),
    ("[utility]", "[stereotype]\nepsA = 0,x\n\n[utility]", "'epsA' in [stereotype]"),
    ("[utility]", "[stereotype]\nepsA =\n\n[utility]", "'epsA' in [stereotype]"),
    ("[utility]", "[stereotype]\nepsA = ,\n\n[utility]", "'epsA' in [stereotype]"),
    ("[utility]", "[stereotype]\nepsA = 0.01,,0.02\n\n[utility]", "'epsA' in [stereotype]"),
    ("[utility]", "[stereotype]\nepsA = 0.01,\n\n[utility]", "'epsA' in [stereotype]"),
    ("[utility]", "[stereotype]\nepsA = nan\n\n[utility]", "'epsA' in [stereotype]"),
    ("[utility]", "[stereotype]\nepsB = 0,inf\n\n[utility]", "'epsB' in [stereotype]"),
    ("f1 = 0.8\n", "", "'f1' in [dynamics] for builtin = constant"),
    ("steps = 20", "steps = 20\nsample_every = 0", "[scenario] sample_every"),
    ("steps = 20", "steps = 20\nsample_every = -3", "[scenario] sample_every"),
    ("steps = 20", "steps = 20\nt_end = inf", "[scenario] t_end"),
    ("steps = 20", "steps = 20\nt_end = 1e300\nh = 1e-300", "[scenario] t_end / h"),
    ("steps = 20", "steps = 20\nh = nan", "[scenario] step size h"),
    ("steps = 20", "steps = 20\nt_end = 1.05\nh = 0.1", "[scenario] t_end = 1.05 is not a whole"),
    ("name = demo", "name = ../escaped", "name '../escaped' in [scenario]"),
    ("name = demo", "name = sub/dir", "name 'sub/dir' in [scenario]"),
    ("name = demo", "name = sub\\dir", "name 'sub\\\\dir' in [scenario]"),
    ("name = demo", "name = a\0b", "name 'a\\x00b' in [scenario]"),
    ("name = demo", "name = ..", "name '..' in [scenario]"),
    ("name = demo", "name = .", "name '.' in [scenario]"),
    ("name = demo", "name =", "name '' in [scenario]"),
    (CONSTANT_DYNAMICS, "f1 = 0.8", "expression dynamics need both f0 and f1"),
    (CONSTANT_DYNAMICS, "f0 = 0.2", "expression dynamics need both f0 and f1"),
    (CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8\nl0 = -1", "l0 in [dynamics]"),
    (CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8\nl1 = nan", "l1 in [dynamics]"),
    (CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8\nl1 = inf", "l1 in [dynamics]"),
    ("u1 = 1", "u1 = inf", "utility u1 must be finite"),
    (CONSTANT_DYNAMICS, "builtin = affine\na0 = 0.2\nc0 = nan", "c0 of builtin affine"),
    ("piA = 0.8", "piA = 1.5", "piA = 1.5 in [state] must lie in [0, 1]"),
    ("piA = 0.8", "piA = nan", "piA = nan in [state] must lie in [0, 1]"),
    ("piB = 0.3", "piB = -0.1", "piB = -0.1 in [state] must lie in [0, 1]"),
    ("gA = 0.5", "gA = 1.0", "gA = 1.0 in [state] must lie in (0, 1)"),
    ("gA = 0.5", "gA = 0", "gA = 0.0 in [state] must lie in (0, 1)"),
    ("gA = 0.5", "gA = nan", "gA = nan in [state] must lie in (0, 1)"),
    ("mode = AA", "mode = XX", "unknown mode 'XX' in [scenario]; allowed: UN, AA, AA1, AA2"),
    ("time = DT", "time = XT", "unknown time 'XT' in [scenario]; allowed: DT, CT"),
    ("outputs = trajectory", "outputs = plot",
     "unknown outputs ['plot'] in [scenario]; allowed: trajectory, analysis, compare, field"),
]


# (Scenario fields, what validate's error names): values that the file format
# cannot hold, or could not write back.
BAD_FIELDS = [
    ({"steps": 2.5}, "[scenario] steps must be an integer >= 0, got 2.5"),
    ({"steps": math.nan}, "[scenario] steps must be an integer >= 0, got nan"),
    ({"steps": -1}, "[scenario] steps must be an integer >= 0, got -1"),
    ({"expr_f0": " 0.5 + 0.1*b0"}, "f0 ' 0.5 + 0.1*b0' in [dynamics] has surrounding whitespace"),
    ({"expr_f0": "0.5\n+0.1*b0"}, "f0 '0.5\\n+0.1*b0' in [dynamics] has surrounding whitespace"),
    ({"expr_f1": "0.8;"}, "f1 '0.8;' in [dynamics] has surrounding whitespace"),
    ({"name": "demo "}, "name 'demo ' in [scenario] has surrounding whitespace"),
    ({"dynamics_builtin": "appendixC", "expr_f0": None},
     "specify exactly one of builtin dynamics or expressions"),
    ({"dynamics_builtin": "appendixC", "expr_f1": None},
     "specify exactly one of builtin dynamics or expressions"),
    ({"expr_f0": None, "expr_f1": None}, "specify exactly one of builtin dynamics or expressions"),
    ({"expr_f0": None}, "expression dynamics need both f0 and f1"),
    ({"expr_f1": None}, "expression dynamics need both f0 and f1"),
]


def test_invalid_scenarios_rejected():
    with pytest.raises(ScenarioError):
        Scenario.from_text(DEMO.replace("mode = AA", "mode = XX"))
    with pytest.raises(ScenarioError):
        Scenario.from_text(DEMO.replace("builtin = constant", "builtin = nope"))
    with pytest.raises(ScenarioError):
        Scenario.from_text(DEMO.replace("piA = 0.8", "piA = 1.4"))
    with pytest.raises(ScenarioError):
        Scenario.from_text("not a scenario [file")
    with pytest.raises(ScenarioError):
        Scenario.from_text(DEMO.replace("[scenario]", "[other]"))
    for old, new, named in UNKNOWN_KEYS + BAD_VALUES:
        assert old in DEMO
        with pytest.raises(ScenarioError, match=re.escape(named)):
            Scenario.from_text(DEMO.replace(old, new))
    for fields, named in BAD_FIELDS:
        scenario = Scenario(**{"name": "x", "expr_f0": "0.2", "expr_f1": "0.8", **fields})
        with pytest.raises(ScenarioError, match=re.escape(named)):
            scenario.validate()


def test_a_run_out_of_memory_exits_2_naming_the_size_inputs(tmp_path, capsys, monkeypatch):
    """A MemoryError from a subcommand is invalid input, exit code 2, not
    the 1 of a failed verify, and the message names what sets the size."""
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "write_output", out_of_memory)
    scn = tmp_path / "demo.scn"
    scn.write_text(DEMO)
    capsys.readouterr()
    assert main(["simulate", str(scn), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "out of memory: lower steps, t_end / h or --resolution\n"
    assert captured.out == ""


def test_scenario_name_cannot_escape_out_dir(tmp_path):
    (tmp_path / "work").mkdir()
    scn = tmp_path / "work" / "escape.scn"
    out = tmp_path / "work" / "out"
    for name in ("../escaped", "../../escaped", "sub/dir"):
        scn.write_text(DEMO.replace("name = demo", f"name = {name}"))
        for cmd in ("simulate", "analyze", "compare", "field"):
            assert main([cmd, str(scn), "--out", str(out)]) == 2
    written = {p for p in tmp_path.rglob("*") if p != out and out not in p.parents}
    assert written == {tmp_path / "work", scn}


def test_every_allowed_dynamics_key_accepted():
    for dyn in (
        "builtin = constant\nf0 = 0.2\nf1 = 0.8",
        "builtin = affine\na0 = 0.2\nc0 = 0\nd0 = 0\na1 = 0.8\nc1 = 0\nd1 = 0",
        "builtin = appendixC",
        "f0 = 0.2\nf1 = 0.8\nl0 = 0\nl1 = 0",
    ):
        Scenario.from_text(DEMO.replace(CONSTANT_DYNAMICS, dyn))
    # The declared bounds l0, l1 belong to expression dynamics only.
    for builtin in ("constant\nf0 = 0.2\nf1 = 0.8", "affine", "appendixC"):
        for key in ("l0", "l1"):
            text = DEMO.replace(CONSTANT_DYNAMICS, f"builtin = {builtin}\n{key} = 0")
            named = re.escape(f"unknown key {key!r} in [dynamics]")
            with pytest.raises(ScenarioError, match=named):
                Scenario.from_text(text)
    with pytest.raises(ScenarioError, match="expression dynamics only"):
        Scenario(name="x", dynamics_builtin="appendixC", declared_l0=1.0).validate()


def test_readme_scenario_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    scenario = Scenario.from_text(block)
    assert (scenario.name, scenario.mode, scenario.time_mode) == ("example", "AA", "CT")
    assert scenario.expr_f0 == "0.2 + 0.05*b0" and scenario.expr_f1 == "0.8 - 0.02*b1"
    assert (scenario.declared_l0, scenario.declared_l1) == (0.05, 0.02)
    assert (scenario.eps_a, scenario.eps_b) == (None, None)  # [stereotype] is for DT scenarios


def test_trajectory_row_count_dt(tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(DEMO)
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "demo_trajectory.csv").read_text().strip().split("\n")
    assert len(rows) == 22  # header + steps+1


def test_trajectory_row_count_ct(tmp_path):
    text = DEMO.replace("time = DT\nsteps = 20", "time = CT\nt_end = 2\nh = 0.001\nsample_every = 100")
    path = tmp_path / "demo.scn"
    path.write_text(text)
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "demo_trajectory.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 2000 // 100 + 1


def test_determinism_byte_identical(tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(DEMO)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", str(path), "--out", str(out2)]) == 0
    assert (out1 / "demo_trajectory.csv").read_bytes() == (
        out2 / "demo_trajectory.csv"
    ).read_bytes()


GOLDENS = json.loads(goldens.TABLE.read_text())


def assert_goldens(tmp_path: Path, group: str) -> None:
    """The rows of goldens.CASES[group], produced at this commit, are the
    table's: an analyze report as its full text, a CSV as its sha256."""
    for key, row in goldens.produce(goldens.CASES[group], tmp_path).items():
        assert row == GOLDENS[key], key


def test_the_goldens_have_one_row_per_case():
    keys = [case.key for cases in goldens.CASES.values() for case in cases] + [goldens.KERNEL_SOURCES]
    assert sorted(keys) == sorted(GOLDENS)


def test_shipped_outputs_are_byte_identical(tmp_path):
    assert_goldens(tmp_path, "shipped")


def test_benchmark_pins_the_same_csv_digests():
    """The benchmark checks the shipped scenarios' CSVs against its own
    copy of their digests, keyed "<subcommand>/<scenario>": it must hold
    the ones pinned here."""
    bench = json.loads((SCENARIOS.parent / "perfbench" / "digests.json").read_text())
    csv = {f"{c.command}/{c.variant}": GOLDENS[c.key] for c in goldens.CASES["shipped"] if c.command != "analyze"}
    assert len(csv) == 9
    assert bench == csv


def test_appendix_c_expression_outputs_are_byte_identical(tmp_path):
    assert_goldens(tmp_path, "appendix_c_expression")


def test_appendix_c_callback_outputs_are_byte_identical(tmp_path):
    assert_goldens(tmp_path, "appendix_c_modes")


def test_appendix_c_as_python_callbacks_gives_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr("fairdyn.dynamics.appendix_c_dynamics", appendix_c_callbacks)
    assert_goldens(tmp_path, "appendix_c_modes")


def test_field_outputs_beyond_the_default_grid_are_byte_identical(tmp_path):
    assert_goldens(tmp_path, "field_modes")


def test_python_m_fairdyn_runs_the_cli():
    """Both entry points README documents, python -m fairdyn and python -m
    fairdyn.cli, run main."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for module in ("fairdyn", "fairdyn.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "--version"], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "fairdyn 1.0.0\n"), module


def test_compare_subcommand_theorem1_ordering(tmp_path, monkeypatch):
    path = tmp_path / "demo.scn"
    path.write_text(DEMO)
    assert main(["compare", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "demo_compare.csv").read_text().strip().split("\n")[1:]
    utilities = {r.split(",")[0]: float(r.split(",")[1]) for r in rows}
    assert set(utilities) == {"UN", "AA1", "AA2"}
    assert utilities["UN"] >= utilities["AA1"] - 1e-9
    # the three modes run the dynamics built when the scenario was validated:
    # each expression is compiled once
    compiled = _count_compiles(monkeypatch)
    path.write_text(DEMO.replace(CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8"))
    assert main(["compare", str(path), "--out", str(tmp_path)]) == 0
    assert compiled == ["0.2", "0.8"]


def _count_compiles(monkeypatch) -> list[str]:
    """The sources compile_expression is called with from now on."""
    from fairdyn import dynamics

    compiled = []
    compile_expression = dynamics.compile_expression
    monkeypatch.setattr(
        dynamics, "compile_expression", lambda src: compiled.append(src) or compile_expression(src)
    )
    return compiled


@pytest.mark.parametrize("command", ["simulate", "analyze", "field"])
def test_each_command_compiles_each_expression_once(tmp_path, monkeypatch, command):
    path = tmp_path / "demo.scn"
    path.write_text(DEMO.replace(CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8"))
    compiled = _count_compiles(monkeypatch)
    resolution = [] if command == "simulate" else ["--resolution", "64"]
    assert main([command, str(path), "--out", str(tmp_path), *resolution]) == 0
    assert compiled == ["0.2", "0.8"]


def test_changed_dynamics_fields_build_new_maps(tmp_path):
    scenario = Scenario.from_text(DEMO.replace(CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8"))
    built = scenario.make_dynamics()
    assert scenario.make_dynamics() is built
    scenario.expr_f1 = "0.7"
    assert scenario.make_dynamics().f1(0.5, 0.5) == 0.7
    scenario.declared_l0 = 0.0
    assert scenario.make_dynamics().declared_l0 == 0.0
    scenario.declared_l0 = -0.0
    assert math.copysign(1.0, scenario.make_dynamics().declared_l0) == -1.0
    other = Scenario.from_text(scenario.to_text())
    assert other.make_dynamics() is not scenario.make_dynamics()
    builtin = Scenario.from_text(DEMO)
    builtin.dynamics_params["f0"] = 0.3
    assert builtin.make_dynamics().f0(0.5, 0.5) == 0.3


def test_version(capsys):
    import fairdyn

    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"fairdyn {fairdyn.__version__}\n" == "fairdyn 1.0.0\n"
    # pyproject.toml reads the version from that one attribute
    pyproject = (SCENARIOS.parent / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = {attr = "fairdyn.__version__"}' in pyproject


def test_main_reuses_one_parser_without_state(tmp_path, capsys):
    """main parses every call with one parser per process, and no call
    leaves anything in it that the next one reads; build_parser still
    builds a new parser."""
    from fairdyn import cli

    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()
    scenario = str(SCENARIOS / "three_equilibria_ct.scn")
    out = ["--out", str(tmp_path)]
    report = tmp_path / "three_equilibria_ct_analysis.txt"
    assert main(["analyze", scenario, *out, "--resolution", "96"]) == 0
    assert "\nresolution = 96\n" in report.read_text()
    assert main(["analyze", scenario, *out]) == 0
    assert "\nresolution = 256\n" in report.read_text()
    assert main(["field", scenario, *out, "--resolution", "0"]) == 2
    assert main(["field", scenario, *out]) == 0
    data = (tmp_path / "three_equilibria_ct_field.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDENS["three_equilibria_ct/field"]
    capsys.readouterr()
    for _ in range(2):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == "fairdyn 1.0.0\n"
    for _ in range(2):
        assert main([]) == 2

def test_analyze_subcommand(tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(DEMO)
    assert main(["analyze", str(path), "--out", str(tmp_path), "--resolution", "64"]) == 0
    report = (tmp_path / "demo_analysis.txt").read_text()
    assert "L_UN = 0.6" in report
    assert "contractive_UN = True" in report
    assert "[equilibria]" in report and "[theorem2]" in report
    path.write_text(DEMO.replace("u0 = -1\nu1 = 1", "u0 = 0\nu1 = 0"))
    assert main(["analyze", str(path), "--out", str(tmp_path), "--resolution", "64"]) == 0
    report = (tmp_path / "demo_analysis.txt").read_text()
    assert "[theorem2]\nalpha = undefined\n\n[case_persistence]" in report


def test_analyze_above_256_samples_one_grid(tmp_path, monkeypatch):
    """analyze --resolution 512 samples one grid, the contraction's, and
    its status-quo check reads that grid: the spec keeps one grid of 512.
    expression_ct has array forms, so no 2-D grid goes through sample."""
    specs, grids, sample_dims = [], [], []
    make, sample_grid, sample = Scenario.make_dynamics, DynamicsSpec.sample_grid, DynamicsSpec.sample

    def made(self):
        specs.append(make(self))
        return specs[-1]

    def sampled(self, resolution):
        kept = resolution in self._grids
        grid = sample_grid(self, resolution)
        if not kept:  # a grid evaluated, not one the spec kept
            grids.append(grid[1].shape)
        return grid

    def sampled_points(self, b0, b1):
        sample_dims.append(max(np.ndim(b0), np.ndim(b1)))
        return sample(self, b0, b1)

    monkeypatch.setattr(Scenario, "make_dynamics", made)
    monkeypatch.setattr(DynamicsSpec, "sample_grid", sampled)
    monkeypatch.setattr(DynamicsSpec, "sample", sampled_points)
    path = SCENARIOS / "expression_ct.scn"
    assert main(["analyze", str(path), "--out", str(tmp_path), "--resolution", "512"]) == 0
    assert grids == [(513, 513)] and 2 not in sample_dims
    assert {id(spec) for spec in specs} == {id(specs[0])} and list(specs[0]._grids) == [512]
    assert "resolution = 512\n" in (tmp_path / "expression_ct_analysis.txt").read_text()


def test_analyze_theorem2_tests_the_declared_upper_bound(tmp_path):
    """An affine builtin declares its constants: upper_ok tests
    L_AA2_upper, which fails where the grid L_AA2 passes."""
    text = DEMO.replace(
        CONSTANT_DYNAMICS,
        "builtin = affine\na0 = 0.4\nc0 = 0.28\nd0 = -0.79\na1 = 0.79\nc1 = -0.22\nd1 = -0.93",
    )
    text = text.replace("gA = 0.5", "gA = 0.67").replace("u1 = 1\n", "u1 = 1.26\n")
    path = tmp_path / "demo.scn"
    path.write_text(text)
    assert main(["analyze", str(path), "--out", str(tmp_path), "--resolution", "64"]) == 0
    report = (tmp_path / "demo_analysis.txt").read_text()
    assert "L_UN = 1.3200000000000001\n" in report and "L_AA2 = 2.04\n" in report
    assert "L_AA2_upper = 2.09375\n" in report
    # 2.04 <= 1 + (L_UN - 1)/alpha = 2.0896... < 2.09375
    assert "alpha = 0.29368554880632858\nlower_ok = True\nupper_ok = False\n" in report


def test_field_subcommand_grid_size(tmp_path):
    text = DEMO.replace("builtin = constant\nf0 = 0.2\nf1 = 0.8", "builtin = appendixC")
    text = text.replace("mode = AA", "mode = UN")
    path = tmp_path / "demo.scn"
    path.write_text(text)
    assert main(["field", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "demo_field.csv").read_text().strip().split("\n")
    assert rows[0] == "piB,piA,dA,dB,diffA,diffB"
    assert len(rows) == 1 + 41 * 41
    # --resolution N is N intervals per axis, as for analyze
    assert main(["field", str(path), "--out", str(tmp_path), "--resolution", "7"]) == 0
    assert len((tmp_path / "demo_field.csv").read_text().strip().split("\n")) == 1 + 8 * 8


@pytest.mark.parametrize("resolution", [0, 1.5])
def test_write_output_names_the_field_resolution_it_was_given(tmp_path, resolution):
    """write_output's field resolution counts intervals, as --resolution
    does: a bad one is named as given, not as export_field's point count."""
    scenario = Scenario.from_text(DEMO)
    message = f"resolution must be an integer >= 1, got {resolution!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_output(scenario, "field", tmp_path, resolution=resolution)
    assert not list(tmp_path.iterdir())


def test_field_diagonal_and_equilibrium_properties():
    dyn = appendix_c_dynamics()
    u = UtilitySpec(u0=-1.0, u1=1.0)
    un = {(r[0], r[1]): r for r in export_field(dyn, "UN", u, resolution=21)}
    aa = {(r[0], r[1]): r for r in export_field(dyn, "AA1", u, resolution=21)}
    for key, row in aa.items():
        pb, pa = key
        if pa == pb:
            assert row[2] == un[key][2] and row[3] == un[key][3]
            assert row[4] == 0.0 and row[5] == 0.0
    atlas = find_equilibria(dyn, mode="CT")
    eq = atlas.attracting[1].position
    rows = export_field(dyn, "UN", u, resolution=2)
    # evaluate directly at a joint equilibrium
    from fairdyn import ct_gradient

    da, db = ct_gradient(eq, eq, 0.5, "UN", u, dyn)
    assert abs(da) <= 1e-10 and abs(db) <= 1e-10


# Off-diagonal points where the AA1-minus-UN difference vector is known to
# push the advantaged group's coordinate down (frozen sample set; the sign
# does not hold on all of the square because the retention map oscillates).
AA1_DIFF_SAMPLES = (
    (0.3, 0.2), (0.35, 0.3), (0.4, 0.35), (0.42, 0.3), (0.43, 0.28),
    (0.7, 0.65), (0.75, 0.7), (0.76, 0.63), (0.78, 0.72),
)


def test_field_aa1_difference_sign():
    from fairdyn import ct_gradient

    dyn = appendix_c_dynamics()
    u = UtilitySpec(u0=-1.0, u1=1.0)
    for pa, pb in AA1_DIFF_SAMPLES:
        da, _ = ct_gradient(pa, pb, 0.5, "AA1", u, dyn)
        ua, _ = ct_gradient(pa, pb, 0.5, "UN", u, dyn)
        assert da - ua <= 1e-12
        # mirrored points: the advantaged coordinate is B's
        _, db = ct_gradient(pb, pa, 0.5, "AA1", u, dyn)
        _, ub = ct_gradient(pb, pa, 0.5, "UN", u, dyn)
        assert db - ub <= 1e-12


def test_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.scn"
    assert main(["simulate", str(missing)]) == 2
    bad = tmp_path / "bad.scn"
    bad.write_text(DEMO.replace("mode = AA", "mode = XX"))
    assert main(["simulate", str(bad)]) == 2
    bad.write_text(DEMO.replace("piA = 0.8", "piAA = 0.8"))
    assert main(["simulate", str(bad)]) == 2
    assert main(["nonsense"]) == 2
    bad.write_text(DEMO.replace("steps = 20", "steps = 20\nsample_every = 0"))
    assert main(["simulate", str(bad)]) == 2
    bad.write_text(DEMO.replace("time = DT\nsteps = 20", "time = CT\nt_end = 1.05\nh = 0.1"))
    assert main(["simulate", str(bad)]) == 2
    assert main(["simulate", str(tmp_path)]) == 2  # a directory, not a file
    # values are read as written: '%' does not interpolate
    for name in ("run5%", "%(mode)s"):
        named = tmp_path / "percent.scn"
        named.write_text(DEMO.replace("name = demo", f"name = {name}"))
        assert main(["simulate", str(named), "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{name}_trajectory.csv").is_file()
    # flags that did nothing are gone
    good = tmp_path / "demo.scn"
    good.write_text(DEMO)
    assert main(["simulate", str(good), "--seed", "1", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--strict"]) == 2
    for cmd in ("simulate", "compare"):  # --resolution changed nothing there
        assert main([cmd, str(good), "--resolution", "64", "--out", str(tmp_path)]) == 2
    # --resolution below its minimum names the flag and the minimum, and
    # writes nothing
    capsys.readouterr()
    none = str(tmp_path / "none")
    for argv, minimum in (
        (["analyze", str(good), "--out", none, "--resolution", "0"], 64),
        (["analyze", str(good), "--out", none, "--resolution", "63"], 64),
        (["field", str(good), "--out", none, "--resolution", "0"], 1),
        (["field", str(good), "--out", none, "--resolution", "-1"], 1),
        (["verify", "--resolution", "0"], 1),
        (["verify", "--resolution", "-3"], 1),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"argument --resolution: must be >= {minimum}, got {argv[-1]}" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "none").exists()
    # the minimum itself is accepted
    assert main(["field", str(good), "--resolution", "1", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "demo_field.csv").read_text().strip().split("\n")) == 1 + 2 * 2
    assert main(["verify", "--resolution", "1"]) == 0
    assert "closed-form vs LP oracle: 1/1" in capsys.readouterr().out
    # builtin l0 is an unknown key; infinite utilities and builtin parameters
    bad.write_text(DEMO.replace(CONSTANT_DYNAMICS, "builtin = appendixC\nl0 = 1"))
    assert main(["analyze", str(bad)]) == 2
    bad.write_text(DEMO.replace("u1 = 1", "u1 = inf"))
    assert main(["compare", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text(DEMO.replace(CONSTANT_DYNAMICS, "builtin = affine\nc0 = nan"))
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2
    # utilities whose running sum overflows, named with the time it does
    bad.write_text(DEMO.replace("u1 = 1", "u1 = 1e308"))
    for cmd in ("simulate", "compare"):
        capsys.readouterr()
        assert main([cmd, str(bad), "--out", str(tmp_path / "overflow")]) == 2
        assert "is not finite from t = 3.0 (u0 = -1.0, u1 = 1e+308)" in capsys.readouterr().err
    assert not list((tmp_path / "overflow").iterdir())  # no CSV written
    # declared constants below the sampled slopes are not reported as bounds
    capsys.readouterr()
    bad.write_text(DEMO.replace(CONSTANT_DYNAMICS, "f0 = 0.2+0.9*b0\nf1 = 0.8\nl0 = 0.0001"))
    assert main(["analyze", str(bad), "--out", str(tmp_path)]) == 2
    assert "f0 of dynamics 'demo-expr': sampled slope 0.9 exceeds" in capsys.readouterr().err
    # expressions that fail to evaluate name the expression and the point
    capsys.readouterr()
    for cmd, f0 in (("simulate", "0.1 + (b0-0.5)^0.5"), ("analyze", "1/b0")):
        bad.write_text(DEMO.replace(CONSTANT_DYNAMICS, f"f0 = {f0}\nf1 = 0.8"))
        assert main([cmd, str(bad), "--out", str(tmp_path)]) == 2
        assert f"expression {f0!r} at (b0, b1) = (" in capsys.readouterr().err

    # stereotype violation: eps outside the valid range for the state
    text = DEMO + "\n[stereotype]\nepsA = 0.5\nepsB = 0\n"
    ster = tmp_path / "ster.scn"
    ster.write_text(text)
    assert main(["simulate", str(ster), "--out", str(tmp_path)]) == 4
    # an empty or non-finite schedule entry is bad input, not a violation
    for eps in ("", ",", "0.01,,0.02", "nan"):
        ster.write_text(DEMO + f"\n[stereotype]\nepsA = {eps}\n")
        assert main(["simulate", str(ster), "--out", str(tmp_path)]) == 2, eps

    # strict escalation: dynamics engineered to swap advantage and AA case
    strict_text = """\
[scenario]
name = strictdemo
mode = AA
time = DT
steps = 40
outputs = trajectory

[dynamics]
builtin = affine
a0 = 0.2
c0 = 0.9
d0 = 0
a1 = 0.9
c1 = 0
d1 = 0

[state]
piA = 0.9
piB = 0.1
gA = 0.7

[utility]
u0 = -2
u1 = 1
"""
    strict = tmp_path / "strict.scn"
    strict.write_text(strict_text)
    code = main(["simulate", str(strict), "--strict", "--out", str(tmp_path)])
    assert code == 3


_BAD_F = "bad expression '0.5 + * b0' for 'f{}' in [dynamics]: unexpected '*' (at position 6)"


@pytest.mark.parametrize(
    "f0, f1, message",
    [
        ("0.5 + * b0", "0.8", _BAD_F.format(0)),
        ("0.2", "0.5 + * b0", _BAD_F.format(1)),
        # f0 is compiled first
        ("sqrt(b0)", "0.5 + * b0", "bad expression 'sqrt(b0)' for 'f0' in [dynamics]: "
         "unknown function 'sqrt' (at position 0)"),
    ],
    ids=["f0", "f1", "f0-first"],
)
def test_bad_expression_names_the_key_and_source(tmp_path, capsys, f0, f1, message):
    text = DEMO.replace(CONSTANT_DYNAMICS, f"f0 = {f0}\nf1 = {f1}")
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_text(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"invalid scenario: {message}\n"


def test_short_stereotype_schedule_exits_2(tmp_path, capsys):
    """A per-step schedule shorter than steps + 1 is invalid input (exit 2),
    not a traceback; a longer one runs."""
    path = tmp_path / "short.scn"
    text = DEMO.replace("steps = 20", "steps = 5") + "\n[stereotype]\nepsA = "
    path.write_text(text + "0.01,0.02\n")
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "invalid scenario: the eps_a (epsA) schedule has 2 entries; "
        "5 steps need steps + 1 = 6\n"
    )
    assert not (tmp_path / "demo_trajectory.csv").exists()
    path.write_text(text + ",".join(["0.01"] * 7) + "\n")
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "demo_trajectory.csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("time = DT", "time = CT\nt_end = 1\nh = 0.01", "stereotype schedules are supported in DT only"),
        ("steps = 20", "steps = 5", "the eps_b (epsB) schedule has 2 entries; 5 steps need steps + 1 = 6"),
    ],
    ids=["CT", "short schedule"],
)
def test_stereotype_rules_exit_2_on_every_subcommand(tmp_path, capsys, old, new, message):
    """A stereotype schedule that the scenario's run cannot take is invalid
    input when the file is read, whichever subcommand reads it."""
    path = tmp_path / "demo.scn"
    path.write_text(DEMO.replace(old, new) + "\n[stereotype]\nepsB = -0.05,0.0\n")
    for command in SCENARIO_COMMANDS:
        assert main([command, str(path), "--out", str(tmp_path)]) == 2, command
        assert capsys.readouterr().err == f"invalid scenario: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_verify_subcommand(capsys):
    assert main(["verify", "--seed", "1", "--resolution", "200"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "FAIL" not in out


def test_verify_fails_on_a_parser_mismatch(monkeypatch, capsys):
    """verify checks the parsed appendixC sources against the maps written
    in Python, not against the builtin (the same parsed sources): a source
    off by 1e-9 fails it at every point, also where the builtin has it."""
    off = cli.APPENDIX_C_F1 + " + 0.000000001"
    monkeypatch.setattr(cli, "APPENDIX_C_F1", off)
    monkeypatch.setattr("fairdyn.dynamics.APPENDIX_C_F1", off)
    assert main(["verify", "--seed", "1", "--resolution", "1"]) == 1
    assert "[FAIL] expression parser vs appendixC in Python: 0/10000" in capsys.readouterr().out


def test_verify_fails_on_a_closed_form_mismatch(monkeypatch, capsys):
    """verify checks aa_policy's utility against the LP oracle's, then
    against UN's, which it may not exceed: a closed form 1e-6 below the
    oracle fails every instance, and so does one 10 above UN's that the
    oracle agrees with."""
    real_aa, real_lp = cli.aa_policy, cli.lp_oracle

    def shifted(solve, by):
        def solve_shifted(*args, **kwargs):
            solution = solve(*args, **kwargs)
            return dataclasses.replace(solution, achieved_utility=solution.achieved_utility + by)

        return solve_shifted

    monkeypatch.setattr(cli, "aa_policy", shifted(real_aa, -1e-6))
    assert main(["verify", "--seed", "1", "--resolution", "50"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] closed-form vs LP oracle: 0/50" in out and "[PASS] expression parser" in out
    monkeypatch.setattr(cli, "aa_policy", shifted(real_aa, 10.0))
    monkeypatch.setattr(cli, "lp_oracle", shifted(real_lp, 10.0))
    assert main(["verify", "--seed", "1", "--resolution", "50"]) == 1
    assert "[FAIL] closed-form vs LP oracle: 0/50" in capsys.readouterr().out


def test_run_scenario_writes_requested_artifacts(tmp_path):
    scenario = Scenario.from_text(DEMO)
    scenario.outputs = ["trajectory", "compare"]
    written = __import__("fairdyn.scenario", fromlist=["run_scenario"]).run_scenario(
        scenario, tmp_path
    )
    names = {p.name for p in written}
    assert names == {"demo_trajectory.csv", "demo_compare.csv"}
    for p in written:
        assert p.exists()
