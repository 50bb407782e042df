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
from hypothesis import given, settings, strategies as st

from fairdyn import DynamicsSpec, PopulationState, UtilitySpec, appendix_c_dynamics, find_equilibria
from fairdyn.cli import APPENDIX_C_F0, APPENDIX_C_F1, SCENARIO_COMMANDS, main
from fairdyn.scenario import Scenario, ScenarioError, export_field

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
# sha256 of every output below, recorded before the grid analyses gained
# their array form; regenerate only for a change meant to alter the bytes.
SHIPPED_DIGESTS = Path(__file__).with_name("shipped_digests.json")


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
    (CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8\nl0 = -1", "l0 in [dynamics]"),
    (CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8\nl1 = nan", "l1 in [dynamics]"),
    (CONSTANT_DYNAMICS, "f0 = 0.2\nf1 = 0.8\nl1 = inf", "l1 in [dynamics]"),
    ("u1 = 1", "u1 = inf", "utility u1 must be finite"),
    (CONSTANT_DYNAMICS, "builtin = affine\na0 = 0.2\nc0 = nan", "c0 of builtin affine"),
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


def shipped_output_digests(out: Path) -> dict[str, str]:
    """sha256 of the simulate, compare, field and analyze outputs of every
    shipped scenario, written into out with default arguments, and of the
    analyze reports at resolutions 96 and 100 (grids whose step is not a
    power of two), keyed "analyze/<scenario>@<resolution>"."""
    digests = {}
    for cmd, suffix, args in (
        ("simulate", "trajectory.csv", []),
        ("compare", "compare.csv", []),
        ("field", "field.csv", []),
        ("analyze", "analysis.txt", []),
        ("analyze", "analysis.txt", ["--resolution", "96"]),
        ("analyze", "analysis.txt", ["--resolution", "100"]),
    ):
        for scenario in sorted(SCENARIOS.glob("*.scn")):
            assert main([cmd, str(scenario), "--out", str(out), *args]) == 0
            data = (out / f"{scenario.stem}_{suffix}").read_bytes()
            key = f"{cmd}/{scenario.stem}" + (f"@{args[1]}" if args else "")
            digests[key] = hashlib.sha256(data).hexdigest()
    return digests


def test_shipped_outputs_are_byte_identical(tmp_path):
    assert shipped_output_digests(tmp_path) == json.loads(SHIPPED_DIGESTS.read_text())


def test_benchmark_pins_the_same_csv_digests():
    """The benchmark checks the shipped scenarios' CSVs against its own
    copy of their digests: it must hold the ones pinned here."""
    shipped = json.loads(SHIPPED_DIGESTS.read_text())
    bench = json.loads((SCENARIOS.parent / "perfbench" / "digests.json").read_text())
    csv = {key: digest for key, digest in shipped.items() if not key.startswith("analyze/")}
    assert len(csv) == 9
    assert bench == csv


# A CT scenario whose maps are the Appendix C formulas written as
# expressions: its grid analyses and field call sin and exp element-wise in
# the maps' array form, which no shipped scenario does.
APPENDIX_C_EXPRESSION = f"""\
[scenario]
name = appendix_c_expression
mode = AA1
time = CT
t_end = 20
h = 0.01
outputs = trajectory

[dynamics]
f0 = {APPENDIX_C_F0}
f1 = {APPENDIX_C_F1}

[state]
piA = 0.9
piB = 0.1
gA = 0.5

[utility]
u0 = -1
u1 = 1
"""
# sha256 of its outputs, recorded before the array form's element-wise
# calls were grouped by argument; regenerate only for a change meant to
# alter the bytes. The analyze reports are three_equilibria_ct's: that
# scenario runs the native appendixC maps, which give the same bits, at the
# same gA, u0 and u1.
APPENDIX_C_EXPRESSION_DIGESTS = {
    "analyze/appendix_c_expression": "b797b6b7d30d7ce9da930279f9504dbd66defd604524a6ff82df0f6330e1f0b3",
    "analyze/appendix_c_expression@96": "efa7f7cd84f720f4dcde987987b6dcd2057d62b88cbf2405e5031337bb9c2afe",
    "field/appendix_c_expression": "059e59bf1d1f4728b1cfbd71faadccd7df527bc92e2cc151d128c49080e4ce57",
}


def test_appendix_c_expression_outputs_are_byte_identical(tmp_path):
    path = tmp_path / "appendix_c_expression.scn"
    path.write_text(APPENDIX_C_EXPRESSION)
    digests = {}
    for cmd, suffix, args in (
        ("analyze", "analysis.txt", []),
        ("analyze", "analysis.txt", ["--resolution", "96"]),
        ("field", "field.csv", []),
    ):
        assert main([cmd, str(path), "--out", str(tmp_path), *args]) == 0
        data = (tmp_path / f"appendix_c_expression_{suffix}").read_bytes()
        key = f"{cmd}/appendix_c_expression" + (f"@{args[1]}" if args else "")
        digests[key] = hashlib.sha256(data).hexdigest()
    assert digests == APPENDIX_C_EXPRESSION_DIGESTS


# A CT scenario on the builtin appendixC callbacks, in each policy mode:
# their grid analyses and field take the callback paths, where f1 leaves
# [0, 1] at about a third of the points.
APPENDIX_C_CALLBACKS = """\
[scenario]
name = appendix_c_{mode}
mode = {mode}
time = CT
t_end = 20
h = 0.01
outputs = trajectory

[dynamics]
builtin = appendixC

[state]
piA = 0.8
piB = 0.3
gA = 0.4

[utility]
u0 = -1
u1 = 0.8
"""
# sha256 of its analyze and field outputs at resolutions 64, 96 and 128,
# recorded before the map-value rule was compiled into ct_gradient, un_map
# and the per-point sampler; regenerate only for a change meant to alter
# the bytes.
APPENDIX_C_CALLBACK_DIGESTS = {
    "analyze/UN@64": "8e32bdc668de85565a2473273e5a194468400f09f538fe61d9d50ad5ff0e256a",
    "field/UN@64": "2f046dcdf52f7e22b6b86bcd263162ff7f89679a68265d3c310b40b81379f685",
    "analyze/UN@96": "f8a238b3e42ae7d40e9be4366639212bafa022a598e2b09b819c9f829373e595",
    "field/UN@96": "4457db0a345c6d0cb6b3543a560dd79f420c6c674fcceeae83bf247c0688df9a",
    "analyze/UN@128": "e643e90b3a747d01bd21658c716c3865e1caa4bce4a6141056f4b6afea4afbc3",
    "field/UN@128": "e37b1f84644fa461064af537ddf3dfd8df54ec1bf0e85322780c082b0103f8e2",
    "analyze/AA@64": "8e32bdc668de85565a2473273e5a194468400f09f538fe61d9d50ad5ff0e256a",
    "field/AA@64": "462ee0716a0de085fb2ff3ffe3fd496bd1e345cbbeaec2c56ca1c4dd62588aa9",
    "analyze/AA@96": "f8a238b3e42ae7d40e9be4366639212bafa022a598e2b09b819c9f829373e595",
    "field/AA@96": "1ea0d88bdd15b59dd83c4589aa9c0e4d5a55793acf798c1b28ebb2e588b9f12f",
    "analyze/AA@128": "e643e90b3a747d01bd21658c716c3865e1caa4bce4a6141056f4b6afea4afbc3",
    "field/AA@128": "6615fcd4c3bd169938a780cd92846227458f3ee651d625719e6aae7c88e8ecad",
    "analyze/AA1@64": "8e32bdc668de85565a2473273e5a194468400f09f538fe61d9d50ad5ff0e256a",
    "field/AA1@64": "b708dd0d600eb2e5d293d50eaa4a282cfe580d079afeb677386d97174c661c48",
    "analyze/AA1@96": "f8a238b3e42ae7d40e9be4366639212bafa022a598e2b09b819c9f829373e595",
    "field/AA1@96": "1de8f7d77c59d6bc52ebbebd5c1127f8a175aecae3618a9aee35f8f463924ab3",
    "analyze/AA1@128": "e643e90b3a747d01bd21658c716c3865e1caa4bce4a6141056f4b6afea4afbc3",
    "field/AA1@128": "eb74da99dd187aa74981367a4d90b56a2b334d4f1b0bc6695f4ac0c92e208c46",
    "analyze/AA2@64": "8e32bdc668de85565a2473273e5a194468400f09f538fe61d9d50ad5ff0e256a",
    "field/AA2@64": "eb1aa98382b1b7d973ce422f215826d01e49cf94be818115911e1d5fbf67d71e",
    "analyze/AA2@96": "f8a238b3e42ae7d40e9be4366639212bafa022a598e2b09b819c9f829373e595",
    "field/AA2@96": "cfcb253764658cb3bfcb05b4669e8eb0fbab01d4f60edaf72fc17e5e31f3fdd9",
    "analyze/AA2@128": "e643e90b3a747d01bd21658c716c3865e1caa4bce4a6141056f4b6afea4afbc3",
    "field/AA2@128": "98c2ff6cf8ff2d047a5dccf3aca5faec13c53050687ca819ff5e7d13dca3e678",
}


def test_appendix_c_callback_outputs_are_byte_identical(tmp_path):
    digests = {}
    for mode in ("UN", "AA", "AA1", "AA2"):
        path = tmp_path / f"appendix_c_{mode}.scn"
        path.write_text(APPENDIX_C_CALLBACKS.format(mode=mode))
        for resolution in ("64", "96", "128"):
            for cmd, suffix in (("analyze", "analysis.txt"), ("field", "field.csv")):
                assert main([cmd, str(path), "--out", str(tmp_path), "--resolution", resolution]) == 0
                data = (tmp_path / f"appendix_c_{mode}_{suffix}").read_bytes()
                digests[f"{cmd}/{mode}@{resolution}"] = hashlib.sha256(data).hexdigest()
    assert digests == APPENDIX_C_CALLBACK_DIGESTS


def field_digests(out: Path) -> dict[str, str]:
    """sha256 of the field CSV of every shipped scenario, in each policy
    mode (a copy of the scenario with its mode line replaced), at
    --resolution 1, 31 and 100, keyed "<scenario>/<mode>@<resolution>"."""
    digests = {}
    for scenario in sorted(SCENARIOS.glob("*.scn")):
        for mode in ("UN", "AA", "AA1", "AA2"):
            text, count = re.subn(r"^mode = \w+$", f"mode = {mode}", scenario.read_text(), flags=re.M)
            assert count == 1
            path = out / scenario.name
            path.write_text(text)
            for resolution in ("1", "31", "100"):
                assert main(["field", str(path), "--out", str(out), "--resolution", resolution]) == 0
                data = (out / f"{scenario.stem}_field.csv").read_bytes()
                digests[f"{scenario.stem}/{mode}@{resolution}"] = hashlib.sha256(data).hexdigest()
    return digests


# field_digests, recorded before the field writer formatted each distinct
# number once; regenerate only for a change meant to alter the bytes.
FIELD_DIGESTS = {
    "constant_dt/UN@1": "47fdc340f03d4689ba8a54178d5993bc04c3a3dc366f35a67db1fbbc29fb3aaf",
    "constant_dt/UN@31": "07095b05b9447197bb647286412090b0cc59112c5df3872af7ff8c910041933b",
    "constant_dt/UN@100": "116f25cc88d2b515a8fa9abf2cf8a42792f85d7b6d329fd8240c178cac3a690b",
    "constant_dt/AA@1": "47fdc340f03d4689ba8a54178d5993bc04c3a3dc366f35a67db1fbbc29fb3aaf",
    "constant_dt/AA@31": "07095b05b9447197bb647286412090b0cc59112c5df3872af7ff8c910041933b",
    "constant_dt/AA@100": "116f25cc88d2b515a8fa9abf2cf8a42792f85d7b6d329fd8240c178cac3a690b",
    "constant_dt/AA1@1": "47fdc340f03d4689ba8a54178d5993bc04c3a3dc366f35a67db1fbbc29fb3aaf",
    "constant_dt/AA1@31": "07095b05b9447197bb647286412090b0cc59112c5df3872af7ff8c910041933b",
    "constant_dt/AA1@100": "116f25cc88d2b515a8fa9abf2cf8a42792f85d7b6d329fd8240c178cac3a690b",
    "constant_dt/AA2@1": "47fdc340f03d4689ba8a54178d5993bc04c3a3dc366f35a67db1fbbc29fb3aaf",
    "constant_dt/AA2@31": "07095b05b9447197bb647286412090b0cc59112c5df3872af7ff8c910041933b",
    "constant_dt/AA2@100": "116f25cc88d2b515a8fa9abf2cf8a42792f85d7b6d329fd8240c178cac3a690b",
    "expression_ct/UN@1": "ed91c0364996c9b9a906a29484faa21ec328b1c2ead9f0305e6f40d7621e00a7",
    "expression_ct/UN@31": "2b5386e468d829546bcdd8decc3541f8fcec89fdf8e4976beadc78525d4c439c",
    "expression_ct/UN@100": "5cdffd43171a0452974107045ed5332f0e2b0d0c8b06201f011a7de09f97185e",
    "expression_ct/AA@1": "768e9512f79a70a1988ccd40b49e5c4145b034bef3ec6efba9923abcd282100f",
    "expression_ct/AA@31": "d4c3a11ebaca712c296cfd979c0cfc28822966412a1aeb810f05994ce3f0190e",
    "expression_ct/AA@100": "dd3ddb3aefabf8f915cd28b96f0ea03c327913e14c908f822abd23c997d803b0",
    "expression_ct/AA1@1": "768e9512f79a70a1988ccd40b49e5c4145b034bef3ec6efba9923abcd282100f",
    "expression_ct/AA1@31": "d4c3a11ebaca712c296cfd979c0cfc28822966412a1aeb810f05994ce3f0190e",
    "expression_ct/AA1@100": "dd3ddb3aefabf8f915cd28b96f0ea03c327913e14c908f822abd23c997d803b0",
    "expression_ct/AA2@1": "61882de06a7ddac0355fc43263745fc4303e784a0e95d247d488ed9b8cda702b",
    "expression_ct/AA2@31": "cc7fc8972f70ea8958507559ee618a6a8de0857544b53ca436aef6f9eb00ff7d",
    "expression_ct/AA2@100": "43214b167cadc8632e1c3dc144e6979fc72ca9139a2e92e1bf483521bb196bea",
    "three_equilibria_ct/UN@1": "a01c917feb2d41ca877e8e5f246fd7b7741e2856d38a4d49fb6c9c9e55daf36c",
    "three_equilibria_ct/UN@31": "024fd5ca0872a62b5c3292c11f2fb5f8773c0778a56cee88186e773ba74961f7",
    "three_equilibria_ct/UN@100": "8bf96865cff34bc223dc6ed698737695798889ed24fdcccf10d506720415e930",
    "three_equilibria_ct/AA@1": "a01c917feb2d41ca877e8e5f246fd7b7741e2856d38a4d49fb6c9c9e55daf36c",
    "three_equilibria_ct/AA@31": "928e441e9a0a9fb119e80b947f35d32bba6b1b72101fb0551d7d096d4a432d5d",
    "three_equilibria_ct/AA@100": "8673c75ed7f92295fdf76b968bedfe471887446040fd5efa9b62e3812199ecb1",
    "three_equilibria_ct/AA1@1": "6920de8eb8899fdd74d8ae79c5ce6b6c03c64cbf64ff31d5ac8e0d61d6e1e2be",
    "three_equilibria_ct/AA1@31": "1cdee58d8f34e6e3b9aa937ee1c36d1a6552e588ec2ae1b3dd0f2d4ae0acf0bf",
    "three_equilibria_ct/AA1@100": "092f424eab3bf1db07c65f788ab9396f64d92a4b55f6f3e9adac242d50cb8df2",
    "three_equilibria_ct/AA2@1": "a01c917feb2d41ca877e8e5f246fd7b7741e2856d38a4d49fb6c9c9e55daf36c",
    "three_equilibria_ct/AA2@31": "928e441e9a0a9fb119e80b947f35d32bba6b1b72101fb0551d7d096d4a432d5d",
    "three_equilibria_ct/AA2@100": "8673c75ed7f92295fdf76b968bedfe471887446040fd5efa9b62e3812199ecb1",
}


def test_field_outputs_beyond_the_default_grid_are_byte_identical(tmp_path):
    assert field_digests(tmp_path) == FIELD_DIGESTS

def test_python_m_fairdyn_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "fairdyn", "--version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "fairdyn 1.0.0\n")


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
    pinned = json.loads(SHIPPED_DIGESTS.read_text())["field/three_equilibria_ct"]
    assert hashlib.sha256(data).hexdigest() == pinned
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
    its status-quo check reads that grid: the spec keeps one grid of 512."""
    specs, grids = [], []
    make, sample = Scenario.make_dynamics, DynamicsSpec.sample

    def made(self):
        specs.append(make(self))
        return specs[-1]

    def sampled(self, b0, b1):
        shape = np.broadcast_shapes(np.shape(b0), np.shape(b1))
        if len(shape) == 2:  # a grid; the triangle and the UN map scan are 1-D
            grids.append(shape)
        return sample(self, b0, b1)

    monkeypatch.setattr(Scenario, "make_dynamics", made)
    monkeypatch.setattr(DynamicsSpec, "sample", sampled)
    path = SCENARIOS / "expression_ct.scn"
    assert main(["analyze", str(path), "--out", str(tmp_path), "--resolution", "512"]) == 0
    assert grids == [(513, 513)]
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
