import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fairdyn import PopulationState, UtilitySpec, appendix_c_dynamics, find_equilibria
from fairdyn.cli import main
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
        "expr_f0": st.sampled_from(["0.2 + 0.05*b0", "(b1 + b1/5)/1.2 + 0.01", "min(b0, 0.3)"]),
        "expr_f1": st.sampled_from(["0.8 - 0.02*b1", "exp(-b0)*sin(b1) + 0.5", "0.7"]),
    }),
)
# A per-step stereotype schedule has two or more entries: one entry is a scalar.
_EPS = st.one_of(
    st.none(), _finite(-0.5, 0.5), st.lists(_finite(-0.5, 0.5), min_size=2, max_size=5)
)
_SCENARIOS = st.builds(
    lambda dynamics, **fields: Scenario(**fields, **dynamics),
    dynamics=_DYNAMICS_FORMS,
    name=st.text("abcXYZ019_-.", min_size=1, max_size=12).filter(lambda n: n not in (".", "..")),
    mode=st.sampled_from(["UN", "AA", "AA1", "AA2"]),
    time_mode=st.sampled_from(["DT", "CT"]),
    steps=st.integers(0, 10_000),
    t_end=_finite(0, 1e4),
    h=_finite(1e-6, 1),
    sample_every=st.none() | st.integers(1, 10_000),
    declared_l0=st.none() | _finite(0, 100),
    declared_l1=st.none() | _finite(0, 100),
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
    scenario.validate()
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
# not a plain file name, and declared bounds that are negative or not finite.
BAD_VALUES = [
    ("steps = 20", "steps = x1", "'steps' in [scenario]"),
    ("piA = 0.8", "piA = abc", "'piA' in [state]"),
    ("f0 = 0.2", "f0 = 0.2x", "'f0' in [dynamics]"),
    ("[utility]", "[stereotype]\nepsA = 0,x\n\n[utility]", "'epsA' in [stereotype]"),
    ("f1 = 0.8\n", "", "'f1' in [dynamics] for builtin = constant"),
    ("steps = 20", "steps = 20\nsample_every = 0", "[scenario] sample_every"),
    ("steps = 20", "steps = 20\nsample_every = -3", "[scenario] sample_every"),
    ("steps = 20", "steps = 20\nt_end = inf", "[scenario] t_end"),
    ("steps = 20", "steps = 20\nt_end = 1e300\nh = 1e-300", "[scenario] t_end / h"),
    ("steps = 20", "steps = 20\nh = nan", "[scenario] step size h"),
    ("name = demo", "name = ../escaped", "name '../escaped' in [scenario]"),
    ("name = demo", "name = sub/dir", "name 'sub/dir' in [scenario]"),
    ("name = demo", "name = sub\\dir", "name 'sub\\\\dir' in [scenario]"),
    ("name = demo", "name = a\0b", "name 'a\\x00b' in [scenario]"),
    ("name = demo", "name = ..", "name '..' in [scenario]"),
    ("name = demo", "name = .", "name '.' in [scenario]"),
    ("name = demo", "name =", "name '' in [scenario]"),
    ("f1 = 0.8", "f1 = 0.8\nl0 = -1", "l0 in [dynamics]"),
    ("f1 = 0.8", "f1 = 0.8\nl1 = nan", "l1 in [dynamics]"),
    ("f1 = 0.8", "f1 = 0.8\nl1 = inf", "l1 in [dynamics]"),
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
        "builtin = constant\nf0 = 0.2\nf1 = 0.8\nl0 = 0\nl1 = 0",
        "builtin = affine\na0 = 0.2\nc0 = 0\nd0 = 0\na1 = 0.8\nc1 = 0\nd1 = 0\nl0 = 0\nl1 = 0",
        "builtin = appendixC\nl0 = 40\nl1 = 40",
        "f0 = 0.2\nf1 = 0.8\nl0 = 0\nl1 = 0",
    ):
        Scenario.from_text(DEMO.replace("builtin = constant\nf0 = 0.2\nf1 = 0.8", dyn))


def test_readme_scenario_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    scenario = Scenario.from_text(block)
    assert (scenario.name, scenario.mode, scenario.time_mode) == ("example", "AA", "CT")
    assert scenario.expr_f0 == "0.2 + 0.05*b0" and scenario.expr_f1 == "0.8 - 0.02*b1"
    assert (scenario.declared_l0, scenario.declared_l1) == (0.05, 0.02)
    assert (scenario.eps_a, scenario.eps_b) == (0.0, -0.05)


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


def test_compare_subcommand_theorem1_ordering(tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(DEMO)
    assert main(["compare", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "demo_compare.csv").read_text().strip().split("\n")[1:]
    utilities = {r.split(",")[0]: float(r.split(",")[1]) for r in rows}
    assert set(utilities) == {"UN", "AA1", "AA2"}
    assert utilities["UN"] >= utilities["AA1"] - 1e-9


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


def test_field_subcommand_grid_size(tmp_path):
    text = DEMO.replace("builtin = constant\nf0 = 0.2\nf1 = 0.8", "builtin = appendixC")
    text = text.replace("mode = AA", "mode = UN")
    path = tmp_path / "demo.scn"
    path.write_text(text)
    assert main(["field", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "demo_field.csv").read_text().strip().split("\n")
    assert rows[0] == "piB,piA,dA,dB,diffA,diffB"
    assert len(rows) == 1 + 41 * 41


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


def test_exit_codes(tmp_path):
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
    assert main(["simulate", str(tmp_path)]) == 2  # a directory, not a file
    # flags that did nothing are gone
    good = tmp_path / "demo.scn"
    good.write_text(DEMO)
    assert main(["simulate", str(good), "--seed", "1", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--strict"]) == 2

    # stereotype violation: eps outside the valid range for the state
    text = DEMO + "\n[stereotype]\nepsA = 0.5\nepsB = 0\n"
    ster = tmp_path / "ster.scn"
    ster.write_text(text)
    assert main(["simulate", str(ster), "--out", str(tmp_path)]) == 4

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
