"""The golden outputs of the scenario subcommands, in one table: goldens.json.

A row is keyed "<variant>/<subcommand>[@<resolution>]". A variant is a
shipped scenario, the inline appendix_c_expression scenario, or a scenario
with its mode line replaced, "<scenario>:<mode>". An analyze row holds the
report's full text, so a changed verdict shows as the line that changed; a
CSV row holds the file's sha256.

Run it, with no install step (``src`` is put on the path) and no flags,
only for a change meant to alter the bytes:

    python tests/goldens.py

It rewrites the table from CASES, then prints a unified diff of each changed
report and the changed digests, to paste into CHANGES.md. The tests only
read the table.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fairdyn import _loops_py, affine_dynamics, cli, constant_dynamics, parse_dynamics  # noqa: E402
from fairdyn.dynamics import APPENDIX_C_F0, APPENDIX_C_F1  # noqa: E402

TABLE = Path(__file__).with_name("goldens.json")
MODES = ("UN", "AA", "AA1", "AA2")


class Case(NamedTuple):
    variant: str
    scenario: str  # the scenario file's text
    command: str
    resolution: int | None = None

    @property
    def key(self) -> str:
        return f"{self.variant}/{self.command}" + (f"@{self.resolution}" if self.resolution else "")


def with_mode(scenario: str, mode: str) -> str:
    text, count = re.subn(r"^mode = \w+$", f"mode = {mode}", scenario, flags=re.M)
    assert count == 1
    return text


SHIPPED = {path.stem: path.read_text() for path in sorted((ROOT / "scenarios").glob("*.scn"))}

# A CT scenario whose maps are the Appendix C formulas written as
# expressions: its grid analyses and field call sin and exp element-wise in
# the maps' array form, which no shipped scenario does. Its analyze reports
# are three_equilibria_ct's: that scenario runs the builtin appendixC (these
# expressions) at the same gA, u0 and u1.
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

# A CT scenario on the builtin appendixC, where f1 leaves [0, 1] at about a
# third of the points. The tests also run it with appendixC's maps as Python
# callbacks in place of the builtin, on the grid analyses' and the field's
# callback paths.
APPENDIX_C = """\
[scenario]
name = appendix_c
mode = UN
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

CASES = {
    # every subcommand on every shipped scenario with default arguments, and
    # analyze on grids whose step is not a power of two
    "shipped": [Case(name, text, command) for name, text in SHIPPED.items() for command in cli.SCENARIO_COMMANDS]
    + [Case(name, text, "analyze", resolution) for name, text in SHIPPED.items() for resolution in (96, 100)],
    "appendix_c_expression": [
        Case("appendix_c_expression", APPENDIX_C_EXPRESSION, "analyze"),
        Case("appendix_c_expression", APPENDIX_C_EXPRESSION, "analyze", 96),
        Case("appendix_c_expression", APPENDIX_C_EXPRESSION, "field"),
    ],
    "appendix_c_modes": [
        Case(f"appendix_c:{mode}", with_mode(APPENDIX_C, mode), command, resolution)
        for mode in MODES
        for resolution in (64, 96, 128)
        for command in ("analyze", "field")
    ],
    # the field of every shipped scenario in each mode, beyond the default grid
    "field_modes": [
        Case(f"{name}:{mode}", with_mode(text, mode), "field", resolution)
        for name, text in SHIPPED.items()
        for mode in MODES
        for resolution in (1, 31, 100)
    ],
}


def produce(cases: list[Case], out: Path) -> dict[str, str]:
    """Each case's row: its subcommand run through cli.main on its scenario,
    written into a new directory under out."""
    rows = {}
    for i, case in enumerate(cases):
        scenario = out / f"{i}.scn"
        scenario.write_text(case.scenario)
        argv = [case.command, str(scenario), "--out", str(out / str(i))]
        if case.resolution:
            argv += ["--resolution", str(case.resolution)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, case.key
        [artifact] = (out / str(i)).iterdir()
        data = artifact.read_bytes()
        rows[case.key] = data.decode() if case.command == "analyze" else hashlib.sha256(data).hexdigest()
    return rows


# The row of the RK4 kernel sources, and the dynamics it runs: certified,
# clamped, checked and edge maps, as expressions, affine tuples and a
# 300-term sum.
KERNEL_SOURCES = "ct_loop/kernel_sources"
KERNEL_DYNAMICS = (
    lambda: parse_dynamics("0.2 + 0.05*b0", "0.8 - 0.02*b1"),  # expression_ct
    lambda: affine_dynamics(0.1, 0.05, 0.2, 0.6, -0.1, 0.3),  # perfbench's probe
    lambda: constant_dynamics(-0.5, 0.8),
    lambda: constant_dynamics(0.0, 1.0),
    lambda: parse_dynamics(APPENDIX_C_F0, APPENDIX_C_F1),
    lambda: parse_dynamics("0.9*b1", "b1"),
    lambda: parse_dynamics("0.2 + 0.1*b0", "+".join([f"{0.9 / 300!r}*b1"] * 300)),
)


def kernel_sources() -> str:
    """The sha256 of the kernel sources ct_loop generates, in order, after
    its kernel cache is cleared, for each of KERNEL_DYNAMICS in each mode,
    from a float and a float32 start."""
    runs = [dyn() for dyn in KERNEL_DYNAMICS]
    sources, generate = [], _loops_py._kernel_source
    _loops_py._kernel.cache_clear()
    _loops_py._kernel_source = lambda *args: sources.append(generate(*args)) or sources[-1]
    try:
        for dyn in runs:
            for mode in range(4):
                for pa in (0.7, np.float32(0.7)):
                    args = (pa, 0.2, 0.4, -1.5, 1.0, mode, dyn.f0, dyn.f1, dyn.affine, 0.01, 10, 1, 1e-10, 0.0)
                    _loops_py.ct_loop(*args)
    finally:
        _loops_py._kernel_source = generate
    return hashlib.sha256("".join(sources).encode()).hexdigest()


def main() -> None:
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as out:
        new = produce([case for cases in CASES.values() for case in cases], Path(out))
    new[KERNEL_SOURCES] = kernel_sources()
    TABLE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    changed = [key for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    for key in changed:
        if "/analyze" in key:
            before, after = (rows.get(key, "").splitlines(keepends=True) for rows in (old, new))
            sys.stdout.writelines(difflib.unified_diff(before, after, f"a/{key}", f"b/{key}"))
    for key in changed:
        if "/analyze" not in key:
            print(f"{key}: {old.get(key)} -> {new.get(key)}")


if __name__ == "__main__":
    main()
