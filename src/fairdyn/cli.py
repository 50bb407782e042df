"""Command-line entry point.

Subcommands simulate, analyze, compare and field each read a scenario file
and write one artifact (see scenario.write_output) into --out (default: the
working directory); they take --strict, analyze and field --resolution too.
verify runs the randomized self-check suites; it takes --seed and
--resolution. Exit codes: 0 success, 1 a verify self-check failed, 2 invalid
scenario, arguments (a --resolution below its minimum too), unreadable file
or a run out of memory, 3 warning escalated under --strict, 4 stereotype
validity violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import PopulationState, UtilitySpec
from .dynamics import APPENDIX_C_F0, APPENDIX_C_F1, GRID_RESOLUTION_MIN, CaseSwitchError, StepHalvingError
from .expr import ExpressionError, compile_expression
from .policy import aa_policy, lp_oracle, unconstrained_policy
from .scenario import Scenario, ScenarioError, write_output
from .stereotype import StereotypeValidityError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_STRICT = 3
EXIT_STEREOTYPE = 4

# Scenario subcommand -> (artifact kind it writes, help text, --resolution's minimum or None).
SCENARIO_COMMANDS = {
    "simulate": ("trajectory", "run one trajectory and write it as CSV", None),
    "analyze": ("analysis", "contraction report, equilibria and theorem verdicts", GRID_RESOLUTION_MIN),
    "compare": ("compare", "cumulative utilities under UN, AA1 and AA2", None),
    "field": ("field", "gradient-field grid over the state square", 1),
}


def cmd_scenario(args) -> int:
    scenario = Scenario.from_file(args.scenario)
    kind = SCENARIO_COMMANDS[args.command][0]
    path = write_output(scenario, kind, args.out or Path.cwd(), args.strict, args.resolution)
    print(f"wrote {path}")
    return EXIT_OK


def _verify_policy_oracle(rng: random.Random, n: int) -> tuple[int, int]:
    failures = 0
    for _ in range(n):
        pa = rng.random()
        pb = rng.random()
        ga = min(0.99, max(0.01, rng.random()))
        u1 = rng.random() * 2.0
        u0 = -rng.random() * 2.0
        state = PopulationState.of(pa, pb, ga)
        u = UtilitySpec(u0=u0, u1=u1)
        closed = aa_policy(state, u)
        oracle = lp_oracle(state, u, parity_constrained=True)
        if abs(closed.achieved_utility - oracle.achieved_utility) > 1e-9:
            failures += 1
            continue
        if unconstrained_policy(state, u).achieved_utility + 1e-9 < closed.achieved_utility:
            failures += 1
    return n, failures


def _verify_parser(n: int) -> tuple[int, int]:
    """The parsed appendixC sources against the same maps written in Python,
    at n points of the unit square."""
    f0 = compile_expression(APPENDIX_C_F0)
    f1 = compile_expression(APPENDIX_C_F1)
    xs = ((np.arange(n) * 0.7548776662466927) % 1.0).tolist()
    ys = ((np.arange(n) * 0.5698402909980532) % 1.0).tolist()
    failures = 0
    for x, y in zip(xs, ys):
        native0 = (y + y / 5.0) / 1.2 + 0.01
        native1 = 0.5 * (y + y / 5.0) / 1.4 + math.exp(-1e-9 * (x + y)) * math.sin(18.0 * (x + y)) + 0.1
        if abs(f0(x, y) - native0) > 1e-12 or abs(f1(x, y) - native1) > 1e-12:
            failures += 1
    return n, failures


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    total, fail = _verify_policy_oracle(rng, args.resolution)
    status = "PASS" if fail == 0 else "FAIL"
    print(f"[{status}] closed-form vs LP oracle: {total - fail}/{total}")
    bad = fail
    total, fail = _verify_parser(10_000)
    status = "PASS" if fail == 0 else "FAIL"
    print(f"[{status}] expression parser vs appendixC in Python: {total - fail}/{total}")
    bad += fail
    return EXIT_OK if bad == 0 else 1


def _at_least(minimum: int):
    """argparse type of --resolution: an int, at least minimum."""

    def resolution(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)

    return resolution


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdyn",
        description="Two-group selection-policy simulation and analysis toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"fairdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text, minimum) in SCENARIO_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario file")
        p.add_argument("--strict", action="store_true", help="escalate warnings to errors")
        p.add_argument("--out", help="output directory (default: cwd)")
        if minimum is not None:
            p.add_argument("--resolution", type=_at_least(minimum), help="grid intervals per axis (N+1 points)")
        p.set_defaults(fn=cmd_scenario, resolution=None)

    v = sub.add_parser("verify", help="run the randomized self-check suites")
    v.add_argument("--seed", type=int, default=0, help="RNG seed for the instance draws")
    v.add_argument("--resolution", type=_at_least(1), default=2000, help="number of randomized policy instances")
    v.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main parses with, built on the first call: parsing
    keeps no state in it, and building one costs about a millisecond."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except StereotypeValidityError as exc:
        print(f"stereotype validity violation: {exc}", file=sys.stderr)
        return EXIT_STEREOTYPE
    except (CaseSwitchError, StepHalvingError) as exc:
        print(f"strict-mode failure: {exc}", file=sys.stderr)
        return EXIT_STRICT
    except (ScenarioError, ExpressionError, ValueError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # names the file, e.g. a missing or directory path
        print(f"cannot read or write file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("out of memory: lower steps, t_end / h or --resolution", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
