import dataclasses
import math
import re
import struct
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdyn import (
    CaseSwitchError,
    PopulationState,
    QualificationProfile,
    StepHalvingError,
    UtilitySpec,
    affine_dynamics,
    appendix_c_dynamics,
    constant_dynamics,
    ct_gradient,
    ct_integrate,
    dt_step,
    dt_trajectory,
    estimate_contraction,
    make_builtin,
    parse_dynamics,
)
from fairdyn import _loops_py, analysis
from fairdyn.dynamics import DynamicsSpec, dt_map, grid_axis
from conftest import appendix_c_callbacks, random_contractive_affine

U = UtilitySpec(u0=-1.0, u1=1.0)
CONST = constant_dynamics(0.2, 0.8)


def test_dt_step_identity_dynamics():
    dyn = constant_dynamics(0.0, 1.0)
    for p in (0.0, 0.3, 1.0):
        for rates in ((0.0, 0.0), (0.5, 0.5)):
            assert dt_step(QualificationProfile(p), rates, dyn).p1 == p


def test_dt_step_fixed_point():
    assert dt_step(QualificationProfile(0.5), (0.0, 0.5), CONST).p1 == pytest.approx(
        0.5, abs=1e-15
    )


def test_dt_step_empty_qualified_mass():
    dyn = constant_dynamics(0.37, 0.9)
    assert dt_step(QualificationProfile(0.0), (0.0, 0.0), dyn).p1 == 0.37


def test_dt_trajectory_zero_steps():
    state = PopulationState.of(0.8, 0.3, 0.5)
    rec = dt_trajectory(state, "UN", U, CONST, 0)
    assert len(rec.times) == 1
    assert rec.pi_a[0] == 0.8 and rec.pi_b[0] == 0.3
    assert rec.cumulative_utility == 0.0


def test_dt_trajectory_geometric_decay_exact():
    rec = dt_trajectory(PopulationState.of(0.9, 0.9, 0.5), "UN", U, CONST, 30)
    for t in range(31):
        assert abs(rec.pi_a[t] - 0.5) == pytest.approx(0.4 * 0.6**t, rel=1e-12)


def test_dt_equal_profiles_aa_equals_un():
    state = PopulationState.of(0.6, 0.6, 0.4)
    a = dt_trajectory(state, "AA", U, CONST, 20)
    b = dt_trajectory(state, "UN", U, CONST, 20)
    assert np.array_equal(a.pi_a, b.pi_a)
    assert np.array_equal(a.pi_b, b.pi_b)
    assert np.array_equal(a.tau1_a, b.tau1_a)


def test_dt_cumulative_counts_applied_policies_only():
    state = PopulationState.of(0.8, 0.3, 0.5)
    rec = dt_trajectory(state, "UN", U, CONST, 3)
    assert rec.cumulative_utility == pytest.approx(float(np.sum(rec.step_utility[:-1])))


def test_dt_profiles_stay_bounded():
    dyn = affine_dynamics(0.9, 0.5, 0.5, 1.0, 0.5, 0.5)  # pushes past 1, clamps
    rec = dt_trajectory(PopulationState.of(0.9, 0.1, 0.5), "UN", U, dyn, 20)
    assert np.all(rec.pi_a >= 0.0) and np.all(rec.pi_a <= 1.0)
    assert rec.clamp_count > 0
    assert any(kind == "clamp" for _, kind in rec.events)


def test_dt_case_switch_event_and_strict():
    # g_a = 0.7: A-advantaged states classify AA2, B-advantaged classify AA1.
    # f0 rises steeply in b0, so the AA2 fill rate for the disadvantaged
    # group overshoots and the advantage swaps, switching the case with it.
    dyn = affine_dynamics(0.2, 0.9, 0.0, 0.9, 0.0, 0.0)
    state = PopulationState.of(0.9, 0.1, 0.7)
    u = UtilitySpec(u0=-2.0, u1=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = dt_trajectory(state, "AA", u, dyn, 40)
    kinds = {kind for _, kind in rec.events}
    assert "case_switch" in kinds
    assert "advantage_swap" in kinds
    with pytest.raises(CaseSwitchError):
        dt_trajectory(state, "AA", u, dyn, 40, strict=True)


def test_ct_integrator_exactness():
    rec = ct_integrate(PopulationState.of(0.9, 0.9, 0.5), "UN", U, CONST, t_end=10.0, h=1e-3)
    exact = 0.5 + 0.4 * math.exp(-0.4 * 10.0)
    assert abs(rec.pi_a[-1] - exact) <= 1e-6
    assert rec.time_mode == "CT"


def test_ct_equilibrium_start_is_constant():
    rec = ct_integrate(PopulationState.of(0.5, 0.5, 0.5), "UN", U, CONST, t_end=5.0, h=1e-2)
    assert np.max(np.abs(rec.pi_a - 0.5)) <= 1e-12


def test_ct_aa_from_equal_profiles_traces_un():
    a = ct_integrate(PopulationState.of(0.7, 0.7, 0.5), "AA", U, CONST, t_end=3.0, h=1e-2)
    b = ct_integrate(PopulationState.of(0.7, 0.7, 0.5), "UN", U, CONST, t_end=3.0, h=1e-2)
    assert np.array_equal(a.pi_a, b.pi_a)
    assert np.array_equal(a.pi_b, b.pi_b)


def test_ct_rejects_bad_arguments():
    state = PopulationState.of(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        ct_integrate(state, "UN", U, CONST, t_end=1.0, h=0.0)
    with pytest.raises(ValueError):
        ct_integrate(state, "UN", U, CONST, t_end=-1.0)
    for bad, named in (
        ({"t_end": math.inf}, "t_end must"),
        ({"t_end": math.nan}, "t_end must"),
        ({"t_end": 1e300, "h": 1e-300}, "t_end / h"),
        ({"h": math.nan}, "h must"),
        ({"h": math.inf}, "h must"),
        ({"sample_every": 0}, "sample_every must"),
        ({"sample_every": -3}, "sample_every must"),
        ({"sample_every": 2.5}, "sample_every must be an integer"),
        ({"sample_every": 2.0}, "sample_every must be an integer"),
        ({"sample_every": math.nan}, "sample_every must be an integer"),
        ({"sample_every": math.inf}, "sample_every must be an integer"),
        # not a whole number of steps: the run would end at t = 1.0, or at t = 0
        ({"t_end": 1.05, "h": 0.1}, r"t_end = 1\.05 is not a whole number of steps h = 0\.1"),
        ({"t_end": 0.04, "h": 0.1}, r"t_end = 0\.04 is not a whole number of steps h = 0\.1"),
    ):
        with pytest.raises(ValueError, match=named):
            ct_integrate(state, "UN", U, CONST, **{"t_end": 1.0, "h": 0.01, **bad})
    for steps in (-1, 2.5, 2.0, math.nan, math.inf):  # dt_trajectory's count of steps
        with pytest.raises(ValueError, match=f"steps must be an integer >= 0, got {steps!r}"):
            dt_trajectory(state, "UN", U, CONST, steps)


def test_ct_step_halving_check_passes():
    rec = ct_integrate(
        PopulationState.of(0.9, 0.2, 0.5), "AA", U, CONST, t_end=5.0, h=1e-2,
        check_step_halving=True,
    )
    assert rec.extras["step_halving_ok"]
    assert rec.extras["step_halving_diff"] <= 1e-6


def test_ct_step_halving_failure_warns_and_raises_under_strict():
    """A step of 0.5 on appendixC moves the endpoint 5.94e-05 from the h/2
    run's, past the check's 1e-6: the run warns and records the check as
    failed, and under strict raises StepHalvingError instead."""
    state = PopulationState.of(0.95, 0.05, 0.5)
    kwargs = dict(t_end=5.0, h=0.5, check_step_halving=True)
    message = r"^step-halving check failed: endpoint difference 5\.94e-05$"
    with pytest.warns(RuntimeWarning, match=message):
        rec = ct_integrate(state, "UN", U, appendix_c_dynamics(), **kwargs)
    assert not rec.extras["step_halving_ok"]
    with pytest.raises(StepHalvingError, match=message):
        ct_integrate(state, "UN", U, appendix_c_dynamics(), **kwargs, strict=True)


def test_ct_step_halving_warns_each_case_switch_once():
    """The h/2 run of the step-halving check gives its endpoint only: the
    AA case switch near t = 19.5 warns once, as it does without the check,
    and a NaN endpoint of the h/2 run still raises."""
    state = PopulationState.of(0.1, 0.15, 0.7)
    for halving in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = ct_integrate(
                state, "AA", UtilitySpec(-1, 1), appendix_c_dynamics(), t_end=20, h=0.01,
                check_step_halving=halving,
            )
        assert [str(w.message) for w in caught] == ["AA case switched near t=19.5"]
    assert rec.extras["step_halving_ok"]
    # f0 is NaN at one rate that only the h/2 run evaluates
    seen = {0.5: set(), 1.0: set()}
    for h in seen:
        spy = DynamicsSpec(f0=lambda b0, b1, h=h: seen[h].add(b1) or 1.0, f1=lambda b0, b1: 1.0)
        ct_integrate(PopulationState.of(0.1, 0.1, 0.5), "UN", U, spy, t_end=1.0, h=h)
    only_fine = min(seen[0.5] - seen[1.0])
    nan_once = DynamicsSpec(f0=lambda b0, b1: math.nan if b1 == only_fine else 1.0, f1=lambda b0, b1: 1.0)
    with pytest.raises(ValueError, match=r"^NaN state \(piA, piB\) = \(nan, nan\) at t=1\.0 of the step-halving run"):
        ct_integrate(PopulationState.of(0.1, 0.1, 0.5), "UN", U, nan_once, t_end=1.0, h=1.0,
                     check_step_halving=True)


def test_ct_merge_event_and_shared_trajectory():
    rec = ct_integrate(
        PopulationState.of(0.9, 0.1, 0.5), "UN", U, CONST, t_end=80.0, h=1e-2
    )
    assert any(kind == "merge" for _, kind in rec.events)
    assert rec.pi_a[-1] == rec.pi_b[-1]


def test_ct_stationary_stop():
    rec = ct_integrate(
        PopulationState.of(0.9, 0.1, 0.5), "UN", U, CONST, t_end=500.0, h=1e-2,
        stop_tol=1e-10,
    )
    assert any(kind == "stationary_stop" for _, kind in rec.events)
    assert rec.times[-1] < 500.0
    assert abs(rec.pi_a[-1] - 0.5) <= 1e-8


def test_affine_fast_path_matches_generic_path(rng):
    def both_paths(dyn, head, tail):
        fast = _loops_py.ct_loop(*head, dyn.f0, dyn.f1, dyn.affine, *tail)
        generic = _loops_py.ct_loop(*head, dyn.f0, dyn.f1, None, *tail)
        # the same maps written as expressions: the same operations in order
        a0, c0, d0, a1, c1, d1 = dyn.affine
        parsed = parse_dynamics(
            f"{a0!r} + {c0!r}*b0 + {d0!r}*b1", f"{a1!r} + {c1!r}*b0 + {d1!r}*b1"
        )
        assert fast == generic == _loops_py.ct_loop(*head, parsed.f0, parsed.f1, None, *tail)
        return fast

    for _ in range(10):
        dyn = random_contractive_affine(rng, slope=0.3)
        head = (rng.random(), rng.random(), 0.4, -1.0, 1.0, 1)
        both_paths(dyn, head, (0.01, 1500, 11, 1e-10, 0.0))
    dyn = affine_dynamics(0.4, 0.05, 0.1, 0.5, -0.05, 0.1)
    for mode in (0, 1, 2, 3):
        head = (0.9, 0.2, 0.5, -1.0, 1.0, mode)
        _, _, merge_step, stop_step = both_paths(dyn, head, (0.01, 6000, 11, 1e-10, 1e-12))
        assert 0 <= merge_step < stop_step  # merges, then stops on the merged path


def test_ct_order_preservation_all_modes(rng):
    for _ in range(10):
        dyn = random_contractive_affine(rng)
        state = PopulationState.of(0.85, 0.25, 0.45)
        for mode in ("UN", "AA1", "AA2"):
            rec = ct_integrate(state, mode, U, dyn, t_end=20.0, h=1e-2)
            assert np.min(rec.delta) >= -1e-8


def test_dt_ct_limits_agree(rng):
    for _ in range(5):
        dyn = random_contractive_affine(rng)
        if not estimate_contraction(dyn, resolution=64).is_contractive_un:
            continue
        state = PopulationState.of(0.9, 0.2, 0.5)
        dt = dt_trajectory(state, "UN", U, dyn, 400)
        ct = ct_integrate(state, "UN", U, dyn, t_end=200.0, h=1e-2, stop_tol=1e-12)
        assert abs(dt.pi_a[-1] - ct.pi_a[-1]) <= 1e-6
        assert abs(dt.pi_b[-1] - ct.pi_b[-1]) <= 1e-6


def test_ct_gradient_matches_rhs():
    da, db = ct_gradient(0.9, 0.9, 0.5, "UN", U, CONST)
    # dpi/dt = pi*(0.8-1) + (1-pi)*0.2 = 0.2 - 0.4*pi
    assert da == pytest.approx(0.2 - 0.4 * 0.9, abs=1e-15)
    assert db == da


def test_validate_declared_lipschitz():
    good = affine_dynamics(0.2, 0.1, 0.1, 0.8, 0.1, 0.1)
    good.validate_declared()
    from fairdyn import DynamicsSpec

    lying = DynamicsSpec(
        f0=lambda b0, b1: 0.9 * b0, f1=lambda b0, b1: 0.5, declared_l0=0.1, declared_l1=0.0
    )
    # estimate_contraction checks the same grid before it reports a bound
    named = "f0 of dynamics 'custom': sampled slope 0.9 exceeds declared Lipschitz constant 0.1"
    for check in (lying.validate_declared, lambda: estimate_contraction(lying, resolution=64)):
        with pytest.raises(ValueError, match=re.escape(named)):
            check()
    only_l1 = DynamicsSpec(f0=lambda b0, b1: 0.2, f1=lambda b0, b1: 0.5 + 0.3 * b1, declared_l1=0.2)
    with pytest.raises(ValueError, match="f1 of dynamics 'custom': sampled slope 0.3 exceeds"):
        estimate_contraction(only_l1, resolution=64)


def test_validate_declared_samples_nothing_when_nothing_is_declared():
    """With no declared constant there is nothing to check: validate_declared
    calls no map and keeps no grid."""
    calls = []
    dyn = DynamicsSpec(f0=lambda b0, b1: calls.append(0) or 0.2, f1=lambda b0, b1: calls.append(1) or 0.8)
    dyn.validate_declared(64)
    assert calls == [] and dyn._grids == {}


def test_make_builtin_names_an_unknown_builtin():
    with pytest.raises(KeyError, match=re.escape("unknown builtin dynamics 'nope'")):
        make_builtin("nope")


def test_nan_from_callback_dynamics_is_rejected():
    from fairdyn import DynamicsSpec, StereotypeSpec, stereotype_trajectory, un_map

    nan_above = DynamicsSpec(
        f0=lambda b0, b1: 0.2, f1=lambda b0, b1: math.nan if b1 > 0.5 else 0.8, name="nan"
    )
    point = re.escape("f1 of dynamics 'nan' is NaN at (b0, b1) = (0.0, 0.75)")
    with pytest.raises(ValueError, match=point):
        nan_above.sample(0.0, np.array([0.25, 0.75]))
    with pytest.raises(ValueError, match=point):
        ct_gradient(0.75, 0.5, 0.5, "UN", U, nan_above)
    with pytest.raises(ValueError, match=point):
        un_map(nan_above)(0.75)
    # the trajectory engines name the time of the first NaN state
    state = PopulationState.of(0.9, 0.7, 0.5)
    with pytest.raises(ValueError, match=r"NaN state .* near t=0\.01"):
        ct_integrate(state, "UN", U, nan_above, t_end=1.0, h=0.01)
    with pytest.raises(ValueError, match=r"NaN state .* at step 1"):
        dt_trajectory(state, "UN", U, nan_above, 5)
    with pytest.raises(ValueError, match=r"NaN state .* at step 1"):
        stereotype_trajectory(state, "UN", U, nan_above, StereotypeSpec(0.0, 0.0), 5)


def test_an_overflowing_running_utility_names_the_utilities_and_the_time():
    """Each step utility is finite, but their running sum can overflow: the
    engines raise, naming u0, u1 and the first time whose running utility
    is not finite, and numpy warns of no overflow (a warning would fail
    here, as the test settings make it an error)."""
    dt_overflow = re.escape("running utility is not finite from t = 3.0 (u0 = -1.0, u1 = 1e+308)")
    with pytest.raises(ValueError, match=dt_overflow):
        dt_trajectory(PopulationState.of(0.8, 0.3, 0.5), "AA", UtilitySpec(-1.0, 1e308), CONST, 50)
    assert dt_trajectory(PopulationState.of(0.8, 0.3, 0.5), "AA", UtilitySpec(-1.0, 1e308), CONST, 2)
    ct_overflow = re.escape("running utility is not finite from t = 4.92 (u0 = -1e+308, u1 = 1e+308)")
    expression_ct = parse_dynamics("0.2 + 0.05*b0", "0.8 - 0.02*b1")
    state = PopulationState.of(0.7, 0.2, 0.4)
    with pytest.raises(ValueError, match=ct_overflow):
        ct_integrate(state, "AA1", UtilitySpec(-1e308, 1e308), expression_ct, t_end=10.0, h=0.001)
    record = ct_integrate(state, "AA1", UtilitySpec(-1e308, 1e308), expression_ct, t_end=4.0, h=0.001)
    assert math.isfinite(record.cumulative_utility)


def test_an_unknown_policy_mode_is_a_value_error_naming_the_modes():
    from fairdyn import export_field

    state, named = PopulationState.of(0.7, 0.3, 0.5), re.escape("unknown policy mode 'XX': expected one of UN, AA, AA1, AA2")
    for dyn in (CONST, appendix_c_callbacks()):  # export_field's array and per-point paths
        for run in (
            lambda: dt_trajectory(state, "XX", U, dyn, 3),
            lambda: ct_integrate(state, "XX", U, dyn, t_end=0.1, h=0.01),
            lambda: ct_gradient(0.7, 0.3, 0.5, "XX", U, dyn),
            lambda: export_field(dyn, "XX", U, resolution=3),
        ):
            with pytest.raises(ValueError, match=named):
                run()


def test_parse_dynamics_produces_working_spec():
    dyn = parse_dynamics("0.2", "0.8")
    rec = ct_integrate(PopulationState.of(0.9, 0.9, 0.5), "UN", U, dyn, t_end=2.0, h=1e-2)
    ref = ct_integrate(PopulationState.of(0.9, 0.9, 0.5), "UN", U, CONST, t_end=2.0, h=1e-2)
    assert np.array_equal(rec.pi_a, ref.pi_a)


def test_appendix_c_shape():
    dyn = appendix_c_dynamics()
    assert dyn.f0(0.0, 0.0) == pytest.approx(0.01)
    assert dyn.f1(0.0, 0.0) == pytest.approx(0.1)
    assert dyn.affine is None


def test_a_replaced_spec_reads_its_new_maps():
    """dataclasses.replace with new f0 and f1 keeps no array form of the old
    maps: the grid analyses and the field read the new ones, here Python
    callbacks, called once per point."""
    from fairdyn import export_field

    def g0(b0, b1):
        return 0.3 + 0.1 * b1

    def g1(b0, b1):
        return 0.6 - 0.2 * b0

    dyn = dataclasses.replace(parse_dynamics("0.2 + 0.1*b0", "0.7 - 0.1*b1", name="new"), f0=g0, f1=g1)
    fresh = DynamicsSpec(g0, g1, name="new")
    xs, f0, f1 = dyn.sample_grid(8)
    assert f0.tolist() == [[g0(x, y) for y in xs.tolist()] for x in xs.tolist()]
    assert f1.tolist() == [[g1(x, y) for y in xs.tolist()] for x in xs.tolist()]
    assert estimate_contraction(dyn, 64) == estimate_contraction(fresh, 64)
    for mode in ("UN", "AA1"):
        assert export_field(dyn, mode, U, resolution=5) == export_field(fresh, mode, U, resolution=5)


@pytest.mark.parametrize("resolution", [0, -3, 2.5, "8", None])
def test_sample_grid_rejects_a_bad_resolution(resolution):
    """sample_grid and validate_declared (with or without declared
    constants) name a resolution that is not an integer >= 1, rather than
    fail inside numpy or pass it unread."""
    dyn = parse_dynamics("0.2 + 0.1*b0", "0.7 - 0.1*b1", declared_l0=1.0, declared_l1=1.0)
    message = re.escape(f"resolution must be an integer >= 1, got {resolution!r}")
    with pytest.raises(ValueError, match=message):
        dyn.sample_grid(resolution)
    for spec in (dyn, dataclasses.replace(dyn, declared_l0=None, declared_l1=None)):
        with pytest.raises(ValueError, match=message):
            spec.validate_declared(resolution)
    assert dyn.sample_grid(1)[0].tolist() == [0.0, 1.0]


# Map sources for the grid tests: the test_expr.py shapes (a map of b0 or b1
# alone, one with a zero divisor, a complex power or an overflow at some
# grid points, '^' of two arrays, -0.0, a NaN through max),
# 1,000-term chains and the sine that aliases to 0 on the res-256 grid.
GRID_SOURCES = [
    "min(1/b0, 2)", "max(2, (1e999-1e999)/b0)", "(b0-0.5)^0.5", "(b1-0.5)^0.5", "exp(800*b1)",
    "exp(1000*b1)", "sin(1e999*b0)", "min(b0, -b1)", "max(-b0, b1)", "sin(b0)", "b0^b1", "b0/b1",
    "exp(-b0)*sin(18*(b0 + b1))", "-0.0*b0", "0.3 + 0.1*sin(1608.4954386379741*b0)", "0.25",
    "+".join(["b0"] * 1000), "*".join(["b1"] * 1000), "/".join(["b1"] * 1000),
]
GRID_SPECS = [
    *(parse_dynamics(source, "0.5", name=f"f0 = {source[:40]}") for source in GRID_SOURCES),
    *(parse_dynamics("0.5", source, name=f"f1 = {source[:40]}") for source in GRID_SOURCES),
    parse_dynamics("1/(b1 - 0.5)", "2/(b1 - 0.5)", name="both fail"),
    appendix_c_dynamics(),
    appendix_c_callbacks(),  # no array form
    constant_dynamics(0.2, 0.8),
    affine_dynamics(0.1, 0.7, -0.4, 0.5, 0.3, 0.9),  # clamps at both ends
    affine_dynamics(-0.0, -0.0, 0.0, 0.5, 1e308, 1e308),  # -0.0, and an infinite value
]


@pytest.mark.parametrize("resolution", [1, 8, 96, 257])
@pytest.mark.parametrize("dyn", GRID_SPECS, ids=lambda d: d.name)
def test_the_broadcast_grid_is_the_materialised_grid(dyn, resolution):
    """sample_grid evaluates the maps once, on the axes each subexpression
    reads (b0 down, b1 across): the kept grid is sample's on the
    materialised grid bit for bit, read-only and (r+1) x (r+1); where a map
    fails at a grid point, the same error names the same point."""
    xs = grid_axis(resolution)
    spec = dataclasses.replace(dyn)  # keeps no grid
    want = _result(lambda: spec.sample(xs[:, None], xs))
    got = _result(lambda: spec.sample_grid(resolution)[1:])
    assert got == want
    if isinstance(want, list):
        grid = spec.sample_grid(resolution)
        assert grid[0].tobytes() == xs.tobytes()
        assert all(a.shape == (xs.size, xs.size) for a in grid[1:])
        assert not any(a.flags.writeable for a in grid)
    else:
        assert not spec._grids


FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, 5e-324, -5e-324])


@given(x=FLOATS, f1=FLOATS, f0=FLOATS)
def test_dt_map_is_its_formula_on_floats_and_arrays(x, f1, f0):
    """dt_map gives the bits of x*f1 + (1.0-x)*f0, on floats and on float
    arrays (a NaN as a NaN, whatever its payload)."""
    want = x * f1 + (1.0 - x) * f0
    got = dt_map(x, f1, f0)
    with np.errstate(all="ignore"):
        array = dt_map(*(np.array([v]) for v in (x, f1, f0)))
    assert type(got) is float and array.dtype == np.float64
    for value in (got, float(array[0])):
        assert struct.pack("d", value) == struct.pack("d", want) or (math.isnan(value) and math.isnan(want))


def test_a_float32_callback_computes_with_its_float_values():
    """A callback returning numpy float32 values gives the results of one
    returning the same values as floats: f0_clamped and f1_clamped convert
    them, so no scalar path computes in float32."""
    from fairdyn import export_field, find_equilibria, un_map

    base = appendix_c_dynamics()
    as32 = [lambda b0, b1, f=f: np.float32(f(b0, b1)) for f in (base.f0, base.f1)]
    as_float = [lambda b0, b1, f=f: float(f(b0, b1)) for f in as32]
    single, double = DynamicsSpec(*as32, name="c"), DynamicsSpec(*as_float, name="c")
    u, points = UtilitySpec(-1.0, 0.7), [(0.6, 0.4), (0.1, 0.9), (0.35, 0.35), (1.0, 0.0)]

    def results(dyn):
        gradients = [ct_gradient(pa, pb, 0.3, mode, u, dyn) for pa, pb in points for mode in ("UN", "AA")]
        un = [un_map(dyn)(pi) for pi in (0.0, 0.2, 0.5, 0.9)]
        atlases = [find_equilibria(dyn, mode) for mode in ("CT", "DT")]
        return repr((gradients, un, atlases, export_field(dyn, "AA1", u, resolution=7, g_a=0.3)))

    assert results(single) == results(double)


# What a callback map returns at its drawn point (or at every point): a
# value, or ZeroDivisionError, which the map raises.
OUTCOMES = (
    0.375,  # in range
    1.625,  # out of range
    math.inf,
    -math.inf,
    -0.0,
    1,  # an int
    np.float32(0.3),
    Fraction(1, 3),
    -Fraction(1, 10**400),  # float() of it is -0.0, which the clamp keeps
    math.nan,
    ZeroDivisionError,
    0.5 + 0.25j,
)
GRID8 = grid_axis(8)  # every grid_axis(8) point is a grid_axis(64) and a grid_axis(4096) point


def _frozen_sample(dyn, b0, b1):
    """DynamicsSpec.sample on a spec without array maps, point by point:
    f1_clamped, then f0_clamped, at each point in order."""
    b0, b1 = np.broadcast_arrays(b0, b1)
    f0, f1 = np.empty(b0.size), np.empty(b0.size)
    for n, (x, y) in enumerate(zip(b0.ravel().tolist(), b1.ravel().tolist())):
        f1[n] = dyn.f1_clamped(x, y)
        f0[n] = dyn.f0_clamped(x, y)
    return f0.reshape(b0.shape), f1.reshape(b0.shape)


def _outcome_map(base, outcome, point, everywhere, calls, which):
    def f(b0, b1):
        calls[which] += 1
        if everywhere or (b0, b1) == point:
            return 1.0 / 0.0 if outcome is ZeroDivisionError else outcome
        return base(b0, b1)

    return f


def _result(fn):
    """The bytes of fn's arrays or the repr of its result, or its
    exception's type and message."""
    try:
        value = fn()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, tuple) and all(isinstance(v, np.ndarray) for v in value):
        return [(v.dtype, v.shape, v.tobytes()) for v in value]
    return repr(value)


CASE = st.tuples(
    st.integers(0, len(OUTCOMES) - 1),
    st.one_of(st.just(0.0), st.sampled_from(GRID8.tolist())),  # b0 = 0 is on the UN map
    st.sampled_from(GRID8.tolist()),
    st.integers(0, 3).map(lambda k: k == 0),  # the outcome at every point
)


AFFINE = (0.2, 0.1, 0.3, 0.4, 0.0, 0.5)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.tuples(*[st.floats(-0.5, 1.5)] * 6),
    case0=CASE,
    case1=CASE,
    declared=st.sampled_from([0.5, 1e6]),
)
@example(coeffs=AFFINE, case0=(8, 0.0, 0.5, False), case1=(0, 0.0, 0.0, False), declared=1e6)  # -Fraction(1, 10**400)
@example(coeffs=AFFINE, case0=(0, 0.0, 0.0, False), case1=(9, 0.25, 0.5, False), declared=1e6)  # NaN
@example(coeffs=AFFINE, case0=(0, 0.0, 0.0, False), case1=(9, 0.0, 0.5, False), declared=1e6)  # NaN on the UN map
@example(coeffs=AFFINE, case0=(1, 0.5, 0.5, False), case1=(6, 0.0, 0.375, False), declared=1e6)  # un_map in float32
@example(coeffs=AFFINE, case0=(5, 0.0, 0.0, True), case1=(4, 0.0, 0.0, True), declared=0.5)  # ints, -0.0 everywhere
def test_called_maps_match_the_per_point_path(coeffs, case0, case1, declared):
    """Each grid analysis of a callback spec gives the bytes, repr or error
    (class and message) of the per-point path, whatever the maps return at
    one point or at every point; and where every value is a float (not NaN)
    or an int, each map is called as often as the per-point path calls it,
    once per point.
    Each run gets fresh maps, counters and spec: a spec keeps its grid."""
    a0, c0, d0, a1, c1, d1 = coeffs
    bases = (lambda b0, b1: a0 + c0 * b0 + d0 * b1, lambda b0, b1: a1 + c1 * b0 + d1 * b1)

    def fresh():
        calls = [0, 0]
        maps = [
            _outcome_map(base, OUTCOMES[k], (b0, b1), everywhere, calls, which)
            for which, (base, (k, b0, b1, everywhere)) in enumerate(zip(bases, (case0, case1)))
        ]
        return DynamicsSpec(*maps, name="outcomes", declared_l0=declared, declared_l1=declared), calls

    values = [OUTCOMES[case0[0]], OUTCOMES[case1[0]]]
    called_once = all(type(v) in (float, int) and v == v for v in values)  # a float, not NaN, or an int
    analyses = {
        "sample": lambda dyn: dyn.sample(GRID8[:, None], GRID8),
        "status quo": lambda dyn: analysis.check_status_quo_bias(dyn, 64),
        "declared": lambda dyn: dyn.validate_declared(96),  # 97**2 points: two chunks
        "equilibria CT": lambda dyn: analysis.find_equilibria(dyn, "CT"),
        "equilibria DT": lambda dyn: analysis.find_equilibria(dyn, "DT"),
    }
    for name, run in analyses.items():
        dyn, got_calls = fresh()
        got = _result(lambda: run(dyn))
        dyn, calls = fresh()
        with mock.patch.object(DynamicsSpec, "sample", _frozen_sample):
            want = _result(lambda: run(dyn))
        assert got == want, name
        if called_once:
            assert got_calls == calls, name
    if called_once:
        dyn, calls = fresh()
        dyn.sample(GRID8[:, None], GRID8)
        assert calls == [GRID8.size**2] * 2
