import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdyn import (
    ContractionReport,
    DynamicsSpec,
    ExpressionEvaluationError,
    PopulationState,
    UtilitySpec,
    affine_dynamics,
    appendix_c_dynamics,
    check_status_quo_bias,
    constant_dynamics,
    ct_gradient,
    ct_integrate,
    delta_bounds,
    dt_trajectory,
    estimate_contraction,
    export_field,
    find_equilibria,
    parse_dynamics,
    prop3_case_persistence,
    theorem2_verdict,
    theorem4_limits,
    un_map,
)
from fairdyn.analysis import ROOT_RESIDUAL_TOL, Equilibrium, EquilibriumAtlas, _bisect
from fairdyn.dynamics import grid_axis, max_grid_slope
from fairdyn.policy import CASE_AA1, CASE_AA2, MODE_AA, policy_entries
from conftest import appendix_c_callbacks, random_contractive_affine

CONST = constant_dynamics(0.2, 0.8)
U = UtilitySpec(u0=-1.0, u1=1.0)

# Frozen reference values for the built-in three-equilibrium dynamics,
# computed by dense scan + bisection at build time.
APPENDIX_ATTRACTING = (0.1770509508419309, 0.51332652914925347, 0.85074559419035722)
APPENDIX_UNSTABLE = (0.35373029943048095, 0.71533796947142037)


def test_constant_dynamics_constants():
    rep = estimate_contraction(CONST, resolution=128)
    assert rep.l0 == 0.0 and rep.l1 == 0.0
    assert rep.l_un == pytest.approx(0.6, abs=1e-12)
    assert rep.l_aa1 == pytest.approx(0.6, abs=1e-12)
    assert rep.l_aa2 == pytest.approx(0.6, abs=1e-12)
    assert rep.is_contractive_un and rep.is_contractive_aa1 and rep.is_contractive_aa2
    assert rep.method == "grid+declared-constants"
    assert rep.l_un_upper == pytest.approx(0.6, abs=1e-12)


def test_verdicts_use_the_declared_upper_bounds():
    # The grid estimate of L_UN is below 1, but the upper bound the
    # declared constants give is not: L_UN < 1 is not shown.
    dyn = parse_dynamics("0.2 + 0.3*b0", "0.599 + 0.3*b1", declared_l0=0.3, declared_l1=0.3)
    rep = estimate_contraction(dyn, resolution=256)
    assert rep.l_un < 1.0 - 1e-6 < rep.l_un_upper == 1.0036875
    assert not rep.is_contractive_un and not rep.is_contractive_aa2
    below = dataclasses.replace(rep, l_aa2=0.9, l_aa2_upper=0.95)
    assert below.is_contractive_aa2
    assert not dataclasses.replace(below, l_aa2_upper=1.0).is_contractive_aa2
    assert dataclasses.replace(rep, l_un_upper=None).is_contractive_un


def test_theorem2_uses_the_bound_that_makes_each_test_sound():
    # alpha = 1/3: lower_ok needs L_UN >= 2/3, upper_ok L_AA2 <= 1 + 3*(L_UN - 1)
    rep = ContractionReport(
        l_un=0.99, l_aa1=0.5, l_aa2=0.9, l0=0.1, l1=0.1, grid_resolution=64,
        method="grid+declared-constants", l_un_upper=1.01, l_aa2_upper=0.95,
    )
    assert theorem2_verdict(rep.l_un, rep.l_aa2, 0.5, U).applies
    sound = rep.theorem2(0.5, U)
    assert sound.lower_ok and sound.upper_ok  # 0.95 <= 1 + 3*(0.99 - 1)
    assert not sound.applies  # L_UN_upper = 1.01 does not show L_UN < 1
    assert rep.theorem2(0.5, U) == dataclasses.replace(sound, applies=False)
    assert dataclasses.replace(rep, l_un_upper=0.999).theorem2(0.5, U).applies
    # the upper L_AA2 above the bound the lower L_UN gives fails upper_ok
    assert not dataclasses.replace(rep, l_aa2_upper=0.98).theorem2(0.5, U).upper_ok
    # without declared constants, the estimates
    estimates = dataclasses.replace(rep, method="grid", l_un_upper=None, l_aa2_upper=None)
    assert estimates.theorem2(0.5, U) == theorem2_verdict(0.99, 0.9, 0.5, U)


def _affine_sin(a, c, d, e, w):
    """a + c*b0 + d*b1 + e*sin(w*(b0 + b1)) for floats and numpy arrays
    alike, so one function is both the map and its array form."""

    def f(b0, b1):
        return a + c * b0 + d * b1 + e * np.sin(w * (b0 + b1))

    return f


_SLOPE = st.floats(-0.5, 0.5)
_SIN = st.tuples(st.floats(0.0, 1.0), _SLOPE, _SLOPE, st.floats(-0.2, 0.2), st.floats(0.0, 20.0))


@settings(max_examples=12, deadline=None)
@given(p0=_SIN, p1=_SIN)
def test_upper_bounds_bound_the_fine_estimates(p0, p1):
    """With declared constants (the largest partial derivatives), the
    res-64 upper bounds are at least the res-1024 grid estimates."""
    f0, f1 = _affine_sin(*p0), _affine_sin(*p1)
    declared = [max(abs(c), abs(d)) + abs(e) * w for _, c, d, e, w in (p0, p1)]
    f0.array, f1.array = f0, f1  # the same closures on float arrays
    dyn = DynamicsSpec(f0, f1, declared_l0=declared[0], declared_l1=declared[1])
    coarse = estimate_contraction(dyn, resolution=64)
    fine = estimate_contraction(dyn, resolution=1024)
    assert coarse.l_un_upper >= fine.l_un
    assert coarse.l_aa2_upper >= fine.l_aa2


def test_zero_gap_dynamics():
    dyn = constant_dynamics(0.5, 0.5)
    rep = estimate_contraction(dyn, resolution=64)
    assert rep.l_aa1 == 0.0


def test_contraction_monotone_in_resolution():
    dyn = appendix_c_dynamics()
    coarse = estimate_contraction(dyn, resolution=64)
    fine = estimate_contraction(dyn, resolution=128)
    assert fine.l_un >= coarse.l_un - 1e-15
    assert fine.l_aa1 >= coarse.l_aa1 - 1e-15
    assert fine.l_aa2 >= coarse.l_aa2 - 1e-15


def test_appendix_c_aa1_constant_golden():
    # The clamped gap |f1(0,x) - f0(0,x)| reaches exactly 1 near x = 1,
    # where f0 clamps to 1 and f1 clamps to 0.
    rep = estimate_contraction(appendix_c_dynamics(), resolution=256)
    assert rep.l_aa1 == pytest.approx(1.0, abs=1e-12)
    assert not rep.is_contractive_aa1
    assert rep.method == "grid"


def test_resolution_floor():
    with pytest.raises(ValueError):
        estimate_contraction(CONST, resolution=32)


def test_status_quo_bias_constants():
    assert check_status_quo_bias(CONST, resolution=64).holds
    inverted = check_status_quo_bias(constant_dynamics(0.8, 0.2), resolution=64)
    assert not inverted.holds
    assert inverted.counterexample == (0.0, 0.0)


def test_status_quo_bias_appendix_golden():
    verdict = check_status_quo_bias(appendix_c_dynamics(), resolution=256)
    assert not verdict.holds
    assert verdict.counterexample == (0.0, pytest.approx(0.17578125))


def test_single_equilibrium_constant_dynamics():
    atlas = find_equilibria(CONST, mode="CT")
    assert atlas.k == 1
    assert atlas.attracting[0].position == pytest.approx(0.5, abs=1e-10)
    assert atlas.unstable == []
    assert atlas.k_valid


def test_appendix_c_equilibria_golden():
    atlas = find_equilibria(appendix_c_dynamics(), mode="CT")
    assert atlas.k == 3
    assert atlas.k_valid and atlas.interleaving_ok and not atlas.degenerate
    for found, expected in zip(atlas.attracting, APPENDIX_ATTRACTING):
        assert found.position == pytest.approx(expected, abs=1e-9)
    for found, expected in zip(atlas.unstable, APPENDIX_UNSTABLE):
        assert found == pytest.approx(expected, abs=1e-9)
    f = un_map(appendix_c_dynamics())
    for eq in atlas.attracting:
        assert abs(f(eq.position) - eq.position) <= 1e-10
    for d in atlas.unstable:
        assert abs(f(d) - d) <= 1e-10


def test_degenerate_continuum_flag():
    identity = DynamicsSpec(f0=lambda b0, b1: 0.0, f1=lambda b0, b1: 1.0, name="identity")
    atlas = find_equilibria(identity, mode="CT")
    assert atlas.degenerate


def test_classification_matches_local_simulation():
    dyn = appendix_c_dynamics()
    atlas = find_equilibria(dyn, mode="CT")
    for eq in atlas.attracting:
        for sign in (-1.0, 1.0):
            p0 = min(1.0, max(0.0, eq.position + sign * 1e-3))
            rec = ct_integrate(
                PopulationState.of(p0, p0, 0.5), "UN", U, dyn, t_end=30.0, h=1e-2
            )
            assert abs(rec.pi_a[-1] - eq.position) < 1e-3
    for d in atlas.unstable:
        for sign in (-1.0, 1.0):
            p0 = d + sign * 1e-3
            rec = ct_integrate(
                PopulationState.of(p0, p0, 0.5), "UN", U, dyn, t_end=30.0, h=1e-2
            )
            assert abs(rec.pi_a[-1] - d) > 1e-3  # escapes


def test_basin_index_conventions():
    atlas = find_equilibria(appendix_c_dynamics(), mode="CT")
    assert atlas.basin_index(0.05) == 0
    assert atlas.basin_index(0.5) == 1
    assert atlas.basin_index(0.99) == 2
    assert atlas.basin_index(atlas.unstable[0]) is None
    assert atlas.delimiters()[0] == 0.0 and atlas.delimiters()[-1] == 1.0


def test_delta_bounds_examples():
    lo, hi = delta_bounds(0.6, 0.7, 0.0, "CT")
    assert lo == hi == 0.7
    lo, hi = delta_bounds(0.6, 0.5, 1.0, "CT")
    assert lo == pytest.approx(0.5 * math.exp(-1.6))
    assert hi == pytest.approx(0.5 * math.exp(-0.4))
    lo, hi = delta_bounds(0.6, 0.5, 3.0, "DT")
    assert lo == 0.0
    assert hi == pytest.approx(2 * 0.5 * 0.6**3)
    with pytest.raises(ValueError, match=re.escape("contraction constant must lie in [0, 1), got 1.0")):
        delta_bounds(1.0, 0.5, 1.0, "CT")
    with pytest.raises(ValueError, match=re.escape("contraction constant must lie in [0, 1), got -0.5")):
        delta_bounds(-0.5, 0.5, 1.0, "DT")
    with pytest.raises(ValueError, match=re.escape("t must be >= 0, got -1.0")):
        delta_bounds(0.5, 0.5, -1.0, "CT")
    with pytest.raises(ValueError, match=re.escape("delta0 must be >= 0, got -0.5")):
        delta_bounds(0.5, -0.5, 1.0, "DT")
    with pytest.raises(ValueError, match=re.escape("mode must be 'DT' or 'CT', got 'XT'")):
        delta_bounds(0.5, 0.5, 1.0, "XT")


def test_find_equilibria_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match=re.escape("mode must be 'DT' or 'CT', got 'UN'")):
        find_equilibria(CONST, mode="UN")


@pytest.mark.parametrize("mode", ["CT", "DT"])
@pytest.mark.parametrize("make", [appendix_c_dynamics, appendix_c_callbacks], ids=["expr", "callbacks"])
def test_find_equilibria_samples_only_its_scan(make, mode):
    """find_equilibria makes one DynamicsSpec.sample call, its 4,097-point
    scan; roots, slopes and radius rates come from the scalar un_map."""
    sample, sizes = DynamicsSpec.sample, []

    def counted(dyn, b0, b1):
        sizes.append(np.broadcast(b0, b1).size)
        return sample(dyn, b0, b1)

    with mock.patch.object(DynamicsSpec, "sample", counted):
        atlas = find_equilibria(make(), mode)
    assert sizes == [4097]
    assert len(atlas.unstable) + atlas.k == 5  # every root's slope was taken


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_delta_bounds_rejects_values_that_are_not_finite(bad, position):
    args = [0.5, 0.5, 1.0]
    args[position] = bad
    name = ("contraction", "delta0", "t")[position]
    for mode in ("CT", "DT"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
            delta_bounds(*args, mode)


def test_grid_analyses_reject_a_resolution_that_is_not_an_integer():
    for check in (estimate_contraction, check_status_quo_bias):
        for bad in (64.5, 96.0, "96"):
            with pytest.raises(ValueError, match=re.escape(f"resolution must be an integer >= 64, got {bad!r}")):
                check(CONST, resolution=bad)
        with pytest.raises(ValueError, match="resolution must be an integer >= 64, got 32"):
            check(CONST, resolution=32)
        check(CONST, resolution=np.int64(64))  # a numpy integer is an integer


def test_export_field_rejects_a_group_share_outside_the_open_unit_interval():
    for g_a in (1.5, 1.0, 0.0, -0.25, math.nan):
        for dyn in (CONST, appendix_c_dynamics()):
            with pytest.raises(ValueError, match=re.escape(f"g_a must lie in (0, 1), got {g_a!r}")):
                export_field(dyn, "AA1", U, resolution=3, g_a=g_a)


@pytest.mark.parametrize("bad", [2.5, 2.0, 1])
def test_export_field_rejects_a_resolution_that_is_not_an_integer_of_at_least_2(bad):
    with pytest.raises(ValueError, match=re.escape(f"resolution must be an integer >= 2, got {bad!r}")):
        export_field(CONST, "AA1", U, resolution=bad)


def test_theorem2_arithmetic():
    v = theorem2_verdict(0.9, 0.65, 0.5, UtilitySpec(u0=-1.0, u1=1.0))
    assert v.alpha == pytest.approx(1.0 / 3.0)
    # upper threshold 1 + (0.9 - 1)*3 = 0.7
    assert v.upper_ok
    assert v.lower_ok  # 0.9 >= 1 - 1/3
    assert v.applies
    v = theorem2_verdict(0.9, 0.75, 0.5, UtilitySpec(u0=-1.0, u1=1.0))
    assert not v.upper_ok and not v.applies


def test_theorem2_no_penalty_limit():
    u = UtilitySpec(u0=0.0, u1=1.0)
    v = theorem2_verdict(0.6, 0.6, 0.5, u)
    assert v.alpha == 1.0
    assert v.applies  # reduces to l_aa2 <= l_un
    v = theorem2_verdict(0.6, 0.61, 0.5, u)
    assert not v.applies


def test_theorem2_lower_condition_fails():
    v = theorem2_verdict(0.5, 0.5, 0.5, UtilitySpec(u0=-1.0, u1=1.0))
    assert not v.lower_ok and not v.applies


def test_theorem2_rejects_zero_denominator():
    with pytest.raises(ValueError):
        theorem2_verdict(0.5, 0.5, 0.5, UtilitySpec(u0=0.0, u1=0.0))


def test_prop3_symmetric_shares():
    rec = prop3_case_persistence(0.5, UtilitySpec(u0=-2.0, u1=1.0))
    assert rec.always_aa1 and not rec.always_aa2
    assert rec.persistent_case == "AA1"
    # u0 = -u1 at gA 0.5: both scores are 0, so both cases persist
    assert prop3_case_persistence(0.5, UtilitySpec(u0=-1.0, u1=1.0)).persistent_case == "Boundary"


def test_prop3_asymmetric_example():
    rec = prop3_case_persistence(0.9, UtilitySpec(u0=-2.0, u1=1.0))
    assert rec.aa2_under_a_advantage  # 0.9 - 0.2 = 0.7 >= 0
    assert rec.aa1_under_b_advantage  # 0.1 - 1.8 <= 0
    assert not rec.always_aa1 and not rec.always_aa2
    assert rec.persistent_case is None


def test_prop3_no_penalty():
    for ga in (0.2, 0.5, 0.8):
        rec = prop3_case_persistence(ga, UtilitySpec(u0=0.0, u1=1.0))
        assert rec.always_aa2
        assert rec.persistent_case == "AA2"  # both scores are ga*u1 > 0: never AA1


@st.composite
def _aa_score_roots(draw):
    """(g_a, u) with u0 on, or one ulp off, the root -g*u1/(1 - g) of one
    group's AA score g*u1 + (1 - g)*u0: where rounding decides its sign."""
    ga = draw(st.floats(0.01, 0.99))
    u1 = draw(st.floats(0.01, 100.0))
    g = draw(st.sampled_from([ga, 1.0 - ga]))
    u0 = -g * u1 / (1.0 - g)
    u0 = draw(st.sampled_from([u0, math.nextafter(u0, 0.0), math.nextafter(u0, -math.inf)]))
    return ga, UtilitySpec(u0=u0, u1=u1)


@settings(max_examples=300, deadline=None)
@given(point=_aa_score_roots())
@example(point=(0.3, UtilitySpec(u0=-3.282449746817901, u1=1.406764177207672)))  # always AA1
def test_case_persistence_allows_the_case_the_engine_takes(point):
    """With either group advantaged, the case mode AA takes in the closed
    form the engines run is one prop3_case_persistence allows there."""
    ga, u = point
    rec = prop3_case_persistence(ga, u)
    for (pa, pb), aa1, aa2 in (
        ((0.8, 0.3), rec.aa1_under_a_advantage, rec.aa2_under_a_advantage),
        ((0.3, 0.8), rec.aa1_under_b_advantage, rec.aa2_under_b_advantage),
    ):
        case = policy_entries(MODE_AA, pa, pb, ga, u.u0, u.u1)[4]
        assert aa1 if case == CASE_AA1 else (case == CASE_AA2 and aa2)


def test_theorem4_single_basin():
    rec = theorem4_limits(CONST, PopulationState.of(0.9, 0.2, 0.5), U, t_cap=200.0)
    for mode in ("UN", "AA1", "AA2"):
        assert rec.limits[mode].converged
        pa, pb = rec.limits[mode].limit
        assert pa == pytest.approx(0.5, abs=1e-6)
        assert pb == pytest.approx(0.5, abs=1e-6)
    assert rec.aa1_matches_disadvantaged_basin
    assert rec.aa2_equalized and rec.aa2_matches_advantaged_basin


def test_theorem4_cross_basin_appendix():
    rec = theorem4_limits(
        appendix_c_dynamics(), PopulationState.of(0.95, 0.05, 0.5), U
    )
    e1, _, e3 = APPENDIX_ATTRACTING
    pa, pb = rec.limits["UN"].limit
    assert pa == pytest.approx(e3, abs=1e-6) and pb == pytest.approx(e1, abs=1e-6)
    pa, pb = rec.limits["AA1"].limit
    assert pa == pytest.approx(e1, abs=1e-6) and pb == pytest.approx(e1, abs=1e-6)
    assert rec.aa1_matches_disadvantaged_basin
    pa, pb = rec.limits["AA2"].limit
    assert rec.aa2_equalized
    assert pa == pytest.approx(e3, abs=1e-6) and pb == pytest.approx(e3, abs=1e-6)
    assert rec.aa2_matches_advantaged_basin


def test_theorem4_limit_utility_ordering(rng):
    for _ in range(5):
        dyn = random_contractive_affine(rng)
        rec = theorem4_limits(dyn, PopulationState.of(0.8, 0.2, 0.5), U, t_cap=200.0)
        if not all(m.converged for m in rec.limits.values()):
            continue
        assert (
            rec.limits["AA1"].utility_at_limit
            <= rec.limits["UN"].utility_at_limit + 1e-9
        )
        assert (
            rec.limits["UN"].utility_at_limit
            <= rec.limits["AA2"].utility_at_limit + 1e-9
        )


def test_aa1_dt_contraction_rate(rng):
    # Prop. 4 contraction: |delta_{t+1}| <= l_aa1 * |delta_t| under persistent AA1.
    u = UtilitySpec(u0=-2.0, u1=1.0)  # g=0.5 keeps AA1 persistent
    for _ in range(5):
        dyn = random_contractive_affine(rng)
        rep = estimate_contraction(dyn, resolution=64)
        if not rep.is_contractive_aa1:
            continue
        # rigorous bound for the sampled estimate
        l_bound = rep.l_aa1 + (rep.l0 + rep.l1) * (2.0 / 64)
        rec = dt_trajectory(PopulationState.of(0.9, 0.2, 0.5), "AA", u, dyn, 40)
        d = np.abs(rec.delta)
        for t in range(40):
            assert d[t + 1] <= l_bound * d[t] + 1e-12


# -- the grid sampler against the per-point loops it replaced ---------------


def _loop_slope(fn, xs):
    step = float(xs[1] - xs[0])
    grid = np.array([[fn(x, y) for y in xs] for x in xs])
    return float(
        max(np.max(np.abs(np.diff(grid, axis=0))), np.max(np.abs(np.diff(grid, axis=1))))
        / step
    )


def _loop_contraction(dyn, resolution):
    """estimate_contraction as per-point scalar loops: the reference."""
    xs = np.linspace(0.0, 1.0, resolution + 1)
    declared = dyn.declared_l0 is not None and dyn.declared_l1 is not None
    l0 = float(dyn.declared_l0) if dyn.declared_l0 is not None else _loop_slope(dyn.f0_clamped, xs)
    l1 = float(dyn.declared_l1) if dyn.declared_l1 is not None else _loop_slope(dyn.f1_clamped, xs)
    gap0 = np.array([abs(dyn.f1_clamped(0.0, x) - dyn.f0_clamped(0.0, x)) for x in xs])
    l_un = float(np.max(xs * l1 + (1.0 - xs) * l0 + np.maximum.accumulate(gap0)))
    l_aa2 = 0.0
    for i, pi in enumerate(xs):
        lip = 2.0 * (pi * l1 + (1.0 - pi) * l0)
        for k in range(i + 1):
            delta = xs[k]
            val = lip + abs(dyn.f1_clamped(delta, pi - delta) - dyn.f0_clamped(delta, pi - delta))
            if val > l_aa2:
                l_aa2 = val
    cell = 2.0 / resolution
    return ContractionReport(
        l_un=l_un,
        l_aa1=float(np.max(gap0)),
        l_aa2=l_aa2,
        l0=l0,
        l1=l1,
        grid_resolution=resolution,
        method="grid+declared-constants" if declared else "grid",
        l_un_upper=l_un + (l0 + l1) * cell if declared else None,
        l_aa2_upper=l_aa2 + (l0 + l1) * cell if declared else None,
    )


def _loop_status_quo(dyn, resolution):
    xs = np.linspace(0.0, 1.0, resolution + 1)
    for x in xs:
        for y in xs:
            if dyn.f1_clamped(x, y) < dyn.f0_clamped(x, y) - 1e-12:
                return (float(x), float(y))
    return None


def _loop_equilibria(dyn, mode, cells=4096):
    """find_equilibria with its scan and basin probe as per-point loops over
    un_map: the reference."""
    f = un_map(dyn)
    g = lambda pi: f(pi) - pi
    xs = grid_axis(cells).tolist()
    gs = np.array([g(x) for x in xs])

    flat = np.abs(gs) < 1e-12
    for i in np.flatnonzero(flat[:-1] & flat[1:]).tolist():
        if abs(g(0.5 * (xs[i] + xs[i + 1]))) < 1e-12:
            return EquilibriumAtlas(
                mode=mode, attracting=[], unstable=[], k_valid=False,
                degenerate=True, interleaving_ok=False,
            )

    roots = [xs[i] for i in np.flatnonzero(np.abs(gs) <= ROOT_RESIDUAL_TOL).tolist()]
    for i in np.flatnonzero(gs[:-1] * gs[1:] < 0.0).tolist():
        roots.append(_bisect(g, xs[i], xs[i + 1]))
    roots.sort()
    deduped = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)

    def slope(p):
        lo, hi = max(0.0, p - 1e-7), min(1.0, p + 1e-7)
        return (f(hi) - f(lo)) / (hi - lo)

    kinds = []
    for r in deduped:
        fp = slope(r)
        kinds.append("a" if (fp < 1.0 if mode == "CT" else abs(fp) < 1.0) else "u")
    interleaving_ok = "aa" not in "".join(kinds)
    unstable = [r for r, kind in zip(deduped, kinds) if kind == "u"]

    dels = [0.0] + [d for d in unstable if 0.0 < d < 1.0] + [1.0]
    attracting = []
    for r in [r for r, kind in zip(deduped, kinds) if kind == "a"]:
        left = max(d for d in dels if d <= r + 1e-15)
        right = min(d for d in dels if d >= r - 1e-15)
        radius = max(min(0.05, 0.5 * max(r - left, 1e-6), 0.5 * max(right - r, 1e-6)), 1e-6)
        pts = np.linspace(max(0.0, r - radius), min(1.0, r + radius), 33).tolist()
        attracting.append(Equilibrium(position=r, rate=max(map(slope, pts)), radius=radius))

    k_valid = interleaving_ok and len(attracting) > 0
    if k_valid:
        probe = grid_axis(2048).tolist()
        for i, eq in enumerate(attracting):
            lo_bound = dels[i] if i < len(dels) else 0.0
            hi_bound = dels[i + 1] if i + 1 < len(dels) else 1.0
            for p in probe:
                if lo_bound + 1e-6 < p < eq.position - 1e-6:
                    fv = f(p)
                    if not (fv > p) or (mode == "DT" and not (fv < eq.position)):
                        k_valid = False
                        break
                elif eq.position + 1e-6 < p < hi_bound - 1e-6:
                    fv = f(p)
                    if not (fv < p) or (mode == "DT" and not (fv > eq.position)):
                        k_valid = False
                        break
            if mode == "DT" and eq.rate >= 1.0:
                k_valid = False
            if not k_valid:
                break
    return EquilibriumAtlas(
        mode=mode, attracting=attracting, unstable=unstable, k_valid=k_valid,
        degenerate=False, interleaving_ok=interleaving_ok,
    )


def _loop_field(dyn, mode, u, resolution, g_a):
    """export_field as a per-point loop over ct_gradient: the reference."""
    grid = np.linspace(0.0, 1.0, resolution).tolist()
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


def _outcome(fn):
    """repr of fn's result, or its exception's type and message."""
    try:
        return repr(fn())
    except ValueError as exc:
        return type(exc), str(exc)


REFERENCE_DYNAMICS = [
    appendix_c_dynamics(),
    affine_dynamics(0.1, 0.7, -0.4, 0.5, 0.3, 0.9),  # clamps at both ends
    CONST,
    parse_dynamics(
        "(b1 + b1/5)/1.2 + 0.01",
        "0.5*(b1 + b1/5)/1.4 + exp(-0.000000001*(b0+b1))*sin(18*(b0+b1)) + 0.1",
    ),
    parse_dynamics("0.3 + 0.2*sin(7*b0)*b1^1.5", "max(0.25, 0.9*b0^0.5) - 0.1*cos(3*b1)"),
]
# Both maps fail on the line b1 = 0.5.
BOTH_FAIL = parse_dynamics("1/(b1 - 0.5)", "2/(b1 - 0.5)", name="both-fail")


@pytest.mark.parametrize("resolution", [64, 100])  # 100: not a power of two
@pytest.mark.parametrize("dyn", REFERENCE_DYNAMICS, ids=lambda d: d.name)
def test_grid_analyses_match_scalar_loops(dyn, resolution):
    assert estimate_contraction(dyn, resolution) == _loop_contraction(dyn, resolution)
    xs = np.linspace(0.0, 1.0, resolution + 1)
    f0, f1 = dyn.sample(xs[:, None], xs)
    assert max_grid_slope(f0, xs[1]) == _loop_slope(dyn.f0_clamped, xs)
    assert max_grid_slope(f1, xs[1]) == _loop_slope(dyn.f1_clamped, xs)
    counterexample = _loop_status_quo(dyn, resolution)
    fresh = dataclasses.replace(dyn)  # keeps no grid: the check samples one and keeps it
    for spec in (dyn, fresh):  # dyn keeps the grid the contraction sampled
        report = check_status_quo_bias(spec, resolution)
        assert report.counterexample == counterexample
        assert report.holds == (report.counterexample is None)
    assert list(fresh._grids) == [resolution]
    if resolution == 64:  # neither depends on the resolution
        for mode in ("CT", "DT"):
            assert find_equilibria(dyn, mode=mode) == _loop_equilibria(dyn, mode)
        for mode in ("UN", "AA", "AA1", "AA2"):
            rows = export_field(dyn, mode, U, resolution=9, g_a=0.3)
            assert repr(rows) == repr(_loop_field(dyn, mode, U, 9, 0.3))


def test_failing_point_names_the_map_the_scalar_loops_name():
    """At a point where both maps fail, every analysis names f1: sample
    (and so the contraction, the status-quo check and validate_declared),
    un_map and ct_gradient all evaluate f1 before f0 at a point, so they
    agree with find_equilibria's and export_field's scalar loops."""
    f1_error = "expression '2/(b1 - 0.5)' at (b0, b1) = (0.0, 0.5): ZeroDivisionError"
    for analysis in (
        lambda: estimate_contraction(BOTH_FAIL, 64),
        lambda: check_status_quo_bias(BOTH_FAIL, 64),
        lambda: DynamicsSpec.validate_declared(
            dataclasses.replace(BOTH_FAIL, declared_l0=1.0), resolution=64
        ),
    ):
        with pytest.raises(ExpressionEvaluationError, match=re.escape(f1_error)):
            analysis()
    for mode in ("CT", "DT"):
        outcome = _outcome(lambda: find_equilibria(BOTH_FAIL, mode=mode))
        assert outcome == _outcome(lambda: _loop_equilibria(BOTH_FAIL, mode))
        assert outcome[1].startswith(f1_error)
    for mode in ("UN", "AA", "AA1", "AA2"):
        outcome = _outcome(lambda: export_field(BOTH_FAIL, mode, U, resolution=9, g_a=0.3))
        assert outcome == _outcome(lambda: _loop_field(BOTH_FAIL, mode, U, 9, 0.3))
        assert outcome[1].startswith(f1_error)


@pytest.mark.parametrize(
    "f0, f1, first",
    [
        ("1/(b1 - 0.25)", "2/(b1 - 0.5)", "1/(b1 - 0.25)"),  # f0 fails at an earlier point
        ("1/(b1 - 0.5)", "2/(b1 - 0.25)", "2/(b1 - 0.25)"),  # f1 fails at an earlier point
    ],
)
def test_every_analysis_names_the_first_failing_point(f0, f1, first):
    """Whichever map fails first in point order is the one every analysis
    and the DT engine name, whatever the other map does at later points."""
    dyn = parse_dynamics(f0, f1, name="fails")
    error = f"expression '{first}' at (b0, b1) = (0.0, 0.25): ZeroDivisionError"
    analyses = [
        lambda: estimate_contraction(dataclasses.replace(dyn), 64),
        lambda: check_status_quo_bias(dataclasses.replace(dyn), 64),
        lambda: dataclasses.replace(dyn, declared_l0=1.0).validate_declared(64),
        lambda: find_equilibria(dyn, "CT"),
        lambda: find_equilibria(dyn, "DT"),
        lambda: dt_trajectory(PopulationState.of(0.25, 0.0, 0.3), "UN", U, dyn, 3),
    ]
    analyses += [lambda m=m: export_field(dyn, m, U, resolution=9, g_a=0.3) for m in ("UN", "AA", "AA1", "AA2")]
    for analysis in analyses:
        with pytest.raises(ExpressionEvaluationError, match=re.escape(error)):
            analysis()


def test_maps_are_called_with_python_floats():
    base = appendix_c_dynamics()

    def floats_only(fn):
        def checked(b0, b1):
            assert type(b0) is float and type(b1) is float, (type(b0), type(b1))
            return fn(b0, b1)

        return checked

    dyn = DynamicsSpec(
        f0=floats_only(base.f0),
        f1=floats_only(base.f1),
        name="floats-only",
        declared_l0=100.0,
        declared_l1=100.0,
    )
    estimate_contraction(dyn, resolution=64)
    check_status_quo_bias(dyn, resolution=64)
    holds = DynamicsSpec(f0=floats_only(CONST.f0), f1=floats_only(CONST.f1))
    assert check_status_quo_bias(holds, resolution=64).holds  # samples the whole grid
    dyn.validate_declared(resolution=64)
    for mode in ("CT", "DT"):
        find_equilibria(dyn, mode=mode)
    for mode in ("UN", "AA"):
        export_field(dyn, mode, U, resolution=5)


def _full_triangle_contraction(dyn, resolution):
    """estimate_contraction as it was before the spec kept its grid: it
    samples the grid, then every point of the l_aa2 triangle. The
    reference for the triangle points read off the grid."""
    xs = grid_axis(resolution)
    f0, f1 = dyn.sample(xs[:, None], xs)
    l0, l1 = max_grid_slope(f0, xs[1]), max_grid_slope(f1, xs[1])
    dyn.check_declared(l0, l1)
    l0 = l0 if dyn.declared_l0 is None else float(dyn.declared_l0)
    l1 = l1 if dyn.declared_l1 is None else float(dyn.declared_l1)
    declared = dyn.declared_l0 is not None and dyn.declared_l1 is not None
    gap0 = np.abs(f1[0] - f0[0])
    l_un = float(np.max(xs * l1 + (1.0 - xs) * l0 + np.maximum.accumulate(gap0)))
    i, k = np.tril_indices(resolution + 1)
    t0, t1 = dyn.sample(xs[k], xs[i] - xs[k])
    l_aa2 = float(np.max(2.0 * (xs * l1 + (1.0 - xs) * l0)[i] + np.abs(t1 - t0)))
    cell = 2.0 / resolution
    return ContractionReport(
        l_un=l_un,
        l_aa1=float(np.max(gap0)),
        l_aa2=l_aa2,
        l0=l0,
        l1=l1,
        grid_resolution=resolution,
        method="grid+declared-constants" if declared else "grid",
        l_un_upper=l_un + (l0 + l1) * cell if declared else None,
        l_aa2_upper=l_aa2 + (l0 + l1) * cell if declared else None,
    )


def _triangle_points_off_the_axis(resolution):
    """(index, (b0, b1)) of each l_aa2 triangle point, in sampling order,
    whose b1 is no value of the grid axis: no grid point has it."""
    xs = grid_axis(resolution)
    i, k = np.tril_indices(resolution + 1)
    b1 = xs[i] - xs[k]
    return [(int(n), (float(xs[k[n]]), float(b1[n]))) for n in np.flatnonzero(~np.isin(b1, xs))]


OFF_AXIS_96 = _triangle_points_off_the_axis(96)
FIRST_OFF_96, LAST_OFF_96 = OFF_AXIS_96[0][1], OFF_AXIS_96[-1][1]


def _nan_at(fn, point):
    """fn, returning NaN (which sample reports as a ValueError naming the
    map and the point) at point."""
    if point is None:
        return fn
    return lambda b0, b1: math.nan if (b0, b1) == point else fn(b0, b1)


def _callback_spec(coeffs, fail0, fail1):
    a0, c0, d0, a1, c1, d1 = coeffs
    f0 = _nan_at(lambda b0, b1: a0 + c0 * b0 + d0 * math.sin(3.0 * b1), fail0)
    f1 = _nan_at(lambda b0, b1: a1 + c1 * math.cos(2.0 * b0) + d1 * b1, fail1)
    return DynamicsSpec(f0=f0, f1=f1, name="callback")


COEFFS = st.tuples(*[st.floats(-0.5, 1.5)] * 6)
FAIL_AT = st.sampled_from([None, FIRST_OFF_96, LAST_OFF_96])
SPECS = st.one_of(
    st.sampled_from(REFERENCE_DYNAMICS[1:] + [BOTH_FAIL]),
    COEFFS.map(lambda c: affine_dynamics(*c)),
    st.builds(_callback_spec, COEFFS, FAIL_AT, FAIL_AT),
)


@settings(max_examples=40, deadline=None)
@given(
    dyn=SPECS,
    resolution=st.sampled_from([64, 96, 100, 128, 200]),
    declared=st.sampled_from([(), (None, None), (0.5, 0.5), (1e6, 1e6), (None, 1e6)]),
)
@example(dyn=_callback_spec((0.2, 0.1, 0.3, 0.4, 0.0, 0.5), None, LAST_OFF_96), resolution=96, declared=())
@example(
    dyn=_callback_spec((0.2, 0.1, 0.3, 0.4, 0.0, 0.5), LAST_OFF_96, FIRST_OFF_96), resolution=96, declared=()
)
def test_contraction_matches_the_full_triangle(dyn, resolution, declared):
    """estimate_contraction gives the repr, or the error class and message,
    of sampling the whole triangle; also when it reads the kept grid."""
    # a copy: a shared spec would keep its grid for the tests after this one
    dyn = dataclasses.replace(dyn, **dict(zip(("declared_l0", "declared_l1"), declared)))
    want = _outcome(lambda: _full_triangle_contraction(dyn, resolution))
    assert _outcome(lambda: estimate_contraction(dyn, resolution)) == want
    assert _outcome(lambda: estimate_contraction(dyn, resolution)) == want


@pytest.mark.parametrize("fail0, fail1, first", [(LAST_OFF_96, FIRST_OFF_96, "f1"), (FIRST_OFF_96, LAST_OFF_96, "f0")])
def test_an_off_grid_triangle_failure_is_the_whole_triangles_first(fail0, fail1, first):
    """With one map failing at the first triangle point off the grid and the
    other at the last, estimate_contraction, which samples only the off-grid
    points, raises the error of sampling the whole triangle: the first
    failing point's, in point order."""
    dyn = _callback_spec((0.2, 0.1, 0.3, 0.4, 0.0, 0.5), fail0, fail1)
    want = (ValueError, f"{first} of dynamics 'callback' is NaN at (b0, b1) = {FIRST_OFF_96!r}")
    assert _outcome(lambda: _full_triangle_contraction(dataclasses.replace(dyn), 96)) == want
    assert _outcome(lambda: estimate_contraction(dyn, 96)) == want


def test_grid_analyses_call_each_map_once_per_grid_point():
    """estimate_contraction, validate_declared and check_status_quo_bias at
    one resolution sample one grid: at resolution 128 every triangle point
    is a grid point, so each map is called 129**2 times in all."""
    calls = [0, 0]

    def counted(which, fn):
        def counting(b0, b1):
            calls[which] += 1
            return fn(b0, b1)

        return counting

    base = appendix_c_dynamics()
    dyn = DynamicsSpec(
        f0=counted(0, base.f0), f1=counted(1, base.f1), declared_l0=1e6, declared_l1=1e6
    )
    estimate_contraction(dyn, 128)
    dyn.validate_declared(128)
    check_status_quo_bias(dyn, 128)
    assert calls == [129**2, 129**2]
    assert check_status_quo_bias(dataclasses.replace(dyn), 128) == check_status_quo_bias(dyn, 128)
    assert calls[0] > 129**2  # a replaced spec keeps no grid


@pytest.mark.parametrize("resolution", [128, 1024])
def test_a_spec_keeps_only_its_last_grid(resolution):
    """The bytes a spec keeps after the grid analyses: its last grid, the
    axis and two float arrays of (resolution+1)**2 points, and no more."""
    dyn = affine_dynamics(0.1, 0.2, 0.3, 0.4, 0.1, 0.2)
    grid_bytes = (2 * (resolution + 1) + 1) * (resolution + 1) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimate_contraction(dyn, 96)
        estimate_contraction(dyn, resolution)
        dyn.validate_declared(resolution)
        check_status_quo_bias(dyn, resolution)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grid_bytes <= kept <= grid_bytes + 16384
    assert list(dyn._grids) == [resolution]
