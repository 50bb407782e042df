import math
import warnings

import numpy as np
import pytest

from fairdyn import (
    CaseSwitchError,
    PopulationState,
    QualificationProfile,
    UtilitySpec,
    affine_dynamics,
    appendix_c_dynamics,
    constant_dynamics,
    ct_gradient,
    ct_integrate,
    cumulative_utility_with_tail,
    dt_step,
    dt_trajectory,
    estimate_contraction,
    parse_dynamics,
)
from fairdyn import _loops_py
from conftest import random_contractive_affine

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
    ):
        with pytest.raises(ValueError, match=named):
            ct_integrate(state, "UN", U, CONST, **{"t_end": 1.0, "h": 0.01, **bad})


def test_ct_step_halving_check_passes():
    rec = ct_integrate(
        PopulationState.of(0.9, 0.2, 0.5), "AA", U, CONST, t_end=5.0, h=1e-2,
        check_step_halving=True,
    )
    assert rec.extras["step_halving_ok"]
    assert rec.extras["step_halving_diff"] <= 1e-6


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
    with pytest.raises(ValueError):
        lying.validate_declared()


def test_parse_dynamics_produces_working_spec():
    dyn = parse_dynamics("0.2", "0.8")
    rec = ct_integrate(PopulationState.of(0.9, 0.9, 0.5), "UN", U, dyn, t_end=2.0, h=1e-2)
    ref = ct_integrate(PopulationState.of(0.9, 0.9, 0.5), "UN", U, CONST, t_end=2.0, h=1e-2)
    assert np.array_equal(rec.pi_a, ref.pi_a)


def test_tail_point_interval_at_zero_delta():
    rec = ct_integrate(
        PopulationState.of(0.7, 0.7, 0.5), "UN", U, CONST, t_end=5.0, h=1e-2
    )
    bracket = cumulative_utility_with_tail(rec, 0.6, U, 0.5)
    lo, hi = bracket.interval
    assert lo == pytest.approx(hi, abs=1e-15)
    assert lo == pytest.approx(rec.cumulative_utility, abs=1e-12)


def test_tail_envelope_arithmetic():
    rec = ct_integrate(
        PopulationState.of(0.9, 0.1, 0.5), "UN", U, CONST, t_end=2.0, h=1e-2
    )
    d = abs(rec.delta[-1])
    bracket = cumulative_utility_with_tail(rec, 0.6, U, 0.5)
    assert bracket.delta_tail[0] == pytest.approx(d / 1.6, rel=1e-12)
    assert bracket.delta_tail[1] == pytest.approx(d / 0.4, rel=1e-12)
    # UN tail coefficient is g_adv * u1 = 0.5
    assert bracket.interval[1] - bracket.finite == pytest.approx(0.5 * d / 0.4, rel=1e-12)


def test_tail_degenerate_utility():
    u = UtilitySpec(u0=0.0, u1=0.0)
    rec = ct_integrate(
        PopulationState.of(0.9, 0.1, 0.5), "UN", u, CONST, t_end=2.0, h=1e-2
    )
    bracket = cumulative_utility_with_tail(rec, 0.6, u, 0.5)
    assert bracket.interval == (rec.cumulative_utility, rec.cumulative_utility)


def test_tail_rejects_non_contractive():
    rec = ct_integrate(
        PopulationState.of(0.9, 0.1, 0.5), "UN", U, CONST, t_end=1.0, h=1e-2
    )
    with pytest.raises(ValueError):
        cumulative_utility_with_tail(rec, 1.0, U, 0.5)


def test_appendix_c_shape():
    dyn = appendix_c_dynamics()
    assert dyn.f0(0.0, 0.0) == pytest.approx(0.01)
    assert dyn.f1(0.0, 0.0) == pytest.approx(0.1)
    assert dyn.affine is None
