"""Acceptance gate: nine end-to-end criteria at pinned tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s or in
the captured-output section on failure) in addition to its assertions.
"""

import math
import random
import time

import numpy as np
import pytest

from fairdyn import (
    PopulationState,
    StereotypeSpec,
    UtilitySpec,
    aa_policy,
    affine_dynamics,
    appendix_c_dynamics,
    compile_expression,
    constant_dynamics,
    ct_integrate,
    delta_bounds,
    dt_trajectory,
    estimate_contraction,
    find_equilibria,
    lp_oracle,
    selection_rates,
    stereotype_trajectory,
    theorem2_verdict,
    theorem4_limits,
)
from conftest import appendix_c_callbacks

CONST = constant_dynamics(0.2, 0.8)
U11 = UtilitySpec(u0=-1.0, u1=1.0)


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_closed_form_vs_oracle():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_parity = 0.0
    cases = set()
    for i in range(10_000):
        if i % 10 == 7:  # boundary tie: g_adv*u1 + (1-g_adv)*u0 == 0
            ga = 0.5
            u = UtilitySpec(u0=-1.0, u1=1.0)
        else:
            ga = rng.uniform(0.05, 0.95)
            u = UtilitySpec(u0=-rng.uniform(0.0, 2.0), u1=rng.uniform(0.0, 2.0))
        if i % 10 == 3:  # advantage tie
            pa = pb = rng.random()
        else:
            pa, pb = rng.random(), rng.random()
        state = PopulationState.of(pa, pb, ga)
        closed = aa_policy(state, u)
        oracle = lp_oracle(state, u, parity_constrained=True)
        worst_gap = max(worst_gap, abs(closed.achieved_utility - oracle.achieved_utility))
        worst_parity = max(
            worst_parity, selection_rates(state, closed.policy).parity_residual
        )
        cases.add(closed.case.tag)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_parity <= 1e-12 and elapsed < 5.0
    ok = ok and {"AA1", "AA2", "Boundary"} <= cases
    report(
        "criterion 1 (closed form vs LP oracle, 10k instances)",
        ok,
        f"max utility gap {worst_gap:.2e}, max parity residual {worst_parity:.2e}, "
        f"{elapsed:.2f}s, cases {sorted(cases)}",
    )


def test_criterion_2_dt_contraction_rate():
    rng = random.Random(1002)
    l_un = 0.6
    worst = -1.0
    for _ in range(100):
        state = PopulationState.of(rng.random(), rng.random(), 0.5)
        d0 = abs(state.pi_a.p1 - state.pi_b.p1)
        rec = dt_trajectory(state, "UN", U11, CONST, 50)
        for t in range(51):
            slack = 2.0 * d0 * l_un**t + 1e-9 - abs(rec.delta[t])
            worst = max(worst, -slack)
    report(
        "criterion 2 (DT linear-rate bound, 100 random starts)",
        worst <= 0.0,
        f"worst bound violation {worst:.2e}",
    )


def test_criterion_3_ct_integrator_exactness():
    t0 = time.perf_counter()
    rec = ct_integrate(
        PopulationState.of(0.9, 0.9, 0.5), "UN", U11, CONST, t_end=10.0, h=1e-3
    )
    elapsed = time.perf_counter() - t0
    err = abs(rec.pi_a[-1] - (0.5 + 0.4 * math.exp(-4.0)))
    ok = err <= 1e-6 and elapsed < 1.0
    report(
        "criterion 3 (CT integrator vs closed form)",
        ok,
        f"error {err:.2e} at t=10, {elapsed:.2f}s",
    )


def _random_mild_affine(rng):
    a0 = rng.uniform(0.05, 0.4)
    a1 = rng.uniform(a0, min(a0 + 0.45, 0.95))
    s = 0.05
    return affine_dynamics(
        a0, rng.uniform(-s, s), rng.uniform(-s, s),
        a1, rng.uniform(-s, s), rng.uniform(-s, s),
    )


def test_criterion_4_ct_envelope():
    rng = random.Random(1004)
    checked = 0
    worst = -1.0
    while checked < 100:
        dyn = _random_mild_affine(rng)
        rep = estimate_contraction(dyn, resolution=64)
        l_bound = rep.l_un_upper
        if l_bound >= 1.0 - 1e-6:
            continue
        state = PopulationState.of(rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.5), 0.5)
        d0 = state.pi_a.p1 - state.pi_b.p1
        rec = ct_integrate(state, "UN", U11, dyn, t_end=20.0, h=1e-2)
        for t, d in zip(rec.times, rec.delta):
            lo, hi = delta_bounds(l_bound, d0, float(t), "CT")
            worst = max(worst, (lo - 1e-5) - d, d - (hi + 1e-5))
        checked += 1
    report(
        "criterion 4 (CT two-sided gap envelope, 100 affine dynamics)",
        worst <= 0.0,
        f"worst envelope violation {worst:.2e}",
    )


def test_criterion_5_theorem1():
    rng = random.Random(1005)
    checked = 0
    ok = True
    detail = ""
    while checked < 100:
        dyn = _random_mild_affine(rng)
        rep = estimate_contraction(dyn, resolution=64)
        if not rep.is_contractive_un:
            continue
        state = PopulationState.of(rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.5), 0.5)
        un = ct_integrate(state, "UN", U11, dyn, t_end=100.0, h=1e-2)
        aa1 = ct_integrate(state, "AA1", U11, dyn, t_end=100.0, h=1e-2)
        if abs(un.delta[-1]) >= 1e-6:
            ok, detail = False, f"UN failed to equalize: |delta|={abs(un.delta[-1]):.2e}"
            break
        if abs(aa1.delta[-1]) >= 1e-6:
            ok, detail = False, f"AA1 failed to equalize: |delta|={abs(aa1.delta[-1]):.2e}"
            break
        gap = float(np.min(un.step_utility - aa1.step_utility))
        if gap < -1e-9:
            ok, detail = False, f"U(UN) < U(AA1) by {-gap:.2e}"
            break
        if float(np.min(un.delta)) < -1e-8 or float(np.min(aa1.delta)) < -1e-8:
            ok, detail = False, "order preservation violated"
            break
        checked += 1
    report(
        "criterion 5 (Theorem 1: UN and AA1 equalize, UN dominates per step)",
        ok,
        detail or f"{checked} contractive dynamics checked",
    )


def test_criterion_6_theorem2_consistency():
    # Family of mismatch-style dynamics where f0 rises with b0. For every
    # member the verdict and the cumulative utilities are computed; the
    # asserted property is the implication, not that any member applies.
    # A slope-zero companion instance exercises the applies=True path.
    g_a = 0.5
    state = PopulationState.of(0.9, 0.2, g_a)
    instances = []
    for c0 in (0.02, 0.05, 0.1):
        for gap in (0.3, 0.5, 0.7):
            for u0 in (0.0, -0.5):
                instances.append((affine_dynamics(0.2, c0, 0.0, 0.2 + gap, 0.0, 0.0),
                                  UtilitySpec(u0=u0, u1=1.0)))
    instances.append((constant_dynamics(0.2, 0.8), UtilitySpec(u0=0.0, u1=1.0)))

    applied = 0
    violations = []
    for dyn, u in instances:
        rep = estimate_contraction(dyn, resolution=64)
        l_un = rep.l_un_upper if rep.l_un_upper is not None else rep.l_un
        l_aa2 = rep.l_aa2_upper if rep.l_aa2_upper is not None else rep.l_aa2
        if l_un >= 1.0 or l_aa2 >= 1.0:
            continue
        verdict = theorem2_verdict(rep.l_un, rep.l_aa2, g_a, u)
        un = ct_integrate(state, "UN", u, dyn, t_end=120.0, h=2e-2)
        aa2 = ct_integrate(state, "AA2", u, dyn, t_end=120.0, h=2e-2)
        equalized = abs(un.delta[-1]) < 1e-8 and abs(aa2.delta[-1]) < 1e-8
        if not (verdict.applies and equalized):
            continue
        applied += 1
        if aa2.cumulative_utility < un.cumulative_utility - 1e-6:
            violations.append((dyn.name, aa2.cumulative_utility, un.cumulative_utility))
    report(
        "criterion 6 (Theorem 2 implication consistency)",
        not violations and applied >= 1,
        f"{applied} applicable instance(s), {len(violations)} violation(s)",
    )


def test_criterion_7_appendix_c_reproduction():
    t0 = time.perf_counter()
    dyn = appendix_c_dynamics()
    atlas = find_equilibria(dyn, mode="CT")
    ok = atlas.k == 3 and atlas.k_valid
    detail = f"{atlas.k} attracting equilibria"

    positions = [eq.position for eq in atlas.attracting]
    reps = (0.1, 0.5, 0.95)  # one representative start per basin
    if ok:
        for ra in reps:
            for rb in reps:
                rec = ct_integrate(
                    PopulationState.of(ra, rb, 0.5), "UN", U11, dyn,
                    t_end=300.0, h=1e-2, stop_tol=1e-10,
                )
                ta = positions[atlas.basin_index(ra)]
                tb = positions[atlas.basin_index(rb)]
                if abs(rec.pi_a[-1] - ta) > 1e-6 or abs(rec.pi_b[-1] - tb) > 1e-6:
                    ok = False
                    detail = f"UN from ({ra},{rb}) missed ({ta:.4f},{tb:.4f})"
                    break
            if not ok:
                break

    if ok:
        rec4 = theorem4_limits(dyn, PopulationState.of(0.95, 0.05, 0.5), U11)
        ok = (
            rec4.aa1_matches_disadvantaged_basin is True
            and rec4.aa2_equalized is True
            and rec4.aa2_matches_advantaged_basin is True
        )
        if ok:
            detail = "3 equilibria, 9 joint limits, AA1/AA2 cross-basin limits match"
        else:
            detail = "cross-basin AA1/AA2 limit mismatch"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report("criterion 7 (three-equilibrium reproduction)", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_8_stereotype_robustness():
    u = UtilitySpec(u0=-2.0, u1=1.0)
    state = PopulationState.of(0.8, 0.4, 0.5)
    ok = True
    details = []
    for dyn in (CONST, affine_dynamics(0.2, 0.03, 0.02, 0.8, -0.02, 0.04)):
        spec = StereotypeSpec(eps_a=0.0, eps_b=-0.05)
        rec = stereotype_trajectory(state, "AA1", u, dyn, spec, 60)
        gap = float(np.max(rec.extras["rate_gap_v1"]))
        if gap > 1e-12:
            ok = False
            details.append(f"v=1 rate gap {gap:.2e}")
        if abs(rec.delta[-1]) >= 1e-6:
            ok = False
            details.append(f"did not equalize: {abs(rec.delta[-1]):.2e}")
        zero = StereotypeSpec(eps_a=0.0, eps_b=0.0)
        biased = stereotype_trajectory(state, "AA", u, dyn, zero, 40)
        plain = dt_trajectory(state, "AA", u, dyn, 40)
        if not (
            np.array_equal(biased.pi_a, plain.pi_a)
            and np.array_equal(biased.pi_b, plain.pi_b)
            and np.array_equal(biased.step_utility, plain.step_utility)
        ):
            ok = False
            details.append("zero-stereotype run not bit-identical")
    report(
        "criterion 8 (stereotype robustness)",
        ok,
        "; ".join(details) or "rate equality, equalization and bit-identity hold",
    )


def test_criterion_9_parser_fidelity():
    # appendix_c_dynamics() is these expressions parsed: compare the parser
    # with the maps written in Python
    dyn = appendix_c_callbacks()
    f0 = compile_expression("(b1 + b1/5)/1.2 + 0.01")
    f1 = compile_expression(
        "0.5*(b1 + b1/5)/1.4 + exp(-0.000000001*(b0+b1))*sin(18*(b0+b1)) + 0.1"
    )
    worst = 0.0
    n = 10_000
    for i in range(n):
        # quasi-random (additive recurrence) sample points in the unit square
        x = (0.5 + i * 0.7548776662466927) % 1.0
        y = (0.5 + i * 0.5698402909980532) % 1.0
        worst = max(worst, abs(f0(x, y) - dyn.f0(x, y)), abs(f1(x, y) - dyn.f1(x, y)))
    report(
        "criterion 9 (expression parser vs appendixC in Python)",
        worst <= 1e-12,
        f"max deviation {worst:.2e} over {n} points",
    )
