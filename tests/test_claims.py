"""The abstract's claims, each with a witness pinned as literal parameters.

Each test quotes its claim, runs the library on its witness and asserts the
claim's inequality with a margin far above the run's own error, the
step-halving difference of the RK4 endpoint. The searches that found the
witnesses are described in each docstring; they do not run here.
"""

import functools

from fairdyn import (
    PopulationState, UtilitySpec, _loops_py, affine_dynamics, appendix_c_dynamics, ct_integrate,
    estimate_contraction, theorem4_limits,
)
from fairdyn.expr import AFFINE_SHAPE


def test_imposing_demographic_parity_may_break_equality():
    """"imposing demographic parity may break equality".

    An unconstrained policy (UN) equalizes the two groups of these affine
    dynamics, and so does the parity policy that raises the disadvantaged
    group (AA1): both end at 0.9365669914796041. The parity policy that
    lowers the advantaged group (AA2) settles with a gap of 0.307, at the
    same state at t_end = 200 and 400.

    Both maps are certified (their interval form over [0, 1]^2 lies in
    [0, 1]), so no clamp drives the runs. The witness came from a
    random.Random(7) search over certified affine maps: CT, t_end 200,
    h 0.02, u = (-1, 1), gA 0.5. Swapping AA2's closed form for AA1's
    (policy._AA_CASE_ENTRIES) makes this test fail."""
    dyn = affine_dynamics(
        0.746025616558687, -0.30181232087251936, -0.2914450768179447,
        0.7531327112832419, -0.5667881540200458, 0.2293768095932176,
    )
    a0, c0, d0, a1, c1, d1 = dyn.affine
    assert _loops_py._certified(AFFINE_SHAPE, (a0, c0, d0))
    assert _loops_py._certified(AFFINE_SHAPE, (a1, c1, d1))
    state = PopulationState.of(0.23829422203469036, 0.2835679855678534, 0.5)
    u = UtilitySpec(u0=-1.0, u1=1.0)

    gaps = {}
    for mode in ("UN", "AA1", "AA2"):
        rec = ct_integrate(state, mode, u, dyn, t_end=200.0, h=0.02, check_step_halving=True)
        assert rec.clamp_count == 0
        assert rec.extras["step_halving_diff"] < 1e-12
        gaps[mode] = abs(float(rec.pi_a[-1]) - float(rec.pi_b[-1]))
    assert gaps["UN"] < 1e-8 and gaps["AA1"] < 1e-8
    assert gaps["AA2"] > 0.1
    later = ct_integrate(state, "AA2", u, dyn, t_end=400.0, h=0.02)
    assert abs(float(later.pi_a[-1]) - float(later.pi_b[-1])) > 0.1
    assert abs(abs(float(later.pi_a[-1]) - float(later.pi_b[-1])) - gaps["AA2"]) < 1e-12


def test_utility_may_in_fact_increase():
    """"When it doesn't, one would expect the additional constraint to
    reduce utility, however, we show that utility may in fact increase."

    UN, AA1 and AA2 all equalize the two groups of these affine dynamics
    (|Delta| = 0 at t_end = 60), and UN is contractive, so UN reaches
    equality on its own. Yet AA2's cumulative utility, 14.238010691056,
    is 0.0744 above UN's, 14.163621262301; the gain is the same at
    t_end = 120. The run's own error is far smaller: the step-halving
    endpoint difference is 2.4e-15, the utilities move by at most 9.7e-7
    at h/2 and by at most 1.1e-5 under the default output thinning.

    Both maps are certified and no mode clamps. The witness came from a
    random.Random(12) search over certified affine maps: CT, t_end 60,
    h 0.01, sample_every 1, u0 in {-0.25, -0.5, -1}. Swapping AA2's
    closed form for AA1's (policy._AA_CASE_ENTRIES) makes this test fail."""
    dyn = affine_dynamics(
        0.1193950321383635, 0.38400987606328785, 0.11045074901482654,
        0.5898501138630112, -0.09196849129600981, -0.27126092900567056,
    )
    a0, c0, d0, a1, c1, d1 = dyn.affine
    assert _loops_py._certified(AFFINE_SHAPE, (a0, c0, d0))
    assert _loops_py._certified(AFFINE_SHAPE, (a1, c1, d1))
    assert estimate_contraction(dyn).is_contractive_un
    state = PopulationState.of(0.6699263076418502, 0.1898817324148543, 0.21853712110697307)
    u = UtilitySpec(u0=-0.25, u1=1.0)

    gains = []
    for t_end in (60.0, 120.0):
        utilities = {}
        for mode in ("UN", "AA1", "AA2"):
            rec = ct_integrate(
                state, mode, u, dyn, t_end=t_end, h=0.01, sample_every=1, check_step_halving=True
            )
            assert rec.clamp_count == 0
            assert rec.extras["step_halving_diff"] < 1e-12
            assert abs(float(rec.pi_a[-1]) - float(rec.pi_b[-1])) < 1e-8
            utilities[mode] = rec.cumulative_utility
        gains.append(utilities["AA2"] - utilities["UN"])
    assert gains[0] > 0.05
    assert abs(gains[1] - gains[0]) < 1e-9


@functools.cache
def _appendix_c_limits():
    """theorem4_limits on appendixC from piA 0.95, piB 0.05 (gA 0.5, u = (-1,
    1)), computed once for both tests, after checking that each mode's run has a step-halving difference
    below 1e-12 at t_end 300, h 0.01, far below the margins asserted."""
    dyn, state, u = appendix_c_dynamics(), PopulationState.of(0.95, 0.05, 0.5), UtilitySpec(-1.0, 1.0)
    for mode in ("UN", "AA1", "AA2"):
        rec = ct_integrate(state, mode, u, dyn, t_end=300.0, h=0.01, check_step_halving=True)
        assert rec.extras["step_halving_diff"] < 1e-12
    record = theorem4_limits(dyn, state, u)
    assert all(limit.converged for limit in record.limits.values())
    un_a, un_b = record.limits["UN"].limit
    assert un_a - un_b > 0.5  # UN does not equalize: A stays high, B low
    return record, (un_a, un_b)


def test_parity_may_leave_a_worse_set_of_qualifications():
    """"In such cases, we show that although imposing demographic parity may
    remedy it, there is a danger that groups settle at a worse set of
    qualifications."

    On appendixC, the three-equilibrium dynamics of the paper's appendix,
    UN from (piA, piB) = (0.95, 0.05) leaves each group at its own
    attracting point: A at 0.85075, B at 0.17705. The parity policy that
    raises the disadvantaged group (AA1) equalizes them, but at B's point:
    A ends 0.674 lower and B where UN left it. theorem4_limits' verdict
    says the same: AA1's limit is the disadvantaged group's attracting
    point.

    The runs clamp maps that leave [0, 1] (UN 293, AA1 540, AA2 60
    times), as appendixC's maps do. The witness is not a search result: it
    is a start with one group near 1 and the other near 0. Swapping AA1's
    and AA2's closed forms (policy._AA_CASE_ENTRIES) makes this test and
    the next fail."""
    record, (un_a, un_b) = _appendix_c_limits()
    pa, pb = record.limits["AA1"].limit
    assert abs(pa - pb) < 1e-6
    assert un_a - pa > 0.5
    assert abs(pb - un_b) < 1e-6
    assert record.aa1_matches_disadvantaged_basin


def test_parity_may_equalize_and_improve_all_groups():
    """"As a silver lining, we also identify when the constraint not only
    leads to equality, but also improves all groups."

    The witness of the previous test: the parity policy that lowers the
    advantaged group (AA2) equalizes appendixC's groups at A's attracting
    point, 0.85075. B ends 0.674 higher than under UN, and A where UN left
    it (AA2's stationary stop leaves B 2.0e-10 below A).
    theorem4_limits' verdicts say the same: AA2 equalizes, at the advantaged
    group's attracting point."""
    record, (un_a, un_b) = _appendix_c_limits()
    pa, pb = record.limits["AA2"].limit
    assert abs(pa - pb) < 1e-6
    assert pb - un_b > 0.5
    assert abs(pa - un_a) < 1e-6
    assert record.aa2_equalized and record.aa2_matches_advantaged_basin
