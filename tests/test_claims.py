"""The abstract's claims, each with a witness pinned as literal parameters.

Each test quotes its claim, runs the library on its witness and asserts the
claim's inequality with a margin far above the run's own error, the
step-halving difference of the RK4 endpoint. The searches that found the
witnesses are described in each docstring; they do not run here.
"""

from fairdyn import (
    PopulationState, UtilitySpec, _loops_py, affine_dynamics, ct_integrate, estimate_contraction,
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
