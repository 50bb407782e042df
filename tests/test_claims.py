"""The abstract's claims, each with a witness pinned as literal parameters.

Each test quotes its claim, runs the library on its witness and asserts the
claim's inequality with a margin far above the run's own error, the
step-halving difference of the RK4 endpoint. The searches that found the
witnesses are described in each docstring; they do not run here.
"""

from fairdyn import PopulationState, UtilitySpec, _loops_py, affine_dynamics, ct_integrate
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
