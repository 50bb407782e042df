"""Numerical verification of the equality and utility conditions.

Grid-based suprema are reported as lower bounds of the true values; when
declared Lipschitz constants are available a rigorous upper bound is added
as estimate + (L0 + L1) * cell diameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PopulationState, UtilitySpec
from .dynamics import DynamicsSpec, TrajectoryRecord, ct_integrate, max_grid_slope

CONTRACTIVITY_MARGIN = 1e-6
ROOT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ContractionReport:
    l_un: float
    l_aa1: float
    l_aa2: float
    l0: float
    l1: float
    grid_resolution: int
    method: str  # "grid" | "grid+declared-constants"
    l_un_upper: float | None = None
    l_aa2_upper: float | None = None

    @property
    def is_contractive_un(self) -> bool:
        return self.l_un < 1.0 - CONTRACTIVITY_MARGIN

    @property
    def is_contractive_aa1(self) -> bool:
        return self.l_aa1 < 1.0 - CONTRACTIVITY_MARGIN

    @property
    def is_contractive_aa2(self) -> bool:
        return self.l_aa2 < 1.0 - CONTRACTIVITY_MARGIN


def estimate_contraction(dyn: DynamicsSpec, resolution: int = 256) -> ContractionReport:
    """Grid estimates of the three equalization constants.

    The grid uses resolution+1 equispaced points per axis, so doubling the
    resolution refines over a nested sample set and the estimates are
    monotone in resolution.
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    xs = np.linspace(0.0, 1.0, resolution + 1)

    declared = dyn.declared_l0 is not None and dyn.declared_l1 is not None
    if declared:
        l0, l1 = float(dyn.declared_l0), float(dyn.declared_l1)
        method = "grid+declared-constants"
    else:
        l0 = (
            float(dyn.declared_l0)
            if dyn.declared_l0 is not None
            else max_grid_slope(dyn.f0_clamped, xs)
        )
        l1 = (
            float(dyn.declared_l1)
            if dyn.declared_l1 is not None
            else max_grid_slope(dyn.f1_clamped, xs)
        )
        method = "grid"

    gap0 = np.array(
        [abs(dyn.f1_clamped(0.0, x) - dyn.f0_clamped(0.0, x)) for x in xs]
    )
    l_aa1 = float(np.max(gap0))
    # l_un: max over pi of pi*L1 + (1-pi)*L0 + max_{x <= pi} gap0(x)
    prefix_gap = np.maximum.accumulate(gap0)
    l_un = float(np.max(xs * l1 + (1.0 - xs) * l0 + prefix_gap))

    l_aa2 = 0.0
    for i, pi in enumerate(xs):
        lip = 2.0 * (pi * l1 + (1.0 - pi) * l0)
        for k in range(i + 1):
            delta = xs[k]
            val = lip + abs(
                dyn.f1_clamped(delta, pi - delta) - dyn.f0_clamped(delta, pi - delta)
            )
            if val > l_aa2:
                l_aa2 = val

    l_un_upper = l_aa2_upper = None
    if declared:
        cell = 2.0 / resolution  # l1 diameter of one grid cell
        l_un_upper = l_un + (l0 + l1) * cell
        l_aa2_upper = l_aa2 + (l0 + l1) * cell
    return ContractionReport(
        l_un=l_un,
        l_aa1=l_aa1,
        l_aa2=l_aa2,
        l0=l0,
        l1=l1,
        grid_resolution=resolution,
        method=method,
        l_un_upper=l_un_upper,
        l_aa2_upper=l_aa2_upper,
    )


@dataclass(frozen=True)
class StatusQuoReport:
    holds: bool
    counterexample: tuple[float, float] | None


def check_status_quo_bias(dyn: DynamicsSpec, resolution: int = 256) -> StatusQuoReport:
    """Verify f1 >= f0 - 1e-12 on a grid over the selection-rate square."""
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    xs = np.linspace(0.0, 1.0, resolution + 1)
    for x in xs:
        for y in xs:
            if dyn.f1_clamped(x, y) < dyn.f0_clamped(x, y) - 1e-12:
                return StatusQuoReport(holds=False, counterexample=(float(x), float(y)))
    return StatusQuoReport(holds=True, counterexample=None)


@dataclass(frozen=True)
class Equilibrium:
    position: float
    rate: float  # local slope bound L_i around the point
    radius: float


@dataclass
class EquilibriumAtlas:
    mode: str  # "DT" | "CT"
    attracting: list[Equilibrium]
    unstable: list[float]
    k_valid: bool
    degenerate: bool
    interleaving_ok: bool

    @property
    def k(self) -> int:
        return len(self.attracting)

    def delimiters(self) -> list[float]:
        """Basin boundaries with the 0/1 end conventions applied."""
        interior = [d for d in self.unstable if 0.0 < d < 1.0]
        return [0.0] + sorted(interior) + [1.0]

    def basin_index(self, pi0: float, tol: float = 1e-9) -> int | None:
        """Index (0-based) of the attracting point whose basin holds pi0;
        None when pi0 sits on a delimiter."""
        dels = self.delimiters()
        for d in dels[1:-1]:
            if abs(pi0 - d) <= tol:
                return None
        for i in range(len(self.attracting)):
            if dels[i] <= pi0 <= dels[i + 1]:
                return i
        return None


def un_map(dyn: DynamicsSpec):
    """The one-dimensional profile map induced by the unconstrained policy."""

    def f(pi: float) -> float:
        val = pi * dyn.f1_clamped(0.0, pi) + (1.0 - pi) * dyn.f0_clamped(0.0, pi)
        return min(1.0, max(0.0, val))

    return f


def _bisect(g, lo: float, hi: float, tol: float = 1e-12) -> float:
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo > 0.0) == (gm > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_equilibria(dyn: DynamicsSpec, mode: str = "CT", cells: int = 4096) -> EquilibriumAtlas:
    """Locate and classify fixed points of the UN-induced profile map."""
    if mode not in ("DT", "CT"):
        raise ValueError("mode must be 'DT' or 'CT'")
    f = un_map(dyn)
    g = lambda pi: f(pi) - pi
    xs = np.linspace(0.0, 1.0, cells + 1)
    gs = np.array([g(x) for x in xs])

    for i in range(cells):
        mid = 0.5 * (xs[i] + xs[i + 1])
        if abs(gs[i]) < 1e-12 and abs(gs[i + 1]) < 1e-12 and abs(g(mid)) < 1e-12:
            return EquilibriumAtlas(
                mode=mode, attracting=[], unstable=[], k_valid=False,
                degenerate=True, interleaving_ok=False,
            )

    roots: list[float] = []
    for i in range(cells + 1):
        if abs(gs[i]) <= ROOT_RESIDUAL_TOL:
            roots.append(float(xs[i]))
    for i in range(cells):
        if gs[i] * gs[i + 1] < 0.0:
            roots.append(_bisect(g, float(xs[i]), float(xs[i + 1])))
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)

    eps = 1e-7
    attracting: list[Equilibrium] = []
    unstable: list[float] = []
    kinds: list[str] = []
    for r in deduped:
        lo, hi = max(0.0, r - eps), min(1.0, r + eps)
        fp = (f(hi) - f(lo)) / (hi - lo)
        if mode == "CT":
            is_attracting = fp < 1.0
        else:
            is_attracting = abs(fp) < 1.0
        kinds.append("a" if is_attracting else "u")
        if is_attracting:
            attracting.append(Equilibrium(position=r, rate=fp, radius=0.0))
        else:
            unstable.append(r)

    # Attracting points must be separated by exactly one unstable delimiter.
    interleaving_ok = "aa" not in "".join(kinds)

    # Local slope bound and radius around each attracting point.
    dels = [0.0] + [d for d in unstable if 0.0 < d < 1.0] + [1.0]
    refined: list[Equilibrium] = []
    for idx, eq in enumerate(attracting):
        left = max(d for d in dels if d <= eq.position + 1e-15)
        right = min(d for d in dels if d >= eq.position - 1e-15)
        radius = min(0.05, 0.5 * max(eq.position - left, 1e-6), 0.5 * max(right - eq.position, 1e-6))
        radius = max(radius, 1e-6)
        pts = np.linspace(max(0.0, eq.position - radius), min(1.0, eq.position + radius), 33)
        slopes = []
        for p in pts:
            lo, hi = max(0.0, p - eps), min(1.0, p + eps)
            slopes.append((f(hi) - f(lo)) / (hi - lo))
        refined.append(Equilibrium(position=eq.position, rate=float(max(slopes)), radius=radius))
    attracting = refined

    k_valid = interleaving_ok and len(attracting) > 0
    if k_valid:
        probe = np.linspace(0.0, 1.0, 2049)
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
        mode=mode,
        attracting=attracting,
        unstable=unstable,
        k_valid=k_valid,
        degenerate=False,
        interleaving_ok=interleaving_ok,
    )


def delta_bounds(
    contraction: float, delta0: float, t: float, mode: str
) -> tuple[float, float]:
    """Two-sided gap envelope: CT exponential pair, DT geometric upper bound."""
    if not (0.0 <= contraction < 1.0):
        raise ValueError("contraction constant must lie in [0, 1)")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if delta0 < 0.0:
        raise ValueError("delta0 must be >= 0")
    if mode == "CT":
        return (
            delta0 * math.exp(-t * (1.0 + contraction)),
            delta0 * math.exp(-t * (1.0 - contraction)),
        )
    if mode == "DT":
        return (0.0, 2.0 * delta0 * contraction**t)
    raise ValueError("mode must be 'DT' or 'CT'")


@dataclass(frozen=True)
class Theorem2Verdict:
    alpha: float
    lower_ok: bool
    upper_ok: bool
    applies: bool


def theorem2_verdict(
    l_un: float, l_aa2: float, g_a: float, u: UtilitySpec
) -> Theorem2Verdict:
    """Evaluate the over-acceptance utility-gain conditions as stated."""
    denom = (1.0 - g_a) * u.u1 + abs(u.u0)
    if denom <= 0.0:
        raise ValueError("alpha undefined: (1 - g_a)*u1 + |u0| must be > 0")
    alpha = (1.0 - g_a) * u.u1 / denom
    lower_ok = l_un >= 1.0 - alpha
    upper_ok = alpha > 0.0 and l_aa2 <= 1.0 + (l_un - 1.0) / alpha
    applies = lower_ok and upper_ok and l_un < 1.0 and l_aa2 < 1.0
    return Theorem2Verdict(alpha=alpha, lower_ok=lower_ok, upper_ok=upper_ok, applies=applies)


@dataclass
class ModeLimit:
    mode: str
    converged: bool
    limit: tuple[float, float]
    utility_at_limit: float
    record: TrajectoryRecord


@dataclass
class Theorem4Record:
    atlas: EquilibriumAtlas
    limits: dict[str, ModeLimit]
    basin_a: int | None
    basin_b: int | None
    aa1_matches_disadvantaged_basin: bool | None
    aa2_equalized: bool | None
    aa2_matches_advantaged_basin: bool | None


def theorem4_limits(
    dyn: DynamicsSpec,
    state0: PopulationState,
    u: UtilitySpec,
    t_cap: float = 300.0,
    h: float = 0.01,
    stationary_tol: float = 1e-10,
    match_tol: float = 1e-6,
) -> Theorem4Record:
    """Run CT to numerical convergence under UN, AA1 and AA2 and check the
    limiting populations against the basin structure of the UN map."""
    atlas = find_equilibria(dyn, mode="CT")
    limits: dict[str, ModeLimit] = {}
    for mode in ("UN", "AA1", "AA2"):
        rec = ct_integrate(
            state0, mode, u, dyn, t_end=t_cap, h=h, stop_tol=stationary_tol
        )
        converged = any(kind == "stationary_stop" for _, kind in rec.events)
        limits[mode] = ModeLimit(
            mode=mode,
            converged=converged,
            limit=(float(rec.pi_a[-1]), float(rec.pi_b[-1])),
            utility_at_limit=float(rec.step_utility[-1]),
            record=rec,
        )

    adv_is_a = state0.pi_a.p1 >= state0.pi_b.p1
    pi_adv0 = state0.pi_a.p1 if adv_is_a else state0.pi_b.p1
    pi_dis0 = state0.pi_b.p1 if adv_is_a else state0.pi_a.p1
    basin_a = atlas.basin_index(state0.pi_a.p1)
    basin_b = atlas.basin_index(state0.pi_b.p1)
    basin_adv = atlas.basin_index(pi_adv0)
    basin_dis = atlas.basin_index(pi_dis0)

    aa1_ok = None
    if limits["AA1"].converged and basin_dis is not None:
        target = atlas.attracting[basin_dis].position
        pa, pb = limits["AA1"].limit
        aa1_ok = abs(pa - target) <= match_tol and abs(pb - target) <= match_tol

    aa2_rec = limits["AA2"]
    aa2_equalized = None
    aa2_ok = None
    if aa2_rec.converged:
        pa, pb = aa2_rec.limit
        aa2_equalized = abs(pa - pb) <= match_tol
        if aa2_equalized and basin_adv is not None:
            target = atlas.attracting[basin_adv].position
            aa2_ok = abs(pa - target) <= match_tol and abs(pb - target) <= match_tol

    return Theorem4Record(
        atlas=atlas,
        limits=limits,
        basin_a=basin_a,
        basin_b=basin_b,
        aa1_matches_disadvantaged_basin=aa1_ok,
        aa2_equalized=aa2_equalized,
        aa2_matches_advantaged_basin=aa2_ok,
    )


@dataclass(frozen=True)
class PersistenceRecord:
    aa1_under_a_advantage: bool  # C-|A
    aa1_under_b_advantage: bool  # C-|B
    aa2_under_a_advantage: bool  # C+|A
    aa2_under_b_advantage: bool  # C+|B
    always_aa1: bool
    always_aa2: bool

    @property
    def persistent_case(self) -> str | None:
        if self.always_aa1 and not self.always_aa2:
            return "AA1"
        if self.always_aa2 and not self.always_aa1:
            return "AA2"
        if self.always_aa1 and self.always_aa2:
            return "Boundary"
        return None


def prop3_case_persistence(g_a: float, u: UtilitySpec) -> PersistenceRecord:
    """Sufficient conditions for staying in one AA case across advantage swaps."""
    g_b = 1.0 - g_a
    s_a = g_a * u.u1 + g_b * u.u0
    s_b = g_b * u.u1 + g_a * u.u0
    c_minus_a = s_a <= 0.0
    c_minus_b = s_b <= 0.0
    c_plus_a = s_a >= 0.0
    c_plus_b = s_b >= 0.0
    return PersistenceRecord(
        aa1_under_a_advantage=c_minus_a,
        aa1_under_b_advantage=c_minus_b,
        aa2_under_a_advantage=c_plus_a,
        aa2_under_b_advantage=c_plus_b,
        always_aa1=c_minus_a and c_minus_b,
        always_aa2=c_plus_a and c_plus_b,
    )
