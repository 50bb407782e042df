"""Numerical verification of the equality and utility conditions.

Grid-based suprema are reported as lower bounds of the true values; when
declared Lipschitz constants are available an upper bound is added as
estimate + (L0 + L1) * cell diameter. That bound holds only if the declared
constants are true Lipschitz constants of the maps: they are checked only
against the grid's finite-difference slopes, which are lower bounds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import PopulationState, UtilitySpec
from .dynamics import (
    GRID_RESOLUTION,
    GRID_RESOLUTION_MIN,
    DynamicsSpec,
    TrajectoryRecord,
    ct_integrate,
    dt_map,
    grid_axis,
    max_grid_slope,
    step_count,
    un_map,
)
from .policy import aa_scores

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

    # The verdicts test the upper bounds when declared constants give them:
    # the grid estimates are lower bounds, so L < 1 on them proves nothing
    # (L_UN >= 1 - alpha, theorem2's lower_ok, it does). Else the estimates.
    @property
    def is_contractive_un(self) -> bool:
        return _contractive(self.l_un if self.l_un_upper is None else self.l_un_upper)

    @property
    def is_contractive_aa1(self) -> bool:
        return _contractive(self.l_aa1)

    @property
    def is_contractive_aa2(self) -> bool:
        return _contractive(self.l_aa2 if self.l_aa2_upper is None else self.l_aa2_upper)

    def theorem2(self, g_a: float, u: UtilitySpec) -> Theorem2Verdict:
        """theorem2_verdict at g_a and u, with upper_ok testing L_AA2_upper
        and applies also needing L_UN_upper < 1 when there are upper bounds."""
        if self.l_un_upper is None:
            return theorem2_verdict(self.l_un, self.l_aa2, g_a, u)
        verdict = theorem2_verdict(self.l_un, self.l_aa2_upper, g_a, u)
        return dataclasses.replace(verdict, applies=verdict.applies and self.l_un_upper < 1.0)


def _contractive(bound: float) -> bool:
    return bound < 1.0 - CONTRACTIVITY_MARGIN


def estimate_contraction(dyn: DynamicsSpec, resolution: int = GRID_RESOLUTION) -> ContractionReport:
    """Grid estimates of the three equalization constants.

    The grid is dyn.sample_grid(resolution): resolution+1 equispaced points
    per axis, so doubling the resolution refines over a nested sample set
    and the estimates are monotone in resolution. The spec keeps it for
    validate_declared and check_status_quo_bias at the same resolution. A
    declared Lipschitz constant replaces its sampled slope once
    dyn.check_declared has passed it (ValueError if not).
    """
    step_count("resolution", resolution, GRID_RESOLUTION_MIN)
    xs, f0, f1 = dyn.sample_grid(resolution)
    l0, l1 = max_grid_slope(f0, xs[1]), max_grid_slope(f1, xs[1])
    dyn.check_declared(l0, l1)
    l0 = l0 if dyn.declared_l0 is None else float(dyn.declared_l0)
    l1 = l1 if dyn.declared_l1 is None else float(dyn.declared_l1)
    declared = dyn.declared_l0 is not None and dyn.declared_l1 is not None
    method = "grid+declared-constants" if declared else "grid"

    gap0 = np.abs(f1[0] - f0[0])  # row 0 is b0 = 0
    l_aa1 = float(np.max(gap0))
    # l_un: max over pi of pi*L1 + (1-pi)*L0 + max_{x <= pi} gap0(x)
    prefix_gap = np.maximum.accumulate(gap0)
    l_un = float(np.max(xs * l1 + (1.0 - xs) * l0 + prefix_gap))

    # l_aa2: max over pi = xs[i] and delta = xs[k], k <= i, of
    # 2*(pi*L1 + (1-pi)*L0) + |f1 - f0| at (delta, pi - delta). Where
    # pi - delta is xs[i - k] bit for bit the maps are read off the grid,
    # and only the other points are sampled. The grid sampled cleanly, so
    # the first of those to fail is the whole triangle's first failing point.
    i, k = np.tril_indices(resolution + 1)
    b1 = xs[i] - xs[k]
    other = b1.view(np.int64) != xs[i - k].view(np.int64)
    t0, t1 = f0[k, i - k], f1[k, i - k]
    t0[other], t1[other] = dyn.sample(xs[k[other]], b1[other])
    lip = 2.0 * (xs * l1 + (1.0 - xs) * l0)
    l_aa2 = float(np.max(lip[i] + np.abs(t1 - t0)))

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


def check_status_quo_bias(dyn: DynamicsSpec, resolution: int = GRID_RESOLUTION) -> StatusQuoReport:
    """Verify f1 >= f0 - 1e-12 on dyn.sample_grid(resolution), the grid the
    spec keeps; the counterexample is the first failing point in row-major
    order."""
    step_count("resolution", resolution, GRID_RESOLUTION_MIN)
    xs, f0, f1 = dyn.sample_grid(resolution)
    bad = np.flatnonzero(f1 < f0 - 1e-12)
    if not bad.size:
        return StatusQuoReport(holds=True, counterexample=None)
    i, j = divmod(int(bad[0]), xs.size)
    return StatusQuoReport(holds=False, counterexample=(float(xs[i]), float(xs[j])))


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
        return _delimiters(self.unstable)

    def basin_index(self, pi0: float) -> int | None:
        """Index (0-based) of the attracting point whose basin holds pi0;
        None when pi0 is within 1e-9 of an interior delimiter."""
        dels = self.delimiters()
        for d in dels[1:-1]:
            if abs(pi0 - d) <= 1e-9:
                return None
        for i in range(len(self.attracting)):
            if dels[i] <= pi0 <= dels[i + 1]:
                return i
        return None


def _delimiters(unstable: list[float]) -> list[float]:
    """0, the unstable points strictly inside (0, 1) in order, then 1."""
    return [0.0] + sorted(d for d in unstable if 0.0 < d < 1.0) + [1.0]


def _bisect(g, lo: float, hi: float, tol: float = 1e-12) -> float:
    glo = g(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo > 0.0) == (gm > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_equilibria(dyn: DynamicsSpec, mode: str = "CT") -> EquilibriumAtlas:
    """Locate and classify fixed points of the UN-induced profile map: one
    array scan of it on grid_axis(4096), which the basin probe reads too, and
    the scalar un_map for every other value (roots, slopes, rates)."""
    if mode not in ("DT", "CT"):
        raise ValueError(f"mode must be 'DT' or 'CT', got {mode!r}")
    f = un_map(dyn)
    g = lambda pi: f(pi) - pi
    xs = grid_axis(4096)
    f0, f1 = dyn.sample(0.0, xs)  # un_map(dyn) at every xs, with the same bits
    fs = dt_map(xs, f1, f0)
    fs = np.where(fs > 0.0, fs, 0.0)  # max(0.0, fs)
    fs = np.where(fs < 1.0, fs, 1.0)  # min(1.0, fs)
    gs = fs - xs
    xs = xs.tolist()

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
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)

    def slope(p: float) -> float:
        """Central difference of f at p, one-sided at 0 and 1; hi first."""
        hi, lo = min(1.0, p + 1e-7), max(0.0, p - 1e-7)
        return (f(hi) - f(lo)) / (hi - lo)

    kinds = [
        "a" if (fp < 1.0 if mode == "CT" else abs(fp) < 1.0) else "u"
        for fp in map(slope, deduped)
    ]
    # Attracting points must be separated by exactly one unstable delimiter.
    interleaving_ok = "aa" not in "".join(kinds)
    unstable = [r for r, kind in zip(deduped, kinds) if kind == "u"]

    # Local slope bound and radius around each attracting point.
    dels = _delimiters(unstable)
    attracting: list[Equilibrium] = []
    for r in [r for r, kind in zip(deduped, kinds) if kind == "a"]:
        left = max(d for d in dels if d <= r + 1e-15)
        right = min(d for d in dels if d >= r - 1e-15)
        radius = max(min(0.05, 0.5 * max(r - left, 1e-6), 0.5 * max(right - r, 1e-6)), 1e-6)
        rate = max(map(slope, np.linspace(max(0.0, r - radius), min(1.0, r + radius), 33).tolist()))
        attracting.append(Equilibrium(position=r, rate=rate, radius=radius))

    k_valid = interleaving_ok and len(attracting) > 0
    if k_valid:
        # grid_axis(4096)[::2] == grid_axis(2048) exactly: both steps are powers of two
        probe, fp = grid_axis(2048), fs[::2]
        # interleaved: an unstable point lies strictly inside (0, 1) between
        # each pair of attracting points, so dels has k + 1 entries or more
        for i, eq in enumerate(attracting):
            left = (dels[i] + 1e-6 < probe) & (probe < eq.position - 1e-6)
            right = (eq.position + 1e-6 < probe) & (probe < dels[i + 1] - 1e-6)
            ok = (~left | (fp > probe)) & (~right | (fp < probe))
            if mode == "DT":
                ok &= (~left | (fp < eq.position)) & (~right | (fp > eq.position))
            k_valid = bool(ok.all())
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
    for name, value in (("contraction", contraction), ("delta0", delta0), ("t", t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (0.0 <= contraction < 1.0):
        raise ValueError(f"contraction constant must lie in [0, 1), got {contraction!r}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    if delta0 < 0.0:
        raise ValueError(f"delta0 must be >= 0, got {delta0!r}")
    if mode == "CT":
        return (
            delta0 * math.exp(-t * (1.0 + contraction)),
            delta0 * math.exp(-t * (1.0 - contraction)),
        )
    if mode == "DT":
        return (0.0, 2.0 * delta0 * contraction**t)
    raise ValueError(f"mode must be 'DT' or 'CT', got {mode!r}")


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

    basin_a = atlas.basin_index(state0.pi_a.p1)
    basin_b = atlas.basin_index(state0.pi_b.p1)
    adv_is_a = state0.pi_a.p1 >= state0.pi_b.p1
    basin_adv, basin_dis = (basin_a, basin_b) if adv_is_a else (basin_b, basin_a)

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
    s_a, s_b = aa_scores(g_a, u.u0, u.u1)  # the scores mode AA's case follows
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
