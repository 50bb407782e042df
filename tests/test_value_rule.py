"""The map-value rule (dynamics.map_value) at every site that applies it:
map_value itself, f0_clamped/f1_clamped, ct_gradient, un_map, and
DynamicsSpec.sample through its per-point tier. Each must give the bits, or
the error class and message, of a reference copy of the rule kept here."""

import math
import struct
import zlib
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdyn import UtilitySpec, un_map
from fairdyn.dynamics import DynamicsSpec, _sample_points, ct_gradient, map_value
from fairdyn.policy import MODE_CODES, policy_entries


class Raises:
    """A value the map raises ZeroDivisionError for, rather than returning."""

    def __repr__(self) -> str:
        return "Raises()"


RAISES = Raises()


def _reference_value(which: str, dyn: DynamicsSpec, b0: float, b1: float) -> float:
    """The rule as f1_clamped applied it before it was compiled from
    MAP_VALUE: a float in [0, 1] as is; any other value through float()
    once, a NaN rejected naming the map and the point, then clamped."""
    value = getattr(dyn, which)(b0, b1)
    if type(value) is float and 0.0 <= value <= 1.0:
        return value
    value = float(value)
    if value != value:
        point = (float(b0), float(b1))
        raise ValueError(f"{which} of dynamics {dyn.name!r} is NaN at (b0, b1) = {point!r}")
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


def _reference_ct_gradient(pa, pb, g_a, mode, u, dyn):
    pa = 0.0 if pa < 0.0 else (1.0 if pa > 1.0 else pa)
    pb = 0.0 if pb < 0.0 else (1.0 if pb > 1.0 else pb)
    t1a, t0a, t1b, t0b, _ = policy_entries(MODE_CODES[mode], pa, pb, g_a, u.u0, u.u1)
    b0a, b1a = t0a * (1.0 - pa), t1a * pa
    b0b, b1b = t0b * (1.0 - pb), t1b * pb
    f1a = _reference_value("f1", dyn, b0a, b1a)
    f0a = _reference_value("f0", dyn, b0a, b1a)
    f1b = _reference_value("f1", dyn, b0b, b1b)
    f0b = _reference_value("f0", dyn, b0b, b1b)
    return pa * (f1a - 1.0) + (1.0 - pa) * f0a, pb * (f1b - 1.0) + (1.0 - pb) * f0b


def _reference_un_map(dyn, pi):
    f1 = _reference_value("f1", dyn, 0.0, pi)
    f0 = _reference_value("f0", dyn, 0.0, pi)
    return min(1.0, max(0.0, pi * f1 + (1.0 - pi) * f0))


def _reference_sample(dyn, xs, ys):
    """Point by point, f1 then f0 at each point: two float64 arrays (f0, f1)."""
    f0, f1 = [], []
    for b0, b1 in zip(xs, ys):
        f1.append(_reference_value("f1", dyn, b0, b1))
        f0.append(_reference_value("f0", dyn, b0, b1))
    return np.array(f0, dtype=float), np.array(f1, dtype=float)


def _outcome(fn, *args):
    """The bits of fn's floats or arrays, or its exception's class and message."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, tuple) and all(isinstance(v, np.ndarray) for v in value):
        return [(v.dtype, v.shape, v.tobytes()) for v in value]
    if isinstance(value, tuple) and all(isinstance(v, list) for v in value):  # _sample_points
        assert {type(v) for v in value[0] + value[1]} <= {float}
        return [(np.dtype(float), (len(v),), np.array(v, dtype=float).tobytes()) for v in value]
    if isinstance(value, tuple):
        return [(type(v), struct.pack("d", v)) for v in value]
    return type(value), struct.pack("d", value)


def _returned(values: list, base: float, b0: float, b1: float):
    """values[k] at the points (b0, b1) hashed to k < len(values), else base."""
    k = zlib.crc32(struct.pack("dd", b0, b1)) % (len(values) + 1)
    return values[k] if k < len(values) else base


def _map(values: list, base: float):
    """A pure map returning _returned's value, where RAISES raises
    ZeroDivisionError."""

    def f(b0, b1):
        value = _returned(values, base, b0, b1)
        return 1.0 / 0.0 if value is RAISES else value

    return f


# Every kind of value a callback may return.
VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400)]),  # ints beyond the float range
    st.booleans(),
    st.fractions(max_denominator=10**6) | st.sampled_from([Fraction(1, 3), -Fraction(1, 10**400)]),
    st.complex_numbers(max_magnitude=2.0),
    st.just(RAISES),
)
MAP = st.tuples(st.lists(VALUES, min_size=1, max_size=3), st.floats(-0.5, 1.5))
POINT = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-0.25, 1.25)


def _spec(map0, map1) -> DynamicsSpec:
    return DynamicsSpec(f0=_map(*map0), f1=_map(*map1), name="rule")


@settings(max_examples=300, deadline=None)
@given(
    map0=MAP,
    map1=MAP,
    pa=POINT,
    pb=POINT,
    g_a=st.floats(0.01, 0.99),
    mode=st.sampled_from(sorted(MODE_CODES)),
    u=st.tuples(st.floats(-2.0, 0.0), st.floats(0.0, 2.0)),
)
@example(map0=([np.float32(0.3)], 0.5), map1=([-0.0], 0.5), pa=0.6, pb=0.4, g_a=0.5, mode="UN", u=(-1.0, 1.0))
@example(map0=([0.2], 0.2), map1=([math.nan], 0.8), pa=0.75, pb=0.5, g_a=0.5, mode="UN", u=(-1.0, 1.0))
@example(map0=([10**400], 0.2), map1=([0.5 + 0.25j], 0.8), pa=0.5, pb=0.5, g_a=0.5, mode="AA", u=(-1.0, 1.0))
@example(map0=([-Fraction(1, 10**400)], 0.2), map1=([True], 1.25), pa=1.0, pb=0.0, g_a=0.3, mode="AA2", u=(-1.0, 1.0))
def test_every_site_follows_the_value_rule(map0, map1, pa, pb, g_a, mode, u):
    u = UtilitySpec(*u)
    dyn = _spec(map0, map1)
    assert _outcome(ct_gradient, pa, pb, g_a, mode, u, dyn) == _outcome(
        _reference_ct_gradient, pa, pb, g_a, mode, u, dyn
    )
    for pi in (pa, pb):
        assert _outcome(un_map(dyn), pi) == _outcome(_reference_un_map, dyn, pi)
    for which in ("f0", "f1"):
        assert _outcome(getattr(dyn, f"{which}_clamped"), pa, pb) == _outcome(_reference_value, which, dyn, pa, pb)
        value = lambda: map_value(getattr(dyn, which)(pa, pb), which, dyn, pa, pb)  # noqa: E731
        assert _outcome(value) == _outcome(_reference_value, which, dyn, pa, pb)

    xs = np.array([pa, pb, 0.0, 0.5, pa, 1.0])
    ys = np.array([pb, pa, 0.5, 0.0, 1.0, pb])
    want = _outcome(_reference_sample, dyn, xs.tolist(), ys.tolist())
    assert _outcome(_sample_points, dyn, xs.tolist(), ys.tolist()) == want  # the per-point tier
    assert _outcome(dyn.sample, xs, ys) == want
