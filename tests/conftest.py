import math
import random

import pytest

from fairdyn import DynamicsSpec, PopulationState, UtilitySpec, affine_dynamics


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_state(rng, lo=0.0, hi=1.0):
    return PopulationState.of(
        rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(0.01, 0.99)
    )


def random_utility(rng):
    return UtilitySpec(u0=-rng.uniform(0.0, 2.0), u1=rng.uniform(0.0, 2.0))


def random_contractive_affine(rng, slope=0.05):
    """Affine dynamics with small slopes and a bounded constant gap, so the
    equalization constants stay below 1. Callers should still verify."""
    a0 = rng.uniform(0.05, 0.4)
    a1 = rng.uniform(a0, min(a0 + 0.5, 0.95))
    return affine_dynamics(
        a0,
        rng.uniform(-slope, slope),
        rng.uniform(-slope, slope),
        a1,
        rng.uniform(-slope, slope),
        rng.uniform(-slope, slope),
    )


def appendix_c_callbacks() -> DynamicsSpec:
    """appendixC's maps written as plain Python closures, with no array form
    (.array): the engines and the grid analyses call them as Python
    callbacks, where the builtin appendix_c_dynamics() is two expressions."""

    def f1(b0: float, b1: float) -> float:
        s = b0 + b1
        return 0.5 * (b1 + b1 / 5.0) / 1.4 + math.exp(-1e-9 * s) * math.sin(18.0 * s) + 0.1

    def f0(b0: float, b1: float) -> float:
        return (b1 + b1 / 5.0) / 1.2 + 0.01

    return DynamicsSpec(f0=f0, f1=f1, name="appendixC")
