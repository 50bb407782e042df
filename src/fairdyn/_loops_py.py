"""The fixed-step RK4 trajectory kernel behind ct_integrate."""

from __future__ import annotations

from .policy import policy_entries

BACKEND = "python"


def ct_loop(
    pa,
    pb,
    ga,
    u0,
    u1,
    mode,
    f0,
    f1,
    affine,
    h,
    n_steps,
    sample_every,
    merge_tol,
    stop_tol,
):
    """Fixed-step classical RK4 over the joint two-group CT dynamics.

    The policy (and with it the selection rates feeding f0/f1) is recomputed
    from the current point at every stage evaluation. Once the groups come
    within merge_tol of each other they are merged onto one shared
    trajectory. If stop_tol > 0, integration stops early once both
    derivatives fall below it in magnitude.

    affine, when not None, is (a0, c0, d0, a1, c1, d1) and replaces the f0/f1
    calls with inline affine evaluation.

    Returns (samples, clamp_count, merge_step, stop_step) where samples is a
    list of (step_index, pa, pb); merge_step and stop_step are -1 when the
    corresponding event did not occur.
    """
    use_affine = affine is not None
    if use_affine:
        a0, c0, d0, a1, c1, d1 = affine

    clamp_count = 0
    merged = False
    merge_step = -1
    stop_step = -1

    def deriv(xa, xb):
        nonlocal clamp_count
        if xa < 0.0:
            xa = 0.0
        elif xa > 1.0:
            xa = 1.0
        if xb < 0.0:
            xb = 0.0
        elif xb > 1.0:
            xb = 1.0
        t1a, t0a, t1b, t0b, _ = policy_entries(mode, xa, xb, ga, u0, u1)
        b0a = t0a * (1.0 - xa)
        b1a = t1a * xa
        b0b = t0b * (1.0 - xb)
        b1b = t1b * xb
        if use_affine:
            f1a = a1 + c1 * b0a + d1 * b1a
            f0a = a0 + c0 * b0a + d0 * b1a
            f1b = a1 + c1 * b0b + d1 * b1b
            f0b = a0 + c0 * b0b + d0 * b1b
        else:
            f1a = f1(b0a, b1a)
            f0a = f0(b0a, b1a)
            f1b = f1(b0b, b1b)
            f0b = f0(b0b, b1b)
        if f1a < 0.0:
            f1a = 0.0
            clamp_count += 1
        elif f1a > 1.0:
            f1a = 1.0
            clamp_count += 1
        if f0a < 0.0:
            f0a = 0.0
            clamp_count += 1
        elif f0a > 1.0:
            f0a = 1.0
            clamp_count += 1
        if f1b < 0.0:
            f1b = 0.0
            clamp_count += 1
        elif f1b > 1.0:
            f1b = 1.0
            clamp_count += 1
        if f0b < 0.0:
            f0b = 0.0
            clamp_count += 1
        elif f0b > 1.0:
            f0b = 1.0
            clamp_count += 1
        da = xa * (f1a - 1.0) + (1.0 - xa) * f0a
        db = xb * (f1b - 1.0) + (1.0 - xb) * f0b
        return da, db

    def deriv_merged(x):
        nonlocal clamp_count
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        if use_affine:
            f1v = a1 + d1 * x
            f0v = a0 + d0 * x
        else:
            f1v = f1(0.0, x)
            f0v = f0(0.0, x)
        if f1v < 0.0:
            f1v = 0.0
            clamp_count += 1
        elif f1v > 1.0:
            f1v = 1.0
            clamp_count += 1
        if f0v < 0.0:
            f0v = 0.0
            clamp_count += 1
        elif f0v > 1.0:
            f0v = 1.0
            clamp_count += 1
        return x * (f1v - 1.0) + (1.0 - x) * f0v

    samples = [(0, pa, pb)]
    half = 0.5 * h
    sixth = h / 6.0

    step = 0
    while step < n_steps:
        if not merged and abs(pa - pb) < merge_tol:
            merged = True
            merge_step = step
            pm = 0.5 * (pa + pb)
            pa = pm
            pb = pm
        if merged:
            k1 = deriv_merged(pa)
            if stop_tol > 0.0 and abs(k1) < stop_tol:
                stop_step = step
                break
            k2 = deriv_merged(pa + half * k1)
            k3 = deriv_merged(pa + half * k2)
            k4 = deriv_merged(pa + h * k3)
            pa = pa + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if pa < 0.0:
                pa = 0.0
            elif pa > 1.0:
                pa = 1.0
            pb = pa
        else:
            k1a, k1b = deriv(pa, pb)
            if stop_tol > 0.0 and abs(k1a) < stop_tol and abs(k1b) < stop_tol:
                stop_step = step
                break
            k2a, k2b = deriv(pa + half * k1a, pb + half * k1b)
            k3a, k3b = deriv(pa + half * k2a, pb + half * k2b)
            k4a, k4b = deriv(pa + h * k3a, pb + h * k3b)
            pa = pa + sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
            pb = pb + sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
            if pa < 0.0:
                pa = 0.0
            elif pa > 1.0:
                pa = 1.0
            if pb < 0.0:
                pb = 0.0
            elif pb > 1.0:
                pb = 1.0
        step += 1
        if step % sample_every == 0 or step == n_steps:
            samples.append((step, pa, pb))

    if stop_step >= 0 and samples[-1][0] != step:
        samples.append((step, pa, pb))

    return samples, clamp_count, merge_step, stop_step
