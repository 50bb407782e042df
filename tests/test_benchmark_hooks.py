"""The benchmark's tracer (perfbench/tracing.py) rebinds fairdyn attributes
by name: each must still exist, and uninstalling the tracer must put every
original back."""

import contextlib
import importlib
import json
import math
import sys
import types
import warnings
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    """perfbench/tracing.py as a module, read without writing its bytecode."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _hooked(tracing) -> list[tuple[str, str]]:
    hooks = [(module, attr) for module, attr, *_ in (*tracing.SPANS, *tracing.TIMED, *tracing.BUILDERS)]
    return hooks + [("fairdyn.analysis", "un_map")]


def _resolve(module: str, attr: str):
    """The raw attribute a hook rebinds: a class attribute as stored in the
    class (a staticmethod undecorated), else the module attribute."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def _fairdyn_bindings() -> dict:
    """Every attribute of every loaded fairdyn module and of its classes."""
    bindings = {}
    for name, module in list(sys.modules.items()):
        if name == "fairdyn" or name.startswith("fairdyn."):
            for key, value in vars(module).items():
                bindings[name, key] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, raw in vars(value).items():
                        bindings[name, f"{key}.{attr}"] = raw
    return bindings


def test_tracer_hooks_resolve_and_uninstall_restores_them():
    import fairdyn.cli  # noqa: F401  loads every module the tracer hooks

    tracing = _load_tracing()
    hooks = _hooked(tracing)
    originals = {hook: _resolve(*hook) for hook in hooks}
    assert all(callable(getattr(raw, "__func__", raw)) for raw in originals.values())
    before = _fairdyn_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for hook in hooks:
            assert _resolve(*hook) is not originals[hook], hook
    finally:
        tracer.uninstall()
    after = _fairdyn_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_export_field_calls_ct_gradient_for_callback_maps(monkeypatch):
    """perfbench's dynamics.ct_gradient.us_per_call times ct_gradient, which
    only export_field calls on a spec without array maps: once per grid
    point for UN, and again for the UN difference under a constrained mode."""
    from conftest import appendix_c_callbacks
    from fairdyn import UtilitySpec, dynamics, scenario

    calls, original = [], dynamics.ct_gradient

    def counted(*args):
        calls.append(args)
        return original(*args)

    for (module, key), value in _fairdyn_bindings().items():  # rebound as the tracer does
        if value is original and "." not in key:
            monkeypatch.setattr(sys.modules[module], key, counted)
    dyn, u = appendix_c_callbacks(), UtilitySpec(-1.0, 1.0)
    assert getattr(dyn.f0, "array", None) is None
    for mode, per_point in (("UN", 1), ("AA1", 2)):
        calls.clear()
        rows = scenario.export_field(dyn, mode, u, resolution=6)
        assert len(rows) == 36 and len(calls) == 36 * per_point, mode


def test_stereotype_trajectory_calls_effective_policy_every_step(monkeypatch):
    """perfbench's stereotype.effective_policy.us_per_call times
    effective_policy, which a stereotype run calls once per sample, with the
    errors zero or not."""
    from fairdyn import PopulationState, StereotypeSpec, UtilitySpec, constant_dynamics, stereotype

    calls, original = [], stereotype.effective_policy

    def counted(*args):
        calls.append(args)
        return original(*args)

    for (module, key), value in _fairdyn_bindings().items():  # rebound as the tracer does
        if value is original and "." not in key:
            monkeypatch.setattr(sys.modules[module], key, counted)
    state, dyn, steps = PopulationState.of(0.8, 0.4, 0.5), constant_dynamics(0.2, 0.8), 12
    for mode in ("UN", "AA"):
        for eps in (StereotypeSpec(0.0, 0.0), StereotypeSpec(0.0, -0.02)):
            calls.clear()
            stereotype.stereotype_trajectory(state, mode, UtilitySpec(-1.0, 1.0), dyn, eps, steps)
            assert len(calls) == steps + 1, (mode, eps)


def _finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def test_layer_probe_fills_every_per_layer_metric(monkeypatch, tmp_path):
    """A traced perfbench run reports every per-layer metric as a finite
    number: json.dumps writes None as null and NaN as NaN, and either makes
    the run's result line unreadable to a strict JSON reader.
    perfbench/run.py fills each per-layer rate a workload leaves unset from
    the layer probe and prints null where the probe leaves it unset too: so
    the probe must set every one (dynamics.ct_gradient.us_per_call comes
    only from export_field on a spec without array maps), and one traced
    round of each workload, with its rates filled from the probe as run.py
    fills them, must pass its checks and leave no metric unset."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as it is
    monkeypatch.syspath_prepend(str(TRACING.parent))
    try:
        import probe
        import run
        import tracing
        import workloads

        @contextlib.contextmanager
        def traced():
            tracer = tracing.Tracer()
            tracer.install()
            try:
                yield tracer
            finally:
                tracer.uninstall()

        ctx = workloads.Context(root=TRACING.parents[1], work=tmp_path / "probe")
        with traced() as tracer:
            probe.layer_probe(ctx)
        from_probe = tracing.layer_metrics(tracer)
        assert [name for name, value in from_probe.items() if not _finite_number(value)] == []
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 1, TRACING.parents[1], tmp_path / name)
            with warnings.catch_warnings(), traced() as tracer:
                warnings.simplefilter("ignore", RuntimeWarning)  # as run.py: AA case-switch notices
                results = [run.run_job(job, workload.ctx, tracer) for job in next(workload.rounds())]
            assert [p for r in results for p in r.problems] == [], name
            metrics = tracing.layer_metrics(tracer)
            metrics = {key: from_probe[key] if value is None else value for key, value in metrics.items()}
            assert [key for key, value in metrics.items() if not _finite_number(value)] == [], name
            json.dumps(metrics, allow_nan=False)  # run.py's result line: no NaN, no null
    finally:
        for name in ("probe", "run", "tracing", "workloads"):
            sys.modules.pop(name, None)
