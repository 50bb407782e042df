"""Span tracer that instruments fairdyn from outside.

`Tracer.install()` rebinds attributes of the loaded ``fairdyn.*`` modules
(and two class attributes) to wrappers; `Tracer.uninstall()` puts the
originals back. Nothing under ``src/`` is edited.

Three kinds of wrapper are used:

* span wrappers around coarse public functions record
  ``[name, start_ns, end_ns, parent, job, rhs_evals, map_evals, attrs]``;
* timing wrappers around hot scalar functions (called per sample or per grid
  point) only add up calls and nanoseconds, since a span per call would cost
  more than the call;
* dynamics builders return specs whose ``f0``/``f1`` count every evaluation,
  and ``un_map`` returns a map that counts its evaluations, so each span
  knows how many right-hand-side and map evaluations happened inside it.

A layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

NAME, START, END, PARENT, JOB, RHS, MAP, ATTRS = range(8)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def ct_loop_attrs(fn, args, kwargs, result) -> dict:
    """Work done by one ct_loop call, from its arguments and result.

    On the affine-inline path no Python callback runs, so the number of
    right-hand-side evaluations is computed from the step counts: an unmerged
    RK4 step evaluates f0 and f1 for both groups in each of 4 stages (16), a
    merged step evaluates each once per stage (8), and a stationary stop costs
    one more first stage (4 unmerged, 2 merged).
    """
    a = _bound(fn, args, kwargs)
    _, clamps, merge_step, stop_step = result
    n_steps = a["n_steps"]
    taken = stop_step if stop_step >= 0 else n_steps
    merged = taken - merge_step if merge_step >= 0 else 0
    if a["affine"] is not None:
        path = "affine"
        rhs = 16 * (taken - merged) + 8 * merged
        if stop_step >= 0:
            rhs += 2 if merge_step >= 0 else 4
    else:
        path = getattr(a["f0"], "path", "callback")
        rhs = None  # counted exactly by the f0/f1 wrappers
    return {
        "path": path,
        "n_steps": n_steps,
        "taken": taken,
        "merged": merged,
        "clamps": clamps,
        "rhs": rhs,
    }


def _arg(name):
    def attrs(fn, args, kwargs, result):
        return {name: _bound(fn, args, kwargs)[name]}

    return attrs


def _written_bytes(fn, args, kwargs, result):
    return {"bytes": Path(_bound(fn, args, kwargs)["path"]).stat().st_size}


def _exit_code(fn, args, kwargs, result):
    return {"code": result}


# (module, attribute, span name, attrs hook); "Class.method" names a class
# attribute.
SPANS = (
    ("fairdyn._kernels", "ct_loop", "dynamics.ct_loop", ct_loop_attrs),
    ("fairdyn.dynamics", "ct_integrate", "dynamics.ct_integrate", None),
    ("fairdyn.dynamics", "dt_trajectory", "dynamics.dt_trajectory", _arg("steps")),
    ("fairdyn.dynamics", "DynamicsSpec.validate_declared", "dynamics.validate_declared", None),
    ("fairdyn.expr", "compile_expression", "expr.compile_expression", None),
    ("fairdyn.analysis", "estimate_contraction", "analysis.estimate_contraction", _arg("resolution")),
    ("fairdyn.analysis", "check_status_quo_bias", "analysis.check_status_quo_bias", None),
    ("fairdyn.analysis", "find_equilibria", "analysis.find_equilibria", None),
    ("fairdyn.analysis", "theorem4_limits", "analysis.theorem4_limits", None),
    ("fairdyn.policy", "aa_policy", "policy.aa_policy", None),
    ("fairdyn.policy", "lp_oracle", "policy.lp_oracle", None),
    ("fairdyn.stereotype", "stereotype_trajectory", "stereotype.stereotype_trajectory", _arg("steps")),
    ("fairdyn.scenario", "Scenario.from_text", "scenario.from_text", None),
    ("fairdyn.scenario", "export_field", "scenario.export_field", _arg("resolution")),
    ("fairdyn.scenario", "write_trajectory_csv", "scenario.write_trajectory_csv", _written_bytes),
    ("fairdyn.scenario", "write_field_csv", "scenario.write_field_csv", _written_bytes),
    ("fairdyn.scenario", "write_compare_csv", "scenario.write_compare_csv", _written_bytes),
    ("fairdyn.scenario", "write_analysis_report", "scenario.write_analysis_report", None),
    ("fairdyn.cli", "main", "cli.main", _exit_code),
)

TIMED = (
    ("fairdyn.policy", "policy_entries", "policy.policy_entries"),
    ("fairdyn.core", "utility", "core.utility"),
    ("fairdyn.dynamics", "ct_gradient", "dynamics.ct_gradient"),
    ("fairdyn.stereotype", "effective_policy", "stereotype.effective_policy"),
)

# Builders whose DynamicsSpec gets counting f0/f1, with the kernel path a
# spec without an affine tuple takes.
BUILDERS = (
    ("fairdyn.dynamics", "affine_dynamics", "callback"),
    ("fairdyn.dynamics", "constant_dynamics", "callback"),
    ("fairdyn.dynamics", "appendix_c_dynamics", "callback"),
    ("fairdyn.dynamics", "make_builtin", "callback"),
    ("fairdyn.dynamics", "parse_dynamics", "expr"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self.rhs = 0
        self.map_evals = 0
        self.job: int | None = None
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> list:
        """Start a span under the innermost open one; `close` ends it."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.job, self.rhs, self.map_evals, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf_counter_ns()
        self._stack.pop()
        rec[RHS] = self.rhs - rec[RHS]
        rec[MAP] = self.map_evals - rec[MAP]

    def _span(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(fn, args, kwargs, result)
            return result

        return wrapper

    def _timed(self, name, fn):
        tracer, calls, ns = self, self.calls, self.ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            ns[name] += perf_counter_ns() - t0
            calls[name] += 1
            return result

        return wrapper

    def _counting(self, fn, path: str):
        """Wrap one dynamics map so each evaluation is counted."""
        tracer = self

        def counted(b0, b1):
            tracer.rhs += 1
            return fn(b0, b1)

        counted.path = path
        return counted

    def _builder(self, fn, path):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spec = fn(*args, **kwargs)
            if hasattr(spec.f0, "path"):  # built by another wrapped builder
                return spec
            return dataclasses.replace(
                spec,
                f0=tracer._counting(spec.f0, path),
                f1=tracer._counting(spec.f1, path),
            )

        return wrapper

    def _un_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(dyn):
            f = fn(dyn)

            def counted(pi):
                tracer.map_evals += 1
                return f(pi)

            return counted

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(make(raw.__func__)))
            else:
                setattr(cls, attr, make(raw))
            self._undo.append((cls, attr, raw))
            return
        original = getattr(owner, attr)
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "fairdyn" and not name.startswith("fairdyn."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def install(self) -> None:
        for module, attr, name, attrs in SPANS:
            self._rebind(module, attr, lambda fn, n=name, a=attrs: self._span(n, fn, a))
        for module, attr, name in TIMED:
            self._rebind(module, attr, lambda fn, n=name: self._timed(n, fn))
        for module, attr, path in BUILDERS:
            self._rebind(module, attr, lambda fn, p=path: self._builder(fn, p))
        self._rebind("fairdyn.analysis", "un_map", self._un_map)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reading ----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its direct children."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def self_seconds_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for rec, s in zip(self.spans, self.self_ns()):
            out[rec[NAME]] += s / 1e9
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def dump(self, path: Path) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "job", "rhs_evals", "map_evals", "attrs"]
        path.write_text(
            json.dumps(
                {
                    "span_fields": fields,
                    "spans": self.spans,
                    "calls": dict(self.calls),
                    "ns": dict(self.ns),
                    "self_s": self.self_seconds_by_layer(),
                }
            )
        )


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(tr: Tracer) -> dict[str, float | None]:
    """Per-layer metrics from one tracer's spans and counts.

    Totals and counts are always numbers (0 when the layer did not run).
    Rates whose base is zero are None; the caller fills them from a probe.
    """
    groups: dict[str, list[tuple[int, list, int]]] = defaultdict(list)
    for i, (rec, s) in enumerate(zip(tr.spans, tr.self_ns())):
        groups[rec[NAME]].append((i, rec, s))

    def self_s(name):
        return sum(s for _, _, s in groups[name]) / 1e9

    def span_ns(name):
        return sum(r[END] - r[START] for _, r, _ in groups[name])

    def attr_sum(name, key):
        return sum(r[ATTRS][key] for _, r, _ in groups[name])

    def per_call(name, scale):
        return _ratio(span_ns(name) * scale, len(groups[name]))

    def timed(name, scale):
        return _ratio(tr.ns[name] * scale, tr.calls[name])

    m: dict[str, float | None] = {}
    loops = [r for _, r, _ in groups["dynamics.ct_loop"]]
    taken = attr_sum("dynamics.ct_loop", "taken")
    m["dynamics.ct_loop.steps"] = taken
    m["dynamics.ct_loop.rhs_evals"] = sum(
        r[ATTRS]["rhs"] if r[ATTRS]["rhs"] is not None else r[RHS] for r in loops
    )
    m["dynamics.ct_loop.merged_step_frac"] = _ratio(attr_sum("dynamics.ct_loop", "merged"), taken)
    n_steps = attr_sum("dynamics.ct_loop", "n_steps")
    m["dynamics.ct_loop.stop_saved_frac"] = _ratio(n_steps - taken, n_steps)
    m["dynamics.ct_loop.clamps"] = attr_sum("dynamics.ct_loop", "clamps")

    m["dynamics.ct_integrate.self_s"] = self_s("dynamics.ct_integrate")
    # Time inside ct_integrate spent outside its ct_loop: the summed spans of
    # the outermost ct_integrate calls (check_step_halving nests one) minus
    # every ct_loop inside them.
    nested = [False] * len(tr.spans)
    for i, rec in enumerate(tr.spans):
        parent = rec[PARENT]
        nested[i] = parent >= 0 and (tr.spans[parent][NAME] == "dynamics.ct_integrate" or nested[parent])
    m["dynamics.ct_integrate.post_s"] = (
        sum(r[END] - r[START] for i, r, _ in groups["dynamics.ct_integrate"] if not nested[i])
        - sum(r[END] - r[START] for i, r, _ in groups["dynamics.ct_loop"] if nested[i])
    ) / 1e9
    m["dynamics.dt_trajectory.us_per_step"] = _ratio(
        span_ns("dynamics.dt_trajectory") / 1e3, attr_sum("dynamics.dt_trajectory", "steps")
    )
    m["dynamics.ct_gradient.us_per_call"] = timed("dynamics.ct_gradient", 1e-3)
    m["dynamics.validate_declared.self_s"] = self_s("dynamics.validate_declared")

    m["expr.compile_expression.us_per_call"] = per_call("expr.compile_expression", 1e-3)

    name = "analysis.estimate_contraction"
    points = sum((r[ATTRS]["resolution"] + 1) ** 2 for _, r, _ in groups[name])
    evals = sum(r[RHS] for _, r, _ in groups[name])
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.ns_per_point"] = _ratio(self_s(name) * 1e9, points)
    m[f"{name}.fn_evals"] = evals
    m[f"{name}.evals_per_point"] = _ratio(evals, points)
    name = "analysis.check_status_quo_bias"
    m[f"{name}.self_s"] = self_s(name)
    # each checked point evaluates f1 and f0 once
    m[f"{name}.points_checked"] = sum(r[RHS] for _, r, _ in groups[name]) // 2
    name = "analysis.find_equilibria"
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.map_evals"] = sum(r[MAP] for _, r, _ in groups[name])
    name = "analysis.theorem4_limits"
    t4 = {i for i, _, _ in groups[name]}
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.trajectories"] = sum(
        1 for _, r, _ in groups["dynamics.ct_integrate"] if r[PARENT] in t4
    )

    m["policy.policy_entries.ns_per_call"] = timed("policy.policy_entries", 1)
    m["policy.aa_policy.us_per_call"] = per_call("policy.aa_policy", 1e-3)
    m["policy.lp_oracle.us_per_call"] = per_call("policy.lp_oracle", 1e-3)
    m["core.utility.ns_per_call"] = timed("core.utility", 1)

    name = "stereotype.stereotype_trajectory"
    m[f"{name}.us_per_step"] = _ratio(span_ns(name) / 1e3, attr_sum(name, "steps"))
    m["stereotype.effective_policy.us_per_call"] = timed("stereotype.effective_policy", 1e-3)

    m["scenario.from_text.us_per_call"] = per_call("scenario.from_text", 1e-3)
    name = "scenario.export_field"
    m[f"{name}.self_s"] = self_s(name)
    m[f"{name}.ns_per_point"] = _ratio(
        span_ns(name), sum(r[ATTRS]["resolution"] ** 2 for _, r, _ in groups[name])
    )
    for kind in ("trajectory", "field", "compare"):
        name = f"scenario.write_{kind}_csv"
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.bytes"] = attr_sum(name, "bytes")
    m["scenario.write_analysis_report.self_s"] = self_s("scenario.write_analysis_report")

    m["cli.exit_nonzero"] = sum(1 for _, r, _ in groups["cli.main"] if r[ATTRS]["code"] != 0)
    return m
