"""Spans around the public functions of every thetarel module, from outside.

``install`` wraps each function listed in a module's ``__all__`` and
rebinds every name in the ``thetarel`` module namespaces that refers to
it, so calls between modules (``cli`` -> ``relations.verify``) and
inside one (``relations.rhs_value`` -> ``relations.build_relation``) go
through the wrapper.  Two class entry points are wrapped as well: the
``PeriodMatrix`` constructor and ``Characteristic.parse``.

A span is ``[name, start_ns, end_ns, parent, op, error]``, kept in
memory; a call nested directly inside a span of the same name (the
recursion of ``render.dumps``) records no span of its own.  The
untraced run never calls ``install``, so it carries no wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import Callable, Sequence

from reference import box_points

MODULES = ("charalg", "transforms", "theta", "relations", "identities", "render", "cli")
# (module, class, attribute, span name)
CLASS_HOOKS = (
    ("theta", "PeriodMatrix", "__init__", "theta.PeriodMatrix"),
    ("charalg", "Characteristic", "parse", "charalg.Characteristic.parse"),
)
# The evaluator's radius search starts at 4 and steps by 2 (theta.theta).
RADIUS_START, RADIUS_STEP = 4, 2


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_theta(counts, args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    radius = result.truncation_radius
    counts["theta.box_points"] += box_points(mu.top, radius)
    counts["theta.radius_sum"] += radius
    counts["theta.radius_max"] = max(counts["theta.radius_max"], radius)
    counts["theta.radius_steps"] += 1 + max(0, -(-(radius - RADIUS_START) // RADIUS_STEP))


OBSERVERS = {
    "theta.theta": _observe_theta,
    "relations.build_relation": lambda c, a, k, r: c.update({"relations.build_relation.terms": len(r)}),
    "relations.verify": lambda c, a, k, r: c.update({"relations.verify.trials": len(r)}),
    "render.dumps": lambda c, a, k, r: c.update({"render.dumps.bytes": len(r.encode())}),
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap and rebind; returns a function that restores every binding."""
    originals = {}      # id(original) -> (original, wrapper)
    for short in MODULES:
        mod = importlib.import_module(f"thetarel.{short}")
        for fname in mod.__all__:
            fn = getattr(mod, fname)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{fname}"
                originals[id(fn)] = (fn, tracer.wrap(name, fn, OBSERVERS.get(name)))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "thetarel" and not modname.startswith("thetarel."):
            continue
        for key, value in list(vars(mod).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, key, entry[1])
                undo.append((mod, key, value))
    for short, cls_name, attr, name in CLASS_HOOKS:
        cls = getattr(importlib.import_module(f"thetarel.{short}"), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))
        undo.append((cls, attr, raw))

    def uninstall():
        for target, key, value in reversed(undo):
            setattr(target, key, value)

    return uninstall


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are merged as intervals clipped to the parent, so
    overlapping or overhanging children are not subtracted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    result = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cur_start, cur_end = 0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append(end - start - covered)
    return result


def _has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(tracer: Tracer, n_ops: int, probe: dict | None,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per op of the traced pass unless the unit
    says otherwise.  ``probe`` is theta-eval's known-defect summary
    (``ThetaEvalWorkload.probe_known_defect``); without one, its two
    metrics read 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, busy, self_ns = Counter(), Counter(), Counter()
    truncations = verify_attempts = 0
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] += 1
        self_ns[name] += selfs[i]
        if not _has_ancestor(spans, i, name):
            busy[name] += span[2] - span[1]
        if name == "theta.theta" and span[5] == "TruncationError":
            truncations += 1
        if name == "relations.lhs_value" and _has_ancestor(spans, i, "relations.verify"):
            verify_attempts += 1
    c = tracer.counts
    # Ratios over zero calls or trials read 0.
    per_op = 1.0 / max(n_ops, 1)
    per_call = 1.0 / max(calls["theta.theta"], 1)
    per_trial = 1.0 / max(c["relations.verify.trials"], 1)

    def ms(counter, name):
        return counter[name] / 1e6 * per_op

    return {
        "theta.theta.calls": (calls["theta.theta"] * per_op, "count/op"),
        "theta.theta.busy_ms": (ms(busy, "theta.theta"), "ms/op"),
        "theta.theta.us_per_call": (busy["theta.theta"] / 1e3 * per_call, "us"),
        "theta.box_points": (c["theta.box_points"] * per_op, "count/op"),
        "theta.radius.mean": (c["theta.radius_sum"] * per_call, "count"),
        "theta.radius.max": (float(c["theta.radius_max"]), "count"),
        "theta.radius_steps": (c["theta.radius_steps"] * per_call, "count/call"),
        "theta.PeriodMatrix.busy_ms": (ms(busy, "theta.PeriodMatrix"), "ms/op"),
        "theta.truncation_errors": (truncations * per_op, "count/op"),
        "theta.bound_violations": (probe["failed_share"] if probe else 0.0, "count/draw"),
        "theta.max_error_over_bound": (probe["max_error_over_bound"] if probe else 0.0, "ratio"),
        "relations.build_relation.calls": (calls["relations.build_relation"] * per_op, "count/op"),
        "relations.build_relation.busy_ms": (ms(busy, "relations.build_relation"), "ms/op"),
        "relations.build_relation.terms": (c["relations.build_relation.terms"] * per_op, "count/op"),
        "relations.rhs_value.self_ms": (ms(self_ns, "relations.rhs_value"), "ms/op"),
        "relations.lhs_value.self_ms": (ms(self_ns, "relations.lhs_value"), "ms/op"),
        "relations.verify.self_ms": (ms(self_ns, "relations.verify"), "ms/op"),
        "relations.verify.attempts_per_trial": (verify_attempts * per_trial, "ratio"),
        "relations.relation_report.busy_ms": (ms(busy, "relations.relation_report"), "ms/op"),
        "transforms.smith_matrix.calls": (calls["transforms.smith_matrix"] * per_op, "count/op"),
        "transforms.smith_matrix.busy_ms": (ms(busy, "transforms.smith_matrix"), "ms/op"),
        "transforms.apply_to_chars.busy_ms": (ms(busy, "transforms.apply_to_chars"), "ms/op"),
        "transforms.apply_to_args.busy_ms": (ms(busy, "transforms.apply_to_args"), "ms/op"),
        "charalg.Characteristic.parse.calls": (calls["charalg.Characteristic.parse"] * per_op, "count/op"),
        "charalg.Characteristic.parse.busy_ms": (ms(busy, "charalg.Characteristic.parse"), "ms/op"),
        "render.dumps.busy_ms": (ms(busy, "render.dumps"), "ms/op"),
        "render.dumps.bytes": (c["render.dumps.bytes"] * per_op, "B/op"),
        "render.relation_to_latex.busy_ms": (ms(busy, "render.relation_to_latex"), "ms/op"),
        "render.terms_to_text.busy_ms": (ms(busy, "render.terms_to_text"), "ms/op"),
        "render.parse_terms_json.busy_ms": (ms(busy, "render.parse_terms_json"), "ms/op"),
        "identities.run_suite.self_ms": (ms(self_ns, "identities.run_suite"), "ms/op"),
        "cli.main.self_ms": (ms(self_ns, "cli.main"), "ms/op"),
        "trace.overhead": (overhead, "ratio"),
    }
