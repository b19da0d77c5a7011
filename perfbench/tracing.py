"""Span tracing for the traced benchmark run, and the per-layer metrics.

``install`` replaces the layer entry points at every ``pidmov`` module-level
name that refers to them (and the two response methods of
``DiscreteTransferFunction``) with wrappers that record one span per call:
a name, a start, an end, the enclosing span, two numeric attributes and a
flag word. The callables returned by the objective factories are wrapped
too, so each objective evaluation is a span. Spans stay in memory, in flat
arrays, until ``save`` writes them out.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

import pidmov
from pidmov.lti import DiscreteTransferFunction
from pidmov.singleloop import SingleLoopProblem
from pidmov.tlbo import DIVERGENCE_SENTINEL

# Flag bits recorded at the boundary where the outcome is known.
DIVERGED, NAN, UNSTABLE, WINDOW_STOP = 1, 2, 4, 8


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.a = array("d")
        self.b = array("d")
        self.flag = array("i")
        self._stack = [-1]

    def open(self, name: str, a: float = 0.0, b: float = 0.0) -> int:
        i = len(self.name)
        self.name.append(self.names.setdefault(name, len(self.names)))
        self.parent.append(self._stack[-1])
        self.a.append(a)
        self.b.append(b)
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, flag: int = 0, a: float | None = None, b: float | None = None):
        self.end[i] = perf_counter()
        self._stack.pop()
        if flag:
            self.flag[i] = flag
        if a is not None:
            self.a[i] = a
        if b is not None:
            self.b[i] = b

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(list(self.names), dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            a=np.frombuffer(self.a),
            b=np.frombuffer(self.b),
            flag=np.frombuffer(self.flag, dtype=np.int32),
        )


class _TracedObjective:
    """An objective whose every evaluation is a span; other attributes
    (such as ``evaluations``) read through to the wrapped objective."""

    def __init__(self, inner, tracer: Tracer, name: str, a: float):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self._a = a

    def __call__(self, k):
        i = self._tracer.open(self._name, self._a)
        try:
            v = self._inner(k)
        except BaseException:
            self._tracer.close(i)
            raise
        self._tracer.close(i, DIVERGED if v >= DIVERGENCE_SENTINEL else NAN if v != v else 0)
        return v

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def span_cost(calls: int = 5000, blocks: int = 5) -> float:
    """Seconds an objective-evaluation span adds to its parent span: the
    wrapper's time outside the span it records. Median over ``blocks``
    timings of ``calls`` evaluations of a wrapped no-op, on a scratch tracer."""
    tracer = Tracer()
    wrapped = _TracedObjective(lambda k: 0.0, tracer, "noop", 0.0)
    k = np.zeros(3)
    costs = []
    for _ in range(blocks):
        first = len(tracer.start)
        t0 = perf_counter()
        for _ in range(calls):
            wrapped(k)
        total = perf_counter() - t0
        inside = sum(tracer.end[first:]) - sum(tracer.start[first:])
        costs.append((total - inside) / calls)
    return float(np.median(costs))


def _span(tracer, name, fn, attrs=None, outcome=None):
    """Wrap ``fn`` in a span; ``attrs(*args)`` gives (a, b) at entry and
    ``outcome(result)`` gives (flag, a, b) at exit."""

    def wrapper(*args, **kwargs):
        i = tracer.open(name, *(attrs(*args) if attrs else ()))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(i)
            raise
        if outcome is None:
            tracer.close(i)
        else:
            flag, a, b = outcome(result)
            tracer.close(i, flag, a, b)
        return result

    return wrapper


def _objective_factory(tracer, layer, fn):
    def factory(problem, *args, **kwargs):
        p = problem.truncation
        i = tracer.open(f"{layer}.build", p)
        try:
            inner = fn(problem, *args, **kwargs)
        finally:
            tracer.close(i)
        return _TracedObjective(inner, tracer, f"{layer}.eval", p)

    return factory


def _tuning_factory(tracer, fn):
    def factory(problem, *args, **kwargs):
        kind = 0 if isinstance(problem.loop, SingleLoopProblem) else 1
        return _TracedObjective(fn(problem, *args, **kwargs), tracer, "tuning.eval", kind)

    return factory


def install(tracer: Tracer):
    """Wrap the layer entry points; returns a function that undoes it."""
    tf = DiscreteTransferFunction
    originals = {
        "cpa_objective": pidmov.cpa_objective,
        "cascade_objective": pidmov.cascade_objective,
        "tuning_objective": pidmov.tuning_objective,
        "minimize": pidmov.minimize,
        "simulate_step": pidmov.simulate_step,
        "mc_variance_single": pidmov.mc_variance_single,
        "mc_variance_cascade": pidmov.mc_variance_cascade,
    }
    wrappers = {
        "cpa_objective": _objective_factory(tracer, "singleloop", originals["cpa_objective"]),
        "cascade_objective": _objective_factory(tracer, "cascade", originals["cascade_objective"]),
        "tuning_objective": _tuning_factory(tracer, originals["tuning_objective"]),
        "minimize": _span(
            tracer, "tlbo.minimize", originals["minimize"],
            outcome=lambda r: (WINDOW_STOP if r.terminated_by_window else 0,
                               r.evaluations, r.iterations)),
        "simulate_step": _span(
            tracer, "tuning.simulate_step", originals["simulate_step"],
            attrs=lambda problem, params: (
                0 if isinstance(problem.loop, SingleLoopProblem) else 1, 0),
            outcome=lambda rec: (0 if rec.stable else UNSTABLE, None, None)),
        "mc_variance_single": _span(
            tracer, "mc.single", originals["mc_variance_single"],
            attrs=lambda problem, k, cfg: (cfg.samples, 0)),
        "mc_variance_cascade": _span(
            tracer, "mc.cascade", originals["mc_variance_cascade"],
            attrs=lambda problem, k, cfg: (cfg.samples, 0)),
    }
    patched = []
    for mod in [m for n, m in sys.modules.items() if n == "pidmov" or n.startswith("pidmov.")]:
        for attr, orig in originals.items():
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrappers[attr])
                patched.append((mod, attr, orig))
    methods = {m: getattr(tf, m) for m in ("impulse_response", "step_response")}
    for m, orig in methods.items():
        setattr(tf, m, _span(tracer, f"lti.{m}", orig, attrs=lambda self, n: (n, 0)))

    def uninstall():
        for mod, attr, orig in patched:
            setattr(mod, attr, orig)
        for m, orig in methods.items():
            setattr(tf, m, orig)

    return uninstall


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("lti.response_calls", "count"),
    ("lti.response_s", "s"),
    ("singleloop.build_s", "s"),
    ("singleloop.evals", "count"),
    ("singleloop.busy_s", "s"),
    ("singleloop.eval_us.p_le48", "us"),
    ("singleloop.eval_us.p_ge96", "us"),
    ("singleloop.diverged_frac", "frac"),
    ("singleloop.nan_evals", "count"),
    ("cascade.build_s", "s"),
    ("cascade.evals", "count"),
    ("cascade.busy_s", "s"),
    ("cascade.eval_us", "us"),
    ("cascade.diverged_frac", "frac"),
    ("tlbo.runs", "count"),
    ("tlbo.phases", "count"),
    ("tlbo.evals", "count"),
    ("tlbo.self_s", "s"),
    ("tlbo.self_us_per_eval", "us"),
    ("tlbo.window_stop_frac", "frac"),
    ("tuning.sims", "count"),
    ("tuning.sim_us.single", "us"),
    ("tuning.sim_us.cascade", "us"),
    ("tuning.busy_s", "s"),
    ("tuning.unstable_frac", "frac"),
    ("mc.samples", "count"),
    ("mc.busy_s", "s"),
    ("mc.ns_per_sample.single", "ns"),
    ("mc.ns_per_sample.cascade", "ns"),
    ("reports.to_json_s", "s"),
    ("reports.bytes", "B"),
    ("trace.span_us", "us"),
    ("trace.overhead_frac", "frac"),
]


def layer_metrics(tracer: Tracer, passes: int, span_s: float) -> dict[str, float]:
    """Per-layer metrics over every recorded span, from ``passes`` passes.

    Counts, busy times and bytes are per pass; ``*_us``/``*_ns`` are the
    median (evaluations, simulations) or mean (Monte-Carlo samples) cost of
    one unit; ``*_frac`` are ratios over the layer's own work. A layer that
    did no work reads 0. A layer's busy time counts nested spans of the same
    layer once. ``span_s`` is the tracer's cost per span outside it (see
    ``span_cost``); it is taken out of the TLBO self time once per child.
    """
    ids = np.frombuffer(tracer.name, dtype=np.int32)
    name = np.array(list(tracer.names), dtype=object)[ids]
    layer = np.array([n.split(".")[0] for n in tracer.names], dtype=object)[ids]
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    a = np.frombuffer(tracer.a)
    b = np.frombuffer(tracer.b)
    flag = np.frombuffer(tracer.flag, dtype=np.int32)
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], "")
    child_s = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    children = np.bincount(parent[parent >= 0], minlength=len(dur))
    top = parent_layer != layer

    def per_pass(x):
        return float(np.sum(x)) / passes

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    def median_us(mask):
        return float(np.median(dur[mask])) * 1e6 if mask.any() else 0.0

    sl = name == "singleloop.eval"
    cs = name == "cascade.eval"
    tl = name == "tlbo.minimize"
    sim = name == "tuning.simulate_step"
    mcs = name == "mc.single"
    mcc = name == "mc.cascade"
    rep = name == "reports.to_json"
    tlbo_self = per_pass(dur[tl] - child_s[tl] - children[tl] * span_s)
    tlbo_evals = per_pass(a[tl])
    return {
        "lti.response_calls": per_pass(layer == "lti"),
        "lti.response_s": per_pass(dur[top & (layer == "lti")]),
        "singleloop.build_s": per_pass(dur[name == "singleloop.build"]),
        "singleloop.evals": per_pass(sl),
        "singleloop.busy_s": per_pass(dur[sl]),
        "singleloop.eval_us.p_le48": median_us(sl & (a <= 48)),
        "singleloop.eval_us.p_ge96": median_us(sl & (a >= 96)),
        "singleloop.diverged_frac": ratio(np.sum(sl & (flag & DIVERGED > 0)), np.sum(sl)),
        "singleloop.nan_evals": per_pass(sl & (flag & NAN > 0)),
        "cascade.build_s": per_pass(dur[name == "cascade.build"]),
        "cascade.evals": per_pass(cs),
        "cascade.busy_s": per_pass(dur[cs]),
        "cascade.eval_us": median_us(cs),
        "cascade.diverged_frac": ratio(np.sum(cs & (flag & DIVERGED > 0)), np.sum(cs)),
        "tlbo.runs": per_pass(tl),
        "tlbo.phases": per_pass(b[tl]),
        "tlbo.evals": tlbo_evals,
        "tlbo.self_s": tlbo_self,
        "tlbo.self_us_per_eval": ratio(tlbo_self * 1e6, tlbo_evals),
        "tlbo.window_stop_frac": ratio(np.sum(tl & (flag & WINDOW_STOP > 0)), np.sum(tl)),
        "tuning.sims": per_pass(sim),
        "tuning.sim_us.single": median_us(sim & (a == 0)),
        "tuning.sim_us.cascade": median_us(sim & (a == 1)),
        "tuning.busy_s": per_pass(dur[top & (layer == "tuning")]),
        "tuning.unstable_frac": ratio(np.sum(sim & (flag & UNSTABLE > 0)), np.sum(sim)),
        "mc.samples": per_pass(a[mcs | mcc]),
        "mc.busy_s": per_pass(dur[mcs | mcc]),
        "mc.ns_per_sample.single": ratio(np.sum(dur[mcs]) * 1e9, np.sum(a[mcs])),
        "mc.ns_per_sample.cascade": ratio(np.sum(dur[mcc]) * 1e9, np.sum(a[mcc])),
        "reports.to_json_s": per_pass(dur[rep]),
        "reports.bytes": per_pass(a[rep]),
        "trace.span_us": span_s * 1e6,
    }
