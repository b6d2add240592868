"""Spans around fastslow's public functions, recorded from outside the package.

:func:`installed` replaces each traced function at every place it is bound:
its defining module, each ``fastslow`` module that imported it by name
(``experiments`` imports ``pooled_stationary_samples``, ``fluctuations``
imports ``first_passage_block``, the package re-exports most of them) and
the class for methods. The originals are put back on exit.

A span records name, start, end, its parent span and a few counts computed
from the call's arguments and return value. High-rate leaf calls (stream
builds, ``normals``, ``guarded_rates``) are not spans: they are summed per
parent span into a call count, a work count and a total time. Spans are kept
in memory and written out when the run ends.

A span's self time is its duration minus the part covered by its child
spans and minus its leaf time.
"""

from __future__ import annotations

import math
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from fastslow import ensemble, experiments, fluctuations, jump, rng, schemes, sde

_now = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "attrs", "leaves")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}
        self.leaves = {}     # leaf name -> [work counts..., seconds]

    def as_dict(self, t0):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "start": self.start - t0, "end": self.end - t0,
                "attrs": self.attrs, "leaves": self.leaves}


class Tracer:
    """In-memory span store; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.t0 = _now()
        self.spans = []
        self.tasks = []          # executor tasks: (submit, start, end)
        self.missing = []        # traced names the program no longer has
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root = self.begin("trace")

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else self.root

    def begin(self, name, parent=None):
        if parent is None and self.spans:
            parent = self.current()
        with self._lock:
            span = Span(len(self.spans), name, _now(),
                        None if parent is None else parent.sid)
            self.spans.append(span)
        self._stack().append(span)
        return span

    def end(self, span):
        span.end = _now()
        self._stack().pop()

    def leaf(self, name, work, seconds):
        """Add one call with its work counts and time to the current span."""
        leaves = self.current().leaves
        rec = leaves.get(name)
        if rec is None:
            rec = leaves[name] = [0.0] * (len(work) + 1)
        for i, w in enumerate(work):
            rec[i] += w
        rec[-1] += seconds

    def close(self):
        self.root.end = _now()

    def dump(self):
        return [s.as_dict(self.t0) for s in self.spans if s.end is not None]


# ---------------------------------------------------------------------------
# wrappers


def _rows(x) -> int:
    shape = np.shape(x)
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


def _span_wrapper(tracer, name, fn, annotate=None):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if annotate is not None:
            try:
                annotate(span.attrs, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError,
                    ValueError) as err:   # a changed signature loses counts
                span.attrs["annotate_error"] = f"{type(err).__name__}: {err}"
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _burst_attrs(attrs, args, kwargs, result):
    rows = int(np.shape(args[1])[0])
    attrs["rows"] = rows
    attrs["micro_steps"] = rows * int(_arg(args, kwargs, 4, "m_count"))


def _direct_samples_attrs(attrs, args, kwargs, result):
    cfg = args[1]
    h = cfg.eps * cfg.micro_dt
    record_dt = _arg(args, kwargs, 7, "record_dt") or cfg.macro_dt
    stride = max(1, round(record_dt / h))
    rec = result[1]
    attrs["chain_steps"] = (rec.shape[0] - 1) * stride * rec.shape[1]


def _passage_block_attrs(attrs, args, kwargs, result):
    scheme, cfg = args[1], args[2]
    t_cap = float(_arg(args, kwargs, 5, "t_cap"))
    elapsed, censored = result
    attrs.update(scheme=scheme, width=int(elapsed.size),
                 sum_elapsed=float(elapsed.sum()),
                 max_elapsed=float(elapsed.max()),
                 censored=int(censored.sum()))
    if scheme == "direct":
        # lanes step in chunks of 512 and leave at the end of the chunk in
        # which they crossed; censored lanes run to the cap
        h = cfg.eps * cfg.micro_dt
        n_cap = math.ceil(t_cap / h)
        steps = np.minimum(np.ceil(np.round(elapsed / h) / 512) * 512, n_cap)
        attrs["chain_steps"] = int(steps.sum())


def _experiment_attrs(attrs, args, kwargs, result):
    attrs["config"] = kwargs.get("name")


def _run_scheme_attrs(attrs, args, kwargs, result):
    attrs["scheme"] = args[1]


def _micro_burst_attrs(attrs, args, kwargs, result):
    attrs["micro_steps"] = int(args[3].micro_count)


def _direct_integrate_attrs(attrs, args, kwargs, result):
    h, t_end = float(args[4]), float(args[5])
    attrs["steps"] = math.ceil(t_end / h)


def _jump_attrs(attrs, args, kwargs, result):
    attrs["runs"] = int(np.size(result) // max(1, np.shape(result)[-1]))


def _tau_attrs(attrs, args, kwargs, result):
    _jump_attrs(attrs, args, kwargs, result)
    t_end, tau = float(args[2]), float(args[3])
    attrs["run_windows"] = attrs["runs"] * math.ceil(t_end / tau)


# (module, attribute, span name, annotate); every binding of the same
# function object inside fastslow is replaced too
SPANS = [
    (experiments, "run_experiment", "experiments.run_experiment",
     _experiment_attrs),
    (experiments, "parse_config", "experiments.parse_config", None),
    (experiments, "_write_table", "experiments.write_csv", None),
    (fluctuations, "histogram_of_samples", "experiments.analysis", None),
    (fluctuations, "ks_distance", "experiments.analysis", None),
    (fluctuations, "fit_log_mfpt_inverse_lambda", "experiments.analysis",
     None),
    (ensemble, "pooled_stationary_samples",
     "ensemble.pooled_stationary_samples", None),
    (ensemble, "scheme_samples", "ensemble.scheme_samples", None),
    (ensemble, "direct_samples", "ensemble.direct_samples",
     _direct_samples_attrs),
    (ensemble, "burst_batch", "ensemble.burst_batch", _burst_attrs),
    (ensemble, "first_passage_block", "ensemble.first_passage_block",
     _passage_block_attrs),
    (fluctuations, "mean_first_passage_vs_lambda",
     "fluctuations.mean_first_passage_vs_lambda", None),
    (fluctuations, "first_passage_times", "fluctuations.first_passage_times",
     None),
    (schemes, "run_scheme", "schemes.run_scheme", _run_scheme_attrs),
    (schemes, "hmm_step", "schemes.hmm_step", None),
    (schemes, "phmm_step", "schemes.phmm_step", None),
    (schemes, "hmm_micro_burst", "schemes.hmm_micro_burst",
     _micro_burst_attrs),
    (sde, "direct_integrate", "sde.direct_integrate",
     _direct_integrate_attrs),
    (jump, "ssa_final_states", "jump.ssa_final_states", _jump_attrs),
    (jump, "tau_leap_final_states", "jump.tau_leap_final_states",
     _tau_attrs),
]


def _bindings(fn):
    """Every (module, name) inside fastslow bound to ``fn``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fastslow"
                               or mod_name.startswith("fastslow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def _leaf_wrappers(tracer):
    """Replacements for the high-rate leaves, keyed by (class, attribute).

    ``RngStream.normals`` builds the stream's generator itself before the
    original runs, so a stream build inside it is counted once, with the
    draw, and the generator property stays on its fast path.
    """
    gen_prop = rng.RngStream.generator
    normals = rng.RngStream.normals
    rates = jump.JumpModel.guarded_rates

    def generator(self):
        if self._gen is not None:
            return self._gen
        start = _now()
        gen = gen_prop.fget(self)
        tracer.leaf("rng", (1, 0), _now() - start)
        return gen

    def normals_wrapper(self, shape):
        start = _now()
        built = self._gen is None
        if built:
            gen_prop.fget(self)
        out = normals(self, shape)
        tracer.leaf("rng", (int(built), out.size), _now() - start)
        return out

    def rates_wrapper(self, x):
        start = _now()
        out = rates(self, x)
        tracer.leaf("jump.guarded_rates", (_rows(x),), _now() - start)
        return out

    return {(rng.RngStream, "generator"): property(generator),
            (rng.RngStream, "normals"): normals_wrapper,
            (jump.JumpModel, "guarded_rates"): rates_wrapper}


@contextmanager
def installed(tracer: Tracer):
    """Trace every function in :data:`SPANS` and the leaves until exit."""
    restore = []
    for (owner, attr), replacement in _leaf_wrappers(tracer).items():
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)
    for module, attr, name, annotate in SPANS:
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            continue
        wrapper = _span_wrapper(tracer, name, fn, annotate)
        for mod, bound in list(_bindings(fn)):
            restore.append((mod, bound, fn))
            setattr(mod, bound, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


class TracedExecutor(ThreadPoolExecutor):
    """A thread pool that records, per task, when it was submitted, started
    and finished, and runs it inside an ``executor.task`` span whose parent
    is the span that submitted it."""

    def __init__(self, max_workers, tracer: Tracer):
        super().__init__(max_workers=max_workers)
        self.tracer = tracer

    def submit(self, fn, /, *args, **kwargs):
        submitted = _now()
        parent = self.tracer.current()

        def task():
            span = self.tracer.begin("executor.task", parent=parent)
            try:
                return fn(*args, **kwargs)
            finally:
                self.tracer.end(span)
                self.tracer.tasks.append((submitted, span.start, span.end))

        return super().submit(task)


# ---------------------------------------------------------------------------
# layer metrics


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children and its leaves."""
    children = {}
    for s in spans:
        if s.parent is not None and s.end is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        if s.end is None:
            continue
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        covered += sum(rec[-1] for rec in s.leaves.values())
        out[s.sid] = max(0.0, (s.end - s.start) - covered)
    return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, analyses: dict, n_passes: int,
                  pass_wall: float, workers: int) -> dict:
    """Per-pass layer metrics from the spans of ``n_passes`` traced passes.

    ``analyses`` maps config name -> analysis, for the per-task times;
    ``pass_wall`` is the summed wall time of those passes.
    """
    spans = [s for s in tracer.spans if s.end is not None]
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, key=None, where=None, self_time=False):
        acc = 0.0
        for s in by_name.get(name, ()):
            if where is not None and not where(s):
                continue
            if key is not None:
                acc += s.attrs.get(key, 0)
            elif self_time:
                acc += own[s.sid]
            else:
                acc += s.end - s.start
        return acc

    def leaf(name, field, where=None):
        return sum(s.leaves[name][field] for s in spans
                   if name in s.leaves and (where is None or where(s)))

    m = {}
    streams, normals, rng_s = (leaf("rng", i) for i in range(3))
    m["rng.streams"] = streams
    m["rng.normals"] = normals
    m["rng.self_s"] = rng_s
    m["rng.us_per_stream"] = _ratio(rng_s, streams, 1e6)

    micro = total("ensemble.burst_batch", "micro_steps")
    burst_self = total("ensemble.burst_batch", self_time=True)
    m["ensemble.burst_rows"] = total("ensemble.burst_batch", "rows")
    m["ensemble.micro_steps"] = micro
    m["ensemble.burst_self_s"] = burst_self
    m["ensemble.ns_per_micro_step"] = _ratio(burst_self, micro, 1e9)

    def direct_block(s):
        return s.attrs.get("scheme") == "direct"

    chain_steps = (total("ensemble.direct_samples", "chain_steps")
                   + total("ensemble.first_passage_block", "chain_steps",
                           direct_block))
    direct_self = (total("ensemble.direct_samples", self_time=True)
                   + total("ensemble.first_passage_block", self_time=True,
                           where=direct_block))
    m["ensemble.direct_chain_steps"] = chain_steps
    m["ensemble.direct_self_s"] = direct_self
    m["ensemble.direct_ns_per_chain_step"] = _ratio(direct_self, chain_steps,
                                                    1e9)

    blocks = by_name.get("ensemble.first_passage_block", [])
    lane_steps = sum(s.attrs["width"] * s.attrs["max_elapsed"] for s in blocks)
    # fixed-horizon lanes all run to the end: occupancy 1 without passages
    m["ensemble.lane_occupancy"] = (
        sum(s.attrs["sum_elapsed"] for s in blocks) / lane_steps
        if lane_steps else 1.0)
    block_s = [s.end - s.start for s in blocks]
    m["fluctuations.passage_samples"] = sum(s.attrs["width"] for s in blocks)
    m["fluctuations.censored"] = sum(s.attrs["censored"] for s in blocks)
    m["fluctuations.block_s.median"] = (statistics.median(block_s)
                                        if block_s else 0.0)
    m["fluctuations.block_s.max"] = max(block_s, default=0.0)

    busy = sum(end - start for _, start, end in tracer.tasks)
    m["executor.tasks"] = len(tracer.tasks)
    m["executor.busy_s"] = busy
    m["executor.queue_wait_s"] = sum(start - sub
                                     for sub, start, _ in tracer.tasks)
    m["executor.utilization"] = _ratio(busy, workers * pass_wall)

    m["experiments.self_s"] = total("experiments.run_experiment",
                                    self_time=True)
    # every analysis a workload runs (no workload runs quasipotential)
    for analysis in sorted(set(experiments.ANALYSES) - {"quasipotential"}):
        m[f"experiments.task_s.{analysis}"] = total(
            "experiments.run_experiment",
            where=lambda s, a=analysis: analyses.get(s.attrs.get("config"))
            == a)

    macro = len(by_name.get("schemes.hmm_step", ())) + len(
        by_name.get("schemes.phmm_step", ()))
    s_micro = total("schemes.hmm_micro_burst", "micro_steps")
    m["schemes.macro_steps"] = macro
    m["schemes.micro_steps"] = s_micro
    m["schemes.ns_per_micro_step"] = _ratio(
        total("schemes.hmm_micro_burst", self_time=True), s_micro, 1e9)
    d_steps = total("sde.direct_integrate", "steps")
    m["sde.direct_steps"] = d_steps
    m["sde.ns_per_step"] = _ratio(total("sde.direct_integrate",
                                        self_time=True), d_steps, 1e9)

    ssa_s = total("jump.ssa_final_states")
    tau_s = total("jump.tau_leap_final_states")
    events = leaf("jump.guarded_rates", 0,
                  lambda s: s.name == "jump.ssa_final_states")
    windows = total("jump.tau_leap_final_states", "run_windows")
    m["jump.ssa_s"] = ssa_s
    m["jump.ssa_events"] = events
    m["jump.ns_per_ssa_event"] = _ratio(ssa_s, events, 1e9)
    m["jump.tau_s"] = tau_s
    m["jump.tau_run_windows"] = windows
    m["jump.us_per_tau_run_window"] = _ratio(tau_s, windows, 1e6)
    m["jump.rate_eval_s"] = leaf("jump.guarded_rates", 1)

    # per pass; the ratios are already per unit of work
    per_pass = {k: v / n_passes for k, v in m.items()
                if not any(t in k for t in ("_per_", "occupancy",
                                            "utilization", "block_s"))}
    m.update(per_pass)
    return m
