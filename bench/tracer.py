"""In-memory span recorder for the traced benchmark run.

While a traced run is active, the module attributes through which an upper
layer of graphlimits reaches a lower one (for example
``graphlimits.limits.sample_uniform_graph``) are replaced by wrappers that
record one span per call: name, start, end, parent span and batch.  Spans
stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the time of its direct children.
The tracer's own bookkeeping for a child (span records and counters) is
charged to the child, so it never inflates a parent's self time; it shows
up in the traced-minus-untraced overhead instead.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.batch = -1
        self.enabled = True
        self.last_graph = None
        self.calls = Counter()             # (batch, span name) -> calls
        self.busy = defaultdict(float)     # (batch, span name) -> seconds
        self.self_s = defaultdict(float)   # (batch, span name) -> seconds
        self.root_s = defaultdict(float)   # batch -> seconds in top-level spans
        self.counts = Counter()            # (batch, counter name) -> count
        self.distinct = defaultdict(set)   # batch -> distinct evaluated (param, graph)
        self.pmap_calls = defaultdict(list)  # batch -> (fn, count, workers, result, seconds)
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("q")
        self._batch = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []                   # open spans: [span id, child seconds]
        self._patched = []
        # pool workers forked mid-span inherit the wrappers; their spans
        # could never reach this process, so they record nothing
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def call(self, name, fn, *args, **kwargs):
        return self._run(name, fn, None, args, kwargs)

    def _run(self, name, fn, after, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        enter = perf_counter()
        stack = self._stack
        sid = len(self._end)
        self._name.append(self._name_ids.setdefault(name, len(self._name_ids)))
        self._parent.append(stack[-1][0] if stack else -1)
        self._batch.append(self.batch)
        self._start.append(0.0)
        self._end.append(0.0)
        frame = [sid, 0.0]
        stack.append(frame)
        try:
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._start[sid] = start
                self._end[sid] = end
                key = (self.batch, name)
                self.calls[key] += 1
                self.busy[key] += end - start
                self.self_s[key] += end - start - frame[1]
                if not stack:
                    self.root_s[self.batch] += end - start
            if after is not None:
                after(result, args, kwargs, end - start)
            return result
        finally:
            if stack:
                stack[-1][1] += perf_counter() - enter

    def count(self, name: str, amount: int):
        self.counts[(self.batch, name)] += amount

    # -- wrapping -----------------------------------------------------------

    def patch(self, module, attr: str, name: str, after=None):
        """Route calls of ``module.attr`` through a span named ``name``;
        ``after(result, args, kwargs, seconds)`` runs outside the span."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self._run(name, original, after, args, kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unpatch(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def parameter(self, param, q: int | None):
        """Copy of a GraphParameter whose ``evaluate`` records a
        ``graphs.evaluate`` span; ``q`` is the spin-state count of a spin
        parameter, used to count the states its evaluation enumerates."""
        from graphlimits import GraphParameter

        def after(result, args, kwargs, seconds):
            g = args[0]
            self.last_graph = g
            self.distinct[self.batch].add((param.name, g.n, hash(g)))
            if q is not None:
                self.count("graphs.spin_states", q ** g.n)

        evaluate = param.evaluate
        return GraphParameter(
            param.name, param.kappa,
            lambda g: self._run("graphs.evaluate", evaluate, after, (g,), {}))

    # -- output -------------------------------------------------------------

    def write(self, path):
        names = sorted(self._name_ids, key=self._name_ids.get)
        np.savez(path, run_id=np.array(self.run_id), names=np.array(names),
                 name=np.frombuffer(self._name, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int64),
                 batch=np.frombuffer(self._batch, dtype=np.int32),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64))

    @property
    def spans(self) -> int:
        return len(self._end)


def install(tracer: Tracer):
    """Wrap every layer boundary the four workloads cross."""
    from graphlimits import config_model, graphs, interpolation, limits

    def half_edges(result, args, kwargs, seconds):
        tracer.count("config_model.half_edges", sum(args[0]))

    def matchings(result, args, kwargs, seconds):
        tracer.count("config_model.matchings", len(result))

    def pmap_call(result, args, kwargs, seconds):
        fn, count, *rest = args
        workers = rest[0] if rest else kwargs.get("workers", 1)
        tracer.pmap_calls[tracer.batch].append(
            (fn, count, workers, list(result), seconds))

    tracer.patch(limits, "estimate_psi", "limits.estimate_psi")
    tracer.patch(limits, "sample_iid", "degree.sample_iid")
    tracer.patch(limits, "sample_uniform_graph",
                 "config_model.sample_uniform_graph", half_edges)
    tracer.patch(limits, "pmap", "parallel.pmap", pmap_call)
    tracer.patch(config_model, "Multigraph", "graphs.multigraph")
    tracer.patch(interpolation, "run_sweep", "interpolation.run_sweep")
    tracer.patch(interpolation, "enumerate_matchings",
                 "config_model.enumerate_matchings", matchings)
    tracer.patch(interpolation, "graph_of_matching",
                 "config_model.graph_of_matching")
    tracer.patch(interpolation, "counts_of_matching",
                 "config_model.counts_of_matching")
    tracer.patch(interpolation, "enumerate_maximal_matchings",
                 "config_model.enumerate_maximal_matchings")
    for verifier in ("verify_lipschitz", "verify_local_superadd",
                     "verify_global", "verify_main"):
        tracer.patch(interpolation, verifier, "interpolation.verify")
    tracer.patch(graphs, "certify_parameter", "graphs.certify_parameter")
    tracer.patch(graphs, "random_multigraph", "graphs.random_multigraph")
    tracer.patch(graphs, "increment_matrix", "graphs.increment_matrix")
    tracer.patch(graphs, "is_cnd", "graphs.is_cnd")


def replay_serial(tracer: Tracer, batch: int, pmap) -> tuple:
    """Seconds the batch's pmap calls take at workers=1, and whether each
    replay returned exactly what the traced call did.

    A call that already ran with one worker is its own serial time.
    """
    serial = 0.0
    same = True
    for fn, count, workers, result, seconds in tracer.pmap_calls[batch]:
        if workers is None or workers <= 1:
            serial += seconds
            continue
        start = perf_counter()
        again = list(pmap(fn, count, 1))
        serial += perf_counter() - start
        same = same and again == result
    return serial, same
