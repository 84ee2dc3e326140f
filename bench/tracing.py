"""In-memory span tracer for the skewinfo benchmark.

Spans are recorded by the benchmark's own wrappers around the package's
public functions; nothing inside the package is instrumented. A wrapper
replaces every reference to the original function in every loaded
``skewinfo`` module, so the name is patched wherever it is looked up
(``skewinfo.verify.lqu`` as well as ``skewinfo.metrics.lqu``). Names that
do not exist in the current code are skipped and their metrics read 0.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (defining module, attribute) -> span name. Methods are given as
# "Class.method" and patched on the class.
TRACED = {
    ("skewinfo.linalg", "sqrtm_psd"): "linalg.sqrtm_psd",
    ("skewinfo.rand", "ginibre_state"): "rand.ginibre_state",
    ("skewinfo.rand", "haar_unitary"): "rand.haar_unitary",
    ("skewinfo.rand", "commuting_kraus_channel"): "rand.commuting_kraus_channel",
    ("skewinfo.states", "apply_channel"): "states.apply_channel",
    ("skewinfo.states", "gell_mann_basis"): "states.gell_mann_basis",
    ("skewinfo.metrics", "skew_information"): "metrics.skew_information",
    ("skewinfo.metrics", "q_total"): "metrics.q_total",
    ("skewinfo.metrics", "q_local"): "metrics.q_local",
    ("skewinfo.metrics", "lqu"): "metrics.lqu",
    ("skewinfo.metrics", "LocalSkewObjective.__init__"): "metrics.LocalSkewObjective.init",
    ("skewinfo.metrics", "LocalSkewObjective.skew"): "metrics.LocalSkewObjective.skew",
    ("skewinfo.steering", "steer"): "steering.steer",
    ("skewinfo.steering", "steered_q_sum"): "steering.steered_q_sum",
    ("skewinfo.steering", "steering_induced_skew"): "steering.steering_induced_skew",
    ("skewinfo.optim", "unitary_exp"): "optim.unitary_exp",
    ("skewinfo.optim", "antihermitian_from_params"): "optim.antihermitian_from_params",
}
SEARCH = ("skewinfo.optim", "minimize_over_unitaries")
SEARCH_SPAN = "optim.minimize_over_unitaries"


class Tracer:
    """Collects spans: name, start and end (ns), parent index, trial.

    Span fields are kept in flat columns rather than one object per span,
    so that recording adds no work for the garbage collector. ``trial`` is
    set by the caller before each trial; every span opened while it is set
    carries it. Each call of the unitary search also appends (trial,
    restarts used, converged) to ``searches``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial_of = array("q")
        self.stack: list[int] = []
        self.trial = -1
        self.searches: list[tuple[int, int, bool]] = []

    @property
    def spans(self) -> list[tuple[str, int, int, int, int]]:
        return list(zip(self.names, self.start, self.end, self.parent, self.trial_of))

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.trial_of.append(self.trial)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.stack.pop()

        return traced

    def traced_search(self, search):
        """Wrap the unitary search so each objective evaluation is a span
        named after the layer that called the search (``metrics.objective``
        for LQU, ``steering.objective`` for the steering maximization)."""

        def search_with_counted_objective(objective, *args, **kwargs):
            # The open span below this wrapper's own one is the caller.
            caller = self.names[self.stack[-2]] if len(self.stack) > 1 else "optim"
            result = search(self.span(caller.split(".")[0] + ".objective", objective), *args, **kwargs)
            self.searches.append(
                (self.trial, int(getattr(result, "restarts_used", 0)), bool(getattr(result, "converged", False)))
            )
            return result

        return self.span(SEARCH_SPAN, search_with_counted_objective)


class Patched:
    """Context manager that installs the tracer's wrappers and restores
    the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, wrapper):
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "skewinfo"]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        for (mod_name, attr), span_name in TRACED.items():
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    self.undo.append((cls, meth, original))
                    setattr(cls, meth, self.tracer.span(span_name, original))
                continue
            original = getattr(mod, attr, None)
            if original is not None:
                self._replace_everywhere(original, self.tracer.span(span_name, original))
        search = getattr(sys.modules.get(SEARCH[0]), SEARCH[1], None)
        if search is not None:
            self._replace_everywhere(search, self.tracer.traced_search(search))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()
        return False


def aggregate(tracer: Tracer) -> dict[str, dict[str, int]]:
    """Per span name: call count, inclusive and self time in ns.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested on one thread, so children
    never overlap each other.
    """
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    child_ns = [0] * len(durations)
    for parent, d in zip(tracer.parent, durations):
        if parent >= 0:
            child_ns[parent] += d
    stats: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for name, d, c in zip(tracer.names, durations, child_ns):
        s = stats[name]
        s["calls"] += 1
        s["ns"] += d
        s["self_ns"] += d - c
    return dict(stats)
