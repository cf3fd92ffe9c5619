"""Per-layer timing from outside the program.

:class:`LayerClock` replaces a function at the place the program looks it
up (a module attribute or a class attribute) with a wrapper that times the
call on a per-thread stack.  A layer's *self time* is the duration of its
calls minus the time spent in nested wrapped calls on the same thread, so
the self times of all layers plus what no wrapper covers add up to the
wall time of a single-threaded region.  Nothing inside ``src/`` changes.

:func:`install_repro_layers` wires the clock to the repository's layers
(schedulers, batch/fast/reference/dynamic simulation, service, experiments)
and :func:`layer_metrics` turns the clock's totals into the benchmark's
per-layer metric names.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Layers whose calls nested in the dynamic driver count as re-planning.
REPLAN_LAYERS = frozenset(
    {
        "schedulers.hom_search",
        "schedulers.het_plan",
        "schedulers.other_plan",
        "schedulers.selection",
        "sim.batch.dispatch",
        "sim.batch.compile",
        "sim.batch.step",
        "sim.batch.scalar",
        "sim.fastpath.replay",
    }
)
DRIVER_LAYER = "sim.dynamic.driver"

#: Self-time layer -> per-layer metric name.  Together with
#: ``trace.unattributed_s`` these partition the traced wall time.
SELF_METRICS = {
    "experiments": "experiments.self_s",
    "schedulers.hom_search": "schedulers.hom_search.self_s",
    "schedulers.het_plan": "schedulers.het_plan.self_s",
    "schedulers.other_plan": "schedulers.other_plan.self_s",
    "schedulers.selection": "schedulers.selection_s",
    "sim.batch.dispatch": "sim.batch.dispatch_s",
    "sim.batch.compile": "sim.batch.compile_s",
    "sim.batch.step": "sim.batch.step_s",
    "sim.batch.scalar": "sim.batch.scalar_s",
    "sim.fastpath.replay": "sim.fastpath.replay_s",
    "sim.engine.reference": "sim.engine.reference_s",
    DRIVER_LAYER: "sim.dynamic.driver_self_s",
    "service.execute": "service.execute_self_s",
}


class LayerClock:
    """Self time and call counts per layer, from wrapped call sites.

    ``wrap`` installs a timing wrapper; ``restore`` puts every original
    back.  A *span* wrapper pushes a frame for its layer; a *probe*
    (``layer=None``) only counts its calls and their inclusive time, and
    its own time stays with the enclosing span.  Exceptions pass through
    a wrapper unchanged, after its time has been recorded.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: layer -> seconds not covered by nested spans
        self.self_s: dict[str, float] = defaultdict(float)
        #: name -> count (span calls under their layer, plus hook counts)
        self.counts: dict[str, int] = defaultdict(int)
        #: name -> summed inclusive seconds (probes and hooks)
        self.inclusive_s: dict[str, float] = defaultdict(float)

    def stack(self) -> list[list]:
        """This thread's open frames, innermost last: ``[layer, child_s]``."""
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def add(self, name: str, *, count: int = 0, seconds: float = 0.0) -> None:
        with self._lock:
            if count:
                self.counts[name] += count
            if seconds:
                self.inclusive_s[name] += seconds

    def wrap(self, owner, attr: str, layer: str | None, *, name: str | None = None, hook=None):
        """Replace ``owner.attr`` by a timing wrapper.

        ``layer`` names the span (``None`` makes a probe counted under
        ``name``).  ``hook(clock, args, kwargs, seconds, ok)`` runs after
        each call, once the frame is popped, to record derived counts.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        label = name or layer
        if label is None:
            raise ValueError("a probe needs a name")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self.stack()
            frame = [layer, 0.0]
            if layer is not None:
                stack.append(frame)
            ok = False
            t0 = self._clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dur = self._clock() - t0
                if layer is not None:
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                with self._lock:
                    self.counts[label] += 1
                    if layer is None:
                        self.inclusive_s[label] += dur
                    else:
                        self.self_s[layer] += dur - frame[1]
                if hook is not None:
                    hook(self, args, kwargs, dur, ok)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)

    def restore(self) -> None:
        """Undo every ``wrap``, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _replan_hook(clock: LayerClock, args, kwargs, seconds: float, ok: bool) -> None:
    """Inclusive time of re-planning calls made directly by the dynamic
    driver (outermost re-planning frame below a driver frame)."""
    for layer, _child in reversed(clock.stack()):
        if layer == DRIVER_LAYER:
            clock.add("sim.dynamic.replan", seconds=seconds)
            return
        if layer in REPLAN_LAYERS:
            return


def _count_runs(clock: LayerClock, args, kwargs, seconds: float, ok: bool) -> None:
    _replan_hook(clock, args, kwargs, seconds, ok)
    runs = args[0] if args else kwargs["runs"]
    clock.add("sim.batch.runs", count=len(runs))


def _count_admits(clock: LayerClock, args, kwargs, seconds: float, ok: bool) -> None:
    if ok:
        clock.add("schedulers.run.ok", count=1)


def _plan_family(cls) -> str:
    from repro.schedulers.heterogeneous import HetScheduler
    from repro.schedulers.homogeneous import HomScheduler

    if issubclass(cls, HomScheduler):
        return "schedulers.hom_search"
    if issubclass(cls, HetScheduler):
        return "schedulers.het_plan"
    return "schedulers.other_plan"


def _scheduler_classes():
    from repro.schedulers.base import Scheduler

    seen, todo = [], [Scheduler]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def install_repro_layers(clock: LayerClock) -> LayerClock:
    """Wrap the repository's layer entry points where their callers look
    them up.  Import the whole package first, so every scheduler class
    exists and every module binding is final."""
    import repro.experiments as experiments
    import repro.schedulers  # noqa: F401 - registers every scheduler class
    import repro.schedulers.adaptive as adaptive
    import repro.schedulers.base as base
    import repro.schedulers.heterogeneous as heterogeneous
    import repro.service.runner as runner
    import repro.sim.batch as batch
    import repro.sim.fastpath as fastpath

    replan = _replan_hook
    wrap = clock.wrap
    wrap(experiments, "run_experiment", "experiments")
    wrap(experiments, "run_dynamic_experiment", "experiments")
    wrap(base.Scheduler, "run", None, name="schedulers.run", hook=_count_admits)
    for cls in _scheduler_classes():
        if "plan" in cls.__dict__:
            family = _plan_family(cls)
            wrap(cls, "plan", family, name="schedulers.plan.calls", hook=replan)
    wrap(adaptive, "homogeneous_plan", "schedulers.hom_search", hook=replan)
    wrap(heterogeneous, "incremental_selection", "schedulers.selection",
         name="schedulers.selection.calls", hook=replan)
    wrap(batch, "batch_outcomes", "sim.batch.dispatch", hook=_count_runs)
    wrap(adaptive, "shared_prefix_makespans", "sim.batch.dispatch",
         name="sim.batch.shared_prefix_calls", hook=replan)
    wrap(batch.BatchEngine, "__init__", "sim.batch.compile", name="sim.batch.engines", hook=replan)
    wrap(batch.BatchEngine, "shared_prefix", "sim.batch.compile", hook=replan)
    wrap(batch.BatchEngine, "run", "sim.batch.step", hook=replan)
    wrap(batch, "fast_simulate", "sim.batch.scalar", name="sim.batch.scalar_runs", hook=replan)
    for module in (base, adaptive):
        wrap(module, "fast_simulate", "sim.fastpath.replay",
             name="sim.fastpath.replays", hook=replan)
    wrap(base, "simulate", "sim.engine.reference")
    wrap(fastpath, "_reference_simulate", "sim.engine.reference")
    wrap(adaptive, "simulate_dynamic", DRIVER_LAYER, name="sim.dynamic.runs")
    wrap(runner.ShardRunner, "execute", "service.execute")
    return clock


def layer_metrics(clock: LayerClock, *, admission: bool = False) -> dict[str, float]:
    """The clock's totals under the benchmark's per-layer metric names
    (zero where the workload never reached a layer).  With ``admission``
    every ``Scheduler.run`` call was a service admission attempt."""
    out = {metric: float(clock.self_s.get(layer, 0.0)) for layer, metric in SELF_METRICS.items()}
    counts = clock.counts
    runs = counts.get("sim.batch.runs", 0)
    scalar = counts.get("sim.batch.scalar_runs", 0)
    out.update(
        {
            "sim.batch.engines": counts.get("sim.batch.engines", 0),
            "sim.batch.scalar_runs": scalar,
            "sim.batch.vector_runs": runs - scalar,
            "sim.batch.vector_frac": (runs - scalar) / runs if runs else 0.0,
            "sim.batch.shared_prefix_calls": counts.get("sim.batch.shared_prefix_calls", 0),
            "schedulers.selection.calls": counts.get("schedulers.selection.calls", 0),
            "schedulers.plan.calls": counts.get("schedulers.plan.calls", 0),
            "sim.fastpath.replays": counts.get("sim.fastpath.replays", 0),
            "sim.dynamic.runs": counts.get("sim.dynamic.runs", 0),
            "sim.dynamic.replan_s": float(clock.inclusive_s.get("sim.dynamic.replan", 0.0)),
        }
    )
    if admission:
        attempts = counts.get("schedulers.run", 0)
        admits = counts.get("schedulers.run.ok", 0)
        out.update(
            {
                "service.admit_s": float(clock.inclusive_s.get("schedulers.run", 0.0)),
                "service.admit_attempts": attempts,
                "service.admits": admits,
                "service.admit_yield": admits / attempts if attempts else 0.0,
            }
        )
    return out
