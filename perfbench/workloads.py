"""The benchmark's workloads: inputs drawn from a seed, a timed body, and
the outputs the correctness gate compares.

Each workload is a class with

* ``setup(seed, smoke)`` -> state: imports the program, builds the inputs
  (and starts the worker pool for the service); counted in ``setup_s``;
* ``run(state)`` -> :class:`Outcome`: the timed body;
* ``close(state)``: releases what ``setup`` started;
* ``oracle(state)`` -> outputs of an independent evaluation of the same
  inputs, for seeds without pinned outputs (the makespan workloads only:
  the service checks every job against ``C + A @ B`` itself).

Every call goes through the program's defaults: no ``engine=`` or
``kernel=`` argument, so the kernel resolves to ``numpy`` exactly as for a
user's CLI invocation.  ``smoke`` shrinks the inputs for the benchmark's
own tests.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import time
from dataclasses import dataclass, field

# fig7-static: the paper's fully heterogeneous figure at full size
FIG7_SCALE = 1.0
# dynamic-reselect: the straggler family drawn from the seed, conditioned
# on a fixed event mix so every seed exercises the same number of onset
# and recovery boundaries (an unconditioned draw may hold zero events)
DYN_ALGORITHMS = ("Hom", "HomI", "Het")
DYN_SEVERITIES = (4.0, 16.0)
DYN_ONSETS = 2
DYN_RECOVERIES = 2
DYN_RATE = 3.0
# service-open-loop: small HomI jobs on a pool of one process per core
SERVICE_JOBS = 100
# jobs/s: a quarter of what the 2-core pool serves in a burst (~150 jobs/s
# on this grid), so jobs queue at bursts without a backlog, and queueing
# amplifies a slow host less than at higher load
SERVICE_RATE = 30.0
SERVICE_GRID = {"r": 6, "t": 6, "s": 12, "q": 16}
SERVICE_MAX_POOL = 8


@dataclass
class Outcome:
    """What one timed body produced."""

    wall_s: float
    #: latency of each job (seconds; ``inf`` for a failed job): every
    #: service job, or the whole sweep of a makespan workload
    latencies: list[float]
    #: operations: (algorithm, instance) runs, (algorithm, mode, severity)
    #: runs, or service jobs
    attempted: int
    failed: int
    #: canonical outputs the correctness gate compares bit-exactly
    outputs: list[str]
    errors: list[str] = field(default_factory=list)
    #: workload-specific per-layer metrics measured without the clock
    layers: dict[str, float] = field(default_factory=dict)


def p90(values) -> float:
    """90th percentile (linear interpolation) of a non-empty sequence."""
    xs = sorted(values)
    return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=10, method="inclusive")[8]


def _makespan_outputs(result) -> tuple[list[str], int]:
    """``algorithm|instance|makespan.hex()`` per (algorithm, instance) in
    the harness's order, plus the number of pairs that failed."""
    outputs = []
    failed = 0
    for inst in result.instances:
        for alg in result.algorithms:
            try:
                ms = result.get(alg, inst).makespan
            except KeyError:
                failed += 1
                outputs.append(f"{alg}|{inst}|failed")
                continue
            outputs.append(f"{alg}|{inst}|{float(ms).hex()}")
    return outputs, failed


def _timed_sweep(ops: int, sweep) -> Outcome:
    """Time ``sweep()``: one job whose latency is its wall time, made of
    ``ops`` operations."""
    t0 = time.perf_counter()
    try:
        result = sweep()
    except Exception as exc:  # the sweep aborted: no operation completed
        return Outcome(time.perf_counter() - t0, [float("inf")], ops, ops, [], [repr(exc)])
    wall = time.perf_counter() - t0
    outputs, failed = _makespan_outputs(result)
    errors = [f"{k}: {v}" for k, v in result.failures.items()]
    return Outcome(wall, [wall], len(outputs), failed, outputs, errors)


class Fig7Static:
    """``run_experiment`` on the paper's Figure 7 instances with the
    default seven-algorithm suite (84 runs over 12 platforms)."""

    name = "fig7-static"

    def setup(self, seed: int, smoke: bool):
        from repro.experiments import fig7_instances

        return fig7_instances(0.1 if smoke else FIG7_SCALE, seed=seed)

    def run(self, instances) -> Outcome:
        import repro.experiments as experiments
        from repro.schedulers.registry import default_suite

        ops = len(instances) * len(default_suite())
        return _timed_sweep(ops, lambda: experiments.run_experiment(self.name, instances))

    def oracle(self, instances) -> list[str]:
        """The same sweep on the vectorized batch engine, which the
        repository guarantees bit-identical to the default fast path."""
        import repro.experiments as experiments

        result = experiments.run_experiment(self.name, instances, engine="batch")
        return _makespan_outputs(result)[0]

    def close(self, state) -> None:
        pass


def straggler_timeline(seed: int, severity: float, platform, horizon: float):
    """A ``random_timeline`` straggler draw from ``seed``, redrawn from the
    same generator until it holds exactly ``DYN_ONSETS`` onsets and
    ``DYN_RECOVERIES`` recoveries, all before ``horizon`` (so each fires
    before the run drains)."""
    from repro.sim.dynamic import random_timeline

    rng = random.Random(f"perfbench|{seed}|{severity!r}")
    while True:
        timeline = random_timeline(
            rng, "straggler", platform, horizon, rate=DYN_RATE, severity=severity
        )
        kinds = [ev.kind for ev in timeline.events]
        if (
            kinds.count("straggle") == DYN_ONSETS
            and kinds.count("recover") == DYN_RECOVERIES
            and all(ev.time < horizon for ev in timeline.events)
        ):
            return timeline


class DynamicReselect:
    """Hom/HomI/Het x {oblivious, adaptive, reselect, clairvoyant} x
    severities {4, 16} on the straggler-onset instance under a seeded
    stochastic straggler timeline, through ``run_dynamic_experiment``."""

    name = "dynamic-reselect"

    def setup(self, seed: int, smoke: bool):
        from repro.experiments import DynamicInstance, dynamic_scenario
        from repro.schedulers import make_scheduler
        from repro.theory.steady_state import makespan_lower_bound

        instances = []
        for severity in DYN_SEVERITIES:
            platform, grid, _scripted = dynamic_scenario(
                "straggler-onset", severity, scale=0.3 if smoke else 1.0
            )
            horizon = makespan_lower_bound(platform, grid)
            timeline = straggler_timeline(seed, severity, platform, horizon)
            instances.append(
                DynamicInstance(f"straggler-{severity:g}", platform, grid, timeline)
            )
        return instances, [make_scheduler(name) for name in DYN_ALGORITHMS]

    def run(self, state) -> Outcome:
        import repro.experiments as experiments
        from repro.schedulers.adaptive import DYNAMIC_MODES

        instances, schedulers = state
        ops = len(instances) * len(schedulers) * len(DYNAMIC_MODES)
        return _timed_sweep(
            ops, lambda: experiments.run_dynamic_experiment(self.name, instances, schedulers)
        )

    def oracle(self, state) -> list[str]:
        """The same runs with every run recorded and audited against its
        timeline's one-port/memory/dependency invariants."""
        import repro.experiments as experiments

        instances, schedulers = state
        result = experiments.run_dynamic_experiment(
            self.name, instances, schedulers, validate=True
        )
        return _makespan_outputs(result)[0]

    def close(self, state) -> None:
        pass


@dataclass
class _ServiceState:
    service: object
    grid: object
    inputs: list
    due: list[float]
    pool: int


class ServiceOpenLoop:
    """One generator thread submits seeded Poisson arrivals of small jobs
    to ``SchedulingService(HomI, max_workers_per_job=1)`` on a pool of one
    worker process per core (at most ``SERVICE_MAX_POOL``)."""

    name = "service-open-loop"

    def setup(self, seed: int, smoke: bool):
        import numpy as np

        from repro.core.blocks import BlockGrid
        from repro.execution.executor import random_instance
        from repro.platform.model import Platform
        from repro.service import SchedulingService

        jobs = 12 if smoke else SERVICE_JOBS
        rng = np.random.default_rng(seed)
        grid = BlockGrid(**SERVICE_GRID)
        inputs = [random_instance(grid, rng) for _ in range(jobs)]
        # a Poisson process conditioned on its count: ``jobs`` arrivals
        # uniform over ``jobs / rate`` seconds, so every seed offers the
        # same mean load over the same window
        due = sorted(float(x) for x in rng.uniform(0.0, jobs / SERVICE_RATE, jobs))
        pool = min(len(os.sched_getaffinity(0)), SERVICE_MAX_POOL)
        platform = Platform.homogeneous(pool, 1.0, 1.0, 45, name="service-pool")
        service = SchedulingService(platform, algorithm="HomI", max_workers_per_job=1)
        service.start()
        return _ServiceState(service, grid, inputs, due, pool)

    def run(self, state: _ServiceState) -> Outcome:
        svc = state.service
        futures = []
        lags = []
        origin = time.perf_counter()
        due_at = [origin + d for d in state.due]
        for (a, b, c), at in zip(state.inputs, due_at):
            delay = at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(svc.submit(svc.make_job(state.grid, a, b, c)))
            lags.append(time.perf_counter() - at)
        results = []
        errors = []
        for fut in futures:
            try:
                results.append(fut.result(timeout=120.0))
            except Exception as exc:  # a failed job is a failed operation
                results.append(None)
                errors.append(repr(exc))
        done = [r.finished_at for r in results if r is not None]
        wall = (max(done) if done else time.perf_counter()) - due_at[0]
        return self._outcome(state, results, due_at, lags, wall, errors)

    def _outcome(self, state, results, due_at, lags, wall, errors) -> Outcome:
        from repro.execution.executor import reference_product

        tol = 1e-9 * state.grid.t * state.grid.q
        digest = hashlib.sha256()
        latencies = []
        failed = 0
        ok = [r for r in results if r is not None]
        for (a, b, c), r, at in zip(state.inputs, results, due_at):
            if r is None:
                failed += 1
                latencies.append(float("inf"))
                continue
            latencies.append(r.finished_at - at)
            err = float(abs(r.output - reference_product(a, b, c)).max())
            if not err <= tol:
                failed += 1
                errors.append(f"{r.job_id}: max |C - (C0 + A B)| = {err:.3e} > {tol:.3e}")
            digest.update(r.output.tobytes())
        # peak number of jobs executing at once, from the start/finish stamps
        edges = sorted([(r.started_at, 1) for r in ok] + [(r.finished_at, -1) for r in ok])
        running = peak = 0
        for _t, step in edges:
            running += step
            peak = max(peak, running)
        busy = sum(len(r.shard) * (r.finished_at - r.started_at) for r in ok)
        layers = {
            "service.wait_p50_s": statistics.median(
                [r.started_at - at for r, at in zip(results, due_at) if r is not None]
            ) if ok else 0.0,
            "service.execute_p50_s": statistics.median([r.wall_seconds for r in ok]) if ok else 0.0,
            "service.peak_concurrent": float(peak),
            "service.pool_utilization": busy / (state.pool * wall) if wall > 0 else 0.0,
            "service.messages": sum(r.stats.messages for r in ok),
            "service.updates": sum(r.stats.updates for r in ok),
            "loadgen.lag_p90_s": p90(lags),
        }
        return Outcome(
            wall, latencies, len(results), failed, [digest.hexdigest()], errors, layers
        )

    def close(self, state: _ServiceState) -> None:
        state.service.close()


WORKLOADS = {wl.name: wl for wl in (Fig7Static(), DynamicReselect(), ServiceOpenLoop())}
