"""Kernel-backend registry semantics and compiled-path integration.

The equivalence walls (``test_batch_equivalence``, ``test_golden_figures``)
pin that the C backend computes bit-identical results to the numpy
oracle; this file pins the *registry* contract around them: resolution
order (instance > name > env > numpy), unknown-name errors, the
single-warning numpy fallback for unavailable backends (a failed C build
included), whole-run vs per-step dispatch, windowed stepping, and
``REPRO_KERNEL`` reaching every simulation of the harness.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.schedulers.registry import make_scheduler
from repro.sim import kernels
from repro.sim.batch import BatchEngine
from repro.sim.fastpath import fast_simulate
from repro.sim.kernels import (
    FIELD_CODES,
    KERNEL_ENV,
    KERNEL_NAMES,
    KernelUnavailable,
    available_backends,
    get_backend,
    resolve_kernel,
)
from repro.sim.plan import Plan
from repro.sim.policies import POLICY_KEY_FIELDS, ReadyPolicy


# ----------------------------------------------------------------------
# registry + resolution
# ----------------------------------------------------------------------
def test_registry_names_cover_all_factories():
    assert KERNEL_NAMES == ("numpy", "c")
    for name in available_backends():
        assert get_backend(name).name == name


def test_numpy_always_available():
    assert "numpy" in available_backends()


def needs_c():
    if "c" not in available_backends():
        pytest.skip("no working C compiler here")


def test_field_codes_cover_policy_vocabulary():
    """The ready kernels interpret exactly the PolicyKeySpec vocabulary."""
    assert set(FIELD_CODES) == set(POLICY_KEY_FIELDS)


def test_whole_run_flags():
    assert get_backend("numpy").whole_run is False
    if "c" in available_backends():
        assert get_backend("c").whole_run is True


def test_unknown_name_raises_value_error(monkeypatch):
    """Unknown names -- the removed ``numba``/``python`` backends
    included -- raise, whether passed directly or through the env knob."""
    for name in ("fortran", "numba", "python"):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend(name)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel(name)
        monkeypatch.setenv(KERNEL_ENV, name)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel(None)


def test_resolve_instance_passes_through():
    backend = get_backend("numpy")
    assert resolve_kernel(backend) is backend


def test_resolve_name_and_default(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert resolve_kernel(None).name == "numpy"
    assert resolve_kernel("numpy").name == "numpy"


def test_resolve_env_knob(monkeypatch):
    needs_c()
    monkeypatch.setenv(KERNEL_ENV, "c")
    assert resolve_kernel(None).name == "c"
    # explicit kernel= beats the environment
    assert resolve_kernel("numpy").name == "numpy"


@pytest.fixture
def fresh_registry(monkeypatch):
    """Empty the per-process backend, verdict and warning caches for the
    duration of one test."""
    monkeypatch.setattr(kernels, "_instances", {})
    monkeypatch.setattr(kernels, "_failures", {})
    monkeypatch.setattr(kernels, "_warned", set())


@pytest.fixture
def broken_backend(monkeypatch, fresh_registry):
    """Temporarily make the ``c`` backend unavailable (whether or not a
    compiler exists here)."""

    def unavailable():
        raise KernelUnavailable("c disabled for this test")

    monkeypatch.setattr(kernels, "_FACTORIES", {**kernels._FACTORIES, "c": unavailable})
    return "c"


def test_unavailable_backend_raises_on_direct_get(broken_backend):
    with pytest.raises(KernelUnavailable, match="disabled"):
        get_backend(broken_backend)
    assert broken_backend not in available_backends()


def test_unavailable_backend_falls_back_with_single_warning(broken_backend):
    with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
        backend = resolve_kernel(broken_backend)
    assert backend.name == "numpy"
    # second resolution is silent (one clear warning per process per name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel(broken_backend).name == "numpy"


def test_unavailable_env_knob_falls_back(monkeypatch, broken_backend):
    monkeypatch.setenv(KERNEL_ENV, broken_backend)
    with pytest.warns(RuntimeWarning, match="unavailable"):
        assert resolve_kernel(None).name == "numpy"


@pytest.mark.parametrize("cc", ["/bin/false", "no-such-cc"], ids=["failing", "missing"])
def test_c_build_failure_falls_back(
    monkeypatch, tmp_path, fresh_registry, het_platform, small_grid, cc
):
    """A compiler that fails to build the kernel, or ``$CC`` naming no
    executable, makes ``c`` unavailable: one warning, then numpy -- never
    an error mid-simulation."""
    monkeypatch.setenv("CC", cc)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert resolve_kernel("c").name == "numpy"
        routed = fast_simulate(
            het_platform, make_and_strip("Hom", het_platform, small_grid), kernel="c"
        )
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "c" not in available_backends()
    scalar = fast_simulate(het_platform, make_and_strip("Hom", het_platform, small_grid))
    assert routed.makespan == scalar.makespan


# ----------------------------------------------------------------------
# engine dispatch under compiled backends
# ----------------------------------------------------------------------
def _strict_runs(het_platform, small_grid, ragged_grid):
    runs = []
    for grid in (small_grid, ragged_grid):
        plan = make_scheduler("Hom").plan(het_platform, grid)
        plan.collect_events = False
        runs.append((het_platform, plan))
    return runs


def compiled_names():
    return [n for n in available_backends() if n != "numpy"]


@pytest.mark.parametrize("scheduler", ["Hom", "ORROML"], ids=["strict", "ready"])
def test_windowed_stepping_matches_full_run(scheduler, het_platform, small_grid, ragged_grid):
    """run(max_steps=) must stop exactly at the window edge under every
    backend -- the contract the incremental reselect search relies on."""
    runs = []
    for grid in (small_grid, ragged_grid):
        plan = make_scheduler(scheduler).plan(het_platform, grid)
        plan.collect_events = False
        runs.append((het_platform, plan))

    def replay(kernel, chunk):
        fresh = [
            (p, make_scheduler(scheduler).plan(p, g))
            for (p, _pl), g in zip(runs, (small_grid, ragged_grid))
        ]
        for _p, pl in fresh:
            pl.collect_events = False
        engine = BatchEngine(fresh, kernel=kernel)
        while not engine.done:
            before = engine._t
            engine.run(max_steps=chunk)
            assert engine._t <= min(before + chunk, engine.total_steps)
        return engine.makespans()

    reference = replay("numpy", 10_000)  # effectively one full run
    for name in available_backends():
        for chunk in (1, 7, 10_000):
            assert np.array_equal(replay(name, chunk), reference), (name, chunk)


@pytest.mark.parametrize("kernel", ["c"])
def test_fast_simulate_routes_through_batch(kernel, het_platform, small_grid):
    """Under a whole-run backend, batch-replayable plans take the compiled
    B=1 batch route and stay bit-identical to the scalar fast path."""
    needs_c()
    for name in ("Hom", "ORROML"):
        plan = make_scheduler(name).plan(het_platform, small_grid)
        plan.collect_events = False
        scalar = fast_simulate(
            het_platform, make_and_strip(name, het_platform, small_grid), small_grid,
            kernel="numpy",
        )
        compiled = fast_simulate(het_platform, plan, small_grid, kernel=kernel)
        assert compiled.makespan == scalar.makespan
        assert compiled.worker_stats == scalar.worker_stats
        assert compiled.meta.get("algorithm", name) is not None


def make_and_strip(name, platform, grid):
    plan = make_scheduler(name).plan(platform, grid)
    plan.collect_events = False
    return plan


def test_fast_simulate_kernel_ignored_for_unbatchable_plans(het_platform, small_grid):
    """Allocator-driven plans cannot take the batch route; kernel= must
    degrade to the scalar/reference paths, not crash."""
    needs_c()
    scalar = fast_simulate(
        het_platform, make_and_strip("BMM", het_platform, small_grid), small_grid,
        kernel="numpy",
    )
    routed = fast_simulate(
        het_platform,
        make_and_strip("BMM", het_platform, small_grid),
        small_grid,
        kernel="c",
    )
    assert routed.makespan == scalar.makespan


def test_fast_simulate_opaque_priority_still_reference(het_platform):
    needs_c()
    plan = Plan(
        assignments=[[] for _ in range(het_platform.p)],
        policy=ReadyPolicy(lambda engine, widx: (-widx,)),
        depths=[2] * het_platform.p,
    )
    res = fast_simulate(het_platform, plan, kernel="c")
    assert res.makespan == 0.0


def test_engine_records_backend(het_platform, small_grid):
    needs_c()
    runs = _strict_runs(het_platform, small_grid, small_grid)
    assert BatchEngine(runs, kernel="c")._backend.name == "c"


# ----------------------------------------------------------------------
# harness integration
# ----------------------------------------------------------------------
def test_evaluate_runs_kernel_parity(monkeypatch, het_platform, small_grid, ragged_grid):
    from repro.experiments.harness import evaluate_runs

    def jobs():
        out = []
        for grid in (small_grid, ragged_grid):
            for name in ("Hom", "ORROML"):
                plan = make_scheduler(name).plan(het_platform, grid)
                plan.collect_events = False
                out.append((het_platform, plan))
        return out

    base = evaluate_runs(jobs(), "fast")
    for engine in ("fast", "batch"):
        for kernel in available_backends():
            monkeypatch.setenv(KERNEL_ENV, kernel)
            got = evaluate_runs(jobs(), engine)
            assert [m for m, _n, _meta in got] == [m for m, _n, _meta in base], (
                engine,
                kernel,
            )


def test_run_experiment_kernel_parity(monkeypatch, het_platform, small_grid):
    from repro.experiments.harness import Instance, run_experiment

    instances = [Instance("inst", het_platform, small_grid)]
    base = run_experiment("kernels", instances, engine="fast")
    ref = {(m.algorithm, m.instance): m.makespan for m in base.measurements}
    for engine in ("fast", "batch"):
        for kernel in compiled_names():
            monkeypatch.setenv(KERNEL_ENV, kernel)
            res = run_experiment("kernels", instances, engine=engine)
            got = {(m.algorithm, m.instance): m.makespan for m in res.measurements}
            assert got == ref, (engine, kernel)


def test_env_knob_reaches_every_engine_of_a_run(monkeypatch, het_platform, small_grid):
    """Under ``REPRO_KERNEL=c`` every BatchEngine a HomI/Het experiment
    builds -- threshold search, variant scoring and final replay alike --
    steps on the C kernel."""
    from repro.experiments.harness import Instance, run_experiment

    needs_c()
    monkeypatch.setenv(KERNEL_ENV, "c")
    backends = []
    init = BatchEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        backends.append(self._backend.name)

    monkeypatch.setattr(BatchEngine, "__init__", recording_init)
    schedulers = [make_scheduler("HomI"), make_scheduler("Het")]
    run_experiment("env", [Instance("inst", het_platform, small_grid)], schedulers)
    # more engines than the two final replays: the searches ran too
    assert len(backends) > len(schedulers)
    assert set(backends) == {"c"}


# ----------------------------------------------------------------------
# the C backend's build cache
# ----------------------------------------------------------------------
def test_c_backend_builds_into_configured_cache(monkeypatch, tmp_path):
    if "c" not in available_backends():
        pytest.skip("no C compiler here")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    backend = type(get_backend("c"))()  # fresh instance, ignore cached lib
    backend.ensure_ready()
    libs = list(tmp_path.glob("repro_kernels_*.so"))
    assert len(libs) == 1
    # rebuilding is a no-op (the artifact is content-addressed)
    backend2 = type(get_backend("c"))()
    backend2.ensure_ready()
    assert list(tmp_path.glob("repro_kernels_*.so")) == libs


def test_resolve_builds_a_fresh_instance(monkeypatch, tmp_path, het_platform, small_grid):
    """A backend instance passed as ``kernel=`` is built on resolution,
    so an engine can run it without a prior ``ensure_ready()``."""
    needs_c()
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    backend = type(get_backend("c"))()
    engine = BatchEngine(_strict_runs(het_platform, small_grid, small_grid), kernel=backend)
    assert engine._backend is backend
    engine.run()
    reference = BatchEngine(
        _strict_runs(het_platform, small_grid, small_grid), kernel="numpy"
    )
    reference.run()
    assert np.array_equal(engine.makespans(), reference.makespans())
