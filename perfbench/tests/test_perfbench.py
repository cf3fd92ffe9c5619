"""Tests of the benchmark itself: the layer clock, the per-layer counts,
and the refusal paths of the command.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import types

import pytest

from layers import LayerClock, SELF_METRICS
import run as bench

ROOT = pathlib.Path(bench.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class FakeTime:
    """A clock the wrapped functions advance explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _module(t: FakeTime):
    """``outer`` spends 1 + 3 s itself around a 2 s call to ``inner``,
    looked up through the module like a real import site."""
    mod = types.SimpleNamespace()

    def inner(fail=False):
        t.now += 2.0
        if fail:
            raise KeyError("boom")
        return "inner"

    def outer(fail=False):
        t.now += 1.0
        try:
            return mod.inner(fail)
        finally:
            t.now += 3.0

    mod.inner, mod.outer = inner, outer
    return mod


def test_nested_self_time_excludes_children():
    t = FakeTime()
    mod = _module(t)
    clock = LayerClock(clock=t)
    clock.wrap(mod, "outer", "outer")
    clock.wrap(mod, "inner", "inner")
    assert mod.outer() == "inner"
    assert clock.self_s == {"outer": 4.0, "inner": 2.0}
    assert clock.counts == {"outer": 1, "inner": 1}
    assert clock.stack() == []


def test_probe_time_stays_with_enclosing_span():
    t = FakeTime()
    mod = _module(t)
    clock = LayerClock(clock=t)
    clock.wrap(mod, "outer", "outer")
    clock.wrap(mod, "inner", None, name="inner.calls")
    mod.outer()
    assert clock.self_s == {"outer": 6.0}
    assert clock.inclusive_s == {"inner.calls": 2.0}
    assert clock.counts["inner.calls"] == 1


def test_exception_passes_through_and_is_timed():
    t = FakeTime()
    mod = _module(t)
    clock = LayerClock(clock=t)
    seen = []
    clock.wrap(mod, "outer", "outer")
    clock.wrap(mod, "inner", "inner", hook=lambda c, a, k, s, ok: seen.append((s, ok)))
    with pytest.raises(KeyError, match="boom"):
        mod.outer(fail=True)
    assert clock.self_s == {"outer": 4.0, "inner": 2.0}
    assert seen == [(2.0, False)]
    assert clock.stack() == []
    # the clock keeps working after the exception unwound both frames
    mod.outer()
    assert clock.self_s == {"outer": 8.0, "inner": 4.0}


def test_restore_puts_originals_back_including_classmethods():
    class Engine:
        @classmethod
        def build(cls, n):
            return cls, n

        def run(self):
            return "ran"

    mod = types.SimpleNamespace(f=len)
    original_build = Engine.__dict__["build"]
    clock = LayerClock()
    clock.wrap(Engine, "build", "compile")
    clock.wrap(Engine, "run", "step")
    clock.wrap(mod, "f", "f")
    assert Engine.build(3) == (Engine, 3)
    assert Engine().run() == "ran"
    assert mod.f("ab") == 2
    assert clock.counts == {"compile": 1, "step": 1, "f": 1}
    clock.restore()
    assert Engine.__dict__["build"] is original_build
    assert "__wrapped__" not in Engine.__dict__["run"].__dict__
    assert mod.f is len


def test_spans_on_admission_and_runner_threads_do_not_nest_across_threads():
    """An admission-thread span open while a runner thread completes its
    own span: each thread's self time is its own, not reduced by the
    other's."""
    t = FakeTime()
    mod = types.SimpleNamespace()
    inside_admit = threading.Event()
    runner_done = threading.Event()

    def admit():
        inside_admit.set()
        assert runner_done.wait(10)
        t.now += 1.0

    def execute():
        assert inside_admit.wait(10)
        t.now += 5.0

    mod.admit, mod.execute = admit, execute
    clock = LayerClock(clock=t)
    clock.wrap(mod, "admit", "admission")
    clock.wrap(mod, "execute", "runner")
    stacks = {}

    def runner():
        mod.execute()
        stacks["runner"] = list(clock.stack())
        runner_done.set()

    threads = [
        threading.Thread(target=mod.admit, name="admission"),
        threading.Thread(target=runner, name="runner"),
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    assert clock.self_s == {"admission": 6.0, "runner": 5.0}
    assert stacks["runner"] == []


@pytest.fixture(scope="module")
def smoke_layers():
    """Two traced smoke repetitions per workload, each in a fresh
    interpreter."""
    return {
        wl: [bench.run_rep(wl, 7, trace=True, smoke=True) for _ in range(2)]
        for wl in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_exactly(smoke_layers, workload):
    first, second = smoke_layers[workload]
    for rep in (first, second):
        assert rep["failed"] == 0, rep["errors"]
    assert first["outputs"] == second["outputs"]
    for name in COUNT_METRICS:
        assert first["layers"].get(name, 0) == second["layers"].get(name, 0), name


def test_fig7_layers_cover_the_traced_wall(smoke_layers):
    rep = smoke_layers["fig7-static"][0]
    covered = sum(rep["layers"][name] for name in SELF_METRICS.values())
    assert covered <= rep["wall_s"]
    assert covered >= 0.9 * rep["wall_s"]


def test_untraced_and_traced_outputs_match():
    plain = bench.run_rep("dynamic-reselect", 3, smoke=True)
    traced = bench.run_rep("dynamic-reselect", 3, trace=True, smoke=True)
    assert plain["outputs"] == traced["outputs"]
    assert plain["layers"] == {}


def _bench(args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("knob", ["REPRO_KERNEL", "REPRO_TRACE", "REPRO_BENCH_SCALE"])
def test_refuses_environment_knobs(knob):
    env = dict(os.environ, **{knob: "1"})
    proc = _bench(["--workload", "fig7-static", "--seed", "0", "--seconds", "1"], env=env)
    assert proc.returncode == 2
    assert knob in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _bench(["--workload", "fig7-static", "--seed", "0", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
