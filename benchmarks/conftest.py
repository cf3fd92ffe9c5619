"""Benchmark harness helpers.

Every benchmark regenerates one of the paper's tables/figures at the true
paper scale (override with ``REPRO_BENCH_SCALE``), times it with
pytest-benchmark, prints the measured series next to the paper's reported
shape, and archives the text table under ``benchmarks/results/`` when
``REPRO_BENCH_RECORD=1`` (a session temporary directory otherwise).
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Problem scale for the figure benchmarks (1.0 = the paper's sizes)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def bench_runner() -> dict:
    """Experiment-runner options from the environment, passed through to
    ``run_figure``/``run_summary``/the sweeps by every figure benchmark:

    * ``REPRO_BENCH_PARALLEL``: worker-process count (``auto`` = one per
      core; unset/``0``/``1`` = in-process serial execution);
    * ``REPRO_BENCH_CACHE``: content-addressed result-cache directory
      (reruns become lookups);
    * ``REPRO_BENCH_ENGINE``: ``fast`` (default) / ``reference`` /
      ``batch`` simulation engine.

    E.g. ``REPRO_BENCH_PARALLEL=auto pytest -m slow`` records multi-core
    numbers on a multi-core machine.  The kernel backend follows
    ``REPRO_KERNEL`` (see :mod:`repro.sim.kernels`), so
    ``REPRO_KERNEL=c pytest -m slow`` records compiled-backend numbers.
    """
    raw = os.environ.get("REPRO_BENCH_PARALLEL", "").strip()
    if not raw:
        parallel = None
    elif raw == "auto":
        parallel = "auto"
    else:
        try:
            n = int(raw)
        except ValueError:
            n = -1
        if n < 0:
            raise pytest.UsageError(
                f"REPRO_BENCH_PARALLEL must be a non-negative integer or "
                f"'auto', got {raw!r}"
            )
        parallel = n if n >= 2 else None
    cache = os.environ.get("REPRO_BENCH_CACHE", "").strip() or None
    engine = os.environ.get("REPRO_BENCH_ENGINE", "").strip() or "fast"
    from repro.experiments.harness import ENGINES

    if engine not in ENGINES:
        raise pytest.UsageError(
            f"REPRO_BENCH_ENGINE must be one of {ENGINES}, got {engine!r}"
        )
    return {"parallel": parallel, "cache": cache, "engine": engine}


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> pathlib.Path:
    """Where :func:`emit` archives tables: ``benchmarks/results/`` when
    ``REPRO_BENCH_RECORD=1`` (CI sets it on the steps that upload the
    directory), else a session temporary directory, so a plain test run
    leaves the committed tables untouched."""
    if os.environ.get("REPRO_BENCH_RECORD", "").strip() == "1":
        RESULTS_DIR.mkdir(exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("bench_results")


@pytest.fixture
def emit(results_dir):
    """Print a result table and archive it (see :func:`results_dir`).

    With ``data``, a machine-readable ``BENCH_<name>.json`` document is
    written next to the text table; CI uploads ``benchmarks/results/`` as a
    workflow artifact, so these JSON snapshots accumulate a measurement
    trajectory across runs.  Every JSON payload records the *active* kernel
    backend (post-fallback) plus uniform host/run metadata
    (:func:`repro.obs.run_metadata`: python/numpy versions, cpu count,
    machine, git describe) and the metrics-registry delta over the
    benchmark's own window (from its setup to the emit), so
    compiled-backend entries in the perf trajectory are distinguishable
    from numpy ones, numbers from different hosts never get conflated, and
    no other test's counters leak into a benchmark's record.
    """
    from repro.obs import run_metadata, snapshot, snapshot_delta

    before = snapshot()

    def _emit(name: str, text: str, data: dict | None = None) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            import json

            metrics = snapshot_delta(before)
            meta = run_metadata()
            payload = {
                "benchmark": name,
                "kernel": meta["kernel"],  # kept top-level for older readers
                "meta": meta,
                "metrics": metrics,
                "data": data,
            }
            (results_dir / f"BENCH_{name}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )

    return _emit
