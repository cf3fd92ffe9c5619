"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload fig7-static --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition runs cold in a fresh
interpreter (``rep.py``); repetitions are started until ``--seconds`` is
spent (at least ``MIN_REPS``) and the end-to-end metrics are medians over
them.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the median traced repetition, the
tracing overhead, and whether the traced outputs equal the untraced ones.

Every output is checked: fig7-static and dynamic-reselect makespans
bit-exactly against the outputs pinned for the seed under ``pins/`` (or,
for an unpinned seed, against an independent re-evaluation), and every
service job against ``C + A @ B``.  The last stdout line is the JSON
result; the command exits 1 when any output is wrong and 2 when it cannot
run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

from layers import SELF_METRICS
from workloads import WORKLOADS, p90

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: A run, checks included, must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Knobs that would change what is measured; the benchmark refuses them.
PINNED_ENV = ("REPRO_KERNEL", "REPRO_TRACE")
PINNED_ENV_PREFIX = "REPRO_BENCH_"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"{ROOT} is not a checkout of the program"
                         " (no src/repro or no BENCHMARK.json)")
    return json.loads(path.read_text())


def _refuse_knobs() -> None:
    set_knobs = sorted(
        k for k in os.environ if k in PINNED_ENV or k.startswith(PINNED_ENV_PREFIX)
    )
    if set_knobs:
        raise BenchError(
            f"refusing to run with {', '.join(set_knobs)} set: the benchmark "
            "measures the program's defaults"
        )


def source_digest() -> str:
    """sha256 over every file under ``src/`` (path and content), so a
    result names the exact program it measured even outside git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_rep(workload: str, seed: int, *, trace: bool = False, meta: bool = False,
            oracle: bool = False, smoke: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """One repetition in a fresh interpreter; returns its JSON document.

    The child runs in its own session so that, on a timeout, its whole
    process group (including any worker processes) is killed and reaped.
    """
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--launched", repr(time.monotonic())]
    cmd += ["--trace"] * trace + ["--meta"] * meta + ["--oracle"] * oracle + ["--smoke"] * smoke
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} repetition exceeded {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition failed (exit {proc.returncode}):\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _pinned(workload: str, seed: int) -> list[str] | None:
    path = HERE / "pins" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def _mismatches(outputs: list[str], expected: list[str]) -> int:
    if len(outputs) != len(expected):
        return max(len(outputs), len(expected))
    return sum(a != b for a, b in zip(outputs, expected))


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run repetitions for ``seconds`` and aggregate them (see module doc)."""
    t0 = time.monotonic()

    def left() -> float:
        return max(RUN_LIMIT_S - (time.monotonic() - t0), 1.0)

    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(run_rep(workload, seed, meta=not plain, smoke=smoke, timeout=left()))
        if trace:
            traced.append(run_rep(workload, seed, trace=True, smoke=smoke, timeout=left()))
        elapsed = time.monotonic() - t0
        per_round = elapsed / len(plain)
        enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_REPS
        if enough and elapsed + per_round > seconds:
            break

    reps = plain + traced
    errors: list[str] = []
    expected = _pinned(workload, seed)
    source = "pinned"
    if expected is None and hasattr(WORKLOADS[workload], "oracle"):
        expected = run_rep(workload, seed, oracle=True, smoke=smoke, timeout=left())["outputs"]
        source = "oracle"
    if expected is None:  # service: each job was checked against C + A @ B
        expected, source = plain[0]["outputs"], "first repetition"
    failed = 0
    for rep in reps:
        bad = _mismatches(rep["outputs"], expected)
        failed += max(rep["failed"], bad)
        errors += rep["errors"]
        if bad:
            errors.append(f"{bad} output(s) differ from the {source} outputs")
    attempted = sum(rep["attempted"] for rep in reps)

    walls = [r["wall_s"] for r in plain]
    # latency percentiles per repetition, then the median over repetitions:
    # one repetition caught in a slow phase of the host moves it least
    result = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        "job_latency_p50_s": statistics.median(statistics.median(r["latencies"]) for r in plain),
        "job_latency_p90_s": statistics.median(p90(r["latencies"]) for r in plain),
    }
    layers = {}
    if trace:
        # the per-layer split of one traced repetition (the median one),
        # so its self times plus the unattributed rest sum to its wall
        mid = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        layers = dict(mid["layers"])
        self_total = sum(layers[name] for name in SELF_METRICS.values())
        layers["trace.wall_s"] = mid["wall_s"]
        layers["trace.unattributed_s"] = mid["wall_s"] - self_total
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(walls) - 1.0
        )
    return {
        "result": result,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "reps": len(plain),
        "traced_reps": len(traced),
        "walls": walls,
        "expected_source": source,
        "meta": plain[0].get("meta", {}),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = _spec()
        _refuse_knobs()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; known: {names}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run["layers"] if args.trace else run["result"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in metric_specs}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": run["reps"],
        "traced_repetitions": run["traced_reps"],
        "repetition_walls_s": run["walls"],
        "outputs_checked_against": run["expected_source"],
        "source_sha256": source_digest(),
        "failed_frac": run["failed"] / run["attempted"],
        **run["meta"],
    }
    correct = run["failed"] == 0 and not run["errors"]
    for err in run["errors"][:20]:
        print(f"error: {err}")
    print(f"# {json.dumps(meta)}")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
