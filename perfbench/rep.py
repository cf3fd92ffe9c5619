"""One cold repetition of a workload, in a fresh interpreter.

Run by ``run.py`` once per repetition, so the program's caches (the
``lru_cache``s of ``repro.core.chunks``, the batch compile caches, the
kernel instances) start empty every time, as they do for a user's CLI
invocation.  Prints one JSON document on its last stdout line.

    python3 perfbench/rep.py --workload fig7-static --seed 3 [--trace]
        [--launched <time.monotonic() of the parent at launch>]
        [--oracle] [--meta] [--smoke]
"""

from __future__ import annotations

import time

_T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="time each layer")
    ap.add_argument("--launched", type=float, default=None)
    ap.add_argument("--oracle", action="store_true", help="independent re-evaluation only")
    ap.add_argument("--meta", action="store_true", help="also report run metadata")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (benchmark tests)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    launched = args.launched if args.launched is not None else _T_START
    clock = None
    if args.trace:
        from layers import LayerClock, install_repro_layers

        clock = install_repro_layers(LayerClock())
    state = wl.setup(args.seed, args.smoke)
    setup_s = time.monotonic() - launched
    try:
        if args.oracle:
            print(json.dumps({"outputs": wl.oracle(state)}))
            return 0
        outcome = wl.run(state)
    finally:
        wl.close(state)
    if clock is not None:
        clock.restore()

    doc = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies": outcome.latencies,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "outputs": outcome.outputs,
        "errors": outcome.errors,
        "layers": dict(outcome.layers),
    }
    if clock is not None:
        from layers import layer_metrics

        admission = args.workload == "service-open-loop"
        doc["layers"].update(layer_metrics(clock, admission=admission))
    if args.meta:
        import os

        # git describe may look for a repository inside the checkout only
        os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
        from repro.obs import run_metadata
        from repro.sim.kernels import resolve_kernel

        doc["meta"] = {
            "kernel": resolve_kernel(None).name,
            "engine": "fast (run_experiment default)",
            "run_metadata": run_metadata(),
        }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
