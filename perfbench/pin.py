"""Regenerate the pinned outputs of the makespan workloads.

    python3 perfbench/pin.py [--seeds 0-31] [--workload fig7-static ...]

For each seed, runs one repetition and the independent re-evaluation
(``rep.py --oracle``), requires the two to agree bit-exactly, and stores
the outputs in ``perfbench/pins/<workload>.json``.  Pins are the
behaviour contract: regenerate them only for a change that is meant to
move makespans, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, run_rep

PINNED_WORKLOADS = ("fig7-static", "dynamic-reselect")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    ap.add_argument("--workload", action="append", choices=PINNED_WORKLOADS)
    args = ap.parse_args(argv)
    for workload in args.workload or PINNED_WORKLOADS:
        path = HERE / "pins" / f"{workload}.json"
        pins = json.loads(path.read_text()) if path.is_file() else {}
        for seed in _seeds(args.seeds):
            outputs = run_rep(workload, seed)["outputs"]
            oracle = run_rep(workload, seed, oracle=True)["outputs"]
            if outputs != oracle:
                print(f"{workload} seed {seed}: outputs disagree with the oracle", file=sys.stderr)
                return 1
            pins[str(seed)] = outputs
            print(f"{workload} seed {seed}: {len(outputs)} outputs", flush=True)
        path.parent.mkdir(exist_ok=True)
        ordered = {k: pins[k] for k in sorted(pins, key=int)}
        path.write_text(json.dumps(ordered, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
