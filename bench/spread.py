"""Run one workload once per seed and print each end-to-end metric's
median and quartile spread (IQR over median), the figure the benchmark's
bounds are checked against.

    python3 bench/spread.py --workload implicit --seeds 1 2 3 4 5 --seconds 20

Runs are sequential, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:12s} median {med:.5g}  iqr/median {(q3 - q1) / med:.4f}  "
              f"max/min {max(vs) / min(vs):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
