"""Run the benchmark on several seeds and print each end-to-end metric's
median and quartile spread (as a share of the median), as the acceptance
rule for BENCHMARK.json bounds computes them.

    python3 perfbench/spread.py --workload variational --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--trace", "0"], capture_output=True, text=True, check=True,
                             cwd=HERE.parent).stdout
        wall = time.perf_counter() - t0
        res = json.loads(out.strip().splitlines()[-1])
        shares.add(Fraction(res["failed"], res["attempted"]))
        print(f"seed {seed} ({wall:.0f} s): correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()), flush=True)
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:<12} median {med:.6g}  IQR/median {(q3 - q1) / med:.4f}  "
              f"min {min(vs):.6g}  max {max(vs):.6g}")
    print(f"failed shares seen: {sorted(str(s) for s in shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
