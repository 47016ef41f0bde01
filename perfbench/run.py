"""Benchmark of the cevasian library: one command, three workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the repository root.  Each workload runs in a fresh interpreter
(``worker.py``) against the sources under ``src`` for the ``run_seconds``
of BENCHMARK.json.  With one workload the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  With ``--workload all`` (the
default) it is one object keyed by workload name, whose values are such
objects.  The lines before it print the same figures for people, plus
workload-specific figures.  ``--seconds`` is accepted only with the value
of ``run_seconds``, so that every result covers the same run length.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed_form", "variational", "monte_carlo")
SETUP_REPEATS = 3     # fresh-interpreter imports timed per run; the median is setup_s
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150  # a run must end within 180 s
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONHOME", None)
    # one BLAS thread: a second one only spin-waits in these workloads (the
    # polish's CPU time doubles, its wall time does not drop), and on a busy
    # machine the spinning makes wall times swing between runs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds() -> float:
    """Median wall time of ``import cevasian`` in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cevasian"], env=child_env(),
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_breakdown() -> dict:
    """setup.* from ``python -X importtime``: numpy, scipy.optimize without
    the numpy it pulls in, and the self time of cevasian's own modules."""
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cevasian"],
                             env=child_env(), cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S).stderr
        rows = [(int(a), int(b), len(ind), name)
                for a, b, ind, name in _IMPORT_LINE.findall(out)]
        names = [r[3] for r in rows]
        i_np, i_opt = names.index("numpy"), names.index("scipy.optimize")
        numpy_us, opt_us = rows[i_np][1], rows[i_opt][1]
        # lines nested under scipy.optimize precede it with a deeper indent
        j = i_opt - 1
        while j >= 0 and rows[j][2] > rows[i_opt][2]:
            j -= 1
        if j < i_np < i_opt:
            opt_us -= numpy_us
        own_us = sum(r[0] for r in rows if r[3].split(".")[0] == "cevasian")
        samples.append((numpy_us, opt_us, own_us))
    med = [statistics.median(col) * 1e-6 for col in zip(*samples)]
    return {"setup.import_numpy_s": med[0], "setup.import_scipy_optimize_s": med[1],
            "setup.import_cevasian_self_s": med[2]}


def run_workload(name: str, seed: int, trace: int) -> dict:
    if not (ROOT / "src" / "cevasian" / "__init__.py").is_file():
        raise SystemExit(f"error: no sources at {ROOT / 'src' / 'cevasian'}")
    setup = import_breakdown() if trace else {"setup_s": setup_seconds()}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                           "--trace", str(trace)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["metrics"].update(setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(res["metrics"]) != set(units):
        raise SystemExit(f"error: metrics {sorted(res['metrics'])} differ from BENCHMARK.json")
    res["metrics"] = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
    return res


def report(name: str, res: dict) -> dict:
    """Print the figures of one workload; return its result-line object."""
    print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for key, m in res["metrics"].items():
        print(f"   {key:<46} {m['value']:>16.6g} {m['unit']}")
    for key, (value, unit) in res.get("info", {}).items():
        print(f"   {key:<46} {value:>16.6g} {unit}   (workload-specific)")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": res["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help=f"must equal run_seconds of BENCHMARK.json ({RUN_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        ap.error(f"--seconds {args.seconds:g}: runs last run_seconds = {RUN_SECONDS} "
                 "of BENCHMARK.json, so that their results compare")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: report(n, run_workload(n, args.seed, args.trace))
               for n in names}
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
