"""Run one workload in this interpreter and print its result as JSON.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.  With
``--trace 0`` it runs whole rounds until ``--seconds`` have passed and
reports the end-to-end metrics; with ``--trace 1`` it runs the workload's
fixed number of rounds once untraced and once traced, reports the
per-layer metrics and writes the spans to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

import cevasian
from cevasian import bench, cli, mc, pricing, varsolve

import workloads
from spans import SpanStats, Tracer

# the package exports a function of the same name, so fetch the module itself
rate_cev = importlib.import_module("cevasian.rate_cev")

RATE_SPANS = ("rate_sqrt", "rate_cev", "float_strike.rate_float_sqrt",
              "float_strike.rate_float_cev")

# (module, name, span): the module-level names through which the layers call
# each other, and the entry points the benchmark itself calls
PATCHES = [
    (rate_cev, "hyp2f1", "specfun.hyp2f1"),
    (pricing, "rate_sqrt", "rate_sqrt"),
    (pricing, "rate_cev", "rate_cev"),
    (pricing, "rate_float_sqrt", "float_strike.rate_float_sqrt"),
    (pricing, "rate_float_cev", "float_strike.rate_float_cev"),
    (pricing, "price_fixed", "pricing.price_fixed"),
    (pricing, "price_floating", "pricing.price_floating"),
    (bench, "price_fixed", "pricing.price_fixed"),
    (bench, "price_floating", "pricing.price_floating"),
    (bench, "run_table1", "bench.tables"),
    (bench, "run_table2", "bench.tables"),
    (bench, "run_floating", "bench.tables"),
    (cli, "rate_sqrt", "rate_sqrt"),
    (cli, "rate_cev", "rate_cev"),
    (cli, "rate_float_sqrt", "float_strike.rate_float_sqrt"),
    (cli, "rate_float_cev", "float_strike.rate_float_cev"),
    (cli, "equiv_lognormal_vol", "pricing.equiv_lognormal_vol"),
    (cli, "equiv_normal_vol", "pricing.equiv_normal_vol"),
    (cli, "price_floating", "pricing.price_floating"),
    (cli, "cmd_vol_curve", "cli.vol_curve"),
    (cli, "cmd_float", "cli.float"),
    (varsolve, "minimize_fixed", "varsolve.minimize_fixed"),
    (varsolve, "minimize_float", "varsolve.minimize_float"),
    (mc, "simulate_asian", "mc.simulate_asian"),
    (mc, "simulate_floating", "mc.simulate_floating"),
]


def lbfgs_counts(res) -> dict:
    return {"nit": int(res.nit), "nfev": int(res.nfev)}


def run_round(ops: list, tracer: Tracer | None) -> float:
    """Run the operations one after another; return the round's wall time."""
    start = time.perf_counter()
    for op in ops:
        fn = op.fn if tracer is None else tracer.wrap("op." + op.kind, op.fn)
        t0 = time.perf_counter()
        try:
            op.value = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = exc
        op.seconds = time.perf_counter() - t0
    return time.perf_counter() - start


def evaluate(ops: list) -> tuple[int, list[str]]:
    """Check every output; return (failed operations, correctness errors).

    An operation fails when it raises, or when it is a probe and its output
    is wrong.  A wrong output of any other operation is a correctness error.
    """
    errors = []
    for op in ops:
        if op.error is not None:
            op.failed = True
            if not op.probe:
                print(f"failed: {op.kind}: {op.error!r}", file=sys.stderr)
            continue
        errs = op.check(op.value) if op.check is not None else []
        if errs and op.probe:
            op.failed = True
        elif errs:
            errors += errs
    return sum(op.failed for op in ops), errors


def timing(ops: list, wall: float) -> dict:
    """ops_per_s and op_p50_ms over the timed operations that succeeded."""
    timed = [op for op in ops if op.timed]
    ok = [op.seconds for op in timed if not op.failed]
    untimed = sum(op.seconds for op in ops if not op.timed)
    return {"ops_per_s": len(ok) / (wall - untimed),
            "op_p50_ms": 1e3 * float(np.median(ok)),
            "samples": ok}


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, ms): the highest of p99.9/p99/p95/p90 with at least ten
    samples beyond it; None below forty samples."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(samples) * (100.0 - p) / 100.0 >= 10.0:
            return p, 1e3 * float(np.percentile(samples, p))
    return None


def run_untraced(wl, seconds: float) -> dict:
    ops, wall, rounds = [], 0.0, 0
    while rounds == 0 or wall < seconds:
        batch = wl.make_round()
        wall += run_round(batch, None)
        ops += batch
        rounds += 1
    failed, errors = evaluate(ops)
    if hasattr(wl, "rerun_check"):
        errors += wl.rerun_check(ops)
    t = timing(ops, wall)
    info = wl.info(ops)
    tl = tail(t.pop("samples"))
    if tl is not None:
        info["op_tail_ms"] = (tl[1], f"ms (p{tl[0]:g})")
    return {"ops": ops, "failed": failed, "errors": errors, "metrics": t, "info": info}


def per_layer(st: SpanStats, ops: list, rounds: int) -> dict:
    def mean(xs) -> float:
        return float(np.mean(xs)) if len(xs) else 0.0

    def per_call_us(*names: str) -> float:
        return 1e6 * mean([st.duration(i) for i in st.ids(*names)])

    def per(parents: list[int], *names: str) -> float:
        return mean([len(st.descendants(i, *names)) for i in parents])

    n_ops = sum(len(ix) for name, ix in st.by_name.items() if name.startswith("op."))
    m = {}
    m["specfun.hyp2f1.calls_per_op"] = len(st.ids("specfun.hyp2f1")) / n_ops
    m["specfun.hyp2f1.us_per_call"] = per_call_us("specfun.hyp2f1")
    m["rate_sqrt.us_per_call"] = per_call_us("rate_sqrt")
    m["rate_cev.us_per_call"] = per_call_us("rate_cev")
    m["rate_cev.self_us_per_call"] = 1e6 * mean([st.self_time(i) for i in st.ids("rate_cev")])
    m["float_strike.rate_float_sqrt.us_per_call"] = per_call_us("float_strike.rate_float_sqrt")
    m["float_strike.rate_float_cev.solves_per_call"] = per(
        st.ids("float_strike.rate_float_cev"), "varsolve.minimize_float")
    prices = st.ids("pricing.price_fixed", "pricing.price_floating")
    m["pricing.self_us_per_price"] = 1e6 * mean([st.self_time(i) for i in prices])
    m["pricing.rate_calls_per_price"] = per(prices, *RATE_SPANS)

    solves = st.ids("varsolve.minimize_fixed", "varsolve.minimize_float")
    polish = [st.descendants(i, "varsolve.lbfgs") for i in solves]
    solve_ms = [1e3 * st.duration(i) for i in solves]
    polish_ms = [1e3 * sum(st.duration(j) for j in lb) for lb in polish]
    m["varsolve.ms_per_solve"] = mean(solve_ms)
    m["varsolve.init_ms_per_solve"] = mean([a - b for a, b in zip(solve_ms, polish_ms)])
    m["varsolve.lbfgs.rounds_per_solve"] = mean([len(lb) for lb in polish])
    m["varsolve.lbfgs.iterations_per_solve"] = mean(
        [sum(st.spans[j][4]["nit"] for j in lb) for lb in polish])
    m["varsolve.lbfgs.evals_per_solve"] = mean(
        [sum(st.spans[j][4]["nfev"] for j in lb) for lb in polish])
    m["varsolve.lbfgs.ms_per_solve"] = mean(polish_ms)

    curves = st.ids("cli.vol_curve")
    m["cli.vol_curve.rate_calls_per_point"] = (
        per(curves, *RATE_SPANS) / workloads.CURVE_POINTS)
    m["cli.float.solves_per_command"] = per(st.ids("cli.float"), "varsolve.minimize_float")

    mc_ops = [op for op in ops if op.kind == "mc" and not op.failed]
    sims = [j for i in st.ids("op.mc")
            for j in st.descendants(i, "mc.simulate_asian", "mc.simulate_floating")]
    steps = sum(op.meta["path_steps"] for op in mc_ops)
    m["mc.ns_per_path_step"] = 1e9 * sum(st.duration(i) for i in sims) / steps if steps else 0.0
    m["mc.variance_per_path"] = mean([op.value.std_error ** 2 * op.meta["paths"]
                                      for op in mc_ops])
    m["bench.tables_ms"] = 1e3 * sum(st.duration(i) for i in st.ids("bench.tables")) / rounds
    return m


def run_traced(wl_cls, seed: int, out_dir: Path) -> dict:
    """The workload's fixed rounds untraced, then the same inputs traced."""
    def rounds(tracer):
        wl = wl_cls(seed)
        ops, wall = [], 0.0
        for _ in range(wl_cls.trace_rounds):
            batch = wl.make_round()
            wall += run_round(batch, tracer)
            ops += batch
        return ops, wall

    # a short workload's first round pays one-time costs (lazy imports, first
    # calls) that would otherwise count against the untraced pass
    for _ in range(wl_cls.warmup_rounds):
        run_round(wl_cls(seed).make_round(), None)
    plain_ops, plain_wall = rounds(None)
    tracer = Tracer()
    for module, attr, name in PATCHES:
        tracer.patch(module, attr, name)
    tracer.patch(varsolve, "minimize", "varsolve.lbfgs", lbfgs_counts)
    with tracer:
        traced_ops, traced_wall = rounds(tracer)
    failed, errors = evaluate(plain_ops)
    failed2, errors2 = evaluate(traced_ops)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl_cls.name}-seed{seed}.json")
    m = per_layer(SpanStats(tracer.spans), traced_ops, wl_cls.trace_rounds)
    m["trace.overhead_ops_per_s"] = (timing(traced_ops, traced_wall)["ops_per_s"]
                                     - timing(plain_ops, plain_wall)["ops_per_s"])
    return {"ops": plain_ops + traced_ops, "failed": failed + failed2,
            "errors": errors + errors2, "metrics": m, "info": {}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    if Path(cevasian.__file__).resolve().parents[1] != root / "src":
        print(f"error: imported cevasian from {cevasian.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        res = run_traced(wl_cls, args.seed, root / "perfbench" / "out")
    else:
        res = run_untraced(wl_cls(args.seed), args.seconds)
    for msg in res["errors"][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not res["errors"], "attempted": len(res["ops"]),
                      "failed": res["failed"], "metrics": res["metrics"],
                      "info": {k: list(v) for k, v in res["info"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
