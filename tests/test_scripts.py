"""The command-line scripts under scripts/ run to completion, and the
names perfbench traces through stay importable.

Each script runs in a fresh interpreter, as a user would start it, with the
package found on the same path as the tests.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_convergence_study_quick():
    proc = _run("convergence_study.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    assert "discrete action" in proc.stdout


def test_make_figures_writes_the_four_csvs(tmp_path):
    proc = _run("make_figures.py", "--no-plots", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ("fig1_rate_sqrt.csv", "fig2_rate_cev.csv", "fig3_float_rate.csv",
             "fig4_vol_skew.csv")
    for name in names:
        assert (tmp_path / name).stat().st_size > 0


def test_bench_layers_quick_writes_every_layer(tmp_path):
    proc = _run("bench_layers.py", "--quick", "--label", "smoke", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert out["label"] == "smoke" and out["machine"]["cores"] >= 1
    layers = out["layers"]
    for branch in ("put", "call"):
        for memo in ("cold", "warm"):
            assert layers[f"rate_cev.{branch}.{memo}"]["us_per_call"] > 0.0
            for beta in ("0.5", "0.75"):
                name = f"float_strike.rate_float_cev.beta{beta}.{branch}.{memo}"
                assert layers[name]["us_per_call"] > 0.0, name
    for name in ("specfun.hyp2f1", "pricing.price_fixed.cold",
                 "pricing.price_fixed.warm", "varsolve.minimize_fixed", "varsolve.minimize_float"):
        assert layers[name]["us_per_call"] > 0.0, name
    assert layers["mc.simulate_asian"]["ns_per_path_step"] > 0.0


def test_the_benchmarks_trace_hooks_resolve(monkeypatch):
    # perfbench/run.py --trace 1 patches these module names by getattr; a
    # cleanup that drops one breaks the traced run, not the untraced one
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    worker = importlib.import_module("worker")
    varsolve = importlib.import_module("cevasian.varsolve")
    hooks = [(module, name) for module, name, _ in worker.PATCHES] + [(varsolve, "minimize")]
    missing = [f"{module.__name__}.{name}" for module, name in hooks
               if not callable(getattr(module, name, None))]
    assert not missing


def test_the_benchmarks_import_breakdown_runs(monkeypatch):
    # perfbench/run.py --trace 1 reads scipy.optimize's line in the import
    # time of `import cevasian`; it fails if no cevasian module imports it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    setup = run.import_breakdown()
    assert set(setup) == {"setup.import_numpy_s", "setup.import_scipy_optimize_s",
                          "setup.import_cevasian_self_s"}
    assert all(value > 0.0 for value in setup.values())
