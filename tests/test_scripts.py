"""The command-line scripts under scripts/ run to completion, and the
names perfbench traces through stay importable.

Each script runs in a fresh interpreter, as a user would start it, with the
package found on the same path as the tests.
"""

import ast
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
    for name in ("specfun.hyp2f1", "pricing.price_fixed.cold", "pricing.price_fixed.warm",
                 "pricing.price_floating.cold", "pricing.price_floating.warm",
                 "varsolve.minimize_fixed", "varsolve.minimize_float", "varsolve.newton_step",
                 "varsolve.dgtsv"):
        assert layers[name]["us_per_call"] > 0.0, name
    for name in ("beta0.5", "beta0.75", "beta0.5.one_block"):
        mc = layers[f"mc.simulate_asian.{name}"]
        assert mc["ns_per_path_step"] > 0.0 and mc["n_blocks"] >= 1, name
    assert layers["mc.simulate_asian.beta0.5.one_block"]["n_blocks"] == 1


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


def test_every_unused_import_is_a_trace_hook(monkeypatch):
    # a `noqa: F401` import exists only for perfbench to patch, so it must
    # bind a name that perfbench patches in that module: a hook cannot
    # outlive its patch, and no other unused import hides behind the noqa
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    worker = importlib.import_module("worker")
    hooks = {(module.__name__, name) for module, name, _ in worker.PATCHES}
    hooks.add(("cevasian.varsolve", "minimize"))
    found = []
    for path in sorted((ROOT / "src" / "cevasian").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                found += [(f"cevasian.{path.stem}", alias.asname or alias.name)
                          for alias in node.names]
    assert found
    assert [hook for hook in found if hook not in hooks] == []


def test_the_beta_half_trace_targets_are_the_routes_they_trace():
    # perfbench times its beta = 1/2 spans through these names: each must
    # stay the route itself, so that no hook grows back into a wrapper
    for name in ("cevasian.pricing", "cevasian.cli"):
        module = importlib.import_module(name)
        assert module.rate_sqrt is module.rate_cev
        assert module.rate_float_sqrt is module.rate_float_cev


def test_the_benchmarks_import_breakdown_runs(monkeypatch):
    # perfbench/run.py --trace 1 reads scipy.optimize's line in the import
    # time of `import cevasian`; it fails if no cevasian module imports it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    setup = run.import_breakdown()
    assert set(setup) == {"setup.import_numpy_s", "setup.import_scipy_optimize_s",
                          "setup.import_cevasian_self_s"}
    assert all(value > 0.0 for value in setup.values())


# the paper's three leading-order laws stay public and documented, although
# only the tests compare them with the exact rate and with Monte Carlo
PAPER_LAWS = {"rate_cev_large_strike", "rate_cev_small_strike", "atm_price"}


def _references(path):
    """(names a file's module-level code references, {top-level definition:
    names its body references}): loaded names, attributes, imported names and
    string constants, which is how perfbench names what it patches."""
    top, defs = set(), {}
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs.setdefault(stmt.name, set()).update(names)
        else:
            top |= names
    return top, defs


def test_every_public_function_has_a_caller_outside_tests():
    # no library code exists only for tests: every public name is referenced
    # by scripts/, perfbench/ or src/ beyond __init__, where a reference in
    # the body of a public definition counts only once that one is used
    cevasian = importlib.import_module("cevasian")
    public = set(cevasian.__all__)
    assert all(hasattr(cevasian, name) for name in public)
    assert PAPER_LAWS <= public
    used, defs = set(), {}
    for path in sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        if not path.name.startswith("test_"):
            top, inner = _references(path)
            used |= top.union(*inner.values())
    for path in sorted((ROOT / "src" / "cevasian").glob("*.py")):
        if path.name != "__init__.py":
            top, inner = _references(path)
            used |= top
            for name, names in inner.items():
                defs.setdefault(name, set()).update(names)
    grown = True
    while grown:
        refs = set().union(*(names for name, names in defs.items()
                             if name not in public or name in used))
        grown = not refs <= used
        used |= refs
    assert sorted(public - used - PAPER_LAWS) == []
