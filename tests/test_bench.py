"""Benchmark harness: built-in scenario tables, custom CSV runs, CSV output."""

import json
import math

import pytest

from cevasian import McConfig
from cevasian.bench import (
    CSV_HEADER,
    OUT_HEADER,
    BenchRow,
    Scenario,
    run_custom,
    run_floating,
    run_table1,
    run_table2,
    to_csv,
)
from cevasian import bench as bench_mod
from cevasian.cli import main

pin_tol = 5e-7


def test_table1_reproduces_pinned_values():
    rows = run_table1()
    assert len(rows) == 7
    for row, pinned in zip(rows, bench_mod._TABLE1):
        assert row.scenario.id == pinned[0]
        assert abs(row.price - pinned[-2]) <= pin_tol
        assert row.ok
        assert row.runtime_ms >= 0.0


def test_table2_reproduces_pinned_values():
    rows = run_table2()
    assert len(rows) == 9
    for row, pinned in zip(rows, bench_mod._TABLE2):
        assert row.scenario.id == pinned[0]
        assert abs(row.price - pinned[-2]) <= pin_tol
        assert row.ok


def test_floating_benchmark_row():
    rows = run_floating()
    assert len(rows) == 1
    row = rows[0]
    assert abs(row.price - 0.145241) <= 5e-6
    assert row.scenario.ref_value == pytest.approx(0.14376)
    assert row.ok


CUSTOM_HEADER = ",".join(CSV_HEADER)


def _write(tmp_path, text):
    path = tmp_path / "scenarios.csv"
    path.write_text(text)
    return str(path)


def test_run_custom_round_trip(tmp_path, capsys):
    text = CUSTOM_HEADER + "\n"
    text += "c1,2.0,2.0,fixed,call,0.02,0.0,0.14,0.5,1.0,asympt,pin,0.055474\n"
    text += "c2,1.0,1.2,floating,put,0.0,0.0,0.5,0.5,0.25,asympt,,\n"
    text += "\n"  # blank lines are skipped
    text += "c3,1.0,0.7,fixed,put,0.0,0.0,0.5,0.75,0.5,varsolve,,\n"
    text += "c4,1.0,1.0,fixed,call,0.0,0.0,0.3,0.5,0.5,mc,,\n"
    text += "c5,2.0,2.0,fixed,call,0.02,0.0,0.14,0.5,1.0,asympt,wrong,0.9\n"
    text += "c6,1.0,1.3,floating,call,0.03,0.01,0.5,0.75,0.5,varsolve,,\n"
    text += "c7,1.0,1.000001,fixed,call,0.03,0.01,0.5,0.75,0.5,varsolve,,\n"
    rows = run_custom(
        _write(tmp_path, text),
        mc_config=McConfig(n_paths=2000, n_steps=100, seed=1),
    )
    assert [r.scenario.id for r in rows] == ["c1", "c2", "c3", "c4", "c5", "c6", "c7"]
    assert rows[0].ok and abs(rows[0].rel_err) < 0.01
    # rows without a reference value are informational: ok, with NaN errors
    assert rows[1].ok and math.isnan(rows[1].rel_err)
    assert rows[2].ok and rows[2].price > 0.0
    assert rows[3].price > 0.0
    assert not rows[4].ok  # reference off by a factor -> flagged
    assert abs(rows[4].rel_err) > 0.5
    # a varsolve row prices as `cevasian price --engine varsolve` does
    for row in (rows[2], rows[5], rows[6]):
        sc = row.scenario
        argv = ["price", "--engine", "varsolve", "--json", "--style", sc.style,
                "--side", sc.side]
        for flag, value in (("--s0", sc.S0), ("--strike", sc.K_or_kappa), ("--r", sc.r),
                            ("--q", sc.q), ("--sigma", sc.sigma), ("--beta", sc.beta),
                            ("--maturity", sc.T)):
            argv += [flag, repr(value)]
        assert main(argv) == 0
        assert row.ok and row.price == json.loads(capsys.readouterr().out)["price"] > 0.0


def test_run_custom_rejects_bad_header(tmp_path):
    with pytest.raises(ValueError, match="header"):
        run_custom(_write(tmp_path, "id,S0,strike\nx,1,1\n"))


def test_run_custom_rejects_empty_file(tmp_path):
    with pytest.raises(ValueError):
        run_custom(_write(tmp_path, ""))


def test_run_custom_line_numbers_in_errors(tmp_path):
    bad_width = CUSTOM_HEADER + "\nc1,1.0,1.0,fixed,call,0.0,0.0\n"
    with pytest.raises(ValueError, match="line 2"):
        run_custom(_write(tmp_path, bad_width))
    bad_engine = CUSTOM_HEADER + "\nc1,1.0,1.1,fixed,call,0.0,0.0,0.5,0.5,1.0,pde,,\n"
    with pytest.raises(ValueError, match="line 2"):
        run_custom(_write(tmp_path, bad_engine))
    bad_number = CUSTOM_HEADER + "\nc1,1.0,1.1,fixed,call,0.0,0.0,abc,0.5,1.0,asympt,,\n"
    with pytest.raises(ValueError, match="line 2"):
        run_custom(_write(tmp_path, bad_number))


@pytest.mark.parametrize("ref", ["0", "-0.0", "nan", "inf", "-inf"])
def test_run_custom_refuses_a_reference_value_that_is_zero_or_not_finite(tmp_path, ref):
    text = CUSTOM_HEADER + "\n"
    text += "c1,2.0,2.0,fixed,call,0.02,0.0,0.14,0.5,1.0,asympt,pin,0.055474\n"
    text += f"c2,2.0,2.0,fixed,call,0.02,0.0,0.14,0.5,1.0,asympt,pin,{ref}\n"
    with pytest.raises(ValueError, match="line 3: ref_value must be finite and non-zero"):
        run_custom(_write(tmp_path, text))


def test_run_custom_empty_cells_take_the_fields_defaults(tmp_path):
    text = CUSTOM_HEADER + "\n" + "c1, 2.0 ,2.0,fixed,call,0.02,0.0,0.14,0.5,1.0, , ,\n"
    (row,) = run_custom(_write(tmp_path, text))
    assert row.scenario == Scenario("c1", 2.0, 2.0, "fixed", "call", 0.02, 0.0, 0.14, 0.5, 1.0)
    assert row.scenario.engine == "asympt" and math.isnan(row.scenario.ref_value)
    assert row.ok and math.isnan(row.abs_err) and math.isnan(row.rel_err)


def test_to_csv_deterministic(tmp_path):
    rows = run_floating()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    to_csv(rows, str(p1))
    to_csv(rows, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == ",".join(OUT_HEADER)
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "true"


def test_to_csv_serializes_missing_reference(tmp_path):
    sc = Scenario(id="x", S0=1.0, K_or_kappa=1.5, style="fixed", side="call",
                  r=0.0, q=0.0, sigma=0.5, beta=0.5, T=1.0)
    row = BenchRow(scenario=sc, price=0.25, abs_err=float("nan"),
                   rel_err=float("nan"), ok=True)
    out = tmp_path / "c.csv"
    to_csv([row], str(out))
    fields = out.read_text().splitlines()[1].split(",")
    ref_idx = OUT_HEADER.index("ref_value")
    assert fields[ref_idx] == ""
    assert fields[OUT_HEADER.index("abs_err")] == ""
