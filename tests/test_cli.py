"""Command-line interface, exercised in-process through main(argv)."""

import importlib
import json
import math

import numpy as np
import pytest

from cevasian import ModelParams, OptionSpec, price_fixed
from cevasian.bench import BenchRow, Scenario
from cevasian.cli import main
from cevasian.pricing import equiv_vol
from cevasian.rate_cev import rate_cev, rate_sqrt
from cevasian.varsolve import minimize_float


def test_price_human_readable(capsys):
    rc = main(["price", "--s0", "2", "--sigma", "0.14", "--beta", "0.5",
               "--r", "0.02", "--strike", "2", "--maturity", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "price 0.055474" in out
    assert "note: vol from at-the-money series" in out


def test_price_json_round_trip(capsys):
    rc = main(["price", "--s0", "2", "--sigma", "0.14", "--beta", "0.5",
               "--r", "0.02", "--strike", "2", "--maturity", "1", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    ref = price_fixed(
        OptionSpec("fixed", "call", 2.0, 1.0),
        ModelParams(S0=2.0, sigma=0.14, beta=0.5, r=0.02),
    )
    assert payload["price"] == ref.price  # full precision survives the JSON path
    assert payload["vol_kind"] == "lognormal"
    assert payload["engine"] == "asympt"


@pytest.mark.parametrize("style", ["fixed", "floating"])
def test_price_variational_engine_reports_the_same_fields(style, capsys):
    args = ["price", "--sigma", "0.5", "--beta", "0.75", "--style", style,
            "--strike", "1.3", "--maturity", "0.5", "--json"]
    assert main(args) == 0
    closed = json.loads(capsys.readouterr().out)
    assert main(args + ["--engine", "varsolve"]) == 0
    varsolve = json.loads(capsys.readouterr().out)
    assert varsolve.keys() == closed.keys()
    assert varsolve["engine"] == "varsolve"
    assert varsolve["vol_kind"] == closed["vol_kind"]
    assert varsolve["forward"] == closed["forward"]
    for key in ("price", "equiv_vol", "d1", "d2"):
        assert varsolve[key] == pytest.approx(closed[key], rel=1e-4)


@pytest.mark.parametrize("args, note", [
    (["--beta", "0.5", "--strike", "1.3"], ""),
    (["--beta", "0.5", "--strike", "1.3", "--engine", "varsolve"],
     "rate from variational solver"),
    (["--beta", "0.75", "--strike", "1.3", "--engine", "varsolve"],
     "rate from variational solver"),
    (["--beta", "0.75", "--strike", "1.000001", "--engine", "varsolve"],
     "vol from at-the-money series"),
    (["--beta", "0.5", "--style", "floating", "--strike", "1.3"], ""),
    (["--beta", "0.5", "--style", "floating", "--strike", "1.3", "--engine", "varsolve"],
     "rate from variational solver"),
    (["--beta", "0.75", "--style", "floating", "--strike", "1.3"], ""),
    (["--beta", "0.75", "--style", "floating", "--strike", "1.000001"],
     "vol from at-the-money series"),
    # the solver stalls this close to the money, so it must never be asked
    (["--beta", "0.75", "--strike", "1.000000001", "--engine", "varsolve"],
     "vol from at-the-money series"),
    (["--beta", "0.75", "--style", "floating", "--strike", "1.000000001",
      "--engine", "varsolve"], "vol from at-the-money series"),
])
def test_price_note_names_the_route_used(args, note, capsys):
    rc = main(["price", "--sigma", "0.5", "--maturity", "0.5", "--json"] + args)
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["note"] == note


@pytest.mark.parametrize("beta", [0.5, 0.75])
@pytest.mark.parametrize("strike", [1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-7, 1.0 - 1e-7])
def test_rate_variational_engine_takes_the_atm_series_as_price_does(beta, strike, capsys):
    # the solver stalls this close to the money; `rate` yields to the ATM
    # series inside ATM_WINDOW, as `price --engine varsolve` does
    rc = main(["rate", "--engine", "varsolve", "--sigma", "0.5", "--beta", str(beta),
               "--strike", repr(strike), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rate"] == rate_cev(strike, ModelParams(S0=1.0, sigma=0.5, beta=beta)).value
    assert out["branch"] == "atm" and out["engine"] == "varsolve"


def test_rate_closed_form(capsys):
    rc = main(["rate", "--sigma", "0.5", "--beta", "0.5", "--strike", "1.5"])
    out = capsys.readouterr().out
    assert rc == 0
    value = float(out.split()[1])
    ref = rate_sqrt(1.5, ModelParams(S0=1.0, sigma=0.5, beta=0.5)).value
    assert value == pytest.approx(ref, rel=1e-5)
    assert "branch call" in out


def test_rate_variational_engine_agrees(capsys):
    rc = main(["rate", "--sigma", "0.5", "--beta", "0.5", "--strike", "1.5",
               "--engine", "varsolve"])
    out = capsys.readouterr().out
    assert rc == 0
    value = float(out.split()[1])
    ref = rate_sqrt(1.5, ModelParams(S0=1.0, sigma=0.5, beta=0.5)).value
    assert value == pytest.approx(ref, rel=1e-4)


def test_rate_variational_engine_reports_its_certificate(capsys):
    # beta near 1 at K/S0 = 1e3: the path rises to 1e6 S0
    rc = main(["rate", "--engine", "varsolve", "--beta", "0.99", "--sigma", "0.5",
               "--strike", "1000", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(out) == {"rate", "engine", "branch", "iterations", "kkt_residual",
                        "constraint_err", "rungs"}
    assert out["branch"] == "call"
    assert out["rungs"] == 1 and out["iterations"] >= 1
    assert 0.0 <= out["kkt_residual"] <= 1e-12
    ref = rate_cev(1000.0, ModelParams(S0=1.0, sigma=0.5, beta=0.99)).value
    assert out["rate"] == pytest.approx(ref, rel=1e-4)
    assert main(["rate", "--engine", "varsolve", "--beta", "0.99", "--sigma", "0.5",
                 "--strike", "1000"]) == 0
    assert capsys.readouterr().out.startswith("rate ")


def test_rate_variational_engine_at_a_spot_of_1e200(capsys):
    # varsolve solves for g/S0, so S0 and sigma only scale its results
    rc = main(["rate", "--engine", "varsolve", "--s0", "1e200", "--sigma", "1e25",
               "--beta", "0.75", "--strike", "1.5e200", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    ref = rate_cev(1.5e200, ModelParams(S0=1e200, sigma=1e25, beta=0.75)).value
    assert out["rate"] == pytest.approx(ref, rel=1e-4)


def test_float_json_reports_the_variational_certificate(capsys):
    # the variational solver's certificate stays on minimize_float ...
    params = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    value, info = minimize_float(0.05, params, full_output=True)
    assert info["rungs"] > 1  # small kappa climbs the continuation ladder
    assert 0.0 <= info["kkt_residual"] <= 1e-12
    assert abs(info["constraint_err"]) <= 1e-12 and info["iterations"] >= info["rungs"]
    # ... while `cevasian float` reports the closed route's solve at every beta
    for beta in ("0.75", "0.5"):
        assert main(["float", "--sigma", "0.5", "--kappa", "0.05", "--maturity", "1", "--json",
                     "--beta", beta]) == 0
        out = json.loads(capsys.readouterr().out)
        assert not {"rungs", "kkt_residual", "constraint_err"} & out.keys()
        assert out["branch"] == "call" and 0.0 < out["v"] < out["u"] < 1.0
        assert 1 <= out["iterations"] <= 10 and 0.0 <= out["residual"] < 1e-13
        if beta == "0.75":  # n = 800 carries the grid's O(1/n^2) error, 3.3e-5 here
            assert out["rate"] == pytest.approx(value, rel=1e-4)


@pytest.mark.parametrize("kappa, branch", [("0.5", "call"), ("1.3", "put"), ("1e200", "put"),
                                           ("0.01", "call"), ("1.000001", "atm")])
def test_float_json_reports_the_newton_solve_at_beta_half(capsys, kappa, branch):
    # the root solve of the closed form: its evaluations and residual, both 0
    # where no equation is solved (the ATM series)
    assert main(["float", "--sigma", "0.5", "--beta", "0.5", "--kappa", kappa, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["branch"] == branch
    if kappa == "1.000001":
        assert out["iterations"] == 0 and out["residual"] == 0.0
    else:
        assert 1 <= out["iterations"] <= 10 and 0.0 <= out["residual"] < 1e-13


def test_vol_curve_to_file(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    rc = main(["vol-curve", "--sigma", "0.5", "--beta", "0.75",
               "--n", "5", "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "K_over_S0,K,rate,sigma_ln"
    assert len(lines) == 6  # header + 5 points
    # the mid point of the default range is at the money: zero rate
    atm = [ln for ln in lines[1:] if ln.startswith("1,")]
    assert atm and atm[0].split(",")[2] == "0"


def test_vol_curve_json_with_out_writes_the_csv_too(tmp_path, capsys):
    out_file = tmp_path / "vc.csv"
    args = ["vol-curve", "--sigma", "0.5", "--beta", "0.75", "--n", "3"]
    assert main(args + ["--json", "--out", str(out_file)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [row["K_over_S0"] for row in json.loads(printed[0])] == [0.5, 1.0, 2.0]
    assert printed[1:] == [f"wrote {out_file}"]
    csv_text = out_file.read_text()
    assert main(args) == 0  # the same CSV the text view prints
    assert capsys.readouterr().out.replace("\r\n", "\n") == csv_text.replace("\r\n", "\n")


RECORD_COMMANDS = [
    ["price", "--s0", "2", "--sigma", "0.14", "--beta", "0.5", "--r", "0.02", "--strike", "2",
     "--maturity", "1"],
    ["price", "--sigma", "0.5", "--beta", "0.75", "--style", "floating", "--side", "put",
     "--strike", "0.8", "--maturity", "0.5", "--engine", "varsolve"],
    ["rate", "--sigma", "0.5", "--beta", "0.75", "--strike", "1.5"],
    ["rate", "--sigma", "0.5", "--beta", "0.75", "--strike", "30", "--engine", "varsolve"],
    ["float", "--sigma", "0.5", "--beta", "0.75", "--kappa", "1.3"],
    ["float", "--sigma", "0.7", "--beta", "0.5", "--r", "0.04", "--kappa", "1",
     "--maturity", "1"],
    ["float", "--sigma", "0.5", "--beta", "0.6", "--kappa", "0.7", "--side", "call",
     "--maturity", "0.5"],
    ["mc", "--sigma", "0.5", "--beta", "0.5", "--strike", "1.1", "--maturity", "0.5",
     "--n-paths", "2000", "--n-steps", "50", "--seed", "3"],
]


@pytest.mark.parametrize("argv", RECORD_COMMANDS, ids=lambda a: "-".join(a[:1] + a[-4:]))
def test_text_lines_are_a_rounded_view_of_the_json_record(argv, capsys):
    assert main(argv + ["--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        key, value = line.split(" ", 1)
        key = key.rstrip(":")
        assert key in record, line
        field = record[key]
        if isinstance(field, str):
            assert value == field, line
        else:
            assert float(value.split()[0]) == round(field, 6), line
    assert ("note" in {ln.split()[0].rstrip(":") for ln in lines}) == bool(record.get("note"))


def test_float_subcommand(capsys):
    rc = main(["float", "--sigma", "0.7", "--beta", "0.5", "--r", "0.04",
               "--kappa", "1.0", "--maturity", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "price 0.145241" in out
    assert "sigma_n" in out


def test_mc_deterministic_output(capsys):
    args = ["mc", "--sigma", "0.5", "--beta", "0.5", "--strike", "1.1",
            "--maturity", "0.5", "--n-paths", "5000", "--n-steps", "100",
            "--seed", "21"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "std_error" in out1
    # 2,500 antithetic pairs are one block; 100 steps per unit maturity
    assert "n_steps 50\nn_blocks 1\n" in out1
    assert main(args + ["--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["n_steps"], out["n_blocks"]) == (50, 1)


def test_bench_table_exit_code(capsys):
    rc = main(["bench", "--table", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "t1c1" in out
    assert "0 outside tolerance" in out


def test_bench_flags_failures(monkeypatch, capsys):
    sc = Scenario(id="fake", S0=1.0, K_or_kappa=1.1, style="fixed", side="call",
                  r=0.0, q=0.0, sigma=0.5, beta=0.5, T=1.0, ref_value=1.0)
    bad = BenchRow(scenario=sc, price=0.5, abs_err=0.5, rel_err=-0.5, ok=False)
    monkeypatch.setattr("cevasian.bench.run_table1", lambda: [bad])
    rc = main(["bench", "--table", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_bench_custom_csv_and_out(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text(
        "id,S0,K_or_kappa,style,side,r,q,sigma,beta,T,engine,ref_name,ref_value\n"
        "c1,2.0,2.0,fixed,call,0.02,0.0,0.14,0.5,1.0,asympt,pin,0.055474\n"
    )
    dst = tmp_path / "out.csv"
    rc = main(["bench", "--custom", str(src), "--out", str(dst)])
    capsys.readouterr()
    assert rc == 0
    lines = dst.read_text().splitlines()
    assert lines[0].startswith("id,S0,K_or_kappa")
    assert len(lines) == 2


def test_bench_json_reports_each_rows_runtime(tmp_path, capsys):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    runs = []
    for out in outs:
        assert main(["bench", "--table", "floating", "--json", "--out", str(out)]) == 0
        runs.append(json.loads(capsys.readouterr().out.splitlines()[0]))
    for rows in runs:
        assert rows and all(type(r["runtime_ms"]) is float and r["runtime_ms"] > 0.0
                            for r in rows)
    # the CSV leaves the runtime out, so that it stays deterministic
    assert outs[0].read_text() == outs[1].read_text()
    assert "runtime" not in outs[0].read_text()


@pytest.mark.parametrize("ref", ["0", "nan"])
def test_bench_custom_reference_value_of_zero_exits_two(tmp_path, ref, capsys):
    src = tmp_path / "in.csv"
    src.write_text("id,S0,K_or_kappa,style,side,r,q,sigma,beta,T,engine,ref_name,ref_value\n"
                   f"c1,2.0,2.0,fixed,call,0.02,0.0,0.14,0.5,1.0,asympt,pin,{ref}\n")
    assert main(["bench", "--custom", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {src} line 2: ref_value must be finite and non-zero, "
                            f"got {float(ref)}\n")


def test_figures_outputs(tmp_path, capsys):
    rc = main(["figures", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    expected = {
        "fig1_rate_sqrt.csv": 242,
        "fig2_rate_cev.csv": 242,
        "fig3_float_rate.csv": 242,
        "fig4_vol_skew.csv": 202,
    }
    for name, n_lines in expected.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == n_lines, name
    fig2 = (tmp_path / "fig2_rate_cev.csv").read_text().splitlines()
    assert fig2[0] == "K_over_S0,I_beta_half,I_beta_two_thirds,I_beta_five_sixths"
    atm = [ln for ln in fig2[1:] if ln.startswith("1,")]
    assert atm == ["1,0,0,0"]


def test_exit_code_two_on_bad_model(capsys):
    rc = main(["price", "--sigma", "0.5", "--beta", "1.2",
               "--strike", "1.0", "--maturity", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "beta" in err
    # NaN passes every comparison-based range check; it must still be refused
    args = {"--s0": "1", "--sigma": "0.5", "--beta": "0.75", "--r": "0.02",
            "--q": "0.0", "--strike": "1.1", "--maturity": "1"}
    for flag in ("--r", "--q", "--s0", "--sigma", "--strike", "--maturity"):
        rc = main(["price"] + [tok for k, v in {**args, flag: "nan"}.items() for tok in (k, v)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["rate", "--engine", "varsolve", "--strike", "5e-4"],
    ["price", "--style", "floating", "--engine", "varsolve", "--strike", "5e-4",
     "--maturity", "1"],
])
def test_exit_code_two_on_an_infeasible_variational_target(argv, capsys):
    rc = main(argv + ["--sigma", "0.5", "--beta", "0.75"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "1/(2n) = 0.000625" in captured.err


def test_exit_code_two_on_a_single_antithetic_pair(capsys):
    rc = main(["mc", "--sigma", "0.5", "--beta", "0.5", "--strike", "1",
               "--maturity", "1", "--n-paths", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "n_paths" in captured.err


def test_exit_code_three_on_unbracketable_root(capsys):
    # K/S0 = 1e-310 lies below the normal doubles, where no root is bracketed
    rc = main(["rate", "--sigma", "0.5", "--beta", "0.5001", "--strike", "1e-310"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "not bracketed" in err


def test_rate_far_out_of_the_money_call_exits_zero(capsys):
    rc = main(["rate", "--sigma", "0.5", "--beta", "0.5", "--strike", "1e24", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["branch"] == "call"
    assert math.isfinite(out["rate"])


def test_float_solves_the_variational_problem_once(monkeypatch, capsys):
    # once for `price --engine varsolve`, never for `cevasian float`
    import cevasian.varsolve as varsolve

    calls = []
    real = varsolve.minimize_float

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(varsolve, "minimize_float", counted)
    rc = main(["float", "--sigma", "0.5", "--beta", "0.75", "--r", "0.03",
               "--kappa", "1.5", "--maturity", "1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert calls == []
    assert out["sigma_n"] == pytest.approx(0.5 / math.sqrt(2.0 * out["rate"]), rel=1e-14)
    assert out["note"] == ""
    rc = main(["price", "--style", "floating", "--engine", "varsolve", "--sigma", "0.5",
               "--beta", "0.75", "--r", "0.03", "--strike", "1.5", "--maturity", "1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(calls) == 1
    assert out["note"] == "rate from variational solver"


def test_floating_varsolve_engine_checks_the_closed_route(capsys):
    # the variational engine stays an independent check of rate_float_cev
    args = ["price", "--style", "floating", "--sigma", "0.5", "--beta", "0.75",
            "--strike", "1.3", "--maturity", "0.5"]
    assert main(args) == 0
    closed = capsys.readouterr().out
    assert main(args + ["--engine", "varsolve"]) == 0
    out = capsys.readouterr().out
    assert "note: rate from variational solver" in out
    assert "note:" not in closed
    assert main(args + ["--json"]) == 0
    ref = json.loads(capsys.readouterr().out)["price"]
    assert main(args + ["--engine", "varsolve", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["price"] == pytest.approx(ref, rel=1e-5)


@pytest.mark.parametrize("beta", ["0.5", "0.75"])
def test_vol_curve_rows_equal_the_library_at_the_same_strikes(capsys, beta):
    # the CLI's strikes are Python floats; each row is the library's rate and
    # vol there, to the last bit
    argv = ["vol-curve", "--s0", "1.7", "--sigma", "0.4", "--beta", beta, "--k-min", "0.2",
            "--k-max", "5", "--n", "33", "--json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    params = ModelParams(S0=1.7, sigma=0.4, beta=float(beta))
    ratios = np.exp(np.linspace(math.log(0.2), math.log(5.0), 33)).tolist()
    assert [row["K_over_S0"] for row in rows] == ratios
    for row, m in zip(rows, ratios):
        K = m * 1.7
        rate = rate_cev(K, params)
        assert (row["K"], row["rate"]) == (K, rate.value)
        assert row["sigma_ln"] == equiv_vol("fixed", K, params, rate)


def test_vol_curve_solves_each_rate_once(monkeypatch, capsys):
    # every caller of the rate in cli and pricing is counted
    calls = []
    real = rate_cev

    def counted(K, params):
        calls.append(K)
        return real(K, params)

    for module in ("cevasian.cli", "cevasian.pricing"):
        monkeypatch.setattr(importlib.import_module(module), "rate_cev", counted)
    rc = main(["vol-curve", "--sigma", "0.5", "--beta", "0.75", "--n", "7", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(calls) == len(rows) == 7
    for row in rows:
        if row["rate"] > 0.0:
            x = math.log(row["K_over_S0"])
            assert row["sigma_ln"] == pytest.approx(abs(x) / math.sqrt(2.0 * row["rate"]),
                                                    rel=1e-14)



def test_rate_json_reports_the_root_solve(capsys):
    for beta, strike, branch in (("0.75", "1.5", "call"), ("0.75", "0.5", "put"),
                                 ("0.5", "1.5", "call"), ("0.5", "0.5", "put"),
                                 ("0.75", "1.000001", "atm")):
        assert main(["rate", "--sigma", "0.5", "--beta", beta, "--strike", strike,
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["branch"] == branch
        if branch == "atm":
            assert out["iterations"] == 0 and out["residual"] == 0.0
        else:
            assert 1 <= out["iterations"] <= 12
            assert 0.0 <= out["residual"] < 1e-12


SEQUENCE = [
    ["price", "--sigma", "0.5", "--beta", "0.75", "--strike", "1.2", "--maturity", "1",
     "--json"],
    ["rate", "--sigma", "0.5", "--beta", "0.5", "--strike", "0.7", "--json"],
    ["vol-curve", "--sigma", "0.5", "--beta", "0.9", "--n", "5", "--json"],
    ["float", "--sigma", "0.5", "--beta", "0.5", "--kappa", "1.3", "--maturity", "1",
     "--json"],
    ["price", "--sigma", "0.5", "--beta", "0.5", "--style", "floating", "--strike", "0.8",
     "--maturity", "0.5", "--side", "put"],
    ["rate", "--sigma", "0.5", "--beta", "0.5001", "--strike", "1e-310"],
    ["rate", "--sigma", "0.5", "--beta", "0.75", "--strike", "2"],
]


def test_consecutive_commands_match_fresh_parsers(monkeypatch, capsys):
    cli = importlib.import_module("cevasian.cli")
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    consecutive = []
    for argv in SEQUENCE:
        rc = main(argv)
        consecutive.append((rc, capsys.readouterr()))
    assert len(built) == 1  # one parser for the whole sequence
    for argv, seen in zip(SEQUENCE, consecutive):
        cli._parser.cache_clear()
        rc = main(argv)
        assert (rc, capsys.readouterr()) == seen
    assert [rc for rc, _ in consecutive] == [0, 0, 0, 0, 0, 3, 0]
    cli._parser.cache_clear()


@pytest.mark.parametrize("name, argv", [
    ("cmd_float", ["float", "--sigma", "0.5", "--beta", "0.5", "--kappa", "1.3"]),
    ("cmd_vol_curve", ["vol-curve", "--sigma", "0.5", "--beta", "0.75"]),
    ("cmd_rate", ["rate", "--sigma", "0.5", "--beta", "0.75", "--strike", "1.5"]),
])
def test_a_patched_command_is_the_one_that_runs(name, argv, monkeypatch, capsys):
    cli = importlib.import_module("cevasian.cli")
    main(argv)  # the parser exists before the patch
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, name, lambda args: seen.append(args.command) or 7)
    assert main(argv) == 7
    assert seen == [argv[0]]
    assert capsys.readouterr().out == ""
