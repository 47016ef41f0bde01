"""Command-line interface, exercised in-process through main(argv)."""

import importlib
import json
import math

import pytest

from cevasian import ModelParams, OptionSpec, price_fixed
from cevasian.bench import BenchRow, Scenario
from cevasian.cli import main
from cevasian.rate_cev import rate_cev
from cevasian.rate_sqrt import rate_sqrt


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
    assert set(out) == {"rate", "engine", "iterations", "kkt_residual",
                        "constraint_err", "rungs"}
    assert out["rungs"] == 1 and out["iterations"] >= 1
    assert 0.0 <= out["kkt_residual"] <= 1e-12
    ref = rate_cev(1000.0, ModelParams(S0=1.0, sigma=0.5, beta=0.99)).value
    assert out["rate"] == pytest.approx(ref, rel=1e-4)
    assert main(["rate", "--engine", "varsolve", "--beta", "0.99", "--sigma", "0.5",
                 "--strike", "1000"]) == 0
    assert capsys.readouterr().out.startswith("rate ")


def test_float_json_reports_the_variational_certificate(capsys):
    args = ["float", "--sigma", "0.5", "--kappa", "0.05", "--maturity", "1", "--json"]
    assert main(args + ["--beta", "0.75"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rungs"] > 1  # small kappa climbs the continuation ladder
    assert 0.0 <= out["kkt_residual"] <= 1e-12
    assert abs(out["constraint_err"]) <= 1e-12 and out["iterations"] >= out["rungs"]
    # the closed form at beta = 1/2 runs no solver
    assert main(args[:3] + ["--kappa", "0.5", "--maturity", "1", "--json",
                            "--beta", "0.5"]) == 0
    assert "iterations" not in json.loads(capsys.readouterr().out)


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


def test_exit_code_three_on_unbracketable_root(capsys):
    rc = main(["rate", "--sigma", "0.5", "--beta", "0.5", "--strike", "1e-13"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "not bracketed" in err


def test_float_solves_the_variational_problem_once(monkeypatch, capsys):
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
    assert len(calls) == 1
    assert out["sigma_n"] == pytest.approx(0.5 / math.sqrt(2.0 * out["rate"]), rel=1e-14)
    assert out["note"] == "rate from variational solver"


def test_vol_curve_solves_each_rate_once(monkeypatch, capsys):
    # the package re-exports the function rate_cev, so fetch the module itself
    rate_cev_mod = importlib.import_module("cevasian.rate_cev")
    calls = []
    real = rate_cev_mod._rate_general

    def counted(K, params):
        calls.append(K)
        return real(K, params)

    monkeypatch.setattr(rate_cev_mod, "_rate_general", counted)
    rc = main(["vol-curve", "--sigma", "0.5", "--beta", "0.75", "--n", "7", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(calls) == len(rows) == 7
    for row in rows:
        if row["rate"] > 0.0:
            x = math.log(row["K_over_S0"])
            assert row["sigma_ln"] == pytest.approx(abs(x) / math.sqrt(2.0 * row["rate"]),
                                                    rel=1e-14)

