"""Price and equivalent-volatility layer.

Checks the forward of the arithmetic average, the equivalent lognormal and
normal volatilities (level, skew, curvature), put-call parity as an exact
identity, the short-maturity at-the-money law, and spot benchmark values.
"""

import dataclasses
import math

import numpy as np
import pytest

from cevasian import (
    BenchRow,
    McConfig,
    McEstimate,
    ModelParams,
    OptionSpec,
    PathGrid,
    PricingResult,
    RateResult,
    Scenario,
    atm_price,
    average_forward,
    equiv_lognormal_vol,
    equiv_normal_vol,
    minimize_fixed,
    price_fixed,
    price_floating,
    price_variational,
    rate_float_cev,
    run_table1,
    simulate_asian,
)
from cevasian.float_strike import FloatRateDiag
from cevasian.pricing import VariationalDiag, rate_variational
from cevasian.rate_cev import CevRateDiag, rate_cev
from cevasian.rate_cev import rate_sqrt
from oracles import parity_gap

parity_tol = 1e-13  # measured worst over the sweep below is ~1.3e-15


def test_average_forward_value():
    p = ModelParams(S0=2.0, sigma=0.3, beta=0.5, r=0.05)
    # A(T) = S0 (e^{mu T} - 1) / (mu T) with mu = r - q
    assert average_forward(p, 1.0) == pytest.approx(2.0508438550409650, rel=1e-14)


def test_average_forward_degenerate_drift():
    p = ModelParams(S0=1.7, sigma=0.3, beta=0.5, r=0.03, q=0.03)
    assert average_forward(p, 2.0) == 1.7
    # series branch joins the expm1 branch continuously
    lo = ModelParams(S0=1.0, sigma=0.3, beta=0.5, r=9e-13)
    hi = ModelParams(S0=1.0, sigma=0.3, beta=0.5, r=2e-12)
    assert average_forward(lo, 1.0) == pytest.approx(average_forward(hi, 1.0), abs=1e-12)


def test_lognormal_vol_level_and_shape():
    p = ModelParams(S0=2.0, sigma=0.5, beta=0.75)
    level = 0.5 * 2.0 ** (-0.25) / math.sqrt(3.0)
    assert equiv_lognormal_vol(2.0, p) == pytest.approx(level, rel=1e-14)
    # the vol at strike K reproduces log-moneyness^2 / (2 I)
    for m in (0.7, 1.3):
        x = math.log(m)
        implied = equiv_lognormal_vol(2.0 * m, p)
        rate = rate_cev(2.0 * m, p).value
        assert implied ** 2 == pytest.approx(x * x / (2.0 * rate), rel=1e-12)


def test_lognormal_vol_skew_and_curvature_beta_half():
    # d sigma_eff / dx at x=0 is -1/5 of the level; curvature is -19/2100
    p = ModelParams(S0=1.0, sigma=0.4, beta=0.5)
    level = equiv_lognormal_vol(1.0, p)
    h = 1e-3
    up = equiv_lognormal_vol(math.exp(h), p)
    dn = equiv_lognormal_vol(math.exp(-h), p)
    skew = (up - dn) / (2.0 * h) / level
    curv = (up - 2.0 * level + dn) / h ** 2 / level
    assert skew == pytest.approx(-0.2, abs=1e-6)
    assert curv == pytest.approx(2.0 * (-19.0 / 4200.0), abs=2e-6)


def test_skew_vanishes_at_beta_five_sixths():
    p = ModelParams(S0=1.0, sigma=0.4, beta=5.0 / 6.0)
    h = 1e-3
    skew = (equiv_lognormal_vol(math.exp(h), p) - equiv_lognormal_vol(math.exp(-h), p)) / (2.0 * h)
    assert abs(skew) < 1e-6


def test_benchmark_prices():
    spec = OptionSpec("fixed", "call", 2.0, 1.0)
    p1 = ModelParams(S0=2.0, sigma=0.14, beta=0.5, r=0.02)
    assert price_fixed(spec, p1).price == pytest.approx(0.055474, abs=5e-7)
    p2 = ModelParams(S0=2.0, sigma=0.71, beta=0.5, r=0.05)
    assert price_fixed(OptionSpec("fixed", "call", 2.0, 0.1), p2).price == pytest.approx(
        0.075354, abs=5e-7
    )
    assert price_fixed(OptionSpec("fixed", "call", 2.0, 1.0), p2).price == pytest.approx(
        0.247020, abs=5e-7
    )


def test_floating_benchmark_price():
    p = ModelParams(S0=1.0, sigma=0.7, beta=0.5, r=0.04)
    res = price_floating(OptionSpec("floating", "put", 1.0, 1.0), p)
    assert res.price == pytest.approx(0.14524072119011544, abs=1e-6)
    assert res.vol_kind == "normal"


def test_put_call_parity_sweep():
    # C - P = e^{-rT} (A(T) - K) must hold exactly: both legs share one vol
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        S0 = rng.uniform(0.5, 3.0)
        p = ModelParams(
            S0=S0,
            sigma=rng.uniform(0.1, 0.8),
            beta=rng.uniform(0.5, 0.95),
            r=rng.uniform(-0.02, 0.1),
            q=rng.uniform(0.0, 0.05),
        )
        K = S0 * rng.uniform(0.4, 2.5)
        T = rng.uniform(0.05, 2.0)
        call = price_fixed(OptionSpec("fixed", "call", K, T), p).price
        put = price_fixed(OptionSpec("fixed", "put", K, T), p).price
        worst = max(worst, abs(parity_gap(call, put, K, p, T)))
    assert worst < parity_tol


def test_otm_prices_follow_the_rate_function():
    # -T log P(T) approaches I(K) as T -> 0, from above, without underflow
    p = ModelParams(S0=1.0, sigma=0.3, beta=0.5)
    K = 1.2
    rate = rate_sqrt(K, p).value
    ratios = []
    for T in (0.1, 0.01, 2e-3, 1e-3):
        price = price_fixed(OptionSpec("fixed", "call", K, T), p).price
        assert price > 0.0
        ratios.append(-T * math.log(price) / rate)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.025


def test_atm_fixed_price_law():
    # at the money, P ~ sigma S0^beta sqrt(T / (6 pi))
    p = ModelParams(S0=2.0, sigma=0.71, beta=0.5)
    law = atm_price(p, 1e-3)
    assert law == pytest.approx(0.71 * math.sqrt(2.0) * math.sqrt(1e-3 / (6.0 * math.pi)), rel=1e-14)
    full = price_fixed(OptionSpec("fixed", "call", 2.0, 1e-3), p).price
    assert full == pytest.approx(law, rel=1e-5)


def test_normal_vol_level_and_continuity():
    p = ModelParams(S0=1.5, sigma=0.6, beta=0.75)
    atm = 0.6 * 1.5 ** 0.75 / math.sqrt(3.0)
    assert equiv_normal_vol(1.0, p) == pytest.approx(atm, rel=1e-14)
    # smooth through kappa = 1: the vol moves by ~1.05*atm per unit log kappa
    up = equiv_normal_vol(1.0 + 1e-4, p)
    dn = equiv_normal_vol(1.0 - 1e-4, p)
    assert abs(up / atm - 1.0) < 2e-4
    assert abs(dn / atm - 1.0) < 2e-4
    assert up > atm > dn  # skew has a definite sign near the money


@pytest.mark.parametrize("beta", [0.5, 0.6, 0.75, 0.9, 0.99])
def test_vols_are_continuous_across_the_atm_window_edge(beta):
    # the ATM series inside |x| < 1e-5, the rate outside.  Measured worst:
    # 1.0e-11 (fixed) and 2.1e-11 (floating); before the floating series had
    # its x^3 and x^4 terms at every beta, 1.3e-6 to 4.8e-6 at beta != 1/2
    p = ModelParams(S0=1.3, sigma=0.5, beta=beta)
    float_tol = 1e-10
    for x in (1e-5, -1e-5):
        inside, outside = math.exp(x * (1.0 - 1e-9)), math.exp(x * (1.0 + 1e-9))
        ln_in, ln_out = equiv_lognormal_vol(1.3 * inside, p), equiv_lognormal_vol(1.3 * outside, p)
        assert abs(ln_in / ln_out - 1.0) <= 1e-10
        n_in, n_out = equiv_normal_vol(inside, p), equiv_normal_vol(outside, p)
        assert abs(n_in / n_out - 1.0) <= float_tol


@pytest.mark.parametrize("beta", [0.5, 0.75])
def test_atm_vols_and_rates_read_one_series(beta):
    # inside the window vol^2 = num^2 / (2 I) holds with I the rate routes' own
    # ATM series, num = log(K/S0) resp. S0 (kappa - 1)
    p = ModelParams(S0=1.3, sigma=0.5, beta=beta)
    for m in (1.0 + 1e-9, 1.0 - 3e-6, 1.0 + 0.99e-5):
        assert rate_cev(1.3 * m, p).branch == "atm"
        x = math.log(1.3 * m / 1.3)
        lhs = 2.0 * equiv_lognormal_vol(1.3 * m, p) ** 2 * rate_cev(1.3 * m, p).value
        assert lhs == pytest.approx(x * x, rel=1e-14, abs=0.0)
        res = rate_float_cev(m, p)
        assert res.branch == "atm"
        lhs = 2.0 * equiv_normal_vol(m, p) ** 2 * res.value
        assert lhs == pytest.approx((1.3 * (m - 1.0)) ** 2, rel=1e-14, abs=0.0)


def test_floating_prices_are_positive_and_noted():
    # the closed route at every beta; the variational solver only when asked
    p = ModelParams(S0=1.0, sigma=0.7, beta=0.8)
    spec = OptionSpec("floating", "put", 1.2, 0.1)
    res = price_floating(spec, p)
    assert res.price > 0.0
    assert res.note == ""
    check = price_variational(spec, p)
    assert check.note == "rate from variational solver"
    assert check.price == pytest.approx(res.price, rel=1e-5)


def test_option_spec_validation():
    with pytest.raises(ValueError):
        OptionSpec("fixed", "call", -1.0, 1.0)
    with pytest.raises(ValueError):
        OptionSpec("fixed", "call", 1.0, 0.0)
    with pytest.raises(ValueError):
        OptionSpec("fixed", "upside", 1.0, 1.0)
    with pytest.raises(ValueError):
        OptionSpec("flooded", "call", 1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            OptionSpec("fixed", "call", bad, 1.0)
        with pytest.raises(ValueError):
            OptionSpec("fixed", "call", 1.0, bad)


def test_model_params_reject_non_finite():
    good = dict(S0=1.0, sigma=0.5, beta=0.75, r=0.03, q=0.01)
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ModelParams(**{**good, name: bad})


def test_underflowing_price_is_zero_not_negative():
    # both Black terms underflow; their difference used to come out -3e-323
    p = ModelParams(S0=1.0, sigma=0.29, beta=0.9, r=0.05, q=0.01)
    res = price_fixed(OptionSpec("fixed", "call", 10.0, 0.122), p)
    assert res.price == 0.0


def test_style_mismatch_is_rejected():
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.5)
    with pytest.raises(ValueError):
        price_fixed(OptionSpec("floating", "call", 1.0, 1.0), p)
    with pytest.raises(ValueError):
        price_floating(OptionSpec("fixed", "call", 1.0, 1.0), p)


def _outputs():
    """One record of each returned class, from the call that returns it."""
    p = ModelParams(S0=1.0, sigma=0.5, beta=0.75)
    spec = OptionSpec("fixed", "call", 1.3, 0.5)
    row = run_table1()[0]
    return {
        CevRateDiag: rate_cev(1.3, p),
        FloatRateDiag: rate_float_cev(1.3, p),
        VariationalDiag: rate_variational("fixed", 1.3, p),
        PricingResult: price_fixed(spec, p),
        McEstimate: simulate_asian(spec, p, McConfig(n_paths=100, n_steps=10, seed=3)),
        BenchRow: dataclasses.replace(row, runtime_ms=0.0),  # the one field a rerun moves
        PathGrid: minimize_fixed(1.3, p, n=100, full_output=True)[1]["path"],
    }


def _same(a, b):
    # == on a PathGrid compares its arrays elementwise, which has no truth value
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)))


def test_outputs_are_slotted_records_and_inputs_stay_frozen():
    first, again = _outputs(), _outputs()
    records = []
    for cls, out in first.items():
        records.extend([out, out.diag] if isinstance(out, RateResult) else [out])
        if cls is PathGrid:
            assert _same(out, again[cls])
        else:
            assert out == again[cls], cls.__name__
    assert [type(r) for r in records if type(r) is not RateResult] == list(first)
    for record in records:
        cls = type(record)
        assert dataclasses.is_dataclass(cls) and "__slots__" in vars(cls), cls.__name__
        assert not hasattr(record, "__dict__"), cls.__name__
        with pytest.raises(AttributeError):
            record.not_a_field = 1.0
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        assert _same(dataclasses.replace(record), record)
        data = dataclasses.asdict(record)
        for f in dataclasses.fields(record):  # asdict turns a nested record into a dict
            inner = getattr(record, f.name)
            if dataclasses.is_dataclass(inner):
                data[f.name] = type(inner)(**data[f.name])
        assert _same(cls(**data), record), cls.__name__
    # returned records take assignment; inputs refuse it and hash
    first[PricingResult].note = "edited"
    assert first[PricingResult].note == "edited"
    inputs = [ModelParams(S0=1.0, sigma=0.5, beta=0.75), OptionSpec("fixed", "call", 1.3, 0.5),
              McConfig(n_paths=100, n_steps=10), run_table1()[0].scenario]
    assert isinstance(inputs[-1], Scenario)
    for record in inputs:
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        assert hash(record) == hash(dataclasses.replace(record))


@pytest.mark.parametrize("fields, message", [
    (dict(S0=math.nan), "S0 must be finite, got nan"),
    (dict(sigma=math.inf), "sigma must be finite, got inf"),
    (dict(beta=-math.inf), "beta must be finite, got -inf"),
    (dict(r=math.nan), "r must be finite, got nan"),
    (dict(q=math.inf), "q must be finite, got inf"),
    (dict(S0=-1.0, r=math.nan), "r must be finite, got nan"),  # finiteness is checked first
    (dict(S0=-1.0, sigma=math.nan), "sigma must be finite, got nan"),
    (dict(S0=0.0), "S0 must be positive, got 0.0"),
    (dict(S0=-1.0, sigma=-1.0), "S0 must be positive, got -1.0"),
    (dict(sigma=-0.5), "sigma must be positive, got -0.5"),
    (dict(beta=1.0), "beta must lie in [1/2, 1), got 1.0"),
    (dict(beta=0.25), "beta must lie in [1/2, 1), got 0.25"),
])
def test_model_params_messages_name_the_first_bad_field(fields, message):
    good = dict(S0=1.0, sigma=0.5, beta=0.75, r=0.03, q=0.01)
    with pytest.raises(ValueError) as info:
        ModelParams(**{**good, **fields})
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    (("flooded", "call", 1.0, 1.0), "style must be 'fixed' or 'floating', got 'flooded'"),
    (("fixed", "upside", math.nan, 1.0), "side must be 'call' or 'put', got 'upside'"),
    (("fixed", "call", math.nan, 1.0), "strike must be finite, got nan"),
    (("fixed", "call", 1.0, math.inf), "maturity must be finite, got inf"),
    (("fixed", "call", -1.0, math.nan), "maturity must be finite, got nan"),
    (("fixed", "call", -1.0, 1.0), "strike must be positive, got -1.0"),
    (("floating", "put", 0.0, -1.0), "strike must be positive, got 0.0"),
    (("fixed", "call", 1.0, 0.0), "maturity must be positive, got 0.0"),
])
def test_option_spec_messages_name_the_first_bad_field(args, message):
    with pytest.raises(ValueError) as info:
        OptionSpec(*args)
    assert str(info.value) == message
