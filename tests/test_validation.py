"""Construction is the one place where inputs are checked.

Every checked entry point either raises DomainError or gives a finite
visibility in [0, 1], whatever kind of real number it is fed, and the CLI
turns each rejection into exit code 2 with a one-line message.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absg2.analytic import g2_closed_form, g2_curve_analytic, visibility_analytic
from absg2.cli import main
from absg2.core import BeamSplitter, DomainError, ExperimentConfig, PairKind
from absg2.montecarlo import McSettings, g2_monte_carlo, visibility_from_curve
from absg2.optimize import threshold_min_ratio
from absg2.probability import path_probabilities

scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.fractions(),
    st.integers(min_value=-(10**400), max_value=10**400),
)
pairs = st.sampled_from(list(PairKind))
# Log-uniform ratios over most of the float range.  R keeps off 0 and 1 by
# 1e-3: the rational function's x + R - x R cancels and loses eps/T of its
# relative precision as T = 1 - R shrinks.
ratios = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
reflectivities = st.floats(1e-3, 1.0 - 1e-3)
X_MIN = sys.float_info.min  # a subnormal ratio is rejected
# At R = 0.4, path_probabilities also needs p2a = 0.4 x / (0.4 x + 0.6) and
# p1b = 0.4 / (0.6 x + 0.4) to stay normal floats.
PP_LOW, PP_HIGH = 1.5 * X_MIN, (2.0 / 3.0) / X_MIN


def _valid_visibility(v) -> None:
    assert isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0


def _in_domain(value, upper, lowest=0.0) -> bool:
    if isinstance(value, bool):
        return False
    try:
        return 0.0 < float(value) < upper and float(value) >= lowest
    except OverflowError:
        return False


@settings(max_examples=300, deadline=None)
@given(pair=pairs, x=scalars, r=scalars)
@example(pair=PairKind.LT, x=8.98846567431158e307, r=0.4)  # 2 x overflows
def test_visibility_analytic_rejects_or_is_valid(pair, x, r):
    try:
        v = visibility_analytic(pair, x, r)
    except DomainError:
        assert not (_in_domain(x, math.inf, X_MIN) and _in_domain(r, 1.0))
        return
    assert _in_domain(x, math.inf, X_MIN) and _in_domain(r, 1.0)
    _valid_visibility(v)


@settings(max_examples=300, deadline=None)
@given(pair=pairs, r=scalars)
def test_beam_splitter_rejects_or_is_valid(pair, r):
    try:
        bs = BeamSplitter(r)
    except DomainError:
        assert not _in_domain(r, 1.0)
        return
    assert type(bs.reflectivity) is float
    _valid_visibility(visibility_analytic(pair, 1.0, bs.reflectivity))


@settings(max_examples=300, deadline=None)
@given(pair=pairs, x=scalars)
@example(pair=PairKind.SS, x=3e-308)  # p2a is subnormal
@example(pair=PairKind.SS, x=3.4e-308)  # p2a is just normal
@example(pair=PairKind.SS, x=1e308)  # p1b is subnormal
def test_path_probabilities_rejects_or_is_valid(pair, x):
    try:
        p = path_probabilities(x, BeamSplitter(0.4))
    except DomainError:
        assert not _in_domain(x, PP_HIGH, PP_LOW)
        return
    assert _in_domain(x, PP_HIGH, PP_LOW)
    for prob in (p.p1a, p.p1b, p.p2a, p.p2b):
        assert math.isfinite(prob) and 0.0 <= prob <= 1.0
    _valid_visibility(visibility_analytic(pair, x, 0.4))


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from([PairKind.SL, PairKind.ST]), r=scalars)
def test_threshold_min_ratio_rejects_or_is_valid(pair, r):
    try:
        ratio = threshold_min_ratio(pair, r)
    except DomainError:
        assert not _in_domain(r, 1.0)
        return
    if ratio is not None:
        v = visibility_analytic(pair, ratio, r)
        _valid_visibility(v)
        assert v == pytest.approx(0.5, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(pair=pairs, x=scalars, delta_nu=scalars, tau=scalars)
@example(pair=PairKind.LT, x=1.0, delta_nu=2.8611174857570283e307, tau=0.0)  # phase overflows
def test_experiment_config_rejects_or_is_valid(pair, x, delta_nu, tau):
    try:
        cfg = ExperimentConfig(pair, x, BeamSplitter(0.4), delta_nu, (-1.0, tau))
    except DomainError:
        return
    assert _in_domain(x, math.inf, X_MIN)
    assert all(math.isfinite(t) for t in cfg.tau_grid)
    assert math.isfinite(cfg.delta_nu) and cfg.delta_nu >= 0.0
    _valid_visibility(visibility_analytic(cfg.pair, cfg.intensity_ratio, cfg.bs.reflectivity))
    try:
        p = path_probabilities(cfg.intensity_ratio, cfg.bs)
    except DomainError:
        assert not _in_domain(x, PP_HIGH, PP_LOW)
        return
    curve = g2_curve_analytic(cfg.pair, p, cfg.delta_nu, cfg.tau_grid)
    assert all(math.isfinite(g) for g in curve.g2)


@settings(max_examples=500, deadline=None)
@given(pair=pairs, x=ratios, r=reflectivities)
@example(pair=PairKind.SS, x=1e-300, r=0.4)  # p1b = 1 - p1a gave V = 0
@example(pair=PairKind.SS, x=1e300, r=0.4)  # the constant underflowed to 0
@example(pair=PairKind.LT, x=1e14, r=0.4)  # 1 - p1a lost 8e-4 of V
def test_closed_form_visibility_matches_rational_function(pair, x, r):
    v = g2_closed_form(pair, path_probabilities(x, BeamSplitter(r))).visibility
    # The rational function's x**2 term overflows above x ~ 1e154, where it
    # reads V = 0 for LL, LT and TT; abs covers that and nothing larger.
    assert v == pytest.approx(visibility_analytic(pair, x, r), rel=1e-12, abs=1e-150)


@settings(max_examples=200, deadline=None)
@given(pair=pairs, x=ratios, r=reflectivities)
@example(pair=PairKind.SS, x=1e-200, r=0.4)  # level**2 underflowed in the gradient
def test_monte_carlo_fit_is_finite_or_rejected(pair, x, r):
    tau = tuple(np.linspace(-1e-6, 1e-6, 81))
    cfg = ExperimentConfig(pair, x, BeamSplitter(r), 1e6, tau)
    try:
        res = visibility_from_curve(g2_monte_carlo(cfg, McSettings(n_realizations=100)), 1e6)
    except DomainError:
        return
    assert math.isfinite(res.v) and math.isfinite(res.v_stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--tau=nan,0"],
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--tau=1e-6,0"],
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--mode", "mc", "--tau=1e-6,0"],
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--delta-nu", "inf"],
        ["validate", "--delta-nu", "0"],
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--mode", "mc", "--n", "inf"],
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--mode", "mc", "--n", "1e400"],
        ["validate", "--n", "inf"],
        ["sweep", "--pair", "ll", "--x", "1,5e-324", "--r", "0.5"],  # subnormal x
        ["visibility", "--pair", "ll", "--x", "1e-310", "--r", "0.5"],
        # x R underflows, so p2a is 0 and the fit read V = 0 +- 0
        ["g2", "--pair", "ss", "--x", "1e-300", "--r", "1e-30", "--mode", "mc", "--n", "100"],
    ],
)
def test_cli_rejects_bad_g2_inputs_with_one_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    if lines[0].startswith("usage: "):  # argparse's usage text, then its error line
        lines = [lines[-1].removeprefix(f"absg2 {argv[0]}: ")]
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("x", ["1e300", "1e-300"])
def test_cli_gives_the_ss_dip_at_extreme_ratios(capsys, x):
    code = main(["g2", "--pair", "ss", "--x", x, "--r", "0.4"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    g2 = [float(line.split(",")[1]) for line in captured.out.splitlines()[1:]]
    v = (max(g2) - min(g2)) / (max(g2) + min(g2))
    assert v == pytest.approx(visibility_analytic(PairKind.SS, float(x), 0.4), rel=1e-8)


def test_cli_fits_a_tiny_monte_carlo_level(capsys):
    argv = ["g2", "--pair", "ss", "--x", "1e-200", "--r", "0.4", "--mode", "mc", "--n", "100"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[-1].startswith("fitted V = ")
