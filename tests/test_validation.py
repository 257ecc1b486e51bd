"""Construction is the one place where inputs are checked.

Every checked entry point either raises DomainError or gives a finite
visibility in [0, 1], whatever kind of real number it is fed, and the CLI
turns each rejection into exit code 2 with a one-line message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absg2.analytic import g2_curve_analytic, visibility_analytic
from absg2.cli import main
from absg2.core import BeamSplitter, DomainError, ExperimentConfig, PairKind
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


def _valid_visibility(v) -> None:
    assert isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0


def _in_domain(value, upper) -> bool:
    if isinstance(value, bool):
        return False
    try:
        return 0.0 < float(value) < upper
    except OverflowError:
        return False


@settings(max_examples=300, deadline=None)
@given(pair=pairs, x=scalars, r=scalars)
@example(pair=PairKind.LT, x=8.98846567431158e307, r=0.4)  # 2 x overflows
def test_visibility_analytic_rejects_or_is_valid(pair, x, r):
    try:
        v = visibility_analytic(pair, x, r)
    except DomainError:
        assert not (_in_domain(x, math.inf) and _in_domain(r, 1.0))
        return
    assert _in_domain(x, math.inf) and _in_domain(r, 1.0)
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
def test_path_probabilities_rejects_or_is_valid(pair, x):
    try:
        p = path_probabilities(x, BeamSplitter(0.4))
    except DomainError:
        assert not _in_domain(x, math.inf)
        return
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
    assert _in_domain(x, math.inf)
    assert all(math.isfinite(t) for t in cfg.tau_grid)
    assert math.isfinite(cfg.delta_nu) and cfg.delta_nu >= 0.0
    _valid_visibility(visibility_analytic(cfg.pair, cfg.intensity_ratio, cfg.bs.reflectivity))
    p = path_probabilities(cfg.intensity_ratio, cfg.bs)
    curve = g2_curve_analytic(cfg.pair, p, cfg.delta_nu, cfg.tau_grid)
    assert all(math.isfinite(g) for g in curve.g2)


@pytest.mark.parametrize(
    "argv",
    [
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--tau=nan,0"],
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--tau=1e-6,0"],
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--mode", "mc", "--tau=1e-6,0"],
        ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--delta-nu", "inf"],
        ["validate", "--delta-nu", "0"],
    ],
)
def test_cli_rejects_bad_g2_inputs_with_one_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
