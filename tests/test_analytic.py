import math

import numpy as np
import pytest

from absg2.alternatives import enumerate_alternatives
from absg2.analytic import (
    ClosedFormG2,
    g2_analytic,
    g2_closed_form,
    g2_curve_analytic,
    visibility_analytic,
    visibility_from_extrema,
)
from absg2.core import BeamSplitter, DomainError, PairKind, PathProbabilities
from absg2.probability import path_probabilities

from helpers import exact_phase_average, random_domain_points

SYM = PathProbabilities(0.5, 0.5, 0.5, 0.5)


def test_closed_form_symmetric_points():
    lt = g2_closed_form(PairKind.LT, SYM)
    assert (lt.constant_term, lt.oscillation_amplitude) == (1.25, 0.5)
    assert lt.value(1e6, 0.0) == 0.75

    ss = g2_closed_form(PairKind.SS, SYM)
    assert (ss.constant_term, ss.oscillation_amplitude) == (0.5, 0.5)
    assert ss.value(1e6, 0.0) == 0.0  # full two-photon dip

    ll = g2_closed_form(PairKind.LL, SYM)
    assert (ll.constant_term, ll.oscillation_amplitude) == (1.0, 0.5)


def test_g2_analytic_beat_shape():
    assert g2_analytic(PairKind.LL, SYM, 1e6, 0.0) == 0.5
    assert g2_analytic(PairKind.LL, SYM, 1e6, 0.5e-6) == pytest.approx(1.5, abs=1e-12)
    # zero beat frequency: constant minus amplitude, independent of tau
    for pair in PairKind:
        form = g2_closed_form(pair, SYM)
        for tau in (-3e-6, 0.0, 1.7e-6):
            assert g2_analytic(pair, SYM, 0.0, tau) == form.constant_term - form.oscillation_amplitude


def test_closed_form_never_negative():
    for pair in PairKind:
        for x, r in random_domain_points(200, seed=23):
            form = g2_closed_form(pair, path_probabilities(x, BeamSplitter(r)))
            assert form.constant_term >= form.oscillation_amplitude >= 0.0


def test_closed_form_matches_exact_phase_average():
    # enumeration oracle: average |sum of amplitudes|^2 over phases exactly,
    # straight from the term list, and compare curve values
    delta_nu = 1e6
    taus = np.linspace(-1.3e-6, 1.3e-6, 7)
    for pair in PairKind:
        for x, r in random_domain_points(25, seed=31):
            p = path_probabilities(x, BeamSplitter(r))
            alts = enumerate_alternatives(pair, p)
            form = g2_closed_form(pair, p)
            for tau in taus:
                expected = exact_phase_average(alts, delta_nu, float(tau))
                assert form.value(delta_nu, float(tau)) == pytest.approx(expected, abs=1e-12)


def test_visibility_reference_points():
    assert visibility_analytic(PairKind.LL, 1.0, 0.5) == 0.5
    assert visibility_analytic(PairKind.LT, math.sqrt(2) / 2, 0.5) == pytest.approx(
        1.0 / (math.sqrt(2) + 1.0), abs=1e-12
    )
    assert visibility_analytic(PairKind.LT, 1.0, 0.5) == pytest.approx(0.4, abs=1e-15)
    assert visibility_analytic(PairKind.TT, 1.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert visibility_analytic(PairKind.SS, 0.37, 0.2) == pytest.approx(0.32 / 0.68, abs=1e-12)
    assert visibility_analytic(PairKind.SL, 0.5, 0.5) == 0.5
    assert visibility_analytic(PairKind.SS, 123.0, 0.5) == 1.0


def test_visibility_agrees_with_curve_contrast():
    for pair in PairKind:
        for x, r in random_domain_points(100, seed=47):
            form = g2_closed_form(pair, path_probabilities(x, BeamSplitter(r)))
            assert abs(visibility_analytic(pair, x, r) - form.visibility) <= 1e-12


def test_mirror_symmetry_about_half():
    for pair in PairKind:
        for x, r in random_domain_points(100, seed=53):
            assert visibility_analytic(pair, x, r) == pytest.approx(
                visibility_analytic(pair, x, 1.0 - r), abs=1e-12
            )


def test_ratio_inversion_symmetry_for_like_pairs():
    for pair in (PairKind.LL, PairKind.TT):
        for x, r in random_domain_points(100, seed=59):
            assert visibility_analytic(pair, x, r) == pytest.approx(
                visibility_analytic(pair, 1.0 / x, r), abs=1e-12
            )


def test_ss_visibility_ignores_ratio():
    for r in (0.1, 0.33, 0.5, 0.77):
        values = {visibility_analytic(PairKind.SS, x, r) for x in (0.01, 1.0, 100.0)}
        assert max(values) - min(values) <= 1e-15


def test_pointwise_ordering():
    for x, r in random_domain_points(200, seed=61):
        v_tt = visibility_analytic(PairKind.TT, x, r)
        v_lt = visibility_analytic(PairKind.LT, x, r)
        v_ll = visibility_analytic(PairKind.LL, x, r)
        assert v_tt <= v_lt + 1e-15
        assert v_lt <= v_ll + 1e-15
        assert visibility_analytic(PairKind.ST, x, r) <= visibility_analytic(PairKind.SL, x, r) + 1e-15


def test_classical_bounds():
    points = random_domain_points(400, seed=67)
    assert max(visibility_analytic(PairKind.LL, x, r) for x, r in points) <= 0.5 + 1e-12
    assert max(visibility_analytic(PairKind.LT, x, r) for x, r in points) <= 1.0 / (math.sqrt(2) + 1) + 1e-12
    assert max(visibility_analytic(PairKind.TT, x, r) for x, r in points) <= 1.0 / 3.0 + 1e-12


def test_visibility_domain_errors():
    with pytest.raises(DomainError, match="x must be > 0"):
        visibility_analytic(PairKind.LL, 0.0, 0.5)
    with pytest.raises(DomainError, match="R out of"):
        visibility_analytic(PairKind.LL, 1.0, 1.0)


def test_visibility_from_extrema():
    assert visibility_from_extrema(1.5, 0.5).v == 0.5
    assert visibility_from_extrema(1.0, 1.0).v == 0.0
    assert visibility_from_extrema(0.5, 0.0).v == 1.0
    with pytest.raises(DomainError):
        visibility_from_extrema(0.5, 0.6)
    with pytest.raises(DomainError):
        visibility_from_extrema(0.0, 0.0)
    with pytest.raises(DomainError):
        visibility_from_extrema(1.0, -0.1)


def test_analytic_curve_metadata():
    curve = g2_curve_analytic(PairKind.LL, SYM, 1e6, (-1e-6, 0.0, 1e-6))
    assert curve.n_realizations == 0
    assert curve.seed is None
    assert curve.stderr is None
    assert curve.g2[1] == 0.5


def test_full_dip_survives_roundoff():
    # At R = 0.5, 2 sqrt(p1a p1b p2a p2b) rounds one ulp above the SS constant
    # for some ratios; the closed form must still give V = 1 and a zero dip.
    for x in np.logspace(-3, 3, 200):
        form = g2_closed_form(PairKind.SS, path_probabilities(float(x), BeamSplitter(0.5)))
        assert form.visibility == pytest.approx(1.0, abs=1e-12)
        assert form.value(1e6, 0.0) == pytest.approx(0.0, abs=1e-15)
    rs = [k / 20 for k in range(1, 20)]
    for pair in PairKind:
        for x in np.logspace(-3, 3, 200):
            for r in rs:
                form = g2_closed_form(pair, path_probabilities(float(x), BeamSplitter(r)))
                assert 0.0 <= form.visibility <= 1.0


def test_closed_form_rejects_real_excess():
    with pytest.raises(DomainError, match="constant_term >= oscillation_amplitude"):
        ClosedFormG2(constant_term=1.0, oscillation_amplitude=1.0 + 1e-9)
