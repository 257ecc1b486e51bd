import math

import numpy as np
import pytest

from absg2.alternatives import enumerate_alternatives, independent_phase_slots, phase_model
from absg2.analytic import g2_curve_analytic, visibility_from_extrema
from absg2.core import (
    BeamSplitter,
    DomainError,
    ExperimentConfig,
    G2Curve,
    PairKind,
    PathProbabilities,
)
from absg2.montecarlo import (
    McSettings,
    _chunk_moments,
    _cos_sin,
    _term_arrays,
    _Workspace,
    fit_cosine,
    g2_monte_carlo,
    visibility_from_curve,
)
from absg2.probability import path_probabilities

from helpers import realization_value

SYM = PathProbabilities(0.5, 0.5, 0.5, 0.5)
DELTA_NU = 1e6
TAU_GRID = tuple(float(t) for t in np.linspace(-1e-6, 1e-6, 41))


def _cfg(pair=PairKind.LL, x=1.0, r=0.5, delta_nu=DELTA_NU, tau=TAU_GRID):
    return ExperimentConfig(pair, x, BeamSplitter(r), delta_nu, tau)


def test_realization_value_ss_dip_is_phase_independent():
    alts = enumerate_alternatives(PairKind.SS, SYM)
    rng = np.random.default_rng(2)
    for _ in range(20):
        phases = rng.uniform(0, 2 * math.pi, 2)
        assert realization_value(PairKind.SS, alts, phases, DELTA_NU, 0.0) == pytest.approx(0.0, abs=1e-28)


def test_realization_value_ll_equal_phases_is_deterministic():
    # all four amplitudes collapse onto one phasor of unit modulus
    alts = enumerate_alternatives(PairKind.LL, SYM)
    for phi in (0.0, 1.1, 4.4):
        value = realization_value(PairKind.LL, alts, [phi, phi], 0.0, 0.0)
        assert value == pytest.approx(1.0, abs=1e-12)


def test_realization_value_rejects_wrong_length():
    alts = enumerate_alternatives(PairKind.TT, SYM)
    with pytest.raises(DomainError, match="length"):
        realization_value(PairKind.TT, alts, [0.0, 1.0], DELTA_NU, 0.0)


@pytest.mark.parametrize("independent", [False, True], ids=["physical", "independent"])
@pytest.mark.parametrize("pair", list(PairKind), ids=lambda p: p.value)
def test_batched_estimator_matches_reference_loop(pair, independent):
    # Two chunks, so the chunk merge is covered too.  Each pairing groups its
    # terms differently, and the negative control has no shared phase sums.
    n, chunk = 512, 256
    cfg = _cfg(pair, x=0.8, r=0.4)
    settings = McSettings(n_realizations=n, seed=9, parallel_chunk=chunk)
    curve = g2_monte_carlo(cfg, settings, independent_phases=independent)

    alts = enumerate_alternatives(pair, path_probabilities(0.8, BeamSplitter(0.4)))
    n_slots = phase_model(pair).n_slots
    if independent:
        alts, n_slots = independent_phase_slots(alts)
    phases = np.concatenate([
        np.random.Generator(np.random.Philox(key=[9, i])).uniform(0, 2 * math.pi, size=(chunk, n_slots))
        for i in range(n // chunk)
    ])
    values = np.array([
        [realization_value(pair, alts, row, DELTA_NU, tau) for tau in cfg.tau_grid] for row in phases
    ])
    # (s0, c, s) per realization from the curve at beat phases 0, pi and pi/2.
    v0, v_pi, v_half = (
        np.array([realization_value(pair, alts, row, 1.0, tau) for row in phases])
        for tau in (0.0, 0.5, 0.25)
    )
    s0 = (v0 + v_pi) / 2.0
    components = np.stack([s0, (v0 - v_pi) / 2.0, v_half - s0])
    beat_cov = np.cov(components, ddof=1) / n

    # Relative agreement, with floors where the true value is 0.  SS has no
    # variance at all, so both sides' variances are roundoff, about 1e-31
    # (library) and 3e-28 (loop) times level^2 / n; variances are compared,
    # not standard errors.  In the SS negative control s0 is constant, so its
    # covariances with c and s are roundoff too, about 1e-17 level^2 / n.
    level = float(np.mean(s0))
    unit = level**2 / n
    assert np.asarray(curve.g2) == pytest.approx(values.mean(axis=0), rel=1e-12, abs=1e-12 * level)
    variance = values.var(axis=0, ddof=1) / n
    assert np.asarray(curve.stderr) ** 2 == pytest.approx(variance, rel=1e-12, abs=1e-26 * unit)
    assert np.diag(curve.beat_cov) == pytest.approx(np.diag(beat_cov), rel=1e-12, abs=1e-26 * unit)
    assert np.asarray(curve.beat_cov) == pytest.approx(beat_cov, rel=1e-12, abs=1e-15 * unit)


def test_mean_converges_to_analytic_value():
    curve = g2_monte_carlo(_cfg(PairKind.LT, x=1.0, r=0.5), McSettings(100_000, seed=12))
    i0 = curve.tau.index(0.0)
    assert abs(curve.g2[i0] - 0.75) <= 3.0 * curve.stderr[i0]


def test_tt_symmetric_dip():
    curve = g2_monte_carlo(_cfg(PairKind.TT), McSettings(100_000, seed=21))
    i0 = curve.tau.index(0.0)
    assert abs(curve.g2[i0] - 1.0) <= 3.0 * curve.stderr[i0]


def test_ll_curve_extrema_points():
    # dip 0.5 at tau = 0, peaks 1.5 half a beat period away
    curve = g2_monte_carlo(_cfg(PairKind.LL), McSettings(100_000, seed=18))
    for tau, expected in ((0.0, 0.5), (-0.5e-6, 1.5), (0.5e-6, 1.5)):
        i = int(np.argmin(np.abs(np.asarray(curve.tau) - tau)))
        assert curve.tau[i] == pytest.approx(tau, abs=1e-12)
        assert abs(curve.g2[i] - expected) <= 3.0 * curve.stderr[i]


def test_determinism_same_settings_bit_identical():
    cfg = _cfg(PairKind.ST, x=1.4, r=0.6)
    a = g2_monte_carlo(cfg, McSettings(30_000, seed=77))
    b = g2_monte_carlo(cfg, McSettings(30_000, seed=77))
    assert a == b


@pytest.mark.parametrize("pair", list(PairKind), ids=lambda p: p.value)
def test_determinism_across_thread_counts(pair):
    # Each run ends in a shorter chunk; with (7, 3) it holds one realization.
    cfg = _cfg(pair, x=0.8, r=0.4)
    for n, chunk in ((50_000, 16_384), (50_001, 1_000), (7, 3)):
        curves = [
            g2_monte_carlo(cfg, McSettings(n, seed=42, parallel_chunk=chunk, threads=threads))
            for threads in (1, 2, 4)
        ]
        assert curves[0] == curves[1] == curves[2]


@pytest.mark.parametrize("independent", [False, True], ids=["physical", "independent"])
def test_chunk_moments_do_not_depend_on_what_the_workspace_held(independent):
    alts = enumerate_alternatives(PairKind.TT, path_probabilities(0.8, BeamSplitter(0.4)))
    n_slots = phase_model(PairKind.TT).n_slots
    if independent:
        alts, n_slots = independent_phase_slots(alts)
    half_sums, mix = _term_arrays(alts, n_slots)
    n, n_groups = 1_000, half_sums.shape[1]
    dirty = _Workspace(n, n_slots, n_groups)
    for array in vars(dirty).values():
        array.fill(np.nan)
    for chunk_index in (3, 0):
        reused = _chunk_moments(5, chunk_index, dirty, half_sums, mix)
        fresh = _chunk_moments(5, chunk_index, _Workspace(n, n_slots, n_groups), half_sums, mix)
        for a, b in zip(reused, fresh):
            assert np.array_equal(a, b)
    # the two chunks differ, so what the first one left behind is no zero change
    assert not np.array_equal(reused[0], _chunk_moments(5, 3, dirty, half_sums, mix)[0])


@pytest.mark.parametrize("pair", list(PairKind), ids=lambda p: p.value)
def test_beat_covariance_diagonal_is_not_negative(pair):
    # At x = 2 every SS realization has the same (s0, c, s) up to roundoff;
    # E[q q^T] - E[q] E[q]^T gave a variance of -5e-22 here.
    curve = g2_monte_carlo(_cfg(pair, x=2.0, r=0.4), McSettings(20_000, seed=1))
    assert np.all(np.diag(np.asarray(curve.beat_cov)) >= 0.0)


def test_curve_records_parallel_chunk():
    cfg = _cfg(PairKind.LT, x=0.8, r=0.4)
    curve = g2_monte_carlo(cfg, McSettings(5_000, seed=3, parallel_chunk=1_000))
    assert curve.parallel_chunk == 1_000
    other = g2_monte_carlo(cfg, McSettings(5_000, seed=3, parallel_chunk=2_500))
    assert other.parallel_chunk == 2_500 and other.g2 != curve.g2  # the chunk is part of the result
    assert g2_curve_analytic(PairKind.LT, SYM, DELTA_NU, TAU_GRID).parallel_chunk is None


def test_half_angle_cos_sin_matches_libm():
    # psi spans [0, 4 pi); tan(psi / 2) has its poles at psi = pi and 3 pi.
    psi = [0.0, np.nextafter(4 * math.pi, 0.0)]
    for pole in (math.pi, 3 * math.pi):
        below = above = pole
        for _ in range(8):
            psi += [below, above]
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 4 * math.pi)
        psi += list(pole + np.linspace(-1e-6, 1e-6, 101))
    psi = np.concatenate([psi, np.random.default_rng(0).uniform(0.0, 4 * math.pi, 10_000)])
    cos, sin = _cos_sin(psi[np.newaxis] / 2.0, np.empty((2, len(psi))))
    eps = np.finfo(float).eps
    assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
    assert np.max(np.abs(cos - np.cos(psi))) <= 4 * eps
    assert np.max(np.abs(sin - np.sin(psi))) <= 4 * eps


def test_different_seed_changes_result():
    cfg = _cfg()
    assert g2_monte_carlo(cfg, McSettings(5_000, seed=1)) != g2_monte_carlo(cfg, McSettings(5_000, seed=2))


def test_mc_lt_visibility_reaches_peak_value():
    cfg = _cfg(PairKind.LT, x=math.sqrt(2) / 2, r=0.5)
    res = visibility_from_curve(g2_monte_carlo(cfg, McSettings(100_000, seed=31)), DELTA_NU)
    assert res.v == pytest.approx(1.0 / (math.sqrt(2) + 1.0), abs=0.01)


def test_ss_curve_has_zero_variance_and_unit_visibility():
    for x in (0.01, 7.0, 100.0):
        curve = g2_monte_carlo(_cfg(PairKind.SS, x=x), McSettings(2_000, seed=4))
        assert max(curve.stderr) <= 1e-9
        res = visibility_from_curve(curve, DELTA_NU)
        assert res.v == pytest.approx(1.0, abs=1e-9)
        assert curve.g2[curve.tau.index(0.0)] == 0.0


def test_noiseless_fit_recovers_exactly():
    curve = g2_curve_analytic(PairKind.LL, SYM, DELTA_NU, TAU_GRID)
    res = visibility_from_curve(curve, DELTA_NU)
    assert res.v == pytest.approx(0.5, abs=1e-12)
    assert res.g2_max == pytest.approx(1.5, abs=1e-12)
    assert res.g2_min == pytest.approx(0.5, abs=1e-12)
    assert res.v_stderr is None


def test_flat_curve_has_zero_visibility():
    curve = G2Curve(tau=TAU_GRID, g2=(1.0,) * len(TAU_GRID))
    res = visibility_from_curve(curve, DELTA_NU)
    assert res.v == 0.0


def test_scale_invariance_of_fitted_visibility():
    curve = g2_monte_carlo(_cfg(PairKind.LL), McSettings(20_000, seed=8))
    res = visibility_from_curve(curve, DELTA_NU)
    for k in (1e-3, 7.0, 1e4):
        scaled = G2Curve(
            tau=curve.tau,
            g2=tuple(k * g for g in curve.g2),
            n_realizations=curve.n_realizations,
            seed=curve.seed,
            stderr=tuple(k * s for s in curve.stderr),
            beat_cov=tuple(tuple(k * k * v for v in row) for row in curve.beat_cov),
        )
        assert visibility_from_curve(scaled, DELTA_NU).v == pytest.approx(res.v, abs=1e-12)


def test_degenerate_curve_errors():
    curve = g2_curve_analytic(PairKind.LL, SYM, DELTA_NU, TAU_GRID)
    with pytest.raises(DomainError, match="degenerate"):
        visibility_from_curve(curve, 0.0)
    short = g2_curve_analytic(PairKind.LL, SYM, DELTA_NU, tuple(np.linspace(-2e-7, 2e-7, 11)))
    with pytest.raises(DomainError, match="one beat period"):
        visibility_from_curve(short, DELTA_NU)


def test_inverted_curve_flags_sign_bug():
    # a peak at tau = 0 fits with negative amplitude: convention bug
    g2 = tuple(1.0 + 0.5 * math.cos(2 * math.pi * DELTA_NU * t) for t in TAU_GRID)
    with pytest.raises(DomainError, match="negative beyond noise"):
        visibility_from_curve(G2Curve(tau=TAU_GRID, g2=g2), DELTA_NU)


def test_raw_extrema_mode():
    curve = g2_curve_analytic(PairKind.LL, SYM, DELTA_NU, TAU_GRID)
    res = visibility_from_extrema(max(curve.g2), min(curve.g2))
    assert res.v == pytest.approx(0.5, abs=1e-12)


def test_negative_control_kills_oscillation():
    cfg = _cfg(PairKind.LL)
    curve = g2_monte_carlo(cfg, McSettings(100_000, seed=5), independent_phases=True)
    level, amplitude, cov = fit_cosine(curve, DELTA_NU)
    se_amp = math.sqrt(cov[1, 1])
    assert abs(amplitude) <= 3.0 * se_amp + 1e-9
    assert level == pytest.approx(1.0, abs=0.02)
    res = visibility_from_curve(curve, DELTA_NU)
    assert res.v <= 3.0 * res.v_stderr + 1e-9
    # sanity: the physical model does oscillate on the same seed
    physical = visibility_from_curve(g2_monte_carlo(cfg, McSettings(100_000, seed=5)), DELTA_NU)
    assert physical.v > 0.4


def test_reported_stderr_tracks_seed_scatter():
    cfg = _cfg(PairKind.LL)
    values, errors = [], []
    for seed in range(16):
        res = visibility_from_curve(g2_monte_carlo(cfg, McSettings(4_000, seed=seed)), DELTA_NU)
        values.append(res.v)
        errors.append(res.v_stderr)
    scatter = float(np.std(values, ddof=1))
    reported = float(np.mean(errors))
    assert scatter / 3.0 <= reported <= scatter * 3.0


def test_mc_settings_validation():
    with pytest.raises(DomainError):
        McSettings(n_realizations=0)
    with pytest.raises(DomainError, match=">= 2"):
        McSettings(n_realizations=1)  # no sample variance, so no honest stderr
    assert McSettings(n_realizations=2).n_realizations == 2
    with pytest.raises(DomainError):
        McSettings(seed=-1)
    with pytest.raises(DomainError):
        McSettings(parallel_chunk=0)
    with pytest.raises(DomainError):
        McSettings(threads=0)
