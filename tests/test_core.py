import numpy as np
import pytest

from absg2.core import (
    BeamSplitter,
    DomainError,
    ExperimentConfig,
    G2Curve,
    PairKind,
    PathProbabilities,
    SourceKind,
    VisibilityResult,
)


def test_pair_kind_is_order_independent():
    kinds = list(SourceKind)
    for first in kinds:
        for second in kinds:
            assert PairKind.from_sources(first, second) == PairKind.from_sources(second, first)


def test_pair_kind_canonical_values():
    assert PairKind.from_sources(SourceKind.LASER, SourceKind.THERMAL) is PairKind.LT
    assert PairKind.from_sources(SourceKind.THERMAL, SourceKind.LASER) is PairKind.LT
    assert PairKind.from_sources(SourceKind.SINGLE_PHOTON, SourceKind.SINGLE_PHOTON) is PairKind.SS
    assert PairKind.from_sources(SourceKind.LASER, SourceKind.SINGLE_PHOTON) is PairKind.SL
    assert PairKind.from_sources(SourceKind.THERMAL, SourceKind.SINGLE_PHOTON) is PairKind.ST


def test_pair_roles_follow_convention():
    # the laser is source b in LT and SL; the thermal source is b in ST
    assert PairKind.LT.source_a is SourceKind.THERMAL
    assert PairKind.LT.source_b is SourceKind.LASER
    assert PairKind.SL.source_b is SourceKind.LASER
    assert PairKind.ST.source_b is SourceKind.THERMAL


def test_beam_splitter_lossless_identity():
    for r in (0.1, 0.25, 0.5, 1.0 / 3.0, 0.999):
        bs = BeamSplitter(r)
        assert bs.reflectivity + bs.transmissivity == 1.0


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, float("nan"), float("inf")])
def test_beam_splitter_rejects_degenerate(bad):
    with pytest.raises(DomainError, match="R out of"):
        BeamSplitter(bad)


def test_beam_splitter_takes_numpy_reals_and_rejects_bool():
    assert BeamSplitter(np.float32(0.25)).reflectivity == 0.25
    assert type(BeamSplitter(np.float64(0.5)).reflectivity) is float
    for bad in (True, False, np.bool_(True), "0.5", None):
        with pytest.raises(DomainError, match="R out of"):
            BeamSplitter(bad)


def _config(**overrides):
    base = dict(
        pair=PairKind.LL,
        intensity_ratio=1.0,
        bs=BeamSplitter(0.5),
        delta_nu=1e6,
        tau_grid=(-2e-6, -1e-6, 0.0, 1e-6, 2e-6),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_accepts_good_config():
    cfg = _config(intensity_ratio=np.float32(2.0), delta_nu=np.int64(1_000_000))
    assert cfg.intensity_ratio == 2.0 and type(cfg.intensity_ratio) is float
    assert cfg.delta_nu == 1e6 and type(cfg.delta_nu) is float
    assert all(type(t) is float for t in cfg.tau_grid)


def test_config_rejects_bad_ratio():
    with pytest.raises(DomainError, match="x must be > 0"):
        _config(intensity_ratio=0.0)
    with pytest.raises(DomainError, match="x must be > 0"):
        _config(intensity_ratio=float("inf"))
    with pytest.raises(DomainError, match="x must be > 0"):
        _config(intensity_ratio=True)


def test_config_rejects_bad_tau_grid():
    with pytest.raises(DomainError, match="strictly increasing"):
        _config(tau_grid=(0.0, 1e-6, 1e-6))
    with pytest.raises(DomainError, match="non-empty"):
        _config(tau_grid=())
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="finite"):
            _config(tau_grid=(-1e-6, bad))


def test_config_rejects_bad_delta_nu():
    with pytest.raises(DomainError):
        _config(delta_nu=-1.0)
    with pytest.raises(DomainError):
        _config(delta_nu=float("nan"))


def test_path_probabilities_must_sum_to_one():
    PathProbabilities(0.3, 0.7, 0.6, 0.4)
    with pytest.raises(DomainError):
        PathProbabilities(0.3, 0.6, 0.6, 0.4)
    with pytest.raises(DomainError):
        PathProbabilities(-0.1, 1.1, 0.5, 0.5)


def test_g2_curve_checks():
    G2Curve(tau=(0.0, 1.0), g2=(1.0, 2.0))
    with pytest.raises(DomainError, match="same length"):
        G2Curve(tau=(0.0, 1.0), g2=(1.0,))
    with pytest.raises(DomainError, match=">= 0"):
        G2Curve(tau=(0.0,), g2=(-0.5,))
    cov = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(DomainError, match="stderr"):
        G2Curve(tau=(0.0, 1.0), g2=(1.0, 1.0), stderr=(0.1,), beat_cov=cov)
    with pytest.raises(DomainError, match="stderr"):  # stderr alone understates the variance
        G2Curve(tau=(0.0, 1.0), g2=(1.0, 1.0), stderr=(0.1, 0.1))
    G2Curve(tau=(0.0, 1.0), g2=(1.0, 1.0), stderr=(0.1, 0.1), beat_cov=cov)
    with pytest.raises(DomainError, match="beat_cov"):
        G2Curve(tau=(0.0,), g2=(1.0,), beat_cov=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(DomainError, match="parallel_chunk"):
        G2Curve(tau=(0.0,), g2=(1.0,), parallel_chunk=0)


def test_visibility_result_identity():
    res = VisibilityResult(v=0.5, g2_max=1.5, g2_min=0.5)
    assert res.v == 0.5
    with pytest.raises(DomainError):
        VisibilityResult(v=0.4, g2_max=1.5, g2_min=0.5)
    with pytest.raises(DomainError):
        VisibilityResult(v=0.0, g2_max=0.0, g2_min=0.0)


def test_core_types_are_immutable():
    bs = BeamSplitter(0.5)
    with pytest.raises(AttributeError):
        bs.reflectivity = 0.7
    cfg = _config()
    with pytest.raises(AttributeError):
        cfg.delta_nu = 0.0
