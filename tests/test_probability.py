import pytest

from absg2.core import BeamSplitter, DomainError
from absg2.probability import path_probabilities, way_probabilities

from helpers import random_domain_points


def test_symmetric_case():
    p = path_probabilities(1.0, BeamSplitter(0.5))
    assert (p.p1a, p.p1b, p.p2a, p.p2b) == (0.5, 0.5, 0.5, 0.5)
    assert way_probabilities(p) == (0.25, 0.25, 0.5)


def test_hand_evaluated_point():
    # x = 2, R = 0.25: p1a = 1.5/1.75, p2a = 0.5/1.25
    p = path_probabilities(2.0, BeamSplitter(0.25))
    assert p.p1a == pytest.approx(6.0 / 7.0, abs=1e-15)
    assert p.p2a == pytest.approx(0.4, abs=1e-15)
    both_a, both_b, cross = way_probabilities(p)
    assert both_a == pytest.approx(0.342857142857, abs=1e-12)
    assert both_b == pytest.approx(0.085714285714, abs=1e-12)
    assert cross == pytest.approx(0.571428571429, abs=1e-12)


def test_balanced_ratio_reduces_to_r_and_t():
    p = path_probabilities(1.0, BeamSplitter(0.3))
    assert p.p1a == pytest.approx(0.7, abs=1e-15)
    assert p.p2a == pytest.approx(0.3, abs=1e-15)


def test_rows_sum_to_one_everywhere():
    for x, r in random_domain_points(2000, seed=101):
        p = path_probabilities(x, BeamSplitter(r))
        assert abs(p.p1a + p.p1b - 1.0) <= 1e-12
        assert abs(p.p2a + p.p2b - 1.0) <= 1e-12
        assert abs(sum(way_probabilities(p)) - 1.0) <= 1e-12


def test_detector_swap_equals_mirrored_reflectivity():
    for x, r in random_domain_points(300, seed=7):
        p = path_probabilities(x, BeamSplitter(r))
        q = path_probabilities(x, BeamSplitter(1.0 - r))
        assert q.p1a == pytest.approx(p.p2a, abs=1e-12)
        assert q.p2a == pytest.approx(p.p1a, abs=1e-12)


def test_rejects_bad_ratio():
    with pytest.raises(DomainError, match="x must be > 0"):
        path_probabilities(0.0, BeamSplitter(0.5))
    with pytest.raises(DomainError, match="x must be > 0"):
        path_probabilities(-3.0, BeamSplitter(0.5))


@pytest.mark.parametrize(
    "x, r",
    [(1e-300, 1e-30), (1e-300, 1.0 - 1e-16), (1e308, 0.4), (1e300, 1e-10), (3e-308, 0.4)],
)
def test_rejects_underflowing_path_probability(x, r):
    # x R or x T, or R or T over it, below 2.2e-308: p2a (or p1b) would be 0
    # or subnormal and the visibility would read 0.
    with pytest.raises(DomainError, match="smallest normal float"):
        path_probabilities(x, BeamSplitter(r))

