"""Conditional path probabilities at the beam splitter.

Only the intensity ratio x = I_a / I_b enters; absolute intensities are a
redundant degree of freedom and are never stored.
"""

from __future__ import annotations

from .core import BeamSplitter, PathProbabilities, _positive_real


def path_probabilities(intensity_ratio: float, bs: BeamSplitter) -> PathProbabilities:
    """Source-of-photon probabilities for both detectors.

    Detector 1 sees source a through transmission and source b through
    reflection, detector 2 the other way around:

        p1a = x T / (x T + R)      p2a = x R / (x R + T)

    with T = 1 - R and x the intensity ratio I_a / I_b.  p1b and p2b are
    quotients too, not 1 - p, so they keep their precision at extreme x.
    """
    x = _positive_real(intensity_ratio)
    r = bs.reflectivity
    t = bs.transmissivity
    d1, d2 = x * t + r, x * r + t
    return PathProbabilities(p1a=x * t / d1, p1b=r / d1, p2a=x * r / d2, p2b=t / d2)


def way_probabilities(p: PathProbabilities) -> tuple[float, float, float]:
    """Probabilities of the three ways to trigger a coincidence:
    (both photons from a, both from b, one from each).  They sum to 1.
    """
    both_a = p.p1a * p.p2a
    both_b = p.p1b * p.p2b
    cross = p.p1a * p.p2b + p.p1b * p.p2a
    return both_a, both_b, cross
