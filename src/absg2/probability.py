"""Conditional path probabilities at the beam splitter.

Only the intensity ratio x = I_a / I_b enters; absolute intensities are a
redundant degree of freedom and are never stored.
"""

from __future__ import annotations

import sys

from .core import BeamSplitter, DomainError, PathProbabilities, _positive_real


def path_probabilities(intensity_ratio: float, bs: BeamSplitter) -> PathProbabilities:
    """Source-of-photon probabilities for both detectors.

    Detector 1 sees source a through transmission and source b through
    reflection, detector 2 the other way around:

        p1a = x T / (x T + R)      p2a = x R / (x R + T)

    with T = 1 - R and x the intensity ratio I_a / I_b.  p1b and p2b are
    quotients too, not 1 - p, so they keep their precision at extreme x.
    A probability below the normal float range would have lost its
    precision or be 0, so such an (x, R) pair is rejected.
    """
    x = _positive_real(intensity_ratio)
    r = bs.reflectivity
    t = bs.transmissivity
    d1, d2 = x * t + r, x * r + t
    p1a, p1b, p2a, p2b = x * t / d1, r / d1, x * r / d2, t / d2
    if min(p1a, p1b, p2a, p2b) < sys.float_info.min:
        raise DomainError("a path probability is below 2.2e-308, the smallest normal float")
    return PathProbabilities(p1a=p1a, p1b=p1b, p2a=p2a, p2b=p2b)


def way_probabilities(p: PathProbabilities) -> tuple[float, float, float]:
    """Probabilities of the three ways to trigger a coincidence:
    (both photons from a, both from b, one from each).  They sum to 1.
    """
    both_a = p.p1a * p.p2a
    both_b = p.p1b * p.p2b
    cross = p.p1a * p.p2b + p.p1b * p.p2a
    return both_a, both_b, cross
