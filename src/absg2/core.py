"""Domain types shared by every other module.

All types validate their invariants at construction and are immutable
afterwards, so instances are safe to share across threads.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass

# Tolerance for algebraic identities between 64-bit floats (p1a + p1b = 1,
# visibility vs. extrema, ...).
ALGEBRA_TOL = 1e-12


class DomainError(ValueError):
    """A physical parameter violates its domain constraint."""


def _as_float(value) -> float:
    """value as a float if it is a real number other than bool, else nan."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int or Fraction beyond the float range
        return math.nan


def _positive_real(value) -> float:
    """The intensity ratio as a float; finite, > 0 and not subnormal."""
    x = _as_float(value)
    if not 0.0 < x < math.inf:
        raise DomainError("x must be > 0")
    if x < sys.float_info.min:
        raise DomainError("x must be >= 2.2e-308, the smallest normal float")
    return x


def _open_unit(value) -> float:
    """The reflectivity as a float; it must lie strictly inside (0, 1)."""
    r = _as_float(value)
    if not 0.0 < r < 1.0:
        raise DomainError("R out of (0,1)")
    return r


class SourceKind(enum.IntEnum):
    """Kind of light source feeding one input port.

    IntEnum so the kinds have a fixed order, which is what makes the
    unordered pair canonicalization in :class:`PairKind` deterministic.
    """

    LASER = 0
    THERMAL = 1
    SINGLE_PHOTON = 2


class PairKind(enum.Enum):
    """Canonical unordered pairing of the two sources.

    The value doubles as the CLI spelling.  Note the pair label does not fix
    which physical source sits at input "a": by convention the laser is
    source b in LT and SL, and the thermal source is source b in ST
    (see :meth:`source_a` / :meth:`source_b`).
    """

    LT = "lt"
    LL = "ll"
    TT = "tt"
    SS = "ss"
    SL = "sl"
    ST = "st"

    @classmethod
    def from_sources(cls, first: SourceKind, second: SourceKind) -> "PairKind":
        """Canonicalize any ordered pair of source kinds."""
        key = tuple(sorted((first, second)))
        return _PAIR_BY_SOURCES[key]

    @property
    def source_a(self) -> SourceKind:
        return _PAIR_ROLES[self][0]

    @property
    def source_b(self) -> SourceKind:
        return _PAIR_ROLES[self][1]


# Input-port roles (source a, source b) for each pairing.  The intensity
# ratio x is always I_a / I_b with these roles.
_PAIR_ROLES: dict[PairKind, tuple[SourceKind, SourceKind]] = {
    PairKind.LT: (SourceKind.THERMAL, SourceKind.LASER),
    PairKind.LL: (SourceKind.LASER, SourceKind.LASER),
    PairKind.TT: (SourceKind.THERMAL, SourceKind.THERMAL),
    PairKind.SS: (SourceKind.SINGLE_PHOTON, SourceKind.SINGLE_PHOTON),
    PairKind.SL: (SourceKind.SINGLE_PHOTON, SourceKind.LASER),
    PairKind.ST: (SourceKind.SINGLE_PHOTON, SourceKind.THERMAL),
}

_PAIR_BY_SOURCES: dict[tuple[SourceKind, SourceKind], PairKind] = {
    tuple(sorted(roles)): pair for pair, roles in _PAIR_ROLES.items()
}


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless beam splitter with reflectivity strictly inside (0, 1).

    Transmissivity is derived as 1 - R so the lossless identity holds to
    machine precision.  R in {0, 1} is rejected outright: those mirrors
    produce no interference pattern and a dedicated error beats silently
    degenerate curves.
    """

    reflectivity: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "reflectivity", _open_unit(self.reflectivity))

    @property
    def transmissivity(self) -> float:
        return 1.0 - self.reflectivity


@dataclass(frozen=True)
class PathProbabilities:
    """Conditional source-of-photon probabilities for the two detectors.

    p1a is the probability that the photon seen by detector 1 came from
    source a, and so on.  Both detector rows must each sum to one.
    """

    p1a: float
    p1b: float
    p2a: float
    p2b: float

    def __post_init__(self) -> None:
        for name in ("p1a", "p1b", "p2a", "p2b"):
            p = getattr(self, name)
            if not (math.isfinite(p) and 0.0 <= p <= 1.0):
                raise DomainError(f"{name} must be a probability in [0, 1], got {p!r}")
        if abs(self.p1a + self.p1b - 1.0) > ALGEBRA_TOL:
            raise DomainError("p1a + p1b must equal 1")
        if abs(self.p2a + self.p2b - 1.0) > ALGEBRA_TOL:
            raise DomainError("p2a + p2b must equal 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one interference configuration.

    intensity_ratio is x = I_a / I_b (roles per PairKind).  delta_nu is the
    beat frequency |nu_a - nu_b| in Hz.  tau_grid holds the detection-time
    offsets tau = t1 - t2 in seconds, strictly increasing.
    """

    pair: PairKind
    intensity_ratio: float
    bs: BeamSplitter
    delta_nu: float
    tau_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.pair, PairKind):
            raise DomainError(f"pair must be a PairKind, got {self.pair!r}")
        object.__setattr__(self, "intensity_ratio", _positive_real(self.intensity_ratio))
        if not isinstance(self.bs, BeamSplitter):
            raise DomainError("bs must be a BeamSplitter")
        delta_nu = _as_float(self.delta_nu)
        if not 0.0 <= delta_nu < math.inf:
            raise DomainError("delta_nu must be >= 0 and finite")
        object.__setattr__(self, "delta_nu", delta_nu)
        tau = tuple(_as_float(t) for t in self.tau_grid)
        object.__setattr__(self, "tau_grid", tau)
        if len(tau) == 0:
            raise DomainError("tau_grid must be non-empty")
        if not all(math.isfinite(t) for t in tau):
            raise DomainError("tau_grid entries must be finite")
        if any(b <= a for a, b in zip(tau, tau[1:])):
            raise DomainError("tau_grid must be strictly increasing")
        # the curves evaluate cos(2 pi delta_nu tau); the ends bound its argument
        if not all(math.isfinite(2.0 * math.pi * delta_nu * t) for t in (tau[0], tau[-1])):
            raise DomainError("2 pi delta_nu tau must be finite")


@dataclass(frozen=True)
class Alternative:
    """One indistinguishable two-photon path from the sources to (D1, D2).

    weight is the non-negative amplitude coefficient.  d1_source / d2_source
    name the source ("a" or "b") of the photon reaching each detector.
    bs_phase_count counts the beam-splitter reflections in the path product
    (each contributes pi/2).  phase_slots indexes the two photon phases in a
    realization's phase vector.
    """

    weight: float
    d1_source: str
    d2_source: str
    bs_phase_count: int
    phase_slots: tuple[int, int]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise DomainError("weight must be >= 0")
        if self.d1_source not in ("a", "b") or self.d2_source not in ("a", "b"):
            raise DomainError("detector sources must be 'a' or 'b'")
        if self.bs_phase_count not in (0, 1, 2):
            raise DomainError("bs_phase_count must be 0, 1 or 2")
        if len(self.phase_slots) != 2 or any(s < 0 for s in self.phase_slots):
            raise DomainError("phase_slots must be a pair of non-negative indices")
        object.__setattr__(self, "phase_slots", (int(self.phase_slots[0]), int(self.phase_slots[1])))


@dataclass(frozen=True)
class G2Curve:
    """Sampled second-order coherence curve, in proportional units.

    Analytic curves carry n_realizations = 0 and no seed / stderr /
    parallel_chunk.  Monte Carlo curves record how they were produced (seed,
    n_realizations and parallel_chunk, which all change the result) so runs
    can be reproduced bit for bit.

    A sampled curve is level + cos + sin components at the beat frequency,
    and the component noise is fully correlated across tau points (it does
    not average down over the grid).  beat_cov stores the 3x3 covariance of
    the estimated (level, cos, sin) component means so downstream fits can
    propagate uncertainty exactly; per-point stderr is derived from it and
    alone would understate it severalfold, so it never comes without it.
    """

    tau: tuple[float, ...]
    g2: tuple[float, ...]
    n_realizations: int = 0
    seed: int | None = None
    stderr: tuple[float, ...] | None = None
    beat_cov: tuple[tuple[float, float, float], ...] | None = None
    parallel_chunk: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", tuple(float(t) for t in self.tau))
        object.__setattr__(self, "g2", tuple(float(g) for g in self.g2))
        if self.stderr is not None:
            object.__setattr__(self, "stderr", tuple(float(s) for s in self.stderr))
        if self.beat_cov is not None:
            object.__setattr__(
                self, "beat_cov", tuple(tuple(float(v) for v in row) for row in self.beat_cov)
            )
        if len(self.tau) != len(self.g2):
            raise DomainError("tau and g2 must have the same length")
        if self.stderr is not None and (self.beat_cov is None or len(self.stderr) != len(self.tau)):
            raise DomainError("stderr must match tau and come with beat_cov")
        if self.beat_cov is not None and (
            len(self.beat_cov) != 3 or any(len(row) != 3 for row in self.beat_cov)
        ):
            raise DomainError("beat_cov must be a 3x3 matrix")
        if any(g < 0.0 for g in self.g2):
            raise DomainError("g2 values must be >= 0")
        if self.n_realizations < 0:
            raise DomainError("n_realizations must be >= 0")
        if self.parallel_chunk is not None and self.parallel_chunk < 1:
            raise DomainError("parallel_chunk must be >= 1")


@dataclass(frozen=True)
class VisibilityResult:
    """Interference visibility together with the extrema it came from.

    v_stderr is the propagated 1-sigma uncertainty when the visibility was
    fitted from a sampled curve; None for exact results.
    """

    v: float
    g2_max: float
    g2_min: float
    v_stderr: float | None = None

    def __post_init__(self) -> None:
        if not (self.g2_max >= self.g2_min >= 0.0) or self.g2_max <= 0.0:
            raise DomainError("extrema must satisfy g2_max >= g2_min >= 0 and g2_max > 0")
        expected = (self.g2_max - self.g2_min) / (self.g2_max + self.g2_min)
        if abs(self.v - expected) > ALGEBRA_TOL:
            raise DomainError("v must equal (g2_max - g2_min)/(g2_max + g2_min)")
        if not 0.0 <= self.v <= 1.0:
            raise DomainError("v must lie in [0, 1]")
