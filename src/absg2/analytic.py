"""Closed-form coherence curves and visibilities for all six pairings.

Every pairing averages to the same shape,

    G2(tau) = constant - amplitude * cos(2 pi delta_nu tau),

with amplitude 2 sqrt(p1a p1b p2a p2b) throughout; only the constant term
differs.  The thermal bunching doubles each same-thermal way, the laser
contributes its way once, and a single-photon source deletes its same-source
way entirely:

    LT: 1 + p1a p2a                 LL: 1
    TT: 1 + p1a p2a + p1b p2b       SS: p1a p2b + p1b p2a
    SL: p1b p2b + cross             ST: 2 p1b p2b + cross

Visibility is the curve contrast (max - min)/(max + min) = amplitude/constant.
`visibility_analytic` evaluates the independently derived rational functions
of (x, R); agreement of the two routes is a regression guard, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    ALGEBRA_TOL,
    DomainError,
    G2Curve,
    PairKind,
    PathProbabilities,
    VisibilityResult,
    _open_unit,
    _positive_real,
)


@dataclass(frozen=True)
class ClosedFormG2:
    """Coefficients of G2(tau) = constant - amplitude * cos(2 pi dv tau).

    The minus sign holds for every pairing: the pi relative phase between the
    two cross alternatives makes the beat a dip at tau = 0, never a peak.
    """

    constant_term: float
    oscillation_amplitude: float

    def __post_init__(self) -> None:
        if not self.constant_term >= self.oscillation_amplitude >= 0.0:
            raise DomainError("need constant_term >= oscillation_amplitude >= 0")

    def value(self, delta_nu: float, tau: float) -> float:
        return self.constant_term - self.oscillation_amplitude * math.cos(
            2.0 * math.pi * delta_nu * tau
        )

    @property
    def visibility(self) -> float:
        return self.oscillation_amplitude / self.constant_term


def g2_closed_form(pair: PairKind, p: PathProbabilities) -> ClosedFormG2:
    """Constant and oscillation amplitude of the averaged coherence curve."""
    # paired so that neither product underflows when x is extreme
    amplitude = 2.0 * math.sqrt(p.p1a * p.p2b) * math.sqrt(p.p1b * p.p2a)
    cross = p.p1a * p.p2b + p.p1b * p.p2a
    constant = {
        PairKind.LT: 1.0 + p.p1a * p.p2a,
        PairKind.LL: 1.0,
        PairKind.TT: 1.0 + p.p1a * p.p2a + p.p1b * p.p2b,
        PairKind.SS: cross,
        PairKind.SL: p.p1b * p.p2b + cross,
        PairKind.ST: 2.0 * p.p1b * p.p2b + cross,
    }[pair]
    if amplitude - constant <= ALGEBRA_TOL:  # at V = 1 roundoff can overshoot by an ulp
        amplitude = min(amplitude, constant)
    return ClosedFormG2(constant_term=constant, oscillation_amplitude=amplitude)


def g2_analytic(pair: PairKind, p: PathProbabilities, delta_nu: float, tau: float) -> float:
    """Exact G2 at one time offset, in proportional units."""
    return g2_closed_form(pair, p).value(delta_nu, tau)


def g2_curve_analytic(
    pair: PairKind, p: PathProbabilities, delta_nu: float, tau_grid: tuple[float, ...]
) -> G2Curve:
    """Exact curve sampled on a grid (n_realizations = 0, no stderr)."""
    form = g2_closed_form(pair, p)
    return G2Curve(tau=tuple(tau_grid), g2=tuple(form.value(delta_nu, t) for t in tau_grid))


def visibility_expression(pair: PairKind, x, r):
    """Closed-form visibility as a plain arithmetic expression.

    No domain checks; broadcasts over numpy arrays.  Well defined on the
    closed reflectivity interval [0, 1] (the value is 0 at both ends), which
    is what grid sweeps over the full interval rely on.  Use
    :func:`visibility_analytic` for checked scalar evaluation.
    """
    rt = r * (1.0 - r)
    if pair is PairKind.SS:
        return 2.0 * rt / (1.0 - 2.0 * rt)
    num = 2.0 * rt * x  # 2 rt <= 0.5, so this cannot overflow for finite x
    if pair is PairKind.LL:
        return num / ((x + r - x * r) * (1.0 - r + x * r))
    if pair is PairKind.LT:
        return num / ((x + r - x * r) * (1.0 - r + x * r) + x * x * rt)
    if pair is PairKind.TT:
        return num / ((x + r - x * r) * (1.0 - r + x * r) + x * x * rt + rt)
    if pair is PairKind.SL:
        return num / (x * (1.0 - 2.0 * rt) + rt)
    if pair is PairKind.ST:
        return num / (x * (1.0 - 2.0 * rt) + 2.0 * rt)
    raise DomainError(f"unknown pair kind {pair!r}")


def visibility_analytic(pair: PairKind, x: float, r: float) -> float:
    """Visibility of the interference pattern at intensity ratio x and
    reflectivity r, from the pairing's closed-form rational function."""
    return float(visibility_expression(pair, _positive_real(x), _open_unit(r)))


def visibility_from_extrema(g2_max: float, g2_min: float) -> VisibilityResult:
    """Contrast (g2_max - g2_min) / (g2_max + g2_min) of a curve's extrema."""
    g2_max, g2_min = float(g2_max), float(g2_min)
    if not g2_max + g2_min > 0.0:  # VisibilityResult checks the rest
        raise DomainError("extrema must satisfy g2_max >= g2_min >= 0 and g2_max > 0")
    v = (g2_max - g2_min) / (g2_max + g2_min)
    return VisibilityResult(v=v, g2_max=g2_max, g2_min=g2_min)
