"""Visibility maximization over (x, R) and the nonclassical thresholds.

The search is a coarse grid scan (logarithmic in the intensity ratio,
linear in reflectivity) followed by coordinate-wise golden-section
refinement.  Intensity ratios live on an unbounded domain, so the search is
capped; SL and ST increase monotonically toward the SS limit and will pin
the cap, which the result flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import visibility_expression
from .core import DomainError, PairKind, _open_unit

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# V at R = 0.5 is the ridge for every pairing; results this close to it are
# snapped onto it exactly.
_RIDGE_SNAP = 1e-6


@dataclass(frozen=True)
class VisibilityMaximum:
    """Maximizer of the visibility surface for one pairing.

    x_flat marks a surface with no x dependence at all (the SS case), where
    x_star is merely a representative value.  x_at_cap marks a maximizer
    pinned at the top of the searched x range (SL/ST, which approach their
    supremum as x grows without bound).
    """

    pair: PairKind
    v_max: float
    r_star: float
    x_star: float
    x_flat: bool = False
    x_at_cap: bool = False
    x_range: tuple[float, float] = (1e-3, 1e3)
    r_range: tuple[float, float] = (1e-3, 1.0 - 1e-3)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def maximize_visibility(
    pair: PairKind,
    x_range: tuple[float, float] = (1e-3, 1e3),
    r_range: tuple[float, float] = (1e-3, 1.0 - 1e-3),
    grid: int = 200,
) -> VisibilityMaximum:
    """Locate (v_max, r_star, x_star) for one pairing."""
    x_lo, x_hi = x_range
    r_lo, r_hi = r_range
    if not (0.0 < x_lo < x_hi and math.isfinite(x_hi)):
        raise DomainError("x_range must satisfy 0 < lo < hi < inf")
    if not (0.0 < r_lo < r_hi < 1.0):
        raise DomainError("r_range must lie inside (0, 1)")

    u_grid = np.linspace(math.log10(x_lo), math.log10(x_hi), grid)
    r_grid = np.linspace(r_lo, r_hi, grid)
    surface = visibility_expression(pair, 10.0 ** u_grid[:, None], r_grid[None, :])
    i, j = np.unravel_index(np.argmax(surface), surface.shape)

    # bracket two coarse cells around the grid argmax
    u_bracket = (u_grid[max(i - 2, 0)], u_grid[min(i + 2, grid - 1)])
    r_bracket = (r_grid[max(j - 2, 0)], r_grid[min(j + 2, grid - 1)])

    u_star, r_star = float(u_grid[i]), float(r_grid[j])
    for _ in range(60):
        u_new = _golden_max(lambda u: visibility_expression(pair, 10.0**u, r_star), *u_bracket)
        r_new = _golden_max(lambda r: visibility_expression(pair, 10.0**u_new, r), *r_bracket)
        moved = max(abs(u_new - u_star), abs(r_new - r_star))
        u_star, r_star = u_new, r_new
        if moved < 1e-10:
            break

    x_star = 10.0**u_star
    v_max = float(visibility_expression(pair, x_star, r_star))

    if abs(r_star - 0.5) < _RIDGE_SNAP:
        v_ridge = float(visibility_expression(pair, x_star, 0.5))
        if v_ridge >= v_max - 1e-12:
            r_star, v_max = 0.5, v_ridge

    probes = [float(visibility_expression(pair, x, r_star)) for x in (x_lo, 1.0, x_hi)]
    x_flat = max(probes) - min(probes) <= 1e-12 * max(1.0, max(probes))
    if x_flat:
        x_star = 1.0 if x_lo <= 1.0 <= x_hi else math.sqrt(x_lo * x_hi)
        v_max = float(visibility_expression(pair, x_star, r_star))
    x_at_cap = (not x_flat) and u_star >= math.log10(x_hi) - 1e-6

    return VisibilityMaximum(
        pair=pair,
        v_max=v_max,
        r_star=float(r_star),
        x_star=float(x_star),
        x_flat=bool(x_flat),
        x_at_cap=bool(x_at_cap),
        x_range=(float(x_lo), float(x_hi)),
        r_range=(float(r_lo), float(r_hi)),
    )


def feasible_reflectivity_interval() -> tuple[float, float]:
    """Open reflectivity interval where 6R - 6R^2 - 1 > 0.

    Outside it, the visibility of a single-photon source mixed with laser or
    thermal light cannot exceed the classical 0.5 bound for any intensity
    ratio.  The interval is symmetric about R = 0.5.
    """
    root = math.sqrt(3.0)
    return ((3.0 - root) / 6.0, (3.0 + root) / 6.0)


def threshold_min_ratio(pair: PairKind, r: float) -> float | None:
    """Smallest intensity ratio at which V(pair, x, R) reaches 0.5.

    Defined for the SL and ST pairings only.  Returns None when R is outside
    the feasible interval (the bound is unreachable there).  At the returned
    ratio the visibility equals 0.5 exactly.
    """
    if pair not in (PairKind.SL, PairKind.ST):
        raise DomainError("threshold is defined for SL and ST pairings only")
    r = _open_unit(r)
    margin = 6.0 * r - 6.0 * r * r - 1.0
    if margin <= 0.0:
        return None
    scale = 1.0 if pair is PairKind.SL else 2.0
    return scale * (r - r * r) / margin
