"""Shared test oracles, kept independent of the code paths they check."""

from __future__ import annotations

import cmath
import math

import numpy as np

from absg2.alternatives import phase_model
from absg2.analytic import visibility_expression
from absg2.core import Alternative, DomainError, PairKind


def temporal_propagator(nu: float, t: float) -> complex:
    """Unit-modulus temporal factor exp(i 2 pi nu t) of one photon amplitude.

    With all source-to-detector optical distances equal, the spatial factor
    is a common constant across alternatives and is dropped.
    """
    return cmath.exp(1j * 2.0 * math.pi * nu * t)


def realization_value(
    pair: PairKind,
    alts: list[Alternative],
    phases,
    delta_nu: float,
    tau: float,
) -> float:
    """|sum of alternative amplitudes|^2 for one phase draw.

    Reference implementation, one term at a time; the batched estimator in
    :func:`absg2.montecarlo.g2_monte_carlo` must agree with averaging this.
    """
    needed = phase_model(pair).n_slots
    span = 1 + max(max(a.phase_slots) for a in alts)
    if span > needed:  # relabeled term list (negative control)
        needed = span
    if len(phases) != needed:
        raise DomainError(f"phase vector must have length {needed}, got {len(phases)}")
    nu = {"a": delta_nu, "b": 0.0}
    t1, t2 = tau, 0.0
    amp = 0.0 + 0.0j
    for a in alts:
        phi = (
            phases[a.phase_slots[0]]
            + phases[a.phase_slots[1]]
            + a.bs_phase_count * (math.pi / 2.0)
        )
        amp += (
            a.weight
            * complex(math.cos(phi), math.sin(phi))
            * temporal_propagator(nu[a.d1_source], t1)
            * temporal_propagator(nu[a.d2_source], t2)
        )
    return abs(amp) ** 2


def exact_phase_average(alts: list[Alternative], delta_nu: float, tau: float) -> float:
    """Exact ensemble average of |sum of amplitudes|^2 over uniform phases.

    Expands the squared modulus into term pairs.  A pair survives the
    average iff the two terms reference the same multiset of phase slots
    (the expectation of exp(i n phi) vanishes for any nonzero integer n).
    Pure enumeration; shares no code with the closed forms or the sampler.
    """
    nu = {"a": delta_nu, "b": 0.0}
    t1, t2 = tau, 0.0
    total = 0.0
    for j in alts:
        for k in alts:
            if sorted(j.phase_slots) != sorted(k.phase_slots):
                continue
            phase = (j.bs_phase_count - k.bs_phase_count) * (math.pi / 2.0)
            phase += 2.0 * math.pi * (
                (nu[j.d1_source] - nu[k.d1_source]) * t1
                + (nu[j.d2_source] - nu[k.d2_source]) * t2
            )
            total += j.weight * k.weight * math.cos(phase)
    return total


def random_domain_points(n: int, seed: int) -> list[tuple[float, float]]:
    """n random (x, R) pairs covering several decades of ratio."""
    rng = np.random.default_rng(seed)
    xs = 10.0 ** rng.uniform(-2.0, 2.0, n)
    rs = rng.uniform(0.02, 0.98, n)
    return [(float(x), float(r)) for x, r in zip(xs, rs)]


def reference_sweep_csv(pair: PairKind, xs, rs) -> bytes:
    """The sweep CSV built one cell at a time; the CLI's row-at-a-time
    writer must give the same bytes."""
    lines = ["pair,x,R,visibility"]
    for x in xs:
        for r in rs:
            v = float(visibility_expression(pair, x, r))
            cells = (format(float(x), ".9g"), format(float(r), ".9g"), format(v, ".9g"))
            lines.append(",".join((pair.value, *cells)))
    return ("\n".join(lines) + "\n").encode()
