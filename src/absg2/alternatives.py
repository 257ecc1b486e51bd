"""Two-photon path alternatives and their phase bookkeeping.

A coincidence between the two detectors can happen through several
indistinguishable alternatives, one amplitude term each.  Every term is the
product of two single-photon amplitudes, and each photon carries

  * a random emission phase, drawn per realization from a phase slot,
  * pi/2 per beam-splitter reflection along its path,
  * the temporal factor exp(i 2 pi nu t) of its source frequency.

Which terms exist, and which terms share phase slots, is what separates the
source pairings:

  * thermal source: a same-source photon pair contributes two orderings
    (the two photons swapped between the detectors), each scaled by
    1/sqrt(2); every photon pair gets fresh independent phase slots.
  * laser source: all photons of that source share a single phase slot per
    realization, and a same-source pair contributes one ordering only.
  * single-photon source: emits at most one photon at a time, so same-source
    pairs simply do not occur; its one phase slot cancels in all surviving
    cross terms.

Squared weights are normalized so that their sum equals the total
probability of the ways the pairing admits (1 when both sources can emit
pairs, less when a single-photon source removes ways).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Alternative, DomainError, PairKind, PathProbabilities

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class PhaseModel:
    """Phase-slot layout of one pairing: how many slots a realization draws.
    Slot assignment per term is deterministic."""

    pair: PairKind
    n_slots: int


# Slot meanings, in index order.  A thermal source has one pair of slots for
# its same-source ways and one for the cross way; a laser or single-photon
# source has a single slot.
#   LT: a.0 a.1 a.x b.laser          LL: a.laser b.laser
#   TT: a.0 a.1 a.x b.0 b.1 b.x      SS: a.photon b.photon
#   SL: a.photon b.laser             ST: a.photon b.0 b.1 b.x
_N_SLOTS = {
    PairKind.LT: 4,
    PairKind.LL: 2,
    PairKind.TT: 6,
    PairKind.SS: 2,
    PairKind.SL: 2,
    PairKind.ST: 4,
}


def phase_model(pair: PairKind) -> PhaseModel:
    return PhaseModel(pair=pair, n_slots=_N_SLOTS[pair])


def enumerate_alternatives(pair: PairKind, p: PathProbabilities) -> list[Alternative]:
    """The exact amplitude-term list for a pairing.

    Term counts: LT 5, LL 4, TT 6, SS 2, SL 3, ST 4.  The two cross terms of
    every pairing carry beam-splitter phase counts 0 and 2, so they sit pi
    out of phase; this is what produces the negative oscillation term in the
    averaged coherence function.
    """
    w_aa = math.sqrt(p.p1a * p.p2a)
    w_bb = math.sqrt(p.p1b * p.p2b)
    w_ab = math.sqrt(p.p1a * p.p2b)  # D1 from a, D2 from b: two transmissions
    w_ba = math.sqrt(p.p1b * p.p2a)  # D1 from b, D2 from a: two reflections

    if pair is PairKind.LT:
        return [
            Alternative(w_aa * _SQRT_HALF, "a", "a", 1, (0, 1)),
            Alternative(w_aa * _SQRT_HALF, "a", "a", 1, (1, 0)),
            Alternative(w_bb, "b", "b", 1, (3, 3)),
            Alternative(w_ab, "a", "b", 0, (2, 3)),
            Alternative(w_ba, "b", "a", 2, (3, 2)),
        ]
    if pair is PairKind.LL:
        return [
            Alternative(w_aa, "a", "a", 1, (0, 0)),
            Alternative(w_bb, "b", "b", 1, (1, 1)),
            Alternative(w_ab, "a", "b", 0, (0, 1)),
            Alternative(w_ba, "b", "a", 2, (1, 0)),
        ]
    if pair is PairKind.TT:
        return [
            Alternative(w_aa * _SQRT_HALF, "a", "a", 1, (0, 1)),
            Alternative(w_aa * _SQRT_HALF, "a", "a", 1, (1, 0)),
            Alternative(w_bb * _SQRT_HALF, "b", "b", 1, (3, 4)),
            Alternative(w_bb * _SQRT_HALF, "b", "b", 1, (4, 3)),
            Alternative(w_ab, "a", "b", 0, (2, 5)),
            Alternative(w_ba, "b", "a", 2, (5, 2)),
        ]
    if pair is PairKind.SS:
        # same-source pairs are impossible: cross terms only
        return [
            Alternative(w_ab, "a", "b", 0, (0, 1)),
            Alternative(w_ba, "b", "a", 2, (1, 0)),
        ]
    if pair is PairKind.SL:
        return [
            Alternative(w_bb, "b", "b", 1, (1, 1)),
            Alternative(w_ab, "a", "b", 0, (0, 1)),
            Alternative(w_ba, "b", "a", 2, (1, 0)),
        ]
    if pair is PairKind.ST:
        return [
            Alternative(w_bb * _SQRT_HALF, "b", "b", 1, (1, 2)),
            Alternative(w_bb * _SQRT_HALF, "b", "b", 1, (2, 1)),
            Alternative(w_ab, "a", "b", 0, (0, 3)),
            Alternative(w_ba, "b", "a", 2, (3, 0)),
        ]
    raise DomainError(f"unknown pair kind {pair!r}")


def independent_phase_slots(alts: list[Alternative]) -> tuple[list[Alternative], int]:
    """Negative control: give every phase occurrence its own fresh slot.

    This destroys all phase correlations between alternatives (including the
    laser's shared slot and the shared slots of the two cross orderings), so
    the ensemble-averaged curve goes flat and any fitted visibility must be
    statistically zero.  Returns the relabeled terms and the new slot count.
    """
    relabeled = [
        Alternative(a.weight, a.d1_source, a.d2_source, a.bs_phase_count, (2 * i, 2 * i + 1))
        for i, a in enumerate(alts)
    ]
    return relabeled, 2 * len(alts)
