import math

import numpy as np
import pytest

from absg2.alternatives import (
    enumerate_alternatives,
    independent_phase_slots,
    phase_model,
)
from absg2.core import BeamSplitter, PairKind
from absg2.probability import path_probabilities, way_probabilities

from helpers import random_domain_points, temporal_propagator

TERM_COUNTS = {
    PairKind.LT: 5,
    PairKind.LL: 4,
    PairKind.TT: 6,
    PairKind.SS: 2,
    PairKind.SL: 3,
    PairKind.ST: 4,
}

SLOT_COUNTS = {
    PairKind.LT: 4,
    PairKind.LL: 2,
    PairKind.TT: 6,
    PairKind.SS: 2,
    PairKind.SL: 2,
    PairKind.ST: 4,
}


def test_temporal_propagator():
    assert temporal_propagator(12.3e6, 0.0) == 1.0 + 0.0j
    assert temporal_propagator(1.0, 0.25) == pytest.approx(1j, abs=1e-15)
    rng = np.random.default_rng(3)
    for nu, t in zip(rng.uniform(0, 1e9, 50), rng.uniform(-1e-3, 1e-3, 50)):
        assert abs(temporal_propagator(nu, t)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pair", list(PairKind))
def test_term_counts(pair):
    p = path_probabilities(1.3, BeamSplitter(0.4))
    assert len(enumerate_alternatives(pair, p)) == TERM_COUNTS[pair]


@pytest.mark.parametrize("pair", list(PairKind))
def test_slot_counts(pair):
    model = phase_model(pair)
    assert model.n_slots == SLOT_COUNTS[pair]
    p = path_probabilities(0.6, BeamSplitter(0.7))
    used = {s for alt in enumerate_alternatives(pair, p) for s in alt.phase_slots}
    assert used == set(range(model.n_slots))


@pytest.mark.parametrize("pair", list(PairKind))
def test_squared_weights_match_way_probabilities(pair):
    for x, r in random_domain_points(50, seed=11):
        p = path_probabilities(x, BeamSplitter(r))
        both_a, both_b, cross = way_probabilities(p)
        admitted = {
            PairKind.LT: 1.0,
            PairKind.LL: 1.0,
            PairKind.TT: 1.0,
            PairKind.SS: cross,
            PairKind.SL: both_b + cross,
            PairKind.ST: both_b + cross,
        }[pair]
        total = sum(a.weight**2 for a in enumerate_alternatives(pair, p))
        assert abs(total - admitted) <= 1e-12


@pytest.mark.parametrize("pair", list(PairKind))
def test_cross_terms_sit_pi_apart(pair):
    p = path_probabilities(2.0, BeamSplitter(0.3))
    cross = [a for a in enumerate_alternatives(pair, p) if a.d1_source != a.d2_source]
    assert len(cross) == 2
    assert sorted(a.bs_phase_count for a in cross) == [0, 2]
    # the two orderings reference the same photon pair
    assert sorted(cross[0].phase_slots) == sorted(cross[1].phase_slots)


def test_ss_terms_are_cross_only():
    p = path_probabilities(1.0, BeamSplitter(0.5))
    alts = enumerate_alternatives(PairKind.SS, p)
    weights = sorted(a.weight for a in alts)
    assert weights == pytest.approx(
        sorted([math.sqrt(p.p1a * p.p2b), math.sqrt(p.p1b * p.p2a)]), abs=1e-15
    )
    assert all(a.d1_source != a.d2_source for a in alts)


def test_ll_symmetric_weights():
    p = path_probabilities(1.0, BeamSplitter(0.5))
    alts = enumerate_alternatives(PairKind.LL, p)
    assert [a.weight for a in alts] == [0.5, 0.5, 0.5, 0.5]


def test_laser_slot_is_shared():
    # all laser-phase references in LT resolve to one slot
    p = path_probabilities(1.7, BeamSplitter(0.45))
    alts = enumerate_alternatives(PairKind.LT, p)
    laser_slots = set()
    for a in alts:
        for pos, src in zip(a.phase_slots, (a.d1_source, a.d2_source)):
            if src == "b":
                laser_slots.add(pos)
    assert len(laser_slots) == 1


def test_enumeration_is_deterministic():
    p = path_probabilities(0.9, BeamSplitter(0.55))
    assert enumerate_alternatives(PairKind.TT, p) == enumerate_alternatives(PairKind.TT, p)


def test_independent_phase_slots_relabels_every_occurrence():
    p = path_probabilities(1.0, BeamSplitter(0.5))
    alts = enumerate_alternatives(PairKind.LL, p)
    relabeled, n_slots = independent_phase_slots(alts)
    assert n_slots == 2 * len(alts)
    seen = [s for a in relabeled for s in a.phase_slots]
    assert len(seen) == len(set(seen))  # no sharing anywhere
    assert [a.weight for a in relabeled] == [a.weight for a in alts]
    assert [a.bs_phase_count for a in relabeled] == [a.bs_phase_count for a in alts]
