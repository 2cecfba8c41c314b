import itertools
import math
import random

import pytest

from proofinfo import (
    KnowledgeSystem,
    average_speed,
    average_weight,
    certainty_threshold,
    is_certain,
    max_subset_weight,
    profile,
    proof_measure,
    support_ids,
    weight,
)
from proofinfo.errors import (
    ProofTooLargeError,
    SizeOutOfRangeError,
    UnknownProofIdError,
)
from frozen import (
    DAY_FACT_WEIGHT,
    LOG2_3,
    PAIR_WEIGHT,
    QB3_AVERAGE_SPEED,
    QB3_AVERAGE_WEIGHT,
    QB3_MAX_WEIGHTS,
    SINGLE_BROADCAST_WEIGHT,
    TRIPLE_WEIGHT,
)
from oracles import max_subset_weight_exhaustive
from randsys import random_system


def test_qb3_maxima_and_witnesses(ks, measure):
    value, witness = max_subset_weight(ks, measure, "QB3", 1)
    assert value == pytest.approx(SINGLE_BROADCAST_WEIGHT, abs=1e-9)
    assert witness == ("Brd(R2,Dok)",)
    value, witness = max_subset_weight(ks, measure, "QB3", 2)
    assert value == pytest.approx(PAIR_WEIGHT, abs=1e-9)
    assert set(witness) == {"Day≠Fri", "Brd(R2,Dok)"}
    value, _ = max_subset_weight(ks, measure, "QB3", 3)
    assert value == pytest.approx(TRIPLE_WEIGHT, abs=1e-9)


def test_qb1_maxima(ks, measure):
    value, witness = max_subset_weight(ks, measure, "QB1", 1)
    assert value == pytest.approx(DAY_FACT_WEIGHT, abs=1e-9)
    assert witness == ("Day=Fri",)
    value, _ = max_subset_weight(ks, measure, "QB1", 2)
    assert value == 0.0


def test_qf1_pair_maximum(ks, measure):
    value, _ = max_subset_weight(ks, measure, "QF1", 2)
    assert value == pytest.approx(PAIR_WEIGHT, abs=1e-9)


def test_size_zero_gives_log_goal_count(ks, measure):
    for p in ks.proofs:
        value, witness = max_subset_weight(ks, measure, p.id, 0)
        assert value == pytest.approx(LOG2_3, abs=1e-9)
        assert witness == ()


def test_size_out_of_range(ks, measure):
    with pytest.raises(SizeOutOfRangeError):
        max_subset_weight(ks, measure, "QB1", -1)
    with pytest.raises(SizeOutOfRangeError):
        max_subset_weight(ks, measure, "QB1", 4)
    with pytest.raises(SizeOutOfRangeError):
        max_subset_weight_exhaustive(ks, measure, "QB1", 17)


def test_unknown_proof_id(ks, measure):
    with pytest.raises(UnknownProofIdError):
        max_subset_weight(ks, measure, "NOPE", 1)
    with pytest.raises(UnknownProofIdError):
        profile(ks, measure, "NOPE")


def test_large_proof_guard():
    big = [f"x{i}" for i in range(31)]
    ks = KnowledgeSystem(goals=["g"], proofs=[("P1", ["g", *big])])
    m = proof_measure(ks)
    with pytest.raises(ProofTooLargeError):
        max_subset_weight(ks, m, "P1", 1)
    with pytest.raises(ProofTooLargeError):
        certainty_threshold(ks, "P1")
    value, witness = max_subset_weight(ks, m, "P1", 1, allow_large=True)
    assert value == 0.0
    assert len(witness) == 1


def test_fixture_certainty_thresholds(ks):
    assert certainty_threshold(ks, "QB1") == 2
    assert certainty_threshold(ks, "QB2") == 3
    assert certainty_threshold(ks, "QB3") == 4
    assert certainty_threshold(ks, "QD1") == 1
    assert certainty_threshold(ks, "QD2") == 3
    assert certainty_threshold(ks, "QD3") == 3
    assert certainty_threshold(ks, "QF1") == 4


def test_threshold_boundary_is_structural(ks, measure):
    # below the threshold some subset still spreads over several classes;
    # at and above it every subset is certain or empty
    for p in ks.proofs:
        z = certainty_threshold(ks, p.id)
        items = sorted(p.formulas)
        if z > 1:
            spread = [
                s
                for s in itertools.combinations(items, z - 1)
                if support_ids(ks, s) and not is_certain(ks, s)
            ]
            assert spread
        for k in range(z, len(items) + 1):
            value, _ = max_subset_weight(ks, measure, p.id, k)
            assert value == 0.0


def test_profile_qb3(ks, measure):
    prof = profile(ks, measure, "QB3")
    assert list(prof.max_weights) == pytest.approx(QB3_MAX_WEIGHTS, abs=1e-9)
    assert prof.certainty_threshold == 4
    assert prof.average_weight == pytest.approx(QB3_AVERAGE_WEIGHT, abs=1e-9)
    assert prof.average_speed == pytest.approx(QB3_AVERAGE_SPEED, abs=1e-9)


def test_profile_qf1_matches_qb3(ks, measure):
    qb3 = profile(ks, measure, "QB3")
    qf1 = profile(ks, measure, "QF1")
    assert qf1.max_weights == qb3.max_weights
    assert qf1.certainty_threshold == qb3.certainty_threshold


def test_profile_qd1_flat_zero(ks, measure):
    prof = profile(ks, measure, "QD1")
    assert prof.certainty_threshold == 1
    assert prof.average_weight == 0.0
    assert prof.average_speed == 0.0
    assert list(prof.max_weights)[1:] == [0.0, 0.0]


def test_profile_qd2(ks, measure):
    prof = profile(ks, measure, "QD2")
    assert prof.max_weights[0] == pytest.approx(LOG2_3, abs=1e-9)
    assert prof.max_weights[1] == pytest.approx(SINGLE_BROADCAST_WEIGHT, abs=1e-9)
    assert prof.max_weights[2] == pytest.approx(DAY_FACT_WEIGHT, abs=1e-9)
    assert prof.certainty_threshold == 3


def test_average_speed_examples(ks, measure):
    assert average_speed(ks, measure, "QB3") == pytest.approx(QB3_AVERAGE_SPEED, abs=1e-9)
    assert average_speed(ks, measure, "QB1") == pytest.approx(DAY_FACT_WEIGHT, abs=1e-9)
    assert average_speed(ks, measure, "QD1") == 0.0


def test_average_weight_examples(ks, measure):
    assert average_weight(ks, measure, "QB3") == pytest.approx(QB3_AVERAGE_WEIGHT, abs=1e-9)
    assert average_weight(ks, measure, "QD1") == 0.0


def test_single_goal_system_is_flat_zero():
    ks = KnowledgeSystem(goals=["g"], proofs=[("P1", ["g", "a", "b"])])
    m = proof_measure(ks)
    prof = profile(ks, m, "P1")
    assert all(v == 0.0 for v in prof.max_weights)
    assert prof.certainty_threshold == 1
    assert prof.average_weight == 0.0
    assert prof.average_speed == 0.0


def test_witnesses_are_valid_maximizers(ks, measure):
    for p in ks.proofs:
        prof = profile(ks, measure, p.id)
        for k, witness in enumerate(prof.witnesses):
            assert len(witness) == k
            assert set(witness) <= p.formulas
            assert weight(ks, measure, witness).value == prof.max_weights[k]


def test_max_weights_never_increase(ks, measure):
    for p in ks.proofs:
        prof = profile(ks, measure, p.id)
        for a, b in zip(prof.max_weights, prof.max_weights[1:]):
            assert a >= b - 1e-9


def test_telescoping_identity(ks, measure):
    for p in ks.proofs:
        prof = profile(ks, measure, p.id)
        z = prof.certainty_threshold
        if z > 1:
            assert prof.average_speed * (z - 1) == pytest.approx(
                prof.max_weights[1], abs=1e-9
            )


def test_pruned_equals_exhaustive_on_random_systems():
    rng = random.Random(31)
    for _ in range(40):
        ks = random_system(rng)
        m = proof_measure(ks)
        for p in ks.proofs:
            for k in range(len(p.formulas) + 1):
                pruned, witness = max_subset_weight(ks, m, p.id, k)
                assert pruned == max_subset_weight_exhaustive(ks, m, p.id, k)
                assert weight(ks, m, witness).value == pruned


def test_monotone_on_random_systems():
    rng = random.Random(32)
    for _ in range(40):
        ks = random_system(rng)
        m = proof_measure(ks)
        p = rng.choice(ks.proofs)
        prof = profile(ks, m, p.id)
        assert prof.max_weights[0] == pytest.approx(math.log2(ks.M), abs=1e-9)
        for a, b in zip(prof.max_weights, prof.max_weights[1:]):
            assert a >= b - 1e-9
        z = prof.certainty_threshold
        assert 0 < z <= len(p.formulas)
        assert all(v == 0.0 for v in prof.max_weights[z:])


def test_witness_ties_resolve_lexicographically():
    # {a} and {b} have identical supports, hence identical maximal weight;
    # the search must return the lexicographically first maximizer
    ks = KnowledgeSystem(
        goals=["g1", "g2"],
        proofs=[("P1", ["g1", "a", "b"]), ("P2", ["g2", "a", "b"])],
    )
    m = proof_measure(ks)
    value, witness = max_subset_weight(ks, m, "P1", 1)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert witness == ("a",)
    value, witness = max_subset_weight(ks, m, "P1", 2)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert witness == ("a", "b")


def test_pruned_equals_exhaustive_on_fixture(ks, measure):
    for p in ks.proofs:
        for k in range(len(p.formulas) + 1):
            assert (
                max_subset_weight(ks, measure, p.id, k)[0]
                == max_subset_weight_exhaustive(ks, measure, p.id, k)
            )
