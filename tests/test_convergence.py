import itertools
import math
import random

import pytest

from proofinfo import (
    KnowledgeSystem,
    convergence,
    certainty_threshold,
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
from oracles import certainty_threshold_scan, max_subset_weight_exhaustive, profile_exhaustive
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


def test_a_proof_is_named_by_its_id_only(ks, measure):
    # a Proof object, even one of this system, is not an id, and neither is
    # an unhashable value
    for not_an_id in (ks.by_id["QB3"], ["QB1"], {"a": 1}):
        for ask in (
            lambda: profile(ks, measure, not_an_id),
            lambda: certainty_threshold(ks, not_an_id),
            lambda: max_subset_weight(ks, measure, not_an_id, 1),
        ):
            with pytest.raises(UnknownProofIdError, match="is not part of this knowledge system"):
                ask()


def test_large_proof_guard():
    # no formula count limits a search: with no other goal the threshold is
    # 1, so a 31-formula proof profiles at once
    big = [f"x{i}" for i in range(31)]
    ks = KnowledgeSystem(goals=["g"], proofs=[("P1", ["g", *big])])
    assert max_subset_weight(ks, proof_measure(ks), "P1", 1) == (0.0, ("g",))
    assert certainty_threshold(ks, "P1") == 1


def test_allow_large_search_stops_at_node_budget(monkeypatch):
    # both proofs share 30 fillers, so every filler subset weighs 1 bit and
    # the unpruned search would visit all 2**30 of them; no option is needed
    # for a proof this large, the node budget alone stops the search
    shared = [f"x{i:02d}" for i in range(30)]
    ks = KnowledgeSystem(goals=["g", "h"], proofs=[("P1", ["g", *shared]), ("P2", ["h", *shared])])
    monkeypatch.setattr(convergence, "MAX_SEARCH_NODES", 1000)
    with pytest.raises(ProofTooLargeError, match=r"budget of 1000 subsets \(1001 visited\)"):
        profile(ks, proof_measure(ks), "P1")
    assert certainty_threshold(ks, "P1") == 31


def test_every_search_stops_at_node_budget(monkeypatch):
    # 24 shared fillers: without the budget the search would visit all
    # 2**24 filler subsets
    shared = [f"x{i:02d}" for i in range(24)]
    ks = KnowledgeSystem(goals=["g", "h"], proofs=[("P1", ["g", *shared]), ("P2", ["h", *shared])])
    monkeypatch.setattr(convergence, "MAX_SEARCH_NODES", 1000)
    with pytest.raises(ProofTooLargeError, match=r"budget of 1000 subsets \(1001 visited\)"):
        profile(ks, proof_measure(ks), "P1")
    assert certainty_threshold(ks, "P1") == 25


def test_witness_table_is_charged_to_the_node_budget(monkeypatch):
    # n formulas need n(n+1)/2 witness formulas: 990 for 44 fit a budget of
    # 1000, 1035 for 45 do not
    monkeypatch.setattr(convergence, "MAX_SEARCH_NODES", 1000)
    fits = KnowledgeSystem(goals=["g"], proofs=[("P1", ["g", *(f"x{i:02d}" for i in range(43))])])
    assert profile(fits, proof_measure(fits), "P1").witnesses[44] == tuple(sorted(fits.proofs[0].formulas))
    big = KnowledgeSystem(goals=["g"], proofs=[("P1", ["g", *(f"x{i:02d}" for i in range(44))])])
    with pytest.raises(ProofTooLargeError, match=r"would hold 1035 formulas, over the budget of 1000"):
        profile(big, proof_measure(big), "P1")


def test_the_search_visits_the_same_subsets_on_the_fixture(ks, measure, monkeypatch):
    # the fewest budgets at which each proof profiles, found by bisection;
    # QB3, QD2 and QF1 are bound by the subsets their searches visit, the
    # others by their n(n+1)/2 witness formulas, so the weighings (visited
    # subsets that are not settled) pin the searches of those as well
    def profiles(pid, budget):
        monkeypatch.setattr(convergence, "MAX_SEARCH_NODES", budget)
        try:
            profile(ks, measure, pid)
        except ProofTooLargeError:
            return False
        return True

    fewest, budget = [], convergence.MAX_SEARCH_NODES
    for p in ks.proofs:
        lo, hi = 1, budget
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if profiles(p.id, mid) else (mid + 1, hi)
        fewest.append(lo)
    assert fewest == [6, 10, 24, 3, 11, 15, 24]

    weighed = []
    goal_masses = convergence._goal_masses

    def counted(measure, mask):
        weighed[-1] += 1
        return goal_masses(measure, mask)

    monkeypatch.setattr(convergence, "MAX_SEARCH_NODES", budget)
    monkeypatch.setattr(convergence, "_goal_masses", counted)
    for p in ks.proofs:
        weighed.append(0)
        profile(ks, measure, p.id)
    assert weighed == [2, 4, 10, 1, 5, 5, 8]


def test_fixture_certainty_thresholds(ks):
    assert certainty_threshold(ks, "QB1") == 2
    assert certainty_threshold(ks, "QB2") == 3
    assert certainty_threshold(ks, "QB3") == 4
    assert certainty_threshold(ks, "QD1") == 1
    assert certainty_threshold(ks, "QD2") == 3
    assert certainty_threshold(ks, "QD3") == 3
    assert certainty_threshold(ks, "QF1") == 4


@pytest.mark.parametrize(
    "goals, proofs, expected",
    [
        # one goal: no rivals, certain from the first formula
        (["g"], [("P1", ["g", "a", "b"]), ("P2", ["g", "a"])], 1),
        # twins that share every filler
        (["g", "h"], [("P1", ["g", "a", "b", "c"]), ("P2", ["h", "a", "b", "c"])], 4),
        # three rivals tied at the largest overlap, and one below it
        (
            ["g", "h", "k"],
            [
                ("P1", ["g", "a", "b", "c", "d"]),
                ("P2", ["h", "a", "b"]),
                ("P3", ["h", "c", "d", "e"]),
                ("P4", ["k", "a", "c"]),
                ("P5", ["k", "b"]),
            ],
            3,
        ),
    ],
    ids=["one_goal", "twins", "tied_rivals"],
)
def test_threshold_equals_the_scan_at_the_edges(goals, proofs, expected):
    ks = KnowledgeSystem(goals, proofs)
    assert certainty_threshold(ks, "P1") == certainty_threshold_scan(ks, "P1") == expected


def test_threshold_equals_the_scan_on_random_systems():
    rng = random.Random(23)
    for _ in range(300):
        ks = random_system(rng, max_goals=5, max_class_size=5, max_fillers=12, max_extra=10)
        for p in ks.proofs:
            assert certainty_threshold(ks, p.id) == certainty_threshold_scan(ks, p.id)


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
                if support_ids(ks, s) and not weight(ks, measure, s).certain
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
    speed = {pid: profile(ks, measure, pid).average_speed for pid in ("QB3", "QB1", "QD1")}
    assert speed["QB3"] == pytest.approx(QB3_AVERAGE_SPEED, abs=1e-9)
    assert speed["QB1"] == pytest.approx(DAY_FACT_WEIGHT, abs=1e-9)
    assert speed["QD1"] == 0.0


def test_average_weight_examples(ks, measure):
    mean = {pid: profile(ks, measure, pid).average_weight for pid in ("QB3", "QD1")}
    assert mean["QB3"] == pytest.approx(QB3_AVERAGE_WEIGHT, abs=1e-9)
    assert mean["QD1"] == 0.0


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


def test_profile_equals_exhaustive_on_random_systems():
    rng = random.Random(33)
    for _ in range(40):
        ks = random_system(rng)
        m = proof_measure(ks)
        for p in ks.proofs:
            prof, ref = profile(ks, m, p.id), profile_exhaustive(ks, m, p.id)
            assert prof.proof_id == ref.proof_id
            assert prof.max_weights == ref.max_weights
            assert prof.witnesses == ref.witnesses
            assert prof.certainty_threshold == ref.certainty_threshold
            assert prof.average_weight == ref.average_weight
            assert prof.average_speed == ref.average_speed


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
