"""Differential properties on Hypothesis-generated systems.

The package's support and profile are compared with the slow references in
tests/oracles.py. Runs are derandomized and keep no example database, so
the suite is repeatable and leaves nothing behind.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import profile_exhaustive, support_by_class_scan
from proofinfo import profile, proof_measure, support
from randsys import systems

BOUNDED = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@BOUNDED
@given(systems(), st.data())
def test_support_equals_class_scan(ks, data):
    measure = proof_measure(ks)
    vocabulary = sorted({f for p in ks.proofs for f in p.formulas} | {"absent"})
    subset = data.draw(st.lists(st.sampled_from(vocabulary), max_size=4))
    sup = support(ks, measure, subset)
    ref = support_by_class_scan(ks, measure, subset)
    assert sup.proofs == ref.proofs
    assert list(sup.per_goal_mass.items()) == list(ref.per_goal_mass.items())
    assert sup.total_mass == ref.total_mass
    assert sup.total_mass == sum((measure.per_proof[pid] for pid in sup.proofs), Fraction(0))


@BOUNDED
@given(systems(), st.data())
def test_profile_equals_exhaustive(ks, data):
    measure = proof_measure(ks)
    proof = data.draw(st.sampled_from(ks.proofs))
    assert profile(ks, measure, proof) == profile_exhaustive(ks, measure, proof)
