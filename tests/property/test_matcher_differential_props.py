"""Differential property tests for the containment matcher.

The matcher's independent oracle is Chandra–Merlin through the naive
evaluator: ``q1 ⊆ q2`` iff the head row of ``q1``'s canonical database is
among the answers of ``q2`` on that database.  :func:`evaluate_naive`
enumerates every body-tuple combination and shares no code with the
backtracker.  Likewise the memoized containment decision must agree with
the cache-bypassing one — the memo layer is an implementation detail,
never a semantics change.
"""

from hypothesis import given, settings, strategies as st

from repro.cq.canonical import canonical_database
from repro.cq.equality import substitute_representatives
from repro.cq.evaluation import evaluate_naive
from repro.cq.homomorphism import find_homomorphism, is_contained_in
from repro.cq.syntax import Constant
from repro.cq.typecheck import head_type
from repro.errors import TypecheckError
from repro.utils import memo
from repro.workloads import random_keyed_schema, random_query

seeds = st.integers(0, 10_000)


def _schema(schema_seed):
    return random_keyed_schema(schema_seed, ["A", "B"], n_relations=2, max_arity=3)


def typed_pair(schema_seed, seed1, seed2):
    schema = _schema(schema_seed)
    q1 = random_query(schema, seed=seed1, max_atoms=3, head_arity=2)
    q2 = random_query(schema, seed=seed2, max_atoms=2, head_arity=2)
    return schema, q1, q2


def compatible_pair(schema_seed, seed1, seed2):
    """A random pair with equal head types, so containment is defined.

    ``q2`` is the first generated query at or after ``seed2`` whose head
    type equals ``q1``'s: about a third of free draws match, so walking
    the seeds makes every example compare a pair.
    """
    schema = _schema(schema_seed)
    q1 = random_query(schema, seed=seed1, max_atoms=3, head_arity=2)
    wanted = head_type(q1, schema)
    for seed in range(seed2, seed2 + 500):
        q2 = random_query(schema, seed=seed, max_atoms=2, head_arity=2)
        if head_type(q2, schema) == wanted:
            return schema, q1, q2
    raise AssertionError(f"no query with head type {wanted} near seed {seed2}")


def oracle_contained(q1, q2, schema):
    """``q1 ⊆ q2`` by evaluating ``q2`` on ``q1``'s canonical database."""
    canonical = canonical_database(q1, schema)
    if canonical is None:
        return True  # an unsatisfiable q1 is contained in everything
    return canonical.head_row in evaluate_naive(q2, canonical.instance).rows


@settings(max_examples=60, deadline=None)
@given(schema_seed=st.integers(0, 30), seed1=seeds, seed2=seeds)
def test_matcher_agrees_with_naive_evaluation_oracle(schema_seed, seed1, seed2):
    schema, q1, q2 = compatible_pair(schema_seed, seed1, seed2)
    canonical = canonical_database(q1, schema)
    if canonical is None:
        return  # unsatisfiable q1: nothing to match into
    found = find_homomorphism(q2, canonical)
    assert (found is not None) == oracle_contained(q1, q2, schema)
    if found is not None:
        # A genuine homomorphism: the head lands on the head row and every
        # body atom on a canonical row.
        rewritten, _ = substitute_representatives(q2)

        def image(terms):
            return tuple(
                t.value if isinstance(t, Constant) else found[t] for t in terms
            )

        assert image(rewritten.head.terms) == canonical.head_row
        for atom in rewritten.body:
            assert image(atom.terms) in canonical.instance.relation(atom.relation)


@settings(max_examples=60, deadline=None)
@given(schema_seed=st.integers(0, 30), seed1=seeds, seed2=seeds)
def test_containment_agrees_with_naive_evaluation_oracle(schema_seed, seed1, seed2):
    schema, q1, q2 = compatible_pair(schema_seed, seed1, seed2)
    assert is_contained_in(q1, q2, schema) == oracle_contained(q1, q2, schema)


@settings(max_examples=40, deadline=None)
@given(schema_seed=st.integers(0, 30), seed1=seeds, seed2=seeds)
def test_cached_and_uncached_containment_agree(schema_seed, seed1, seed2):
    schema, q1, q2 = typed_pair(schema_seed, seed1, seed2)
    memo.clear_all()
    try:
        memo.set_enabled(True)
        cached_cold = is_contained_in(q1, q2, schema)
        cached_warm = is_contained_in(q1, q2, schema)
        memo.set_enabled(False)
        uncached = is_contained_in(q1, q2, schema)
    except TypecheckError:
        return  # incomparable head types — nothing to compare
    finally:
        memo.set_enabled(True)
    assert cached_cold == cached_warm == uncached
