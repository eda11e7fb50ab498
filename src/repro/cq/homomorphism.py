"""Conjunctive query containment and equivalence (Chandra–Merlin).

``q ⊆ q'`` over all instances of a schema iff there is a homomorphism from
``q'`` into the canonical database of ``q`` mapping head to head.  The
search is a plain backtracker: it seeds the assignment from the head, then
matches the body atoms left to right, each against a full scan of its
relation.  A canonical database holds one row per body atom, so there is
nothing for per-atom indexes or re-ordering to win back (the E6 ablation,
EXPERIMENTS.md).

Typed semantics: variables only ever map to values of their own type
because atoms only match rows of their own relation, and constants must map
to themselves.  Queries of different head types are incomparable — the
paper only defines containment for queries of the same type — and raise
:class:`TypecheckError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cq.canonical import CanonicalDatabase, canonical_database
from repro.cq.equality import substitute_representatives
from repro.cq.syntax import Atom, ConjunctiveQuery, Constant, Term, Variable
from repro.cq.typecheck import head_type
from repro.errors import TypecheckError
from repro.obs import metrics as _metrics
from repro.obs.tracing import span as _span
from repro.relational.domain import Value
from repro.relational.instance import DatabaseInstance, Row
from repro.relational.schema import DatabaseSchema
from repro.resilience import deadline as _deadline

Assignment = Dict[Variable, Value]

_BACKTRACKS = _metrics.registry().counter("hom.backtracks")


def _check_same_type(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery, schema: DatabaseSchema
) -> None:
    t1 = head_type(q1, schema)
    t2 = head_type(q2, schema)
    if t1 != t2:
        raise TypecheckError(
            f"containment requires equal query types: {t1} vs {t2}"
        )


def _seed_from_head(
    head_terms: Sequence[Term], target_row: Row
) -> Optional[Assignment]:
    """Force the head terms onto the target head row; None on clash."""
    assignment: Assignment = {}
    for term, value in zip(head_terms, target_row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            if assignment.get(term, value) != value:
                return None
            assignment[term] = value
    return assignment


def _match_atom(
    body_atom: Atom, row: Row, assignment: Assignment
) -> Optional[Assignment]:
    """Extend ``assignment`` to map ``body_atom`` onto ``row``; None on clash."""
    extended = assignment
    copied = False
    for term, value in zip(body_atom.terms, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            bound = extended.get(term)
            if bound is None:
                if not copied:
                    extended = dict(extended)
                    copied = True
                extended[term] = value
            elif bound != value:
                return None
    return extended


def _search(
    atoms: List[Atom],
    target: DatabaseInstance,
    assignment: Assignment,
) -> Optional[Assignment]:
    # Cooperative cancellation: every search node is a poll point, so an
    # exponential backtrack under an expired deadline aborts promptly
    # instead of exhausting the subtree (free when no deadline is active).
    _deadline.poll()
    if not atoms:
        return assignment
    # Slice off exactly one occurrence: the same Atom object may
    # legitimately appear twice in a body.
    next_atom, rest = atoms[0], atoms[1:]
    for row in target.relation(next_atom.relation):
        extended = _match_atom(next_atom, row, assignment)
        if extended is not None:
            result = _search(rest, target, extended)
            if result is not None:
                return result
    _BACKTRACKS.inc()
    return None


def find_homomorphism(
    source: ConjunctiveQuery, target: CanonicalDatabase
) -> Optional[Assignment]:
    """Find a head-preserving homomorphism from ``source`` into ``target``.

    ``source`` is rewritten to its equality-free general form first; an
    inconsistent source admits no homomorphism (it denotes the empty query,
    which is handled by the callers, not here).
    """
    with _span("hom.match"):
        rewritten, structure = substitute_representatives(source)
        if structure.inconsistent:
            return None
        seed = _seed_from_head(rewritten.head.terms, target.head_row)
        if seed is None:
            return None
        return _search(list(rewritten.body), target.instance, seed)


def is_contained_in(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    schema: DatabaseSchema,
) -> bool:
    """Decide ``q1 ⊆ q2`` over all instances of ``schema``.

    An unsatisfiable ``q1`` (inconsistent equalities) is contained in
    everything; an unsatisfiable ``q2`` contains only unsatisfiable
    queries.
    """
    _check_same_type(q1, q2, schema)
    canonical = canonical_database(q1, schema)
    if canonical is None:
        return True
    q2_canonical = canonical_database(q2, schema)
    if q2_canonical is None:
        return False
    return find_homomorphism(q2, canonical) is not None


def are_equivalent(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    schema: DatabaseSchema,
) -> bool:
    """Decide ``q1 ≡ q2``: containment both ways."""
    return is_contained_in(q1, q2, schema) and is_contained_in(q2, q1, schema)


def containment_witness(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    schema: DatabaseSchema,
) -> Optional[Assignment]:
    """The homomorphism witnessing ``q1 ⊆ q2``, or ``None``.

    For an unsatisfiable ``q1`` the containment is vacuous and the empty
    assignment is returned.
    """
    _check_same_type(q1, q2, schema)
    canonical = canonical_database(q1, schema)
    if canonical is None:
        return {}
    return find_homomorphism(q2, canonical)
