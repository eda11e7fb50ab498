"""Conjunctive query containment and equivalence (Chandra–Merlin).

``q ⊆ q'`` over all instances of a schema iff there is a homomorphism from
``q'`` into the canonical database of ``q`` mapping head to head.  The
search is a backtracking matcher with dynamic most-constrained-atom
re-ordering at every depth; candidate rows for an atom are fetched through
per-relation hash indexes on the atom's bound positions
(:mod:`repro.cq.indexing`) instead of scanning the whole relation.  A
deliberately naive variant (:func:`find_homomorphism_naive`) is kept for
differential tests and the E6 ablation benchmark, and ``use_index=False``
reproduces the pre-index smart matcher (full scans, same ordering) for the
same purpose.

Typed semantics: variables only ever map to values of their own type
because atoms only match rows of their own relation, and constants must map
to themselves.  Queries of different head types are incomparable — the
paper only defines containment for queries of the same type — and raise
:class:`TypecheckError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cq.canonical import CanonicalDatabase, canonical_database
from repro.cq.equality import substitute_representatives
from repro.cq.indexing import candidate_rows
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

_use_index_default: bool = True


def set_indexing(enabled: bool) -> bool:
    """Globally switch indexed matching on or off; returns the old setting.

    With indexing off the matcher scans every row of the atom's relation,
    reproducing the pre-index implementation — the A/B lever behind the
    baseline of ``benchmarks/bench_perf.py`` and the unit tests.
    """
    global _use_index_default
    previous = _use_index_default
    _use_index_default = bool(enabled)
    return previous


def indexing_enabled() -> bool:
    """True iff indexed matching is the current default."""
    return _use_index_default


class MatchCounters:
    """Effort counters for the matcher (surfaced via SearchStats).

    A view over the ``hom.*`` metrics of the process-wide registry
    (:mod:`repro.obs.metrics`); the original attribute API is preserved.
    """

    __slots__ = ("_backtracks",)

    def __init__(self) -> None:
        self._backtracks = _metrics.registry().counter("hom.backtracks")

    @property
    def backtracks(self) -> int:
        return self._backtracks.value

    def reset(self) -> None:
        """Zero all counters."""
        self._backtracks.value = 0


counters = MatchCounters()


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


def _bound_positions(
    body_atom: Atom, assignment: Assignment
) -> List[Tuple[int, Value]]:
    """(position, required value) pairs fixed by constants or the assignment."""
    bound: List[Tuple[int, Value]] = []
    for position, term in enumerate(body_atom.terms):
        if isinstance(term, Constant):
            bound.append((position, term.value))
        else:
            value = assignment.get(term)
            if value is not None:
                bound.append((position, value))
    return bound


def _search(
    atoms: List[Atom],
    target: DatabaseInstance,
    assignment: Assignment,
    smart_order: bool,
    use_index: bool,
    relation_sizes: Dict[str, int],
) -> Optional[Assignment]:
    # Cooperative cancellation: every search node is a poll point, so an
    # exponential backtrack under an expired deadline aborts promptly
    # instead of exhausting the subtree (free when no deadline is active).
    _deadline.poll()
    if not atoms:
        return assignment
    if smart_order:
        # Re-pick the most constrained atom at every depth: most bound
        # positions first, smallest relation as the tie-break.  Relation
        # sizes are hoisted into ``relation_sizes`` once per matcher call.
        def constrainedness(a: Atom) -> Tuple[int, int]:
            bound = sum(
                1
                for t in a.terms
                if isinstance(t, Constant) or t in assignment
            )
            return (bound, -relation_sizes[a.relation])

        chosen = max(range(len(atoms)), key=lambda i: constrainedness(atoms[i]))
    else:
        chosen = 0
    next_atom = atoms[chosen]
    # Remove exactly one occurrence (by position): the same Atom object may
    # legitimately appear twice in a body.
    rest = atoms[:chosen] + atoms[chosen + 1 :]
    relation = target.relation(next_atom.relation)
    if use_index:
        rows: Sequence[Row] = candidate_rows(
            relation, _bound_positions(next_atom, assignment)
        )
    else:
        rows = relation  # full scan (ablation / naive path)
    for row in rows:
        extended = _match_atom(next_atom, row, assignment)
        if extended is not None:
            result = _search(
                rest, target, extended, smart_order, use_index, relation_sizes
            )
            if result is not None:
                return result
    counters._backtracks.inc()
    return None


def find_homomorphism(
    source: ConjunctiveQuery,
    target: CanonicalDatabase,
    smart_order: bool = True,
    use_index: Optional[bool] = None,
) -> Optional[Assignment]:
    """Find a head-preserving homomorphism from ``source`` into ``target``.

    ``source`` is rewritten to its equality-free general form first; an
    inconsistent source admits no homomorphism (it denotes the empty query,
    which is handled by the callers, not here).  ``use_index=None`` follows
    the global default (:func:`set_indexing`).
    """
    if use_index is None:
        use_index = _use_index_default
    with _span("hom.match"):
        rewritten, structure = substitute_representatives(source)
        if structure.inconsistent:
            return None
        seed = _seed_from_head(rewritten.head.terms, target.head_row)
        if seed is None:
            return None
        atoms = list(rewritten.body)
        relation_sizes = {
            a.relation: len(target.instance.relation(a.relation)) for a in atoms
        }
        return _search(
            atoms, target.instance, seed, smart_order, use_index, relation_sizes
        )


def find_homomorphism_naive(
    source: ConjunctiveQuery, target: CanonicalDatabase
) -> Optional[Assignment]:
    """Reference matcher: left-to-right atom order, full scans, no heuristics."""
    return find_homomorphism(source, target, smart_order=False, use_index=False)


def is_contained_in(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    schema: DatabaseSchema,
    smart_order: bool = True,
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
    return find_homomorphism(q2, canonical, smart_order=smart_order) is not None


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
