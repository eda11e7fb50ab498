"""Equality classes of variables (paper §2).

The equality list of a conjunctive query induces a natural equivalence
relation on its terms: the reflexive-symmetric-transitive closure of the
listed predicates.  The paper calls the resulting classes the *equality
classes* of variables; they drive everything downstream — evaluation,
ij-saturation, the receives analysis, and the δ construction.

:class:`EqualityStructure` packages the closure: representative lookup,
per-class constant bindings (a class may be pinned to at most one constant;
two distinct constants in one class make the query unsatisfiable), and a
substitution that rewrites the query into an equality-free *general form*.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cq.syntax import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Term,
    Variable,
)
from repro.relational.domain import Value
from repro.utils import memo
from repro.utils.unionfind import UnionFind

# Equality closures and general-form rewrites are pure functions of an
# immutable query, recomputed for the same handful of queries thousands of
# times per scan (evaluation, saturation, hypergraph analysis, plan
# compilation all start from them).  Both caches share the keys' hashes
# with the evaluate/canonical memos, so a warm scan pays one query hash.
_STRUCTURE_MEMO = memo.memo("equality-structure", maxsize=8192)
_SUBST_MEMO = memo.memo("equality-subst", maxsize=8192)


class EqualityStructure:
    """The closure of a query's equality list.

    ``uf`` unions all equated terms (variables and constants alike);
    ``constant_of`` maps each class representative to the unique constant
    the class is pinned to, when any.  ``inconsistent`` is true when some
    class contains two distinct constants — such a query returns the empty
    answer on every database.
    """

    __slots__ = ("uf", "_constants", "_resolved", "inconsistent")

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.uf: UnionFind = UnionFind()
        # Register every body variable so singletons are visible classes.
        for body_atom in query.body:
            for term in body_atom.terms:
                self.uf.add(term)
        for left, right in query.equalities:
            self.uf.union(left, right)
        self._constants: Dict[Term, Value] = {}
        self.inconsistent = False
        least: Dict[Term, Variable] = {}
        for term in list(self.uf):
            rep = self.uf.find(term)
            if isinstance(term, Constant):
                existing = self._constants.get(rep)
                if existing is not None and existing != term.value:
                    self.inconsistent = True
                self._constants[rep] = term.value
            elif rep not in least or term.name < least[rep].name:
                least[rep] = term  # the class's least variable by name
        # What resolve returns for each variable, so that it is one lookup.
        self._resolved: Dict[Term, Term] = {}
        for term in self.uf:
            if isinstance(term, Variable):
                rep = self.uf.find(term)
                pinned = self._constants.get(rep)
                self._resolved[term] = (
                    least[rep] if pinned is None else Constant(pinned)
                )

    def representative(self, term: Term) -> Term:
        """The canonical representative of ``term``'s equality class."""
        return self.uf.find(term)

    def equivalent(self, a: Term, b: Term) -> bool:
        """True iff the two terms are in the same equality class."""
        return self.uf.connected(a, b)

    def constant_of(self, term: Term) -> Optional[Value]:
        """The constant the term's class is pinned to, if any."""
        if isinstance(term, Constant):
            return term.value
        return self._constants.get(self.uf.find(term))

    def classes(self) -> List[Set[Term]]:
        """All equality classes (including singletons of body variables)."""
        return self.uf.classes()

    def variable_classes(self) -> List[FrozenSet[Variable]]:
        """The classes restricted to variables, dropping empties."""
        result = []
        for cls in self.uf.classes():
            vars_only = frozenset(t for t in cls if isinstance(t, Variable))
            if vars_only:
                result.append(vars_only)
        return result

    def resolve(self, term: Term) -> Term:
        """Map a term to its evaluation-time canonical form.

        Classes pinned to a constant resolve to that constant; other classes
        resolve to their representative variable (representatives of mixed
        classes are made deterministic by choosing the lexicographically
        least variable).  A constant, and a term the query never mentions,
        resolves to itself.
        """
        return self._resolved.get(term, term)


def equality_structure(query: ConjunctiveQuery) -> EqualityStructure:
    """The equality-class structure of ``query`` (memoized per query).

    The returned structure is shared between callers; it must be treated
    as read-only — in particular, never ``union`` through ``.uf``.
    """
    return _STRUCTURE_MEMO.get_or_compute(query, lambda: EqualityStructure(query))


def substitute_representatives(
    query: ConjunctiveQuery,
) -> Tuple[ConjunctiveQuery, EqualityStructure]:
    """Rewrite ``query`` into an equality-free general form (memoized).

    Every term is replaced by its resolved canonical form and the equality
    list is dropped; the result is semantically identical (for consistent
    queries) but may repeat variables and place constants in body positions.
    Returns the rewritten query together with the structure (callers must
    check ``structure.inconsistent`` — an inconsistent query's rewritten
    form does *not* preserve semantics and should be treated as the empty
    query).
    """
    return _SUBST_MEMO.get_or_compute(
        query, lambda: _substitute_representatives(query)
    )


def _substitute_representatives(
    query: ConjunctiveQuery,
) -> Tuple[ConjunctiveQuery, EqualityStructure]:
    structure = equality_structure(query)

    def sub(term: Term) -> Term:
        return structure.resolve(term)

    head = Atom(query.head.relation, tuple(sub(t) for t in query.head.terms))
    body = [
        Atom(a.relation, tuple(sub(t) for t in a.terms)) for a in query.body
    ]
    return ConjunctiveQuery(head, body, ()), structure


def induced_equalities(query: ConjunctiveQuery) -> FrozenSet[Tuple[Term, Term]]:
    """All variable pairs (unordered, as sorted 2-tuples) inferable as equal.

    This is the full closure of the equality list restricted to variables —
    the set of predicates "V₁ = V₂ can be inferred" that the ij-saturation
    definitions quantify over.
    """
    structure = equality_structure(query)
    pairs: Set[Tuple[Term, Term]] = set()
    for cls in structure.variable_classes():
        members = sorted(cls, key=lambda v: v.name)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.add((a, b))
    return frozenset(pairs)
