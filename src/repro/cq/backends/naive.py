"""The reference backend: direct transcription of CQ semantics.

Enumerates every combination of body tuples, filters by the equality
list, and projects the head — exponential in the body size and kept
deliberately free of cleverness so the differential tests
(:mod:`tests.cq.test_backend_parity`) have a trustworthy oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.cq.backends.base import Backend
from repro.cq.syntax import Atom, ConjunctiveQuery, Constant, Term, Variable
from repro.errors import EvaluationError
from repro.relational.domain import Value
from repro.relational.instance import DatabaseInstance, RelationInstance, Row
from repro.relational.schema import RelationSchema

Binding = Dict[Variable, Value]


def head_row(head: Atom, binding: Binding) -> Row:
    """Project one binding through the head atom."""
    row: List[Value] = []
    for term in head.terms:
        if isinstance(term, Constant):
            row.append(term.value)
        else:
            try:
                row.append(binding[term])
            except KeyError:
                raise EvaluationError(
                    f"head variable {term!r} unbound after body evaluation"
                ) from None
    return tuple(row)


def satisfies_equalities(query: ConjunctiveQuery, binding: Binding) -> bool:
    """True iff ``binding`` satisfies the query's equality list."""

    def value_of(term: Term) -> Value:
        if isinstance(term, Constant):
            return term.value
        return binding[term]

    return all(value_of(l) == value_of(r) for l, r in query.equalities)


class NaiveBackend(Backend):
    """All body-tuple combinations, filtered — the semantics, verbatim."""

    name = "naive"

    def evaluate(
        self,
        query: ConjunctiveQuery,
        instance: DatabaseInstance,
        view_schema: RelationSchema,
    ) -> RelationInstance:
        def extend(
            atoms: Sequence[Atom], binding: Binding
        ) -> Iterable[Binding]:
            if not atoms:
                yield binding
                return
            first, rest = atoms[0], atoms[1:]
            for row in instance.relation(first.relation):
                extended = dict(binding)
                ok = True
                for term, value in zip(first.terms, row):
                    if isinstance(term, Constant):
                        if term.value != value:
                            ok = False
                            break
                    else:
                        if term in extended and extended[term] != value:
                            ok = False
                            break
                        extended[term] = value
                if ok:
                    yield from extend(rest, extended)

        rows = set()
        for binding in extend(query.body, {}):
            if satisfies_equalities(query, binding):
                rows.add(head_row(query.head, binding))
        return RelationInstance(view_schema, rows)

