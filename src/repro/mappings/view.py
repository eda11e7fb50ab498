"""Views: a relation scheme paired with a defining query (paper §2).

A view over a schema S is a pair (V, q) where V is a relation scheme and
q maps instances of S to instances of V.  Here q is always a conjunctive
query; the view typechecks q's head against V at construction time.
"""

from __future__ import annotations

from repro.cq.evaluation import evaluate
from repro.cq.syntax import ConjunctiveQuery
from repro.cq.typecheck import typecheck_view
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import DatabaseSchema, RelationSchema


class View:
    """An immutable, typechecked conjunctive view ``(V, q)`` over a schema."""

    __slots__ = ("_schema", "_relation", "_query")

    def __init__(
        self,
        source_schema: DatabaseSchema,
        relation: RelationSchema,
        query: ConjunctiveQuery,
    ) -> None:
        typecheck_view(query, source_schema, relation)
        self._schema = source_schema
        self._relation = relation
        self._query = query

    @property
    def source_schema(self) -> DatabaseSchema:
        """The schema the view is defined over."""
        return self._schema

    @property
    def relation(self) -> RelationSchema:
        """The view's relation scheme V."""
        return self._relation

    @property
    def query(self) -> ConjunctiveQuery:
        """The defining query q."""
        return self._query

    @property
    def type_signature(self):
        """The type of the view = the type of V (paper §2)."""
        return self._relation.type_signature

    def answer(self, instance: DatabaseInstance) -> RelationInstance:
        """The answer q(d) for a database instance d."""
        return evaluate(self._query, instance, self._relation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"View({self._relation!r}, {self._query!r})"
