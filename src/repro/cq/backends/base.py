"""The evaluation-backend protocol.

A *backend* is one strategy for computing the answer of a conjunctive
query over a database instance.  All backends implement the same
contract — :meth:`Backend.evaluate` over an explicit view scheme — and
are required to produce row-identical answers; they differ only in how
the work is done (and therefore in constant factors and worst-case
behaviour).  The registry in :mod:`repro.cq.backends` owns one instance
of each and the dispatcher in :mod:`repro.cq.evaluation` sends every
``evaluate`` call through it.
"""

from __future__ import annotations

import abc

from repro.cq.syntax import ConjunctiveQuery
from repro.cq.typecheck import _term_type, infer_types
from repro.relational.attribute import Attribute
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import RelationSchema


def synthesize_view_schema(
    query: ConjunctiveQuery, instance_or_schema
) -> RelationSchema:
    """Build a view scheme for a query's head from inferred types.

    Attribute names are ``c0, c1, ...``; no key is declared.  (Moved here
    from :mod:`repro.cq.evaluation`, which re-exports it, so backends can
    resolve schemas without importing the dispatcher.)
    """
    schema = getattr(instance_or_schema, "schema", instance_or_schema)
    types = infer_types(query, schema)
    attributes = [
        Attribute(f"c{i}", _term_type(term, types))
        for i, term in enumerate(query.head.terms)
    ]
    return RelationSchema(query.view_name, attributes, None)


class Backend(abc.ABC):
    """One evaluation strategy for conjunctive queries.

    Backends are stateless (all per-query state lives in the shared plan
    cache, all per-instance state on the instance itself), so a single
    registry instance serves every thread and is safely re-created inside
    spawned worker processes.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def evaluate(
        self,
        query: ConjunctiveQuery,
        instance: DatabaseInstance,
        view_schema: RelationSchema,
    ) -> RelationInstance:
        """Answer ``query`` over ``instance`` as an instance of ``view_schema``.

        ``view_schema`` is always resolved by the caller (the dispatcher
        synthesises one when the call site passed none), so backends never
        need type inference.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
