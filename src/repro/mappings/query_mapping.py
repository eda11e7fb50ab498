"""Query mappings between database schemas (paper §2).

A query mapping α from S₁ to S₂ is a family of conjunctive views, one per
relation of S₂, each defined over S₁ with the matching type.  Applying α to
an instance of S₁ yields an instance of S₂ (which need not satisfy S₂'s key
dependencies — that is *validity*, checked in :mod:`repro.mappings.validity`).

Query mappings compose by view unfolding
(:func:`repro.cq.composition.compose_views`); composition is associative and
agrees with pointwise function composition on instances, which the test
suite checks by evaluation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Mapping, Tuple

from repro.cq.composition import compose_views, identity_view
from repro.cq.receives import MappingReceives, analyze_views
from repro.cq.syntax import ConjunctiveQuery
from repro.errors import MappingError
from repro.mappings.view import View
from repro.relational.domain import Value
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema


class QueryMapping:
    """A conjunctive query mapping α : i(S₁) → i(S₂)."""

    __slots__ = ("_source", "_target", "_views")

    def __init__(
        self,
        source: DatabaseSchema,
        target: DatabaseSchema,
        queries: Mapping[str, ConjunctiveQuery],
    ) -> None:
        missing = set(target.relation_names) - set(queries)
        if missing:
            raise MappingError(
                f"query mapping lacks views for target relations {sorted(missing)}"
            )
        extra = set(queries) - set(target.relation_names)
        if extra:
            raise MappingError(
                f"query mapping has views for unknown relations {sorted(extra)}"
            )
        self._source = source
        self._target = target
        self._views: Dict[str, View] = {
            name: View(source, target.relation(name), queries[name])
            for name in target.relation_names
        }

    # ------------------------------------------------------------------ basic

    @property
    def source(self) -> DatabaseSchema:
        """The source schema S₁."""
        return self._source

    @property
    def target(self) -> DatabaseSchema:
        """The target schema S₂."""
        return self._target

    def view(self, relation_name: str) -> View:
        """The view defining one target relation."""
        try:
            return self._views[relation_name]
        except KeyError:
            raise MappingError(
                f"mapping has no view for relation {relation_name!r}"
            ) from None

    def query(self, relation_name: str) -> ConjunctiveQuery:
        """The defining query of one target relation."""
        return self.view(relation_name).query

    def queries(self) -> Dict[str, ConjunctiveQuery]:
        """All defining queries, keyed by target relation name."""
        return {name: v.query for name, v in self._views.items()}

    def __iter__(self) -> Iterator[View]:
        return (self._views[name] for name in self._target.relation_names)

    # ------------------------------------------------------------ application

    def apply(self, instance: DatabaseInstance) -> DatabaseInstance:
        """α(d): evaluate every view over ``instance``."""
        if instance.schema != self._source:
            raise MappingError(
                "instance schema does not match the mapping's source schema"
            )
        return DatabaseInstance(
            self._target,
            {
                name: view.answer(instance)
                for name, view in self._views.items()
            },
        )

    def __call__(self, instance: DatabaseInstance) -> DatabaseInstance:
        return self.apply(instance)

    # ------------------------------------------------------------ composition

    def then(self, other: "QueryMapping") -> "QueryMapping":
        """The composition ``other ∘ self`` (apply self first)."""
        if other.source != self._target:
            raise MappingError(
                "composition mismatch: other mapping's source differs from "
                "this mapping's target"
            )
        composed = compose_views(other.queries(), self.queries())
        return QueryMapping(self._source, other.target, composed)

    def after(self, other: "QueryMapping") -> "QueryMapping":
        """The composition ``self ∘ other`` (apply other first)."""
        return other.then(self)

    # -------------------------------------------------------------- analysis

    def constants(self) -> FrozenSet[Value]:
        """All constants mentioned by any view query.

        The proofs repeatedly pick database values avoiding this set.
        """
        result: FrozenSet[Value] = frozenset()
        for view in self._views.values():
            result |= view.query.constants()
        return result

    def receives(self) -> MappingReceives:
        """The mapping's receives relation (paper §2 attribute flow)."""
        return analyze_views(self.queries(), self._source, self._target)

    # -------------------------------------------------------------- equality

    def cache_key(self) -> Tuple:
        """A structural, hashable identity: (source, target, view queries).

        Two mappings with equal schemas and equal defining queries are the
        same mapping; the memo caches key on this.
        """
        return (
            self._source,
            self._target,
            tuple(
                (name, self._views[name].query)
                for name in self._target.relation_names
            ),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QueryMapping)
            and other.cache_key() == self.cache_key()
        )

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(self._target.relation_names)
        return f"QueryMapping({names} over {', '.join(self._source.relation_names)})"


def identity_mapping(schema: DatabaseSchema) -> QueryMapping:
    """The identity mapping on a schema: ``R(X⃗) :- R(X⃗)`` per relation."""
    return QueryMapping(
        schema,
        schema,
        {r.name: identity_view(r.name, r.arity) for r in schema},
    )
