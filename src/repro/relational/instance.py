"""Relation and database instances.

An instance of ``R[A1..Ak]`` is a finite set of k-tuples of typed values,
each value belonging to the corresponding attribute's type (paper §2).  A
database instance maps each relation of a schema to such a set.

Instances are immutable; mutation-style operations return new objects.  The
module also provides the instance-level operations the proofs lean on:
per-attribute value projections (for *attribute-specific* checks), key
satisfaction, and the κ projection ``π_κ``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Set, Tuple

from repro.errors import InstanceError, TypeMismatchError
from repro.relational.attribute import QualifiedAttribute
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.domain import Value

Row = Tuple[Value, ...]


class RelationInstance:
    """An immutable, typed set of tuples over a relation scheme."""

    __slots__ = ("_schema", "_rows", "_hash")

    def __init__(self, schema: RelationSchema, rows: Iterable[Row] = ()) -> None:
        self._schema = schema
        self._hash = None
        checked: Set[Row] = set()
        arity = schema.arity
        signature = schema.type_signature
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise InstanceError(
                    f"tuple {row!r} has arity {len(row)}, relation "
                    f"{schema.name!r} expects {arity}"
                )
            for value, type_name in zip(row, signature):
                if not isinstance(value, Value) or value.type_name != type_name:
                    raise TypeMismatchError(
                        f"value {value!r} in tuple for {schema.name!r} is not of "
                        f"type {type_name!r}"
                    )
            checked.add(row)
        self._rows: FrozenSet[Row] = frozenset(checked)

    # ------------------------------------------------------------------ basic

    @property
    def schema(self) -> RelationSchema:
        """The relation scheme this instance populates."""
        return self._schema

    @property
    def rows(self) -> FrozenSet[Row]:
        """The tuple set."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def is_empty(self) -> bool:
        """True iff the instance holds no tuples."""
        return not self._rows

    # ------------------------------------------------------------ operations

    def column(self, attribute_name: str) -> FrozenSet[Value]:
        """π_A of this instance: the set of values in column ``attribute_name``."""
        pos = self._schema.position(attribute_name)
        return frozenset(row[pos] for row in self._rows)

    def project(self, attribute_names: Iterable[str]) -> FrozenSet[Row]:
        """Project onto the named attributes (in the given order)."""
        positions = [self._schema.position(name) for name in attribute_names]
        return frozenset(tuple(row[p] for p in positions) for row in self._rows)

    def with_rows(self, rows: Iterable[Row]) -> "RelationInstance":
        """Return a new instance with ``rows`` added."""
        return RelationInstance(self._schema, set(self._rows) | set(map(tuple, rows)))

    def map_rows(self, fn) -> "RelationInstance":
        """Return a new instance with ``fn`` applied to every row."""
        return RelationInstance(self._schema, (tuple(fn(row)) for row in self._rows))

    def satisfies_key(self) -> bool:
        """True iff the declared key (if any) is satisfied.

        Per §2: any pair of distinct tuples differs on at least one key
        attribute — equivalently, key values are unique.
        """
        key_positions = self._schema.key_positions()
        if not key_positions:
            return True
        seen: Set[Row] = set()
        for row in self._rows:
            key_value = tuple(row[p] for p in key_positions)
            if key_value in seen:
                return False
            seen.add(key_value)
        return True

    def key_projection(self) -> "RelationInstance":
        """π_κ of this instance: project onto the key attributes."""
        kappa_schema = self._schema.key_projection()
        positions = self._schema.key_positions()
        return RelationInstance(
            kappa_schema, (tuple(row[p] for p in positions) for row in self._rows)
        )

    def values(self) -> FrozenSet[Value]:
        """All values occurring anywhere in the instance."""
        return frozenset(v for row in self._rows for v in row)

    # -------------------------------------------------------------- equality

    def __getstate__(self):
        # The cached hash is process-specific (salted string hashing), so
        # it is recomputed lazily after unpickling.
        return (self._schema, self._rows)

    def __setstate__(self, state) -> None:
        self._schema, self._rows = state
        self._hash = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationInstance)
            and other._schema == self._schema
            and other._rows == self._rows
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self._schema, self._rows))
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shown = sorted(map(repr, self._rows))[:4]
        suffix = ", ..." if len(self._rows) > 4 else ""
        return f"{self._schema.name}{{{', '.join(shown)}{suffix}}}"


class DatabaseInstance:
    """An immutable database instance: one relation instance per relation.

    Missing relations are implicitly empty, so ``DatabaseInstance(schema)``
    is the empty instance of ``schema``.
    """

    __slots__ = ("_schema", "_relations", "_hash")

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Mapping[str, RelationInstance] | None = None,
    ) -> None:
        self._schema = schema
        filled: Dict[str, RelationInstance] = {}
        relations = dict(relations or {})
        for rel_schema in schema:
            inst = relations.pop(rel_schema.name, None)
            if inst is None:
                inst = RelationInstance(rel_schema)
            elif inst.schema != rel_schema:
                raise InstanceError(
                    f"instance supplied for {rel_schema.name!r} has schema "
                    f"{inst.schema!r}, expected {rel_schema!r}"
                )
            filled[rel_schema.name] = inst
        if relations:
            raise InstanceError(
                f"instances supplied for unknown relations: {sorted(relations)}"
            )
        self._relations = filled
        self._hash = None

    @classmethod
    def from_rows(
        cls, schema: DatabaseSchema, rows: Mapping[str, Iterable[Row]]
    ) -> "DatabaseInstance":
        """Build an instance directly from per-relation row iterables."""
        return cls(
            schema,
            {
                name: RelationInstance(schema.relation(name), rel_rows)
                for name, rel_rows in rows.items()
            },
        )

    # ------------------------------------------------------------------ basic

    @property
    def schema(self) -> DatabaseSchema:
        """The database schema this instance populates."""
        return self._schema

    def relation(self, name: str) -> RelationInstance:
        """The instance of the named relation."""
        try:
            return self._relations[name]
        except KeyError:
            raise InstanceError(f"schema has no relation named {name!r}") from None

    def __getitem__(self, name: str) -> RelationInstance:
        return self.relation(name)

    def __iter__(self) -> Iterator[RelationInstance]:
        return (self._relations[r.name] for r in self._schema)

    def total_rows(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(r) for r in self._relations.values())

    def is_empty(self) -> bool:
        """True iff every relation is empty."""
        return all(r.is_empty() for r in self._relations.values())

    def all_nonempty(self) -> bool:
        """True iff every relation holds at least one tuple."""
        return all(not r.is_empty() for r in self._relations.values())

    # ------------------------------------------------------------ operations

    def with_relation(self, instance: RelationInstance) -> "DatabaseInstance":
        """Return a copy with the same-named relation instance replaced."""
        updated = dict(self._relations)
        if instance.schema.name not in updated:
            raise InstanceError(f"schema has no relation named {instance.schema.name!r}")
        updated[instance.schema.name] = instance
        return DatabaseInstance(self._schema, updated)

    def satisfies_keys(self) -> bool:
        """True iff every relation instance satisfies its key dependency."""
        return all(r.satisfies_key() for r in self._relations.values())

    def column(self, attribute: QualifiedAttribute) -> FrozenSet[Value]:
        """π_A(d) for a qualified attribute A."""
        return self.relation(attribute.relation).column(attribute.attribute)

    def is_attribute_specific(self) -> bool:
        """True iff distinct attributes share no values (paper §2).

        The definition quantifies over *all* pairs of distinct (qualified)
        attributes in the schema; attributes of different types can never
        share values, so only same-type pairs need checking.
        """
        seen: Dict[Value, QualifiedAttribute] = {}
        for attr in self._schema.qualified_attributes():
            for value in self.column(attr):
                owner = seen.get(value)
                if owner is not None and owner != attr:
                    return False
                seen[value] = attr
        return True

    def key_projection(self) -> "DatabaseInstance":
        """π_κ(d): the instance of κ(S) projecting out all non-key attributes."""
        kappa_schema = DatabaseSchema(
            tuple(r.key_projection() for r in self._schema)
        )
        return DatabaseInstance(
            kappa_schema,
            {name: inst.key_projection() for name, inst in self._relations.items()},
        )

    def values(self) -> FrozenSet[Value]:
        """All values occurring anywhere in the instance."""
        return frozenset(v for inst in self._relations.values() for v in inst.values())

    # -------------------------------------------------------------- equality

    def __getstate__(self):
        # The cached hash is process-specific (salted string hashing) and
        # must be recomputed on the receiving side.
        return (self._schema, self._relations)

    def __setstate__(self, state) -> None:
        self._schema, self._relations = state
        self._hash = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatabaseInstance)
            and other._schema == self._schema
            and other._relations == self._relations
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(
                (self._schema, frozenset(self._relations.items()))
            )
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            "DatabaseInstance{"
            + "; ".join(repr(self._relations[r.name]) for r in self._schema)
            + "}"
        )
