"""The hash-join backend: the production evaluator.

Evaluation runs a compiled :class:`repro.cq.backends.plan.EvalPlan` in
three steps:

1. **Scan.**  Each atom's relation is read once into a table of distinct
   tuples over the atom's distinct variables, keeping only the rows that
   carry its constants and agree on its repeated variables.  An atom of
   distinct variables and no constant scans to the relation's own row
   set, without a copy.
2. **Reduce.**  On a body with a join tree the Yannakakis full reducer
   runs as hash semijoins: collect the source table's key set, keep the
   target rows whose key is in it.  The answer is empty as soon as any
   table is, so dangling-heavy and bowtie instances end here.
3. **Join.**  Tables join the bindings in the plan's greedy order, and
   each step drops the variables no later atom and no head term needs.
   CQ answers are sets, so projecting early is exact; only a step that
   drops a column can repeat a tuple, and only those deduplicate.

The plan fixes every column position, so a call only touches rows.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Collection, List, Sequence, Tuple

from repro.cq.backends.base import Backend
from repro.cq.backends.plan import AtomPlan, JoinStep, compile_plan
from repro.cq.syntax import ConjunctiveQuery
from repro.relational.domain import Value
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import RelationSchema

Table = Collection[Tuple[Value, ...]]


def _columns(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function picking ``positions`` out of a row, as a tuple."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    if positions:
        return itemgetter(*positions)
    return lambda row: ()


def _key(positions: Sequence[int]) -> Callable[[tuple], object]:
    """A hashable join key over ``positions`` (a bare value for one column)."""
    return itemgetter(*positions) if positions else lambda row: ()


def _scan(atom: AtomPlan, instance: DatabaseInstance) -> Table:
    """The atom's rows that fit its constants and repeats, one column per
    distinct variable.  The projection is injective on the kept rows, so
    the table has no duplicates."""
    rows = instance.relation(atom.relation).rows
    const_positions = atom.const_positions
    repeat_positions = atom.repeat_positions
    if not const_positions and not repeat_positions:
        return rows
    project = _columns(atom.var_positions)
    if const_positions:
        constant = _key([i for i, _ in const_positions])
        values = [v for _, v in const_positions]
        wanted = values[0] if len(values) == 1 else tuple(values)
        rows = [row for row in rows if constant(row) == wanted]
    if repeat_positions:
        left = _key([i for i, _ in repeat_positions])
        right = _key([j for _, j in repeat_positions])
        rows = [row for row in rows if left(row) == right(row)]
    return [project(row) for row in rows]


def _join(bindings: Table, table: Table, step: JoinStep) -> Table:
    """Join one table into the bindings and drop the dead columns."""
    binding_key = _key(step.binding_key)
    atom_key = _key(step.atom_key)
    kept = step.kept_binding
    if not step.kept_free:
        # Nothing new survives the step: it only filters the bindings.
        if step.binding_key:
            keys = set(map(atom_key, table))
            bindings = [b for b in bindings if binding_key(b) in keys]
        if kept is None:
            return bindings
        # Dropping a binding column is what marks a step ``dedupe``.
        project = _columns(kept)
        return {project(b) for b in bindings}

    index = defaultdict(list)
    extras = _columns(step.kept_free)
    for row in table:
        index[atom_key(row)].append(extras(row))
    probe = index.get
    if kept is None:
        joined = (
            binding + tail
            for binding in bindings
            for tail in probe(binding_key(binding), ())
        )
    else:
        project = _columns(kept)
        joined = (
            head + tail
            for binding in bindings
            for head in [project(binding)]
            for tail in probe(binding_key(binding), ())
        )
    return set(joined) if step.dedupe else list(joined)


class IndexedBackend(Backend):
    """Scan, semijoin-reduce acyclic bodies, hash-join with early projection."""

    name = "indexed"

    def evaluate(
        self,
        query: ConjunctiveQuery,
        instance: DatabaseInstance,
        view_schema: RelationSchema,
    ) -> RelationInstance:
        plan = compile_plan(query)
        if plan.inconsistent:
            return RelationInstance(view_schema)
        tables: List[Table] = []
        for atom in plan.atoms:
            table = _scan(atom, instance)
            if not table:
                return RelationInstance(view_schema)
            tables.append(table)

        for target, source, target_key, source_key in plan.reducer:
            keys = set(map(_key(source_key), tables[source]))
            key = _key(target_key)
            reduced = [row for row in tables[target] if key(row) in keys]
            if not reduced:
                return RelationInstance(view_schema)
            tables[target] = reduced

        bindings: Table = [()]
        for step in plan.steps:
            bindings = _join(bindings, tables[step.atom], step)
            if not bindings:
                return RelationInstance(view_schema)

        head = plan.head
        if any(is_const for is_const, _ in head):
            rows = [
                tuple(
                    payload if is_const else binding[payload]  # type: ignore[index]
                    for is_const, payload in head
                )
                for binding in bindings
            ]
            return RelationInstance(view_schema, rows)
        project = _columns([column for _, column in head])  # type: ignore[misc]
        return RelationInstance(view_schema, map(project, bindings))
