"""Compiled query plans for the hash-join evaluator.

Everything about evaluating a query that does not depend on the instance
is decided once per query and stored as plain position tuples in an
immutable :class:`EvalPlan` held in a bounded memo:

* the *scan* of each body atom — rewrite to the equality-free general
  form, then classify each position as constant, repeat or first
  variable occurrence;
* the *reducer* — for a body with a GYO join tree, the Yannakakis full
  reducer as a list of hash semijoins (leaves to root, then back), each
  with the columns of the variables its two tables share;
* the *join steps* — the greedy join order with, for every step, the
  key columns on both sides and the columns that survive it: a variable
  no later atom and no head term needs is dropped right after the step
  that last uses it;
* the *head* — each head term as a constant or a column of the final
  bindings.

The per-call work of :mod:`repro.cq.backends.indexed` is then reduced to
touching rows, so the ~10⁵ tiny gadget evaluations of a scan pay no
planning.

Plan compilation also feeds the hypergraph statistics surfaced by
``--metrics-json`` and the dashboard: each compiled plan observes its
atom count and join-tree depth into the process-wide metrics registry
(``hypergraph.*``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.cq.equality import substitute_representatives
from repro.cq.hypergraph import join_tree, join_tree_depth
from repro.cq.syntax import Atom, ConjunctiveQuery, Constant, Variable
from repro.errors import EvaluationError
from repro.obs import metrics as _metrics
from repro.relational.domain import Value
from repro.utils import memo

_PLAN_MEMO = memo.memo("eval-plan", maxsize=8192)

_registry = _metrics.registry()
_plans_compiled = _registry.counter("hypergraph.plans.compiled")
_plans_acyclic = _registry.counter("hypergraph.plans.acyclic")
_atoms_hist = _registry.histogram("hypergraph.atoms")
_depth_hist = _registry.histogram("hypergraph.join_tree_depth")


class AtomPlan(NamedTuple):
    """How to scan one rewritten body atom (body order).

    The scan keeps the rows that carry the atom's constants and agree on
    its repeated variables, projected to ``var_positions``: one column per
    distinct variable, in first-occurrence order (``variables``).
    """

    relation: str
    const_positions: Tuple[Tuple[int, Value], ...]
    repeat_positions: Tuple[Tuple[int, int], ...]
    var_positions: Tuple[int, ...]
    variables: Tuple[Variable, ...]


class SemiJoin(NamedTuple):
    """One hash semijoin of the full reducer: table ``target`` ⋉ ``source``.

    ``target_key`` and ``source_key`` are the columns of the shared
    variables in the two scanned tables, in the same variable order.
    """

    target: int
    source: int
    target_key: Tuple[int, ...]
    source_key: Tuple[int, ...]


class JoinStep(NamedTuple):
    """One hash-join step of the greedy order.

    Atom ``atom``'s table joins the bindings where the binding columns
    ``binding_key`` equal the table columns ``atom_key``.  A match yields
    the binding's ``kept_binding`` columns (``None``: all of them, in
    order) followed by the row's ``kept_free`` columns — the variables
    the step binds that a later atom or the head still needs.  With no
    ``kept_free`` column the step is a semijoin filter.  ``dedupe`` marks
    the steps whose output can repeat a tuple because they drop a column;
    every other step's output is distinct by construction.
    """

    atom: int
    binding_key: Tuple[int, ...]
    atom_key: Tuple[int, ...]
    kept_binding: Optional[Tuple[int, ...]]
    kept_free: Tuple[int, ...]
    dedupe: bool


class EvalPlan(NamedTuple):
    """Everything instance-independent about evaluating one query.

    ``head`` maps each head term to ``(True, value)`` for a constant or
    ``(False, column)`` for a column of the bindings after the last step.
    ``reducer`` is empty on cyclic bodies and on bodies whose join tree
    links share no variable.
    """

    inconsistent: bool
    atoms: Tuple[AtomPlan, ...]
    links: Optional[Tuple[Tuple[int, int], ...]]
    depth: int
    reducer: Tuple[SemiJoin, ...]
    steps: Tuple[JoinStep, ...]
    head: Tuple[Tuple[bool, object], ...]

    @property
    def acyclic(self) -> bool:
        """True iff a join tree exists (consistent α-acyclic body)."""
        return self.links is not None


def order_atom_indices(body: Sequence[Atom]) -> List[int]:
    """Greedy join order as indices into ``body``.

    Start small, prefer atoms sharing already-bound variables — the same
    heuristic the pre-backend evaluator used, kept bit-for-bit so plans
    reproduce its join order exactly.
    """
    remaining = list(range(len(body)))
    ordered: List[int] = []
    bound: set = set()
    while remaining:

        def score(i: int) -> Tuple[int, int]:
            a = body[i]
            shared = sum(
                1 for t in a.terms if isinstance(t, Variable) and t in bound
            )
            constants = sum(1 for t in a.terms if isinstance(t, Constant))
            return (shared + constants, -len(a.terms))

        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(
            t for t in body[best].terms if isinstance(t, Variable)
        )
    return ordered


def order_atoms(body: Sequence[Atom]) -> List[Atom]:
    """Greedy join order over the atoms themselves (legacy interface)."""
    return [body[i] for i in order_atom_indices(body)]


def _atom_plan(atom: Atom) -> AtomPlan:
    const_positions: List[Tuple[int, Value]] = []
    repeat_positions: List[Tuple[int, int]] = []
    var_positions: List[int] = []
    first: Dict[Variable, int] = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            const_positions.append((i, term.value))
        elif term in first:
            repeat_positions.append((i, first[term]))
        else:
            first[term] = i
            var_positions.append(i)
    return AtomPlan(
        relation=atom.relation,
        const_positions=tuple(const_positions),
        repeat_positions=tuple(repeat_positions),
        var_positions=tuple(var_positions),
        variables=tuple(atom.terms[i] for i in var_positions),  # type: ignore[misc]
    )


def _reducer(
    atoms: Sequence[AtomPlan], links: Sequence[Tuple[int, int]]
) -> Tuple[SemiJoin, ...]:
    """The full reducer: semijoin parents by children up the tree, then
    children by parents down it.  Links whose atoms share no variable
    are left out: once every scanned table is known to be non-empty,
    such a semijoin removes nothing."""

    def semijoin(target: int, source: int) -> Optional[SemiJoin]:
        target_vars = atoms[target].variables
        source_vars = atoms[source].variables
        shared = [v for v in target_vars if v in source_vars]
        if not shared:
            return None
        return SemiJoin(
            target,
            source,
            tuple(target_vars.index(v) for v in shared),
            tuple(source_vars.index(v) for v in shared),
        )

    passes = [semijoin(parent, child) for child, parent in links]
    passes += [semijoin(child, parent) for child, parent in reversed(links)]
    return tuple(p for p in passes if p is not None)


def _steps(
    atoms: Sequence[AtomPlan],
    order: Sequence[int],
    head_variables: Set[Variable],
) -> Tuple[Tuple[JoinStep, ...], List[Variable]]:
    """The join steps of ``order`` and the columns of the final bindings."""
    # live[k]: the variables needed after step k (later atoms or the head).
    live: List[Set[Variable]] = []
    needed = set(head_variables)
    for i in reversed(order):
        live.append(set(needed))
        needed.update(atoms[i].variables)
    live.reverse()

    columns: List[Variable] = []
    steps: List[JoinStep] = []
    for k, i in enumerate(order):
        variables = atoms[i].variables
        bound = [v for v in variables if v in columns]
        free = [p for p, v in enumerate(variables) if v not in columns]
        kept_columns = [v for v in columns if v in live[k]]
        kept_free = [p for p in free if variables[p] in live[k]]
        drops_binding = len(kept_columns) < len(columns)
        steps.append(
            JoinStep(
                atom=i,
                binding_key=tuple(columns.index(v) for v in bound),
                atom_key=tuple(variables.index(v) for v in bound),
                kept_binding=(
                    tuple(columns.index(v) for v in kept_columns)
                    if drops_binding
                    else None
                ),
                kept_free=tuple(kept_free),
                dedupe=drops_binding
                or (bool(kept_free) and len(kept_free) < len(free)),
            )
        )
        columns = kept_columns + [variables[p] for p in kept_free]
    return tuple(steps), columns


def compile_plan(query: ConjunctiveQuery) -> EvalPlan:
    """The compiled plan for ``query`` (memoized per query)."""
    return _PLAN_MEMO.get_or_compute(query, lambda: _compile(query))


def _compile(query: ConjunctiveQuery) -> EvalPlan:
    rewritten, structure = substitute_representatives(query)
    if structure.inconsistent:
        return EvalPlan(
            inconsistent=True,
            atoms=(),
            links=None,
            depth=-1,
            reducer=(),
            steps=(),
            head=(),
        )
    body = rewritten.body
    atoms = tuple(_atom_plan(a) for a in body)
    head_variables = {
        t for t in rewritten.head.terms if isinstance(t, Variable)
    }
    steps, columns = _steps(atoms, order_atom_indices(body), head_variables)

    head: List[Tuple[bool, object]] = []
    for term in rewritten.head.terms:
        if isinstance(term, Constant):
            head.append((True, term.value))
        elif term in columns:
            head.append((False, columns.index(term)))
        else:
            raise EvaluationError(
                f"head variable {term!r} unbound after body evaluation"
            )

    links = join_tree([frozenset(ap.variables) for ap in atoms])
    depth = join_tree_depth(links, len(atoms))

    _plans_compiled.inc()
    _atoms_hist.observe(len(atoms))
    if links is not None:
        _plans_acyclic.inc()
        _depth_hist.observe(depth)

    return EvalPlan(
        inconsistent=False,
        atoms=atoms,
        links=None if links is None else tuple(links),
        depth=depth,
        reducer=() if links is None else _reducer(atoms, links),
        steps=steps,
        head=tuple(head),
    )
