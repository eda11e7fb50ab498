"""Unit tests for the evaluation-backend subsystem itself.

Parity of answers across backends lives in ``test_backend_parity.py``;
here we pin the dispatcher's backend, plan compilation and caching,
dispatch observability, and the small-relation scan fast path.
"""

from repro.cq import evaluation
from repro.cq.backends.plan import compile_plan
from repro.cq.evaluation import evaluate
from repro.cq.indexing import SMALL_RELATION_ROWS, counters
from repro.cq.syntax import Atom, ConjunctiveQuery, Variable
from repro.obs import metrics as _metrics
from repro.obs import tracing
from repro.relational import DatabaseInstance, Value
from repro.utils import memo
from repro.workloads import (
    chain_query,
    cycle_query,
    edge_schema,
    random_graph_instance,
)


# ------------------------------------------------------------------ default


def test_default_backend_is_indexed():
    assert evaluation._BACKEND.name == "indexed"


# -------------------------------------------------------------------- plans


def test_plan_cache_returns_shared_instance():
    q = chain_query(3)
    assert compile_plan(q) is compile_plan(q)


def test_plan_marks_chain_acyclic():
    plan = compile_plan(chain_query(4))
    assert plan.acyclic
    assert plan.links is not None and len(plan.links) == 3
    assert plan.depth >= 1


def test_plan_marks_cycle_cyclic():
    plan = compile_plan(cycle_query(4))
    assert not plan.acyclic
    assert plan.links is None
    assert plan.depth == -1


def test_plan_of_inconsistent_query():
    x = Variable("x")
    c0, c1 = Value("Node", 0), Value("Node", 1)
    from repro.cq.syntax import Constant

    q = ConjunctiveQuery(
        Atom("Q", (x,)), [Atom("E", (x, x))],
        [(Constant(c0), Constant(c1))],
    )
    assert compile_plan(q).inconsistent


def test_plan_drops_dead_variables_after_their_last_use():
    # Q(x0) :- E(x0, x1), E(x1, x2), E(x2, x0): x1 is dead after the
    # second step, x2 after the third, so only x0 reaches the head.
    plan = compile_plan(cycle_query(3))
    second, third = plan.steps[1], plan.steps[2]
    assert second.dedupe and third.dedupe
    assert third.kept_free == ()  # both variables bound: a filter step
    assert plan.head == ((False, 0),)


def test_plan_reducer_links_share_variables():
    plan = compile_plan(chain_query(4))
    # Three links, each semijoined up and then down the tree.
    assert len(plan.reducer) == 6
    for target, source, target_key, source_key in plan.reducer:
        target_vars = plan.atoms[target].variables
        source_vars = plan.atoms[source].variables
        assert [target_vars[p] for p in target_key] == [
            source_vars[p] for p in source_key
        ]


# ------------------------------------------------------------ observability


def test_dispatch_counter_increments():
    inst = random_graph_instance(nodes=6, edges=15, seed=3)
    q = chain_query(2)
    counter = _metrics.registry().counter("backend.dispatch.indexed")
    memo.memo("evaluate").clear()  # dispatches count on memo misses only
    before = counter.value
    evaluate(q, inst)
    assert counter.value == before + 1
    # A memo hit answers before any backend machinery runs.
    evaluate(q, inst)
    assert counter.value == before + 1


def test_evaluate_span_names_resolved_backend():
    inst = random_graph_instance(nodes=6, edges=15, seed=5)
    q = chain_query(2)
    was = tracing.set_enabled(True)
    tracing.start_trace()
    try:
        memo.memo("evaluate").clear()  # force a real (spanned) evaluation
        evaluate(q, inst)
        names = {record.name for record in tracing.drain()}
    finally:
        tracing.set_enabled(was)
    assert "evaluate.indexed" in names


# ------------------------------------------------- small-relation fast path


def test_small_relations_scan_without_building_indexes():
    from repro.cq.indexing import candidate_rows

    rows = [
        (Value("Node", i), Value("Node", i + 1))
        for i in range(SMALL_RELATION_ROWS)
    ]
    inst = DatabaseInstance.from_rows(edge_schema(), {"E": rows})
    relation = inst.relation("E")
    builds = counters.index_builds
    matches = candidate_rows(relation, [(0, Value("Node", 2))])
    assert set(matches) == {(Value("Node", 2), Value("Node", 3))}
    assert counters.index_builds == builds


def test_large_relations_still_use_indexes():
    from repro.cq.indexing import candidate_rows

    rows = [
        (Value("Node", i), Value("Node", i + 1))
        for i in range(SMALL_RELATION_ROWS + 1)
    ]
    inst = DatabaseInstance.from_rows(edge_schema(), {"E": rows})
    relation = inst.relation("E")
    builds = counters.index_builds
    matches = candidate_rows(relation, [(0, Value("Node", 2))])
    assert set(matches) == {(Value("Node", 2), Value("Node", 3))}
    assert counters.index_builds == builds + 1
