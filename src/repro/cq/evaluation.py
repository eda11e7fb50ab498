"""Evaluation of conjunctive queries: the backend dispatcher.

The evaluators live in :mod:`repro.cq.backends` — ``indexed`` (the
production path: per-atom scans, a Yannakakis semijoin reducer on bodies
with a join tree, then hash joins that drop dead variables) and
``naive`` (the reference enumerator).  This module is the single entry
point that:

* resolves the view scheme and the backend (explicit argument, else the
  process default — CLI ``--backend`` / ``REPRO_BACKEND`` / ``indexed``);
* memoizes answers per ``(query, instance, view schema, backend)`` —
  the dominance search's gadget refuter applies the same views to the
  same tiny instances for every candidate pair, and the backend name in
  the key keeps differential runs honest;
* attributes the real work to per-backend ``evaluate.<name>`` spans and
  counts dispatches (``backend.dispatch.<name>``), so profiles and the
  dashboard show where each backend's time goes.

:func:`evaluate_naive` remains exported as the reference oracle for
differential tests.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cq import backends as _backends
from repro.cq.backends.base import synthesize_view_schema
from repro.cq.backends.plan import order_atoms as _order_atoms  # noqa: F401 - legacy API
from repro.cq.syntax import ConjunctiveQuery
from repro.obs import metrics as _metrics
from repro.obs.tracing import span as _span
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import RelationSchema
from repro.utils import memo

__all__ = [
    "evaluate",
    "evaluate_naive",
    "synthesize_view_schema",
]

# Answers are memoized on (query, instance, view schema, backend name)
# — all immutable value objects.  Instances above the row ceiling bypass
# the cache (retaining them is too expensive).  The E1 gadget refuter
# replays the same (view, tiny instance) pairs thousands of times, and
# the hit path must stay a single dict probe.
_EVAL_MEMO = memo.memo("evaluate", maxsize=16384)
_EVAL_CACHE_MAX_ROWS = 2048

_DISPATCH_COUNTERS: Dict[str, _metrics.Counter] = {}


def _dispatch_counter(name: str) -> _metrics.Counter:
    counter = _DISPATCH_COUNTERS.get(name)
    if counter is None:
        counter = _metrics.registry().counter(f"backend.dispatch.{name}")
        _DISPATCH_COUNTERS[name] = counter
    return counter


def evaluate(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    view_schema: Optional[RelationSchema] = None,
    backend: Optional[str] = None,
) -> RelationInstance:
    """Evaluate ``query`` over ``instance`` via the selected backend.

    ``backend`` names a registered backend (``indexed`` or ``naive``);
    ``None`` uses the process default.  The backend lookup, the dispatch
    counter and the per-backend span all live on the memo-miss path: a
    cache hit is answered before any backend machinery runs, and the
    trace shows real join work only.
    """
    if view_schema is None:
        view_schema = synthesize_view_schema(query, instance)
    name = backend if backend is not None else _backends.default_backend_name()
    if instance.total_rows() <= _EVAL_CACHE_MAX_ROWS:
        return _EVAL_MEMO.get_or_compute(
            (query, instance, view_schema, name),
            lambda: _evaluate(name, query, instance, view_schema),
        )
    return _evaluate(name, query, instance, view_schema)


def _evaluate(
    name: str,
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    view_schema: RelationSchema,
) -> RelationInstance:
    chosen = _backends.get_backend(name)
    _dispatch_counter(name).inc()
    with _span("evaluate." + name):
        return chosen.evaluate(query, instance, view_schema)


def evaluate_naive(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    view_schema: Optional[RelationSchema] = None,
) -> RelationInstance:
    """Reference evaluator: enumerate all body-tuple combinations.

    Exponential in the body size; used for differential testing only.
    Deliberately un-memoized and un-spanned so the oracle stays
    independent of the machinery under test.
    """
    if view_schema is None:
        view_schema = synthesize_view_schema(query, instance)
    return _backends.get_backend("naive").evaluate(query, instance, view_schema)
