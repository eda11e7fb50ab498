"""Evaluation backends for conjunctive queries.

Two evaluators implement the :class:`Backend` protocol:

* :class:`IndexedBackend` — the production evaluator, the one
  :func:`repro.cq.evaluation.evaluate` dispatches to: scan each atom
  once, semijoin-reduce bodies that have a join tree (Yannakakis), then
  hash-join in greedy order, dropping each variable once no later atom
  and no head term needs it;
* :class:`NaiveBackend` — the reference enumerator, kept as the
  differential-testing oracle (:func:`repro.cq.evaluation.evaluate_naive`).
"""

from __future__ import annotations

from repro.cq.backends.base import Backend, synthesize_view_schema
from repro.cq.backends.indexed import IndexedBackend
from repro.cq.backends.naive import NaiveBackend
from repro.cq.backends.plan import EvalPlan, compile_plan, order_atoms

__all__ = [
    "Backend",
    "EvalPlan",
    "IndexedBackend",
    "NaiveBackend",
    "compile_plan",
    "order_atoms",
    "synthesize_view_schema",
]
