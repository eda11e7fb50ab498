"""Evaluation backends for conjunctive queries.

The registry owns one instance of each backend and the process-wide
*default* selection that :func:`repro.cq.evaluation.evaluate` dispatches
through:

* ``indexed`` — the production evaluator: scan each atom once,
  semijoin-reduce bodies that have a join tree (Yannakakis), then
  hash-join in greedy order, dropping each variable once no later atom
  and no head term needs it;
* ``naive`` — the reference enumerator (differential-testing oracle).

The default backend is ``indexed``, overridable per process with the
``REPRO_BACKEND`` environment variable, per run with the CLI's
``--backend`` flag, and per call with ``evaluate(..., backend=...)``.
An unknown name raises :class:`repro.errors.EvaluationError` listing the
valid ones.  The parallel search ships the parent's selection to spawned
workers via ``_WorkerEnv`` (:mod:`repro.core.search`), so a scan uses one
backend everywhere regardless of start method.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.cq.backends.base import Backend, synthesize_view_schema
from repro.cq.backends.indexed import IndexedBackend
from repro.cq.backends.naive import NaiveBackend
from repro.cq.backends.plan import EvalPlan, compile_plan, order_atoms
from repro.errors import EvaluationError

__all__ = [
    "Backend",
    "ENV_VAR",
    "EvalPlan",
    "IndexedBackend",
    "NaiveBackend",
    "available_backends",
    "compile_plan",
    "default_backend_name",
    "get_backend",
    "order_atoms",
    "register",
    "resolve_backend",
    "set_default_backend",
    "synthesize_view_schema",
]

ENV_VAR = "REPRO_BACKEND"

_REGISTRY: Dict[str, Backend] = {}


def register(backend: Backend) -> Backend:
    """Register ``backend`` under its name (later registrations replace)."""
    _REGISTRY[backend.name] = backend
    return backend


register(NaiveBackend())
register(IndexedBackend())

# The process default: resolved lazily so a bad REPRO_BACKEND raises a
# clear EvaluationError at first use instead of a mid-import stack trace.
_default_name: Optional[str] = None


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Backend:
    """Look up a backend by name; unknown names raise with the valid set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EvaluationError(
            f"unknown evaluation backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None


def default_backend_name() -> str:
    """The process-default backend name (env ``REPRO_BACKEND`` or ``indexed``)."""
    global _default_name
    if _default_name is None:
        name = os.environ.get(ENV_VAR, "indexed")
        get_backend(name)  # validate before committing
        _default_name = name
    return _default_name


def set_default_backend(name: str) -> str:
    """Set the process-default backend; returns the previous name."""
    global _default_name
    get_backend(name)  # validate
    previous = default_backend_name()
    _default_name = name
    return previous


def resolve_backend(name: Optional[str] = None) -> Backend:
    """The backend instance for ``name``, or the process default."""
    return get_backend(name if name is not None else default_backend_name())
