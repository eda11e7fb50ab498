"""Per-layer timing from outside the program.

The traced run replaces selected public functions of ``repro`` with timing
wrappers, at the exact name each caller looks them up (a module global
such as ``repro.core.search.quick_reject``, or a class attribute such as
``QueryMapping.apply``).  No file under ``src/`` changes.

Each wrapper keeps a per-thread call stack, so a layer's *self* time is
its wall time minus the time its wrapped callees took, and its
*inclusive* time is counted only for the outermost activation of that
layer on the stack (recursion is not double counted).  Everything is kept
in memory; :meth:`LayerTimer.totals` merges the per-thread tables when
the phase ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Dict, List, Tuple

# (layer, module, attribute) — one entry per name a caller looks up.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("search", "repro.core.search", "search_dominance"),
    ("search", "repro.engine.core", "_search_dominance"),
    ("obstructions", "repro.core.obstructions", "dominance_obstructions"),
    ("enumerate", "repro.core.search", "enumerate_mappings"),
    ("validity", "repro.core.search", "is_valid"),
    ("refute", "repro.core.search", "quick_reject"),
    ("refute.key_violation", "repro.core.counterexample", "find_key_violation"),
    ("refute.round_trip", "repro.core.counterexample",
     "find_round_trip_counterexample"),
    ("exact", "repro.core.search", "composes_to_identity"),
    ("mapping.compose", "repro.mappings.query_mapping", "QueryMapping.then"),
    ("mapping.apply", "repro.mappings.query_mapping", "QueryMapping.apply"),
    ("containment", "repro.mappings.identity", "is_contained_under"),
    ("containment", "repro.cq.homomorphism", "is_contained_in"),
    ("chase", "repro.cq.containment_deps", "chase"),
    ("chase", "repro.cq.chase", "chase"),
    ("evaluate", "repro.mappings.view", "evaluate"),
    ("evaluate", "repro.cq.evaluation", "evaluate"),
    ("isomorphism", "repro.core.search", "is_isomorphic"),
    ("engine", "repro.engine.core", "Engine.dominance_request"),
    ("engine", "repro.engine.core", "Engine.equivalence_request"),
)

# Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in PATCHES))

# Layers whose result is a useful-outcome flag, and how to read it: the
# ratio metrics (prune, pass, reject, witness) count these outcomes.
_OUTCOME = {
    "obstructions": bool,
    "validity": bool,
    "refute": bool,
    "refute.key_violation": lambda result: result is not None,
    "refute.round_trip": lambda result: result is not None,
    "exact": bool,
}

# Row fields of a layer table.
CALLS, SELF, INCL, TRUTHY, ITEMS = range(5)


class LayerTimer:
    """Call-stack-aware timing wrappers over :data:`PATCHES`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, list]] = []
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- bookkeeping

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # (stack of [start, child_seconds], active depth per layer, table)
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._tables.append(state[2])
        return state

    def _activation(self, layer: str, tally: int, outcome):
        """``activate(fn, args, kwargs, call)``: run ``fn`` as one slice of ``layer``.

        ``call`` (0 or 1) is added to the layer's call count; when ``fn``
        returns, ``outcome(result)`` is added to row field ``tally``.
        """
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        def activate(fn, args, kwargs, call: int):
            try:
                stack, depth, table = local.state
            except AttributeError:
                stack, depth, table = new_state()
            outer = depth.get(layer, 0)
            depth[layer] = outer + 1
            frame = [clock(), 0.0]
            stack.append(frame)
            counted = 0
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    counted = outcome(result)
                return result
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[layer] = outer
                row = table.get(layer)
                if row is None:
                    row = table[layer] = [0, 0.0, 0.0, 0, 0]
                row[CALLS] += call
                row[SELF] += elapsed - frame[1]
                if not outer:
                    row[INCL] += elapsed
                row[tally] += counted
                if stack:
                    stack[-1][1] += elapsed

        return activate

    # ---------------------------------------------------------------- wrappers

    def _wrap_call(self, layer: str, fn):
        """Time each call; count the calls whose result is a useful outcome."""
        activate = self._activation(layer, TRUTHY, _OUTCOME.get(layer))

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return activate(fn, args, kwargs, 1)

        return timed

    def _wrap_generator(self, layer: str, fn):
        """Time each ``next()`` as a slice of the layer; count yielded items."""
        activate = self._activation(layer, ITEMS, lambda item: 1)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            generator = fn(*args, **kwargs)
            call = 1  # the first slice counts as the call
            while True:
                try:
                    item = activate(next, (generator,), {}, call)
                except StopIteration:
                    return
                call = 0
                yield item

        return timed

    # ------------------------------------------------------------ install/undo

    def install(self) -> None:
        """Patch every entry of :data:`PATCHES` (idempotence is the caller's job)."""
        for layer, module_name, attribute in PATCHES:
            owner = importlib.import_module(module_name)
            name = attribute
            if "." in attribute:
                class_name, name = attribute.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, name)
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(layer, original)
            else:
                wrapped = self._wrap_call(layer, original)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def totals(self) -> Dict[str, list]:
        """Per-layer rows merged over all threads that ran a wrapper."""
        merged: Dict[str, list] = {layer: [0, 0.0, 0.0, 0, 0] for layer in LAYERS}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, row in table.items():
                target = merged[layer]
                for index, value in enumerate(row):
                    target[index] += value
        return merged
