"""Counterexample search: the proofs' instance gadgets as refuters.

The paper's arguments always distinguish schemas/mappings with one of a
small family of instances: attribute-specific instances with fresh values
(Lemmas 3-5, Theorem 6), the two-key-value instance and its g-swap
(Lemma 7), and non-empty single-tuple instances.  This module packages
those gadgets as a fast *pointwise* refuter for candidate dominance pairs:
evaluate β(α(d)) on each gadget and compare with d.  It is sound (any
returned instance genuinely breaks the round trip) but incomplete; the
exact decision is :func:`repro.mappings.identity.composes_to_identity`.
The bounded search (experiment E1) uses the gadgets to discard almost all
candidates before paying for the exact chase-based check.

:func:`quick_reject` refutes one pair; :class:`GridRefuter` gives the same
answer for every pair of a whole α×β candidate grid while sharing the work
across it, the way the search consumes it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.mappings.query_mapping import QueryMapping
from repro.obs import metrics as _metrics
from repro.relational.generators import (
    attribute_specific_instance,
    g_swap,
    random_instance,
    two_key_values,
)
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema
from repro.utils import memo

_GADGET_MEMO = memo.memo("gadget-instances", maxsize=1024)
_KEY_VIOLATION_MEMO = memo.memo("key-violation", maxsize=8192)


def gadget_instances(
    schema: DatabaseSchema,
    avoid=frozenset(),
    random_trials: int = 4,
    seed: int = 0,
) -> Iterator[DatabaseInstance]:
    """The proof gadgets for ``schema``, cheapest first.

    1. the empty instance;
    2. one-tuple and two-tuple attribute-specific instances (fresh values);
    3. per key attribute, the Lemma 7 two-key-value instance and its g-swap;
    4. a few random key-satisfying instances.

    The family is a pure function of its arguments and is memoized: a
    dominance search re-derives the same gadgets for every candidate pair
    over the same schema.
    """
    key = (schema, frozenset(avoid), random_trials, seed)
    yield from _GADGET_MEMO.get_or_compute(
        key, lambda: tuple(_build_gadgets(schema, avoid, random_trials, seed))
    )


def _build_gadgets(
    schema: DatabaseSchema,
    avoid,
    random_trials: int,
    seed: int,
) -> Iterator[DatabaseInstance]:
    yield DatabaseInstance(schema)
    yield attribute_specific_instance(schema, rows_per_relation=1, avoid=avoid)
    yield attribute_specific_instance(schema, rows_per_relation=2, avoid=avoid)
    for key_attr in schema.key_qualified_attributes():
        gadget, k1, k2 = two_key_values(schema, key_attr, avoid=avoid)
        yield gadget
        yield g_swap(gadget, k1, k2)
    for trial in range(random_trials):
        candidate = random_instance(schema, rows_per_relation=3, seed=seed + trial)
        if candidate.satisfies_keys():
            yield candidate


def find_round_trip_counterexample(
    alpha: QueryMapping,
    beta: QueryMapping,
    random_trials: int = 4,
    seed: int = 0,
) -> Optional[DatabaseInstance]:
    """A key-satisfying d with β(α(d)) ≠ d, from the gadget family, if any."""
    avoid = alpha.constants() | beta.constants()
    for instance in gadget_instances(
        alpha.source, avoid=avoid, random_trials=random_trials, seed=seed
    ):
        if beta.apply(alpha.apply(instance)) != instance:
            return instance
    return None


def find_key_violation(
    mapping: QueryMapping,
    random_trials: int = 4,
    seed: int = 0,
) -> Optional[DatabaseInstance]:
    """A key-satisfying source instance whose image violates a target key.

    Pointwise/incomplete; the exact test is
    :func:`repro.mappings.validity.validity_report`.  Memoized per mapping:
    ``quick_reject`` probes the same α against every candidate β (and vice
    versa), and the verdict is pair-independent.
    """
    key = (mapping, random_trials, seed)
    return _KEY_VIOLATION_MEMO.get_or_compute(
        key, lambda: _find_key_violation(mapping, random_trials, seed)
    )


def _find_key_violation(
    mapping: QueryMapping,
    random_trials: int,
    seed: int,
) -> Optional[DatabaseInstance]:
    avoid = mapping.constants()
    for instance in gadget_instances(
        mapping.source, avoid=avoid, random_trials=random_trials, seed=seed
    ):
        if not mapping.apply(instance).satisfies_keys():
            return instance
    return None


# quick_reject's gadget family: random trials and seed (GridRefuter's too).
_QUICK_REJECT_TRIALS = 2
_QUICK_REJECT_SEED = 0


def quick_reject(
    alpha: QueryMapping,
    beta: QueryMapping,
    random_trials: int = _QUICK_REJECT_TRIALS,
    seed: int = _QUICK_REJECT_SEED,
) -> bool:
    """True when the gadgets refute (α, β) as a dominance pair.

    Checks validity of both mappings and the round trip, pointwise only.
    A ``False`` result means "survived the gadgets", not "verified".
    """
    if find_key_violation(alpha, random_trials=random_trials, seed=seed) is not None:
        return True
    if find_key_violation(beta, random_trials=random_trials, seed=seed) is not None:
        return True
    return (
        find_round_trip_counterexample(
            alpha, beta, random_trials=random_trials, seed=seed
        )
        is not None
    )


# α class markers of a GridRefuter (a class index is >= 0).
_UNSEEN = -1
_PAIRWISE = -2
# Cells of a GridRefuter's rows and β states, one byte each.  A β without
# constants stays _UNCHECKED until one of its pairs survives a round trip.
_UNKNOWN, _CLEAN, _REFUTED, _PAIRWISE_BETA, _UNCHECKED = 0, 1, 2, 3, 4


class GridRefuter:
    """:func:`quick_reject` over a whole α×β candidate grid, as a join.

    ``rejects(a, b)`` equals ``quick_reject(alphas[a], betas[b])`` for
    every pair, but shares the work across the grid.  The α are the
    candidates of one search, so they share one source schema.  For a
    constant-free α the gadget family d₁, …, dₖ of that source does not
    depend on β, so all that α contributes to the verdict — its key
    violations and the round trip's inputs α(dᵢ) — is fixed by its image
    tuple (α(d₁), …, α(dₖ)).  Each α is applied to the family once and
    put in the class of its image tuple.  The round trip β(α(dᵢ)) = dᵢ
    runs once per (class, β), and its outcome is kept as one byte per β
    in the class's row.  The verdict is an OR of three pure checks, so
    their order is free: each β is checked for key violations at most
    once, and only when one of its pairs survives the round trip.  A
    mapping with constants falls back to :func:`quick_reject`: its
    gadgets avoid its constants, so the family depends on the pair.

    The work is lazy — a class forms when the first of its α is asked
    about, a cell when it is first needed — so a scan that stops at an
    early witness pays for no more of the grid than it visits.  The
    metrics registry counts ``search.alpha_classes`` (classes formed) and
    ``search.round_trip_checks`` ((class, β) round trips run).  Nothing
    outlives the refuter: it is built per scan and dropped with it.
    """

    def __init__(
        self, alphas: Sequence[QueryMapping], betas: Sequence[QueryMapping]
    ) -> None:
        self._alphas = alphas
        self._betas = betas
        self._family: Optional[Tuple[DatabaseInstance, ...]] = None
        self._class_of = [_UNSEEN] * len(alphas)
        self._beta_state = bytearray(len(betas))
        # Classes: ids by image tuple, image tuples, key violations, rows over β.
        self._class_ids: Dict[Tuple[DatabaseInstance, ...], int] = {}
        self._class_images: List[Tuple[DatabaseInstance, ...]] = []
        self._class_violates: List[bool] = []
        self._class_rows: List[bytearray] = []
        registry = _metrics.registry()
        self._classes_formed = registry.counter("search.alpha_classes")
        self._round_trips_run = registry.counter("search.round_trip_checks")

    def rejects(self, a: int, b: int) -> bool:
        """True when the gadgets refute (``alphas[a]``, ``betas[b]``)."""
        cls = self._class_of[a]
        if cls == _UNSEEN:
            cls = self._class_of[a] = self._classify(self._alphas[a])
        state = self._beta_state[b]
        if state == _UNKNOWN:
            state = self._beta_state[b] = (
                _PAIRWISE_BETA if self._betas[b].constants() else _UNCHECKED
            )
        if cls == _PAIRWISE or state == _PAIRWISE_BETA:
            return quick_reject(self._alphas[a], self._betas[b])
        if self._class_violates[cls]:
            return True
        row = self._class_rows[cls]
        cell = row[b]
        if cell == _UNKNOWN:
            cell = row[b] = self._round_trip(cls, b)
        if cell == _REFUTED:
            return True
        if state == _UNCHECKED:
            violation = find_key_violation(
                self._betas[b],
                random_trials=_QUICK_REJECT_TRIALS,
                seed=_QUICK_REJECT_SEED,
            )
            state = self._beta_state[b] = _CLEAN if violation is None else _REFUTED
        return state == _REFUTED

    def _classify(self, alpha: QueryMapping) -> int:
        """The class index of a constant-free α, or ``_PAIRWISE``."""
        if alpha.constants():
            return _PAIRWISE
        if self._family is None:
            self._family = tuple(
                gadget_instances(
                    alpha.source,
                    random_trials=_QUICK_REJECT_TRIALS,
                    seed=_QUICK_REJECT_SEED,
                )
            )
        images = tuple(alpha.apply(gadget) for gadget in self._family)
        cls = self._class_ids.get(images)
        if cls is None:
            cls = self._class_ids[images] = len(self._class_images)
            self._class_images.append(images)
            # find_key_violation(α) on the same family, from the images.
            self._class_violates.append(
                not all(image.satisfies_keys() for image in images)
            )
            self._class_rows.append(bytearray(len(self._betas)))
            self._classes_formed.inc()
        return cls

    def _round_trip(self, cls: int, b: int) -> int:
        """β(α(dᵢ)) = dᵢ over the family, in family order, for one class."""
        self._round_trips_run.inc()
        apply = self._betas[b].apply
        for gadget, image in zip(self._family, self._class_images[cls]):
            if apply(image) != gadget:
                return _REFUTED
        return _CLEAN
