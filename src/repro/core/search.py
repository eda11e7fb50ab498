"""Bounded exhaustive search for dominance witnesses (experiment E1).

Theorem 13 predicts that the only conjunctive-query-equivalent keyed
schemas are isomorphic ones.  Its finite shadow is checkable: enumerate all
constant-free conjunctive query mappings up to a body-size bound between
two small schemas, verify each candidate pair exactly, and observe that
witnesses exist exactly for isomorphic pairs.  This module implements the
enumeration and the scan driver.

Enumeration strategy (per target relation): choose a multiset of body
atoms over the source relations (≤ ``max_atoms``), assign one fresh
variable per position, enumerate all *type-homogeneous* partitions of the
positions (a partition is exactly an equality-class structure), and
enumerate all assignments of head positions to same-typed classes.  This
covers every constant-free conjunctive query with ≤ ``max_atoms`` body
atoms up to variable renaming.  Constants are deliberately excluded: the
search space with constants is infinite, and the paper's fresh-value
arguments (Lemma 3) show constants cannot help a mapping encode the
unboundedly many values a round trip must preserve.

Candidate pairs are bulk-rejected by the gadget refuter
(:class:`repro.core.counterexample.GridRefuter`, which answers
``quick_reject`` for the whole α×β grid as a join on α's gadget images)
before the exact chase-based checks run.

Resilience (see ``docs/RESILIENCE.md``): every driver here accepts a
whole-search ``deadline`` and a per-pair ``pair_deadline`` (cooperative —
the chase and the matcher poll them).  Budget-capped runs return
*verdicts* (``"ok"`` / ``"timeout"`` / ``"unknown"``) rather than hanging
or crashing.  Every driver is a single-process kernel: a scan spread over
several processes, or resumed after a crash, runs through the scan
fabric (:mod:`repro.scanfabric`), which schedules
:func:`theorem13_cell` itself.
"""

from __future__ import annotations

import itertools
import time
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import obstructions as _obstructions
# quick_reject is looked up here by perfbench/layers.py, which times it.
from repro.core.counterexample import GridRefuter, quick_reject  # noqa: F401
from repro.errors import DeadlineExceeded
from repro.mappings.dominance import DominancePair
from repro.mappings.identity import composes_to_identity
from repro.mappings.query_mapping import QueryMapping
from repro.mappings.validity import is_valid
from repro.cq.syntax import Atom, ConjunctiveQuery, Variable
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.tracing import span as _span
from repro.relational.isomorphism import is_isomorphic
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.resilience import deadline as _deadline
from repro.utils.itertools_ext import partitions


def enumerate_view_queries(
    source: DatabaseSchema,
    view_relation: RelationSchema,
    max_atoms: int = 2,
) -> Iterator[ConjunctiveQuery]:
    """All constant-free CQs defining ``view_relation`` over ``source``.

    Complete up to variable renaming for bodies of at most ``max_atoms``
    atoms.
    """
    head_types = view_relation.type_signature
    relation_names = [r.name for r in source]
    for n_atoms in range(1, max_atoms + 1):
        for combo in itertools.combinations_with_replacement(relation_names, n_atoms):
            body: List[Atom] = []
            position_types: List[str] = []
            variables: List[Variable] = []
            index = 0
            for relation_name in combo:
                relation = source.relation(relation_name)
                terms = []
                for attr in relation.attributes:
                    var = Variable(f"v{index}")
                    index += 1
                    terms.append(var)
                    variables.append(var)
                    position_types.append(attr.type_name)
                body.append(Atom(relation_name, tuple(terms)))
            positions = list(range(len(variables)))
            for partition in partitions(positions):
                _deadline.poll()
                # Equality classes must be type-homogeneous.
                if any(
                    len({position_types[p] for p in block}) > 1
                    for block in partition
                ):
                    continue
                equalities = []
                for block in partition:
                    anchor = variables[block[0]]
                    for p in block[1:]:
                        equalities.append((anchor, variables[p]))
                # Head: each position picks a class of its type.
                per_position_choices: List[List[Variable]] = []
                feasible = True
                for type_name in head_types:
                    choices = [
                        variables[block[0]]
                        for block in partition
                        if position_types[block[0]] == type_name
                    ]
                    if not choices:
                        feasible = False
                        break
                    per_position_choices.append(choices)
                if not feasible:
                    continue
                for head_vars in itertools.product(*per_position_choices):
                    head = Atom(view_relation.name, tuple(head_vars))
                    yield ConjunctiveQuery(head, body, equalities)


def enumerate_mappings(
    source: DatabaseSchema,
    target: DatabaseSchema,
    max_atoms: int = 2,
) -> Iterator[QueryMapping]:
    """All constant-free query mappings source → target within the bounds."""
    per_relation: List[List[ConjunctiveQuery]] = []
    for relation in target:
        candidates = list(
            enumerate_view_queries(source, relation, max_atoms=max_atoms)
        )
        if not candidates:
            return
        per_relation.append(candidates)
    for combination in itertools.product(*per_relation):
        queries = {
            relation.name: query
            for relation, query in zip(target.relations, combination)
        }
        yield QueryMapping(source, target, queries)


class SearchStats(NamedTuple):
    """Effort counters for one dominance search.

    The first five fields count candidates and pair-level work, as in the
    original implementation.  The remaining fields are a thin view over
    the metrics registry (:mod:`repro.obs.metrics`): they are computed as
    the registry's delta across the search — memo-cache hits, misses and
    evictions (``cache.*``) and matcher backtracks (``hom.backtracks``) —
    plus wall-clock time in seconds.

    ``pair_timeouts`` counts pairs whose exact check was abandoned because
    a per-pair deadline expired; those pairs were *not* decided.
    """

    alpha_candidates: int
    beta_candidates: int
    pairs_tried: int
    pairs_gadget_rejected: int
    exact_checks: int
    cache_hits: int = 0
    cache_misses: int = 0
    backtracks: int = 0
    wall_time: float = 0.0
    cache_evictions: int = 0
    pair_timeouts: int = 0


def _stats_from_delta(delta: _metrics.Snapshot) -> Dict[str, int]:
    """The registry-backed SearchStats fields from a metrics delta."""
    hits, misses, evictions = _metrics.cache_totals(delta)
    return {
        "cache_hits": int(hits),
        "cache_misses": int(misses),
        "cache_evictions": int(evictions),
        "backtracks": int(delta.get("hom.backtracks", 0)),
    }


class DominanceSearchResult(NamedTuple):
    """Outcome of :func:`search_dominance`.

    ``complete=False`` means the whole-scan deadline expired before every
    pair was examined: a ``pair=None`` result then says "no witness found
    in the part that ran", not "no witness exists within the bounds".
    """

    pair: Optional[DominancePair]
    stats: SearchStats
    complete: bool = True

    @property
    def found(self) -> bool:
        """True iff a verified witness was found."""
        return self.pair is not None


def _checked_pair(
    alpha: QueryMapping, beta: QueryMapping, pair_budget: Optional[float]
) -> Tuple[bool, bool]:
    """Exactly check one (α, β) pair under an optional per-pair budget.

    Returns ``(is_witness, timed_out)``.  A timed-out pair is *undecided*:
    the caller must not treat it as refuted, only as unresolved.
    """
    if pair_budget is None:
        return composes_to_identity(alpha, beta), False
    with _deadline.deadline_scope(pair_budget, label="pair") as pair_dl:
        try:
            return composes_to_identity(alpha, beta), False
        except DeadlineExceeded as exc:
            if exc.deadline is not pair_dl:
                raise
            _events.record_incident(
                _events.timeout_event("pair", seconds=pair_dl.budget)
            )
            return False, True


# Validated candidate lists of one search call, keyed by direction:
# (source, target) → every valid mapping source → target, in enumeration
# order.
CandidateLists = Dict[Tuple[DatabaseSchema, DatabaseSchema], List[QueryMapping]]


def _settled_by_lemma(
    s1: DatabaseSchema, s2: DatabaseSchema, started: float
) -> Optional[DominanceSearchResult]:
    """The complete, empty not-found result when a lemma refutes S₁ ⪯ S₂.

    ``None`` when no obstruction fires.  The prefilter is looked up
    through :mod:`repro.core.obstructions` at call time, where the
    benchmark's per-layer timers wrap it.
    """
    if not _obstructions.dominance_obstructions(s1, s2):
        return None
    _metrics.registry().counter("search.obstructed").inc()
    return DominanceSearchResult(
        None,
        SearchStats(0, 0, 0, 0, 0, wall_time=time.perf_counter() - started),
    )


def _valid_mappings(
    source: DatabaseSchema,
    target: DatabaseSchema,
    max_atoms: int,
    candidates: CandidateLists,
    out: List[QueryMapping],
) -> List[QueryMapping]:
    """The valid mappings source → target, enumerated once per call.

    A list already in ``candidates`` is returned as it is.  Otherwise the
    valid mappings are appended to ``out``, which therefore holds the
    part that ran when the deadline expires; only a finished list is
    recorded in ``candidates``.
    """
    known = candidates.get((source, target))
    if known is not None:
        return known
    for m in enumerate_mappings(source, target, max_atoms=max_atoms):
        _deadline.poll()
        if is_valid(m):
            out.append(m)
    candidates[(source, target)] = out
    return out


def search_dominance(
    s1: DatabaseSchema,
    s2: DatabaseSchema,
    max_atoms: int = 2,
    deadline: _deadline.DeadlineLike = None,
    pair_deadline: Optional[float] = None,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    candidates: Optional[CandidateLists] = None,
) -> DominanceSearchResult:
    """Bounded exhaustive search for a witness of S₁ ⪯ S₂.

    All candidate α : S₁ → S₂ are filtered to the exactly-valid ones, as
    are all candidate β : S₂ → S₁; surviving pairs are gadget-refuted and
    then checked exactly.  Within the bounds the search is complete: if it
    returns no pair *and* ``result.complete``, no constant-free witness
    with ≤ ``max_atoms`` body atoms per view exists.  When S₁ = S₂ the α
    list is the β list, so it is validated once.

    A sound lemma-based pre-filter (:mod:`repro.core.obstructions`) runs
    first: when a necessary condition for dominance is already violated,
    the search returns immediately with empty statistics.

    ``candidates`` is the caller's working set of validated lists for
    this bound (:func:`search_equivalence` passes one to both of its
    directions): a list found there is reused, and a list validated here
    is added to it.  Without it the lists live only for this call.

    The pair grid is scanned in α-major order and the search stops at the
    first witness, so the returned witness is deterministic.

    ``deadline`` (seconds or a shared :class:`Deadline`) bounds the whole
    search; on expiry the result reports ``complete=False`` instead of
    raising.  ``pair_deadline`` bounds each exact pair check; timed-out
    pairs are counted in ``stats.pair_timeouts`` and left undecided.

    ``on_progress`` (when given) receives ``(done, total, proc_label)``
    pair-count updates — once up front, then per finished α row and at
    the witness — sized for
    :class:`repro.obs.progress.ProgressReporter.update`.
    """
    registry = _metrics.registry()
    start_time = time.perf_counter()
    counters_before = registry.snapshot()
    scan_dl = _deadline.as_deadline(deadline, label="search")
    lists: CandidateLists = {} if candidates is None else candidates
    alphas: List[QueryMapping] = []
    betas: List[QueryMapping] = []
    pairs_tried = 0
    gadget_rejected = 0
    exact_checks = 0
    pair_timeouts = 0
    witness_flat: Optional[int] = None
    complete = True
    with _span("search.dominance"), _deadline.deadline_scope(scan_dl) as scope:
        try:
            settled = _settled_by_lemma(s1, s2, start_time)
            if settled is not None:
                return settled
            with _span("search.enumerate"):
                alphas = _valid_mappings(s1, s2, max_atoms, lists, alphas)
                betas = _valid_mappings(s2, s1, max_atoms, lists, betas)
            total_pairs = len(alphas) * len(betas)
            if total_pairs > 0:
                refuter = GridRefuter(alphas, betas)
                last_beta = len(betas) - 1
                with _span("search.scan"):
                    if on_progress is not None:
                        on_progress(0, total_pairs, "")
                    for flat in range(total_pairs):
                        _deadline.poll()
                        a, b = divmod(flat, len(betas))
                        pairs_tried += 1
                        if refuter.rejects(a, b):
                            gadget_rejected += 1
                        else:
                            exact_checks += 1
                            hit, timed = _checked_pair(
                                alphas[a], betas[b], pair_deadline
                            )
                            if timed:
                                pair_timeouts += 1
                            elif hit:
                                witness_flat = flat
                        if on_progress is not None and (
                            b == last_beta or witness_flat is not None
                        ):
                            on_progress(flat + 1, total_pairs, "")
                        if witness_flat is not None:
                            break
        except DeadlineExceeded as exc:
            if scope is None or exc.deadline is not scope:
                raise
            complete = False
            _events.record_incident(
                _events.timeout_event(scope.label, seconds=scope.budget)
            )
        witness: Optional[DominancePair] = None
        if witness_flat is not None:
            witness = DominancePair(
                alphas[witness_flat // len(betas)],
                betas[witness_flat % len(betas)],
            )
        registry.counter("search.alpha_candidates").inc(len(alphas))
        registry.counter("search.beta_candidates").inc(len(betas))
        registry.counter("search.pairs_tried").inc(pairs_tried)
        registry.counter("search.gadget_rejected").inc(gadget_rejected)
        registry.counter("search.exact_checks").inc(exact_checks)
        if witness is not None:
            registry.counter("search.witnesses").inc()
    delta = _metrics.diff(counters_before, registry.snapshot())
    return DominanceSearchResult(
        witness,
        SearchStats(
            len(alphas),
            len(betas),
            pairs_tried,
            gadget_rejected,
            exact_checks,
            wall_time=time.perf_counter() - start_time,
            pair_timeouts=pair_timeouts,
            **_stats_from_delta(delta),
        ),
        complete,
    )


class EquivalenceSearchResult(NamedTuple):
    """Outcome of :func:`search_equivalence`.

    Each direction is a :class:`DominanceSearchResult`; which ones ran
    depends on how the cell was settled:

    * *settled backward by a lemma*: ``backward`` is the obstructed
      result of S₂ ⪯ S₁ (complete, no pair, empty statistics) and
      ``forward`` was never run: it is complete, empty and has no pair;
    * *diagonal cell* (S₁ = S₂): the backward search would repeat the
      forward one, so ``backward is forward`` and :attr:`pair_timeouts`
      counts that result once;
    * *forward search found no witness* (a lemma refuting S₁ ⪯ S₂
      included): ``backward`` is ``None``;
    * otherwise both directions ran.
    """

    forward: DominanceSearchResult
    backward: Optional[DominanceSearchResult]

    @property
    def found(self) -> bool:
        """True iff witnesses were found in both directions."""
        return self.forward.found and (
            self.backward is not None and self.backward.found
        )

    @property
    def complete(self) -> bool:
        """True iff every direction that ran finished within its deadline."""
        if not self.forward.complete:
            return False
        return self.backward is None or self.backward.complete

    @property
    def pair_timeouts(self) -> int:
        """Total pairs left undecided by per-pair deadlines."""
        total = self.forward.stats.pair_timeouts
        if self.backward is not None and self.backward is not self.forward:
            total += self.backward.stats.pair_timeouts
        return total


def search_equivalence(
    s1: DatabaseSchema,
    s2: DatabaseSchema,
    max_atoms: int = 2,
    deadline: _deadline.DeadlineLike = None,
    pair_deadline: Optional[float] = None,
) -> EquivalenceSearchResult:
    """Bounded search for equivalence witnesses in both directions.

    Theorem 13's equivalence is dominance both ways, so the cell is
    settled as soon as either direction is refuted.  The lemma prefilter
    of the backward direction runs first, before any enumeration; the
    forward search (with its own prefilter) runs next, and the backward
    search only when the forward one found a witness.  The two searches
    share one working set of validated candidate lists, so the backward
    search reuses the forward lists with α and β swapped, and a diagonal
    cell (S₁ = S₂) runs one search.  Both directions share one
    ``deadline`` budget.
    """
    backward = _settled_by_lemma(s2, s1, time.perf_counter())
    if backward is not None:
        unrun = DominanceSearchResult(None, SearchStats(0, 0, 0, 0, 0))
        return EquivalenceSearchResult(unrun, backward)
    shared_dl = _deadline.as_deadline(deadline, label="search")
    candidates: CandidateLists = {}
    forward = search_dominance(
        s1, s2, max_atoms=max_atoms,
        deadline=shared_dl, pair_deadline=pair_deadline,
        candidates=candidates,
    )
    if s1 == s2:
        return EquivalenceSearchResult(forward, forward)
    if not forward.found:
        return EquivalenceSearchResult(forward, None)
    backward = search_dominance(
        s2, s1, max_atoms=max_atoms,
        deadline=shared_dl, pair_deadline=pair_deadline,
        candidates=candidates,
    )
    return EquivalenceSearchResult(forward, backward)


class ScanRow(NamedTuple):
    """One pair's outcome in a Theorem 13 scan.

    ``verdict`` is ``"ok"`` for a fully decided pair, ``"timeout"`` when a
    deadline cut the pair's search short, and ``"unknown"`` when per-pair
    deadlines left candidate pairs undecided without finding a witness.
    Non-``"ok"`` rows make no claim either way.
    """

    index1: int
    index2: int
    isomorphic: bool
    equivalence_found: bool
    verdict: str = "ok"

    @property
    def consistent_with_theorem13(self) -> bool:
        """Theorem 13 predicts: equivalence witness found ⟹ isomorphic, and
        (within search bounds) isomorphic ⟹ witness found.  Undecided rows
        (verdict != "ok") are vacuously consistent: they claim nothing."""
        if self.verdict != "ok":
            return True
        return self.isomorphic == self.equivalence_found


def theorem13_cell(
    s1: DatabaseSchema,
    s2: DatabaseSchema,
    max_atoms: int = 2,
    deadline: _deadline.DeadlineLike = None,
    pair_deadline: Optional[float] = None,
) -> Tuple[bool, bool, str]:
    """One Theorem 13 cell: ``(isomorphic, equivalence_found, verdict)``.

    The per-pair unit of :func:`theorem13_scan`, exposed for callers that
    schedule cells themselves (the scan fabric's shard workers, the
    symmetry-soundness property tests).
    """
    result = search_equivalence(
        s1, s2, max_atoms=max_atoms,
        deadline=_deadline.as_deadline(deadline, label="cell"),
        pair_deadline=pair_deadline,
    )
    isomorphic = is_isomorphic(s1, s2)
    if not result.complete:
        verdict = "timeout"
    elif result.pair_timeouts and not result.found:
        verdict = "unknown"
    else:
        verdict = "ok"
    return isomorphic, result.found, verdict


def dominance_matrix(
    schemas: Sequence[DatabaseSchema],
    max_atoms: int = 2,
) -> List[List[bool]]:
    """The dominance preorder over a schema universe, by bounded search.

    ``matrix[i][j]`` records whether a witness of ``schemas[i] ⪯
    schemas[j]`` was found within the bounds.  Unlike equivalence (which
    Theorem 13 collapses to isomorphism), dominance is a genuine preorder:
    schemas embed into strictly larger ones but not conversely, so the
    matrix is reflexive and transitive but not symmetric.  The tests check
    exactly those properties, plus consistency with the isomorphism
    diagonal.
    """
    return [
        [search_dominance(s1, s2, max_atoms=max_atoms).found for s2 in schemas]
        for s1 in schemas
    ]


def scan_fingerprint(
    kind: str,
    schemas: Sequence[DatabaseSchema],
    max_atoms: int,
    **extra,
) -> dict:
    """The journal fingerprint of one scan configuration.

    Everything that changes which units exist or what their outcomes mean
    belongs here; knobs that only change *how* units execute (deadlines,
    the number of fabric workers) do not.  The two ``*_cap`` keys name
    enumeration caps that no longer exist; they stay ``null`` so
    fingerprints — and every plan, journal and result-cache key derived
    from them — keep their bytes.
    """
    fingerprint = {
        "kind": kind,
        "schemas": [repr(s) for s in schemas],
        "max_atoms": max_atoms,
        "per_relation_cap": None,
        "mapping_cap": None,
    }
    fingerprint.update(extra)
    return fingerprint


def theorem13_scan(
    schemas: Sequence[DatabaseSchema],
    max_atoms: int = 2,
    deadline: _deadline.DeadlineLike = None,
    pair_deadline: Optional[float] = None,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    cells: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[ScanRow]:
    """Scan all unordered pairs of ``schemas`` for Theorem 13's prediction.

    For each pair, run the bounded equivalence search and compare against
    the isomorphism test.  Every row should satisfy
    ``consistent_with_theorem13``.

    ``cells`` restricts the scan to an explicit subset of unordered pairs
    (each ``(i, j)`` with ``i <= j``), in the given order, and the
    returned rows cover exactly those cells.  Without ``cells`` the full
    grid is scanned in ``(i, j)``-sorted order.

    An expired ``deadline`` stops the scan; unfinished cells get explicit
    ``verdict="timeout"`` rows instead of silently vanishing.
    ``on_progress`` (when given) is called as ``(done, total, "")`` once
    up front and then after each settled cell.
    """
    scan_dl = _deadline.as_deadline(deadline, label="scan")
    if cells is None:
        keys = [
            (i, j) for i in range(len(schemas)) for j in range(i, len(schemas))
        ]
    else:
        keys = [(int(i), int(j)) for i, j in cells]
        for i, j in keys:
            if not (0 <= i <= j < len(schemas)):
                raise ValueError(
                    f"cell ({i}, {j}) is not an unordered pair over "
                    f"{len(schemas)} schema(s)"
                )
    rows: List[ScanRow] = []
    if on_progress is not None:
        on_progress(0, len(keys), "")
    with _span("theorem13.scan"):
        for i, j in keys:
            if scan_dl is not None and scan_dl.expired():
                break  # remaining cells become explicit timeout rows
            isomorphic, found, verdict = theorem13_cell(
                schemas[i], schemas[j], max_atoms, scan_dl, pair_deadline
            )
            rows.append(ScanRow(i, j, isomorphic, found, verdict))
            if on_progress is not None:
                on_progress(len(rows), len(keys), "")
        for i, j in keys[len(rows):]:
            _events.record_incident(_events.timeout_event("scan", i=i, j=j))
            rows.append(ScanRow(i, j, False, False, "timeout"))
    return rows
