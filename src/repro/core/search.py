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

Resilience (see ``docs/RESILIENCE.md``): every scan driver here accepts a
whole-scan ``deadline`` and a per-pair ``pair_deadline`` (cooperative —
the chase and the matcher poll them), survives worker crashes through
:func:`repro.resilience.retry.resilient_map`, and can journal completed
units to a :class:`repro.resilience.checkpoint.ScanCheckpoint` so an
interrupted scan resumes instead of restarting.  Budget-capped runs
return *verdicts* (``"ok"`` / ``"timeout"`` / ``"unknown"``) rather than
hanging or crashing.
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

# quick_reject is looked up here by perfbench/layers.py, which times it.
from repro.core.counterexample import GridRefuter, quick_reject  # noqa: F401
from repro.cq import backends as _backends
from repro.errors import DeadlineExceeded, MappingError
from repro.mappings.dominance import DominancePair
from repro.mappings.identity import composes_to_identity
from repro.mappings.query_mapping import QueryMapping
from repro.mappings.validity import is_valid
from repro.cq.homomorphism import indexing_enabled, set_indexing
from repro.cq.syntax import Atom, ConjunctiveQuery, Variable
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import profiler as _profiler
from repro.obs import tracing as _tracing
from repro.obs.tracing import SpanRecord, span as _span
from repro.relational.isomorphism import is_isomorphic
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.resilience import checkpoint as _checkpoint
from repro.resilience import deadline as _deadline
from repro.resilience import faults as _faults
from repro.resilience.deadline import Deadline
from repro.resilience.retry import ResilientMapResult, RetryPolicy, resilient_map
from repro.utils import memo
from repro.utils.itertools_ext import partitions


def enumerate_view_queries(
    source: DatabaseSchema,
    view_relation: RelationSchema,
    max_atoms: int = 2,
    max_queries: Optional[int] = None,
) -> Iterator[ConjunctiveQuery]:
    """All constant-free CQs defining ``view_relation`` over ``source``.

    Complete up to variable renaming for bodies of at most ``max_atoms``
    atoms; truncated at ``max_queries`` when given.
    """
    emitted = 0
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
                    emitted += 1
                    if max_queries is not None and emitted >= max_queries:
                        return


def enumerate_mappings(
    source: DatabaseSchema,
    target: DatabaseSchema,
    max_atoms: int = 2,
    per_relation_cap: Optional[int] = None,
    total_cap: Optional[int] = None,
) -> Iterator[QueryMapping]:
    """All constant-free query mappings source → target within the bounds."""
    per_relation: List[List[ConjunctiveQuery]] = []
    for relation in target:
        candidates = list(
            enumerate_view_queries(
                source, relation, max_atoms=max_atoms, max_queries=per_relation_cap
            )
        )
        if not candidates:
            return
        per_relation.append(candidates)
    emitted = 0
    for combination in itertools.product(*per_relation):
        queries = {
            relation.name: query
            for relation, query in zip(target.relations, combination)
        }
        yield QueryMapping(source, target, queries)
        emitted += 1
        if total_cap is not None and emitted >= total_cap:
            return


class SearchStats(NamedTuple):
    """Effort counters for one dominance search.

    The first five fields count candidates and pair-level work, as in the
    original implementation.  The remaining fields are a thin view over
    the metrics registry (:mod:`repro.obs.metrics`): they are computed as
    the registry's delta across the search — memo-cache hits, misses and
    evictions (``cache.*``), candidate rows returned by index probes
    (``index.rows_probed``), matcher backtracks (``hom.backtracks``) —
    plus wall-clock time in seconds.  In a parallel search
    (``n_workers > 1``) worker registries ship their deltas back to the
    parent, which merges them before taking its own delta, so the
    counters aggregate all processes exactly once.

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
    rows_probed: int = 0
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
        "rows_probed": int(delta.get("index.rows_probed", 0)),
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


class _WorkerEnv(NamedTuple):
    """Parent-side switches and budgets shipped to a worker in its payload.

    Under ``fork`` workers inherit module globals, but under ``spawn``
    they re-import everything with default settings — so every toggle a
    worker must respect (tracing, memo caches, index usage) rides in the
    payload instead of being assumed ambient.  ``attempt`` is the retry
    round of this payload (deterministic fault rules key on it);
    ``budget`` is the *remaining* whole-scan seconds at submission time
    (re-anchored in the worker — perf_counter values don't cross process
    boundaries); ``pair_budget`` is the per-pair deadline in seconds;
    ``profile_hz`` is the parent's sampling-profiler rate (None = not
    profiling), so a profiled run samples its workers too.
    """

    proc: str
    trace_on: bool
    cache_on: bool
    index_on: bool
    attempt: int = 0
    budget: Optional[float] = None
    pair_budget: Optional[float] = None
    profile_hz: Optional[float] = None
    backend: str = "indexed"


def _worker_env(
    proc: str,
    attempt: int = 0,
    scan_deadline: Optional[Deadline] = None,
    pair_budget: Optional[float] = None,
) -> _WorkerEnv:
    """Capture the parent's current toggles and budgets for one worker."""
    return _WorkerEnv(
        proc,
        _tracing.tracing_enabled(),
        memo.caches_enabled(),
        indexing_enabled(),
        attempt,
        None if scan_deadline is None else scan_deadline.remaining(),
        pair_budget,
        _profiler.profiling_hz(),
        _backends.default_backend_name(),
    )


class _ChunkResult(NamedTuple):
    """One worker's scan of a contiguous slice of the α×β pair grid.

    ``metrics_delta`` is the worker registry's counter delta across the
    chunk (a plain name → value dict); ``spans`` carries the worker's
    finished span records when tracing was on; ``samples`` the worker's
    profiler sample table (worker-prefixed ``span_id → ticks``) when the
    run was profiled.  All are primitives-only, so the whole result
    round-trips through pickle unchanged — the property the
    parallel-aggregation tests pin down.  ``timed_out`` marks a chunk the
    whole-scan deadline cut short (its counters cover only the pairs
    actually scanned).
    """

    witness_index: Optional[int]
    pairs_tried: int
    gadget_rejected: int
    exact_checks: int
    metrics_delta: Dict[str, float]
    spans: Tuple[SpanRecord, ...] = ()
    pair_timeouts: int = 0
    timed_out: bool = False
    samples: Optional[Dict[str, int]] = None


def _worker_obs_begin(env: _WorkerEnv) -> _metrics.Snapshot:
    """Apply the shipped toggles and start worker-side observability.

    Workers inherit the parent's counters and switches (fork) or start
    from cold defaults (spawn); re-applying the env makes both start
    methods behave identically, and the metrics *delta* across the chunk
    is what ships back, so the starting point cancels out either way.
    """
    memo.set_enabled(env.cache_on)
    set_indexing(env.index_on)
    _backends.set_default_backend(env.backend)
    if env.trace_on:
        _tracing.set_enabled(True)
        _tracing.start_trace(proc=env.proc)
    if env.profile_hz:
        # Fork-started workers inherit the parent's sample table; discard
        # it so the shipped delta covers this worker's ticks only (the
        # parent keeps its own copy — absorbing an inherited table would
        # double-count it).
        _profiler.stop_profiling()
        _profiler.drain_samples()
        _profiler.start_profiling(env.profile_hz)
    return _metrics.registry().snapshot()


def _worker_obs_end(
    before: _metrics.Snapshot, trace_on: bool
) -> Tuple[Dict[str, float], Tuple[SpanRecord, ...], Optional[Dict[str, int]]]:
    """Finish worker-side observability: (metrics delta, spans, samples).

    Stopping the profiler is unconditional (a no-op when it never
    started), so a retried payload whose first attempt crashed mid-chunk
    cannot leak a sampler thread into the next attempt.
    """
    delta = _metrics.diff(before, _metrics.registry().snapshot())
    spans = tuple(_tracing.drain()) if trace_on else ()
    _profiler.stop_profiling()
    samples = _profiler.drain_samples() or None
    return delta, spans, samples


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


def _chunk_scan_core(
    alphas: Sequence[QueryMapping],
    betas: Sequence[QueryMapping],
    start: int,
    end: int,
    scan_deadline: Optional[Deadline],
    pair_budget: Optional[float],
) -> _ChunkResult:
    """Scan pairs ``start..end`` (flat α-major indices) for a witness.

    Stops at the chunk's first witness: chunks are contiguous ascending
    slices, so the minimum reported index across chunks equals the
    sequential first-witness index, making N-worker results deterministic
    and identical to the 1-worker scan.  An expired ``scan_deadline``
    stops the scan and marks the chunk ``timed_out`` (a *foreign* expired
    deadline — some enclosing scope — propagates untouched).
    """
    pairs_tried = 0
    gadget_rejected = 0
    exact_checks = 0
    pair_timeouts = 0
    witness: Optional[int] = None
    timed_out = False
    n_betas = len(betas)
    refuter = GridRefuter(alphas, betas)
    with _span("search.scan"), _deadline.deadline_scope(scan_deadline) as scope:
        try:
            for flat in range(start, end):
                _deadline.poll()
                a, b = divmod(flat, n_betas)
                pairs_tried += 1
                if refuter.rejects(a, b):
                    gadget_rejected += 1
                    continue
                exact_checks += 1
                hit, timed = _checked_pair(alphas[a], betas[b], pair_budget)
                if timed:
                    pair_timeouts += 1
                    continue
                if hit:
                    witness = flat
                    break
        except DeadlineExceeded as exc:
            if scope is None or exc.deadline is not scope:
                raise
            timed_out = True
    return _ChunkResult(
        witness,
        pairs_tried,
        gadget_rejected,
        exact_checks,
        {},
        (),
        pair_timeouts,
        timed_out,
    )


def _scan_pair_chunk(payload) -> _ChunkResult:
    """Worker entry: one pair-grid chunk, with observability bracketing.

    Top-level so :class:`ProcessPoolExecutor` can pickle it.  The in-
    process fallback deliberately does *not* route through here — calling
    :func:`_worker_obs_begin` in the parent would restart the parent's
    tracer; the fallback closes over :func:`_chunk_scan_core` directly.
    """
    alphas, betas, startpos, end, chunk_id, env = payload
    before = _worker_obs_begin(env)
    _faults.fire("search.chunk", key=chunk_id, attempt=env.attempt)
    scan_dl = None if env.budget is None else Deadline(env.budget, label="scan")
    core = _chunk_scan_core(alphas, betas, startpos, end, scan_dl, env.pair_budget)
    delta, spans, samples = _worker_obs_end(before, env.trace_on)
    return core._replace(metrics_delta=delta, spans=spans, samples=samples)


def _run_chunked_scan(
    alphas: Sequence[QueryMapping],
    betas: Sequence[QueryMapping],
    chunks: Sequence[Tuple[int, int]],
    n_workers: int,
    scan_deadline: Optional[Deadline],
    pair_budget: Optional[float],
    retry_policy: Optional[RetryPolicy],
    mp_context,
    checkpoint: Optional[_checkpoint.ScanCheckpoint],
    checkpoint_key: Tuple[int, ...],
    on_progress: Optional[Callable[[int, int, str], None]] = None,
) -> Tuple[Optional[int], int, int, int, int, bool]:
    """Drive the chunked (pool-backed, recoverable) pair-grid scan.

    Returns ``(witness_flat_index, pairs_tried, gadget_rejected,
    exact_checks, pair_timeouts, complete)``.  Chunks already present in
    the checkpoint are not re-run; newly completed (non-timed-out) chunks
    are journaled as they arrive.  ``on_progress`` (when given) is called
    as ``(done_chunks, total_chunks, proc_label)`` — once up front with
    the checkpoint-replayed count, then per settled chunk.
    """
    registry = _metrics.registry()
    results: Dict[int, _ChunkResult] = {}
    pending: List[int] = []
    for chunk_id in range(len(chunks)):
        recorded = (
            checkpoint.get(checkpoint_key + (chunk_id,))
            if checkpoint is not None
            else None
        )
        if recorded is not None:
            results[chunk_id] = _ChunkResult(
                recorded.get("witness_index"),
                recorded.get("pairs_tried", 0),
                recorded.get("gadget_rejected", 0),
                recorded.get("exact_checks", 0),
                {},
                (),
                recorded.get("pair_timeouts", 0),
            )
        else:
            pending.append(chunk_id)
    if on_progress is not None:
        on_progress(len(results), len(chunks), "")

    def make_payload(index: int, attempt: int):
        chunk_id = pending[index]
        chunk_start, chunk_end = chunks[chunk_id]
        env = _worker_env(f"w{chunk_id}", attempt, scan_deadline, pair_budget)
        return (alphas, betas, chunk_start, chunk_end, chunk_id, env)

    def on_result(index: int, result: _ChunkResult) -> None:
        chunk_id = pending[index]
        results[chunk_id] = result
        registry.merge(result.metrics_delta)
        if result.spans:
            _tracing.absorb(result.spans)
        if result.samples:
            _profiler.absorb_samples(result.samples)
        if on_progress is not None:
            on_progress(len(results), len(chunks), f"w{chunk_id}")
        if checkpoint is not None and not result.timed_out:
            checkpoint.record(
                checkpoint_key + (chunk_id,),
                {
                    "witness_index": result.witness_index,
                    "pairs_tried": result.pairs_tried,
                    "gadget_rejected": result.gadget_rejected,
                    "exact_checks": result.exact_checks,
                    "pair_timeouts": result.pair_timeouts,
                },
            )

    def inline_chunk(payload) -> _ChunkResult:
        _alphas, _betas, chunk_start, chunk_end, _chunk_id, env = payload
        return _chunk_scan_core(
            _alphas, _betas, chunk_start, chunk_end, scan_deadline, env.pair_budget
        )

    map_result = ResilientMapResult([], ())
    if pending:
        map_result = resilient_map(
            _scan_pair_chunk,
            len(pending),
            make_payload,
            n_workers=min(max(n_workers, 1), len(pending)),
            policy=retry_policy,
            mp_context=mp_context,
            on_result=on_result,
            deadline=scan_deadline,
            inline_fn=inline_chunk,
        )
    done = list(results.values())
    witness_indices = [
        r.witness_index for r in done if r.witness_index is not None
    ]
    complete = map_result.complete and not any(r.timed_out for r in done)
    return (
        min(witness_indices) if witness_indices else None,
        sum(r.pairs_tried for r in done),
        sum(r.gadget_rejected for r in done),
        sum(r.exact_checks for r in done),
        sum(r.pair_timeouts for r in done),
        complete,
    )


def search_dominance(
    s1: DatabaseSchema,
    s2: DatabaseSchema,
    max_atoms: int = 2,
    per_relation_cap: Optional[int] = None,
    mapping_cap: Optional[int] = None,
    n_workers: int = 1,
    deadline: _deadline.DeadlineLike = None,
    pair_deadline: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    mp_context=None,
    checkpoint: Optional[_checkpoint.ScanCheckpoint] = None,
    checkpoint_key: Tuple[int, ...] = (),
    on_progress: Optional[Callable[[int, int, str], None]] = None,
) -> DominanceSearchResult:
    """Bounded exhaustive search for a witness of S₁ ⪯ S₂.

    All candidate α : S₁ → S₂ are filtered to the exactly-valid ones, as
    are all candidate β : S₂ → S₁; surviving pairs are gadget-refuted and
    then checked exactly.  Within the bounds the search is complete: if it
    returns no pair *and* ``result.complete``, no constant-free witness
    with ≤ ``max_atoms`` body atoms per view exists.

    A sound lemma-based pre-filter (:mod:`repro.core.obstructions`) runs
    first: when a necessary condition for dominance is already violated,
    the search returns immediately with empty statistics.

    ``n_workers > 1`` shards the α×β pair grid across a recoverable
    process pool (:func:`repro.resilience.retry.resilient_map`): a crashed
    worker's chunk is retried and ultimately run in-process, never lost.
    The returned witness is always the first one in α-major order,
    identical to the sequential scan; only the effort counters may differ
    (parallel chunks keep scanning where the sequential loop would have
    stopped).

    ``deadline`` (seconds or a shared :class:`Deadline`) bounds the whole
    search; on expiry the result reports ``complete=False`` instead of
    raising.  ``pair_deadline`` bounds each exact pair check; timed-out
    pairs are counted in ``stats.pair_timeouts`` and left undecided.
    ``checkpoint`` (with ``checkpoint_key`` as a namespacing prefix)
    journals completed chunks for resume.

    ``on_progress`` (when given) receives ``(done, total, proc_label)``
    updates — per chunk on the chunked path, per pair on the sequential
    one — sized for :class:`repro.obs.progress.ProgressReporter.update`.
    """
    from repro.core.obstructions import dominance_obstructions

    registry = _metrics.registry()
    start_time = time.perf_counter()
    counters_before = registry.snapshot()
    scan_dl = _deadline.as_deadline(deadline, label="search")
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
            if dominance_obstructions(s1, s2):
                registry.counter("search.obstructed").inc()
                return DominanceSearchResult(
                    None,
                    SearchStats(
                        0, 0, 0, 0, 0,
                        wall_time=time.perf_counter() - start_time,
                    ),
                )
            with _span("search.enumerate"):
                for m in enumerate_mappings(
                    s1, s2, max_atoms=max_atoms,
                    per_relation_cap=per_relation_cap, total_cap=mapping_cap,
                ):
                    _deadline.poll()
                    if is_valid(m):
                        alphas.append(m)
                for m in enumerate_mappings(
                    s2, s1, max_atoms=max_atoms,
                    per_relation_cap=per_relation_cap, total_cap=mapping_cap,
                ):
                    _deadline.poll()
                    if is_valid(m):
                        betas.append(m)
            total_pairs = len(alphas) * len(betas)
            chunks = _chunk_ranges(total_pairs, max(n_workers, 1))
            use_chunks = total_pairs > 0 and (
                (n_workers > 1 and len(chunks) > 1) or checkpoint is not None
            )
            if use_chunks:
                (
                    witness_flat,
                    pairs_tried,
                    gadget_rejected,
                    exact_checks,
                    pair_timeouts,
                    complete,
                ) = _run_chunked_scan(
                    alphas, betas, chunks, n_workers, scan_dl, pair_deadline,
                    retry_policy, mp_context, checkpoint, checkpoint_key,
                    on_progress,
                )
            elif total_pairs > 0:
                refuter = GridRefuter(alphas, betas)
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
                        if on_progress is not None:
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


def _chunk_ranges(total: int, n_workers: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ≤ ``n_workers`` contiguous non-empty slices.

    ``total == 0`` yields no chunks at all (rather than a single empty
    one), so callers never size a pool off an empty grid; ``n_workers >
    total`` caps the chunk count at ``total`` so every chunk is non-empty.
    """
    if total <= 0:
        return []
    n_chunks = max(1, min(n_workers, total))
    base, remainder = divmod(total, n_chunks)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < remainder else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class EquivalenceSearchResult(NamedTuple):
    """Outcome of :func:`search_equivalence`."""

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
        if self.backward is not None:
            total += self.backward.stats.pair_timeouts
        return total


def search_equivalence(
    s1: DatabaseSchema,
    s2: DatabaseSchema,
    max_atoms: int = 2,
    per_relation_cap: Optional[int] = None,
    mapping_cap: Optional[int] = None,
    n_workers: int = 1,
    deadline: _deadline.DeadlineLike = None,
    pair_deadline: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    mp_context=None,
    checkpoint: Optional[_checkpoint.ScanCheckpoint] = None,
) -> EquivalenceSearchResult:
    """Bounded search for equivalence witnesses in both directions.

    The backward search only runs when the forward one succeeds.  Both
    directions share one ``deadline`` budget; with a ``checkpoint`` the
    directions journal under distinct key prefixes (0 forward, 1
    backward).
    """
    shared_dl = _deadline.as_deadline(deadline, label="search")
    forward = search_dominance(
        s1, s2, max_atoms=max_atoms,
        per_relation_cap=per_relation_cap, mapping_cap=mapping_cap,
        n_workers=n_workers, deadline=shared_dl, pair_deadline=pair_deadline,
        retry_policy=retry_policy, mp_context=mp_context,
        checkpoint=checkpoint, checkpoint_key=(0,),
    )
    if not forward.found:
        return EquivalenceSearchResult(forward, None)
    backward = search_dominance(
        s2, s1, max_atoms=max_atoms,
        per_relation_cap=per_relation_cap, mapping_cap=mapping_cap,
        n_workers=n_workers, deadline=shared_dl, pair_deadline=pair_deadline,
        retry_policy=retry_policy, mp_context=mp_context,
        checkpoint=checkpoint, checkpoint_key=(1,),
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


class _CellResult(NamedTuple):
    """One worker's matrix/scan cell plus its observability payload."""

    i: int
    j: int
    isomorphic: bool
    found: bool
    metrics_delta: Dict[str, float]
    spans: Tuple[SpanRecord, ...] = ()
    verdict: str = "ok"
    samples: Optional[Dict[str, int]] = None


def _absorb_cell_obs(results: Sequence[_CellResult]) -> None:
    """Merge worker cell deltas, spans and samples into the parent's state."""
    registry = _metrics.registry()
    for result in results:
        registry.merge(result.metrics_delta)
        if result.spans:
            _tracing.absorb(result.spans)
        if result.samples:
            _profiler.absorb_samples(result.samples)


def _equiv_cell_core(
    s1: DatabaseSchema,
    s2: DatabaseSchema,
    max_atoms: int,
    per_relation_cap: Optional[int],
    mapping_cap: Optional[int],
    cell_deadline: Optional[Deadline],
    pair_budget: Optional[float],
) -> Tuple[bool, bool, str]:
    """One Theorem 13 cell: (isomorphic, equivalence_found, verdict)."""
    result = search_equivalence(
        s1, s2, max_atoms=max_atoms,
        per_relation_cap=per_relation_cap, mapping_cap=mapping_cap,
        deadline=cell_deadline, pair_deadline=pair_budget,
    )
    isomorphic = is_isomorphic(s1, s2)
    if not result.complete:
        verdict = "timeout"
    elif result.pair_timeouts and not result.found:
        verdict = "unknown"
    else:
        verdict = "ok"
    return isomorphic, result.found, verdict


def theorem13_cell(
    s1: DatabaseSchema,
    s2: DatabaseSchema,
    max_atoms: int = 2,
    per_relation_cap: Optional[int] = None,
    mapping_cap: Optional[int] = None,
    deadline: _deadline.DeadlineLike = None,
    pair_deadline: Optional[float] = None,
) -> Tuple[bool, bool, str]:
    """One Theorem 13 cell, standalone: ``(isomorphic, found, verdict)``.

    Exactly the computation :func:`theorem13_scan` performs per unordered
    pair, exposed for callers that schedule cells themselves (the scan
    fabric's shard workers, the symmetry-soundness property tests).
    """
    return _equiv_cell_core(
        s1, s2, max_atoms, per_relation_cap, mapping_cap,
        _deadline.as_deadline(deadline, label="cell"), pair_deadline,
    )


def _dominance_cell(payload) -> _CellResult:
    """Worker: one (i, j) cell of the dominance matrix."""
    i, j, s1, s2, max_atoms, per_relation_cap, mapping_cap, env = payload
    before = _worker_obs_begin(env)
    _faults.fire("scan.cell", key=f"{i},{j}", attempt=env.attempt)
    found = search_dominance(
        s1, s2, max_atoms=max_atoms,
        per_relation_cap=per_relation_cap, mapping_cap=mapping_cap,
    ).found
    delta, spans, samples = _worker_obs_end(before, env.trace_on)
    return _CellResult(i, j, False, found, delta, spans, samples=samples)


def dominance_matrix(
    schemas: Sequence[DatabaseSchema],
    max_atoms: int = 2,
    per_relation_cap: Optional[int] = None,
    mapping_cap: Optional[int] = None,
    n_workers: int = 1,
    retry_policy: Optional[RetryPolicy] = None,
    mp_context=None,
) -> List[List[bool]]:
    """The dominance preorder over a schema universe, by bounded search.

    ``matrix[i][j]`` records whether a witness of ``schemas[i] ⪯
    schemas[j]`` was found within the bounds.  Unlike equivalence (which
    Theorem 13 collapses to isomorphism), dominance is a genuine preorder:
    schemas embed into strictly larger ones but not conversely, so the
    matrix is reflexive and transitive but not symmetric.  The tests check
    exactly those properties, plus consistency with the isomorphism
    diagonal.

    ``n_workers > 1`` distributes cells across a recoverable process pool;
    each cell is an independent search, so the matrix is identical either
    way — including after worker crashes, which are retried and finally
    run in-process.
    """
    n = len(schemas)
    matrix: List[List[bool]] = [[False] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    if n_workers > 1 and len(cells) > 1:
        registry = _metrics.registry()

        def make_payload(index: int, attempt: int):
            i, j = cells[index]
            env = _worker_env(f"w{i}_{j}", attempt)
            return (i, j, schemas[i], schemas[j],
                    max_atoms, per_relation_cap, mapping_cap, env)

        def on_result(index: int, result: _CellResult) -> None:
            registry.merge(result.metrics_delta)
            if result.spans:
                _tracing.absorb(result.spans)
            if result.samples:
                _profiler.absorb_samples(result.samples)
            matrix[result.i][result.j] = result.found

        def inline_cell(payload) -> _CellResult:
            i, j, s1, s2, atoms, prc, mc, _env = payload
            found = search_dominance(
                s1, s2, max_atoms=atoms,
                per_relation_cap=prc, mapping_cap=mc,
            ).found
            return _CellResult(i, j, False, found, {}, ())

        resilient_map(
            _dominance_cell,
            len(cells),
            make_payload,
            n_workers=min(n_workers, len(cells)),
            policy=retry_policy,
            mp_context=mp_context,
            on_result=on_result,
            inline_fn=inline_cell,
        )
    else:
        for i, j in cells:
            matrix[i][j] = search_dominance(
                schemas[i],
                schemas[j],
                max_atoms=max_atoms,
                per_relation_cap=per_relation_cap,
                mapping_cap=mapping_cap,
            ).found
    return matrix


def _scan_cell(payload) -> _CellResult:
    """Worker: one unordered pair of a Theorem 13 scan."""
    i, j, s1, s2, max_atoms, per_relation_cap, mapping_cap, env = payload
    before = _worker_obs_begin(env)
    _faults.fire("scan.cell", key=f"{i},{j}", attempt=env.attempt)
    cell_dl = None if env.budget is None else Deadline(env.budget, label="cell")
    isomorphic, found, verdict = _equiv_cell_core(
        s1, s2, max_atoms, per_relation_cap, mapping_cap, cell_dl, env.pair_budget
    )
    delta, spans, samples = _worker_obs_end(before, env.trace_on)
    return _CellResult(i, j, isomorphic, found, delta, spans, verdict, samples)


def scan_fingerprint(
    kind: str,
    schemas: Sequence[DatabaseSchema],
    max_atoms: int,
    per_relation_cap: Optional[int],
    mapping_cap: Optional[int],
    **extra,
) -> dict:
    """The checkpoint fingerprint of one scan configuration.

    Everything that changes which units exist or what their outcomes mean
    belongs here; knobs that only change *how* units execute (deadlines,
    retry policy, worker count for independent cells) do not.
    """
    fingerprint = {
        "kind": kind,
        "schemas": [repr(s) for s in schemas],
        "max_atoms": max_atoms,
        "per_relation_cap": per_relation_cap,
        "mapping_cap": mapping_cap,
    }
    fingerprint.update(extra)
    return fingerprint


def theorem13_scan(
    schemas: Sequence[DatabaseSchema],
    max_atoms: int = 2,
    per_relation_cap: Optional[int] = None,
    mapping_cap: Optional[int] = None,
    n_workers: int = 1,
    deadline: _deadline.DeadlineLike = None,
    pair_deadline: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    mp_context=None,
    checkpoint: Optional[_checkpoint.ScanCheckpoint] = None,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    cells: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[ScanRow]:
    """Scan all unordered pairs of ``schemas`` for Theorem 13's prediction.

    For each pair, run the bounded equivalence search and compare against
    the isomorphism test.  Every row should satisfy
    ``consistent_with_theorem13``.

    ``cells`` restricts the scan to an explicit subset of unordered pairs
    (each ``(i, j)`` with ``i <= j``), in the given order — this is the
    shard-aware entry the scan fabric uses: a fabric worker passes one
    shard's cells plus that shard's journal as ``checkpoint``, and the
    returned rows cover exactly those cells.  Without ``cells`` the full
    grid is scanned in ``(i, j)``-sorted order as before.

    ``n_workers > 1`` distributes pairs across a recoverable process pool.
    Rows come back in the same (i, j)-sorted order with the same verdicts
    as the sequential scan — each pair's search is self-contained, and a
    crashed worker's cell is retried (finally in-process) rather than
    lost.  An expired ``deadline`` stops the scan; unfinished cells get
    explicit ``verdict="timeout"`` rows instead of silently vanishing.
    With a ``checkpoint``, decided (``"ok"``) cells are journaled and
    skipped on resume, so verdicts match the uninterrupted scan's.
    """
    registry = _metrics.registry()
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
    rows_by_key: Dict[Tuple[int, int], ScanRow] = {}
    pending: List[Tuple[int, int]] = []
    for key in keys:
        recorded = checkpoint.get(key) if checkpoint is not None else None
        if recorded is not None:
            rows_by_key[key] = ScanRow(
                key[0], key[1],
                recorded["isomorphic"], recorded["found"],
                recorded.get("verdict", "ok"),
            )
        else:
            pending.append(key)

    def settle(
        key: Tuple[int, int],
        isomorphic: bool,
        found: bool,
        verdict: str,
        proc: str = "",
    ) -> None:
        rows_by_key[key] = ScanRow(key[0], key[1], isomorphic, found, verdict)
        if checkpoint is not None and verdict == "ok":
            checkpoint.record(
                key, {"isomorphic": isomorphic, "found": found, "verdict": verdict}
            )
        if on_progress is not None:
            on_progress(len(rows_by_key), len(keys), proc)

    if on_progress is not None:
        # The first report carries the checkpoint-replayed count so a
        # progress sink can separate resumed cells from fresh throughput.
        on_progress(len(rows_by_key), len(keys), "")

    with _span("theorem13.scan"):
        if n_workers > 1 and len(pending) > 1:
            def make_payload(index: int, attempt: int):
                i, j = pending[index]
                env = _worker_env(f"w{i}_{j}", attempt, scan_dl, pair_deadline)
                return (i, j, schemas[i], schemas[j],
                        max_atoms, per_relation_cap, mapping_cap, env)

            def on_result(index: int, result: _CellResult) -> None:
                registry.merge(result.metrics_delta)
                if result.spans:
                    _tracing.absorb(result.spans)
                if result.samples:
                    _profiler.absorb_samples(result.samples)
                settle((result.i, result.j), result.isomorphic,
                       result.found, result.verdict,
                       proc=f"w{result.i}_{result.j}")
                # Parent-side hook: lets the fault-injection tests raise a
                # KeyboardInterrupt between completed cells.
                _faults.fire("scan.cell.done", key=f"{result.i},{result.j}")

            def inline_cell(payload) -> _CellResult:
                i, j, s1, s2, atoms, prc, mc, env = payload
                cell_dl = (
                    None if env.budget is None
                    else Deadline(env.budget, label="cell")
                )
                isomorphic, found, verdict = _equiv_cell_core(
                    s1, s2, atoms, prc, mc, cell_dl, env.pair_budget
                )
                return _CellResult(i, j, isomorphic, found, {}, (), verdict)

            resilient_map(
                _scan_cell,
                len(pending),
                make_payload,
                n_workers=min(n_workers, len(pending)),
                policy=retry_policy,
                mp_context=mp_context,
                on_result=on_result,
                deadline=scan_dl,
                inline_fn=inline_cell,
            )
        else:
            for key in pending:
                if scan_dl is not None and scan_dl.expired():
                    break  # remaining cells become explicit timeout rows
                i, j = key
                isomorphic, found, verdict = _equiv_cell_core(
                    schemas[i], schemas[j],
                    max_atoms, per_relation_cap, mapping_cap,
                    scan_dl, pair_deadline,
                )
                settle(key, isomorphic, found, verdict)
        for key in keys:
            if key not in rows_by_key:
                _events.record_incident(
                    _events.timeout_event("scan", i=key[0], j=key[1])
                )
                rows_by_key[key] = ScanRow(key[0], key[1], False, False, "timeout")
    return [rows_by_key[key] for key in keys]
