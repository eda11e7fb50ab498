"""The reusable equivalence engine: one configured facade over the search.

The :class:`Engine` packages budgets, bounds and the request pool size
into one object.  Its settings travel as arguments, never as process globals, so
engines with different settings can share a process:

* construct with an :class:`EngineConfig`;
* the low-level methods (:meth:`search_dominance`,
  :meth:`theorem13_scan`, ...) are passthroughs with config defaults —
  the CLI drives these so its output stays byte-identical;
* the request-level methods (:meth:`equivalence_request`,
  :meth:`dominance_request`, :meth:`mapping_request`) are what the
  service serves: they consult the fingerprint-keyed
  :class:`~repro.engine.cache.ResultCache` first, and produce
  deterministic JSON-serializable payloads whose ``lines`` are
  byte-identical to the CLI's verdict lines
  (:mod:`repro.engine.report`);
* :meth:`close` persists the result cache and shuts down the request
  executor.

Payload caching is *conclusive-only*: a verdict of ``timeout`` or
``unknown`` reflects the budget it ran under, not the question, and is
never stored.  The cache-hit path does no scan work at all — the second
identical question is answered from the stored payload object.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

from repro.core.equivalence import decide_equivalence as _decide_equivalence
from repro.core.search import (
    DominanceSearchResult,
    EquivalenceSearchResult,
    scan_fingerprint,
    search_dominance as _search_dominance,
    search_equivalence as _search_equivalence,
    theorem13_scan as _theorem13_scan,
)
from repro.engine.cache import ResultCache, fingerprint_key
from repro.engine import report as _report
from repro.mappings.serialization import parse_mapping
from repro.mappings.validity import validity_report
from repro.obs import metrics as _metrics
from repro.relational.schema import DatabaseSchema

_UNSET = object()


class EngineConfig(NamedTuple):
    """Everything an :class:`Engine` needs to know, in one immutable value.

    ``deadline``/``pair_deadline`` are *default* budgets that
    request-level calls may tighten per request but never exceed;
    ``request_workers`` sizes the thread pool the service runs requests
    on; ``result_cache_path=None`` keeps the result cache in memory only.
    """

    deadline: Optional[float] = None
    pair_deadline: Optional[float] = None
    max_atoms: int = 2
    request_workers: int = 4
    result_cache_path: Optional[str] = None
    result_cache_entries: int = 1024


class Engine:
    """A configured facade over the decision machinery."""

    def __init__(self, config: EngineConfig = EngineConfig()) -> None:
        self.config = config
        self.result_cache = ResultCache(
            path=config.result_cache_path,
            maxsize=config.result_cache_entries,
        )
        self._executor: Optional[ThreadPoolExecutor] = None

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Persist the result cache and stop the request executor."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.result_cache.save()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The request worker pool (created on first use)."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, self.config.request_workers),
                thread_name_prefix="repro-engine",
            )
        return self._executor

    @property
    def metrics(self):
        """The process-wide metrics registry this engine reports into."""
        return _metrics.registry()

    # ------------------------------------------------- low-level passthroughs

    def decide_equivalence(self, s1: DatabaseSchema, s2: DatabaseSchema):
        """Theorem 13's polynomial-time equivalence decision."""
        return _decide_equivalence(s1, s2)

    def search_dominance(
        self,
        s1: DatabaseSchema,
        s2: DatabaseSchema,
        max_atoms: Optional[int] = None,
        deadline: Any = _UNSET,
        pair_deadline: Any = _UNSET,
        on_progress: Optional[Callable] = None,
    ) -> DominanceSearchResult:
        """Bounded exhaustive dominance search with config defaults."""
        return _search_dominance(
            s1,
            s2,
            max_atoms=self._max_atoms(max_atoms),
            deadline=self.config.deadline if deadline is _UNSET else deadline,
            pair_deadline=(
                self.config.pair_deadline
                if pair_deadline is _UNSET
                else pair_deadline
            ),
            on_progress=on_progress,
        )

    def search_equivalence(
        self,
        s1: DatabaseSchema,
        s2: DatabaseSchema,
        max_atoms: Optional[int] = None,
        deadline: Any = _UNSET,
        pair_deadline: Any = _UNSET,
    ) -> EquivalenceSearchResult:
        """Bounded equivalence-witness search (both directions)."""
        return _search_equivalence(
            s1,
            s2,
            max_atoms=self._max_atoms(max_atoms),
            deadline=self.config.deadline if deadline is _UNSET else deadline,
            pair_deadline=(
                self.config.pair_deadline
                if pair_deadline is _UNSET
                else pair_deadline
            ),
        )

    def theorem13_scan(
        self,
        schemas: Sequence[DatabaseSchema],
        max_atoms: Optional[int] = None,
        deadline: Any = _UNSET,
        pair_deadline: Any = _UNSET,
        on_progress: Optional[Callable] = None,
    ):
        """Whole-universe Theorem 13 scan with config defaults."""
        return _theorem13_scan(
            schemas,
            max_atoms=self._max_atoms(max_atoms),
            deadline=self.config.deadline if deadline is _UNSET else deadline,
            pair_deadline=(
                self.config.pair_deadline
                if pair_deadline is _UNSET
                else pair_deadline
            ),
            on_progress=on_progress,
        )

    def _max_atoms(self, max_atoms: Optional[int]) -> int:
        return self.config.max_atoms if max_atoms is None else max_atoms

    # --------------------------------------------------- request-level (cached)

    def equivalence_request(
        self, s1: DatabaseSchema, s2: DatabaseSchema
    ) -> dict:
        """Theorem 13 equivalence as a deterministic, cacheable payload."""
        key = fingerprint_key(scan_fingerprint("equiv", [s1, s2], 0))
        cached = self.result_cache.get(key)
        if cached is not None:
            return cached
        decision = self.decide_equivalence(s1, s2)
        payload = {
            "kind": "equivalence",
            "verdict": "ok",
            "equivalent": decision.equivalent,
            "lines": decision.explain().splitlines(),
            "fingerprint": key,
        }
        self.result_cache.put(key, payload)
        return payload

    def dominance_request(
        self,
        s1: DatabaseSchema,
        s2: DatabaseSchema,
        max_atoms: Optional[int] = None,
        deadline: Any = _UNSET,
        pair_deadline: Any = _UNSET,
        on_progress: Optional[Callable] = None,
    ) -> dict:
        """Bounded dominance search as a payload; conclusive answers cached.

        The payload's ``lines`` are byte-identical to the deterministic
        lines the CLI ``search`` command prints (candidate census, then
        witness block / no-witness conclusion); the nondeterministic
        ``perf:`` line is deliberately absent.  ``timeout``/``unknown``
        verdicts are returned but never stored.
        """
        atoms = self._max_atoms(max_atoms)
        key = fingerprint_key(scan_fingerprint("search", [s1, s2], atoms))
        cached = self.result_cache.get(key)
        if cached is not None:
            return cached
        result = self.search_dominance(
            s1,
            s2,
            max_atoms=atoms,
            deadline=deadline,
            pair_deadline=pair_deadline,
            on_progress=on_progress,
        )
        verdict = _report.search_verdict(result)
        witness = None
        if result.found:
            from repro.cq.parser import format_query

            witness = {
                "alpha": [format_query(v.query) for v in result.pair.alpha],
                "beta": [format_query(v.query) for v in result.pair.beta],
            }
        stats = result.stats
        payload = {
            "kind": "dominance",
            "verdict": verdict,
            "found": result.found,
            "max_atoms": atoms,
            "lines": _report.search_report_lines(result, atoms),
            "witness": witness,
            "stats": {
                "alpha_candidates": stats.alpha_candidates,
                "beta_candidates": stats.beta_candidates,
                "pairs_tried": stats.pairs_tried,
                "pairs_gadget_rejected": stats.pairs_gadget_rejected,
                "exact_checks": stats.exact_checks,
                "pair_timeouts": stats.pair_timeouts,
            },
            "fingerprint": key,
        }
        if verdict == "ok":
            self.result_cache.put(key, payload)
        return payload

    def mapping_request(
        self,
        source: DatabaseSchema,
        target: DatabaseSchema,
        mapping_text: str,
    ) -> dict:
        """Exact mapping-validity check as a deterministic payload.

        Raises :class:`MappingError` (→ a 400 at the service layer) when
        the mapping text does not parse against the schemas.
        """
        key = fingerprint_key(
            scan_fingerprint(
                "mapping-check", [source, target], 0, mapping=mapping_text
            )
        )
        cached = self.result_cache.get(key)
        if cached is not None:
            return cached
        mapping = parse_mapping(mapping_text, source, target)
        report = validity_report(mapping)
        lines: List[str] = [f"mapping valid: {report.valid}"]
        for name in sorted(report.per_relation):
            verdict = report.per_relation[name]
            lines.append(
                f"  {name}: {'key holds' if verdict.holds else 'key VIOLATED'}"
            )
        payload = {
            "kind": "mapping-check",
            "verdict": "ok",
            "valid": report.valid,
            "per_relation": {
                name: verdict.holds
                for name, verdict in sorted(report.per_relation.items())
            },
            "lines": lines,
            "fingerprint": key,
        }
        self.result_cache.put(key, payload)
        return payload


__all__ = ["Engine", "EngineConfig"]
