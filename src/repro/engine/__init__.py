"""Reusable equivalence engine.

The :class:`Engine` packages what used to be CLI plumbing — bounds,
deadlines, the request thread pool and a fingerprint-keyed result
cache — into one configurable object that the CLI, the service
(:mod:`repro.service`), tests and notebooks can all drive.  See
:mod:`repro.engine.core`.
"""

from repro.engine.cache import ResultCache, fingerprint_key
from repro.engine.core import Engine, EngineConfig
from repro.engine.report import (
    candidates_line,
    inconclusive_line,
    no_witness_line,
    search_report_lines,
    search_verdict,
    witness_lines,
)

__all__ = [
    "Engine",
    "EngineConfig",
    "ResultCache",
    "fingerprint_key",
    "candidates_line",
    "inconclusive_line",
    "no_witness_line",
    "search_report_lines",
    "search_verdict",
    "witness_lines",
]
