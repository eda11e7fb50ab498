"""Resilience layer: deadlines and fault injection.

Long exhaustive scans (Theorem 13 verification, dominance sweeps) are
first-class long-running jobs: a hung chase must degrade the run into an
explicit verdict, not hang it.  Two small modules provide that guarantee
(see ``docs/RESILIENCE.md``):

* :mod:`repro.resilience.deadline` — cooperative wall-clock budgets with
  nested scopes and a hot-loop :func:`poll` cancellation point;
* :mod:`repro.resilience.faults` — deterministic, seeded fault injection
  (kill/raise/delay/interrupt) used by ``tests/resilience``.

Crash recovery and resume belong to the scan fabric
(:mod:`repro.scanfabric`): its durable per-shard journals and lease
takeovers are the one way to survive a killed worker or to continue an
interrupted scan.

Like :mod:`repro.obs`, this package sits below the cq/core layers and
imports nothing from them, so any module may use it without cycles.
"""

from repro.resilience.deadline import (
    Deadline,
    active_deadlines,
    as_deadline,
    deadline_scope,
    poll,
)
from repro.resilience.faults import FaultPlan, FaultRule, fire, install, rule

__all__ = [
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "active_deadlines",
    "as_deadline",
    "deadline_scope",
    "fire",
    "install",
    "poll",
    "rule",
]
