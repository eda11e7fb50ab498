"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Sub-hierarchies mirror the package layout:
schema-level problems, query syntax/typing problems, evaluation problems, and
mapping-level problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relation or database schema is malformed.

    Examples: duplicate attribute names in a relation, a declared key that is
    not a subset of the relation's attributes, duplicate relation names in a
    database schema.
    """


class TypeMismatchError(SchemaError):
    """A value, variable, or attribute was used at an incompatible type."""


class InstanceError(ReproError):
    """A database instance is inconsistent with its schema."""


class DependencyError(ReproError):
    """A dependency (FD, key, inclusion) is malformed for its schema."""


class QuerySyntaxError(ReproError):
    """A conjunctive query is syntactically malformed.

    Raised both by the text parser and by the programmatic constructors when
    the paper's syntactic restrictions are violated (e.g. a non-variable in a
    body position, or an equality over a variable that never occurs in the
    body).
    """


class TypecheckError(ReproError):
    """A conjunctive query does not typecheck against its schema."""


class EvaluationError(ReproError):
    """A query could not be evaluated over a given database instance."""


class ChaseError(ReproError):
    """The chase could not be run (e.g. non-terminating TGD set)."""


class ChaseFailure(ReproError):
    """The chase failed: two distinct constants were equated by an EGD.

    A failing chase means the query (or instance) is inconsistent with the
    dependencies; callers usually treat this as "trivially contained".
    """


class MappingError(ReproError):
    """A query mapping is malformed (wrong types, missing views, ...)."""


class SearchBudgetExceeded(ReproError):
    """An exhaustive search exceeded its configured budget."""


class DeadlineExceeded(ReproError):
    """A cooperative deadline expired (:mod:`repro.resilience.deadline`).

    ``deadline`` identifies the expired :class:`~repro.resilience.deadline.Deadline`
    so nested handlers can tell *whose* budget ran out and re-raise foreign
    expirations instead of swallowing them.
    """

    def __init__(self, deadline=None, message: str = "") -> None:
        self.deadline = deadline
        if not message:
            label = getattr(deadline, "label", "deadline")
            budget = getattr(deadline, "budget", None)
            message = (
                f"{label} exceeded"
                if budget is None
                else f"{label} exceeded after {budget:g}s"
            )
        super().__init__(message)


class CheckpointError(ReproError):
    """A scan journal is unusable (corrupt, or from another scan)."""


class FabricError(ReproError):
    """A scan-fabric directory is unusable (:mod:`repro.scanfabric`).

    Examples: a plan built from a different scan configuration, shard
    journals recording conflicting verdicts for the same cell, or a merge
    attempted while shards are still incomplete.
    """


class LeaseExpired(ReproError):
    """A fabric shard lease expired or was reclaimed by another worker.

    Raised inside a fabric worker when a heartbeat discovers the lease
    record no longer names it (the shard was stolen), or by the
    ``lease_expire`` fault action to simulate exactly that.  The worker
    abandons the shard mid-scan; its journal segment keeps every cell it
    completed, and the next owner resumes from there.
    """


class InjectedFault(ReproError):
    """A deterministic test fault fired (:mod:`repro.resilience.faults`)."""
