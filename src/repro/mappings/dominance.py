"""Schema dominance: S₁ ⪯ S₂ by (α, β) (paper §2).

``S₁ ⪯ S₂`` holds when there are *valid* query mappings α : i(S₁) → i(S₂)
and β : i(S₂) → i(S₁) with β∘α the identity on i(S₁).  This module bundles
the two exact sub-checks (validity of both mappings, β∘α = id relative to
the key dependencies) into a verifiable :class:`DominancePair`, the object
the paper's lemmas quantify over and the unit experiment E1 enumerates.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.errors import MappingError
from repro.mappings.identity import (
    composes_to_identity,
    find_identity_counterexample,
)
from repro.mappings.query_mapping import QueryMapping
from repro.mappings.validity import is_valid, validity_report
from repro.obs.tracing import span as _span
from repro.relational.instance import DatabaseInstance


class DominanceVerdict(NamedTuple):
    """Outcome of verifying a candidate dominance pair."""

    holds: bool
    alpha_valid: bool
    beta_valid: bool
    round_trip_identity: bool

    def reason(self) -> str:
        """One-line explanation of a failed verification."""
        if self.holds:
            return "dominance verified"
        problems = []
        if not self.alpha_valid:
            problems.append("α is not a valid mapping (breaks target keys)")
        if not self.beta_valid:
            problems.append("β is not a valid mapping (breaks source keys)")
        if not self.round_trip_identity:
            problems.append("β∘α is not the identity on key-satisfying instances")
        return "; ".join(problems)


class DominancePair:
    """A candidate witness (α, β) for S₁ ⪯ S₂."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: QueryMapping, beta: QueryMapping) -> None:
        if alpha.target != beta.source or alpha.source != beta.target:
            raise MappingError(
                "a dominance pair needs α : S₁ → S₂ and β : S₂ → S₁"
            )
        self.alpha = alpha
        self.beta = beta

    @property
    def dominated(self):
        """S₁ (the schema that must be recoverable)."""
        return self.alpha.source

    @property
    def dominating(self):
        """S₂ (the schema that encodes S₁)."""
        return self.alpha.target

    def verify(self) -> DominanceVerdict:
        """Run all three exact checks."""
        with _span("dominance.verify"):
            alpha_ok = is_valid(self.alpha)
            beta_ok = is_valid(self.beta)
            round_trip_ok = composes_to_identity(self.alpha, self.beta)
            return DominanceVerdict(
                alpha_ok and beta_ok and round_trip_ok,
                alpha_ok,
                beta_ok,
                round_trip_ok,
            )

    def holds(self) -> bool:
        """True iff the pair witnesses S₁ ⪯ S₂."""
        return self.verify().holds

    def falsify(
        self, trials: int = 32, seed: int = 0
    ) -> Optional[DatabaseInstance]:
        """Randomized search for an instance breaking the round trip."""
        return find_identity_counterexample(
            self.alpha, self.beta, trials=trials, seed=seed
        )

    def round_trip(self, instance: DatabaseInstance) -> DatabaseInstance:
        """β(α(d)) for a concrete instance d."""
        return self.beta.apply(self.alpha.apply(instance))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DominancePair({', '.join(self.dominated.relation_names)} ⪯ "
            f"{', '.join(self.dominating.relation_names)})"
        )


def verify_dominance(alpha: QueryMapping, beta: QueryMapping) -> DominanceVerdict:
    """Convenience wrapper: verify (α, β) as a dominance witness."""
    return DominancePair(alpha, beta).verify()
