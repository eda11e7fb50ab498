"""Hull's theorem for unkeyed schemas, as an explicit API.

The paper's Theorem 13 stands on Hull's 1986 result, quoted in §2:

    If L is the relational algebra and S₁, S₂ are schemas with **no
    dependencies**, then S₁ ≡ S₂ iff S₁ and S₂ are identical up to
    renaming and re-ordering of attributes and relations.

Since conjunctive queries are a sub-language of the relational algebra and
renaming mappings are conjunctive, the same characterisation holds for
conjunctive-query equivalence of unkeyed schemas, and that is the form the
Theorem 13 proof invokes on the κ images.  This module exposes the unkeyed
case directly — decision, certificate, and a bounded-search validator
mirroring experiment E1 (query mappings between unkeyed schemas are always
valid, so the search needs no validity filtering).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.search import DominanceSearchResult, SearchStats, enumerate_mappings
from repro.errors import SchemaError
from repro.mappings.builders import isomorphism_pair
from repro.mappings.dominance import DominancePair
from repro.mappings.identity import composes_to_identity
from repro.relational.isomorphism import (
    SchemaIsomorphism,
    find_isomorphism,
    is_isomorphic,
)
from repro.relational.schema import DatabaseSchema


def _require_unkeyed(schema: DatabaseSchema, label: str) -> None:
    if not schema.is_unkeyed:
        raise SchemaError(
            f"{label} declares keys; Hull's theorem concerns schemas with "
            "no dependencies (use decide_equivalence for keyed schemas)"
        )


def hull_equivalent(s1: DatabaseSchema, s2: DatabaseSchema) -> bool:
    """Decide CQ-equivalence of unkeyed schemas (Hull 1986)."""
    _require_unkeyed(s1, "schema 1")
    _require_unkeyed(s2, "schema 2")
    return is_isomorphic(s1, s2)


def hull_witness(
    s1: DatabaseSchema, s2: DatabaseSchema
) -> Optional[SchemaIsomorphism]:
    """The renaming witness for equivalent unkeyed schemas, or ``None``."""
    _require_unkeyed(s1, "schema 1")
    _require_unkeyed(s2, "schema 2")
    return find_isomorphism(s1, s2)


def hull_dominance_pair(
    s1: DatabaseSchema, s2: DatabaseSchema
) -> Optional[DominancePair]:
    """A verified (α, β) pair for equivalent unkeyed schemas, or ``None``."""
    witness = hull_witness(s1, s2)
    if witness is None:
        return None
    alpha, beta = isomorphism_pair(witness)
    return DominancePair(alpha, beta)


def search_unkeyed_dominance(
    s1: DatabaseSchema,
    s2: DatabaseSchema,
    max_atoms: int = 2,
) -> DominanceSearchResult:
    """Bounded exhaustive dominance search for unkeyed schemas.

    Unkeyed mappings are always valid (paper §2), so the search reduces to
    the β∘α = id check — here plain CQ equivalence, no chase needed.
    """
    _require_unkeyed(s1, "schema 1")
    _require_unkeyed(s2, "schema 2")
    alphas = list(enumerate_mappings(s1, s2, max_atoms=max_atoms))
    betas = list(enumerate_mappings(s2, s1, max_atoms=max_atoms))
    pairs_tried = 0
    exact_checks = 0
    for alpha in alphas:
        for beta in betas:
            pairs_tried += 1
            exact_checks += 1
            if composes_to_identity(alpha, beta):
                return DominanceSearchResult(
                    DominancePair(alpha, beta),
                    SearchStats(len(alphas), len(betas), pairs_tried, 0, exact_checks),
                )
    return DominanceSearchResult(
        None, SearchStats(len(alphas), len(betas), pairs_tried, 0, exact_checks)
    )
