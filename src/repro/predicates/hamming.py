"""Hamming / symmetric-difference predicate (framework extension).

``|r Δ s| <= k`` — the set-Hamming distance used by later
set-similarity-join work — rewrites to an overlap condition::

    |r ∩ s| >= (|r| + |s| - k) / 2   =: T(r, s)

which is non-decreasing in both set sizes, exactly what the §5
framework requires. The band filter is ``||r| - |s|| <= k`` (a size gap
already costs that much symmetric difference).

Exactness domain: like the edit-distance bound, the rewrite is vacuous
when ``T(r, s) <= 0`` — disjoint pairs with ``|r| + |s| <= k`` qualify
but share no words for an index join to find. Use
:func:`repro.core.join.hamming_join` for a wrapper that brute-force
covers that corner; the bare predicate is exact whenever every record
has more than ``k`` elements.
"""

from __future__ import annotations

from repro.core.records import Dataset
from repro.predicates.base import BoundPredicate, SimilarityPredicate

__all__ = ["HammingPredicate"]


class _BoundHamming(BoundPredicate):
    unit_scores = True

    def __init__(self, dataset: Dataset, k: int):
        super().__init__(dataset)
        self.k = k

    def score_vector(self, rid: int) -> tuple[float, ...]:
        return (1.0,) * len(self.dataset[rid])

    def threshold(self, norm_r: float, norm_s: float) -> float:
        return (norm_r + norm_s - self.k) / 2.0

    def similarity_name(self) -> str:
        return "hamming"

    def natural_similarity(self, rid_r: int, rid_s: int, weight: float) -> float:
        """The symmetric-difference size (smaller is more similar)."""
        return self.norm(rid_r) + self.norm(rid_s) - 2.0 * weight

    def band_key(self, rid: int) -> float:
        return float(len(self.dataset[rid]))

    def band_radius(self) -> float:
        return float(self.k)


class HammingPredicate(SimilarityPredicate):
    """Symmetric difference |r Δ s| <= k."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError(f"hamming bound must be >= 0, got {k}")
        self.k = k

    @property
    def name(self) -> str:
        return f"hamming(k={self.k})"

    def bind(self, dataset: Dataset) -> _BoundHamming:
        return _BoundHamming(dataset, self.k)
