"""Join results: matched pairs plus instrumentation.

All algorithms emit pairs in canonical orientation ``rid_a < rid_b`` and
return a :class:`JoinResult` that carries the pairs, the work counters,
and wall-clock time — the three quantities the benchmark harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.counters import CostCounters

__all__ = ["JoinResult", "MatchPair"]


@dataclass(frozen=True, order=True, slots=True)
class MatchPair:
    """One matched record pair (slotted: a join can hold millions).

    Self-join algorithms emit pairs in canonical orientation
    ``rid_a < rid_b`` (use :meth:`make`); for non-self joins ``rid_a`` is
    the left-side RID and ``rid_b`` the right-side RID, each in its own
    dataset's numbering.

    ``similarity`` is the predicate's natural measure: overlap weight for
    T-overlap, the Jaccard/Dice/cosine fraction, or the edit distance
    (where smaller is more similar).
    """

    rid_a: int
    rid_b: int
    similarity: float = 0.0

    @staticmethod
    def make(rid_x: int, rid_y: int, similarity: float) -> "MatchPair":
        """Build a canonical pair from RIDs in either order."""
        if rid_x < rid_y:
            return MatchPair(rid_x, rid_y, similarity)
        return MatchPair(rid_y, rid_x, similarity)


@dataclass
class JoinResult:
    """Output of one join execution.

    ``degraded_from`` / ``degradation_reason`` record graceful
    degradation: when a join running under a
    :class:`~repro.runtime.context.JoinContext` memory budget tripped
    the budget and was completed by the budget-respecting ClusterMem
    algorithm instead, ``degraded_from`` names the original algorithm
    (and ``algorithm`` keeps that requested name). The pair set is
    unaffected — every algorithm is exact.
    """

    pairs: list[MatchPair]
    algorithm: str
    predicate: str
    counters: CostCounters = field(default_factory=CostCounters)
    elapsed_seconds: float = 0.0
    degraded_from: str | None = None
    degradation_reason: str | None = None
    #: Algorithm-specific annotations that are *not* work counters:
    #: the approximate mode reports its resolved plan and sampled
    #: recall estimate here (``approx_*`` / ``recall_*`` keys). Unlike
    #: ``counters.extra`` these values are never summed across shards.
    extra: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether the join fell back to ClusterMem mid-run."""
        return self.degraded_from is not None

    def __len__(self) -> int:
        return len(self.pairs)

    def pair_set(self) -> set[tuple[int, int]]:
        """RID pairs as a set (the correctness-comparison currency)."""
        return {(p.rid_a, p.rid_b) for p in self.pairs}

    def sorted_pairs(self) -> list[MatchPair]:
        """Pairs in (rid_a, rid_b) order, for deterministic output."""
        return sorted(self.pairs, key=lambda p: (p.rid_a, p.rid_b))

    def __repr__(self) -> str:
        degraded = ", degraded=cluster-mem" if self.degraded else ""
        return (
            f"JoinResult(algorithm={self.algorithm!r}, predicate={self.predicate!r},"
            f" pairs={len(self.pairs)}, elapsed={self.elapsed_seconds:.3f}s{degraded})"
        )
