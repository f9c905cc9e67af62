"""Answer checking: every timed answer against an independent exact route.

Answers are lists of ``(key, similarity)`` items, the key a
``(rid_a, rid_b)`` pair for joins and the matched record's global rid
for serving queries. Two answers agree when they hold the same keys,
each once, and every similarity is within ``WEIGHT_EPS``, the tolerance
the library's own exactness contract uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Mismatch", "compare", "join_answer", "query_answer"]


@dataclass
class Mismatch:
    """How one answer differs from the expected one (empty when equal)."""

    missing: list = field(default_factory=list)
    extra: list = field(default_factory=list)
    off: list = field(default_factory=list)
    repeated: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.missing or self.extra or self.off or self.repeated)

    def describe(self, limit: int = 3) -> str:
        return (
            f"{len(self.missing)} missing {self.missing[:limit]},"
            f" {len(self.extra)} extra {self.extra[:limit]},"
            f" {len(self.off)} similarity off {self.off[:limit]},"
            f" {len(self.repeated)} repeated {self.repeated[:limit]}"
        )


def join_answer(pairs) -> list[tuple[tuple[int, int], float]]:
    """Join pairs as ``[((rid_a, rid_b), similarity), ...]``."""
    return [((p.rid_a, p.rid_b), p.similarity) for p in pairs]


def query_answer(matches) -> list[tuple[int, float]]:
    """Query matches as ``[(matched rid, similarity), ...]``; the
    probe's own rid (``rid_b``) is ephemeral and not compared."""
    return [(p.rid_a, p.similarity) for p in matches]


def compare(got: list, expected: list, eps: float) -> Mismatch:
    """Keys missing from ``got``, keys only in ``got``, keys ``got``
    holds more than once, and shared keys whose similarities differ by
    more than ``eps``."""
    mismatch = Mismatch()
    answer: dict = {}
    for key, similarity in got:
        if key in answer:
            mismatch.repeated.append(key)
        else:
            answer[key] = similarity
    want = dict(expected)
    for key, similarity in want.items():
        other = answer.get(key)
        if other is None:
            mismatch.missing.append(key)
        elif abs(other - similarity) > eps:
            mismatch.off.append((key, other, similarity))
    mismatch.extra = [key for key in answer if key not in want]
    return mismatch
