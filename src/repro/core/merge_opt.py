"""MergeOpt: threshold-sensitive list merge (paper §3.1 Algorithm 1,
generalized form §5.1.1 Algorithm 3).

Given the posting lists matching a probe record, sorted by decreasing
length, the algorithm picks the largest prefix ``L`` whose cumulative
maximum contribution stays below the index-level threshold bound
``T(r, I)``. Records appearing *only* in ``L`` lists cannot reach the
threshold, so only the remaining (short) lists ``S`` are heap-merged.
Each candidate popped from the heap is then completed by binary searches
into the ``L`` lists in increasing size order — each resuming at its
list's frontier, since candidates arrive in id order — terminating early
once even full membership in the remaining ``L`` lists cannot reach the
candidate-specific threshold ``T(r, m)`` (Algorithm 3 step 9 uses this
tighter bound).

On skewed real-life data the few longest lists carry most of the merge
cost, so skipping them yields the paper's 5–100x speedups.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

from repro.core.inverted_index import PostingList
from repro.predicates.base import WEIGHT_EPS, ProbeLimits
from repro.utils.counters import CostCounters

__all__ = ["long_lists", "merge_opt", "split_lists"]


def split_lists(
    lists: list[tuple[PostingList, float]], index_threshold: float
) -> tuple[list[tuple[PostingList, float]], list[float], int]:
    """Order lists by decreasing length and find the L/S split point.

    Returns ``(ordered_lists, cumulative_weights, k)`` where
    ``ordered_lists[:k]`` is ``L`` (skipped from the heap merge) and
    ``cumulative_weights[i]`` is the §3.1 ``cumulativeWt`` — the maximum
    total contribution of lists ``0..i``.
    """
    ordered = sorted(lists, key=lambda item: -len(item[0].ids))
    cumulative: list[float] = []
    running = 0.0
    for plist, probe_score in ordered:
        running += probe_score * plist.max_score
        cumulative.append(running)
    k = 0
    while k < len(ordered) and cumulative[k] < index_threshold - WEIGHT_EPS:
        k += 1
    return ordered, cumulative, k


def long_lists(
    ordered: list[tuple[PostingList, float]], cumulative: list[float], k: int
) -> list[tuple]:
    """The L lists ``ordered[:k]`` smallest-first, unpacked once per probe.

    Each entry is ``(ids, scores, probe_score, length, cumulative,
    search)``: ``cumulative`` is the list's ``cumulativeWt`` and
    ``search(ids, target, lo, hi)`` is ``bisect_left`` — C ``bisect``
    for flat columns, or the column's own ``search_from`` where it has
    one (the varbyte-compressed ids, whose random access decodes a
    block).
    """
    large = []
    for i in range(k - 1, -1, -1):
        plist, probe_score = ordered[i]
        ids = plist.ids
        search = getattr(type(ids), "search_from", bisect_left)
        large.append((ids, plist.scores, probe_score, len(ids), cumulative[i], search))
    return large


def merge_opt(
    lists: list[tuple[PostingList, float]],
    index_threshold: float,
    limits: ProbeLimits,
    counters: CostCounters,
) -> list[tuple[int, float]]:
    """Threshold-optimized merge; same contract as ``heap_merge``.

    Args:
        lists: ``(posting_list, probe_score)`` probe matches.
        index_threshold: ``T(r, I)``, the smallest possible pair threshold
            against any indexed entity (§5.1.1).
        limits: the probe's pair-threshold and band-filter columns; the
            band filter runs before heap insertion (the §5 "apply
            filter(r, n) before pushing" step).
        counters: work counters to update.

    Returns ``(entity_id, weight)`` candidates in increasing id order.
    """
    if not lists:
        return []
    ordered, cumulative, k = split_lists(lists, index_threshold)
    large = long_lists(ordered, cumulative, k)
    small = ordered[k:]
    norms = limits.norms
    band = None
    if limits.keys is not None:
        band = (limits.keys, limits.key_r, limits.radius)
    limit_of = limits.limit_map()
    # Per-L-list search frontiers: candidates arrive in increasing id
    # order, so each search can resume where the last one ended.
    search_from = [0] * k

    heap: list[tuple[int, int]] = []
    frontiers = [0] * len(small)
    for list_idx, (plist, _probe_score) in enumerate(small):
        position = _first_accepted(plist.ids, 0, band)
        if position < len(plist.ids):
            heap.append((plist.ids[position], list_idx))
            frontiers[list_idx] = position + 1
            counters.heap_pushes += 1
        else:
            frontiers[list_idx] = position
    heapq.heapify(heap)

    candidates: list[tuple[int, float]] = []
    while heap:
        current, list_idx = heapq.heappop(heap)
        counters.heap_pops += 1
        counters.list_items_touched += 1
        plist, probe_score = small[list_idx]
        weight = probe_score * plist.scores[frontiers[list_idx] - 1]
        _push_next(heap, small, list_idx, frontiers, band, counters)
        while heap and heap[0][0] == current:
            _, list_idx = heapq.heappop(heap)
            counters.heap_pops += 1
            counters.list_items_touched += 1
            plist, probe_score = small[list_idx]
            weight += probe_score * plist.scores[frontiers[list_idx] - 1]
            _push_next(heap, small, list_idx, frontiers, band, counters)

        counters.candidates_checked += 1
        limit = limit_of[norms[current]]
        # Algorithm 1 steps 8-11: search L lists smallest-first, bailing
        # out when even full membership in the rest cannot reach T(r, m).
        for i, (ids, scores, probe_score, n, reach, search) in enumerate(large):
            if weight + reach < limit:
                break
            counters.binary_searches += 1
            position = search(ids, current, search_from[i], n)
            search_from[i] = position
            if position < n and ids[position] == current:
                weight += probe_score * scores[position]
        if weight >= limit:
            candidates.append((current, weight))
    return candidates


def _first_accepted(ids, position: int, band) -> int:
    """First position at or after ``position`` the band filter passes;
    ``band`` is ``(keys, key_r, radius)`` or None (no filter)."""
    if band is None:
        return position
    keys, key_r, radius = band
    n = len(ids)
    while position < n and not abs(keys[ids[position]] - key_r) <= radius:
        position += 1
    return position


def _push_next(
    heap: list[tuple[int, int]],
    small: list[tuple[PostingList, float]],
    list_idx: int,
    frontiers: list[int],
    band,
    counters: CostCounters,
) -> None:
    plist, _probe_score = small[list_idx]
    position = _first_accepted(plist.ids, frontiers[list_idx], band)
    if position < len(plist.ids):
        heapq.heappush(heap, (plist.ids[position], list_idx))
        counters.heap_pushes += 1
        frontiers[list_idx] = position + 1
    else:
        frontiers[list_idx] = position
