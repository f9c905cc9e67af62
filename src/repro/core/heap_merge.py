"""Basic heap-based posting-list merge (paper §2.1).

The Probe-Count algorithm merges the RID lists of every probe word with a
heap over the list frontiers: repeatedly pop the minimum RID, accumulate
its weight while successive popped RIDs are equal, and push the popped
list's next RID. Candidates whose accumulated weight reaches the
threshold are returned.

This is the unoptimized baseline that MergeOpt (``merge_opt.py``)
improves on; it merges *all* lists regardless of the threshold.

The inner loop is the hottest code in the two-pass Probe-Count variants,
so it is written flat: per-list ids/scores/probe-score are hoisted into
parallel locals, the pop/accumulate/advance/push step is one shared
inline loop (not a helper called per popped entry), and the work
counters are accumulated in local integers that are added to
``counters`` once per merge. The counter totals and the returned
candidate list are bit-identical to the straightforward formulation
(tests pin this).
"""

from __future__ import annotations

import heapq

from repro.core.inverted_index import PostingList
from repro.predicates.base import ProbeLimits
from repro.utils.counters import CostCounters

__all__ = ["heap_merge"]


def heap_merge(
    lists: list[tuple[PostingList, float]],
    limits: ProbeLimits,
    counters: CostCounters,
) -> list[tuple[int, float]]:
    """Merge posting lists, returning ``(entity_id, weight)`` candidates.

    Args:
        lists: ``(posting_list, probe_score)`` pairs from the index probe;
            a match in list ``l_w`` contributes
            ``probe_score * entry_score``.
        limits: the probe's pair-threshold and band-filter columns;
            entities the band filter rejects are skipped entirely.
        counters: work counters to update.

    Returns candidates with ``weight >= T(r, s) - eps`` in increasing id
    order.
    """
    norms = limits.norms
    keys = limits.keys
    key_r = limits.key_r
    radius = limits.radius
    limit_of = limits.limit_map()
    n_lists = len(lists)
    ids_of: list = [None] * n_lists
    scores_of: list = [None] * n_lists
    probe_of: list = [0.0] * n_lists
    lens_of: list[int] = [0] * n_lists
    frontiers: list[int] = [0] * n_lists
    heap: list[tuple[int, int]] = []
    pushes = 0
    for list_idx, (plist, probe_score) in enumerate(lists):
        ids = plist.ids
        ids_of[list_idx] = ids
        scores_of[list_idx] = plist.scores
        probe_of[list_idx] = probe_score
        position = 0
        n = lens_of[list_idx] = len(ids)
        if keys is not None:
            while position < n and not abs(keys[ids[position]] - key_r) <= radius:
                position += 1
        if position < n:
            heap.append((ids[position], list_idx))
            frontiers[list_idx] = position + 1
            pushes += 1
        else:
            frontiers[list_idx] = position
    heapq.heapify(heap)

    heappop = heapq.heappop
    heappush = heapq.heappush
    pops = 0
    touched = 0
    checked = 0
    candidates: list[tuple[int, float]] = []
    append = candidates.append
    while heap:
        # One shared pop/accumulate/advance/push step serves both the
        # first pop of a run of equal RIDs and every follow-up pop;
        # counter totals are unchanged versus the unrolled form (pinned
        # by a counter-identity test).
        current, list_idx = heappop(heap)
        weight = 0.0
        while True:
            pops += 1
            position = frontiers[list_idx]
            weight += probe_of[list_idx] * scores_of[list_idx][position - 1]
            touched += 1
            ids = ids_of[list_idx]
            n = lens_of[list_idx]
            if keys is not None:
                while position < n and not abs(keys[ids[position]] - key_r) <= radius:
                    position += 1
            if position < n:
                heappush(heap, (ids[position], list_idx))
                pushes += 1
                frontiers[list_idx] = position + 1
            else:
                frontiers[list_idx] = position
            if heap and heap[0][0] == current:
                _, list_idx = heappop(heap)
            else:
                break
        checked += 1
        if weight >= limit_of[norms[current]]:
            append((current, weight))
    counters.heap_pops += pops
    counters.heap_pushes += pushes
    counters.list_items_touched += touched
    counters.candidates_checked += checked
    return candidates
