"""Score-accumulator (ScanCount-style) merge backend.

The heap merges of :mod:`repro.core.heap_merge` and
:mod:`repro.core.merge_opt` pay per-element ``heapq`` overhead — a
tuple allocation, a comparison cascade, and a sift per posting entry.
When the probe's lists are long, counting is cheaper than merging: scan
each list once and accumulate every entity's weight into one flat
``array('d')`` indexed by entity id. This module implements that
backend with the same contracts as the heap functions:

* :func:`accumulate_merge` ≡ :func:`~repro.core.heap_merge.heap_merge`
* :func:`accumulate_merge_opt` ≡ :func:`~repro.core.merge_opt.merge_opt`

**Epoch stamping.** A :class:`ScoreAccumulator` owns the weight array
plus a parallel ``array('q')`` of epoch stamps. Each probe bumps the
epoch; a slot whose stamp is stale is treated as zero and overwritten
on first touch. Buffers are therefore reused across probes *without
clearing* — O(candidates) per probe, not O(capacity) — which is what
makes a per-join (or per-server-worker) accumulator sized to the
entity-id space affordable.

**Sparse fallback.** When no accumulator is supplied, or the probe's
ids fall outside the dense capacity (ephemeral/unbounded id spaces,
e.g. unseen query tokens assigned ids past the vocabulary), the scan
transparently falls back to a per-probe dict. Same results, no sizing
contract.

**Rare-word skip path.** :func:`accumulate_merge_opt` reuses
:func:`~repro.core.merge_opt.split_lists` (§3.1 Algorithm 1): only the
short S lists are scanned into the accumulator; candidates are then
completed against the long L lists smallest-first with the same
searches and early-termination bound the heap path uses. Each search
resumes at its list's frontier; ``counters.gallop_steps`` reports the
bracket-doubling steps the paper's doubling search (§3.1 Algorithm 1
step 10) takes for it — ``(d - 1).bit_length()`` for a move of
``d > 1`` positions — without running that search in Python.

**Result identity.** For a given entity, both backends sum the same
contributions in the same order — the heap pops equal RIDs in
increasing list index, the scan visits lists in that same order — so
accumulated weights are bit-identical, and the returned candidate sets
are identical pair-for-pair (property tests pin this across
predicates, serial and sharded, with and without the bitmap filter).

Counter mapping: ``list_items_touched``, ``candidates_checked`` and
``binary_searches`` mean exactly what they mean on the heap path and
take identical values, so ``total_work()`` stays comparable; the heap
counters (``heap_pops``/``heap_pushes``) stay zero — that delta *is*
the measured saving. The accumulator's own raw volumes are reported
separately as ``accum_scans``/``accum_writes`` (excluded from
``total_work()``, see :class:`~repro.utils.counters.CostCounters`).
"""

from __future__ import annotations

import math
from array import array

from repro.core.inverted_index import PostingList
from repro.core.merge_opt import long_lists, split_lists
from repro.predicates.base import ProbeLimits
from repro.utils.counters import CostCounters

__all__ = [
    "AUTO_MIN_ENTRIES",
    "MERGE_BACKENDS",
    "ScoreAccumulator",
    "accumulate_merge",
    "accumulate_merge_opt",
    "resolve_merge_backend",
    "use_accumulator",
]

#: Valid values of the ``merge_backend`` knob.
MERGE_BACKENDS = ("auto", "heap", "accumulator")

#: Under ``merge_backend="auto"``, probes whose lists hold at least this
#: many total entries use the accumulator; smaller probes stay on the
#: heap, whose setup cost is lower. The crossover is flat in practice —
#: tiny probes are cheap either way — so one pinned constant beats a
#: per-dataset tuning knob.
AUTO_MIN_ENTRIES = 32

#: Head of an L list searched to its end: above every entity id.
_PAST_END = math.inf


def resolve_merge_backend(value) -> str:
    """Validate a ``merge_backend`` knob value (None means ``auto``)."""
    if value is None:
        return "auto"
    if value not in MERGE_BACKENDS:
        raise ValueError(
            f"unknown merge backend {value!r}; expected one of {MERGE_BACKENDS}"
        )
    return value


def use_accumulator(backend: str, lists: list[tuple[PostingList, float]]) -> bool:
    """Decide the backend for one probe from its list-size stats."""
    if backend == "heap":
        return False
    if backend == "accumulator":
        return True
    total = 0
    for plist, _probe_score in lists:
        total += len(plist.ids)
    return total >= AUTO_MIN_ENTRIES


class ScoreAccumulator:
    """Reusable dense weight buffer: ``weights[id]`` + epoch stamps.

    Args:
        capacity: number of entity-id slots; size to the join's entity
            count (record/position/cluster ids all stay below it). Can
            grow later via :meth:`ensure`.

    One accumulator belongs to one join execution or one server worker
    thread — it is deliberately *not* thread-safe; concurrent probes
    each need their own (they are small: 16 bytes per slot).
    """

    __slots__ = ("weights", "epochs", "epoch")

    def __init__(self, capacity: int = 0):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.weights: array = array("d", bytes(8 * capacity))
        self.epochs: array = array("q", bytes(8 * capacity))
        self.epoch: int = 0

    @property
    def capacity(self) -> int:
        return len(self.weights)

    def ensure(self, capacity: int) -> None:
        """Grow to at least ``capacity`` slots (never shrinks)."""
        grow = capacity - len(self.weights)
        if grow > 0:
            self.weights.frombytes(bytes(8 * grow))
            self.epochs.frombytes(bytes(8 * grow))

    def begin(self) -> int:
        """Start a new probe: invalidates all slots in O(1)."""
        self.epoch += 1
        return self.epoch


def accumulate_merge(
    lists: list[tuple[PostingList, float]],
    limits: ProbeLimits,
    counters: CostCounters,
    acc: ScoreAccumulator | None = None,
) -> list[tuple[int, float]]:
    """Merge posting lists by counting; same contract as ``heap_merge``.

    Args:
        lists: ``(posting_list, probe_score)`` pairs from the index probe.
        limits: the probe's pair-threshold and band-filter columns.
        counters: work counters to update.
        acc: dense buffer to accumulate into; ``None`` (or ids outside
            its capacity) selects the sparse dict fallback.

    Returns candidates with ``weight >= T(r, s) - eps`` in increasing id
    order — the same candidates, with bit-identical weights, that
    ``heap_merge`` returns.
    """
    if not lists:
        return []
    touched, weights = _scan_lists(lists, limits, acc, counters)
    norms = limits.norms
    limit_of = limits.limit_map()
    candidates: list[tuple[int, float]] = []
    append = candidates.append
    for entity in touched:
        weight = weights[entity]
        if weight >= limit_of[norms[entity]]:
            append((entity, weight))
    return candidates


def accumulate_merge_opt(
    lists: list[tuple[PostingList, float]],
    index_threshold: float,
    limits: ProbeLimits,
    counters: CostCounters,
    acc: ScoreAccumulator | None = None,
) -> list[tuple[int, float]]:
    """Threshold-optimized counting merge; same contract as ``merge_opt``.

    S lists (short) are scanned into the accumulator; each touched
    entity is then completed against the L lists (long) smallest-first,
    bailing out early once even full membership in the remaining L
    lists cannot reach ``T(r, m)`` — exactly Algorithm 1 steps 8–11,
    with the heap replaced by the scan.
    """
    if not lists:
        return []
    ordered, cumulative, k = split_lists(lists, index_threshold)
    if k == len(ordered):
        # Entities appearing only in L lists cannot reach the threshold.
        return []
    touched, weights = _scan_lists(ordered[k:], limits, acc, counters)
    large = long_lists(ordered, cumulative, k)
    norms = limits.norms
    limit_of = limits.limit_map()

    # Per-L-list search state: the frontier — touched ids arrive in
    # increasing order, so each search resumes where the previous one
    # ended — and the id at the frontier. Ids are strictly increasing
    # integers, so an entity past that head lies at most
    # ``entity - head`` positions on, which bounds the bisect; an entity
    # at or before the head needs no bisect at all. Positions (and so
    # every counter) are exactly those of a plain search from the
    # frontier.
    frontiers = [0] * k
    heads = [ids[0] if n else _PAST_END for ids, _s, _p, n, _c, _f in large]
    searches = 0
    gallop_steps = 0
    candidates: list[tuple[int, float]] = []
    append = candidates.append
    for entity in touched:
        weight = weights[entity]
        limit = limit_of[norms[entity]]
        i = 0
        for ids, scores, probe_score, n, reach, search in large:
            if weight + reach < limit:
                break
            head = heads[i]
            if entity > head:
                start = frontiers[i]
                hi = start + entity - head
                position = frontiers[i] = search(
                    ids, entity, start + 1, hi if hi < n else n
                )
                if position - start > 1:
                    gallop_steps += (position - start - 1).bit_length()
                if position < n:
                    head = heads[i] = ids[position]
                    if head == entity:
                        weight += probe_score * scores[position]
                else:
                    heads[i] = _PAST_END
            elif head == entity:
                weight += probe_score * scores[frontiers[i]]
            i += 1
        searches += i
        if weight >= limit:
            append((entity, weight))
    counters.binary_searches += searches
    counters.gallop_steps += gallop_steps
    return candidates


# ----------------------------------------------------------------------
# Scan phase (shared by both entry points)
# ----------------------------------------------------------------------


def _scan_lists(lists, limits, acc, counters):
    """Accumulate every list entry the band filter passes; returns
    (sorted touched ids, weights).

    ``weights`` supports ``[entity]`` lookup for exactly the returned
    ids (dense array or fallback dict). Counter updates happen here —
    once, after the scan, so the dense → sparse fallback never double
    counts.
    """
    if acc is not None and _fits_dense(lists, acc.capacity):
        return _scan_dense(lists, limits, acc, counters)
    return _scan_sparse(lists, limits, counters)


def _fits_dense(lists, capacity: int) -> bool:
    """Do all ids land inside the dense buffer? Ids are sorted, so the
    first/last entry of each list bound the whole list."""
    for plist, _probe_score in lists:
        ids = plist.ids
        if ids and (ids[0] < 0 or ids[-1] >= capacity):
            return False
    return True


def _scan_dense(lists, limits, acc, counters):
    epoch = acc.begin()
    weights = acc.weights
    epochs = acc.epochs
    keys = limits.keys
    key_r = limits.key_r
    radius = limits.radius
    touched: list[int] = []
    touched_append = touched.append
    scans = 0
    accepted = 0
    for plist, probe_score in lists:
        ids = plist.ids
        n = len(ids)
        scans += n
        if keys is None:
            accepted += n
            for entity, score in zip(ids, plist.scores):
                if epochs[entity] == epoch:
                    weights[entity] += probe_score * score
                else:
                    epochs[entity] = epoch
                    weights[entity] = probe_score * score
                    touched_append(entity)
        else:
            for entity, score in zip(ids, plist.scores):
                if not abs(keys[entity] - key_r) <= radius:
                    continue
                accepted += 1
                if epochs[entity] == epoch:
                    weights[entity] += probe_score * score
                else:
                    epochs[entity] = epoch
                    weights[entity] = probe_score * score
                    touched_append(entity)
    touched.sort()
    counters.accum_scans += scans
    counters.accum_writes += len(touched)
    counters.list_items_touched += accepted
    counters.candidates_checked += len(touched)
    return touched, weights


def _scan_sparse(lists, limits, counters):
    keys = limits.keys
    key_r = limits.key_r
    radius = limits.radius
    weights: dict[int, float] = {}
    scans = 0
    accepted = 0
    for plist, probe_score in lists:
        ids = plist.ids
        n = len(ids)
        scans += n
        if keys is None:
            accepted += n
            for entity, score in zip(ids, plist.scores):
                if entity in weights:
                    weights[entity] += probe_score * score
                else:
                    weights[entity] = probe_score * score
        else:
            for entity, score in zip(ids, plist.scores):
                if not abs(keys[entity] - key_r) <= radius:
                    continue
                accepted += 1
                if entity in weights:
                    weights[entity] += probe_score * score
                else:
                    weights[entity] = probe_score * score
    touched = sorted(weights)
    counters.accum_scans += scans
    counters.accum_writes += len(touched)
    counters.list_items_touched += accepted
    counters.candidates_checked += len(touched)
    return touched, weights
