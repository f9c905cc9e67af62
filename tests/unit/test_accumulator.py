"""Unit tests for the score-accumulator merge backend."""

import pytest

from repro.core.accumulator import (
    AUTO_MIN_ENTRIES,
    ScoreAccumulator,
    accumulate_merge,
    accumulate_merge_opt,
    resolve_merge_backend,
    use_accumulator,
)
from repro.core.heap_merge import heap_merge
from repro.core.inverted_index import PostingList
from repro.core.merge_opt import merge_opt
from repro.utils.counters import CostCounters
from tests.conftest import limits_for


def make_list(entries):
    plist = PostingList()
    for entity_id, score in entries:
        plist.append(entity_id, score)
    return plist


class TestScoreAccumulator:
    def test_capacity_and_growth(self):
        acc = ScoreAccumulator(4)
        assert acc.capacity == 4
        acc.ensure(10)
        assert acc.capacity == 10
        acc.ensure(3)  # never shrinks
        assert acc.capacity == 10

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScoreAccumulator(-1)

    def test_begin_bumps_epoch(self):
        acc = ScoreAccumulator(2)
        assert acc.begin() == 1
        assert acc.begin() == 2

    def test_stale_slots_are_invisible_across_probes(self):
        acc = ScoreAccumulator(8)
        lists = [(make_list([(3, 1.0), (5, 1.0)]), 1.0)]
        limits = limits_for(lambda _s: 1.0)
        first = accumulate_merge(lists, limits, CostCounters(), acc=acc)
        assert first == [(3, 1.0), (5, 1.0)]
        # A second probe touching a different entity must not see the
        # stale weights of 3 and 5 from the previous epoch.
        second = accumulate_merge(
            [(make_list([(3, 1.0)]), 1.0)], limits, CostCounters(), acc=acc
        )
        assert second == [(3, 1.0)]


class TestBackendSelection:
    def test_resolve(self):
        assert resolve_merge_backend(None) == "auto"
        assert resolve_merge_backend("heap") == "heap"
        assert resolve_merge_backend("accumulator") == "accumulator"
        with pytest.raises(ValueError):
            resolve_merge_backend("quantum")

    def test_use_accumulator_forced_modes(self):
        lists = [(make_list([(0, 1.0)]), 1.0)]
        assert not use_accumulator("heap", lists)
        assert use_accumulator("accumulator", lists)

    def test_auto_switches_on_total_entries(self):
        small = [(make_list([(i, 1.0) for i in range(AUTO_MIN_ENTRIES - 1)]), 1.0)]
        large = [(make_list([(i, 1.0) for i in range(AUTO_MIN_ENTRIES)]), 1.0)]
        assert not use_accumulator("auto", small)
        assert use_accumulator("auto", large)


class TestAccumulateMerge:
    def test_matches_heap_merge(self):
        lists = [
            (make_list([(0, 1.0), (2, 1.5)]), 2.0),
            (make_list([(0, 1.0), (1, 1.0)]), 1.0),
            (make_list([(0, 1.0), (2, 0.5)]), 1.0),
        ]
        limits = limits_for(lambda _s: 2.0)
        expected = heap_merge(lists, limits, CostCounters())
        for acc in (None, ScoreAccumulator(8)):
            got = accumulate_merge(lists, limits, CostCounters(), acc=acc)
            assert got == expected

    def test_empty_lists(self):
        assert accumulate_merge([], limits_for(lambda _s: 1.0), CostCounters()) == []

    def test_accept_filter(self):
        lists = [(make_list([(0, 1.0), (1, 1.0), (2, 1.0)]), 1.0)]
        got = accumulate_merge(
            lists, limits_for(lambda _s: 1.0, accept=lambda e: e != 1), CostCounters()
        )
        assert got == [(0, 1.0), (2, 1.0)]

    def test_dense_and_sparse_agree(self):
        lists = [
            (make_list([(1, 0.7), (4, 1.3)]), 1.1),
            (make_list([(1, 0.5), (6, 2.0)]), 0.9),
        ]
        limits = limits_for(lambda _s: 1.0)
        dense = accumulate_merge(
            lists, limits, CostCounters(), acc=ScoreAccumulator(7)
        )
        sparse = accumulate_merge(lists, limits, CostCounters(), acc=None)
        assert dense == sparse

    def test_ids_beyond_capacity_fall_back_to_sparse(self):
        # Capacity 3 cannot hold entity 5; the scan must fall back, not
        # raise or (worse) alias a wrong slot.
        acc = ScoreAccumulator(3)
        lists = [(make_list([(0, 1.0), (5, 1.0)]), 1.0)]
        got = accumulate_merge(
            lists, limits_for(lambda _s: 1.0), CostCounters(), acc=acc
        )
        assert got == [(0, 1.0), (5, 1.0)]

    def test_counters_mirror_heap_semantics(self):
        lists = [
            (make_list([(0, 1.0), (2, 1.0)]), 1.0),
            (make_list([(0, 1.0), (1, 1.0)]), 1.0),
        ]
        heap_counters = CostCounters()
        heap_merge(lists, limits_for(lambda _s: 2.0), heap_counters)
        acc_counters = CostCounters()
        accumulate_merge(
            lists, limits_for(lambda _s: 2.0), acc_counters, acc=ScoreAccumulator(3)
        )
        assert acc_counters.list_items_touched == heap_counters.list_items_touched
        assert acc_counters.candidates_checked == heap_counters.candidates_checked
        assert acc_counters.heap_pops == 0
        assert acc_counters.heap_pushes == 0
        assert acc_counters.accum_scans == 4
        assert acc_counters.accum_writes == 3
        # The new counters are observability-only: excluded from the
        # comparable work metric.
        assert acc_counters.total_work() <= heap_counters.total_work()


class TestAccumulateMergeOpt:
    def test_matches_merge_opt_with_large_lists(self):
        # One long list (skipped from the merge) plus short ones.
        long_list = make_list([(i, 1.0) for i in range(20)])
        lists = [
            (long_list, 1.0),
            (make_list([(3, 1.0), (7, 1.0)]), 1.0),
            (make_list([(3, 1.0), (9, 1.0)]), 1.0),
        ]
        limits = limits_for(lambda _s: 2.0)
        expected = merge_opt(lists, 2.0, limits, CostCounters())
        for acc in (None, ScoreAccumulator(32)):
            got = accumulate_merge_opt(lists, 2.0, limits, CostCounters(), acc=acc)
            assert got == expected

    def test_all_large_returns_empty(self):
        lists = [(make_list([(i, 1.0) for i in range(10)]), 1.0)]
        counters = CostCounters()
        # index_threshold above the single list's max contribution means
        # every list is "large": entities seen only there cannot qualify.
        got = accumulate_merge_opt(lists, 5.0, limits_for(lambda _s: 5.0), counters)
        assert got == []

    def test_gallop_steps_counted(self):
        long_list = make_list([(i, 1.0) for i in range(64)])
        lists = [
            (long_list, 1.0),
            (make_list([(60, 1.0)]), 1.0),
        ]
        counters = CostCounters()
        got = accumulate_merge_opt(
            lists, 2.0, limits_for(lambda _s: 2.0), counters, acc=ScoreAccumulator(64)
        )
        assert got == [(60, 2.0)]
        assert counters.binary_searches == 1
        # From position 0 to 60, the doubling search brackets with
        # steps 1, 2, 4, 8, 16, 32: six doublings.
        assert counters.gallop_steps == 6
