"""Backend-equivalence properties: heap merge vs score accumulator.

The contract the ``merge_backend`` knob promises: candidate sets are
identical pair-for-pair across backends — same entities, bit-identical
weights (both backends sum each entity's contributions in the same
order) — and therefore joins return identical match sets under every
predicate, serially, sharded over workers, and with the bitmap filter
armed.

The heap kernels are the oracle. The accumulator kernels must match
them on candidates, weights and the shared work counters, both on
generated lists and inside real joins over every entity space (record
ids, processing positions, cluster ids) and posting substrate (memory,
mmap, mmap-varbyte). A reference kernel built on the paper's doubling
search pins ``gallop_steps`` and bounds the varbyte block decodes.
"""

from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.base as base_module
import repro.storage.mmap_index as mmap_module
from repro import (
    CosinePredicate,
    JaccardPredicate,
    OverlapPredicate,
    SimilarityIndex,
)
from repro.core.accumulator import (
    ScoreAccumulator,
    _scan_lists,
    accumulate_merge,
    accumulate_merge_opt,
)
from repro.core.heap_merge import heap_merge
from repro.core.inverted_index import PostingList
from repro.core.join import edit_distance_join, make_algorithm
from repro.core.merge_opt import merge_opt, split_lists
from repro.storage.mmap_index import JoinIndexBuilder
from repro.utils.counters import CostCounters
from repro.utils.search import gallop_search_from
from tests.conftest import limits_for, random_dataset

posting_ids = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=30, unique=True
).map(sorted)

scored_list = st.tuples(
    posting_ids,
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)

probe = st.lists(scored_list, min_size=0, max_size=8)
thresholds = st.floats(min_value=0.2, max_value=8.0, allow_nan=False)

#: Work counters both backends must report identically.
_SHARED_COUNTERS = ("list_items_touched", "candidates_checked", "binary_searches")


def shared(counters: CostCounters) -> dict[str, int]:
    return {name: getattr(counters, name) for name in _SHARED_COUNTERS}


def build(lists_spec):
    lists = []
    for ids, entry_score, probe_score in lists_spec:
        plist = PostingList()
        for entity in ids:
            plist.append(entity, entry_score)
        lists.append((plist, probe_score))
    return lists


def _every_third_rejected(use_band):
    return (lambda e: e % 3 != 0) if use_band else None


def doubling_search(items, target: int, start: int) -> tuple[int, int]:
    """The paper's doubling binary search from ``start`` (§3.1
    Algorithm 1 step 10): returns (insertion point, doubling steps)."""
    n = len(items)
    if start >= n or items[start] >= target:
        return start, 0
    step = 1
    lo = start
    hi = start + step
    steps = 0
    while hi < n and items[hi] < target:
        lo = hi
        step <<= 1
        hi = start + step
        steps += 1
    return bisect_left(items, target, lo + 1, min(hi, n)), steps


def doubling_merge_opt(lists, index_threshold, limits, counters, acc=None):
    """``accumulate_merge_opt`` in the paper's formulation: every L-list
    search is a doubling search from the list's frontier, counted step
    by step. The reference the kernel's searches must reproduce."""
    ordered, cumulative, k = split_lists(lists, index_threshold)
    if k == len(ordered):
        return []
    touched, weights = _scan_lists(ordered[k:], limits, acc, counters)
    limit_of = limits.limit_map()
    frontiers = [0] * k
    candidates = []
    for entity in touched:
        weight = weights[entity]
        limit = limit_of[limits.norms[entity]]
        for i in range(k - 1, -1, -1):
            if weight + cumulative[i] < limit:
                break
            plist, probe_score = ordered[i]
            counters.binary_searches += 1
            position, steps = doubling_search(plist.ids, entity, frontiers[i])
            counters.gallop_steps += steps
            frontiers[i] = position
            if position < len(plist.ids) and plist.ids[position] == entity:
                weight += probe_score * plist.scores[position]
        if weight >= limit:
            candidates.append((entity, weight))
    return candidates


class TestMergeLevelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(probe, thresholds, st.booleans(), st.booleans())
    def test_accumulate_merge_equals_heap_merge(
        self, lists_spec, threshold, use_accept, dense
    ):
        lists = build(lists_spec)
        limits = limits_for(lambda _s: threshold, _every_third_rejected(use_accept))
        acc = ScoreAccumulator(64) if dense else None
        expected_counters = CostCounters()
        expected = heap_merge(lists, limits, expected_counters)
        got_counters = CostCounters()
        got = accumulate_merge(lists, limits, got_counters, acc=acc)
        # Pair-for-pair identical, weights bit-identical (same summation
        # order), not merely within epsilon.
        assert got == expected
        assert shared(got_counters) == shared(expected_counters)

    @settings(max_examples=150, deadline=None)
    @given(probe, thresholds, thresholds, st.booleans(), st.booleans())
    def test_accumulate_merge_opt_equals_merge_opt(
        self, lists_spec, index_threshold, pair_threshold, use_accept, dense
    ):
        lists = build(lists_spec)
        limits = limits_for(
            lambda _s: pair_threshold, _every_third_rejected(use_accept)
        )
        acc = ScoreAccumulator(64) if dense else None
        expected_counters = CostCounters()
        expected = merge_opt(lists, index_threshold, limits, expected_counters)
        got_counters = CostCounters()
        got = accumulate_merge_opt(
            lists, index_threshold, limits, got_counters, acc=acc
        )
        assert got == expected
        assert shared(got_counters) == shared(expected_counters)

    @settings(max_examples=150, deadline=None)
    @given(probe, thresholds, thresholds, st.booleans(), st.booleans())
    def test_accumulate_merge_opt_equals_doubling_reference(
        self, lists_spec, index_threshold, pair_threshold, use_accept, dense
    ):
        lists = build(lists_spec)
        limits = limits_for(
            lambda _s: pair_threshold, _every_third_rejected(use_accept)
        )
        expected_counters = CostCounters()
        expected = doubling_merge_opt(
            lists, index_threshold, limits, expected_counters,
            ScoreAccumulator(64) if dense else None,
        )
        got_counters = CostCounters()
        got = accumulate_merge_opt(
            lists, index_threshold, limits, got_counters,
            ScoreAccumulator(64) if dense else None,
        )
        # Every counter, gallop_steps included.
        assert got == expected
        assert got_counters.as_dict() == expected_counters.as_dict()

    @settings(max_examples=200, deadline=None)
    @given(
        posting_ids,
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=35),
    )
    def test_gallop_from_position_matches_utils(self, ids, target, start):
        # The kernels search from the frontier with C bisect; the
        # doubling search they replaced finds the same position.
        items = list(ids)
        start = min(start, len(items))
        position = bisect_left(items, target, start)
        assert position == gallop_search_from(items, target, start)
        assert position == doubling_search(items, target, start)[0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=400), min_size=2, max_size=200,
            unique=True,
        ).map(sorted),
        st.lists(
            st.integers(min_value=0, max_value=410), min_size=1, max_size=40,
            unique=True,
        ).map(sorted),
    )
    def test_gallop_steps_match_doubling_loop(self, long_ids, targets):
        # One long list in L and the targets as the only S list: every
        # target is searched for in the long list, from the frontier the
        # previous search left, and the kernel's bit-length step count
        # must equal what the doubling loop counts.
        assume(len(long_ids) > len(targets))
        lists = build([(long_ids, 1.0, 1.0), (targets, 1.0, 1.0)])
        counters = CostCounters()
        accumulate_merge_opt(lists, 1.5, limits_for(lambda _s: 1.5), counters)
        start = 0
        steps = 0
        for target in targets:
            start, taken = doubling_search(long_ids, target, start)
            steps += taken
        assert counters.binary_searches == len(targets)
        assert counters.gallop_steps == steps


def _join_pairs(dataset, predicate, algorithm, backend, bitmap=None):
    algo = make_algorithm(algorithm, merge_backend=backend, bitmap_filter=bitmap)
    return algo.join(dataset, predicate).pair_set()


_PREDICATES = [
    pytest.param(OverlapPredicate(4), id="overlap"),
    pytest.param(JaccardPredicate(0.6), id="jaccard"),
    pytest.param(CosinePredicate(0.7), id="cosine"),
]

_ALGORITHMS = ["probe-count-optmerge", "probe-count-sort", "probe-cluster"]


class TestJoinLevelEquivalence:
    @pytest.mark.parametrize("predicate", _PREDICATES)
    @pytest.mark.parametrize("algorithm", _ALGORITHMS)
    def test_serial_backends_agree(self, predicate, algorithm):
        data = random_dataset(seed=17, n_base=80, universe=30)
        heap = _join_pairs(data, predicate, algorithm, "heap")
        accumulator = _join_pairs(data, predicate, algorithm, "accumulator")
        auto = _join_pairs(data, predicate, algorithm, "auto")
        assert accumulator == heap
        assert auto == heap

    @pytest.mark.parametrize("predicate", _PREDICATES)
    def test_bitmap_filter_backends_agree(self, predicate):
        data = random_dataset(seed=23, n_base=80, universe=30)
        heap = _join_pairs(data, predicate, "probe-count-sort", "heap", bitmap=True)
        accumulator = _join_pairs(
            data, predicate, "probe-count-sort", "accumulator", bitmap=True
        )
        unfiltered = _join_pairs(data, predicate, "probe-count-sort", "heap")
        assert accumulator == heap == unfiltered

    @pytest.mark.parametrize("backend", ["heap", "accumulator", "auto"])
    def test_sharded_matches_serial(self, backend):
        from repro.parallel import parallel_join

        data = random_dataset(seed=31, n_base=90, universe=30)
        predicate = JaccardPredicate(0.6)
        serial = _join_pairs(data, predicate, "probe-count-sort", backend)
        sharded = parallel_join(
            data,
            predicate,
            algorithm="probe-count-sort",
            workers=4,
            merge_backend=backend,
        ).pair_set()
        assert sharded == serial

    @pytest.mark.parametrize("backend", ["heap", "accumulator"])
    def test_edit_distance_backends_agree(self, backend):
        names = [
            "similarity", "similarty", "simliarity", "distance", "distence",
            "merge", "marge", "merged", "accumulator", "acumulator",
            "posting", "postings", "columnar", "columner", "threshold",
        ]
        heap = edit_distance_join(names, k=2, merge_backend="heap").pair_set()
        got = edit_distance_join(names, k=2, merge_backend=backend).pair_set()
        assert got == heap


# ----------------------------------------------------------------------
# Kernel identity inside real joins: every entity space and substrate
# ----------------------------------------------------------------------


class _OracleCheck:
    """Runs the heap oracle beside every accumulator-kernel call the
    join drivers make, on the same lists and probe columns, and asserts
    candidates, weights and shared work counters are identical."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.banded = 0
        self.unbanded = 0
        self.id_columns: set[str] = set()
        self.multi_block = False
        kernel_opt = base_module.accumulate_merge_opt
        kernel = base_module.accumulate_merge

        def checked_opt(lists, index_threshold, limits, counters, acc=None):
            got_counters = CostCounters()
            got = kernel_opt(lists, index_threshold, limits, got_counters, acc)
            oracle_counters = CostCounters()
            expected = merge_opt(lists, index_threshold, limits, oracle_counters)
            self._compare(lists, limits, got, expected, got_counters, oracle_counters)
            counters.merge(got_counters)
            return got

        def checked(lists, limits, counters, acc=None):
            got_counters = CostCounters()
            got = kernel(lists, limits, got_counters, acc)
            oracle_counters = CostCounters()
            expected = heap_merge(lists, limits, oracle_counters)
            self._compare(lists, limits, got, expected, got_counters, oracle_counters)
            counters.merge(got_counters)
            return got

        monkeypatch.setattr(base_module, "accumulate_merge_opt", checked_opt)
        monkeypatch.setattr(base_module, "accumulate_merge", checked)

    def _compare(self, lists, limits, got, expected, got_counters, oracle_counters):
        assert got == expected
        assert shared(got_counters) == shared(oracle_counters)
        self.calls += 1
        if limits.keys is None:
            self.unbanded += 1
        else:
            self.banded += 1
        for plist, _probe_score in lists:
            self.id_columns.add(type(plist.ids).__name__)
            if len(plist.ids) > mmap_module._BLOCK_SIZE:
                self.multi_block = True


def _kernel_dataset():
    # ~300 records over 24 tokens: lists run past one 64-id varbyte
    # block, and long lists land in MergeOpt's L set.
    return random_dataset(seed=41, n_base=240, universe=24, max_size=10)


_BAND = [
    pytest.param(JaccardPredicate(0.6), id="band-on"),
    pytest.param(OverlapPredicate(5), id="band-off"),
]


class TestKernelIdentityInJoins:
    @pytest.mark.parametrize("predicate", _BAND)
    @pytest.mark.parametrize(
        "index_backend, id_column",
        [("memory", "array"), ("mmap", "memoryview"), ("mmap-varbyte", "_BlockedIds")],
    )
    @pytest.mark.parametrize(
        "algorithm",
        ["probe-count-optmerge", "probe-count", "probe-count-stopwords"],
    )
    def test_record_ids_on_every_substrate(
        self, monkeypatch, predicate, index_backend, id_column, algorithm
    ):
        check = _OracleCheck(monkeypatch)
        algo = make_algorithm(
            algorithm,
            merge_backend="accumulator",
            index_backend=index_backend,
        )
        result = algo.join(_kernel_dataset(), predicate)
        assert check.calls > 0
        assert check.id_columns == {id_column}
        assert check.multi_block
        if predicate.name.startswith("jaccard"):
            assert check.unbanded == 0
        else:
            assert check.banded == 0
        assert result.pair_set() == make_algorithm("naive").join(
            _kernel_dataset(), predicate
        ).pair_set()

    @pytest.mark.parametrize("predicate", _BAND)
    def test_positions(self, monkeypatch, predicate):
        check = _OracleCheck(monkeypatch)
        make_algorithm("probe-count-sort", merge_backend="accumulator").join(
            _kernel_dataset(), predicate
        )
        assert check.calls > 0

    @pytest.mark.parametrize("predicate", _BAND)
    def test_cluster_ids_and_fine_positions(self, monkeypatch, predicate):
        check = _OracleCheck(monkeypatch)
        make_algorithm("probe-cluster", merge_backend="accumulator").join(
            _kernel_dataset(), predicate
        )
        assert check.calls > 0
        # The cluster-level probe never band-filters; with a band
        # predicate the record-level fine joins do.
        assert check.unbanded > 0
        if predicate.name.startswith("jaccard"):
            assert check.banded > 0

    @pytest.mark.parametrize("predicate", _BAND)
    def test_serving_record_ids(self, monkeypatch, predicate):
        check = _OracleCheck(monkeypatch)
        data = _kernel_dataset()
        service = SimilarityIndex(predicate, merge_backend="accumulator")
        for record in data.records[:200]:
            service.add(record)
        for record in data.records[200:]:
            service.query(record)
        assert check.calls > 0


class TestCompressedSearch:
    def test_block_search_decodes_no_more_than_doubling(self, monkeypatch, tmp_path):
        data = _kernel_dataset()
        predicate = OverlapPredicate(5)
        bound = predicate.bind(data)
        builder = JoinIndexBuilder(str(tmp_path / "varbyte.rpmx"), compressed=True)
        for rid in range(len(data)):
            builder.insert(
                rid, data[rid], bound.cached_score_vector(rid), bound.norm(rid)
            )
        index = builder.finish()
        decodes = [0]
        decode = mmap_module.varbyte_decode_deltas

        def counting_decode(*args):
            decodes[0] += 1
            return decode(*args)

        monkeypatch.setattr(mmap_module, "varbyte_decode_deltas", counting_decode)
        norms = bound.norm_column()

        def one_probe(kernel, rid):
            decodes[0] = 0
            counters = CostCounters()
            lists = index.probe_lists(data[rid], bound.cached_score_vector(rid))
            limits = bound.probe_limits(rid, norms)
            index_threshold = bound.index_threshold(limits.norm_r, index.min_norm)
            out = kernel(lists, index_threshold, limits, counters)
            return decodes[0], out, counters.as_dict()

        try:
            block_search = [
                one_probe(accumulate_merge_opt, rid) for rid in range(len(data))
            ]
            doubling = [one_probe(doubling_merge_opt, rid) for rid in range(len(data))]
        finally:
            index.close()
        assert sum(counters["binary_searches"] for _, _, counters in doubling) > 0
        for new, old in zip(block_search, doubling):
            # Same candidates and counters (gallop_steps included); no
            # probe decodes more blocks than the doubling search did.
            assert new[1:] == old[1:]
            assert new[0] <= old[0]
        assert sum(d for d, _, _ in block_search) < sum(d for d, _, _ in doubling)
