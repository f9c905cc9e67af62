"""One two-pass probe route: self-joins and R–S joins against naive.

Probe-Count's two-pass variants (basic, optmerge, stopwords) share one
probe loop over every index backend. This pins the whole knob lattice —
variant × index backend × merge backend × bitmap filter, for both the
self-join and ``join_between`` — to the naive join's pairs *and*
similarities, plus the R–S runtime paths (cancellation, degradation to
ClusterMem) that go through the same driver.
"""

import pytest

from repro import (
    CancellationToken,
    Dataset,
    JaccardPredicate,
    JoinCancelled,
    JoinContext,
    NaiveJoin,
    OverlapPredicate,
    WeightedOverlapPredicate,
)
from repro.core.join import ALGORITHMS, make_algorithm
from tests.conftest import random_dataset

_PREDICATES = [
    pytest.param(OverlapPredicate(3), id="overlap"),
    pytest.param(JaccardPredicate(0.5), id="jaccard"),
]


def _tuples(pairs):
    return sorted((p.rid_a, p.rid_b, p.similarity) for p in pairs)


def _sides(seed):
    """Two datasets over one vocabulary, with cross near-duplicates."""
    data = random_dataset(seed=seed, n_base=30)
    vocabulary: dict = {}
    token_lists = [[f"w{t}" for t in record] for record in data.records]
    # A near-duplicate follows its base record, so alternating records
    # between the sides puts most duplicate pairs across them.
    left = Dataset.from_token_lists(token_lists[0::2], vocabulary=vocabulary)
    right = Dataset.from_token_lists(token_lists[1::2], vocabulary=vocabulary)
    return left, right


def _naive_between(left, right, predicate):
    """Brute force over every (left, right) pair of the concatenation."""
    combined = Dataset(list(left.records) + list(right.records))
    bound = predicate.bind(combined)
    out = []
    for rid_a in range(len(left)):
        for rid_b in range(len(right)):
            ok, similarity = bound.verify(rid_a, len(left) + rid_b)
            if ok:
                out.append((rid_a, rid_b, similarity))
    return sorted(out)


@pytest.mark.parametrize("predicate", _PREDICATES)
@pytest.mark.parametrize("bitmap", [None, True], ids=["bitmap-off", "bitmap-on"])
@pytest.mark.parametrize("merge", ["heap", "accumulator"])
@pytest.mark.parametrize("backend", ["memory", "mmap", "mmap-varbyte"])
@pytest.mark.parametrize(
    "algorithm", ["probe-count", "probe-count-optmerge", "probe-count-stopwords"]
)
class TestTwoPassLattice:
    def _algorithm(self, algorithm, backend, merge, bitmap):
        return make_algorithm(
            algorithm, index_backend=backend, merge_backend=merge, bitmap_filter=bitmap
        )

    def test_self_join_matches_naive(self, algorithm, backend, merge, bitmap, predicate):
        data = random_dataset(seed=71, n_base=40)
        expected = _tuples(NaiveJoin().join(data, predicate).pairs)
        result = self._algorithm(algorithm, backend, merge, bitmap).join(data, predicate)
        assert _tuples(result.pairs) == expected

    def test_join_between_matches_naive(
        self, algorithm, backend, merge, bitmap, predicate
    ):
        left, right = _sides(seed=72)
        expected = _naive_between(left, right, predicate)
        assert expected  # the sides share near-duplicates
        result = self._algorithm(algorithm, backend, merge, bitmap).join_between(
            left, right, predicate
        )
        assert _tuples(result.pairs) == expected
        assert result.algorithm.endswith("/between")
        assert result.counters.pairs_output == len(expected)


def test_weighted_predicate_on_mmap_varbyte():
    # Non-unit (IDF) scores: the mapped file keeps the score column
    # next to the compressed ids, so weighted joins stay exact.
    data = random_dataset(seed=73, n_base=40)
    predicate = WeightedOverlapPredicate(2.5, weights="idf")
    expected = _tuples(NaiveJoin().join(data, predicate).pairs)
    assert expected
    for algorithm in ("probe-count", "probe-count-optmerge", "probe-count-stopwords"):
        result = make_algorithm(algorithm, index_backend="mmap-varbyte").join(
            data, predicate
        )
        assert _tuples(result.pairs) == expected, algorithm


def test_join_between_indexes_right_and_probes_left():
    left, right = _sides(seed=76)
    result = make_algorithm("probe-count-optmerge").join_between(
        left, right, OverlapPredicate(3)
    )
    assert result.counters.probes == len(left)
    assert result.counters.index_entries == right.total_word_occurrences()


_ONE_PASS = sorted(
    name
    for name in ALGORITHMS
    if name not in ("probe-count", "probe-count-optmerge", "probe-count-stopwords")
) + ["cluster-mem"]


@pytest.mark.parametrize("algorithm", _ONE_PASS)
class TestJoinBetweenOtherAlgorithms:
    """Algorithms without a two-pass build hand their R–S join to the
    MergeOpt two-pass run: exact, weighted-score capable, right side
    indexed only."""

    def _make(self, algorithm, **knobs):
        if algorithm == "cluster-mem":
            knobs["memory_fraction"] = 0.5
        return make_algorithm(algorithm, **knobs)

    def test_weighted_predicate_matches_naive(self, algorithm):
        left, right = _sides(seed=78)
        predicate = WeightedOverlapPredicate(2.5, weights="idf")
        expected = _naive_between(left, right, predicate)
        assert expected
        instance = self._make(algorithm)
        result = instance.join_between(left, right, predicate)
        assert _tuples(result.pairs) == expected
        assert result.algorithm == f"{instance.name}/between"

    def test_indexes_right_and_probes_left(self, algorithm):
        left, right = _sides(seed=79)
        predicate = JaccardPredicate(0.5)
        result = self._make(algorithm, bitmap_filter=True).join_between(
            left, right, predicate
        )
        assert _tuples(result.pairs) == _naive_between(left, right, predicate)
        assert result.counters.probes == len(left)
        assert result.counters.index_entries == right.total_word_occurrences()


class TestJoinBetweenRuntime:
    def test_cancel_interrupts_the_probe(self):
        left, right = _sides(seed=74)
        token = CancellationToken()
        token.cancel()
        for backend in ("memory", "mmap-varbyte"):
            algorithm = make_algorithm("probe-count-optmerge", index_backend=backend)
            with pytest.raises(JoinCancelled):
                algorithm.join_between(
                    left, right, OverlapPredicate(3),
                    context=JoinContext(cancel_token=token),
                )

    def test_kill_and_resume_from_checkpoint(self, tmp_path):
        from repro import JoinCheckpointer
        from repro.runtime.errors import CheckpointMismatch
        from repro.runtime.faults import CountdownCancellation

        left, right = _sides(seed=77)
        predicate = OverlapPredicate(3)
        directory = str(tmp_path / "ckpt")
        # len(right) build ticks, then a few driven probes of the left side.
        killed = JoinContext(
            cancel_token=CountdownCancellation(after_checks=len(right) + 10),
            checkpointer=JoinCheckpointer(directory, interval_records=3),
        )
        with pytest.raises(JoinCancelled):
            make_algorithm("probe-count-optmerge").join_between(
                left, right, predicate, context=killed
            )
        assert JoinCheckpointer(directory).load().position >= 0
        # The checkpoint belongs to this split, not to a self-join of
        # the concatenation.
        combined = Dataset(list(left.records) + list(right.records))
        with pytest.raises(CheckpointMismatch, match="between@"):
            make_algorithm("probe-count-optmerge").join(
                combined, predicate,
                context=JoinContext(checkpointer=JoinCheckpointer(directory)),
            )
        resumed = make_algorithm("probe-count-optmerge").join_between(
            left, right, predicate,
            context=JoinContext(checkpointer=JoinCheckpointer(directory)),
        )
        assert _tuples(resumed.pairs) == _naive_between(left, right, predicate)

    def test_degrade_returns_only_cross_pairs(self):
        left, right = _sides(seed=75)
        predicate = OverlapPredicate(3)
        expected = _naive_between(left, right, predicate)
        # ClusterMem self-joins the concatenation, which also pairs
        # records within one side; none of those may leak out.
        combined = Dataset(list(left.records) + list(right.records))
        assert len(NaiveJoin().join(combined, predicate).pairs) > len(expected)
        result = make_algorithm("probe-count-optmerge").join_between(
            left, right, predicate, context=JoinContext(memory_budget_entries=20)
        )
        assert result.degraded
        assert result.degraded_from == "probe-count-optmerge"
        assert _tuples(result.pairs) == expected
        assert result.counters.pairs_output == len(expected)

    def test_degrade_strict_mode_raises(self):
        from repro import MemoryBudgetExceeded

        left, right = _sides(seed=75)
        with pytest.raises(MemoryBudgetExceeded):
            make_algorithm("probe-count-optmerge").join_between(
                left, right, OverlapPredicate(3),
                context=JoinContext(memory_budget_entries=20, on_memory_exceeded="raise"),
            )
