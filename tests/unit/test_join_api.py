"""Unit tests for the similarity_join dispatch API and results."""

import pytest

from repro import (
    ALGORITHMS,
    Dataset,
    JoinResult,
    MatchPair,
    OverlapPredicate,
    make_algorithm,
    similarity_join,
)


class TestMatchPair:
    def test_make_orients_canonically(self):
        pair = MatchPair.make(5, 2, 0.7)
        assert (pair.rid_a, pair.rid_b) == (2, 5)

    def test_ordering(self):
        assert MatchPair(0, 1) < MatchPair(0, 2) < MatchPair(1, 2)


class TestJoinResult:
    def test_pair_set_and_len(self):
        result = JoinResult(
            pairs=[MatchPair(0, 1, 1.0), MatchPair(2, 3, 1.0)],
            algorithm="x",
            predicate="y",
        )
        assert len(result) == 2
        assert result.pair_set() == {(0, 1), (2, 3)}

    def test_sorted_pairs(self):
        result = JoinResult(
            pairs=[MatchPair(2, 3), MatchPair(0, 5), MatchPair(0, 1)],
            algorithm="x",
            predicate="y",
        )
        assert [(p.rid_a, p.rid_b) for p in result.sorted_pairs()] == [
            (0, 1),
            (0, 5),
            (2, 3),
        ]

    def test_repr_mentions_algorithm(self):
        result = JoinResult(pairs=[], algorithm="probe-cluster", predicate="overlap(T=2)")
        assert "probe-cluster" in repr(result)


class TestDispatch:
    @pytest.fixture
    def data(self):
        return Dataset([(0, 1, 2), (0, 1, 2), (5, 6, 7)])

    def test_every_registered_algorithm_runs(self, data):
        for name in ALGORITHMS:
            result = similarity_join(data, OverlapPredicate(3), algorithm=name)
            assert result.pair_set() == {(0, 1)}, name

    def test_unknown_algorithm(self, data):
        with pytest.raises(ValueError):
            similarity_join(data, OverlapPredicate(1), algorithm="quantum")

    def test_cluster_mem_needs_budget(self, data):
        with pytest.raises(ValueError):
            make_algorithm("cluster-mem")

    def test_cluster_mem_with_fraction(self, data):
        result = similarity_join(
            data, OverlapPredicate(3), algorithm="cluster-mem", memory_fraction=0.5
        )
        assert result.pair_set() == {(0, 1)}

    def test_cluster_mem_with_budget(self, data):
        from repro import MemoryBudget

        result = similarity_join(
            data, OverlapPredicate(3), algorithm="cluster-mem", budget=MemoryBudget(5)
        )
        assert result.pair_set() == {(0, 1)}

    def test_cluster_mem_fraction_is_a_real_instance(self, data):
        from repro import ClusterMemJoin

        algorithm = make_algorithm(
            "cluster-mem", memory_fraction=0.5, merge_backend="heap"
        )
        assert isinstance(algorithm, ClusterMemJoin)
        assert algorithm.merge_backend == "heap"
        algorithm.join(data, OverlapPredicate(3))
        assert algorithm.budget.max_index_entries == max(
            1, int(data.total_word_occurrences() * 0.5)
        )

    def test_kwargs_forwarded(self, data):
        algorithm = make_algorithm("probe-count-optmerge", variant="online")
        assert algorithm.variant == "online"

    def test_result_metadata(self, data):
        result = similarity_join(data, OverlapPredicate(3), algorithm="probe-cluster")
        assert result.algorithm == "probe-cluster"
        assert result.predicate == "overlap(T=3)"
        assert result.elapsed_seconds >= 0.0
        assert result.counters.pairs_output == len(result.pairs)
