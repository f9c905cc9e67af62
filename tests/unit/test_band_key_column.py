"""The §5.3 band-key column is maintained on the write path.

Serving queries must cost O(probe), not O(index): every write keeps the
base bound's band-key column covering the whole dataset, and a query
computes exactly one key — its probe's — into a private overlay slot.
These tests count ``band_key`` calls to pin that cost, check the column
after every write path, and check that answers equal a freshly built
index's over the same records.
"""

import random

import pytest

from repro import DicePredicate, HammingPredicate, JaccardPredicate
from repro.core.join import edit_distance_join
from repro.core.records import Dataset
from repro.core.service import SimilarityIndex
from repro.predicates import EditDistancePredicate
from repro.predicates.edit_distance import qgram_dataset
from repro.serving import ShardedIndexServer
from repro.text.tokenizers import tokenize_qgrams, tokenize_words

PREDICATES = {
    "jaccard": lambda: JaccardPredicate(0.5),
    "dice": lambda: DicePredicate(0.6),
    "hamming": lambda: HammingPredicate(3),
}

VOCAB = [f"w{i}" for i in range(60)]


def _texts(n: int, seed: int = 3) -> list[str]:
    rng = random.Random(seed)
    return [" ".join(rng.sample(VOCAB, rng.randint(3, 8))) for _ in range(n)]


def _index(predicate, texts) -> SimilarityIndex:
    index = SimilarityIndex(predicate, tokenizer=tokenize_words)
    for text in texts:
        index.add(text)
    return index


def _answers(matches) -> list[tuple[int, int, float]]:
    return sorted((m.rid_a, m.rid_b, m.similarity) for m in matches)


@pytest.fixture
def key_calls(monkeypatch):
    """Counts ``band_key`` calls on every bound class under test."""
    calls = {"n": 0}
    for make in PREDICATES.values():
        cls = type(make().bind(Dataset([])))
        original = cls.band_key

        def counted(self, rid, _original=original):
            calls["n"] += 1
            return _original(self, rid)

        monkeypatch.setattr(cls, "band_key", counted)
    return calls


@pytest.mark.parametrize("name", sorted(PREDICATES))
@pytest.mark.parametrize("size", [10, 2000])
class TestQueryCostIsOneKey:
    def test_query_and_batch_compute_only_the_probe_key(self, name, size, key_calls):
        texts = _texts(size)
        index = _index(PREDICATES[name](), texts)
        assert key_calls["n"] == size  # one key per record, on the write path
        for text in texts[:5]:
            key_calls["n"] = 0
            index.query(text)
            assert key_calls["n"] == 1
        key_calls["n"] = 0
        index.query_batch(texts[:7])
        assert key_calls["n"] == 7
        assert len(index._bound._band_keys) == len(index)

    def test_sharded_query_computes_one_key_per_shard(self, name, size, key_calls):
        texts = _texts(size)
        server = ShardedIndexServer(
            PREDICATES[name](), shards=2, tokenizer=tokenize_words, workers=2
        )
        try:
            server.extend(texts)
            server.start()
            for text in texts[:5]:
                key_calls["n"] = 0
                result = server.query(text, timeout=30)
                assert not result.partial
                assert key_calls["n"] == 2  # one probe key on each shard
        finally:
            server.stop()


@pytest.mark.parametrize("name", sorted(PREDICATES))
class TestColumnCoversEveryRecordAfterWrites:
    def test_add_rebind_save_load(self, name, tmp_path):
        make = PREDICATES[name]
        index = _index(make(), _texts(30))
        assert len(index._bound._band_keys) == len(index) == 30
        index.add("w1 w2 w3")
        assert len(index._bound._band_keys) == len(index) == 31
        index.rebind()
        assert len(index._bound._band_keys) == len(index)

        snapshot = str(tmp_path / "index.snap")
        index.save(snapshot)
        loaded = SimilarityIndex.load(snapshot, make(), tokenizer=tokenize_words)
        assert len(loaded._bound._band_keys) == len(loaded) == 31

        mapped_path = str(tmp_path / "index.rpmx")
        index.save(mapped_path, format="mmap")
        mapped = SimilarityIndex.load(
            mapped_path, make(), tokenizer=tokenize_words, mmap=True
        )
        try:
            assert len(mapped._bound._band_keys) == len(mapped) == 31
            assert _answers(mapped.query("w1 w2 w3")) == _answers(
                index.query("w1 w2 w3")
            )
            assert len(mapped._bound._band_keys) == len(mapped)
        finally:
            mapped.close()


@pytest.mark.parametrize("name", sorted(PREDICATES))
class TestInterleavedAnswersMatchAFreshIndex:
    def test_single_index_with_rebind(self, name):
        make = PREDICATES[name]
        texts = _texts(120, seed=11)
        probes = _texts(15, seed=12) + texts[:5]
        live = SimilarityIndex(make(), tokenizer=tokenize_words)
        for i, text in enumerate(texts):
            live.add(text)
            if i == 60:
                live.rebind()
            if i % 20 == 19:
                fresh = _index(make(), texts[: i + 1])
                for probe in probes:
                    assert _answers(live.query(probe)) == _answers(
                        fresh.query(probe)
                    )
                assert [
                    _answers(matches) for matches in live.query_batch(probes)
                ] == [_answers(fresh.query(probe)) for probe in probes]

    def test_sharded_server_across_a_reindex_flip(self, name):
        make = PREDICATES[name]
        texts = _texts(90, seed=21)
        probes = _texts(12, seed=22) + texts[:4]
        server = ShardedIndexServer(
            make(), shards=2, tokenizer=tokenize_words, workers=2
        )
        try:
            server.start()
            for i, text in enumerate(texts):
                server.add(text)
                if i == 45:
                    for builder in server.reindex(timeout=30):
                        assert builder.flipped
                if i % 30 == 29:
                    fresh = _index(make(), texts[: i + 1])
                    for probe in probes:
                        result = server.query(probe, timeout=30)
                        assert not result.partial
                        assert _answers(result) == _answers(fresh.query(probe))
        finally:
            server.stop()


class TestEditDistance:
    def test_edit_distance_index_hello_world(self):
        """``add("hello world")`` then ``query("hello world")`` used to
        raise a bare IndexError; the service now refuses edit distance
        up front, since it cannot serve it exactly."""
        with pytest.raises(ValueError, match="edit_distance_join"):
            SimilarityIndex(EditDistancePredicate(1), tokenizer=tokenize_qgrams)
        with pytest.raises(ValueError, match="edit_distance_join"):
            ShardedIndexServer(EditDistancePredicate(1), tokenizer=tokenize_qgrams)

    def test_join_reads_lengths_from_the_band_column(self):
        strings = ["hello world", "hello word", "help", "hello world!"]
        bound = EditDistancePredicate(1).bind(qgram_dataset(strings))
        assert bound.band_keys() == [11.0, 10.0, 4.0, 12.0]
        assert bound.string_length(2) == 4
        assert edit_distance_join(strings, k=1).pair_set() == {(0, 1), (0, 3)}
