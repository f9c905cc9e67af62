"""SimilarityIndex under threads: the lock works, and its absence is caught.

Two halves of one regression:

* With :class:`NullRWLock` (the deliberate opt-out), racing ``add`` and
  ``query`` trip the :class:`ConcurrentMutation` invariant guard — the
  overlap is made deterministic with a tokenizer that parks inside the
  locked region.
* With the default :class:`RWLock`, the *same* schedule runs cleanly
  and a concurrent add/query workload produces exactly the results of
  a serial execution.
"""

import sys
import threading

import pytest

from repro.core.service import SimilarityIndex
from repro.predicates import JaccardPredicate, OverlapPredicate
from repro.runtime.errors import ConcurrentMutation
from repro.runtime.rwlock import NullRWLock
from repro.text.tokenizers import tokenize_words

WAIT = 10.0


class _GatedTokenizer:
    """Tokenizer that parks on ``gate`` for text marked ``HOLD:``.

    Tokenization happens inside the index's locked region, so this
    holds the read (or write) side open at an exact, controllable
    point — no sleeps, no racy timing.
    """

    def __init__(self):
        self.gate = threading.Event()
        self.parked = threading.Event()

    def __call__(self, text: str):
        if text.startswith("HOLD:"):
            self.parked.set()
            assert self.gate.wait(WAIT)
            text = text[len("HOLD:"):]
        return tokenize_words(text)


def _run(fn) -> threading.Thread:
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    return thread


class TestUnlockedIndexTripsTheGuard:
    """NullRWLock: overlap happens, and the invariant check catches it."""

    def test_add_during_in_flight_query_raises(self):
        tokenizer = _GatedTokenizer()
        index = SimilarityIndex(
            OverlapPredicate(1), tokenizer=tokenizer, lock=NullRWLock()
        )
        index.add("alpha beta")
        outcome = {}

        def query():
            try:
                outcome["result"] = index.query("HOLD:alpha beta")
            except ConcurrentMutation as exc:
                outcome["error"] = exc

        thread = _run(query)
        assert tokenizer.parked.wait(WAIT)  # query holds the read side
        with pytest.raises(ConcurrentMutation) as err:
            index.add("gamma delta")
        assert err.value.attempted == "add"
        assert err.value.in_flight == "query"
        tokenizer.gate.set()
        thread.join(WAIT)
        assert not thread.is_alive()
        # The query itself was unharmed — only the mutation was refused.
        assert [m.rid_a for m in outcome["result"]] == [0]

    def test_query_during_in_flight_add_raises(self):
        tokenizer = _GatedTokenizer()
        index = SimilarityIndex(
            OverlapPredicate(1), tokenizer=tokenizer, lock=NullRWLock()
        )
        index.add("alpha beta")
        errors = []

        def add():
            index.add("HOLD:gamma delta")

        thread = _run(add)
        assert tokenizer.parked.wait(WAIT)  # add holds the write side
        with pytest.raises(ConcurrentMutation) as err:
            index.query("alpha")
        assert err.value.attempted == "query"
        assert err.value.in_flight == "add"
        tokenizer.gate.set()
        thread.join(WAIT)
        assert not thread.is_alive()
        assert len(index) == 2  # the add itself completed


class TestLockedIndexRunsTheSameScheduleCleanly:
    """Default RWLock: identical schedules, zero ConcurrentMutation."""

    def test_add_waits_for_in_flight_query(self):
        tokenizer = _GatedTokenizer()
        index = SimilarityIndex(OverlapPredicate(1), tokenizer=tokenizer)
        index.add("alpha beta")
        results = {}

        def query():
            results["matches"] = index.query("HOLD:alpha beta")

        query_thread = _run(query)
        assert tokenizer.parked.wait(WAIT)
        add_thread = _run(lambda: index.add("gamma delta"))
        add_thread.join(0.1)
        assert add_thread.is_alive()  # correctly blocked, not raising
        tokenizer.gate.set()
        for thread in (query_thread, add_thread):
            thread.join(WAIT)
            assert not thread.is_alive()
        assert [m.rid_a for m in results["matches"]] == [0]
        assert len(index) == 2

    def test_concurrent_queries_match_serial_execution_exactly(self):
        """One writer + many readers; final answers equal a serial run."""
        corpus = [
            f"record {i} shares tokens alpha beta {'gamma' if i % 2 else 'delta'}"
            for i in range(40)
        ]
        queries = ["alpha beta gamma", "alpha beta delta", "record tokens", "zzz"]

        live = SimilarityIndex(JaccardPredicate(0.4), tokenizer=tokenize_words)
        stop = threading.Event()
        failures = []

        def reader(query_text):
            while not stop.is_set():
                try:
                    for match in live.query(query_text):
                        assert 0 <= match.rid_a < len(live)
                except Exception as exc:  # noqa: BLE001 — fail the test
                    failures.append(exc)
                    return

        # A short switch interval interleaves readers and the writer
        # finely enough that a reader touching shared state would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [
                _run(lambda q=q: reader(q)) for q in queries for _ in range(2)
            ]
            for text in corpus:
                live.add(text)
            stop.set()
            for thread in readers:
                thread.join(WAIT)
                assert not thread.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert failures == []

        # Readers only ever overlaid their probe's band key: the shared
        # column still covers exactly the indexed records, with the keys
        # a write-side bind computes.
        column = live._bound._band_keys
        assert len(column) == len(live) == len(corpus)
        rebound = JaccardPredicate(0.4).bind(live._dataset)
        assert column == [rebound.band_key(rid) for rid in range(len(live))]

        # The writer's insertion order is deterministic, so the final
        # index must agree with a never-shared serial one, exactly.
        serial = SimilarityIndex(JaccardPredicate(0.4), tokenizer=tokenize_words)
        for text in corpus:
            serial.add(text)
        for query_text in queries:
            assert [
                (m.rid_a, m.similarity) for m in live.query(query_text)
            ] == [
                (m.rid_a, m.similarity) for m in serial.query(query_text)
            ]
