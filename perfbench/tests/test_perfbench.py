"""Tests of the benchmark's own code: seeded inputs, the answer checker,
span arithmetic, the layer wrappers, and the entry point's refusal to
run without the library.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from repro import Dataset, JaccardPredicate, MatchPair, parallel_join, similarity_join
from repro.predicates.base import WEIGHT_EPS
from repro.serving.sharded import ShardedIndexServer
from repro.text.tokenizers import tokenize_words

from perfbench import layers
from perfbench.checker import compare, join_answer, query_answer
from perfbench.hostspeed import MIN_SAMPLES, NOMINAL_S, HostScale, HostSpeed
from perfbench.inputs import citation_texts, serve_inputs
from perfbench.spans import Tracer, covered_length, self_times, summarize
from perfbench.workloads import ServeWorkload, _check_adds, _Op, closed_loop

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _small_serve(seed):
    return serve_inputs(
        seed, tokenize_words, n_indexed=300, n_queries=40, n_adds=20, n_ops=200
    )


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def test_same_seed_gives_identical_inputs():
    assert citation_texts(200, 7) == citation_texts(200, 7)
    assert _small_serve(3) == _small_serve(3)


def test_different_seed_gives_different_inputs():
    assert citation_texts(200, 7) != citation_texts(200, 8)
    first, second = _small_serve(3), _small_serve(4)
    assert first.indexed != second.indexed
    assert first.queries != second.queries
    assert first.adds != second.adds
    assert first.ops != second.ops


def test_serve_inputs_shape_and_adds_far_from_queries():
    inputs = _small_serve(5)
    assert len(inputs.queries) == 40 and inputs.n_hits == 20
    assert len(inputs.adds) == 20
    assert {kind for kind, _ in inputs.ops} == {"query", "add"}
    for add in inputs.adds:
        a = set(tokenize_words(add))
        for query in inputs.queries:
            q = set(tokenize_words(query))
            assert len(a & q) / len(a | q) < 0.5


# ----------------------------------------------------------------------
# Answer checker
# ----------------------------------------------------------------------

EXPECTED = [MatchPair(0, 1, 0.8), MatchPair(0, 2, 0.75), MatchPair(3, 4, 1.0)]


def test_checker_accepts_equal_answers_within_eps():
    got = [MatchPair(p.rid_a, p.rid_b, p.similarity + WEIGHT_EPS / 2) for p in EXPECTED]
    assert not compare(join_answer(got), join_answer(EXPECTED), WEIGHT_EPS)


def test_checker_catches_dropped_pair():
    mismatch = compare(join_answer(EXPECTED[:2]), join_answer(EXPECTED), WEIGHT_EPS)
    assert mismatch and mismatch.missing == [(3, 4)]
    assert not mismatch.extra and not mismatch.off


def test_checker_catches_extra_pair():
    got = EXPECTED + [MatchPair(1, 5, 0.9)]
    mismatch = compare(join_answer(got), join_answer(EXPECTED), WEIGHT_EPS)
    assert mismatch and mismatch.extra == [(1, 5)]
    assert not mismatch.missing and not mismatch.off


def test_checker_catches_similarity_off_by_more_than_eps():
    got = [EXPECTED[0], MatchPair(0, 2, 0.75 + 2 * WEIGHT_EPS), EXPECTED[2]]
    mismatch = compare(join_answer(got), join_answer(EXPECTED), WEIGHT_EPS)
    assert mismatch and [key for key, _, _ in mismatch.off] == [(0, 2)]


def test_checker_catches_repeated_pair():
    got = EXPECTED + [EXPECTED[1]]
    mismatch = compare(join_answer(got), join_answer(EXPECTED), WEIGHT_EPS)
    assert mismatch and mismatch.repeated == [(0, 2)]
    assert not mismatch.missing and not mismatch.extra and not mismatch.off


def test_checker_catches_repeated_query_match():
    expected = query_answer([MatchPair(4, 100, 0.9), MatchPair(7, 100, 0.8)])
    got = query_answer([MatchPair(4, 101, 0.9), MatchPair(7, 101, 0.8), MatchPair(4, 101, 0.9)])
    mismatch = compare(got, expected, WEIGHT_EPS)
    assert mismatch and mismatch.repeated == [4]


def test_query_answer_ignores_probe_rid():
    first = query_answer([MatchPair(4, 100, 0.9)])
    second = query_answer([MatchPair(4, 101, 0.9)])
    assert not compare(first, second, WEIGHT_EPS)


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (3.5, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)


def test_self_times_of_nested_spans():
    spans = [
        (1, "root", 0.0, 10.0, 0, None),
        (2, "a", 1.0, 4.0, 1, None),
        (3, "a.child", 2.0, 3.0, 2, None),
        # A sibling overlapping ``a`` (another thread): the root's
        # covered time is the union, not the sum.
        (4, "b", 3.5, 6.0, 1, None),
        (5, "leaf", 4.0, 5.0, 4, None),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.5 - 1.0)
    assert own[5] == pytest.approx(1.0)
    summary = summarize(spans)
    assert summary["a"] == {"calls": 1, "total_s": 3.0, "self_s": pytest.approx(2.0)}


def test_tracer_nests_and_inherits_request():
    tracer = Tracer()
    with tracer.span("outer", request=7) as outer:
        with tracer.span("inner") as inner:
            tracer.record("leaf", 0.0, 0.0)
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["leaf"][4] == inner and by_name["inner"][4] == outer
    assert by_name["outer"][4] == 0
    assert {span[5] for span in tracer.spans} == {7}


def test_tracer_rewind_forgets_later_spans_and_counts():
    tracer = Tracer()
    tracer.record("kept", 0.0, 1.0)
    tracer.add("n", 2)
    mark = tracer.mark()
    tracer.record("dropped", 1.0, 2.0)
    tracer.add("n", 5)
    tracer.add("m")
    tracer.rewind(mark)
    assert [span[1] for span in tracer.spans] == ["kept"]
    assert dict(tracer.counts) == {"n": 2}


def test_gather_leaves_out_worker_span_dumps():
    spans = [
        (1, "api.join", 0.0, 10.0, 0, None),
        (2, "parallel.shard", 1.0, 6.0, 0, None),
        (3, "parallel.shard", 1.5, 7.0, 0, None),
        (4, "trace.dump", 6.0, 6.5, 0, None),
        (5, "trace.dump", 7.0, 9.0, 0, None),
    ]
    metrics = layers.layer_metrics(spans, {}, 0.0)
    assert metrics["parallel.launch_s"] == pytest.approx(1.5)
    assert metrics["parallel.shard_s_max"] == pytest.approx(5.5)
    assert metrics["parallel.shard_s_min"] == pytest.approx(5.0)
    assert metrics["parallel.gather_s"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------


def _traced_join(algorithm, tmp_path):
    dataset = Dataset.from_texts(citation_texts(300, 11), tokenize_words)
    predicate = JaccardPredicate(0.6)
    expected = similarity_join(dataset, predicate, algorithm=algorithm)
    tracer = Tracer()
    restore = layers.install(tracer, str(tmp_path))
    try:
        with tracer.span("api.join"):
            traced = similarity_join(dataset, predicate, algorithm=algorithm)
    finally:
        restore()
    assert not compare(join_answer(traced.pairs), join_answer(expected.pairs), WEIGHT_EPS)
    return layers.layer_metrics(tracer.spans, tracer.counts, 0.0), traced


def test_wrappers_restore_originals(tmp_path):
    import repro.core.base as base
    from repro.runtime.rwlock import RWLock

    before = (base.merge_opt, base.SetJoinAlgorithm.join, RWLock.read_locked)
    restore = layers.install(Tracer(), str(tmp_path))
    assert base.merge_opt is not before[0]
    restore()
    assert (base.merge_opt, base.SetJoinAlgorithm.join, RWLock.read_locked) == before


def test_merge_layer_traced_on_probe_cluster(tmp_path):
    metrics, result = _traced_join("probe-cluster", tmp_path)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["core.merge.calls"] > 0
    assert metrics["core.merge.items_touched"] > 0
    assert metrics["predicates.verify_calls"] == result.counters.pairs_verified
    assert metrics["core.driver.self_s"] > 0


def test_positional_filter_makes_no_merge_calls(tmp_path):
    metrics, result = _traced_join("positional-filter", tmp_path)
    assert metrics["core.merge.calls"] == 0
    assert metrics["core.inverted_index.insert_calls"] == 0
    assert (
        metrics["core.positional_filter.candidates_checked"]
        == result.counters.candidates_checked
    )
    assert metrics["core.positional_filter.self_s"] > 0


def test_parallel_workers_leave_span_files(tmp_path):
    dataset = Dataset.from_texts(citation_texts(300, 11), tokenize_words)
    tracer = Tracer()
    restore = layers.install(tracer, str(tmp_path))
    try:
        with tracer.span("api.join"):
            parallel_join(dataset, JaccardPredicate(0.6), algorithm="probe-count-optmerge",
                          workers=2)
    finally:
        restore()
    assert layers.collect_shards(tracer, str(tmp_path)) == 2
    names = [span[1] for span in tracer.spans]
    assert names.count("parallel.shard") == 2 and names.count("trace.dump") == 2
    metrics = layers.layer_metrics(tracer.spans, tracer.counts, 0.0)
    assert metrics["parallel.gather_s"] >= 0
    assert metrics["core.merge.calls"] > 0


# ----------------------------------------------------------------------
# Serving checks
# ----------------------------------------------------------------------


def test_add_check_passes_real_adds_and_catches_lost_ones():
    inputs = _small_serve(6)
    workload = ServeWorkload("small", len(inputs.indexed), lambda: JaccardPredicate(0.7), 2)
    server = ShardedIndexServer(workload.predicate(), shards=2, tokenizer=tokenize_words)
    server.start()
    try:
        server.extend(inputs.indexed)
        done, _ = closed_loop(server, inputs, max_ops=len(inputs.ops))
        assert any(op.kind == "add" for op in done)
        assert _check_adds(server, workload, inputs, done) == (0, [])
        # An add the client saw succeed but the server never indexed.
        lost = _Op("add", 0, 0.0, 0.0, True, answer=len(server))
        wrong, notes = _check_adds(server, workload, inputs, done + [lost])
        assert wrong == 2 and len(notes) == 2
    finally:
        server.stop()


# ----------------------------------------------------------------------
# Host speed scaling
# ----------------------------------------------------------------------


def _samples(cpu_by_second):
    """Five samples a second, each taking ``cpu`` seconds of CPU."""
    return [
        (second + k / 5, second + k / 5 + 0.01, cpu)
        for second, cpu in enumerate(cpu_by_second)
        for k in range(5)
    ]


def test_host_scale_uses_the_samples_inside_the_interval():
    scale = HostScale(_samples([NOMINAL_S, 2 * NOMINAL_S, NOMINAL_S / 2]))
    assert scale.factor(0.0, 0.99) == pytest.approx(1.0)
    # The host ran the loop at half speed: the time reads half as long.
    assert scale.scale(1.0, 1.99) == pytest.approx(0.99 / 2)
    assert scale.factor(2.0, 2.99) == pytest.approx(2.0)
    assert scale.factor(0.0, 2.99) == pytest.approx(3 / 3.5)


def test_host_scale_widens_short_intervals():
    scale = HostScale(_samples([NOMINAL_S, 2 * NOMINAL_S]))
    # One sample inside; widened equally until MIN_SAMPLES are.
    assert MIN_SAMPLES == 5
    assert scale.factor(0.41, 0.41) == pytest.approx(1.0)
    assert scale.factor(0.99, 1.02) == pytest.approx(5 / 8)
    with pytest.raises(ValueError):
        HostScale([])


def test_host_speed_child_samples_and_stops():
    with HostSpeed() as host:
        time.sleep(0.5)
        samples = host.samples()
    assert host._child.returncode == 0
    assert len(samples) >= 5
    assert all(start < end and cpu > 0 for start, end, cpu in samples)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def test_run_fails_without_library(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cite3g-cluster",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    from perfbench.run import END_TO_END
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
