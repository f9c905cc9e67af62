"""The four workloads: how each sets up, what it times, and how its
answers are checked.

Join workloads time the public call (``similarity_join`` or
``parallel_join``) back to back for the run's seconds. The serving
workload drives a :class:`~repro.serving.sharded.ShardedIndexServer`
from a closed loop of client threads. Every timed answer is checked
against a different exact route computed once per run, after the timed
part and outside ``setup_s``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro import (
    Dataset,
    JaccardPredicate,
    OverlapPredicate,
    SimilarityIndex,
    parallel_join,
    similarity_join,
)
from repro.predicates.base import WEIGHT_EPS
from repro.serving.sharded import ShardedIndexServer
from repro.text.tokenizers import tokenize_qgrams, tokenize_words

from perfbench import layers
from perfbench.checker import compare, join_answer, query_answer
from perfbench.hostspeed import HostScale, HostSpeed
from perfbench.inputs import citation_texts, serve_inputs
from perfbench.spans import Tracer

__all__ = ["WORKLOADS", "Outcome", "run_workload"]

#: Set-up repetitions (before every join for the join workloads, once
#: per run for serving); ``setup_s`` is their median.
JOIN_SETUP_REPEATS = 2
SERVE_SETUP_REPEATS = 9
#: Closed-loop client threads of the serving workload.
SERVE_CLIENTS = 2
#: ``join_s`` of the serving workload: wall time per block of this many
#: completed operations.
SERVE_BLOCK_OPS = 100
#: Operations per closed loop in the traced serving run (untraced and
#: traced each run this many, so the two are comparable).
SERVE_TRACE_OPS = 400


@dataclass(frozen=True)
class JoinWorkload:
    name: str
    tokenizer: Callable
    n: int
    predicate: Callable
    algorithm: str
    oracle: str
    workers: int = 0  # 0: serial similarity_join
    options: dict = field(default_factory=dict)

    def run_join(self, dataset, predicate):
        if self.workers:
            return parallel_join(
                dataset, predicate, algorithm=self.algorithm,
                workers=self.workers, **self.options,
            )
        return similarity_join(
            dataset, predicate, algorithm=self.algorithm, **self.options
        )


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    n: int
    predicate: Callable
    shards: int


WORKLOADS = {
    w.name: w
    for w in (
        JoinWorkload(
            "cite3g-cluster", tokenize_qgrams, 2000,
            lambda: JaccardPredicate(0.7), "probe-cluster", "positional-filter",
        ),
        JoinWorkload(
            "words-ppjoin", tokenize_words, 8000,
            lambda: JaccardPredicate(0.6), "positional-filter", "probe-count-sort",
        ),
        JoinWorkload(
            "words-optmerge-mmap-par2", tokenize_words, 4000,
            lambda: OverlapPredicate(15), "probe-count-optmerge", "positional-filter",
            workers=2, options={"index_backend": "mmap"},
        ),
        ServeWorkload("serve-words-mixed", 8000, lambda: JaccardPredicate(0.7), 2),
    )
}


@dataclass
class Outcome:
    """One run's result: operation counts, metrics and a detail record."""

    attempted: int
    failed: int
    wrong: int
    metrics: dict[str, float]
    samples: dict[str, int]
    detail: dict = field(default_factory=dict)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    workload = WORKLOADS[name]
    if trace:
        if isinstance(workload, ServeWorkload):
            return _serve_traced(workload, seed, out_dir)
        return _join_traced(workload, seed, out_dir)
    # Untraced times are scaled by the host speed sampled while they ran.
    with HostSpeed() as host:
        if isinstance(workload, ServeWorkload):
            return _serve(workload, seed, seconds, host)
        return _join(workload, seed, seconds, host)


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (the largest value for small samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest
    reaped child's peak: an upper bound on the resident memory of a
    join whose forked workers run at once (pages shared after the fork
    count in each worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


# ----------------------------------------------------------------------
# Join workloads
# ----------------------------------------------------------------------


def _tokenize(workload: JoinWorkload, texts, windows: list[tuple[float, float]]):
    """The set-up step: tokenize ``texts`` into a ``Dataset``; appends
    its ``(start, end)`` to ``windows``."""
    gc.collect()
    start = perf_counter()
    dataset = Dataset.from_texts(texts, workload.tokenizer)
    windows.append((start, perf_counter()))
    return dataset


def _check_joins(workload, dataset, predicate, answers) -> tuple[list[int], list[str]]:
    """The positions of the pair lists that differ from the oracle
    route's, and what differs."""
    expected = join_answer(
        similarity_join(dataset, predicate, algorithm=workload.oracle).pairs
    )
    wrong = []
    notes = []
    for position, pairs in enumerate(answers):
        mismatch = compare(join_answer(pairs), expected, WEIGHT_EPS)
        if mismatch:
            wrong.append(position)
            notes.append(mismatch.describe())
    return wrong, notes


def _join(workload: JoinWorkload, seed: int, seconds: float, host: HostSpeed) -> Outcome:
    texts = citation_texts(workload.n, seed)
    predicate = workload.predicate()
    setups: list[tuple[float, float]] = []
    joins: list[tuple[float, float]] = []  # completed joins
    busy: list[tuple[float, float]] = []  # every join call
    answers: list[list] = []
    errors: list[str] = []
    # One untimed warm-up join, so the process's cold start (first-touch
    # memory, the first workers' start) lands in no timed join. Its
    # answer is checked like the others.
    dataset = _tokenize(workload, texts, [])
    try:
        answers.append(workload.run_join(dataset, predicate).pairs)
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        errors.append(f"warm-up {type(exc).__name__}: {exc}")
    warm = len(answers)
    loop_start = perf_counter()
    while True:
        # Set-up is repeated before every join rather than only at the
        # start, so its samples see the same machine as the joins'.
        round_start = perf_counter()
        for _ in range(JOIN_SETUP_REPEATS):
            dataset = _tokenize(workload, texts, setups)
        start = perf_counter()
        try:
            result = workload.run_join(dataset, predicate)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            joins.append((start, perf_counter()))
            answers.append(result.pairs)
            del result
        now = perf_counter()
        busy.append((start, now))
        # Start another round only if it should end inside the run.
        if now - loop_start + (now - round_start) > seconds:
            break
    scale = HostScale(host.samples())
    rss = peak_rss_mb(workload.workers)
    wrong, notes = _check_joins(workload, dataset, predicate, answers)
    attempted = len(answers) + len(errors)
    failed = len(errors) + len(wrong)
    timed_ok = len(joins) - sum(1 for position in wrong if position >= warm)
    busy_s = sum(scale.scale(*window) for window in busy)
    durations = [scale.scale(*window) for window in joins]
    durations = durations or [busy_s]  # every join failed: correct is false
    metrics = {
        "join_s": statistics.median(durations),
        "setup_s": statistics.median(scale.scale(*window) for window in setups),
        "peak_rss_mb": rss,
        "ok_frac": (attempted - failed) / attempted,
        "query_p50_ms": statistics.median(durations) * 1000.0,
        "query_p99_ms": percentile(durations, 99) * 1000.0,
        "serve_qps": timed_ok / busy_s,
    }
    return Outcome(
        attempted, failed, len(wrong), metrics,
        samples={"joins": len(joins), "warm_up_joins": 1, "setups": len(setups)},
        detail={"join_s_all": durations,
                "wall_join_s_all": [end - start for start, end in joins],
                "wall_setup_s_all": [end - start for start, end in setups],
                "host_factor_per_join": [scale.factor(*window) for window in joins],
                "errors": errors[:5], "mismatches": notes[:5]},
    )


def _join_traced(workload: JoinWorkload, seed: int, out_dir: str) -> Outcome:
    dataset = _tokenize(workload, citation_texts(workload.n, seed), [])
    predicate = workload.predicate()
    # A warm-up join first, so the cold start of the process does not
    # land on the untraced side of ``trace.overhead_s``.
    workload.run_join(dataset, predicate)
    gc.collect()
    start = perf_counter()
    untraced = workload.run_join(dataset, predicate)
    untraced_s = perf_counter() - start
    ratio = 0.0
    if workload.workers:
        serial = similarity_join(
            dataset, predicate, algorithm=workload.algorithm, **workload.options
        )
        ratio = untraced.counters.index_entries / max(1, serial.counters.index_entries)
        del serial

    tracer = Tracer()
    restore = layers.install(tracer, out_dir)
    try:
        gc.collect()
        start = perf_counter()
        with tracer.span("api.join"):
            traced = workload.run_join(dataset, predicate)
        traced_s = perf_counter() - start
    finally:
        restore()
    workers_seen = layers.collect_shards(tracer, out_dir)

    answers = [untraced.pairs, traced.pairs]
    wrong, notes = _check_joins(workload, dataset, predicate, answers)
    wrong = len(wrong)
    errors = []
    if workers_seen != workload.workers:
        # A worker killed before it wrote its spans: its layers are
        # missing from the per-layer figures.
        errors.append(f"span files from {workers_seen} of {workload.workers} workers")
    metrics = layers.layer_metrics(
        tracer.spans, tracer.counts, traced_s - untraced_s, ratio
    )
    return Outcome(
        2, wrong + len(errors), wrong, metrics,
        samples={"traced_joins": 1, "worker_span_files": workers_seen},
        detail={"untraced_join_s": untraced_s, "traced_join_s": traced_s,
                "errors": errors, "mismatches": notes[:5], "tracer": tracer},
    )


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------


@dataclass
class _Op:
    kind: str
    index: int
    start: float
    end: float
    ok: bool
    answer: dict | None = None
    error: str | None = None


def _serve_setup(workload, inputs, repeats: int, tokenizer=tokenize_words):
    """Construct, start and pre-load the server ``repeats`` times;
    returns the last one, still running, and each build's
    ``(start, end)``."""
    windows = []
    server = None
    for _ in range(repeats):
        if server is not None:
            server.stop()
            server = None
        gc.collect()
        start = perf_counter()
        server = ShardedIndexServer(
            workload.predicate(), shards=workload.shards, tokenizer=tokenizer
        )
        server.start()
        server.extend(inputs.indexed)
        windows.append((start, perf_counter()))
    return server, windows


def closed_loop(server, inputs, seconds=None, max_ops=None, tracer=None):
    """``SERVE_CLIENTS`` threads, each sending its next operation only
    after the previous reply; stops after ``seconds`` or ``max_ops``.

    Returns the completed operations and the loop's wall time.
    """
    lock = threading.Lock()
    cursor = [0]
    done: list[_Op] = []
    ops = inputs.ops
    loop_start = perf_counter()
    stop_at = None if seconds is None else loop_start + seconds

    def client():
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if (max_ops is not None and i >= max_ops) or (
                stop_at is not None and perf_counter() >= stop_at
            ):
                return
            kind, index = ops[i % len(ops)]
            text = inputs.queries[index] if kind == "query" else inputs.adds[index]
            if tracer is not None:
                # A fresh object, so the request id can be found by
                # identity on the shard threads.
                text = (" " + text)[1:]
                tracer.request_of_item[id(text)] = i
            op = _Op(kind, index, perf_counter(), 0.0, False)
            try:
                if tracer is not None:
                    with tracer.span(f"serving.{kind}", request=i):
                        answer = _send(server, kind, text)
                else:
                    answer = _send(server, kind, text)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                op.error = f"{type(exc).__name__}: {exc}"
            else:
                op.ok = True
                op.answer = answer
            op.end = perf_counter()
            if tracer is not None:
                tracer.request_of_item.pop(id(text), None)
            with lock:
                done.append(op)

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done, perf_counter() - loop_start


def _send(server, kind: str, text: str):
    """An add's answer is the rid the server gave the record."""
    if kind == "add":
        return server.add(text)
    result = server.query(text, timeout=60.0)
    if result.partial:
        raise RuntimeError(f"partial result: shards {result.shards_failed} lost")
    return query_answer(result.matches)


def _check_queries(workload, inputs, done: list[_Op]) -> tuple[int, list[str]]:
    """Check every answered query against an unsharded index over the
    indexed records (no add can match a query, see ``serve_inputs``)."""
    asked = sorted({op.index for op in done if op.kind == "query" and op.ok})
    oracle = SimilarityIndex(workload.predicate(), tokenizer=tokenize_words)
    for text in inputs.indexed:
        oracle.add(text)
    expected = dict(
        zip(asked, map(query_answer, oracle.query_batch([inputs.queries[i] for i in asked])))
    )
    wrong = 0
    notes = []
    for op in done:
        if op.kind == "query" and op.ok:
            mismatch = compare(op.answer, expected[op.index], WEIGHT_EPS)
            if mismatch:
                wrong += 1
                notes.append(f"query {op.index}: {mismatch.describe()}")
    return wrong, notes


def _check_adds(server, workload, inputs, done: list[_Op]) -> tuple[int, list[str]]:
    """Check, on the still-running ``server``, that every completed add
    was indexed: the server holds the pre-loaded records plus one per
    add, and each added text queried back finds its own rid at
    similarity 1. A size off by ``k`` counts ``k`` failures."""
    added = [op for op in done if op.kind == "add" and op.ok]
    wrong = abs(len(server) - (workload.n + len(added)))
    notes = []
    if wrong:
        notes.append(f"server holds {len(server)} records,"
                     f" expected {workload.n} + {len(added)} adds")
    rids_of: dict[int, list[int]] = {}
    for op in added:
        rids_of.setdefault(op.index, []).append(op.answer)
    for index, rids in sorted(rids_of.items()):
        try:
            result = server.query(inputs.adds[index], timeout=60.0)
            found = dict(query_answer(result.matches))
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            found = {}
            notes.append(f"add {index}: query back raised {type(exc).__name__}: {exc}")
        for rid in rids:
            if rid not in found or abs(found[rid] - 1.0) > WEIGHT_EPS:
                wrong += 1
                notes.append(f"add {index}: rid {rid} not found at similarity 1")
    return wrong, notes


def _blocks(done: list[_Op], loop_start: float) -> list[tuple[float, float]]:
    """``(start, end)`` of each full block of ``SERVE_BLOCK_OPS``
    completions."""
    ends = sorted(op.end for op in done if op.ok)
    marks = [loop_start] + ends[SERVE_BLOCK_OPS - 1 :: SERVE_BLOCK_OPS]
    return list(zip(marks, marks[1:]))


def _median_block_s(done: list[_Op], loop_start: float) -> float:
    return statistics.median(end - start for start, end in _blocks(done, loop_start))


def _serve(workload: ServeWorkload, seed: int, seconds: float, host: HostSpeed) -> Outcome:
    inputs = serve_inputs(seed, tokenize_words, n_indexed=workload.n)
    server, setups = _serve_setup(workload, inputs, SERVE_SETUP_REPEATS)
    try:
        gc.collect()
        loop_start = perf_counter()
        done, _ = closed_loop(server, inputs, seconds=seconds)
        loop_end = perf_counter()
        scale = HostScale(host.samples())
        wrong, notes = _check_adds(server, workload, inputs, done)
    finally:
        server.stop()
    rss = peak_rss_mb(0)
    query_wrong, query_notes = _check_queries(workload, inputs, done)
    wrong += query_wrong
    notes += query_notes
    attempted = len(done)
    failed = min(attempted, sum(1 for op in done if not op.ok) + wrong)
    serve_s = scale.scale(loop_start, loop_end)
    latencies = [scale.scale(op.start, op.end) for op in done if op.kind == "query" and op.ok]
    latencies = latencies or [serve_s]  # every query failed: correct is false
    blocks = [scale.scale(*window) for window in _blocks(done, loop_start)] or [serve_s]
    completed = sum(1 for op in done if op.ok)
    metrics = {
        "join_s": statistics.median(blocks),
        "setup_s": statistics.median(scale.scale(*window) for window in setups),
        "peak_rss_mb": rss,
        "ok_frac": (attempted - failed) / attempted,
        "query_p50_ms": statistics.median(latencies) * 1000.0,
        "query_p99_ms": percentile(latencies, 99) * 1000.0,
        "serve_qps": completed / serve_s,
    }
    return Outcome(
        attempted, failed, wrong, metrics,
        samples={"queries": len(latencies), "ops": attempted,
                 "blocks": len(blocks), "setups": len(setups)},
        detail={"setup_s_all": [scale.scale(*window) for window in setups],
                "block_s_all": blocks,
                "wall_serve_s": loop_end - loop_start,
                "host_factor": scale.factor(loop_start, loop_end),
                "adds": sum(1 for op in done if op.kind == "add"),
                "errors": [op.error for op in done if op.error][:5],
                "mismatches": notes[:5]},
    )


def _serve_traced(workload: ServeWorkload, seed: int, out_dir: str) -> Outcome:
    inputs = serve_inputs(seed, tokenize_words, n_indexed=workload.n)
    server, _ = _serve_setup(workload, inputs, 1)
    try:
        loop_start = perf_counter()
        untraced, _ = closed_loop(server, inputs, max_ops=SERVE_TRACE_OPS)
        wrong, notes = _check_adds(server, workload, inputs, untraced)
    finally:
        server.stop()
    untraced_block = _median_block_s(untraced, loop_start)

    tracer = Tracer()
    restore = layers.install(tracer, out_dir)
    try:
        tokenizer = tracer.wrap(tokenize_words, "text.tokenize")
        server, _ = _serve_setup(workload, inputs, 1, tokenizer=tokenizer)
        try:
            loop_start = perf_counter()
            traced, _ = closed_loop(server, inputs, max_ops=SERVE_TRACE_OPS, tracer=tracer)
            # The check's own calls stay out of the per-layer figures.
            mark = tracer.mark()
            traced_wrong, traced_notes = _check_adds(server, workload, inputs, traced)
            tracer.rewind(mark)
        finally:
            server.stop()
    finally:
        restore()
    traced_block = _median_block_s(traced, loop_start)

    done = untraced + traced
    query_wrong, query_notes = _check_queries(workload, inputs, done)
    wrong += traced_wrong + query_wrong
    notes += traced_notes + query_notes
    failed = min(len(done), sum(1 for op in done if not op.ok) + wrong)
    metrics = layers.layer_metrics(tracer.spans, tracer.counts, traced_block - untraced_block)
    return Outcome(
        len(done), failed, wrong, metrics,
        samples={"untraced_ops": len(untraced), "traced_ops": len(traced)},
        detail={"untraced_block_s": untraced_block, "traced_block_s": traced_block,
                "errors": [op.error for op in done if op.error][:5],
                "mismatches": notes[:5], "tracer": tracer},
    )
