"""Outside-in layer wrappers for the traced run, and the per-layer
metrics computed from what they record.

:func:`install` swaps timing wrappers onto the public entry points of
each layer (class attributes and the module globals the callers look
up), and returns a function that puts the originals back. Nothing in
``src/`` is edited; the untraced run never calls :func:`install`.

Worker processes of :func:`repro.parallel.parallel_join` are forked, so
they inherit the wrappers. ``repro.parallel.engine.run_shard`` is
wrapped to record each worker's spans under a ``parallel.shard`` span
and write them to ``shard_dir`` before the worker exits;
:func:`collect_shards` merges them back into the parent's tracer.
"""

from __future__ import annotations

import glob
import inspect
import os
import pickle
import statistics
from contextlib import contextmanager
from time import perf_counter

from perfbench.spans import Tracer, summarize

__all__ = ["PER_LAYER", "collect_shards", "install", "layer_metrics"]

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER: dict[str, str] = {
    "predicates.bind_s": "s",
    "predicates.verify_calls": "count",
    "predicates.verify_s": "s",
    "predicates.verify_yield": "ratio",
    "text.tokenize_s": "s",
    "core.inverted_index.insert_calls": "count",
    "core.inverted_index.insert_s": "s",
    "core.inverted_index.probe_lists_s": "s",
    "core.merge.calls": "count",
    "core.merge.s": "s",
    "core.merge.items_touched": "count",
    "core.merge.searches": "count",
    "core.merge.candidates": "count",
    "core.merge.yield": "ratio",
    "core.positional_filter.self_s": "s",
    "core.positional_filter.candidates_checked": "count",
    "core.positional_filter.rejections_position": "count",
    "core.positional_filter.rejections_suffix": "count",
    "core.driver.self_s": "s",
    "storage.mmap_index.build_s": "s",
    "storage.mmap_index.file_bytes": "bytes",
    "parallel.launch_s": "s",
    "parallel.shard_s_max": "s",
    "parallel.shard_s_min": "s",
    "parallel.gather_s": "s",
    "parallel.index_entries_ratio": "ratio",
    "core.service.query_s_p50": "s",
    "core.service.add_s_p50": "s",
    "serving.overhead_ms_p50": "ms",
    "runtime.rwlock.read_wait_ms": "ms",
    "runtime.rwlock.write_wait_ms": "ms",
    "trace.overhead_s": "s",
}


def _arg_getter(fn, name: str):
    """Reads parameter ``name`` of ``fn`` from a call's args/kwargs."""
    position = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return get


def _counter_delta(fn, prefix: str, fields: dict[str, str], tracer: Tracer):
    """``before``/``after`` hooks adding the growth of CostCounters
    ``fields`` (counter name -> metric suffix) during one call."""
    counters_of = _arg_getter(fn, "counters")

    def before(args, kwargs):
        counters = counters_of(args, kwargs)
        return counters, [getattr(counters, f) for f in fields]

    def after(state, _result, _args, _kwargs):
        counters, start = state
        for (field, suffix), value in zip(fields.items(), start):
            tracer.add(f"{prefix}.{suffix}", getattr(counters, field) - value)

    return before, after


def install(tracer: Tracer, shard_dir: str):
    """Wrap every traced layer; returns the undo function."""
    import repro.core.base as base
    import repro.core.service as service
    import repro.parallel.engine as engine
    from repro.core.inverted_index import ScoredInvertedIndex
    from repro.core.positional_filter import PositionalFilterJoin
    from repro.predicates.base import BoundPredicate, SimilarityPredicate
    from repro.runtime.rwlock import RWLock
    from repro.storage.mmap_index import JoinIndexBuilder

    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(owner, attr, name, **hooks):
        patch(owner, attr, tracer.wrap(owner.__dict__[attr], name, **hooks))

    # Algorithm driver and predicates.
    patch_method(base.SetJoinAlgorithm, "join", "core.driver.join")
    for cls in _subclasses(SimilarityPredicate):
        if "bind" in cls.__dict__:
            patch_method(cls, "bind", "predicates.bind")

    def count_match(_state, result, _args, _kwargs):
        if result[0]:
            tracer.add("predicates.verify_matches")

    for cls in [BoundPredicate, *_subclasses(BoundPredicate)]:
        if "verify" in cls.__dict__:
            patch_method(cls, "verify", "predicates.verify", after=count_match)

    # Inverted index.
    patch_method(ScoredInvertedIndex, "insert", "core.inverted_index.insert")
    patch_method(ScoredInvertedIndex, "probe_lists", "core.inverted_index.probe_lists")

    # Merge kernels, where the join driver and the service look them up.
    merge_fields = {"list_items_touched": "items_touched", "binary_searches": "searches"}
    for module, names in (
        (base, ("heap_merge", "merge_opt", "accumulate_merge", "accumulate_merge_opt")),
        (service, ("merge_opt", "accumulate_merge_opt")),
    ):
        for fn_name in names:
            fn = module.__dict__[fn_name]
            before, delta = _counter_delta(fn, "core.merge", merge_fields, tracer)

            def after(state, result, args, kwargs, _delta=delta):
                _delta(state, result, args, kwargs)
                tracer.add("core.merge.candidates", len(result))

            patch(
                module,
                fn_name,
                tracer.wrap(fn, f"core.merge.{fn_name}", before=before, after=after),
            )

    # Position/suffix filter probe.
    probe = PositionalFilterJoin.__dict__["_probe"]
    before, after = _counter_delta(
        probe,
        "core.positional_filter",
        {
            "candidates_checked": "candidates_checked",
            "candidate_rejections_position": "rejections_position",
            "candidate_rejections_suffix": "rejections_suffix",
        },
        tracer,
    )
    patch_method(
        PositionalFilterJoin, "_probe", "core.positional_filter.probe",
        before=before, after=after,
    )

    # Memory-mapped index build.
    def file_bytes(_state, index, _args, _kwargs):
        tracer.add("storage.mmap_index.file_bytes", os.path.getsize(index.path))

    patch_method(JoinIndexBuilder, "insert", "storage.mmap_index.insert")
    patch_method(
        JoinIndexBuilder, "finish", "storage.mmap_index.finish", after=file_bytes
    )

    # Serving index.
    request_of_item = tracer.request_of_item
    patch_method(
        service.SimilarityIndex,
        "query",
        "core.service.query",
        request_of=lambda args, _kwargs: request_of_item.get(id(args[1])),
    )
    patch_method(service.SimilarityIndex, "add", "core.service.add")

    # Reader-writer lock: the span covers the wait until entry.
    for attr, name in (
        ("read_locked", "runtime.rwlock.read_wait"),
        ("write_locked", "runtime.rwlock.write_wait"),
    ):
        patch(RWLock, attr, _timed_entry(RWLock.__dict__[attr], name, tracer))

    # Parallel workers.
    patch(engine, "run_shard", _traced_shard(engine.run_shard, tracer, shard_dir))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _timed_entry(locked, name: str, tracer: Tracer):
    @contextmanager
    def timed(self):
        start = perf_counter()
        with locked(self):
            tracer.record(name, start, perf_counter())
            yield

    return timed


def _traced_shard(run_shard, tracer: Tracer, shard_dir: str):
    def traced_run_shard(spec, queue, cancel_event):
        mark = tracer.mark()
        with tracer.span("parallel.shard"):
            run_shard(spec, queue, cancel_event)
        spans, counts = tracer.since(mark)
        # Writing the spans keeps the worker alive, and the parent waits
        # for it; the write's own start and end follow the spans in the
        # file so that ``parallel.gather_s`` can leave it out.
        path = os.path.join(shard_dir, f"shard-{os.getpid()}.pkl")
        start = perf_counter()
        with open(path + ".tmp", "wb") as handle:
            pickle.dump((spans, counts), handle, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.dump((start, perf_counter()), handle)
        os.replace(path + ".tmp", path)

    return traced_run_shard


def collect_shards(tracer: Tracer, shard_dir: str) -> int:
    """Merge and remove the span files forked workers left, each with a
    ``trace.dump`` span for the time its worker spent writing it;
    returns how many were read."""
    paths = sorted(glob.glob(os.path.join(shard_dir, "shard-*.pkl")))
    for path in paths:
        with open(path, "rb") as handle:
            spans, counts = pickle.load(handle)
            dump_start, dump_end = pickle.load(handle)
        os.remove(path)
        tracer.spans.extend(spans)
        tracer.record("trace.dump", dump_start, dump_end)
        for key, value in counts.items():
            tracer.add(key, value)
    return len(paths)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, counts: dict, trace_overhead_s: float,
                  index_entries_ratio: float = 0.0) -> dict[str, float]:
    """The :data:`PER_LAYER` metrics of one traced section."""
    by_name = summarize(spans)

    def total(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    merges = [name for name in by_name if name.startswith("core.merge.")]
    merge_calls = sum(calls(name) for name in merges)
    touched = counts.get("core.merge.items_touched", 0)
    candidates = counts.get("core.merge.candidates", 0)
    verifies = calls("predicates.verify")

    joins = [s for s in spans if s[1] == "api.join"]
    shards = [s for s in spans if s[1] == "parallel.shard"]
    parallel = {"launch_s": 0.0, "shard_s_max": 0.0, "shard_s_min": 0.0, "gather_s": 0.0}
    if joins and shards:
        call_start, call_end = joins[-1][2], joins[-1][3]
        durations = [end - start for _, _, start, end, _, _ in shards]
        # Gathering starts when the last worker is done, span dump
        # included: the dump is the tracer's time, not the program's.
        last_done = max(s[3] for s in spans if s[1] in ("parallel.shard", "trace.dump"))
        parallel = {
            "launch_s": max(s[2] for s in shards) - call_start,
            "shard_s_max": max(durations),
            "shard_s_min": min(durations),
            "gather_s": call_end - last_done,
        }

    def request_durations(name):
        return [end - start for _, n, start, end, _, req in spans
                if n == name and req is not None]

    longest_probe: dict[int, float] = {}
    for _, name, start, end, _, request in spans:
        if name == "core.service.query" and request is not None:
            longest_probe[request] = max(longest_probe.get(request, 0.0), end - start)
    overhead = [
        (end - start) - longest_probe[request]
        for _, name, start, end, _, request in spans
        if name == "serving.query" and request in longest_probe
    ]

    metrics = {
        "predicates.bind_s": total("predicates.bind"),
        "predicates.verify_calls": verifies,
        "predicates.verify_s": total("predicates.verify"),
        "predicates.verify_yield": (
            counts.get("predicates.verify_matches", 0) / verifies if verifies else 0.0
        ),
        "text.tokenize_s": total("text.tokenize"),
        "core.inverted_index.insert_calls": calls("core.inverted_index.insert"),
        "core.inverted_index.insert_s": total("core.inverted_index.insert"),
        "core.inverted_index.probe_lists_s": total("core.inverted_index.probe_lists"),
        "core.merge.calls": merge_calls,
        "core.merge.s": sum(total(name) for name in merges),
        "core.merge.items_touched": touched,
        "core.merge.searches": counts.get("core.merge.searches", 0),
        "core.merge.candidates": candidates,
        "core.merge.yield": candidates / touched if touched else 0.0,
        "core.positional_filter.self_s": self_s("core.positional_filter.probe"),
        "core.driver.self_s": self_s("core.driver.join"),
        "storage.mmap_index.build_s": (
            total("storage.mmap_index.insert") + total("storage.mmap_index.finish")
        ),
        "storage.mmap_index.file_bytes": counts.get("storage.mmap_index.file_bytes", 0),
        "parallel.index_entries_ratio": index_entries_ratio,
        "core.service.query_s_p50": _median(request_durations("core.service.query")),
        "core.service.add_s_p50": _median(request_durations("core.service.add")),
        "serving.overhead_ms_p50": _median(overhead) * 1000.0,
        "runtime.rwlock.read_wait_ms": total("runtime.rwlock.read_wait") * 1000.0,
        "runtime.rwlock.write_wait_ms": total("runtime.rwlock.write_wait") * 1000.0,
        "trace.overhead_s": trace_overhead_s,
    }
    for suffix in ("candidates_checked", "rejections_position", "rejections_suffix"):
        key = f"core.positional_filter.{suffix}"
        metrics[key] = counts.get(key, 0)
    for key, value in parallel.items():
        metrics[f"parallel.{key}"] = value
    return {name: metrics[name] for name in PER_LAYER}
