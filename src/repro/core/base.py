"""Common driver machinery shared by every join algorithm.

A :class:`SetJoinAlgorithm` performs an exact similarity self-join of a
:class:`~repro.core.records.Dataset` under a
:class:`~repro.predicates.SimilarityPredicate`. Candidate generation
differs per algorithm; the final decision for every emitted pair is
always :meth:`BoundPredicate.verify`, so all algorithms (including the
naive baseline) agree exactly on the output set.

``join_between`` implements the non-self join ("the extension to
non-self-joins is obvious", §2) through the same driver: a two-pass
Probe-Count run over the concatenation of both sides that indexes only
the right side and probes only with the left.

Runtime hardening lives here so every algorithm inherits it. ``join``
accepts an optional :class:`~repro.runtime.context.JoinContext`; the
:meth:`_drive` / :meth:`_tick` helpers run its record-granularity
checks (deadline, cancellation, memory budget) inside each algorithm's
scan loop, handle checkpoint writes and resume-replay, and — when the
memory budget trips under the default policy — degrade the join to the
budget-respecting ClusterMem algorithm instead of dying.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

from repro.core.accumulator import (
    ScoreAccumulator,
    accumulate_merge,
    accumulate_merge_opt,
    resolve_merge_backend,
    use_accumulator,
)
from repro.core.heap_merge import heap_merge
from repro.core.merge_opt import merge_opt
from repro.core.records import Dataset
from repro.core.results import JoinResult, MatchPair
from repro.filters.bitmap import resolve_bitmap_filter
from repro.filters.pruner import BitmapPruner
from repro.predicates.base import WEIGHT_EPS, BoundPredicate, SimilarityPredicate
from repro.runtime.errors import JoinInterrupted, MemoryBudgetExceeded
from repro.utils.counters import CostCounters

__all__ = ["SetJoinAlgorithm", "merge_opt_lists"]


class SetJoinAlgorithm(ABC):
    """Base class: timing, binding, verification, non-self joins, and
    the hardened-runtime driver (deadline/cancel/memory checks,
    checkpoint/resume, graceful degradation)."""

    name: str = "abstract"

    #: Algorithms that structurally honour a memory budget (ClusterMem)
    #: set this True; the context then skips the runtime memory check,
    #: whose cumulative insert counters would misfire on them.
    respects_memory_budget: bool = False

    #: Bitmap candidate filter knob (:mod:`repro.filters`): ``None``/
    #: ``False`` off, ``True`` defaults, an int width, or a
    #: :class:`~repro.filters.BitmapFilterConfig`. Set via
    #: ``make_algorithm(..., bitmap_filter=...)`` so it flows through
    #: ``similarity_join`` and the parallel workers' algorithm specs
    #: without touching any ``join()`` signature. The filter is sound
    #: (see ``repro/filters/adapters.py``): the emitted pair set is
    #: identical with it on or off.
    bitmap_filter = None

    #: Merge-backend knob (:mod:`repro.core.accumulator`): ``"heap"``
    #: forces the classic frontier-heap merge, ``"accumulator"`` the
    #: ScanCount-style score accumulator, and ``"auto"`` (default)
    #: picks per probe from the lists' total entry count. Set via
    #: ``make_algorithm(..., merge_backend=...)`` — like
    #: ``bitmap_filter`` it is an instance attribute, so it flows
    #: through ``similarity_join``, the parallel workers' algorithm
    #: specs, and the CLI without touching ``join()`` signatures.
    #: Candidate sets are pair-for-pair identical across backends.
    merge_backend: str = "auto"

    #: Index-backend knob (:mod:`repro.storage.mmap_index`):
    #: ``"memory"`` (default) builds the in-RAM
    #: :class:`~repro.core.inverted_index.ScoredInvertedIndex`;
    #: ``"mmap"`` lands the build pass in a write-once columnar file and
    #: probes it zero-copy through the mapping, so resident memory is
    #: the token directory plus touched postings instead of the full
    #: index; ``"mmap-varbyte"`` writes the same file with the id
    #: columns varbyte-gap-compressed into skip blocks (smaller file,
    #: per-block decode on access). Set via
    #: ``make_algorithm(..., index_backend=...)`` — the
    #: same instance-attribute pattern as ``bitmap_filter`` and
    #: ``merge_backend``, so it flows through ``similarity_join``, the
    #: parallel workers' algorithm specs, and the CLI unchanged. Only
    #: two-pass builds can use it (``join()`` raises a clear error
    #: otherwise); pairs are bit-identical across backends.
    index_backend: str = "memory"

    #: Optional explicit file path for the mapped index; ``None`` uses a
    #: ``mkstemp`` temp file removed when the join finishes.
    index_path: str | None = None

    # Per-run merge state: the resolved backend string and the dense
    # accumulator buffer, armed by the driver and shared by
    # every probe of one execution via _merge_lists/_merge_opt_lists.
    _merge_mode: str | None = None
    _accumulator: ScoreAccumulator | None = None

    # Shard window over the driven scan, set by set_shard_window() and
    # consumed by _drive(). Positions before the window are replayed
    # (state rebuilt, no pair emission, same as checkpoint replay);
    # positions past the window end the scan. The parallel engine gives
    # each worker a disjoint window, so the shard pair sets partition
    # the serial pair set exactly.
    _shard_lo: int = 0
    _shard_hi: int | None = None

    # Per-run driver state, installed by join() for the duration of one
    # execution and consumed by _drive()/_tick().
    _context = None
    _checkpointer = None
    _checkpoint_meta: dict | None = None
    _resume_position: int = -1
    _restored_pairs: list[MatchPair] = []
    _bitmap = None
    #: R–S split of the driven dataset, set by join_between() for one
    #: execution: records ``[0, _between)`` are the probe (left) side,
    #: ``[_between, n)`` the index (right) side. ``None`` for self-joins.
    _between: int | None = None

    def join(
        self,
        dataset: Dataset,
        predicate: SimilarityPredicate,
        context=None,
    ) -> JoinResult:
        """Exact similarity self-join; pairs are canonical (a < b).

        Args:
            dataset: the tokenized records.
            predicate: the join condition.
            context: optional :class:`~repro.runtime.context.JoinContext`
                carrying a deadline, cancellation token, memory budget,
                and/or checkpointer. Interruptions raise the structured
                errors of :mod:`repro.runtime.errors`; with a
                checkpointer attached, progress is flushed first so the
                invocation can be resumed.
        """
        return self._execute(dataset, predicate, context)

    def _execute(
        self,
        dataset: Dataset,
        predicate: SimilarityPredicate,
        context,
        between: int | None = None,
    ) -> JoinResult:
        """One driven run of :meth:`_run`; ``between`` is the R–S split
        (see :attr:`_between`), ``None`` for a self-join."""
        self._check_index_backend()
        bound = predicate.bind(dataset)
        counters = CostCounters()
        restored = self._install_runtime(
            dataset, predicate, context, counters, between
        )
        self._arm_merge_backend(len(dataset))
        config = resolve_bitmap_filter(self.bitmap_filter)
        if config is not None:
            self._bitmap = BitmapPruner.for_join(bound, config, counters)
        if context is not None:
            context.start()
        start = time.perf_counter()
        degraded_from = None
        degradation_reason = None
        try:
            try:
                pairs = restored + self._run(dataset, bound, counters)
            except MemoryBudgetExceeded as exc:
                if context is None or context.on_memory_exceeded != "degrade":
                    raise
                pairs = self._degraded_fallback(dataset, predicate, context, counters)
                degraded_from = self.name
                degradation_reason = str(exc)
        finally:
            self._uninstall_runtime()
        if context is not None and context.checkpointer is not None:
            context.checkpointer.clear()
        elapsed = time.perf_counter() - start
        counters.pairs_output = len(pairs)
        return JoinResult(
            pairs=pairs,
            algorithm=self.name,
            predicate=predicate.name,
            counters=counters,
            elapsed_seconds=elapsed,
            degraded_from=degraded_from,
            degradation_reason=degradation_reason,
        )

    @abstractmethod
    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        """Produce the verified match pairs."""

    def set_shard_window(self, lo: int, hi: int | None) -> None:
        """Restrict pair emission to scan positions ``[lo, hi)``.

        Positions before ``lo`` are processed in replay mode — all state
        (index inserts, cluster assignment) is rebuilt deterministically
        but no pairs are emitted; positions at or past ``hi`` are not
        scanned at all. Emitted pairs are exactly those the serial run
        emits at positions inside the window, so disjoint windows
        partition the serial pair set. Used by
        :func:`repro.parallel.parallel_join`; ``(0, None)`` restores the
        unsharded behaviour.
        """
        if lo < 0:
            raise ValueError(f"shard window start must be >= 0, got {lo}")
        if hi is not None and hi < lo:
            raise ValueError(f"shard window end {hi} precedes start {lo}")
        self._shard_lo = lo
        self._shard_hi = hi

    # ------------------------------------------------------------------
    # Hardened-runtime driver
    # ------------------------------------------------------------------

    def _install_runtime(
        self,
        dataset: Dataset,
        predicate,
        context,
        counters: CostCounters,
        between: int | None = None,
    ) -> list[MatchPair]:
        """Arm the per-run driver state; returns pairs restored from a
        checkpoint (empty when starting fresh)."""
        self._context = context
        self._between = between
        self._checkpointer = None
        self._checkpoint_meta = None
        self._resume_position = -1
        self._restored_pairs = []
        if context is None or context.checkpointer is None:
            return []
        from repro.runtime.checkpoint import dataset_fingerprint

        checkpointer = context.checkpointer
        # An R–S run over the same concatenation is a different join per
        # split point, so the split is part of the invocation identity.
        algorithm = self.name if between is None else f"{self.name}/between@{between}"
        meta = {
            "algorithm": algorithm,
            "predicate": predicate.name,
            "fingerprint": dataset_fingerprint(dataset),
            "n_records": len(dataset),
        }
        self._checkpointer = checkpointer
        self._checkpoint_meta = meta
        state = checkpointer.load()
        if state is None:
            return []
        checkpointer.validate(state, **meta)
        self._resume_position = state.position
        self._restored_pairs = state.match_pairs()
        counters.merge(state.cost_counters())
        return list(self._restored_pairs)

    def _uninstall_runtime(self) -> None:
        self._context = None
        self._between = None
        self._checkpointer = None
        self._checkpoint_meta = None
        self._resume_position = -1
        self._restored_pairs = []
        self._bitmap = None
        self._merge_mode = None
        self._accumulator = None

    def _tick(self, counters: CostCounters) -> None:
        """Record-granularity runtime check (no checkpoint handling).

        For state-building loops that emit no pairs (index construction,
        ClusterMem phase 1): an interruption here leaves any existing
        checkpoint untouched — replay is idempotent, so the previous
        checkpoint stays valid.
        """
        if self._context is not None:
            self._context.tick(
                counters, check_memory=not self.respects_memory_budget
            )

    def _drive(self, order, counters: CostCounters, pairs: list[MatchPair]):
        """The shared scan loop: yields ``(position, rid, replay)``.

        Wraps each algorithm's pair-emitting record loop with the full
        runtime protocol:

        * runs :meth:`_tick` before each record;
        * yields ``replay=True`` for positions already covered by a
          restored checkpoint — the algorithm must rebuild its state
          (index inserts, cluster assignment) for them but skip pair
          emission, which the checkpoint already holds;
        * checkpoints after every ``interval_records`` completed
          positions, and flushes a final checkpoint when a deadline,
          cancellation, or (strict-mode) memory trip interrupts the
          scan, so the invocation is resumable.

        ``pairs`` must be the same list object the algorithm appends
        emitted pairs to.
        """
        context = self._context
        checkpointer = self._checkpointer
        resume_position = self._resume_position
        shard_lo = self._shard_lo
        shard_hi = self._shard_hi
        for position, rid in enumerate(order):
            if shard_hi is not None and position >= shard_hi:
                return
            if context is not None:
                try:
                    context.tick(
                        counters, check_memory=not self.respects_memory_budget
                    )
                except (JoinInterrupted, MemoryBudgetExceeded):
                    self._flush_checkpoint(position - 1, counters, pairs)
                    raise
            replay = position <= resume_position or position < shard_lo
            yield position, rid, replay
            if (
                checkpointer is not None
                and not replay
                and checkpointer.due(position)
            ):
                self._flush_checkpoint(position, counters, pairs)

    def _flush_checkpoint(
        self, position: int, counters: CostCounters, pairs: list[MatchPair]
    ) -> None:
        """Persist progress through ``position`` (no-op when it would
        lose ground against the restored checkpoint)."""
        if self._checkpointer is None or position < 0:
            return
        if position <= self._resume_position:
            return  # interrupted mid-replay: the old checkpoint stands
        counters.checkpoint_writes += 1
        self._checkpointer.write(
            position=position,
            pairs=self._restored_pairs + pairs,
            counters=counters,
            **self._checkpoint_meta,
        )

    def _degraded_fallback(
        self, dataset: Dataset, predicate, context, counters: CostCounters
    ) -> list[MatchPair]:
        """Finish the join under the memory budget via ClusterMem.

        The partial run's pairs are discarded (ClusterMem re-derives the
        complete set exactly); its work counters are kept, so the final
        counters account for everything actually performed.
        """
        from repro.core.cluster_mem import ClusterMemJoin, MemoryBudget

        fallback = ClusterMemJoin(MemoryBudget(context.memory_budget_entries))
        fallback.bitmap_filter = self.bitmap_filter
        result = fallback.join(
            dataset, predicate, context=context.for_degraded_run()
        )
        counters.merge(result.counters)
        counters.extra["degradations"] = counters.extra.get("degradations", 0) + 1
        return result.pairs

    # ------------------------------------------------------------------
    # Index-backend dispatch
    # ------------------------------------------------------------------

    def _supports_index_backend(self, backend: str) -> bool:
        """Whether this algorithm can honour a non-default index backend.

        The mapped index is write-once, so only algorithms with a
        separate full build pass can use it; overriders (Probe-Count's
        two-pass variants) return True for ``"mmap"`` and
        ``"mmap-varbyte"``.
        """
        return False

    def _check_index_backend(self) -> None:
        from repro.storage.mmap_index import resolve_index_backend

        backend = resolve_index_backend(self.index_backend)
        if backend != "memory" and not self._supports_index_backend(backend):
            raise ValueError(
                f"algorithm {self.name!r} does not support"
                f" index_backend={backend!r}: the write-once mapped index"
                " (mmap or mmap-varbyte) needs a two-pass build (use"
                " probe-count, probe-count-optmerge, or"
                " probe-count-stopwords)"
            )

    # ------------------------------------------------------------------
    # Merge-backend dispatch
    # ------------------------------------------------------------------

    def _arm_merge_backend(self, n_entities: int) -> None:
        """Resolve the knob and size the dense buffer for one execution.

        ``n_entities`` is the entity-id bound: record ids, processing
        positions and cluster ids are all below the record count, so
        one buffer of that size serves every probe of the join. Ids
        outside it (never the case for the built-in drivers) fall back
        to the sparse path inside the accumulator.
        """
        self._merge_mode = resolve_merge_backend(self.merge_backend)
        if self._merge_mode != "heap" and n_entities > 0:
            self._accumulator = ScoreAccumulator(n_entities)

    def _merge_mode_of(self) -> str:
        # Resolved at arm time; algorithms driven outside join() (unit
        # tests calling _run directly) resolve lazily and run sparse.
        mode = self._merge_mode
        if mode is None:
            mode = resolve_merge_backend(self.merge_backend)
        return mode

    def _merge_lists(self, lists, limits, counters):
        """Backend-dispatched ``heap_merge``-contract merge."""
        if use_accumulator(self._merge_mode_of(), lists):
            return accumulate_merge(lists, limits, counters, self._accumulator)
        return heap_merge(lists, limits, counters)

    def _merge_opt_lists(self, lists, index_threshold, limits, counters):
        """Backend-dispatched ``merge_opt``-contract merge."""
        return merge_opt_lists(
            self._merge_mode_of(), lists, index_threshold, limits, counters,
            self._accumulator,
        )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _verify_pair(
        self,
        bound: BoundPredicate,
        rid_a: int,
        rid_b: int,
        counters: CostCounters,
        out: list[MatchPair],
    ) -> bool:
        """Run exact verification and emit the pair if it matches.

        With the bitmap filter armed (``bitmap_filter=`` knob), pairs
        whose popcount weight cap provably cannot reach the threshold
        are rejected first; those count as ``bitmap_checks``/
        ``bitmap_rejects``, never as ``pairs_verified`` — that counter
        keeps meaning "exact verifications performed".

        When the bound predicate supports it, a 64-bit word-signature
        prefilter (Bloom-style OR of token bits) rejects pairs sharing
        no tokens without computing the full match weight — sound
        whenever the pair threshold is positive, because zero common
        tokens means zero match weight. ``pairs_verified`` counts the
        pair either way, so work counters stay comparable.
        """
        bitmap = self._bitmap
        if bitmap is not None and bitmap.rejects(rid_a, rid_b, counters):
            return False
        counters.pairs_verified += 1
        if (
            bound.use_signature_prefilter
            and not bound.signature(rid_a) & bound.signature(rid_b)
            and bound.threshold(bound.norm(rid_a), bound.norm(rid_b)) > WEIGHT_EPS
        ):
            extra = counters.extra
            extra["signature_skips"] = extra.get("signature_skips", 0) + 1
            return False
        ok, similarity = bound.verify(rid_a, rid_b)
        if ok:
            out.append(MatchPair.make(rid_a, rid_b, similarity))
        return ok

    def join_between(
        self,
        left: Dataset,
        right: Dataset,
        predicate: SimilarityPredicate,
        context=None,
    ) -> JoinResult:
        """Non-self join: index ``right``, probe with ``left``.

        Returned pairs use ``rid_a`` = left RID and ``rid_b`` = right RID
        (both in their own dataset's numbering; ``rid_a < rid_b`` is not
        enforced here since the id spaces differ).

        Runs through the same driver as :meth:`join` over the
        concatenation ``left + right`` (see :meth:`_between_runner`), so
        the merge, index and bitmap knobs and the runtime checks of
        ``context`` apply. Only cross pairs are returned — also when a
        memory-budget trip degrades the run to ClusterMem.
        """
        self._check_index_backend()
        if left.vocabulary is not None and left.vocabulary is not right.vocabulary:
            raise ValueError(
                "join_between needs both datasets built over the same vocabulary"
                " object (pass vocabulary= when constructing the second one)"
            )
        combined_payloads = None
        if left.payloads is not None and right.payloads is not None:
            combined_payloads = list(left.payloads) + list(right.payloads)
        combined = Dataset(
            list(left.records) + list(right.records),
            vocabulary=left.vocabulary,
            payloads=combined_payloads,
        )
        offset = len(left)
        runner = self._between_runner()
        result = runner._execute(combined, predicate, context, between=offset)
        result.pairs = [
            MatchPair(pair.rid_a, pair.rid_b - offset, pair.similarity)
            for pair in result.pairs
            if pair.rid_a < offset <= pair.rid_b
        ]
        result.counters.pairs_output = len(result.pairs)
        result.algorithm = f"{self.name}/between"
        return result

    def _between_runner(self) -> "SetJoinAlgorithm":
        """The algorithm that runs this instance's R–S join.

        Only Probe-Count's two-pass variants read :attr:`_between` (they
        return themselves). Every other algorithm hands its R–S join to
        a MergeOpt two-pass run with the same bitmap and merge knobs,
        which indexes only the right side and keeps score weights.
        """
        from repro.core.probe_count import ProbeCountJoin

        runner = ProbeCountJoin("optmerge")
        runner.bitmap_filter = self.bitmap_filter
        runner.merge_backend = self.merge_backend
        return runner


def merge_opt_lists(backend, lists, index_threshold, limits, counters, acc):
    """``merge_opt``-contract merge on the backend ``use_accumulator``
    picks for this probe — the join drivers' and the serving index's
    one dispatch."""
    if use_accumulator(backend, lists):
        return accumulate_merge_opt(lists, index_threshold, limits, counters, acc)
    return merge_opt(lists, index_threshold, limits, counters)
