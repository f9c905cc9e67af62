"""The Probe-Count family of join algorithms.

Variants, in the order the paper develops them:

* ``basic`` — §2.1: build the full inverted index in one pass, then probe
  it with every record, merging all matching lists with a heap.
* ``stopwords`` — §3.1: ``basic`` with the highest-frequency words
  removed from the index and each record's threshold reduced by the
  weight of the stopwords it contains (candidates are then verified, so
  the join stays exact).
* ``optmerge`` — §3.1: ``basic`` with the heap merge replaced by the
  threshold-sensitive MergeOpt (Algorithm 1 / 3).
* ``online`` — §3.2: single pass; each record probes the *partial* index
  before being inserted, halving the merge work and producing each pair
  exactly once.
* ``sort`` — §3.3 / §5.1.2: ``online`` over records pre-sorted by
  decreasing norm, so heavy records are processed while posting lists
  are short (and, for non-constant thresholds, while ``T(r, I)`` is
  still high).

``ProbeCountJoin(variant=...)`` selects one; results are identical across
variants (tests enforce this), only the work differs.
"""

from __future__ import annotations

from repro.core.base import SetJoinAlgorithm
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.records import Dataset
from repro.core.results import MatchPair
from repro.predicates.base import WEIGHT_EPS, BoundPredicate
from repro.utils.counters import CostCounters

__all__ = ["ProbeCountJoin", "VARIANTS"]

VARIANTS = ("basic", "stopwords", "optmerge", "online", "sort")
#: Variants with a separate full build pass (index first, then probe).
_TWO_PASS = ("basic", "stopwords", "optmerge")


class ProbeCountJoin(SetJoinAlgorithm):
    """Inverted-index probe join (paper §2.1 with the §3.1–§3.3 options).

    Args:
        variant: one of ``basic``, ``stopwords``, ``optmerge``,
            ``online``, ``sort``.
        stopword_budget_fraction: for the ``stopwords`` variant, the
            fraction of the minimum index threshold that the removed
            words' maximum contribution may not exceed; the paper's
            "top T-1 words" rule corresponds to the default 1.0 with
            unit weights.
    """

    def __init__(self, variant: str = "optmerge", stopword_budget_fraction: float = 1.0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        self.variant = variant
        self.stopword_budget_fraction = stopword_budget_fraction
        self.name = f"probe-count-{variant}"

    # ------------------------------------------------------------------

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        if self.variant in _TWO_PASS:
            return self._run_two_pass(dataset, bound, counters)
        return self._run_online(dataset, bound, counters)

    def _supports_index_backend(self, backend: str) -> bool:
        # online/sort insert as they go; the write-once mapped file
        # needs the full build pass the two-pass variants have.
        return backend in ("mmap", "mmap-varbyte") and self.variant in _TWO_PASS

    def _between_runner(self) -> SetJoinAlgorithm:
        if self.variant in _TWO_PASS:
            return self
        return super()._between_runner()

    def _build_full_index(
        self,
        dataset: Dataset,
        bound: BoundPredicate,
        counters: CostCounters,
        keep=None,
        lo: int = 0,
    ):
        """One full build pass over records ``[lo, n)``; returns
        ``(index, dispose)``.

        ``keep`` optionally filters each record's ``(tokens, scores)``
        before insertion (the stopwords variant). Under
        ``index_backend="mmap"`` (or ``"mmap-varbyte"``, which
        gap-compresses the id columns) the pass lands in a write-once
        columnar file probed through the mapping — build inserts are
        not charged to the memory budget (the data leaves RAM); the
        opened index charges its directory plus each posting list on
        first touch instead. ``dispose`` must run when probing is done
        (closes the mapping and removes a temp file).
        """
        if self.index_backend in ("mmap", "mmap-varbyte"):
            from repro.storage.mmap_index import JoinIndexBuilder

            builder = JoinIndexBuilder(
                self.index_path, compressed=self.index_backend == "mmap-varbyte"
            )
            for rid in range(lo, len(dataset)):
                self._tick(counters)
                tokens = dataset[rid]
                scores = bound.cached_score_vector(rid)
                if keep is not None:
                    tokens, scores = keep(tokens, scores)
                builder.insert(rid, tokens, scores, bound.norm(rid))
            index = builder.finish(counters)
            return index, index.dispose
        index = ScoredInvertedIndex()
        for rid in range(lo, len(dataset)):
            self._tick(counters)
            tokens = dataset[rid]
            scores = bound.cached_score_vector(rid)
            if keep is not None:
                tokens, scores = keep(tokens, scores)
            index.insert(rid, tokens, scores, bound.norm(rid), counters)
        # The build phase is over; freeze the columnar postings so the
        # probe phase provably cannot mutate shared lists.
        index.seal()
        return index, _noop_dispose

    # ------------------------------------------------------------------
    # Two-pass variants: basic / optmerge / stopwords (§2.1, §3.1)
    # ------------------------------------------------------------------

    def _run_two_pass(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        """Build the full index, then probe it once per record.

        A self-join indexes and probes every record and emits each pair
        once, as ``sid < rid``. An R–S run (``_between`` set by
        ``join_between``) indexes the right side ``[_between, n)``,
        probes with the left side ``[0, _between)``, and emits every
        verified candidate as ``(rid, sid)``.
        """
        between = self._between
        index_lo = 0 if between is None else between
        probe_hi = len(dataset) if between is None else between
        stopwords = None
        keep = None
        if self.variant == "stopwords":
            stopwords = self._select_stopwords(dataset, bound)
            counters.extra["stopwords"] = len(stopwords)

            def keep(tokens, scores):
                return _split_stopwords(tokens, scores, stopwords)[:2]

        index, dispose = self._build_full_index(
            dataset, bound, counters, keep=keep, lo=index_lo
        )
        try:
            band = bound.band_filter()
            keys = band.keys if band is not None else None
            norms = bound.norm_column()
            pairs: list[MatchPair] = []
            use_optmerge = self.variant == "optmerge"
            for _position, rid, replay in self._drive(
                range(probe_hi), counters, pairs
            ):
                if replay:
                    continue
                counters.probes += 1
                tokens = dataset[rid]
                scores = bound.cached_score_vector(rid)
                cut = 0.0
                if stopwords is not None:
                    tokens, scores, cut = _split_stopwords(tokens, scores, stopwords)
                lists = index.probe_lists(tokens, scores)
                if not lists:
                    continue
                limits = bound.probe_limits(rid, norms, keys, cut)
                if use_optmerge:
                    index_threshold = bound.index_threshold(
                        limits.norm_r, index.min_norm
                    )
                    candidates = self._merge_opt_lists(
                        lists, index_threshold, limits, counters
                    )
                else:
                    candidates = self._merge_lists(lists, limits, counters)
                if between is not None:
                    for sid, _weight in candidates:
                        self._verify_pair(bound, rid, sid, counters, pairs)
                    continue
                for sid, _weight in candidates:
                    # The full index contains rid itself and yields each pair
                    # twice; emit once, in canonical orientation.
                    if sid < rid:
                        self._verify_pair(bound, sid, rid, counters, pairs)
            return pairs
        finally:
            dispose()

    def _select_stopwords(self, dataset: Dataset, bound: BoundPredicate) -> dict[int, float]:
        """Pick the highest-frequency words whose combined maximum
        contribution stays below the smallest possible pair threshold.

        Sound: a pair overlapping *only* on stopwords cannot reach its
        threshold, so every qualifying pair still shares a kept word.
        With unit weights and T-overlap this is exactly "the top T-1
        highest frequency words" of §3.1. Returns token -> max score.
        """
        max_score: dict[int, float] = {}
        min_norm = float("inf")
        for rid in range(len(dataset)):
            scores = bound.cached_score_vector(rid)
            for token, score in zip(dataset[rid], scores):
                if score > max_score.get(token, 0.0):
                    max_score[token] = score
            norm = bound.norm(rid)
            if norm < min_norm:
                min_norm = norm
        if not max_score:
            return {}
        min_threshold = bound.threshold(min_norm, min_norm) * self.stopword_budget_fraction
        by_frequency = sorted(
            dataset.frequency.items(), key=lambda item: (-item[1], item[0])
        )
        stopwords: dict[int, float] = {}
        budget = 0.0
        for token, _freq in by_frequency:
            contribution = max_score.get(token, 0.0) ** 2
            if budget + contribution >= min_threshold - WEIGHT_EPS:
                break
            budget += contribution
            stopwords[token] = max_score[token]
        return stopwords

    # ------------------------------------------------------------------
    # Online / sorted variants (§3.2, §3.3)
    # ------------------------------------------------------------------

    def _run_online(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        if self.variant == "sort":
            # §5.1.2: decreasing norm (== decreasing size for unit scores).
            order = sorted(range(len(dataset)), key=lambda rid: (-bound.norm(rid), rid))
        else:
            order = list(range(len(dataset)))
        norms, keys = bound.position_columns(order)
        # The index is keyed by *processing position* so posting lists
        # stay id-sorted even when records are processed out of RID order.
        index = ScoredInvertedIndex()
        pairs: list[MatchPair] = []
        for position, rid, replay in self._drive(order, counters, pairs):
            tokens = dataset[rid]
            scores = bound.cached_score_vector(rid)
            norm_r = bound.norm(rid)
            # On resume-replay the record is only re-inserted into the
            # index; its probe already ran (pairs restored from the
            # checkpoint).
            if not replay:
                counters.probes += 1
            lists = index.probe_lists(tokens, scores) if not replay else None
            if lists:
                index_threshold = bound.index_threshold(norm_r, index.min_norm)
                candidates = self._merge_opt_lists(
                    lists, index_threshold, bound.probe_limits(rid, norms, keys),
                    counters,
                )
                for pos, _weight in candidates:
                    sid = order[pos]
                    self._verify_pair(
                        bound, min(rid, sid), max(rid, sid), counters, pairs
                    )
            index.insert(position, tokens, scores, norm_r, counters)
        return pairs


def _noop_dispose() -> None:
    """Nothing to release for the in-memory index."""


def _split_stopwords(tokens, scores, stopwords: dict[int, float]):
    """Drop stopwords from a probe; returns ``(tokens, scores, cut)``.

    ``cut`` assumes, pessimistically, that the partner record shares
    each dropped stopword at its maximum indexed score, so lowering the
    pair threshold by it keeps the stopwords join exact (§3.1).
    """
    probe_tokens = []
    probe_scores = []
    cut = 0.0
    for token, score in zip(tokens, scores):
        if token in stopwords:
            cut += score * stopwords[token]
        else:
            probe_tokens.append(token)
            probe_scores.append(score)
    return probe_tokens, probe_scores, cut
