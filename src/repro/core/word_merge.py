"""Word-merged index compression — the paper's discarded option (§4.1).

§4.1 lists two ways to compress the inverted index: (1) group together
words with overlapping record lists, or (2) group together records with
overlapping words. The paper implements (1) with MinHash signatures on
each word's RID list, observes that "the larger lists did not overlap
enough" and that "the error in merging unrelated large word lists leads
to bad partitioning decisions causing overall performance to
deteriorate", and drops it in favour of (2).

We reproduce option (1) faithfully so its failure can be measured (see
``benchmarks/bench_ablation.py``):

* Words whose RID-list MinHash signatures agree on >= k*p slots are
  merged into *superwords*.
* A record maps to its multiset of superwords; the superword score is
  the multiplicity (how many of the record's words map there).
* Because distinct shared words can collapse into one shared superword,
  the superword match weight ``sum(mult_r * mult_s)`` is an *upper
  bound* on the true shared-word count (``min(a,b) <= a*b`` for counts
  >= 1), so running the T-overlap join over superwords yields a
  candidate superset; exact verification on the original records keeps
  the join exact.

Restriction: unweighted overlap-style predicates only (the candidate
bound argument needs unit word scores).
"""

from __future__ import annotations

import time

from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.merge_opt import merge_opt
from repro.core.records import Dataset
from repro.core.results import JoinResult, MatchPair
from repro.core.token_order import ensure_unit_scores
from repro.mining.minhash import compact_groups
from repro.predicates.base import BoundPredicate, SimilarityPredicate
from repro.utils.counters import CostCounters

__all__ = ["WordMergedIndexJoin", "merge_words"]


def merge_words(
    dataset: Dataset, k: int = 16, p: float = 0.9, seed: int = 0
) -> dict[int, int]:
    """Map each token to its superword id via RID-list MinHash merging."""
    tokens = sorted(dataset.frequency)
    rid_lists: dict[int, list[int]] = {token: [] for token in tokens}
    for rid, record in enumerate(dataset.records):
        for token in record:
            rid_lists[token].append(rid)
    clusters = compact_groups([rid_lists[token] for token in tokens], k=k, p=p, seed=seed)
    mapping: dict[int, int] = {}
    for superword, members in enumerate(clusters):
        for member in members:
            mapping[tokens[member]] = superword
    return mapping


class WordMergedIndexJoin:
    """T-overlap join over a word-merged (compressed) index.

    Exact (candidates verified on the original records), but expected to
    be slow — this class exists to measure the paper's negative result.

    Args:
        minhash_k / minhash_p / seed: word-merging parameters.
    """

    name = "word-merged-index"

    def __init__(self, minhash_k: int = 16, minhash_p: float = 0.9, seed: int = 0):
        self.minhash_k = minhash_k
        self.minhash_p = minhash_p
        self.seed = seed

    def join(self, dataset: Dataset, predicate: SimilarityPredicate) -> JoinResult:
        bound = predicate.bind(dataset)
        self._check_unit_scores(dataset, bound)
        counters = CostCounters()
        start = time.perf_counter()
        mapping = merge_words(
            dataset, k=self.minhash_k, p=self.minhash_p, seed=self.seed
        )
        n_superwords = len(set(mapping.values()))
        counters.extra["words"] = len(mapping)
        counters.extra["superwords"] = n_superwords

        # Superword multiset per record: (sorted superword ids, counts).
        compressed: list[tuple[tuple[int, ...], tuple[float, ...]]] = []
        for record in dataset.records:
            counts: dict[int, int] = {}
            for token in record:
                superword = mapping[token]
                counts[superword] = counts.get(superword, 0) + 1
            ordered = tuple(sorted(counts))
            compressed.append((ordered, tuple(float(counts[s]) for s in ordered)))

        index = ScoredInvertedIndex()
        norms = bound.norm_column()
        pairs: list[MatchPair] = []
        for rid, (supertokens, multiplicities) in enumerate(compressed):
            counters.probes += 1
            lists = index.probe_lists(supertokens, multiplicities)
            if lists:
                limits = bound.probe_limits(rid, norms)
                index_threshold = bound.index_threshold(limits.norm_r, index.min_norm)
                for sid, _weight in merge_opt(
                    lists, index_threshold, limits, counters
                ):
                    # The superword weight only upper-bounds the true
                    # overlap: verify on the original records.
                    self._verify(bound, sid, rid, counters, pairs)
            index.insert(rid, supertokens, multiplicities, bound.norm(rid), counters)
        counters.pairs_output = len(pairs)
        return JoinResult(
            pairs=pairs,
            algorithm=self.name,
            predicate=predicate.name,
            counters=counters,
            elapsed_seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _check_unit_scores(dataset: Dataset, bound: BoundPredicate) -> None:
        ensure_unit_scores(dataset, bound, what="word-merged join")

    @staticmethod
    def _verify(bound, rid_a, rid_b, counters, pairs) -> None:
        counters.pairs_verified += 1
        ok, similarity = bound.verify(rid_a, rid_b)
        if ok:
            pairs.append(MatchPair.make(rid_a, rid_b, similarity))
