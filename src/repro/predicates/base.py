"""Predicate protocol: the paper's general optimization framework (§5.1).

An (unbound) :class:`SimilarityPredicate` describes a join condition; at
join time it is bound to a :class:`~repro.core.records.Dataset`, producing
a :class:`BoundPredicate` that precomputes per-record score vectors and
norms. The join algorithms only ever talk to the bound form.

Floating point discipline: candidate generation inside the merge
algorithms accepts candidates whose *accumulated* match weight is within
``WEIGHT_EPS`` of the threshold, and the final decision for every emitted
pair is made by :meth:`BoundPredicate.verify`, which recomputes the match
weight in a canonical token order. The naive baseline uses the same
``verify``, so all algorithms agree bit-for-bit on the output set.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.records import Dataset

__all__ = [
    "WEIGHT_EPS",
    "BandFilter",
    "BoundPredicate",
    "ProbeLimits",
    "SimilarityPredicate",
]

# Accumulated-vs-canonical match weights differ only by float summation
# order; this slack makes candidate generation a guaranteed superset.
WEIGHT_EPS = 1e-7

#: Slack on the band-filter radius (float rounding of the keys).
_BAND_SLACK = 1e-12


@dataclass(frozen=True)
class BandFilter:
    """A filter of the form ``|l(r) - l(s)| <= radius`` (§5.3).

    ``keys[rid]`` holds ``l(rid)`` for every record: the bound
    predicate's band-key column (see :meth:`BoundPredicate.band_keys`),
    held by reference so it stays current as the column grows. The same
    object drives both the in-merge filter (applied when a frontier
    record is pushed into the heap, §5 "Additional Filters") and the
    band-join partitioning algorithms of §5.3.
    """

    keys: Sequence[float]
    radius: float

    def accepts(self, rid_a: int, rid_b: int) -> bool:
        """True when the pair survives the filter."""
        return abs(self.keys[rid_a] - self.keys[rid_b]) <= self.radius + _BAND_SLACK


class _LimitMap(dict):
    """``norm_s -> T(r, s) - cut - WEIGHT_EPS``, computed on first use.

    The pair limit is a pure function of the two norms, so one entry
    serves every entity of that norm for the rest of the probe.
    """

    __slots__ = ("_threshold", "_norm_r", "_cut")

    def __init__(self, threshold, norm_r: float, cut: float):
        super().__init__()
        self._threshold = threshold
        self._norm_r = norm_r
        self._cut = cut

    def __missing__(self, norm_s: float) -> float:
        limit = self[norm_s] = (
            self._threshold(self._norm_r, norm_s) - self._cut - WEIGHT_EPS
        )
        return limit


class ProbeLimits(NamedTuple):
    """What a merge needs to know about one probe, as columns.

    The merge kernels of :mod:`repro.core` read pair thresholds and the
    §5.3 band filter from these per-entity columns instead of calling
    back into the predicate once per entity. Built per probe by
    :meth:`BoundPredicate.probe_limits`.

    ``norms[e]`` is ``||s||`` of entity ``e`` (a record, a processing
    position or a cluster — whatever ids the probed index holds), and
    ``keys[e]`` its band key, or ``keys`` is None when no band filter
    applies. An entity passes the filter when
    ``abs(keys[e] - key_r) <= radius``. ``cut`` lowers every pair
    threshold (the §3.1 stopwords variant).
    """

    threshold: Callable[[float, float], float]
    norm_r: float
    norms: Sequence[float]
    cut: float = 0.0
    keys: Sequence[float] | None = None
    key_r: float = 0.0
    radius: float = 0.0

    def limit_map(self) -> dict[float, float]:
        """A fresh memo ``norm_s -> T(r, s) - cut - WEIGHT_EPS``: an
        entity is a candidate when its weight reaches
        ``limit_map[norms[e]]``."""
        return _LimitMap(self.threshold, self.norm_r, self.cut)


class BoundPredicate(ABC):
    """A similarity predicate bound to a concrete dataset.

    Subclasses implement :meth:`score_vector` and :meth:`threshold`; the
    base class derives norms, canonical match weights, verification, and
    the index-level threshold bound from those.
    """

    #: True when threshold satisfaction is necessary but not sufficient
    #: (edit distance: q-gram count bound) and verify() needs payloads.
    requires_payload_verification = False

    #: True when score(w, r) depends only on w (overlap, Jaccard, ...).
    #: Word-Groups requires this — a word group has one weight per word.
    record_independent_scores = True

    #: True when every score is exactly 1.0, so the match weight *is*
    #: the intersection size and a record's norm is its size. The
    #: prefix-filter stack (prefix/position/suffix filters) requires
    #: this — its lemmas count tokens, not weights. Declared statically
    #: here (instance attribute where it depends on construction, e.g.
    #: weighted Jaccard); predicates that leave it False are checked by
    #: a full score scan in
    #: :func:`repro.core.token_order.ensure_unit_scores`.
    unit_scores = False

    #: Whether :meth:`SetJoinAlgorithm._verify_pair` may use the 64-bit
    #: word-signature prefilter. Sound only for predicates whose verify
    #: is the match-weight threshold test (zero common tokens => weight
    #: zero => fails any positive threshold); predicates that verify on
    #: payloads (edit distance) opt out.
    use_signature_prefilter = True

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._score_vectors: list[tuple[float, ...] | None] = [None] * len(dataset)
        self._norms: list[float | None] = [None] * len(dataset)
        #: Every ``_norms`` slot below this index is filled.
        self._norms_filled = 0
        self._score_maps: list[dict[int, float] | None] = [None] * len(dataset)
        self._signatures: list[int | None] = [None] * len(dataset)
        #: Band-key column: ``l(rid)`` for rids ``0 .. len - 1``, grown
        #: append-only by :meth:`band_keys` (never recomputed per query).
        self._band_keys: list[float] = []
        self._band: BandFilter | None = None

    # ------------------------------------------------------------------
    # Abstract surface
    # ------------------------------------------------------------------

    @abstractmethod
    def score_vector(self, rid: int) -> tuple[float, ...]:
        """``score(w, r)`` for each token of record ``rid``, in token order."""

    @abstractmethod
    def threshold(self, norm_r: float, norm_s: float) -> float:
        """``T(r, s)`` as a non-decreasing function of the two norms."""

    @abstractmethod
    def similarity_name(self) -> str:
        """Human-readable name of the natural similarity value."""

    def band_radius(self) -> float | None:
        """Radius of the §5.3 band filter; None when there is no filter.

        Predicates with a filter override this together with
        :meth:`band_key`; :meth:`band_filter` does the rest.
        """
        return None

    def band_key(self, rid: int) -> float:
        """The band key ``l(rid)`` of one record (band predicates only).

        Must depend on record ``rid`` alone — not on the threshold or on
        other records — so the column can grow one record at a time.
        """
        raise NotImplementedError(f"{type(self).__name__} has no band filter")

    def approx_jaccard_floor(self) -> float | None:
        """Optional token-Jaccard lower bound for qualifying pairs.

        Consumed by :mod:`repro.approx` to size its LSH candidate
        generator. ``None`` (the default) asks the planner to derive a
        bound itself — sound for unit-score predicates, a conservative
        default otherwise. Weighted predicates with a better analytic
        handle (TF-IDF cosine) override this; an override is treated as
        a *heuristic* floor unless the derivation is exact for the
        weighting in use.
        """
        return None

    # ------------------------------------------------------------------
    # Derived machinery
    # ------------------------------------------------------------------

    def extend_to(self, n_records: int) -> None:
        """Grow the per-record caches, the norm column and the band-key
        column to cover a grown dataset.

        Used by the incremental :class:`~repro.core.service.SimilarityIndex`
        on every write, so both columns are always full and a query
        only computes its probe's norm and key; valid when scores of
        existing records are unaffected by the new ones
        (corpus-statistic predicates like TF-IDF cosine should rebind
        instead).
        """
        missing = n_records - len(self._score_vectors)
        if missing > 0:
            self._score_vectors.extend([None] * missing)
            self._norms.extend([None] * missing)
            self._score_maps.extend([None] * missing)
            self._signatures.extend([None] * missing)
        self.norm_column()
        self.band_filter()  # extends the band-key column, if there is one

    def norm_column(self) -> list[float]:
        """The norm column ``||rid||``, first filled for every record.

        Fills only the slots past the last fill, so a column grown one
        record at a time costs O(1) per record.
        """
        norms = self._norms
        norm = self.norm
        for rid in range(self._norms_filled, len(norms)):
            if norms[rid] is None:
                norm(rid)
        self._norms_filled = len(norms)
        return norms

    def position_columns(
        self, order: Sequence[int]
    ) -> tuple[list[float], list[float] | None]:
        """The norm and band-key columns re-keyed by processing position.

        Entry ``p`` belongs to record ``order[p]``: the columns of an
        online join whose index holds positions. Keys are None when the
        predicate has no band filter.
        """
        norm = self.norm
        norms = [norm(rid) for rid in order]
        band = self.band_filter()
        if band is None:
            return norms, None
        keys = band.keys
        return norms, [keys[rid] for rid in order]

    def probe_limits(
        self,
        rid: int,
        norms: Sequence[float],
        keys: Sequence[float] | None = None,
        cut: float = 0.0,
    ) -> ProbeLimits:
        """The merge inputs of probe record ``rid`` (see :class:`ProbeLimits`).

        ``norms`` and ``keys`` are columns over the probed index's
        entity ids: :meth:`norm_column` and the band filter's ``keys``
        when the index holds record ids; the same values re-keyed by
        position or cluster otherwise. Pass ``keys=None`` to merge
        without the band filter.
        """
        norm_r = self.norm(rid)
        if keys is None:
            return ProbeLimits(self.threshold, norm_r, norms, cut)
        band = self.band_filter()
        return ProbeLimits(
            self.threshold,
            norm_r,
            norms,
            cut,
            keys,
            band.keys[rid],
            band.radius + _BAND_SLACK,
        )

    def band_keys(self) -> list[float]:
        """The band-key column, first extended to cover every record.

        Appends :meth:`band_key` for records past the column's end and
        never rewrites an existing entry, so each record's key is
        computed once per bind.
        """
        keys = self._band_keys
        for rid in range(len(keys), len(self.dataset)):
            keys.append(self.band_key(rid))
        return keys

    def band_filter(self) -> BandFilter | None:
        """The predicate's band filter over :meth:`band_keys`, or None."""
        band = self._band
        # A probe clone (or a re-tightened top-k bind) carries its own
        # column object; the filter must read that one.
        if band is None or band.keys is not self._band_keys:
            radius = self.band_radius()
            if radius is None:
                return None
            band = self._band = BandFilter(keys=self._band_keys, radius=radius)
        if len(band.keys) < len(self.dataset):
            self.band_keys()
        return band

    def cached_score_vector(self, rid: int) -> tuple[float, ...]:
        """Memoized :meth:`score_vector`."""
        vector = self._score_vectors[rid]
        if vector is None:
            vector = tuple(self.score_vector(rid))
            self._score_vectors[rid] = vector
        return vector

    def score_map(self, rid: int) -> dict[int, float]:
        """Memoized token -> score mapping for record ``rid``."""
        mapping = self._score_maps[rid]
        if mapping is None:
            tokens = self.dataset[rid]
            mapping = dict(zip(tokens, self.cached_score_vector(rid)))
            self._score_maps[rid] = mapping
        return mapping

    def signature(self, rid: int) -> int:
        """64-bit Bloom-style word signature of record ``rid``, memoized.

        Bit ``token % 64`` is set for every token; two records with a
        common token therefore always share a signature bit, so a
        disjoint AND proves an empty intersection (the converse does not
        hold — collisions only cost a wasted full verification).
        """
        value = self._signatures[rid]
        if value is None:
            value = 0
            for token in self.dataset[rid]:
                value |= 1 << (token & 63)
            self._signatures[rid] = value
        return value

    def norm(self, rid: int) -> float:
        """``||r|| = sum(score(w, r)^2)`` (paper Eq. 1), memoized."""
        value = self._norms[rid]
        if value is None:
            if self.unit_scores:
                # Every score is 1.0: the sum of squares is the set size
                # (exactly — no score vector needs building).
                value = float(len(self.dataset[rid]))
            else:
                value = sum(s * s for s in self.cached_score_vector(rid))
            self._norms[rid] = value
        return value

    def index_threshold(self, norm_r: float, min_norm: float) -> float:
        """``T(r, I) = min_s T(r, s) = T(r, minS)`` by monotonicity (§5.1.1)."""
        return self.threshold(norm_r, min_norm)

    def match_weight(self, rid_r: int, rid_s: int) -> float:
        """Canonical ``sum(score(w, r) * score(w, s))`` over common words.

        Iterates the smaller record against the larger one's score map so
        the summation order is deterministic regardless of which algorithm
        asks.
        """
        if len(self.dataset[rid_r]) > len(self.dataset[rid_s]):
            rid_r, rid_s = rid_s, rid_r
        other = self.score_map(rid_s)
        total = 0.0
        tokens = self.dataset[rid_r]
        scores = self.cached_score_vector(rid_r)
        for token, score in zip(tokens, scores):
            score_s = other.get(token)
            if score_s is not None:
                total += score * score_s
        return total

    def satisfied(self, weight: float, norm_r: float, norm_s: float) -> bool:
        """Threshold test with the canonical float tolerance."""
        return weight >= self.threshold(norm_r, norm_s) - WEIGHT_EPS / 10

    def verify(self, rid_r: int, rid_s: int) -> tuple[bool, float]:
        """Exact decision for a candidate pair.

        Returns ``(matches, natural_similarity)``. The default recomputes
        the canonical match weight and applies threshold + band filter;
        predicates with a necessary-but-insufficient bound (edit distance)
        override this to run their exact verifier.
        """
        band = self.band_filter()
        if band is not None and not band.accepts(rid_r, rid_s):
            return False, 0.0
        weight = self.match_weight(rid_r, rid_s)
        ok = self.satisfied(weight, self.norm(rid_r), self.norm(rid_s))
        return ok, self.natural_similarity(rid_r, rid_s, weight)

    def natural_similarity(self, rid_r: int, rid_s: int, weight: float) -> float:
        """Convert a match weight into the predicate's natural measure.

        Default: the match weight itself (overlap-style predicates).
        """
        return weight


class SimilarityPredicate(ABC):
    """An unbound predicate: a join condition awaiting a dataset."""

    @abstractmethod
    def bind(self, dataset: Dataset) -> BoundPredicate:
        """Bind to a dataset, precomputing whatever corpus stats we need."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in benchmark tables."""
