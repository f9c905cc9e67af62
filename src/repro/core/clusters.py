"""Cluster bookkeeping shared by Probe-Cluster and ClusterMem.

A cluster (paper §3.4) is a disjoint group of records discovered online.
It appears in the cluster-level inverted index under the union of its
members' words, with the §5.1.3 summary statistics:

* ``score(w, C) = max over members of score(w, s)`` per word, and
* ``||C|| = min over members of ||s||`` as the cluster norm,

which guarantee that whenever a record joins with any member, the
cluster-level probe surfaces the cluster (no false negatives). Each
cluster also owns a fine-grained record-level inverted index used for
the second, exact probe.
"""

from __future__ import annotations

from repro.core.inverted_index import ScoredInvertedIndex

__all__ = ["Cluster", "ClusterSet"]


class Cluster:
    """One online-discovered cluster of related records."""

    __slots__ = (
        "cid",
        "positions",
        "rids",
        "word_scores",
        "min_member_norm",
        "union_norm",
        "index",
    )

    def __init__(self, cid: int):
        self.cid = cid
        #: processing positions of members (increasing).
        self.positions: list[int] = []
        #: original record ids of members, aligned with positions.
        self.rids: list[int] = []
        #: union of member words -> max member score (score(w, C)).
        self.word_scores: dict[int, float] = {}
        #: min member norm, the cluster summary ||C||.
        self.min_member_norm: float = float("inf")
        #: sum of score(w, C)^2 over the word union — the "record norm"
        #: of the cluster viewed as one big record (used by the
        #: Jaccard-style home-cluster similarity of §4.1.1).
        self.union_norm: float = 0.0
        #: fine-grained record-level index. Maintained by the join
        #: driver, and only once the cluster has two members — a
        #: singleton cluster's fine join is a direct verification, so
        #: indexing it would be pure overhead. ClusterMem's phase 1
        #: never populates it (fine joins happen in phase 2).
        self.index: ScoredInvertedIndex | None = None

    def __len__(self) -> int:
        return len(self.positions)

    def add_record(
        self,
        position: int,
        rid: int,
        tokens: tuple[int, ...],
        scores: tuple[float, ...],
        norm: float,
    ) -> list[tuple[int, float]]:
        """Add a member; returns the (word, score) summary updates.

        The returned list holds every word whose cluster-level score
        changed (new words, or raised maxima) — exactly the entries the
        caller must push into the cluster-level inverted index. The
        fine-grained record index is the driver's responsibility.
        """
        self.positions.append(position)
        self.rids.append(rid)
        if norm < self.min_member_norm:
            self.min_member_norm = norm
        updates: list[tuple[int, float]] = []
        word_scores = self.word_scores
        for token, score in zip(tokens, scores):
            old = word_scores.get(token)
            if old is None:
                word_scores[token] = score
                self.union_norm += score * score
                updates.append((token, score))
            elif score > old:
                word_scores[token] = score
                self.union_norm += score * score - old * old
                updates.append((token, score))
        return updates


class ClusterSet:
    """All clusters plus the cluster-level inverted index."""

    def __init__(self):
        self.clusters: list[Cluster] = []
        self.index = ScoredInvertedIndex()
        #: Cluster-norm column: ``norms[cid]`` is ``||C||``, kept by
        #: :meth:`assign` (the merge reads it per candidate cluster).
        self.norms: list[float] = []

    def __len__(self) -> int:
        return len(self.clusters)

    def __getitem__(self, cid: int) -> Cluster:
        return self.clusters[cid]

    def new_cluster(self) -> Cluster:
        cluster = Cluster(len(self.clusters))
        self.clusters.append(cluster)
        self.norms.append(cluster.min_member_norm)
        return cluster

    def cluster_norm(self, cid: int) -> float:
        """The summary ||C|| used in threshold computations."""
        return self.norms[cid]

    def assign(
        self,
        cluster: Cluster,
        position: int,
        rid: int,
        tokens: tuple[int, ...],
        scores: tuple[float, ...],
        norm: float,
    ) -> None:
        """Add a record to a cluster and refresh the cluster-level index."""
        updates = cluster.add_record(position, rid, tokens, scores, norm)
        self.norms[cluster.cid] = cluster.min_member_norm
        added = 0
        for token, score in updates:
            # insert_sorted reports whether the entry is new; only those
            # count toward n_entries (score raises reuse their slot).
            if self.index.get_or_create(token).insert_sorted(cluster.cid, score):
                added += 1
        self.index.n_entries += added
        self.index.update_min_norm(cluster.min_member_norm)
