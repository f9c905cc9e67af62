"""Disk-backed storage substrate.

* :class:`DiskRecordStore` — the "database" ClusterMem's second phase
  re-reads records from (§4.2), with fetch/seek accounting.
* :mod:`repro.storage.mmap_index` — the write-once columnar ``RPMX``
  format, the disk-resident inverted index of the §6 Heinz & Zobel
  direction: :class:`MappedInvertedIndex` serves postings off a memory
  mapping (``index_backend='mmap'`` zero-copy, ``'mmap-varbyte'`` with
  varbyte-compressed id blocks decoded on access;
  ``SimilarityIndex.save(format='mmap')``), :class:`MappedIndexWriter`
  writes it, :class:`JoinIndexBuilder` builds one for a two-pass join.
"""

from repro.storage.mmap_index import (
    INDEX_BACKENDS,
    JoinIndexBuilder,
    MappedDataset,
    MappedIndexWriter,
    MappedInvertedIndex,
    MappedPostingList,
    resolve_index_backend,
)
from repro.storage.record_store import DiskRecordStore

__all__ = [
    "DiskRecordStore",
    "INDEX_BACKENDS",
    "JoinIndexBuilder",
    "MappedDataset",
    "MappedIndexWriter",
    "MappedInvertedIndex",
    "MappedPostingList",
    "resolve_index_backend",
]
