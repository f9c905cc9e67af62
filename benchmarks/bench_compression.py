"""§4/§6 side experiment: index compression memory/CPU trade-off.

The paper: compression "would contribute to pushing the limit upto
which we can hold the index in memory" and is orthogonal to the
ClusterMem partitioning. Runs the same two-pass MergeOpt join over the
raw mapped index (``index_backend='mmap'``) and the varbyte-compressed
one (``'mmap-varbyte'``), and compares the index file sizes with the
decode cost the compressed probe pays.
"""

import os

from harness import citation_words, run_join
from repro import OverlapPredicate

N = 2000
THRESHOLD = 15


def test_compressed_index_footprint_and_cost(benchmark, report, tmp_path):
    data = citation_words(N)
    predicate = OverlapPredicate(THRESHOLD)
    paths = {backend: str(tmp_path / f"{backend}.rpmx") for backend in ("mmap", "mmap-varbyte")}

    def run():
        return {
            backend: run_join(
                "probe-count-optmerge", data, predicate,
                index_backend=backend, index_path=path,
            )
            for backend, path in paths.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    plain, compressed = results["mmap"], results["mmap-varbyte"]
    assert compressed.pair_set() == plain.pair_set()
    bytes_plain = os.path.getsize(paths["mmap"])
    bytes_compressed = os.path.getsize(paths["mmap-varbyte"])
    report(
        "compression: index footprint vs probe cost",
        "mmap-varbyte (varbyte+skips)",
        index_bytes=bytes_compressed,
        compression_ratio=bytes_plain / bytes_compressed,
        seconds=compressed.elapsed_seconds,
    )
    report(
        "compression: index footprint vs probe cost",
        "mmap (raw int64 ids)",
        index_bytes=bytes_plain,
        compression_ratio=1.0,
        seconds=plain.elapsed_seconds,
    )
    assert bytes_compressed < bytes_plain
