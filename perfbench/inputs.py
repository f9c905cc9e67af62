"""Seeded workload inputs.

The benchmark turns its ``--seed`` into raw texts and an operation
schedule here; the program under test only ever sees those texts. The
same seed always gives the same inputs (string seeds go through
``random.Random``'s SHA-512 path, so ``PYTHONHASHSEED`` does not matter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datagen import CitationGenerator
from repro.datagen.duplicates import perturb_text

__all__ = ["ServeInputs", "citation_texts", "serve_inputs"]

#: Jaccard at or above which an add could be near a query; adds that
#: reach it against any query are dropped (the served predicate is 0.7,
#: so this leaves a margin).
_ADD_QUERY_JACCARD_LIMIT = 0.5
#: Share of the serving operations that are adds (the rest are queries).
_ADD_FRACTION = 0.05


def citation_texts(n: int, seed: int) -> list[str]:
    """``n`` synthetic citation strings for ``seed``."""
    return [record.text() for record in CitationGenerator(seed=seed).generate(n)]


@dataclass(frozen=True)
class ServeInputs:
    """Everything the serving workload sends.

    ``queries`` holds ``n_hits`` perturbed copies of indexed records
    followed by unseen citations. ``ops`` is the closed-loop schedule:
    ``("query", i)`` or ``("add", j)`` indexing ``queries`` / ``adds``.
    """

    indexed: list[str]
    queries: list[str]
    n_hits: int
    adds: list[str]
    ops: list[tuple[str, int]]


def serve_inputs(
    seed: int,
    tokenize,
    n_indexed: int = 8000,
    n_queries: int = 600,
    n_adds: int = 400,
    n_ops: int = 8000,
) -> ServeInputs:
    """Indexed records, a half-hit/half-miss query pool, adds that
    cannot match any query, and the operation schedule.

    Unseen citations come from a second generator seed, so their title
    vocabulary is disjoint from the indexed corpus. An add candidate
    whose token-set Jaccard with some query reaches
    ``_ADD_QUERY_JACCARD_LIMIT`` is dropped: the answer to every query
    then depends only on the indexed records, whatever the interleaving
    of adds and queries.
    """
    rng = random.Random(f"serve-words-mixed:{seed}")
    indexed = citation_texts(n_indexed, seed)
    n_hits = n_queries // 2
    hits = [
        perturb_text(indexed[rng.randrange(n_indexed)], rng, n_edits=rng.randint(1, 2))
        for _ in range(n_hits)
    ]
    unseen_seed = rng.getrandbits(31)
    unseen = citation_texts(n_queries - n_hits + 2 * n_adds, unseen_seed)
    misses = unseen[: n_queries - n_hits]
    queries = hits + misses

    query_sets = [frozenset(tokenize(text)) for text in queries]
    by_token: dict[str, list[int]] = {}
    for qid, tokens in enumerate(query_sets):
        for token in tokens:
            by_token.setdefault(token, []).append(qid)
    adds = []
    for text in unseen[n_queries - n_hits :]:
        tokens = frozenset(tokenize(text))
        near = {qid for token in tokens for qid in by_token.get(token, ())}
        if all(
            len(tokens & query_sets[qid]) / len(tokens | query_sets[qid])
            < _ADD_QUERY_JACCARD_LIMIT
            for qid in near
        ):
            adds.append(text)
        if len(adds) == n_adds:
            break

    ops = []
    next_add = 0
    for _ in range(n_ops):
        if rng.random() < _ADD_FRACTION:
            ops.append(("add", next_add % len(adds)))
            next_add += 1
        else:
            ops.append(("query", rng.randrange(len(queries))))
    return ServeInputs(indexed, queries, n_hits, adds, ops)
