"""Shared test fixtures and dataset factories."""

from __future__ import annotations

import random

import pytest

from repro import Dataset
from repro.predicates.base import ProbeLimits


def random_dataset(
    seed: int,
    n_base: int = 60,
    universe: int = 50,
    min_size: int = 2,
    max_size: int = 12,
    duplicate_rate: float = 0.3,
) -> Dataset:
    """A small random dataset with injected near-duplicates.

    Used across correctness tests: the duplicates create qualifying
    pairs at realistic thresholds, the random base records create
    near-misses.
    """
    rng = random.Random(seed)
    records: list[tuple[int, ...]] = []
    for _ in range(n_base):
        base = set(rng.sample(range(universe), rng.randint(min_size, max_size)))
        records.append(tuple(sorted(base)))
        if rng.random() < duplicate_rate:
            dup = set(base)
            for _ in range(rng.randint(0, 3)):
                if dup and rng.random() < 0.5:
                    dup.discard(rng.choice(sorted(dup)))
                else:
                    dup.add(rng.randrange(universe))
            if dup:
                records.append(tuple(sorted(dup)))
    return Dataset(records)


class _Column:
    """An entity-id column computed on access (merge-kernel tests)."""

    def __init__(self, value_of):
        self._value_of = value_of

    def __getitem__(self, entity: int):
        return self._value_of(entity)


def limits_for(threshold_of, accept=None) -> ProbeLimits:
    """:class:`ProbeLimits` for a per-entity threshold and filter.

    Entity ``e`` gets norm ``e``, so the pair threshold of ``e`` is
    ``threshold_of(e)``; when ``accept`` is given, accepted entities get
    band key 0 and rejected ones 2, with radius 1 around key 0.
    """
    limits = ProbeLimits(
        lambda _norm_r, norm_s: threshold_of(int(norm_s)), 0.0, _Column(float)
    )
    if accept is None:
        return limits
    return limits._replace(
        keys=_Column(lambda e: 0.0 if accept(e) else 2.0), key_r=0.0, radius=1.0
    )


def random_strings(seed: int, n: int = 40, alphabet: str = "abcd", max_len: int = 12) -> list[str]:
    """Random short strings over a small alphabet (edit-distance tests)."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        length = rng.randint(0, max_len)
        out.append("".join(rng.choice(alphabet) for _ in range(length)))
    return out


@pytest.fixture
def small_dataset() -> Dataset:
    """Five hand-built records with two obvious matching pairs."""
    return Dataset(
        [
            (0, 1, 2, 3, 4, 5),
            (1, 2, 3, 4, 5, 6),
            (10, 11, 12, 13),
            (10, 11, 12, 14),
            (20, 21),
        ]
    )


@pytest.fixture
def dup_dataset() -> Dataset:
    return random_dataset(seed=123)
