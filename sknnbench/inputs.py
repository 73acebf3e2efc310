"""Seeded inputs and the plaintext oracle check.

Every input of a run -- the table, each Bob's query stream and the
randomness handed to the deployment -- is derived
from ``(workload, seed, stream name)`` alone, so one seed replays one run.
String seeds are hashed with SHA-512 by :class:`random.Random`, which keeps
them stable across interpreters and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import Iterator, Sequence

from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN, squared_euclidean
from repro.db.table import Table

#: Paillier key size of every workload (the size ``repro bench`` and CI use).
KEY_SIZE = 256
#: neighbours requested by every query
K = 2
#: (n records, m attributes, l distance bits) per workload
TABLE_SHAPES = {
    "sknn_m_serial": (8, 2, 6),
    "sknn_b_service": (128, 3, 10),
    "sknn_b_distributed": (128, 3, 10),
}


def rng_for(workload: str, seed: int, stream: str) -> Random:
    """The independent random stream ``stream`` of one (workload, seed)."""
    return Random(f"sknnbench/{workload}/{seed}/{stream}")


def make_table(workload: str, seed: int) -> Table:
    """The workload's synthetic table for this seed."""
    n, m, l = TABLE_SHAPES[workload]
    table_seed = rng_for(workload, seed, "table").getrandbits(32)
    return synthetic_uniform(n, m, l, seed=table_seed)


def query_stream(table: Table, rng: Random) -> Iterator[list[int]]:
    """An endless stream of queries drawn uniformly from the table's domain."""
    maxima = [attribute.maximum for attribute in table.schema]
    while True:
        yield [rng.randint(0, maximum) for maximum in maxima]


class Oracle:
    """Checks a reconstructed answer against plaintext kNN (LinearScanKNN)."""

    def __init__(self, table: Table) -> None:
        self._knn = LinearScanKNN(table)
        self._rows = Counter(tuple(record.values) for record in table)

    def exact(self, query: Sequence[int], answer: Sequence[Sequence[int]],
              k: int) -> bool:
        """SkNN_b: the answer equals the oracle's, order and ties included."""
        expected = [tuple(r.record.values) for r in self._knn.query(query, k)]
        return [tuple(values) for values in answer] == expected

    def tie_tolerant(self, query: Sequence[int],
                     answer: Sequence[Sequence[int]], k: int) -> bool:
        """SkNN_m: k table records whose distances equal the oracle's.

        SkNN_m's C2 breaks ties at random, so any record whose distance ties
        the k-th distance is a correct neighbour.
        """
        rows = [tuple(values) for values in answer]
        if len(rows) != k:
            return False
        if any(self._rows[row] < count for row, count in Counter(rows).items()):
            return False
        expected = sorted(r.squared_distance for r in self._knn.query(query, k))
        return sorted(squared_euclidean(row, query) for row in rows) == expected
