"""Seeded operation streams: the benchmark's load generator.

The program under test only ever sees the generated operations.  Every
stream is a pure function of its seed: it tracks the live record ids
itself, so the sequence of operations does not depend on how fast (or
in which order) the program executes them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import Region
from repro.common.rng import derive_seed
from repro.datasets.northeast import northeast_surrogate
from repro.workloads.traces import request_trace

#: Range-query volumes of the mixed workloads (fractions of the space).
RANGE_VOLUMES = (1e-4, 1e-3, 1e-2)

#: Kind mix of the mixed workloads, in draw order.
MIX_KINDS = ("lookup", "range", "insert", "delete")
MIX_WEIGHTS = (0.40, 0.30, 0.20, 0.10)

#: Standard deviation of the jitter that turns a live key into a fresh
#: insertion point (keeps inserts on the dataset's skewed shape).
FRESH_JITTER = 1e-3

#: Write kinds; everything else is a read.
WRITES = frozenset(("insert", "delete"))


@dataclass(frozen=True, slots=True)
class Op:
    """One generated operation.

    ``ident`` is the record id the op inserts, deletes or looks up
    (-1 for range queries); ``region`` is set for range queries.
    """

    kind: str
    key: tuple
    ident: int = -1
    region: Region | None = None


def dataset(n: int) -> list[tuple[float, float]]:
    """The first *n* points of the NE surrogate.

    The data set is the same for every workload seed, as the paper
    evaluates one real data set; the seed drives the operation stream.
    """
    return northeast_surrogate(n)


def _clamp(value: float) -> float:
    return min(max(value, 0.0), 1.0 - 2.0**-40)


def _box(centre, volume: float) -> Region:
    side = volume ** 0.5
    lows = tuple(min(max(c - side / 2, 0.0), 1.0 - side) for c in centre)
    return Region(lows, tuple(low + side for low in lows))


class MixedStream:
    """Endless 40/30/20/10 lookup/range/insert/delete stream.

    Lookups and deletes pick a uniformly random live record; range
    queries are boxes of a volume drawn from :data:`RANGE_VOLUMES`
    centred on a live key; inserts add a fresh point jittered around a
    live key, with the next unused id.
    """

    def __init__(self, points, seed: int) -> None:
        self._rng = random.Random(derive_seed(seed, "perfbench-mixed"))
        self._keys = dict(enumerate(points))
        self._live = list(range(len(points)))
        self._slot = {ident: ident for ident in self._live}
        self._next_id = len(points)

    def __iter__(self):
        return self

    def _pick(self) -> int:
        return self._live[self._rng.randrange(len(self._live))]

    def __next__(self) -> Op:
        rng = self._rng
        kind = rng.choices(MIX_KINDS, weights=MIX_WEIGHTS)[0]
        if kind == "lookup":
            ident = self._pick()
            return Op("lookup", self._keys[ident], ident)
        if kind == "range":
            centre = self._keys[self._pick()]
            return Op("range", centre, region=_box(
                centre, rng.choice(RANGE_VOLUMES)))
        if kind == "insert":
            base = self._keys[self._pick()]
            key = tuple(_clamp(c + rng.gauss(0.0, FRESH_JITTER)) for c in base)
            ident = self._next_id
            self._next_id += 1
            self._keys[ident] = key
            self._slot[ident] = len(self._live)
            self._live.append(ident)
            return Op("insert", key, ident)
        ident = self._pick()
        # Swap-remove keeps the live list dense and the draw O(1).
        slot = self._slot.pop(ident)
        last = self._live.pop()
        if last != ident:
            self._live[slot] = last
            self._slot[last] = slot
        return Op("delete", self._keys.pop(ident), ident)


def service_ops(points, count: int, seed: int, span: float) -> list[Op]:
    """*count* ops of ``request_trace``'s 70/20/10 lookup/range/insert
    mix over the loaded *points*; inserts get fresh ids."""
    trace = request_trace(
        points, count, span=span, seed=derive_seed(seed, "perfbench-svc")
    )
    index_of = {key: ident for ident, key in enumerate(points)}
    next_id = len(points)
    ops = []
    for step in trace:
        if step.kind == "insert":
            ops.append(Op("insert", step.key, next_id))
            next_id += 1
        elif step.kind == "lookup":
            ops.append(Op("lookup", step.key, index_of[step.key]))
        else:
            ops.append(Op("range", step.key, region=step.region))
    return ops
