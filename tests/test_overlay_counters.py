"""Golden cost-model counters for each routed overlay.

A fixed seeded trace — load, 300 mixed operations (40% lookup, 30%
range, 20% insert, 10% delete), one protocol join, three crashes with
no stabilization, then 100 routed lookups around the holes — runs at
32 peers on Chord, Kademlia and Pastry.  The expected numbers are
literals: a change that only alters the CPU cost of routing must leave
every lookup, hop, message, byte and round exactly where it was.  A
change that is *meant* to move them updates these literals and says so.
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.core.index import MLightIndex
from repro.datasets.synthetic import uniform_points
from repro.dht.api import DhtStats
from repro.runtime import RuntimeConfig, create_dht

NETWORK_COUNTERS = (
    "messages", "bytes_sent", "payload_bytes", "rpc_calls", "rounds",
)

#: Index-level counters are the same on every overlay (the paper's
#: substrate-independence claim); only routing counters differ.
INDEX_COUNTERS = {
    "lookups": 1751,
    "gets": 1630,
    "puts": 21,
    "records_moved": 420,
    "batch_rounds": 239,
    "batch_ops": 307,
}

EXPECTED = {
    "chord": (
        {"hops": 3885},
        {"messages": 22354, "bytes_sent": 544378, "payload_bytes": 194848,
         "rpc_calls": 11177, "rounds": 239},
    ),
    "kademlia": (
        {"hops": 8174},
        {"messages": 19652, "bytes_sent": 503864, "payload_bytes": 194848,
         "rpc_calls": 9879, "rounds": 239},
    ),
    "pastry": (
        {"hops": 2481},
        {"messages": 11820, "bytes_sent": 386048, "payload_bytes": 194848,
         "rpc_calls": 5910, "rounds": 239},
    ),
}


def run_trace(overlay: str):
    """Replay the golden trace; return (DhtStats snapshot, net counters)."""
    dht = create_dht(RuntimeConfig(overlay=overlay, n_peers=32))
    index = MLightIndex(
        dht, IndexConfig(dims=2, split_threshold=16, merge_threshold=8)
    )
    rng = random.Random(20091)
    live = list(uniform_points(200, seed=11))
    index.insert_many(live)
    for _ in range(300):
        roll = rng.random()
        if roll < 0.4:
            index.lookup(rng.choice(live))
        elif roll < 0.7:
            x, y = rng.choice(live)
            index.range_query(Region(
                (max(0.0, x - 0.05), max(0.0, y - 0.05)),
                (min(1.0, x + 0.05), min(1.0, y + 0.05)),
            ))
        elif roll < 0.9:
            point = (rng.random(), rng.random())
            index.insert(point)
            live.append(point)
        else:
            index.delete(live.pop(rng.randrange(len(live))))
    dht.join("late-peer")
    for victim in dht.peers()[5:18:6]:
        dht.fail(victim)
    for position in range(100):
        dht.lookup(f"churn-{position}")
    net = dht.network.stats
    return (
        dht.stats.snapshot(),
        {name: getattr(net, name) for name in NETWORK_COUNTERS},
    )


@pytest.mark.parametrize("overlay", sorted(EXPECTED))
def test_counters_match_golden_trace(overlay):
    routing, network = EXPECTED[overlay]
    expected_dht = {**DhtStats().snapshot(), **INDEX_COUNTERS, **routing}
    snapshot, net = run_trace(overlay)
    assert snapshot == expected_dht
    assert net == network
