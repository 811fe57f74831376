"""Each overlay's routing step against a brute-force reference.

Chord's ``rpc_closest_preceding`` bisects a cached, deduplicated view
of fingers and successors; Kademlia's ``closest_contacts`` walks its
buckets band by band from the target's split bit; Pastry places and
routes by the bit length of ``a ^ b``.  The references below are the
straightforward versions — the full finger scan, the full XOR sort and
big-endian digit tuples — and every routing step must return exactly
what they return, including after each mutation that has to drop a
cached view.
"""

from __future__ import annotations

import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.chord import ChordDht, ChordNode
from repro.dht.hashing import ID_BITS, ID_SPACE, ring_between
from repro.dht.kademlia import BUCKET_SIZE, KademliaDht, KademliaNode
from repro.dht.pastry import (
    DIGIT_BITS,
    N_DIGITS,
    PastryDht,
    PastryNode,
    digit_at,
    numeric_distance,
    shared_digits,
)
from repro.net.simnet import SimNetwork

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PEERS = st.integers(min_value=1, max_value=64)
IDENTS = st.integers(min_value=0, max_value=ID_SPACE - 1)


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------

def reference_closest_preceding(node: ChordNode, ident: int, avoid=()):
    """The full scan: every finger slot, then the successor list."""
    candidates = [ref for ref in node.fingers if ref is not None]
    candidates.extend(node.successors)
    best = node.ref
    for ref in candidates:
        if ref.name in avoid:
            continue
        if ref != node.ref and not node.network.is_registered(ref.name):
            continue
        if ring_between(ref.ident, node.ident, ident) and ring_between(
            ref.ident, best.ident, ident
        ):
            best = ref
    return best


def reference_closest_contacts(node: KademliaNode, ident: int, count: int):
    """Flatten every bucket plus self and sort by XOR distance."""
    contacts = [(node.ident, node.name)]
    for bucket in node.buckets:
        contacts.extend(bucket)
    contacts.sort(key=lambda pair: pair[0] ^ ident)
    return contacts[:count]


def reference_digits(ident: int) -> tuple[int, ...]:
    """The identifier as big-endian base-16 digits."""
    return tuple(
        ident >> (ID_BITS - DIGIT_BITS * (position + 1)) & 0xF
        for position in range(N_DIGITS)
    )


def reference_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    for position, (da, db) in enumerate(zip(a, b)):
        if da != db:
            return position
    return len(a)


def reference_next_hop(node: PastryNode, ident: int):
    """Pastry's three routing rules over digit tuples."""
    registered = node.network.is_registered
    live_leaves = [pair for pair in node.leaf_set if registered(pair[1])]
    if live_leaves:
        span = [pair[0] for pair in live_leaves] + [node.ident]
        if min(span) <= ident <= max(span):
            return min(
                live_leaves + [(node.ident, node.name)],
                key=lambda pair: numeric_distance(pair[0], ident),
            )
    target = reference_digits(ident)
    row = reference_prefix(reference_digits(node.ident), target)
    if row < N_DIGITS:
        slot = node.routing_table[row][target[row]]
        if slot is not None and registered(slot[1]):
            return slot
    best = (node.ident, node.name)
    best_distance = numeric_distance(node.ident, ident)
    for contact_ident, contact_name in node._all_contacts():
        if not registered(contact_name):
            continue
        if reference_prefix(reference_digits(contact_ident), target) < row:
            continue
        distance = numeric_distance(contact_ident, ident)
        if distance < best_distance:
            best = (contact_ident, contact_name)
            best_distance = distance
    return best


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------

def probe_targets(rng: random.Random, idents: list[int]) -> list[int]:
    """Random identifiers plus every peer identifier and its
    neighbours (exact boundaries are where an off-by-one hides)."""
    targets = [rng.randrange(ID_SPACE) for _ in range(6)]
    for ident in rng.sample(idents, min(len(idents), 6)):
        targets.extend(
            [ident, (ident - 1) % ID_SPACE, (ident + 1) % ID_SPACE]
        )
    return targets


def random_avoid(rng: random.Random, names: list[str]) -> tuple[str, ...]:
    return tuple(rng.sample(names, rng.randint(0, min(len(names), 5))))


def check_chord(dht: ChordDht, rng: random.Random, names: list[str]) -> None:
    idents = [dht.node(name).ident for name in dht.peers()]
    for name in dht.peers():
        node = dht.node(name)
        # The degenerate whole-ring interval: target == self.
        for ident in [node.ident] + probe_targets(rng, idents):
            avoid = random_avoid(rng, names)
            assert node.rpc_closest_preceding(
                ident, avoid
            ) is reference_closest_preceding(node, ident, avoid)
            assert node.rpc_closest_preceding(
                ident
            ) is reference_closest_preceding(node, ident)


def check_kademlia(dht: KademliaDht, rng: random.Random) -> None:
    idents = [dht.node(name).ident for name in dht.peers()]
    for name in dht.peers():
        node = dht.node(name)
        for ident in [node.ident] + probe_targets(rng, idents):
            count = rng.choice([1, 2, BUCKET_SIZE, 3 * BUCKET_SIZE, 200])
            assert node.closest_contacts(
                ident, count
            ) == reference_closest_contacts(node, ident, count)


def check_pastry(dht: PastryDht, rng: random.Random) -> None:
    idents = [dht.node(name).ident for name in dht.peers()]
    for name in dht.peers():
        node = dht.node(name)
        mine = reference_digits(node.ident)
        for row, columns in enumerate(node.routing_table):
            for column, slot in enumerate(columns):
                if slot is not None:
                    theirs = reference_digits(slot[0])
                    assert reference_prefix(mine, theirs) == row
                    assert theirs[row] == column
        for ident in [node.ident] + probe_targets(rng, idents):
            assert node.rpc_next_hop(ident) == reference_next_hop(node, ident)


def fail_some(dht, rng: random.Random, fraction: float) -> None:
    """Crash a random subset of peers, leaving at least one, and run
    no stabilization: routing state keeps the dead entries."""
    peers = dht.peers()
    victims = rng.sample(peers, int(fraction * (len(peers) - 1)))
    for victim in victims:
        dht.fail(victim)


# ----------------------------------------------------------------------
# Chord
# ----------------------------------------------------------------------

class TestChordClosestPreceding:
    @given(PEERS, SEEDS, st.sampled_from([0.0, 0.2, 0.6]))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_scan(self, n_peers, seed, dead_fraction):
        rng = random.Random(seed)
        dht = ChordDht.build(n_peers)
        names = dht.peers()
        check_chord(dht, rng, names)
        fail_some(dht, rng, dead_fraction)
        check_chord(dht, rng, names)

    @given(st.integers(min_value=2, max_value=24), SEEDS, st.lists(
        st.sampled_from(
            ["fix_fingers", "stabilize", "join", "leave", "fail", "restart"]
        ),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=20, deadline=None)
    def test_view_dropped_by_every_mutation(self, n_peers, seed, steps):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as data_dir:
            dht = ChordDht.build(
                n_peers, durability="log", data_dir=data_dir
            )
            names = dht.peers()
            crashed: list[str] = []
            for position, step in enumerate(steps):
                check_chord(dht, rng, names)  # warm every cached view
                live = dht.peers()
                if step == "fix_fingers":
                    node = dht.node(rng.choice(live))
                    for _ in range(ID_BITS):
                        node.fix_fingers(
                            lambda ident: dht._route(node.ref, ident)
                        )
                elif step == "stabilize":
                    node = dht.node(rng.choice(live))
                    successor = node.successors[0]
                    if successor != node.ref and rng.random() < 0.5:
                        # A live but unreachable successor: the RpcError
                        # branch drops the list head.
                        dht.network.partition({node.name}, {successor.name})
                    node.stabilize()
                    dht.network.heal_partitions()
                elif step == "join":
                    name = f"late-{position}"
                    dht.join(name)
                    names.append(name)
                elif len(live) > 1 and step in ("leave", "fail"):
                    victim = rng.choice(live)
                    getattr(dht, step)(victim)
                    if step == "fail":
                        crashed.append(victim)
                elif step == "restart" and crashed:
                    dht.restart(crashed.pop())
                assert dht._gateway().name == min(dht.peers())
            check_chord(dht, rng, names)

    def test_fix_fingers_after_join_refreshes_view(self):
        rng = random.Random(7)
        dht = ChordDht.build(16)
        names = dht.peers()
        check_chord(dht, rng, names)
        dht.join("late")
        names.append("late")
        check_chord(dht, rng, names)
        # No peer routes through the newcomer until its fingers learn it.
        for name in names:
            node = dht.node(name)
            for _ in range(ID_BITS):
                node.fix_fingers(lambda ident: dht._route(node.ref, ident))
        assert any(
            dht.node(name).rpc_closest_preceding(
                (dht.node("late").ident + 1) % ID_SPACE
            ).name == "late"
            for name in names
        )
        check_chord(dht, rng, names)

    def test_single_peer_returns_self(self):
        dht = ChordDht.build(1)
        node = dht.node(dht.peers()[0])
        for ident in (node.ident, 0, ID_SPACE - 1):
            assert node.rpc_closest_preceding(ident) is node.ref


# ----------------------------------------------------------------------
# Kademlia
# ----------------------------------------------------------------------

class TestKademliaClosestContacts:
    @given(PEERS, SEEDS, st.sampled_from([0.0, 0.2, 0.6]))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_sort(self, n_peers, seed, dead_fraction):
        rng = random.Random(seed)
        dht = KademliaDht.build(n_peers)
        check_kademlia(dht, rng)
        fail_some(dht, rng, dead_fraction)
        check_kademlia(dht, rng)
        for name in dht.peers()[:5]:
            # Iterative lookups observe() contacts: move-to-front only.
            dht._iterative_find(dht.node(name), rng.randrange(ID_SPACE))
        check_kademlia(dht, rng)

    @given(st.integers(min_value=2, max_value=24), SEEDS, st.lists(
        st.sampled_from(
            ["observe", "evict", "stabilize", "join", "leave", "fail",
             "restart"]
        ),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=20, deadline=None)
    def test_filled_cache_dropped_by_every_mutation(
        self, n_peers, seed, steps
    ):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as data_dir:
            dht = KademliaDht.build(
                n_peers, durability="log", data_dir=data_dir
            )
            crashed: list[str] = []
            for position, step in enumerate(steps):
                check_kademlia(dht, rng)
                live = dht.peers()
                node = dht.node(rng.choice(live))
                if step == "observe":
                    stranger = KademliaNode(f"stranger-{position}", dht.network)
                    node.observe(stranger.ident, stranger.name)
                    node.observe(stranger.ident, stranger.name)
                    dht.network.unregister(stranger.name)
                elif step == "evict":
                    # Fill one bucket past capacity with dead contacts.
                    for index in range(2 * BUCKET_SIZE):
                        other = KademliaNode(
                            f"ghost-{position}-{index}", dht.network
                        )
                        dht.network.unregister(other.name)
                        node.observe(other.ident, other.name)
                elif step == "stabilize":
                    dht.stabilize_all()
                elif step == "join":
                    dht.join(f"late-{position}")
                elif len(live) > 1 and step in ("leave", "fail"):
                    victim = rng.choice(live)
                    getattr(dht, step)(victim)
                    if step == "fail":
                        crashed.append(victim)
                elif step == "restart" and crashed:
                    dht.restart(crashed.pop())
                assert dht._gateway().name == min(dht.peers())
            check_kademlia(dht, rng)

    def test_lone_node_answers_self(self):
        node = KademliaNode("kad-alone", SimNetwork())
        assert node.closest_contacts(node.ident, 3) == [
            (node.ident, node.name)
        ]
        assert node.closest_contacts(0, 1) == [(node.ident, node.name)]


# ----------------------------------------------------------------------
# Pastry
# ----------------------------------------------------------------------

class TestPastryPrefixes:
    @given(IDENTS, st.integers(min_value=-1, max_value=ID_BITS - 1))
    def test_helpers_match_digit_tuples(self, ident, flip):
        other = ident if flip < 0 else ident ^ (1 << flip)
        assert shared_digits(ident, other) == reference_prefix(
            reference_digits(ident), reference_digits(other)
        )
        digits = reference_digits(ident)
        assert [digit_at(ident, row) for row in range(N_DIGITS)] == list(
            digits
        )

    @given(PEERS, SEEDS, st.sampled_from([0.0, 0.2, 0.6]))
    @settings(max_examples=25, deadline=None)
    def test_next_hop_matches_digit_reference(
        self, n_peers, seed, dead_fraction
    ):
        rng = random.Random(seed)
        dht = PastryDht.build(n_peers)
        check_pastry(dht, rng)
        fail_some(dht, rng, dead_fraction)
        check_pastry(dht, rng)

    @given(st.integers(min_value=2, max_value=24), SEEDS, st.lists(
        st.sampled_from(["join", "leave", "fail", "restart", "stabilize"]),
        min_size=1, max_size=6,
    ))
    @settings(max_examples=15, deadline=None)
    def test_membership_changes(self, n_peers, seed, steps):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as data_dir:
            dht = PastryDht.build(
                n_peers, durability="log", data_dir=data_dir
            )
            crashed: list[str] = []
            for position, step in enumerate(steps):
                live = dht.peers()
                if step == "join":
                    dht.join(f"late-{position}")
                elif step == "stabilize":
                    dht.stabilize_all()
                elif len(live) > 1 and step in ("leave", "fail"):
                    victim = rng.choice(live)
                    getattr(dht, step)(victim)
                    if step == "fail":
                        crashed.append(victim)
                elif step == "restart" and crashed:
                    dht.restart(crashed.pop())
                assert dht._gateway().name == min(dht.peers())
                check_pastry(dht, rng)
