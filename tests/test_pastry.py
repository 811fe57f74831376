"""Tests for the Pastry overlay."""

import pytest

from repro.common.errors import DhtKeyError, ReproError
from repro.dht.hashing import key_digest
from repro.dht.pastry import (
    N_DIGITS,
    PastryDht,
    digit_at,
    numeric_distance,
    shared_digits,
)


class TestDigits:
    def test_digit_count_and_range(self):
        ident = key_digest("x")
        assert shared_digits(ident, ident) == N_DIGITS
        assert all(0 <= digit_at(ident, row) < 16 for row in range(N_DIGITS))

    def test_roundtrip(self):
        ident = key_digest("roundtrip")
        rebuilt = 0
        for row in range(N_DIGITS):
            rebuilt = (rebuilt << 4) | digit_at(ident, row)
        assert rebuilt == ident

    def test_shared_prefix(self):
        def ident(*digits):
            return sum(
                digit << (4 * (N_DIGITS - 1 - row))
                for row, digit in enumerate(digits)
            )

        assert shared_digits(ident(1, 2, 3), ident(1, 2, 4)) == 2
        assert shared_digits(ident(1), ident(2)) == 0
        assert shared_digits(ident(1, 2), ident(1, 2)) == N_DIGITS
        # The first differing bit decides, wherever it sits in a digit.
        assert shared_digits(ident(1, 8), ident(1, 0)) == 1
        assert shared_digits(ident(1, 0, 1), ident(1, 0, 0)) == 2


class TestRouting:
    def test_lookup_agrees_with_numeric_oracle(self):
        dht = PastryDht.build(24)
        for index in range(60):
            key = f"key-{index}"
            assert dht.lookup(key) == dht.peer_of(key)

    def test_hops_bounded_by_digits(self):
        dht = PastryDht.build(48)
        dht.stats.reset()
        for index in range(40):
            dht.lookup(f"key-{index}")
        assert dht.stats.hops / 40 < N_DIGITS

    def test_put_get_remove(self):
        dht = PastryDht.build(12)
        dht.put("k", "v", records_moved=2)
        assert dht.get("k") == "v"
        assert dht.stats.records_moved == 2
        assert dht.remove("k") == "v"
        with pytest.raises(DhtKeyError):
            dht.remove("k")

    def test_value_lands_on_closest_node(self):
        dht = PastryDht.build(16)
        dht.put("payload", 99)
        owner = dht.node(dht.peer_of("payload"))
        assert owner.store.get("payload") == 99

    def test_build_rejects_zero(self):
        with pytest.raises(ReproError):
            PastryDht.build(0)

    def test_single_node(self):
        dht = PastryDht.build(1)
        dht.put("k", 1)
        assert dht.get("k") == 1


class TestMembership:
    def test_join_takes_over_keys(self):
        dht = PastryDht.build(8)
        for index in range(100):
            dht.put(f"key-{index}", index)
        dht.join("pastry-late")
        late = dht.node("pastry-late")
        for key, _ in late.store.items():
            assert dht.peer_of(key) == "pastry-late"
        assert sum(1 for _ in dht.items()) == 100
        for index in range(0, 100, 9):
            assert dht.get(f"key-{index}") == index

    def test_duplicate_join_rejected(self):
        dht = PastryDht.build(4)
        with pytest.raises(ReproError):
            dht.join("pastry-0000")

    def test_fail_forgets_contact(self):
        dht = PastryDht.build(12)
        victim = dht.peers()[4]
        dht.fail(victim)
        for name in dht.peers():
            node = dht.node(name)
            assert all(pair[1] != victim for pair in node.leaf_set)
        # Routing still works around the hole.
        for index in range(30):
            key = f"key-{index}"
            assert dht.lookup(key) == dht.peer_of(key)


class TestLeafSetInvariant:
    def test_leaf_sets_hold_numerically_closest(self):
        dht = PastryDht.build(20)
        idents = sorted(
            (dht.node(name).ident, name) for name in dht.peers()
        )
        for name in dht.peers():
            node = dht.node(name)
            others = [pair for pair in idents if pair[1] != name]
            closest = sorted(
                others,
                key=lambda pair: numeric_distance(pair[0], node.ident),
            )[: len(node.leaf_set)]
            assert set(node.leaf_set) == set(closest)
