"""Leaf buckets — the distributed pieces of the decomposed kd-tree.

A leaf bucket stores two components (Section 3.3):

* the **label store** — the leaf's own label λ, which *encodes the
  whole local tree*: every ancestor is a prefix of λ and every branch
  node (an ancestor's sibling) is a modified prefix with the final bit
  inverted.  No adjacency lists are materialised or maintained;
* the **record store** — the data records whose keys fall in the
  leaf's cell, held by a pluggable
  :class:`~repro.core.store.RecordStore` backend (``"list"``,
  ``"columnar"`` or ``"numpy"``, selected per index via
  ``IndexConfig(store=...)``).  The bucket delegates mutation and
  querying; backends answer bit-identically, in insertion order.

Buckets are the unit of DHT storage: the bucket of leaf λ lives at DHT
key ``fmd(λ)``.  On the wire a bucket travels as its struct-packed
codec form (:mod:`repro.core.codec`) — pickling a bucket (the service
runtime's frames, churn handoff) embeds the codec bytes rather than a
Python object graph.

Hot-path caches (all derived, invisible to equality/repr):

* :attr:`region` is computed once per bucket — the label never changes
  after construction;
* each store backend rebuilds its own query structure lazily, tagged
  by the store's **generation counter** (bumped on every mutation) —
  never by comparing record counts, so an equal-count remove+add can
  never serve a stale answer.  :meth:`matching_naive` keeps the
  original scan as the equivalence oracle for tests and benchmarks.
"""

from __future__ import annotations

from repro.common.errors import InvalidLabelError
from repro.common.geometry import Region, region_of_label
from repro.common.labels import ancestors, branch_nodes_between, is_valid_label
from repro.core.records import Record
from repro.core.store import DEFAULT_STORE, RecordStore, Rows, create_store


def split_dim_of(label: str, dims: int) -> int:
    """The dimension the cell of *label* halves when it splits (depth
    cycles through the ``m`` dimensions; the ordinary root splits
    dimension 0)."""
    depth = len(label) - dims - 1
    return depth % dims if depth > 0 else 0


class LeafBucket:
    """One leaf of the space kd-tree, as stored in the DHT."""

    __slots__ = ("label", "dims", "_store", "_region", "_wire")

    def __init__(
        self,
        label: str,
        dims: int,
        records=None,
        store: str | RecordStore | None = None,
    ) -> None:
        if not is_valid_label(label, dims):
            raise InvalidLabelError(
                f"{label!r} is not a valid {dims}-d leaf label"
            )
        self.label = label
        self.dims = dims
        self._region: Region | None = None
        #: (store, store generation, label, codec size) of the last
        #: :meth:`encoded_wire_size` answer.
        self._wire: tuple[RecordStore, int, str, int] | None = None
        if isinstance(records, RecordStore):
            self._store = records
        elif isinstance(store, RecordStore):
            if records:
                raise ValueError(
                    "pass records through the store, not alongside it"
                )
            self._store = store
        else:
            kind = store if store is not None else DEFAULT_STORE
            source = records
            if source is not None and not isinstance(source, Rows):
                source = list(source)
            self._store = create_store(
                kind, dims, split_dim_of(label, dims), source
            )

    # ------------------------------------------------------------------
    # Record store
    # ------------------------------------------------------------------

    @property
    def store(self) -> RecordStore:
        """The pluggable record-store backend holding this leaf's data."""
        return self._store

    @property
    def records(self) -> list[Record]:
        """The stored records, insertion order (read-only view: mutate
        through :meth:`add`/:meth:`remove` so the store's generation
        counter tracks every change)."""
        return self._store.records()

    @property
    def load(self) -> int:
        """Number of records stored (the paper's bucket load ``l``)."""
        return self._store.count

    @property
    def is_empty(self) -> bool:
        """True for an empty bucket (the Fig. 6b measure)."""
        return self._store.count == 0

    def add(self, record: Record) -> None:
        """Insert *record*; its key must fall inside this cell."""
        if not self.covers(record.key):
            raise InvalidLabelError(
                f"record {record.key} outside cell of leaf {self.label!r}"
            )
        self._store.add(record)

    def remove(self, record: Record) -> bool:
        """Remove one occurrence of *record*; True when found."""
        return self._store.remove(record)

    @property
    def split_dim(self) -> int:
        """The dimension this leaf's cell halves when it splits — the
        sort dimension of the backing store."""
        return split_dim_of(self.label, self.dims)

    def matching(self, query: Region) -> list[Record]:
        """Records whose keys match the closed *query* region.

        Served by the record-store backend; answers are bit-identical
        to :meth:`matching_naive`, in the same (insertion) order.
        """
        return self._store.matching(query.lows, query.highs)

    def matching_naive(self, query: Region) -> list[Record]:
        """Reference linear scan (the pre-columnar implementation)."""
        return [
            record
            for record in self._store.records()
            if query.contains_point_closed(record.key)
        ]

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------

    def encoded_wire_size(self) -> int:
        """Exact codec byte size — the unified byte-accounting hook
        (:func:`repro.core.codec.payload_wire_size`).

        Memoized per store generation: one message is priced twice
        (whole message, then its data-plane share), and pricing pickles
        every payload value.
        """
        store = self._store
        wire = self._wire
        if (
            wire is not None
            and wire[0] is store
            and wire[1] == store.generation
            and wire[2] == self.label
        ):
            return wire[3]
        from repro.core.codec import encoded_bucket_size

        size = encoded_bucket_size(self)
        self._wire = (store, store.generation, self.label, size)
        return size

    def __reduce__(self):
        # Pickled buckets (service frames, churn handoff, copies)
        # travel as codec bytes, not as Python object graphs.
        from repro.core.codec import decode_bucket, encode_bucket

        return (decode_bucket, (encode_bucket(self),))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeafBucket):
            return NotImplemented
        return (
            self.label == other.label
            and self.dims == other.dims
            and self.records == other.records
        )

    __hash__ = None  # mutable container, like the previous dataclass

    def __repr__(self) -> str:
        return (
            f"LeafBucket(label={self.label!r}, dims={self.dims!r}, "
            f"records={self.records!r})"
        )

    # ------------------------------------------------------------------
    # Label store (the encoded local tree)
    # ------------------------------------------------------------------

    @property
    def region(self) -> Region:
        """The half-open cell this leaf indexes (computed once)."""
        region = self._region
        if region is None:
            region = region_of_label(self.label, self.dims)
            self._region = region
        return region

    def covers(self, point) -> bool:
        """True when *point* falls in this leaf's cell."""
        return self.region.contains_point(point)

    def local_tree_ancestors(self) -> list[str]:
        """All ancestors of this leaf, nearest first (the local tree)."""
        return list(ancestors(self.label, self.dims))

    def branch_nodes_below(self, top: str) -> list[str]:
        """Branch nodes between this leaf and ancestor *top*,
        shallowest first — the forwarding targets of Algorithm 3."""
        return branch_nodes_between(self.label, top, self.dims)

    def is_descendant_or_self_of(self, other: str) -> bool:
        """True when this leaf lies in the subtree rooted at *other*."""
        return self.label.startswith(other)
