"""Span recording from outside the program, and the per-layer ledger.

The traced pass wraps the public entry points of each layer at run
time — on the index and substrate *instances* and on the leaf-bucket
and overlay-node *classes* — and records one span per call in memory:
``(span id, parent span id, op id, layer, name, start ns, end ns,
extra, raised)``.  Nothing in ``src/`` changes and the program's own
tracer stays off.  :func:`install` returns the function that removes
every wrapper again; an untraced pass installs none.

A layer's self time is its span minus its child spans.  Spans of one
operation share the op id the load loop sets before each op.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

from repro import LeafBucket
from repro.dht.chord import ChordNode
from repro.dht.kademlia import KademliaNode
from repro.dht.pastry import PastryNode

from perfbench.drive import GROUPS, group_of
from perfbench.stats import percentile, ratio

#: The Dht facade methods the traced pass wraps.  The ``*_outcomes``
#: forms are what the batched plane calls; they report under the name
#: of the primitive they implement.
FACADE_METHODS = {
    "get": "get",
    "get_many": "get_many",
    "get_many_outcomes": "get_many",
    "put": "put",
    "put_many": "put_many",
    "remove": "remove",
    "lookup": "lookup",
    "lookup_many": "lookup_many",
    "lookup_many_outcomes": "lookup_many",
    "get_direct": "get_direct",
    "rewrite_local": "rewrite_local",
}

INDEX_METHODS = ("lookup", "range_query", "insert", "delete")

OVERLAY_NODES = {
    "chord": ChordNode,
    "kademlia": KademliaNode,
    "pastry": PastryNode,
}


class SpanRecorder:
    """Collects spans in memory; one call stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_op(self, op_id: int) -> None:
        """Tag the spans this thread records next with *op_id*."""
        self._local.op = op_id

    def wrap(self, layer: str, name: str, function, extra=None):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            raised = False
            started = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                raised = True
                result = None
                raise
            finally:
                ended = clock()
                stack.pop()
                spans.append((
                    span_id, parent, getattr(local, "op", -1), layer, name,
                    started, ended,
                    extra(args, kwargs, result) if extra else None, raised,
                ))
            return result

        return traced


def _metered_lookups(method: str):
    """DHT-lookups one facade call meters (the DhtStats rule)."""
    if method == "rewrite_local":
        return lambda args, kwargs, result: 0
    if method.startswith(("get_many", "put_many", "lookup_many")):
        return lambda args, kwargs, result: len(args[0])
    return lambda args, kwargs, result: 1


def _match_extra(args, kwargs, result):
    """(records scanned, records returned) of one ``matching`` call."""
    return (args[0].load, len(result) if result is not None else 0)


def install(recorder: SpanRecorder, index, dht, overlay: str | None):
    """Wrap every layer boundary of one index; returns the undo."""
    undo = []

    def on_instance(obj, attribute, layer, name, extra=None):
        bound = getattr(obj, attribute)
        setattr(obj, attribute, recorder.wrap(layer, name, bound, extra))
        undo.append(lambda: delattr(obj, attribute))

    def on_class(cls, attribute, layer, name, extra=None):
        original = cls.__dict__[attribute]
        setattr(cls, attribute, recorder.wrap(layer, name, original, extra))
        undo.append(lambda: setattr(cls, attribute, original))

    for method in INDEX_METHODS:
        on_instance(index, method, "index", method)
    on_class(LeafBucket, "matching", "store", "matching", _match_extra)
    for method, name in FACADE_METHODS.items():
        on_instance(dht, method, "dht", name, _metered_lookups(method))
    if overlay in OVERLAY_NODES:
        on_instance(dht.network, "rpc", "net", "rpc")
        on_class(OVERLAY_NODES[overlay], "handle_rpc", "overlay", overlay)

    def remove() -> None:
        for step in reversed(undo):
            step()

    return remove


def write_spans(spans, path) -> None:
    """Write *spans* as JSON lines (times in ns)."""
    keys = (
        "id", "parent", "op", "layer", "name", "start_ns", "end_ns",
        "extra", "raised",
    )
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")


class Ledger:
    """Per-layer numbers of one traced pass over one index."""

    def __init__(self, spans, op_kinds: dict[int, str]) -> None:
        self.op_kinds = op_kinds
        self.ops = len(op_kinds)
        self.by_id = {span[0]: span for span in spans}
        child_ns: dict[int, int] = {}
        for span in spans:
            if span[1]:
                child_ns[span[1]] = child_ns.get(span[1], 0) + span[6] - span[5]
        self.child_ns = child_ns
        self.spans = spans

    def layer_of_parent(self, span) -> str | None:
        parent = self.by_id.get(span[1])
        return parent[3] if parent else None

    def self_ns(self, span) -> int:
        return span[6] - span[5] - self.child_ns.get(span[0], 0)

    def group_count(self, group: str) -> int:
        return sum(1 for kind in self.op_kinds.values() if group_of(kind) == group)

    def op_ns(self) -> dict[str, int]:
        """Total op time per group: the outermost index spans."""
        totals = {group: 0 for group in GROUPS}
        for span in self.spans:
            if span[3] == "index" and self.layer_of_parent(span) is None:
                totals[group_of(self.op_kinds[span[2]])] += span[6] - span[5]
        return totals

    def outer(self, layer: str):
        """Spans of *layer* not nested in a span of the same layer."""
        return [
            span for span in self.spans
            if span[3] == layer and self.layer_of_parent(span) != layer
        ]


def index_metrics(ledger: Ledger, sample) -> dict[str, float]:
    """Index engine and record store rows."""
    self_ns = {group: 0 for group in GROUPS}
    lookups = {group: 0 for group in GROUPS}
    match_ns = match_calls = scanned = returned = 0
    range_match_ns = range_match_calls = 0
    for span in ledger.spans:
        kind = ledger.op_kinds.get(span[2])
        if kind is None:
            continue
        group = group_of(kind)
        layer = span[3]
        if layer == "index":
            self_ns[group] += ledger.self_ns(span)
        elif layer == "dht" and ledger.layer_of_parent(span) != "dht":
            lookups[group] += span[7]
        elif layer == "store":
            match_ns += span[6] - span[5]
            match_calls += 1
            scanned += span[7][0]
            returned += span[7][1]
            if group == "range":
                range_match_ns += span[6] - span[5]
                range_match_calls += 1
    op_ns = ledger.op_ns()
    counts = {group: ledger.group_count(group) for group in GROUPS}
    def mean(values):
        return ratio(sum(values), len(values))

    metrics = {}
    for group in GROUPS:
        metrics[f"index.self_us.{group}"] = ratio(self_ns[group], counts[group]) / 1e3
        metrics[f"index.dht_lookups.{group}"] = ratio(lookups[group], counts[group])
    metrics["index.rounds.range"] = mean(sample.range_rounds)
    metrics["index.leaves_per_range"] = mean(sample.range_leaves)
    metrics["index.records_per_range"] = mean(sample.range_records)
    metrics["store.match_calls_per_range"] = ratio(range_match_calls, counts["range"])
    metrics["store.match_us_per_call"] = ratio(match_ns, match_calls) / 1e3
    metrics["store.match_share_range"] = ratio(range_match_ns, op_ns["range"])
    metrics["store.scanned_per_returned"] = ratio(scanned, returned)
    return metrics


def facade_metrics(ledger: Ledger) -> tuple[dict[str, float], dict]:
    """Substrate-facade rows, and the outermost facade call durations
    (ns) per method."""
    calls: dict[str, list[int]] = {}
    failed = 0
    for span in ledger.outer("dht"):
        calls.setdefault(span[4], []).append(span[6] - span[5])
        failed += span[8]
    total_ns = sum(sum(values) for values in calls.values())
    op_total = sum(ledger.op_ns().values())
    metrics = {
        f"dht.us_per_call.{name}": sum(values) / len(values) / 1e3
        for name, values in sorted(calls.items())
    }
    metrics["dht.calls_per_op"] = ratio(sum(map(len, calls.values())), ledger.ops)
    metrics["dht.call_share"] = ratio(total_ns, op_total)
    metrics["dht.failed_calls"] = float(failed)
    return metrics, calls


def overlay_metrics(ledger: Ledger, overlay: str, delta: dict) -> dict:
    """Overlay-routing and simulated-network rows for one overlay;
    *delta* holds its DhtStats and ``net.*`` counter deltas."""
    outer = ledger.outer("dht")
    facade_ns = sum(span[6] - span[5] for span in outer)
    handler = [span[6] - span[5] for span in ledger.spans if span[3] == "overlay"]
    rpc_self = [ledger.self_ns(span) for span in ledger.spans if span[3] == "net"]
    # Each batched facade call is one parallel message round.
    range_rounds = sum(
        1 for span in outer
        if span[4].endswith("_many") and ledger.op_kinds.get(span[2]) == "range"
    )
    ops = max(ledger.ops, 1)
    hop = f"overlay.{overlay}."
    net = f"net.{overlay}."
    return {
        hop + "hops_per_lookup": ratio(delta["hops"], delta["lookups"]),
        hop + "us_per_hop": ratio(facade_ns, delta["hops"]) / 1e3,
        hop + "handler_us_per_rpc": ratio(sum(handler), len(handler)) / 1e3,
        hop + "facade_share": ratio(facade_ns, sum(ledger.op_ns().values())),
        net + "rpcs_per_op": delta["net.rpc_calls"] / ops,
        net + "messages_per_op": delta["net.messages"] / ops,
        net + "bytes_per_op": delta["net.bytes_sent"] / ops,
        net + "payload_share": ratio(
            delta["net.payload_bytes"], delta["net.bytes_sent"]),
        net + "self_us_per_rpc": ratio(sum(rpc_self), len(rpc_self)) / 1e3,
        net + "sim_rounds_per_range": ratio(range_rounds, ledger.group_count("range")),
    }


def service_metrics(calls: dict, ops: int, delta: dict, call_share: float) -> dict:
    """Service-plane rows: client-observed facade round trips, and the
    frames the transport counted."""
    metrics = {}
    for name, values in sorted(calls.items()):
        micros = [value / 1e3 for value in values]
        metrics[f"svc.call_us_p50.{name}"] = percentile(micros, 50)
        metrics[f"svc.call_us_p99.{name}"] = percentile(micros, 99)
    metrics["svc.frames_per_op"] = delta["net.messages"] / ops
    metrics["svc.frame_bytes_per_op"] = delta["net.bytes_sent"] / ops
    metrics["svc.call_share"] = call_share
    return metrics
