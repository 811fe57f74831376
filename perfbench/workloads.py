"""The three workloads: set-up, measured passes and their metrics.

* ``local-mixed`` — sim runtime, overlay ``local``: all work is in the
  index engine, the label algebra, store matching and LocalDht.
* ``routed-mixed`` — the same mix replayed against Chord, Kademlia and
  Pastry in turn: routing tables and SimNetwork dominate.
* ``service-open`` — asyncio service runtime under an open loop: the
  wire codec, actor inboxes and the loop-thread bridge dominate.

All three use ``IndexConfig()`` — the paper's configuration — and the
NE surrogate.  See ``perfbench/LAYERS.md``.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, replace

from repro import IndexConfig, MLightIndex, RuntimeConfig, bulk_load, create_dht

from perfbench import trace
from perfbench.drive import (
    GROUPS, WINDOWS, Sample, group_of, run_closed, run_open,
)
from perfbench.oracle import LivePoints
from perfbench.stats import digest, median, p99_or_none, percentile, ratio
from perfbench.streams import MixedStream, dataset, service_ops

CONFIG = IndexConfig()

#: How many times set-up runs in one invocation; ``setup_s`` is the
#: median.
SETUP_REPEATS = 5

#: Op ids of the n-th target start at n * OP_ID_STRIDE.
OP_ID_STRIDE = 10_000_000

#: Sender threads of the open loop: at most the box's 2 CPUs.
OPEN_LOOP_THREADS = 2

#: Range volume of the service mix (``request_trace``'s span).
SERVICE_SPAN = 4e-4

#: Percentile of the per-window p50s reported as a run's p50 (and, as
#: 100 minus it, of the per-window throughputs): the faster quarter of
#: the windows.  The shared host's speed swings by up to 2x over a few
#: seconds, so a window measures the program plus whatever else the
#: host ran then; the faster windows are the ones least disturbed, the
#: way ``timeit`` prefers the fastest repeat.  On the same ten 40 s
#: runs of ``local-mixed`` this cut the quartile spread between runs
#: against the median of the windows (``lookup_p50_ms`` 0.099 -> 0.051
#: of the median, ``ops_per_s`` 0.107 -> 0.080).
FAST_QUARTILE = 25

#: NetworkStats counters the fingerprint covers (wall time excluded).
NET_COUNTERS = ("messages", "bytes_sent", "payload_bytes", "rpc_calls", "rounds")


@dataclass(frozen=True)
class Spec:
    """One workload's fixed parameters."""

    name: str
    kind: str
    overlays: tuple
    peers: int
    points: int
    check_ops: int          # ops of the fully checked, fingerprinted prefix
    check_every: int        # check every n-th op of the measured pass
    rate: float = 0.0       # offered rate of the open loop (ops/s)
    ladder: tuple = ()      # offered rates of the max-rate search (ops/s)
    step_seconds: float = 0.0
    limit_ms: float = 0.0   # p90 latency limit of a passing ladder step

    @property
    def open_loop(self) -> bool:
        return self.rate > 0


SPECS = {
    spec.name: spec
    for spec in (
        Spec("local-mixed", "sim", ("local",), 128, 100_000,
             check_ops=200, check_every=10),
        Spec("routed-mixed", "sim", ("chord", "kademlia", "pastry"), 128,
             20_000, check_ops=150, check_every=10),
        Spec("service-open", "asyncio", ("local",), 8, 100_000,
             check_ops=150, check_every=10, rate=40.0,
             ladder=(60, 80, 100, 120, 140, 160, 180, 200, 240),
             step_seconds=3.0, limit_ms=250.0),
    )
}


def smoke_spec(name: str) -> Spec:
    """A tiny instance of workload *name* for the benchmark's tests."""
    spec = SPECS[name]
    return replace(
        spec, points=1500, peers=min(spec.peers, 16), check_ops=40,
        check_every=1, rate=spec.rate * 5, ladder=spec.ladder[:2],
        step_seconds=0.3,
    )


class Target:
    """One loaded index on one substrate, with its own op stream and
    its own model of the live set."""

    def __init__(self, spec: Spec, overlay: str, points, seed: int) -> None:
        self.overlay = overlay
        self.runtime = RuntimeConfig(
            kind=spec.kind, overlay=overlay, n_peers=spec.peers
        )
        started = time.perf_counter()
        self.dht = create_dht(self.runtime)
        bulk_load(self.dht, points, CONFIG)
        self.index = MLightIndex(self.dht, CONFIG)
        self.setup_seconds = time.perf_counter() - started
        keys = [key for key, _ in points]
        self.oracle = LivePoints(keys)
        self.stream = (
            None if spec.open_loop else MixedStream(keys, seed)
        )

    def counters(self) -> dict:
        """DhtStats plus the network counters, as one flat dict."""
        snap = dict(self.dht.stats.snapshot())
        network = getattr(self.dht, "network", None)
        for name in NET_COUNTERS:
            snap["net." + name] = (
                getattr(network.stats, name) if network is not None else 0
            )
        return snap

    def close(self) -> None:
        close = getattr(self.dht, "close", None)
        if close is not None:
            close()


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def build_targets(spec: Spec, points, seed: int, repeats: int):
    """Set up *repeats* times; returns (set-up seconds, last targets)."""
    items = [(key, ident) for ident, key in enumerate(points)]
    times = []
    targets = []
    for _ in range(repeats):
        for target in targets:
            target.close()
        # Each set-up starts from a clean heap: the previous one's
        # garbage is not collected on its clock.
        targets = None
        gc.collect()
        targets = [
            Target(spec, overlay, items, seed) for overlay in spec.overlays
        ]
        times.append(sum(target.setup_seconds for target in targets))
    return times, targets


class Run:
    """One invocation's state: inputs, targets, checks, fingerprint."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.points = dataset(spec.points)
        self.ops = None
        self.notes: list[str] = []

    def service_ops(self, count: int):
        if self.ops is None or len(self.ops) < count:
            self.ops = service_ops(self.points, count, self.seed, SERVICE_SPAN)
        return self.ops

    def checked_prefix(self, targets) -> tuple[Sample, str]:
        """Run the fully checked prefix on every target; returns the
        pooled sample and the counter fingerprint.  Every overlay must
        give the same answers at the same costs; a mismatching op
        counts as a wrong answer."""
        spec = self.spec
        pooled = Sample()
        parts = []
        reference = None
        for target in targets:
            before = target.counters()
            stream = (
                iter(self.service_ops(spec.check_ops)[: spec.check_ops])
                if spec.open_loop else target.stream
            )
            sample = run_closed(
                [(target.index, stream, target.oracle)],
                count=spec.check_ops, keep_answers=True,
            )
            parts.append({
                "overlay": target.overlay,
                "counters": _delta(target.counters(), before),
                "costs": sample.costs,
            })
            seen = list(zip(sample.answers, sample.costs))
            if reference is None:
                reference = (target.overlay, seen)
            else:
                mismatches = sum(a != b for a, b in zip(reference[1], seen))
                if mismatches:
                    sample.wrong += mismatches
                    self.notes.append(
                        f"{target.overlay} disagrees with {reference[0]} "
                        f"on {mismatches} ops"
                    )
            pooled.merge(sample)
        return pooled, digest(parts)

    def open_ops(self, first: int, count: int):
        return self.service_ops(first + count)[first: first + count]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(sample: Sample, setup_times) -> dict:
    """The end-to-end metrics of one measured pass.

    Throughput and the p50s are taken over the pass's windows, from
    the faster quarter of them (:data:`FAST_QUARTILE`); a p99 needs the
    whole pass's samples and is reported only when it has at least ten
    samples beyond it.
    """
    ms = 1e3
    windows = [[] for _ in range(WINDOWS)]
    for kind, seconds, window in zip(
        sample.op_kinds, sample.op_seconds, sample.op_windows
    ):
        windows[window].append((group_of(kind), seconds))

    def windowed_p50(group=None) -> float:
        return percentile([
            percentile(values, 50)
            for values in (
                [s for g, s in ops if group in (None, g)] for ops in windows
            )
            if values
        ], FAST_QUARTILE) * ms

    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": percentile([
            len(ops) / width
            for ops, width in zip(windows, sample.window_seconds)
            if ops
        ], 100 - FAST_QUARTILE),
        "op_p50_ms": windowed_p50(),
        "range_lookups_per_query": ratio(
            sum(sample.range_lookups), len(sample.range_lookups)),
        "range_rounds_per_query": ratio(
            sum(sample.range_rounds), len(sample.range_rounds)),
        "peak_rss_mb": _rss_mb(),
    }
    for group in GROUPS:
        metrics[f"{group}_p50_ms"] = windowed_p50(group)
    for name, values in (("op", sample.all_latencies),) + tuple(
        (group, sample.latency[group]) for group in GROUPS
    ):
        p99 = p99_or_none(values)
        if p99 is not None:
            metrics[f"{name}_p99_ms"] = p99 * ms
    return metrics


def measure(spec: Spec, seed: int, seconds: float) -> dict:
    """The untraced run: set-up, checked prefix, measured pass."""
    run = Run(spec, seed)
    setup_times, targets = build_targets(
        spec, run.points, seed, SETUP_REPEATS
    )
    try:
        checked, fingerprint = run.checked_prefix(targets)
        before = [target.counters() for target in targets]
        sample = _pass(run, targets, seconds, None, None)
        deltas = [
            _delta(target.counters(), start)
            for target, start in zip(targets, before)
        ]
        consistent = _final_check(run, targets)
    finally:
        for target in targets:
            target.close()
    metrics = end_to_end(sample, setup_times)
    messages = sum(delta["net.messages"] for delta in deltas)
    metrics["messages_per_op"] = ratio(messages, sample.attempted)
    attempted = checked.attempted + sample.attempted
    failed = checked.failed + sample.failed
    metrics["failed_frac"] = ratio(failed, attempted)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and consistent,
        "fingerprint": fingerprint,
        "checked": checked.checked + sample.checked,
        "notes": run.notes + _errors(checked, sample),
        "setup_times": setup_times,
        "runtime_configs": [repr(target.runtime) for target in targets],
    }


def _final_check(run: Run, targets) -> bool:
    """The index holds exactly the live set after the run."""
    ok = True
    for target in targets:
        held = target.index.total_records()
        if held != target.oracle.live:
            run.notes.append(
                f"{target.overlay}: index holds {held} records, "
                f"{target.oracle.live} are live"
            )
            ok = False
    return ok


def ladder(run: Run, target: Target, first: int) -> tuple[float, list]:
    """Step the offered rate up the fixed ladder; the highest rate
    whose p90 latency meets the limit with no growing backlog."""
    spec = run.spec
    best = 0.0
    steps = []
    for rate in spec.ladder:
        count = max(1, round(rate * spec.step_seconds))
        ops = run.open_ops(first, count)
        first += count
        sample = run_open(
            target.index, ops, rate, target.oracle,
            threads=OPEN_LOOP_THREADS, check_every=spec.check_every,
        )
        p90 = percentile(sample.all_latencies, 90) * 1e3
        achieved = ratio(sample.attempted, sample.wall)
        passed = (
            sample.failed == 0
            and p90 <= spec.limit_ms
            and achieved >= 0.95 * rate
        )
        steps.append({"rate": rate, "p90_ms": p90,
                      "achieved": achieved, "passed": passed})
        if not passed:
            break
        best = float(rate)
    return best, steps


def measure_layers(spec: Spec, seed: int, seconds: float, spans_path=None):
    """The traced run: a traced pass, then the same operations untraced
    on a second, identical set-up (the reference for tracing overhead,
    generator lag and process metrics)."""
    run = Run(spec, seed)
    recorder = trace.SpanRecorder()
    op_kinds: dict[int, str] = {}
    traced, deltas, ledgers, counts = [], [], [], []
    _, targets = build_targets(spec, run.points, seed, 1)
    try:
        checked, fingerprint = run.checked_prefix(targets)
        for number, target in enumerate(targets):
            offset = number * OP_ID_STRIDE
            spans_before = len(recorder.spans)

            def on_op(position, op, offset=offset):
                op_kinds[offset + position] = op.kind
                recorder.set_op(offset + position)

            before = target.counters()
            undo = trace.install(
                recorder, target.index, target.dht, target.overlay
            )
            try:
                sample = _pass(
                    run, [target], seconds / 2 / len(targets), None, on_op
                )
            finally:
                undo()
            counts.append(sample.attempted)
            traced.append(sample)
            deltas.append(_delta(target.counters(), before))
            own = {
                key: kind for key, kind in op_kinds.items()
                if offset <= key < offset + OP_ID_STRIDE
            }
            ledgers.append((target.overlay, trace.Ledger(
                recorder.spans[spans_before:], own)))
        consistent = _final_check(run, targets)
    finally:
        for target in targets:
            target.close()

    extra = {}
    reference, ref_deltas = [], []
    _, targets = build_targets(spec, run.points, seed, 1)
    try:
        rechecked, _ = run.checked_prefix(targets)
        checked.merge(rechecked)
        for target, count in zip(targets, counts):
            before = target.counters()
            reference.append(_pass(run, [target], None, count, None))
            ref_deltas.append(_delta(target.counters(), before))
        if spec.ladder:
            extra["max_rate_qps"], extra["ladder"] = ladder(
                run, targets[0], spec.check_ops + counts[0]
            )
        consistent = _final_check(run, targets) and consistent
    finally:
        for target in targets:
            target.close()

    if not spec.open_loop:
        # Tracing must not change what the program does.
        for ref, got, overlay in zip(ref_deltas, deltas, spec.overlays):
            if ref != got:
                run.notes.append(f"{overlay}: traced counters differ")
                consistent = False

    pooled_ref = Sample()
    for sample in reference:
        pooled_ref.merge(sample)
    pooled = Sample()
    for sample in traced:
        pooled.merge(sample)
    metrics = _layer_metrics(
        spec, pooled_ref, pooled, ledgers, op_kinds, recorder.spans, deltas
    )
    # The open loop's wall time is set by its schedule, so its overhead
    # is the CPU the same operations cost traced and untraced.
    if spec.open_loop:
        extra["trace.overhead"] = ratio(pooled.cpu, pooled_ref.cpu)
    else:
        extra["trace.overhead"] = ratio(pooled.wall, pooled_ref.wall)
    if spans_path is not None:
        trace.write_spans(recorder.spans, spans_path)
    attempted = checked.attempted + pooled_ref.attempted + pooled.attempted
    failed = checked.failed + pooled_ref.failed + pooled.failed
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and consistent,
        "fingerprint": fingerprint,
        "notes": run.notes + _errors(checked, pooled, pooled_ref),
        "spans": len(recorder.spans),
        "runtime_configs": [repr(target.runtime) for target in targets],
    }


def _pass(run: Run, targets, seconds, count, on_op) -> Sample:
    """One measured pass after the checked prefix: *count* ops, or (in
    a closed loop) as many as fit in *seconds*, the targets taking
    turns (see :func:`~perfbench.drive.run_closed`).  The open loop has
    a single target."""
    spec = run.spec
    gc.collect()
    if spec.open_loop:
        (target,) = targets
        if count is None:
            count = round(spec.rate * seconds)
        return run_open(
            target.index, run.open_ops(spec.check_ops, count), spec.rate,
            target.oracle, threads=OPEN_LOOP_THREADS,
            check_every=spec.check_every, on_op=on_op,
        )
    return run_closed(
        [(target.index, target.stream, target.oracle) for target in targets],
        seconds=seconds, count=count, check_every=spec.check_every,
        on_op=on_op,
    )


def _errors(*samples) -> list[str]:
    return [sample.first_error for sample in samples if sample.first_error]


def _layer_metrics(spec, reference, traced, ledgers, op_kinds, spans, deltas):
    ms = 1e3
    lags = reference.lags
    metrics = {
        "gen.lag_p50_ms": percentile(lags, 50) * ms,
        "gen.lag_p99_ms": percentile(lags, 99) * ms,
        "gen.max_backlog": float(reference.max_backlog),
        "proc.cpu_per_wall": ratio(reference.cpu, reference.elapsed),
        "proc.gc_collections": float(reference.gc_collections),
        "proc.gc_pause_ms": reference.gc_pause * ms,
    }
    pooled = trace.Ledger(spans, op_kinds)
    metrics.update(trace.index_metrics(pooled, traced))
    facade, calls = trace.facade_metrics(pooled)
    metrics.update(facade)
    total = {name: sum(d[name] for d in deltas) for name in deltas[0]}
    ops = max(traced.attempted, 1)
    writes = max(len(traced.latency["write"]), 1)
    metrics["index.records_moved_per_write"] = total["records_moved"] / writes
    metrics["dht.batch_ops_per_round"] = ratio(
        total["batch_ops"], total["batch_rounds"])
    metrics["dht.retries"] = float(total["retries"])
    metrics["net.messages_per_op"] = total["net.messages"] / ops
    metrics["net.bytes_per_op"] = total["net.bytes_sent"] / ops
    metrics["overlay.hops_per_lookup"] = ratio(total["hops"], total["lookups"])
    if spec.kind != "sim":
        metrics.update(trace.service_metrics(
            calls, ops, total, facade["dht.call_share"]))
    for (overlay, ledger), delta in zip(ledgers, deltas):
        if overlay in trace.OVERLAY_NODES:
            metrics.update(trace.overlay_metrics(ledger, overlay, delta))
    return metrics
