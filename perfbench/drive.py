"""Execute generated operations against an index and check the answers.

Two load loops:

* :func:`run_closed` — one client sends its next operation only after
  the previous one completed (``local-mixed``, ``routed-mixed``).
  Given several substrates it takes them in turn, :data:`TURN_OPS`
  ops each.
* :func:`run_open` — operations are due on a fixed schedule whatever
  the program does; each latency is timed from the operation's due
  time, so a stall is charged to every operation queued behind it
  (``service-open``).

Answers are checked against :class:`~perfbench.oracle.LivePoints`.
Check time is kept out of the measured wall time and latencies.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field

from perfbench.streams import WRITES
from perfbench.stats import digest

#: Latency groups the end-to-end metrics report.
GROUPS = ("lookup", "range", "write")

#: A measured pass is cut into this many equal windows (2 s each in a
#: 40 s run); the p50 and throughput metrics come from the faster
#: quarter of the windows, so host contention that covers less than
#: three quarters of the run does not move them.
WINDOWS = 20

#: Ops one lane of :func:`run_closed` runs before the next lane's turn:
#: short enough that every window holds many turns of every lane, long
#: enough that a lane's working set is back in cache for most of its
#: ops (a routed op takes ~1-5 ms).
TURN_OPS = 16


def group_of(kind: str) -> str:
    return "write" if kind in WRITES else kind


def execute(index, op):
    """Run one operation through the public index API."""
    if op.kind == "lookup":
        return index.lookup(op.key)
    if op.kind == "range":
        return index.range_query(op.region)
    if op.kind == "insert":
        return index.insert(op.key, op.ident)
    return index.delete(op.key, op.ident)


def check(op, result, oracle) -> bool:
    """Whether *result* is the right answer to *op* on *oracle*'s state
    (reads only; writes are checked by the reads that follow them)."""
    if op.kind == "lookup":
        bucket = result.bucket
        return bucket.covers(op.key) and any(
            record.value == op.ident and record.key == op.key
            for record in bucket.records
        )
    if op.kind == "range":
        got = sorted(record.value for record in result.records)
        region = op.region
        return result.complete and got == oracle.range_ids(
            region.lows, region.highs
        )
    if op.kind == "delete":
        return result is True
    return True


def answer_of(op, result):
    """A compact, substrate-independent rendering of an answer."""
    if op.kind == "range":
        return digest(sorted(record.value for record in result.records))
    if op.kind == "delete":
        return bool(result)
    return result.bucket.label


def costs_of(op, result):
    """The paper's per-operation costs (DHT-lookups, rounds)."""
    if op.kind == "delete":
        return None
    return (result.lookups, result.rounds)


def apply_write(op, oracle) -> None:
    if op.kind == "insert":
        oracle.insert(op.ident, op.key)
    elif op.kind == "delete":
        oracle.delete(op.ident)


class GcClock:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause = 0.0
        self._started = 0.0

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause += time.perf_counter() - self._started

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


@dataclass
class Sample:
    """Everything one measured pass collects."""

    latency: dict = field(default_factory=lambda: {g: [] for g in GROUPS})
    range_lookups: list = field(default_factory=list)
    range_rounds: list = field(default_factory=list)
    range_leaves: list = field(default_factory=list)
    range_records: list = field(default_factory=list)
    op_kinds: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)
    op_windows: list = field(default_factory=list)
    window_seconds: list = field(default_factory=lambda: [0.0] * WINDOWS)
    lags: list = field(default_factory=list)
    max_backlog: int = 0
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    checked: int = 0
    wall: float = 0.0
    elapsed: float = 0.0
    cpu: float = 0.0
    gc_collections: int = 0
    gc_pause: float = 0.0
    answers: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    first_error: str = ""

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def all_latencies(self) -> list:
        return [s for group in GROUPS for s in self.latency[group]]

    def merge(self, other: "Sample") -> None:
        """Pool *other* into this sample (routed overlays)."""
        for group in GROUPS:
            self.latency[group].extend(other.latency[group])
        for name in (
            "range_lookups", "range_rounds", "range_leaves",
            "range_records", "op_kinds", "op_seconds", "op_windows", "lags",
        ):
            getattr(self, name).extend(getattr(other, name))
        self.window_seconds = [
            a + b for a, b in zip(self.window_seconds, other.window_seconds)
        ]
        self.max_backlog = max(self.max_backlog, other.max_backlog)
        for name in (
            "attempted", "raised", "wrong", "checked", "wall", "elapsed",
            "cpu",
            "gc_collections", "gc_pause",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.first_error = self.first_error or other.first_error


def _record(sample: Sample, op, result, seconds: float, window: int) -> None:
    sample.latency[group_of(op.kind)].append(seconds)
    sample.op_kinds.append(op.kind)
    sample.op_seconds.append(seconds)
    sample.op_windows.append(window)
    if op.kind == "range":
        sample.range_lookups.append(result.lookups)
        sample.range_rounds.append(result.rounds)
        sample.range_leaves.append(len(result.visited_leaves))
        sample.range_records.append(len(result.records))


def _verify(sample: Sample, op, result, oracle, checking: bool) -> None:
    if checking:
        sample.checked += 1
        if not check(op, result, oracle):
            sample.wrong += 1
            if not sample.first_error:
                sample.first_error = f"wrong answer to {op!r}"
    apply_write(op, oracle)


def run_closed(
    lanes,
    *,
    seconds: float | None = None,
    count: int | None = None,
    check_every: int = 1,
    keep_answers: bool = False,
    on_op=None,
) -> Sample:
    """One client, next op after the previous completed.

    *lanes* is a list of ``(index, stream, oracle)``; the lanes take
    turns of :data:`TURN_OPS` ops, each op the next of its lane's
    stream, run on the lane's index and checked against its oracle.
    Taking turns puts every lane into every stretch of time, so a slow
    stretch of the host is shared by all of them.  Stops after *count*
    ops, or once *seconds* of measured time (wall time minus checking)
    have passed.  The answer of every *check_every*-th op is checked.
    *on_op(position, op)* runs just before each op (the tracer uses it
    to tag spans)."""
    sample = Sample()
    paused = 0.0
    cpu_start = time.process_time()
    with GcClock() as gc_clock:
        start = time.perf_counter()
        due = start
        position = 0
        while True:
            if count is not None:
                if position >= count:
                    break
            elif due - start - paused >= seconds:
                break
            index, stream, oracle = lanes[
                position // TURN_OPS % len(lanes)
            ]
            op = next(stream)
            if on_op is not None:
                on_op(position, op)
            sent = time.perf_counter()
            window = (
                0 if seconds is None
                else min(WINDOWS - 1,
                         int((sent - start - paused) / seconds * WINDOWS))
            )
            try:
                result = execute(index, op)
            except Exception as error:
                done = time.perf_counter()
                sample.raised += 1
                sample.first_error = sample.first_error or repr(error)
                apply_write(op, oracle)
                if keep_answers:
                    sample.answers.append("raised")
                    sample.costs.append(None)
            else:
                done = time.perf_counter()
                _record(sample, op, result, done - sent, window)
                _verify(sample, op, result, oracle, position % check_every == 0)
                if keep_answers:
                    sample.answers.append(answer_of(op, result))
                    sample.costs.append(costs_of(op, result))
            sample.lags.append(sent - due)
            sample.attempted += 1
            position += 1
            # The op's share of measured time: from the end of the
            # previous op's bookkeeping to its own completion.
            sample.window_seconds[window] += done - due
            due = time.perf_counter()
            paused += due - done
        sample.wall = due - start - paused
        sample.elapsed = due - start
    sample.cpu = time.process_time() - cpu_start
    sample.gc_collections = gc_clock.collections
    sample.gc_pause = gc_clock.pause
    return sample


class ReadWriteLock:
    """Readers share; a writer runs alone (index maintenance is not
    safe to interleave with reads that may see a half-applied split)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire(self, write: bool) -> None:
        with self._cond:
            if write:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            else:
                while self._writer:
                    self._cond.wait()
                self._readers += 1

    def release(self, write: bool) -> None:
        with self._cond:
            if write:
                self._writer = False
            else:
                self._readers -= 1
            self._cond.notify_all()


def run_open(
    index,
    ops,
    rate: float,
    oracle,
    *,
    threads: int,
    check_every: int = 1,
    on_op=None,
) -> Sample:
    """Send *ops* on a fixed schedule: op *i* is due ``i / rate``
    seconds after the start.  *threads* sender threads take the next
    op in order, wait for its due time and run it; latency runs from
    the due time to completion.  Reads run concurrently, writes alone.
    """
    sample = Sample()
    lock = ReadWriteLock()
    claim = threading.Lock()
    tally = threading.Lock()
    cursor = [0]
    total = len(ops)
    last_done = [0.0]

    def sender() -> None:
        while True:
            with claim:
                position = cursor[0]
                cursor[0] += 1
            if position >= total:
                return
            op = ops[position]
            due = start + position / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            write = op.kind in WRITES
            lock.acquire(write)
            try:
                sent = time.perf_counter()
                if on_op is not None:
                    on_op(position, op)
                # Ops already due but not yet sent, this one excluded.
                due_now = min(total, int((sent - start) * rate) + 1)
                backlog = max(0, due_now - position - 1)
                try:
                    result = execute(index, op)
                    error = None
                except Exception as raised:
                    error = raised
                done = time.perf_counter()
                with tally:
                    if error is not None:
                        sample.raised += 1
                        sample.first_error = sample.first_error or repr(error)
                        apply_write(op, oracle)
                    else:
                        _record(sample, op, result, done - due,
                                position * WINDOWS // total)
                        _verify(
                            sample, op, result, oracle,
                            position % check_every == 0,
                        )
                    sample.max_backlog = max(sample.max_backlog, backlog)
                    sample.lags.append(sent - due)
                    sample.attempted += 1
                    last_done[0] = max(last_done[0], done)
            finally:
                lock.release(write)

    cpu_start = time.process_time()
    with GcClock() as gc_clock:
        workers = [
            threading.Thread(target=sender, name=f"perfbench-sender-{n}")
            for n in range(threads)
        ]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        sample.wall = max(last_done[0], start) - start
        sample.elapsed = time.perf_counter() - start
        sample.window_seconds = [sample.wall / WINDOWS] * WINDOWS
    sample.cpu = time.process_time() - cpu_start
    sample.gc_collections = gc_clock.collections
    sample.gc_pause = gc_clock.pause
    return sample
