"""Run one workload of the repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload local-mixed --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` runs a traced pass, then the same operations
untraced on a second set-up, and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names are those
``BENCHMARK.json`` lists.  Every run is appended, with its provenance,
to ``perfbench/out/trajectory.jsonl``; a traced run also writes its
spans and its per-layer table under ``perfbench/out/``.

The process pins itself to one CPU before it sets anything up (see
``pin_to_one_cpu``).  The benchmark builds nothing: it imports the
program from ``src/`` of the directory it runs in, and exits with
status 2 when there is none.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"

#: Units of every metric the benchmark can print, by name prefix.
UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "max_rate_qps": "ops/s",
    "range_lookups_per_query": "count",
    "range_rounds_per_query": "count",
    "messages_per_op": "count",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
    "trace.overhead": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if re.search(r"(^|[._])us([._]|$)", name):
        return "us"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_share", "cpu_per_wall", "_per_returned")):
        return "ratio"
    return "count"


def _import_program():
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {source}/repro is missing; "
            "run from the repository root",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))


def pin_to_one_cpu() -> int | None:
    """Pin this process, and every thread it starts, to the last CPU it
    may run on; returns that CPU, or None where affinity is unsupported.

    The program's batched plane hands each round's elements to a
    thread pool.  Spread over several CPUs of a shared host, every
    hand-off to a worker on an idle CPU waits for that CPU to be woken,
    and how long that takes follows the rest of the host's load, not
    the program: on a shared 2-vCPU host the same run measured 116 and
    220 ops/s a minute apart.  On one CPU a hand-off is an ordinary
    context switch.  The GIL keeps the program's Python on one CPU at a
    time anyway, so pinning takes no parallelism away from it.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
    except (AttributeError, OSError):
        return None
    return allowed[-1]


def _git() -> dict:
    """Commit and dirty flag, read only from this directory's own
    ``.git`` (never a parent's)."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return {"sha": "unknown", "dirty": None}
    env = dict(os.environ, GIT_DIR=str(git_dir), GIT_WORK_TREE=str(ROOT))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], env=env, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            env=env, capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(spec, seed: int, seconds: float, trace: int, cpu) -> dict:
    from perfbench.workloads import CONFIG

    return {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git": _git(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "workload": spec.name,
        "sizes": {"points": spec.points, "peers": spec.peers,
                  "overlays": list(spec.overlays), "rate": spec.rate},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "index_config": repr(CONFIG),
    }


def _table(title: str, metrics: dict) -> str:
    lines = [title]
    width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        value = metrics[name]
        lines.append(f"  {name:<{width}}  {value:>14.4f}  {unit_of(name)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark_file = ROOT / "BENCHMARK.json"
    if not benchmark_file.is_file():
        print("perfbench: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    _import_program()
    cpu = pin_to_one_cpu()
    from perfbench.workloads import SPECS, measure, measure_layers

    spec = SPECS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(SPECS)}", file=sys.stderr)
        return 2
    declared = json.loads(benchmark_file.read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    record = provenance(spec, args.seed, args.seconds, args.trace, cpu)
    if args.trace:
        stem = f"{spec.name}-seed{args.seed}"
        result = measure_layers(
            spec, args.seed, args.seconds, OUT / f"{stem}-spans.jsonl"
        )
        wanted = declared["per_layer"]
        (OUT / f"{stem}-layers.json").write_text(json.dumps(
            {"provenance": record, "layers": result["metrics"],
             "extra": result["extra"]}, indent=2, sort_keys=True) + "\n")
        print(_table(f"{spec.name}: per-layer ledger (traced pass)",
                     result["metrics"]))
        extra = {k: v for k, v in result["extra"].items() if k != "ladder"}
        print(_table("untraced reference", extra))
        for step in result["extra"].get("ladder", []):
            print(f"  ladder step {step}")
    else:
        result = measure(spec, args.seed, args.seconds)
        wanted = declared["end_to_end"]
        print(_table(f"{spec.name}: end-to-end", result["metrics"]))
    print(f"  fingerprint {result['fingerprint']}")
    for note in result["notes"]:
        print(f"  note: {note}")

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    gated = any(w["name"] == spec.name for w in declared["workloads"])
    if missing and gated:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    wanted = [m for m in wanted if m["name"] in result["metrics"]]
    record.update(result)
    with open(OUT / "trajectory.jsonl", "a") as trajectory:
        trajectory.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
