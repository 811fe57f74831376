"""The repository benchmark: three workloads over the public ``repro`` API.

Run it from the repository root::

    python3 perfbench/run.py --workload local-mixed --seed 1 --seconds 20 --trace 0

See ``perfbench/LAYERS.md`` for the workloads, the metrics and which
end-to-end metric each per-layer metric should move.
"""
