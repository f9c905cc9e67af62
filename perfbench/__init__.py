"""Repository benchmark: end-to-end join and serving metrics plus an
outside-in per-layer trace. See ``perfbench/README.md``; the entry
point is ``python3 perfbench/run.py``."""
