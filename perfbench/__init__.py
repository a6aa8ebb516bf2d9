"""Seeded benchmark of the resrings pipeline; run it with ``python3 perfbench/run.py``."""
