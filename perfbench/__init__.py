"""Benchmark harness for the sumprod package; the entry point is run.py."""
