"""Benchmark for lpflow: workloads, output checks, tracing and per-layer timings."""
