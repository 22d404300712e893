"""Benchmark of the mmadapt package: workloads, tracing and checks.

Run it with `python3 perfbench/run.py`; see README.md beside this file.
"""
