"""End-to-end benchmark of the reproduction, with spread.

``python3 perfbench/run.py`` is the single entry point; see
``perfbench/README.md`` for the metrics, the workloads and how to run,
trace and compare.
"""
