"""perfbench — the repository benchmark.

Runs the paper's time-to-fp64-solution comparison (fp64 GMRES vs GMRES-IR)
and the served-throughput workload from one entry point, ``run.py``, and
measures every layer of ``repro`` from outside by timing calls into its
public functions.  See ``README.md`` in this directory.
"""
