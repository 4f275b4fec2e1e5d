"""Wall-clock benchmark of the simulator, its plan pipeline and its server.

Everything the repo pins elsewhere is *modelled* time; this package
measures the *host* clock — what a user of ``repro run``,
``replay_plan`` or ``TransposeServer`` waits for — from outside, through
the public names listed in :mod:`benchmarks.wall.adapter`.  See
``README.md`` in this directory for the metric and workload tables.
"""
