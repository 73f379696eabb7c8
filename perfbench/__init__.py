"""Repository benchmark: engine-day, fleet-batch and serve-sessions.

See ``perfbench/README.md`` for the metric catalogue and how to run it.
"""
