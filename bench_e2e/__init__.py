"""The repo's end-to-end benchmark (see README.md and ../BENCHMARK.json).

Lives outside ``src/`` on purpose: every layer of ``repro`` is measured
*from outside*, by timing calls into its public functions, so a change
that claims a gain cannot edit what judges it.
"""
