"""The benchmark's workloads.

Each module provides:

- ``NOMINAL_ROUND_S``: the length of one round on a 2-core x86 box; a run
  makes ``round(--seconds / NOMINAL_ROUND_S)`` rounds (at least one), so a
  seed fixes the exact operations of a run;
- ``build(seed, workdir, rounds)``: the inputs, made from the seed only,
  with the lossorder objects the operations start from;
- ``run_round(state, session)``: one round; it times every operation with
  ``session.timed``, checks its output and records it with
  ``session.record``.
"""
