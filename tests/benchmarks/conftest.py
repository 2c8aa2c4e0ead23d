"""Shared grid for the harness-pipeline tests.

One tiny fixed-seed configuration drives both the golden-report suite and
the harness-behaviour tests, so they exercise (and cache-share) the exact
same campaign artifacts.  Small enough for seconds-per-table, large enough
for a real leave-one-design-out split (3 designs: train / validate / attack).
"""

from repro.core import AttackConfig

TINY = AttackConfig(locks_per_setting=1, iscas_key_sizes=(8,), seed=5).with_gnn(
    hidden_dim=16, epochs=10, root_nodes=200, eval_every=2, patience=10
)
TINY_BENCHMARKS = ("c2670", "c3540", "c5315")
