"""Campaign orchestration: parallel attack execution with artifact caching.

The runner turns the one-design-at-a-time attack loop into a declarative,
parallel, cached system:

* :mod:`~repro.runner.campaign` — :class:`CampaignSpec` grids expand into
  independent, deterministically seeded :class:`AttackTask` units.
* :mod:`~repro.runner.executor` — process-pool execution with per-task crash
  isolation, timeouts, and ordered structured results.
* :mod:`~repro.runner.cache` — content-addressed on-disk cache for generated
  locked datasets and trained GNN models.
* :mod:`~repro.runner.store` — append-only JSONL result store plus the
  aggregation helpers that reproduce the paper-table summaries.
* :mod:`~repro.runner.matrix` — the standing attack × defense capability
  matrix with trend deltas against the previous sweep.
* :mod:`~repro.runner.cli` — the ``python -m repro`` command line.
"""

from .cache import (
    ArtifactCache,
    CACHE_VERSION,
    CacheEntry,
    default_cache_dir,
    fingerprint,
)
from .campaign import (
    AttackTask,
    BASELINE_ATTACKS,
    CampaignSpec,
    DatasetSpec,
    PROFILES,
    SchemeSpec,
    config_from_dict,
    config_to_dict,
    parse_scheme_spec,
    profile_campaign,
    profile_config,
    profile_suites,
    registered_attacks,
)
from .executor import (
    CacheStats,
    TaskResult,
    campaign_cache_stats,
    execute_task,
    outcome_record,
    run_campaign,
)
from .matrix import (
    WarehouseMatrixHistory,
    build_matrix,
    matrix_campaign,
    matrix_scheme_entries,
    render_matrix_report,
    trend_deltas,
)
from .store import (
    ResultStore,
    aggregate,
    campaign_table,
    h_tech_table,
    paper_table,
    render_report,
)

__all__ = [
    "ArtifactCache",
    "AttackTask",
    "BASELINE_ATTACKS",
    "CACHE_VERSION",
    "CacheEntry",
    "CacheStats",
    "CampaignSpec",
    "DatasetSpec",
    "WarehouseMatrixHistory",
    "PROFILES",
    "ResultStore",
    "SchemeSpec",
    "TaskResult",
    "aggregate",
    "build_matrix",
    "campaign_cache_stats",
    "campaign_table",
    "config_from_dict",
    "config_to_dict",
    "default_cache_dir",
    "execute_task",
    "fingerprint",
    "h_tech_table",
    "matrix_campaign",
    "matrix_scheme_entries",
    "outcome_record",
    "paper_table",
    "parse_scheme_spec",
    "profile_campaign",
    "profile_config",
    "profile_suites",
    "registered_attacks",
    "render_matrix_report",
    "render_report",
    "run_campaign",
    "trend_deltas",
]
