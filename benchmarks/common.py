"""Shared configuration for the benchmark harnesses.

The harnesses are thin wrappers over :mod:`repro.runner`: each one declares
one or more :class:`~repro.runner.CampaignSpec` grids, runs them through the
shared campaign executor (parallel workers + artifact cache + JSONL result
store), and renders the stored records into one table of the paper.

``REPRO_BENCH_PROFILE`` selects the workload size (see
:func:`repro.runner.profile_config`):

* ``quick``  (default) — ISCAS-85-like benchmarks, one lock per setting,
  reduced key-size sweep; each table regenerates in well under a minute.
* ``full``   — both suites, the paper's key-size sweeps and two locks per
  setting; expect tens of minutes on a laptop CPU.

``REPRO_BENCH_WORKERS`` caps the process count (default: up to 4);
``REPRO_BENCH_WORKERS=1`` forces serial execution.  Generated datasets and
trained models are cached under ``benchmarks/results/cache`` so re-running a
table (or a table that shares datasets with another) skips the heavy work.
``REPRO_BENCH_RESUME=1`` additionally skips whole tasks whose fingerprint
already has an ``ok`` record in the table's result store (crash recovery;
see ``python -m repro run --resume``).

Tables are printed to stdout and appended to ``benchmarks/results/``; task
records append to ``benchmarks/results/runs/<campaign>.jsonl``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.benchgen import available_benchmarks
from repro.core import AttackConfig
from repro.runner import (
    CampaignSpec,
    ResultStore,
    profile_config,
    profile_suites,
    run_campaign,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"
CACHE_DIR = RESULTS_DIR / "cache"
RUNS_DIR = RESULTS_DIR / "runs"

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "quick").lower()


def attack_config() -> AttackConfig:
    """The AttackConfig used by all harnesses for the selected profile."""
    return profile_config(PROFILE)


def bench_workers() -> int:
    """Worker-process count for campaign-backed harnesses."""
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def bench_resume() -> bool:
    """Whether harness campaigns skip tasks already ok in their store."""
    return os.environ.get("REPRO_BENCH_RESUME", "").lower() in ("1", "true", "yes")


def run_bench_campaign(
    specs: Union[CampaignSpec, Sequence[CampaignSpec]],
    *,
    name: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Run harness campaign(s) through the shared pool, cache and store.

    Accepts one spec or a sequence (their tasks run as a single campaign).
    Returns the latest :class:`ResultStore` record per task, in task order —
    the harnesses render their tables from these records, never from live
    attack objects.
    """
    if isinstance(specs, CampaignSpec):
        specs = [specs]
    tasks = [task for spec in specs for task in spec.expand()]
    name = name or specs[0].name
    store = ResultStore(RUNS_DIR / f"{name}.jsonl")
    results = run_campaign(
        tasks,
        workers=bench_workers(),
        serial=bench_workers() == 1,
        cache_dir=CACHE_DIR,
        store=store,
        resume=bench_resume(),
    )
    failures = [r for r in results if not r.ok]
    if failures:
        details = "; ".join(f"{r.task_id}: {r.error}" for r in failures)
        raise RuntimeError(f"{len(failures)} campaign task(s) failed: {details}")
    latest = store.latest()
    return [latest[task.fingerprint()] for task in tasks]


def bench_suites() -> List[str]:
    """Suites covered by the selected profile (ISCAS always, ITC on full)."""
    return list(profile_suites(PROFILE))


def iscas_benchmarks() -> List[str]:
    return available_benchmarks("ISCAS-85")


def itc_benchmarks() -> List[str]:
    """ITC-99-like targets; empty in the quick profile (ISCAS-only) so every
    table regenerates in minutes — the full profile covers both suites."""
    if PROFILE == "full":
        return available_benchmarks("ITC-99")
    return []


def emit(table_name: str, text: str) -> None:
    """Print a table and persist it under benchmarks/results/."""
    print(f"\n=== {table_name} ({PROFILE} profile) ===")
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{table_name}.txt"
    path.write_text(f"{table_name} ({PROFILE} profile)\n{text}\n")
