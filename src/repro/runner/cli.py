"""``python -m repro`` — campaign orchestration from the command line.

Subcommands::

    repro run      expand a campaign grid and execute it (parallel by default)
    repro list     show the expanded tasks and their cache status
    repro schemes  list every registered locking scheme and its parameters
    repro matrix   standing attack x defense capability matrix with trends
    repro report   aggregate a JSONL result store into paper-style tables
    repro trace    export a store's telemetry trace to Chrome trace format
    repro cache    artifact-cache maintenance (stats, gc)
    repro serve    start the long-lived campaign service (HTTP JSON API)
    repro work     run a fleet drainer against a `repro serve --fleet` service
    repro submit   submit a campaign grid to a running service
    repro status   poll a service job (or list every job)
    repro watch    stream a job's live progress events (long-poll, no busy-poll)
    repro fetch    fetch a job's rendered report or raw records
    repro cancel   cancel a queued or running service job

Service access control: ``repro serve --tokens-file tokens.json`` turns on
bearer-token auth (``--token`` / ``REPRO_SERVICE_TOKEN`` client-side) with
per-token submit/worker/admin roles; jobs run in submission order.

Examples::

    python -m repro run --profile quick --targets c2670 c3540
    python -m repro run --scheme sfll:2@GEN65 --key-sizes 8,16 --workers 4
    python -m repro run --list-benchmarks
    python -m repro schemes --json
    python -m repro matrix --targets c2670 --key-sizes 8 --serial
    python -m repro matrix --dry-run
    python -m repro run --profile quick --dry-run
    python -m repro run --profile quick --resume   # skip tasks already done
    python -m repro list --profile quick
    python -m repro report --store runs/quick-campaign.jsonl
    python -m repro cache stats
    python -m repro cache gc --max-bytes 2G --max-age 30d
    python -m repro serve --port 8765 --state-dir runs/service
    python -m repro submit --profile quick --targets c2670 --wait
    python -m repro status 1b2c3d4e5f607182
    python -m repro fetch 1b2c3d4e5f607182 --report

Worker budgeting: ``--workers`` fans *tasks* over processes; each task
runs serially inside its process.  Setting ``REPRO_CACHE_MAX_BYTES`` /
``REPRO_CACHE_MAX_AGE`` makes every ``repro run`` finish with an automatic
``cache gc`` under that budget.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence
from urllib.error import URLError

from ..obs import (
    emit,
    load_rollup,
    obs_dir_for_store,
    read_events_jsonl,
    span_summary_table,
    to_chrome_trace,
    trace_path,
)
from ..service.client import (
    DEFAULT_SERVICE_URL,
    SERVICE_TOKEN_ENV,
    SERVICE_URL_ENV,
    ServiceClient,
    ServiceError,
)
from ..benchgen import SUITE_PROFILES
from ..locking import SCHEMES
from .cache import ArtifactCache, default_cache_dir, parse_age, parse_size
from .campaign import (
    BASELINE_ATTACKS,
    CampaignSpec,
    PROFILES,
    profile_campaign,
    registered_attacks,
)
from ..warehouse import (
    Warehouse,
    aggregate_stream,
    build_filter,
    ingest_store,
    parse_since,
)
from .executor import run_campaign
from .matrix import (
    WarehouseMatrixHistory,
    build_matrix,
    matrix_campaign,
    render_matrix_report,
)
from .store import ResultStore, aggregate, campaign_table, paper_table, render_report

__all__ = ["build_parser", "main"]


def _format_size(n_bytes: float) -> str:
    value = float(n_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            text = f"{value:.1f}" if unit != "B" else f"{int(value)}"
            return f"{text} {unit}"
        value /= 1024
    return f"{n_bytes} B"


def _parse_value(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_assignment(text: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"expected key=value, got {text!r} (e.g. gnn.epochs=40)")
    key, value = text.split("=", 1)
    return key.strip(), value


def _override_grid(
    sets: Sequence[str], sweeps: Sequence[str]
) -> List[Dict[str, object]]:
    """--set fixes a field for every task; --sweep adds a grid axis."""
    base: Dict[str, object] = {}
    for item in sets:
        key, value = _parse_assignment(item)
        base[key] = _parse_value(value)
    axes = []
    for item in sweeps:
        key, values = _parse_assignment(item)
        axes.append([(key, _parse_value(v)) for v in values.split(",")])
    if not axes:
        return [base]
    grid = []
    for combo in itertools.product(*axes):
        override = dict(base)
        override.update(combo)
        grid.append(override)
    return grid


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    grid = parser.add_argument_group("campaign grid")
    grid.add_argument(
        "--profile", choices=PROFILES, default="quick",
        help="workload profile supplying the default config and suites",
    )
    grid.add_argument("--name", help="campaign name (default: <profile>-campaign)")
    grid.add_argument(
        "--scheme", action="append", dest="schemes", metavar="SPEC",
        help="locking scheme grid entry, e.g. antisat, ttlock, sfll:2@GEN65; "
        "repeatable (default: antisat)",
    )
    grid.add_argument(
        "--suite", action="append", dest="suites", metavar="SUITE",
        help="benchmark suite (ISCAS-85, ITC-99); repeatable "
        "(default: the profile's suites)",
    )
    grid.add_argument(
        "--key-sizes", action="append", dest="key_size_groups", metavar="K[,K...]",
        help="comma-separated key-size group forming one dataset sweep; "
        "repeatable (default: the suite's paper sweep)",
    )
    grid.add_argument(
        "--benchmarks", nargs="+", help="dataset benchmark pool (default: suite)"
    )
    grid.add_argument(
        "--targets", nargs="+", help="benchmarks to attack (default: all in pool)"
    )
    grid.add_argument(
        "--attack", action="append", dest="attacks", metavar="NAME",
        help=f"attack to schedule: gnnunlock or one of {sorted(BASELINE_ATTACKS)}; "
        "repeatable (default: gnnunlock)",
    )
    grid.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="AttackConfig override applied to every task, e.g. gnn.epochs=40",
    )
    grid.add_argument(
        "--sweep", action="append", default=[], metavar="KEY=V1,V2",
        help="AttackConfig override axis; repeated sweeps form a grid",
    )
    grid.add_argument("--seed", type=int, help="base campaign seed")
    grid.add_argument("--timeout", type=float, help="per-task budget in seconds")


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    service = parser.add_argument_group("campaign service")
    service.add_argument(
        "--url", default=None,
        help=f"service URL (default: ${SERVICE_URL_ENV} or {DEFAULT_SERVICE_URL})",
    )
    service.add_argument(
        "--token", default=None,
        help=f"bearer token for an auth-enabled service "
        f"(default: ${SERVICE_TOKEN_ENV})",
    )
    service.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw JSON response (machine-readable)",
    )


def _service_client(args: argparse.Namespace) -> ServiceClient:
    url = args.url or os.environ.get(SERVICE_URL_ENV) or DEFAULT_SERVICE_URL
    token = args.token or os.environ.get(SERVICE_TOKEN_ENV) or None
    return ServiceClient(url, token=token)


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    cache = parser.add_argument_group("artifact cache")
    cache.add_argument(
        "--cache-dir", type=Path, default=None,
        help=f"artifact cache directory (default: {default_cache_dir()})",
    )
    cache.add_argument(
        "--no-cache", action="store_true", help="disable the artifact cache"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNNUnlock attack-campaign runner",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand and execute a campaign")
    _add_grid_arguments(run)
    _add_cache_arguments(run)
    run.add_argument("--workers", type=int, help="process count (default: CPUs)")
    run.add_argument(
        "--serial", action="store_true", help="run in-process, one task at a time"
    )
    run.add_argument(
        "--store", type=Path, default=None,
        help="JSONL result store (default: runs/<campaign>.jsonl)",
    )
    run.add_argument(
        "--dry-run", action="store_true",
        help="print the expanded tasks without executing anything",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="skip tasks whose fingerprint already has an ok record in the "
        "store (pick an interrupted campaign back up)",
    )
    run.add_argument(
        "--list-benchmarks", action="store_true",
        help="list every registered benchmark profile by suite and exit",
    )

    schemes_cmd = sub.add_parser(
        "schemes", help="list registered locking schemes and their parameters"
    )
    schemes_cmd.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the machine-readable schema descriptions",
    )

    matrix = sub.add_parser(
        "matrix",
        help="run the standing attack x defense capability matrix "
        "(every registered attack x every registered scheme)",
    )
    matrix.add_argument("--name", default="capability-matrix", help="campaign name")
    matrix.add_argument(
        "--suite", default="ISCAS-85", help="benchmark suite to sweep"
    )
    matrix.add_argument(
        "--key-sizes", default=None, metavar="K[,K...]",
        help="key sizes, one dataset per size (default: 8,16)",
    )
    matrix.add_argument(
        "--scheme", action="append", dest="schemes", metavar="SPEC",
        help="restrict to these scheme grid entries "
        "(default: every registered scheme)",
    )
    matrix.add_argument(
        "--attack", action="append", dest="attacks", metavar="NAME",
        help="restrict to these attacks "
        f"(default: every registered attack: {', '.join(registered_attacks())})",
    )
    matrix.add_argument(
        "--targets", nargs="+", help="benchmarks to attack (default: whole suite)"
    )
    matrix.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="AttackConfig override applied to every task, e.g. gnn.epochs=40",
    )
    matrix.add_argument(
        "--sweep", action="append", default=[], metavar="KEY=V1,V2",
        help="AttackConfig override axis; repeated sweeps form a grid",
    )
    matrix.add_argument("--timeout", type=float, help="per-task budget in seconds")
    matrix.add_argument("--workers", type=int, help="process count (default: CPUs)")
    matrix.add_argument(
        "--serial", action="store_true", help="run in-process, one task at a time"
    )
    matrix.add_argument(
        "--store", type=Path, default=None,
        help="JSONL result store (default: runs/<name>.jsonl)",
    )
    matrix.add_argument(
        "--warehouse", type=Path, default=None, metavar="DIR",
        help="result warehouse recording the sweep history for trend deltas "
        "(default: <store>.history/)",
    )
    matrix.add_argument(
        "--no-resume", action="store_true",
        help="recompute cells whose fingerprint already has an ok record "
        "(the matrix resumes incrementally by default)",
    )
    matrix.add_argument(
        "--no-history", action="store_true",
        help="render trends without appending this sweep to the history",
    )
    matrix.add_argument(
        "--dry-run", action="store_true",
        help="print the matrix axes and expanded tasks without executing",
    )
    _add_cache_arguments(matrix)

    list_cmd = sub.add_parser("list", help="show expanded tasks and cache status")
    _add_grid_arguments(list_cmd)
    _add_cache_arguments(list_cmd)
    list_cmd.add_argument(
        "--cache", action="store_true", dest="show_cache",
        help="list cached artifacts instead of campaign tasks",
    )

    cache_cmd = sub.add_parser("cache", help="artifact-cache maintenance")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    stats_cmd = cache_sub.add_parser(
        "stats", help="per-kind artifact counts and sizes"
    )
    gc_cmd = cache_sub.add_parser(
        "gc", help="evict artifacts least-recently-used first"
    )
    for sub_cmd in (stats_cmd, gc_cmd):
        sub_cmd.add_argument(
            "--cache-dir", type=Path, default=None,
            help=f"artifact cache directory (default: {default_cache_dir()})",
        )
    gc_cmd.add_argument(
        "--max-bytes", type=parse_size, default=None, metavar="SIZE",
        help="shrink the cache to at most this size (suffixes K/M/G/T)",
    )
    gc_cmd.add_argument(
        "--max-age", type=parse_age, default=None, metavar="AGE",
        help="evict artifacts unused for longer than this "
        "(seconds, or suffixed 30m/12h/7d/2w)",
    )
    gc_cmd.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting anything",
    )

    report = sub.add_parser("report", help="aggregate a JSONL result store")
    report.add_argument("--store", type=Path, required=True, help="JSONL store path")
    report.add_argument(
        "--group-by", nargs="+", default=["scheme", "suite", "technology"],
        help="record fields to average over",
    )
    report.add_argument(
        "--paper", action="store_true",
        help="also print the Table IV/V-style per-benchmark breakdown",
    )
    report.add_argument(
        "--all", action="store_true", dest="show_all",
        help="use every record, not just the latest per task",
    )
    report.add_argument(
        "--service-style", action="store_true",
        help="print exactly the deterministic report a service job serves "
        "(status counts + paper table, no wall-clock columns)",
    )
    report.add_argument(
        "--timings", action="store_true",
        help="also print the per-phase span breakdown from the store's "
        "telemetry rollup (requires a campaign run with REPRO_OBS=1)",
    )

    warehouse = sub.add_parser(
        "warehouse",
        help="cross-campaign result warehouse (ingest / query / compact / stats)",
    )
    wh_sub = warehouse.add_subparsers(dest="warehouse_command", required=True)

    wh_ingest = wh_sub.add_parser(
        "ingest", help="tail JSONL result stores into a warehouse"
    )
    wh_ingest.add_argument(
        "--warehouse", type=Path, required=True, metavar="DIR",
        help="warehouse directory (created if missing)",
    )
    wh_ingest.add_argument(
        "--store", action="append", type=Path, default=[], dest="stores",
        metavar="FILE", help="JSONL store to ingest (repeatable)",
    )
    wh_ingest.add_argument(
        "--state-dir", type=Path, default=None, metavar="DIR",
        help="service state dir: ingest every stores/*.jsonl under it",
    )

    wh_query = wh_sub.add_parser(
        "query", help="cross-campaign record query (local dir or service)"
    )
    wh_query.add_argument(
        "--warehouse", type=Path, default=None, metavar="DIR",
        help="query this warehouse directory locally (omit to use --url)",
    )
    for flag in ("scheme", "attack", "suite", "status", "target"):
        wh_query.add_argument(f"--{flag}", default=None, help=f"filter by {flag}")
    wh_query.add_argument(
        "--since", default=None,
        help="only records recorded at/after this bound "
        "(epoch seconds, ISO date, or an age like 30d/12h)",
    )
    wh_query.add_argument(
        "--limit", type=int, default=1000, help="record cap for listings"
    )
    wh_query.add_argument(
        "--aggregate", action="store_true",
        help="print streamed group averages instead of records",
    )
    wh_query.add_argument(
        "--group-by", nargs="+", default=["scheme", "suite", "technology"],
        help="fields to group --aggregate by",
    )
    wh_query.add_argument(
        "--report", action="store_true",
        help="render the matching records as the deterministic service-style "
        "report instead of JSON lines",
    )
    _add_service_arguments(wh_query)

    wh_compact = wh_sub.add_parser(
        "compact", help="fold superseded records into fresh shards"
    )
    wh_compact.add_argument(
        "--warehouse", type=Path, default=None, metavar="DIR",
        help="warehouse directory (omit to compact via --url, admin only)",
    )
    _add_service_arguments(wh_compact)

    wh_stats = wh_sub.add_parser("stats", help="shard / index / source stats")
    wh_stats.add_argument(
        "--warehouse", type=Path, default=None, metavar="DIR",
        help="warehouse directory (omit to read via --url, admin only)",
    )
    _add_service_arguments(wh_stats)

    trace = sub.add_parser(
        "trace", help="export a store's span trace to Chrome trace-event JSON"
    )
    trace.add_argument(
        "--store", type=Path, required=True,
        help="JSONL store path whose <store>.obs/trace.jsonl to export",
    )
    trace.add_argument(
        "--out", type=Path, default=None,
        help="output path for the Chrome trace JSON "
        "(default: <store>.obs/trace.chrome.json; '-' for stdout)",
    )

    serve = sub.add_parser(
        "serve", help="start the long-lived campaign service (HTTP JSON API)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--state-dir", type=Path, default=Path("runs") / "service",
        help="directory holding job state and per-job result stores",
    )
    serve.add_argument(
        "--job-workers", type=int, default=1,
        help="campaign jobs run concurrently; worker budgets divide across them",
    )
    serve.add_argument(
        "--task-workers", type=int, default=None,
        help="task processes per job (default: CPUs // job-workers)",
    )
    serve.add_argument(
        "--tokens-file", type=Path, default=None,
        help="enable bearer-token auth from this JSON tokens file "
        '({"tokens": {"<secret>": {"name": ..., '
        '"role": "submit"|"worker"|"admin"}}}); '
        "edits (including revocations) are picked up without a restart",
    )
    fleet = serve.add_argument_group("fleet")
    fleet.add_argument(
        "--fleet", action="store_true",
        help="run no in-process workers; expose tasks as HTTP leases for "
        "`repro work` drainer processes",
    )
    fleet.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="seconds a drainer may go without heartbeating before its "
        "task is reclaimed (default: 30)",
    )
    _add_cache_arguments(serve)

    work = sub.add_parser(
        "work", help="run a fleet drainer against a `repro serve --fleet` service"
    )
    _add_service_arguments(work)
    work.add_argument(
        "--name", default=None,
        help="worker name reported to the coordinator (default: <host>-<pid>)",
    )
    work.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="tasks to lease per request (default: 1)",
    )
    work.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle delay between lease requests (default: 0.5)",
    )
    work.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="requested lease TTL (default: the service's)",
    )
    work.add_argument(
        "--max-idle", type=float, default=None, metavar="SECONDS",
        help="exit after this long with no work (default: run until signalled)",
    )
    _add_cache_arguments(work)

    submit = sub.add_parser(
        "submit", help="submit a campaign grid to a running service"
    )
    _add_grid_arguments(submit)
    _add_service_arguments(submit)
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job reaches a terminal status, then print its report",
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up polling after this long (with --wait)",
    )

    status = sub.add_parser(
        "status", help="show one service job (or list all jobs)"
    )
    status.add_argument("job_id", nargs="?", help="job id (omit to list every job)")
    _add_service_arguments(status)
    status.add_argument(
        "--wait", action="store_true",
        help="poll until the job reaches a terminal status",
    )
    status.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up polling after this long (with --wait)",
    )

    fetch = sub.add_parser(
        "fetch", help="fetch a service job's rendered report or raw records"
    )
    fetch.add_argument("job_id", help="job id")
    _add_service_arguments(fetch)
    fetch.add_argument(
        "--report", action="store_true",
        help="print the rendered paper-table report (the default)",
    )
    fetch.add_argument(
        "--records", action="store_true",
        help="print the raw JSONL result-store records instead of the report",
    )
    fetch.add_argument(
        "--matrix", action="store_true",
        help="print the capability-matrix rendering of the job's records",
    )

    watch = sub.add_parser(
        "watch", help="stream a service job's progress events until it finishes"
    )
    watch.add_argument("job_id", help="job id")
    _add_service_arguments(watch)
    watch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up after this long (default: watch until terminal)",
    )

    cancel = sub.add_parser("cancel", help="cancel a queued or running service job")
    cancel.add_argument("job_id", help="job id")
    _add_service_arguments(cancel)
    return parser


def _campaign_from_args(args: argparse.Namespace) -> CampaignSpec:
    kwargs: Dict[str, object] = {}
    if args.name:
        kwargs["name"] = args.name
    if args.schemes:
        kwargs["schemes"] = tuple(args.schemes)
    if args.suites:
        kwargs["suites"] = tuple(args.suites)
    if args.key_size_groups:
        kwargs["key_size_groups"] = tuple(
            tuple(int(k) for k in group.split(",")) for group in args.key_size_groups
        )
    if args.benchmarks:
        kwargs["benchmarks"] = tuple(args.benchmarks)
    if args.targets:
        kwargs["targets"] = tuple(args.targets)
    if args.attacks:
        kwargs["attacks"] = tuple(args.attacks)
    if args.timeout is not None:
        kwargs["timeout_s"] = args.timeout
    kwargs["overrides"] = _override_grid(args.set, args.sweep)
    spec = profile_campaign(args.profile, **kwargs)
    if args.seed is not None:
        spec.config = spec.config.with_overrides({"seed": args.seed})
    return spec


def _print_tasks(
    spec: CampaignSpec, cache: ArtifactCache, tasks: Optional[List] = None
) -> None:
    tasks = spec.validate() if tasks is None else tasks
    print(f"campaign {spec.name!r}: {len(tasks)} task(s)")
    for task in tasks:
        notes = []
        if cache.enabled:
            notes.append(
                "dataset cached"
                if cache.has("dataset", task.dataset.fingerprint())
                else "dataset missing"
            )
            if task.attack == "gnnunlock":
                notes.append(
                    "model cached"
                    if cache.has("model", task.model_fingerprint())
                    else "model missing"
                )
        note = f"  [{', '.join(notes)}]" if notes else ""
        print(f"  {task.task_id}  ({task.fingerprint()[:12]}){note}")


def _print_benchmarks() -> None:
    for suite in sorted(SUITE_PROFILES):
        profiles = SUITE_PROFILES[suite]
        print(f"{suite}: {len(profiles)} benchmark(s)")
        for name in sorted(profiles):
            profile = profiles[name]
            n_inputs, n_outputs, n_gates = profile.scaled()
            print(
                f"  {name:8s} {n_gates:5d} gates  {n_inputs:3d} PIs  "
                f"{n_outputs:3d} POs  "
                f"(original: {profile.original_gates} gates, "
                f"{profile.original_inputs} PIs)"
            )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list_benchmarks:
        _print_benchmarks()
        return 0
    spec = _campaign_from_args(args)
    # Validate the whole spec up front (unknown benchmarks, mistyped config
    # overrides, ...) so both --dry-run and real runs fail with a clean
    # message instead of a traceback from deep inside a worker.
    tasks = spec.validate()
    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    if args.dry_run:
        cache = ArtifactCache(None if args.no_cache else cache_dir)
        _print_tasks(spec, cache, tasks)
        print("dry run: nothing executed")
        return 0
    if not tasks:
        print("campaign expanded to zero tasks", file=sys.stderr)
        return 1
    store_path = args.store if args.store else Path("runs") / f"{spec.name}.jsonl"
    store = ResultStore(store_path)
    print(f"campaign {spec.name!r}: {len(tasks)} task(s) -> {store_path}")
    results = run_campaign(
        tasks,
        workers=args.workers,
        cache_dir=cache_dir,
        use_cache=not args.no_cache,
        serial=args.serial,
        store=store,
        resume=args.resume,
        echo=print,
    )
    display = []
    for result in results:
        record = dict(result.record) if result.record else {"task_id": result.task_id}
        record["status"] = result.status
        record["wall_time_s"] = result.wall_time_s
        record["cache"] = result.cache_events
        if result.error:
            record["error"] = result.error
        display.append(record)
    print()
    print(campaign_table(display))
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"\n{len(failed)} task(s) did not finish:", file=sys.stderr)
        for result in failed:
            print(f"  {result.task_id}: {result.error}", file=sys.stderr)
    return 0 if not failed else 2


def _cmd_schemes(args: argparse.Namespace) -> int:
    if args.as_json:
        print(json.dumps([info.describe() for info in SCHEMES], sort_keys=True))
        return 0
    print(f"{len(SCHEMES)} registered locking scheme(s)")
    for info in SCHEMES:
        names = [info.name, *info.aliases]
        print(f"\n{info.display_name}  ({', '.join(names)})")
        if info.description:
            print(f"  {info.description}")
        for spec in info.params:
            bounds = []
            if spec.minimum is not None:
                bounds.append(f">= {spec.minimum}")
            if spec.maximum is not None:
                bounds.append(f"<= {spec.maximum}")
            need = "required" if spec.required else f"default {spec.default}"
            extra = f", {' and '.join(bounds)}" if bounds else ""
            print(f"  param {spec.name}: {spec.type.__name__} ({need}{extra})")
        classes = ", ".join(
            f"{label}={idx}" for label, idx in sorted(
                info.class_map.items(), key=lambda item: item[1]
            )
        )
        print(f"  classes: {classes}")
        print(f"  default technology: {info.default_technology}")
    return 0


def _cmd_warehouse(args: argparse.Namespace) -> int:
    handlers = {
        "ingest": _warehouse_ingest,
        "query": _warehouse_query,
        "compact": _warehouse_compact,
        "stats": _warehouse_stats,
    }
    return handlers[args.warehouse_command](args)


def _warehouse_ingest(args: argparse.Namespace) -> int:
    if not args.stores and args.state_dir is None:
        raise ValueError("nothing to ingest: pass --store and/or --state-dir")
    warehouse = Warehouse(args.warehouse)
    total = 0
    sources: List[Path] = list(args.stores)
    if args.state_dir is not None:
        sources += sorted((args.state_dir / "stores").glob("*.jsonl"))
    for path in sources:
        if not path.is_file():
            raise ValueError(f"store not found: {path}")
        added = ingest_store(warehouse, path, source=path.stem)
        total += added
        print(f"{path.stem}: +{added} record(s)")
    warehouse.flush()
    stats = warehouse.stats()
    print(
        f"ingested {total} record(s); warehouse holds {stats['records']} "
        f"across {stats['shards']} shard(s)"
    )
    return 0


def _warehouse_query(args: argparse.Namespace) -> int:
    if args.warehouse is None:
        client = _service_client(args)
        if args.aggregate:
            payload = client.warehouse_query(
                scheme=args.scheme, attack=args.attack, suite=args.suite,
                status=args.status, target=args.target, since=args.since,
                aggregate=True, group_by=",".join(args.group_by),
            )
            print(json.dumps(payload["groups"], indent=None if args.as_json else 2))
            return 0
        payload = client.warehouse_query(
            scheme=args.scheme, attack=args.attack, suite=args.suite,
            status=args.status, target=args.target, since=args.since,
            limit=args.limit,
        )
        records = payload["records"]
        if args.report:
            print(render_report(records))
        else:
            for record in records:
                print(json.dumps(record, sort_keys=True))
        if payload.get("truncated"):
            print(
                f"(truncated at {args.limit} record(s); raise --limit)",
                file=sys.stderr,
            )
        return 0
    warehouse = Warehouse(args.warehouse)
    where = build_filter(
        scheme=args.scheme, attack=args.attack, suite=args.suite,
        status=args.status, target=args.target,
        since=parse_since(args.since) if args.since else None,
    )
    if args.aggregate:
        summary = aggregate_stream(
            warehouse.iter_records(where), group_by=tuple(args.group_by)
        )
        print(json.dumps(summary, indent=None if args.as_json else 2))
        return 0
    if args.report:
        # Same trailing newline as ``repro report --service-style`` so the
        # two renders diff clean in scripts.
        print(render_report(list(warehouse.iter_records(where))))
        return 0
    shown = 0
    for record in warehouse.iter_records(where):
        if shown >= args.limit:
            print(
                f"(truncated at {args.limit} record(s); raise --limit)",
                file=sys.stderr,
            )
            break
        print(json.dumps(record, sort_keys=True))
        shown += 1
    return 0


def _warehouse_compact(args: argparse.Namespace) -> int:
    if args.warehouse is None:
        result = _service_client(args).warehouse_compact()
    else:
        result = Warehouse(args.warehouse).compact()
    if args.as_json:
        print(json.dumps(result, sort_keys=True))
    elif result.get("compacted"):
        print(
            f"folded {result['folded']} superseded line(s); "
            f"{result['records']} record(s) in {result['shards']} shard(s)"
        )
    else:
        print("nothing to fold")
    return 0


def _warehouse_stats(args: argparse.Namespace) -> int:
    if args.warehouse is None:
        stats = _service_client(args).warehouse_stats()
    else:
        stats = Warehouse(args.warehouse).stats()
    print(json.dumps(stats, indent=None if args.as_json else 2, sort_keys=True))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    key_sizes = (
        tuple(int(k) for k in args.key_sizes.split(","))
        if args.key_sizes
        else None
    )
    kwargs: Dict[str, object] = {
        "name": args.name,
        "suite": args.suite,
        "schemes": tuple(args.schemes) if args.schemes else None,
        "attacks": tuple(args.attacks) if args.attacks else None,
        "targets": tuple(args.targets) if args.targets else None,
        "overrides": _override_grid(args.set, args.sweep),
        "timeout_s": args.timeout,
    }
    if key_sizes is not None:
        kwargs["key_sizes"] = key_sizes
    spec = matrix_campaign(**kwargs)
    tasks = spec.validate()
    print(
        f"capability matrix {spec.name!r}: "
        f"{len(spec.schemes)} scheme(s) x {len(spec.attacks)} attack(s) x "
        f"{len(spec.key_size_groups or ())} key size(s) -> {len(tasks)} task(s)"
    )
    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    if args.dry_run:
        cache = ArtifactCache(None if args.no_cache else cache_dir)
        _print_tasks(spec, cache, tasks)
        print("dry run: nothing executed")
        return 0
    if not tasks:
        print("matrix expanded to zero tasks", file=sys.stderr)
        return 1
    store_path = args.store if args.store else Path("runs") / f"{spec.name}.jsonl"
    history_path = (
        args.warehouse
        if args.warehouse is not None
        else store_path.with_name(store_path.stem + ".history")
    )
    store = ResultStore(store_path)
    history = WarehouseMatrixHistory(Warehouse(history_path), name=args.name)
    previous = history.latest()
    results = run_campaign(
        tasks,
        workers=args.workers,
        cache_dir=cache_dir,
        use_cache=not args.no_cache,
        serial=args.serial,
        store=store,
        resume=not args.no_resume,
        echo=print,
    )
    records = list(store.latest().values())
    print()
    print(
        render_matrix_report(
            records,
            previous=previous.get("cells") if previous else None,
        ),
        end="",
    )
    if not args.no_history:
        history.append(build_matrix(records))
        print(f"\nsweep recorded in {history_path} ({len(history)} sweep(s))")
    failed = [r for r in results if not r.ok]
    if failed:
        # Failed cells are themselves capability data ("err" in the grid),
        # so the matrix still exits 0; the count goes to stderr for CI logs.
        print(f"{len(failed)} task(s) rendered as 'err' cells", file=sys.stderr)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    cache = ArtifactCache(cache_dir)
    if args.show_cache:
        entries = cache.entries()
        if not entries:
            print(f"cache at {cache.root} is empty")
            return 0
        total = sum(size for _, _, size in entries)
        print(f"cache at {cache.root}: {len(entries)} artifact(s), {total} bytes")
        for kind, key, size in entries:
            print(f"  {kind:8s} {key[:16]}  {size} bytes")
        return 0
    _print_tasks(_campaign_from_args(args), cache)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    cache = ArtifactCache(cache_dir)
    if args.cache_command == "stats":
        stats = cache.kind_stats()
        if not stats:
            print(f"cache at {cache.root} is empty")
            return 0
        now = time.time()
        total_count = int(sum(bucket["count"] for bucket in stats.values()))
        total_bytes = sum(bucket["bytes"] for bucket in stats.values())
        print(
            f"cache at {cache.root}: {total_count} artifact(s), "
            f"{_format_size(total_bytes)}"
        )
        for kind in sorted(stats):
            bucket = stats[kind]
            idle_s = max(0.0, now - bucket["newest_mtime"])
            print(
                f"  {kind:10s} {int(bucket['count']):5d} artifact(s)  "
                f"{_format_size(bucket['bytes']):>10s}  "
                f"last used {idle_s / 3600:.1f}h ago"
            )
        return 0
    # gc
    if args.max_bytes is None and args.max_age is None:
        print("error: cache gc needs --max-bytes and/or --max-age", file=sys.stderr)
        return 2
    before = cache.size_bytes()
    evicted = cache.gc(
        max_bytes=args.max_bytes, max_age_s=args.max_age, dry_run=args.dry_run
    )
    freed = sum(entry.size_bytes for entry in evicted)
    verb = "would evict" if args.dry_run else "evicted"
    print(
        f"{verb} {len(evicted)} artifact(s), {_format_size(freed)} "
        f"(cache was {_format_size(before)})"
    )
    for entry in evicted:
        print(f"  {entry.kind:10s} {entry.key[:16]}  {_format_size(entry.size_bytes)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    records = store.load() if args.show_all else list(store.latest().values())
    if store.last_corrupt_lines:
        print(
            f"warning: {store.last_corrupt_lines} unparseable line(s) in "
            f"{args.store} were dropped; the report under-counts records",
            file=sys.stderr,
        )
    if not records:
        print(f"no records in {args.store}", file=sys.stderr)
        return 1
    if args.service_style:
        # Exactly what the service's /report endpoint serves for these
        # records — deterministic, so it diffs cleanly across runs.
        print(render_report(records))
        return 0
    print(campaign_table(records))
    summary = aggregate(records, group_by=tuple(args.group_by))
    if summary:
        from ..core.reporting import format_percent, format_table

        rows = [
            [
                *(str(entry.get(field)) for field in args.group_by),
                entry["n_tasks"],
                entry["n_instances"],
                format_percent(entry["gnn_accuracy"]),
                format_percent(entry["post_accuracy"]),
                format_percent(entry["removal_success_rate"]),
                f"{entry['train_time_s']:.2f}",
            ]
            for entry in summary
        ]
        print()
        print(
            format_table(
                [*args.group_by, "#Tasks", "#Graphs", "GNN Acc. (%)",
                 "Post Acc. (%)", "Removal (%)", "Train (s)"],
                rows,
            )
        )
    if args.paper:
        print()
        print(paper_table(records))
    if args.timings:
        print()
        exit_code = _print_timings(args.store)
        if exit_code:
            return exit_code
    return 0


def _print_timings(store_path: Path) -> int:
    from ..core.reporting import format_table

    rollup = load_rollup(obs_dir_for_store(store_path))
    rows = span_summary_table(rollup) if rollup else []
    if not rows:
        print(
            f"no telemetry rollup next to {store_path} "
            "(run the campaign with REPRO_OBS=1)",
            file=sys.stderr,
        )
        return 1
    print(
        format_table(
            ["Phase", "Count", "Total (s)", "Mean (s)", "Max (s)", "Share (%)"],
            rows,
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    obs_dir = obs_dir_for_store(args.store)
    events = read_events_jsonl(trace_path(obs_dir))
    if not events:
        print(
            f"no trace events next to {args.store} "
            "(run the campaign with REPRO_OBS=1)",
            file=sys.stderr,
        )
        return 1
    payload = json.dumps(to_chrome_trace(events), sort_keys=True)
    if args.out is not None and str(args.out) == "-":
        print(payload)
        return 0
    out_path = args.out if args.out is not None else obs_dir / "trace.chrome.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(payload + "\n", encoding="utf-8")
    print(
        f"wrote {len(events)} span(s) to {out_path} "
        "(load via chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def _format_job(snapshot: Dict[str, object]) -> str:
    progress = snapshot.get("progress", {})
    done = progress.get("tasks_done", 0)
    total = progress.get("tasks_total", 0)
    parts = [
        f"{snapshot.get('job_id')}",
        f"{snapshot.get('status'):9s}",
        f"{done}/{total} task(s)",
        str(snapshot.get("name", "?")),
    ]
    if snapshot.get("error"):
        parts.append(f"— {snapshot['error']}")
    return "  ".join(parts)


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service import CampaignService

    service = CampaignService(
        args.state_dir,
        host=args.host,
        port=args.port,
        job_slots=args.job_workers,
        task_workers=args.task_workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        tokens_file=args.tokens_file,
        fleet=args.fleet,
        lease_ttl_s=args.lease_ttl,
        echo=print,
    )
    service.start()
    emit(
        print,
        f"repro service listening on {service.url} (state: {args.state_dir})",
        component="cli",
        url=service.url,
    )
    emit(print, "press Ctrl-C to stop", component="cli")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        emit(print, "shutting down", component="cli")
    finally:
        service.stop()
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from ..fleet import FleetWorker

    url = args.url or os.environ.get(SERVICE_URL_ENV) or DEFAULT_SERVICE_URL
    token = args.token or os.environ.get(SERVICE_TOKEN_ENV) or None
    worker = FleetWorker(
        url,
        token=token,
        name=args.name,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        batch=args.batch,
        poll_s=args.poll,
        lease_ttl_s=args.lease_ttl,
        max_idle_s=args.max_idle,
        echo=print,
    )
    worker.install_signal_handlers()
    executed = worker.run()
    if args.as_json:
        print(json.dumps({"worker": worker.name, "tasks_executed": executed}))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = _campaign_from_args(args)
    spec.validate()
    client = _service_client(args)
    response = client.submit(spec)
    job = response["job"]
    if args.as_json:
        print(json.dumps(response, sort_keys=True))
    else:
        verb = "submitted" if response.get("created") else "already known"
        print(f"job {job['job_id']} {verb} ({job['status']})")
    if not args.wait:
        return 0
    snapshot = client.wait(str(job["job_id"]), timeout=args.wait_timeout)
    if args.as_json:
        print(json.dumps({"job": snapshot}, sort_keys=True))
    else:
        print(_format_job(snapshot))
        print()
        print(client.report(str(job["job_id"])))
    return 0 if snapshot["status"] == "done" else 3


def _cmd_status(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if not args.job_id:
        jobs = client.jobs()
        if args.as_json:
            print(json.dumps({"jobs": jobs}, sort_keys=True))
            return 0
        if not jobs:
            print("no jobs submitted")
            return 0
        for snapshot in jobs:
            print(_format_job(snapshot))
        return 0
    if args.wait:
        snapshot = client.wait(args.job_id, timeout=args.wait_timeout)
    else:
        snapshot = client.status(args.job_id)
    if args.as_json:
        print(json.dumps({"job": snapshot}, sort_keys=True))
    else:
        print(_format_job(snapshot))
    if snapshot["status"] in ("failed", "cancelled"):
        return 3
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.records:
        kind = "records"
    elif args.matrix:
        kind = "report?style=matrix"
    else:
        kind = "report"
    if args.as_json:
        print(json.dumps(client.fetch(args.job_id, kind), sort_keys=True))
        return 0
    if args.records:
        for record in client.records(args.job_id):
            print(json.dumps(record, sort_keys=True))
        return 0
    print(client.report(args.job_id, style="matrix" if args.matrix else None))
    return 0


def _format_event(event: Dict[str, object]) -> Optional[str]:
    kind = event.get("event")
    if kind == "status":
        line = f"status: {event.get('status')}"
        if event.get("recovered"):
            line += " (recovered after a service restart)"
        if event.get("error"):
            line += f" — {event['error']}"
        return line
    if kind == "task":
        done = event.get("tasks_done", "?")
        total = event.get("tasks_total", "?")
        return f"[{done}/{total}] {event.get('status'):9s} {event.get('task_id')}"
    if kind == "total":
        return f"expanded to {event.get('tasks_total')} task(s)"
    if kind == "cancel_requested":
        return "cancellation requested"
    return None


def _cmd_watch(args: argparse.Namespace) -> int:
    client = _service_client(args)
    final_status = None
    for event in client.watch(args.job_id, timeout=args.timeout):
        if args.as_json:
            print(json.dumps({k: v for k, v in event.items() if k != "job"},
                             sort_keys=True), flush=True)
        else:
            line = _format_event(event)
            if line is not None:
                print(line, flush=True)
        final_status = event["job"]["status"]
    if final_status is None:
        # Terminal before we attached and the feed had nothing to replay.
        final_status = client.status(args.job_id)["status"]
    if not args.as_json:
        print(f"final: {final_status}")
    return 0 if final_status == "done" else 3


def _cmd_cancel(args: argparse.Namespace) -> int:
    client = _service_client(args)
    snapshot = client.cancel(args.job_id)
    if args.as_json:
        print(json.dumps({"job": snapshot}, sort_keys=True))
    else:
        print(_format_job(snapshot))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "list": _cmd_list,
        "schemes": _cmd_schemes,
        "matrix": _cmd_matrix,
        "warehouse": _cmd_warehouse,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "work": _cmd_work,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "watch": _cmd_watch,
        "fetch": _cmd_fetch,
        "cancel": _cmd_cancel,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # Grid/usage mistakes (unknown scheme, malformed sweep, bad override)
        # are user errors, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except URLError as exc:
        print(
            f"error: cannot reach the campaign service ({exc.reason}); "
            "is `repro serve` running and --url/REPRO_SERVICE_URL correct?",
            file=sys.stderr,
        )
        return 2
    except BrokenPipeError:
        # Downstream pipe closed early (`repro ... | head`); not an error.
        # Point stdout at devnull so the interpreter's exit-time flush does
        # not raise a second time, and exit like a SIGPIPE'd process would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
