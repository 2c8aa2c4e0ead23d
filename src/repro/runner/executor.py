"""Parallel campaign execution.

``run_campaign`` fans :class:`~repro.runner.campaign.AttackTask` units out
over a :class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker runs
:func:`execute_task`, which is crash-isolated: every exception inside a task
is captured as a structured ``failed`` result with its traceback, so one
broken task never sinks the campaign.  Results come back in task order
regardless of completion order.

Determinism: dataset generation seeds from the dataset spec
(:meth:`AttackConfig.derive_seed` per instance) and GNN training seeds from
the task identity, never from execution order — a parallel run and a serial
run of the same campaign produce bit-identical records.

Housekeeping: when ``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_AGE`` are
set, ``run_campaign`` garbage-collects the artifact cache after the campaign
(least-recently-used first) instead of relying on operators to run
``repro cache gc``.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
)
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..core.attack import AttackOutcome, attack_design, train_attack_model
from ..core.dataset import LockedInstance, NodeDataset
from ..obs import (
    MetricsRegistry,
    Tracer,
    emit_span,
    get_registry,
    get_tracer,
    merge_sidecars,
    obs_dir_for_store,
    obs_enabled,
    scoped_registry,
    scoped_tracer,
    span,
    tag_context,
    write_sidecar,
)
from .cache import ArtifactCache, cache_budget_from_env, default_cache_dir
from .campaign import BASELINE_ATTACKS, AttackTask

__all__ = [
    "CacheStats",
    "TaskResult",
    "campaign_cache_stats",
    "execute_task",
    "outcome_record",
    "run_campaign",
]


@dataclass
class TaskResult:
    """Structured outcome of one task, successful or not."""

    task_id: str
    fingerprint: str
    status: str  # "ok" | "failed" | "timeout"
    wall_time_s: float = 0.0
    #: Seconds the task spent queued between campaign submission and its
    #: actual start (0.0 when it ran immediately or the wait is unknowable).
    queue_wait_s: float = 0.0
    record: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    #: Per-artifact-kind cache outcome: "hit", "miss" or "off".
    cache_events: Dict[str, str] = field(default_factory=dict)
    pid: Optional[int] = None

    @property
    def ok(self) -> bool:
        # "skipped" is a resumed task whose ok record already exists.
        return self.status in ("ok", "skipped")


def outcome_record(outcome: AttackOutcome) -> Dict[str, object]:
    """Flatten an :class:`AttackOutcome` into a JSON-serializable record."""

    def report_dict(report) -> Dict[str, object]:
        return {
            "accuracy": float(report.accuracy),
            "per_class": {
                cls: {
                    "precision": float(m.precision),
                    "recall": float(m.recall),
                    "f1": float(m.f1),
                    "support": int(m.support),
                }
                for cls, m in report.per_class.items()
            },
            "n_misclassified": int(report.n_misclassified),
            "misclassification_summary": report.misclassification_summary(),
        }

    macro = outcome.gnn_report.macro_average()
    return {
        "target": outcome.target_benchmark,
        "validation": outcome.validation_benchmark,
        "scheme": outcome.scheme,
        "class_names": list(outcome.gnn_report.class_names),
        "n_instances": len(outcome.instances),
        "gnn_accuracy": float(outcome.gnn_accuracy),
        "post_accuracy": float(outcome.post_accuracy),
        "gnn_macro_precision": float(macro["precision"]),
        "gnn_macro_recall": float(macro["recall"]),
        "gnn_macro_f1": float(macro["f1"]),
        "removal_success_rate": float(outcome.removal_success_rate),
        "gnn_report": report_dict(outcome.gnn_report),
        "post_report": report_dict(outcome.post_report),
        "instances": [
            {
                "name": inst.name,
                "removal_success": bool(inst.removal_success),
                "removal_error": inst.removal_error,
            }
            for inst in outcome.instances
        ],
        "train_nodes": int(outcome.train_nodes),
        "val_nodes": int(outcome.val_nodes),
        "test_nodes": int(outcome.test_nodes),
        "epochs_run": int(outcome.history.epochs_run),
        "train_time_s": float(outcome.history.train_time_s),
        "attack_time_s": float(outcome.attack_time_s),
    }


def _task_metadata(task: AttackTask) -> Dict[str, object]:
    ds = task.dataset
    return {
        "task_id": task.task_id,
        "fingerprint": task.fingerprint(),
        "attack": task.attack,
        "target": task.target_benchmark,
        "scheme": ds.scheme,
        "h": ds.h,
        "technology": ds.technology,
        "suite": ds.suite,
        "key_sizes": list(ds.key_sizes),
        "seed": ds.seed,
        "apply_postprocessing": task.apply_postprocessing,
        "verify_removal": task.verify_removal,
        "dataset_fingerprint": ds.fingerprint(),
    }


def _resolve_baseline(name: str) -> Callable:
    dotted = BASELINE_ATTACKS[name]
    module_name, _, attr = dotted.rpartition(".")
    return getattr(import_module(module_name), attr)


@contextmanager
def _task_telemetry(
    task: AttackTask,
    queue_wait_s: float,
    submitted_at: Optional[float],
    obs_dir: Optional[str],
) -> Iterator[None]:
    """Scope one task's telemetry and ship its delta on exit.

    With ``REPRO_OBS`` off this does nothing.  With it on, the task runs
    under a fresh scoped registry + tracer tagged with its ids; on exit the
    delta is written to a sidecar (pool workers and driver-side campaign
    tasks — the campaign merges it into the rollup) or, when no ``obs_dir``
    was provided (direct :func:`execute_task` calls), merged into the
    caller's ambient registry/tracer.  Best-effort throughout: telemetry
    failures must never turn a healthy task into a failed one.
    """
    if not obs_enabled():
        yield
        return
    registry = MetricsRegistry()
    tracer = Tracer()
    try:
        with scoped_registry(registry), scoped_tracer(tracer):
            with tag_context(task=task.task_id, target=task.target_benchmark):
                if submitted_at is not None:
                    emit_span(
                        "queue_wait",
                        ts=submitted_at,
                        dur=queue_wait_s,
                        scope="task",
                    )
                yield
    finally:
        try:
            snapshot = registry.snapshot()
            events = tracer.drain()
            if obs_dir is not None:
                write_sidecar(obs_dir, task.fingerprint(), snapshot, events)
            else:
                get_registry().merge(snapshot)
                get_tracer().extend(events)
        except Exception:  # noqa: BLE001 - telemetry is best-effort
            pass


def execute_task(
    task: AttackTask,
    cache_dir: Optional[str] = None,
    submitted_at: Optional[float] = None,
    obs_dir: Optional[str] = None,
    *,
    cache: Optional[ArtifactCache] = None,
) -> TaskResult:
    """Run one task, consulting/filling the artifact cache.

    ``submitted_at`` is the wall-clock (``time.time()``) instant the campaign
    submitted the task; the gap to now is reported as ``queue_wait_s`` so
    ``wall_time_s`` can mean *runtime* alone.  ``obs_dir`` is where the
    task's telemetry sidecar lands when ``REPRO_OBS=1`` (see
    :mod:`repro.obs.rollup`).

    ``cache`` substitutes a ready-made :class:`ArtifactCache` (e.g. the
    fleet's remote-backed write-through cache) for the one this function
    would build from ``cache_dir``.  Keyword-only and unpicklable-friendly:
    pool call sites keep shipping positional picklable args and never set
    it; in-process callers (the fleet drainer) may.

    Never raises: any failure is captured as a ``failed`` result.  This is
    the function the process pool ships to workers, so it must stay
    module-level and picklable-argument-only.
    """
    started = time.perf_counter()
    queue_wait_s = (
        max(0.0, time.time() - submitted_at) if submitted_at is not None else 0.0
    )
    if cache is None:
        cache = ArtifactCache(cache_dir)
    events: Dict[str, str] = {}
    with _task_telemetry(task, queue_wait_s, submitted_at, obs_dir):
        try:
            dataset = _load_or_generate_dataset(task, cache, events)
            if task.attack == "gnnunlock":
                record = _run_gnnunlock(task, _built(task, dataset), cache, events)
            elif task.attack == "dataset-summary":
                record = _run_dataset_summary(task, _built(task, dataset))
            elif task.attack in BASELINE_ATTACKS:
                record = _run_baseline(task, _instances(dataset))
                events["model"] = "off"
            else:
                raise ValueError(
                    f"unknown attack {task.attack!r}; choose 'gnnunlock', "
                    f"'dataset-summary' or one of {sorted(BASELINE_ATTACKS)}"
                )
            record.update(_task_metadata(task))
            record["cache"] = dict(events)
            return TaskResult(
                task_id=task.task_id,
                fingerprint=task.fingerprint(),
                status="ok",
                wall_time_s=time.perf_counter() - started,
                queue_wait_s=queue_wait_s,
                record=record,
                cache_events=events,
                pid=os.getpid(),
            )
        except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
            return TaskResult(
                task_id=task.task_id,
                fingerprint=task.fingerprint(),
                status="failed",
                wall_time_s=time.perf_counter() - started,
                queue_wait_s=queue_wait_s,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback_module.format_exc(),
                cache_events=events,
                pid=os.getpid(),
            )


def _load_or_generate_dataset(
    task: AttackTask, cache: ArtifactCache, events: Dict[str, str]
) -> Union[NodeDataset, List[LockedInstance]]:
    """The task's dataset, from the ``dataset`` artifact when cached.

    The artifact holds the built :class:`NodeDataset` (which carries its
    ``instances``), so a hit skips the build.  On a miss the dataset is
    generated, built and stored, whichever task asked for it.  Two cases
    return the bare instance list instead: an artifact written before the
    dataset was stored built (returned as it is, the file left untouched),
    and the generated instances when the cache is off.  :func:`_built`
    builds them for the tasks that read the graph; baseline tasks read the
    instances alone and build nothing.
    """
    if not cache.enabled:
        events["dataset"] = "off"
        return _generate(task)
    key = task.dataset.fingerprint()
    cached = cache.get("dataset", key)
    if cached is not None:
        events["dataset"] = "hit"
        return cached
    events["dataset"] = "miss"
    dataset = task.dataset.build(_generate(task))
    cache.put("dataset", key, dataset)
    return dataset


def _generate(task: AttackTask) -> List[LockedInstance]:
    with span("dataset_generate", scheme=task.dataset.scheme):
        return task.dataset.generate()


def _built(task: AttackTask, dataset) -> NodeDataset:
    """``dataset`` itself, or the build of a bare instance list."""
    if isinstance(dataset, NodeDataset):
        return dataset
    return task.dataset.build(dataset)


def _instances(dataset) -> List[LockedInstance]:
    if isinstance(dataset, NodeDataset):
        return dataset.instances
    return dataset


def _run_gnnunlock(
    task: AttackTask,
    dataset: NodeDataset,
    cache: ArtifactCache,
    events: Dict[str, str],
) -> Dict[str, object]:
    model = history = None
    model_key = task.model_fingerprint()
    if cache.enabled:
        cached = cache.get("model", model_key)
        if cached is not None:
            model, history = cached
            events["model"] = "hit"
        else:
            events["model"] = "miss"
    else:
        events["model"] = "off"
    if model is None:
        model, history, _ = train_attack_model(
            dataset,
            task.target_benchmark,
            config=task.config,
            validation_benchmark=task.validation_benchmark,
        )
        if cache.enabled:
            cache.put("model", model_key, (model, history))
    outcome = attack_design(
        dataset,
        task.target_benchmark,
        config=task.config,
        validation_benchmark=task.validation_benchmark,
        verify_removal=task.verify_removal,
        apply_postprocessing=task.apply_postprocessing,
        model=model,
        history=history,
    )
    return outcome_record(outcome)


def _run_dataset_summary(task: AttackTask, dataset: NodeDataset) -> Dict[str, object]:
    """Table III-style row: record the dataset's shape only."""
    summary = dataset.summary()
    return {
        "target": task.target_benchmark,
        "n_instances": len(dataset.instances),
        "n_circuits": int(summary["#Circuits"]),
        "n_nodes": int(summary["#Nodes"]),
        "n_classes": int(summary["#Classes"]),
        "n_features": int(summary["|f|"]),
    }


def _run_baseline(task: AttackTask, instances: list) -> Dict[str, object]:
    attack_fn = _resolve_baseline(task.attack)
    kwargs = dict(task.attack_params)
    results = []
    for inst in instances:
        if inst.benchmark != task.target_benchmark:
            continue
        baseline = attack_fn(inst.result, **kwargs)
        results.append(
            {
                "instance": inst.name,
                "success": bool(baseline.success),
                "reason": baseline.reason,
            }
        )
    if not results:
        raise ValueError(
            f"dataset has no instances of target {task.target_benchmark!r}"
        )
    n_success = sum(r["success"] for r in results)
    return {
        "target": task.target_benchmark,
        "n_instances": len(results),
        "baseline_success_rate": n_success / len(results),
        "baseline_success": n_success == len(results),
        "instances": results,
    }


# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Cache hits and misses of a campaign, in total and per artifact kind."""

    hits: int = 0
    misses: int = 0
    per_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def count(self, kind: str, event: str) -> None:
        setattr(self, event, getattr(self, event) + 1)
        bucket = self.per_kind.setdefault(kind, {"hits": 0, "misses": 0})
        bucket[event] += 1


def campaign_cache_stats(results: Sequence) -> CacheStats:
    """Aggregate per-task cache events into one :class:`CacheStats`.

    Tasks run in worker processes, so the campaign learns what the cache
    did from each ``TaskResult.cache_events``.  Accepts :class:`TaskResult`
    objects or stored record dicts (their ``"cache"`` field).  Skipped
    (resumed) tasks contribute nothing — no artifact was touched on their
    behalf.
    """
    stats = CacheStats()
    for result in results:
        events = (
            result.cache_events
            if hasattr(result, "cache_events")
            else (result.get("cache") or {})
        )
        for kind, event in sorted(events.items()):
            if event == "hit":
                stats.count(kind, "hits")
            elif event == "miss":
                stats.count(kind, "misses")
    return stats


def run_campaign(
    tasks: Sequence[AttackTask],
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    use_cache: bool = True,
    serial: bool = False,
    store=None,
    resume: bool = False,
    echo: Optional[Callable[[str], None]] = None,
    on_result: Optional[Callable[[int, int, TaskResult], None]] = None,
    cancel: Optional[Callable[[], bool]] = None,
    executor: Optional[Executor] = None,
) -> List[TaskResult]:
    """Run a campaign and return one :class:`TaskResult` per task, in order.

    ``serial=True`` (or a single task / ``workers=1``) executes inline in the
    calling process; otherwise tasks fan out over ``workers`` processes
    (default: one per CPU, capped by the task count).  ``store`` is an
    optional :class:`~repro.runner.store.ResultStore` that every finished
    task's record is appended to.

    ``resume=True`` (requires ``store``) skips every task whose fingerprint
    already has an ``ok`` record in the store: the stored record is returned
    as a ``skipped`` result and nothing is re-executed or re-appended, so an
    interrupted campaign picks up exactly where it stopped and the final
    store contents match an uninterrupted run.

    ``timeout_s`` is a campaign wall-clock budget per task, measured from
    campaign submission (per-task *runtime* cannot be observed from outside
    the worker).  An expired task that never started is reported as
    ``timeout`` with a "budget exhausted" error; one caught mid-run is
    reported as ``timeout`` and its worker process is terminated when the
    pool shuts down.  Serial mode cannot interrupt an in-flight task — the
    budget is only checked between tasks.

    Timing: each result's ``wall_time_s`` is the task's true runtime
    (measured inside the worker) and ``queue_wait_s`` the gap between
    campaign submission and task start; both are stored on the record but
    excluded from rendered reports.  A task stopped before it ever started
    reports ``wall_time_s=0`` with the whole elapsed window as queue wait;
    one abandoned mid-run keeps the elapsed window as a wall-clock upper
    bound, since its true runtime is unobservable from outside.

    With ``REPRO_OBS=1`` and a ``store``, per-task telemetry sidecars are
    merged after the campaign into ``<store stem>.obs/rollup.json`` and
    ``trace.jsonl`` next to the store (see :mod:`repro.obs`) — records,
    fingerprints and reports are untouched.

    ``on_result`` is a progress hook called once per task, in task order, as
    each result is finalised: ``on_result(index, total, result)``.  Skipped
    (resumed) tasks fire it too, so ``index + 1`` out of ``total`` is always
    a faithful completion count.  The campaign service streams job progress
    through this hook.

    ``cancel`` is a zero-argument callable polled between tasks and, in the
    pooled path, every ~100ms while waiting on an in-flight future; once it
    returns true, tasks that have not produced a result are reported with
    status ``"cancelled"`` instead of being executed — a task already
    running on a worker process is abandoned and its worker terminated,
    mirroring the timeout path.  Serial mode cannot interrupt an in-flight
    task: like the wall-clock budget, cancellation is honoured between
    tasks.  Cancelled tasks append a ``cancelled`` record to the store;
    resume treats them like failures and re-executes them.

    ``executor`` replaces the per-campaign process pool with a caller-built
    :class:`~concurrent.futures.Executor` (the fleet's lease executor, see
    :meth:`repro.fleet.FleetCoordinator.executor_for`).  Every pending task
    is submitted to it, even a lone one, and the campaign shuts it down when
    done; ``workers`` and ``serial`` are then ignored.  Waiting, budgets,
    cancellation, ordering and resume are unchanged.
    """
    echo = echo if echo is not None else (lambda message: None)
    cache_path = str(cache_dir if cache_dir is not None else default_cache_dir())
    if not use_cache:
        cache_path = None
    tasks = list(tasks)

    completed: Dict[str, Dict[str, object]] = {}
    if resume:
        if store is None:
            raise ValueError("resume=True needs the campaign's result store")
        completed = {
            fp: record
            for fp, record in store.latest().items()
            if record.get("status") == "ok"
        }
    prior_records = [completed.get(task.fingerprint()) for task in tasks]
    pending = [task for task, prior in zip(tasks, prior_records) if prior is None]
    if resume:
        echo(
            f"resume: {len(tasks) - len(pending)} task(s) already complete, "
            f"{len(pending)} to run"
        )
    obs_dir: Optional[str] = None
    if store is not None and obs_enabled():
        obs_dir = str(obs_dir_for_store(store.path))
    executed = _run_pending(
        pending,
        workers=workers,
        cache_path=cache_path,
        serial=serial,
        store=store,
        echo=echo,
        cancel=cancel,
        obs_dir=obs_dir,
        executor=executor,
    )
    results: List[TaskResult] = []
    try:
        for index, (task, prior) in enumerate(zip(tasks, prior_records)):
            if prior is not None:
                result = TaskResult(
                    task_id=task.task_id,
                    fingerprint=task.fingerprint(),
                    status="skipped",
                    record=prior,
                )
            else:
                result = next(executed)
            results.append(result)
            if on_result is not None:
                on_result(index, len(tasks), result)
    finally:
        # Deterministic pool shutdown: the generator's cleanup must not wait
        # for garbage collection (and must run even if on_result raised).
        executed.close()
    if obs_dir is not None:
        # Fold the task sidecars (plus any driver-side spans, e.g. a service
        # job's queue wait) into the campaign rollup next to the store.
        try:
            merge_sidecars(obs_dir, extra_events=get_tracer().drain())
        except Exception:  # noqa: BLE001 - telemetry is best-effort
            pass
    _auto_cache_gc(cache_path, echo)
    return results


def _auto_cache_gc(cache_path: Optional[str], echo: Callable[[str], None]) -> None:
    """Opportunistic ``cache gc`` under the env-configured budget.

    Runs after every campaign when ``REPRO_CACHE_MAX_BYTES`` and/or
    ``REPRO_CACHE_MAX_AGE`` are set, so long-running installations keep the
    artifact cache bounded without a separate maintenance job.
    """
    if cache_path is None:
        return
    max_bytes, max_age_s = cache_budget_from_env()
    if max_bytes is None and max_age_s is None:
        return
    cache = ArtifactCache(cache_path)
    evicted = cache.gc(max_bytes=max_bytes, max_age_s=max_age_s)
    freed = sum(entry.size_bytes for entry in evicted)
    echo(
        f"cache gc: evicted {len(evicted)} artifact(s), {freed} bytes "
        f"(budget: max_bytes={max_bytes}, max_age_s={max_age_s})"
    )


#: How often an in-flight future wait re-checks the cancellation callable.
_CANCEL_POLL_S = 0.1


class _CancelledWait(Exception):
    """Internal: cancellation observed while waiting on a running future."""


def _wait_for_future(future, remaining: Optional[float], cancelled: Callable[[], bool]):
    """``future.result`` that honours cancellation while blocked.

    Waits in short slices so a cancel request lands within ~100ms even when
    the running task would take minutes (or hangs); raises
    :class:`_CancelledWait` in that case, or :class:`FutureTimeout` when the
    caller's ``remaining`` budget runs out first.
    """
    deadline = None if remaining is None else time.monotonic() + remaining
    while True:
        slice_s = _CANCEL_POLL_S
        if deadline is not None:
            slice_s = min(slice_s, max(0.0, deadline - time.monotonic()))
        try:
            return future.result(timeout=slice_s)
        except FutureTimeout:
            if cancelled() and not future.done():
                raise _CancelledWait() from None
            if deadline is not None and time.monotonic() >= deadline:
                raise


def _run_pending(
    tasks: List[AttackTask],
    *,
    workers: Optional[int],
    cache_path: Optional[str],
    serial: bool,
    store,
    echo: Callable[[str], None],
    cancel: Optional[Callable[[], bool]] = None,
    obs_dir: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> Iterator[TaskResult]:
    """Execute tasks (serially or over a pool), yielding in task order.

    A generator so :func:`run_campaign` can stream each result to its
    progress hook as it lands instead of after the whole campaign.
    """
    submitted = time.perf_counter()
    submitted_wall = time.time()
    cancelled = cancel if cancel is not None else (lambda: False)

    def stopped_result(
        task: AttackTask, status: str, error: str, *, started: bool = False
    ) -> TaskResult:
        # A task stopped before it ever ran spent the whole window queued
        # (wall_time_s=0); one abandoned mid-run keeps the elapsed window as
        # a runtime upper bound — its true split is unobservable from here.
        elapsed = time.perf_counter() - submitted
        return TaskResult(
            task_id=task.task_id,
            fingerprint=task.fingerprint(),
            status=status,
            wall_time_s=elapsed if started else 0.0,
            queue_wait_s=0.0 if started else elapsed,
            error=error,
        )

    if executor is None and (serial or workers == 1 or len(tasks) <= 1):
        for index, task in enumerate(tasks):
            elapsed = time.perf_counter() - submitted
            if cancelled():
                result = stopped_result(
                    task, "cancelled", "campaign cancelled before the task started"
                )
            elif task.timeout_s is not None and elapsed >= task.timeout_s:
                result = stopped_result(
                    task,
                    "timeout",
                    f"campaign budget of {task.timeout_s}s exhausted before "
                    "the task started",
                )
            else:
                result = execute_task(task, cache_path, submitted_wall, obs_dir)
            _report(echo, index, len(tasks), result)
            _append(store, task, result)
            yield result
        return

    if executor is not None:
        pool = executor
    else:
        workers = workers or min(len(tasks), os.cpu_count() or 2)
        pool = ProcessPoolExecutor(max_workers=workers)
    abandoned_worker = False
    produced = 0
    try:
        futures = [
            pool.submit(execute_task, task, cache_path, submitted_wall, obs_dir)
            for task in tasks
        ]
        for index, (task, future) in enumerate(zip(tasks, futures)):
            if cancelled() and not future.done():
                if future.cancel():
                    result = stopped_result(
                        task,
                        "cancelled",
                        "campaign cancelled before the task started",
                    )
                else:
                    abandoned_worker = True
                    result = stopped_result(
                        task,
                        "cancelled",
                        "campaign cancelled mid-task; worker terminated",
                        started=True,
                    )
                _report(echo, index, len(tasks), result)
                _append(store, task, result)
                yield result
                continue
            remaining: Optional[float] = None
            if task.timeout_s is not None:
                remaining = max(0.0, task.timeout_s - (time.perf_counter() - submitted))
            try:
                result = _wait_for_future(future, remaining, cancelled)
            except _CancelledWait:
                abandoned_worker = True
                result = stopped_result(
                    task,
                    "cancelled",
                    "campaign cancelled mid-task; worker terminated",
                    started=True,
                )
            except FutureTimeout:
                if future.cancel():
                    result = stopped_result(
                        task,
                        "timeout",
                        f"campaign budget of {task.timeout_s}s exhausted before "
                        "the task started",
                    )
                else:
                    abandoned_worker = True
                    result = stopped_result(
                        task,
                        "timeout",
                        f"exceeded {task.timeout_s}s budget; worker abandoned",
                        started=True,
                    )
            except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
                result = TaskResult(
                    task_id=task.task_id,
                    fingerprint=task.fingerprint(),
                    status="failed",
                    wall_time_s=time.perf_counter() - submitted,
                    error=f"{type(exc).__name__}: {exc}",
                )
            _report(echo, index, len(tasks), result)
            _append(store, task, result)
            produced += 1
            yield result
    finally:
        # The consumer close()s this generator right after the final yield,
        # so "every result delivered" — not loop fall-through — is what
        # distinguishes a clean finish from an early abort.
        if abandoned_worker or produced < len(tasks):
            # Abandoned worker: a hung task would make shutdown(wait=True)
            # block forever.  Early abort: the consumer bailed mid-stream
            # (progress hook raised, generator closed early), so running the
            # remaining futures to completion would only burn CPU on results
            # nobody will collect.  Either way, drop the queue and kill the
            # stragglers so control returns promptly.
            processes = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001 - best-effort cleanup
                    pass
        else:
            pool.shutdown(wait=True)


def _report(echo: Callable[[str], None], index: int, total: int, result: TaskResult) -> None:
    cache_note = ", ".join(
        f"{kind} {event}" for kind, event in sorted(result.cache_events.items())
    )
    detail = f" ({cache_note})" if cache_note else ""
    error = f" — {result.error}" if result.error else ""
    echo(
        f"[{index + 1}/{total}] {result.status:7s} {result.task_id} "
        f"{result.wall_time_s:.2f}s{detail}{error}"
    )


def _append(store, task: AttackTask, result: TaskResult) -> None:
    if store is None:
        return
    record = dict(result.record or _task_metadata(task))
    record["status"] = result.status
    record["wall_time_s"] = result.wall_time_s
    record["queue_wait_s"] = result.queue_wait_s
    record["cache"] = dict(result.cache_events)
    if result.error:
        record["error"] = result.error
    store.append(record)

