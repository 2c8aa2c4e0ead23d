"""The three benchmark workloads: ``attack``, ``matrix`` and ``service``.

Each workload has a *setup* (fill the artifact cache the timed work reads)
and a *pass* (one fixed unit of timed work).  The workload seed reaches the
program only through the generated campaign specs (``AttackConfig.seed``,
which seeds locking and, via ``derive_seed``, GNN training).

* ``attack``  — the paper-table GNNUnlock campaign: the quick profile over
  Anti-SAT, TTLock and SFLL-HD(h=2) on every ISCAS-85 benchmark (12 tasks).
  The dataset cache is warm; the model cache is emptied before every pass,
  so each task trains, predicts, post-processes, removes and verifies.
* ``matrix``  — the capability matrix: every registered attack × every
  registered scheme on c2670 at K=8 (30 cells) with the SAT baseline held to
  a :data:`MATRIX_SAT_ITERATIONS`-DIP budget, once for each of
  :data:`MATRIX_INSTANCES` locking seeds derived from the workload seed.
  Model cache emptied per pass.
* ``service`` — a live in-process ``CampaignService`` (default worker mode,
  one job slot) on loopback, driven by two closed-loop ``ServiceClient``
  threads.  Each iteration submits a distinct one-target quick GNNUnlock
  campaign (dataset and model cached), waits on the long-poll stream,
  fetches the report and runs an aggregate warehouse query.

Every pass runs serially in this process: ``run_campaign(serial=True)``,
no intra-task pool (``REPRO_INTRA_WORKERS`` unset) and no fleet.  Every
time a pass reports is in reference seconds (see ``probe.py``): the host is
probed after every campaign task and, in the service, whenever both clients
stand at a barrier and the service is idle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from probe import ReferenceClock
from repro.runner import (
    ArtifactCache,
    ResultStore,
    build_matrix,
    matrix_campaign,
    matrix_scheme_entries,
    profile_campaign,
    profile_config,
    render_matrix_report,
    render_report,
    run_campaign,
)

DEFAULT_SEED = 11
ATTACK_SCHEMES = ("antisat", "ttlock", "sfll:2@GEN65")
MATRIX_TARGET = "c2670"
MATRIX_KEY_SIZE = 8
#: DIP budget of the matrix's SAT baseline.  The standing ``repro matrix``
#: uses 16; at 4 a pass fits several times into one benchmark run while the
#: SAT-resistant cells still exhaust their budget and dominate the pass.
MATRIX_SAT_ITERATIONS = 4
#: Locking seeds per matrix pass.  A SAT cell's cost depends on the key it
#: attacks (15-26% coefficient of variation across seeds, 11% for the six
#: SAT cells together), so a pass runs the matrix once per seed derived from
#: the workload seed and ``wall_s`` takes each cell's median over them.
MATRIX_INSTANCES = 6
#: Locking seeds per pass of a traced run, which times one untraced and one
#: traced pass and so would otherwise take twice as long.
MATRIX_TRACE_INSTANCES = 3
#: Shortest stretch of campaign work between two host probes; shorter tasks
#: share a probe.
PROBE_EVERY_S = 0.1
#: Back-to-back reads of the live report per campaign ``query`` sample, which
#: is their median: a collector pause or host blip in one read is dropped.
QUERY_READS = 3
#: Locking families without a post-processing rectifier; their GNNUnlock
#: cells run with post-processing off, which for them is the documented
#: identity.  With it on, an instance the GNN predicts as all-design is
#: handed to the Anti-SAT rectifier, whose ``AN`` labels are missing from
#: the family's class map, and the task fails with ``KeyError: 'AN'`` on
#: some seeds (e.g. 303 for cyclic).
UNRECTIFIED_SCHEMES = ("cyclic", "sarlock", "xor")
SERVICE_TARGETS = ("c2670", "c3540", "c5315", "c7552")
SERVICE_CLIENTS = 2
#: Jobs per service pass.  Every pass starts a fresh service, so each one
#: streams the same jobs into an empty warehouse.
SERVICE_JOBS_PER_PASS = 30
#: Iterations each client runs between two barriers.  At a barrier both
#: clients wait until the service is idle and the host is probed; the next
#: segment starts with both submitting at once, so its first job runs
#: without queueing and the rest queue behind the other client's job.
SERVICE_SEGMENT_ITERATIONS = 3

#: Record fields that carry wall-clock or cache-provenance data; everything
#: else must be identical between passes of the same specs.
VOLATILE_FIELDS = frozenset({"recorded_at", "cache", "wall_time_s", "queue_wait_s"})

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())


def base_config(seed: int):
    return dataclasses.replace(profile_config("quick"), seed=int(seed))


def instance_seeds(seed: int, count: int) -> List[int]:
    """``seed`` followed by ``count - 1`` seeds drawn from it."""
    rng = random.Random(seed)
    return [int(seed)] + [rng.randrange(1 << 30) for _ in range(count - 1)]


def stable_record(record: dict) -> str:
    """Canonical JSON of a record's deterministic fields."""
    return json.dumps(
        {
            key: value
            for key, value in record.items()
            if key not in VOLATILE_FIELDS and not key.endswith("_time_s")
        },
        sort_keys=True,
        default=str,
    )


def fill_dataset_cache(tasks, cache_dir: Path) -> None:
    """Generate every distinct dataset of ``tasks`` into the artifact cache."""
    cache = ArtifactCache(cache_dir)
    specs = {task.dataset.fingerprint(): task.dataset for task in tasks}
    for key, spec in specs.items():
        if not cache.has("dataset", key):
            cache.put("dataset", key, spec.generate())


@dataclasses.dataclass
class PassResult:
    #: Every time below is in reference seconds (milliseconds for ``_ms``).
    wall_s: float
    turnaround_ms: List[float]
    query_ms: List[float]
    attempted: int
    failed: int
    #: Digest of the pass's deterministic output (compared across passes).
    digest: str = ""
    #: Worker-thread busy seconds (service) used for unattributed time.
    busy_s: Optional[float] = None
    #: Per-task runtimes in task order and the task ids (campaign
    #: workloads; the matrix repeats each id once per locking seed).
    task_s: List[float] = dataclasses.field(default_factory=list)
    task_ids: List[str] = dataclasses.field(default_factory=list)
    #: Service only: fetched reports and per-job timing samples.
    extra: Dict[str, list] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)
    #: Unscaled wall time of the pass (probes excluded).
    raw_wall_s: float = 0.0
    #: Wall time spent probing the host during the pass.
    probing_s: float = 0.0
    #: Probe times taken during the pass.
    probes: List[float] = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
class CampaignWorkload:
    """Shared pass logic of the two serial-campaign workloads."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False, trace: bool = False):
        self.seed = int(seed)
        self.smoke = smoke
        self.trace = trace
        self.tasks = self.build_tasks()

    def build_tasks(self) -> list:
        raise NotImplementedError

    def setup(self, work: Path) -> Dict[str, object]:
        cache_dir = work / "cache"
        fill_dataset_cache(self.tasks, cache_dir)
        return {"cache_dir": cache_dir}

    def render(self, records: Sequence[dict]) -> str:
        raise NotImplementedError

    def pin_problems(self, records: Sequence[dict]) -> List[str]:
        return []

    def check(self, passes: Sequence[PassResult], state: Dict[str, object]) -> None:
        """Every pass (traced or not) must store identical records."""
        for result in passes[1:]:
            if result.digest != passes[0].digest:
                result.failed = result.attempted
                result.problems.append("pass output differs from the first pass")

    def run_pass(self, state: Dict[str, object], work: Path, index: int) -> PassResult:
        """Run the campaign once; after every task, re-render the live report.

        Reading the live report after each finished task (as ``repro
        report`` on a campaign's store while it runs) is the ``query``
        sample, the median of :data:`QUERY_READS` reads, and the
        time from campaign start to the task's result its ``turnaround``.
        The host is probed before the first task and after a report once
        :data:`PROBE_EVERY_S` of work has passed since the last probe.
        """
        cache_dir = Path(state["cache_dir"])
        shutil.rmtree(cache_dir / "model", ignore_errors=True)
        store_path = work / f"pass-{index}.jsonl"
        clock = ReferenceClock()
        #: (clock time of the task's result, clock time its report was read)
        events: List[tuple] = []

        def on_result(_index, _total, _result) -> None:
            done = clock.now()
            reads = []
            for _ in range(QUERY_READS):
                t0 = clock.now()
                self.render(ResultStore(store_path).load())
                reads.append((t0, clock.now()))
            events.append((done, reads))
            if clock.now() - last_mark[0] >= PROBE_EVERY_S:
                clock.mark()
                last_mark[0] = clock.now()

        clock.mark()
        started = clock.now()
        last_mark = [started]
        results = run_campaign(
            self.tasks, cache_dir=cache_dir, serial=True,
            store=ResultStore(store_path), on_result=on_result,
        )
        ended = clock.now()
        records = ResultStore(store_path).load()
        problems = [
            f"{result.task_id}: {result.status} {result.error or ''}".strip()
            for result in results
            if not result.ok
        ]
        failed = len(problems)
        pin = self.pin_problems(records)
        if pin:
            problems += pin
            failed = len(results)
        digest = hashlib.sha256(
            "\n".join([self.render(records)] + [stable_record(r) for r in records]).encode()
        ).hexdigest()
        return PassResult(
            wall_s=clock.scaled(started, ended),
            turnaround_ms=[clock.scaled(started, done) * 1e3 for done, _ in events],
            query_ms=[
                statistics.median(clock.scaled(t0, t1) for t0, t1 in reads) * 1e3
                for _, reads in events
            ],
            attempted=len(results),
            failed=failed,
            digest=digest,
            task_s=[
                clock.scaled(done - result.wall_time_s, done)
                for (done, _), result in zip(events, results)
            ],
            task_ids=[task.task_id for task in self.tasks],
            problems=problems,
            raw_wall_s=ended - started,
            probing_s=clock.probing_s,
            probes=clock.probes,
        )


class AttackWorkload(CampaignWorkload):
    name = "attack"

    def build_tasks(self):
        if self.smoke:
            spec = profile_campaign(
                "quick", schemes=("antisat",), targets=("c2670",),
                config=base_config(self.seed),
            )
        else:
            spec = profile_campaign(
                "quick", schemes=ATTACK_SCHEMES, config=base_config(self.seed)
            )
        return spec.expand()

    def render(self, records):
        return render_report(records)

    def pin_problems(self, records):
        if self.smoke or self.seed != DEFAULT_SEED:
            return []
        digest = hashlib.sha256(render_report(records).encode()).hexdigest()
        if digest != PINNED["attack_report_sha256"]:
            return [f"attack report digest {digest} != pinned"]
        return []


class MatrixWorkload(CampaignWorkload):
    name = "matrix"

    def build_tasks(self):
        tasks = []
        schemes = ("antisat",) if self.smoke else matrix_scheme_entries()
        if self.smoke:
            instances = 1
        else:
            instances = MATRIX_TRACE_INSTANCES if self.trace else MATRIX_INSTANCES
        for seed in instance_seeds(self.seed, instances):
            for scheme in schemes:
                spec = matrix_campaign(
                    targets=(MATRIX_TARGET,),
                    key_sizes=(MATRIX_KEY_SIZE,),
                    schemes=(scheme,),
                    sat_iterations=MATRIX_SAT_ITERATIONS,
                    config=base_config(seed),
                )
                if scheme in UNRECTIFIED_SCHEMES:
                    spec.postprocessing = (False,)
                tasks += spec.expand()
        return tasks

    def render(self, records):
        return render_matrix_report(records)

    @property
    def pin_key(self) -> str:
        """Key of this run size's default-seed cells in ``pinned.json``."""
        if self.smoke:
            return "matrix_smoke_cells"
        return "matrix_trace_cells" if self.trace else "matrix_cells"

    def pin_problems(self, records):
        if self.seed != DEFAULT_SEED:
            return []
        cells = json.loads(json.dumps(build_matrix(records)))
        pinned = PINNED[self.pin_key]
        if cells != pinned:
            changed = sorted(
                key for key in set(cells) | set(pinned) if cells.get(key) != pinned.get(key)
            )
            return [f"matrix cells differ from pinned: {', '.join(changed)}"]
        return []


# ----------------------------------------------------------------------
class ServiceWorkload:
    name = "service"

    def __init__(self, seed: int, smoke: bool = False, trace: bool = False):
        self.seed = int(seed)
        self.smoke = smoke
        self.targets = SERVICE_TARGETS[:1] if smoke else SERVICE_TARGETS
        self.jobs_per_pass = 4 if smoke else SERVICE_JOBS_PER_PASS
        self.config = base_config(self.seed)

    def job_spec(self, target: str, name: str):
        return profile_campaign(
            "quick", schemes=("antisat",), targets=(target,), name=name,
            config=self.config,
        )

    def _service(self, state_dir: Path, cache_dir: Path):
        from repro.service import CampaignService

        return CampaignService(state_dir, port=0, job_slots=1, cache_dir=cache_dir)

    def setup(self, work: Path) -> Dict[str, object]:
        """Start a service and push one warm-up job per target through it.

        Ends when the last warm-up report has been fetched: the dataset is
        generated and every target's model trained and cached.
        """
        from repro.service import ServiceClient

        cache_dir = work / "cache"
        service = self._service(work / "setup-state", cache_dir).start()
        busy_s = 0.0
        try:
            client = ServiceClient(service.url)
            for target in self.targets:
                job = client.submit(self.job_spec(target, f"warmup-{target}"))["job"]
                snapshot = client.wait(job["job_id"], timeout=120)
                if snapshot["status"] != "done":
                    raise RuntimeError(f"warm-up job for {target}: {snapshot['status']}")
                client.report(job["job_id"])
                busy_s += snapshot["timings"]["run_s"]
        finally:
            service.stop()
        return {"cache_dir": cache_dir, "busy_s": busy_s}

    def check(self, passes: Sequence[PassResult], state: Dict[str, object]) -> None:
        """Every fetched report must equal the offline report of its spec.

        The campaign name is not part of the rendered report, so one offline
        run per target is the reference for every job on that target.
        """
        reference = {}
        for target in self.targets:
            results = run_campaign(
                self.job_spec(target, f"offline-{target}").expand(),
                cache_dir=Path(state["cache_dir"]),
                serial=True,
            )
            reference[target] = render_report([r.record for r in results])
        for result in passes:
            for name, target, report in result.extra["reports"]:
                if report != reference[target]:
                    result.failed += 1
                    result.problems.append(f"{name}: report differs from offline run")

    def run_pass(self, state: Dict[str, object], work: Path, index: int) -> PassResult:
        """Drain :data:`SERVICE_JOBS_PER_PASS` jobs through a fresh service.

        The clients meet at a barrier every
        :data:`SERVICE_SEGMENT_ITERATIONS` iterations; there the host is
        probed once the service has ingested every finished job, so no
        probe overlaps service work.
        """
        from repro.service import ServiceClient

        service = self._service(work / f"state-{index}", Path(state["cache_dir"])).start()
        clock = ReferenceClock()
        lock = threading.Lock()
        #: Per successful job: clock times (submit, submitted, report read,
        #: query done), queue wait and run time (ms), and the fetched report.
        samples: List[tuple] = []
        problems: List[str] = []
        counts = {"attempted": 0, "failed": 0, "records": 0}

        def settle_and_mark() -> None:
            deadline = time.monotonic() + 30
            while (
                service.metrics.value("repro_warehouse_ingested_records_total") < counts["records"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.0005)
            clock.mark()

        barrier = threading.Barrier(SERVICE_CLIENTS, action=settle_and_mark)

        def client_loop(client_index: int) -> None:
            client = ServiceClient(service.url)
            jobs = range(client_index, self.jobs_per_pass, SERVICE_CLIENTS)
            for iteration, i in enumerate(jobs):
                if iteration and iteration % SERVICE_SEGMENT_ITERATIONS == 0:
                    try:
                        barrier.wait(timeout=120)
                    except threading.BrokenBarrierError:
                        with lock:
                            problems.append(f"client {client_index}: barrier broken")
                target = self.targets[i % len(self.targets)]
                name = f"bench-{self.seed}-{index}-{i}"
                ok = True
                try:
                    t0 = clock.now()
                    job = client.submit(self.job_spec(target, name))["job"]
                    t1 = clock.now()
                    snapshot = client.wait(job["job_id"], timeout=120)
                    with lock:
                        counts["records"] += snapshot["progress"]["tasks_ok"]
                    report = client.report(job["job_id"])
                    t2 = clock.now()
                    client.warehouse_query(aggregate=True)
                    t3 = clock.now()
                    progress = snapshot["progress"]
                    if snapshot["status"] != "done" or progress["tasks_ok"] != progress["tasks_total"]:
                        ok = False
                        with lock:
                            problems.append(f"{name}: job {snapshot['status']}")
                except Exception as exc:  # noqa: BLE001 - an error is a failed op
                    ok = False
                    with lock:
                        problems.append(f"{name}: {type(exc).__name__}: {exc}")
                with lock:
                    counts["attempted"] += 1
                    if not ok:
                        counts["failed"] += 1
                        continue
                    timings = snapshot["timings"]
                    samples.append((
                        (t0, t1, t2, t3),
                        timings["queue_wait_s"] * 1e3,
                        timings["run_s"] * 1e3,
                        (name, target, report),
                    ))

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"bench-client-{c}")
            for c in range(SERVICE_CLIENTS)
        ]
        try:
            clock.mark()
            started = clock.now()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ended = clock.now()
            settle_and_mark()
        finally:
            service.stop()
        spans = [times for times, _, _, _ in samples]
        return PassResult(
            wall_s=clock.scaled(started, ended),
            turnaround_ms=[clock.scaled(t0, t2) * 1e3 for t0, _, t2, _ in spans],
            query_ms=[clock.scaled(t2, t3) * 1e3 for _, _, t2, t3 in spans],
            attempted=counts["attempted"],
            failed=counts["failed"],
            busy_s=sum(run for _, _, run, _ in samples) / 1e3,
            extra={
                "reports": [report for _, _, _, report in samples],
                "service.submit_ms": [clock.scaled(t0, t1) * 1e3 for t0, t1, _, _ in spans],
                "service.queue_wait_ms": [wait for _, wait, _, _ in samples],
                "service.run_ms": [run for _, _, run, _ in samples],
            },
            problems=problems,
            raw_wall_s=ended - started,
            probing_s=clock.probing_s,
            probes=clock.probes,
        )


WORKLOADS = {
    "attack": AttackWorkload,
    "matrix": MatrixWorkload,
    "service": ServiceWorkload,
}
