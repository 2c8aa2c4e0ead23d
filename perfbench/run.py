#!/usr/bin/env python3
"""End-to-end benchmark of the GNNUnlock campaign system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attack|matrix|service \\
        --seed 11 --seconds 20 --trace 0|1 [--smoke]

``--trace 0`` times the workload with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` first repeats the untraced timing, then
wraps the program's public layer calls (see ``perfbench/layers.py``) and
prints per-layer metrics, ``unattributed_s`` and the tracing overhead.
``--smoke`` shrinks every workload to one target and one scheme.

Everything runs serially in this one process (the service workload adds two
client threads); ``setup_s`` is the median of several fresh-interpreter
set-ups.  Passes repeat until ``--seconds`` have passed.  Every reported
time is in reference seconds: measured wall time scaled by the speed of the
host at that moment, read from a fixed probe between units of work (see
``perfbench/probe.py``).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (host metadata, sample counts, every layer).  The exit
code is non-zero when an output fails its correctness check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Interpreter switch interval while measuring (see configure_environment).
SWITCH_INTERVAL_S = 0.0005
#: Fewest timed passes a run makes, whatever ``--seconds`` says.
MIN_PASSES = 1
WORKLOAD_NAMES = ("attack", "matrix", "service")
#: Layer times that some workload never reaches, so they would read exactly
#: 0 on every traced run of it; they are reported in the detail line only
#: (their ``_calls`` counts stay in the metrics).
DETAIL_ONLY = frozenset(
    {
        "sat.solve_s",
        "baselines.sat_s",
        "baselines.fall_s",
        "baselines.sps_s",
        "baselines.sfll_hd_unlocked_s",
        "warehouse.ingest_s",
        "service.submit_ms",
        "service.queue_wait_ms",
        "service.run_ms",
        "trace.passes",
    }
)
NOTES = (
    "serial passes in one process; intra-task parallelism off "
    "(REPRO_INTRA_WORKERS unset); fleet not exercised; BLAS pinned to 1 thread"
)


def configure_environment(work: Path) -> None:
    """Pin threads and confine every file the program writes to ``work``."""
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    # A thread that wants the GIL waits up to one switch interval for the
    # thread holding it.  At the default 5 ms that wait is a wall-clock
    # quantum that does not scale with host speed and dominates the service
    # workload's hand-offs (long-poll wake-ups, HTTP handlers beside the job
    # thread); at 0.5 ms the hand-offs cost what their work costs.
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def make_workload(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, smoke=args.smoke, trace=bool(args.trace))


# ----------------------------------------------------------------------
# Statistics.


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.

    Falls back to 100 (the maximum) when there are too few samples for any.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 100


def summarise(values):
    values = list(values)
    if not values:
        return {"n": 0, "p50": None, "tail": None, "tail_p": None}
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "tail": percentile(values, p),
        "tail_p": p,
    }


# ----------------------------------------------------------------------
# Host metadata.


def blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/**/*.py``: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
# Set-up.


def setup_child(args) -> int:
    """Body of one fresh-interpreter set-up (``--setup-child DIR``)."""
    make_workload(args).setup(Path(args.setup_child))
    print("READY", flush=True)
    return 0


def timed_setup(args, work: Path) -> tuple:
    """Spawn a fresh interpreter that sets up into ``work``; time to READY.

    Returns the wall time and the same in reference seconds, scaled by the
    host probes taken just before the spawn and after the child exited.
    """
    from probe import REFERENCE_PROBE_S, probe_median

    before = probe_median()
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-child", str(work),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace", "1"]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = None
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                elapsed = time.perf_counter() - started
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or elapsed is None:
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    after = probe_median()
    return elapsed, elapsed * REFERENCE_PROBE_S / ((before + after) / 2)


# ----------------------------------------------------------------------
# Measurement.


def run_passes(workload, state, work: Path, seconds: float, first_index: int):
    """Repeat passes until ``seconds`` of wall time have passed."""
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        passes.append(workload.run_pass(state, work, first_index + len(passes)))
    return passes


def median_pass_s(passes) -> float:
    """Robust time of one pass over the workload's grid of distinct tasks.

    For a campaign: the sum over distinct task ids of each one's median
    runtime (across passes and, for the matrix, across its locking seeds),
    plus the median per-grid remainder of a pass (scheduling, store writes,
    report reads).  A slow spell of the host, or one hard key, then only
    moves its own sample, not the whole estimate.  For the service it is the
    median wall time of a pass.
    """
    if not passes[0].task_s:
        return statistics.median(p.wall_s for p in passes)
    by_task = {}
    for result in passes:
        for task_id, seconds in zip(result.task_ids, result.task_s):
            by_task.setdefault(task_id, []).append(seconds)
    grids = len(passes[0].task_ids) / len(by_task)
    remainder = statistics.median((p.wall_s - sum(p.task_s)) / grids for p in passes)
    return sum(statistics.median(times) for times in by_task.values()) + remainder


def end_to_end_metrics(workload, passes, setups) -> tuple:
    setup_samples = [scaled for _raw, scaled in setups]
    turnaround = summarise(v for p in passes for v in p.turnaround_ms)
    query = summarise(v for p in passes for v in p.query_ms)
    ops_per_pass = len(set(passes[0].task_ids)) or passes[0].attempted
    wall = median_pass_s(passes)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (ops_per_pass / wall, "1/s"),
        "turnaround_p50_ms": (turnaround["p50"], "ms"),
        "turnaround_tail_ms": (turnaround["tail"], "ms"),
        "query_p50_ms": (query["p50"], "ms"),
        "query_tail_ms": (query["tail"], "ms"),
    }
    detail = {
        "setup_samples_s": setup_samples,
        "setup_raw_s": [raw for raw, _scaled in setups],
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_raw_walls_s": [p.raw_wall_s for p in passes],
        "probe_median_s": statistics.median(v for p in passes for v in p.probes),
        "ops_per_pass": ops_per_pass,
        "turnaround": turnaround,
        "query": query,
    }
    return metrics, detail


def layer_metrics(workload, tracer, window_s, busy_s, traced, untraced) -> tuple:
    from layers import LAYERS

    layers = tracer.layer_metrics()
    counters = tracer.counters
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (layers[layer]["s"], "s")
        metrics[f"{layer}_calls"] = (layers[layer]["calls"], "count")
    for name in ("sat.decisions", "sat.conflicts", "sat.propagations",
                 "sat.budget_exhausted", "runner.cache_hits", "runner.cache_misses"):
        metrics[name] = (counters.get(name, 0.0), "count")
    metrics["gnn.sample_wait_s"] = (counters.get("gnn.sample_wait_s", 0.0), "s")
    equivalence_calls = layers["sat.equivalence"]["calls"]
    metrics["sat.equivalent_frac"] = (
        counters.get("sat.equivalent", 0.0) / equivalence_calls if equivalence_calls else 0.0,
        "ratio",
    )
    queries = sum(len(p.query_ms) for p in traced) if workload.name == "service" else 0
    metrics["warehouse.records_scanned"] = (
        counters.get("warehouse.records_scanned", 0.0) / queries if queries else 0.0,
        "count",
    )
    for name in ("service.submit_ms", "service.queue_wait_ms", "service.run_ms"):
        values = [v for p in traced for v in p.extra.get(name, [])]
        metrics[name] = (statistics.median(values) if values else 0.0, "ms")
    thread = "repro-job-worker" if workload.name == "service" else "MainThread"
    busy = busy_s if workload.name == "service" else window_s
    metrics["unattributed_s"] = (busy - tracer.self_seconds(thread), "s")
    metrics["trace.window_s"] = (window_s, "s")
    metrics["trace.passes"] = (len(traced), "count")
    metrics["tracing_overhead_s"] = (median_pass_s(traced) - median_pass_s(untraced), "s")
    detail = {
        "layers": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "self_s": {layer: layers[layer]["self_s"] for layer in LAYERS},
        "busy_s": busy,
    }
    return {k: v for k, v in metrics.items() if k not in DETAIL_ONLY}, detail


def measure(args, work: Path) -> dict:
    trace = bool(args.trace)
    setup_dirs = [work / f"setup-{i}" for i in range(1 if trace else SETUP_SAMPLES)]
    setups = [timed_setup(args, d) for d in setup_dirs]
    workload = make_workload(args)
    state = {"cache_dir": setup_dirs[-1] / "cache"}
    seconds = args.seconds / 2 if trace else args.seconds
    untraced = run_passes(workload, state, work, seconds, 0)
    traced = []
    if trace:
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.active = True
        started = time.perf_counter()
        traced_state = workload.setup(work / "setup-traced")
        setup_wall = time.perf_counter() - started
        busy = float(traced_state.get("busy_s", 0.0))
        traced = run_passes(workload, traced_state, work, seconds, len(untraced))
        tracer.active = False
        window = setup_wall + sum(p.raw_wall_s for p in traced)
        busy += sum(p.busy_s or 0.0 for p in traced)
        metrics, detail = layer_metrics(workload, tracer, window, busy, traced, untraced)
    passes = untraced + traced
    workload.check(passes, traced_state if trace else state)
    if not trace:
        metrics, detail = end_to_end_metrics(workload, untraced, setups)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=int(trace),
        smoke=args.smoke,
        passes=len(passes),
        problems=[msg for p in passes for msg in p.problems][:20],
        notes=NOTES,
        metadata=metadata(),
    )
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        configure_environment(Path(args.setup_child))
        return setup_child(args)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        configure_environment(work)
        output = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(output["detail"], sort_keys=True))
    print(json.dumps(output["result"]))
    return 0 if output["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
