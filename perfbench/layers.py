"""Per-layer timing by wrapping the program's public calls from outside.

Nothing inside ``src/`` is edited: :func:`install` replaces a fixed list of
public functions and methods with thin wrappers that time each call against
the calls enclosing it on the same thread and record the counters the
call's return value carries.  :meth:`Tracer.layer_metrics` reports
per-layer inclusive time, self time and call counts.

A layer's *self* time is its span minus the part covered by child spans on
the same thread, so the self times of one thread sum to at most that
thread's busy time; ``unattributed`` is what is left of a wall time after
subtracting them.  Calls into a layer that is already open on the same
thread (recursion) add self time but no second inclusive interval.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional, Tuple

#: (module, class or None, attribute, layer name).  Functions imported by
#: name into a consumer module are wrapped in the consumer's namespace, which
#: is where the call site looks them up.
WRAP_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.runner.campaign", "DatasetSpec", "generate", "locking.generate"),
    ("repro.runner.campaign", "DatasetSpec", "build", "core.dataset_build"),
    ("repro.runner.executor", None, "train_attack_model", "gnn.train"),
    ("repro.gnn.model", "GraphSageClassifier", "predict", "gnn.predict"),
    ("repro.core.attack", None, "postprocess_predictions", "core.postprocess"),
    ("repro.core.attack", None, "remove_protection_logic", "core.removal"),
    ("repro.core.attack", None, "check_equivalence", "sat.equivalence"),
    ("repro.baselines.sat_attack", None, "check_equivalence", "sat.equivalence"),
    ("repro.baselines.fall", None, "check_equivalence", "sat.equivalence"),
    ("repro.baselines.sps", None, "check_equivalence", "sat.equivalence"),
    ("repro.baselines.sfll_hd_unlocked", None, "check_equivalence", "sat.equivalence"),
    ("repro.sat.solver", "SatSolver", "solve", "sat.solve"),
    ("repro.baselines", None, "sat_attack", "baselines.sat"),
    ("repro.baselines", None, "fall_attack", "baselines.fall"),
    ("repro.baselines", None, "sps_attack", "baselines.sps"),
    ("repro.baselines", None, "sfll_hd_unlocked_attack", "baselines.sfll_hd_unlocked"),
    ("repro.runner.cache", "ArtifactCache", "get", "runner.cache_get"),
    ("repro.runner.cache", "ArtifactCache", "put", "runner.cache_put"),
    ("repro.runner.store", "ResultStore", "append", "runner.store_append"),
    ("repro.service.api", "CampaignService", "ingest_job_store", "warehouse.ingest"),
)

#: Every layer name, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(point[3] for point in WRAP_POINTS))


class Tracer:
    """In-memory per-layer accumulator shared by every wrapper."""

    def __init__(self) -> None:
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counters: Dict[str, float] = defaultdict(float)
        #: layer -> [inclusive seconds, calls]
        self._totals: Dict[str, list] = {layer: [0.0, 0] for layer in LAYERS}
        #: (layer, thread name) -> self seconds.
        self._self_s: Dict[Tuple[str, str], float] = defaultdict(float)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def call(self, layer: str, fn: Callable, args, kwargs, on_result):
        if not self.active:
            return fn(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # [layer, start, seconds covered by child spans]
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            stack.pop()
            if stack:
                stack[-1][2] += duration
            # A nested call of a layer that is already open adds no second
            # inclusive interval, so inclusive sums never count wall time twice.
            nested = any(open_frame[0] == layer for open_frame in stack)
            thread = threading.current_thread().name
            with self._lock:
                totals = self._totals[layer]
                totals[0] += 0.0 if nested else duration
                totals[1] += 1
                self._self_s[(layer, thread)] += duration - frame[2]
        if on_result is not None:
            on_result(self, result)
        return result

    # ------------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"s", "self_s", "calls"}}`` for every known layer."""
        with self._lock:
            out = {
                layer: {"s": seconds, "self_s": 0.0, "calls": calls}
                for layer, (seconds, calls) in self._totals.items()
            }
            for (layer, _thread), seconds in self._self_s.items():
                out[layer]["self_s"] += seconds
        return out

    def self_seconds(self, thread_prefix: str) -> float:
        """Summed self time of every layer on threads named ``thread_prefix*``."""
        with self._lock:
            return sum(
                seconds
                for (_layer, thread), seconds in self._self_s.items()
                if thread.startswith(thread_prefix)
            )


def _count_sat_result(tracer: Tracer, result) -> None:
    tracer.count("sat.decisions", result.decisions)
    tracer.count("sat.conflicts", result.conflicts)
    tracer.count("sat.propagations", result.propagations)


def _count_equivalence(tracer: Tracer, result) -> None:
    tracer.count("sat.equivalent", 1.0 if result.equivalent else 0.0)


def _count_training(tracer: Tracer, result) -> None:
    _model, history, _split = result
    tracer.count("gnn.sample_wait_s", float(history.sample_wait_s))


def _count_sat_attack(tracer: Tracer, result) -> None:
    if "budget" in (result.reason or ""):
        tracer.count("sat.budget_exhausted")


def _count_cache_get(tracer: Tracer, result) -> None:
    tracer.count("runner.cache_misses" if result is None else "runner.cache_hits")


ON_RESULT = {
    "sat.solve": _count_sat_result,
    "sat.equivalence": _count_equivalence,
    "gnn.train": _count_training,
    "baselines.sat": _count_sat_attack,
    "runner.cache_get": _count_cache_get,
}

_INSTALLED: Dict[Tuple[str, Optional[str], str], Callable] = {}


def _wrap(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    on_result = ON_RESULT.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, on_result)

    return wrapper


def _wrap_scan(tracer: Tracer, fn: Callable) -> Callable:
    """Count the envelopes a warehouse scan streams (one per record read)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for envelope in fn(*args, **kwargs):
            if tracer.active:
                tracer.count("warehouse.records_scanned")
            yield envelope

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every :data:`WRAP_POINTS` entry (idempotent)."""
    for module_name, class_name, attr, layer in WRAP_POINTS:
        key = (module_name, class_name, attr)
        if key in _INSTALLED:
            continue
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        _INSTALLED[key] = original
        setattr(owner, attr, _wrap(tracer, layer, original))
    key = ("repro.warehouse.store", "Warehouse", "iter_envelopes")
    if key not in _INSTALLED:
        from repro.warehouse.store import Warehouse

        _INSTALLED[key] = Warehouse.iter_envelopes
        Warehouse.iter_envelopes = _wrap_scan(tracer, Warehouse.iter_envelopes)
