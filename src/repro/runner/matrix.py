"""Capability matrix: the standing attack × defense trend campaign.

``repro matrix`` expands **every registered attack × every registered locking
scheme × a key-size sweep** into one :class:`~repro.runner.campaign.CampaignSpec`
and runs it through the ordinary runner/service machinery — content-addressed
dedupe and ``resume`` make the nightly re-sweep incremental, so only cells
whose inputs changed are recomputed.

The stored records are folded into a capability matrix: one cell per
``(scheme, key size, attack)`` with its headline metric (post-processed GNN
accuracy for GNNUnlock, success rate for the baselines), and each sweep's
cells are recorded in a :class:`WarehouseMatrixHistory` so the next sweep
can render trend deltas (improved / regressed / new / gone) against it.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..locking import SCHEMES
from .campaign import CampaignSpec, profile_config, registered_attacks
from .store import ResultStore

__all__ = [
    "WarehouseMatrixHistory",
    "build_matrix",
    "matrix_campaign",
    "matrix_scheme_entries",
    "render_matrix_report",
    "trend_deltas",
]

#: Key sizes of the default size sweep (one dataset per size).
DEFAULT_MATRIX_KEY_SIZES: Tuple[int, ...] = (8, 16)

#: Cells moving less than this are reported as unchanged.
TREND_EPSILON = 1e-9

#: DIP budget for the oracle-guided SAT baseline inside the matrix.  The
#: SAT-resistant families (Anti-SAT, SARLock) force one DIP per wrong key and
#: every DIP grows the incremental formula by two circuit copies, so an
#: unbounded run is quadratic in 2^k; a small budget keeps those cells cheap
#: while still separating them from XOR locking (broken in a few DIPs).
MATRIX_SAT_ITERATIONS = 16


def matrix_scheme_entries() -> List[str]:
    """One ``scheme[:h]`` grid entry per registered scheme, sorted by name.

    Schemes whose parameter schema includes ``h`` use the value their
    registration declared in ``matrix_params``.
    """
    entries = []
    for info in SCHEMES:
        entry = info.name
        if info.uses_h:
            h = info.matrix_params.get("h")
            if h is None:
                raise ValueError(
                    f"scheme {info.name!r} uses h but declares no matrix_params['h']"
                )
            entry += f":{h}"
        entries.append(entry)
    return entries


def matrix_campaign(
    *,
    name: str = "capability-matrix",
    suite: str = "ISCAS-85",
    key_sizes: Sequence[int] = DEFAULT_MATRIX_KEY_SIZES,
    schemes: Optional[Sequence[str]] = None,
    attacks: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    targets: Optional[Sequence[str]] = None,
    overrides: Optional[Sequence[Mapping[str, object]]] = None,
    config=None,
    timeout_s: Optional[float] = None,
    sat_iterations: Optional[int] = MATRIX_SAT_ITERATIONS,
) -> CampaignSpec:
    """The standing capability-matrix campaign.

    Defaults to every registered scheme × every registered attack on the
    small (ISCAS-85) suite with one key-size group per size — a grid a
    nightly job can finish, while still exercising each (attack, defense)
    pair.  Each keyword narrows or widens one axis.
    """
    spec = CampaignSpec(
        name=name,
        schemes=tuple(schemes) if schemes is not None else tuple(matrix_scheme_entries()),
        suites=(suite,),
        key_size_groups=tuple((int(k),) for k in key_sizes),
        benchmarks=tuple(benchmarks) if benchmarks is not None else None,
        targets=tuple(targets) if targets is not None else None,
        attacks=tuple(attacks) if attacks is not None else registered_attacks(),
        config=config if config is not None else profile_config("quick"),
        timeout_s=timeout_s,
        attack_params=(
            {"sat": {"max_iterations": int(sat_iterations)}}
            if sat_iterations is not None
            else {}
        ),
    )
    if overrides is not None:
        spec.overrides = tuple(dict(o) for o in overrides)
    return spec


# ----------------------------------------------------------------------
# Folding stored records into matrix cells.


def _cell_key(record: Mapping[str, object]) -> Optional[str]:
    """Stable cell identity of one stored record, or ``None`` if unkeyable."""
    scheme = record.get("scheme")
    attack = record.get("attack")
    if not scheme or not attack or attack == "dataset-summary":
        return None
    h = record.get("h")
    scheme_part = f"{scheme}:{h}" if h is not None else str(scheme)
    technology = record.get("technology") or ""
    keys = ".".join(str(k) for k in (record.get("key_sizes") or ()))
    return f"{scheme_part}@{technology}|k{keys}|{attack}"


def _headline(record: Mapping[str, object]) -> Optional[Tuple[str, float]]:
    """(metric name, value) of one ok record; ``None`` when it carries none."""
    for metric in ("post_accuracy", "gnn_accuracy", "baseline_success_rate"):
        value = record.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return metric, float(value)
    return None


def build_matrix(records: Iterable[Mapping[str, object]]) -> Dict[str, Dict[str, object]]:
    """Fold stored records into capability-matrix cells.

    One cell per ``scheme[:h]@TECH | key sweep | attack``; multiple records
    per cell (several targets, several resumed runs) average their headline
    metric.  Failed records count into ``n_failed`` — a cell with no ok
    record renders as ``err``, which is itself a capability datum (e.g. an
    attack that cannot parse a scheme's netlists).
    """
    cells: Dict[str, Dict[str, object]] = {}
    for record in records:
        key = _cell_key(record)
        if key is None:
            continue
        cell = cells.setdefault(
            key,
            {
                "scheme": record.get("scheme"),
                "h": record.get("h"),
                "technology": record.get("technology"),
                "key_sizes": list(record.get("key_sizes") or ()),
                "attack": record.get("attack"),
                "metric": None,
                "value": None,
                "removal": None,
                "n_ok": 0,
                "n_failed": 0,
                "_values": [],
                "_removals": [],
            },
        )
        if record.get("status") == "ok":
            cell["n_ok"] = int(cell["n_ok"]) + 1
            headline = _headline(record)
            if headline is not None:
                metric, value = headline
                cell["metric"] = cell["metric"] or metric
                cell["_values"].append(value)
            removal = record.get("removal_success_rate")
            if isinstance(removal, (int, float)) and not isinstance(removal, bool):
                cell["_removals"].append(float(removal))
        else:
            cell["n_failed"] = int(cell["n_failed"]) + 1
    for cell in cells.values():
        values = cell.pop("_values")
        removals = cell.pop("_removals")
        if values:
            cell["value"] = round(sum(values) / len(values), 6)
        if removals:
            cell["removal"] = round(sum(removals) / len(removals), 6)
    return dict(sorted(cells.items()))


# ----------------------------------------------------------------------
# Trend history.


class WarehouseMatrixHistory:
    """Matrix sweep history kept in a result warehouse directory.

    Every sweep appends one record to the history's own JSONL store in the
    warehouse (:meth:`~repro.warehouse.Warehouse.store_path`), registered
    there as source ``matrix:<name>``: histories of several names share a
    directory, and ``repro warehouse query`` sees their sweeps.
    """

    def __init__(self, warehouse, *, name: str = "capability-matrix") -> None:
        self.warehouse = warehouse
        self.name = str(name)
        self.source = f"matrix:{self.name}"
        self.store = ResultStore(warehouse.store_path(self.source))

    def append(
        self,
        cells: Mapping[str, Mapping[str, object]],
        *,
        recorded_at: Optional[float] = None,
    ) -> None:
        self.warehouse.register(self.store.path, source=self.source)
        self.store.append(
            {
                "kind": "matrix_sweep",
                "matrix": self.name,
                "sweep": len(self) + 1,
                "recorded_at": float(
                    recorded_at if recorded_at is not None else time.time()
                ),
                "cells": {key: dict(cell) for key, cell in cells.items()},
            }
        )

    def sweeps(self) -> List[Dict[str, object]]:
        return [
            record
            for record in self.store.load()
            if record.get("kind") == "matrix_sweep"
            and record.get("matrix") == self.name
            and isinstance(record.get("cells"), dict)
        ]

    def latest(self) -> Optional[Dict[str, object]]:
        sweeps = self.sweeps()
        return sweeps[-1] if sweeps else None

    def __len__(self) -> int:
        latest = self.latest()
        return int(latest.get("sweep", 0)) if latest else 0


def trend_deltas(
    cells: Mapping[str, Mapping[str, object]],
    previous: Optional[Mapping[str, Mapping[str, object]]],
) -> Dict[str, List[Tuple[str, Optional[float], Optional[float]]]]:
    """Classify each cell against the previous sweep.

    Returns ``{"improved": [...], "regressed": [...], "unchanged": [...],
    "new": [...], "gone": [...]}`` with ``(cell key, previous value, current
    value)`` triples, each bucket sorted by cell key.
    """
    previous = previous or {}
    buckets: Dict[str, List[Tuple[str, Optional[float], Optional[float]]]] = {
        "improved": [],
        "regressed": [],
        "unchanged": [],
        "new": [],
        "gone": [],
    }
    for key in sorted(set(cells) | set(previous)):
        now = cells.get(key)
        before = previous.get(key)
        now_value = now.get("value") if now else None
        before_value = before.get("value") if before else None
        if now is None:
            buckets["gone"].append((key, before_value, None))
        elif before is None:
            buckets["new"].append((key, None, now_value))
        elif now_value is None or before_value is None:
            bucket = "unchanged" if now_value == before_value else (
                "regressed" if now_value is None else "improved"
            )
            buckets[bucket].append((key, before_value, now_value))
        elif abs(now_value - before_value) <= TREND_EPSILON:
            buckets["unchanged"].append((key, before_value, now_value))
        elif now_value > before_value:
            buckets["improved"].append((key, before_value, now_value))
        else:
            buckets["regressed"].append((key, before_value, now_value))
    return buckets


# ----------------------------------------------------------------------
# Rendering.


def _format_value(cell: Mapping[str, object]) -> str:
    if cell["n_ok"] == 0:
        return "err" if cell["n_failed"] else "-"
    value = cell.get("value")
    return f"{value:.3f}" if value is not None else "ok"


def _format_opt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def render_matrix_report(
    records: Iterable[Mapping[str, object]],
    *,
    previous: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> str:
    """Deterministic text rendering of the capability matrix.

    One row per (scheme, key sweep) pair, one column per attack; the trend
    section diffs against ``previous`` (the last stored sweep's cells) when
    given.  Output depends only on the records and ``previous`` — identical
    inputs render byte-identical reports.
    """
    cells = build_matrix(records)
    lines: List[str] = ["Capability matrix", "================="]
    if not cells:
        lines.append("(no attack records)")
        return "\n".join(lines) + "\n"

    rows = sorted({key.rsplit("|", 1)[0] for key in cells})
    attacks = sorted({str(cell["attack"]) for cell in cells.values()})
    row_width = max(len("scheme | keys"), *(len(r.replace("|", " | ")) for r in rows))
    col_widths = {attack: max(len(attack), 7) for attack in attacks}

    header = "scheme | keys".ljust(row_width) + "".join(
        "  " + attack.rjust(col_widths[attack]) for attack in attacks
    )
    lines += [header, "-" * len(header)]
    for row in rows:
        text = row.replace("|", " | ").ljust(row_width)
        for attack in attacks:
            cell = cells.get(f"{row}|{attack}")
            value = _format_value(cell) if cell is not None else "-"
            text += "  " + value.rjust(col_widths[attack])
        lines.append(text)

    gnn_rows = [
        (key, cell)
        for key, cell in sorted(cells.items())
        if cell.get("removal") is not None
    ]
    if gnn_rows:
        lines += ["", "Removal success (GNNUnlock)", "---------------------------"]
        for key, cell in gnn_rows:
            lines.append(f"{key.rsplit('|', 1)[0]}: {cell['removal']:.3f}")

    lines += ["", "Trend vs previous sweep", "-----------------------"]
    if previous is None:
        lines.append("(no previous sweep stored)")
    else:
        buckets = trend_deltas(cells, previous)
        summary = ", ".join(
            f"{len(buckets[name])} {name}"
            for name in ("improved", "regressed", "unchanged", "new", "gone")
        )
        lines.append(summary)
        for name in ("improved", "regressed", "new", "gone"):
            for key, before, now in buckets[name]:
                if name in ("improved", "regressed"):
                    delta = (now or 0.0) - (before or 0.0)
                    lines.append(
                        f"  {name[:4]} {key}: {_format_opt(before)} -> "
                        f"{_format_opt(now)} ({delta:+.3f})"
                    )
                else:
                    value = now if name == "new" else before
                    lines.append(f"  {name} {key}: {_format_opt(value)}")
    return "\n".join(lines) + "\n"
